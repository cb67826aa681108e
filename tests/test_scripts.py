"""The scripts under scripts/ still match the library they call."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    """Import scripts/<name>.py as a module without running its main()."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_cubic_pipeline_imports():
    assert callable(load_script("run_cubic_pipeline").main)


def test_scan_classifies_a_basic_entry(capsys):
    scan = load_script("scan_deformations")
    deltas = scan.BASIC[0]
    assert deltas[0][1] == "z**4*zb"
    rep = scan.classify(scan.pair_deformation(deltas), "z**4*zb")
    assert rep.case == "(i)"
    assert "R == 0 case (i)" in capsys.readouterr().out
