"""The scripts under scripts/ still match the library they call."""

import hashlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


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


def test_stdout_digest_on_the_bundled_models(capsys):
    digest = load_script("stdout_digest")
    models = ROOT / "models"
    assert digest.main([str(models)]) == 0
    lines = capsys.readouterr().out.splitlines()
    model_files = list(models.glob("*.model"))
    rigid = [p for p in model_files if digest.has_rigid_block(p)]
    assert len(rigid) == 2
    assert len(lines) == (3 * len(model_files) + 3 * len(rigid)
                          + len(list(models.glob("*.alg"))))
    by_command, codes = {}, {}
    for line in lines:
        sha, command, code = line.split("  ")
        assert len(sha) == 64, line
        command = command.replace(str(models), "models")
        by_command[command], codes[command] = sha, code
    # weight bound 3 is too small for the sphere: the one diagnostic exit
    assert {c: code for c, code in codes.items() if code != "(exit 0)"} == {
        "autcr models/heisenberg.model --weight-bound 3": "(exit 3)"}
    assert "tanaka models/n5_4.alg" in by_command
    # the digest of a command is the sha256 of its stdout
    pinned = ROOT / "tests" / "data" / "quartic.invariants.txt"
    assert (by_command["invariants models/quartic.model"]
            == hashlib.sha256(pinned.read_bytes()).hexdigest())
