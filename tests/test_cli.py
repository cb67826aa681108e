import json
import subprocess
import sys
from pathlib import Path

import pytest

from crcartan.cli import main, parse_algebra_file, parse_model_file, render_algebra
from crcartan.liealg import LieAlgebra, validate
from crcartan.exact import GaussRat

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "crcartan.cli", *args],
                          capture_output=True, text=True, cwd=ROOT)
    return proc.returncode, proc.stdout, proc.stderr


def test_frame_cubic_prints_displayed_values():
    rc, out, _ = run_cli("frame", str(MODELS / "cubic.model"))
    assert rc == 0
    assert "(4) d/du1 + (16*x) d/du2 + (16*y) d/du3" in out
    assert "(8) d/du2 + (-8*i) d/du3" in out
    assert "structure_functions.R = 0" in out


def test_frame_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.model"
    bad.write_text("convention = s12\nphi1 = x +* y\nphi2 = x^3\nphi3 = y^3\n")
    rc, out, err = run_cli("frame", str(bad))
    assert rc == 2
    assert "parse error" in err


def test_invariants_cubic_verdict():
    rc, out, _ = run_cli("invariants", str(MODELS / "cubic.model"))
    assert rc == 0
    assert "verdict = equivalent to cubic model" in out
    assert "case = (viii)" in out


def test_invariants_quartic_machine_output():
    rc, out, _ = run_cli("invariants", str(MODELS / "quartic.model"),
                         "--emit", "machine")
    assert rc == 0
    payload = json.loads(out)
    assert payload["branch"] == "R_nonzero"
    assert len(payload["invariants"]) == 12
    assert all(ok.endswith("pass") for ok in payload["lemma_checks"])


def test_invariants_branch_force_mismatch():
    rc, _, err = run_cli("invariants", str(MODELS / "quartic.model"),
                         "--branch-force", "r0")
    assert rc == 3
    assert "diagnostic" in err


def test_determinism():
    args = ("invariants", str(MODELS / "cubic.model"), "--emit", "machine")
    rc1, out1, _ = run_cli(*args)
    rc2, out2, _ = run_cli(*args)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_report_embeds_hash_and_convention():
    rc, out, _ = run_cli("invariants", str(MODELS / "cubic.model"),
                         "--emit", "machine")
    payload = json.loads(out)
    assert len(payload["input_sha256"]) == 64
    assert payload["convention"] == "s13"


def test_autcr_cubic():
    rc, out, _ = run_cli("autcr", str(MODELS / "cubic.model"),
                         "--weight-bound", "3")
    assert rc == 0
    assert "dimension = 7" in out
    assert "symbol_label = n5_4" in out


def test_autcr_heisenberg_contains_dw():
    rc, out, _ = run_cli("autcr", str(MODELS / "heisenberg.model"),
                         "--weight-bound", "2")
    assert rc == 0
    assert "(1) d/dw1" in out


def test_autcr_heisenberg_symbol():
    rc, out, _ = run_cli("autcr", str(MODELS / "heisenberg.model"),
                         "--weight-bound", "4")
    assert rc == 0
    assert "dimension = 8" in out
    assert "symbol_grading = 0 -2 -1 -1 0 1 1 2" in out
    assert "symbol_label = n3_1" in out


def test_autcr_minimal_bound_error():
    rc, _, err = run_cli("autcr", str(MODELS / "heisenberg.model"),
                         "--weight-bound", "1")
    assert rc == 3
    assert "below the model" in err


def test_tanaka_n5_4():
    rc, out, _ = run_cli("tanaka", str(MODELS / "n5_4.alg"))
    assert rc == 0
    assert "g0: dim 2" in out
    assert "g1: dim 0" in out


def test_tanaka_requires_grading(tmp_path):
    f = tmp_path / "a5.alg"
    f.write_text("dim = 5\n")
    rc, _, err = run_cli("tanaka", str(f))
    assert rc == 3
    assert "grading" in err


def test_cross_check_flag():
    rc, out, _ = run_cli("invariants", str(MODELS / "quartic.model"),
                         "--cross-check", "--emit", "machine")
    assert rc == 0
    payload = json.loads(out)
    assert payload["torsion_crosscheck"]
    assert all(v == "match" for v in payload["torsion_crosscheck"].values())


# ---------------------------------------------------------------------------
# file formats round trip
# ---------------------------------------------------------------------------

def test_model_file_parsing():
    mf = parse_model_file((MODELS / "cubic.model").read_text())
    assert mf.convention == "s13"
    assert mf.rigid_phis is not None and len(mf.rigid_phis) == 3


def test_algebra_format_round_trip():
    g = LieAlgebra.from_brackets(4, {(0, 1): {2: GaussRat(2)},
                                     (0, 2): {3: GaussRat(1, 2)}})
    text = render_algebra(g)
    g2, grading, J = parse_algebra_file(text)
    assert grading is None and J is None
    assert validate(g2) == "ok"
    for j in range(4):
        for k in range(4):
            for s in range(4):
                assert g.c[j][k][s] == g2.c[j][k][s]
