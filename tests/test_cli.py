import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from crcartan.cli import main, parse_algebra_file, parse_model_file, render_algebra
from crcartan.liealg import LieAlgebra, validate
from crcartan.exact import GaussRat

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"
DATA = Path(__file__).resolve().parent / "data"


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "crcartan.cli", *args],
                          capture_output=True, text=True, cwd=ROOT)
    return proc.returncode, proc.stdout, proc.stderr


def run_main(*args):
    """main() in this process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(args))
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def quartic_machine_cross_check():
    """One run of `invariants quartic.model --cross-check --emit machine`."""
    return run_cli("invariants", str(MODELS / "quartic.model"),
                   "--cross-check", "--emit", "machine")


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


def test_invariants_quartic_machine_output(quartic_machine_cross_check):
    rc, out, _ = quartic_machine_cross_check
    assert rc == 0
    payload = json.loads(out)
    assert payload["branch"] == "R_nonzero"
    assert len(payload["invariants"]) == 12
    assert all(ok.endswith("pass") for ok in payload["lemma_checks"])


@pytest.mark.parametrize("data, args", [
    ("quartic.invariants.txt", ()),
    ("quartic.invariants.machine.json", ("--emit", "machine", "--cross-check")),
])
def test_invariants_quartic_stdout_is_pinned(data, args):
    # the R != 0 branch's printed values, byte for byte; an intended change
    # to this output rewrites the file under tests/data
    proc = subprocess.run([sys.executable, "-m", "crcartan.cli", "invariants",
                           "models/quartic.model", *args],
                          capture_output=True, cwd=ROOT)
    assert proc.returncode == 0
    assert proc.stdout == (DATA / data).read_bytes()


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


def test_autcr_bracket_outside_the_ansatz_error():
    rc, out, err = run_cli("autcr", str(MODELS / "heisenberg.model"),
                           "--weight-bound", "3")
    assert rc == 3 and out == ""
    assert "bracket leaves the solution span: weight bound 3 too small" in err


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


def test_cross_check_flag(quartic_machine_cross_check):
    rc, out, _ = quartic_machine_cross_check
    assert rc == 0
    payload = json.loads(out)
    assert payload["torsion_crosscheck"]
    assert all(v == "match" for v in payload["torsion_crosscheck"].values())


@pytest.mark.parametrize("command", ["autcr", "tanaka"])
def test_cross_check_only_on_frame_and_invariants(command):
    path = MODELS / ("n5_4.alg" if command == "tanaka" else "cubic.model")
    with pytest.raises(SystemExit) as exc:
        run_main(command, str(path), "--cross-check")
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# exit contract: 0, 2 (parse error) or 3 (pipeline diagnostic), no traceback
# ---------------------------------------------------------------------------

CUBIC_PHIS = "phi2 = 2*x^3 + 2*x*y^2\nphi3 = 2*x^2*y + 2*y^3\n"


@pytest.mark.parametrize("command, name, text", [
    ("frame", "zero.model", "phi1 = 1/0\n" + CUBIC_PHIS),
    ("autcr", "codim.model",
     "phi1 = x^2 + y^2\n" + CUBIC_PHIS + "[rigid]\ncodim = three\nPhi1 = z*zb\n"),
    ("autcr", "inhomogeneous.model",
     "phi1 = x^2 + y^2\n" + CUBIC_PHIS + "[rigid]\ncodim = 1\nPhi1 = z*zb + z^2*zb^2\n"),
    ("tanaka", "dim.alg", "dim = x\ngrading = -1 -1 -2\n[e1, e2] = e3\n"),
    ("tanaka", "dim0.alg", "dim = 0\ngrading =\n"),
    ("tanaka", "index.alg", "dim = 3\ngrading = -1 -1 -2\n[e7, e1] = e2\n"),
    ("tanaka", "index0.alg", "dim = 3\ngrading = -1 -1 -2\n[e0, e1] = e2\n"),
    ("tanaka", "grading.alg", "dim = 2\ngrading = 1 1\n"),
    ("tanaka", "j.alg", "dim = 3\ngrading = -1 -1 -2\nJ = e1 -> e3\n"),
    ("tanaka", "const.alg", "dim = 3\ngrading = -1 -1 -2\n[e1, e2] = e3 + 1\n"),
    ("autcr", "w.model",
     "phi1 = x^2 + y^2\n" + CUBIC_PHIS + "[rigid]\ncodim = 1\nPhi1 = z*zb*(w1 + wb1)\n"),
    ("invariants", "group.model", "phi1 = x^2 + y^2 + a*ab*x^4\n" + CUBIC_PHIS),
    ("frame", "cuberoot.model", "phi1 = x^2 + y^2 + A0*A0b*x^4\n" + CUBIC_PHIS),
    ("frame", "phi1twice.model", "phi1 = x^2 + y^2\n" + CUBIC_PHIS + "phi1 = x^2\n"),
    ("frame", "convtwice.model",
     "convention = s12\nconvention = s13\nphi1 = x^2 + y^2\n" + CUBIC_PHIS),
    ("autcr", "codimtwice.model",
     "phi1 = x^2 + y^2\n" + CUBIC_PHIS + "[rigid]\ncodim = 1\ncodim = 1\nPhi1 = z*zb\n"),
    ("autcr", "Phitwice.model",
     "phi1 = x^2 + y^2\n" + CUBIC_PHIS + "[rigid]\nPhi1 = z*zb\nPhi1 = 2*z*zb\n"),
    ("tanaka", "bracket.alg", "dim = 3\ngrading = -1 -1 -2\n[e1, e2] = e3\n[e1, e2] = 0\n"),
    ("tanaka", "swapped.alg", "dim = 3\ngrading = -1 -1 -2\n[e1, e2] = e3\n[e2, e1] = -e3\n"),
    ("tanaka", "dimtwice.alg", "dim = 3\ndim = 3\ngrading = -1 -1 -2\n[e1, e2] = e3\n"),
    ("tanaka", "gradingtwice.alg",
     "dim = 3\ngrading = -1 -1 -2\ngrading = -1 -1 -2\n[e1, e2] = e3\n"),
    ("tanaka", "jtwice.alg", "dim = 3\ngrading = -1 -1 -2\nJ = e1 -> e2, e2 -> -e1\n"
                             "J = e1 -> e2, e2 -> -e1\n[e1, e2] = e3\n"),
    ("tanaka", "prefix.alg", "dimension = 3\ngrading = -1 -1 -2\n[e1, e2] = e3\n"),
])
def test_bad_input_is_a_parse_error(tmp_path, command, name, text):
    path = tmp_path / name
    path.write_text(text)
    rc, out, err = run_main(command, str(path))
    assert rc == 2
    assert out == ""
    assert "parse error" in err


@pytest.mark.parametrize("command, text, message", [
    ("invariants", "convention = s12\nphi1 = x^2 + y^2 + a*ab*x^4\n" + CUBIC_PHIS,
     "parse error: line 2: phi1 may depend on x, y, u1, u2, u3 only, not ['a', 'ab']"),
    ("autcr", "phi1 = x^2 + y^2\n" + CUBIC_PHIS + "[rigid]\ncodim = 1\n\n"
              "Phi1 = z*zb + z^2*zb^2\n",
     "parse error: line 7: Phi1 is not homogeneous in (z, zb)"),
    ("tanaka", "dim = 3\ngrading = -1 -1 -2\nJ = e1 -> e3\n[e1, e2] = e3\n",
     "parse error: line 3: J entry 'e1 -> e3' leaves the degree -1 part"),
    ("tanaka", "dim = 3\ngrading = -1 -1 -2\nJ = e1 => e2\n[e1, e2] = e3\n",
     "parse error: line 3: bad J entry 'e1 => e2'"),
])
def test_model_check_names_its_line(tmp_path, command, text, message):
    path = tmp_path / "bad.model"
    path.write_text(text)
    rc, out, err = run_main(command, str(path))
    assert (rc, out, err) == (2, "", message + "\n")


def test_closed_stdout_keeps_exit_contract():
    """A reader that closes the pipe before the report is written."""
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "crcartan.cli", "tanaka", str(MODELS / "n5_4.alg")],
            stdout=w, stderr=subprocess.PIPE, text=True, cwd=ROOT)
    finally:
        os.close(w)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr


MODEL_LINES = [
    "convention = s12", "convention = s13", "convention = s14",
    "phi1 = x^2 + y^2", "phi2 = 2*x^3 + 2*x*y^2", "phi3 = 2*x^2*y + 2*y^3",
    "phi1 = 1/0", "phi1 = 1", "phi2 = x +* y", "phi3 = (x", "phi4 = x",
    "[rigid]", "codim = three", "codim = 1", "codim = 2", "Phi1 = z*zb",
    "Phi2 = 1/0", "Phi2 = w1", "Phi3 = z", "# comment", "", "junk", "= 3",
]
SMALL = st.integers(min_value=-1, max_value=6)
ALGEBRA_LINES = st.one_of(
    st.sampled_from(["dim = x", "dim =", "grading = a", "J = e1 => e2",
                     "[e1, e2]", ""]),
    st.lists(st.integers(min_value=-3, max_value=1), max_size=6).map(
        lambda g: "grading = " + " ".join(map(str, g))),
    st.tuples(SMALL, SMALL, st.sampled_from(
        ["e1", "e3", "0", "2*e2 - e4", "e1*e2", "1/0", "q"])).map(
        lambda t: f"[e{t[0]}, e{t[1]}] = {t[2]}"),
    st.lists(st.tuples(SMALL, st.booleans(), SMALL), min_size=1, max_size=3).map(
        lambda es: "J = " + ", ".join(f"e{a} -> {'-' if neg else ''}e{b}"
                                      for a, neg, b in es)),
)
# free text without digits, so that no line asks for a huge dimension or power
FREE_LINE = st.text(alphabet="phixyzuwdimgrJe=[],+-*/() #>", max_size=12)


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    st.tuples(st.sampled_from(["frame", "invariants"]),
              st.lists(st.one_of(st.sampled_from(MODEL_LINES), FREE_LINE),
                       max_size=8)),
    st.tuples(st.just("tanaka"),
              st.tuples(SMALL.map(lambda n: f"dim = {n}"),
                        st.lists(st.one_of(ALGEBRA_LINES, FREE_LINE), max_size=8)
                        ).map(lambda t: [t[0], *t[1]])),
))
def test_main_keeps_exit_contract(tmp_path_factory, case):
    command, lines = case
    path = tmp_path_factory.getbasetemp() / "contract.input"
    path.write_text("\n".join(lines) + "\n")
    rc, _, _ = run_main(command, str(path))
    assert rc in (0, 2, 3)


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
