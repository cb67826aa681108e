"""Tests of the benchmark itself: python3 -m pytest perfbench/selftest.py

Run from the root of a checkout.  The smoke test runs one job per workload
with every check (about half a minute).
"""

import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

CUBIC_RIGID = """convention = s12
phi1 = x^2 + y^2
phi2 = 2*x^3 + 2*x*y^2
phi3 = 2*x^2*y + 2*y^3

[rigid]
codim = 3
Phi1 = z*zb
Phi2 = z^2*zb + z*zb^2
Phi3 = (-1)*i*z^2*zb + i*z*zb^2
"""


def test_smoke_passes_every_check():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "symmetries",
                           "--seed", "1", "--seconds", "20", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_generator_is_seeded(tmp_path):
    def files(seed, sub):
        out = tmp_path / sub
        out.mkdir()
        gen.write_workload("method-r0", seed, str(out), 1)
        return {p.name: p.read_text() for p in out.iterdir() if p.suffix == ".model"}

    a, b, c = files(3, "a"), files(3, "b"), files(4, "c")
    assert a == b
    assert a != c


def test_tangency_check_rejects_a_non_tangent_field():
    dilation = "(z) d/dz + (2*w1) d/dw1 + (3*w2) d/dw2 + (3*w3) d/dw3"
    assert checks.tangency_failures(["(1) d/dw1", dilation], CUBIC_RIGID) == []
    assert checks.tangency_failures(["(1) d/dz"], CUBIC_RIGID)
    assert checks.tangency_failures(["(z) d/dz + (2*w1) d/dw1"], CUBIC_RIGID)


def test_jacobi_check_rejects_a_non_lie_bracket():
    heis = checks.structure_constants(["[e1, e2] = e3"])
    assert checks.jacobi_violations(heis, 3) == []
    bad = checks.structure_constants(["[e1, e2] = e3", "[e2, e3] = e1", "[e1, e3] = e1"])
    assert checks.jacobi_violations(bad, 3)
    with pytest.raises(ValueError):
        checks.structure_constants(["[e1, e2] = (i)*e3"])


def test_invariant_checks_reject_a_failed_lemma_and_a_wrong_verdict():
    report = {"lemma_checks": ["U5' == 0: pass"],
              "torsion_crosscheck": {f"T{k}": "match" for k in range(22)},
              "branch": "R_zero", "case": "(viii)",
              "verdict": "equivalent to cubic model"}
    assert checks._check_invariants("equivalent", report) == []
    assert checks._check_invariants("R_nonzero", report)
    failed = dict(report, lemma_checks=["U5' == 0: FAIL"])
    assert checks._check_invariants("equivalent", failed)
    mismatch = dict(report, torsion_crosscheck=dict(report["torsion_crosscheck"], T0="MISMATCH"))
    assert checks._check_invariants("equivalent", mismatch)


def test_tanaka_check_needs_the_su21_total():
    heis = gen.HEISENBERG
    ok = {"components": ["g0: dim 2", "g1: dim 2", "g2: dim 1", "g3: dim 0"]}
    assert checks._check_tanaka("tanaka-heis", ok, heis) == []
    short = {"components": ["g0: dim 2", "g1: dim 2", "g2: dim 0"]}
    assert checks._check_tanaka("tanaka-heis", short, heis)



def test_a_failed_job_makes_the_run_incorrect_and_leaves_the_metrics(tmp_path, monkeypatch):
    model = tmp_path / "job.model"
    model.write_text(CUBIC_RIGID)
    jobs = [{"name": name, "round": 0, "input": str(model)} for name in ("good", "bad")]
    good = {"returncode": 0, "exit": 0, "seconds": 1.0, "setup_s": 0.5,
            "peak_rss_kb": 1024, "self_s": {}, "calls": {},
            "num_terms_max": 1, "den_degree_max": 0}
    bad = dict(good, exit=3, seconds=0.01, setup_s=0.01, peak_rss_kb=4096)
    monkeypatch.setattr(run, "run_child", lambda root, jobs_path, k, *rest: [good, bad][k])
    monkeypatch.setattr(checks, "check_job", lambda job, r, text: [])
    failed, problems, untraced, traced = run.run_jobs(
        str(tmp_path), "method-r0", "jobs.json", jobs, str(tmp_path), True, 0.0)
    assert failed == 1
    assert len(problems) == 2 and all("bad#0: job failed" in p for p in problems)
    metrics = run.end_to_end(untraced)
    assert metrics["jobs_per_s"]["value"] == 1.0
    assert metrics["setup_s"]["value"] == 0.5
    assert metrics["peak_rss_mb"]["value"] == 1.0
    assert run.per_layer(untraced, traced)["trace.overhead_pct"]["value"] == 0.0
    assert run.end_to_end([bad]) is None
