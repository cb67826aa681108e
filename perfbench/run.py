"""Job-level benchmark of crcartan: one fresh interpreter per job.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

A run generates the workload's inputs from the seed, then runs its job list
one child at a time.  A child imports crcartan.cli from ./src and reports
the CPU time of the job alone and the CPU time of its own start-up through
that import (one sample of setup_s).  CPU time rather than wall-clock time:
the program is single-threaded and waits on nothing, so the two agree on an
idle machine, but on a shared virtual machine wall-clock time also counts
the time the hypervisor gives to other tenants.  Every output is checked
(see checks.py).  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics.  --trace 1 runs every job twice,
untraced and then traced, and reports the per-layer metrics together with
the tracing overhead (traced over untraced job time).  A job that exits
non-zero counts in `failed`, makes the run not `correct` and is left out of
the metrics.  --smoke runs the first job of every workload, traced and
untraced, with every check, and exits 0 only if all pass.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402
from child import TRACED  # noqa: E402

# wall time of one round, child start-up included, on the reference machine
# (see README.md); --seconds sets the number of whole rounds, so every run
# with the same --seconds attempts the same jobs
ROUND_SECONDS = {
    "method-r0": 20.0,
    "method-rneq0": 34.0,
    "identities": 28.0,
    "symmetries": 32.0,
}

# spans each workload must record at least one call for in a traced run
EXPECTED_SPANS = {
    "method-r0": ["cli.main", "cli.parse_model_file", "frames.build_frame",
                  "frames.structure_functions", "coframes.darboux_structure",
                  "equivalence.initial_torsion", "equivalence.stage_structure",
                  "equivalence.extract_torsion", "equivalence.branch_R0",
                  "crosscheck.first_loop_reference", "crosscheck.compare"],
    "method-rneq0": ["cli.main", "cli.parse_model_file", "frames.build_frame",
                     "frames.structure_functions", "coframes.darboux_structure",
                     "equivalence.initial_torsion", "equivalence.stage_structure",
                     "equivalence.extract_torsion", "equivalence.branch_Rneq0",
                     "crosscheck.first_loop_reference", "crosscheck.compare"],
    "identities": ["cli.parse_model_file", "frames.build_frame",
                   "frames.structure_functions", "frames.efgjk_from_formulas",
                   "frames.jacobi_relations_check", "coframes.darboux_structure",
                   "coframes.d_squared_check"],
    "symmetries": ["cli.main", "cli.parse_model_file", "cli.parse_algebra_file",
                   "autcr.solve_rigid_aut", "autcr.tangency_residuals",
                   "autcr.symbol_algebra", "liealg.nullspace",
                   "liealg.recognize_dim_le5", "liealg.tanaka_prolong",
                   "liealg.validate"],
}

# a run is stopped once it takes this many times its rounds' reference wall
# time (twice that with --trace 1, which runs every job twice)
DEADLINE_MARGIN = 2.5


class Deadline(Exception):
    pass


class NoResult(Exception):
    pass


def run_deadline(workload: str, rounds: int, trace: bool) -> float:
    return (time.monotonic()
            + rounds * ROUND_SECONDS[workload] * (2 if trace else 1) * DEADLINE_MARGIN)


def succeeded(r: dict) -> bool:
    return r["returncode"] == 0 and r.get("exit") == 0


def run_child(root: str, jobs_path: str, index: int, trace: bool, work: str,
              deadline: float) -> dict:
    """Run one job in a fresh interpreter; wait4 gives its peak RSS."""
    out_path = os.path.join(work, f"job{index}{'-trace' if trace else ''}.out")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), root, jobs_path, str(index)]
    if trace:
        cmd.append("--trace")
    with open(out_path, "w", encoding="utf-8") as out, \
            open(out_path + ".err", "w", encoding="utf-8") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise Deadline(f"job {index} did not end in time")
            time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    result["returncode"] = proc.returncode
    result["peak_rss_kb"] = usage.ru_maxrss
    return result


def run_jobs(root: str, workload: str, jobs_path: str, jobs: list, work: str,
             trace: bool, deadline: float):
    """Run the list in order; return (failed, problems, untraced, traced)."""
    untraced, traced, problems = [], [], []
    failed = 0
    for k, job in enumerate(jobs):
        with open(job["input"], encoding="utf-8") as fh:
            text = fh.read()
        passes = [False, True] if trace else [False]
        job_failed = False
        for traced_pass in passes:
            r = run_child(root, jobs_path, k, traced_pass, work, deadline)
            (traced if traced_pass else untraced).append(r)
            if succeeded(r):
                msgs = checks.check_job(job, r, text)
            else:
                job_failed = True
                msgs = [f"job failed (returncode {r['returncode']}, exit {r.get('exit')})"]
            problems += [f"{workload}/{job['name']}#{job['round']}: {msg}" for msg in msgs]
        failed += job_failed
    return failed, problems, untraced, traced


def end_to_end(results: list) -> dict | None:
    """Metrics of the jobs that succeeded; None if none did."""
    ok = [r for r in results if succeeded(r)]
    if not ok:
        return None
    times = [r["seconds"] for r in ok]
    return {
        "jobs_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
        "job_s.p50": {"value": statistics.median(times), "unit": "s"},
        "setup_s": {"value": statistics.median(r["setup_s"] for r in ok), "unit": "s"},
        "peak_rss_mb": {"value": max(r["peak_rss_kb"] for r in ok) / 1024,
                        "unit": "MB"},
    }


def per_layer(untraced: list, traced: list) -> dict:
    """Spans of the traced jobs that succeeded; the overhead compares the
    jobs whose untraced and traced passes both succeeded."""
    ok = [r for r in traced if succeeded(r)]
    metrics = {}
    for mod, fn in TRACED:
        name = f"{mod}.{fn}"
        metrics[f"{name}.self_s"] = {
            "value": sum(r["self_s"].get(name, 0.0) for r in ok), "unit": "s"}
        metrics[f"{name}.calls"] = {
            "value": sum(r["calls"].get(name, 0) for r in ok), "unit": "count"}
    metrics["exact.num_terms.max"] = {
        "value": max((r["num_terms_max"] for r in ok), default=0), "unit": "terms"}
    metrics["exact.den_degree.max"] = {
        "value": max((r["den_degree_max"] for r in ok), default=0), "unit": "degree"}
    pairs = [(u, t) for u, t in zip(untraced, traced) if succeeded(u) and succeeded(t)]
    plain = sum(u["seconds"] for u, _ in pairs)
    with_trace = sum(t["seconds"] for _, t in pairs)
    metrics["trace.overhead_pct"] = {
        "value": 100.0 * (with_trace / plain - 1.0) if plain else 0.0, "unit": "%"}
    return metrics


def missing_spans(workload: str, metrics: dict) -> list[str]:
    return [f"{workload}: span {name} recorded no calls"
            for name in EXPECTED_SPANS[workload]
            if not metrics[f"{name}.calls"]["value"]]


def require_program(root: str) -> None:
    if not os.path.isfile(os.path.join(root, "src", "crcartan", "cli.py")):
        sys.exit(f"error: {root} holds no src/crcartan; run from a crcartan checkout")


def bench(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    root = os.getcwd()
    require_program(root)
    rounds = max(1, round(seconds / ROUND_SECONDS[workload]))
    deadline = run_deadline(workload, rounds, trace)
    work = os.path.join(HERE, "out", f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    jobs = gen.write_workload(workload, seed, work, rounds)
    jobs_path = os.path.join(work, f"{workload}.json")
    failed, problems, untraced, traced = run_jobs(
        root, workload, jobs_path, jobs, work, trace, deadline)
    if trace:
        metrics = per_layer(untraced, traced)
        problems += missing_spans(workload, metrics)
    else:
        metrics = end_to_end(untraced)
    for p in problems:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    if metrics is None:
        raise NoResult(f"{workload}: every job failed")
    result = {"correct": not problems, "attempted": len(jobs), "failed": failed,
              "metrics": metrics}
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds,
                   "trace": int(trace), "problems": problems,
                   "jobs": [{"name": j["name"], "round": j["round"],
                             "seconds": r.get("seconds"), "setup_s": r.get("setup_s"),
                             "peak_rss_kb": r["peak_rss_kb"]}
                            for j, r in zip(jobs, untraced)],
                   **result}, fh, indent=1)
    return result


def smoke() -> int:
    """First job of every workload, traced and untraced, with every check."""
    root = os.getcwd()
    require_program(root)
    bad = []
    for workload in gen.SLOTS:
        deadline = run_deadline(workload, 1, True)
        work = os.path.join(HERE, "out", f"smoke-{workload}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        jobs = gen.write_workload(workload, 0, work, 1, smoke=True)
        failed, problems, untraced, traced = run_jobs(
            root, workload, os.path.join(work, f"{workload}.json"), jobs, work,
            True, deadline)
        layer = per_layer(untraced, traced)
        spans = [n for n in EXPECTED_SPANS[workload] if layer[f"{n}.calls"]["value"]]
        print(f"{workload}: {jobs[0]['name']} "
              f"{untraced[0].get('seconds', float('nan')):.2f}s, "
              f"failed {failed}, problems {len(problems)}, spans seen {len(spans)}")
        bad += problems
    for p in bad:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description="crcartan job-level benchmark")
    ap.add_argument("--workload", choices=sorted(gen.SLOTS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if args.smoke:
        return smoke()
    if not args.workload:
        ap.error("--workload is required")
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except (Deadline, NoResult) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
