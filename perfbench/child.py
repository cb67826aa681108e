"""Run one benchmark job in a fresh interpreter and print its result as JSON.

Usage: python3 perfbench/child.py ROOT JOBS_JSON INDEX [--trace]

ROOT is the checkout whose `src/crcartan` is measured.  The import of
`crcartan.cli` happens before the clock starts.  The job's time is the CPU
time of this process (user + system) during the call alone.  The set-up time
is the CPU time of this process from its start through the end of that
import.  With --trace the public functions in TRACED are wrapped (under every
name the program calls them through) and the result carries per-function
self time and call counts, plus the largest numerator (terms) and
denominator (total degree) among the Exprs they return.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import sys
import time

# (module, function) pairs wrapped in a traced run
TRACED = (
    ("cli", "main"), ("cli", "parse_model_file"), ("cli", "parse_algebra_file"),
    ("frames", "build_frame"), ("frames", "structure_functions"),
    ("frames", "efgjk_from_formulas"), ("frames", "jacobi_relations_check"),
    ("coframes", "darboux_structure"), ("coframes", "d_squared_check"),
    ("equivalence", "initial_torsion"), ("equivalence", "stage_structure"),
    ("equivalence", "extract_torsion"), ("equivalence", "branch_R0"),
    ("equivalence", "branch_Rneq0"),
    ("crosscheck", "first_loop_reference"), ("crosscheck", "compare"),
    ("autcr", "solve_rigid_aut"), ("autcr", "tangency_residuals"),
    ("autcr", "symbol_algebra"),
    ("liealg", "nullspace"), ("liealg", "recognize_dim_le5"),
    ("liealg", "tanaka_prolong"), ("liealg", "validate"),
)


def import_program(root: str):
    """Import crcartan from ROOT/src and nowhere else."""
    src = os.path.join(os.path.abspath(root), "src")
    if not os.path.isfile(os.path.join(src, "crcartan", "cli.py")):
        raise SystemExit(f"no crcartan sources under {src}")
    sys.path.insert(0, src)
    import crcartan.cli
    if not os.path.abspath(crcartan.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"crcartan imported from {crcartan.cli.__file__}, not {src}")
    return crcartan.cli


class Tracer:
    """Spans kept in memory: self CPU time and calls per traced function."""

    def __init__(self, expr_type):
        self.expr_type = expr_type
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.stack: list[list[float]] = []   # [start, time covered by children]
        self.seen: dict[int, object] = {}    # returned objects already measured
        self.num_terms_max = 0
        self.den_degree_max = 0

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            frame = [time.process_time(), 0.0]
            self.stack.append(frame)
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = time.process_time()
                self.stack.pop()
                dur = end - frame[0]
                self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[1]
                self.calls[name] = self.calls.get(name, 0) + 1
            self.measure(return_value)
            # the walk above is tracing cost: hide it from the enclosing span
            if self.stack:
                self.stack[-1][1] += time.process_time() - frame[0]
            return return_value
        return traced

    def measure(self, obj, depth: int = 0) -> None:
        """Largest numerator and denominator among the Exprs inside obj."""
        if depth > 4 or id(obj) in self.seen:
            return
        if isinstance(obj, (str, int, float, bool, type(None))):
            return
        self.seen[id(obj)] = obj
        if isinstance(obj, self.expr_type):
            self.num_terms_max = max(self.num_terms_max, len(obj.numerator().terms()))
            self.den_degree_max = max(self.den_degree_max,
                                      obj.denominator().total_degree())
            return
        if isinstance(obj, dict):
            children = obj.values()
        elif isinstance(obj, (list, tuple)):
            children = obj
        elif dataclasses.is_dataclass(obj):
            children = [getattr(obj, f.name) for f in dataclasses.fields(obj)
                        if not f.name.startswith("_")]
        else:
            # slotted value types (TwoForm, ExtElem, VectorField, ...)
            slots = getattr(type(obj), "__slots__", ())
            children = [getattr(obj, s) for s in slots
                        if not s.startswith("_") and hasattr(obj, s)]
        for child in children:
            self.measure(child, depth + 1)


def install_tracer() -> Tracer:
    """Wrap every TRACED function under each crcartan module name bound to it."""
    import importlib
    from crcartan.exact import Expr
    tracer = Tracer(Expr)
    modules = [importlib.import_module(f"crcartan.{m}") for m in
               ("cli", "exact", "frames", "coframes", "equivalence",
                "crosscheck", "autcr", "liealg")]
    for mod_name, fn_name in TRACED:
        owner = importlib.import_module(f"crcartan.{mod_name}")
        fn = getattr(owner, fn_name)
        wrapped = tracer.wrap(f"{mod_name}.{fn_name}", fn)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, attr, wrapped)
    return tracer


def run_identities(cli, model_path: str) -> dict:
    """Criterion 09's identity checks on one model, through the public API."""
    from crcartan.coframes import d_squared_check, darboux_structure
    from crcartan.frames import (build_frame, efgjk_from_formulas,
                                 jacobi_relations_check, lie_bracket,
                                 structure_functions)
    with open(model_path, encoding="utf-8") as fh:
        mf = cli.parse_model_file(fh.read())
    fr = build_frame(cli.graphing_functions(mf), "s12")
    sf = structure_functions(fr)
    formulas = efgjk_from_formulas(sf)
    jacobi = jacobi_relations_check(sf)
    d2 = d_squared_check(darboux_structure(fr, sf), fr)
    return {
        "R_zero": sf.R.is_zero,
        "T_real": (fr.T - fr.T.conj()).is_zero,
        "bracket_symmetry": (lie_bracket(fr.Lbar, fr.S)
                             - lie_bracket(fr.L, fr.Sbar)).is_zero,
        "efgjk_equal": {k: (formulas[k] - getattr(sf, k)).is_zero for k in "EFGJK"},
        "jacobi_zero": [r.is_zero for r in jacobi],
        "d_squared_zero": [t.is_zero for t in d2],
    }


def main() -> int:
    root, jobs_path, index = sys.argv[1], sys.argv[2], int(sys.argv[3])
    trace = "--trace" in sys.argv[4:]
    cli = import_program(root)
    setup_cpu = time.process_time()
    with open(jobs_path, encoding="utf-8") as fh:
        job = json.load(fh)[index]
    tracer = install_tracer() if trace else None
    out, err = io.StringIO(), io.StringIO()
    result = {"job": job["name"], "setup_s": setup_cpu}
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        c0 = time.process_time()
        if job["kind"] == "cli":
            result["exit"] = cli.main(job["argv"])
        else:
            result["checks"] = run_identities(cli, job["input"])
            result["exit"] = 0
        result["seconds"] = time.process_time() - c0
    result["stdout"] = out.getvalue()
    if tracer is not None:
        result["self_s"] = tracer.self_s
        result["calls"] = tracer.calls
        result["num_terms_max"] = tracer.num_terms_max
        result["den_degree_max"] = tracer.den_degree_max
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
