"""Command-line front end: parse model files, run pipelines, emit reports.

Model file grammar (diff-friendly, one assignment per line, '#' comments):

    convention = s12            # or s13
    phi1 = x^2 + y^2
    phi2 = 2*x^3 + 2*x*y^2
    phi3 = 2*x^2*y + 2*y^3

    [rigid]                     # optional block for the automorphism solver
    codim = 3
    Phi1 = z*zb
    Phi2 = z*zb*(z + zb)
    Phi3 = (z*zb*(z - zb))/i

Algebra files (for the prolongation command) list structure constants:

    dim = 5
    grading = -1 -1 -2 -3 -3
    J = e1 -> e2, e2 -> -e1
    [e1, e2] = e3
    [e1, e3] = e4
    [e2, e3] = e5

In both formats a key (a phi_j, Phi_j, codim, convention, dim, grading, J or
bracket, with [e2, e1] the same bracket as [e1, e2]) may be set only once.

Reports on stdout are bit-identical across runs for identical input (timing
goes to stderr); `--emit machine` switches to JSON with sorted keys.
Exit codes: 0 success, 2 parse error, 3 pipeline diagnostic.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
import time

from .autcr import (AutCRError, RigidModel, field_weight, rigid_context,
                    solve_rigid_aut, symbol_algebra)
from .crosscheck import compare, first_loop_reference
from .equivalence import EquivalenceError, Geometry, initial_torsion, run_method
from .exact import Context, ExactError, Expr, GaussRat, parse, render, standard_context
from .frames import FrameError, GraphingFunctions, build_frame, structure_functions
from .liealg import (GradedAlgebra, LieAlgebra, LieAlgebraError, recognize_dim_le5,
                     tanaka_prolong, validate)


class ParseError(Exception):
    def __init__(self, msg, line=None):
        super().__init__(f"line {line}: {msg}" if line else msg)


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------

class ModelFile:
    def __init__(self, convention, phis, rigid_phis, text):
        self.convention = convention
        self.phis = phis                # dict name -> (text, line)
        self.rigid_phis = rigid_phis    # list of (text, line), or None
        self.text = text

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()


def parse_model_file(text: str) -> ModelFile:
    convention = "s12"
    phis = {}
    rigid: dict[int, str] = {}
    codim = None
    section = "main"
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.lower() == "[rigid]":
            section = "rigid"
            continue
        if "=" not in line:
            raise ParseError(f"expected 'name = value', got {line!r}", lineno)
        key, val = (s.strip() for s in line.split("=", 1))
        _first_time(seen, f"Phi{int(key[3:])}" if re.fullmatch(r"Phi\d+", key) else key,
                    lineno)
        if key == "convention":
            if val not in ("s12", "s13"):
                raise ParseError(f"unknown convention {val!r}", lineno)
            convention = val
        elif section == "main" and re.fullmatch(r"phi[123]", key):
            phis[key] = (val, lineno)
        elif section == "rigid" and key == "codim":
            codim = _parse_int(val, "codim", lineno)
        elif section == "rigid" and re.fullmatch(r"Phi\d+", key):
            rigid[int(key[3:])] = (val, lineno)
        else:
            raise ParseError(f"unknown key {key!r}", lineno)
    for k in ("phi1", "phi2", "phi3"):
        if k not in phis:
            raise ParseError(f"missing {k}")
    rigid_list = None
    if rigid:
        n = codim if codim is not None else max(rigid)
        if sorted(rigid) != list(range(1, n + 1)):
            raise ParseError("rigid block must define Phi1..Phid")
        rigid_list = [rigid[j] for j in range(1, n + 1)]
    return ModelFile(convention, phis, rigid_list, text)


def _first_time(seen: dict[str, int], key: str, lineno: int) -> None:
    """Record that `key` is set on `lineno`; refuse a key set on an earlier line."""
    if key in seen:
        raise ParseError(f"{key} is already set on line {seen[key]}", lineno)
    seen[key] = lineno


def _parse_int(text: str, what: str, lineno: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{what}: expected an integer, got {text.strip()!r}",
                         lineno) from None


def _parse_poly(ctx: Context, spec, what: str) -> Expr:
    text, lineno = spec
    try:
        return parse(ctx, text)
    except (ExactError, ZeroDivisionError) as exc:
        raise ParseError(f"{what}: {exc}", lineno) from None


def graphing_functions(mf: ModelFile) -> GraphingFunctions:
    ctx = standard_context()
    try:
        return GraphingFunctions(
            ctx,
            _parse_poly(ctx, mf.phis["phi1"], "phi1"),
            _parse_poly(ctx, mf.phis["phi2"], "phi2"),
            _parse_poly(ctx, mf.phis["phi3"], "phi3"),
        )
    except FrameError as exc:
        raise ParseError(str(exc), exc.phi and mf.phis[f"phi{exc.phi}"][1]) from None


def rigid_model(mf: ModelFile) -> RigidModel:
    if not mf.rigid_phis:
        raise ParseError("no [rigid] block in model file")
    ctx = rigid_context(len(mf.rigid_phis))
    try:
        return RigidModel(ctx, tuple(
            _parse_poly(ctx, s, f"Phi{j+1}") for j, s in enumerate(mf.rigid_phis)))
    except AutCRError as exc:
        raise ParseError(str(exc), exc.phi and mf.rigid_phis[exc.phi - 1][1]) from None


# ---------------------------------------------------------------------------
# algebra files
# ---------------------------------------------------------------------------

def parse_algebra_file(text: str):
    dim = None
    grading = None
    jmap = jline = None
    brackets = {}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        key = key.strip()
        if key in ("dim", "grading", "J"):
            if not sep:
                raise ParseError(f"expected 'name = value', got {line!r}", lineno)
            _first_time(seen, key, lineno)
            if key == "dim":
                dim = _parse_int(val, "dim", lineno)
                if dim < 1:
                    raise ParseError("dim must be positive", lineno)
            elif key == "grading":
                grading = tuple(_parse_int(t, "grading", lineno) for t in val.split())
                if any(d >= 0 for d in grading):
                    raise ParseError("grading degrees must be negative", lineno)
            else:
                jmap, jline = val.strip(), lineno
            continue
        m = re.fullmatch(r"\[\s*e(\d+)\s*,\s*e(\d+)\s*\]\s*=\s*(.*)", line)
        if not m:
            raise ParseError(f"bad bracket line {line!r}", lineno)
        j, k = int(m.group(1)) - 1, int(m.group(2)) - 1
        _first_time(seen, f"[e{min(j, k) + 1}, e{max(j, k) + 1}]", lineno)
        brackets[(j, k)] = (m.group(3).strip(), lineno)
    if dim is None:
        raise ParseError("missing 'dim ='")
    ctx = Context([(f"e{s+1}", f"e{s+1}") for s in range(dim)])
    origin = {n: GaussRat(0) for n in ctx.names}
    parsed = {}
    for (j, k), (rhs, lineno) in brackets.items():
        if not (0 <= j < dim and 0 <= k < dim):
            raise ParseError(f"[e{j+1}, e{k+1}]: index outside e1..e{dim}", lineno)
        if rhs in ("0", ""):
            continue
        e = _parse_poly(ctx, (rhs, lineno), f"[e{j+1}, e{k+1}]")
        row = {}
        for s in range(dim):
            co = e.diff(f"e{s+1}")
            if not co.is_polynomial or co.variables():
                raise ParseError("bracket right side must be linear", lineno)
            v = co.evaluate(origin)
            if not v.is_zero:
                row[s] = v
        if not e.evaluate(origin).is_zero:
            raise ParseError("bracket right side has a constant term", lineno)
        parsed[(j, k)] = row
    g = LieAlgebra.from_brackets(dim, parsed)
    J = None
    if jmap and grading:
        ids = [k for k, d in enumerate(grading) if d == -1]
        J = [[GaussRat(0)] * len(ids) for _ in ids]
        for part in jmap.split(","):
            mm = re.fullmatch(r"\s*e(\d+)\s*->\s*(-?)\s*e(\d+)\s*", part)
            if not mm:
                raise ParseError(f"bad J entry {part!r}", jline)
            src, sign, dst = int(mm.group(1)) - 1, mm.group(2), int(mm.group(3)) - 1
            if src not in ids or dst not in ids:
                raise ParseError(f"J entry {part!r} leaves the degree -1 part", jline)
            J[ids.index(dst)][ids.index(src)] = GaussRat(-1 if sign else 1)
    return g, grading, J


def render_algebra(g: LieAlgebra) -> str:
    lines = [f"dim = {g.dim}"]
    for j in range(g.dim):
        for k in range(j + 1, g.dim):
            terms = []
            for s in range(g.dim):
                v = g.c[j][k][s]
                if v.is_zero:
                    continue
                cs = _coeff_str(v)
                terms.append(f"{cs}e{s+1}" if cs else f"e{s+1}")
            if terms:
                lines.append(f"[e{j+1}, e{k+1}] = " + " + ".join(terms))
    return "\n".join(lines)


def _coeff_str(v: GaussRat) -> str:
    if v == GaussRat(1):
        return ""
    return f"({v})*"


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def _emit(payload: dict, emit: str) -> str:
    if emit == "machine":
        return json.dumps(payload, sort_keys=True, indent=1)
    lines = []

    def walk(prefix, val):
        if isinstance(val, dict):
            for k in sorted(val):
                walk(f"{prefix}{k}." if prefix else f"{k}.", val[k]) if isinstance(val[k], dict) \
                    else walk(f"{prefix}{k}", val[k])
        elif isinstance(val, list):
            for item in val:
                lines.append(f"{prefix}: {item}")
        else:
            lines.append(f"{prefix} = {val}")

    walk("", payload)
    return "\n".join(lines)


def _report_header(mf: ModelFile) -> dict:
    return {"input_sha256": mf.sha256, "convention": mf.convention}


def _torsion_crosscheck(ts_values: dict, sf) -> dict:
    """First-loop torsion against its transcribed closed forms, by name."""
    return {nm: ("match" if ok else "MISMATCH")
            for nm, ok in compare(ts_values, first_loop_reference(sf))}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_frame(mf: ModelFile, args) -> dict:
    if args.convention:
        mf.convention = args.convention
    g = graphing_functions(mf)
    if args.cross_check:
        geom = Geometry.build(g)
        sf = geom.sf
    else:
        sf = structure_functions(build_frame(g, "s12"))
    fr = sf.frame if mf.convention == "s12" else build_frame(g, mf.convention)
    out = _report_header(mf)
    out["frame"] = {nm: str(f) for nm, f in fr.fields().items()}
    out["structure_functions"] = {nm: render(v) for nm, v in sf.fundamental().items()}
    if args.cross_check:
        out["torsion_crosscheck"] = _torsion_crosscheck(initial_torsion(geom).values, sf)
    return out


def cmd_invariants(mf: ModelFile, args) -> dict:
    g = graphing_functions(mf)
    geom = Geometry.build(g)
    r_zero = geom.sf.R.is_zero
    if args.branch_force == "r0" and not r_zero:
        raise EquivalenceError("branch r0 forced but R != 0 on this input")
    if args.branch_force == "rneq0" and r_zero:
        raise EquivalenceError("branch rneq0 forced but R == 0 on this input")
    rep = run_method(geom)
    out = _report_header(mf)
    out["branch"] = rep.branch
    out["case"] = rep.case
    out["verdict"] = rep.verdict
    out["invariants"] = {nm: str(v) for nm, v in sorted(rep.invariants.items())}
    out["lemma_checks"] = [f"{nm}: {'pass' if ok else 'FAIL'}"
                           for nm, ok in rep.lemma_checks]
    out["normalizations"] = {nm: str(v) for nm, v in sorted(rep.normalizations.items())}
    if args.cross_check:
        out["torsion_crosscheck"] = _torsion_crosscheck(rep.torsions["initial"], geom.sf)
    return out


def cmd_autcr(mf: ModelFile, args) -> dict:
    m = rigid_model(mf)
    alg = solve_rigid_aut(m, args.weight_bound)
    out = _report_header(mf)
    out["dimension"] = len(alg.basis)
    out["basis"] = [str(b) for b in alg.basis]
    out["commutators"] = render_algebra(alg.algebra).splitlines()[1:]
    weights = [field_weight(m, b) for b in alg.basis]
    if all(w is not None for w in weights) and any(w < 0 for w in weights):
        try:
            gm = symbol_algebra(alg, weights)
            out["symbol_grading"] = " ".join(str(w) for w in weights)
            out["symbol_label"] = recognize_dim_le5(gm.algebra)
        except (AutCRError, LieAlgebraError) as exc:
            out["symbol_label"] = f"unavailable ({exc})"
    return out


def cmd_tanaka(text: str, args) -> dict:
    g, grading, J = parse_algebra_file(text)
    if validate(g) != "ok":
        raise ParseError("structure constants do not define a Lie algebra")
    if grading is None:
        raise LieAlgebraError("grading required for the prolongation")
    gm = GradedAlgebra(g, grading, J)
    comps = tanaka_prolong(gm)
    out = {"input_sha256": hashlib.sha256(text.encode()).hexdigest()}
    out["components"] = [f"g{c.degree}: dim {c.dim}" for c in comps]
    gens = []
    for b in comps[0].basis:
        desc = []
        for d in sorted(b, reverse=True):
            desc.append(f"deg {d}: " + str([[str(x) for x in row] for row in b[d]]))
        gens.append("; ".join(desc))
    out["g0_generators"] = gens
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="crcartan",
                                 description="exact equivalence-method computations "
                                             "for CR-generic 5-manifolds in C^4")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--emit", choices=("text", "machine"), default="text")
    checked = argparse.ArgumentParser(add_help=False, parents=[common])
    checked.add_argument("--cross-check", action="store_true",
                         help="compare derived torsion against the reference closed forms")
    sub = ap.add_subparsers(dest="command", required=True)
    p_frame = sub.add_parser("frame", parents=[checked],
                             help="print the adapted frame and structure functions")
    p_frame.add_argument("file")
    p_frame.add_argument("--convention", choices=("s12", "s13"))
    p_inv = sub.add_parser("invariants", parents=[checked],
                           help="run the full equivalence method")
    p_inv.add_argument("file")
    p_inv.add_argument("--branch-force", choices=("auto", "r0", "rneq0"), default="auto")
    p_aut = sub.add_parser("autcr", parents=[common],
                           help="solve for infinitesimal automorphisms of the rigid block")
    p_aut.add_argument("file")
    p_aut.add_argument("--weight-bound", type=int, default=None)
    p_tan = sub.add_parser("tanaka", parents=[common],
                           help="prolong a graded algebra file")
    p_tan.add_argument("file")
    args = ap.parse_args(argv)

    t0 = time.time()
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
        if args.command == "tanaka":
            payload = cmd_tanaka(text, args)
        else:
            mf = parse_model_file(text)
            if args.command == "frame":
                payload = cmd_frame(mf, args)
            elif args.command == "invariants":
                payload = cmd_invariants(mf, args)
            else:
                payload = cmd_autcr(mf, args)
    except (ParseError, OSError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (EquivalenceError, FrameError, AutCRError, LieAlgebraError) as exc:
        print(f"pipeline diagnostic: {exc}", file=sys.stderr)
        return 3
    try:
        print(_emit(payload, args.emit))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull so that the
        # interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    print(f"elapsed: {time.time() - t0:.2f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
