"""Output checks for the benchmark jobs.

Each check follows from the input's construction or from a property the
method must have, never from a stored copy of an earlier output:

- every lemma check passes and every first-loop torsion cross-check matches;
- an image of the cubic under a holomorphic change of coordinates reaches
  case (viii) and is equivalent to the cubic model;
- an input with R != 0 is not equivalent, since R vanishes on the model;
- every identity residual is identically zero and E..K from the formulas
  equal the bracket values;
- an image of the cubic rigid model has a 7-dimensional automorphism algebra
  with symbol n5_4, a Heisenberg sphere an 8-dimensional one (su(2,1));
- Tanaka prolongation totals are 7 for n5_4 and 8 for the Heisenberg
  algebra, so the two engines agree;
- the printed commutators are real and satisfy Jacobi in Fraction arithmetic;
- every printed basis field is tangent to the rigid model (checked in sympy).

`check_job(job, result, input_text)` returns a list of failure messages.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
from fractions import Fraction

import sympy as sp

CROSSCHECKED = 22           # named first-loop torsion coefficients
AUT_DIM = {"cubic": 7, "sphere": 8}
TANAKA_TOTAL = {"tanaka-n5_4": 7, "tanaka-heis": 8}


def check_job(job: dict, result: dict, input_text: str) -> list[str]:
    if job["kind"] == "identities":
        return _check_identities(result["checks"])
    payload = json.loads(result["stdout"])
    fails = []
    if payload.get("input_sha256") != hashlib.sha256(input_text.encode()).hexdigest():
        fails.append("report is not about this input (sha256 differs)")
    command = job["argv"][0]
    if command == "invariants":
        fails += _check_invariants(job["expect"], payload)
    elif command == "autcr":
        fails += _check_autcr(job["name"], payload, input_text)
    else:
        fails += _check_tanaka(job["name"], payload, input_text)
    return fails


def _check_invariants(expect: str, p: dict) -> list[str]:
    fails = []
    lemmas = p.get("lemma_checks", [])
    if not lemmas:
        fails.append("no lemma checks reported")
    fails += [f"lemma check failed: {c}" for c in lemmas if not c.endswith(": pass")]
    cross = p.get("torsion_crosscheck", {})
    if len(cross) != CROSSCHECKED:
        fails.append(f"{len(cross)} cross-checked torsions, expected {CROSSCHECKED}")
    fails += [f"cross-check {k}: {v}" for k, v in sorted(cross.items()) if v != "match"]
    if expect == "equivalent":
        want = {"branch": "R_zero", "case": "(viii)", "verdict": "equivalent to cubic model"}
    elif expect == "R_zero":
        want = {"branch": "R_zero"}
    else:
        want = {"branch": "R_nonzero", "verdict": "not equivalent to cubic model"}
    fails += [f"{k} = {p.get(k)!r}, expected {v!r}" for k, v in want.items()
              if p.get(k) != v]
    return fails


def _check_identities(c: dict) -> list[str]:
    fails = [k for k in ("T_real", "bracket_symmetry") if not c[k]]
    fails += [f"E..K formula differs: {k}" for k, ok in c["efgjk_equal"].items() if not ok]
    fails += [f"Jacobi residual {k + 1} nonzero"
              for k, ok in enumerate(c["jacobi_zero"]) if not ok]
    fails += [f"d^2 residual {k} nonzero"
              for k, ok in enumerate(c["d_squared_zero"]) if not ok]
    if len(c["jacobi_zero"]) != 5 or not c["d_squared_zero"]:
        fails.append("identity residuals missing")
    return fails


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------

_BRACKET = re.compile(r"\[e(\d+), e(\d+)\] = (.*)")
_TERM = re.compile(r"(?:\((?P<c>[^()]*)\)\*)?e(?P<k>\d+)")


def structure_constants(lines: list[str]) -> dict:
    """c[(j, k)][s] as Fractions from the printed commutators (1-based)."""
    c: dict = {}
    for line in lines:
        m = _BRACKET.fullmatch(line)
        if not m:
            raise ValueError(f"unreadable commutator {line!r}")
        j, k = int(m.group(1)), int(m.group(2))
        row = {}
        for term in m.group(3).split(" + "):
            t = _TERM.fullmatch(term.strip())
            if not t:
                raise ValueError(f"unreadable term {term!r}")
            # Fraction() refuses an imaginary unit: the algebra must be real
            row[int(t.group("k"))] = Fraction(t.group("c") or 1)
        c[(j, k)] = row
        c[(k, j)] = {s: -v for s, v in row.items()}
    return c


def jacobi_violations(c: dict, dim: int) -> list[str]:
    def bracket(u: dict, v: dict) -> dict:
        out: dict = {}
        for a, ua in u.items():
            for b, vb in v.items():
                for s, cs in c.get((a, b), {}).items():
                    out[s] = out.get(s, Fraction(0)) + ua * vb * cs
        return {s: v for s, v in out.items() if v}

    bad = []
    for a, b, d in itertools.combinations(range(1, dim + 1), 3):
        ea, eb, ed = {a: Fraction(1)}, {b: Fraction(1)}, {d: Fraction(1)}
        total: dict = {}
        for u, v, w in ((ea, eb, ed), (eb, ed, ea), (ed, ea, eb)):
            for s, val in bracket(bracket(u, v), w).items():
                total[s] = total.get(s, Fraction(0)) + val
        if any(total.values()):
            bad.append(f"Jacobi fails on (e{a}, e{b}, e{d})")
    return bad


def _split_field(text: str) -> list[tuple[str, str]]:
    """'(c1) d/dz + (c2) d/dw1' -> [('c1', 'z'), ('c2', 'w1')]."""
    parts, depth, start = [], 0, None
    k = 0
    while k < len(text):
        ch = text[k]
        if ch == "(":
            if depth == 0:
                start = k + 1
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                m = re.match(r"\) d/d(\w+)", text[k:])
                parts.append((text[start:k], m.group(1)))
                k += m.end() - 1
        k += 1
    return parts


def _rigid_phis(model_text: str) -> list[str]:
    rigid = model_text.split("[rigid]", 1)[1]
    return [m.group(2) for m in re.finditer(r"^Phi(\d+) = (.*)$", rigid, re.M)]


def tangency_failures(basis: list[str], model_text: str) -> list[str]:
    """Re X tangent to Im w_j = Phi_j(z, zb): Im W^j = 2 Re(Z dPhi_j/dz) on M."""
    x, y = sp.symbols("x y", real=True)
    phis_text = _rigid_phis(model_text)
    d = len(phis_text)
    u = sp.symbols(f"u1:{d + 1}", real=True)
    zs, zbs = sp.symbols("z zb")
    ws = sp.symbols(f"w1:{d + 1}")
    names = {"z": zs, "zb": zbs, "i": sp.I, **{f"w{j + 1}": ws[j] for j in range(d)}}

    def parse(s: str):
        return sp.sympify(s.replace("^", "**"), locals=names)

    on_m = {zs: x + sp.I * y, zbs: x - sp.I * y}
    phis = [parse(s) for s in phis_text]
    dphis = [sp.diff(p, zs).subs(on_m, simultaneous=True) for p in phis]
    on_m.update({ws[j]: u[j] + sp.I * phis[j].subs(on_m, simultaneous=True)
                 for j in range(d)})
    bad = []
    for n, field in enumerate(basis, start=1):
        comps = {name: parse(c) for c, name in _split_field(field)}
        Z = comps.get("z", 0)
        Zm = sp.sympify(Z).subs(on_m, simultaneous=True)
        for j in range(d):
            W = sp.sympify(comps.get(f"w{j + 1}", 0)).subs(on_m, simultaneous=True)
            B = Zm * dphis[j]
            res = sp.expand((W - sp.conjugate(W)) / (2 * sp.I) - B - sp.conjugate(B))
            if res != 0:
                bad.append(f"basis field {n} not tangent in w{j + 1}")
    return bad


def _check_autcr(name: str, p: dict, model_text: str) -> list[str]:
    fails = []
    kind = name.split("-")[0]
    dim = p.get("dimension")
    if dim != AUT_DIM[kind]:
        fails.append(f"autcr dimension {dim}, expected {AUT_DIM[kind]}")
    if len(p.get("basis", [])) != dim:
        fails.append("basis length differs from the dimension")
    if kind == "cubic" and p.get("symbol_label") != "n5_4":
        fails.append(f"symbol {p.get('symbol_label')!r}, expected 'n5_4'")
    try:
        c = structure_constants(p.get("commutators", []))
    except ValueError as exc:
        return fails + [str(exc)]
    fails += jacobi_violations(c, dim or 0)
    fails += tangency_failures(p.get("basis", []), model_text)
    return fails


def _check_tanaka(name: str, p: dict, alg_text: str) -> list[str]:
    grading = re.search(r"^grading = (.*)$", alg_text, re.M).group(1).split()
    total = len(grading)
    for comp in p.get("components", []):
        m = re.fullmatch(r"g(\d+): dim (\d+)", comp)
        if not m:
            return [f"unreadable component {comp!r}"]
        total += int(m.group(2))
    if total != TANAKA_TOTAL[name]:
        return [f"Tanaka total {total}, expected {TANAKA_TOTAL[name]}"]
    return []
