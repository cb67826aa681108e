"""Seeded input generator for the crcartan benchmark.

Usage: python3 perfbench/gen.py --seed N --out DIR

Writes the model and algebra files of every workload into DIR and one job
list per workload, DIR/<workload>.json.  A job list is a whole number of
rounds (one here; run.py sets it from --seconds); a round is one job of each
family slot of the workload, in a fixed order.  The seed only picks
coefficients inside each slot, so the kind of each job is fixed and the same
seed always gives the same files.  In the two method workloads the seed picks
signs only: there the size of a coefficient moves a job's time by up to 25%,
which would blur the median job from seed to seed.

Polynomials are built with sympy, independently of the program: images of
the cubic under holomorphic changes of coordinates are composed here and
written out as graphs.
"""

from __future__ import annotations

import argparse
import json
import os
import random
from fractions import Fraction

import sympy as sp

x, y, u1, u2, u3 = sp.symbols("x y u1 u2 u3", real=True)
z, zb = sp.symbols("z zb")
GENS = (x, y, u1, u2, u3)
Z = x + sp.I * y

CUBIC = (x**2 + y**2, 2 * x**3 + 2 * x * y**2, 2 * x**2 * y + 2 * y**3)
CUBIC_RIGID = (z * zb, z * zb * (z + zb), -sp.I * z * zb * (z - zb))

# small coefficients; every one keeps its slot on the branch it is meant for
SMALL = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
         Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 3)]
SIGNS = [Fraction(1), Fraction(-1)]


def _q(f: Fraction):
    return sp.Rational(f.numerator, f.denominator)


def _coef(c) -> str:
    c = sp.nsimplify(c)
    re, im = sp.re(c), sp.im(c)
    if im == 0:
        return f"({re})"
    if re == 0:
        return f"({im})*i"
    return f"(({re}) + ({im})*i)"


def poly_text(expr, gens) -> str:
    """Render a polynomial in the model-file grammar ('^', '*', '/', 'i')."""
    p = sp.Poly(sp.expand(expr), *gens)
    parts = []
    for monom, c in p.terms():
        factors = [_coef(c)]
        for g, e in zip(gens, monom):
            if e:
                factors.append(f"{g}^{e}" if e > 1 else str(g))
        parts.append("*".join(factors))
    return " + ".join(parts) if parts else "0"


def model_text(phis, comment: str) -> str:
    lines = [f"# {comment}", "convention = s12"]
    for k, phi in enumerate(phis, start=1):
        lines.append(f"phi{k} = {poly_text(phi, GENS)}")
    return "\n".join(lines) + "\n"


def rigid_text(Phis, comment: str) -> str:
    lines = [f"# {comment}", "convention = s12"]
    # the graph part is not used by autcr; the cubic keeps the file valid
    for k, phi in enumerate(CUBIC, start=1):
        lines.append(f"phi{k} = {poly_text(phi, GENS)}")
    lines += ["", "[rigid]", f"codim = {len(Phis)}"]
    for k, Phi in enumerate(Phis, start=1):
        lines.append(f"Phi{k} = {poly_text(Phi, (z, zb))}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def cubic_image(a, c, d):
    """The cubic under w1 += a z^2, then w2 += c z w1, w3 += d z w1.

    The change is holomorphic and weight-preserving, so its image is
    equivalent to the cubic.  With u1 the new real coordinate, the old one is
    u1 - Re(a z^2), and w1 = u1_old + i phi1 before the change.
    """
    phi1, phi2, phi3 = CUBIC
    h1 = a * Z**2
    w1_old = u1 - sp.re(sp.expand(h1)) + sp.I * phi1
    return (sp.expand(phi1 + sp.im(sp.expand(h1))),
            sp.expand(phi2 + sp.im(sp.expand(c * Z * w1_old))),
            sp.expand(phi3 + sp.im(sp.expand(d * Z * w1_old))))


def pair_deformation(coef, shape):
    """Deform v2 + i v3 of the cubic by coef * shape(z, zb, u1)."""
    env = {"z": Z, "zb": sp.conjugate(Z), "u1": u1}
    c = sp.expand(coef * eval(shape, {}, env))
    phi1, phi2, phi3 = CUBIC
    return phi1, sp.expand(phi2 + sp.re(c)), sp.expand(phi3 + sp.im(c))


def phi_deformation(d1=0, d2=0, d3=0):
    phi1, phi2, phi3 = CUBIC
    return (sp.expand(phi1 + d1), sp.expand(phi2 + d2), sp.expand(phi3 + d3))


def rigid_cubic_image(lam, r, M):
    """Cubic rigid model under z -> lam z, w1 -> r w1, (w2, w3) -> M (w2, w3)."""
    sub = {z: z / lam, zb: zb / sp.conjugate(lam)}
    P1, P2, P3 = (sp.expand(P.subs(sub, simultaneous=True)) for P in CUBIC_RIGID)
    return (sp.expand(r * P1),
            sp.expand(M[0][0] * P2 + M[0][1] * P3),
            sp.expand(M[1][0] * P2 + M[1][1] * P3))


def pick(rng, n=1, choices=SMALL):
    return [_q(rng.choice(choices)) for _ in range(n)]


def gauss(rng, choices=SMALL):
    re, im = pick(rng, 2, choices)
    return re + sp.I * im


# Each slot: (name, branch or result it is meant to reach, builder(rng) -> job
# spec).  The order inside a workload is the order of a round.

def _r0_slots():
    def image(rng):
        # |a| < 1 keeps phi1 = x^2 + y^2 + 2a xy positive definite
        (a,) = pick(rng, 1, [Fraction(1, 2), Fraction(-1, 2)])
        return (cubic_image(a, gauss(rng, SIGNS), gauss(rng, SIGNS)),
                "image of the cubic")

    def shape(s):
        return lambda rng: (pair_deformation(gauss(rng, SIGNS), s), f"v2 + i v3 += c*{s}")

    def radial(rng):
        (c,) = pick(rng, 1, SIGNS)
        return phi_deformation(d1=c * (x**2 + y**2)**2), "phi1 += c*(x^2+y^2)^2"

    # ten jobs: the median falls between z4zb and z2zb2, inside the cluster
    # of deformations that take about the same time
    return [
        ("cubic", "equivalent", lambda rng: (CUBIC, "the cubic model")),
        ("image-1", "equivalent", image),
        ("image-2", "equivalent", image),
        ("u1z2", "R_zero", shape("u1*z**2")),
        ("z4zb", "R_zero", shape("z**4*zb")),
        ("z2zb2", "R_zero", shape("z**2*zb**2")),
        ("u1z3", "R_zero", shape("u1*z**3")),
        ("z5zb", "R_zero", shape("z**5*zb")),
        ("u1z4", "R_zero", shape("u1*z**4")),
        ("radial", "R_zero", radial),
    ]


def _rneq0_slots():
    def phi1(term, label):
        def build(rng):
            (c,) = pick(rng, 1, SIGNS)
            return phi_deformation(d1=c * term), f"phi1 += c*{label}"
        return build

    # the pair deformation (0, c x^4, c' y^4) takes 11 s alone and is left
    # out for run length; the median job is y4, well apart from its neighbours
    return [
        ("x3y", "R_nonzero", phi1(x**3 * y, "x^3*y")),
        ("xy3", "R_nonzero", phi1(x * y**3, "x*y^3")),
        ("y4", "R_nonzero", phi1(y**4, "y^4")),
        ("x4", "R_nonzero", phi1(x**4, "x^4")),
        ("x5", "R_nonzero", phi1(x**5, "x^5")),
    ]


def _identity_slots():
    def member(d1, d2, d3, label):
        def build(rng):
            c1, c2, c3 = pick(rng, 3)
            return phi_deformation(c1 * d1, c2 * d2, c3 * d3), label
        return build

    # five weight-4 members around 2.5 s and one with u1 and a weight-5 term
    # in phi1 around 8 s: the median sits inside the light cluster
    return [
        ("w4-a", "identities", member(x**2 * y**2, x**3 * y, x * y**3,
                                      "(c1 x^2y^2, c2 x^3y, c3 xy^3)")),
        ("w4-b", "identities", member(x**3 * y, x**4, y**4,
                                      "(c1 x^3y, c2 x^4, c3 y^4)")),
        ("w4-c", "identities", member(x * y**3, x**2 * y**2, x**4,
                                      "(c1 xy^3, c2 x^2y^2, c3 x^4)")),
        ("w4-d", "identities", member(y**4, x**4, x**2 * y**2,
                                      "(c1 y^4, c2 x^4, c3 x^2y^2)")),
        ("w4-e", "identities", member(x**4, x * y**3, x**3 * y,
                                      "(c1 x^4, c2 xy^3, c3 x^3y)")),
        ("w5-u1", "identities", member(x * y**4, y**4, u1 * x * y,
                                       "(c1 xy^4, c2 y^4, c3 u1 xy)")),
    ]


def _symmetry_slots():
    def cubic(rng):
        lam = gauss(rng)
        (r,) = pick(rng)
        while True:
            M = [pick(rng, 2), pick(rng, 2)]
            if M[0][0] * M[1][1] - M[0][1] * M[1][0] != 0:
                break
        return rigid_cubic_image(lam, r, M), "cubic rigid model, linear image"

    def sphere(rng):
        (s,) = pick(rng)
        return (s * z * zb,), "Heisenberg sphere, Phi1 = s*z*zb"

    # four heavy autcr jobs (each rebuilds the recognition table) and three
    # light ones: the median is the lightest heavy job.  A light median
    # (0.2-0.3 s) spread 26% from run to run on identical inputs.
    return [
        ("cubic-wb3", "dim 7, n5_4", cubic),
        ("cubic-wb3", "dim 7, n5_4", cubic),
        ("cubic-wb3", "dim 7, n5_4", cubic),
        ("cubic-wb3", "dim 7, n5_4", cubic),
        ("sphere-wb4", "dim 8", sphere),
        ("tanaka-n5_4", "5+2", None),
        ("tanaka-heis", "3+2+2+1", None),
    ]


N5_4 = """# n5_4 with its complex structure
dim = 5
grading = -1 -1 -2 -3 -3
J = e1 -> e2, e2 -> -e1
[e1, e2] = e3
[e1, e3] = e4
[e2, e3] = e5
"""

HEISENBERG = """# Heisenberg algebra with its complex structure
dim = 3
grading = -1 -1 -2
J = e1 -> e2, e2 -> -e1
[e1, e2] = e3
"""

SLOTS = {
    "method-r0": _r0_slots,
    "method-rneq0": _rneq0_slots,
    "identities": _identity_slots,
    "symmetries": _symmetry_slots,
}


def write_workload(workload: str, seed: int, out: str, rounds: int,
                   smoke: bool = False) -> list[dict]:
    """Write one workload's inputs and job list; return the jobs."""
    rng = random.Random(f"{workload}:{seed}")
    slots = SLOTS[workload]()
    if smoke:
        slots = slots[:1]
    jobs = []
    for rnd in range(rounds):
        for name, expect, build in slots:
            stem = f"{workload}-{rnd}-{len(jobs)}-{name}"
            job = {"name": name, "round": rnd, "expect": expect}
            if workload == "symmetries" and name.startswith("tanaka"):
                path = os.path.join(out, f"{stem}.alg")
                text = N5_4 if name == "tanaka-n5_4" else HEISENBERG
                job.update(kind="cli", argv=["tanaka", path, "--emit", "machine"])
            elif workload == "symmetries":
                Phis, label = build(rng)
                path = os.path.join(out, f"{stem}.model")
                text = rigid_text(Phis, label)
                wb = "3" if name.endswith("wb3") else "4"
                job.update(kind="cli", argv=["autcr", path, "--weight-bound", wb,
                                             "--emit", "machine"])
            else:
                phis, label = build(rng)
                path = os.path.join(out, f"{stem}.model")
                text = model_text(phis, label)
                if workload == "identities":
                    job.update(kind="identities")
                else:
                    job.update(kind="cli", argv=["invariants", path, "--cross-check",
                                                 "--emit", "machine"])
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            job["input"] = path
            jobs.append(job)
    with open(os.path.join(out, f"{workload}.json"), "w", encoding="utf-8") as fh:
        json.dump(jobs, fh, indent=1)
    return jobs


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)
    for workload in SLOTS:
        jobs = write_workload(workload, args.seed, args.out, 1)
        print(f"{workload}: {len(jobs)} jobs")


if __name__ == "__main__":
    main()
