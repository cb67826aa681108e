"""Scan polynomial deformations of the cubic model and classify each one.

For every candidate deformation this prints the branch (R identically zero or
not) and, in the R = 0 branch, the normalization case reached together with
which essential torsions survive.  Used to hunt for inputs realizing the
rarer cases; the interesting finds are frozen into the test suite.

Usage: python scripts/scan_deformations.py [--grid]
"""

import argparse
import time
from fractions import Fraction

from crcartan.equivalence import Geometry, run_method
from crcartan.exact import GaussRat
from crcartan.frames import pair_deformation


def classify(g, name):
    geom = Geometry.build(g)
    if not geom.sf.R.is_zero:
        print(f"{name}: R != 0", flush=True)
        return None
    rep = run_method(geom)
    nz = sorted(nm for nm, v in rep.invariants.items()
                if getattr(v, "is_zero", True) is False)
    print(f"{name}: R == 0 case {rep.case}  nonzero={nz}", flush=True)
    return rep


BASIC = [
    [(GaussRat(1), "z**4*zb")],
    [(GaussRat(1), "u1*z**3")],
    [(GaussRat(1), "u1*z**2")],
    [(GaussRat(1), "(u2+i*u3)*z")],
    [(GaussRat(1), "z**2*zb**2")],
]


def grid_scan():
    """weight-6 family u1 z^4 + t (u2+iu3) z^3 + s z^5 zb, rational t, s."""
    tvals = [Fraction(p, q) for q in (1, 2) for p in range(-4, 5) if (p, q) != (0, 2)]
    svals = [GaussRat(Fraction(p, q)) for q in (1, 2) for p in range(-4, 5)
             if (p, q) != (0, 2)]
    svals += [GaussRat(0, Fraction(p, q)) for q in (1, 2) for p in range(-4, 5)
              if p and (p, q) != (0, 2)]
    hits = []
    for t in tvals:
        for s in svals:
            name = f"w6 t={t} s={s}"
            g = pair_deformation([
                (GaussRat(1), "u1*z**4"),
                (GaussRat(t), "(u2+i*u3)*z**3"),
                (s, "z**5*zb"),
            ])
            geom = Geometry.build(g)
            if not geom.sf.R.is_zero:
                continue
            rep = run_method(geom)
            x1 = rep.invariants.get("X1''")
            w9 = rep.invariants.get("W9''")
            x1z = x1 is None or x1.is_zero
            w9z = w9 is None or w9.is_zero
            if x1z:
                print(f"{name}: case {rep.case} X1''==0 W9''{'==0' if w9z else '!=0'}",
                      flush=True)
                hits.append((t, s, rep.case))
    print("hits:", hits, flush=True)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--grid", action="store_true",
                    help="run the weight-6 two-parameter grid scan")
    args = ap.parse_args()
    t0 = time.time()
    if args.grid:
        grid_scan()
    else:
        for deltas in BASIC:
            name = " + ".join(f"{c}*{s}" for c, s in deltas)
            classify(pair_deformation(deltas), name)
    print(f"total {time.time() - t0:.1f}s", flush=True)


if __name__ == "__main__":
    main()
