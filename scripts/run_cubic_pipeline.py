"""End-to-end demonstration on the cubic model and a quartic deformation.

Prints the adapted frame, the rank-zero structure constants reached by the
method on the model, the involutivity data forcing the prolongation, and the
twelve essential invariants of the R != 0 branch on phi1 = x^2 + y^2 + x^4.
"""

import time

from crcartan.equivalence import (Geometry, model_involutivity_data, run_method,
                                  run_model_pipeline)
from crcartan.exact import standard_context
from crcartan.frames import build_frame, cubic_model


def main():
    t0 = time.time()
    fr = build_frame(cubic_model(), "s13")
    print("adapted frame of the cubic (doubled display scaling):")
    for name, field in fr.fields().items():
        print(f"  {name:5s} = {field}")
    print()
    print("involutivity data:", model_involutivity_data())
    rep, consts, _ = run_model_pipeline()
    print(f"model pipeline: case {rep.case}, verdict: {rep.verdict}")
    names = ["v_sigma", "v_sigma_bar", "v_rho", "v_zeta", "v_zeta_bar",
             "v_alpha", "v_alpha_bar"]
    print("rank-zero structure constants:")
    for i in range(7):
        for j in range(i + 1, 7):
            terms = [f"({consts[i][j][s]})*{names[s]}"
                     for s in range(7) if not consts[i][j][s].is_zero]
            if terms:
                print(f"  [{names[i]}, {names[j]}] = {' + '.join(terms)}")
    print()
    ctx = standard_context()
    x, y = ctx.vars("x", "y")
    from crcartan.frames import GraphingFunctions
    g = GraphingFunctions(ctx, x ** 2 + y ** 2 + x ** 4,
                          2 * x ** 3 + 2 * x * y ** 2,
                          2 * x ** 2 * y + 2 * y ** 3)
    geom = Geometry.build(g)
    rep2 = run_method(geom)
    print("quartic deformation (R != 0): twelve essential invariants")
    for nm in sorted(rep2.invariants):
        val = str(rep2.invariants[nm])
        print(f"  {nm:8s} = {val if len(val) < 100 else val[:97] + '...'}")
    print(f"\ntotal {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()
