import random
from fractions import Fraction

import pytest

from conftest import random_deformation
from crcartan.crosscheck import (compare, first_loop_reference,
                                 normalization_reference, rneq0_reference,
                                 second_loop_reference)
from crcartan.equivalence import (EquivalenceError, ExtDomain, Geometry,
                                  GroupElement, _lower_tri_inverse, branch_R0,
                                  branch_Rneq0, first_loop, initial_stage,
                                  initial_torsion, is_ambiguity_shape, run_method)
from crcartan.exact import GaussRat, I, standard_context
from crcartan.liealg import LieAlgebra, validate, verify_isomorphism


# ---------------------------------------------------------------------------
# ambiguity group
# ---------------------------------------------------------------------------

def _random_element(rng):
    def val(nonzero=False):
        while True:
            v = GaussRat(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                         Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            if not (nonzero and v.is_zero):
                return v
    return GroupElement(val(True), val(), val(), val(), val())


def test_group_closure_and_determinant():
    rng = random.Random(5)
    for _ in range(10):
        g1 = _random_element(rng)
        g2 = _random_element(rng)
        m1 = g1.matrix(GaussRat(0))
        m2 = g2.matrix(GaussRat(0))
        prod = [[sum((m1[i][k] * m2[k][j] for k in range(5)), GaussRat(0))
                 for j in range(5)] for i in range(5)]
        assert is_ambiguity_shape(prod, conj=lambda v: v.conj())
        # determinant of the triangular shape is (a abar)^5
        det = GaussRat(1)
        piv = [prod[i][i] for i in range(5)]
        for p in piv:
            det = det * p
        aab = prod[4][4] * prod[3][3]
        assert det == aab ** 5


def test_lifted_coframe_inverse_rows(cubic_geometry):
    # sigma0 = sigma/(a^2 ab) and the zeta0 inversion row
    stage = initial_stage(cubic_geometry)
    ctx = stage.dom.ctx
    a, ab, b, bb, c, cb, d, db, e, eb = ctx.vars(
        "a", "ab", "b", "bb", "c", "cb", "d", "db", "e", "eb")
    inv = _lower_tri_inverse(stage.dom, stage.F)
    assert inv[1][1] == 1 / (a ** 2 * ab)
    assert inv[4][0] == (b * cb - a * ab * db) / (a ** 3 * ab ** 3)
    assert inv[4][1] == (b * c - a * ab * e) / (a ** 4 * ab ** 2)
    assert inv[4][2] == -b / (a ** 2 * ab)
    assert inv[4][4] == 1 / a
    # identity group element gives the identity lift
    ident = GroupElement(ctx.one, ctx.zero, ctx.zero, ctx.zero, ctx.zero)
    m = ident.lift_matrix(ctx.zero)
    for i in range(5):
        for j in range(5):
            assert m[i][j] == (ctx.one if i == j else ctx.zero)


# ---------------------------------------------------------------------------
# initial torsion
# ---------------------------------------------------------------------------

def test_initial_torsion_identities(quartic_geometry):
    ts = initial_torsion(quartic_geometry)
    ctx = quartic_geometry.frame.ctx
    a, ab, b, bb, c, cb = ctx.vars("a", "ab", "b", "bb", "c", "cb")
    i = ctx.const(I)
    sf = quartic_geometry.sf
    assert ts["W10"] == i * b / (a * ab)
    assert ts["U7"] == a * sf.R.conj() / ab ** 2
    assert ts["U6"] == sf.B / ab - cb / (a * ab ** 2)
    assert ts["U4"] == sf.B / ab


def test_initial_torsion_crosscheck_full(quartic_geometry):
    ts = initial_torsion(quartic_geometry)
    verdicts = compare(ts.values, first_loop_reference(quartic_geometry.sf))
    assert all(ok for _, ok in verdicts), [nm for nm, ok in verdicts if not ok]


# ---------------------------------------------------------------------------
# first loop
# ---------------------------------------------------------------------------

def test_first_loop_cubic(cubic_geometry, cubic_report):
    sub = first_loop(initial_torsion(cubic_geometry))
    assert cubic_report.branch == "R_zero"
    assert all(sub[k].is_zero for k in ("b", "c", "d"))


def test_first_loop_branch_decision(quartic_report):
    assert quartic_report.branch == "R_nonzero"


def test_first_loop_closed_forms():
    geom = Geometry.build(random_deformation(2))
    sub = first_loop(initial_torsion(geom))
    ctx = geom.frame.ctx
    a, ab = ctx.vars("a", "ab")
    ref = normalization_reference(geom.sf)
    assert sub["b"] == a * ref["B0"]
    assert sub["c"] == a * ab * ref["C0"]
    assert sub["d"] == ab * ref["D0"]


def test_u7_vanishes_after_substitution_when_r_zero(r_zero_report):
    # U7 is proportional to conj(R)
    assert r_zero_report.torsions["initial"]["U7"].is_zero


# ---------------------------------------------------------------------------
# branch R = 0
# ---------------------------------------------------------------------------

def test_branch_r0_cubic_prolongation(cubic_report):
    rep = cubic_report
    assert rep.case == "(viii)"
    assert rep.verdict == "equivalent to cubic model"
    for nm in ("T1", "T2", "T3", "T4", "W9''", "X1''"):
        assert rep.invariants[nm].is_zero
    assert all(ok for _, ok in rep.lemma_checks)


def test_branch_r0_e_normalization_matches_closed_form(r_zero_geometry, r_zero_report):
    a = r_zero_geometry.frame.ctx.var("a")
    ref = normalization_reference(r_zero_geometry.sf)
    assert r_zero_report.normalizations["e"] == a * ref["E0"]


def test_branch_r0_case_i_input(r_zero_report):
    rep = r_zero_report
    assert rep.case == "(i)"
    assert rep.verdict == "not equivalent to cubic model"
    x1 = rep.invariants["X1''"]
    assert not x1.is_zero
    assert (x1 + x1.conj()).is_zero  # purely imaginary
    assert all(ok for _, ok in rep.lemma_checks)


def test_second_loop_closed_forms(r_zero_geometry, r_zero_report):
    ref = second_loop_reference(r_zero_geometry.sf)
    assert r_zero_report.invariants["W9''"] == ref["W9''"]
    assert r_zero_report.invariants["X1''"] == ref["X1''"]


def test_equivalent_images_of_the_model():
    # w2 -> w2 + z^4 image and a u-dependent image via w2 -> w2 + w1^2
    ctx = standard_context()
    x, y, u1 = ctx.vars("x", "y", "u1")
    from crcartan.frames import GraphingFunctions
    images = [
        GraphingFunctions(ctx, x ** 2 + y ** 2,
                          2 * x ** 3 + 2 * x * y ** 2 + 4 * x ** 3 * y - 4 * x * y ** 3,
                          2 * x ** 2 * y + 2 * y ** 3),
        GraphingFunctions(ctx, x ** 2 + y ** 2,
                          2 * x ** 3 + 2 * x * y ** 2 + 2 * u1 * (x ** 2 + y ** 2),
                          2 * x ** 2 * y + 2 * y ** 3),
    ]
    for g in images:
        geom = Geometry.build(g)
        assert geom.sf.R.is_zero
        rep = run_method(geom)
        assert rep.case == "(viii)"
        assert rep.verdict == "equivalent to cubic model"


def test_model_equivalence_verdicts(cubic_report, r_zero_report, quartic_report):
    assert cubic_report.verdict == "equivalent to cubic model"
    assert cubic_report.branch == "R_zero" and cubic_report.case == "(viii)"
    assert all(cubic_report.invariants[f"T{k}"].is_zero for k in range(1, 5))
    assert r_zero_report.verdict == "not equivalent to cubic model"
    assert quartic_report.verdict == "not equivalent to cubic model"


# ---------------------------------------------------------------------------
# branch R != 0
# ---------------------------------------------------------------------------

def test_ext_domain_relations(quartic_geometry):
    edom = ExtDomain(quartic_geometry.frame, quartic_geometry.sf.R)
    A0, A0b = edom.A0, edom.A0b
    R = edom.lift(quartic_geometry.sf.R)
    Rb = edom.lift(quartic_geometry.sf.R.conj())
    assert (A0 * A0 - R * A0b).is_zero
    assert (A0b * A0b - Rb * A0).is_zero
    assert (A0 * A0b - R * Rb).is_zero
    assert (A0 ** 3 - R * R * Rb).is_zero
    x = edom.lift(2) + A0 * 3 - A0b
    assert (x * x.inverse() - edom.one).is_zero
    assert x.conj().conj() == x
    # derivative rule: X(A0^3) = X(R^2 Rb)
    L = quartic_geometry.frame.L
    lhs = edom.frame_apply(4, A0 ** 3)   # index 4 = L in coframe order
    R_e, Rb_e = quartic_geometry.sf.R, quartic_geometry.sf.R.conj()
    rhs = edom.lift(L.apply(R_e ** 2 * Rb_e))
    assert (lhs - rhs).is_zero
    # an extension element answers diff, subs and variables like an Expr;
    # A0 does not depend on the group parameters
    ctx = edom.ctx
    a, e, eb = ctx.vars("a", "e", "eb")
    y = edom.lift(a * eb) + A0 * e - A0b * (e * eb)
    assert y.variables() == {"a", "e", "eb"}
    assert y.diff("e") == A0 - A0b * eb
    assert y.diff("a") == edom.lift(eb)
    assert y.subs({"e": ctx.zero, "eb": ctx.one}) == edom.lift(a)
    # a float is no operand, as for Expr
    with pytest.raises(TypeError):
        edom.one + 1.5
    with pytest.raises(TypeError):
        edom.one * 0.5
    with pytest.raises(TypeError):
        1.5 / edom.one


def test_branch_rneq0_invariants(quartic_geometry, quartic_report):
    rep = quartic_report
    assert rep.branch == "R_nonzero"
    assert all(ok for _, ok in rep.lemma_checks)
    assert len(rep.invariants) == 12
    edom = rep.invariants["V3^new"].dom
    ref = rneq0_reference(edom, quartic_geometry.sf)
    for nm, val in ref.items():
        assert (rep.invariants[nm] - val).is_zero, nm


def test_branch_rneq0_refuses_r_zero(cubic_geometry):
    ts = initial_torsion(cubic_geometry)
    with pytest.raises(EquivalenceError):
        branch_Rneq0(ts, cubic_geometry)


def test_branch_r0_refuses_r_nonzero(quartic_geometry):
    ts = initial_torsion(quartic_geometry)
    with pytest.raises(EquivalenceError):
        branch_R0(ts, quartic_geometry)


# ---------------------------------------------------------------------------
# model pipeline
# ---------------------------------------------------------------------------

EXPECTED_TABLE = {
    # basis order (v_sigma, v_sigma_bar, v_rho, v_zeta, v_zeta_bar, v_alpha,
    # v_alpha_bar); entries [e_i, e_j] = sum c e_s
    (0, 5): {0: GaussRat(2)},
    (0, 6): {0: GaussRat(1)},
    (1, 5): {1: GaussRat(1)},
    (1, 6): {1: GaussRat(2)},
    (2, 3): {0: GaussRat(-1)},
    (2, 4): {1: GaussRat(-1)},
    (2, 5): {2: GaussRat(1)},
    (2, 6): {2: GaussRat(1)},
    (3, 4): {2: GaussRat(0, -1)},
    (3, 5): {3: GaussRat(1)},
    (4, 6): {4: GaussRat(1)},
}


def expected_e_structure_algebra() -> LieAlgebra:
    return LieAlgebra.from_brackets(7, EXPECTED_TABLE)


def test_model_pipeline_structure_constants(model_pipeline):
    rep, consts, dtheta7 = model_pipeline
    assert rep.verdict == "equivalent to cubic model"
    # d beta_bar and d beta vanish on the model
    assert len(dtheta7) == 7 and dtheta7[5].is_zero and dtheta7[6].is_zero
    got = LieAlgebra(7, consts)
    assert validate(got) == "ok"
    want = expected_e_structure_algebra()
    for i in range(7):
        for j in range(7):
            for s in range(7):
                assert got.c[i][j][s] == want.c[i][j][s], (i, j, s)


def aut_table_algebra() -> LieAlgebra:
    # basis order (S2, S1, T, L2, L1, D, R)
    four = GaussRat(4)
    return LieAlgebra.from_brackets(7, {
        (0, 5): {0: GaussRat(3)}, (0, 6): {1: GaussRat(-1)},
        (1, 5): {1: GaussRat(3)}, (1, 6): {0: GaussRat(1)},
        (2, 3): {0: four}, (2, 4): {1: four}, (2, 5): {2: GaussRat(2)},
        (3, 4): {2: GaussRat(-4)}, (3, 5): {3: GaussRat(1)},
        (3, 6): {4: GaussRat(-1)},
        (4, 5): {4: GaussRat(1)}, (4, 6): {3: GaussRat(1)},
    }, labels=("S2", "S1", "T", "L2", "L1", "D", "R"))


def psi_matrix():
    """Rows: images of (S2, S1, T, L2, L1, D, R) in the coframe-dual basis
    (v_sigma, v_sigma_bar, v_rho, v_zeta, v_zeta_bar, v_alpha, v_alpha_bar)."""
    h = Fraction(1, 2)
    q = Fraction(1, 4)
    z = GaussRat(0)
    return [
        [GaussRat(h), GaussRat(-q), z, z, z, z, z],
        [GaussRat(0, -h), GaussRat(0, -q), z, z, z, z, z],
        [z, z, GaussRat(1), z, z, z, z],
        [z, z, z, GaussRat(-2), GaussRat(1), z, z],
        [z, z, z, GaussRat(0, 2), GaussRat(0, 1), z, z],
        [z, z, z, z, z, GaussRat(1), GaussRat(1)],
        [z, z, z, z, z, GaussRat(0, 1), GaussRat(0, -1)],
    ]


def test_psi_is_isomorphism(model_pipeline):
    rep, consts, _ = model_pipeline
    target = LieAlgebra(7, consts)
    assert verify_isomorphism(psi_matrix(), aut_table_algebra(), target) == "ok"


def test_model_involutivity_data():
    from crcartan.equivalence import model_involutivity_data
    data = model_involutivity_data()
    # s1' = 2 exceeds the zero degree of indeterminacy: prolongation forced
    assert data == {"s1_prime": 2, "degree_of_indeterminacy": 0}
