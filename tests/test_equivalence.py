import random
from fractions import Fraction

import pytest

from conftest import random_deformation
from crcartan.coframes import TwoForm
from crcartan.crosscheck import (compare, first_loop_reference,
                                 normalization_reference, rneq0_reference,
                                 second_loop_reference)
from crcartan.equivalence import (EquivalenceError, ExtDomain, Geometry,
                                  GroupElement, Stage, _conj_form, _ext_subs_a,
                                  _lower_tri_inverse, _torsion_row, branch_R0,
                                  branch_Rneq0, first_loop, initial_stage,
                                  initial_torsion, run_method)
from crcartan.exact import GaussRat, I, standard_context
from crcartan.liealg import LieAlgebra, validate
from test_liealg import change_basis


# ---------------------------------------------------------------------------
# ambiguity group
# ---------------------------------------------------------------------------

def ambiguity_matrix(g: GroupElement, zero):
    """The ambiguity matrix itself (coframe-change shape)."""
    a, b, c, d, e = g.a, g.b, g.c, g.d, g.e
    ab, bb, cb, db, eb = g.conj_entries()
    z = zero
    return [
        [a * ab * ab, z, cb, eb, db],
        [z, a * a * ab, c, d, e],
        [z, z, a * ab, bb, b],
        [z, z, z, ab, z],
        [z, z, z, z, a],
    ]


def is_ambiguity_shape(m) -> bool:
    """Check a 5x5 matrix has the ambiguity-group shape (closure test)."""
    a = m[4][4]
    ab = m[3][3]
    if a.is_zero:
        return False
    checks = [
        a.conj() == ab,
        m[0][0] == a * ab * ab, m[1][1] == a * a * ab, m[2][2] == a * ab,
        m[1][2].conj() == m[0][2],          # c, c bar
        m[1][4].conj() == m[0][3],          # e, e bar
        m[1][3].conj() == m[0][4],          # d, d bar
        m[2][4].conj() == m[2][3],          # b, b bar
    ]
    zeros = [m[1][0], m[0][1], m[2][0], m[2][1], m[3][0], m[3][1], m[3][2],
             m[4][0], m[4][1], m[4][2], m[3][4], m[4][3]]
    return all(checks) and all(z.is_zero for z in zeros)


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
        m1 = ambiguity_matrix(g1, GaussRat(0))
        m2 = ambiguity_matrix(g2, GaussRat(0))
        prod = [[sum((m1[i][k] * m2[k][j] for k in range(5)), GaussRat(0))
                 for j in range(5)] for i in range(5)]
        assert is_ambiguity_shape(prod)
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


def _quartic_stage_after_a_is_A0(geom):
    """The R != 0 branch's stage with c, b, d normalized and a := A0."""
    ts = initial_torsion(geom)
    sub = first_loop(ts)
    edom = ExtDomain(geom.frame, geom.sf.R)
    F = [[_ext_subs_a(edom, v.subs(sub)) for v in row] for row in ts.stage.F]
    return Stage(edom, F, [d.map(edom.lift) for d in geom.base_d])


def torsion_row_term_by_term(stage, Finv, k):
    """_torsion_row's reference: one product c_ij Finv_im Finv_jm2 per term."""
    dom = stage.dom
    tf0 = TwoForm()
    for l in range(5):
        fkl = stage.F[k][l]
        for w in range(5):
            tf0.add_term(w, l, dom.frame_apply(w, fkl))
        for (i, j), c in stage.base_d[l].coeffs.items():
            tf0.add_term(i, j, fkl * c)
    tf = TwoForm()
    for (i, j), c in tf0.coeffs.items():
        for m in range(5):
            for m2 in range(5):
                tf.add_term(m, m2, c * Finv[i][m] * Finv[j][m2])
    return tf


def test_torsion_row_matches_the_term_by_term_conversion(r_zero_geometry,
                                                         quartic_geometry):
    for stage in (initial_stage(r_zero_geometry),
                  _quartic_stage_after_a_is_A0(quartic_geometry)):
        for k in range(5):
            got = _torsion_row(stage, stage.Finv, k)
            ref = torsion_row_term_by_term(stage, stage.Finv, k)
            assert got.coeffs, k
            assert set(got.coeffs) == set(ref.coeffs), k
            for ij, c in got.coeffs.items():
                assert c == ref.coeffs[ij], (k, ij)


def test_barred_structure_equations_are_conjugates(r_zero_geometry, quartic_geometry):
    # d sigma_bar and d zeta_bar, worked out directly, are the conjugates of
    # d sigma and d zeta, on a plain stage and on an extension stage; `==`
    # and not `str`, since equal coefficients may print differently
    for stage in (initial_stage(r_zero_geometry),
                  _quartic_stage_after_a_is_A0(quartic_geometry)):
        Finv = _lower_tri_inverse(stage.dom, stage.F)
        for barred, k in ((0, 1), (3, 4)):
            direct = _torsion_row(stage, Finv, barred)
            conj = _conj_form(_torsion_row(stage, Finv, k))
            assert direct.coeffs, barred
            assert set(direct.coeffs) == set(conj.coeffs), barred
            for ij, c in direct.coeffs.items():
                assert c == conj.coeffs[ij], (barred, ij)


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


def test_ext_inverse_on_derandomized_elements(quartic_geometry):
    # x * x^-1 == 1 on elements p + q A0 + r A0b whose coordinates are small
    # polynomials in x, y; the first three are a base-field element and pure
    # A0 and A0b multiples
    edom = ExtDomain(quartic_geometry.frame, quartic_geometry.sf.R)
    ctx = edom.ctx
    x, y = ctx.vars("x", "y")
    monomials = (ctx.one, x, y, x * y, x * x)
    rng = random.Random(26)

    def coordinate():
        out = ctx.zero
        for mono in monomials:
            if rng.random() < 0.5:
                out = out + mono * GaussRat(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                                            rng.randint(-2, 2))
        return out if not out.is_zero else ctx.one

    elements = [edom.lift(coordinate()), edom.A0 * coordinate(),
                edom.A0b * coordinate()]
    while len(elements) < 20:
        elements.append(edom.lift(coordinate()) + edom.A0 * coordinate()
                        + edom.A0b * coordinate())
    for k, el in enumerate(elements):
        assert el * el.inverse() == edom.one, (k, el)


def test_ext_inverse_refuses_a_zero_divisor(quartic_geometry):
    # with R = 1, R^2 Rb = 1 is a cube and the extension splits: A0 - 1
    # divides A0^3 - 1 = 0, so it has no inverse
    edom = ExtDomain(quartic_geometry.frame, quartic_geometry.frame.ctx.one)
    with pytest.raises(EquivalenceError, match="A0 elimination incomplete"):
        (edom.A0 - 1).inverse()


def test_lower_tri_inverse_is_an_inverse(quartic_geometry):
    # Finv . F == I entry by entry, on a plain stage and on an extension stage
    for stage in (initial_stage(quartic_geometry),
                  _quartic_stage_after_a_is_A0(quartic_geometry)):
        dom, F = stage.dom, stage.F
        Finv = _lower_tri_inverse(dom, F)
        for i in range(5):
            for j in range(5):
                entry = dom.zero
                for k in range(5):
                    entry = entry + Finv[i][k] * F[k][j]
                assert entry == (dom.one if i == j else dom.zero), (i, j)


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
    assert change_basis(target, psi_matrix()).c == aut_table_algebra().c


def test_model_involutivity_data():
    from crcartan.equivalence import model_involutivity_data
    data = model_involutivity_data()
    # s1' = 2 exceeds the zero degree of indeterminacy: prolongation forced
    assert data == {"s1_prime": 2, "degree_of_indeterminacy": 0}
