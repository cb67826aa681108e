from fractions import Fraction

import pytest

from conftest import quartic_deformation, random_deformation
from crcartan.exact import GaussRat, I, parse, standard_context
from crcartan.frames import (FrameError, GraphingFunctions, VectorField,
                             build_frame, cubic_model, efgjk_from_formulas,
                             invert_frame, jacobi_relations_check, lie_bracket,
                             structure_functions)


def _field(ctx, *comps):
    return VectorField(ctx, [parse(ctx, c) if isinstance(c, str) else c
                             for c in comps])


# ---------------------------------------------------------------------------
# build_frame
# ---------------------------------------------------------------------------

def test_cubic_frame_doubled_scaling():
    ctx = standard_context()
    fr = build_frame(cubic_model(ctx), "s13")
    z = "0"
    want_lbar = _field(ctx, "1/2", "1/2*i", "y - i*x",
                       "2*x*y - i*(3*x^2 + y^2)", "x^2 + 3*y^2 - 2*i*x*y")
    assert fr.Lbar == want_lbar
    assert fr.T == _field(ctx, z, z, "4", "16*x", "16*y")
    assert fr.S == _field(ctx, z, z, "0", "8", "-8*i")


def test_cubic_frame_bracket_scaling():
    ctx = standard_context()
    fr = build_frame(cubic_model(ctx), "s12")
    assert fr.T == _field(ctx, "0", "0", "2", "8*x", "8*y")
    assert fr.S == _field(ctx, "0", "0", "0", "4", "-4*i")
    i = ctx.const(I)
    assert lie_bracket(fr.L, fr.Lbar).scale(i) == fr.T


def test_frame_reality():
    for g in (cubic_model(), quartic_deformation(), random_deformation(5)):
        fr = build_frame(g, "s12")
        assert fr.T.conj() == fr.T
        assert fr.S.conj() == fr.Sbar
        assert fr.L == fr.Lbar.conj()


def test_graph_validation():
    ctx = standard_context()
    x, y = ctx.vars("x", "y")
    with pytest.raises(FrameError):
        GraphingFunctions(ctx, x, 2 * x ** 3, 2 * y ** 3)      # linear part
    with pytest.raises(FrameError):
        GraphingFunctions(ctx, x ** 2 + 1, x ** 3, y ** 3)     # constant part
    with pytest.raises(FrameError):
        GraphingFunctions(ctx, ctx.const(I) * x ** 2, x ** 3, y ** 3)  # not real


# ---------------------------------------------------------------------------
# lie_bracket
# ---------------------------------------------------------------------------

def test_bracket_coordinate_example():
    ctx = standard_context()
    x = ctx.var("x")
    ddx = _field(ctx, "1", "0", "0", "0", "0")
    x_ddy = VectorField(ctx, (ctx.zero, x, ctx.zero, ctx.zero, ctx.zero))
    assert lie_bracket(ddx, x_ddy) == _field(ctx, "0", "1", "0", "0", "0")


def test_bracket_antisymmetry_and_jacobi():
    ctx = standard_context()
    fr = build_frame(cubic_model(ctx), "s12")
    X, Y, Z = fr.L, fr.Lbar, fr.T
    assert lie_bracket(X, X).is_zero
    assert (lie_bracket(X, Y) + lie_bracket(Y, X)).is_zero
    jac = (lie_bracket(X, lie_bracket(Y, Z))
           + lie_bracket(Y, lie_bracket(Z, X))
           + lie_bracket(Z, lie_bracket(X, Y)))
    assert jac.is_zero


# ---------------------------------------------------------------------------
# invert_frame
# ---------------------------------------------------------------------------

def test_cubic_inversion_table():
    # solving the 3x3 system from T = 4 du1 + 16x du2 + 16y du3,
    # S = 8 du2 - 8i du3 by hand gives
    #   du1 = T/4 - x (S + Sbar)/4 - i y (S - Sbar)/4,  du2 = (S + Sbar)/16
    ctx = standard_context()
    fr = build_frame(cubic_model(ctx), "s13")
    tab = invert_frame(fr)
    x, y = ctx.vars("x", "y")
    quarter = ctx.one / 4
    ct, cs, csb = tab.rows[0]
    i = ctx.const(I)
    assert ct == quarter
    assert cs == -x / 4 - i * y / 4
    assert csb == -x / 4 + i * y / 4
    ct2, cs2, csb2 = tab.rows[1]
    assert ct2.is_zero and cs2 == ctx.one / 16 and csb2 == ctx.one / 16
    for key, val in tab.pi_entries().items():
        assert val.is_real, key


def test_inversion_round_trip():
    for g in (cubic_model(), quartic_deformation(), random_deformation(11)):
        fr = build_frame(g, "s12")
        tab = invert_frame(fr)
        # substituting the table back into T reproduces T
        for target in (fr.T, fr.S):
            rebuilt = VectorField.zero(fr.ctx)
            for j in range(3):
                cj = target.coeffs[2 + j]
                ct, cs, csb = tab.rows[j]
                for w, co in ((fr.T, ct), (fr.S, cs), (fr.Sbar, csb)):
                    rebuilt = rebuilt + w.scale(cj * co)
            assert rebuilt == target


# ---------------------------------------------------------------------------
# structure functions
# ---------------------------------------------------------------------------

def test_cubic_structure_functions_vanish(cubic_geometry):
    sf = cubic_geometry.sf
    assert all(v.is_zero for v in sf.named().values())


def test_cubic_all_remaining_brackets_vanish():
    fr = build_frame(cubic_model(), "s12")
    pairs = [(fr.L, fr.S), (fr.Lbar, fr.S), (fr.L, fr.Sbar), (fr.Lbar, fr.Sbar),
             (fr.T, fr.S), (fr.T, fr.Sbar), (fr.S, fr.Sbar)]
    for X, Y in pairs:
        assert lie_bracket(X, Y).is_zero


def test_quartic_structure_functions(quartic_geometry):
    sf = quartic_geometry.sf
    assert not sf.R.is_zero
    assert not sf.P.is_zero
    assert not sf.B.is_zero
    assert sf.A.is_real
    assert sf.C == sf.B.conj()
    assert sf.J.is_real


def test_bracket_symmetry_identity():
    for g in (quartic_deformation(), random_deformation(23)):
        fr = build_frame(g, "s12")
        assert lie_bracket(fr.Lbar, fr.S) == lie_bracket(fr.L, fr.Sbar)


def test_efgjk_against_direct_decomposition():
    for seed in (1, 2):
        fr = build_frame(random_deformation(seed), "s12")
        sf = structure_functions(fr)
        formulas = efgjk_from_formulas(sf)
        for name, val in formulas.items():
            assert val == getattr(sf, name), name


# ---------------------------------------------------------------------------
# frame fields applied to functions
# ---------------------------------------------------------------------------

def test_frame_derivative_examples():
    ctx = standard_context()
    fr13 = build_frame(cubic_model(ctx), "s13")
    sf13 = structure_functions(fr13)
    x, u1, u2 = ctx.vars("x", "u1", "u2")
    fields = sf13.frame.fields()
    assert fields["L"].apply(x) == ctx.one / 2
    assert fields["T"].apply(u1) == ctx.const(4)
    assert fields["S"].apply(u2) == ctx.const(8)


def test_frame_derivative_commutator_identity():
    # T(e) = i L(Lbar e) - i Lbar(L e) holds in the bracket-true scaling
    ctx = standard_context()
    i = ctx.const(I)
    for g in (cubic_model(ctx), random_deformation(31)):
        fr = build_frame(g, "s12")
        ctx2 = fr.ctx
        x, y, u1 = ctx2.vars("x", "y", "u1")
        e = x ** 2 * y + u1 * x
        lhs = fr.T.apply(e)
        i2 = ctx2.const(I)
        rhs = i2 * fr.L.apply(fr.Lbar.apply(e)) - i2 * fr.Lbar.apply(fr.L.apply(e))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# length-six relations
# ---------------------------------------------------------------------------

def test_jacobi_relations_cubic(cubic_geometry):
    assert all(r.is_zero for r in jacobi_relations_check(cubic_geometry.sf))


def test_jacobi_relations_quartic(quartic_geometry):
    assert all(r.is_zero for r in jacobi_relations_check(quartic_geometry.sf))


def test_jacobi_relations_random_perturbation():
    fr = build_frame(random_deformation(47), "s12")
    sf = structure_functions(fr)
    assert all(r.is_zero for r in jacobi_relations_check(sf))


def test_lbar_closed_form_crosscheck():
    from crcartan.crosscheck import lbar_closed_form_reference
    for g in (cubic_model(), quartic_deformation(), random_deformation(4)):
        fr = build_frame(g, "s12")
        ref = lbar_closed_form_reference(g)
        derived = [2 * c for c in fr.Lbar.coeffs[2:]]
        assert all(d == r for d, r in zip(derived, ref))
