from conftest import quartic_deformation, random_deformation
from crcartan.coframes import TwoForm, d_squared_check, darboux_structure
from crcartan.exact import I, standard_context
from crcartan.frames import build_frame, cubic_model, structure_functions

SBAR, SIG, RHO, ZBAR, ZET = range(5)


def test_model_darboux_structure(cubic_geometry):
    d = darboux_structure(cubic_geometry.frame, cubic_geometry.sf)
    ctx = cubic_geometry.frame.ctx
    one, i = ctx.one, ctx.const(I)
    # d sigma_bar = rho ^ zeta_bar, d sigma = rho ^ zeta,
    # d rho = i zeta ^ zeta_bar, d zeta = d zeta_bar = 0
    assert d[SBAR].coeffs == {(RHO, ZBAR): one}
    assert d[SIG].coeffs == {(RHO, ZET): one}
    assert d[RHO].get(ZET, ZBAR, ctx.zero) == i
    assert len(d[RHO].coeffs) == 1
    assert d[ZBAR].is_zero and d[ZET].is_zero


def test_zeta0_is_dz():
    # T, S, Sbar carry no d/dz parts, so zeta0 = dz and zeta0_bar = dzbar:
    # dz = dx + i dy is 1 on L and 0 on the other four fields of the frame
    # (Sbar, S, T, Lbar, L), and dzbar is 1 on Lbar and 0 on the others
    fr = build_frame(quartic_deformation(), "s12")
    ctx = fr.ctx
    i = ctx.const(I)
    for k, X in enumerate(fr.in_frame_order()):
        dz = X.coeffs[0] + i * X.coeffs[1]
        dzb = X.coeffs[0] - i * X.coeffs[1]
        assert dz == (ctx.one if k == ZET else ctx.zero)
        assert dzb == (ctx.one if k == ZBAR else ctx.zero)


def test_general_coefficients_match_structure_functions():
    for g in (quartic_deformation(), random_deformation(3)):
        fr = build_frame(g, "s12")
        sf = structure_functions(fr)
        d = darboux_structure(fr, sf)
        ctx = fr.ctx
        i = ctx.const(I)
        z = ctx.zero
        # d sigma: Q at sigma ^ zeta, B at sigma ^ zeta_bar, F at sigma ^ rho
        assert d[SIG].get(SIG, ZET, z) == sf.Q
        assert d[SIG].get(SIG, ZBAR, z) == sf.B
        assert d[SIG].get(SIG, RHO, z) == sf.F
        assert d[SIG].get(SBAR, ZBAR, z) == sf.R.conj()
        assert d[SIG].get(RHO, ZET, z) == ctx.one
        # d rho: iJ at sigma_bar ^ sigma, P at sigma ^ zeta, A at sigma ^ zeta_bar
        assert d[RHO].get(SBAR, SIG, z) == i * sf.J
        assert d[RHO].get(SIG, ZET, z) == sf.P
        assert d[RHO].get(SIG, ZBAR, z) == sf.A
        assert d[RHO].get(ZET, ZBAR, z) == i
        # d sigma_bar is the conjugate structure
        assert d[SBAR].get(SBAR, ZET, z) == sf.B.conj()


def test_d_squared_zero():
    for g in (cubic_model(), quartic_deformation(), random_deformation(9)):
        fr = build_frame(g, "s12")
        sf = structure_functions(fr)
        d = darboux_structure(fr, sf)
        res = d_squared_check(d, fr)
        assert all(r.is_zero for r in res)


def test_two_form_algebra():
    ctx = standard_context()
    x = ctx.var("x")
    t = TwoForm()
    t.add_term(2, 1, x)          # stored as -(1,2)
    assert t.get(1, 2) == -x
    assert t.get(2, 1) == x
    t.add_term(1, 2, x)
    assert t.is_zero
