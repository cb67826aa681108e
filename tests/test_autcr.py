from fractions import Fraction

import pytest

from conftest import bundled_rigid_model
import crcartan.autcr as autcr
from crcartan.autcr import (AutCRError, HolField, RigidModel, field_weight,
                            rigid_context, solve_rigid_aut, symbol_algebra,
                            tangency_residuals, _ansatz_monomials, _field_coordinates,
                            _tangency_rows)
from crcartan.exact import GaussRat, I
from crcartan.liealg import nullspace, recognize_dim_le5, validate
from test_liealg import change_basis


def tangent(X, m) -> bool:
    return all(r.is_zero for r in tangency_residuals(X, m))


def cubic_generators(ctx):
    z = ctx.var("z")
    w1, w2, w3 = ctx.vars("w1", "w2", "w3")
    i = ctx.const(I)
    return {
        "T": HolField(ctx, ctx.zero, (ctx.one, ctx.zero, ctx.zero)),
        "S1": HolField(ctx, ctx.zero, (ctx.zero, ctx.one, ctx.zero)),
        "S2": HolField(ctx, ctx.zero, (ctx.zero, ctx.zero, ctx.one)),
        "L1": HolField(ctx, ctx.one, (2 * i * z, 2 * i * z ** 2 + 4 * w1, 2 * z ** 2)),
        "L2": HolField(ctx, i * ctx.one, (2 * z, 2 * z ** 2, -(2 * i * z ** 2 - 4 * w1))),
        "D": HolField(ctx, z, (2 * w1, 3 * w2, 3 * w3)),
        "R": HolField(ctx, i * z, (ctx.zero, -w3, w2)),
    }


# ---------------------------------------------------------------------------
# tangency
# ---------------------------------------------------------------------------

def test_displayed_generators_are_tangent():
    m = bundled_rigid_model("cubic")
    for name, X in cubic_generators(m.ctx).items():
        assert tangent(X, m), name


def test_ddz_alone_residual():
    # the first tangency identity applied to d/dz reads
    # -2i zb Z - 2i z conj(Z) with Z = 1
    m = bundled_rigid_model("cubic")
    ctx = m.ctx
    dz = HolField(ctx, ctx.one, (ctx.zero, ctx.zero, ctx.zero))
    res = tangency_residuals(dz, m)
    z, zb = ctx.vars("z", "zb")
    i = ctx.const(I)
    assert res[0] == -2 * i * zb - 2 * i * z
    assert not tangent(dz, m)


def test_model_validation():
    ctx = rigid_context(1)
    z, zb = ctx.vars("z", "zb")
    with pytest.raises(AutCRError):                 # Levi-flat input rejected
        RigidModel(ctx, (ctx.zero,))
    with pytest.raises(AutCRError):                 # not O(z zb)
        RigidModel(ctx, (z ** 2 + zb ** 2,))
    with pytest.raises(AutCRError):                 # not real-valued
        RigidModel(ctx, (ctx.const(I) * z * zb,))
    with pytest.raises(AutCRError, match="homogeneous"):   # two weights
        RigidModel(ctx, (z * zb + z ** 2 * zb ** 2,))
    w1, wb1 = ctx.vars("w1", "wb1")
    with pytest.raises(AutCRError, match="z and zb only"):  # depends on w
        RigidModel(ctx, (z * zb * (w1 + wb1),))


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cubic_aut():
    return solve_rigid_aut(bundled_rigid_model("cubic"), 3)


def test_cubic_dimension_and_tangency(cubic_aut):
    assert len(cubic_aut.basis) == 7
    m = cubic_aut.model
    for X in cubic_aut.basis:
        assert tangent(X, m)
    assert validate(cubic_aut.algebra) == "ok"


def test_cubic_table_isomorphic_to_expected(cubic_aut):
    from test_equivalence import aut_table_algebra
    gens = cubic_generators(cubic_aut.model.ctx)
    order = ("S2", "S1", "T", "L2", "L1", "D", "R")
    phi = _field_coordinates(cubic_aut.basis, [gens[nm] for nm in order])
    for nm, coords in zip(order, phi):
        assert coords is not None, f"{nm} outside the solved span"
    assert change_basis(cubic_aut.algebra, phi).c == aut_table_algebra().c


def test_commutator_table_entries(cubic_aut):
    ctx = cubic_aut.model.ctx
    gens = cubic_generators(ctx)
    t = gens["L2"].bracket(gens["L1"])
    want = gens["T"]
    diff = [a - b for a, b in zip(t.components(),
                                  [c * ctx.const(-4) for c in want.components()])]
    assert all(v.is_zero for v in diff)            # [L2, L1] = -4 T
    td = gens["T"].bracket(gens["D"])
    assert all((a - 2 * b).is_zero
               for a, b in zip(td.components(), gens["T"].components()))
    dr = gens["D"].bracket(gens["R"])
    assert dr.is_zero


def test_symbol_algebra_recognized(cubic_aut):
    weights = [field_weight(cubic_aut.model, b) for b in cubic_aut.basis]
    assert all(w is not None for w in weights)
    gm = symbol_algebra(cubic_aut, [min(w, 0) for w in weights])
    assert sorted(gm.grading) == [-3, -3, -2, -1, -1]
    assert recognize_dim_le5(gm.algebra) == "n5_4"


def test_degenerate_grading_rejected(cubic_aut):
    with pytest.raises(AutCRError, match="grading"):
        symbol_algebra(cubic_aut, [0] * 7)


def test_heisenberg_solver():
    alg = solve_rigid_aut(bundled_rigid_model("heisenberg"), 2)
    ctx = alg.model.ctx
    z, w1 = ctx.vars("z", "w1")
    dw = HolField(ctx, ctx.zero, (ctx.one,))
    scaling = HolField(ctx, z, (2 * w1,))
    for X in (dw, scaling):
        assert tangent(X, alg.model)
    assert None not in _field_coordinates(alg.basis, [dw, scaling])
    # the full sphere algebra needs weight 4 monomials in the ansatz
    alg4 = solve_rigid_aut(bundled_rigid_model("heisenberg"))
    assert len(alg4.basis) == 8


def test_weight_bound_guard():
    with pytest.raises(AutCRError, match="below the model"):
        solve_rigid_aut(bundled_rigid_model("cubic"), 1)


@pytest.mark.slow
def test_doubling_bound_does_not_grow_solution(cubic_aut):
    alg6 = solve_rigid_aut(bundled_rigid_model("cubic"), 6)
    assert len(alg6.basis) == len(cubic_aut.basis) == 7


# ---------------------------------------------------------------------------
# the assembly against a per-column reference
# ---------------------------------------------------------------------------

def reference_tangency_rows(m, monos):
    """_tangency_rows by one `tangency_residuals` call per unknown column."""
    ctx = m.ctx
    nm = len(monos)
    rows = {}
    for c in range(1 + m.codim):
        for k, mono in enumerate(monos):
            for unit, off in ((ctx.one, 0), (ctx.const(I), 1)):
                col = 2 * (c * nm + k) + off
                comps = [unit * mono if c == t else ctx.zero for t in range(1 + m.codim)]
                X = HolField(ctx, comps[0], tuple(comps[1:]))
                for j, r in enumerate(tangency_residuals(X, m)):
                    for mon, g in r.numerator().terms().items():
                        for part, v in (("re", g.re), ("im", g.im)):
                            if v:
                                rows.setdefault((j, mon, part), {})[col] = GaussRat(v)
    return rows


def cubic_linear_image():
    """The cubic rigid model under z -> lam z, w1 -> r w1, (w2, w3) -> M (w2, w3)."""
    m = bundled_rigid_model("cubic")
    ctx = m.ctx
    z, zb = ctx.vars("z", "zb")
    lam = GaussRat(Fraction(1, 2), -1)
    sub = {"z": z * ctx.const(1 / lam), "zb": zb * ctx.const(1 / lam.conj())}
    P1, P2, P3 = (P.subs(sub) for P in m.Phi)
    return RigidModel(ctx, (-2 * P1, P2 / 3 - P3, 2 * P2 + P3 / 2))


def fixed_rigid_model():
    """A codim-2 rigid model with small fixed coefficients, weights 2 and 4."""
    ctx = rigid_context(2)
    z, zb = ctx.vars("z", "zb")
    i = ctx.const(I)
    Phi2 = (Fraction(-1, 3) * (z ** 3 * zb + z * zb ** 3) + 2 * z ** 2 * zb ** 2
            + i / 2 * (z ** 3 * zb - z * zb ** 3))
    return RigidModel(ctx, (Fraction(1, 2) * z * zb, Phi2))


def scaled_sphere():
    ctx = rigid_context(1)
    z, zb = ctx.vars("z", "zb")
    return RigidModel(ctx, (Fraction(-1, 3) * z * zb,))


ASSEMBLY_CASES = {
    "cubic-wb3": (lambda: bundled_rigid_model("cubic"), 3),
    "heisenberg-wb2": (lambda: bundled_rigid_model("heisenberg"), 2),
    "heisenberg-wb4": (lambda: bundled_rigid_model("heisenberg"), 4),
    "scaled-sphere-wb4": (scaled_sphere, 4),
    "cubic-image-wb3": (cubic_linear_image, 3),
    "fixed-codim2-wb4": (fixed_rigid_model, 4),
}


@pytest.mark.parametrize("case", sorted(ASSEMBLY_CASES))
def test_tangency_rows_match_per_column_reference(case):
    build, wb = ASSEMBLY_CASES[case]
    m = build()
    monos = _ansatz_monomials(m, wb)
    assert _tangency_rows(m, monos) == reference_tangency_rows(m, monos)


def test_cubic_image_keeps_the_cubic_algebra():
    alg = solve_rigid_aut(cubic_linear_image(), 3)
    assert len(alg.basis) == 7 and validate(alg.algebra) == "ok"


def test_non_tangent_solution_is_rejected(monkeypatch):
    def bad_nullspace(rows, cols):
        sols = nullspace(rows, cols)
        # column 0 is the real coefficient of 1 in Z: the field d/dz
        sols[0] = [GaussRat(int(k == 0)) for k in range(cols)]
        return sols

    monkeypatch.setattr(autcr, "nullspace", bad_nullspace)
    with pytest.raises(AutCRError, match=r"solved field \(1\) d/dz is not tangent"):
        solve_rigid_aut(bundled_rigid_model("heisenberg"), 2)


@pytest.mark.parametrize("name, wb", [("cubic", 3), ("heisenberg", 4)])
def test_one_elimination_matches_per_bracket_coordinates(name, wb):
    alg = solve_rigid_aut(bundled_rigid_model(name), wb)
    basis, n = alg.basis, len(alg.basis)
    for a in range(n):
        for b in range(a + 1, n):
            br = basis[a].bracket(basis[b])
            (coords,) = _field_coordinates(basis, [br])
            assert alg.algebra.c[a][b] == coords, (a, b)

