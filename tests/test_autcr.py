import pytest

from crcartan.autcr import (AutCRError, HolField, RigidModel, cubic_rigid_model,
                            field_weight, heisenberg_model, rigid_context,
                            solve_rigid_aut, symbol_algebra, tangency_residuals,
                            verify_tangency, _field_coordinates)
from crcartan.exact import GaussRat, I
from crcartan.liealg import (GradedAlgebra, recognize_dim_le5, validate,
                             verify_isomorphism)


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
    m = cubic_rigid_model()
    for name, X in cubic_generators(m.ctx).items():
        assert verify_tangency(X, m) == "ok", name


def test_ddz_alone_residual():
    # the first tangency identity applied to d/dz reads
    # -2i zb Z - 2i z conj(Z) with Z = 1
    m = cubic_rigid_model()
    ctx = m.ctx
    dz = HolField(ctx, ctx.one, (ctx.zero, ctx.zero, ctx.zero))
    res = tangency_residuals(dz, m)
    z, zb = ctx.vars("z", "zb")
    i = ctx.const(I)
    assert res[0] == -2 * i * zb - 2 * i * z
    assert verify_tangency(dz, m) != "ok"


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


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cubic_aut():
    return solve_rigid_aut(cubic_rigid_model(), 3)


def test_cubic_dimension_and_tangency(cubic_aut):
    assert len(cubic_aut.basis) == 7
    m = cubic_aut.model
    for X in cubic_aut.basis:
        assert verify_tangency(X, m) == "ok"
    assert validate(cubic_aut.algebra) == "ok"


def test_cubic_table_isomorphic_to_expected(cubic_aut):
    from test_equivalence import aut_table_algebra
    gens = cubic_generators(cubic_aut.model.ctx)
    order = ("S2", "S1", "T", "L2", "L1", "D", "R")
    phi = []
    for nm in order:
        coords = _field_coordinates(cubic_aut.basis, gens[nm])
        assert coords is not None, f"{nm} outside the solved span"
        phi.append(coords)
    assert verify_isomorphism(phi, aut_table_algebra(), cubic_aut.algebra) == "ok"


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
    alg = solve_rigid_aut(heisenberg_model(), 2)
    ctx = alg.model.ctx
    z, w1 = ctx.vars("z", "w1")
    dw = HolField(ctx, ctx.zero, (ctx.one,))
    scaling = HolField(ctx, z, (2 * w1,))
    for X in (dw, scaling):
        assert verify_tangency(X, alg.model) == "ok"
        assert _field_coordinates(alg.basis, X) is not None
    # the full sphere algebra needs weight 4 monomials in the ansatz
    alg4 = solve_rigid_aut(heisenberg_model())
    assert len(alg4.basis) == 8


def test_weight_bound_guard():
    with pytest.raises(AutCRError, match="below the model"):
        solve_rigid_aut(cubic_rigid_model(), 1)


@pytest.mark.slow
def test_doubling_bound_does_not_grow_solution(cubic_aut):
    alg6 = solve_rigid_aut(cubic_rigid_model(), 6)
    assert len(alg6.basis) == len(cubic_aut.basis) == 7
