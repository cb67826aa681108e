"""Infinitesimal CR automorphisms of rigid polynomial models.

A rigid model w_j - wb_j = 2i Phi_j(z, zb) is acted on by holomorphic fields
X = Z(z, w) d/dz + sum_j W^j(z, w) d/dw_j whose real parts are tangent.  On
the complexification the tangency reads, for each j,

    0 = [ W^j - conj(W^j) - 2i Z dPhi_j/dz - 2i conj(Z) dPhi_j/dzb ]
        restricted to  w = wb + 2i Phi(z, zb),

an identity in (z, zb, wb).  Conjugation here is the variable swap
z <-> zb, w <-> wb plus coefficient conjugation.  The solver expands an
ansatz of bounded weighted degree and takes the exact real nullspace of the
coefficient extraction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .exact import Context, Expr, GaussRat, I
from .liealg import GradedAlgebra, LieAlgebra, nullspace, span_coordinates


class AutCRError(Exception):
    pass


def rigid_context(d: int = 3) -> Context:
    pairs = [("z", "zb")] + [(f"w{j}", f"wb{j}") for j in range(1, d + 1)]
    return Context(pairs)


# ---------------------------------------------------------------------------
# models and fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RigidModel:
    """w_j - wb_j = 2i Phi_j(z, zb) with real-valued polynomial Phi_j.

    Each Phi_j is O(z zb) and homogeneous in (z, zb), so that its degree is
    the weight of w_j.
    """

    ctx: Context
    Phi: tuple

    def __post_init__(self):
        iz = self.ctx.names.index("z")
        izb = self.ctx.names.index("zb")
        for k, phi in enumerate(self.Phi, start=1):
            if not phi.is_polynomial:
                raise AutCRError(f"Phi{k} must be polynomial")
            if phi.is_zero:
                raise AutCRError(f"Phi{k} vanishes: model is Levi degenerate")
            if phi.conj() != phi:
                raise AutCRError(f"Phi{k} is not real-valued")
            monoms = phi.numerator().terms()
            for m in monoms:
                if not (m[iz] and m[izb]):
                    raise AutCRError(f"Phi{k} is not O(z zb)")
            if len({m[iz] + m[izb] for m in monoms}) > 1:
                raise AutCRError(f"Phi{k} is not homogeneous in (z, zb)")

    @property
    def codim(self) -> int:
        return len(self.Phi)

    def weights(self) -> list[int]:
        """Weight of each w_j: the weighted degree of Phi_j (z, zb of weight 1)."""
        out = []
        for phi in self.Phi:
            out.append(phi.numerator().total_degree())
        return out


def cubic_rigid_model() -> RigidModel:
    ctx = rigid_context(3)
    z, zb = ctx.vars("z", "zb")
    i = ctx.const(I)
    return RigidModel(ctx, (
        z * zb,
        z * zb * (z + zb),
        (z * zb * (z - zb)) / i,
    ))


def heisenberg_model() -> RigidModel:
    ctx = rigid_context(1)
    z, zb = ctx.vars("z", "zb")
    return RigidModel(ctx, (z * zb,))


@dataclass(frozen=True)
class HolField:
    """Z d/dz + sum W^j d/dw_j with polynomial holomorphic coefficients."""

    ctx: Context
    Z: Expr
    W: tuple

    def components(self) -> tuple:
        return (self.Z,) + tuple(self.W)

    def apply(self, f: Expr) -> Expr:
        out = self.Z * f.diff("z")
        for j, wj in enumerate(self.W, start=1):
            out = out + wj * f.diff(f"w{j}")
        return out

    def bracket(self, other: "HolField") -> "HolField":
        comps = []
        for a, b in zip(self.components(), other.components()):
            comps.append(self.apply(b) - other.apply(a))
        return HolField(self.ctx, comps[0], tuple(comps[1:]))

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components())

    def __str__(self):
        names = ["d/dz"] + [f"d/dw{j}" for j in range(1, len(self.W) + 1)]
        parts = [f"({c}) {n}" for c, n in zip(self.components(), names)
                 if not c.is_zero]
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


# ---------------------------------------------------------------------------
# tangency
# ---------------------------------------------------------------------------

def _substitution(m: RigidModel) -> dict:
    ctx = m.ctx
    i = ctx.const(I)
    return {f"w{j}": ctx.var(f"wb{j}") + 2 * i * m.Phi[j - 1]
            for j in range(1, m.codim + 1)}


def tangency_residuals(X: HolField, m: RigidModel) -> list[Expr]:
    """The d tangency identities, as polynomials in (z, zb, wb)."""
    ctx = m.ctx
    i = ctx.const(I)
    sub = _substitution(m)
    Zc = X.Z.conj()
    out = []
    for j in range(1, m.codim + 1):
        wj = X.W[j - 1]
        phi = m.Phi[j - 1]
        res = (wj.subs(sub) - wj.conj()
               - 2 * i * X.Z.subs(sub) * phi.diff("z")
               - 2 * i * Zc * phi.diff("zb"))
        out.append(res)
    return out


def verify_tangency(X: HolField, m: RigidModel):
    """\"ok\" when Re X is tangent to the model; otherwise the residual list."""
    res = tangency_residuals(X, m)
    return "ok" if all(r.is_zero for r in res) else res


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------

def _ansatz_monomials(m: RigidModel, weight_bound: int):
    """Monomials z^a prod w_j^b_j of weighted degree <= weight_bound."""
    ctx = m.ctx
    ws = m.weights()
    z = ctx.var("z")
    wvars = [ctx.var(f"w{j}") for j in range(1, m.codim + 1)]
    out = []
    ranges = [range(weight_bound // w + 1) for w in ws]
    for bs in itertools.product(*ranges):
        base_w = sum(b * w for b, w in zip(bs, ws))
        if base_w > weight_bound:
            continue
        for a in range(weight_bound - base_w + 1):
            mono = ctx.one * z ** a
            for b, wv in zip(bs, wvars):
                mono = mono * wv ** b
            out.append(mono)
    return out


@dataclass
class AutAlgebra:
    """Basis of hol fields plus the real structure constants of their brackets."""

    model: RigidModel
    basis: list
    algebra: LieAlgebra


def solve_rigid_aut(m: RigidModel, weight_bound: int | None = None) -> AutAlgebra:
    """Exact nullspace of the tangency constraints on a bounded ansatz.

    The ansatz takes every monomial of weighted degree <= weight_bound in
    each component; unknown coefficients are split into real and imaginary
    rational parts, so the solution space is the real algebra of
    infinitesimal automorphisms (intersected with the ansatz).
    """
    ctx = m.ctx
    if weight_bound is None:
        weight_bound = 2 * max(m.weights())
    if weight_bound < max(m.weights()):
        raise AutCRError(
            f"weight bound {weight_bound} below the model's top weight "
            f"{max(m.weights())}")
    monos = _ansatz_monomials(m, weight_bound)
    if not monos:
        raise AutCRError("empty ansatz")
    ncomp = 1 + m.codim
    nm = len(monos)
    # unknowns: for component c and monomial k: re -> 2*(c*nm+k), im -> +1
    nunk = 2 * ncomp * nm
    i_unit = ctx.const(I)
    sub = _substitution(m)

    # tangency residual is linear in the field; collect per-unknown columns
    rows_by_key: dict = {}

    def add(col: int, key, coeff: GaussRat):
        if coeff.is_zero:
            return
        row = rows_by_key.setdefault(key, {})
        row[col] = row.get(col, GaussRat(0)) + coeff

    for c in range(ncomp):
        for k, mono in enumerate(monos):
            base = 2 * (c * nm + k)
            for unit, off in ((ctx.one, 0), (i_unit, 1)):
                coeff_field = HolField(
                    ctx,
                    unit * mono if c == 0 else ctx.zero,
                    tuple(unit * mono if c == j + 1 else ctx.zero
                          for j in range(m.codim)))
                res = tangency_residuals(coeff_field, m)
                for j, r in enumerate(res):
                    for mon, g in r.numerator().terms().items():
                        add(base + off, (j, mon, "re"), GaussRat(g.re))
                        add(base + off, (j, mon, "im"), GaussRat(g.im))

    rows = []
    for key, row in rows_by_key.items():
        rows.append([row.get(c, GaussRat(0)) for c in range(nunk)])
    sols = nullspace(rows, nunk)

    basis = []
    for v in sols:
        comps = []
        for c in range(ncomp):
            e = ctx.zero
            for k, mono in enumerate(monos):
                re = v[2 * (c * nm + k)]
                im = v[2 * (c * nm + k) + 1]
                if not (re.is_zero and im.is_zero):
                    e = e + ctx.const(GaussRat(re.re, im.re)) * mono
            comps.append(e)
        basis.append(HolField(ctx, comps[0], tuple(comps[1:])))
    alg = _structure_constants(m, basis, weight_bound)
    return AutAlgebra(m, basis, alg)


def _field_coordinates(basis: list, X: HolField):
    """Real coordinates of X in span_R(basis); None if X is outside."""
    keyed: dict = {}
    cols = len(basis)
    for bi, b in enumerate(basis + [X]):
        for c, comp in enumerate(b.components()):
            for mon, g in comp.numerator().terms().items():
                keyed.setdefault((c, mon, "re"), [GaussRat(0)] * (cols + 1))[bi] = GaussRat(g.re)
                keyed.setdefault((c, mon, "im"), [GaussRat(0)] * (cols + 1))[bi] = GaussRat(g.im)
    return span_coordinates(list(keyed.values()), cols)


def _structure_constants(m: RigidModel, basis: list, weight_bound: int) -> LieAlgebra:
    n = len(basis)
    c = [[[GaussRat(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            br = basis[i].bracket(basis[j])
            if br.is_zero:
                continue
            coords = _field_coordinates(basis, br)
            if coords is None:
                raise AutCRError(
                    "bracket leaves the solution span: weight bound "
                    f"{weight_bound} too small")
            for s in range(n):
                if not coords[s].is_real:
                    raise AutCRError("non-real structure constant")
                c[i][j][s] = coords[s]
                c[j][i][s] = -coords[s]
    return LieAlgebra(n, c)


# ---------------------------------------------------------------------------
# grading and symbol algebra
# ---------------------------------------------------------------------------

def field_weight(m: RigidModel, X: HolField) -> int | None:
    """Weighted degree of a weighted-homogeneous field; None if mixed.

    A monomial z^a w^b in the Z component contributes weight(monomial) - 1;
    in the W^j component, weight(monomial) - weight(w_j).
    """
    ws = m.weights()
    names = m.ctx.names
    iz = names.index("z")
    iw = [names.index(f"w{j}") for j in range(1, m.codim + 1)]
    seen = set()
    for c, comp in enumerate(X.components()):
        drop = 1 if c == 0 else ws[c - 1]
        for mon in comp.numerator().terms():
            wt = mon[iz] + sum(mon[k] * ws[t] for t, k in enumerate(iw))
            seen.add(wt - drop)
    if len(seen) == 1:
        return seen.pop()
    return None


def symbol_algebra(alg: AutAlgebra, grading, J=None) -> GradedAlgebra:
    """Check the grading and export the negative part as a graded algebra.

    grading: degree per basis element (integers, at least one negative),
    which every bracket must respect; only the negative part is exported.  J,
    when given, is the complex structure matrix on the degree -1 block.
    """
    g = alg.algebra
    n = g.dim
    if len(grading) != n:
        raise AutCRError("grading length mismatch")
    if not any(d < 0 for d in grading):
        raise AutCRError("grading violation: no negative part")
    for j in range(n):
        for k in range(n):
            tgt = grading[j] + grading[k]
            for s in range(n):
                if not g.c[j][k][s].is_zero and grading[s] != tgt:
                    raise AutCRError(
                        f"grading violation in [e{j+1}, e{k+1}]")
    neg = [k for k in range(n) if grading[k] < 0]
    sub = [[[g.c[neg[a]][neg[b]][neg[s]] for s in range(len(neg))]
            for b in range(len(neg))] for a in range(len(neg))]
    restricted = LieAlgebra(len(neg), sub,
                            tuple(g.labels[k] for k in neg))
    return GradedAlgebra(restricted, tuple(grading[k] for k in neg), J)
