"""Finite-dimensional Lie algebras by structure constants, over Q(i).

Validation of the axioms, the lower central series and the center,
recognition of the nilpotent algebras of dimension at most five by exact
invariants, and the Tanaka prolongation of a negatively graded algebra by
degree-preserving derivations (and higher shifts).

All linear algebra is exact over the Gaussian rationals.  Row reduction
(`rref`, `rank`, `nullspace`) runs one Gauss-Jordan loop on sparse rows
{column: nonzero GaussRat}: the automorphism solver and the prolongation
build their equations as such dicts, and a dense matrix is converted once
on entry.  The pivot of each column is the first row at or below the current
one that is nonzero there, as in the textbook dense loop, so every reduced
form and every nullspace basis is the dense one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .exact import GaussRat


class LieAlgebraError(Exception):
    pass


def _g(v) -> GaussRat:
    return v if isinstance(v, GaussRat) else GaussRat(v)


# ---------------------------------------------------------------------------
# exact matrix helpers over GaussRat
# ---------------------------------------------------------------------------

def mat_mul(A, B):
    n, m, p = len(A), len(B), len(B[0])
    return [[sum((A[i][k] * B[k][j] for k in range(m)), GaussRat(0))
             for j in range(p)] for i in range(n)]


def _sparse(row) -> dict:
    """A new {column: nonzero GaussRat} from a dense list or a dict row."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    return {j: v for j, v in items if not v.is_zero}


def _eliminate(M):
    """Gauss-Jordan elimination of the rows of M, dense lists or sparse dicts.

    Returns (reduced rows, pivot columns): the nonzero rows of the reduced
    echelon form, as {column: nonzero GaussRat} with row r's pivot at
    column piv[r] and equal to 1.  The pivot for column c is the first row
    at or below r that is nonzero in c, swapped into place, as in the
    textbook order; a column index ({column: rows holding it}) finds it and
    the rows to update without scanning a zero entry.
    """
    rows = [_sparse(row) for row in M]
    where: dict = {}
    for i, row in enumerate(rows):
        for j in row:
            where.setdefault(j, set()).add(i)
    pos = list(range(len(rows)))     # row id -> position
    at = list(range(len(rows)))      # position -> row id
    piv = []
    r = 0
    for c in sorted(where):
        # rows at positions >= r are zero left of c; fill-in never leaves
        # the columns some row already holds
        holders = where[c]
        p = min((i for i in holders if pos[i] >= r), key=pos.__getitem__, default=None)
        if p is None:
            continue
        q = at[r]
        at[r], at[pos[p]] = p, q
        pos[q], pos[p] = pos[p], r
        prow = rows[p]
        inv = GaussRat(1) / prow[c]
        for j in prow:
            prow[j] = prow[j] * inv
        nz = [(j, v) for j, v in prow.items() if j != c]
        for i in [i for i in holders if i != p]:
            row = rows[i]
            f = row.pop(c)
            for j, v in nz:
                old = row.get(j)
                if old is None:
                    row[j] = -(f * v)
                    where[j].add(i)
                else:
                    new = old - f * v
                    if new.is_zero:
                        del row[j]
                        where[j].discard(i)
                    else:
                        row[j] = new
        where[c] = {p}
        piv.append(c)
        r += 1
        if r == len(rows):
            break
    return [rows[at[k]] for k in range(r)], piv


def rref(M):
    """Row-reduce a copy of the dense matrix M; returns (rref matrix, pivot columns).

    M is converted once to sparse rows and reduced by `_eliminate`, which
    keeps the dense loop's pivot rule (the first row at or below the current
    one that is nonzero in the column) and its row swaps; the result is the
    dense reduction entry for entry, with the zero rows last.
    """
    if not M:
        return [], []
    cols = len(M[0])
    R, piv = _eliminate(M)
    zero = GaussRat(0)
    dense = [[row.get(j, zero) for j in range(cols)] for row in R]
    return dense + [[zero] * cols for _ in range(len(M) - len(R))], piv


def rank(M) -> int:
    return len(_eliminate(M)[1])


def nullspace(M, cols: int):
    """Basis of the right nullspace of M, whose rows are dense lists or
    sparse {column: GaussRat} dicts over `cols` columns.

    One vector per free column fc, in increasing order: 1 at fc, minus
    column fc of the reduced rows at the pivots, zero elsewhere.
    """
    R, piv = _eliminate(M)
    pivots = set(piv)
    free = {fc: k for k, fc in enumerate(c for c in range(cols) if c not in pivots)}
    zero, one = GaussRat(0), GaussRat(1)
    basis = []
    for fc in free:
        v = [zero] * cols
        v[fc] = one
        basis.append(v)
    for row, pc in zip(R, piv):
        for j, x in row.items():
            k = free.get(j)
            if k is not None:
                basis[k][pc] = -x
    return basis


def span_coordinates(rows, m: int, targets: int) -> list:
    """Coordinates x of each of `targets` vectors t_s in the span of m
    vectors b_k; one list per target, None for a target outside the span.

    Row c of `rows` is [b_0[c], ..., b_{m-1}[c], t_0[c], t_1[c], ...], as a
    dense list or as a sparse {k: value} dict.  One elimination serves every
    target: column m + s of the reduced rows writes t_s as a combination of
    the pivot columns, so t_s lies in the span iff no row with its pivot at
    a target column is nonzero there, and then x_k is the entry in the row
    with pivot k (0 for a b_k that is no pivot).
    """
    R, piv = _eliminate(rows)
    zero = GaussRat(0)
    out = []
    for t in range(m, m + targets):
        coords = [zero] * m
        for row, pc in zip(R, piv):
            x = row.get(t)
            if x is None:
                continue
            if pc >= m:
                coords = None
                break
            coords[pc] = x
        out.append(coords)
    return out


# ---------------------------------------------------------------------------
# the algebra
# ---------------------------------------------------------------------------

@dataclass
class LieAlgebra:
    """dim-dimensional algebra with c[j][k][s] the e_s-coefficient of [e_j, e_k]."""

    dim: int
    c: list
    labels: tuple = ()

    def __post_init__(self):
        if not self.labels:
            self.labels = tuple(f"e{k+1}" for k in range(self.dim))
        self.c = [[[_g(v) for v in row] for row in plane] for plane in self.c]

    @classmethod
    def from_brackets(cls, dim: int, brackets, labels=()) -> "LieAlgebra":
        """brackets: {(j, k): {s: coeff}} with 0-based indices, j < k."""
        c = [[[GaussRat(0)] * dim for _ in range(dim)] for _ in range(dim)]
        for (j, k), row in brackets.items():
            for s, v in row.items():
                c[j][k][s] = _g(v)
                c[k][j][s] = -_g(v)
        return cls(dim, c, labels)

    def bracket(self, v, w):
        out = [GaussRat(0)] * self.dim
        for j in range(self.dim):
            if v[j].is_zero:
                continue
            for k in range(self.dim):
                if w[k].is_zero:
                    continue
                f = v[j] * w[k]
                for s in range(self.dim):
                    if not self.c[j][k][s].is_zero:
                        out[s] = out[s] + f * self.c[j][k][s]
        return out

    def basis_vector(self, k: int):
        return [GaussRat(1) if i == k else GaussRat(0) for i in range(self.dim)]

def validate(g: LieAlgebra):
    """Exact check of antisymmetry and the Jacobi identity.

    Returns "ok" or a list of violations (kind, index tuple).
    """
    bad = []
    n = g.dim
    for j in range(n):
        for k in range(n):
            for s in range(n):
                if not (g.c[j][k][s] + g.c[k][j][s]).is_zero:
                    bad.append(("antisymmetry", (j, k, s)))
    if bad:
        return bad
    # with antisymmetry the Jacobiator is alternating in (j, k, l), so the
    # first violation in lexicographic order has j < k < l
    for j, k, l in itertools.combinations(range(n), 3):
        for m in range(n):
            tot = GaussRat(0)
            for s in range(n):
                tot = tot + (g.c[k][l][s] * g.c[j][s][m]
                             + g.c[j][k][s] * g.c[l][s][m]
                             + g.c[l][j][s] * g.c[k][s][m])
            if not tot.is_zero:
                return [("jacobi", (j, k, l, m))]
    return "ok"


# ---------------------------------------------------------------------------
# nilpotency invariants
# ---------------------------------------------------------------------------

def lower_central_series(g: LieAlgebra):
    """Bases of N^{-1} = g, N^{-2} = [g, g], N^{-k-1} = [g, N^{-k}], ..."""
    n = g.dim
    current = [g.basis_vector(k) for k in range(n)]
    series = [current]
    while True:
        prev = series[-1]
        gens = []
        for j in range(n):
            ej = g.basis_vector(j)
            for v in prev:
                gens.append(g.bracket(ej, v))
        R, piv = rref(gens)
        nxt = [R[r] for r in range(len(piv))]
        # every term is a basis (rows of an rref), so its length is its dim
        if len(nxt) == len(prev):
            series.append(nxt)
            return series
        series.append(nxt)
        if not nxt:
            return series


def center(g: LieAlgebra):
    rows = []
    n = g.dim
    for k in range(n):
        for s in range(n):
            rows.append([g.c[j][k][s] for j in range(n)])
    return nullspace(rows, n)


def _nilpotent_series(g: LieAlgebra) -> list:
    """The lower central series, which ends in the zero space; raises on a
    non-nilpotent algebra."""
    series = lower_central_series(g)
    if series[-1]:
        raise LieAlgebraError(
            f"not nilpotent: series stabilizes at dim {len(series[-1])}")
    return series


# ---------------------------------------------------------------------------
# classification up to dimension 5
# ---------------------------------------------------------------------------

def _table_algebras() -> dict:
    """The nilpotent algebras of dimension <= 5 (complex classification)."""
    B = LieAlgebra.from_brackets
    one = GaussRat(1)
    algs = {}
    for k in range(1, 6):
        algs[f"a{k}"] = B(k, {})
    algs["n3_1"] = B(3, {(0, 1): {2: one}})
    algs["n3_1+a1"] = B(4, {(0, 1): {2: one}})
    algs["n3_1+a2"] = B(5, {(0, 1): {2: one}})
    algs["n4_1"] = B(4, {(0, 1): {2: one}, (0, 2): {3: one}})
    algs["n4_1+a1"] = B(5, {(0, 1): {2: one}, (0, 2): {3: one}})
    algs["n5_1"] = B(5, {(0, 1): {2: one}, (0, 2): {3: one}, (0, 3): {4: one}})
    algs["n5_2"] = B(5, {(0, 1): {2: one}, (0, 2): {3: one}, (0, 3): {4: one},
                         (1, 2): {4: one}})
    algs["n5_3"] = B(5, {(0, 1): {2: one}, (0, 2): {3: one}, (1, 4): {3: one}})
    algs["n5_4"] = B(5, {(0, 1): {2: one}, (0, 2): {3: one}, (1, 2): {4: one}})
    algs["n5_5"] = B(5, {(0, 1): {2: one}, (0, 3): {4: one}})
    algs["n5_6"] = B(5, {(0, 1): {2: one}, (3, 4): {2: one}})
    return algs


def _recognition_key(g: LieAlgebra) -> tuple:
    """(dim, lower-central-series dims, center dim, dim of the centralizer
    of the derived algebra); raises on a non-nilpotent algebra."""
    n = g.dim
    series = _nilpotent_series(g)
    rows = [[sum((g.c[j][k][s] * v[k] for k in range(n)), GaussRat(0))
             for j in range(n)]
            for v in series[1] for s in range(n)]
    centralizer = len(nullspace(rows, n))
    return (n, tuple(len(s) for s in series), len(center(g)), centralizer)


# _recognition_key of each member of _table_algebras(), the complete list of
# complex nilpotent Lie algebras of dimension <= 5 (W. de Graaf, J. Algebra
# 309, 2007); the keys are pairwise distinct, which the tests check
_RECOGNITION_TABLE = {
    (1, (1, 0), 1, 1): "a1",
    (2, (2, 0), 2, 2): "a2",
    (3, (3, 0), 3, 3): "a3",
    (4, (4, 0), 4, 4): "a4",
    (5, (5, 0), 5, 5): "a5",
    (3, (3, 1, 0), 1, 3): "n3_1",
    (4, (4, 1, 0), 2, 4): "n3_1+a1",
    (5, (5, 1, 0), 3, 5): "n3_1+a2",
    (4, (4, 2, 1, 0), 1, 3): "n4_1",
    (5, (5, 2, 1, 0), 2, 4): "n4_1+a1",
    (5, (5, 3, 2, 1, 0), 1, 4): "n5_1",
    (5, (5, 3, 2, 1, 0), 1, 3): "n5_2",
    (5, (5, 2, 1, 0), 1, 4): "n5_3",
    (5, (5, 3, 2, 0), 2, 3): "n5_4",
    (5, (5, 2, 0), 2, 5): "n5_5",
    (5, (5, 1, 0), 1, 5): "n5_6",
}


def recognize_dim_le5(g: LieAlgebra) -> str:
    """Label of a nilpotent algebra of dimension <= 5 in the standard list.

    Matching is on exact invariants: the dimension, the dimensions of the
    lower central series, the center dimension and the dimension of the
    centralizer of the derived algebra.  These separate the sixteen algebras
    of the list, which has no parameters in these dimensions.
    """
    if g.dim > 5:
        raise LieAlgebraError("recognition implemented for dim <= 5 only")
    if validate(g) != "ok":
        raise LieAlgebraError("not a Lie algebra")
    return _RECOGNITION_TABLE.get(_recognition_key(g), "unclassified")


# ---------------------------------------------------------------------------
# graded algebras and prolongation
# ---------------------------------------------------------------------------

@dataclass
class GradedAlgebra:
    """Negatively graded algebra with an optional complex structure on g_-1."""

    algebra: LieAlgebra
    grading: tuple           # degree (negative int) of each basis element
    J: list | None = None    # matrix of J on the g_-1 coordinates

    def __post_init__(self):
        n = self.algebra.dim
        if len(self.grading) != n:
            raise LieAlgebraError("grading length mismatch")
        for j in range(n):
            for k in range(n):
                target = self.grading[j] + self.grading[k]
                for s in range(n):
                    if not self.algebra.c[j][k][s].is_zero and self.grading[s] != target:
                        raise LieAlgebraError(
                            f"grading violated by [e{j+1}, e{k+1}] -> e{s+1}")
        if self.J is not None:
            d = len(self.indices_of_degree(-1))
            J2 = mat_mul(self.J, self.J)
            for i in range(d):
                for j in range(d):
                    want = GaussRat(-1) if i == j else GaussRat(0)
                    if not (J2[i][j] - want).is_zero:
                        raise LieAlgebraError("J^2 != -Id on the degree -1 part")

    def indices_of_degree(self, d: int):
        return [k for k, dk in enumerate(self.grading) if dk == d]

    @property
    def depth(self) -> int:
        return -min(self.grading)

@dataclass
class ProlongationComponent:
    """One non-negative component g_l, as maps on each negative degree."""

    degree: int
    basis: list   # each element: dict degree -> matrix (rows: target coords)
    dim: int = field(init=False)

    def __post_init__(self):
        self.dim = len(self.basis)


def tanaka_prolong(gm: GradedAlgebra, l_max: int = 6):
    """Components g_0, g_1, ..., g_{l_max} of the prolongation of (g_-, J).

    g_0 consists of grading-preserving derivations commuting with J on the
    degree -1 part; for l >= 1, g_l consists of l-shifted graded maps
    u : g_- -> g_- + g_0 + ... + g_{l-1} with
    u([x, y]) = [u(x), y] + [x, u(y)].  Computation stops at the first zero
    component (transitivity of the prolongation kills everything above).
    """
    components = []
    for l in range(l_max + 1):
        comp = _prolong_step(gm, components, l)
        components.append(comp)
        if comp.dim == 0:
            break
    return components


def _prolong_step(gm: GradedAlgebra, components, l: int):
    """Solve the derivation equations for the degree-l component, given
    g_0 .. g_{l-1}; for l = 0 also D J = J D on the degree -1 part."""
    alg = gm.algebra
    n = alg.dim
    mu = gm.depth
    deg_idx = {d: gm.indices_of_degree(d) for d in range(-mu, 0)}

    def slots(deg):
        """Coordinates of degree deg in its value space: the g_- indices for
        a negative degree, the component coordinates otherwise."""
        return deg_idx[deg] if deg < 0 else range(components[deg].dim)

    def width(deg):
        return n if deg < 0 else components[deg].dim

    # target spaces: for source degree d (< 0), image degree d + l;
    # image is g_{d+l} in g_- if d + l < 0, or the component g_{d+l} if >= 0
    src_degs = [d for d in deg_idx if d + l <= len(components) - 1]
    sizes = {}
    offsets = {}
    total = 0
    for d in sorted(src_degs):
        nrows, ncols = len(slots(d + l)), len(deg_idx[d])
        sizes[d] = (nrows, ncols)
        offsets[d] = total
        total += nrows * ncols
    if total == 0:
        return ProlongationComponent(l, [])

    def unk(d, i, j):
        return offsets[d] + i * sizes[d][1] + j

    # value of u(e_idx): linear forms over unknowns; value lives either in
    # g_- coordinates (n slots) or in component coordinates (dim slots)
    def u_of(idx):
        d = gm.grading[idx]
        if d not in sizes:
            return None, None
        pos = deg_idx[d].index(idx)
        nrows, _ = sizes[d]
        forms = [dict() for _ in range(nrows)]
        for i in range(nrows):
            forms[i][unk(d, i, pos)] = GaussRat(1)
        return d + l, forms

    columns: dict = {}
    def component_column(deg, d_other, pos):
        """For each basis element of g_deg, the nonzero (slot, value) pairs of
        column pos of its map on degree d_other; read once per step."""
        key = (deg, d_other, pos)
        if key not in columns:
            res_slots = slots(deg + d_other)
            columns[key] = [[(t, row[pos]) for t, row in zip(res_slots, maps[d_other])
                             if not row[pos].is_zero]
                            for maps in components[deg].basis]
        return columns[key]

    def bracket_value_with_basis(img_deg, forms, other_idx, sign):
        """[u(e_src), e_other] as linear forms over the coordinates of the
        result space: g_- coordinates when the result degree is negative,
        component coordinates otherwise.  For img_deg >= 0 the bracket is the
        evaluation of the component element (its map of degree d_other) on
        e_other."""
        d_other = gm.grading[other_idx]
        res_deg = img_deg + d_other
        if img_deg < 0:
            ids = deg_idx[img_deg]
            out = [dict() for _ in range(n)]
            for i, t in enumerate(ids):
                bb = alg.c[t][other_idx]
                for fu, cf in forms[i].items():
                    for s in range(n):
                        if bb[s].is_zero:
                            continue
                        out[s][fu] = out[s].get(fu, GaussRat(0)) + GaussRat(sign) * cf * bb[s]
            return res_deg, out
        pos = deg_idx[d_other].index(other_idx)
        out = [dict() for _ in range(width(res_deg))]
        for form, col in zip(forms, component_column(img_deg, d_other, pos)):
            for fu, cf in form.items():
                f = GaussRat(sign) * cf
                for t, x in col:
                    out[t][fu] = out[t].get(fu, GaussRat(0)) + f * x
        return res_deg, out

    rows = []
    def add_eq(forms_l, forms_r, width):
        for s in range(width):
            row = dict(forms_l[s])
            for u_, cf in forms_r[s].items():
                row[u_] = row[u_] - cf if u_ in row else -cf
            if row:
                rows.append(row)

    for j in range(n):
        for k in range(j + 1, n):
            br = alg.c[j][k]
            # u([ej, ek]); when [ej, ek] = 0 the derivation condition still
            # constrains [u(ej), ek] + [ej, u(ek)] to vanish
            dd = gm.grading[j] + gm.grading[k]
            lhs_deg = dd + l
            if lhs_deg < -mu:
                continue
            lhs = [dict() for _ in range(width(lhs_deg))]
            for s in range(n):
                if br[s].is_zero:
                    continue
                ideg, forms = u_of(s)
                if forms is None:
                    continue
                for t, f in zip(slots(ideg), forms):
                    for fu, cf in f.items():
                        lhs[t][fu] = lhs[t].get(fu, GaussRat(0)) + br[s] * cf
            # [u(ej), ek] + [ej, u(ek)]
            rhs = [dict() for _ in range(width(lhs_deg))]
            for (src, other, sign) in ((j, k, 1), (k, j, -1)):
                ideg, forms = u_of(src)
                if forms is None:
                    continue
                rdeg, out = bracket_value_with_basis(ideg, forms, other, sign)
                for s in range(len(out)):
                    for fu, cf in out[s].items():
                        rhs[s][fu] = rhs[s].get(fu, GaussRat(0)) + cf
            if width(lhs_deg):
                add_eq(lhs, rhs, width(lhs_deg))

    if l == 0 and gm.J is not None:
        d1 = len(deg_idx[-1])
        for i in range(d1):
            for j in range(d1):
                # (D J - J D)_{ij} = 0 on the degree -1 block
                row = {}
                for k in range(d1):
                    row[unk(-1, i, k)] = row.get(unk(-1, i, k), GaussRat(0)) + gm.J[k][j]
                    row[unk(-1, k, j)] = row.get(unk(-1, k, j), GaussRat(0)) - gm.J[i][k]
                rows.append(row)

    sols = nullspace(rows, total)
    basis = []
    for v in sols:
        maps = {}
        for d, (nrows, ncols) in sizes.items():
            o = offsets[d]
            maps[d] = [v[o + i * ncols:o + (i + 1) * ncols] for i in range(nrows)]
        basis.append(maps)
    return ProlongationComponent(l, basis)
