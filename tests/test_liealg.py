import random
from fractions import Fraction

import pytest

import crcartan.liealg as LA
from crcartan.exact import Context, GaussRat
from crcartan.liealg import (GradedAlgebra, LieAlgebra, LieAlgebraError,
                             lower_central_series, mat_mul, rank, recognize_dim_le5,
                             rref, span_coordinates, tanaka_prolong, validate)

J_STD = [[GaussRat(0), GaussRat(-1)], [GaussRat(1), GaussRat(0)]]


def n5_4() -> LieAlgebra:
    return LA._table_algebras()["n5_4"]


# ---------------------------------------------------------------------------
# test helpers: matrices, basis changes, invariants and the prolonged algebra
# ---------------------------------------------------------------------------

def mat_vec(A, v):
    return [sum((A[i][k] * v[k] for k in range(len(v))), GaussRat(0))
            for i in range(len(A))]


def mat_inv(A):
    n = len(A)
    M = [row[:] + [GaussRat(1) if i == j else GaussRat(0) for j in range(n)]
         for i, row in enumerate(A)]
    R, piv = rref(M)
    if piv[:n] != list(range(n)):
        raise LieAlgebraError("matrix not invertible")
    return [row[n:] for row in R]


def in_span(v, basis) -> bool:
    return rank(basis + [v]) == rank(basis)


def change_basis(g: LieAlgebra, phi) -> LieAlgebra:
    """Structure constants of g in the basis f_j = sum_s phi[j][s] e_s.

    So phi : h -> g, e_j -> f_j, is an isomorphism exactly when
    change_basis(g, phi).c == h.c.
    """
    inv = mat_inv(phi)
    n = g.dim
    c2 = [[[GaussRat(0)] * n for _ in range(n)] for _ in range(n)]
    for j in range(n):
        for k in range(n):
            br = g.bracket(phi[j], phi[k])
            coords = mat_vec([[inv[s][t] for s in range(n)] for t in range(n)], br)
            for s in range(n):
                c2[j][k][s] = coords[s]
    return LieAlgebra(n, c2)


def jordan_partition(A):
    """Decreasing block-size partition of a nilpotent matrix, via ranks."""
    n = len(A)
    ranks = [n]
    P = [row[:] for row in A]
    while True:
        r = rank(P)
        ranks.append(r)
        if r == 0:
            break
        P = mat_mul(P, A)
    # part[k-1] = number of blocks of size >= k; multiplicity of size k
    # is then part[k-1] - part[k]
    part = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    sizes = []
    for k in range(1, len(part) + 1):
        exact = part[k - 1] - (part[k] if k < len(part) else 0)
        sizes.extend([k] * exact)
    return tuple(sorted(sizes, reverse=True))


def characteristic_sequence(g: LieAlgebra):
    """Goze invariant: the lexicographically maximal Jordan partition of
    ad(x) over x outside the derived algebra.

    The rank of every power of ad(x) is largest at a generic x, so the
    maximum is the Jordan type of ad(t_1 e_1 + ... + t_n e_n) over
    Q(i)(t_1, ..., t_n), an exact computation (Goze and Khakimdjanov,
    Nilpotent Lie Algebras, 1996); a generic x lies outside the derived
    algebra of a nilpotent g.
    """
    n = g.dim
    ctx = Context([(f"t{k + 1}", f"t{k + 1}") for k in range(n)])
    t = ctx.vars(*ctx.names)
    ad = [[sum((t[j] * g.c[j][k][s] for j in range(n) if not g.c[j][k][s].is_zero),
               ctx.zero)
           for k in range(n)] for s in range(n)]
    return jordan_partition(ad)


def nilpotent_invariants(g: LieAlgebra) -> dict:
    """Nilindex, kind, series dimensions, center, characteristic sequence."""
    dims = tuple(len(s) for s in LA._nilpotent_series(g))
    kind = len(dims) - 1
    return {
        "nilindex": kind + 1,
        "kind": kind,
        "series_dims": dims,
        "center_dim": len(LA.center(g)),
        "characteristic_sequence": characteristic_sequence(g),
    }


def is_fundamental(gm: GradedAlgebra) -> bool:
    """g_{-k-1} = [g_-1, g_-k] for every k >= 1."""
    alg = gm.algebra
    for k in range(1, gm.depth):
        target = gm.indices_of_degree(-k - 1)
        gens = []
        for i in gm.indices_of_degree(-1):
            for j in gm.indices_of_degree(-k):
                gens.append(alg.bracket(alg.basis_vector(i), alg.basis_vector(j)))
        if rank(gens) != len(target):
            return False
    return True


def _act_g0(gm: GradedAlgebra, mats, vec):
    """Action of a g_0 element (one block per degree) on a vector of g_-."""
    out = [GaussRat(0)] * len(vec)
    for d, block in mats.items():
        ids = gm.indices_of_degree(d)
        img = mat_vec(block, [vec[t] for t in ids])
        for i, t in enumerate(ids):
            out[t] = out[t] + img[i]
    return out


def prolonged_algebra(gm: GradedAlgebra, components=None) -> LieAlgebra:
    """The full graded algebra g_- + g_0 when the prolongation stops there.

    Brackets: [neg, neg] from the input, [d, x] = d(x) for d in g_0, and
    [d, e] = matrix commutator for d, e in g_0 (re-expressed in the computed
    g_0 basis).
    """
    comps = components if components is not None else tanaka_prolong(gm)
    if len(comps) > 1 and comps[1].dim:
        raise LieAlgebraError("prolonged_algebra supports prolongations that "
                              "stop at degree zero")
    alg = gm.algebra
    n = alg.dim
    g0 = comps[0]
    m = g0.dim
    degrees = sorted(set(gm.grading))

    def flat(mats):
        row = []
        for d in degrees:
            for r in mats[d]:
                row.extend(r)
        return row

    basis_flat = [flat(b) for b in g0.basis]

    def g0_coords(mats):
        target = flat(mats)
        rows = [[basis_flat[k][c] for k in range(m)] + [target[c]]
                for c in range(len(target))]
        (coords,) = span_coordinates(rows, m, 1)
        if coords is None:
            raise LieAlgebraError("g0 commutator leaves the computed g0")
        return coords

    N = n + m
    c = [[[GaussRat(0)] * N for _ in range(N)] for _ in range(N)]
    for j in range(n):
        for k in range(n):
            for s in range(n):
                c[j][k][s] = alg.c[j][k][s]
    for a in range(m):
        mats = g0.basis[a]
        for j in range(n):
            img = _act_g0(gm, mats, alg.basis_vector(j))
            for s in range(n):
                c[n + a][j][s] = img[s]
                c[j][n + a][s] = -img[s]
    for a in range(m):
        for b in range(a + 1, m):
            A, B = g0.basis[a], g0.basis[b]
            comm = {d: [[sum((A[d][i][k] * B[d][k][j] - B[d][i][k] * A[d][k][j]
                              for k in range(len(A[d]))), GaussRat(0))
                         for j in range(len(A[d][0]))] for i in range(len(A[d]))]
                    for d in A}
            coords = g0_coords(comm)
            for s in range(m):
                c[n + a][n + b][n + s] = coords[s]
                c[n + b][n + a][n + s] = -coords[s]
    labels = tuple(gm.algebra.labels) + tuple(f"d{k+1}" for k in range(m))
    return LieAlgebra(N, c, labels)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_heisenberg():
    g = LieAlgebra.from_brackets(3, {(0, 1): {2: GaussRat(1)}})
    assert validate(g) == "ok"


def test_validate_antisymmetry_violation():
    g = LieAlgebra(2, [[[1, 0], [1, 0]], [[1, 0], [0, 0]]])
    bad = validate(g)
    assert bad != "ok" and bad[0][0] == "antisymmetry"


def test_validate_jacobi_violation():
    g = LieAlgebra.from_brackets(3, {(0, 1): {2: GaussRat(1)},
                                     (0, 2): {0: GaussRat(1)},
                                     (1, 2): {1: GaussRat(1)}})
    assert validate(g) == [("jacobi", (0, 1, 2, 2))]


def test_validate_jacobi_first_violation():
    g = LieAlgebra.from_brackets(3, {(0, 1): {2: GaussRat(1)},
                                     (0, 2): {2: GaussRat(1)},
                                     (1, 2): {0: GaussRat(1)}})
    assert validate(g) == [("jacobi", (0, 1, 2, 0))]


def test_validate_jacobi_first_violation_at_a_later_triple():
    # the algebra above on e2, e3, e4, with e1 central: every triple through
    # e1 satisfies Jacobi, so the first violation is on (e2, e3, e4)
    g = LieAlgebra.from_brackets(4, {(1, 2): {3: GaussRat(1)},
                                     (1, 3): {3: GaussRat(1)},
                                     (2, 3): {1: GaussRat(1)}})
    assert validate(g) == [("jacobi", (1, 2, 3, 1))]
    g = LieAlgebra.from_brackets(5, {(0, 1): {2: GaussRat(1)},
                                     (1, 4): {1: GaussRat(2)},
                                     (2, 4): {3: GaussRat(1)},
                                     (3, 4): {2: GaussRat(1)}})
    assert validate(g) == [("jacobi", (0, 1, 4, 2))]


def test_validate_seven_dim_table():
    from test_equivalence import aut_table_algebra
    assert validate(aut_table_algebra()) == "ok"


# ---------------------------------------------------------------------------
# nilpotent invariants
# ---------------------------------------------------------------------------

def test_invariants_n5_4():
    inv = nilpotent_invariants(n5_4())
    assert inv["characteristic_sequence"] == (3, 1, 1)
    assert inv["series_dims"] == (5, 3, 2, 0)
    assert inv["kind"] == 3


def test_invariants_abelian_dim4():
    g = LieAlgebra.from_brackets(4, {})
    inv = nilpotent_invariants(g)
    assert inv["nilindex"] == 2
    assert inv["characteristic_sequence"] == (1, 1, 1, 1)


def test_invariants_filiform_n4_1():
    g = LA._table_algebras()["n4_1"]
    inv = nilpotent_invariants(g)
    assert inv["characteristic_sequence"] == (3, 1)
    assert inv["kind"] == 3              # filiform: maximal nilpotency order


# Goze's characteristic sequence of each table algebra
CHARACTERISTIC_SEQUENCES = {
    "a1": (1,), "a2": (1, 1), "a3": (1, 1, 1), "a4": (1, 1, 1, 1),
    "a5": (1, 1, 1, 1, 1),
    "n3_1": (2, 1), "n3_1+a1": (2, 1, 1),
    "n3_1+a2": (2, 1, 1, 1), "n4_1": (3, 1),
    "n4_1+a1": (3, 1, 1), "n5_1": (4, 1), "n5_2": (4, 1),
    "n5_3": (3, 1, 1), "n5_4": (3, 1, 1),
    "n5_5": (2, 2, 1), "n5_6": (2, 1, 1, 1),
}


def test_characteristic_sequence_of_every_table_algebra():
    assert {name: characteristic_sequence(g)
            for name, g in LA._table_algebras().items()} == CHARACTERISTIC_SEQUENCES


def test_non_nilpotent_reported():
    g = LieAlgebra.from_brackets(2, {(0, 1): {1: GaussRat(1)}})
    with pytest.raises(LieAlgebraError, match="not nilpotent"):
        nilpotent_invariants(g)


# ---------------------------------------------------------------------------
# recognition
# ---------------------------------------------------------------------------

def test_recognize_table_members():
    for name, g in LA._table_algebras().items():
        assert recognize_dim_le5(g) == name


def test_recognize_filiform_example():
    g = LieAlgebra.from_brackets(5, {(0, 1): {2: GaussRat(1)},
                                     (0, 2): {3: GaussRat(1)},
                                     (0, 3): {4: GaussRat(1)}})
    assert recognize_dim_le5(g) == "n5_1"


def test_recognize_abelian():
    assert recognize_dim_le5(LieAlgebra.from_brackets(5, {})) == "a5"


def test_recognition_table_is_the_key_of_every_table_algebra():
    table = {LA._recognition_key(g): name
             for name, g in LA._table_algebras().items()}
    assert LA._RECOGNITION_TABLE == table
    assert len(table) == 16


def test_recognize_non_nilpotent_raises():
    g = LieAlgebra.from_brackets(2, {(0, 1): {1: GaussRat(1)}})
    with pytest.raises(LieAlgebraError, match="not nilpotent"):
        recognize_dim_le5(g)


def _random_invertible(rng, n):
    while True:
        phi = [[GaussRat(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
                for _ in range(n)] for _ in range(n)]
        try:
            mat_inv(phi)
            return phi
        except LieAlgebraError:
            continue


def test_recognition_stable_under_basis_change():
    rng = random.Random(17)
    for name in ("n5_2", "n5_4", "n5_6", "n4_1+a1"):
        g = LA._table_algebras()[name]
        for _ in range(5):
            phi = _random_invertible(rng, g.dim)
            assert recognize_dim_le5(change_basis(g, phi)) == name


# ---------------------------------------------------------------------------
# row reduction
# ---------------------------------------------------------------------------

def _dense_rref(M):
    """Textbook Gauss-Jordan elimination on every entry of every row."""
    M = [row[:] for row in M]
    rows, cols = len(M), len(M[0])
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if not M[i][c].is_zero), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        M[r] = [x / M[r][c] for x in M[r]]
        for i in range(rows):
            if i != r:
                M[i] = [a - M[i][c] * b for a, b in zip(M[i], M[r])]
        r += 1
    return M


def _random_sparse(rng, rows, cols, rank_deficient):
    def entry():
        if rng.random() < 0.7:
            return GaussRat(0)
        return GaussRat(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                        Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
    M = [[entry() for _ in range(cols)] for _ in range(rows)]
    if rank_deficient and rows > 2:
        # the last row repeats a combination of the first two
        a, b = entry(), entry()
        M[-1] = [a * x + b * y for x, y in zip(M[0], M[1])]
    return M


@pytest.mark.parametrize("rows, cols", [(1, 1), (3, 7), (6, 6), (9, 4),
                                        (12, 20), (20, 10)])
def test_rref_matches_dense_reference(rows, cols):
    rng = random.Random(rows * 100 + cols)
    for trial in range(8):
        M = _random_sparse(rng, rows, cols, rank_deficient=trial % 2 == 1)
        R, piv = LA.rref(M)
        dense = _dense_rref(M)
        assert R == dense
        assert piv == [next(c for c in range(cols) if not row[c].is_zero)
                       for row in dense if any(not x.is_zero for x in row)]


@pytest.mark.parametrize("rows, cols", [(3, 7), (6, 6), (9, 4), (12, 20)])
def test_nullspace_of_random_sparse_matrices(rows, cols):
    rng = random.Random(rows * 1000 + cols)
    for trial in range(8):
        M = _random_sparse(rng, rows, cols, rank_deficient=trial % 2 == 1)
        basis = LA.nullspace(M, cols)
        rank = sum(any(not x.is_zero for x in row) for row in _dense_rref(M))
        assert len(basis) == cols - rank
        for v in basis:
            assert all(x.is_zero for x in mat_vec(M, v))


def _span_reference(rows, m):
    """One target through `nullspace`: v with v[m] != 0 gives t = sum_k (-v[k] / v[m]) b_k."""
    for v in LA.nullspace(rows, m + 1):
        if not v[m].is_zero:
            return [-x / v[m] for x in v[:m]]
    return None


def test_span_coordinates_of_several_targets():
    one, zero = GaussRat(1), GaussRat(0)
    # b = e1; t1 = e2 is outside, t2 = 2 e1 inside, t3 = 2 e2 a multiple of t1 only
    rows = [[one, zero, 2 * one, zero], [zero, one, zero, 2 * one], [zero] * 4]
    assert span_coordinates(rows, 1, 3) == [None, [2 * one], None]


@pytest.mark.parametrize("rows, m, targets", [(4, 2, 3), (9, 4, 5), (12, 6, 6)])
def test_span_coordinates_match_one_target_reference(rows, m, targets):
    rng = random.Random(rows * 10 + m)
    for trial in range(8):
        M = _random_sparse(rng, rows, m + targets, rank_deficient=trial % 2 == 1)
        for s in range(1, targets, 2):
            # every other target is a combination of the b_k, so it lies in the span
            a = [GaussRat(rng.randint(-2, 2)) for _ in range(m)]
            for row in M:
                row[m + s] = sum((x * y for x, y in zip(a, row[:m])), GaussRat(0))
        got = span_coordinates(M, m, targets)
        assert len(got) == targets
        for s in range(targets):
            want = _span_reference([row[:m] + [row[m + s]] for row in M], m)
            assert got[s] == want, (trial, s)
        assert all(got[s] is not None for s in range(1, targets, 2))


# ---------------------------------------------------------------------------
# isomorphism verification
# ---------------------------------------------------------------------------

def test_verify_isomorphism_identity():
    g = n5_4()
    ident = [[GaussRat(1) if i == j else GaussRat(0) for j in range(5)]
             for i in range(5)]
    assert change_basis(g, ident).c == g.c


def test_verify_isomorphism_detects_nonisomorphic():
    g3 = LA._table_algebras()["n5_3"]
    g4 = n5_4()
    swap = [[GaussRat(0)] * 5 for _ in range(5)]
    for i, j in ((0, 0), (1, 1), (2, 2), (3, 4), (4, 3)):
        swap[i][j] = GaussRat(1)
    assert change_basis(g4, swap).c != g3.c


def test_verify_isomorphism_after_basis_change():
    rng = random.Random(3)
    g = n5_4()
    phi = _random_invertible(rng, 5)
    h = change_basis(g, phi)
    assert change_basis(g, phi).c == h.c
    # the comparison above holds by construction; the way back checks it
    assert change_basis(h, mat_inv(phi)).c == g.c


# ---------------------------------------------------------------------------
# Tanaka prolongation
# ---------------------------------------------------------------------------

def test_tanaka_n5_4():
    gm = GradedAlgebra(n5_4(), (-1, -1, -2, -3, -3), J_STD)
    assert is_fundamental(gm)
    comps = tanaka_prolong(gm)
    assert comps[0].dim == 2
    assert comps[1].dim == 0
    # the two generators: the weighted dilation and the rotation
    span = {tuple(tuple(tuple(str(x) for x in row) for row in b[d])
                  for d in sorted(b)) for b in comps[0].basis}
    dilation = ((("1", "0"), ("0", "1")), (("2",),), (("3", "0"), ("0", "3")))
    # membership of the dilation in the span: solve small system
    import crcartan.liealg as L2
    flat = lambda b: [x for d in sorted(b) for row in b[d] for x in row]
    target = [GaussRat(v) for v in (3, 0, 0, 3, 2, 1, 0, 0, 1)]
    rows = [[flat(b)[c] for b in comps[0].basis] + [target[c]]
            for c in range(9)]
    sol = L2.nullspace(rows, 3)
    assert any(not v[2].is_zero for v in sol)


def test_tanaka_restriction_is_identity_on_negatives():
    gm = GradedAlgebra(n5_4(), (-1, -1, -2, -3, -3), J_STD)
    comps = tanaka_prolong(gm)
    full = prolonged_algebra(gm, comps)
    assert full.dim == 7
    assert validate(full) == "ok"
    for j in range(5):
        for k in range(5):
            for s in range(5):
                assert full.c[j][k][s] == gm.algebra.c[j][k][s]
        for s in range(5, 7):
            assert all(full.c[j][k][s].is_zero for k in range(5))


def test_prolonged_n5_4_isomorphic_to_aut_table():
    from test_equivalence import aut_table_algebra
    gm = GradedAlgebra(n5_4(), (-1, -1, -2, -3, -3), J_STD)
    comps = tanaka_prolong(gm)
    full = prolonged_algebra(gm, comps)
    # explicit map found from the bracket structure:
    # (x1..x5) -> (L1/2, L2/2, T, -2 S1, -2 S2), dilation -> -D, rotation -> -R
    # in the aut basis order (S2, S1, T, L2, L1, D, R)
    h = Fraction(1, 2)
    z = GaussRat(0)
    d_row = [z, z, z, z, z, GaussRat(-1), z]
    r_row = [z, z, z, z, z, z, GaussRat(-1)]
    # identify the dilation by its action on the degree -2 line (factor 2)
    first_is_dilation = comps[0].basis[0][-2][0][0] == GaussRat(2)
    g0_rows = [d_row, r_row] if first_is_dilation else [r_row, d_row]
    phi = [
        [z, z, z, z, GaussRat(h), z, z],
        [z, z, z, GaussRat(h), z, z, z],
        [z, z, GaussRat(1), z, z, z, z],
        [z, GaussRat(-2), z, z, z, z, z],
        [GaussRat(-2), z, z, z, z, z, z],
        g0_rows[0],
        g0_rows[1],
    ]
    assert change_basis(aut_table_algebra(), phi).c == full.c


def test_tanaka_heisenberg_with_J():
    g = LieAlgebra.from_brackets(3, {(0, 1): {2: GaussRat(1)}})
    gm = GradedAlgebra(g, (-1, -1, -2), J_STD)
    comps = tanaka_prolong(gm)
    # the prolongation of the sphere symbol: dims 2, 2, 1, 0
    assert [c.dim for c in comps[:4]] == [2, 2, 1, 0]
    # g0 contains the scaling derivation x_i -> x_i, x3 -> 2 x3
    flat = lambda b: [x for d in sorted(b) for row in b[d] for x in row]
    target = [GaussRat(v) for v in (2, 1, 0, 0, 1)]
    import crcartan.liealg as L2
    rows = [[flat(b)[c] for b in comps[0].basis] + [target[c]]
            for c in range(5)]
    sol = L2.nullspace(rows, 3)
    assert any(not v[2].is_zero for v in sol)


def _lcs_grading(g):
    """Degree -m for a basis vector in the m-th term of the lower central
    series and not in the next one."""
    series = lower_central_series(g)
    return tuple(-max(m for m, term in enumerate(series, start=1)
                      if term and in_span(g.basis_vector(k), term))
                 for k in range(g.dim))


def _degree_minus_one_J(grading):
    """J_STD on consecutive pairs of the degree -1 part, when it is even."""
    d = grading.count(-1)
    if d % 2:
        return None
    J = [[GaussRat(0)] * d for _ in range(d)]
    for a in range(0, d, 2):
        J[a + 1][a] = GaussRat(1)
        J[a][a + 1] = GaussRat(-1)
    return J


# dim g_0, dim g_1, ... of each table algebra graded by its lower central
# series (n5_2 and n5_3 admit no such grading), without and with J; the
# prolongation stops at a zero component or after g_6.  The abelian a4
# without J runs to full depth, dim g_k = 4 * C(4 + k, k + 1); the other
# largest symbols of infinite type are prolonged to a lower degree to keep
# the test short.
PROLONGATION_DIMS = {
    "a1": ([1, 1, 1, 1, 1, 1, 1], None),
    "a2": ([4, 6, 8, 10, 12, 14, 16], [2, 2, 2, 2, 2, 2, 2]),
    "a3": ([9, 18, 30, 45, 63, 84, 108], None),
    "a4": ([16, 40, 80, 140, 224, 336, 480], [8, 12, 16, 20, 24, 28, 32]),
    "a5": ([25, 75, 175], None),
    "n3_1": ([4, 6, 9, 12, 16, 20, 25], [2, 2, 1, 0]),
    "n3_1+a1": ([7, 13, 22, 34, 50, 70, 95], None),
    "n3_1+a2": ([12, 28, 57, 104], [6, 10, 13, 18, 24, 32, 40]),
    "n4_1": ([3, 4, 5, 7, 8, 10, 12], [1, 0]),
    "n4_1+a1": ([6, 11, 19, 32, 49, 74, 107], None),
    "n5_1": ([3, 3, 4, 5, 6, 7, 8], [1, 0]),
    "n5_4": ([4, 2, 1, 2, 0], [2, 0]),
    "n5_5": ([7, 9, 15, 18, 26, 30, 40], None),
    "n5_6": ([11, 24, 46, 80], [5, 4, 1, 0]),
}


@pytest.mark.parametrize("name", sorted(PROLONGATION_DIMS))
def test_prolongation_dims_of_table_algebras(name):
    g = LA._table_algebras()[name]
    grading = _lcs_grading(g)
    for dims, J in zip(PROLONGATION_DIMS[name], (None, _degree_minus_one_J(grading))):
        if dims is None:
            assert J is None
            continue
        gm = GradedAlgebra(g, grading, J)
        l_max = len(dims) - 1 if dims[-1] else 6
        assert [c.dim for c in tanaka_prolong(gm, l_max)] == dims


def test_only_n5_2_and_n5_3_lack_a_lower_central_series_grading():
    for name, g in LA._table_algebras().items():
        if name in PROLONGATION_DIMS:
            continue
        with pytest.raises(LieAlgebraError, match="grading"):
            GradedAlgebra(g, _lcs_grading(g))


def test_grading_violation_detected():
    with pytest.raises(LieAlgebraError, match="grading"):
        GradedAlgebra(n5_4(), (-1, -1, -1, -3, -3), None)
