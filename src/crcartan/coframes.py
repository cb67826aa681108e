"""Dual coframe of the adapted frame and its exterior structure.

The coframe (sigma0_bar, sigma0, rho0, zeta0_bar, zeta0) is dual to the frame
(Sbar, S, T, Lbar, L).  Its exterior derivatives are read off the bracket
table with an overall minus sign; d of a function expands in the coframe by
frame derivatives.  Two- and three-forms are kept as sparse coefficient maps
over sorted index pairs/triples of the five basis elements.
"""

from __future__ import annotations

from .exact import Expr
from .frames import Frame, StructureFunctions, decompose, invert_frame, lie_bracket

#: index order of the coframe (and of the dual frame)
COFRAME_NAMES = ("sigma_bar", "sigma", "rho", "zeta_bar", "zeta")


class TwoForm:
    """Sparse 2-form: {(i, j): coeff} with i < j over a 5-element basis.

    A coefficient is an `Expr` or an `ExtElem`; both answer `is_zero`.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        if coeffs:
            for (i, j), c in coeffs.items():
                self.add_term(i, j, c)

    def add_term(self, i: int, j: int, c) -> None:
        if i == j:
            return
        if i > j:
            i, j = j, i
            c = -c
        cur = self.coeffs.get((i, j))
        tot = c if cur is None else cur + c
        if tot.is_zero:
            self.coeffs.pop((i, j), None)
        else:
            self.coeffs[(i, j)] = tot

    def get(self, i: int, j: int, zero=None):
        """Coefficient of e_i ^ e_j (any index order); `zero` when absent."""
        if i < j:
            c = self.coeffs.get((i, j))
            return zero if c is None else c
        c = self.coeffs.get((j, i))
        return zero if c is None else -c

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def map(self, fn) -> "TwoForm":
        out = TwoForm()
        for (i, j), c in self.coeffs.items():
            out.add_term(i, j, fn(c))
        return out

    def render(self, names=COFRAME_NAMES) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for (i, j), c in sorted(self.coeffs.items()):
            parts.append(f"({c}) {names[i]}^{names[j]}")
        return " + ".join(parts)

    __repr__ = render


class ThreeForm:
    """Sparse 3-form over sorted index triples; transient (d o d checks)."""

    __slots__ = ("coeffs",)

    def __init__(self):
        self.coeffs = {}

    def add_term(self, idx, c) -> None:
        i, j, k = idx
        if len({i, j, k}) < 3:
            return
        perm = sorted(((v, p) for p, v in enumerate(idx)))
        order = tuple(p for _, p in perm)
        sign = _perm_sign(order)
        key = tuple(v for v, _ in perm)
        if sign < 0:
            c = -c
        cur = self.coeffs.get(key)
        tot = c if cur is None else cur + c
        if tot.is_zero:
            self.coeffs.pop(key, None)
        else:
            self.coeffs[key] = tot

    @property
    def is_zero(self) -> bool:
        return not self.coeffs


def _perm_sign(order) -> int:
    sign = 1
    o = list(order)
    for a in range(len(o)):
        for b in range(a + 1, len(o)):
            if o[a] > o[b]:
                sign = -sign
    return sign


# ---------------------------------------------------------------------------
# Darboux structure
# ---------------------------------------------------------------------------

def darboux_structure(f: Frame, sf: StructureFunctions | None = None) -> list[TwoForm]:
    """Exterior derivatives of the five coframe elements.

    d omega^k = - sum_{i<j} c^k_{ij} omega^i ^ omega^j  where
    [X_i, X_j] = sum_k c^k_{ij} X_k is the frame's bracket table.
    """
    ctx = f.ctx
    table = sf.table if sf is not None else invert_frame(f)
    fields = f.in_frame_order()
    d = [TwoForm() for _ in range(5)]
    for i in range(5):
        for j in range(i + 1, 5):
            br = lie_bracket(fields[i], fields[j])
            if br.is_zero:
                continue
            alpha, beta, gamma = decompose(table, br)
            # frame order (Sbar, S, T, Lbar, L): T at 2, S at 1, Sbar at 0
            for k, coeff in ((2, alpha), (1, beta), (0, gamma)):
                if not coeff.is_zero:
                    d[k].add_term(i, j, -coeff)
    return d


def d_of_function(f: Frame, h: Expr) -> list[Expr]:
    """Coefficients of dh in the coframe: dh = sum_w X_w(h) omega^w."""
    return [X.apply(h) for X in f.in_frame_order()]


def d_squared_check(expansions: list[TwoForm], f: Frame) -> list[ThreeForm]:
    """Apply d once more and collect d(d omega^k); identically zero always."""
    out = []
    for k in range(5):
        tf = ThreeForm()
        for (i, j), coeff in expansions[k].coeffs.items():
            dc = d_of_function(f, coeff)
            for m in range(5):
                if not dc[m].is_zero:
                    tf.add_term((m, i, j), dc[m])
            # + coeff * d(omega^i) ^ omega^j - coeff * omega^i ^ d(omega^j)
            for (p, q), c2 in expansions[i].coeffs.items():
                tf.add_term((p, q, j), coeff * c2)
            for (p, q), c2 in expansions[j].coeffs.items():
                tf.add_term((i, p, q), -(coeff * c2))
        out.append(tf)
    return out
