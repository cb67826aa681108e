"""Adapted complex frame on a 5-dimensional CR-generic graph in C^4.

A manifold is given by three real polynomial graphing functions
v_j = phi_j(x, y, u1, u2, u3).  The antiholomorphic generator Lbar is found
by an exact 3x3 linear solve of the tangency equations, the rest of the frame
by bracketing:

    T = s * i[L, Lbar],    S = [L, T],    Sbar = [Lbar, T],

where s = 1 for the "s12" convention and s = 2 for the "s13" convention (the
two scalings in which the cubic model's frame is usually displayed).  All
identities of the method (reality of T, the Jacobi relations, the derived
structure-function formulas) hold in the s12 scaling, which is what the
equivalence pipeline uses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import Context, Expr, GaussRat, I, standard_context
from .liealg import rank

BASE_VARS = ("x", "y", "u1", "u2", "u3")

CONVENTIONS = ("s12", "s13")
_T_SCALE = {"s12": 1, "s13": 2}


class FrameError(Exception):
    """A frame cannot be built; `phi` is the k of the phi_k at fault, if any."""

    def __init__(self, msg, phi: int | None = None):
        super().__init__(msg)
        self.phi = phi


# ---------------------------------------------------------------------------
# graphing functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GraphingFunctions:
    """Three real polynomials phi_j(x, y, u) with phi_j(0) = 0, dphi_j(0) = 0."""

    ctx: Context
    phi1: Expr
    phi2: Expr
    phi3: Expr

    def __post_init__(self):
        origin = {n: GaussRat(0) for n in self.ctx.names}
        for k, phi in enumerate(self.phis, start=1):
            if not phi.is_polynomial:
                raise FrameError(f"phi{k} must be a polynomial", k)
            extra = phi.variables() - set(BASE_VARS)
            if extra:
                raise FrameError(f"phi{k} may depend on {', '.join(BASE_VARS)} only, "
                                 f"not {sorted(extra)}", k)
            if not phi.is_real:
                raise FrameError(f"phi{k} must have real coefficients", k)
            if not phi.evaluate(origin).is_zero:
                raise FrameError(f"phi{k}(0) != 0", k)
            for v in BASE_VARS:
                if not phi.diff(v).evaluate(origin).is_zero:
                    raise FrameError(f"d phi{k}/d{v} (0) != 0", k)

    @property
    def phis(self) -> tuple[Expr, Expr, Expr]:
        return (self.phi1, self.phi2, self.phi3)


def cubic_model(ctx: Context | None = None) -> GraphingFunctions:
    """The cubic model: v1 = x^2+y^2, v2 = 2x^3+2xy^2, v3 = 2x^2y+2y^3."""
    ctx = ctx or standard_context()
    x, y = ctx.vars("x", "y")
    return GraphingFunctions(
        ctx,
        x ** 2 + y ** 2,
        2 * x ** 3 + 2 * x * y ** 2,
        2 * x ** 2 * y + 2 * y ** 3,
    )


def pair_deformation(coefs_shapes) -> GraphingFunctions:
    """Deform v2 + i v3 of the cubic by a sum of coef * shape.

    Each shape is a Python expression in z, zb, u1, u2, u3 and i, such as
    "z**4*zb" or "(u2+i*u3)*z"; each coef is a GaussRat.
    """
    ctx = standard_context()
    x, y, u1, u2, u3 = ctx.vars("x", "y", "u1", "u2", "u3")
    i = ctx.const(I)
    z, zb = x + i * y, x - i * y
    env = {"z": z, "zb": zb, "u1": u1, "u2": u2, "u3": u3, "i": i}
    c = ctx.zero
    for coef, shape in coefs_shapes:
        c = c + ctx.const(coef) * eval(shape, {}, env)
    re = (c + c.conj()) / 2
    im = (c - c.conj()) / (2 * i)
    return GraphingFunctions(ctx, x ** 2 + y ** 2,
                             2 * x ** 3 + 2 * x * y ** 2 + re,
                             2 * x ** 2 * y + 2 * y ** 3 + im)


# ---------------------------------------------------------------------------
# vector fields
# ---------------------------------------------------------------------------

class VectorField:
    """Derivation with Expr coefficients on (d/dx, d/dy, d/du1, d/du2, d/du3).

    The d/dz, d/dzbar parts of complexified fields are carried by the (x, y)
    pair; conjugation is then plain componentwise conjugation.
    """

    __slots__ = ("ctx", "coeffs", "_memo")

    def __init__(self, ctx: Context, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != 5:
            raise FrameError("a vector field needs 5 components")
        self.ctx = ctx
        self.coeffs = coeffs
        self._memo = {}

    @classmethod
    def zero(cls, ctx: Context) -> "VectorField":
        return cls(ctx, (ctx.zero,) * 5)

    def apply(self, f: Expr) -> Expr:
        """Apply as a derivation (group parameters are constants).

        Results are memoized per argument object: the pipeline applies the
        same frame fields to the same handful of structure functions many
        times over.
        """
        hit = self._memo.get(id(f))
        if hit is not None and hit[0] is f:
            return hit[1]
        out = self.ctx.zero
        for c, v in zip(self.coeffs, BASE_VARS):
            if not c.is_zero:
                out = out + c * f.diff(v)
        if len(self._memo) < 4096:
            self._memo[id(f)] = (f, out)
        return out

    def conj(self) -> "VectorField":
        return VectorField(self.ctx, (c.conj() for c in self.coeffs))

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.ctx, (a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.ctx, (a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "VectorField":
        return VectorField(self.ctx, (-a for a in self.coeffs))

    def scale(self, s: Expr | GaussRat | int) -> "VectorField":
        s = s if isinstance(s, Expr) else self.ctx.const(s)
        return VectorField(self.ctx, (s * a for a in self.coeffs))

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    def __eq__(self, other):
        return isinstance(other, VectorField) and \
            all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash(self.coeffs)

    def at_origin(self) -> list[GaussRat]:
        origin = {n: GaussRat(0) for n in self.ctx.names}
        return [c.evaluate(origin) for c in self.coeffs]

    def __str__(self):
        names = ("d/dx", "d/dy", "d/du1", "d/du2", "d/du3")
        parts = [f"({c}) {n}" for c, n in zip(self.coeffs, names) if not c.is_zero]
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """Commutator [X, Y] of two vector fields."""
    return VectorField(X.ctx, (X.apply(cy) - Y.apply(cx)
                               for cx, cy in zip(X.coeffs, Y.coeffs)))


# ---------------------------------------------------------------------------
# small exact linear algebra over Expr
# ---------------------------------------------------------------------------

def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _solve3(m, rhs, errmsg: str):
    """Cramer solve of a 3x3 system with Expr entries."""
    det = _det3(m)
    if det.is_zero:
        raise FrameError(errmsg)
    sols = []
    for k in range(3):
        mk = [[rhs[i] if j == k else m[i][j] for j in range(3)] for i in range(3)]
        sols.append(_det3(mk) / det)
    return sols


# ---------------------------------------------------------------------------
# the frame
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Frame:
    ctx: Context
    graph: GraphingFunctions
    convention: str
    L: VectorField
    Lbar: VectorField
    T: VectorField
    S: VectorField
    Sbar: VectorField

    def fields(self) -> dict[str, VectorField]:
        return {"L": self.L, "Lbar": self.Lbar, "T": self.T,
                "S": self.S, "Sbar": self.Sbar}

    def in_frame_order(self) -> tuple[VectorField, ...]:
        return (self.Sbar, self.S, self.T, self.Lbar, self.L)


def build_frame(g: GraphingFunctions, convention: str = "s12") -> Frame:
    """Construct {L, Lbar, T, S, Sbar} from the graphing functions."""
    if convention not in CONVENTIONS:
        raise FrameError(f"unknown convention {convention!r}")
    ctx = g.ctx
    i = ctx.const(I)
    # tangency system:  sum_k [ (i/2) delta_jk - (1/2) phi_j,uk ] A_k = phi_j,zbar
    m = [[(i / 2 if j == k else ctx.zero) - g.phis[j].diff(f"u{k+1}") / 2
          for k in range(3)] for j in range(3)]
    rhs = [(g.phis[j].diff("x") + i * g.phis[j].diff("y")) / 2 for j in range(3)]
    A = _solve3(m, rhs, "degenerate graph")
    lbar = VectorField(ctx, (ctx.one / 2, i / 2, A[0] / 2, A[1] / 2, A[2] / 2))
    l = lbar.conj()
    t = lie_bracket(l, lbar).scale(i).scale(_T_SCALE[convention])
    s = lie_bracket(l, t)
    sbar = lie_bracket(lbar, t)
    fr = Frame(ctx, g, convention, l, lbar, t, s, sbar)
    _check_independent(fr)
    return fr


def _check_independent(fr: Frame) -> None:
    if rank([f.at_origin() for f in fr.in_frame_order()]) < 5:
        raise FrameError("frame degenerate at the origin")


# ---------------------------------------------------------------------------
# frame inversion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InversionTable:
    """Expansion of d/du_j in (T, S, Sbar): d/du_j = ct_j T + cs_j S + csb_j Sbar."""

    frame: Frame
    rows: tuple  # three triples (ct, cs, csb)

    def pi_entries(self) -> dict[str, Expr]:
        """The real coefficients Pi^j_t, Pi^j_s1, Pi^j_s2 of the expansion
        d/du_j = Pi_t T + (Pi_s1 - i Pi_s2) S + (Pi_s1 + i Pi_s2) Sbar."""
        ctx = self.frame.ctx
        i = ctx.const(I)
        out = {}
        for j, (ct, cs, csb) in enumerate(self.rows, start=1):
            out[f"Pi{j}_t"] = ct
            out[f"Pi{j}_s1"] = (cs + csb) / 2
            out[f"Pi{j}_s2"] = i * (cs - csb) / 2
        return out


def invert_frame(f: Frame) -> InversionTable:
    """Exact solve expressing the coordinate fields d/du_j in (T, S, Sbar)."""
    ctx = f.ctx
    cols = (f.T, f.S, f.Sbar)
    m = [[w.coeffs[2 + r] for w in cols] for r in range(3)]
    rows = []
    for j in range(3):
        rhs = [ctx.one if r == j else ctx.zero for r in range(3)]
        rows.append(tuple(_solve3(m, rhs, "frame degenerate")))
    table = InversionTable(f, tuple(rows))
    for key, val in table.pi_entries().items():
        if not val.is_real:
            raise FrameError(f"inversion coefficient {key} is not real")
    return table


def decompose(table: InversionTable, X: VectorField) -> tuple[Expr, Expr, Expr]:
    """Write a purely u-directed field as alpha T + beta S + gamma Sbar."""
    ctx = table.frame.ctx
    if not (X.coeffs[0].is_zero and X.coeffs[1].is_zero):
        raise FrameError("frame inconsistency: field has d/dz components")
    alpha = beta = gamma = ctx.zero
    for j in range(3):
        cj = X.coeffs[2 + j]
        if cj.is_zero:
            continue
        ct, cs, csb = table.rows[j]
        alpha = alpha + cj * ct
        beta = beta + cj * cs
        gamma = gamma + cj * csb
    return alpha, beta, gamma


# ---------------------------------------------------------------------------
# structure functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StructureFunctions:
    """The bracket coefficients of the adapted frame.

    Fundamental:  [L,S] = P T + Q S + R Sbar,  [Lbar,S] = A T + B S + C Sbar.
    Derived:      [T,S] = E T + F S + G Sbar,  [S,Sbar] = iJ T + K S - Kbar Sbar.
    """

    frame: Frame
    table: InversionTable
    P: Expr
    Q: Expr
    R: Expr
    A: Expr
    B: Expr
    C: Expr
    E: Expr
    F: Expr
    G: Expr
    J: Expr
    K: Expr

    def fundamental(self) -> dict[str, Expr]:
        return {"P": self.P, "Q": self.Q, "R": self.R, "A": self.A, "B": self.B}

    def named(self) -> dict[str, Expr]:
        return {"P": self.P, "Q": self.Q, "R": self.R, "A": self.A, "B": self.B,
                "C": self.C, "E": self.E, "F": self.F, "G": self.G,
                "J": self.J, "K": self.K}


def structure_functions(f: Frame, table: InversionTable | None = None) -> StructureFunctions:
    """Decompose the seven non-defining brackets in the frame, exactly."""
    ctx = f.ctx
    i = ctx.const(I)
    table = table or invert_frame(f)
    P, Q, R = decompose(table, lie_bracket(f.L, f.S))
    A, B, C = decompose(table, lie_bracket(f.Lbar, f.S))
    if C != B.conj():
        raise FrameError("frame inconsistency: C != conj(B)")
    if not A.is_real:
        raise FrameError("frame inconsistency: A is not real")
    E, F, G = decompose(table, lie_bracket(f.T, f.S))
    aJ, K, mKbar = decompose(table, lie_bracket(f.S, f.Sbar))
    J = aJ / i
    if not J.is_real:
        raise FrameError("frame inconsistency: J is not real")
    if mKbar != -K.conj():
        raise FrameError("frame inconsistency in [S, Sbar]")
    return StructureFunctions(f, table, P, Q, R, A, B, C, E, F, G, J, K)


def efgjk_from_formulas(sf: StructureFunctions) -> dict[str, Expr]:
    """E, F, G, J, K recomputed from P, Q, R, A, B and their frame derivatives.

    Independent of the direct bracket decomposition; valid for the bracket
    scaling T = i[L, Lbar] (the s12 convention).
    """
    ctx = sf.frame.ctx
    i = ctx.const(I)
    L = lambda h: sf.frame.L.apply(h)
    Lb = lambda h: sf.frame.Lbar.apply(h)
    P, Q, R, A, B = sf.P, sf.Q, sf.R, sf.A, sf.B
    Pb, Qb, Rb, Bb = P.conj(), Q.conj(), R.conj(), B.conj()
    E = -i * Lb(P) - i * A * Q - i * Pb * R + i * L(A) + i * B * P + i * A * Bb
    F = -i * Lb(Q) - i * R * Rb + i * A + i * L(B) + i * B * Bb
    G = (-i * P - i * Bb * Q - i * R * Qb - i * Lb(R) + i * B * R
         + i * Bb * Bb + i * L(Bb))
    m2J = (-Lb(Lb(P)) + Lb(L(A)) + L(Lb(A)) - L(L(Pb))
           - Q * Lb(A) - 2 * A * Lb(Q) - R * Lb(Pb) - 2 * Pb * Lb(R)
           - 2 * A * R * Rb - 2 * P * Pb - Bb * Pb * Q - Pb * Qb * R
           - Rb * L(P) - 2 * P * L(Rb) - Qb * L(A) - 2 * A * L(Qb)
           - P * Q * Rb - B * P * Qb
           + 2 * P * Lb(B) + B * Lb(P) + 2 * A * Lb(Bb) + Bb * Lb(A)
           + 2 * A * L(B) + 2 * A * A + 2 * A * B * Bb + 2 * Pb * L(Bb)
           + B * Pb * R + Bb * Bb * Pb + B * L(A) + Bb * L(Pb)
           + B * B * P + Bb * P * Rb)
    J = m2J / (-2)
    i2K = (-Lb(Lb(Q)) + Lb(L(B)) + L(Lb(B)) - L(L(Rb))
           - 2 * Rb * Lb(R) - R * Lb(Rb) - B * Lb(Q) - B * R * Rb
           - 2 * P * Rb - Qb * R * Rb - 2 * L(Pb) - Rb * L(Q)
           - 2 * Q * L(Rb) - Qb * L(B) - 2 * B * L(Qb) - A * Qb
           - Pb * Q - Q * Q * Rb - B * Q * Qb
           + 2 * Lb(A) + Bb * Lb(B) + 2 * B * Lb(Bb) + 3 * B * L(B)
           + 3 * A * B + B * B * Q + 2 * B * B * Bb + 2 * Rb * L(Bb)
           + Bb * Bb * Rb + Bb * L(Rb) + Bb * Pb + Q * Lb(B))
    K = i2K / (2 * i)
    return {"E": E, "F": F, "G": G, "J": J, "K": K}


def jacobi_relations_check(sf: StructureFunctions, f: Frame | None = None) -> tuple[Expr, ...]:
    """The five length-six bracket identities, expanded on the given data.

    These must vanish identically for every valid frame (in the s12 scaling);
    a nonzero residual signals an arithmetic bug.
    """
    frame = f or sf.frame
    L = lambda h: frame.L.apply(h)
    Lb = lambda h: frame.Lbar.apply(h)
    P, Q, R, A, B = sf.P, sf.Q, sf.R, sf.A, sf.B
    Pb, Qb, Rb, Bb = P.conj(), Q.conj(), R.conj(), B.conj()

    r1 = (2 * L(Lb(P)) - L(L(A)) - Lb(L(P))
          - 2 * P * L(B) - B * L(P) - 2 * A * L(Bb) - Bb * L(A)
          + P * Lb(Q) + A * L(Q) + 2 * Q * L(A) - Q * Lb(P)
          + A * Lb(R) + 2 * R * L(Pb) + Pb * L(R) - R * Lb(A)
          - P * B * Bb - A * Bb ** 2 + P * B * Q + 2 * A * Q * Bb - A * Q ** 2
          - 2 * A * B * R + 2 * R * P * Rb + 2 * A * R * Qb
          - Q * R * Pb - R * Bb * Pb)

    r2 = (2 * L(Lb(Q)) - L(L(B)) - Lb(L(Q))
          - 2 * L(A) - 2 * B * L(Bb) - Bb * L(B)
          + B * Lb(R) + 2 * R * L(Rb) + Rb * L(R) - R * Lb(B) + Lb(P)
          + 2 * R * Pb + B * Q * Bb - A * Bb - B * Bb ** 2 + A * Q
          + Q * R * Rb + 2 * B * R * Qb - 2 * B ** 2 * R - R * Bb * Rb)

    r3 = (2 * L(Lb(R)) - L(L(Bb)) - Lb(L(R))
          - 3 * Bb * L(Bb) + Bb * L(Q) + 2 * Q * L(Bb) - 2 * R * L(B)
          - B * L(R) + R * Lb(Q) + Bb * Lb(R)
          + 2 * R * L(Qb) + Qb * L(R) - Q * Lb(R)
          - R * Lb(Bb) + L(P)
          + 2 * Q * Bb ** 2 - Q * P - Q ** 2 * Bb - Bb ** 3 + P * Bb
          - 2 * A * R - 3 * B * Bb * R + B * Q * R + 2 * R ** 2 * Rb
          + R * Bb * Qb - Q * R * Qb)

    r4 = (-3 * Lb(L(A)) - L(L(Pb)) + 3 * L(Lb(A)) + Lb(Lb(P))
          - 2 * A * L(Qb) - Qb * L(A) + 3 * B * L(A) + 3 * Bb * L(Pb)
          - 3 * B * Lb(P) - 3 * Bb * Lb(A) + 2 * A * Lb(Q)
          + Q * Lb(A) - 2 * P * L(Rb) - Rb * L(P)
          + 2 * Pb * Lb(R) + R * Lb(Pb)
          - B * P * Qb + 3 * B ** 2 * P + 2 * A * Bb * Qb - 2 * B * Q * A
          - 3 * Bb ** 2 * Pb + Q * Bb * Pb - P * Q * Rb + 3 * P * Bb * Rb
          - 3 * B * R * Pb + R * Pb * Qb)

    r5 = (-3 * Lb(L(B)) + 3 * L(Lb(B)) + Lb(Lb(Q)) - L(L(Rb))
          + 3 * B * L(B) - 3 * Bb * Lb(B) + Q * Lb(B) - B * Lb(Q)
          - 2 * Q * L(Rb) - Rb * L(Q)
          - 2 * B * L(Qb) - Qb * L(B) + 3 * Bb * L(Rb)
          + 2 * Rb * Lb(R) + R * Lb(Rb) - 2 * L(Pb)
          - Q * Pb - A * Qb - B * Q * Qb + 3 * A * B + 3 * Bb * Pb
          + 2 * B * Bb * Qb + B ** 2 * Q - Q ** 2 * Rb + 4 * Q * Bb * Rb
          - 3 * B * R * Rb - 3 * Bb ** 2 * Rb + R * Qb * Rb)

    return (r1, r2, r3, r4, r5)
