"""The equivalence method proper: lifted coframe, torsion, normalization.

A *stage* of the method is a 5x5 lower-triangular matrix F (over a
coefficient domain) expressing the lifted coframe through the base coframe,
theta = F theta0, whose entries depend on the still-free group parameters.
Differentiating,

    d theta_k = sum_p (dF/dp . F^-1)_km  dp ^ theta_m   (Maurer-Cartan part)
              + [base part, re-expressed through theta0 = F^-1 theta],

and the second piece is the torsion, a 2-form in the lifted coframe whose
coefficients are read off positionally into the named U/V/W families.  A
stage's structure is the torsion of sigma, rho and zeta alone: those are the
only rows the normalizations read, and d sigma_bar, d zeta_bar are their
conjugates.  The prolongation (case (viii)) forms the barred equations by
conjugation (`_conj_form`) and is the only place the Maurer-Cartan part is
computed.  Group parameters are eliminated by solving essential torsion
components to zero, exactly; each normalization feeds the next stage's matrix.

Two coefficient domains are used: plain Exprs (branch R = 0, parameters kept
symbolic) and the cubic extension by a formal pair (A0, A0b) subject to
A0^2 = R A0b and conjugates (branch R != 0, where the diagonal parameter is
normalized against a cube root that is not a rational function of the data).
An extension element (ExtElem) answers like an Expr: arithmetic, `is_zero`,
`conj()`, `diff(p)` for a group parameter, `subs(sub)` and `variables()`.  So
the stage code calls its coefficients' own methods and is written once; the
domain object supplies only `zero`, `one`, `ctx`, `lift` and `frame_apply`
(the frame-field derivation, which on the extension also differentiates A0).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .coframes import TwoForm, darboux_structure
from .exact import Context, ExactError, Expr, GaussRat, I
from .frames import (Frame, GraphingFunctions, StructureFunctions, build_frame,
                     cubic_model, structure_functions)
from .liealg import nullspace, rank

PARAMS = ("a", "ab", "b", "bb", "c", "cb", "d", "db", "e", "eb")

#: display order of the ten wedge pairs, as (name, (i, j)) with indices into
#: the basis (sigma_bar, sigma, rho, zeta_bar, zeta) = (0, 1, 2, 3, 4)
WEDGE_DISPLAY = (
    ("sigma^sigma_bar", (1, 0)),
    ("sigma^rho", (1, 2)),
    ("sigma^zeta", (1, 4)),
    ("sigma^zeta_bar", (1, 3)),
    ("sigma_bar^rho", (0, 2)),
    ("sigma_bar^zeta", (0, 4)),
    ("sigma_bar^zeta_bar", (0, 3)),
    ("rho^zeta", (2, 4)),
    ("rho^zeta_bar", (2, 3)),
    ("zeta^zeta_bar", (4, 3)),
)


class EquivalenceError(Exception):
    pass


# ---------------------------------------------------------------------------
# group elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupElement:
    """An element of the 10-real-dimensional ambiguity group."""

    a: object
    b: object
    c: object
    d: object
    e: object
    ab: object = None
    bb: object = None
    cb: object = None
    db: object = None
    eb: object = None

    def conj_entries(self):
        def cj(v, vb):
            return vb if vb is not None else v.conj()
        return (cj(self.a, self.ab), cj(self.b, self.bb), cj(self.c, self.cb),
                cj(self.d, self.db), cj(self.e, self.eb))

    def lift_matrix(self, zero):
        """Transposed shape acting on (sigma0_bar, sigma0, rho0, zeta0_bar, zeta0)."""
        a, b, c, d, e = self.a, self.b, self.c, self.d, self.e
        ab, bb, cb, db, eb = self.conj_entries()
        z = zero
        return [
            [a * ab * ab, z, z, z, z],
            [z, a * a * ab, z, z, z],
            [cb, c, a * ab, z, z],
            [eb, d, bb, ab, z],
            [db, e, b, z, a],
        ]


# ---------------------------------------------------------------------------
# coefficient domains
# ---------------------------------------------------------------------------

class ExprDomain:
    """Plain rational-function coefficients; frame fields act on base variables."""

    def __init__(self, frame: Frame):
        self.frame = frame
        self.ctx = frame.ctx
        self.zero = self.ctx.zero
        self.one = self.ctx.one
        self._fields = frame.in_frame_order()

    def lift(self, v):
        if isinstance(v, Expr):
            return v
        return self.ctx.const(v)

    def frame_apply(self, w: int, c):
        return self._fields[w].apply(c)


class ExtElem:
    """p + q A0 + r A0b in the cubic extension attached to an ExtDomain."""

    __slots__ = ("dom", "p", "q", "r")

    def __init__(self, dom, p, q, r):
        self.dom = dom
        self.p = p
        self.q = q
        self.r = r

    def _coerce(self, other):
        if isinstance(other, ExtElem):
            return other
        if isinstance(other, (Expr, int, GaussRat)):
            return self.dom.lift(other)
        return None

    @property
    def is_zero(self) -> bool:
        return self.p.is_zero and self.q.is_zero and self.r.is_zero

    def __add__(self, o):
        o = self._coerce(o)
        if o is None:
            return NotImplemented
        return ExtElem(self.dom, self.p + o.p, self.q + o.q, self.r + o.r)

    __radd__ = __add__

    def __neg__(self):
        return ExtElem(self.dom, -self.p, -self.q, -self.r)

    def __sub__(self, o):
        o = self._coerce(o)
        return NotImplemented if o is None else self + (-o)

    def __rsub__(self, o):
        return -(self - o)

    def __mul__(self, o):
        o = self._coerce(o)
        if o is None:
            return NotImplemented
        R, Rb, N = self.dom.R, self.dom.Rb, self.dom.N
        p1, q1, r1 = self.p, self.q, self.r
        p2, q2, r2 = o.p, o.q, o.r
        return ExtElem(
            self.dom,
            p1 * p2 + (q1 * r2 + r1 * q2) * N,
            p1 * q2 + q1 * p2 + r1 * r2 * Rb,
            p1 * r2 + r1 * p2 + q1 * q2 * R,
        )

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = self._coerce(o)
        return NotImplemented if o is None else self * o.inverse()

    def __rtruediv__(self, o):
        o = self._coerce(o)
        return NotImplemented if o is None else o / self

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.dom.one
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def inverse(self):
        """The first column of adj(m) / det(m), m = multiplication by self.

        m is the matrix of x -> self * x on the basis (1, A0, A0b), so the
        inverse solves m v = (1, 0, 0): v_k = C_0k / det with C_0k the
        cofactors of m's first row.  The three cofactors come first, then
        det = sum_k m_0k C_0k, one inversion of det, and three products.
        """
        dom = self.dom
        R, Rb, N = dom.R, dom.Rb, dom.N
        p, q, r = self.p, self.q, self.r
        m = [[p, r * N, q * N],
             [q, p, r * Rb],
             [r, q * R, p]]
        c0 = m[1][1] * m[2][2] - m[1][2] * m[2][1]
        c1 = -(m[1][0] * m[2][2] - m[1][2] * m[2][0])
        c2 = m[1][0] * m[2][1] - m[1][1] * m[2][0]
        det = m[0][0] * c0 + m[0][1] * c1 + m[0][2] * c2
        if det.is_zero:
            raise EquivalenceError("A0 elimination incomplete: "
                                   "non-invertible element of the extension")
        dinv = det.inverse()
        return ExtElem(dom, c0 * dinv, c1 * dinv, c2 * dinv)

    def __eq__(self, o):
        o = self._coerce(o)
        if o is None:
            return NotImplemented
        return self.p == o.p and self.q == o.q and self.r == o.r

    def __hash__(self):
        return hash((self.p, self.q, self.r))

    def conj(self):
        return ExtElem(self.dom, self.p.conj(), self.r.conj(), self.q.conj())

    def diff(self, name: str):
        """Derivative in a group parameter; A0 and A0b do not depend on one."""
        return ExtElem(self.dom, self.p.diff(name), self.q.diff(name), self.r.diff(name))

    def subs(self, assignment):
        """Substitute Exprs for group parameters, coordinate by coordinate."""
        return ExtElem(self.dom, self.p.subs(assignment), self.q.subs(assignment),
                       self.r.subs(assignment))

    def variables(self) -> set[str]:
        return self.p.variables() | self.q.variables() | self.r.variables()

    def __str__(self):
        parts = []
        if not self.p.is_zero:
            parts.append(f"({self.p})")
        if not self.q.is_zero:
            parts.append(f"({self.q})*A0")
        if not self.r.is_zero:
            parts.append(f"({self.r})*A0b")
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


class ExtDomain:
    """Coefficients p + q A0 + r A0b with A0^2 = R A0b, A0b^2 = Rb A0.

    Then A0 A0b = R Rb and A0^3 = R^2 Rb, so derivatives of A0 eliminate
    rationally:  X(A0) = (A0/3)(2 X(R)/R + X(Rb)/Rb)  for any derivation X.
    """

    def __init__(self, frame: Frame, R: Expr):
        if R.is_zero:
            raise EquivalenceError("extension domain needs R != 0")
        self.frame = frame
        self.ctx = frame.ctx
        self.R = R
        self.Rb = R.conj()
        self.N = R * self.Rb      # A0 A0b, read by every product and inverse
        self._fields = frame.in_frame_order()
        third = self.ctx.one / 3
        self._lam = []   # X_w(A0)/A0
        self._mu = []    # X_w(A0b)/A0b
        for X in self._fields:
            xr = X.apply(R)
            xrb = X.apply(self.Rb)
            self._lam.append(third * (2 * xr / R + xrb / self.Rb))
            self._mu.append(third * (2 * xrb / self.Rb + xr / R))
        self.zero = ExtElem(self, self.ctx.zero, self.ctx.zero, self.ctx.zero)
        self.one = ExtElem(self, self.ctx.one, self.ctx.zero, self.ctx.zero)
        self.A0 = ExtElem(self, self.ctx.zero, self.ctx.one, self.ctx.zero)
        self.A0b = ExtElem(self, self.ctx.zero, self.ctx.zero, self.ctx.one)

    def lift(self, v):
        if isinstance(v, ExtElem):
            return v
        e = v if isinstance(v, Expr) else self.ctx.const(v)
        return ExtElem(self, e, self.ctx.zero, self.ctx.zero)

    def frame_apply(self, w: int, c: ExtElem) -> ExtElem:
        X = self._fields[w]
        return ExtElem(self,
                       X.apply(c.p),
                       X.apply(c.q) + c.q * self._lam[w],
                       X.apply(c.r) + c.r * self._mu[w])


# ---------------------------------------------------------------------------
# stage machinery
# ---------------------------------------------------------------------------

@dataclass
class Stage:
    """One stage of the method: lifted coframe theta = F theta0."""

    dom: object
    F: list                    # 5x5 lower-triangular, domain coefficients
    base_d: list               # darboux 2-forms of theta0, domain-lifted

    @cached_property
    def Finv(self) -> list:
        """F^-1, computed once: the structure and the prolongation both read it."""
        return _lower_tri_inverse(self.dom, self.F)


def _lower_tri_inverse(dom, F):
    """F^-1 by forward substitution, column by column.

    Each pivot is inverted once, up front; every entry of column j is then
    (e_j - sum_k F_ik col_k) * F_ii^-1, a product and not a division.
    """
    n = 5
    dinv = [F[i][i].inverse() for i in range(n)]
    inv = [[dom.zero for _ in range(n)] for _ in range(n)]
    for j in range(n):
        col = [dom.zero] * n
        for i in range(j, n):
            rhs = dom.one if i == j else dom.zero
            for k in range(j, i):
                rhs = rhs - F[i][k] * col[k]
            col[i] = rhs * dinv[i]
        for i in range(n):
            inv[i][j] = col[i]
    return inv


def stage_structure(stage: Stage) -> dict[int, TwoForm]:
    """The torsion of d sigma, d rho and d zeta, keyed by coframe index.

    d sigma_bar and d zeta_bar are their conjugates (`_conj_form`); only the
    prolongation needs them, and it also forms the Maurer-Cartan part.
    """
    return {k: _torsion_row(stage, stage.Finv, k) for k in (1, 2, 4)}


def _torsion_row(stage: Stage, Finv, k: int) -> TwoForm:
    """sum_l [ (d_base F_kl) ^ theta0_l + F_kl d theta0_l ] on the lifted basis.

    The sum is collected over the base coframe first, as sum_{i<j} c_ij
    theta0_i ^ theta0_j.  With theta0_i = sum_m Finv_im theta_m, it is then
    summed before it is multiplied: V_j[m] = sum_i c_ij Finv_im, the
    coefficient of theta_m ^ theta0_j, takes one product per (i, j, m), and
    V_j[m] Finv_jm2 goes into theta_m ^ theta_m2, one product per (j, m, m2).
    """
    dom = stage.dom
    tf0 = TwoForm()   # over the *base* coframe indices
    for l in range(5):
        fkl = stage.F[k][l]
        if not fkl.is_zero:
            for w in range(5):
                dw = dom.frame_apply(w, fkl)
                if not dw.is_zero:
                    tf0.add_term(w, l, dw)
            for (i, j), c in stage.base_d[l].coeffs.items():
                tf0.add_term(i, j, fkl * c)
    # V_j[m]: the coefficient of theta_m ^ theta0_j
    V = {}
    for (i, j), c in tf0.coeffs.items():
        vj = V.setdefault(j, [dom.zero] * 5)
        for m in range(5):
            fim = Finv[i][m]
            if not fim.is_zero:
                vj[m] = vj[m] + c * fim
    # convert theta_m ^ theta0_j to the lifted basis
    tf = TwoForm()
    for j, vj in V.items():
        for m in range(5):
            if vj[m].is_zero:
                continue
            for m2 in range(5):
                if m2 == m:
                    continue
                fjm2 = Finv[j][m2]
                if not fjm2.is_zero:
                    tf.add_term(m, m2, vj[m] * fjm2)
    return tf


# conjugation pairing of the 7-element prolonged basis
# (sigma_bar, sigma, rho, zeta_bar, zeta, beta_bar, beta)
_CONJ_POS = {0: 1, 1: 0, 2: 2, 3: 4, 4: 3, 5: 6, 6: 5}
BETA_BAR, BETA = 5, 6


def _conj_form(tf: TwoForm) -> TwoForm:
    """The conjugate 2-form: conjugated coefficients on the paired basis."""
    out = TwoForm()
    for (i, j), c in tf.coeffs.items():
        out.add_term(_CONJ_POS[i], _CONJ_POS[j], c.conj())
    return out


# ---------------------------------------------------------------------------
# named torsion sets
# ---------------------------------------------------------------------------

@dataclass
class TorsionSet:
    """Named torsion coefficients of one loop and the stage they were read from."""

    loop: str
    values: dict
    stage: Stage

    @property
    def dom(self):
        return self.stage.dom

    def __getitem__(self, name: str):
        return self.values[name]

    def names(self):
        return sorted(self.values)


def _positional(tf: TwoForm, zero):
    return {name: tf.get(i, j, zero) for name, (i, j) in WEDGE_DISPLAY}


def extract_torsion(struct: dict[int, TwoForm], stage: Stage, loop: str) -> TorsionSet:
    """Read the named coefficients off d sigma, d rho, d zeta.

    The fixed entries of the structure equations (the rho^zeta term of
    d sigma, the i zeta^zeta_bar term of d rho) are asserted exactly; the
    conjugate-pair symmetries of d rho are likewise verified.
    """
    dom = stage.dom
    zero = dom.zero
    ds = _positional(struct[1], zero)
    dr = _positional(struct[2], zero)
    dz = _positional(struct[4], zero)
    vals = {}
    unames = ("U1", "U2", "U3", "U4", "U5", "U6", "U7")
    for nm, (pos, _) in zip(unames, WEDGE_DISPLAY):
        vals[nm] = ds[pos]
    if not (ds["rho^zeta"] - dom.one).is_zero:
        raise EquivalenceError(f"{loop}: d sigma lacks its unit rho^zeta term")
    if not (ds["rho^zeta_bar"].is_zero and ds["zeta^zeta_bar"].is_zero):
        raise EquivalenceError(f"{loop}: unexpected torsion shape in d sigma")
    vals["V1"] = dr["sigma^sigma_bar"]
    vals["V2"] = dr["sigma^rho"]
    vals["V3"] = dr["sigma^zeta"]
    vals["V4"] = dr["sigma^zeta_bar"]
    vals["V8"] = dr["rho^zeta"]
    pairs = [("sigma_bar^rho", "V2"), ("sigma_bar^zeta", "V4"),
             ("sigma_bar^zeta_bar", "V3"), ("rho^zeta_bar", "V8")]
    for pos, nm in pairs:
        if not (dr[pos] - vals[nm].conj()).is_zero:
            raise EquivalenceError(f"{loop}: d rho breaks the {nm} conjugate pairing")
    i_unit = dom.lift(I)
    if not (dr["zeta^zeta_bar"] - i_unit).is_zero:
        raise EquivalenceError(f"{loop}: d rho lacks its i zeta^zeta_bar term")
    wnames = ("W1", "W2", "W3", "W4", "W5", "W6", "W7", "W8", "W9", "W10")
    for nm, (pos, _) in zip(wnames, WEDGE_DISPLAY):
        vals[nm] = dz[pos]
    return TorsionSet(loop, vals, stage)


# ---------------------------------------------------------------------------
# linear parameter solving
# ---------------------------------------------------------------------------

def solve_linear_param(dom, value, name: str):
    """Solve value == 0 for the parameter `name` (value affine in it)."""
    const = value.subs({name: dom.ctx.zero})
    slope = value.diff(name)
    if slope.is_zero:
        raise EquivalenceError(f"cannot normalize {name}: coefficient vanishes")
    if not slope.diff(name).is_zero:
        raise EquivalenceError(f"{name} does not occur linearly")
    return (-const) / slope


# ---------------------------------------------------------------------------
# geometry bundle
# ---------------------------------------------------------------------------

@dataclass
class Geometry:
    """Everything the stages need about the underlying manifold."""

    frame: Frame
    sf: StructureFunctions
    base_d: list   # darboux 2-forms of the base coframe (Expr coefficients)

    @classmethod
    def build(cls, g: GraphingFunctions) -> "Geometry":
        frame = build_frame(g, "s12")
        sf = structure_functions(frame)
        return cls(frame, sf, darboux_structure(frame, sf))


def _lift_base_d(dom, base_d):
    return [d.map(dom.lift) for d in base_d]


def initial_stage(geom: Geometry) -> Stage:
    """The full 10-parameter lifted coframe."""
    dom = ExprDomain(geom.frame)
    ctx = dom.ctx
    ge = GroupElement(*[ctx.var(p) for p in ("a", "b", "c", "d", "e")],
                      *[ctx.var(p) for p in ("ab", "bb", "cb", "db", "eb")])
    return Stage(dom, ge.lift_matrix(ctx.zero), _lift_base_d(dom, geom.base_d))


def initial_torsion(geom: Geometry) -> TorsionSet:
    """The 22 named coefficients of the first loop."""
    stage = initial_stage(geom)
    return extract_torsion(stage_structure(stage), stage, "initial")


# ---------------------------------------------------------------------------
# first loop
# ---------------------------------------------------------------------------

def first_loop(ts: TorsionSet) -> dict:
    """Normalize the parameters c, b, d; return their values.

    The three normalizable combinations U6, U3 + conj(U4) - 3 V8, U5 are set
    to zero and solved, in that order, for cb, bb, db; conjugation supplies
    c, b, d.  The solved values depend on a, ab and the base point only.
    """
    dom = ts.dom
    sub = {}
    cb = solve_linear_param(dom, ts["U6"], "cb")
    sub["cb"] = cb
    sub["c"] = cb.conj()
    combo = ts["U3"] + ts["U4"].conj() - 3 * ts["V8"]
    combo = combo.subs(sub)
    bb = solve_linear_param(dom, combo, "bb")
    sub["bb"] = bb
    sub["b"] = bb.conj()
    u5 = ts["U5"].subs(sub)
    db = solve_linear_param(dom, u5, "db")
    sub["db"] = db
    sub["d"] = db.conj()
    return sub


# ---------------------------------------------------------------------------
# invariant report
# ---------------------------------------------------------------------------

@dataclass
class InvariantReport:
    branch: str
    case: str | None
    invariants: dict
    verdict: str
    lemma_checks: list = field(default_factory=list)
    normalizations: dict = field(default_factory=dict)
    torsions: dict = field(default_factory=dict)
    # case (viii): d theta_0..d theta_4, d beta_bar, d beta over the
    # 7-element prolonged basis
    structure_equations: list = field(default_factory=list)

    def check(self, name: str, ok: bool) -> None:
        self.lemma_checks.append((name, bool(ok)))
        if not ok:
            raise EquivalenceError(f"lemma check failed: {name}")


def _subs_matrix(dom, F, sub):
    return [[v.subs(sub) for v in row] for row in F]


def _param_free(value, where: str):
    bad = value.variables().intersection(PARAMS)
    if bad:
        raise EquivalenceError(f"{where}: unexpected parameter dependence {sorted(bad)}")
    return value


# ---------------------------------------------------------------------------
# branch R = 0
# ---------------------------------------------------------------------------

def branch_R0(ts: TorsionSet, geom: Geometry) -> InvariantReport:
    """Loops two and three and, if required, the prolongation."""
    sf = geom.sf
    if not sf.R.is_zero:
        raise EquivalenceError("branch_R0 called with R != 0")
    frame = geom.frame
    dom = ts.dom
    ctx = dom.ctx
    rep = InvariantReport("R_zero", None, {}, "not equivalent to cubic model")
    rep.torsions["initial"] = ts.values

    sub_bcd = first_loop(ts)
    rep.normalizations.update(sub_bcd)

    stage1 = ts.stage
    F2 = _subs_matrix(dom, stage1.F, sub_bcd)
    stage2 = Stage(dom, F2, stage1.base_d)
    ts2 = extract_torsion(stage_structure(stage2), stage2, "prime")
    rep.torsions["prime"] = ts2.values
    rep.check("U5' == 0", ts2["U5"].is_zero)
    rep.check("U6' == 0", ts2["U6"].is_zero)
    rep.check("U7' == 0", ts2["U7"].is_zero)
    rep.check("V3' == 0", ts2["V3"].is_zero)

    e_val = solve_linear_param(dom, ts2["V4"], "e")
    sub_e = {"e": e_val, "eb": e_val.conj()}
    rep.normalizations.update(sub_e)

    F3 = _subs_matrix(dom, F2, sub_e)
    stage3 = Stage(dom, F3, stage1.base_d)
    struct3 = stage_structure(stage3)
    ts3 = extract_torsion(struct3, stage3, "doubleprime")
    rep.torsions["doubleprime"] = ts3.values

    rep.check("V4'' == 0", ts3["V4"].is_zero)
    rep.check("W7'' == 0", ts3["W7"].is_zero)
    x2 = ts3["U1"].conj() + ts3["V2"] + ts3["W6"].conj()
    rep.check("X2'' == 0", x2.is_zero)
    rep.check("W5'-relation V8'' = (U3''+conj U4'')/3",
              (ts3["V8"] - (ts3["U3"] + ts3["U4"].conj()) / 3).is_zero)
    rep.check("W10'' = (2 U4'' - conj U3'')/3",
              (ts3["W10"] - (2 * ts3["U4"] - ts3["U3"].conj()) / 3).is_zero)

    v1 = ts3["V1"]
    w5 = ts3["W5"]
    w9 = ts3["W9"]
    x1 = ts3["U2"] + 2 * ts3["W8"] + ts3["W8"].conj()
    rep.invariants.update({"V1''": v1, "W5''": w5, "W9''": w9, "X1''": x1})

    a, ab = ctx.var("a"), ctx.var("ab")
    i = ctx.const(I)

    # syzygy expressing W4 through W9, X1 and their first frame derivatives
    B, Q = sf.B, sf.Q
    Bb, Qb = B.conj(), Q.conj()
    L = lambda h: frame.L.apply(h)
    Lb = lambda h: frame.Lbar.apply(h)
    syz = (-(6 * Bb - 2 * Q) / (5 * a) * w9 + Qb / (5 * ab) * x1
           + 3 / (5 * a) * L(w9) - 3 / (5 * ab) * Lb(x1))
    rep.check("W4''' syzygy in W9''', X1''' and derivatives",
              (ts3["W4"] - syz).is_zero)
    if not x1.is_zero:
        rep.case = "(i)"
        rep.check("X1'' purely imaginary", (x1.conj() + x1).is_zero)
        xi = _param_free(x1 * a * ab, "X1'' scale")
        rep.normalizations["a*ab"] = 9 * i * xi      # X1'' := -i/9
        return rep
    if not w9.is_zero:
        rep.case = "(ii)"
        w = _param_free(w9 * ab ** 2, "W9'' scale")
        rep.normalizations["ab^2"] = -9 * i * w      # W9'' := i/9
        rep.invariants = {"W5''": w5, "V1''": v1}
        return rep
    if not w5.is_zero:
        rep.case = "(iii)"
        v = _param_free(w5 * a * ab ** 3, "W5'' scale")
        rep.normalizations["a*ab^3"] = 3 * v         # W5'' := 1/3
        rep.invariants = {"V1''": v1}
        return rep
    if not v1.is_zero:
        rep.case = "(iv)"
        rep.check("V1'' purely imaginary", (v1.conj() + v1).is_zero)
        v = _param_free(v1 * a ** 2 * ab ** 2, "V1'' scale")
        rep.normalizations["(a*ab)^2"] = 3 * i * v   # V1'' := -i/3
        rep.invariants = {}
        return rep

    # third loop: same structure equations, new essential combinations
    rep.case = "(v)"
    w1 = ts3["W1"]
    w2 = ts3["W2"]
    w4 = ts3["W4"]
    y3 = ts3["V2"] - ts3["W3"] - ts3["W6"].conj()
    rep.check("Y''' == 0", y3.is_zero)
    rep.check("W4''' == 0 (syzygy)", w4.is_zero)
    rep.invariants.update({"W1'''": w1, "W2'''": w2})

    if not w2.is_zero:
        rep.case = "(vi)"
        v = _param_free(w2 * a ** 2 * ab ** 2, "W2''' scale")
        rep.normalizations["(a*ab)^2"] = v           # W2''' := 1
        rep.invariants = {"W1'''": w1}
        return rep
    if not w1.is_zero:
        rep.case = "(vii)"
        v = _param_free(w1 * a ** 2 * ab ** 3, "W1''' scale")
        rep.normalizations["a^2*ab^3"] = v           # W1''' := 1
        rep.invariants = {}
        return rep

    rep.case = "(viii)"
    tees = _prolongation(stage3, struct3, ts3, rep)
    rep.invariants.update(tees)
    if all(t.is_zero for t in tees.values()):
        rep.verdict = "equivalent to cubic model"
    return rep


def _absorption(t) -> dict:
    """Coefficients cbeta[m] of theta_m in beta = da/a + sum_m cbeta[m] theta_m.

    `t` maps the stage-3 torsion names to their values.
    """
    return {1: t["W3"], 0: t["W6"], 2: t["W8"],
            4: t["W10"].conj() - t["V8"], 3: -t["W10"]}


def _prolongation(stage3: Stage, struct3: dict[int, TwoForm], ts3: TorsionSet,
                  rep: InvariantReport) -> dict:
    """Absorb the leftover torsion into beta and differentiate it.

    beta = da/a + W3 sigma + W6 sigma_bar + W8 rho + (conj W10 - V8) zeta
           - W10 zeta_bar; its exterior derivative must reduce to the four
    wedge terms sigma^zeta, sigma_bar^zeta, rho^zeta, zeta^zeta_bar whose
    coefficients are the essential invariants of the prolonged problem.
    The seven prolonged structure equations are kept on the report.
    """
    dom = stage3.dom
    ctx = dom.ctx
    a, ab = ctx.var("a"), ctx.var("ab")
    cbeta = _absorption(ts3)
    cbeta_bar = {_CONJ_POS[m]: v.conj() for m, v in cbeta.items()}
    # dp = p (beta_p - sum_q cof_p[q] theta_q) for the two remaining parameters
    dps = {"a": (a, BETA, cbeta), "ab": (ab, BETA_BAR, cbeta_bar)}

    def add_dp(tf: TwoForm, p: str, m: int, coeff):
        # coeff dp ^ theta_m
        par, bidx, cof = dps[p]
        c = coeff * par
        tf.add_term(bidx, m, c)
        for q, cq in cof.items():
            tf.add_term(q, m, -(c * cq))

    # structure equations of the five lifted forms over the 7-element basis:
    # torsion plus the Maurer-Cartan part sum_l dF_kl/dp Finv_lm dp ^ theta_m;
    # those of sigma_bar and zeta_bar are the conjugates of those of sigma, zeta
    F, Finv = stage3.F, stage3.Finv
    dtheta = [None] * 5
    for k, torsion in struct3.items():
        tf = TwoForm(torsion.coeffs)
        for p in dps:
            row = [dom.zero] * 5
            for l in range(5):
                dkl = F[k][l].diff(p)
                if dkl.is_zero:
                    continue
                for m in range(5):
                    if not Finv[l][m].is_zero:
                        row[m] = row[m] + dkl * Finv[l][m]
            for m, coeff in enumerate(row):
                if not coeff.is_zero:
                    add_dp(tf, p, m, coeff)
        dtheta[k] = tf
    dtheta[0] = _conj_form(dtheta[1])
    dtheta[3] = _conj_form(dtheta[4])

    dbeta = TwoForm()
    for q, coeff in cbeta.items():
        if coeff.is_zero:
            continue
        # d(coeff) ^ theta_q
        for p in dps:
            dc = coeff.diff(p)
            if not dc.is_zero:
                add_dp(dbeta, p, q, dc)
        for w in range(5):
            dw = dom.frame_apply(w, coeff)
            if dw.is_zero:
                continue
            for m in range(5):
                fw = Finv[w][m]
                if not fw.is_zero:
                    dbeta.add_term(m, q, dw * fw)
        # + coeff * d theta_q
        for (i2, j2), c2 in dtheta[q].coeffs.items():
            dbeta.add_term(i2, j2, coeff * c2)

    allowed = {(1, 4), (0, 4), (2, 4), (3, 4)}
    rep.check("d beta has only the four admissible wedge terms",
              set(dbeta.coeffs) <= allowed)
    rep.structure_equations = dtheta + [_conj_form(dbeta), dbeta]
    zero = dom.zero
    return {
        "T1": dbeta.get(1, 4, zero),
        "T2": dbeta.get(0, 4, zero),
        "T3": dbeta.get(2, 4, zero),
        "T4": dbeta.get(4, 3, zero),
    }


# ---------------------------------------------------------------------------
# branch R != 0
# ---------------------------------------------------------------------------

def branch_Rneq0(ts: TorsionSet, geom: Geometry) -> InvariantReport:
    """Normalize a against the cube-root symbol A0 and produce the twelve
    essential invariants of the final {e}-structure."""
    sf = geom.sf
    if sf.R.is_zero:
        raise EquivalenceError("branch_Rneq0 needs R != 0")
    rep = InvariantReport("R_nonzero", None, {}, "not equivalent to cubic model")
    rep.torsions["initial"] = ts.values

    sub_bcd = first_loop(ts)
    edom = ExtDomain(geom.frame, sf.R)
    ctx = edom.ctx

    # a := A0 with A0^2/A0b = R;  U7 = (a/ab^2) conj(R) becomes 1
    stage1 = ts.stage
    F2 = [[_ext_subs_a(edom, v) for v in row]
          for row in _subs_matrix(stage1.dom, stage1.F, sub_bcd)]
    base_d = _lift_base_d(edom, geom.base_d)
    stage2 = Stage(edom, F2, base_d)
    ts2 = extract_torsion(stage_structure(stage2), stage2, "new")
    rep.torsions["new"] = ts2.values

    u7 = ts2["U7"]
    rep.check("U7^new == 1 after a := A0", (u7 - edom.one).is_zero)

    e_val = solve_linear_param(edom, ts2["V4"], "e")
    rep.normalizations["e"] = e_val
    F3 = [[v.subs({"e": ctx.zero, "eb": ctx.zero})
           + v.diff("e") * e_val
           + v.diff("eb") * e_val.conj()
           for v in row] for row in F2]
    stage3 = Stage(edom, F3, base_d)
    ts3 = extract_torsion(stage_structure(stage3), stage3, "final")
    rep.torsions["final"] = ts3.values

    rep.check("V4^new == 0", ts3["V4"].is_zero)
    rep.check("U3^new = 2 conj(U4^new) - 3 conj(W10^new)",
              (ts3["U3"] - (2 * ts3["U4"].conj() - 3 * ts3["W10"].conj())).is_zero)
    rep.check("V8^new = conj(U4^new) - conj(W10^new)",
              (ts3["V8"] - (ts3["U4"].conj() - ts3["W10"].conj())).is_zero)
    names = ("U1", "U2", "U4", "V1", "V2", "V3",
             "W5", "W6", "W7", "W8", "W9", "W10")
    rep.invariants = {f"{n}^new": ts3[n] for n in names}
    rep.case = "twelve-invariant e-structure"
    return rep


def _ext_subs_a(edom: ExtDomain, v: Expr):
    """Substitute a -> A0, ab -> A0b into an Expr, landing in the extension.

    v is a finite Laurent form in a, ab: its numerator is polynomial in them
    and its denominator atoms are the single-variable atoms a, ab (which is
    what this pipeline always produces).
    """
    try:
        den_a, den_ab, terms = v.laurent_terms("a", "ab")
    except ExactError:
        raise EquivalenceError("a-substitution hit a mixed denominator") from None
    A0, A0b = edom.A0, edom.A0b
    out = edom.zero
    for pa, pab, rest in terms:
        term = edom.lift(rest)
        if pa:
            term = term * A0 ** pa
        if pab:
            term = term * A0b ** pab
        out = out + term
    if den_a:
        out = out * A0.inverse() ** den_a
    if den_ab:
        out = out * A0b.inverse() ** den_ab
    return out


# ---------------------------------------------------------------------------
# one run of the method
# ---------------------------------------------------------------------------

def run_method(geom: Geometry) -> InvariantReport:
    """The first-loop torsion, then the branch chosen by whether R vanishes."""
    ts = initial_torsion(geom)
    if geom.sf.R.is_zero:
        return branch_R0(ts, geom)
    return branch_Rneq0(ts, geom)


def cubic_structure_constants(dtheta7: list[TwoForm]) -> list:
    """Structure constants of the rank-zero prolonged coframe.

    Basis order (v_sigma, v_sigma_bar, v_rho, v_zeta, v_zeta_bar, v_alpha,
    v_alpha_bar); the constants are the negatives of the constant wedge
    coefficients of the displayed structure equations.
    """
    order = [1, 0, 2, 4, 3, 6, 5]
    n = 7
    c = [[[GaussRat(0)] * n for _ in range(n)] for _ in range(n)]
    for kpos, k in enumerate(order):
        tf = dtheta7[k]
        for (i, j), coeff in tf.coeffs.items():
            const = _constant_of(coeff)
            ip, jp = order.index(i), order.index(j)
            c[ip][jp][kpos] = -const
            c[jp][ip][kpos] = const
    return c


def _constant_of(coeff) -> GaussRat:
    e = coeff if isinstance(coeff, Expr) else None
    if e is None:
        raise EquivalenceError("non-rational coefficient in rank-zero coframe")
    if not e.is_polynomial or e.variables():
        raise EquivalenceError(f"structure coefficient not constant: {e}")
    return e.evaluate({})


def run_model_pipeline():
    """The whole method on the cubic model, ending in the {e}-structure.

    Returns (report, structure constants of the 7-dimensional algebra carried
    by the final coframe, the seven prolonged structure equations).
    """
    rep = run_method(Geometry.build(cubic_model()))
    if rep.case != "(viii)":
        raise EquivalenceError("model pipeline did not reach the prolongation")
    if not all(v.is_zero for v in _absorption(rep.torsions["doubleprime"]).values()):
        raise EquivalenceError("model absorption coefficients should vanish")
    dtheta7 = rep.structure_equations
    return rep, cubic_structure_constants(dtheta7), dtheta7


def model_involutivity_data() -> dict:
    """Static non-involutivity check for the model's reduced lifted coframe.

    Computes the first reduced character s1' (generic rank of the I(v)
    matrix of the alpha-coefficients in the reduced structure equations) and
    the degree of indeterminacy (free variables of the absorption system).
    For the model these are 2 and 0, so prolongation is forced.
    """
    ctx = Context((("vs", "vsb"), ("vr", "vr"), ("vz", "vzb")))
    vs, vsb, vr, vz, vzb = (ctx.var(n) for n in ("vs", "vsb", "vr", "vz", "vzb"))
    rows = [[2 * vs, vs], [vsb, 2 * vsb], [vr, vr], [vz, ctx.zero],
            [ctx.zero, vzb]]
    # generic rank over the rational function field
    s1_prime = rank(rows)
    # absorption system of the prolonged model: unknowns p, q, r, s, t and
    # conjugates must annihilate every torsion slot; with all structure
    # functions zero the equations below force them all to vanish
    names = ("p", "q", "r", "s", "t", "pb", "qb", "rb", "sb", "tb")
    idx = {n: k for k, n in enumerate(names)}
    eqs = [
        {"pb": -1, "q": -2}, {"r": -2, "rb": -1}, {"s": -2, "tb": -1},
        {"t": -2, "sb": -1},                       # d sigma slots
        {"p": 1, "qb": 1}, {"s": -1, "tb": -1},    # d rho slots
        {"p": 1}, {"q": 1}, {"r": 1}, {"t": -1},   # d zeta slots
    ]
    eqs = eqs + [{_conj_name(n): v for n, v in eq.items()} for eq in eqs]
    rows2 = []
    for eq in eqs:
        row = [GaussRat(0)] * len(names)
        for n, v in eq.items():
            row[idx[n]] = GaussRat(v)
        rows2.append(row)
    free = len(nullspace(rows2, len(names)))
    return {"s1_prime": s1_prime, "degree_of_indeterminacy": free}


def _conj_name(n: str) -> str:
    return n[:-1] if n.endswith("b") else n + "b"
