"""Exact arithmetic: multivariate polynomials and rational functions over Q(i).

Everything downstream (frames, coframes, the normalization loops) runs on the
`Expr` type defined here: an exact rational function in a fixed alphabet of
variables, with a conjugation that fixes the real base coordinates and swaps
paired variables (a <-> ab, A0 <-> A0b, ...).  No floating point is used
anywhere; zero tests are exact, which is what drives the branching logic of
the equivalence method.

Denominators are kept in *factored* form.  Every division registers the
divisor's numerator as a monic "atom" in the owning Context, and fractions
are reduced by repeated exact division against those atoms.  In this problem
all denominators are products of powers of a handful of determinant
polynomials (plus monomials in the group parameters), so trial division
recovers the reduced fraction without ever running a multivariate gcd over
Q(i), which is prohibitively slow.

Each Context caches work whose inputs never change once an atom is
registered, so the normalization chain does not redo it:
  * `_expand(den)`: the product prod(atom^e) per denominator tuple;
  * `_atom_deriv(aid, k)`: the derivative of an atom in variable k;
  * `_conj_scale(aid)`: the scalar s with conj(atom) = s * conjugate atom;
  * `const(value)`: the constant Expr per value.
The keys are atom ids, denominator tuples or constant values, and atoms are
never changed after registration, so an entry stays valid for the life of
its Context (and is meaningless in any other: each Context owns its caches).
Cached ring elements are never mutated in place; every operation builds a
new element.  Results are identical to recomputing, term order included.

This is the only module that knows the underlying ring (sympy's sparse
polynomials over QQ_I).  Other modules work through `Expr`'s methods
(arithmetic, `is_zero`, `conj`, `diff`, `subs`, `evaluate`, `variables`,
`laurent_terms`) and read monomials and coefficients through
`numerator().terms()`; a change of kernel only has to change this file.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from sympy.polys.domains import QQ_I
from sympy.polys.orderings import grlex
from sympy.polys.rings import ring as _sympy_ring


class ExactError(Exception):
    pass


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------

class GaussRat:
    """An exact Gaussian rational re + im*i with Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, *a):
        raise AttributeError("GaussRat is immutable")

    @classmethod
    def _make(cls, re: Fraction, im: Fraction) -> "GaussRat":
        g = object.__new__(cls)
        object.__setattr__(g, "re", re)
        object.__setattr__(g, "im", im)
        return g

    def conj(self) -> "GaussRat":
        return GaussRat._make(self.re, -self.im)

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    @property
    def is_real(self) -> bool:
        return not self.im

    def _coerce(self, other):
        if isinstance(other, GaussRat):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussRat(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return GaussRat._make(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussRat._make(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return GaussRat._make(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return GaussRat._make(self.re * o.re - self.im * o.im,
                              self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        n = o.re * o.re + o.im * o.im
        if not n:
            raise ZeroDivisionError("division by zero GaussRat")
        return self * GaussRat._make(o.re / n, -o.im / n)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return (GaussRat(1) / self) ** (-k)
        out = GaussRat(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussRat({self.re!r}, {self.im!r})"

    def __str__(self):
        return _render_coeff(self, bare=True)

    def _to_domain(self):
        return QQ_I.new(self.re, self.im)

    @classmethod
    def _from_domain(cls, c) -> "GaussRat":
        return cls._make(Fraction(c.x.numerator, c.x.denominator),
                         Fraction(c.y.numerator, c.y.denominator))


I = GaussRat(0, 1)

_ONE = QQ_I.one
_ZERO = QQ_I.zero


def _dom_conj(c):
    return QQ_I.new(c.x, -c.y)


# ---------------------------------------------------------------------------
# Variable context
# ---------------------------------------------------------------------------

#: standard alphabet: base coordinates, ambiguity-group parameters, and the
#: formal cube-root symbols used by the R != 0 branch.
STANDARD_PAIRS = (
    ("x", "x"), ("y", "y"), ("u1", "u1"), ("u2", "u2"), ("u3", "u3"),
    ("a", "ab"), ("b", "bb"), ("c", "cb"), ("d", "db"), ("e", "eb"),
    ("A0", "A0b"),
)


class Context:
    """A fixed ordered alphabet with conjugation pairing and an atom registry.

    The alphabet is immutable after construction; the registry of denominator
    atoms grows as divisions occur.  All Exprs belonging to one context share
    the same underlying sympy ring (graded-lex order over QQ_I).
    """

    def __init__(self, pairs: Iterable[tuple[str, str]] = STANDARD_PAIRS):
        names: list[str] = []
        conj_name: dict[str, str] = {}
        for n, cn in pairs:
            if n in conj_name or cn in conj_name:
                raise ExactError(f"duplicate variable in alphabet: {n}, {cn}")
            names.append(n)
            conj_name[n] = cn
            if cn != n:
                names.append(cn)
                conj_name[cn] = n
        self.names: tuple[str, ...] = tuple(names)
        self._index = {n: k for k, n in enumerate(names)}
        self._conj_perm = tuple(self._index[conj_name[n]] for n in names)
        objs = _sympy_ring(",".join(names), QQ_I, order=grlex)
        self._ring = objs[0]
        self._gens = objs[1:]
        # registry of monic denominator atoms; ids are stable forever
        self._atoms: list = []
        self._conj_atom: dict[int, int] = {}
        # caches of results that never change once an atom is registered
        self._expanded: dict[tuple, object] = {}             # den -> product
        self._atom_derivs: dict[tuple[int, int], object] = {}  # (aid, var)
        self._conj_scales: dict[int, object] = {}            # aid -> scalar
        self._consts: dict[object, Expr] = {}                # value -> Expr
        self.zero = Expr(self, self._ring.zero, ())
        self.one = Expr(self, self._ring.one, ())

    # -- variables ---------------------------------------------------------

    def var(self, name: str) -> "Expr":
        try:
            k = self._index[name]
        except KeyError:
            raise ExactError(f"unknown variable {name!r}") from None
        return Expr(self, self._gens[k], ())

    def vars(self, *names: str) -> list["Expr"]:
        return [self.var(n) for n in names]

    def has_var(self, name: str) -> bool:
        return name in self._index

    def conj_name(self, name: str) -> str:
        return self.names[self._conj_perm[self._index[name]]]

    def const(self, value) -> "Expr":
        e = self._consts.get(value)
        if e is None:
            g = value if isinstance(value, GaussRat) else GaussRat(value)
            e = Expr(self, self._ring.ground_new(g._to_domain()), ())
            self._consts[value] = e
        return e

    # -- raw polynomial helpers --------------------------------------------

    def _conj_poly(self, p):
        perm = self._conj_perm
        out = {}
        for monom, coeff in p.iterterms():
            m2 = [0] * len(monom)
            for k, e in enumerate(monom):
                if e:
                    m2[perm[k]] = e
            out[tuple(m2)] = _dom_conj(coeff)
        return self._ring.from_dict(out)

    def _exact_div(self, f, g):
        """f // g when the division is exact, else None (fast early abort)."""
        r = self._ring
        if not g:
            raise ZeroDivisionError("polynomial division by zero")
        if not f:
            return r.zero
        lm_g = g.leading_expv()
        lc_g = g[lm_g]
        mdiv = r.monomial_div
        quo = {}
        rem = f
        while rem:
            lm_r = rem.leading_expv()
            m = mdiv(lm_r, lm_g)
            if m is None:
                return None
            c = rem[lm_r] / lc_g
            quo[m] = c
            rem = rem - g.mul_term((m, c))
        return r.from_dict(quo)

    def _register(self, p):
        """Split the nonzero polynomial p as scalar * prod(atom^e).

        Existing atoms are divided out first; any nonconstant residual is
        appended to the registry (together with its conjugate, so that
        conjugation of fractions never triggers a new registration).
        """
        factors: dict[int, int] = {}
        for aid in range(len(self._atoms)):
            A = self._atoms[aid]
            while True:
                q = self._exact_div(p, A)
                if q is None:
                    break
                p = q
                factors[aid] = factors.get(aid, 0) + 1
            if p.is_ground:
                break
        if p.is_ground:
            return (p.coeff(1) if p else _ZERO), factors
        lc = p[p.leading_expv()]
        monic = p.quo_ground(lc)
        aid = self._add_atom(monic)
        factors[aid] = factors.get(aid, 0) + 1
        return lc, factors

    def _add_atom(self, monic) -> int:
        for aid, A in enumerate(self._atoms):
            if A == monic:
                return aid
        aid = len(self._atoms)
        self._atoms.append(monic)
        mc = self._conj_poly(monic)
        mc = mc.quo_ground(mc[mc.leading_expv()])
        if mc == monic:
            self._conj_atom[aid] = aid
        else:
            cid = len(self._atoms)
            self._atoms.append(mc)
            self._conj_atom[aid] = cid
            self._conj_atom[cid] = aid
        return aid

    def _expand(self, den: tuple) -> "PolyElement":
        """The product prod(atom^e) over den, computed once per den."""
        p = self._expanded.get(den)
        if p is None:
            p = self._ring.one
            for aid, e in den:
                p = p * self._atoms[aid] ** e
            self._expanded[den] = p
        return p

    def _atom_deriv(self, aid: int, k: int) -> "PolyElement":
        """d atom / d (variable k), computed once per pair."""
        key = (aid, k)
        d = self._atom_derivs.get(key)
        if d is None:
            d = self._atom_derivs[key] = self._atoms[aid].diff(self._gens[k])
        return d

    def _conj_scale(self, aid: int):
        """The scalar s with conj(atom aid) = s * atom conj_atom[aid].

        The conjugate of a monic atom is a scalar multiple of the registered
        conjugate atom; s is its leading coefficient.
        """
        s = self._conj_scales.get(aid)
        if s is None:
            cA = self._conj_poly(self._atoms[aid])
            s = self._conj_scales[aid] = cA[cA.leading_expv()]
        return s


# ---------------------------------------------------------------------------
# Polynomials (thin public face over the ring elements)
# ---------------------------------------------------------------------------

class Poly:
    """A polynomial of a Context, read as {exponent tuple: GaussRat}.

    This is the coefficient face of the ring: code outside this module reads
    monomials and coefficients through `terms()` (exponents indexed like
    `ctx.names`, in the ring's term order) and never the ring itself.
    """

    __slots__ = ("ctx", "p")

    def __init__(self, ctx: Context, p):
        self.ctx = ctx
        self.p = p

    @classmethod
    def from_terms(cls, ctx: Context, terms: Mapping[tuple, GaussRat]) -> "Poly":
        d = {m: c._to_domain() for m, c in terms.items() if not c.is_zero}
        return cls(ctx, ctx._ring.from_dict(d))

    def terms(self) -> dict[tuple, GaussRat]:
        return {m: GaussRat._from_domain(c) for m, c in self.p.iterterms()}

    @property
    def is_zero(self) -> bool:
        return not self.p

    def total_degree(self) -> int:
        return max((sum(m) for m in self.p.itermonoms()), default=0)

    def as_expr(self) -> "Expr":
        return Expr(self.ctx, self.p, ())

    def __eq__(self, other):
        return isinstance(other, Poly) and self.p == other.p

    def __str__(self):
        return _render_poly(self.ctx, self.p)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------

class Expr:
    """An exact rational function num / prod(atom^e) of a Context.

    Immutable.  Equality is decided canonically: same factored denominator
    means structural numerator comparison, otherwise exact cross
    multiplication.
    """

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx: Context, num, den: tuple):
        self.ctx = ctx
        self.num = num
        self.den = den  # sorted tuple of (atom_id, exponent), exponents > 0

    # -- construction --------------------------------------------------------

    @staticmethod
    def _make(ctx: Context, num, den: dict) -> "Expr":
        num, den = Expr._reduce(ctx, num, den)
        return Expr(ctx, num, tuple(sorted(den.items())))

    @staticmethod
    def _reduce(ctx: Context, num, den: dict):
        if not num:
            return num, {}
        for aid in list(den):
            A = ctx._atoms[aid]
            while den.get(aid, 0) > 0:
                q = ctx._exact_div(num, A)
                if q is None:
                    break
                num = q
                den[aid] -= 1
                if not den[aid]:
                    del den[aid]
        return num, den

    # -- basic predicates ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def is_polynomial(self) -> bool:
        return not self.den

    def numerator(self) -> Poly:
        return Poly(self.ctx, self.num)

    def denominator(self) -> Poly:
        return Poly(self.ctx, self.ctx._expand(self.den))

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Expr):
            if other.ctx is not self.ctx:
                raise ExactError("mixed contexts")
            return other
        if isinstance(other, (int, Fraction, GaussRat)):
            return self.ctx.const(other)
        if isinstance(other, Poly):
            return other.as_expr()
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ctx = self.ctx
        d1, d2 = dict(self.den), dict(o.den)
        lcm = dict(d1)
        for aid, e in d2.items():
            lcm[aid] = max(lcm.get(aid, 0), e)
        m1 = tuple((aid, e - d1.get(aid, 0))
                   for aid, e in lcm.items() if e > d1.get(aid, 0))
        m2 = tuple((aid, e - d2.get(aid, 0))
                   for aid, e in lcm.items() if e > d2.get(aid, 0))
        n1 = self.num * ctx._expand(m1) if m1 else self.num
        n2 = o.num * ctx._expand(m2) if m2 else o.num
        return Expr._make(ctx, n1 + n2, lcm)

    __radd__ = __add__

    def __neg__(self):
        return Expr(self.ctx, -self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ctx = self.ctx
        # cross-reduce before multiplying: keeps numerators small
        n1, d2 = Expr._reduce(ctx, self.num, dict(o.den))
        n2, d1 = Expr._reduce(ctx, o.num, dict(self.den))
        den = d1
        for aid, e in d2.items():
            den[aid] = den.get(aid, 0) + e
        return Expr._make(ctx, n1 * n2, den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o / self

    def inverse(self) -> "Expr":
        if self.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        ctx = self.ctx
        scalar, factors = ctx._register(self.num)
        num = ctx._expand(self.den).quo_ground(scalar)
        return Expr._make(ctx, num, factors)

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        if k == 0:
            return self.ctx.one
        num = self.num ** k
        den = {aid: e * k for aid, e in self.den}
        return Expr._make(self.ctx, num, den)

    # -- equality -------------------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return self.num == o.num
        ctx = self.ctx
        return self.num * ctx._expand(o.den) == o.num * ctx._expand(self.den)

    def __hash__(self):
        return hash((tuple(sorted(self.num.iterterms())), self.den))

    # -- structure operations ---------------------------------------------------

    def conj(self) -> "Expr":
        ctx = self.ctx
        num = ctx._conj_poly(self.num)
        den = {}
        scale = _ONE
        for aid, e in self.den:
            cid = ctx._conj_atom[aid]
            scale = scale * ctx._conj_scale(aid) ** e
            den[cid] = den.get(cid, 0) + e
        num = num.quo_ground(scale)
        return Expr._make(ctx, num, den)

    def diff(self, name: str) -> "Expr":
        ctx = self.ctx
        k = ctx._index[name]
        g = ctx._gens[k]
        if not self.den:
            return Expr(ctx, self.num.diff(g), ())
        # d(n / prod A^e) = [n' prod A - n * sum e_i A_i' prod_{j!=i} A_j] / prod A^{e+1}
        simple = tuple((aid, 1) for aid, _ in self.den)
        corr = ctx._ring.zero
        for i, (aid, e) in enumerate(self.den):
            dA = ctx._atom_deriv(aid, k)
            if not dA:
                continue
            t = ctx._expand(simple[:i] + simple[i + 1:]) * dA
            corr = corr + (t if e == 1 else t.mul_ground(QQ_I(e)))
        new_num = self.num.diff(g) * ctx._expand(simple)
        if corr:
            new_num = new_num - self.num * corr
        new_den = {aid: e + 1 for aid, e in self.den}
        return Expr._make(ctx, new_num, new_den)

    def subs(self, assignment: Mapping[str, "Expr"]) -> "Expr":
        """Substitute Exprs for variables (exact, by Horner-free expansion)."""
        ctx = self.ctx
        idx = {ctx._index[n]: v for n, v in assignment.items()}
        num = _subs_poly(ctx, self.num, idx)
        den = ctx.one
        for aid, e in self.den:
            den = den * _subs_poly(ctx, ctx._atoms[aid], idx) ** e
        return num / den

    def evaluate(self, point: Mapping[str, GaussRat]) -> GaussRat:
        """Evaluate at a rational point; all variables must be assigned."""
        ctx = self.ctx
        vals = {}
        for n, v in point.items():
            g = v if isinstance(v, GaussRat) else GaussRat(v)
            vals[ctx._index[n]] = g._to_domain()
        n = _eval_poly(ctx, self.num, vals)
        d = _eval_poly(ctx, ctx._expand(self.den), vals)
        if not d:
            raise ZeroDivisionError("denominator vanishes at evaluation point")
        q = n / d
        return GaussRat._from_domain(q)

    @property
    def is_real(self) -> bool:
        return self.conj() == self

    def variables(self) -> set[str]:
        seen = set()
        polys = [self.num] + [self.ctx._atoms[aid] for aid, _ in self.den]
        for p in polys:
            for m in p.itermonoms():
                for k, e in enumerate(m):
                    if e:
                        seen.add(self.ctx.names[k])
        return seen

    def laurent_terms(self, x: str, y: str):
        """Split self as x^-dx y^-dy sum_k x^i_k y^j_k c_k, each c_k free of x, y.

        Returns (dx, dy, [(i_k, j_k, c_k), ...]) in the numerator's term
        order.  The denominator may hold the atoms x and y themselves and
        atoms free of both; any other atom raises ExactError.
        """
        ctx = self.ctx
        ix, iy = ctx._index[x], ctx._index[y]
        dx = dy = 0
        rest_den = {}
        for aid, e in self.den:
            atom = ctx._atoms[aid]
            mono = atom.leading_expv() if len(atom) == 1 else None
            if mono is not None and sum(mono) == 1 and mono[ix] == 1:
                dx += e
            elif mono is not None and sum(mono) == 1 and mono[iy] == 1:
                dy += e
            elif any(m[ix] or m[iy] for m in atom.itermonoms()):
                raise ExactError(f"denominator atom mixes {x} or {y} with other terms")
            else:
                rest_den[aid] = e
        terms = []
        for monom, coeff in self.num.iterterms():
            m2 = list(monom)
            i, j = m2[ix], m2[iy]
            m2[ix] = m2[iy] = 0
            c = Expr._make(ctx, ctx._ring.from_dict({tuple(m2): coeff}), dict(rest_den))
            terms.append((i, j, c))
        return dx, dy, terms

    # -- rendering -------------------------------------------------------------

    def __str__(self):
        return render(self)

    __repr__ = __str__


def _subs_poly(ctx: Context, p, idx: Mapping[int, Expr]) -> Expr:
    out = ctx.zero
    for monom, coeff in p.iterterms():
        term = Expr(ctx, ctx._ring.ground_new(coeff), ())
        for k, e in enumerate(monom):
            if not e:
                continue
            if k in idx:
                term = term * idx[k] ** e
            else:
                term = term * Expr(ctx, ctx._gens[k] ** e, ())
        out = out + term
    return out


def _eval_poly(ctx: Context, p, vals: Mapping[int, object]):
    tot = _ZERO
    for monom, coeff in p.iterterms():
        v = coeff
        for k, e in enumerate(monom):
            if e:
                if k not in vals:
                    raise ExactError(f"unassigned variable {ctx.names[k]!r}")
                v = v * vals[k] ** e
        tot = tot + v
    return tot


# ---------------------------------------------------------------------------
# Spec-level operations
# ---------------------------------------------------------------------------

def normalize(num: Poly, den: Poly) -> Expr:
    """Canonical rational function num/den; error on a zero denominator."""
    if den.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    return num.as_expr() / den.as_expr()


def conj(e: Expr | GaussRat) -> Expr | GaussRat:
    return e.conj()


def diff(e: Expr, name: str) -> Expr:
    return e.diff(name)


# ---------------------------------------------------------------------------
# Rendering and parsing (the CLI payload grammar)
# ---------------------------------------------------------------------------

def _render_frac(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _render_coeff(c: GaussRat, bare: bool = False) -> str:
    """Render a Gaussian rational; `bare` means it stands alone (no monomial)."""
    if c.is_real:
        return _render_frac(c.re)
    if not c.re:
        if c.im == 1:
            return "i"
        if c.im == -1:
            return "-i"
        return f"{_render_frac(c.im)}*i"
    im = c.im
    op = "+" if im > 0 else "-"
    im_abs = abs(im)
    im_s = "i" if im_abs == 1 else f"{_render_frac(im_abs)}*i"
    s = f"{_render_frac(c.re)}{op}{im_s}"
    return s if bare else f"({s})"


def _render_poly(ctx: Context, p) -> str:
    if not p:
        return "0"
    parts = []
    for monom, coeff in sorted(p.iterterms(), key=lambda t: grlex(t[0]), reverse=True):
        c = GaussRat._from_domain(coeff)
        mon = [f"{ctx.names[k]}^{e}" if e > 1 else ctx.names[k]
               for k, e in enumerate(monom) if e]
        if not mon:
            parts.append(_render_coeff(c, bare=not parts))
            continue
        m = "*".join(mon)
        if c == 1:
            parts.append(m)
        elif c == -1:
            parts.append(f"-{m}" if not parts else f"- {m}")
            continue
        else:
            parts.append(f"{_render_coeff(c)}*{m}")
    out = parts[0]
    for t in parts[1:]:
        if t.startswith("- "):
            out += " " + t
        elif t.startswith("-"):
            out += " - " + t[1:]
        else:
            out += " + " + t
    return out


def render(e: Expr) -> str:
    num = _render_poly(e.ctx, e.num)
    if not e.den:
        return num
    dfac = []
    for aid, ex in e.den:
        a = f"({_render_poly(e.ctx, e.ctx._atoms[aid])})"
        dfac.append(f"{a}^{ex}" if ex > 1 else a)
    den = "*".join(dfac)
    if len(e.den) > 1 or e.den[0][1] > 1:
        den = f"({den})" if len(dfac) > 1 else den
    return f"({num})/{den}" if den else num


class _Tokens:
    def __init__(self, s: str):
        self.s = s
        self.k = 0

    def peek(self):
        while self.k < len(self.s) and self.s[self.k].isspace():
            self.k += 1
        if self.k >= len(self.s):
            return None
        ch = self.s[self.k]
        if ch in "+-*/^()":
            return ch
        if ch.isdigit():
            j = self.k
            while j < len(self.s) and self.s[j].isdigit():
                j += 1
            return self.s[self.k:j]
        if ch.isalpha() or ch == "_":
            j = self.k
            while j < len(self.s) and (self.s[j].isalnum() or self.s[j] == "_"):
                j += 1
            return self.s[self.k:j]
        raise ExactError(f"bad character {ch!r} at position {self.k}")

    def next(self):
        t = self.peek()
        if t is not None:
            self.k += len(t)
        return t


def parse(ctx: Context, text: str) -> Expr:
    """Parse the rendering grammar ( + - * / ^ i, integers, variables )."""
    toks = _Tokens(text)

    def parse_sum():
        t = toks.peek()
        neg = False
        while t in ("+", "-"):
            toks.next()
            if t == "-":
                neg = not neg
            t = toks.peek()
        e = parse_product()
        if neg:
            e = -e
        while True:
            t = toks.peek()
            if t == "+":
                toks.next()
                e = e + parse_product()
            elif t == "-":
                toks.next()
                e = e - parse_product()
            else:
                return e

    def parse_product():
        e = parse_power()
        while True:
            t = toks.peek()
            if t == "*":
                toks.next()
                e = e * parse_power()
            elif t == "/":
                toks.next()
                e = e / parse_power()
            else:
                return e

    def parse_power():
        e = parse_atom()
        if toks.peek() == "^":
            toks.next()
            sign = 1
            if toks.peek() == "-":
                toks.next()
                sign = -1
            t = toks.next()
            if t is None or not t.isdigit():
                raise ExactError("exponent must be an integer")
            return e ** (sign * int(t))
        return e

    def parse_atom():
        t = toks.next()
        if t is None:
            raise ExactError("unexpected end of input")
        if t == "(":
            e = parse_sum()
            if toks.next() != ")":
                raise ExactError("missing closing parenthesis")
            return e
        if t == "-":
            return -parse_atom()
        if t.isdigit():
            return ctx.const(int(t))
        if t == "i":
            return ctx.const(I)
        if ctx.has_var(t):
            return ctx.var(t)
        raise ExactError(f"unknown symbol {t!r}")

    e = parse_sum()
    if toks.peek() is not None:
        raise ExactError(f"trailing input at position {toks.k}")
    return e


def standard_context() -> Context:
    """Fresh context with the standard alphabet (base, group, formal A0)."""
    return Context(STANDARD_PAIRS)
