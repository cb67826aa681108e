"""Exact arithmetic: multivariate polynomials and rational functions over Q(i).

Everything downstream (frames, coframes, the normalization loops) runs on the
`Expr` type defined here: an exact rational function in a fixed alphabet of
variables, with a conjugation that fixes the real base coordinates and swaps
paired variables (a <-> ab, b <-> bb, ...).  No floating point is used
anywhere; zero tests are exact, which is what drives the branching logic of
the equivalence method.

The kernel.  A polynomial (`_ZIPoly`) is a dict {packed monomial: (re, im)}
of Python ints over one positive integer denominator d, so Gaussian-integer
numerators share one rational content 1/d (Geddes, Czapor and Labahn,
*Algorithms for Computer Algebra*, 1992, ch. 2).  It is always reduced:
gcd(d, every re and im) = 1 and no coefficient is zero, so `==` and `hash`
are structural and canonical.  Arithmetic works on the integer pairs and
takes one gcd pass at the end of an operation, not one per coefficient.
A monomial is packed into one int (Monagan and Pearce, J. Symb. Comput. 46,
2011): the total degree in the top field, then the exponents in `ctx.names`
order, _W bits per field.  Integer `<` is then graded-lex order, `max` of the
keys is the leading monomial, a product of monomials is an int `+`, and
divisibility is a test of the fields' guard bits.  An exponent that does not
fit its field raises ExactError; it never wraps.  A scalar (`GaussRat`) has
the same form, (a + b*i) / d with Python ints, d > 0 and gcd(a, b, d) = 1: a
coefficient is read out of a polynomial with one gcd, and a constant
polynomial is built from a scalar with none.

Denominators are kept in *factored* form.  Every division registers the
divisor's numerator as a monic "atom" in the owning Context, and fractions
are reduced by repeated exact division against those atoms.  In this problem
all denominators are products of powers of a handful of determinant
polynomials (plus monomials in the group parameters), so trial division
recovers the reduced fraction without ever running a multivariate gcd over
Q(i), which is prohibitively slow.

Reduction rule.  Every quotient comes from exact division: long division by
a polynomial atom, or an exponent shift by a monomial atom.  Atoms are monic
(leading coefficient 1 in graded-lex order: numerator coefficient (d, 0)).
Long division runs on the integer numerators, in place on the remainder,
with each step's leading term taken from a heap of the packed keys.  A step
coefficient c must be divided by the atom's leading numerator coefficient d,
and c need not be a multiple of d even when the division is exact (the
numerator 2x + 1 + i of x + (1+i)/2 has Z[i] content 1 + i); the remainder
and the quotient so far are then rescaled by d / gcd(d, c), which keeps
every step an exact integer operation, and the scale joins the quotient's
denominator.  Before that division, cheap tests that can only answer "not
divisible", and only when that is proven, skip it:
  * leading monomials: lm(A * q) = lm(A) * lm(q), so A cannot divide f
    unless lm(A) divides lm(f);
  * monomial atoms (`a`, `a*ab^2`): f // A shifts every exponent of f, and
    fails unless every term of f is a multiple of A;
  * the modular certificate (the homomorphic-image test of Geddes, Czapor
    and Labahn): map f and a polynomial atom A to F_P[s], P = 998244353 = 1
    (mod 4), by i -> a fixed square root of -1 mod P, x_v -> s for one
    variable v of lm(A), and every other variable to a fixed small integer.
    If A divides f, then f = A * q with q's denominator made only of those
    of f and A (A is monic), so when neither is divisible by P the map is a
    ring homomorphism on f, A and q, and the image of A divides the image of
    f.  An image of A that does not divide the image of f therefore proves
    that A does not divide f.  The test is skipped when a denominator is
    0 mod P or A's image is constant or zero.  It never answers "divisible",
    so no zero test becomes probabilistic.
  * zero and unit operands: x + 0 is x and x * 0 is zero without a
    reduction, and a reduced fraction times a nonzero constant stays
    reduced, so only its numerator is scaled.
Each shortcut returns exactly what the reduction it skips would return.

Each Context caches work whose inputs never change once an atom is
registered, so the normalization chain does not redo it:
  * `_expand(den)`: the product prod(atom^e) per denominator tuple;
  * `_partial(k)`: the derivation d/dx_k, which caches its atom derivatives;
  * `_conj_scale(aid)`: the scalar s with conj(atom) = s * conjugate atom;
  * `_atom_image(aid, v)`: an atom's certificate image in variable v;
  * `_mono_images[v]`: a monomial's certificate image in variable v;
  * `const(value)`: the constant Expr per value.
The keys are atom ids, denominator tuples or constant values, and atoms are
never changed after registration, so an entry stays valid for the life of
its Context (and is meaningless in any other: each Context owns its caches).
Kernel polynomials are never mutated once built; every operation builds a
new one.  Results are identical to recomputing.

This is the only module that knows the kernel.  Other modules work through
`Expr`'s methods (arithmetic, `is_zero`, `conj`, `diff`, `subs`, `evaluate`,
`variables`, `laurent_terms`), `Derivation` and `Context.sum`, and read
monomials and coefficients through `numerator().terms()`; a change of kernel
only has to change this file.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Iterable, Mapping


class ExactError(Exception):
    pass


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------

class GaussRat:
    """An exact Gaussian rational (a + b*i) / d.

    The same convention as a kernel coefficient: a, b and d are Python ints
    with d > 0 and gcd(a, b, d) = 1, so zero is 0/1 and equality is
    structural.  Each operation takes one gcd of its result, not one per
    component.  `re` and `im` are the components as Fractions, read-only,
    and `parts()` gives them as real GaussRats; code outside this module
    goes through these and the arithmetic.  A real value is `==` to, and
    hashes like, the int or Fraction it equals.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            re, im = Fraction(re), Fraction(im)
            d = lcm(re.denominator, im.denominator)
            a, b = re.numerator * (d // re.denominator), im.numerator * (d // im.denominator)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    def __setattr__(self, *a):
        raise AttributeError("GaussRat is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def parts(self) -> tuple["GaussRat", "GaussRat"]:
        """(real part, imaginary part) as real GaussRats, with no Fraction."""
        d = self._d
        return _gr_reduced(self._a, 0, d), _gr_reduced(self._b, 0, d)

    def conj(self) -> "GaussRat":
        return _gr(self._a, -self._b, self._d)

    @property
    def is_zero(self) -> bool:
        return not self._a and not self._b

    @property
    def is_real(self) -> bool:
        return not self._b

    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussRat):
            return other
        if isinstance(other, int):
            return _gr(other, 0, 1)
        if isinstance(other, Fraction):
            return _gr(other.numerator, 0, other.denominator)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        d1, d2 = self._d, o._d
        if d1 == d2:
            return _gr_reduced(self._a + o._a, self._b + o._b, d1)
        return _gr_reduced(self._a * d2 + o._a * d1, self._b * d2 + o._b * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return _gr(-self._a, -self._b, self._d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        d1, d2 = self._d, o._d
        if d1 == d2:
            return _gr_reduced(self._a - o._a, self._b - o._b, d1)
        return _gr_reduced(self._a * d2 - o._a * d1, self._b * d2 - o._b * d1, d1 * d2)

    def __rsub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        a1, b1, a2, b2 = self._a, self._b, o._a, o._b
        return _gr_reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * o._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        # (a1 + b1 i) / d1 * d2 / (a2 + b2 i) = (a1 + b1 i)(a2 - b2 i) d2 / (d1 n)
        a1, b1, a2, b2, d2 = self._a, self._b, o._a, o._b, o._d
        n = a2 * a2 + b2 * b2
        if not n:
            raise ZeroDivisionError("division by zero GaussRat")
        return _gr_reduced((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, self._d * n)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else o / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError(f"GaussRat exponent must be an int, not {type(k).__name__}")
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
        return self._a == o._a and self._b == o._b and self._d == o._d

    def __hash__(self):
        # a real value hashes like the int or Fraction it equals
        if self._b:
            return hash((self._a, self._b, self._d))
        return hash(self._a) if self._d == 1 else hash(Fraction(self._a, self._d))

    def __repr__(self):
        return f"GaussRat({self.re!r}, {self.im!r})"

    def __str__(self):
        return _render_coeff(self, bare=True)


_set_a, _set_b, _set_d = GaussRat._a.__set__, GaussRat._b.__set__, GaussRat._d.__set__


def _gr(a: int, b: int, d: int) -> GaussRat:
    """(a + b*i) / d, already canonical: d > 0 and gcd(a, b, d) = 1."""
    g = object.__new__(GaussRat)
    _set_a(g, a)
    _set_b(g, b)
    _set_d(g, d)
    return g


def _gr_reduced(a: int, b: int, d: int) -> GaussRat:
    """(a + b*i) / d in canonical form, for any d > 0."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    return _gr(a, b, d)


I = GaussRat(0, 1)


# ---------------------------------------------------------------------------
# The kernel: Z[i] sparse polynomials over one integer denominator
# ---------------------------------------------------------------------------

#: bits per exponent field of a packed monomial; the top bit of each field is
#: a guard bit, so an exponent (and a total degree) is at most _EMAX
_W = 16
_FIELD = (1 << _W) - 1
_EMAX = (1 << (_W - 1)) - 1


class _ZIPoly:
    """sum t[m] * x^m / d: coefficients (re, im) of Python ints, d > 0.

    Always reduced (gcd(d, every re and im) = 1, no zero coefficient; the
    zero polynomial is {} over 1), so equality and hashing are structural.
    Never mutated once built.
    """

    __slots__ = ("t", "d")

    def __init__(self, t: dict, d: int = 1):
        self.t = t
        self.d = d

    def __bool__(self):
        return bool(self.t)

    def __eq__(self, other):
        return isinstance(other, _ZIPoly) and self.d == other.d and self.t == other.t

    def __hash__(self):
        return hash((frozenset(self.t.items()), self.d))

    @property
    def is_ground(self) -> bool:
        t = self.t
        return not t or (len(t) == 1 and 0 in t)

    def coeff(self, m: int) -> GaussRat:
        re, im = self.t[m]
        return _gr_reduced(re, im, self.d)


def _reduced(t: dict, d: int) -> _ZIPoly:
    """t / d in reduced form; t has no zero coefficient and d > 0."""
    if d != 1:
        if not t:
            return _ZIPoly(t)
        g = d
        for re, im in t.values():
            g = gcd(g, re, im)
            if g == 1:
                return _ZIPoly(t, d)
        t = {m: (re // g, im // g) for m, (re, im) in t.items()}
        d //= g
    return _ZIPoly(t, d)


def _const(g: GaussRat) -> _ZIPoly:
    return _ZIPoly({0: (g._a, g._b)} if g._a or g._b else {}, g._d)


def _add(*ps: _ZIPoly) -> _ZIPoly:
    """The sum of any number of polynomials, with one gcd pass at the end."""
    if len(ps) < 2:
        return ps[0] if ps else _ZIPoly({})
    big, d = 0, ps[0].d                 # copy the largest, add the others in
    for k in range(1, len(ps)):
        if len(ps[k].t) > len(ps[big].t):
            big = k
        if ps[k].d != d:
            d = lcm(d, ps[k].d)
    s = d // ps[big].d
    t = dict(ps[big].t) if s == 1 else {m: (re * s, im * s) for m, (re, im) in ps[big].t.items()}
    get = t.get
    for p in ps[:big] + ps[big + 1:]:
        s = d // p.d
        items = p.t.items() if s == 1 else [(m, (re * s, im * s)) for m, (re, im) in p.t.items()]
        for m, (re, im) in items:
            o = get(m)
            t[m] = (re, im) if o is None else (o[0] + re, o[1] + im)
    if (0, 0) in t.values():
        t = {m: c for m, c in t.items() if c[0] or c[1]}
    return _reduced(t, d)


def _neg(p: _ZIPoly) -> _ZIPoly:
    return _ZIPoly({m: (-re, -im) for m, (re, im) in p.t.items()}, p.d)


def _mul(p: _ZIPoly, q: _ZIPoly, top: int) -> _ZIPoly:
    """p * q; `top` is the shift of the total-degree field."""
    pt, qt = p.t, q.t
    if not pt or not qt:
        return _ZIPoly({})
    if len(pt) > len(qt):
        pt, qt = qt, pt
    if (max(pt) + max(qt)) >> (top + _W - 1):
        raise ExactError(f"total degree above {_EMAX}")
    out: dict = {}
    get = out.get
    for m1, (a, b) in pt.items():
        for m2, (c, e) in qt.items():
            m = m1 + m2
            o = get(m)
            if o is None:
                out[m] = (a * c - b * e, a * e + b * c)
            else:
                out[m] = (o[0] + a * c - b * e, o[1] + a * e + b * c)
    if (0, 0) in out.values():
        out = {m: c for m, c in out.items() if c[0] or c[1]}
    return _reduced(out, p.d * q.d)


def _pow(p: _ZIPoly, k: int, top: int) -> _ZIPoly:
    """p^k for k >= 1, by repeated multiplication (p is sparse)."""
    out = p
    for _ in range(k - 1):
        out = _mul(out, p, top)
    return out


def _scale(p: _ZIPoly, a: int, b: int, d: int) -> _ZIPoly:
    """p * (a + b*i) / d for a nonzero a + b*i and d > 0."""
    if b:
        t = {m: (re * a - im * b, re * b + im * a) for m, (re, im) in p.t.items()}
    elif a != 1:
        t = {m: (re * a, im * a) for m, (re, im) in p.t.items()}
    else:
        t = p.t
    return _reduced(t, p.d * d)


def _quo_ground(p: _ZIPoly, g: GaussRat) -> _ZIPoly:
    """p / g for a nonzero g: times d (a - b*i) / (a^2 + b^2), g = (a + b*i) / d."""
    a, b, d = g._a, g._b, g._d
    return _scale(p, d * a, -d * b, a * a + b * b)


# ---------------------------------------------------------------------------
# Variable context
# ---------------------------------------------------------------------------

#: standard alphabet: base coordinates and ambiguity-group parameters
STANDARD_PAIRS = (
    ("x", "x"), ("y", "y"), ("u1", "u1"), ("u2", "u2"), ("u3", "u3"),
    ("a", "ab"), ("b", "bb"), ("c", "cb"), ("d", "db"), ("e", "eb"),
)


class Context:
    """A fixed ordered alphabet with conjugation pairing and an atom registry.

    The alphabet is immutable after construction; the registry of denominator
    atoms grows as divisions occur.  All Exprs belonging to one context share
    its monomial packing: variable k in field n - 1 - k, the total degree in
    field n, for n variables.
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
        n = len(names)
        # monomial packing: shifts, unit monomials, guard bits, conjugation
        self._shifts = tuple((n - 1 - k) * _W for k in range(n))
        self._top = n * _W
        self._unit = tuple((1 << self._top) | (1 << s) for s in self._shifts)
        self._guard = sum(1 << (j * _W + _W - 1) for j in range(n + 1))
        moves: dict[int, int] = {0: _FIELD << self._top}
        for k, s in enumerate(self._shifts):
            delta = self._shifts[self._conj_perm[k]] - s
            moves[delta] = moves.get(delta, 0) | (_FIELD << s)
        self._conj_moves = tuple(sorted(moves.items()))      # (delta, mask)
        # registry of monic denominator atoms; ids are stable forever
        self._atoms: list[_ZIPoly] = []
        self._conj_atom: dict[int, int] = {}
        # per atom: (leading monomial, certificate variable, tail), where the
        # tail lists (m - lm, re, im) for every other term
        self._atom_div: list[tuple] = []
        # caches of results that never change once an atom is registered
        self._expanded: dict[tuple, _ZIPoly] = {}             # den -> product
        self._partials: dict[int, Derivation] = {}            # var -> d/dvar
        self._conj_scales: dict[int, GaussRat] = {}           # aid -> scalar
        self._atom_images: dict[tuple[int, int], list] = {}   # (aid, var)
        self._mono_images = tuple({} for _ in names)          # var: {m: image}
        # certificate points: variable v stays free, variable k -> k + 2
        self._points = tuple(tuple(1 if k == v else k + 2 for k in range(n))
                             for v in range(n))
        self._consts: dict[object, Expr] = {}                 # value -> Expr
        self.zero = Expr(self, _ZIPoly({}), ())
        self.one = Expr(self, _ZIPoly({0: (1, 0)}), ())

    # -- variables ---------------------------------------------------------

    def var(self, name: str) -> "Expr":
        try:
            k = self._index[name]
        except KeyError:
            raise ExactError(f"unknown variable {name!r}") from None
        return Expr(self, _ZIPoly({self._unit[k]: (1, 0)}), ())

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
            e = Expr(self, _const(g), ())
            self._consts[value] = e
        return e

    def sum(self, *terms) -> "Expr":
        """The sum of the terms, reduced once.

        A term is an Expr, a constant, or a tuple of such factors standing for
        their product, taken without intermediate reduction.  The terms are
        grouped by denominator and added, the groups brought over the lcm of
        their denominators and added, and the total reduced once: the value
        of the left fold of `+`, which reduces after every addition.
        """
        if len(terms) == 1 and isinstance(terms[0], Expr) and terms[0].ctx is self:
            return terms[0]
        groups: dict[tuple, list] = {}
        for term in terms:
            num, den = self._product(term if isinstance(term, tuple) else (term,))
            if num:
                groups.setdefault(tuple(sorted(den.items())), []).append(num)
        lcm_den = _lcm_den(groups)
        total = _add(*(_lift(self, _add(*nums), den, lcm_den)
                       for den, nums in groups.items()))
        return Expr._make(self, total, lcm_den)

    def _product(self, factors) -> tuple[_ZIPoly, dict]:
        """(numerator, denominator) of a product of Exprs and constants."""
        num, den, scale = None, {}, None
        for f in factors:
            if isinstance(f, Expr):
                if f.ctx is not self:
                    raise ExactError("mixed contexts")
                num = f.num if num is None else _mul(num, f.num, self._top)
                for aid, e in f.den:
                    den[aid] = den.get(aid, 0) + e
            else:
                c = GaussRat._coerce(f)
                if c is NotImplemented:
                    raise TypeError(f"not a term factor: {type(f).__name__}")
                scale = c if scale is None else scale * c
        if scale is None:
            return (self.one.num if num is None else num), den
        if scale.is_zero:
            return _ZIPoly({}), {}
        if num is None:
            return _const(scale), {}
        return _scale(num, scale._a, scale._b, scale._d), den

    # -- packed monomials ----------------------------------------------------

    def _pack(self, exps) -> int:
        if len(exps) != len(self.names) or min(exps, default=0) < 0:
            raise ExactError(f"bad exponent vector {tuple(exps)}")
        tot = sum(exps)
        if tot > _EMAX:
            raise ExactError(f"total degree above {_EMAX}")
        m = tot << self._top
        for s, e in zip(self._shifts, exps):
            m |= e << s
        return m

    def _unpack(self, m: int) -> tuple[int, ...]:
        return tuple((m >> s) & _FIELD for s in self._shifts)

    # -- raw polynomial helpers --------------------------------------------

    def _conj_poly(self, p: _ZIPoly) -> _ZIPoly:
        moves = self._conj_moves
        out = {}
        for m, (re, im) in p.t.items():
            c = 0
            for delta, mask in moves:
                c |= (m & mask) << delta if delta >= 0 else (m & mask) >> -delta
            out[c] = (re, -im)
        return _ZIPoly(out, p.d)

    def _diff_poly(self, p: _ZIPoly, k: int) -> _ZIPoly:
        s, u = self._shifts[k], self._unit[k]
        out = {}
        for m, (re, im) in p.t.items():
            e = (m >> s) & _FIELD
            if e:
                out[m - u] = (re * e, im * e)
        return _reduced(out, p.d)

    def _exact_div(self, f: _ZIPoly, aid: int, images: dict):
        """f // atom aid when the division is exact, else None.

        `images` holds f's certificate images by variable; the caller owns it
        and empties it whenever f changes.  Cheap exact refutations run
        first, and every quotient comes from `_shift` or `_long_div`.
        """
        if not f:
            return f
        lm, v, tail = self._atom_div[aid]
        if (max(f.t) - lm) & self._guard:
            return None                 # lm(A * q) = lm(A) * lm(q)
        if not tail:
            return self._shift(f, lm)
        g = self._atom_image(aid, v)
        if g is not None:
            if v not in images:
                images[v] = _image(self, f, v)
            if images[v] is not None and not _divides_mod_p(g, images[v]):
                return None
        return self._long_div(f, aid)

    def _long_div(self, f: _ZIPoly, aid: int):
        """f // atom aid when the division is exact, else None.

        With F = f * f.d and N = A * A.d the integer numerators, N's leading
        coefficient is A.d.  Invariant: s * F = N * Q + R.  At the end R = 0,
        so f / A = Q * A.d / (s * f.d).
        """
        lm, _, tail = self._atom_div[aid]
        dA = self._atoms[aid].d
        guard = self._guard
        R = dict(f.t)
        heap = [-m for m in R]
        heapify(heap)
        Q: dict = {}
        s = 1
        while R:
            m = -heappop(heap)
            c = R.pop(m, None)
            if c is None:
                continue                # a key that cancelled earlier
            qm = m - lm
            if qm & guard:
                return None
            cr, ci = c
            if dA != 1:
                if cr % dA or ci % dA:
                    k = dA // gcd(dA, cr, ci)
                    R = {key: (x * k, y * k) for key, (x, y) in R.items()}
                    Q = {key: (x * k, y * k) for key, (x, y) in Q.items()}
                    s *= k
                    cr *= k
                    ci *= k
                cr //= dA
                ci //= dA
            Q[qm] = (cr, ci)
            get = R.get
            for off, ar, ai in tail:
                key = m + off
                dr = cr * ar - ci * ai
                di = cr * ai + ci * ar
                o = get(key)
                if o is None:
                    R[key] = (-dr, -di)
                    heappush(heap, -key)
                else:
                    dr = o[0] - dr
                    di = o[1] - di
                    if dr or di:
                        R[key] = (dr, di)
                    else:
                        del R[key]
        if dA != 1:
            Q = {key: (x * dA, y * dA) for key, (x, y) in Q.items()}
        return _reduced(Q, s * f.d)

    def _shift(self, f: _ZIPoly, mono: int):
        """f // mono for a monomial mono when every term of f is a multiple."""
        guard = self._guard
        quo = {}
        for m, c in f.t.items():
            q = m - mono
            if q & guard:
                return None
            quo[q] = c
        return _ZIPoly(quo, f.d)

    def _atom_image(self, aid: int, v: int):
        """The certificate image of atom aid in variable v, made monic.

        None when the image is constant (or zero) or a coefficient has no
        image: then the certificate cannot refute a division by the atom.
        """
        key = (aid, v)
        if key not in self._atom_images:
            g = _image(self, self._atoms[aid], v)
            if g is not None and len(g) > 1:
                inv = pow(g[-1], -1, _P)
                g = [c * inv % _P for c in g]
            else:
                g = None
            self._atom_images[key] = g
        return self._atom_images[key]

    def _register(self, p: _ZIPoly):
        """Split the nonzero polynomial p as scalar * prod(atom^e).

        Existing atoms are divided out first; any nonconstant residual is
        appended to the registry (together with its conjugate, so that
        conjugation of fractions never triggers a new registration).
        """
        factors: dict[int, int] = {}
        images: dict = {}
        for aid in range(len(self._atoms)):
            while True:
                q = self._exact_div(p, aid, images)
                if q is None:
                    break
                p = q
                images.clear()
                factors[aid] = factors.get(aid, 0) + 1
            if p.is_ground:
                break
        if p.is_ground:
            return p.coeff(0), factors
        lc = p.coeff(max(p.t))
        aid = self._add_atom(_quo_ground(p, lc))
        factors[aid] = factors.get(aid, 0) + 1
        return lc, factors

    def _add_atom(self, monic: _ZIPoly) -> int:
        for aid, A in enumerate(self._atoms):
            if A == monic:
                return aid
        aid = len(self._atoms)
        self._append_atom(monic)
        mc = self._conj_poly(monic)
        mc = _quo_ground(mc, mc.coeff(max(mc.t)))
        if mc == monic:
            self._conj_atom[aid] = aid
        else:
            cid = len(self._atoms)
            self._append_atom(mc)
            self._conj_atom[aid] = cid
            self._conj_atom[cid] = aid
        return aid

    def _append_atom(self, monic: _ZIPoly) -> None:
        lm = max(monic.t)
        exps = self._unpack(lm)
        tail = tuple((m - lm, re, im) for m, (re, im) in monic.t.items() if m != lm)
        self._atoms.append(monic)
        self._atom_div.append((lm, exps.index(max(exps)), tail))

    def _expand(self, den: tuple) -> _ZIPoly:
        """The product prod(atom^e) over den, computed once per den."""
        p = self._expanded.get(den)
        if p is None:
            p = self.one.num
            for aid, e in den:
                p = _mul(p, _pow(self._atoms[aid], e, self._top), self._top)
            self._expanded[den] = p
        return p

    def _partial(self, k: int) -> "Derivation":
        """d / d(variable k), built once per variable."""
        d = self._partials.get(k)
        if d is None:
            d = self._partials[k] = Derivation(self, {self.names[k]: self.one})
        return d

    def _conj_scale(self, aid: int) -> GaussRat:
        """The scalar s with conj(atom aid) = s * atom conj_atom[aid].

        The conjugate of a monic atom is a scalar multiple of the registered
        conjugate atom; s is its leading coefficient.
        """
        s = self._conj_scales.get(aid)
        if s is None:
            cA = self._conj_poly(self._atoms[aid])
            s = self._conj_scales[aid] = cA.coeff(max(cA.t))
        return s


# ---------------------------------------------------------------------------
# Non-divisibility certificate
# ---------------------------------------------------------------------------

#: the certificate's prime, P = 1 (mod 4), and the image of i: a square root
#: of -1 modulo P
_P = 998244353
_I_MOD_P = 911660635


def _image(ctx: Context, p: _ZIPoly, v: int):
    """p in F_P[s] under x_v -> s, x_k -> k + 2 (k != v), i -> _I_MOD_P.

    A dense coefficient list, low degree first, without trailing zeros; None
    if p's denominator is divisible by P.  The points are `ctx._points[v]`.
    """
    if p.d % _P == 0:
        return None
    memo = ctx._mono_images[v]
    img: dict[int, int] = {}
    for m, (re, im) in p.t.items():
        w = memo.get(m)
        if w is None:
            w = memo[m] = _mono_image(ctx, m, v)
        dv, wm = w
        img[dv] = img.get(dv, 0) + (re + im * _I_MOD_P) * wm
    inv = pow(p.d, -1, _P)
    out = [0] * (max(img) + 1 if img else 0)
    for dv, c in img.items():
        out[dv] = c * inv % _P
    while out and not out[-1]:
        out.pop()
    return out


def _mono_image(ctx: Context, m: int, v: int) -> tuple[int, int]:
    """(degree in x_v, image of the rest mod P) of the packed monomial m."""
    point = ctx._points[v]
    w = 1
    for k, s in enumerate(ctx._shifts):
        e = (m >> s) & _FIELD
        if e and k != v:
            w *= point[k] ** e
    return (m >> ctx._shifts[v]) & _FIELD, w % _P


def _divides_mod_p(g, f) -> bool:
    """Whether the monic g (degree >= 1) divides f in F_P[s]."""
    r = list(f)
    n = len(g) - 1
    for top in range(len(r) - 1, n - 1, -1):
        c = r[top]
        if c:
            base = top - n
            for j in range(n):
                r[base + j] = (r[base + j] - c * g[j]) % _P
    return not any(r[:n])


# ---------------------------------------------------------------------------
# Polynomials (thin public face over the kernel)
# ---------------------------------------------------------------------------

class Poly:
    """A polynomial of a Context, read as {exponent tuple: GaussRat}.

    This is the coefficient face of the kernel: code outside this module
    reads monomials and coefficients through `terms()` (exponents indexed
    like `ctx.names`, in descending graded-lex order) and never the kernel
    itself.
    """

    __slots__ = ("ctx", "p")

    def __init__(self, ctx: Context, p: _ZIPoly):
        self.ctx = ctx
        self.p = p

    @classmethod
    def from_terms(cls, ctx: Context, terms: Mapping[tuple, GaussRat]) -> "Poly":
        parts = [(ctx._pack(m), c) for m, c in terms.items() if not c.is_zero]
        d = lcm(*(c._d for _, c in parts))
        t = {m: (c._a * (d // c._d), c._b * (d // c._d)) for m, c in parts}
        return cls(ctx, _reduced(t, d))

    def terms(self) -> dict[tuple, GaussRat]:
        p, unpack = self.p, self.ctx._unpack
        return {unpack(m): p.coeff(m) for m in sorted(p.t, reverse=True)}

    @property
    def is_zero(self) -> bool:
        return not self.p

    def total_degree(self) -> int:
        return max(self.p.t) >> self.ctx._top if self.p else 0

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

    def __init__(self, ctx: Context, num: _ZIPoly, den: tuple):
        self.ctx = ctx
        self.num = num
        self.den = den  # sorted tuple of (atom_id, exponent), exponents > 0

    # -- construction --------------------------------------------------------

    @staticmethod
    def _make(ctx: Context, num: _ZIPoly, den: dict) -> "Expr":
        num, den = Expr._reduce(ctx, num, den)
        return Expr(ctx, num, tuple(sorted(den.items())))

    @staticmethod
    def _reduce(ctx: Context, num: _ZIPoly, den: dict):
        if not num:
            return num, {}
        images: dict = {}
        for aid in list(den):
            while den.get(aid, 0) > 0:
                q = ctx._exact_div(num, aid, images)
                if q is None:
                    break
                num = q
                images.clear()
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
        if not o.num:
            return self
        if not self.num:
            return o
        ctx = self.ctx
        lcm_den = _lcm_den((self.den, o.den))
        return Expr._make(ctx, _add(_lift(ctx, self.num, self.den, lcm_den),
                                    _lift(ctx, o.num, o.den, lcm_den)), lcm_den)

    __radd__ = __add__

    def __neg__(self):
        return Expr(self.ctx, _neg(self.num), self.den)

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
        if not self.num or not o.num:
            return ctx.zero
        # a reduced fraction times a unit stays reduced
        if not o.den and o.num.is_ground:
            return Expr(ctx, _scale(self.num, *o.num.t[0], o.num.d), self.den)
        if not self.den and self.num.is_ground:
            return Expr(ctx, _scale(o.num, *self.num.t[0], self.num.d), o.den)
        # cross-reduce before multiplying: keeps numerators small
        n1, d2 = Expr._reduce(ctx, self.num, dict(o.den))
        n2, d1 = Expr._reduce(ctx, o.num, dict(self.den))
        den = d1
        for aid, e in d2.items():
            den[aid] = den.get(aid, 0) + e
        return Expr._make(ctx, _mul(n1, n2, ctx._top), den)

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
        num = _quo_ground(ctx._expand(self.den), scalar)
        return Expr._make(ctx, num, factors)

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        if k == 0:
            return self.ctx.one
        num = _pow(self.num, k, self.ctx._top)
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
        return (_mul(self.num, ctx._expand(o.den), ctx._top)
                == _mul(o.num, ctx._expand(self.den), ctx._top))

    def __hash__(self):
        return hash((self.num, self.den))

    # -- structure operations ---------------------------------------------------

    def conj(self) -> "Expr":
        ctx = self.ctx
        num = ctx._conj_poly(self.num)
        if not self.den:
            return Expr(ctx, num, ())
        den = {}
        scale = GaussRat(1)
        for aid, e in self.den:
            cid = ctx._conj_atom[aid]
            scale = scale * ctx._conj_scale(aid) ** e
            den[cid] = den.get(cid, 0) + e
        return Expr._make(ctx, _quo_ground(num, scale), den)

    def diff(self, name: str) -> "Expr":
        ctx = self.ctx
        k = ctx._index[name]
        if not self.den:
            return Expr(ctx, ctx._diff_poly(self.num, k), ())
        return ctx._partial(k)(self)

    def subs(self, assignment: Mapping[str, "Expr"]) -> "Expr":
        """Substitute Exprs for variables (exact, by Horner-free expansion)."""
        ctx = self.ctx
        idx = {ctx._index[n]: v for n, v in assignment.items()}
        num = _subs_poly(ctx, self.num, idx)
        if not self.den:
            return num
        den = ctx.one
        for aid, e in self.den:
            den = den * _subs_poly(ctx, ctx._atoms[aid], idx) ** e
        return num / den

    def evaluate(self, point: Mapping[str, GaussRat]) -> GaussRat:
        """Evaluate at a rational point; all variables must be assigned."""
        ctx = self.ctx
        vals = {ctx._index[n]: v if isinstance(v, GaussRat) else GaussRat(v)
                for n, v in point.items()}
        n = _eval_poly(ctx, self.num, vals)
        d = _eval_poly(ctx, ctx._expand(self.den), vals)
        if d.is_zero:
            raise ZeroDivisionError("denominator vanishes at evaluation point")
        return n / d

    @property
    def is_real(self) -> bool:
        return self.conj() == self

    def variables(self) -> set[str]:
        ctx = self.ctx
        used = 0
        for p in [self.num] + [ctx._atoms[aid] for aid, _ in self.den]:
            for m in p.t:
                used |= m
        return {n for n, s in zip(ctx.names, ctx._shifts) if (used >> s) & _FIELD}

    def laurent_terms(self, x: str, y: str):
        """Split self as x^-dx y^-dy sum_k x^i_k y^j_k c_k, each c_k free of x, y.

        Returns (dx, dy, [(i_k, j_k, c_k), ...]) in descending graded-lex
        order of the numerator's terms.  The denominator may hold the atoms
        x and y themselves and atoms free of both; any other atom raises
        ExactError.
        """
        ctx = self.ctx
        ix, iy = ctx._index[x], ctx._index[y]
        ux, uy = ctx._unit[ix], ctx._unit[iy]
        sx, sy = ctx._shifts[ix], ctx._shifts[iy]
        mask = (_FIELD << sx) | (_FIELD << sy)
        dx = dy = 0
        rest_den = {}
        for aid, e in self.den:
            atom = ctx._atoms[aid]
            if atom.t.keys() == {ux}:
                dx += e
            elif atom.t.keys() == {uy}:
                dy += e
            elif any(m & mask for m in atom.t):
                raise ExactError(f"denominator atom mixes {x} or {y} with other terms")
            else:
                rest_den[aid] = e
        terms = []
        num = self.num
        for m in sorted(num.t, reverse=True):
            i, j = (m >> sx) & _FIELD, (m >> sy) & _FIELD
            c = Expr._make(ctx, _reduced({m - i * ux - j * uy: num.t[m]}, num.d),
                           dict(rest_den))
            terms.append((i, j, c))
        return dx, dy, terms

    # -- rendering -------------------------------------------------------------

    def __str__(self):
        return render(self)

    __repr__ = __str__


class Derivation:
    """X = sum_k c_k d/dx_k with Expr coefficients, applied by one quotient rule.

    The coefficients are brought once over their common denominator D_c, so
    X = Xt / D_c with polynomial coefficients.  For f = n / prod A_i^e_i,

        X(f) = [S Xt(n) - n sum_i e_i (S / A_i) Xt(A_i)] / (D_c prod A_i^e_i S)

    where S is the product of the atoms that X moves (Xt(A_i) != 0).  Xt(A_i)
    is computed once per atom, and the result takes one reduction.
    `Expr.diff` is the case X = d/dx_k.
    """

    __slots__ = ("ctx", "den", "parts", "_moved")

    def __init__(self, ctx: Context, coeffs: Mapping[str, Expr]):
        coeffs = {ctx._index[n]: c for n, c in coeffs.items() if not c.is_zero}
        self.ctx = ctx
        self.den = _lcm_den(c.den for c in coeffs.values())
        # (k, Xt's coefficient of d/dx_k), None standing for 1
        parts = []
        for k, c in coeffs.items():
            ct = _lift(ctx, c.num, c.den, self.den)
            parts.append((k, None if ct == ctx.one.num else ct))
        self.parts = tuple(parts)
        self._moved: dict[int, _ZIPoly] = {}                  # aid -> Xt(atom)

    def _poly(self, p: _ZIPoly) -> _ZIPoly:
        """Xt(p) for a polynomial p."""
        ctx = self.ctx
        return _add(*(ctx._diff_poly(p, k) if ct is None
                      else _mul(ct, ctx._diff_poly(p, k), ctx._top)
                      for k, ct in self.parts))

    def __call__(self, f: Expr) -> Expr:
        ctx, top = self.ctx, self.ctx._top
        moved = []
        for aid, e in f.den:
            dA = self._moved.get(aid)
            if dA is None:
                dA = self._moved[aid] = self._poly(ctx._atoms[aid])
            if dA:
                moved.append((aid, e, dA))
        num = self._poly(f.num)
        den = dict(f.den)
        if moved:
            S = tuple((aid, 1) for aid, _, _ in moved)
            corr = _add(*(_scale(_mul(ctx._expand(S[:j] + S[j + 1:]), dA, top), e, 0, 1)
                          for j, (aid, e, dA) in enumerate(moved)))
            for aid, _, _ in moved:
                den[aid] += 1
            num = _add(_mul(num, ctx._expand(S), top), _neg(_mul(f.num, corr, top)))
        for aid, e in self.den.items():
            den[aid] = den.get(aid, 0) + e
        return Expr._make(ctx, num, den)


def _lcm_den(dens) -> dict:
    """The least common multiple of factored denominators, as {atom: exponent}."""
    out: dict[int, int] = {}
    for den in dens:
        for aid, e in den:
            if e > out.get(aid, 0):
                out[aid] = e
    return out


def _lift(ctx: Context, num: _ZIPoly, den: tuple, to: dict) -> _ZIPoly:
    """num times the atoms of the multiple `to` of den that den lacks."""
    have = dict(den)
    extra = tuple((aid, e - have.get(aid, 0))
                  for aid, e in to.items() if e > have.get(aid, 0))
    return _mul(num, ctx._expand(extra), ctx._top) if extra else num


def _subs_poly(ctx: Context, p: _ZIPoly, idx: Mapping[int, Expr]) -> Expr:
    out = ctx.zero
    for m, c in p.t.items():
        term = Expr(ctx, _reduced({0: c}, p.d), ())
        for k, e in enumerate(ctx._unpack(m)):
            if not e:
                continue
            if k in idx:
                term = term * idx[k] ** e
            else:
                term = term * Expr(ctx, _ZIPoly({e * ctx._unit[k]: (1, 0)}), ())
        out = out + term
    return out


def _eval_poly(ctx: Context, p: _ZIPoly, vals: Mapping[int, GaussRat]) -> GaussRat:
    tot = GaussRat(0)
    for m, (re, im) in p.t.items():
        v = GaussRat(re, im)
        for k, e in enumerate(ctx._unpack(m)):
            if e:
                if k not in vals:
                    raise ExactError(f"unassigned variable {ctx.names[k]!r}")
                v = v * vals[k] ** e
        tot = tot + v
    return tot / p.d


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

def _render_frac(n: int, d: int) -> str:
    """n / d in lowest terms, for d > 0."""
    g = gcd(n, d)
    n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def _render_coeff(c: GaussRat, bare: bool = False) -> str:
    """Render a Gaussian rational; `bare` means it stands alone (no monomial)."""
    a, b, d = c._a, c._b, c._d
    if not b:
        return _render_frac(a, d)
    if not a:
        if b == d:
            return "i"
        if b == -d:
            return "-i"
        return f"{_render_frac(b, d)}*i"
    op = "+" if b > 0 else "-"
    b_abs = abs(b)
    im_s = "i" if b_abs == d else f"{_render_frac(b_abs, d)}*i"
    s = f"{_render_frac(a, d)}{op}{im_s}"
    return s if bare else f"({s})"


def _render_poly(ctx: Context, p: _ZIPoly) -> str:
    if not p:
        return "0"
    parts = []
    for m in sorted(p.t, reverse=True):
        c = p.coeff(m)
        mon = [f"{ctx.names[k]}^{e}" if e > 1 else ctx.names[k]
               for k, e in enumerate(ctx._unpack(m)) if e]
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
    """Fresh context with the standard alphabet (base coordinates, group)."""
    return Context(STANDARD_PAIRS)
