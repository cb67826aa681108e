import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import QQ_I
from sympy.polys.orderings import grlex
from sympy.polys.rings import ring as sympy_ring

from crcartan import exact
from crcartan.exact import (
    Context, Expr, GaussRat, I, Poly, conj, diff, normalize, parse, render,
    standard_context,
)


@pytest.fixture()
def ctx():
    return standard_context()


# ---------------------------------------------------------------------------
# GaussRat
# ---------------------------------------------------------------------------

def test_gaussrat_basics():
    q = GaussRat(Fraction(3, 2), Fraction(-1, 3))
    assert q.conj().conj() == q
    assert q.conj() != q
    r = GaussRat(5, 0)
    assert r.conj() == r and r.is_real
    assert (q * q.conj()).is_real
    assert q / q == GaussRat(1)
    assert q.re.denominator > 0 and q.im.denominator > 0


def test_gaussrat_field_ops():
    a = GaussRat(1, 2)
    b = GaussRat(Fraction(-2, 3), 1)
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * (b + 1) == a * b + a
    with pytest.raises(ZeroDivisionError):
        a / GaussRat(0)


# zero is drawn often, so that zero divisors and zero bases are reached
_FRACTIONS = st.just(Fraction(0)) | st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


def _canonical(g: GaussRat) -> bool:
    """(a + b*i) / d with d > 0 and gcd(a, b, d) = 1; zero is 0/1."""
    a, b, d = g._a, g._b, g._d
    return (all(type(x) is int for x in (a, b, d)) and d > 0
            and math.gcd(a, b, d) == 1 and (a != 0 or b != 0 or d == 1))


def _pair_ops(p, q):
    """+ - * / on (re, im) pairs of Fractions, the reference for GaussRat."""
    (r1, i1), (r2, i2) = p, q
    out = {"+": (r1 + r2, i1 + i2), "-": (r1 - r2, i1 - i2),
           "*": (r1 * r2 - i1 * i2, r1 * i2 + i1 * r2)}
    n = r2 * r2 + i2 * i2
    if n:
        out["/"] = ((r1 * r2 + i1 * i2) / n, (i1 * r2 - r1 * i2) / n)
    return out


def _pair_pow(p, k):
    (r, i), (pr, pi) = p, (Fraction(1), Fraction(0))
    if k < 0:
        n = r * r + i * i
        r, i, k = r / n, -i / n, -k
    for _ in range(k):
        pr, pi = pr * r - pi * i, pr * i + pi * r
    return pr, pi


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_FRACTIONS, _FRACTIONS, _FRACTIONS, _FRACTIONS, st.integers(-3, 4))
def test_gaussrat_against_fraction_pairs(r1, i1, r2, i2, k):
    p, q = GaussRat(r1, i1), GaussRat(r2, i2)
    assert _canonical(p) and _canonical(q)
    assert (p.re, p.im) == (r1, i1)
    # parts() gives the same components as canonical real GaussRats
    assert [(_canonical(x), x.re, x.im) for x in p.parts()] == [(True, r1, 0), (True, i1, 0)]
    ops = {"+": p + q, "-": p - q, "*": p * q}
    if not q.is_zero:
        ops["/"] = p / q
    else:
        with pytest.raises(ZeroDivisionError):
            p / q
    assert set(ops) == set(_pair_ops((r1, i1), (r2, i2)))
    for op, want in _pair_ops((r1, i1), (r2, i2)).items():
        got = ops[op]
        assert _canonical(got)
        assert (got.re, got.im) == want
    if k >= 0 or not p.is_zero:
        got = p ** k
        assert _canonical(got) and (got.re, got.im) == _pair_pow((r1, i1), k)
    # a real value is == to, and hashes like, the int or Fraction it equals
    for g, re in ((p * p.conj(), r1 * r1 + i1 * i1), (GaussRat(r2), r2)):
        assert g.is_real and g == re and hash(g) == hash(re)
        if re.denominator == 1:
            assert g == int(re) and hash(g) == hash(int(re))


def test_gaussrat_zero_and_foreign_operands(ctx):
    zero = GaussRat(Fraction(0, 5), 0)
    assert (zero._a, zero._b, zero._d) == (0, 0, 1)
    assert _canonical(GaussRat(1, 1) - GaussRat(1, 1))
    g = GaussRat(Fraction(1, 2), 3)
    for divisor in (GaussRat(0), 0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            g / divisor
    with pytest.raises(ZeroDivisionError):
        1 / zero
    with pytest.raises(ZeroDivisionError):
        zero ** -1
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            op(g, 0.5)
        with pytest.raises(TypeError):
            op(0.5, g)
    assert ctx.const(1) is ctx.const(GaussRat(1))


# ---------------------------------------------------------------------------
# normalize examples
# ---------------------------------------------------------------------------

def test_normalize_factor_cancellation(ctx):
    x, y = ctx.vars("x", "y")
    num = (x ** 2 - y ** 2).numerator()
    den = (x - y).numerator()
    assert normalize(num, den) == x + y


def test_normalize_zero_numerator(ctx):
    x = ctx.var("x")
    assert normalize(ctx.zero.numerator(), x.numerator()).is_zero


def test_normalize_unit_scaling(ctx):
    x, y = ctx.vars("x", "y")
    num = (ctx.const(GaussRat(0, 2)) * x * y).numerator()
    den = ctx.const(2).numerator()
    assert normalize(num, den) == ctx.const(I) * x * y


def test_normalize_zero_denominator(ctx):
    x = ctx.var("x")
    with pytest.raises(ZeroDivisionError):
        normalize(x.numerator(), ctx.zero.numerator())


def test_normalize_cancels_random_products(ctx):
    rng = random.Random(7)
    for _ in range(25):
        p = _random_poly_expr(ctx, rng)
        q = _random_poly_expr(ctx, rng)
        if q.is_zero:
            continue
        assert normalize((p * q).numerator(), q.numerator()) == p
        assert normalize((p * q).numerator(), (q * q).numerator()) == \
            normalize(p.numerator(), q.numerator())


# ---------------------------------------------------------------------------
# conj examples
# ---------------------------------------------------------------------------

def test_conj_imaginary_unit(ctx):
    x = ctx.var("x")
    assert conj(ctx.const(I) * x) == ctx.const(-I) * x


def test_conj_alphabet_pairing(ctx):
    a, ab, b, bb = ctx.vars("a", "ab", "b", "bb")
    assert conj(a * bb) == ab * b


def test_conj_model_coefficient(ctx):
    # the u1-coefficient of the antiholomorphic frame generator of the cubic
    x, y = ctx.vars("x", "y")
    assert conj(y - ctx.const(I) * x) == y + ctx.const(I) * x


# ---------------------------------------------------------------------------
# diff examples
# ---------------------------------------------------------------------------

def test_diff_polynomial(ctx):
    x, y = ctx.vars("x", "y")
    assert diff(x ** 2 * y, "x") == 2 * x * y


def test_diff_quotient_rule(ctx):
    x = ctx.var("x")
    assert diff(1 / x, "x") == -1 / x ** 2


def test_diff_u_independent(ctx):
    x, y = ctx.vars("x", "y")
    assert diff(x ** 2 + y ** 2, "u1").is_zero


# ---------------------------------------------------------------------------
# random expression helpers
# ---------------------------------------------------------------------------

_VARS = ("x", "y", "u1", "a", "ab")


def _random_poly_expr(ctx, rng, nterms=4, maxdeg=2, maxco=5):
    e = ctx.zero
    for _ in range(rng.randint(1, nterms)):
        t = ctx.const(GaussRat(rng.randint(-maxco, maxco), rng.randint(-maxco, maxco)))
        for v in _VARS:
            t = t * ctx.var(v) ** rng.randint(0, maxdeg)
        e = e + t
    return e


def _random_expr(ctx, rng):
    num = _random_poly_expr(ctx, rng)
    den = ctx.zero
    while den.is_zero:
        den = _random_poly_expr(ctx, rng, nterms=2, maxdeg=1, maxco=3)
    return num / den


# ---------------------------------------------------------------------------
# algebraic laws
# ---------------------------------------------------------------------------

@st.composite
def poly_triples(draw):
    rng = random.Random(draw(st.integers(min_value=0, max_value=10 ** 6)))
    ctx = standard_context()
    return tuple(_random_poly_expr(ctx, rng) for _ in range(3))


@settings(max_examples=60, deadline=None)
@given(poly_triples())
def test_ring_axioms(triple):
    p, q, r = triple
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + q == q + p
    assert p * q == q * p


def test_conj_is_ring_hom_and_involution():
    ctx = standard_context()
    rng = random.Random(11)
    for _ in range(1000):
        e1 = _random_expr(ctx, rng)
        e2 = _random_expr(ctx, rng)
        assert conj(conj(e1)) == e1
        assert conj(e1 * e2) == conj(e1) * conj(e2)
        assert conj(e1 + e2) == conj(e1) + conj(e2)


def test_conj_fixes_real_base_expressions(ctx):
    x, y, u1 = ctx.vars("x", "y", "u1")
    e = (x ** 2 + 3 * y * u1) / (1 + x ** 2)
    assert conj(e) == e
    assert e.is_real


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_diff_leibniz(seed):
    ctx = standard_context()
    rng = random.Random(seed)
    e1 = _random_expr(ctx, rng)
    e2 = _random_expr(ctx, rng)
    v = rng.choice(_VARS)
    assert diff(e1 * e2, v) == diff(e1, v) * e2 + e1 * diff(e2, v)


def test_equality_via_cross_multiplication(ctx):
    x, y = ctx.vars("x", "y")
    e1 = (x ** 2 - y ** 2) / (x + y)
    e2 = ((x - y) * (x + 1)) / (x + 1)
    assert e1 == e2
    assert not (e1 == e2 + 1)


def test_denominator_is_monic(ctx):
    x, y = ctx.vars("x", "y")
    e = x / (3 * y + 3 * x)
    lead = sorted(e.denominator().terms().items())[-1]
    assert lead[1] == GaussRat(1)


# ---------------------------------------------------------------------------
# rendering round trip
# ---------------------------------------------------------------------------

def test_render_parse_examples(ctx):
    samples = [
        "x + y",
        "2*x^2 - 1/3*y",
        "i*x*y",
        "(1+2*i)*x - i",
        "(x^2 + y^2)/(x + i*y)",
    ]
    for s in samples:
        e = parse(ctx, s)
        assert parse(ctx, render(e)) == e


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_render_parse_roundtrip(seed):
    ctx = standard_context()
    rng = random.Random(seed)
    e = _random_expr(ctx, rng)
    assert parse(ctx, render(e)) == e


def test_parse_errors(ctx):
    with pytest.raises(Exception):
        parse(ctx, "x + * y")
    with pytest.raises(Exception):
        parse(ctx, "unknownvar + 1")
    with pytest.raises(Exception):
        parse(ctx, "(x + y")


# ---------------------------------------------------------------------------
# misc API
# ---------------------------------------------------------------------------

def test_exponent_overflow_is_an_error(ctx):
    x, y = ctx.vars("x", "y")
    big = x ** (2 ** 14) * y ** (2 ** 14 - 1)      # total degree 2^15 - 1 fits
    assert big.numerator().total_degree() == 2 ** 15 - 1
    with pytest.raises(exact.ExactError):
        big * x
    with pytest.raises(exact.ExactError):
        y ** (2 ** 15)
    with pytest.raises(exact.ExactError):
        Poly.from_terms(ctx, {(2 ** 15,) + (0,) * (len(ctx.names) - 1): GaussRat(1)})


def test_poly_terms_roundtrip(ctx):
    x, y = ctx.vars("x", "y")
    p = (2 * x * y - y ** 3 + ctx.const(I)).numerator()
    q = Poly.from_terms(ctx, p.terms())
    assert q == p


def test_evaluate(ctx):
    x, y = ctx.vars("x", "y")
    e = (x ** 2 + y) / (x + 1)
    v = e.evaluate({n: GaussRat(0) for n in ctx.names} | {"x": GaussRat(2), "y": GaussRat(1)})
    assert v == GaussRat(Fraction(5, 3))


def test_subs(ctx):
    x, y = ctx.vars("x", "y")
    e = x ** 2 + y
    assert e.subs({"x": y}) == y ** 2 + y
    f = 1 / (x + y)
    assert f.subs({"x": ctx.const(1)}) == 1 / (1 + y)


# ---------------------------------------------------------------------------
# per-Context caches
# ---------------------------------------------------------------------------

# atoms: x*a + i*x*ab + 1 depends on x and conjugates to -i times a registered
# atom (a non-real scale); y^2 + 1 and x*y + 2 are a second and third atom,
# and y^2 + 1 is free of x
CACHE_EXPRS = ("(x^2*a + y)/((x*a + i*x*ab + 1)^2*(y^2 + 1))",
               "(x - ab)/((x*a + i*x*ab + 1)*(x*y + 2))")

CACHE_OPS = {
    "diff": lambda e, f: e.diff("x"),
    "conj": lambda e, f: e.conj(),
    "add": lambda e, f: e + f,
    "mul": lambda e, f: e * f,
    "inverse": lambda e, f: e.inverse(),
}


def _cache_operands(c):
    for atom in ("x*a + i*x*ab + 1", "y^2 + 1", "x*y + 2"):
        parse(c, atom).inverse()      # register the atoms one by one
    return [parse(c, s) for s in CACHE_EXPRS]


def test_cache_atoms_cover_the_cases():
    c = standard_context()
    e, f = _cache_operands(c)
    assert len(e.den) == 2 and len(f.den) == 2
    assert any(not c._conj_scale(aid).is_real for aid, _ in e.den)
    assert any("x" not in Poly(c, c._atoms[aid]).as_expr().variables()
               for aid, _ in e.den)


@pytest.mark.parametrize("op", sorted(CACHE_OPS))
def test_cache_warm_equals_cold(op):
    warm = standard_context()
    e, f = _cache_operands(warm)
    for g in CACHE_OPS.values():      # fill every cache
        g(e, f), g(f, e), g(e, e)
    assert warm._expanded and warm._partials and warm._conj_scales
    assert warm._atom_images
    cold = standard_context()
    ce, cf = _cache_operands(cold)
    for (a, b), (ca, cb) in zip([(e, f), (f, e), (e, e)],
                                [(ce, cf), (cf, ce), (ce, ce)]):
        hot, fresh = CACHE_OPS[op](a, b), CACHE_OPS[op](ca, cb)
        assert str(hot) == str(fresh)
        assert hash(hot) == hash(fresh)


def test_cache_diff_and_conj_by_hand():
    c = standard_context()
    n, A, B = (parse(c, s) for s in ("x^2*a + y", "x*a + i*x*ab + 1", "y^2 + 1"))
    e = _cache_operands(c)[0]
    assert e == n / (A ** 2 * B) and e.den[0][1] == 2
    assert B.diff("x").is_zero
    for _ in range(2):                # cold, then warm
        assert e.denominator() == (A ** 2 * B).numerator()
        for v in ("x", "y"):
            dn, dA, dB = n.diff(v), A.diff(v), B.diff(v)
            assert e.diff(v) == (dn * A * B - n * (2 * dA * B + A * dB)) / (A ** 3 * B ** 2)
        assert e.conj() == n.conj() / (A.conj() ** 2 * B.conj())


def test_cache_contexts_share_no_entry():
    c1, c2 = standard_context(), standard_context()
    e1 = parse(c1, "1/((x + 1)*(a + i*ab))")
    e2 = parse(c2, "1/((y + 2)*(a + i*ab))")
    assert e1.den == e2.den           # same atom ids, different atoms
    for e in (e1, e2):
        e.diff("x"), e.diff("y"), e.conj(), e + 1, e.denominator()
    for name in ("_expanded", "_partials", "_conj_scales", "_consts",
                 "_atom_images"):
        d1, d2 = getattr(c1, name), getattr(c2, name)
        assert d1 is not d2
        assert not any(v is w for v in d1.values() for w in d2.values()), name
    assert str(e1.denominator()) == str(parse(c1, "(x + 1)*(a + i*ab)").numerator())
    assert str(e2.denominator()) == str(parse(c2, "(y + 2)*(a + i*ab)").numerator())
    assert e1.diff("y").is_zero and e2.diff("x").is_zero
    assert c1.const(3).ctx is c1 and c2.const(3).ctx is c2


def test_foreign_operand_is_a_type_error(ctx):
    with pytest.raises(TypeError):
        ctx.one + 1.5
    with pytest.raises(TypeError):
        1.5 / ctx.one
    g = GaussRat(1, 1)
    with pytest.raises(TypeError, match="GaussRat"):
        1.5 / g
    with pytest.raises(TypeError, match="GaussRat"):
        1.5 - g
    with pytest.raises(TypeError, match="GaussRat"):
        g ** 0.5
    with pytest.raises(TypeError, match="GaussRat"):
        g ** -0.5


def _number(kind, num, den, im):
    """num/den + im*i as an int, a Fraction or a GaussRat (None: not that kind)."""
    if kind == "int":
        return num if den == 1 and not im else None
    if kind == "Fraction":
        return Fraction(num, den) if not im else None
    return GaussRat(Fraction(num, den), im)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(*[st.tuples(st.sampled_from(("int", "Fraction", "GaussRat")),
                   st.integers(-3, 3), st.integers(1, 3), st.integers(-1, 1))] * 2)
def test_equal_numbers_hash_equal(u, v):
    a, b = _number(*u), _number(*v)
    if a is None or b is None or a != b:
        return
    assert hash(a) == hash(b)
    assert {a: 1}.get(b) == 1


def test_const_cache_keys_by_value(ctx):
    assert ctx.const(2) is ctx.const(GaussRat(2))
    assert ctx.const(Fraction(1, 2)) is ctx.const(GaussRat(Fraction(1, 2)))


# ---------------------------------------------------------------------------
# derivations: one quotient rule, checked against the term-by-term rules
# ---------------------------------------------------------------------------

def _old_quotient_rule(e, name):
    """d e / d name by the quotient rule that multiplies in every atom:

        d(n / prod A^e) = [n' prod A - n sum e_i A_i' prod_{j != i} A_j] / prod A^(e+1)

    with the atoms free of the variable divided back out by the reduction.
    """
    c = e.ctx
    k, top = c.names.index(name), c._top
    simple = tuple((aid, 1) for aid, _ in e.den)
    corr = c.zero.num
    for j, (aid, ex) in enumerate(e.den):
        dA = c._diff_poly(c._atoms[aid], k)
        if dA:
            t = exact._mul(c._expand(simple[:j] + simple[j + 1:]), dA, top)
            corr = exact._add(corr, exact._scale(t, ex, 0, 1))
    num = exact._mul(c._diff_poly(e.num, k), c._expand(simple), top)
    num = exact._add(num, exact._neg(exact._mul(e.num, corr, top)))
    return Expr._make(c, num, {aid: ex + 1 for aid, ex in e.den})


def _fold_derivation(coeffs, f):
    """sum_k c_k * d f / d x_k, one `+` per term."""
    out = f.ctx.zero
    for name, c in coeffs.items():
        if not c.is_zero:
            out = out + c * f.diff(name)
    return out


# a moved atom, an atom free of x, and the monomial atom ab
_DERIVATION_ATOMS = ("x*a + i*x*ab + 1", "y^2 + 1", "ab")


def _derivation_case(c, rng):
    """n / (A^e1 * B^e2 * ab^e3 * D): B and ab are free of x, D is random."""
    atoms = [parse(c, t) for t in _DERIVATION_ATOMS]
    for A in atoms:
        A.inverse()                   # register the atoms one by one
    den = c.zero
    while den.is_zero:
        den = _random_poly_expr(c, rng, nterms=2, maxdeg=1, maxco=3)
    for A in atoms:
        den = den * A ** rng.randint(1, 3)
    return _random_poly_expr(c, rng) / den


def test_derivation_cases_reach_every_shape():
    c = standard_context()
    rng = random.Random(5)
    cases = [_derivation_case(c, rng) for _ in range(12)]
    free = [aid for aid, A in enumerate(c._atoms)
            if not (Poly(c, A).as_expr().variables() & {"x"})]
    assert any(aid in free for f in cases for aid, _ in f.den)
    assert any(ex > 1 and aid not in free for f in cases for aid, ex in f.den)


@pytest.mark.parametrize("seed", range(6))
def test_diff_equals_old_quotient_rule(seed):
    c = standard_context()
    rng = random.Random(seed)
    for _ in range(6):
        f = _derivation_case(c, rng)
        for name in ("x", "y", "a", "ab", "u2"):
            assert f.diff(name) == _old_quotient_rule(f, name), name


@pytest.mark.parametrize("seed", range(6))
def test_derivation_equals_term_by_term_fold(seed):
    c = standard_context()
    rng = random.Random(100 + seed)
    for _ in range(4):
        f = _derivation_case(c, rng)
        coeffs = {"x": _random_expr(c, rng), "y": c.zero, "u1": _random_expr(c, rng),
                  "a": _random_poly_expr(c, rng), "ab": c.one}
        X = exact.Derivation(c, coeffs)
        assert X(f) == _fold_derivation(coeffs, f)
        assert X(f.numerator().as_expr()) == _fold_derivation(coeffs, f.numerator().as_expr())
    assert exact.Derivation(c, {"x": c.zero})(f).is_zero


def test_diff_divides_out_no_atom_it_does_not_move():
    """An atom free of the variable is never multiplied in and divided back out."""
    c = standard_context()
    rng = random.Random(7)
    cases = [_derivation_case(c, rng) for _ in range(8)]
    exact_div, divided = c._exact_div, []

    def recording(num, aid, images):
        q = exact_div(num, aid, images)
        if q is not None:
            divided.append(aid)
        return q

    c._exact_div = recording
    for f in cases:
        for name in ("x", "y"):
            divided.clear()
            f.diff(name)
            moved = {aid for aid, _ in f.den if c._diff_poly(c._atoms[aid], c.names.index(name))}
            assert set(divided) <= moved, name


# ---------------------------------------------------------------------------
# Context.sum: one reduction, checked against the left fold of +
# ---------------------------------------------------------------------------

def _fold_sum(c, terms):
    out = c.zero
    for t in terms:
        if isinstance(t, tuple):
            p = c.one
            for f in t:
                p = p * f
            t = p
        out = out + t
    return out


def test_sum_edge_cases(ctx):
    x, y = ctx.vars("x", "y")
    e = (x + 1) / (y ** 2 + 1)
    assert ctx.sum() == ctx.zero and ctx.sum().is_zero
    assert ctx.sum(0, ctx.zero, (x, 0), (0, e)).is_zero
    assert ctx.sum(e) is e
    assert ctx.sum((2, GaussRat(1, 3), e, x)) == 2 * GaussRat(1, 3) * e * x
    assert ctx.sum(e, (-1, e)).is_zero
    assert ctx.sum(e, (x, y), -e, (-1, y, x)).is_zero
    assert ctx.sum(3, GaussRat(0, 1), Fraction(1, 2)) == ctx.const(GaussRat(Fraction(7, 2), 1))
    with pytest.raises(TypeError):
        ctx.sum((x, 1.5))
    with pytest.raises(exact.ExactError):
        ctx.sum(e, (standard_context().one, x))


@pytest.mark.parametrize("seed", range(8))
def test_sum_equals_left_fold(seed):
    c = standard_context()
    rng = random.Random(200 + seed)
    pool = [_random_expr(c, rng) for _ in range(4)] + [_random_poly_expr(c, rng)]
    terms = []
    for _ in range(rng.randint(2, 9)):
        shape = rng.randrange(4)
        if shape == 0:
            terms.append(rng.choice(pool))
        elif shape == 1:
            terms.append(rng.choice((1, -2, GaussRat(1, -1), Fraction(1, 3))))
        else:
            terms.append((rng.choice((1, -3, GaussRat(0, 2))),)
                         + tuple(rng.choice(pool) for _ in range(shape)))
    if seed % 2:
        terms += [(-1,) + t if isinstance(t, tuple) else -t for t in terms]
    total = c.sum(*terms)
    assert total == _fold_sum(c, terms)
    assert total.is_zero == bool(seed % 2)


# ---------------------------------------------------------------------------
# an independent reference: sympy's sparse polynomials over QQ_I
# ---------------------------------------------------------------------------

def _ref_ring(c):
    """The reference ring of a context: its variables, graded-lex, over QQ_I."""
    return sympy_ring(",".join(c.names), QQ_I, order=grlex)[0]


def _to_ref(ring, poly):
    """A `Poly` as a reference ring element, read through `Poly.terms()`."""
    return ring.from_dict({m: QQ_I.new(g.re, g.im) for m, g in poly.terms().items()})


def _ref_terms(p):
    """A reference element as {exponent tuple: GaussRat}, descending grlex."""
    def rat(q):
        return Fraction(int(q.numerator), int(q.denominator))
    return {m: GaussRat(rat(co.x), rat(co.y))
            for m, co in sorted(p.iterterms(), key=lambda t: grlex(t[0]), reverse=True)}


def _ref_conj(c, ring, p):
    """Conjugation in the reference: swap paired variables, conjugate i."""
    perm = [c.names.index(c.conj_name(n)) for n in c.names]
    out = {}
    for m, co in p.iterterms():
        m2 = [0] * len(m)
        for k, e in enumerate(m):
            m2[perm[k]] = e
        out[tuple(m2)] = QQ_I.new(co.x, -co.y)
    return ring.from_dict(out)


# ---------------------------------------------------------------------------
# reduction against plain trial division
# ---------------------------------------------------------------------------

def _trial_div(ring, f, g):
    """f // g in the reference ring when the division is exact, else None."""
    if not f:
        return ring.zero
    lm_g = g.leading_expv()
    lc_g = g[lm_g]
    quo, rem = {}, f
    while rem:
        lm_r = rem.leading_expv()
        m = ring.monomial_div(lm_r, lm_g)
        if m is None:
            return None
        c = rem[lm_r] / lc_g
        quo[m] = c
        rem = rem - g.mul_term((m, c))
    return ring.from_dict(quo)


def _trial_reduce(c, num, den):
    """What `Expr._reduce` returns, by `_trial_div` against each atom.

    num is a `Poly`; the result's numerator is a reference ring element.
    """
    ring = _ref_ring(c)
    num = _to_ref(ring, num)
    if not num:
        return num, {}
    for aid in list(den):
        while den.get(aid, 0) > 0:
            q = _trial_div(ring, num, _to_ref(ring, Poly(c, c._atoms[aid])))
            if q is None:
                break
            num = q
            den[aid] -= 1
            if not den[aid]:
                del den[aid]
    return num, den


def _reduction_atoms(c):
    """Monic atoms for every path of the reduction, registered in this order.

    Three monomial atoms; two atoms whose certificate image is constant or
    zero (x is the free variable of `x*y`, and y goes to c._points[0][1]);
    an atom with a coefficient of denominator P; four general atoms.
    """
    p, P = c._points[0][1], exact._P
    texts = ["a*ab^2", "x*y^2", "a", f"x*y - {p}*x + y^2", f"x*y - {p}*x",
             f"x + y/{P}", "x^2 + y^2 - 2", "x*a + i*x*ab + 1", "y*ab - a + 3",
             "u1^2 - x"]
    atoms = [parse(c, t) for t in texts]
    for atom in atoms:
        atom.inverse()
    return atoms


def _sparse_poly(c, rng, P):
    """1-3 terms in x, y, u1, a, ab; some coefficients have denominator P."""
    e = c.zero
    for _ in range(rng.randint(1, 3)):
        co = GaussRat(rng.randint(-3, 3), rng.randint(-2, 2))
        if co.is_zero:
            co = GaussRat(1)
        if rng.random() < 0.2:
            co = co / P
        t = c.const(co)
        for v in _VARS:
            t = t * c.var(v) ** rng.choice((0, 0, 1, 2))
        e = e + t
    return e


def _reduction_case(seed, c=None):
    """A context, a numerator with true atom factors, and a denominator."""
    c = c or standard_context()
    rng = random.Random(seed)
    atoms = _reduction_atoms(c)
    num = _sparse_poly(c, rng, exact._P)
    for _ in range(rng.randint(0, 3)):
        num = num * rng.choice(atoms)
    den = {aid: rng.randint(1, 3)
           for aid in rng.sample(range(len(c._atoms)), rng.randint(1, 4))}
    return c, num, den, rng, atoms


def _trial_context():
    """A standard context whose every division is `_trial_div` in the reference."""
    c = standard_context()
    ring = _ref_ring(c)

    def exact_div(f, aid, images):
        q = _trial_div(ring, _to_ref(ring, Poly(c, f)),
                       _to_ref(ring, Poly(c, c._atoms[aid])))
        return None if q is None else Poly.from_terms(c, _ref_terms(q)).p

    c._exact_div = exact_div
    return c


def test_reduction_cases_are_reached():
    c, num, _, _, atoms = _reduction_case(0)
    aid = [c._atoms.index(a.num) for a in atoms]
    for a in atoms:
        Expr._make(c, (num * a).num, {k: 2 for k in aid})
    images = c._atom_images
    assert not any(k[0] in aid[:3] for k in images)           # shifted
    for k in aid[3:6]:                                        # no usable image
        assert [g for key, g in images.items() if key[0] == k] == [None]
    for k in aid[6:]:
        assert [g for key, g in images.items() if key[0] == k][0]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_reduction_equals_trial_division(seed):
    c, num, den, _, _ = _reduction_case(seed)
    e = Expr._make(c, num.num, dict(den))
    ref_num, ref_den = _trial_reduce(c, num.numerator(), dict(den))
    assert list(e.numerator().terms().items()) == list(_ref_terms(ref_num).items())
    assert e.den == tuple(sorted(ref_den.items()))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_product_then_quotient_is_exact(seed):
    results = []
    for c in (standard_context(), _trial_context()):
        _, num, den, rng, atoms = _reduction_case(seed, c)
        f = Expr._make(c, num.num, dict(den))
        g = _sparse_poly(c, rng, exact._P) * rng.choice(atoms)
        h = (f * g) / g
        assert h == f
        results.append([(list(e.numerator().terms().items()), e.den)
                        for e in (f, f * g, h)])
    assert results[0] == results[1]


# ---------------------------------------------------------------------------
# the kernel against the reference, operation by operation
# ---------------------------------------------------------------------------

#: atoms of every kind: 2x + 1 + i has Z[i] content 1 + i, so with a factor
#: 1/(1+i) = (1-i)/2 in the quotient its monic form x + (1+i)/2 gives
#: long-division steps the integer denominator 2 does not divide; two
#: monomial atoms; one coefficient of denominator P
_REF_ATOMS = ("2*x + 1 + i", "a*ab^2", "x*y^2", f"x + y/{exact._P}",
              "x^2 + y^2 - 2", "y*ab - a + 3")


def _ref_pair(ring, e):
    """An Expr as (numerator, denominator) in the reference ring."""
    return _to_ref(ring, e.numerator()), _to_ref(ring, e.denominator())


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_kernel_matches_reference(seed):
    c = standard_context()
    ring = _ref_ring(c)
    rng = random.Random(seed)
    atoms = [parse(c, t) for t in _REF_ATOMS]
    x = ring.gens[c.names.index("x")]
    p = _sparse_poly(c, rng, exact._P) * rng.choice(atoms)
    if rng.random() < 0.5:
        p = p / (1 + c.const(I))
    q = c.zero
    while q.is_zero:                  # two terms of _sparse_poly may cancel
        q = _sparse_poly(c, rng, exact._P)
    P, Q = _to_ref(ring, p.numerator()), _to_ref(ring, q.numerator())
    polynomial = {
        "+": (p + q, P + Q), "-": (p - q, P - Q), "*": (p * q, P * Q),
        "**": (p ** 3, P ** 3), "diff": (p.diff("x"), P.diff(x)),
        "conj": (p.conj(), _ref_conj(c, ring, P)),
        "subs": (p.subs({"x": q}), P.compose(x, Q)),
    }
    for name, (e, ref) in polynomial.items():
        assert e.is_polynomial, name
        assert list(e.numerator().terms().items()) == list(_ref_terms(ref).items()), name
    # exact quotients: by each atom, and by a product of atoms
    for A in atoms + [atoms[0] ** 2 * rng.choice(atoms)]:
        RA = _to_ref(ring, A.numerator())
        f = p * q * A
        e = f / A
        assert e.is_polynomial
        ref = _trial_div(ring, _to_ref(ring, f.numerator()), RA)
        assert list(e.numerator().terms().items()) == list(_ref_terms(ref).items())
        assert ref == P * Q
    # rational functions, compared by cross multiplication
    r = p / rng.choice(atoms)
    s = q / (rng.choice(atoms) * rng.choice(atoms))
    (N1, D1), (N2, D2) = _ref_pair(ring, r), _ref_pair(ring, s)
    rational = {
        "+": (r + s, N1 * D2 + N2 * D1, D1 * D2),
        "-": (r - s, N1 * D2 - N2 * D1, D1 * D2),
        "*": (r * s, N1 * N2, D1 * D2),
        "/": (r / s, N1 * D2, D1 * N2),
        "**": (r ** 2, N1 ** 2, D1 ** 2),
        "diff": (r.diff("x"), N1.diff(x) * D1 - N1 * D1.diff(x), D1 ** 2),
        "conj": (r.conj(), _ref_conj(c, ring, N1), _ref_conj(c, ring, D1)),
    }
    if D1.compose(x, Q):              # else the substitution zeroes the denominator
        rational["subs"] = (r.subs({"x": q}), N1.compose(x, Q), D1.compose(x, Q))
    for name, (e, N, D) in rational.items():
        EN, ED = _ref_pair(ring, e)
        assert EN * D == N * ED, name
