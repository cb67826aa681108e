import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    assert any(not GaussRat._from_domain(c._conj_scale(aid)).is_real
               for aid, _ in e.den)
    assert any("x" not in Poly(c, c._atoms[aid]).as_expr().variables()
               for aid, _ in e.den)


@pytest.mark.parametrize("op", sorted(CACHE_OPS))
def test_cache_warm_equals_cold(op):
    warm = standard_context()
    e, f = _cache_operands(warm)
    for g in CACHE_OPS.values():      # fill every cache
        g(e, f), g(f, e), g(e, e)
    assert warm._expanded and warm._atom_derivs and warm._conj_scales
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
    for name in ("_expanded", "_atom_derivs", "_conj_scales", "_consts"):
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
