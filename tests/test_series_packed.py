"""A truncated series is one packed integer vector at one precision.

The linear operations must give, in (v, unit, absprec), what the
per-coefficient rule gives: ``PadicScalar`` arithmetic on the
coefficients, cut to their least absprec.  The products (``*``,
``compose``, ``reciprocal``, ``reversion``) must give the coefficients of
the ``PadicScalar`` schoolbook sums, Horner steps and recursions, each
reduced to the precision of the packed rule, which these sums are known
to at least.  Scalar evaluation must give what the ``PadicScalar`` Horner
loop gives.  None of the oracles below reads the packed triple.
"""

import random
from fractions import Fraction

import pytest

from padiclab import InvalidInputError, PrecisionError, PrimeContext, TruncatedSeries
from padiclab.core import PadicScalar
from conftest import from_rationals

PRIMES = [3, 5, 7]


def _triples(coeffs):
    return [(c.v, c.unit, c.absprec) for c in coeffs]


def _cut(coeffs):
    """Test-only oracle: the coefficients at their least absprec."""
    least = min(c.absprec for c in coeffs)
    return [c.reduce_absprec(least) for c in coeffs]


def _reduced(coeffs, absprec):
    """The coefficients reduced to absprec, which each must reach."""
    assert all(c.absprec >= absprec for c in coeffs)
    return [c.reduce_absprec(absprec) for c in coeffs]


def _scale_and_prec(coeffs):
    """(D, A): the denominator exponent max(0, -least valuation of a
    nonzero coefficient) and the least absprec."""
    vs = [c.v for c in coeffs if not c.is_zero]
    return max([0] + [-v for v in vs]), min(c.absprec for c in coeffs)


def _outcome(thunk):
    """Coefficients in (v, unit, absprec), or the class of the error."""
    try:
        r = thunk()
    except (PrecisionError, InvalidInputError) as exc:
        return type(exc)
    return _triples(r.coeffs if isinstance(r, TruncatedSeries) else r)


def _series(ctx, rng, order, inner=False, integral=False, unit_head=False, top=None):
    """A seeded series: absprecs ragged below top (wprec by default), zero
    coefficients and, unless integral, denominators up to p^3."""
    p = ctx.p
    top = ctx.wprec if top is None else top
    coeffs = []
    for i in range(order + 1):
        a = top - rng.randrange(10)
        kind = rng.randrange(4)
        if (inner and i == 0) or kind == 0:
            coeffs.append(ctx.zero(a))
            continue
        den = 1 if integral or kind == 1 else p ** rng.randrange(1, 4)
        coeffs.append(ctx.scalar(Fraction(rng.randrange(1, p**14), den), a))
    if unit_head:
        coeffs[1 if inner else 0] = ctx.scalar(1 + p * rng.randrange(p**6), top)
    return TruncatedSeries.from_scalars(ctx, coeffs)


def _cases(p):
    ctx = PrimeContext(p, 12)
    rng = random.Random(500 + p)
    xs = [_series(ctx, rng, order) for order in (0, 1, 4, 9, 9, 13)]
    # above wprec, where a constant or a coefficient at wprec caps the result
    xs.append(_series(ctx, rng, 10, top=ctx.wprec + 20))
    xs.append(TruncatedSeries.zero(ctx, 5, 20))
    xs.append(from_rationals(ctx, [0, Fraction(1, p**2), 0, p**3]))
    return ctx, rng, xs


def _product(a, b):
    """Test-only oracle: the schoolbook product of the coefficients to
    the larger order, reduced to min(A_a - D_b, A_b - D_a)."""
    (da, ea), (db, eb) = _scale_and_prec(a), _scale_and_prec(b)
    ctx = a[0].ctx
    out = []
    for k in range(max(len(a), len(b))):
        s = ctx.zero(2 * ctx.wprec)
        for i in range(min(k + 1, len(a))):
            if k - i < len(b):
                s = s + a[i] * b[k - i]
        out.append(s)
    return _reduced(out, min(ea - db, eb - da))


def _compose(f, g):
    """Test-only oracle: sum_j f_j g^j to the larger order in PadicScalar
    arithmetic, reduced to min(E_f, E_g - max_(j>=1) D_j)."""
    order = max(len(f), len(g)) - 1
    ctx = f[0].ctx
    g = (list(g) + [ctx.zero(2 * ctx.wprec)] * order)[: order + 1]
    out = [f[0]] + [ctx.zero(2 * ctx.wprec)] * order
    power = [ctx.one(2 * ctx.wprec)] + [ctx.zero(2 * ctx.wprec)] * order
    for fj in f[1:]:
        power = _product(power, g)[: order + 1]
        out = [o + fj * c for o, c in zip(out, power)]
    prec = min(c.absprec for c in f)
    tail = [-c.v for c in f[1:] if not c.is_zero]
    if len(f) > 1:
        prec = min(prec, min(c.absprec for c in g) - max([0] + tail))
    return _reduced(out, prec)


def _reciprocal(f):
    """Test-only oracle: r_m = -r_0 sum f_j r_(m-j) in PadicScalar
    arithmetic, reduced to the least absprec of f."""
    r0 = f[0].inverse()
    out = [r0]
    for m in range(1, len(f)):
        s = f[0].ctx.zero(2 * f[0].ctx.wprec)
        for j in range(1, m + 1):
            s = s + f[j] * out[m - j]
        out.append(-s * r0)
    return _reduced(out, min(c.absprec for c in f))


def _reversion(f):
    """Test-only oracle: g_m = -(sum_(j>=2) f_j (g^j)_m) / f_1 degree by
    degree, g_1 = X_1 / f_1 with X exact, in PadicScalar arithmetic,
    reduced to the least absprec of f."""
    ctx = f[0].ctx
    zero = ctx.zero(2 * ctx.wprec)
    g = [zero, ctx.one(2 * ctx.wprec) / f[1]]
    for m in range(2, len(f)):
        trial = g + [zero]
        power = trial
        s = zero
        for j in range(2, m + 1):
            power = _product(power, trial)
            s = s + f[j] * power[m]
        g.append(-s / f[1])
    return _reduced(g, min(c.absprec for c in f))


def _horner(coeffs, x):
    """Test-only oracle: Horner's loop in PadicScalar arithmetic."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


@pytest.mark.parametrize("p", PRIMES)
def test_linear_operations_match_the_per_coefficient_rule(p):
    ctx, rng, xs = _cases(p)
    scalars = [
        3,
        0,
        7 * p**2,
        Fraction(2, p**3),
        Fraction(p**2, 5),
        ctx.scalar(rng.randrange(1, p**20) * p, 18),
        ctx.scalar(Fraction(rng.randrange(1, p**20), p), 15),
        ctx.zero(9),
    ]
    for x in xs:
        c = x.coeffs
        assert _triples((-x).coeffs) == _triples(_cut([-a for a in c]))
        for s in scalars:
            assert _triples(x.scale(s).coeffs) == _triples(_cut([a * s for a in c]))
        worst = min(a.min_valuation() for a in c)
        assert x.is_integral() == (worst >= 0, worst)
        for order in (0, 2, 20):
            assert _triples(x.truncate(order).coeffs) == _triples(_cut(c[: order + 1]))
        for y in xs:
            d = y.coeffs
            n = max(len(c), len(d))
            pad = [None] * n
            pairs = list(zip(list(c) + pad[len(c) :], list(d) + pad[len(d) :]))
            plus = [b if a is None else a if b is None else a + b for a, b in pairs]
            minus = [-b if a is None else a if b is None else a - b for a, b in pairs]
            assert _triples((x + y).coeffs) == _triples(_cut(plus))
            assert _triples((x - y).coeffs) == _triples(_cut(minus))


@pytest.mark.parametrize("p", PRIMES)
def test_derivative_and_integral_match_the_per_coefficient_rule(p):
    ctx, _, xs = _cases(p)
    for x in xs:
        c = x.coeffs
        want = [ctx.zero()] if len(c) == 1 else _cut([a * i for i, a in enumerate(c)][1:])
        assert _triples(x.derivative().coeffs) == _triples(want)
        want = _cut([ctx.zero()] + [a / (i + 1) for i, a in enumerate(c)])
        assert _triples(x.integrate().coeffs) == _triples(want)


@pytest.mark.parametrize("p", PRIMES)
def test_products_match_the_scalar_sums(p):
    ctx, rng, xs = _cases(p)
    for x in xs:
        for y in xs:
            assert _outcome(lambda: x * y) == _outcome(lambda: _product(x.coeffs, y.coeffs))
    inners = [_series(ctx, rng, order, inner=True, integral=True) for order in (1, 5, 11)]
    inners.append(from_rationals(ctx, [0, p, 0, 1]))
    for f in xs:
        for g in inners:
            assert _outcome(lambda: f.compose(g)) == _outcome(lambda: _compose(f.coeffs, g.coeffs))


@pytest.mark.parametrize("p", PRIMES)
def test_reciprocal_and_reversion_match_the_scalar_recursions(p):
    ctx, rng, _ = _cases(p)
    for order in (0, 1, 6, 12):
        f = _series(ctx, rng, order, integral=True, unit_head=True)
        assert _triples(f.reciprocal().coeffs) == _triples(_reciprocal(f.coeffs))
    for order, top in ((1, None), (2, None), (7, None), (12, None), (7, ctx.wprec + 20)):
        f = _series(ctx, rng, order, inner=True, integral=True, unit_head=True, top=top)
        assert _triples(f.reversion().coeffs) == _triples(_reversion(f.coeffs))
    # a denominator, a non-unit head and a constant term are refused
    with pytest.raises(InvalidInputError, match=r"integral series \(valuation -2\)"):
        from_rationals(ctx, [1, 1, Fraction(1, p**2)]).reciprocal()
    with pytest.raises(InvalidInputError, match="unit constant term"):
        from_rationals(ctx, [p, 1, 1]).reciprocal()
    with pytest.raises(InvalidInputError, match="unit linear coefficient"):
        from_rationals(ctx, [0, p, 1]).reversion()
    with pytest.raises(InvalidInputError, match="f\\(0\\) = 0"):
        from_rationals(ctx, [1, 1, 1]).reversion()


@pytest.mark.parametrize("p", PRIMES)
def test_scalar_evaluation_matches_the_scalar_horner_loop(p):
    # x above, at and below the series' absprec, zero at several
    # precisions, and a series zero at precision (the difference that
    # honda.epsilon-residual reads)
    ctx, rng, xs = _cases(p)
    xs.append(from_rationals(ctx, [p**40, 0, p**40], 30))
    points = [ctx.zero(a) for a in (0, 5, ctx.wprec, ctx.wprec + 9)]
    for v in (1, 2, 5):
        for a in (v + 1, ctx.prec, ctx.wprec - 3, ctx.wprec + 7):
            points.append(ctx.scalar(p**v * (1 + p * rng.randrange(p**30)), a))
    for f in xs:
        c = f.coeffs
        for x in points:
            got, want = f.eval_scalar(x), _horner(c, x)
            assert (got.v, got.unit, got.absprec) == (want.v, want.unit, want.absprec)


@pytest.mark.parametrize("p", [3, 7])
def test_series_operations_make_no_scalars(p, monkeypatch):
    ctx, rng, xs = _cases(p)
    x, y = xs[3], xs[4]
    f = _series(ctx, rng, 9, integral=True, unit_head=True)
    g = _series(ctx, rng, 9, inner=True, integral=True, unit_head=True)
    calls = []
    make = PadicScalar._make
    monkeypatch.setattr(
        PadicScalar, "_make", classmethod(lambda cls, *a: calls.append(1) or make(*a))
    )
    x + y
    x - y
    -x
    x.scale(Fraction(2, p))
    x.scale(ctx.scalar(p + 1))
    x * y
    x.derivative()
    x.integrate()
    x.truncate(4)
    x.is_integral()
    f.compose(g)
    f.reciprocal()
    g.reversion()
    assert calls == []
    x.coeffs  # the view is where scalars are made
    assert len(calls) == x.order + 1


def test_coeff_refuses_a_negative_index():
    ctx = PrimeContext(3, 12)
    f = TruncatedSeries(ctx, 0, 20, [1, 2, 3, 4])
    assert [f.coeff(i).lift() for i in range(4)] == [1, 2, 3, 4]
    assert f.coeff(4).is_zero
    for i in (-1, -4, -5):
        with pytest.raises(InvalidInputError, match=f"no coordinate {i}"):
            f.coeff(i)
