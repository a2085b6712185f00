import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from padiclab import (
    InvalidInputError,
    PrimeContext,
    TruncatedSeries,
    frobenius_substitute,
    log_one_plus_x,
    teichmuller,
)
from padiclab import series
from padiclab.core import PadicScalar, factorial_valuation
from padiclab.honda import build_ell, build_iota
from padiclab.series import _WINDOW, _compose_ints, _online_product, _pack, _product_ints, _unpack
from padiclab.tate import (
    a_invariants,
    default_grid,
    formal_log_weierstrass,
    multiplicative_parameter_series,
    verify_formal_iso,
)
from conftest import (
    extend_power_rows,
    from_rationals,
    horner_compose,
    schoolbook_convolve,
    schoolbook_ints,
)


def binomial_power(a, order):
    """Test-only: (1+X)^a for a in Z_p, coefficient m the p-adic binomial
    C(a, m)."""
    if not a.is_zero and a.v < 0:
        raise InvalidInputError("binomial exponent must lie in Z_p")
    ctx = a.ctx
    out = [ctx.one(a.absprec)]
    c = ctx.one(a.absprec)
    for m in range(1, order + 1):
        c = c * (a - (m - 1)) / m
        out.append(c)
    return TruncatedSeries.from_scalars(ctx, out)


def series_residual(a, b):
    return min((x - y).min_valuation() for x, y in zip(a.coeffs, b.coeffs))


def _digits(series):
    return [(c.v, c.unit, c.absprec) for c in series.coeffs]


def series_log(f):
    """Test-only: log f for f = 1 + (positive order), as the integral of
    f'/f."""
    c0 = f.coeffs[0]
    if c0.is_zero or not (c0 - 1).is_zero:
        raise InvalidInputError("series log needs constant term 1")
    return (f.derivative() * f.reciprocal()).truncate(f.order - 1).integrate().truncate(f.order)


def series_exp(f):
    """Test-only: exp f for f(0) = 0, by the ODE u' = f' u, u(0) = 1.
    Each degree divides by its index once, so the degree-m coefficient
    loses up to v_p(m!) digits."""
    if not f.coeffs[0].is_zero:
        raise InvalidInputError("series exp needs constant term 0")
    ctx = f.ctx
    out = [ctx.one(f.coeffs[0].absprec)]
    dcoeffs = [f.coeff(i + 1) * (i + 1) for i in range(f.order)]
    for m in range(f.order):
        s = ctx.zero(out[0].absprec)
        for j in range(m + 1):
            if not dcoeffs[j].is_zero:
                s = s + dcoeffs[j] * out[m - j]
        out.append(s / (m + 1))
    return TruncatedSeries.from_scalars(ctx, out)


def schoolbook_mul(f, g):
    """Test-only oracle: f * g through ``schoolbook_convolve``."""
    order = max(f.order, g.order)
    d, e, ints = schoolbook_convolve(f.ctx, _pack(f.coeffs), _pack(g.coeffs), order)
    ints += [0] * (order + 1 - len(ints))
    return TruncatedSeries.from_scalars(f.ctx, _unpack(f.ctx, d, e, ints))


def newton_reversion(f):
    """Test-only oracle: the compositional inverse by Newton doubling,
    g <- g - (f(g) - X) / f'(g), through the Horner oracle."""
    ctx = f.ctx
    c1 = f.coeff(1)
    df = f.derivative()
    g = TruncatedSeries.from_scalars(ctx, [ctx.zero(c1.absprec), c1.inverse()])
    reached = 1
    while reached < f.order:
        reached = min(2 * reached, f.order)
        ft = f.truncate(reached)
        gt = g.truncate(reached)
        err = horner_compose(ft, gt) - TruncatedSeries.x(ctx, reached)
        corr = schoolbook_mul(err, horner_compose(df.truncate(reached), gt).reciprocal())
        g = gt - corr
    return g.truncate(f.order)


def row_reversion(f):
    """Test-only oracle: the compositional inverse solved degree by degree
    from f(g) = X, X exact, on integers mod p^E, E the absprec of f:
    g_m = -g_1 sum_{j>=2} f_j (g^j)_m, the power rows (g^j)_m growing by
    one column per degree."""
    ctx = f.ctx
    prec = min(c.absprec for c in f.coeffs)
    mod = ctx.pk(prec)
    fi = [c.lift() for c in f.coeffs]
    g1 = pow(fi[1], -1, mod)
    rows = [None, [0, g1]]
    for m in range(2, f.order + 1):
        extend_power_rows(rows, m, mod)
        s = sum(fi[j] * rows[j][m] for j in range(2, m + 1))
        rows[1].append(-g1 * s % mod)
    return TruncatedSeries.from_scalars(ctx, [PadicScalar._make(ctx, 0, c, prec) for c in rows[1]])


def scalar_reciprocal(f):
    """Test-only oracle: 1/f by the coefficient recursion in PadicScalar
    arithmetic, each term carrying its own precision."""
    c0 = f.coeffs[0]
    inv0 = c0.inverse()
    out = [inv0]
    for m in range(1, f.order + 1):
        s = f.ctx.zero(c0.absprec)
        for j in range(1, m + 1):
            s = s + f.coeff(j) * out[m - j]
        out.append(-s * inv0)
    return TruncatedSeries.from_scalars(f.ctx, out)


def scalar_formal_log(ctx, a4, a6, order):
    """Test-only oracle: formal_log_weierstrass with W (w = t^3 W) solved
    from w = t^3 + t w + a4 t w^2 + a6 w^3 in PadicScalar arithmetic, w^2
    and w^3 summed term by term, and the scalar reciprocal."""
    absprec = min(a4.absprec, a6.absprec)
    zero = ctx.zero(absprec)
    n = order + 3
    w = [zero] * (n + 1)
    sq = [zero] * (n + 4)
    cube = [zero] * (n + 1)
    w[3] = sq[6] = ctx.one(absprec)
    if 9 <= n:
        cube[9] = ctx.one(absprec)
    for m in range(4, n + 1):
        w[m] = w[m - 1] + a4 * sq[m - 1] + a6 * cube[m]
        acc = zero
        for i in range(3, m + 1):
            acc = acc + w[i] * w[m + 3 - i]
        sq[m + 3] = acc
        if m + 6 <= n:
            acc = zero
            for i in range(3, m + 1):
                acc = acc + w[i] * sq[m + 6 - i]
            cube[m + 6] = acc
    big_w = TruncatedSeries.from_scalars(ctx, w[3:])
    num = big_w.scale(2) + TruncatedSeries.from_scalars(ctx, (zero,) + big_w.derivative().coeffs)
    two_minus_t = from_rationals(ctx, [2, -1] + [0] * (order - 1), absprec)
    omega = num * scalar_reciprocal(big_w) * scalar_reciprocal(two_minus_t)
    omega = omega.truncate(order - 1)
    return omega.integrate().truncate(order), omega


def _seeded_series(ctx, rng, order, inner=False, denominators=()):
    """Random coefficients at absprecs within 8 of wprec, integral except
    where ``denominators`` maps a degree to the power of p dividing it;
    an inner series has constant term 0."""
    coeffs = []
    for i in range(order + 1):
        absprec = ctx.wprec - rng.randint(0, 8)
        if inner and i == 0:
            coeffs.append(ctx.zero(absprec))
            continue
        x = Fraction(rng.randrange(ctx.p**12), ctx.p ** dict(denominators).get(i, 0))
        coeffs.append(ctx.scalar(x, absprec))
    return TruncatedSeries.from_scalars(ctx, coeffs)


def test_binomial_power_one():
    ctx = PrimeContext(5, 16)
    f = binomial_power(ctx.one(), 6)
    assert (f.coeff(0) - 1).is_zero
    assert (f.coeff(1) - 1).is_zero
    assert all(f.coeff(i).is_zero for i in range(2, 7))


def test_binomial_power_minus_one_is_geometric():
    ctx = PrimeContext(5, 16)
    f = binomial_power(ctx.scalar(-1), 8)
    for m in range(9):
        assert (f.coeff(m) - (-1) ** m).is_zero


def test_binomial_power_integer_matches_comb():
    ctx = PrimeContext(3, 16)
    f = binomial_power(ctx.scalar(7), 9)
    for m in range(10):
        assert (f.coeff(m) - comb(7, m)).is_zero


def test_binomial_power_teichmuller_linear_coeff():
    ctx = PrimeContext(5, 16)
    f = binomial_power(teichmuller(2, ctx), 4)
    assert f.coeff(1).lift() % 25 == 7


def test_binomial_power_rejects_negative_valuation():
    ctx = PrimeContext(5, 16)
    with pytest.raises(InvalidInputError):
        binomial_power(ctx.scalar(Fraction(1, 5)), 4)


@given(a=st.integers(-40, 40), b=st.integers(-40, 40))
def test_binomial_power_additive(a, b):
    ctx = PrimeContext(3, 12)
    order = 8
    lhs = binomial_power(ctx.scalar(a + b), order)
    rhs = binomial_power(ctx.scalar(a), order) * binomial_power(ctx.scalar(b), order)
    assert series_residual(lhs, rhs.truncate(order)) >= ctx.prec


def test_frobenius_on_x():
    ctx = PrimeContext(3, 16)
    f = frobenius_substitute(TruncatedSeries.x(ctx, 6))
    expected = from_rationals(ctx, [0, 3, 3, 1, 0, 0, 0])
    assert series_residual(f, expected) >= ctx.prec


def test_frobenius_on_log_is_multiplication_by_p():
    ctx = PrimeContext(3, 16)
    f = log_one_plus_x(ctx, 24)
    assert series_residual(frobenius_substitute(f), f.scale(3)) >= ctx.prec


def test_frobenius_on_constant():
    ctx = PrimeContext(3, 16)
    one = TruncatedSeries.one(ctx, 5)
    assert series_residual(frobenius_substitute(one), one) >= ctx.prec


def test_frobenius_is_ring_homomorphism():
    ctx = PrimeContext(5, 14)
    f = from_rationals(ctx, [1, 2, 0, 3, 1, 0, 0, 2, 1])
    g = from_rationals(ctx, [0, 1, 5, 0, 2, 1, 3, 0, 1])
    lhs = frobenius_substitute(f * g)
    rhs = frobenius_substitute(f) * frobenius_substitute(g)
    assert series_residual(lhs, rhs) >= ctx.prec


def test_series_log_exp_roundtrip():
    ctx = PrimeContext(3, 16)
    one_plus_x = from_rationals(ctx, [1, 1] + [0] * 14)
    assert series_residual(series_exp(series_log(one_plus_x)), one_plus_x) >= ctx.prec - 2


def test_log_series_quadratic_coefficient():
    ctx = PrimeContext(3, 16)
    f = log_one_plus_x(ctx, 8)
    assert (f.coeff(2) + ctx.scalar(Fraction(1, 2))).is_zero


def test_compose_with_identity():
    ctx = PrimeContext(3, 16)
    f = from_rationals(ctx, [2, 1, 4, 0, 1])
    assert series_residual(f.compose(TruncatedSeries.x(ctx, 4)), f) >= ctx.prec


def test_compose_polynomial_example():
    ctx = PrimeContext(3, 16)
    f = from_rationals(ctx, [0, 0, 1, 0, 0])  # X^2
    g = from_rationals(ctx, [0, 1, 1, 0, 0])  # X + X^2
    expected = from_rationals(ctx, [0, 0, 1, 2, 1])
    assert series_residual(f.compose(g), expected) >= ctx.prec


def test_compose_requires_zero_constant():
    ctx = PrimeContext(3, 16)
    f = TruncatedSeries.x(ctx, 4)
    with pytest.raises(InvalidInputError):
        f.compose(TruncatedSeries.one(ctx, 4))


def test_reversion_roundtrip():
    ctx = PrimeContext(5, 16)
    f = from_rationals(ctx, [0, 1, 3, 1, 0, 2, 0, 0, 1, 0, 0, 4, 1])
    g = f.reversion()
    assert series_residual(
        f.compose(g), TruncatedSeries.x(ctx, f.order)
    ) >= ctx.prec - 2


def test_ring_axioms_sampled():
    ctx = PrimeContext(3, 14)
    f = from_rationals(ctx, [1, 4, 2, 0, 5])
    g = from_rationals(ctx, [2, 1, 0, 3, 1])
    h = from_rationals(ctx, [0, 2, 2, 1, 0])
    assert series_residual(f * (g + h), f * g + f * h) >= ctx.prec
    assert series_residual((f * g) * h, f * (g * h)) >= ctx.prec
    assert series_residual(f * g, g * f) >= ctx.prec


def test_eval_scalar_needs_positive_valuation():
    ctx = PrimeContext(3, 16)
    f = log_one_plus_x(ctx, 12)
    with pytest.raises(InvalidInputError):
        f.eval_scalar(ctx.one())


def test_compose_refuses_non_integral_inner():
    ctx = PrimeContext(3, 16)
    f = log_one_plus_x(ctx, 6)
    g = from_rationals(ctx, [0, 1, Fraction(1, 9), 0])
    with pytest.raises(InvalidInputError, match=r"integral inner series \(valuation -2\)"):
        f.compose(g)


def test_reciprocal_refuses_non_integral_series():
    ctx = PrimeContext(3, 16)
    f = from_rationals(ctx, [1, 2, Fraction(1, 27)])
    with pytest.raises(InvalidInputError, match=r"integral series \(valuation -3\)"):
        f.reciprocal()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_integer_rows_match_scalar_oracles_on_tate_grid(p, monkeypatch):
    # the curve's formal log and every reciprocal it takes, against the
    # PadicScalar recursions, digit for digit and precision for precision
    ctx = PrimeContext(p, 16)
    order = 40
    reciprocal = TruncatedSeries.reciprocal
    seen = []

    def checked(f):
        out = reciprocal(f)
        assert _digits(out) == _digits(scalar_reciprocal(f))
        seen.append(f.order)
        return out

    monkeypatch.setattr(TruncatedSeries, "reciprocal", checked)
    headroom = ctx.wprec + factorial_valuation(order, p) + 8
    for q in default_grid(ctx)[0]:
        verify_formal_iso(ctx, q, order)
        a4, a6 = a_invariants(ctx.scalar(q.unit * p**q.ord, headroom))
        got = formal_log_weierstrass(ctx, a4, a6, order)
        want = scalar_formal_log(ctx, a4, a6, order)
        assert [_digits(s) for s in got] == [_digits(s) for s in want]
    # 1/W and 1/(2 - t) in each formal log, once inside verify_formal_iso
    # and once here, at each of the three q
    assert seen == [order] * 12


def test_reversion_refuses_non_integral_series():
    # the Tate curve's formal log has the denominators 1/m; it is refused
    # up front instead of running out of precision inside the solve
    ctx = PrimeContext(3, 16)
    zero = ctx.scalar(0)
    lam = formal_log_weierstrass(ctx, zero, zero, 12)[0]
    with pytest.raises(InvalidInputError, match=r"integral series \(valuation -2\)"):
        lam.reversion()


@pytest.mark.parametrize("p", [3, 5])
def test_power_rows_match_oracles_on_iota(p):
    # iota^{<-1>} and ell(iota^{<-1>}) at order 160, the round trip kept
    # here as an oracle, and the Frobenius substitution of ell
    ctx = PrimeContext(p, 16)
    ell = build_ell(ctx, 200)
    iota = build_iota(ctx, 200)
    inv = iota.truncate(160).reversion()
    assert _digits(inv) == _digits(newton_reversion(iota.truncate(160)))
    assert _digits(inv) == _digits(row_reversion(iota.truncate(160)))
    truncated = ell.truncate(160)
    assert _digits(truncated.compose(inv)) == _digits(horner_compose(truncated, inv))
    frob = from_rationals(
        ctx, [comb(p, j) if j else 0 for j in range(p + 1)], max(c.absprec for c in ell.coeffs)
    )
    assert _digits(frobenius_substitute(ell)) == _digits(horner_compose(ell, frob))


def test_power_rows_match_horner_on_tate_grid(ctx3, ctx5):
    # lambda carries the denominators 1/m, so the scale D_f of the result
    # and the rule min(E_f, E_g - max_{j>=1} D_j) are both exercised
    order = 48
    for ctx in (ctx3, ctx5):
        headroom = ctx.wprec + factorial_valuation(order, ctx.p) + 8
        for q in default_grid(ctx)[0]:
            a4, a6 = a_invariants(ctx.scalar(q.unit * ctx.p**q.ord, headroom))
            lam, omega = formal_log_weierstrass(ctx, a4, a6, order)
            t = multiplicative_parameter_series(ctx, omega, order)
            want = [_digits(horner_compose(lam, t)), _digits(horner_compose(omega, t))]
            assert [_digits(lam.compose(t)), _digits(omega.compose(t))] == want


@pytest.mark.parametrize("p", [3, 5, 7])
def test_power_rows_match_oracles_on_seeded_series(p):
    ctx = PrimeContext(p, 12)
    rng = random.Random(p)
    cases = [
        (_seeded_series(ctx, rng, 14), _seeded_series(ctx, rng, 5, inner=True)),
        (_seeded_series(ctx, rng, 5), _seeded_series(ctx, rng, 14, inner=True)),
        # the constant term's denominator sets the scale but costs g nothing
        (_seeded_series(ctx, rng, 10, denominators={0: 3}), _seeded_series(ctx, rng, 10, inner=True)),
        (_seeded_series(ctx, rng, 9, denominators={2: 2, 9: 1}), _seeded_series(ctx, rng, 7, inner=True)),
        (from_rationals(ctx, [Fraction(1, p)]), _seeded_series(ctx, rng, 6, inner=True)),
    ]
    for f, g in cases:
        assert _digits(f.compose(g)) == _digits(horner_compose(f, g))
    for order in (2, 7, 15, 40):
        f = _seeded_series(ctx, rng, order, inner=True)
        f = TruncatedSeries.from_scalars(ctx, (f.coeffs[0], ctx.scalar(1 + p * rng.randrange(p**4))) + f.coeffs[2:])
        want = _digits(row_reversion(f))
        assert _digits(newton_reversion(f)) == want
        assert _digits(f.reversion()) == want


def test_reversion_matches_newton_oracle():
    ctx = PrimeContext(5, 16)
    f = from_rationals(ctx, [0, 1, 3, 1, 0, 2, 0, 0, 1, 0, 0, 4, 1])
    assert _digits(f.reversion()) == _digits(newton_reversion(f))
    assert _digits(f.reversion()) == _digits(row_reversion(f))


def test_reversion_keeps_an_absprec_above_wprec():
    # X is exact and each g_m an integer polynomial in f_1^(-1), f_2..f_m,
    # so f known past wprec gives g to the same absprec, and a change of
    # f at that precision changes g only there
    ctx = PrimeContext(5, 12)
    top = ctx.wprec + 20
    rng = random.Random(22)
    ints = [0, 1 + 5 * rng.randrange(5**6)] + [rng.randrange(5**top) for _ in range(18)]
    f = TruncatedSeries(ctx, 0, top, ints)
    bumped = TruncatedSeries(
        ctx, 0, top + 10, [c + 5**top * rng.randrange(1, 5**4) if i else 0 for i, c in enumerate(ints)]
    )
    g, h = f.reversion(), bumped.reversion()
    assert g.absprec == top and h.absprec == top + 10
    assert h.packed[2] != g.packed[2]
    assert [c % 5**top for c in h.packed[2]] == g.packed[2]
    assert series_residual(f.compose(g), TruncatedSeries.x(ctx, f.order, top)) >= top


def test_build_iota_never_composes_or_divides(monkeypatch):
    ctx = PrimeContext(3, 16)
    calls = []
    for name in ("compose", "reciprocal", "reversion"):
        original = getattr(TruncatedSeries, name)

        def counting(self, *args, _name=name, _original=original):
            calls.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(TruncatedSeries, name, counting)
    build_iota(ctx, 60)
    assert calls == []


def test_power_rows_are_reduced_powers():
    # the oracles' row extension against plain polynomial powers: every
    # entry is the reduced residue of (t^j)_k, so rows never grow
    p, mod = 5, 5**10
    rng = random.Random(11)
    t = [0] + [rng.randrange(mod) for _ in range(9)]
    rows = [None, t]
    for k in range(2, 10):
        extend_power_rows(rows, k, mod)
    power = t
    for j in range(2, 10):
        power = [sum(power[i] * t[k - i] for i in range(k + 1)) for k in range(10)]
        assert rows[j] == [c % mod for c in power[:10]]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_compose_matches_horner_over_one_inner_series(p):
    # outer series longer and shorter than the inner one, so one inner
    # series is composed over at two truncation orders, and again after
    ctx = PrimeContext(p, 12)
    rng = random.Random(10 + p)
    g = _seeded_series(ctx, rng, 9, inner=True)
    before = _digits(g)
    outers = (
        _seeded_series(ctx, rng, 5),
        _seeded_series(ctx, rng, 14, denominators={3: 2}),
        _seeded_series(ctx, rng, 9, denominators={0: 1}),
        _seeded_series(ctx, rng, 14),
    )
    want = [_digits(horner_compose(f, g)) for f in outers]
    assert [_digits(f.compose(g)) for f in outers] == want
    assert [_digits(f.compose(g)) for f in reversed(outers)] == want[::-1]
    assert _digits(g) == before


@pytest.mark.parametrize("p", [3, 5, 7])
def test_compose_matches_horner_around_the_block_size(p):
    # len f = k^2 and k^2 +- 1 split into full blocks, a short last block
    # and one extra block; g shorter and longer than f, sparse, and with
    # a zero tail; a constant f never reads g
    ctx = PrimeContext(p, 12)
    rng = random.Random(30 + p)
    sparse = from_rationals(ctx, [0, p, 0, 0, 1, 0, 0, 0, 0, 2 * p])
    tailed = TruncatedSeries.from_scalars(ctx, _seeded_series(ctx, rng, 6, inner=True).coeffs + (ctx.zero(),) * 20)
    for length in (15, 16, 17, 24, 25, 26):
        f = _seeded_series(ctx, rng, length - 1, denominators={length // 2: 1})
        for g in (
            _seeded_series(ctx, rng, 7, inner=True),
            _seeded_series(ctx, rng, 40, inner=True),
            sparse,
            tailed,
        ):
            assert _digits(f.compose(g)) == _digits(horner_compose(f, g)), (length, g.order)
    for f in (from_rationals(ctx, [Fraction(2, p**2)]), _seeded_series(ctx, rng, 0)):
        g = _seeded_series(ctx, rng, 30, inner=True)
        assert _digits(f.compose(g)) == _digits(horner_compose(f, g))


def _inner_of_valuation(ctx, rng, order, v, scale=1):
    """An integral inner series of X-adic valuation v: dense from X^v on,
    every coefficient a multiple of ``scale``."""
    p = ctx.p
    ints = [0] * v + [scale * rng.randrange(1, p**12) for _ in range(order + 1 - v)]
    ints[v] = scale * (1 + p * rng.randrange(p**11))
    return TruncatedSeries(ctx, 0, ctx.wprec - rng.randint(0, 8), ints)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_compose_matches_horner_at_each_inner_valuation(p):
    # giant step i is n - v k (i + 1) long, for inner series of X-adic
    # valuation 1, 2 and 3; scaled by p^2 their p-adic valuation exceeds
    # the X-adic one at v = 1.  f is as long as the truncation (so for
    # v > 1 its tail vanishes mod X^n), or a single short block
    ctx = PrimeContext(p, 12)
    rng = random.Random(50 + p)
    order = 40
    outers = (
        _seeded_series(ctx, rng, order),
        _seeded_series(ctx, rng, order, denominators={order // 2: 1, order: 2}),
        _seeded_series(ctx, rng, 29),
        _seeded_series(ctx, rng, 2),
        _seeded_series(ctx, rng, 1),
    )
    for v in (1, 2, 3):
        for scale in (1, p**2):
            g = _inner_of_valuation(ctx, rng, order, v, scale)
            for f in outers:
                assert _digits(f.compose(g)) == _digits(horner_compose(f, g)), (v, scale, f.order)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_compose_matches_horner_over_the_frobenius_series(p):
    # (1+X)^p - 1 = pX + ... + X^p: its linear coefficient is divisible by
    # p, its X-adic valuation is 1, and it is p + 1 terms long
    ctx = PrimeContext(p, 12)
    rng = random.Random(60 + p)
    for order in (1, p, 40, 120):
        f = _seeded_series(ctx, rng, order, denominators={order: 1})
        inner = [comb(p, j) if j else 0 for j in range(min(p, order) + 1)]
        frob = TruncatedSeries(ctx, 0, f.absprec, inner)
        want = _digits(horner_compose(f, frob))
        assert _digits(f.compose(frob)) == want
        assert _digits(frobenius_substitute(f)) == want


@pytest.mark.parametrize("p", [3, 5])
def test_compose_over_a_zero_inner_series_is_the_constant_term(p):
    # g = 0, and g = p^11 X at absprec 30 under an f known to 10 digits, so
    # that g vanishes modulo the result's precision only
    ctx = PrimeContext(p, 12)
    rng = random.Random(70 + p)
    f = _seeded_series(ctx, rng, 20, denominators={0: 1, 5: 1})
    short = TruncatedSeries(ctx, 0, 10, [rng.randrange(1, p**10) for _ in range(21)])
    for f, g in (
        (f, TruncatedSeries.zero(ctx, 20)),
        (f, TruncatedSeries.zero(ctx, 3)),
        (short, TruncatedSeries(ctx, 0, 30, [0, p**11] + [0] * 19)),
    ):
        out = f.compose(g)
        assert _digits(out) == _digits(horner_compose(f, g))
        assert out.packed[2][1:] == [0] * 20 and (out.coeff(0) - f.coeff(0)).is_zero


def test_compose_ints_drops_the_terms_past_the_truncation():
    # f longer than the truncation n: f_j g^j vanishes mod X^n once v j >= n
    mod, n = 3**30, 12
    rng = random.Random(80)
    for v in (1, 2, 3, 5, 11, 12):
        g = [0] * v + [rng.randrange(1, mod) for _ in range(n - v)]
        for length in (1, 4, n, 3 * n):
            f = [rng.randrange(mod) for _ in range(length)]
            want = [f[-1]] + [0] * (n - 1)
            for c in reversed(f[:-1]):
                want = schoolbook_ints(want, g, n)
                want[0] += c
            assert _compose_ints(f, g, n, mod) == [c % mod for c in want], (v, length)


# operand lengths of the product kernel: one entry, the few-term Newton
# corrections of ``reversion``, and long series
KERNEL_LENGTHS = (1, 2, 7, 8, 18, 100)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_product_kernel_matches_schoolbook(p):
    # short and long operands, zero tails and an all-zero operand,
    # truncation below both lengths, and entries p^e - 1 (the widest slots)
    e = 40
    mod = p**e
    rng = random.Random(40 + p)
    for la in KERNEL_LENGTHS:
        for lb in KERNEL_LENGTHS:
            operands = [
                ([rng.randrange(mod) for _ in range(la)], [rng.randrange(mod) for _ in range(lb)]),
                ([mod - 1] * la, [mod - 1] * lb),
                ([rng.randrange(mod) for _ in range(la)] + [0] * 5, [rng.randrange(mod) for _ in range(lb)]),
                ([0] * la, [rng.randrange(mod) for _ in range(lb)]),
            ]
            for a, b in operands:
                copies = (list(a), list(b))
                full = len(a) + len(b) - 1
                for n in {full, full + 3, max(1, min(la, lb) - 1)}:
                    assert _product_ints(a, b, n) == schoolbook_ints(a, b, n), (la, lb, n)
                    assert _product_ints(b, a, n) == schoolbook_ints(a, b, n), (la, lb, n)
                assert (a, b) == copies


def test_product_kernel_refuses_negative_entries():
    # a negative entry would borrow across Kronecker slots, so the kernel
    # returns no digits for it
    mod = 3**40
    rng = random.Random(7)
    for length in KERNEL_LENGTHS:
        a = [rng.randrange(mod) for _ in range(length)]
        b = [rng.randrange(mod) for _ in range(length)]
        a[length // 2] = -1
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="non-negative"):
                _product_ints(x, y, 2 * length - 1)


def test_products_pack_only_the_nonzero_span(monkeypatch):
    # zeta - 1 and the Frobenius inner series 3X + 3X^2 + X^3 pack 2 and
    # 3 entries, their zero head and tail trimmed, beside a dense operand
    calls = []
    original = series._to_int

    def recorded(ints, w):
        calls.append(len(ints))
        return original(ints, w)

    monkeypatch.setattr(series, "_to_int", recorded)
    mod = 3**40
    dense = list(range(1, 30))
    _product_ints([mod - 1, 1] + [0] * 16, dense, 60)
    _product_ints([0, 3, 3, 1] + [0] * 40, dense, 60)
    assert calls == [2, len(dense), 3, len(dense)]


def _known_dot(a, b, m):
    """Test-only oracle: sum a_i b_j over i + j = m and the entries the
    lists hold."""
    return sum(a[i] * b[m - i] for i in range(len(a)) if 0 <= m - i < len(b))


# entries a and b hold when degree m is asked for, in the iota solve's
# three shapes: both online (F^a F^b), a known in full (j A_j against
# exp(pA)), b one entry longer (F(phi) against exp(pA))
ONLINE_SHAPES = {
    "both-online": (lambda m, order: max(1, m), lambda m, order: max(1, m)),
    "a-known": (lambda m, order: order + 1, lambda m, order: max(1, m)),
    "b-longer": (lambda m, order: max(1, m), lambda m, order: m + 1),
}


def _online_against_oracle(shape, a_full, b_full, mod, order):
    """The yields of ``_online_product`` over lists grown in ``shape``,
    each next to the plain dot product over the same entries."""
    size_a, size_b = ONLINE_SHAPES[shape]
    a, b = a_full[:1], b_full[:1]
    sums = _online_product(a, b, [], mod, order)
    got, want = [], []
    for m in range(1, order + 1):
        a.extend(a_full[len(a) : size_a(m, order)])
        b.extend(b_full[len(b) : size_b(m, order)])
        got.append(next(sums))
        want.append(_known_dot(a, b, m))
    with pytest.raises(StopIteration):
        next(sums)
    return got, want


@pytest.mark.parametrize("shape", sorted(ONLINE_SHAPES))
def test_online_product_matches_the_dot_products(shape):
    # below the first window, at it, one past it and over many blocks
    mod = 3**40
    rng = random.Random(len(shape))
    for order in (1, 2, _WINDOW - 1, _WINDOW, _WINDOW + 1, 2 * _WINDOW, 2 * _WINDOW + 1, 41, 203):
        a_full = [rng.randrange(mod) for _ in range(order + 1)]
        b_full = [rng.randrange(mod) for _ in range(order + 1)]
        got, want = _online_against_oracle(shape, a_full, b_full, mod, order)
        assert got == want, (shape, order)


def test_online_products_share_one_window_list():
    # one window list of exp(pA) serves both products that read it, as in
    # the iota solve: j A_j against exp(pA) below degree m, then F(phi)
    # against exp(pA) through degree m; each window is built once
    mod, order = 5**30, 97
    rng = random.Random(5)
    ja, g_full, e_full = ([rng.randrange(mod) for _ in range(order + 1)] for _ in range(3))
    g, e, win = g_full[:1], e_full[:1], []
    exps = _online_product(ja, e, win, mod, order)
    lifts = _online_product(g, e, win, mod, order)
    for m in range(1, order + 1):
        assert next(exps) == _known_dot(ja, e, m), m
        e[:] = e_full[: m + 1]
        g[:] = g_full[: max(1, m)]
        assert next(lifts) == _known_dot(g, e, m), m
    assert len(win) == order - order % _WINDOW


@pytest.mark.parametrize("shape", sorted(ONLINE_SHAPES))
def test_online_product_slots_hold_their_widest_sums(shape):
    # every entry mod - 1 at order 126: 127 < 2^7, so a block sum of 120
    # pairs needs all bits(order + 1) = 7 of a slot's headroom; over
    # e = 20..27 the leading bits of p^e vary, so a slot one bit narrower
    # than S overflows at some e
    order = 126
    for p in (3, 5, 7):
        for e in range(20, 28):
            mod = p**e
            full = [mod - 1] * (order + 1)
            got, want = _online_against_oracle(shape, full, full, mod, order)
            assert got == want, (p, e)
