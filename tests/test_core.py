import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from padiclab import (
    ConvergenceError,
    InvalidInputError,
    PadicScalar,
    PrimeContext,
    hensel_root,
    iwasawa_log,
    padic_exp,
    teichmuller,
)
from padiclab.core import _log_floor, _log_principal

settings.register_profile("lab", deadline=None, max_examples=25)
settings.load_profile("lab")


def scalar_log_principal(u):
    """Test-only oracle: log on 1 + pZ_p with every term t^k/k a scalar,
    stopping after the first power with k v(t) >= absprec(t)."""
    ctx = u.ctx
    t = u - 1
    if not t.is_zero and t.v < 1:
        raise InvalidInputError("principal-unit log needs v(u - 1) >= 1")
    if t.is_zero:
        return ctx.zero(t.absprec)
    target = t.absprec
    acc = ctx.zero(target)
    power = t
    kmax = (target + 8) // t.v + 4
    for k in range(1, kmax + 1):
        term = power / k
        if k % 2 == 0:
            term = -term
        acc = acc + term
        if power.min_valuation() >= target:
            break
        power = power * t
    return acc.reduce_absprec(target - _log_floor(kmax + 1, ctx.p))


def test_context_rejects_bad_primes():
    with pytest.raises(InvalidInputError):
        PrimeContext(2, 20)
    with pytest.raises(InvalidInputError):
        PrimeContext(9, 20)
    with pytest.raises(InvalidInputError):
        PrimeContext(5, 3)


def test_scalar_roundtrip_and_repr():
    ctx = PrimeContext(5, 20)
    x = ctx.scalar(Fraction(7, 10))
    assert x.valuation == -1
    y = x * 10
    assert (y - 7).is_zero
    assert "5^" in repr(x)


def test_division_lowers_valuation_instead_of_erroring():
    ctx = PrimeContext(3, 20)
    x = ctx.scalar(2) / 3
    assert x.valuation == -1
    assert ((x * 3) - 2).is_zero


def test_teichmuller_identity_root():
    ctx = PrimeContext(5, 20)
    assert (teichmuller(1, ctx) - 1).is_zero


def test_teichmuller_frozen_value_p5():
    # oracle: iterate a -> a^p mod 25 to its fixed point; 2^5 = 32 = 7 mod 25
    ctx = PrimeContext(5, 20)
    w = teichmuller(2, ctx)
    assert w.lift() % 25 == 7
    assert ((w ** 4) - 1).is_zero


def test_teichmuller_minus_one_p3():
    ctx = PrimeContext(3, 20)
    w = teichmuller(2, ctx)
    assert (w + 1).is_zero


def test_teichmuller_rejects_multiples_of_p():
    ctx = PrimeContext(3, 20)
    with pytest.raises(InvalidInputError):
        teichmuller(6, ctx)


def newton_teichmuller(p, a, k):
    """Test-only oracle: Newton's iteration for x^(p-1) = 1 from a, mod p^k,
    run until the residual vanishes."""
    m = p**k
    x = a % m
    while (pow(x, p - 1, m) - 1) % m:
        fx = pow(x, p - 1, m) - 1
        dfx = (p - 1) * pow(x, p - 2, m)
        x = (x - fx * pow(dfx, -1, m)) % m
    return x


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_teichmuller_int_matches_newton_oracle(p):
    ctx = PrimeContext(p, 20)
    units = [a for a in (*range(1, p), p + 1, 2 * p - 1, 10**9 + 7, 3**40 + 2) if a % p]
    for k in (1, 2, 5, 12, 40, 80, 200):
        for a in units:
            assert ctx.teichmuller_int(a, k) == newton_teichmuller(p, a, k)


def test_teichmuller_int_rejects_empty_modulus():
    ctx = PrimeContext(3, 20)
    for k in (0, -1):
        with pytest.raises(InvalidInputError):
            ctx.teichmuller_int(2, k)


@given(a=st.integers(1, 10**6), b=st.integers(1, 10**6))
def test_teichmuller_multiplicative(a, b):
    ctx = PrimeContext(7, 16)
    if a % 7 == 0 or b % 7 == 0:
        return
    lhs = teichmuller(a, ctx) * teichmuller(b, ctx)
    rhs = teichmuller(a * b % 7, ctx)
    assert (lhs - rhs).is_zero


def test_log_of_one_and_p_are_zero():
    ctx = PrimeContext(3, 20)
    assert iwasawa_log(ctx.one()).is_zero
    assert iwasawa_log(ctx.scalar(3)).is_zero
    assert iwasawa_log(ctx.scalar(9)).is_zero


def test_log_frozen_value():
    # truncated series 3 - 9/2 + 9 mod 27, with 1/2 = 14 mod 27
    ctx = PrimeContext(3, 20)
    assert iwasawa_log(ctx.scalar(4)).lift() % 27 == 21


def test_log_kills_torsion():
    ctx = PrimeContext(5, 20)
    assert iwasawa_log(teichmuller(3, ctx)).is_zero


def test_log_rejects_zero():
    ctx = PrimeContext(5, 20)
    with pytest.raises(InvalidInputError):
        iwasawa_log(ctx.zero())


@given(u=st.integers(1, 10**9), v=st.integers(1, 10**9))
def test_log_additivity(u, v):
    ctx = PrimeContext(3, 16)
    if u % 3 == 0 or v % 3 == 0:
        return
    lhs = iwasawa_log(ctx.scalar(u * v))
    rhs = iwasawa_log(ctx.scalar(u)) + iwasawa_log(ctx.scalar(v))
    assert (lhs - rhs).min_valuation() >= ctx.prec


def test_exp_log_roundtrip():
    ctx = PrimeContext(3, 20)
    x = ctx.scalar(1 + 3 + 2 * 9)
    assert (padic_exp(iwasawa_log(x)) - x).min_valuation() >= ctx.prec


@pytest.mark.parametrize("p", [3, 5, 7])
def test_exp_matches_exact_partial_sums(p):
    # past k = T_max (p - 1) + 1 every term x^k/k! has valuation
    # >= k v(x) - (k - 1)/(p - 1) >= T_max, so one exact partial sum per x
    # fixes exp(x) mod p^T for every T <= T_max
    t_max = 109
    ctx = PrimeContext(p, 20)
    for x in (p, 2 * p, p * p, p + p * p, p**3):
        exact, term = Fraction(1), Fraction(1)
        for k in range(1, t_max * (p - 1) + 2):
            term = term * x / k
            exact += term
        for t in range(2, t_max + 1):
            xs = ctx.scalar(x, t)
            if xs.is_zero:
                continue
            got = padic_exp(xs)
            m = p**t
            assert got.absprec == t
            assert got.lift() == exact.numerator * pow(exact.denominator, -1, m) % m


def test_exp_rejects_small_valuation():
    ctx = PrimeContext(3, 20)
    with pytest.raises(InvalidInputError):
        padic_exp(ctx.scalar(1))


def test_hensel_square_root_of_one():
    ctx = PrimeContext(5, 20)
    root = hensel_root(lambda x: x * x - 1, lambda x: x * 2, ctx.one())
    assert (root - 1).is_zero


def test_hensel_teichmuller_oracle():
    # same fixed point as the Teichmuller iteration
    ctx = PrimeContext(5, 20)
    root = hensel_root(
        lambda x: x ** 4 - 1, lambda x: (x ** 3) * 4, ctx.scalar(2)
    )
    assert root.lift() % 25 == 7


def test_hensel_reports_failed_criterion():
    ctx = PrimeContext(5, 20)
    with pytest.raises(ConvergenceError):
        hensel_root(lambda x: x * x - 5, lambda x: x * 2, ctx.scalar(1))


def test_precision_bookkeeping_truncation_consistency():
    # recomputing at higher precision and truncating reproduces the result
    for build in (
        lambda c: iwasawa_log(c.scalar(4)),
        lambda c: teichmuller(2, c),
        lambda c: c.scalar(Fraction(5, 7)) * c.scalar(11) + c.scalar(3) / 9,
    ):
        lo = build(PrimeContext(3, 12))
        hi = build(PrimeContext(3, 16))
        assert (lo - hi.reduce_absprec(lo.absprec)).min_valuation() >= min(
            lo.absprec, 12
        )


def test_arithmetic_never_overclaims():
    ctx = PrimeContext(3, 8)
    a = ctx.scalar(1, 10)
    b = ctx.scalar(1, 5)
    assert (a + b).absprec == 5
    assert (a * b).absprec <= 5
    # cancellation detected: result is an honest zero at precision
    d = a - ctx.scalar(1, 10)
    assert d.is_zero and d.absprec == 10


def _triple(x):
    return (x.v, x.unit, x.absprec)


def _principal_units(ctx, v, rng):
    """Units 1 + t with v(t) = v, at absprecs where the last term k v(t)
    of the series lands exactly on absprec (k v = absprec) and where it
    overshoots it, down to absprec v + 1, and at wprec and above."""
    p = ctx.p
    for absprec in sorted({v + 1, v + 2, 3 * v, 3 * v + 1, ctx.prec, ctx.wprec, ctx.wprec + 7}):
        if absprec <= v:
            continue
        for _ in range(2):
            t = p**v * rng.randrange(1, p ** (absprec - v))
            if t % p ** (v + 1) == 0:
                t += p**v
            yield PadicScalar._make(ctx, 0, 1 + t, absprec)


def test_log_principal_matches_scalar_oracle():
    # every result identical in (v, unit, absprec) to the scalar series
    rng = random.Random(11)
    for p in (3, 5, 7):
        for n in (12, 30, 80):
            ctx = PrimeContext(p, n)
            units = [u for v in (1, 2, 3) for u in _principal_units(ctx, v, rng)]
            units += [ctx.one(), ctx.one(5), ctx.scalar(1 + p**n, n)]
            for u in units:
                assert _triple(_log_principal(u)) == _triple(scalar_log_principal(u)), (p, n, u)


def test_log_principal_refuses_what_the_oracle_refuses():
    ctx = PrimeContext(5, 12)
    for u in (ctx.scalar(2), ctx.scalar(Fraction(1, 5))):
        for log in (_log_principal, scalar_log_principal):
            with pytest.raises(InvalidInputError, match="v\\(u - 1\\) >= 1"):
                log(u)


def test_log_principal_makes_no_scalar_inversions(monkeypatch):
    calls = []
    orig = PadicScalar.inverse

    def counted(self):
        calls.append(self)
        return orig(self)

    monkeypatch.setattr(PadicScalar, "inverse", counted)
    ctx = PrimeContext(3, 80)
    assert not _log_principal(ctx.scalar(4)).is_zero
    assert calls == []
