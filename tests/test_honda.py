from fractions import Fraction
from math import factorial

import pytest

from padiclab import (
    PrimeContext,
    PropertyFailure,
    check_honda,
    formal_add,
    hensel_root,
)
from padiclab.honda import build_ell
from padiclab.series import frobenius_substitute, log_one_plus_x


def definition_oracle_coefficients(p, order, digits):
    """Independent route to the logarithm coefficients, straight from the
    definition ell(X) = log(1+X) + sum_k sum_delta ((X+1)^(p^k delta) - 1)/p^k.

    The X^m coefficient is (-1)^(m-1)/m + sum_k sum_delta C(p^k delta, m)/p^k.
    Averaging over mu_{p-1} gives the k-term valuation >= k(p-2) - v_p(m!),
    so every k with k(p-2) >= digits + v_p(order!) is negligible: a proven
    cutoff, no stabilisation rule.  Returns ell_m as Fractions that are
    correct mod p^digits.
    """
    from padiclab.core import factorial_valuation

    vf_top = factorial_valuation(order, p)
    kmax = -(-(digits + vf_top) // (p - 2))
    e = digits + kmax + vf_top
    mod = p**e
    # r^(p^(e-1)) is the Teichmuller lift of r mod p^e
    teich = [pow(r, p ** (e - 1), mod) for r in range(1, p)]
    # p^kmax * sum_k sum_delta (falling factorial of p^k delta)/p^k, mod p^e
    acc = [0] * (order + 1)
    for k in range(kmax):
        for t in teich:
            a = p**k * t
            falling = 1
            for m in range(1, order + 1):
                falling = falling * (a - m + 1) % mod
                acc[m] += p ** (kmax - k) * falling
    return [Fraction(0)] + [
        Fraction((-1) ** (m - 1), m) + Fraction(acc[m] % mod, p**kmax * factorial(m))
        for m in range(1, order + 1)
    ]


@pytest.mark.parametrize("p", [3, 5])
def test_ell_coefficients_match_definition_oracle(p):
    ctx = PrimeContext(p, 12)
    order = 72
    ell = build_ell(ctx, order)
    oracle = definition_oracle_coefficients(p, order, 30)
    for m in range(1, order + 1):
        expected = ctx.scalar(oracle[m], 30)
        assert (ell.coeff(m) - expected).min_valuation() >= 25, f"degree {m}"


def test_ell_linear_coefficient_is_one(honda3):
    assert (honda3.ell.coeff(1) - 1).is_zero


def test_ell_quadratic_coefficient_p3(honda3):
    # -1/2 from the log plus the geometric series sum_k 3^k = -1/2
    assert (honda3.ell.coeff(2) + 1).min_valuation() >= 12


def test_ell_cubic_coefficient_p3(honda3, ctx3):
    assert (honda3.ell.coeff(3) - ctx3.scalar(Fraction(5, 6))).min_valuation() >= 12


def test_ell_quadratic_coefficient_p5(honda5, ctx5):
    assert (honda5.ell.coeff(2) + ctx5.scalar(Fraction(1, 2))).min_valuation() >= 10


def test_ell_constant_term_zero(honda3):
    assert honda3.ell.coeff(0).is_zero


def test_check_honda_report(honda3):
    rep = check_honda(honda3.ell)
    assert rep == honda3.report
    assert rep["deriv_min_valuation"] >= 0
    assert rep["frobenius_min_valuation"] >= 1


def test_frobenius_difference_frozen_degree_two(honda3, ctx3):
    # phi(ell)_2 = -6 and (p ell)_2 = -3, difference -3
    g = frobenius_substitute(honda3.ell.truncate(40)) - honda3.ell.truncate(40).scale(3)
    assert (g.coeff(2) + 3).min_valuation() >= ctx3.prec
    assert g.coeff(1).min_valuation() >= ctx3.prec


def test_check_honda_flags_violations(ctx3):
    from padiclab.series import TruncatedSeries

    bad = TruncatedSeries.from_rationals(ctx3, [0, 1, Fraction(1, 3), 0, 0])
    with pytest.raises(PropertyFailure):
        check_honda(bad)


def test_iota_frozen_coefficients_p3(honda3, ctx3):
    assert (honda3.iota.coeff(2) + ctx3.scalar(Fraction(1, 2))).min_valuation() >= 12
    assert honda3.iota.coeff(2).lift() % 27 == 13
    assert honda3.iota.coeff(3).min_valuation() >= 12
    assert (honda3.iota.coeff(1) - 1).is_zero


def test_iota_quadratic_vanishes_p5(honda5):
    assert honda5.iota.coeff(2).min_valuation() >= 10


def test_iota_and_inverse_integral(honda3):
    ok, worst = honda3.iota.is_integral()
    assert ok and worst >= 0
    ok_inv, worst_inv = honda3.iota_inv.is_integral()
    assert ok_inv and worst_inv >= 0


def test_log_of_iota_inverse_is_multiplicative_log(honda3, ctx3):
    m = honda3.iota_inv.order
    composed = honda3.ell.truncate(m).compose(honda3.iota_inv)
    target = log_one_plus_x(ctx3, m)
    resid = min(
        (a - b).min_valuation() for a, b in zip(composed.coeffs, target.coeffs)
    )
    assert resid >= ctx3.prec - 2


def test_iota_eval_agrees_with_scalar_exp(honda3, ctx3):
    # 1 + iota(x) = exp(ell(x)) pointwise on pZ_p: independent exp route
    from padiclab import padic_exp

    x = ctx3.scalar(3 + 2 * 9)
    lhs = 1 + honda3.iota.eval_scalar(x)
    rhs = padic_exp(honda3.ell.eval_scalar(x))
    assert (lhs - rhs).min_valuation() >= ctx3.prec


def test_epsilon_defining_residual(honda3, ctx3):
    resid = honda3.ell.eval_scalar(honda3.epsilon) - 3
    assert resid.min_valuation() >= ctx3.wprec - 2


def test_epsilon_first_digit(honda3):
    assert (honda3.epsilon - 3).min_valuation() >= 2


def test_epsilon_unique_from_second_start(honda3, ctx3):
    deriv = honda3.ell.derivative()
    eps2 = hensel_root(
        lambda x: honda3.ell.eval_scalar(x) - 3,
        deriv.eval_scalar,
        ctx3.scalar(3 + 9),
        target=ctx3.wprec - 2,
    )
    assert (eps2 - honda3.epsilon).min_valuation() >= ctx3.wprec - 4


def test_formal_add_identity(honda3, tower3):
    f = tower3.field(1)
    z = f.zeta() - f.one()
    s = formal_add(z, f.zero(), honda3, tower3)
    assert (s - z).min_valuation() >= tower3.ctx.prec - 2


def test_formal_add_log_additivity(honda3, tower3):
    f = tower3.field(1)
    x = f.zeta() - f.one()
    y = f.from_scalar(honda3.epsilon)
    s = formal_add(x, y, honda3, tower3)
    lhs = tower3.eval_series(honda3.ell, s)
    rhs = tower3.eval_series(honda3.ell, x) + honda3.ell.eval_scalar(honda3.epsilon)
    assert (lhs - rhs).min_valuation() >= tower3.ctx.prec - 3


def test_formal_add_commutative_and_multiplicative_transport(honda3, tower3):
    f = tower3.field(1)
    x = f.zeta() - f.one()
    y = (f.zeta_power(2) - f.one()).scale(3)
    s1 = formal_add(x, y, honda3, tower3)
    s2 = formal_add(y, x, honda3, tower3)
    assert (s1 - s2).min_valuation() >= tower3.ctx.prec - 2
    ix = tower3.eval_series(honda3.iota, x)
    iy = tower3.eval_series(honda3.iota, y)
    isum = tower3.eval_series(honda3.iota, s1)
    lhs = f.one() + isum
    rhs = (f.one() + ix) * (f.one() + iy)
    assert (lhs - rhs).min_valuation() >= tower3.ctx.prec - 2


def test_formal_add_ultrametric_valuation(honda3, tower3):
    f = tower3.field(1)
    x = f.zeta() - f.one()          # valuation 1/6
    y = f.from_scalar(honda3.epsilon)  # valuation 1
    s = formal_add(x, y, honda3, tower3)
    assert s.valuation() == x.valuation()
