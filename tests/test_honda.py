from fractions import Fraction
from math import comb, factorial

import pytest

from padiclab import (
    PadicScalar,
    PrimeContext,
    PropertyFailure,
    check_honda,
    formal_add,
    hensel_root,
    honda,
)
from padiclab.core import _log_floor, factorial_valuation, iwasawa_log, split_p, vp
from padiclab.honda import (
    _defining_sum,
    build_ell,
    build_iota,
    default_truncation,
    inverse_integrality,
    log_at_points,
    log_identity_residual,
)
from padiclab.series import TruncatedSeries, frobenius_substitute, log_one_plus_x
from conftest import from_rationals, iota_by_dot_products


def stirling_ell(ctx, order):
    """Test-only oracle: ell by its Stirling closed form.

    With L = log(1+X), (X+1)^a = exp(aL), the Teichmuller sum
    sum_delta delta^j = (p-1)[(p-1) | j] and the geometric series in k give
    ell = L + (p-1) sum_{(p-1) | j} L^j / (j! (1 - p^(j-1))), so
    ell_m = (1/m!) sum_j s(m, j) w_j with s the signed Stirling numbers of
    the first kind, w_1 = 1 and w_j = (p-1)/(1 - p^(j-1)) for (p-1) | j.
    Every coefficient is known mod p^(wprec + v_p(order!)); the Stirling
    row is kept v_p(order!) digits more, the most the division by m! can
    consume.
    """
    p = ctx.p
    vf_top = factorial_valuation(order, p)
    target = ctx.wprec + vf_top
    modulus = ctx.pk(target + vf_top)
    weight = [0] * (order + 1)
    weight[1] = 1
    for j in range(p - 1, order + 1, p - 1):
        weight[j] = (p - 1) * pow(1 - pow(p, j - 1, modulus), -1, modulus)
    row = [1]  # s(0, 0)
    vfact, unit_fact = 0, 1
    coeffs = [ctx.zero(target)]
    for m in range(1, order + 1):
        # s(m, j) = s(m-1, j-1) - (m-1) s(m-1, j)
        row = [(a - (m - 1) * b) % modulus for a, b in zip([0] + row, row + [0])]
        v, u = split_p(m, p)
        vfact += v
        unit_fact = unit_fact * u % modulus
        raw = sum(s * w for s, w in zip(row, weight)) * pow(unit_fact, -1, modulus)
        coeffs.append(PadicScalar._make(ctx, -vfact, raw, target))
    return TruncatedSeries.from_scalars(ctx, coeffs)


def ode_iota(ell):
    """Test-only oracle: exp(ell) - 1 by the ODE u' = ell' u on integers.

    ell' must be integral; degree m + 1 divides by m + 1 exactly and so
    loses v_p(m + 1) digits, which is why ell must come with v_p(order!)
    digits to spare (``stirling_ell``).
    """
    ctx = ell.ctx
    p = ctx.p
    order = ell.order
    base = min(c.absprec for c in ell.coeffs)
    mod = ctx.pk(base)
    lp = [(ell.coeff(j + 1) * (j + 1)).lift() % mod for j in range(order)]
    u = [1] + [0] * order
    for m in range(order):
        s = sum(lp[j] * u[m - j] for j in range(m + 1)) % mod
        v1, unit = split_p(m + 1, p)
        s = s * pow(unit, -1, mod) % mod
        assert s % ctx.pk(v1) == 0, f"exp(ell) is non-integral at degree {m + 1}"
        u[m + 1] = s // ctx.pk(v1)
    vloss = 0
    coeffs = [ctx.zero(base)]
    for m in range(1, order + 1):
        vloss += vp(m, p) if m % p == 0 else 0
        coeffs.append(PadicScalar._make(ctx, 0, u[m], base - vloss))
    return TruncatedSeries.from_scalars(ctx, coeffs)


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
    assert rep["deriv_min_valuation"] >= 0
    assert rep["frobenius_min_valuation"] >= 1


def _counted_check_honda(monkeypatch, fail):
    """check_honda, in honda and in the runner, replaced by one that counts
    its calls and then raises PropertyFailure if ``fail``."""
    from padiclab import runner

    calls = []
    check = honda.check_honda

    def counted(ell):
        calls.append(ell)
        if fail:
            raise PropertyFailure("planted check_honda failure")
        return check(ell)

    monkeypatch.setattr(honda, "check_honda", counted)
    monkeypatch.setattr(runner, "check_honda", counted)
    return calls


def test_build_does_not_certify_ell(monkeypatch, ctx3):
    # the honda suite is the one place ell is certified: HondaData.build
    # succeeds under a failing check_honda, and a run fails exactly the two
    # checks that read its report
    from padiclab.runner import SuiteConfig, run_suite

    config = SuiteConfig(p=3, n_max=1, prec=12, n_functionals=4)
    calls = _counted_check_honda(monkeypatch, fail=False)
    expected = {c.name: c.status for c in run_suite(config).checks}
    assert len(calls) == 1
    calls = _counted_check_honda(monkeypatch, fail=True)
    honda.HondaData.build(ctx3, 20)
    assert calls == []
    got = {c.name: c.status for c in run_suite(config).checks}
    failed = {"honda.frobenius-property", "honda.log-constant-and-derivative"}
    assert {name for name, status in got.items() if status == "fail"} == failed
    assert all(expected[name] == "pass" for name in failed)
    assert {name: got[name] for name in expected.keys() - failed} == {
        name: expected[name] for name in expected.keys() - failed
    }


def test_points_run_does_not_certify_ell(monkeypatch):
    from padiclab.runner import SuiteConfig, run_suite

    calls = _counted_check_honda(monkeypatch, fail=True)
    report = run_suite(SuiteConfig(p=3, n_max=1, prec=12, suites=("points",)))
    assert report.summary()["fail"] == 0
    assert calls == []


def test_frobenius_difference_frozen_degree_two(honda3, ctx3):
    # phi(ell)_2 = -6 and (p ell)_2 = -3, difference -3
    g = frobenius_substitute(honda3.ell.truncate(40)) - honda3.ell.truncate(40).scale(3)
    assert (g.coeff(2) + 3).min_valuation() >= ctx3.prec
    assert g.coeff(1).min_valuation() >= ctx3.prec


def test_check_honda_flags_violations(ctx3):
    from padiclab.series import TruncatedSeries

    bad = from_rationals(ctx3, [0, 1, Fraction(1, 3), 0, 0])
    with pytest.raises(PropertyFailure):
        check_honda(bad)


def test_iota_frozen_coefficients_p3(honda3, ctx3):
    assert (honda3.iota.coeff(2) + ctx3.scalar(Fraction(1, 2))).min_valuation() >= 12
    assert honda3.iota.coeff(2).lift() % 27 == 13
    assert honda3.iota.coeff(3).min_valuation() >= 12
    assert (honda3.iota.coeff(1) - 1).is_zero


def test_iota_quadratic_vanishes_p5(honda5):
    assert honda5.iota.coeff(2).min_valuation() >= 10


def _iota_inverse(honda):
    """Test-only oracle: iota^(-1) by reverting iota to order 160, the
    round trip the suite no longer builds."""
    return honda.iota.truncate(min(160, honda.iota.order)).reversion()


def test_iota_and_inverse_integral(honda3):
    ok, worst = honda3.iota.is_integral()
    assert ok and worst >= 0
    # the derived certificate reads what the reverted inverse measures
    assert inverse_integrality(honda3.iota) == 0
    assert _iota_inverse(honda3).is_integral() == (True, 0)


def test_log_of_iota_inverse_is_multiplicative_log(honda3, ctx3):
    inv = _iota_inverse(honda3)
    m = inv.order
    composed = honda3.ell.truncate(m).compose(inv)
    target = log_one_plus_x(ctx3, m)
    resid = min(
        (a - b).min_valuation() for a, b in zip(composed.coeffs, target.coeffs)
    )
    assert resid >= ctx3.prec - 2


def test_log_identity_holds_over_the_whole_order(honda3, honda5):
    for data in (honda3, honda5):
        assert log_identity_residual(data.ell, data.iota) >= data.ctx.wprec


def test_log_identity_sees_an_error_past_the_round_trip():
    # at (3, 2, 12), M = 404: an error of 3^5 at degree M - 3 of ell or of
    # iota lies above the round trip's order 160, and the product reads it
    ctx = PrimeContext(3, 12)
    order = default_truncation(ctx, 2)
    ell, iota = build_ell(ctx, order), build_iota(ctx, order)
    assert order - 3 > 160 and log_identity_residual(ell, iota) >= ctx.wprec

    def bumped(series):
        coeffs = list(series.coeffs)
        coeffs[order - 3] = coeffs[order - 3] + 3**5
        return TruncatedSeries.from_scalars(ctx, coeffs)

    assert log_identity_residual(bumped(ell), iota) == 5
    assert log_identity_residual(ell, bumped(iota)) == 5


def test_inverse_integrality_names_the_failed_premise(honda3, ctx3):
    coeffs = list(honda3.iota.coeffs)
    non_unit = TruncatedSeries.from_scalars(ctx3, coeffs[:1] + [ctx3.scalar(3)] + coeffs[2:])
    with pytest.raises(PropertyFailure, match="iota_1 is not a unit"):
        inverse_integrality(non_unit)
    half = ctx3.scalar(Fraction(1, 3))
    non_integral = TruncatedSeries.from_scalars(ctx3, coeffs[:2] + [half] + coeffs[3:])
    with pytest.raises(PropertyFailure, match="iota is not integral"):
        inverse_integrality(non_integral)


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


def _agree_to(a, b, digits):
    return all((x - y).min_valuation() >= digits for x, y in zip(a.coeffs, b.coeffs))


@pytest.mark.parametrize("p, n, prec", [(3, 1, 12), (5, 1, 12), (7, 1, 12), (3, 2, 16)])
def test_functional_equation_solves_match_stirling_and_ode_oracles(p, n, prec):
    ctx = PrimeContext(p, prec)
    order = default_truncation(ctx, n)
    oracle_ell = stirling_ell(ctx, order)
    ell = build_ell(ctx, order)
    iota = build_iota(ctx, order)
    assert ell.order == iota.order == order
    assert _agree_to(ell, oracle_ell, ctx.wprec)
    oracle_iota = ode_iota(oracle_ell)
    assert min(c.absprec for c in oracle_iota.coeffs) >= ctx.wprec
    assert _agree_to(iota, oracle_iota, ctx.wprec)


def test_averaged_binomials_p3_alternate():
    ctx = PrimeContext(3, 12)
    digits = 40
    a = honda._averaged_binomials(ctx, 60, digits)
    assert a[:2] == [0, 0]
    assert a[2:] == [(-1) ** m % 3**digits for m in range(2, 61)]


@pytest.mark.parametrize("p", [5, 7])
def test_averaged_binomials_match_exact_binomial_sums(p):
    # C(x, m) for an integer x = delta mod p^K is C(delta, m) mod
    # p^(K - v_p(m!)), so exact integer binomials of the lifts are an oracle
    ctx = PrimeContext(p, 12)
    order, digits = 40, 30
    lifts = [ctx.teichmuller_int(r, digits + factorial_valuation(order, p)) for r in range(1, p)]
    want = [sum(comb(x, m) for x in lifts) % p**digits for m in range(order + 1)]
    want[0] = 0
    assert honda._averaged_binomials(ctx, order, digits) == want


def test_both_solves_take_their_digits_from_one_budget(monkeypatch):
    budget = honda._solve_digits
    calls = []

    def spy(ctx, order):
        calls.append(order)
        return budget(ctx, order)

    monkeypatch.setattr(honda, "_solve_digits", spy)
    ctx = PrimeContext(3, 12)
    build_ell(ctx, 40)
    assert calls == [40]
    build_iota(ctx, 40)
    assert calls == [40, 40]


@pytest.mark.parametrize("p, n, prec", [(3, 2, 16), (5, 1, 12), (3, 3, 30)])
def test_solve_digits_grow_with_log_of_order_only(p, n, prec):
    # wprec + O(log_p M), where the Stirling oracle's row modulus is
    # p^(wprec + 2 v_p(M!)): 3^506 at (3, 2, 16)
    ctx = PrimeContext(p, prec)
    order = default_truncation(ctx, n)
    log_order = max(k for k in range(64) if p**k <= order)
    assert honda._solve_digits(ctx, order) <= ctx.wprec + 2 * log_order + 8


def test_ell_and_iota_claim_exactly_wprec(honda3, honda5):
    for data in (honda3, honda5):
        for series in (data.ell, data.iota):
            assert {c.absprec for c in series.coeffs} == {data.ctx.wprec}


def test_remainders_in_the_solves_name_their_degree(monkeypatch):
    # one wrong entry above the diagonal of phi's first row: (phi)_2 + 1
    rows = honda._phi_rows

    def skewed(p, mod, order):
        for j, (lo, entries) in enumerate(rows(p, mod, order), 1):
            if j == 1:
                entries = [entries[0], entries[1] + 1] + entries[2:]
            yield lo, entries

    monkeypatch.setattr(honda, "_phi_rows", skewed)
    ctx = PrimeContext(3, 12)
    # at order 2, ell carries no p^D scale and L_1 = 1 meets the wrong entry
    with pytest.raises(PropertyFailure, match="degree 2"):
        build_ell(ctx, 2)
    with pytest.raises(PropertyFailure, match="degree 2"):
        build_iota(ctx, 40)


def _raw_iota(monkeypatch, ctx, order):
    """build_iota's residues mod p^W, before TruncatedSeries cuts them to
    wprec."""
    monkeypatch.setattr(honda, "TruncatedSeries", lambda ctx, denom, e, ints: list(ints))
    return build_iota(ctx, order)


@pytest.mark.parametrize(
    "p, n, prec, order",
    [(3, 1, 12, None), (3, 2, 16, None), (5, 1, 12, None), (7, 1, 12, None), (3, 0, 12, 3), (5, 0, 12, 2)],
)
def test_build_iota_residues_equal_the_dot_product_oracle(monkeypatch, p, n, prec, order):
    # the windowed sums are the oracle's integer sums, grouped differently,
    # so every residue agrees mod p^W, not only mod p^wprec; orders 2 and 3
    # stay below the first window
    ctx = PrimeContext(p, prec)
    order = order or default_truncation(ctx, n)
    want = iota_by_dot_products(ctx, order)
    assert len(want) == order + 1
    assert _raw_iota(monkeypatch, ctx, order) == want


def _both_raise(ctx, order):
    """The PropertyFailure messages of the oracle and of build_iota."""
    messages = []
    for solve in (iota_by_dot_products, build_iota):
        with pytest.raises(PropertyFailure) as err:
            solve(ctx, order)
        messages.append(str(err.value))
    return messages


def test_build_iota_raises_what_the_oracle_raises_on_a_non_integral_a(monkeypatch):
    # A_27 + 3^-4 makes 27 A_27 carry 1/3, so exp(pA) is non-integral at
    # degree 27, past the first window; both solves stop there
    binomials = honda._averaged_binomials

    def bumped(ctx, order, digits):
        a = binomials(ctx, order, digits)
        a[27] += Fraction(1, 81)
        return a

    monkeypatch.setattr(honda, "_averaged_binomials", bumped)
    message = "exp(pA) has a non-integral coefficient at degree 27"
    assert _both_raise(PrimeContext(3, 12), 40) == [message, message]


def test_build_iota_raises_what_the_oracle_raises_on_a_skewed_phi_row(monkeypatch):
    # (phi^12)_13 + 1 adds the unit F_12 to the sum of degree 13, past the
    # first window
    rows = honda._phi_rows
    skews = []

    def skewed(p, mod, order):
        for j, (lo, entries) in enumerate(rows(p, mod, order), 1):
            if j == 12:
                entries = list(entries)
                entries[13 - lo] += 1
                skews.append(lo)
            yield lo, entries

    monkeypatch.setattr(honda, "_phi_rows", skewed)
    message = "iota has a non-integral coefficient at degree 13"
    assert _both_raise(PrimeContext(3, 12), 40) == [message, message]
    assert len(skews) == 2 and skews[0] <= 13


def _defining_sum_by_pow(ctx, x, target):
    """Test-only oracle: the defining double sum at x, each power
    (1+x)^(p^k delta) one pow mod p^(T+k) with delta's Teichmuller lift
    mod p^(T+k)."""
    p, vx = ctx.p, vp(x, ctx.p)
    total = iwasawa_log(ctx.scalar(1 + x, target + 8))
    k = 0
    while (p - 1) * (vx + k) - k < target:
        digits = target + k
        mod = ctx.pk(digits)
        s = sum(pow(1 + x, ctx.pk(k) * ctx.teichmuller_int(r, digits), mod) - 1 for r in range(1, p))
        total = total + PadicScalar._make(ctx, -k, s, target)
        k += 1
    return total


@pytest.mark.parametrize("p", [3, 5, 7])
def test_defining_sum_matches_the_direct_powers(p):
    ctx = PrimeContext(p, 12)
    target = ctx.wprec + 2
    for x in (p, p * (1 + p), p * p):
        got, want = _defining_sum(ctx, x, target), _defining_sum_by_pow(ctx, x, target)
        assert (got.v, got.unit, got.absprec) == (want.v, want.unit, want.absprec), x
        assert got.absprec == target


def test_log_at_points_measures_the_defining_sum(honda3, ctx3):
    assert log_at_points(honda3.ell) >= ctx3.wprec
    # ell_2 + 3^5 moves ell(3) and ell(12) by 3^7
    coeffs = list(honda3.ell.coeffs)
    coeffs[2] = coeffs[2] + 3**5
    assert log_at_points(TruncatedSeries.from_scalars(ctx3, coeffs)) == 7


def _searched_truncation(p, n, prec):
    """Test-only oracle: the order with L found by searching for the least
    L >= 1 with p^L >= d (prec + 8)."""
    d = p**n * (p - 1)
    logterm = 1
    while p**logterm < d * (prec + 8):
        logterm += 1
    return d * (prec + logterm + 4) + 8


def test_default_truncation_matches_the_search_oracle():
    for p in (3, 5, 7, 11):
        for n in range(4):
            for prec in range(4, 121):
                expected = _searched_truncation(p, n, prec)
                assert default_truncation(PrimeContext(p, prec), n) == expected


def test_log_floor_is_the_largest_power_below():
    for p in (3, 5, 7, 11):
        for m in range(1, p**4 + 2):
            k = _log_floor(m, p)
            assert p**k <= m < p ** (k + 1)
