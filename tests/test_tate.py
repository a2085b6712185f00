import random
from fractions import Fraction

import pytest

from padiclab import (
    InvalidInputError,
    PrimeContext,
    PropertyFailure,
    TateParameter,
    a_invariants,
    a_series_coefficients,
    iwasawa_log,
    mtt_report,
    sk_coefficients,
    sk_value,
    sk_values,
    uniformize_point,
    verify_formal_iso,
    weierstrass_residual,
)
from padiclab.series import TruncatedSeries
from padiclab.core import PadicScalar, PrecisionError, factorial_valuation
from padiclab.tate import (
    _inverses,
    _series_residual,
    default_grid,
    formal_log_weierstrass,
    multiplicative_parameter_series,
)
from conftest import extend_power_rows, from_rationals, horner_compose


def compose_oracle_parameter_series(ctx, omega, order):
    """Test-only oracle: the uniformizing series with omega(t) recomposed
    from scratch at every degree (O(order^4))."""
    absprec = min(c.absprec for c in omega.coeffs)
    zero = ctx.zero(absprec)
    t = [zero, ctx.one(absprec)]
    for m in range(2, order + 1):
        F = omega.truncate(m - 1).compose(TruncatedSeries.from_scalars(ctx, t))
        s = zero
        for i in range(1, m):
            g_i = F.coeff(i) + F.coeff(i - 1)
            if not g_i.is_zero:
                s = s + g_i * (m - i) * t[m - i]
        t.append(-s / m)
    return TruncatedSeries.from_scalars(ctx, t)


def scalar_parameter_series(ctx, omega, order):
    """Test-only oracle: the uniformizing series with the degree-m sum
    s = sum_i g_i (m-i) t_(m-i) and the division by m done on scalars,
    omega(t) read off the power table of t."""
    absprec = min(c.absprec for c in omega.coeffs)
    w = [c.lift() for c in omega.coeffs]
    zero = ctx.zero(absprec)
    t = [zero, ctx.one(absprec)]
    ti = [0, 1]
    prec = absprec
    pw = [None, ti]
    F = [w[0]]
    for m in range(2, order + 1):
        k = m - 1
        prec = min(prec, t[k].absprec)
        if prec <= 0:
            raise PrecisionError("uniformizing series has no remaining precision", achieved=prec)
        mod = ctx.pk(prec)
        if k > 1:
            extend_power_rows(pw, k, mod)
        F.append(sum(w[j] * pw[j][k] for j in range(1, min(k, len(w) - 1) + 1)) % mod)
        Fm = [PadicScalar._make(ctx, 0, f, prec) for f in F]
        s = zero
        for i in range(1, m):
            g_i = Fm[i] + Fm[i - 1]
            if not g_i.is_zero:
                s = s + g_i * (m - i) * t[m - i]
        tm = -s / m
        if tm.min_valuation() < 0:
            raise PropertyFailure(
                f"uniformizing series leaves Z_p at degree {m} (valuation {tm.min_valuation()})"
            )
        t.append(tm)
        ti.append(tm.lift())
    return TruncatedSeries.from_scalars(ctx, t)


def scalar_sk_value(k, q):
    """Test-only oracle: s_k(q) summed term by term on scalars."""
    ctx = q.ctx
    if q.is_zero:
        return ctx.zero(q.absprec)
    target = q.absprec
    acc = ctx.zero(target)
    qn = ctx.one(target)
    n = 1
    while (n * q.v) < target:
        qn = qn * q
        acc = acc + qn * (n**k) / (1 - qn)
        n += 1
    return acc


def scalar_uniformize_point(u, q, a_inv):
    """Test-only oracle: (X, Y, residual) with every summand a scalar."""
    ctx = u.ctx
    target = min(u.absprec, q.absprec)
    uinv = u.inverse()

    def x_term(w):
        return w / ((1 - w) ** 2)

    def y_term_pos(w):
        return w * w / ((1 - w) ** 3)

    def y_term_neg(w):
        return -(w / ((1 - w) ** 3))

    X = x_term(u)
    Y = y_term_pos(u)
    qm = ctx.one(target)
    m = 1
    while m * q.v < target + 2:
        qm = qm * q
        wp = qm * u
        wn = qm * uinv
        X = X + x_term(wp) + x_term(wn)
        Y = Y + y_term_pos(wp) + y_term_neg(wn)
        m += 1
    s1 = scalar_sk_value(1, q)
    X = X - s1 * 2
    Y = Y + s1
    return X, Y, weierstrass_residual(X, Y, *a_inv)


def _grid_omega(ctx, q, order):
    """omega of the Tate curve at q, embedded as verify_formal_iso does."""
    headroom = ctx.wprec + factorial_valuation(order, ctx.p) + 8
    a4, a6 = a_invariants(ctx.scalar(q.unit * ctx.p**q.ord, headroom))
    return formal_log_weierstrass(ctx, a4, a6, order)[1]


def _digits(series):
    return [(c.v, c.unit, c.absprec) for c in series.coeffs]


def test_divisor_sum_series():
    assert sk_coefficients(1, 5) == [0, 1, 3, 4, 7, 6]
    assert sk_coefficients(3, 2)[2] == 9  # 1 + 2^3
    assert sk_coefficients(5, 1) == [0, 1]


def test_a_series_leading_coefficients():
    a4s, a6s = a_series_coefficients(30)
    assert a4s[1] == -5
    assert a6s[1] == -1  # -(5 + 7)/12
    assert a4s[0] == 0 and a6s[0] == 0


def test_a_series_twelve_divides_exactly():
    # integrality of -(5 s_3 + 7 s_5)/12 in every degree
    a4s, a6s = a_series_coefficients(60)
    assert all(isinstance(c, int) for c in a6s)


def test_a_invariants_integral_on_grid(ctx3):
    from padiclab.tate import default_grid

    qs, _ = default_grid(ctx3)
    for q in qs:
        a4, a6 = a_invariants(q.value())
        assert a4.min_valuation() >= 1
        assert a6.min_valuation() >= 1


def test_uniformization_exact_rational_at_q_zero():
    # q = 0: X = u/(1-u)^2, Y = u^2/(1-u)^3 on y^2 + xy = x^3, exactly
    u = Fraction(2)
    X = u / (1 - u) ** 2
    Y = u * u / (1 - u) ** 3
    assert Y * Y + X * Y - X**3 == 0


def test_uniformization_residual(ctx5):
    q = TateParameter.make(ctx5, 1, 1)  # q = 5
    u = ctx5.scalar(2)
    X, Y, resid = uniformize_point(u, q)
    assert resid.min_valuation() >= ctx5.prec


def test_uniformization_oracle_doubled_precision():
    # independent resummation at doubled precision reproduces the values
    lo = PrimeContext(5, 12)
    hi = PrimeContext(5, 24)
    Xl, Yl, _ = uniformize_point(lo.scalar(2), TateParameter.make(lo, 1, 1))
    Xh, Yh, _ = uniformize_point(hi.scalar(2), TateParameter.make(hi, 1, 1))
    assert (Xl - Xh.reduce_absprec(Xl.absprec)).min_valuation() >= lo.prec
    assert (Yl - Yh.reduce_absprec(Yl.absprec)).min_valuation() >= lo.prec


def test_uniformization_inversion_symmetry(ctx3):
    q = TateParameter.make(ctx3, 1, 4)
    u = ctx3.scalar(2)
    X1, Y1, _ = uniformize_point(u, q)
    X2, Y2, _ = uniformize_point(u.inverse(), q)
    assert (X1 - X2).min_valuation() >= ctx3.prec


def test_uniformization_point_at_infinity(ctx3):
    q = TateParameter.make(ctx3, 1, 4)
    with pytest.raises(InvalidInputError):
        uniformize_point(ctx3.one(), q)


def test_uniformization_rejects_nonunits(ctx3):
    q = TateParameter.make(ctx3, 1, 4)
    with pytest.raises(InvalidInputError):
        uniformize_point(ctx3.scalar(3), q)


def test_stated_a4_coefficient_contradicts_uniformization(ctx3):
    # with a4 = -s_3 (q-coefficient -1) the Weierstrass identity fails at
    # valuation ~1; the uniformization forces the q-coefficient -5
    q = TateParameter.make(ctx3, 1, 4)
    _, a6 = a_invariants(q.value())
    s3 = sk_value(3, q.value())
    X, Y, _ = uniformize_point(ctx3.scalar(2), q)
    resid_wrong = weierstrass_residual(X, Y, -s3, a6)
    assert resid_wrong.min_valuation() <= 3
    resid_right = weierstrass_residual(X, Y, -(s3 * 5), a6)
    assert resid_right.min_valuation() >= ctx3.prec


def test_formal_iso_grid(ctx3):
    from padiclab.tate import default_grid

    qs, _ = default_grid(ctx3)
    for q in qs:
        rep = verify_formal_iso(ctx3, q, order=40)
        assert rep["roundtrip_residual"] >= ctx3.prec - 2
        assert rep["pullback_residual"] >= ctx3.prec - 2
        assert rep["t_integral_floor"] >= 0


def test_formal_iso_p5(ctx5):
    q = TateParameter.make(ctx5, 1, 6)
    rep = verify_formal_iso(ctx5, q, order=40)
    assert rep["roundtrip_residual"] >= ctx5.prec - 2


def test_degenerate_parameter_series_frozen():
    # a4 = a6 = 0: w = t^3/(1-t) gives lambda = -log(1-t) and the
    # uniformizing series t(X) = X/(1+X) (checked by hand from t = -x/y)
    ctx = PrimeContext(3, 14)
    zero = ctx.scalar(0, 80)
    lam, omega = formal_log_weierstrass(ctx, zero, zero, 20)
    minus_log_one_minus = from_rationals(
        ctx, [0] + [Fraction(1, m) for m in range(1, 21)], 80
    )
    resid = min(
        (a - b).min_valuation() for a, b in zip(lam.coeffs, minus_log_one_minus.coeffs)
    )
    assert resid >= ctx.prec
    t = multiplicative_parameter_series(ctx, omega, 20)
    x_over_one_plus_x = from_rationals(
        ctx, [0] + [(-1) ** (m - 1) for m in range(1, 21)], 80
    )
    resid_t = min(
        (a - b).min_valuation() for a, b in zip(t.coeffs, x_over_one_plus_x.coeffs)
    )
    assert resid_t >= ctx.prec


def test_parameter_series_matches_compose_oracle(ctx3, ctx5):
    # every coefficient identical in (v, unit, absprec), so reports built
    # on the reverted exp(lambda) - 1 are the reports the recomposing
    # solver gave
    order = 24
    omegas = [_grid_omega(ctx, q, order) for ctx in (ctx3, ctx5) for q in default_grid(ctx)[0]]
    zero = ctx3.scalar(0, 80)
    omegas.append(formal_log_weierstrass(ctx3, zero, zero, order)[1])
    for omega in omegas:
        ctx = omega.ctx
        fast = multiplicative_parameter_series(ctx, omega, order)
        assert _digits(fast) == _digits(compose_oracle_parameter_series(ctx, omega, order))


def test_parameter_series_never_composes(ctx3, monkeypatch):
    omega = _grid_omega(ctx3, default_grid(ctx3)[0][0], 64)
    calls = []
    original = TruncatedSeries.compose

    def counting(self, g):
        calls.append(g.order)
        return original(self, g)

    monkeypatch.setattr(TruncatedSeries, "compose", counting)
    t = multiplicative_parameter_series(ctx3, omega, 64)
    assert t.order == 64
    assert calls == []


def test_parameter_series_rejects_bad_omega(ctx3):
    for constant in (0, 3, 2):
        omega = from_rationals(ctx3, [constant, 1, 0, 0])
        with pytest.raises(InvalidInputError, match="constant term 1"):
            multiplicative_parameter_series(ctx3, omega, 3)
    omega = from_rationals(ctx3, [1, Fraction(1, 3), 0, 0])
    with pytest.raises(InvalidInputError, match="non-integral"):
        multiplicative_parameter_series(ctx3, omega, 3)


def test_parameter_series_refuses_omega_without_headroom(ctx3):
    # omega = 1/(1-T), so exp(lambda) = 1/(1-T) is integral; v_3(9!) = 4
    # digits are shed, so omega known to 4 digits leaves none at order 9
    omega = from_rationals(ctx3, [1] * 9, 4)
    with pytest.raises(PrecisionError, match="no remaining precision"):
        multiplicative_parameter_series(ctx3, omega, 9)
    assert multiplicative_parameter_series(ctx3, omega, 8).absprec == 2


def test_parameter_series_leaving_zp_names_the_degree(ctx3):
    # omega = 1 + X: lambda = X + X^2/2, so t = X - X^2 + (4/3) X^3 + ...
    omega = from_rationals(ctx3, [1, 1] + [0] * 6)
    with pytest.raises(PropertyFailure, match="degree 3"):
        multiplicative_parameter_series(ctx3, omega, 8)


def test_formal_iso_rejects_order_below_one(ctx3):
    q = default_grid(ctx3)[0][0]
    for order in (0, -1):
        with pytest.raises(InvalidInputError, match="order"):
            verify_formal_iso(ctx3, q, order=order)


def test_mtt_canonical_cancellation(ctx3):
    # q = p(1+p): log q / ord q = log(1+p), so ds = log(1+p) * lratio
    q = TateParameter.make(ctx3, 1, 4)
    rep = mtt_report(ctx3, q, 7)
    expected = iwasawa_log(ctx3.scalar(4)) * 7
    assert (rep["ds_prediction"] - expected).min_valuation() >= ctx3.prec - 2
    # the dX-form carries 1/log kappa
    back = rep["dX_prediction"] * iwasawa_log(ctx3.scalar(4))
    assert (back - expected).min_valuation() >= ctx3.prec - 2


def test_mtt_euler_factor_normalization(ctx3):
    q = TateParameter.make(ctx3, 1, 4)
    rep = mtt_report(ctx3, q, 7)
    # ds = log(1+p) (1 - 1/p) lratio * p/(p-1)
    euler = ctx3.scalar(Fraction(2, 3))
    normalization = ctx3.scalar(Fraction(3, 2))
    expected = iwasawa_log(ctx3.scalar(4)) * euler * 7 * normalization
    assert (rep["ds_prediction"] - expected).min_valuation() >= ctx3.prec - 2


def test_mtt_zero_l_value(ctx3):
    q = TateParameter.make(ctx3, 1, 4)
    rep = mtt_report(ctx3, q, 0)
    assert rep["ds_prediction"].is_zero
    assert rep["dX_prediction"].is_zero


def test_mtt_generator_invariance(ctx3):
    q = TateParameter.make(ctx3, 1, 4)
    r1 = mtt_report(ctx3, q, 5, kappa_gamma=4)
    r2 = mtt_report(ctx3, q, 5, kappa_gamma=16)
    assert (r1["ds_prediction"] - r2["ds_prediction"]).min_valuation() >= ctx3.prec - 2
    # dX halves when log kappa doubles
    ratio_check = r2["dX_prediction"] * 2 - r1["dX_prediction"]
    assert ratio_check.min_valuation() >= ctx3.prec - 4


def test_mtt_squaring_covariance(ctx3):
    q = TateParameter.make(ctx3, 1, 4)
    q2 = TateParameter.make(ctx3, 2, 16)
    r1 = mtt_report(ctx3, q, 3)
    r2 = mtt_report(ctx3, q2, 3)
    assert (r1["ds_prediction"] - r2["ds_prediction"]).min_valuation() >= ctx3.prec - 2


def test_mtt_slope_with_iwasawa_branch(ctx3):
    # q = p has log q = 0: the prediction degenerates to zero
    q = TateParameter.make(ctx3, 1, 1)
    rep = mtt_report(ctx3, q, 9)
    assert rep["ds_prediction"].is_zero or rep["ds_prediction"].min_valuation() >= 10


def test_tate_suite_builds_its_grid_once(monkeypatch):
    # three a-invariants on the grid, three at verify_formal_iso's headroom
    from padiclab import tate
    from padiclab.runner import SuiteConfig, run_suite

    calls = {"default_grid": 0, "a_invariants": 0, "sk_values": 0}
    for name in calls:
        orig = getattr(tate, name)

        def counted(*a, orig=orig, name=name):
            calls[name] += 1
            return orig(*a)

        monkeypatch.setattr(tate, name, counted)
    report = run_suite(SuiteConfig(p=3, n_max=0, prec=12, suites=("tate",)))
    assert report.summary() == {
        "pass": 5, "fail": 0, "expected-fail": 0, "skipped": 0, "total": 5
    }
    # one pass of s_1, s_3, s_5 per q at each precision: the grid points
    # take s_1 from the pass that gave the a-invariants
    assert calls == {"default_grid": 1, "a_invariants": 6, "sk_values": 6}


def test_tate_grid_error_is_reported(monkeypatch):
    from padiclab import tate
    from padiclab.runner import SuiteConfig, run_suite

    def broken(ctx):
        raise ZeroDivisionError("grid")

    monkeypatch.setattr(tate, "default_grid", broken)
    report = run_suite(SuiteConfig(p=3, n_max=0, prec=12, suites=("tate",)))
    failed = sorted(c.name for c in report.checks if c.status == "fail")
    assert failed == [
        "tate.a-integrality",
        "tate.formal-group-identification",
        "tate.inversion-symmetry",
        "tate.weierstrass-residual-grid",
    ]


def _triple(x):
    return (x.v, x.unit, x.absprec)


# the contexts of the integer-kernel oracle comparisons
ORACLE_GRID = [(p, n) for p in (3, 5, 7) for n in (12, 16, 30, 80)]


def test_parameter_series_matches_scalar_oracle():
    # every t_m identical in (v, unit, absprec) to the scalar recursion,
    # on the default grid and on the degenerate curve (whose
    # (1+X) omega(t) = (1+X)^2 vanishes past degree 2, so the oracle's
    # degree sums lose their least-precision term at every m >= 4)
    for p, n in ORACLE_GRID:
        ctx = PrimeContext(p, n)
        order = 64 if (p, n) == (3, 80) else 24
        omegas = [_grid_omega(ctx, q, order) for q in default_grid(ctx)[0]]
        zero = ctx.scalar(0, ctx.wprec + 8)
        omegas.append(formal_log_weierstrass(ctx, zero, zero, order)[1])
        for omega in omegas:
            fast = multiplicative_parameter_series(ctx, omega, order)
            assert _digits(fast) == _digits(scalar_parameter_series(ctx, omega, order))


def test_parameter_series_failure_matches_scalar_oracle(ctx3):
    omega = from_rationals(ctx3, [1, 1] + [0] * 6)
    for solve in (multiplicative_parameter_series, scalar_parameter_series):
        with pytest.raises(PropertyFailure, match=r"degree 3 \(valuation -1\)"):
            solve(ctx3, omega, 8)


def _oracle_points(ctx):
    """(u, q) over the default grid, each pair followed by one variant in
    turn: u^-1, u at absprec wprec - 5, or q at absprec wprec - 5."""
    qs, us = default_grid(ctx)
    low = ctx.wprec - 5
    variants = (
        lambda u, q: (u.inverse(), q),
        lambda u, q: (u.reduce_absprec(low), q),
        lambda u, q: (u, q.reduce_absprec(low)),
    )
    pairs = [(u, q.value()) for q in qs for u in us if not (u - 1).is_zero]
    for i, (u, q) in enumerate(pairs):
        yield u, q
        yield variants[i % len(variants)](u, q)


def test_uniformization_matches_scalar_oracle():
    # also as the tate suite evaluates a point: the a-invariants and s_1
    # from one sk_values pass per q
    for p, n in ORACLE_GRID:
        ctx = PrimeContext(p, n)
        for u, q in _oracle_points(ctx):
            a_inv = a_invariants(q)
            slow = list(map(_triple, scalar_uniformize_point(u, q, a_inv)))
            assert list(map(_triple, uniformize_point(u, q, a_inv))) == slow, (p, n)
            sums = sk_values(q)
            shared = a_invariants(q, sums)
            assert list(map(_triple, shared)) == list(map(_triple, a_inv))
            assert list(map(_triple, uniformize_point(u, q, shared, sums[0]))) == slow, (p, n)


def test_sk_value_matches_scalar_oracle():
    for p, n in ORACLE_GRID:
        ctx = PrimeContext(p, n)
        for q in default_grid(ctx)[0]:
            for qv in (q.value(), q.value().reduce_absprec(ctx.wprec - 5)):
                want = [_triple(scalar_sk_value(k, qv)) for k in (1, 3, 5)]
                assert [_triple(s) for s in sk_values(qv)] == want
                assert [_triple(sk_value(k, qv)) for k in (1, 3, 5)] == want


def test_formal_iso_composes_over_the_final_t(ctx3, monkeypatch):
    # lambda and omega, and only they, are composed over the final t(X)
    # itself (the solve never calls compose), and each composition agrees
    # with the packed Horner oracle, which runs every step at full length
    order = 40
    seen = []
    original = TruncatedSeries.compose

    def recorded(f, g):
        out = original(f, g)
        seen.append((f, g, out))
        return out

    monkeypatch.setattr(TruncatedSeries, "compose", recorded)
    for q in default_grid(ctx3)[0]:
        seen.clear()
        verify_formal_iso(ctx3, q, order)
        headroom = ctx3.wprec + factorial_valuation(order, ctx3.p) + 8
        a4, a6 = a_invariants(ctx3.scalar(q.unit * ctx3.p**q.ord, headroom))
        lam, omega = formal_log_weierstrass(ctx3, a4, a6, order)
        t = multiplicative_parameter_series(ctx3, omega, order)
        assert [_digits(f) for f, _, _ in seen] == [_digits(lam), _digits(omega)]
        assert [_digits(g) for _, g, _ in seen] == [_digits(t)] * 2
        assert [_digits(out) for _, _, out in seen] == [
            _digits(horner_compose(f, g)) for f, g, _ in seen
        ]


def _count_scalar_ops(monkeypatch):
    calls = {"mul": 0, "add": 0}
    for name, op in (("mul", "__mul__"), ("add", "__add__")):
        orig = getattr(PadicScalar, op)

        def counted(self, other, orig=orig, name=name):
            calls[name] += 1
            return orig(self, other)

        monkeypatch.setattr(PadicScalar, op, counted)
    return calls


def test_parameter_series_makes_no_scalar_products(ctx3, monkeypatch):
    omega = _grid_omega(ctx3, default_grid(ctx3)[0][0], 64)
    calls = _count_scalar_ops(monkeypatch)
    assert multiplicative_parameter_series(ctx3, omega, 64).order == 64
    assert calls["mul"] == 0


def test_uniformization_scalar_work_does_not_grow_with_precision(monkeypatch):
    # the m >= 1 sums run on integers, so the scalar operations of one
    # call are the same at N = 16 and N = 80
    counts = []
    for n in (16, 80):
        ctx = PrimeContext(3, n)
        q = TateParameter.make(ctx, 1, 4)
        a_inv = a_invariants(q.value())
        with monkeypatch.context() as mp:
            calls = _count_scalar_ops(mp)
            uniformize_point(ctx.scalar(2), q, a_inv)
        counts.append(dict(calls))
    assert counts[0] == counts[1]


def test_series_residual_refuses_different_lengths(ctx3):
    a = from_rationals(ctx3, [0, 1, 2, 3])
    b = from_rationals(ctx3, [0, 1, 2])
    assert _series_residual(a, a) >= ctx3.prec
    with pytest.raises(InvalidInputError, match="order 3 with one of order 2"):
        _series_residual(a, b)
    with pytest.raises(InvalidInputError, match="order 2 with one of order 3"):
        _series_residual(b, a)


def test_batched_inverses_match_pow():
    rng = random.Random(3)
    mod = 3**40
    xs = [rng.randrange(1, mod) for _ in range(30)]
    xs = [x + 1 if x % 3 == 0 else x for x in xs] + [1 - mod, -2]
    assert _inverses(xs, mod) == [pow(x, -1, mod) for x in xs]
    assert _inverses([], mod) == []
    with pytest.raises(ValueError):
        _inverses([2, 6, 4], mod)
