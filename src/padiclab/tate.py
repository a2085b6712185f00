"""Tate curve q-expansions, the multiplicative uniformization, the
identification of the curve's formal group with the multiplicative one,
and the derivative bookkeeping for the split-multiplicative L-value
prediction.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .core import (
    InvalidInputError,
    PadicScalar,
    PrecisionError,
    PrimeContext,
    PropertyFailure,
    factorial_valuation,
    iwasawa_log,
    split_p,
    teichmuller,
    vp,
)
from .series import TruncatedSeries, geometric_inverse, log_one_plus_x
from .coleman import TateParameter


def sk_coefficients(k: int, order: int):
    """Integer q-expansion of s_k: coefficient of q^n is sigma_k(n)."""
    if k not in (1, 3, 5):
        raise InvalidInputError("only s_1, s_3, s_5 are used")
    out = [0] * (order + 1)
    for d in range(1, order + 1):
        dk = d**k
        for n in range(d, order + 1, d):
            out[n] += dk
    return out


def a_series_coefficients(order: int):
    """Exact integer q-expansions of the two curve coefficients.

    a4 = -5 s_3 and a6 = -(5 s_3 + 7 s_5)/12; the division by 12 is exact
    in every degree, which is asserted.
    """
    s3 = sk_coefficients(3, order)
    s5 = sk_coefficients(5, order)
    a4 = [-5 * c for c in s3]
    a6 = []
    for c3, c5 in zip(s3, s5):
        num = -(5 * c3 + 7 * c5)
        if num % 12:
            raise PropertyFailure("5 s_3 + 7 s_5 is not divisible by 12")
        a6.append(num // 12)
    return a4, a6


def sk_values(q: PadicScalar, ks=(1, 3, 5)):
    """(s_k(q) for k in ks), s_k(q) = sum_{n>=1} n^k q^n/(1-q^n), summed to
    working precision in one pass over n.

    The sums run on integers mod p^E, sharing q^n and the inverse of
    1 - q^n among all k, with E = absprec(q): the n = 1 term is known to
    exactly that precision and the n-th to n v(q) + k v_p(n) + rel(q), no
    less, so E is the least precision among the terms.  Terms with
    n v(q) >= E vanish.
    """
    ctx = q.ctx
    if q.is_zero:
        return tuple(ctx.zero(q.absprec) for _ in ks)
    if q.v < 1:
        raise InvalidInputError("s_k needs v(q) >= 1")
    target = q.absprec
    mod = ctx.pk(target)
    qn = _power_list(q.lift(), (target - 1) // q.v, mod)
    acc = [0] * len(ks)
    for n, (x, inv) in enumerate(zip(qn, _inverses([1 - x for x in qn], mod)), 1):
        term = x * inv
        for i, k in enumerate(ks):
            acc[i] = (acc[i] + n**k * term) % mod
    return tuple(PadicScalar._make(ctx, 0, a, target) for a in acc)


def _power_list(x: int, count: int, mod: int):
    """[x, x^2, ..., x^count] mod ``mod``."""
    out = []
    y = 1
    for _ in range(count):
        y = y * x % mod
        out.append(y)
    return out


def _inverses(xs, mod: int):
    """[x^-1 mod ``mod`` for x in xs] from one modular inversion: the
    prefix products are inverted once and unwound (Montgomery's trick),
    three products per element instead of one extended gcd each."""
    prefix = [1]
    for x in xs:
        prefix.append(prefix[-1] * x % mod)
    inv = pow(prefix[-1], -1, mod)
    out = [0] * len(xs)
    for i in range(len(xs) - 1, -1, -1):
        out[i] = inv * prefix[i] % mod
        inv = inv * xs[i] % mod
    return out


def sk_value(k: int, q: PadicScalar) -> PadicScalar:
    """s_k(q) alone; see sk_values."""
    return sk_values(q, (k,))[0]


def a_invariants(q: PadicScalar, sums=None):
    """(a4, a6) of the split multiplicative curve with parameter q, from
    ``sums`` = sk_values(q) when the caller already has it.

    The q-coefficients are -5 and -1; both values are p-integral, which
    is asserted.
    """
    _, s3, s5 = sk_values(q) if sums is None else sums
    a4 = -(s3 * 5)
    a6 = -(s3 * 5 + s5 * 7) / 12
    for name, val in (("a4", a4), ("a6", a6)):
        if val.min_valuation() < 0:
            raise PropertyFailure(f"{name} is not integral (valuation {val.min_valuation()})")
    return a4, a6


def weierstrass_residual(x, y, a4, a6):
    """y^2 + xy - x^3 - a4 x - a6."""
    return y * y + x * y - x * x * x - a4 * x - a6


def uniformize_point(u: PadicScalar, q, a_inv=None, s1=None):
    """(X(u,q), Y(u,q), residual) for a unit u not congruent to 1.

    ``a_inv`` = a_invariants(q) and ``s1`` = s_1(q) may be passed in by a
    caller that evaluates many points on one curve.

    The two-sided sums are folded to positive powers of q via the
    u <-> 1/u symmetry, so every summand converges; the tail is cut when
    q^m drops below working precision.

    The m = 0 terms u/(1-u)^2 and u^2/(1-u)^3 are scalars, since 1 - u
    need not be a unit.  The m >= 1 terms w/(1-w)^2, w^2/(1-w)^3 (w = q^m u)
    and -w/(1-w)^3 (w = q^m/u) are summed on integers mod p^E, the
    inverses of every 1 - w taken together, with E = v(q) + min(target, rel(q)) and target
    = min(absprec(u), absprec(q)): the m = 1 terms are known to exactly
    that precision and every later term to more, so E is the least
    precision among them.
    """
    if isinstance(q, TateParameter):
        q = q.value()
    ctx = u.ctx
    if u.is_zero or u.v != 0:
        raise InvalidInputError("uniformization expects a unit u")
    if q.is_zero or q.v < 1:
        raise InvalidInputError("the parameter must have positive valuation")
    if (u - 1).is_zero:
        raise InvalidInputError("u lies in q^Z: the point at infinity")
    target = min(u.absprec, q.absprec)
    X = u / ((1 - u) ** 2)
    Y = u * u / ((1 - u) ** 3)
    E = q.v + min(target, q.rel_prec())
    mod = ctx.pk(E)
    ui = u.lift()
    uinv = pow(ui, -1, mod)
    qm = _power_list(q.lift(), (target + 1) // q.v, mod)
    wps = [x * ui % mod for x in qm]
    wns = [x * uinv % mod for x in qm]
    invs = _inverses([1 - w for w in wps + wns], mod)
    sx = sy = 0
    for wp, wn, ip, ineg in zip(wps, wns, invs, invs[len(qm):]):
        sx = (sx + wp * ip * ip + wn * ineg * ineg) % mod
        sy = (sy + wp * wp * ip**3 - wn * ineg**3) % mod
    if qm:
        X = X + PadicScalar._make(ctx, 0, sx, E)
        Y = Y + PadicScalar._make(ctx, 0, sy, E)
    if s1 is None:
        s1 = sk_value(1, q)
    if a_inv is None:
        a_inv = a_invariants(q)
    X = X - s1 * 2
    Y = Y + s1
    a4, a6 = a_inv
    return X, Y, weierstrass_residual(X, Y, a4, a6)


# -- the formal group of the curve ---------------------------------------------------


def formal_log_weierstrass(ctx: PrimeContext, a4, a6, order: int) -> TruncatedSeries:
    """Formal logarithm of y^2 + xy = x^3 + a4 x + a6 in t = -x/y.

    The standard expansion w = t^3 + t w + a4 t w^2 + a6 w^3 (w = -1/y) is
    solved coefficient by coefficient, on integers mod p^A with A the
    least absprec of the integral a4 and a6, then the invariant
    differential dx/(2y + x) = (2W + tW')/(W (2 - t)) dt with w = t^3 W
    is integrated.
    """
    absprec = min(a4.absprec, a6.absprec)
    mod = ctx.pk(absprec)
    a4, a6 = a4.lift(), a6.lift()
    n = order + 3
    # w, w^2 and w^3 indexed by degree in t; w starts at t^3
    w = [0, 0, 0, 1]
    sq = [0] * (n + 4)
    cube = [0] * (n + 1)
    sq[6] = 1
    if 9 <= n:
        cube[9] = 1
    for m in range(4, n + 1):
        w.append((w[m - 1] + a4 * sq[m - 1] + a6 * cube[m]) % mod)
        sq[m + 3] = sum(map(mul, w[3:], w[:2:-1])) % mod
        if m + 6 <= n:
            cube[m + 6] = sum(map(mul, w[3:], sq[m + 3 : 5 : -1])) % mod
    # w = t^3 W, W(0) = 1, and 2W + tW' has coefficients (i + 2) W_i
    big_w = TruncatedSeries(ctx, 0, absprec, w[3:])
    num = TruncatedSeries(ctx, 0, absprec, [(i + 2) * c for i, c in enumerate(w[3:])])
    two_minus_t = TruncatedSeries(ctx, 0, absprec, [2, -1] + [0] * (order - 1))
    omega = (num * big_w.reciprocal() * two_minus_t.reciprocal()).truncate(order - 1)
    lam = omega.integrate().truncate(order)
    return lam, omega


def multiplicative_parameter_series(ctx, omega: TruncatedSeries, order: int) -> TruncatedSeries:
    """The series t(X) with lambda(t(X)) = log(1+X), lambda the integral of
    omega, as the compositional inverse of s(T) = exp(lambda(T)) - 1.

    The curve's formal group is the multiplicative one over Z_p, so s is
    an integral isomorphism onto it and t is its reversion.  F = exp(lambda)
    is solved from F' = omega F, m F_m = sum_(j<m) omega_j F_(m-1-j), on
    integers mod p^A, A the absprec of omega; each division by m is an
    exact division by p^(v_p(m)).  A remainder means that F_m leaves Z_p,
    and so does t_m, which is -F_m plus an integer polynomial in
    F_1..F_(m-1): PropertyFailure names the degree and that valuation.

    By induction an error in F_m has valuation at least A - v_p(m!), so F
    is claimed mod p^(A - v_p(order!)), and ``reversion`` keeps that claim;
    that claim must be positive, so every remainder is read from known
    digits.  omega must be integral with constant term 1; both are
    checked.
    """
    c0 = omega.coeff(0)
    if c0.is_zero or not (c0 - 1).is_zero:
        raise InvalidInputError("omega needs constant term 1")
    ok, worst = omega.is_integral()
    if not ok:
        raise InvalidInputError(f"omega has a non-integral coefficient (valuation {worst})")
    _, absprec, w = omega.packed
    prec = absprec - factorial_valuation(order, ctx.p)
    if prec <= 0:
        raise PrecisionError("uniformizing series has no remaining precision", achieved=prec)
    mod = ctx.pk(absprec)
    F = [1]
    for m in range(1, order + 1):
        vm, um = split_p(m, ctx.p)
        s = sum(map(mul, w[:m], reversed(F))) % mod
        if s % ctx.pk(vm):
            v = vp(s, ctx.p) - vm
            raise PropertyFailure(f"uniformizing series leaves Z_p at degree {m} (valuation {v})")
        F.append(s // ctx.pk(vm) * pow(um, -1, mod) % mod)
    F[0] = 0
    return TruncatedSeries(ctx, 0, prec, F).reversion()


def _series_residual(a: TruncatedSeries, b: TruncatedSeries):
    """Least valuation of a - b, coefficient by coefficient; series of
    different orders are refused, not truncated to the shorter."""
    if a.order != b.order:
        raise InvalidInputError(
            f"cannot compare a series of order {a.order} with one of order {b.order}"
        )
    return int((a - b).min_valuation())


def verify_formal_iso(ctx: PrimeContext, q, order: int = 64) -> dict:
    """t(X) = exp of the curve log composed with log(1+X): integral
    coefficients, inverse composition back to log(1+X), and the
    differential pullback identity d/dX [lambda(t(X))] = 1/(1+X).

    The solve for exp(lambda) divides by each degree m, and the curve log
    by each index, shedding up to v_p(order!) digits in all, so the
    parameter is re-embedded with that much headroom for the checks to
    land at precision N.
    """
    if order < 1:
        raise InvalidInputError(f"formal iso needs order >= 1, got {order}")
    if isinstance(q, TateParameter):
        q_int = q.unit * ctx.p**q.ord
    else:
        q_int = q.lift()
    headroom = ctx.wprec + factorial_valuation(order, ctx.p) + 8
    q = ctx.scalar(q_int, headroom)
    a4, a6 = a_invariants(q)
    lam, omega = formal_log_weierstrass(ctx, a4, a6, order)
    # the solve forms exp(lambda) and its reversion but never lambda(t) or
    # omega(t): both are composed here over the final t(X), so the
    # roundtrip and the pullback are not identities the solve enforced
    t_of_x = multiplicative_parameter_series(ctx, omega, order)
    ok, worst = t_of_x.is_integral()
    if not ok:
        raise PropertyFailure(
            f"uniformizing series has a non-integral coefficient ({worst})"
        )
    if not t_of_x.coeff(0).is_zero:
        raise PropertyFailure("uniformizing series has a constant term")
    ctx.require((t_of_x.coeff(1) - 1).min_valuation(), "uniformizing series does not start at X")
    logx = log_one_plus_x(ctx, order, lam.absprec)
    roundtrip = lam.compose(t_of_x)
    rt_resid = ctx.require(_series_residual(roundtrip, logx), "log roundtrip fails")
    # pullback of dx/(2y+x): both through the composed derivative and the
    # chain rule, against 1/(1+X)
    geo = geometric_inverse(ctx, order - 1)
    d_composed = roundtrip.derivative()
    pull1 = _series_residual(d_composed, geo)
    chain = t_of_x.derivative() * omega.compose(t_of_x).truncate(order - 1)
    pull2 = _series_residual(chain.truncate(order - 1), geo)
    pull_resid = ctx.require(min(pull1, pull2), "differential pullback fails")
    return {
        "order": order,
        "t_integral_floor": worst,
        "roundtrip_residual": rt_resid,
        "pullback_residual": pull_resid,
    }


def default_grid(ctx: PrimeContext):
    """Sampling grid: q in {p, p(1+p), p^2(1+p)}, u in {2, 1+p, omega(2)}."""
    p = ctx.p
    qs = [
        TateParameter.make(ctx, 1, 1),
        TateParameter.make(ctx, 1, 1 + p),
        TateParameter.make(ctx, 2, 1 + p),
    ]
    us = [ctx.scalar(2), ctx.scalar(1 + p), teichmuller(2, ctx)]
    return qs, us


def mtt_report(ctx: PrimeContext, q: TateParameter, lratio, kappa_gamma: int | None = None) -> dict:
    """Predictions for the two derivative normalisations given the ratio
    of the global L-value to the real period.

    The interpolation input at the trivial character carries the Euler
    factor (1 - 1/p); the slope-form prediction is independent of the
    choice of topological generator, which is checked by recomputation.
    """
    if q.ord < 1:
        raise InvalidInputError("not split multiplicative: ord(q) = 0")
    lratio = lratio if isinstance(lratio, PadicScalar) else ctx.scalar(lratio)
    kg = (1 + ctx.p) if kappa_gamma is None else kappa_gamma
    euler = ctx.scalar(Fraction(ctx.p - 1, ctx.p))
    e0 = euler * lratio
    log_kappa = iwasawa_log(ctx.scalar(kg))
    lead_factor = ctx.scalar(ctx.p) / (log_kappa * (ctx.p - 1))
    dX = lead_factor * q.slope() * e0
    ds = log_kappa * dX
    # generator independence of the s-normalisation
    kg2 = kg * kg
    log_kappa2 = iwasawa_log(ctx.scalar(kg2))
    dX2 = ctx.scalar(ctx.p) / (log_kappa2 * (ctx.p - 1)) * q.slope() * e0
    ds2 = log_kappa2 * dX2
    invariance = ctx.require((ds - ds2).min_valuation(), "s-derivative depends on the generator")
    ctx.require((ds - q.slope() * lratio).min_valuation(), "Euler-factor cancellation fails")
    return {
        "euler_factor": euler,
        "interpolation_input": e0,
        "l_invariant": q.slope(),
        "dX_prediction": dX,
        "ds_prediction": ds,
        "kappa_gamma": kg,
        "generator_invariance_residual": invariance,
        "normalization": "ds = slope * lratio; dX = ds / log kappa(gamma)",
    }
