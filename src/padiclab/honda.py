"""The logarithm ell with p-typical Frobenius property, its exponential
counterpart iota onto the multiplicative formal group, and the element
epsilon with ell(epsilon) = p.

ell(X) = log(1+X) + sum_{k>=0} sum_{delta in mu_{p-1}} ((X+1)^(p^k delta) - 1)/p^k

With A(X) = sum_delta ((1+X)^delta - 1) and phi(X) = (1+X)^p - 1, the
substitution X -> phi shifts the k-sum by one and turns log(1+X) into
p log(1+X), which gives the functional equation (Hazewinkel, Formal
Groups and Applications, ch. I 2)

    ell = A + p^(-1) ell(phi),

and F = 1 + iota = exp(ell) then satisfies

    F^p = F(phi) exp(pA),

where exp(pA) is integral since p^m/m! is (Dwork's lemma makes F
integral too).  Both are solved degree by degree on integers mod p^W.
Since (phi^j)_j = p^j, the unknown of degree m stands alone on the left,
as ell_m (1 - p^(m-1)) and as F_m (p - p^m), and everything else reads
lower degrees.  iota's online products are `series._online_product`'s
windowed sums: per B = 4 degrees one dot product against ints of B slots
of 2 bits(p^W - 1) + bits(M + 1) bits, about M^2/(2B) multiply-adds each.

Loss bound: phi = X^p mod p, so (phi^j)_m is divisible by p except at
m = pj.  An error at degree j therefore comes back divided by p only at
degree pj, and a chain m -> pm -> p^2 m inside the order M has at most
floor(log_p M) steps; with the one digit of the division by p, either
solve loses at most floor(log_p M) + 1 digits (`_solve_digits`), where
the exponential ODE m F_m = sum_j j ell_j F_(m-j) would lose v_p(M!).
exp(pA) itself comes from m E_m = p sum_j j A_j E_(m-j), whose errors do
not compound: one at degree k reaches degree n only times p k/n' for
k < n' <= n and integers, since exp(-pA) = 1 mod p.  So E_i is right to
W + 1 - floor(log_p i) digits, and it enters F at degrees m >= i, from
which at most floor(log_p(M/i)) steps m -> pm remain.

ell and iota are built separately, and the checks that tie them assume
neither construction: `log_at_points` compares ell at three points of
pZ_p with the defining double sum, without A or phi; ell' (1 + iota) =
iota' (the suite's honda.log-of-inverse) ties the two solves to each
other over the whole order; `check_honda` reads ell's integral derivative
and its Frobenius property, which the solve makes hold by construction.
"""

from __future__ import annotations

from math import comb
from operator import add

from .core import (
    ConvergenceError,
    InvalidInputError,
    PadicScalar,
    PrecisionError,
    PrimeContext,
    PropertyFailure,
    _log_floor,
    hensel_root,
    iwasawa_log,
    split_p,
    vp,
)
from .series import TruncatedSeries, _online_product, frobenius_substitute


def default_truncation(ctx: PrimeContext, n_max: int) -> int:
    """Order needed to evaluate at points of valuation 1/(p^n_max (p-1)).

    The naive ceil(prec/valuation) undershoots because the coefficients
    carry 1/m denominators; the extra d*(log_p M + 4) terms cover that.
    """
    d = ctx.p**n_max * (ctx.p - 1)
    # the least L >= 1 with p^L >= d (prec + 8)
    logterm = _log_floor(d * (ctx.prec + 8) - 1, ctx.p) + 1
    return d * (ctx.prec + logterm + 4) + 8


def _solve_digits(ctx: PrimeContext, order: int) -> int:
    """Working digits W of both functional-equation solves to degree
    ``order``: wprec + floor(log_p order) + 3.

    Each degree divides by p once, and an error is amplified by p only
    along steps m -> pm, so at most floor(log_p order) + 1 times in all:
    every coefficient is right to W - floor(log_p order) - 1 = wprec + 2
    digits and is claimed to wprec.  ell's solve carries p^D ell,
    D = floor(log_p order), and so works D digits above W.
    """
    return ctx.wprec + _log_floor(order, ctx.p) + 3


def _averaged_binomials(ctx: PrimeContext, order: int, digits: int) -> list:
    """A_m = sum_{delta in mu_(p-1)} C(delta, m) mod p^digits, m <= order.

    C(1, m) vanishes past m = 1.  Every other delta runs
    C(delta, m) = C(delta, m-1) (delta - m + 1)/m as a valuation and a
    unit mod p^(digits + D + 2), D = floor(log_p order), with delta its
    Teichmuller lift as an integer, so no m! is ever divided out.  A
    factor delta - k that vanishes to more than D + 2 digits would leave
    the unit short of p^digits: PrecisionError.
    """
    p = ctx.p
    slack = _log_floor(order, p) + 2
    mod = ctx.pk(digits + slack)
    out = [0] * (order + 1)
    if order >= 1:
        out[1] = 1
    for r in range(2, p):
        delta = ctx.teichmuller_int(r, digits + slack)
        v, unit = 0, 1
        for m in range(1, order + 1):
            factor = (delta - m + 1) % mod
            fv, fu = split_p(factor, p) if factor else (slack + 1, 0)
            if fv > slack:
                raise PrecisionError(
                    f"the Teichmuller lift of {r} meets {m - 1} beyond p^{slack}"
                )
            mv, mu = split_p(m, p)
            v += fv - mv
            unit = unit * fu * pow(mu, -1, mod) % mod
            if v < digits:
                out[m] += unit * ctx.pk(v)
    top = ctx.pk(digits)
    return [a % top for a in out]


def _phi_rows(p: int, mod: int, order: int):
    """The rows of phi^j = ((1+X)^p - 1)^j mod ``mod`` for j = 1, 2, ...,
    each as (lo, entries) with entries[i] = (phi^j)_(lo+i) over the
    degrees lo..min(pj, order).

    Row j is row j-1 times phi, with the leading entries that vanish mod
    ``mod`` dropped: phi = X^p + p h with deg h < p, so (phi^j)_m is
    divisible by p^ceil((pj - m)/(p-1)) and a row holds at most
    (p-1) log_p(mod) + 1 entries.  Only the current row is held, and the
    rows end when lo passes ``order``.
    """
    phi = [comb(p, i) for i in range(1, p + 1)]
    lo, row = 0, [1]
    while True:
        n = len(row)
        new = [0] * (n + p - 1)
        for i, c in enumerate(phi):
            new[i : i + n] = map(add, new[i : i + n], [c * r for r in row])
        lo += 1
        row = [c % mod for c in new[: max(0, order - lo + 1)]]
        k = 0
        while k < len(row) and not row[k]:
            k += 1
        if k == len(row):
            return
        lo, row = lo + k, row[k:]
        yield lo, row


def _push_row(acc: list, j: int, c: int, row) -> None:
    """acc[m] += c (phi^j)_m for the degrees m > j of row j (None: no row)."""
    if row is None:
        return
    lo, entries = row
    start = max(lo, j + 1)
    entries = entries[start - lo :]
    stop = start + len(entries)
    acc[start:stop] = map(add, acc[start:stop], [c * x for x in entries])


def build_ell(ctx: PrimeContext, order: int) -> TruncatedSeries:
    """ell to degree ``order`` from ell = A + p^(-1) ell(phi), every
    coefficient at absprec wprec.

    The solve runs on L = p^D ell, D = floor(log_p order), which is
    integral (v(ell_m) >= -v_p(m)), mod p^(W + D) with W = _solve_digits:
    L_1 = p^D and, for m >= 2,

        L_m (1 - p^(m-1)) = p^D A_m + p^(-1) sum_{j<m} L_j (phi^j)_m,

    with row j of phi^j added into the sums as soon as L_j is known.
    The division by p is exact for a logarithm with this functional
    equation; a remainder raises PropertyFailure naming the degree.
    """
    p = ctx.p
    scale = _log_floor(order, p)
    digits = _solve_digits(ctx, order)
    mod = ctx.pk(digits + scale)
    lift = ctx.pk(scale)
    a = _averaged_binomials(ctx, order, digits)
    acc = [0] * (order + 1)
    rows = _phi_rows(p, mod, order)
    coeffs = [0]
    for m in range(1, order + 1):
        if m == 1:
            lm = lift
        else:
            s = acc[m] % mod
            if s % p:
                raise PropertyFailure(f"ell(phi) is not divisible by p at degree {m}")
            lm = (lift * a[m] + s // p) * pow(1 - pow(p, m - 1, mod), -1, mod) % mod
        coeffs.append(lm)
        _push_row(acc, m, lm, next(rows, None))
    return TruncatedSeries(ctx, scale, ctx.wprec + scale, coeffs)


def check_honda(ell: TruncatedSeries) -> dict:
    """Verify ell(0) = 0, ell' in 1 + X Z_p[[X]] and (phi - p) ell in p Z_p[[X]].

    Returns the minimal valuations found; raises PropertyFailure naming
    the offending degree otherwise.
    """
    if not ell.coeff(0).is_zero:
        raise PropertyFailure("constant term of ell is nonzero")
    deriv = ell.derivative()
    lead = deriv.coeff(0) - 1
    if not lead.is_zero:
        raise PropertyFailure(
            f"ell'(0) - 1 has valuation {lead.min_valuation()}, expected zero"
        )
    vals = deriv.valuations()[1:]
    for m, v in enumerate(vals, 1):
        if v < 0:
            raise PropertyFailure(f"ell' has a non-integral coefficient at degree {m}")
    frob = (frobenius_substitute(ell) - ell.scale(ell.ctx.p)).valuations()
    for m, v in enumerate(frob):
        if v < 1:
            raise PropertyFailure(
                f"(phi - p) ell has valuation {v} < 1 at degree {m}"
            )
    return {"deriv_min_valuation": min(vals, default=None), "frobenius_min_valuation": min(frob)}


def _square_and_multiply(p: int) -> list:
    """Steps (a, b) of the binary addition chain from F to F^p: each step
    makes F^(a+b) from F^a and F^b (a == b is a squaring)."""
    steps, k = [], 1
    for bit in bin(p)[3:]:
        steps.append((k, k))
        k *= 2
        if bit == "1":
            steps.append((k, 1))
            k += 1
    return steps


def build_iota(ctx: PrimeContext, order: int) -> TruncatedSeries:
    """iota = exp(ell) - 1 to degree ``order`` from F^p = F(phi) exp(pA),
    F = 1 + iota, every coefficient at absprec wprec.  It reads A and phi
    only, never ell, and is integral by construction: its coefficients
    are solved as integers.

    On integers mod p^W, W = _solve_digits, degree by degree: first
    E_m = (p/m) sum_j j A_j E_(m-j) for E = exp(pA), where the division
    by p^(v_p(m) - 1) is exact because E is integral; then F_1 = 1 and,
    for m >= 2,

        F_m (p - p^m) = sum_{j<m} F_j (phi^j)_m + sum_{i>=1} E_i F(phi)_(m-i)
                        - [(F^p)_m - p F_m].

    The bracket is read off a square-and-multiply chain from F to F^p
    before F_m is known: (F^c)_m = c F_m + (terms of lower degree).  Every
    online product (j A_j E, each chain step, F(phi) E) is windowed by
    ``_online_product``, E's windows serving two: per B = 4 degrees one
    dot product on slots of S = 2 bits(p^W - 1) + bits(M + 1) bits, about
    M^2/(2B) multiply-adds.  A remainder in either exact division raises
    PropertyFailure naming the degree.
    """
    p = ctx.p
    digits = _solve_digits(ctx, order)
    mod = ctx.pk(digits)
    ja = [j * a % mod for j, a in enumerate(_averaged_binomials(ctx, order, digits))]
    chain = _square_and_multiply(p)
    powers = {c: [1] for c in {1, *(a + b for a, b in chain[:-1])}}  # F^c below degree m, not F^p
    e, g = [1], [1]  # exp(pA) through degree m, F(phi) below it
    e_win, wins = [], {b: [] for _, b in chain}  # windows of exp(pA) and of each F^b
    exps, lifts = (_online_product(x, e, e_win, mod, order) for x in (ja, g))
    steps = [(a, b, _online_product(powers[a], powers[b], wins[b], mod, order)) for a, b in chain]
    acc = [0] * (order + 1)
    rows = _phi_rows(p, mod, order)
    for m in range(1, order + 1):
        v, u = split_p(m, p)
        s = next(exps) % mod
        if v and s % ctx.pk(v - 1):
            raise PropertyFailure(f"exp(pA) has a non-integral coefficient at degree {m}")
        e.append(s * p // ctx.pk(v) * pow(u, -1, mod) % mod)
        rest = {1: 0}
        for a, b, sums in steps:
            rest[a + b] = (rest[a] + rest[b] + next(sums)) % mod
        rhs = (acc[m] + next(lifts) - rest[p]) % mod
        if m > 1 and rhs % p:
            raise PropertyFailure(f"iota has a non-integral coefficient at degree {m}")
        fm = rhs // p * pow(1 - pow(p, m - 1, mod), -1, mod) % mod if m > 1 else 1
        for c, fc in powers.items():
            fc.append((c * fm + rest[c]) % mod)
        g.append((acc[m] + fm * pow(p, m, mod)) % mod)
        _push_row(acc, m, fm, next(rows, None))
    return TruncatedSeries(ctx, 0, ctx.wprec, [0] + powers[1][1:])


def log_identity_residual(ell: TruncatedSeries, iota: TruncatedSeries) -> int:
    """The least valuation of ell' (1 + iota) - iota', cut at degree M - 1
    where ell' stops.  With ell(0) = iota(0) = 0 and 1 + iota a unit, this
    is log(1 + iota) = ell, differentiated, over the whole order M: one
    product of two solves that share no data, and no division."""
    lhs = (ell.derivative() * (iota + 1)).truncate(ell.order - 1)
    return (lhs - iota.derivative()).min_valuation()


def inverse_integrality(iota: TruncatedSeries) -> int:
    """0, the least valuation of iota^(-1), derived without reverting iota:
    for an integral iota with a unit iota_1, each coefficient of the
    inverse is an integer polynomial in iota_1^(-1), iota_2, ..., and the
    linear one is a unit.  A failed premise raises PropertyFailure."""
    if not iota.is_integral()[0]:
        raise PropertyFailure("iota is not integral")
    if iota.coeff(1).valuation != 0:
        raise PropertyFailure("iota_1 is not a unit")
    return 0


def _defining_sum(ctx: PrimeContext, x: int, target: int) -> PadicScalar:
    """log(1+x) + sum_k sum_delta ((1+x)^(p^k delta) - 1)/p^k at absprec
    T = ``target``, for an integer x in pZ_p.

    y_0 = (1+x)^delta mod p^T, delta's Teichmuller lift, and
    y_(k+1) = y_k^p mod p^(T+k+1) give (1+x)^(p^k delta) mod p^(T+k): for u
    in 1 + pZ_p, u^(p^k delta) mod p^(T+k) reads delta mod p^(T-1) only,
    and (y + p^j e)^p = y^p mod p^(j+1).  The k-sum stops at the first k
    with (p-1)(v(x)+k) - k >= T: with L = log(1+x), the inner sum is
    (p-1) sum_{(p-1)|j} (p^k L)^j/j!, of valuation >= (p-1)(v(x)+k).
    """
    p, vx = ctx.p, vp(x, ctx.p)
    total = iwasawa_log(ctx.scalar(1 + x, target + 8))
    ys = [pow(1 + x, ctx.teichmuller_int(r, target), ctx.pk(target)) for r in range(1, p)]
    k = 0
    while (p - 1) * (vx + k) - k < target:
        total = total + PadicScalar._make(ctx, -k, sum(ys) - (p - 1), target)
        k += 1
        ys = [pow(y, p, ctx.pk(target + k)) for y in ys]
    return total


def log_at_points(ell: TruncatedSeries) -> int:
    """The least valuation of ell(x) - ``_defining_sum`` at absprec
    wprec + 2 over x in {p, p(1+p), p^2}: a certificate of ell that reads
    neither A nor phi."""
    ctx, target = ell.ctx, ell.ctx.wprec + 2
    return min(
        (ell.eval_scalar(ctx.scalar(x, target)) - _defining_sum(ctx, x, target)).min_valuation()
        for x in (ctx.p, ctx.p * (1 + ctx.p), ctx.p**2)
    )


def solve_epsilon(ell: TruncatedSeries, ctx: PrimeContext) -> PadicScalar:
    """The element of pZ_p with ell(epsilon) = p, by Newton from x0 = p."""
    target = ell.absprec
    x0 = ctx.scalar(ctx.p, target)
    deriv = ell.derivative()
    eps = hensel_root(
        lambda x: ell.eval_scalar(x) - ctx.p,
        deriv.eval_scalar,
        x0,
        target=min(ctx.wprec, target - 2),
    )
    if eps.is_zero or eps.v < 1:
        raise ConvergenceError("epsilon left pZ_p during the iteration")
    return eps


class HondaData:
    """ell, iota and epsilon at a fixed truncation order.  Building them
    verifies nothing: ``check_honda`` and the honda suite certify them."""

    def __init__(self, ctx, ell, iota, epsilon):
        self.ctx = ctx
        self.ell = ell
        self.iota = iota
        self.epsilon = epsilon

    @classmethod
    def build(cls, ctx: PrimeContext, order: int) -> "HondaData":
        ell = build_ell(ctx, order)
        return cls(ctx, ell, build_iota(ctx, order), solve_epsilon(ell, ctx))


def formal_add(x, y, honda: HondaData, tower):
    """x [+] y = iota^{<-1>}((1 + iota(x))(1 + iota(y)) - 1) on points of
    positive valuation, with the inversion done by Newton in the field
    (the bivariate group law is never materialised)."""
    for t in (x, y):
        v = t.valuation()
        if v is not None and v <= 0:
            raise InvalidInputError("formal addition needs points of positive valuation")
    ix = tower.eval_series(honda.iota, x)
    iy = tower.eval_series(honda.iota, y)
    target = ix + iy + ix * iy
    iota_prime = honda.iota.derivative()
    w = target
    ctx = honda.ctx
    degree = w.field.degree
    max_iter = 8 + (ctx.wprec * degree).bit_length()
    for _ in range(max_iter):
        resid = tower.eval_series(honda.iota, w) - target
        if resid.min_valuation() >= ctx.wprec - 2:
            return w
        w = w - resid * tower.eval_series(iota_prime, w).inverse()
    raise ConvergenceError("formal addition did not converge")
