"""The logarithm ell with p-typical Frobenius property, its exponential
counterpart iota onto the multiplicative formal group, and the element
epsilon with ell(epsilon) = p.

ell(X) = log(1+X) + sum_{k>=0} sum_{delta in mu_{p-1}} ((X+1)^(p^k delta) - 1)/p^k

With L = log(1+X), (X+1)^a = exp(aL), the Teichmuller sum
sum_delta delta^j = (p-1)[(p-1) | j] and the geometric series in k give

ell = L + (p-1) sum_{(p-1) | j} L^j / (j! (1 - p^(j-1))),

so ell_m = (1/m!) sum_j s(m, j) w_j with s the signed Stirling numbers
of the first kind, w_1 = 1 and w_j = (p-1)/(1 - p^(j-1)) for (p-1) | j.
This identity holds coefficient by coefficient only: it is never a way
to evaluate ell, since log(zeta) = 0 while ell(zeta - 1) != 0.
"""

from __future__ import annotations

from .core import (
    ConvergenceError,
    InvalidInputError,
    PadicScalar,
    PrimeContext,
    PropertyFailure,
    factorial_valuation,
    hensel_root,
    split_p,
    vp,
)
from .series import TruncatedSeries, frobenius_substitute


def default_truncation(ctx: PrimeContext, n_max: int) -> int:
    """Order needed to evaluate at points of valuation 1/(p^n_max (p-1)).

    The naive ceil(prec/valuation) undershoots because the coefficients
    carry 1/m denominators; the extra d*(log_p M + 4) terms cover that.
    """
    d = ctx.p**n_max * (ctx.p - 1)
    logterm = 1
    while ctx.p**logterm < d * (ctx.prec + 8):
        logterm += 1
    return d * (ctx.prec + logterm + 4) + 8


def build_ell(ctx: PrimeContext, order: int) -> TruncatedSeries:
    """ell to degree ``order`` by the Stirling closed form of the module
    docstring, every coefficient known mod p^(wprec + v_p(order!)).

    Only one Stirling row s(m, .) is held at a time. It is kept to
    v_p(order!) more digits than the coefficients, the most that the
    division by m! can consume.
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
    return TruncatedSeries(ctx, coeffs)


def check_honda(ell: TruncatedSeries) -> dict:
    """Verify ell(0) = 0, ell' in 1 + X Z_p[[X]] and (phi - p) ell in p Z_p[[X]].

    Returns the minimal valuations found; raises PropertyFailure naming
    the offending degree otherwise.
    """
    ctx = ell.ctx
    report = {}
    if not ell.coeff(0).is_zero:
        raise PropertyFailure("constant term of ell is nonzero")
    report["const_term_valuation"] = ell.coeff(0).min_valuation()

    deriv = ell.derivative()
    lead = deriv.coeff(0) - 1
    if not lead.is_zero:
        raise PropertyFailure(
            f"ell'(0) - 1 has valuation {lead.min_valuation()}, expected zero"
        )
    report["deriv_unit_residual"] = lead.min_valuation()
    worst = None
    for m in range(1, deriv.order + 1):
        v = deriv.coeff(m).min_valuation()
        if v < 0:
            raise PropertyFailure(f"ell' has a non-integral coefficient at degree {m}")
        worst = v if worst is None else min(worst, v)
    report["deriv_min_valuation"] = worst

    frob = frobenius_substitute(ell) - ell.scale(ctx.p)
    worst = None
    for m in range(0, frob.order + 1):
        v = frob.coeff(m).min_valuation()
        if v < 1:
            raise PropertyFailure(
                f"(phi - p) ell has valuation {v} < 1 at degree {m}"
            )
        worst = v if worst is None else min(worst, v)
    report["frobenius_min_valuation"] = worst
    return report


def _exp_minus_one_integral(ell: TruncatedSeries) -> TruncatedSeries:
    """exp(ell) - 1 by the ODE u' = ell' u on plain integer residues.

    ell' must be integral (the Honda property); each degree divides by
    its index exactly, and a failed exact division is precisely a
    non-integral coefficient of the result.
    """
    ctx = ell.ctx
    p = ctx.p
    order = ell.order
    base = min(c.absprec for c in ell.coeffs)
    mod = ctx.pk(base)
    lp = []
    for j in range(order):
        c = ell.coeff(j + 1) * (j + 1)
        if not c.is_zero and c.v < 0:
            raise PropertyFailure(f"ell' is non-integral at degree {j}")
        lp.append(c.lift() % mod)
    u = [1] + [0] * order
    for m in range(order):
        s = 0
        for j in range(m + 1):
            cj = lp[j]
            if cj:
                s += cj * u[m - j]
        s %= mod
        v1 = vp(m + 1, p) if (m + 1) % p == 0 else 0
        unit = (m + 1) // p**v1
        if unit != 1:
            s = s * pow(unit, -1, mod) % mod
        if v1:
            if s % ctx.pk(v1):
                raise PropertyFailure(
                    f"exp(ell) has a non-integral coefficient at degree {m + 1}"
                )
            s //= ctx.pk(v1)
        u[m + 1] = s
    vloss = 0
    coeffs = [ctx.zero(base)]
    for m in range(1, order + 1):
        if m % p == 0:
            vloss += vp(m, p)
        coeffs.append(PadicScalar._make(ctx, 0, int(u[m]), base - vloss))
    return TruncatedSeries(ctx, coeffs)


def build_iota(ell: TruncatedSeries) -> tuple:
    """iota = exp(ell) - 1, certified integral coefficientwise, with its
    compositional inverse (checked integral to order 160)."""
    iota = _exp_minus_one_integral(ell)
    ok, worst = iota.is_integral()
    if not ok:
        raise PropertyFailure(
            f"iota has a non-integral coefficient (valuation {worst})"
        )
    inv = iota.truncate(min(160, iota.order)).reversion()
    ok, worst_inv = inv.is_integral()
    if not ok:
        raise PropertyFailure(
            f"inverse of iota has a non-integral coefficient (valuation {worst_inv})"
        )
    return iota, inv


def solve_epsilon(ell: TruncatedSeries, ctx: PrimeContext) -> PadicScalar:
    """The element of pZ_p with ell(epsilon) = p, by Newton from x0 = p."""
    target = min(c.absprec for c in ell.coeffs)
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
    """ell, iota, iota^{<-1>} and epsilon at a fixed truncation order, with
    the ``check_honda`` report that certified ell."""

    def __init__(self, ctx, ell, report, iota, iota_inv, epsilon):
        self.ctx = ctx
        self.ell = ell
        self.report = report
        self.iota = iota
        self.iota_inv = iota_inv
        self.epsilon = epsilon

    @classmethod
    def build(cls, ctx: PrimeContext, order: int) -> "HondaData":
        ell = build_ell(ctx, order)
        report = check_honda(ell)
        iota, iota_inv = build_iota(ell)
        epsilon = solve_epsilon(ell, ctx)
        return cls(ctx, ell, report, iota, iota_inv, epsilon)


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
