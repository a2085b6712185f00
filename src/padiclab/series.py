"""Truncated power series over Q_p: exact modulo (p^prec, X^(M+1)).

Coefficients are PadicScalar at the API level.  Multiplication and
composition run on packed integer vectors with a uniform denominator
exponent, which keeps the hot loops in plain bigint arithmetic.
"""

from __future__ import annotations

from .core import (
    InvalidInputError,
    PadicScalar,
    PrecisionError,
    PrimeContext,
    mpz,
)


def _pack(coeffs):
    """(scale D, integer absprec E, ints): coeff_i = ints[i]/p^D mod p^(E-D)."""
    ctx = coeffs[0].ctx
    denom = 0
    value_prec = None
    for c in coeffs:
        if c.unit != 0 and c.v < -denom:
            denom = -c.v
        value_prec = c.absprec if value_prec is None else min(value_prec, c.absprec)
    e = value_prec + denom
    if e <= 0:
        raise PrecisionError("series has no remaining precision", achieved=value_prec)
    m = ctx.pk(e)
    zero = mpz(0)
    ints = []
    for c in coeffs:
        if c.unit == 0:
            ints.append(zero)
        else:
            ints.append(mpz(c.unit) * ctx.pk(c.v + denom) % m)
    return denom, e, ints


def _unpack(ctx, denom, e, ints):
    out = []
    absprec = e - denom
    for c in ints:
        out.append(PadicScalar._make(ctx, -denom, c % ctx.pk(e), absprec))
    return tuple(out)


def _convolve(ctx, a, b, order):
    """Packed product truncated at ``order``."""
    da, ea, ia = a
    db, eb, ib = b
    # error bound: delta_a * |b| <= p^-(ea-da) * p^db and symmetrically
    value_prec = min(ea - da - db, eb - db - da)
    d = da + db
    e = value_prec + d
    if e <= 0:
        raise PrecisionError("product below zero precision", achieved=value_prec)
    m = ctx.pk(e)
    n = min(order + 1, len(ia) + len(ib) - 1)
    out = [mpz(0)] * n
    for i, ci in enumerate(ia):
        if ci == 0 or i >= n:
            continue
        top = min(len(ib), n - i)
        for j in range(top):
            cj = ib[j]
            if cj:
                out[i + j] += ci * cj
    return d, e, [c % m for c in out]


class TruncatedSeries:
    """f = sum coeffs[i] X^i, exact mod (p^coeff-precisions, X^(order+1))."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: PrimeContext, coeffs):
        self.ctx = ctx
        self.coeffs = tuple(coeffs)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_rationals(cls, ctx, values, absprec=None):
        return cls(ctx, [ctx.scalar(v, absprec) for v in values])

    @classmethod
    def zero(cls, ctx, order, absprec=None):
        return cls(ctx, [ctx.zero(absprec)] * (order + 1))

    @classmethod
    def one(cls, ctx, order, absprec=None):
        z = ctx.zero(absprec)
        return cls(ctx, [ctx.one(absprec)] + [z] * order)

    @classmethod
    def x(cls, ctx, order, absprec=None):
        z = ctx.zero(absprec)
        c = [z] * (order + 1)
        if order >= 1:
            c[1] = ctx.one(absprec)
        return cls(ctx, c)

    # -- views ---------------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> PadicScalar:
        return self.coeffs[i] if i <= self.order else self.ctx.zero()

    def truncate(self, order: int) -> "TruncatedSeries":
        if order >= self.order:
            return self
        return TruncatedSeries(self.ctx, self.coeffs[: order + 1])

    def constant_term(self) -> PadicScalar:
        return self.coeffs[0]

    def is_integral(self):
        """(all coefficients in Z_p at their precision, worst valuation)."""
        worst = min(c.min_valuation() for c in self.coeffs)
        return worst >= 0, worst

    def __repr__(self):
        head = ", ".join(repr(c) for c in self.coeffs[:4])
        return f"TruncatedSeries(order={self.order}; {head}, ...)"

    # -- linear structure ------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        n = max(self.order, other.order)
        out = [self.coeff(i) + other.coeff(i) for i in range(n + 1)]
        return TruncatedSeries(self.ctx, out)

    def __neg__(self):
        return TruncatedSeries(self.ctx, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def scale(self, s) -> "TruncatedSeries":
        # exact ints/fractions go through per-coefficient coercion so they
        # never cap elevated coefficient precision
        return TruncatedSeries(self.ctx, [c * s for c in self.coeffs])

    def _coerce(self, other):
        if isinstance(other, TruncatedSeries):
            return other
        return TruncatedSeries(self.ctx, [self.ctx.scalar(other)])

    # -- multiplicative structure ----------------------------------------------

    def __mul__(self, other):
        other = self._coerce(other)
        order = max(self.order, other.order)
        packed = _convolve(self.ctx, _pack(self.coeffs), _pack(other.coeffs), order)
        d, e, ints = packed
        ints += [0] * (order + 1 - len(ints))
        return TruncatedSeries(self.ctx, _unpack(self.ctx, d, e, ints))

    def reciprocal(self) -> "TruncatedSeries":
        """1/f for f with unit constant term, by coefficient recursion."""
        c0 = self.coeffs[0]
        if c0.is_zero or c0.v != 0:
            raise InvalidInputError("reciprocal needs a unit constant term")
        inv0 = c0.inverse()
        out = [inv0]
        for m in range(1, self.order + 1):
            s = self.ctx.zero(c0.absprec)
            for j in range(1, m + 1):
                s = s + self.coeff(j) * out[m - j]
            out.append(-s * inv0)
        return TruncatedSeries(self.ctx, out)

    def derivative(self) -> "TruncatedSeries":
        if self.order == 0:
            return TruncatedSeries(self.ctx, [self.ctx.zero()])
        out = [self.coeffs[i] * i for i in range(1, self.order + 1)]
        return TruncatedSeries(self.ctx, out)

    def integrate(self) -> "TruncatedSeries":
        """Antiderivative with zero constant term; divides by i per degree."""
        out = [self.ctx.zero()]
        for i, c in enumerate(self.coeffs):
            out.append(c / (i + 1))
        return TruncatedSeries(self.ctx, out)

    # -- composition -------------------------------------------------------------

    def compose(self, g: "TruncatedSeries") -> "TruncatedSeries":
        """f(g(X)) truncated at max(order); requires g(0) = 0."""
        if not g.coeffs[0].is_zero:
            raise InvalidInputError("composition needs inner constant term 0")
        order = max(self.order, g.order)
        ctx = self.ctx
        gp = _pack(g.truncate(order).coeffs)
        # Horner from the top coefficient down
        acc = _pack((self.coeffs[-1],))
        for i in range(self.order - 1, -1, -1):
            acc = _convolve(ctx, acc, gp, order)
            ci = _pack((self.coeffs[i],))
            d = max(acc[0], ci[0])
            e = min(acc[1] - acc[0], ci[1] - ci[0]) + d
            m = ctx.pk(e)
            ints = [c * ctx.pk(d - acc[0]) % m for c in acc[2]]
            ints[0] = (ints[0] + ci[2][0] * ctx.pk(d - ci[0])) % m
            acc = (d, e, ints)
        d, e, ints = acc
        ints += [0] * (order + 1 - len(ints))
        return TruncatedSeries(ctx, _unpack(ctx, d, e, ints[: order + 1]))

    def reversion(self) -> "TruncatedSeries":
        """Compositional inverse of f = c1 X + ..., c1 a unit (Newton)."""
        if not self.coeffs[0].is_zero:
            raise InvalidInputError("reversion needs f(0) = 0")
        c1 = self.coeff(1)
        if c1.is_zero or c1.v != 0:
            raise InvalidInputError("reversion needs a unit linear coefficient")
        ctx = self.ctx
        order = self.order
        df = self.derivative()
        g = TruncatedSeries(ctx, [ctx.zero(c1.absprec), c1.inverse()])
        reached = 1
        while reached < order:
            reached = min(2 * reached, order)
            ft = self.truncate(reached)
            gt = g.truncate(reached)
            err = ft.compose(gt) - TruncatedSeries.x(ctx, reached)
            corr = err * df.truncate(reached).compose(gt).reciprocal()
            g = gt - corr
        return g.truncate(order)

    # -- analytic log/exp ----------------------------------------------------------

    def log(self) -> "TruncatedSeries":
        """log f for f = 1 + (positive order); computed as integral of f'/f."""
        c0 = self.coeffs[0]
        if c0.is_zero or not (c0 - 1).is_zero:
            raise InvalidInputError("series log needs constant term 1")
        return (self.derivative() * self.reciprocal()).truncate(
            self.order - 1
        ).integrate().truncate(self.order)

    def exp(self) -> "TruncatedSeries":
        """exp f for f(0) = 0, by the ODE u' = f' u, u(0) = 1.

        Each degree divides by its index once, so the precision of the
        degree-m coefficient honestly decays by v_p(m!) in the worst
        case; callers supply series built with enough headroom.
        """
        if not self.coeffs[0].is_zero:
            raise InvalidInputError("series exp needs constant term 0")
        ctx = self.ctx
        out = [ctx.one(self.coeffs[0].absprec)]
        dcoeffs = [self.coeff(i + 1) * (i + 1) for i in range(self.order)]
        for m in range(self.order):
            s = ctx.zero(out[0].absprec)
            for j in range(m + 1):
                c = dcoeffs[j]
                if not c.is_zero:
                    s = s + c * out[m - j]
            out.append(s / (m + 1))
        return TruncatedSeries(ctx, out)

    # -- evaluation ------------------------------------------------------------------

    def eval_scalar(self, x: PadicScalar) -> PadicScalar:
        """Horner evaluation at a scalar with v(x) >= 1."""
        if not x.is_zero and x.v < 1:
            raise InvalidInputError("scalar evaluation needs v(x) >= 1")
        acc = self.coeffs[-1]
        for i in range(self.order - 1, -1, -1):
            acc = acc * x + self.coeffs[i]
        return acc


# -- named constructions -------------------------------------------------------------


def binomial_power(a: PadicScalar, order: int) -> TruncatedSeries:
    """(1+X)^a for a in Z_p: coefficient m is the p-adic binomial C(a, m)."""
    if not a.is_zero and a.v < 0:
        raise InvalidInputError("binomial exponent must lie in Z_p")
    ctx = a.ctx
    out = [ctx.one(a.absprec)]
    c = ctx.one(a.absprec)
    for m in range(1, order + 1):
        c = c * (a - (m - 1)) / m
        out.append(c)
    return TruncatedSeries(ctx, out)


def log_one_plus_x(ctx: PrimeContext, order: int, absprec=None) -> TruncatedSeries:
    coeffs = [0] + [(-1) ** (m - 1) for m in range(1, order + 1)]
    s = TruncatedSeries.from_rationals(ctx, coeffs, absprec)
    out = [s.coeffs[0]]
    for m in range(1, order + 1):
        out.append(s.coeffs[m] / m)
    return TruncatedSeries(ctx, out)


def geometric_inverse(ctx: PrimeContext, order: int, absprec=None) -> TruncatedSeries:
    """1/(1+X) = sum (-X)^m."""
    return TruncatedSeries.from_rationals(
        ctx, [(-1) ** m for m in range(order + 1)], absprec
    )


def frobenius_substitute(f: TruncatedSeries) -> TruncatedSeries:
    """f((1+X)^p - 1), the Frobenius substitution on the formal variable."""
    from math import comb

    ctx = f.ctx
    p = ctx.p
    absprec = max(c.absprec for c in f.coeffs)
    inner = [comb(p, j) if j else 0 for j in range(min(p, f.order) + 1)]
    g = TruncatedSeries.from_rationals(ctx, inner, absprec)
    return f.compose(g)

