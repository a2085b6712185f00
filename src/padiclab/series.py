"""Truncated power series over Q_p: exact modulo (p^prec, X^(M+1)).

Coefficients are PadicScalar at the API level.  Multiplication and
composition run on packed integer vectors with a uniform denominator
exponent, and reversion on integer power rows, which keeps the hot
loops in plain bigint arithmetic.
"""

from __future__ import annotations

from operator import mul

from .core import (
    InvalidInputError,
    PadicScalar,
    PrecisionError,
    PrimeContext,
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
    ints = []
    for c in coeffs:
        if c.unit == 0:
            ints.append(0)
        else:
            ints.append(c.unit * ctx.pk(c.v + denom) % m)
    return denom, e, ints


def _unpack(ctx, denom, e, ints):
    m = ctx.pk(max(e, 0))
    return tuple(PadicScalar._make(ctx, -denom, c % m, e - denom) for c in ints)


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
    out = [0] * n
    for i, ci in enumerate(ia):
        if ci == 0 or i >= n:
            continue
        top = min(len(ib), n - i)
        for j in range(top):
            cj = ib[j]
            if cj:
                out[i + j] += ci * cj
    return d, e, [c % m for c in out]


def _extend_power_rows(rows, k, mod):
    """Append column k of the power table of t = rows[1], mod ``mod``.

    rows[j] holds the integers (t^j)_i for i < k, and row 1 is t itself,
    known through t_(k-1) (t_0 = 0).  This appends
    (t^j)_k = sum_{a=1}^{k-j+1} t_a (t^(j-1))_(k-a) for j = 2..k, opening
    row k; it never reads t_k.
    """
    t = rows[1]
    rows.append([0] * k)
    for j in range(2, k + 1):
        prev = rows[j - 1]
        rows[j].append(sum(map(mul, t[1 : k - j + 2], prev[k - 1 : j - 2 : -1])) % mod)


class TruncatedSeries:
    """f = sum coeffs[i] X^i, exact mod (p^coeff-precisions, X^(order+1))."""

    __slots__ = ("ctx", "coeffs", "_powers")

    def __init__(self, ctx: PrimeContext, coeffs):
        self.ctx = ctx
        self.coeffs = tuple(coeffs)
        # packed rows of this series' powers, per truncation order, when
        # keep_powers() asked for them; None keeps one row at a time
        self._powers = None

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

    def keep_powers(self) -> "TruncatedSeries":
        """This series, holding on to the packed power rows that composing
        over it builds: a second f.compose(g) over the returned g at the
        same order reuses the rows g^j of the first instead of rebuilding
        them.  Worth it only for an inner series that several outer ones
        are composed over; the rows cost order^2/2 integers."""
        out = TruncatedSeries(self.ctx, self.coeffs)
        out._powers = {}
        return out

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
        """1/f for an integral f with unit constant term, by the recursion
        r_m = -r_0 sum_{j=1}^m f_j r_(m-j) on integers mod p^E, with E the
        least absprec of f.  A non-integral f is refused, naming its worst
        valuation."""
        c0 = self.coeffs[0]
        if c0.is_zero or c0.v != 0:
            raise InvalidInputError("reciprocal needs a unit constant term")
        ok, worst = self.is_integral()
        if not ok:
            raise InvalidInputError(
                f"reciprocal needs an integral series (valuation {worst})"
            )
        ctx = self.ctx
        prec = min(c.absprec for c in self.coeffs)
        mod = ctx.pk(prec)
        f = [c.lift() for c in self.coeffs]
        r0 = pow(f[0], -1, mod)
        out = [r0]
        for m in range(1, self.order + 1):
            out.append(-r0 * sum(map(mul, f[1 : m + 1], out[::-1])) % mod)
        return TruncatedSeries(ctx, [PadicScalar._make(ctx, 0, c, prec) for c in out])

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
        """f(g(X)) = sum_j f_j g^j truncated at max(order), by power rows.

        g must satisfy g(0) = 0 and be integral, so it packs at
        denominator 0; a non-integral g is refused, naming its worst
        valuation.  The rows g^j are built one at a time by the packed
        convolution, which skips the zero prefix below X^j, and only one
        row is held at once: O(order^3/6) products.  Over a g from
        keep_powers() the rows are built once and shared by every
        composition over g at this order.

        Precision: with E the least absprec of a series and D_j the
        denominator exponent of f_j alone, the uncertainty p^E_g of g
        costs the term f_j g^j its D_j digits, so the result is packed at
        scale D_f, the denominator of f, with value precision
        min(E_f, E_g - max_{j>=1} D_j); a constant f does not see E_g.
        """
        if not g.coeffs[0].is_zero:
            raise InvalidInputError("composition needs inner constant term 0")
        ok, worst = g.is_integral()
        if not ok:
            raise InvalidInputError(
                f"composition needs an integral inner series (valuation {worst})"
            )
        order = max(self.order, g.order)
        ctx = self.ctx
        rows = g._power_rows(order)
        gp = next(rows)
        d, ef, fints = _pack(self.coeffs)
        value_prec = ef - d
        if self.order >= 1:
            d_tail = max([-c.v for c in self.coeffs[1:] if c.unit] + [0])
            value_prec = min(value_prec, gp[1] - d_tail)
        e = value_prec + d
        if e <= 0:
            raise PrecisionError("composition below zero precision", achieved=value_prec)
        out = [fints[0]] + [0] * order
        row = gp
        for j in range(1, self.order + 1):
            if j > 1:
                row = next(rows)
            fj = fints[j]
            if fj:
                for i, r in enumerate(row[2]):
                    if r:
                        out[i] += fj * r
        m = ctx.pk(e)
        return TruncatedSeries(ctx, _unpack(ctx, d, e, [c % m for c in out]))

    def _power_rows(self, order):
        """The packed rows g, g^2, g^3, ... of this series truncated at
        ``order``, each the packed convolution of the one before with g.
        Only the current row is held, unless keep_powers() made this
        series: then the rows are kept per order and served again to the
        next caller, which extends them where it needs more."""
        table = [] if self._powers is None else self._powers.setdefault(order, [])
        if not table:
            table.append(_pack(self.truncate(order).coeffs))
        first = row = table[0]
        j = 0
        while True:
            if j < len(table):
                row = table[j]
            else:
                row = _convolve(self.ctx, row, first, order)
                if self._powers is not None:
                    table.append(row)
            yield row
            j += 1

    def reversion(self) -> "TruncatedSeries":
        """Compositional inverse g of an integral f = f_1 X + ..., f_1 a unit.

        Solved degree by degree from f(g) = X:
        g_m = -g_1 sum_{j>=2} f_j (g^j)_m, where the power rows (g^j)_m
        only need g_1..g_(m-1) and grow by one column per degree
        (O(order^3/6) products, no composition).  A non-integral f is
        refused, naming its worst valuation.  Every coefficient of g is
        known modulo p^E with E = min(wprec, absprec of f_0..f_M): the
        target X is taken at wprec.
        """
        if not self.coeffs[0].is_zero:
            raise InvalidInputError("reversion needs f(0) = 0")
        c1 = self.coeff(1)
        if c1.is_zero or c1.v != 0:
            raise InvalidInputError("reversion needs a unit linear coefficient")
        ok, worst = self.is_integral()
        if not ok:
            raise InvalidInputError(
                f"reversion needs an integral series (valuation {worst})"
            )
        ctx = self.ctx
        prec = min([ctx.wprec] + [c.absprec for c in self.coeffs])
        mod = ctx.pk(prec)
        f = [c.lift() for c in self.coeffs]
        g1 = pow(f[1], -1, mod)
        rows = [None, [0, g1]]
        for m in range(2, self.order + 1):
            _extend_power_rows(rows, m, mod)
            s = sum(f[j] * rows[j][m] for j in range(2, m + 1))
            rows[1].append(-g1 * s % mod)
        return TruncatedSeries(ctx, [PadicScalar._make(ctx, 0, c, prec) for c in rows[1]])

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

