"""Truncated power series over Q_p: exact modulo (p^prec, X^(M+1)).

Coefficients are PadicScalar at the API level.  Multiplication,
composition and reversion run on packed integer vectors with a uniform
denominator exponent, through one product kernel (``_product_ints``:
a schoolbook loop for a short operand, Kronecker substitution
otherwise), which keeps the hot loops in plain bigint arithmetic.
Composition is Brent-Kung's baby-step/giant-step scheme over that
kernel, and reversion is Newton doubling over composition.
"""

from __future__ import annotations

from math import isqrt
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


# The shortest operand, cut to its nonzero span, that the product kernel
# packs by Kronecker substitution.  Measured at 40 digits on plain
# Python ints, schoolbook time over Kronecker time on square products is
# 0.99 at length 6 and 1.30 at length 8 for p = 3, and 0.79 and 1.02 for
# p = 7; with the other operand 200 long it is 1.9 (p = 3) and 1.4 (p = 7)
# at length 8.  Below it, packing and unpacking every slot costs more than
# the loop saves: zeta - 1, the Frobenius inner series 3X + 3X^2 + X^3 and
# elements of the fields of degree 2, 4 and 6 stay on the loop.
_KRONECKER_MIN = 8


def _product_ints(a, b, n):
    """The first n coefficients of a(X) b(X), unreduced, for lists of
    non-negative ints.

    Both operands are cut to their nonzero span first: a zero tail costs
    nothing, and a zero head (g^j starts at X^j) shifts the product and
    shortens what is needed of it.  If the shorter operand then has fewer
    than _KRONECKER_MIN entries, a schoolbook loop runs over its nonzero
    entries.  Otherwise Kronecker substitution: each operand is written
    little-endian into one int with w-byte slots, w wide enough for any
    coefficient of the product, the two ints are multiplied once, and the
    slots that are needed are read back.  A negative entry would borrow
    across slots, so it raises ValueError on either path.
    """
    la, lb = min(len(a), n), min(len(b), n)
    while la and not a[la - 1]:
        la -= 1
    while lb and not b[lb - 1]:
        lb -= 1
    sa = sb = 0
    while sa < la and not a[sa]:
        sa += 1
    while sb < lb and not b[sb]:
        sb += 1
    shift = sa + sb
    if sa == la or sb == lb or shift >= n:
        return [0] * n
    k = n - shift
    a, b = a[sa : min(la, sa + k)], b[sb : min(lb, sb + k)]
    if len(a) > len(b):
        a, b = b, a
    if min(a) < 0 or min(b) < 0:
        raise ValueError("packed products need non-negative entries")
    out = [0] * n
    if len(a) < _KRONECKER_MIN:
        for i, c in enumerate(a, shift):
            if c:
                for j, x in enumerate(b[: n - i], i):
                    out[j] += c * x
        return out
    w = (max(a).bit_length() + max(b).bit_length() + len(a).bit_length() + 7) // 8
    m = min(k, len(a) + len(b) - 1)
    out[shift : shift + m] = _from_int(_to_int(a, w) * _to_int(b, w), w, m)
    return out


def _to_int(ints, w):
    """The non-negative ``ints`` as the w-byte little-endian slots of one int."""
    return int.from_bytes(b"".join([c.to_bytes(w, "little") for c in ints]), "little")


def _from_int(x, w, count):
    """The first ``count`` w-byte little-endian slots of the int x >= 0."""
    buf = (x & ((1 << 8 * w * count) - 1)).to_bytes(w * count, "little")
    return [int.from_bytes(buf[i : i + w], "little") for i in range(0, w * count, w)]


def _convolve(a, b, order):
    """Packed product truncated at ``order``, its ints not yet reduced
    mod p^e: each caller reduces once, after its own last step."""
    da, ea, ia = a
    db, eb, ib = b
    # error bound: delta_a * |b| <= p^-(ea-da) * p^db and symmetrically
    value_prec = min(ea - da - db, eb - db - da)
    d = da + db
    e = value_prec + d
    if e <= 0:
        raise PrecisionError("product below zero precision", achieved=value_prec)
    n = min(order + 1, len(ia) + len(ib) - 1)
    return d, e, _product_ints(ia, ib, n)


def _compose_ints(f, g, n, mod):
    """f(g) mod (mod, X^n) for lists of non-negative ints with g[0] = 0,
    by Brent-Kung's baby steps and giant steps; see
    ``TruncatedSeries.compose``.  Returns n residues."""
    f = [c % mod for c in f]
    g = [c % mod for c in g[:n]]
    k = isqrt(len(f))
    baby = [[1], g]
    for _ in range(k - 1):
        prev = baby[-1]
        baby.append([c % mod for c in _product_ints(prev, g, min(n, len(prev) + len(g) - 1))])
    giant = baby.pop()
    # each block sum_(j<k) f_(ik+j) g^j on big ints: a slot holds at most
    # k products of two residues
    w = (2 * (mod - 1).bit_length() + k.bit_length() + 7) // 8
    packed = [_to_int(row, w) for row in baby]
    slots = len(baby[-1])
    blocks = []
    for i in range(0, len(f), k):
        block = _from_int(sum(c * row for c, row in zip(f[i : i + k], packed) if c), w, slots)
        blocks.append([c % mod for c in block])
    # Horner in g^k, one reduction per step
    acc = blocks.pop()
    while blocks:
        acc = _product_ints(acc, giant, min(n, len(acc) + len(giant) - 1))
        for j, c in enumerate(blocks.pop()):
            acc[j] += c
        acc = [c % mod for c in acc]
    return acc + [0] * (n - len(acc))


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
        d, e, ints = _convolve(_pack(self.coeffs), _pack(other.coeffs), order)
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
        """f(g(X)) = sum_j f_j g^j truncated at max(order), by Brent and
        Kung's baby steps and giant steps (J. ACM 25, 1978).

        g must satisfy g(0) = 0 and be integral, so it packs at
        denominator 0; a non-integral g is refused, naming its worst
        valuation.

        Algorithm, with L = len(f) and k = floor(sqrt(L)): the baby steps
        g^0, ..., g^k cost k - 1 products.  f splits into blocks of k
        coefficients, and each block sum P_i = sum_(j<k) f_(ik+j) g^j is
        formed on big ints: every baby power is packed into one int once,
        a block costs k int-by-packed products and one unpack.  The giant
        steps are Horner in g^k, P_i + g^k (P_(i+1) + ...), one product
        and one reduction per block.  So about 2 sqrt(L) products of
        length order + 1 through ``_product_ints``, against L such
        products for one power row per degree.

        Precision: with E the least absprec of a series and D_j the
        denominator exponent of f_j alone, the uncertainty p^E_g of g
        costs the term f_j g^j its D_j digits, so the result is packed at
        scale D_f, the denominator of f, with value precision
        min(E_f, E_g - max_{j>=1} D_j); a constant f does not see E_g.
        Every packed f_j with j >= 1 is divisible by p^(D_f - D_j), and
        the packed result's precision is e <= E_g + D_f - max_{j>=1} D_j,
        so f_j times any representative of g^j mod p^(E_g), or mod p^e,
        has the same residue mod p^e.  Hence every baby step and every
        Horner step is reduced mod p^e, and the digits are those of the
        term-by-term sum.
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
        _, eg, gints = _pack(g.coeffs)
        d, ef, fints = _pack(self.coeffs)
        value_prec = ef - d
        if self.order >= 1:
            d_tail = max([-c.v for c in self.coeffs[1:] if c.unit] + [0])
            value_prec = min(value_prec, eg - d_tail)
        e = value_prec + d
        if e <= 0:
            raise PrecisionError("composition below zero precision", achieved=value_prec)
        out = _compose_ints(fints, gints, order + 1, ctx.pk(e))
        return TruncatedSeries(ctx, _unpack(ctx, d, e, out))

    def reversion(self) -> "TruncatedSeries":
        """Compositional inverse g of an integral f = f_1 X + ..., f_1 a unit.

        Newton doubling on integers mod p^E: from g = X/f_1, a g right
        through degree r gives g - (f(g) - X) g', right through degree 2r.
        g' stands in for 1/f'(g): both agree with the inverse's
        1/f'(f^(-1)) through degree r - 1, and f(g) - X starts at degree
        r + 1.  Each step is one composition (``_compose_ints``) and one
        product, so the whole costs about two compositions at the full
        order.  The inverse of f mod (p^E, X^(M+1)) is unique when f_1 is
        a unit, so these are the integers of the degree-by-degree
        solve.  A non-integral f is refused, naming its worst valuation.
        Every coefficient of g is known modulo p^E with
        E = min(wprec, absprec of f_0..f_M): the target X is taken at
        wprec.
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
        g = [0, pow(f[1], -1, mod)]
        while len(g) <= self.order:
            n = min(2 * len(g) - 1, self.order + 1)
            err = _compose_ints(f[:n], g, n, mod)
            err[1] = (err[1] - 1) % mod
            corr = _product_ints(err, [j * c for j, c in enumerate(g[1:], 1)], n)
            g = [(a - b) % mod for a, b in zip(g + [0] * (n - len(g)), corr)]
        return TruncatedSeries(ctx, [PadicScalar._make(ctx, 0, c, prec) for c in g])

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

