"""Truncated power series over Q_p: exact modulo (p^prec, X^(M+1)).

A series is one packed integer vector, as a K_n element is: the
coefficients are ints[i] / p^denom, all known modulo p^(e - denom), one
precision for the whole series.  ``PackedVector`` holds that triple and
the linear operations for both ``TruncatedSeries`` and
``cyclotomic.CycloElement``; each follows the per-coefficient
``PadicScalar`` rule, cut to the least coefficient precision.  The
``PadicScalar`` coefficients are a view, built afresh at every read.
Every vector product, of series here and of K_n elements in
``cyclotomic``, is one ``_kronecker``: Kronecker substitution, one
multiply of two packed ints, which keeps the hot loops in plain bigint
arithmetic; series products trim their zero head and tail first
(``_product_ints``).  An online product of growing residue lists is
windowed dot products (``_online_product``).  Composition is Brent-Kung's
baby-step/giant-step scheme on packed ints (``_paterson_stockmeyer``):
each Horner step is one packed multiply-add, cut to the terms that the
inner series' X-adic valuation leaves of it.  Reversion is Newton
doubling over composition.
"""

from __future__ import annotations

from itertools import zip_longest
from math import comb, gcd, isqrt
from operator import mul

from .core import (
    InvalidInputError,
    PadicScalar,
    PrecisionError,
    PrimeContext,
    _log_floor,
    split_p,
    vp,
)


def _pack(coeffs):
    """(scale D, integer absprec E, ints): coeff_i = ints[i]/p^D mod p^(E-D),
    every coefficient cut to the least absprec."""
    ctx = coeffs[0].ctx
    denom = max([0] + [-c.v for c in coeffs if c.unit])
    value_prec = min(c.absprec for c in coeffs)
    e = value_prec + denom
    if e <= 0:
        raise PrecisionError("series has no remaining precision", achieved=value_prec)
    m = ctx.pk(e)
    return denom, e, [c.unit * ctx.pk(c.v + denom) % m if c.unit else 0 for c in coeffs]


def _unpack(ctx, denom, e, ints):
    return tuple(PadicScalar._make(ctx, -denom, c, e - denom) for c in ints)


def _product_ints(a, b, n):
    """The first n coefficients of a(X) b(X), unreduced, for lists of
    non-negative ints, by one ``_kronecker`` product.

    Both operands are cut to their nonzero span first: a zero tail costs
    nothing, and a zero head (g^j starts at X^j) shifts the product and
    shortens what is needed of it.  A negative entry would borrow across
    slots, so it raises ValueError.
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
    if min(a) < 0 or min(b) < 0:
        raise ValueError("packed products need non-negative entries")
    out = [0] * n
    m = min(k, len(a) + len(b) - 1)
    out[shift : shift + m] = _kronecker(a, b, min(len(a), len(b)), _from_int, m)
    return out


def _kronecker(a, b, terms, read, count):
    """read(y, w, count) for the product y of the lists a and b of
    non-negative ints, each written little-endian into one int with
    w-byte slots: Kronecker substitution (D. Harvey, J. Symbolic Comput.
    44, 2009), the one pack-and-multiply of every vector product.  A slot
    of y that ``read`` folds sums at most ``terms`` products of an entry
    of a by one of b, so w holds it; a square (a is b) packs once."""
    w = (max(a).bit_length() + max(b).bit_length() + terms.bit_length() + 7) // 8
    y = _to_int(a, w)
    y *= y if a is b else _to_int(b, w)
    return read(y, w, count)


def _to_int(ints, w):
    """The non-negative ``ints`` as the w-byte little-endian slots of one int."""
    return int.from_bytes(b"".join([c.to_bytes(w, "little") for c in ints]), "little")


def _from_int(x, w, count):
    """The first ``count`` w-byte little-endian slots of the int x >= 0."""
    buf = (x & ((1 << 8 * w * count) - 1)).to_bytes(w * count, "little")
    return [int.from_bytes(buf[i : i + w], "little") for i in range(0, w * count, w)]


_WINDOW = 4  # B: 4 to 16 time iota at (p, N, n) = (3, 16, 2) within 5%; 4 uses least memory


def _online_product(a, b, win, mod, order):
    """Yield c_m = sum_(i+j=m) a_i b_j, m = 1 .. order, over the entries
    of the lists a and b known when c_m is asked for: residues in
    [0, mod), at least m in each list.

    At each block start m0, a multiple of B = ``_WINDOW``, one dot product
    of a_B .. a_(m0-1) against windows sum_(r<B) b_(t+r) 2^(rS) gives in
    slot r the pairs with B <= i < m0 of degree m0 + r, so each degree adds
    only its pairs with i < B and with i >= m0.  A slot sums at most
    ``order`` products of two residues: S = 2 bits(mod - 1) + bits(order + 1)
    holds it (``_kronecker``'s rule, in bits).  ``win`` is b's window list:
    win[k] = (win[k-1] >> S) + b_k 2^(S(B-1)) ends at b_k.  Every product
    that reads b at the same mod and order shares it.
    """
    width = 2 * (mod - 1).bit_length() + (order + 1).bit_length()
    block = 0
    for m in range(1, order + 1):
        m0 = m - m % _WINDOW
        if m == m0:
            for k in range(len(win), m0):
                win.append((win[-1] >> width if win else 0) + (b[k] << width * (_WINDOW - 1)))
            block = sum(map(mul, a[_WINDOW:m0], win[m0 - 1 : _WINDOW - 1 : -1]))
        lo = max(0, m + 1 - len(b))
        hi = max(lo, m0)
        yield (
            ((block >> width * (m - m0)) & ((1 << width) - 1))
            + sum(map(mul, a[lo : min(m0, _WINDOW)], b[m - lo :: -1]))
            + sum(map(mul, a[hi : m + 1], b[m - hi :: -1]))
        )


def _product_scale(a, b):
    """(D, e) of the product of the packed triples a and b: scale
    D = D_a + D_b, and e = D plus the value precision
    min(E_a - D_a - D_b, E_b - D_b - D_a)."""
    da, ea, _ = a
    db, eb, _ = b
    # error bound: delta_a * |b| <= p^-(ea-da) * p^db and symmetrically
    value_prec = min(ea - da - db, eb - db - da)
    d = da + db
    if value_prec + d <= 0:
        raise PrecisionError("product below zero precision", achieved=value_prec)
    return d, value_prec + d


def _paterson_stockmeyer(f, x, mod, read, n, v=0):
    """sum_j f_j x^j mod ``mod`` for ints f and x, by Paterson and
    Stockmeyer's baby steps and giant steps (SIAM J. Comput. 2, 1973):
    the one evaluator of series composition and of K_n series sums.

    read(y, w, count) returns the first ``count`` coordinates, unreduced,
    of a product y packed into w-byte slots: for series its slots, for K_n
    its slots folded by the cyclotomic relation (count is then always the
    degree n).  With L = len(f) and k = isqrt(L), the baby steps
    x^2 .. x^k are k - 1 ``_kronecker`` products, x^(2i) a square.  The
    rest is packed (``_to_int``) at one slot width w, that of a product
    plus k more terms: each block sum P_i = sum_(j<k) f_(ik+j) x^j is k
    int-by-packed products, and Horner in G = x^k,
    acc_i = P_i + G acc_(i+1), is one packed multiply-add by G, packed
    once, then one read and one reduction per block: about 2 sqrt(L)
    products, against L for Horner in x.

    For a series x of X-adic valuation v >= 1, acc_i enters the result
    times G^i, of valuation v k i, so it is needed only mod X^(n - v k i):
    P_i is summed on those slots, and step i multiplies acc_(i+1) by
    G / X^(v k), both n - v k (i + 1) long, instead of n.  K_n passes
    v = 0: no truncation.  Every step is reduced mod ``mod``, exact for
    residues, so the result is the term-by-term sum's.
    """
    if v:
        f = f[: -(-n // v)]  # f_j x^j = 0 mod X^n once v j >= n
    k = max(1, isqrt(len(f)))
    # a slot sums at most n products of two residues, and P_i k more
    w = (2 * (mod - 1).bit_length() + (n + k).bit_length() + 7) // 8

    def product(a, b):
        count = min(n, len(a) + len(b) - 1)
        return [c % mod for c in _kronecker(a, b, min(len(a), len(b)), read, count)]

    powers = [[1], [c % mod for c in x]]
    for j in range(2, k + 1):
        half = powers[j // 2]
        powers.append(product(half, half) if j % 2 == 0 else product(powers[-1], powers[1]))
    rows = [_to_int(row, w) for row in powers[:k]]
    giant, head = _to_int(powers[k][v * k :], w), 8 * w * v * k
    acc = None
    for j in reversed(range(0, len(f), k)):  # block i = j / k
        mask = (1 << 8 * w * (n - v * j)) - 1
        y = sum(c % mod * (row & mask) for c, row in zip(f[j : j + k], rows))
        if acc is not None:
            y += (_to_int(acc, w) * (giant & (mask >> head))) << head
        acc = [c % mod for c in read(y, w, n - v * j)]
    return acc


def _compose_ints(f, g, n, mod):
    """f(g) mod (mod, X^n) for lists of non-negative ints with g[0] = 0;
    see ``TruncatedSeries.compose``.  Returns n residues: g is cut to its
    degree and its X-adic valuation v (n for a zero g) is passed on."""
    g = [c % mod for c in g[:n]]
    support = [i for i, c in enumerate(g) if c] or [n]
    return _paterson_stockmeyer(f, g[: support[-1] + 1], mod, _from_int, n, support[0])


def _normalise(ctx, denom, e, ints):
    """(denom, e, ints) in normal form: ints reduced mod p^e, and denom the
    least exponent >= 0 clearing every entry, as ``_pack`` picks it (it
    bounds each product's error).  A negative denom is multiplied out."""
    if denom < 0:
        q = ctx.pk(-denom)
        ints, denom, e = [c * q for c in ints], 0, e - denom
    m = ctx.pk(max(e, 0))
    ints = [c % m for c in ints]
    if denom:
        g = gcd(*ints)
        t = denom if g == 0 else min(denom, vp(g, ctx.p))
        if t:
            q = ctx.pk(t)
            ints, denom, e = [c // q for c in ints], denom - t, e - t
    return denom, e, ints


class PackedVector:
    """sum ints[j] b_j / p^denom over a basis (b_j), every coordinate known
    mod p^(e - denom), held as ``packed`` = (denom, e, ints) in the normal
    form of ``_normalise``: on its own a coordinate vector.  A subclass
    fixing the basis overrides ``_coerce`` (an operand over that basis) and
    ``_new`` (a vector over that basis from a triple) as it needs."""

    __slots__ = ("ctx", "packed")

    def __init__(self, ctx: PrimeContext, denom: int, e: int, ints):
        self.ctx = ctx
        self.packed = _normalise(ctx, denom, e, ints)

    def _new(self, denom, e, ints):
        return type(self)(self.ctx, denom, e, ints)

    def _coerce(self, other):
        return other

    @property
    def coords(self):
        """The coordinates as PadicScalars at absprec: a fresh view."""
        return _unpack(self.ctx, *self.packed)

    def _scalar(self, raw: int) -> PadicScalar:
        """raw / p^denom, known mod p^(e - denom): an int over this
        vector's scale, as a PadicScalar."""
        denom, e, _ = self.packed
        return PadicScalar._make(self.ctx, -denom, raw, e - denom)

    def coeff(self, i: int) -> PadicScalar:
        """Coordinate i >= 0 as a PadicScalar; zero at wprec past the end."""
        if i < 0:
            raise InvalidInputError(f"no coordinate {i}: indices start at 0")
        ints = self.packed[2]
        if i >= len(ints):
            return self.ctx.zero()
        return self._scalar(ints[i])

    @property
    def absprec(self) -> int:
        return self.packed[1] - self.packed[0]

    def _combine(self, other, sign: int):
        """self + sign other, over the larger denominator at the lesser
        absprec; the shorter vector is padded with zeros."""
        other = self._coerce(other)
        (da, ea, a), (db, eb, b) = self.packed, other.packed
        d = max(da, db)
        qa, qb = self.ctx.pk(d - da), sign * self.ctx.pk(d - db)
        ints = [x * qa + y * qb for x, y in zip_longest(a, b, fillvalue=0)]
        return self._new(d, min(ea - da, eb - db) + d, ints)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        denom, e, ints = self.packed
        return self._new(denom, e, [-c for c in ints])

    def scale(self, s):
        """self s, at absprec min(A + v(s), min_valuation + absprec(s)), the
        least of the coordinate products'; an exact int or Fraction is
        embedded as ``PadicScalar`` embeds it for the coordinate of least
        valuation, which decides that minimum."""
        denom, e, ints = self.packed
        mv = self.min_valuation()
        if not isinstance(s, PadicScalar):
            s = PadicScalar(self.ctx, mv, 1, e - denom)._coerce(s)
        # a zero s has s.v = s.absprec, so a = mv + absprec(s) and ints 0
        a = min(e - denom + s.v, mv + s.absprec)
        return self._new(denom - s.v, a + denom - s.v, [c * s.unit for c in ints])

    def min_valuation(self) -> int:
        """The least coordinate valuation, v(p) = 1, a zero counting as its
        absprec: for a K_n element a cheap lower bound of its valuation."""
        denom, e, ints = self.packed
        g = gcd(*ints)
        return e - denom if g == 0 else vp(g, self.ctx.p) - denom

    def valuations(self) -> list:
        """The valuation of each coordinate, a zero counting as its absprec."""
        denom, e, ints = self.packed
        p = self.ctx.p
        return [vp(c, p) - denom if c else e - denom for c in ints]

    def reduce_absprec(self, absprec):
        denom, e, ints = self.packed
        if absprec >= e - denom:
            return self
        return self._new(denom, absprec + denom, ints)


class TruncatedSeries(PackedVector):
    """f = sum ints[i] X^i / p^denom, exact mod (p^(e - denom), X^(order+1)),
    held as ``packed`` = (denom, e, ints); ``coeffs`` is a view."""

    __slots__ = ()

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_scalars(cls, ctx, coeffs):
        """The series with these PadicScalar coefficients, cut to their
        least absprec."""
        return cls(ctx, *_pack(coeffs))

    @classmethod
    def zero(cls, ctx, order, absprec=None):
        return cls(ctx, 0, ctx.wprec if absprec is None else absprec, [0] * (order + 1))

    @classmethod
    def one(cls, ctx, order, absprec=None):
        a = ctx.wprec if absprec is None else absprec
        return cls(ctx, 0, a, [1] + [0] * order)

    @classmethod
    def x(cls, ctx, order, absprec=None):
        a = ctx.wprec if absprec is None else absprec
        return cls(ctx, 0, a, ([0, 1] + [0] * order)[: order + 1])

    # -- views ---------------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.packed[2]) - 1

    coeffs = PackedVector.coords

    def truncate(self, order: int) -> "TruncatedSeries":
        if order >= self.order:
            return self
        denom, e, ints = self.packed
        return self._new(denom, e, ints[: order + 1])

    def is_integral(self):
        """(all coefficients in Z_p at their precision, worst valuation)."""
        worst = self.min_valuation()
        return worst >= 0, worst

    def _is_unit(self, i: int) -> bool:
        """Whether coefficient i has valuation exactly 0."""
        denom, _, ints = self.packed
        c = ints[i] if i <= self.order else 0
        return c % self.ctx.pk(denom) == 0 and c % self.ctx.pk(denom + 1) != 0

    def __repr__(self):
        head = ", ".join(repr(self.coeff(i)) for i in range(min(4, self.order + 1)))
        return f"TruncatedSeries(order={self.order}; {head}, ...)"

    def _coerce(self, other):
        if isinstance(other, TruncatedSeries):
            return other
        return TruncatedSeries.from_scalars(self.ctx, [self.ctx.scalar(other)])

    # -- multiplicative structure ----------------------------------------------

    def __mul__(self, other):
        other = self._coerce(other)
        order = max(self.order, other.order)
        d, e = _product_scale(self.packed, other.packed)
        return self._new(d, e, _product_ints(self.packed[2], other.packed[2], order + 1))

    def reciprocal(self) -> "TruncatedSeries":
        """1/f for an integral f with unit constant term, by the recursion
        r_m = -r_0 sum_{j=1}^m f_j r_(m-j) on integers mod p^E, with E the
        absprec of f.  A non-integral f is refused, naming its worst
        valuation."""
        if not self._is_unit(0):
            raise InvalidInputError("reciprocal needs a unit constant term")
        ok, worst = self.is_integral()
        if not ok:
            raise InvalidInputError(
                f"reciprocal needs an integral series (valuation {worst})"
            )
        _, prec, f = self.packed
        mod = self.ctx.pk(prec)
        r0 = pow(f[0], -1, mod)
        out = [r0]
        for m in range(1, self.order + 1):
            out.append(-r0 * sum(map(mul, f[1 : m + 1], out[::-1])) % mod)
        return self._new(0, prec, out)

    def derivative(self) -> "TruncatedSeries":
        """f' on the integers, i f_i at the absprec of f; the derivative of
        a constant is zero at wprec."""
        if self.order == 0:
            return TruncatedSeries.zero(self.ctx, 0)
        denom, e, ints = self.packed
        return self._new(denom, e, [i * c for i, c in enumerate(ints[1:], 1)])

    def integrate(self) -> "TruncatedSeries":
        """Antiderivative with constant term zero at wprec.  Degree i + 1
        divides by i + 1 and loses v_p(i + 1) digits, so the result is
        packed over p^(denom + V), V = floor(log_p(order + 1)), at absprec
        min(wprec, A - V)."""
        ctx = self.ctx
        denom, e, ints = self.packed
        top = _log_floor(len(ints), ctx.p)
        a = min(ctx.wprec, e - denom - top) + denom + top
        m = ctx.pk(max(a, 0))
        out = [0]
        for i, c in enumerate(ints, 1):
            v, u = split_p(i, ctx.p)
            out.append(c * ctx.pk(top - v) * pow(u, -1, m))
        return self._new(denom + top, a, out)

    # -- composition -------------------------------------------------------------

    def compose(self, g: "TruncatedSeries") -> "TruncatedSeries":
        """f(g(X)) = sum_j f_j g^j truncated at max(order), by Brent and
        Kung's baby steps and giant steps (J. ACM 25, 1978).

        g must satisfy g(0) = 0 and be integral, so it packs at
        denominator 0; a non-integral g is refused, naming its worst
        valuation.

        Algorithm (``_paterson_stockmeyer``), with n = order + 1, v the
        X-adic valuation of g, L the number of f_j with v j < n (the rest
        vanish mod X^n) and k = isqrt(L): the baby steps g^2, ..., g^k are
        k - 1 packed products, g^(2i) a square, each g^j kept to its true
        length min(n, deg(g) j + 1).  f splits into blocks of k
        coefficients, and each block sum P_i = sum_(j<k) f_(ik+j) g^j is k
        int-by-packed products.  Horner in G = g^k,
        acc_i = P_i + G acc_(i+1), needs acc_i only mod X^(n - v k i), as
        it enters f(g) times G^i: step i is one packed multiply-add of
        acc_(i+1) by G / X^(v k), both n - v k (i + 1) long, and one
        reduction.  So about 2 sqrt(L) products, the giant steps
        shrinking by v k terms each, against L full-length products for
        one power row per degree.

        Precision: with E the absprec of a series and D_j the
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
        if g.packed[2][0]:
            raise InvalidInputError("composition needs inner constant term 0")
        ok, worst = g.is_integral()
        if not ok:
            raise InvalidInputError(
                f"composition needs an integral inner series (valuation {worst})"
            )
        order = max(self.order, g.order)
        _, eg, gints = g.packed
        d, ef, fints = self.packed
        value_prec = ef - d
        if self.order >= 1:
            tail = gcd(*fints[1:])
            d_tail = max(0, d - vp(tail, self.ctx.p)) if tail else 0
            value_prec = min(value_prec, eg - d_tail)
        e = value_prec + d
        if e <= 0:
            raise PrecisionError("composition below zero precision", achieved=value_prec)
        return self._new(d, e, _compose_ints(fints, gints, order + 1, self.ctx.pk(e)))

    def reversion(self) -> "TruncatedSeries":
        """Compositional inverse g of an integral f = f_1 X + ..., f_1 a unit.

        Newton doubling on integers mod p^E: from g = X/f_1, a g right
        through degree r gives g - (f(g) - X) g', right through degree 2r.
        g' stands in for 1/f'(g): both agree with the inverse's
        1/f'(f^(-1)) through degree r - 1, and f(g) - X starts at degree
        r + 1.  Each step is one composition (``_compose_ints``, whose
        giant steps shrink by k terms each, as g has valuation 1) and one
        product, so the whole costs about two compositions at the full
        order.  The inverse of f mod (p^E, X^(M+1)) is unique when f_1 is
        a unit, so these are the integers of the degree-by-degree
        solve.  A non-integral f is refused, naming its worst valuation.

        Every coefficient of g is known modulo p^E with E the absprec of
        f, which may exceed wprec: the target X is exact, and each g_m is
        an integer polynomial in f_1^(-1), f_2, ..., f_m, so changing f
        mod p^E changes g only mod p^E.  Tate's t(X) reverts exp(lambda) - 1
        at the headroom above wprec that its checks need.
        """
        if self.packed[2][0]:
            raise InvalidInputError("reversion needs f(0) = 0")
        if not self._is_unit(1):
            raise InvalidInputError("reversion needs a unit linear coefficient")
        ok, worst = self.is_integral()
        if not ok:
            raise InvalidInputError(
                f"reversion needs an integral series (valuation {worst})"
            )
        prec = self.absprec
        mod = self.ctx.pk(prec)
        f = self.packed[2]
        g = [0, pow(f[1], -1, mod)]
        while len(g) <= self.order:
            n = min(2 * len(g) - 1, self.order + 1)
            err = _compose_ints(f[:n], g, n, mod)
            err[1] = (err[1] - 1) % mod
            corr = _product_ints(err, [j * c for j, c in enumerate(g[1:], 1)], n)
            g = [(a - b) % mod for a, b in zip(g + [0] * (n - len(g)), corr)]
        return self._new(0, prec, g)

    # -- evaluation ------------------------------------------------------------------

    def eval_scalar(self, x: PadicScalar) -> PadicScalar:
        """Horner evaluation at a scalar with v(x) >= 1, on integers, under
        ``PadicScalar``'s precision rule at every step: with P and X the
        absprecs of the accumulator and of x and mv a valuation (a zero's
        being its absprec), acc x is known to min(P + mv(x), X + mv(acc))
        and adding a coefficient caps that at the series' absprec A.
        mv(acc) is read only when it can decide the minimum."""
        if not x.is_zero and x.v < 1:
            raise InvalidInputError("scalar evaluation needs v(x) >= 1")
        ctx = self.ctx
        denom, e, ints = self.packed
        a = e - denom
        xa, xv, xi = x.absprec, x.min_valuation(), x.lift()
        acc, prec = ints[-1], a
        for c in reversed(ints[:-1]):
            # X + mv(acc) < P + mv(x) iff v_p(acc) < P + mv(x) - X + denom
            reach = prec + xv
            cut = reach - xa + denom
            if cut > 0 and acc % ctx.pk(cut):
                reach = xa + vp(acc, ctx.p) - denom
            prec = min(reach, a)
            acc = (acc * xi + c) % ctx.pk(max(prec + denom, 0))
        return PadicScalar._make(ctx, -denom, acc, prec)


# -- named constructions -------------------------------------------------------------


def log_one_plus_x(ctx: PrimeContext, order: int, absprec=None) -> TruncatedSeries:
    """log(1+X), order >= 1, as the integral of 1/(1+X): at absprec
    min(wprec, absprec - floor(log_p order)), absprec wprec by default."""
    return geometric_inverse(ctx, order - 1, absprec).integrate()


def geometric_inverse(ctx: PrimeContext, order: int, absprec=None) -> TruncatedSeries:
    """1/(1+X) = sum (-X)^m."""
    a = ctx.wprec if absprec is None else absprec
    return TruncatedSeries(ctx, 0, a, [(-1) ** m for m in range(order + 1)])


def frobenius_substitute(f: TruncatedSeries) -> TruncatedSeries:
    """f((1+X)^p - 1), the Frobenius substitution on the formal variable."""
    p = f.ctx.p
    inner = [comb(p, j) if j else 0 for j in range(min(p, f.order) + 1)]
    return f.compose(TruncatedSeries(f.ctx, 0, f.absprec, inner))
