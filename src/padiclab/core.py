"""Exact p-adic scalar arithmetic with honest precision tracking.

Every scalar is stored as p^v * unit known modulo p^absprec.  Operations
never report more precision than the inputs justify; a value that is
indistinguishable from zero at its precision is stored as an explicit
"zero at precision" marker so downstream residual checks can report a
valuation lower bound instead of a fake exact value.
"""

from __future__ import annotations

from fractions import Fraction


class PadicError(Exception):
    pass


class InvalidInputError(PadicError):
    pass


class PrecisionError(PadicError):
    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class ConvergenceError(PadicError):
    pass


class PropertyFailure(PadicError):
    """A verified mathematical property failed at the stated precision."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def vp(n: int, p: int) -> int:
    """Valuation of a nonzero integer."""
    if n == 0:
        raise InvalidInputError("valuation of 0 is infinite")
    v = 0
    # strip big chunks first, then single powers
    chunk = p ** 16
    while n % chunk == 0:
        n //= chunk
        v += 16
    while n % p == 0:
        n //= p
        v += 1
    return v


def split_p(n: int, p: int):
    """n = p^v * u with u prime to p; returns (v, u)."""
    v = vp(n, p)
    return v, n // p**v


def factorial_valuation(m: int, p: int) -> int:
    """v_p(m!) by Legendre's formula."""
    s = 0
    q = p
    while q <= m:
        s += m // q
        q *= p
    return s


class PrimeContext:
    """Odd prime p and a target absolute precision N (work modulo p^N).

    ``wprec`` is the default working precision used when constructing
    scalars; the extra guard digits absorb the bounded losses of
    logarithms, eliminations and trace normalisations so that results
    can honestly be claimed modulo p^N.

    The residual policy of every check lives here, derived from N:
    ``identity_floor`` = N - 2 is the valuation a stated identity must
    reach, and ``solve_floor`` = N - 4 the one a result read off a
    solve must reach.  A solve (an elimination with valuation pivots, a
    lattice membership, a unit rebuilt from its exponents) divides by
    its pivots and rebuilds through
    logarithms, which can cost up to two digits more than computing the
    two sides of an identity does.  ``require`` applies the policy.
    """

    def __init__(self, p: int, prec: int, guard: int = 24):
        if not is_prime(p):
            raise InvalidInputError(f"p = {p} is not prime")
        if p == 2:
            # the constructions need 1/2 in Z_p and a nontrivial torsion
            # subgroup mu_{p-1}; both fail at p = 2
            raise InvalidInputError("p = 2 is not supported")
        if prec < 4:
            raise InvalidInputError("precision must be at least 4")
        self.p = p
        self.prec = prec
        self.guard = guard
        self.wprec = prec + guard
        self.identity_floor = prec - 2
        self.solve_floor = prec - 4
        self._powers = {}

    def pk(self, k: int) -> int:
        """p^k, cached."""
        if k < 0:
            raise InvalidInputError("negative power of p requested as modulus")
        r = self._powers.get(k)
        if r is None:
            r = self.p**k
            self._powers[k] = r
        return r

    def require(self, r, what: str, floor=None):
        """The residual valuation r, if it reaches floor (identity_floor
        by default); otherwise PropertyFailure naming what failed."""
        if r < (self.identity_floor if floor is None else floor):
            raise PropertyFailure(f"{what} (valuation {r})")
        return r

    def __repr__(self):
        return f"PrimeContext(p={self.p}, prec={self.prec})"

    # -- scalar constructors -------------------------------------------------

    def zero(self, absprec=None) -> "PadicScalar":
        a = self.wprec if absprec is None else absprec
        return PadicScalar(self, a, 0, a)

    def one(self, absprec=None) -> "PadicScalar":
        return self.scalar(1, absprec)

    def scalar(self, x, absprec=None) -> "PadicScalar":
        """Embed an exact int or Fraction at the given absolute precision."""
        a = self.wprec if absprec is None else absprec
        if isinstance(x, PadicScalar):
            return x.reduce_absprec(min(a, x.absprec))
        if isinstance(x, Fraction):
            num, den = x.numerator, x.denominator
        elif isinstance(x, int):
            num, den = x, 1
        else:
            raise InvalidInputError(f"cannot embed {type(x).__name__} in Q_p")
        if num == 0:
            return self.zero(a)
        vn, un = split_p(num, self.p)
        vd, ud = split_p(den, self.p)
        v = vn - vd
        rel = a - v
        if rel <= 0:
            return self.zero(a)
        m = self.pk(rel)
        unit = un * pow(ud, -1, m) % m
        return PadicScalar(self, v, unit, a)

    def teichmuller_int(self, a: int, k: int) -> int:
        """The (p-1)-st root of unity congruent to a, as an integer mod p^k
        (k >= 1): a^(p^(k-1)) mod p^k.

        a^(p-1) = 1 + p y, so (a^(p^(k-1)))^(p-1) = (1 + p y)^(p^(k-1)),
        which is 1 mod p^k; and a^(p^(k-1)) = a mod p by Fermat.
        """
        if a % self.p == 0:
            raise InvalidInputError("Teichmuller lift needs a prime to p")
        if k < 1:
            raise InvalidInputError("Teichmuller lift needs a modulus p^k, k >= 1")
        return pow(a, self.pk(k - 1), self.pk(k))


class PadicScalar:
    """An element of Q_p: value = unit * p^v, known modulo p^absprec.

    Zero at precision is unit == 0 (then v is meaningless and absprec is
    the only information: the value lies in p^absprec * Z_p).
    """

    __slots__ = ("ctx", "v", "unit", "absprec")

    def __init__(self, ctx, v, unit, absprec):
        self.ctx = ctx
        self.absprec = absprec
        if unit == 0:
            self.v = absprec
            self.unit = 0
        else:
            self.v = v
            self.unit = unit

    # -- basic predicates ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        """Indistinguishable from 0 at this precision."""
        return self.unit == 0

    @property
    def valuation(self):
        """Exact valuation, or None for a zero-at-precision."""
        return None if self.unit == 0 else self.v

    def min_valuation(self) -> int:
        """Exact valuation, or the lower bound absprec for a zero."""
        return self.absprec if self.unit == 0 else self.v

    def rel_prec(self) -> int:
        return 0 if self.unit == 0 else self.absprec - self.v

    # -- normalisation ----------------------------------------------------

    @classmethod
    def _make(cls, ctx, v, raw, absprec):
        """Normalise raw integer p^v * raw known mod p^absprec."""
        if absprec - v <= 0:
            return cls(ctx, absprec, 0, absprec)
        m = ctx.pk(absprec - v)
        raw = int(raw % m)
        if raw == 0:
            return cls(ctx, absprec, 0, absprec)
        dv, u = split_p(raw, ctx.p)
        v2 = v + dv
        if v2 >= absprec:
            return cls(ctx, absprec, 0, absprec)
        return cls(ctx, v2, u % ctx.pk(absprec - v2), absprec)

    def reduce_absprec(self, absprec: int) -> "PadicScalar":
        if absprec >= self.absprec:
            return self
        if self.unit == 0 or self.v >= absprec:
            return PadicScalar(self.ctx, absprec, 0, absprec)
        return PadicScalar(
            self.ctx, self.v, self.unit % self.ctx.pk(absprec - self.v), absprec
        )

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        a, b = self, other
        absprec = min(a.absprec, b.absprec)
        if a.unit == 0 and b.unit == 0:
            return PadicScalar(self.ctx, absprec, 0, absprec)
        if a.unit == 0:
            return b.reduce_absprec(absprec)
        if b.unit == 0:
            return a.reduce_absprec(absprec)
        v = min(a.v, b.v)
        raw = a.unit * self.ctx.pk(a.v - v) + b.unit * self.ctx.pk(b.v - v)
        return self._make(self.ctx, v, raw, absprec)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        if self.unit == 0:
            return self
        m = self.ctx.pk(self.absprec - self.v)
        return PadicScalar(self.ctx, self.v, (-self.unit) % m, self.absprec)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        a, b = self, other
        if a.unit == 0 or b.unit == 0:
            # |a*b| <= p^-(absprec_zero + min_valuation_other)
            absprec = a.min_valuation() + b.min_valuation()
            return PadicScalar(self.ctx, absprec, 0, absprec)
        rel = min(a.rel_prec(), b.rel_prec())
        v = a.v + b.v
        unit = a.unit * b.unit % self.ctx.pk(rel)
        return PadicScalar._make(self.ctx, v, unit, v + rel)

    def __rmul__(self, other):
        return self.__mul__(other)

    def inverse(self) -> "PadicScalar":
        if self.unit == 0:
            raise PrecisionError(
                "cannot invert a value that is zero at its precision",
                achieved=self.absprec,
            )
        rel = self.rel_prec()
        m = self.ctx.pk(rel)
        return PadicScalar(self.ctx, -self.v, pow(self.unit, -1, m), rel - self.v)

    def __truediv__(self, other):
        other = self._coerce(other)
        if self.unit == 0:
            absprec = self.absprec - other.min_valuation()
            return PadicScalar(self.ctx, absprec, 0, absprec)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, k: int):
        if k == 0:
            return self.ctx.one(self.absprec - min(0, self.min_valuation()))
        if k < 0:
            return self.inverse() ** (-k)
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def _coerce(self, other):
        if isinstance(other, PadicScalar):
            return other
        # exact rationals must never cap the precision of the result
        if isinstance(other, int):
            vo = 0 if other == 0 else vp(other, self.ctx.p)
        elif isinstance(other, Fraction):
            vo = abs(
                (vp(other.numerator, self.ctx.p) if other.numerator else 0)
                - vp(other.denominator, self.ctx.p)
            )
        else:
            raise InvalidInputError(f"cannot embed {type(other).__name__} in Q_p")
        headroom = self.absprec + max(0, -self.min_valuation()) + vo + 16
        return self.ctx.scalar(other, max(headroom, self.ctx.wprec))

    # -- views --------------------------------------------------------------

    def lift(self) -> int:
        """Canonical integer representative in [0, p^absprec); needs v >= 0."""
        if self.unit == 0:
            return 0
        if self.v < 0:
            raise InvalidInputError("cannot lift a scalar of negative valuation")
        return self.unit * self.ctx.pk(self.v) % self.ctx.pk(self.absprec)

    def congruent_to(self, other, modulus_exp: int) -> bool:
        """Exact congruence self = other mod p^modulus_exp.

        Raises PrecisionError when the difference is not known to that
        many digits, so a check can never silently pass on thin data.
        """
        d = self - self._coerce(other)
        if d.absprec < modulus_exp and not (
            d.unit != 0 and d.v < modulus_exp
        ):
            raise PrecisionError(
                f"difference only known mod p^{d.absprec}, need p^{modulus_exp}",
                achieved=d.absprec,
            )
        return d.min_valuation() >= modulus_exp

    def __repr__(self):
        if self.unit == 0:
            return f"O({self.ctx.p}^{self.absprec})"
        return f"{self.unit}*{self.ctx.p}^{self.v} + O({self.ctx.p}^{self.absprec})"


# -- elementary functions ----------------------------------------------------


def teichmuller(a: int, ctx: PrimeContext, absprec=None) -> PadicScalar:
    """The unique (p-1)-st root of unity congruent to a mod p."""
    if a % ctx.p == 0:
        raise InvalidInputError("Teichmuller lift needs gcd(a, p) = 1")
    k = ctx.wprec if absprec is None else absprec
    return PadicScalar(ctx, 0, ctx.teichmuller_int(a, k), k)


def iwasawa_log(x: PadicScalar) -> PadicScalar:
    """Iwasawa branch of log_p on Q_p^x: log(p) = 0, roots of unity to 0.

    Strips p^v and the Teichmuller part, then sums the usual series on
    the principal unit.
    """
    ctx = x.ctx
    if x.unit == 0:
        raise InvalidInputError("log of a value that is zero at its precision")
    omega = ctx.teichmuller_int(x.unit, x.rel_prec())
    m = ctx.pk(x.rel_prec())
    u1 = x.unit * pow(omega, -1, m) % m  # principal unit, = 1 + p*(...)
    principal = PadicScalar(ctx, 0, u1, x.rel_prec())
    return _log_principal(principal)


def _log_principal(u: PadicScalar) -> PadicScalar:
    """log on 1 + pZ_p by the convergent series, on integers.

    With t = u - 1 known mod p^T, kmax = (T + 8)//v(t) + 4 and
    L = floor(log_p(kmax + 1)), a bound on every v_p(k) in the sum,
    p^L log(1+t) = sum_k (-1)^(k-1) t^k p^(L-v_p(k)) / (k/p^v_p(k)) is
    summed mod p^T: each t^k is known to p^T, and the terms with
    k v(t) >= T vanish mod p^(T-L) after the division by p^L.  The result
    is claimed mod p^(T-L).
    """
    ctx = u.ctx
    t = u - 1
    if not t.is_zero and t.v < 1:
        raise InvalidInputError("principal-unit log needs v(u - 1) >= 1")
    if t.is_zero:
        return ctx.zero(t.absprec)
    p, target = ctx.p, t.absprec
    floor = _log_floor((target + 8) // t.v + 5, p)
    mod = ctx.pk(target)
    ti = t.lift()
    acc = 0
    power = 1
    for k in range(1, (target - 1) // t.v + 1):
        power = power * ti % mod
        vk, uk = split_p(k, p)
        term = power * ctx.pk(floor - vk) * pow(uk, -1, mod)
        acc += term if k % 2 else -term
    return PadicScalar._make(ctx, 0, acc % mod // ctx.pk(floor), target - floor)


def _log_floor(n: int, p: int) -> int:
    """floor(log_p n) for n >= 1: the largest v_p(k) over k <= n."""
    k = 0
    while p ** (k + 1) <= n:
        k += 1
    return k


def padic_exp(x: PadicScalar) -> PadicScalar:
    """exp by the power series on integers; requires v(x) >= 1.

    With x known mod p^T and v = v(x), v_p(k!) <= (k - 1)/(p - 1) gives
    v(x^k/k!) >= k v - (k - 1)/(p - 1), which reaches T from
    K = ceil((T(p - 1) - 1)/(v(p - 1) - 1)) on and grows with k, so the
    terms k < K are the whole sum mod p^T.  With L = v_p((K - 1)!),
    sum_k<K x^k p^L/k! has integer terms, each known mod p^(T + L) (the
    error in x^k has valuation >= T + (k - 1) v), and the division by
    p^L leaves the result claimed mod p^T.
    """
    ctx = x.ctx
    if x.is_zero:
        return ctx.one(x.absprec)
    if x.v < 1:
        raise InvalidInputError("exp needs v(x) >= 1 over Q_p")
    p, target, v = ctx.p, x.absprec, x.v
    kmax = -(-(target * (p - 1) - 1) // (v * (p - 1) - 1))
    floor = factorial_valuation(kmax - 1, p)
    mod = ctx.pk(target + floor)
    xi = x.lift()
    acc = ctx.pk(floor)
    power, inv, vf = 1, 1, 0  # x^k, the inverse of k!'s unit part, v_p(k!)
    for k in range(1, kmax):
        vk, uk = split_p(k, p)
        power = power * xi % mod
        inv = inv * pow(uk, -1, mod) % mod
        vf += vk
        acc += power * inv * ctx.pk(floor - vf)
    return PadicScalar._make(ctx, 0, acc % mod // ctx.pk(floor), target)


def hensel_root(f, df, x0: PadicScalar, target=None) -> PadicScalar:
    """Newton iteration for a root of f starting at x0.

    Requires the classical criterion v(f(x0)) > 2 v(f'(x0)); raises
    ConvergenceError with the offending valuations otherwise.  f and df
    are callables on scalars.
    """
    ctx = x0.ctx
    target = ctx.wprec if target is None else target
    fx = f(x0)
    dfx = df(x0)
    if dfx.is_zero:
        raise ConvergenceError("f'(x0) is zero at working precision")
    if fx.min_valuation() <= 2 * dfx.v:
        raise ConvergenceError(
            f"Newton criterion fails: v(f(x0)) = {fx.min_valuation()}"
            f", v(f'(x0)) = {dfx.v}"
        )
    x = x0
    gain = fx.min_valuation() - 2 * dfx.v
    steps = 0
    while fx.min_valuation() < target:
        x = x - fx / dfx
        fx = f(x)
        dfx = df(x)
        steps += 1
        if steps > target + 8:
            raise ConvergenceError(
                f"no convergence after {steps} steps; residual valuation "
                f"{fx.min_valuation()}, initial gain {gain}"
            )
    return x
