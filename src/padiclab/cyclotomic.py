"""Arithmetic in the cyclotomic tower K_n = Q_p(zeta_{p^(n+1)}).

An element is one integer vector over the power basis zeta^0..zeta^(d-1),
d = p^n (p-1), with one denominator exponent and one absolute precision;
each operation follows the per-coordinate ``PadicScalar`` rule, cut to the
least coordinate precision.  Its coordinates are a view.  The cyclotomic
relation is applied in one place, ``_reduce``.  Every product of two
elements is one ``CycloField._product``: one ``series._kronecker``
multiply of the packed integers, wrapped at p^(n+1) and folded by
``_reduce``; every power, and every product of powers, is one Straus loop
over it (``CycloField.power_product``).  The sums of products that the
Coleman layer takes have kernels of their own: a trace pairing Tr(x w) is
a dot product with w's trace form (``_trace_form``), a product in the
group ring K_n[Z/m] is one 2-D ``_kronecker`` product
(``_group_product``), and zeta^k x moves each coordinate of x to its slot
before the fold (``_fold``).  Power series are summed at an element by
baby steps and giant steps (``CycloField._evaluate``), about 2 sqrt(M)
products for M terms; inverses are Newton's iteration, about 2 log2(d A)
products at absprec A.  The n-th layer k_n of the Z_p-extension is the
subspace fixed by Delta = mu_{p-1}, coordinatised by powers of the
canonical uniformizer pi_n.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import add, mul, sub

from .core import (
    ConvergenceError,
    InvalidInputError,
    PadicScalar,
    PrecisionError,
    PrimeContext,
    _log_floor,
    iwasawa_log,
    split_p,
    vp,
)
from .series import (
    PackedVector,
    TruncatedSeries,
    _from_int,
    _kronecker,
    _paterson_stockmeyer,
    _product_scale,
)


class CycloField:
    """The field Q_p(zeta_{p^level}) with level = n + 1."""

    def __init__(self, ctx: PrimeContext, n: int):
        self.ctx = ctx
        self.n = n
        self.level = n + 1
        p = ctx.p
        self.modulus_order = p**self.level
        self.degree = p**n * (p - 1)
        self._trace_table = _trace_form(self, [1] + [0] * (self.degree - 1))

    # -- constructors -------------------------------------------------------

    def zero(self, absprec=None) -> "CycloElement":
        return self.from_scalar(self.ctx.zero(absprec))

    def one(self, absprec=None) -> "CycloElement":
        return self.from_scalar(self.ctx.one(absprec))

    def from_scalar(self, s) -> "CycloElement":
        s = s if isinstance(s, PadicScalar) else self.ctx.scalar(s)
        denom = max(0, -s.v)
        ints = [0] * self.degree
        ints[0] = s.unit * self.ctx.pk(s.v + denom)
        return CycloElement(self, denom, s.absprec + denom, ints)

    def zeta(self, absprec=None) -> "CycloElement":
        return self.zeta_power(1, absprec)

    def zeta_power(self, k: int, absprec=None) -> "CycloElement":
        a = self.ctx.wprec if absprec is None else absprec
        return CycloElement(self, 0, a, _fold(self, [1], 1, k))

    def delta_exponents(self):
        """Teichmuller lifts of 1..p-1 reduced mod p^level."""
        ctx = self.ctx
        return tuple(
            ctx.teichmuller_int(r, self.level) % self.modulus_order
            for r in range(1, ctx.p)
        )

    def _product(self, A, B):
        """The packed product of two triples, reduced mod p^e, at
        ``series._product_scale``'s scale and precision: the one kernel of
        every product in K_n, one ``series._kronecker`` read by ``_read``
        (a squaring packs once).  Each of the p^(n+1) slots that ``_read``
        folds sums at most d products of two entries."""
        D, e = _product_scale(A, B)
        m = self.ctx.pk(e)
        ints = _kronecker(A[2], B[2], self.degree, self._read, self.degree)
        return D, e, [c % m for c in ints]

    def _read(self, x, w, count):
        """The d coordinates, unreduced, of the packed int x with w-byte
        slots, a product of two d-slot vectors plus at most d more slots:
        the slots at and past p^(n+1) are added onto the low ones on the
        int, and the p^(n+1) slots read back are folded by ``_reduce``.
        ``count``, the read's length in ``series._kronecker`` and
        ``series._paterson_stockmeyer``, is always d here."""
        cut = 8 * w * self.modulus_order
        x = (x & ((1 << cut) - 1)) + (x >> cut)
        return _reduce(self, _from_int(x, w, self.modulus_order))

    def _evaluate(self, coeffs, x, e):
        """sum coeffs[i] x^i mod p^e, for the ints x of an integral
        element and non-negative coeffs, by ``series._paterson_stockmeyer``
        reading its packed steps with ``_read``: about 2 sqrt(len(coeffs))
        products, each Horner step one multiply-add, untruncated."""
        return _paterson_stockmeyer(coeffs, x, self.ctx.pk(e), self._read, self.degree)

    def power_product(self, terms, absprec) -> "CycloElement":
        """prod x^k over the (x, k) in terms, every k >= 0, cut to absprec:
        the one exponentiation in K_n, by Straus's multi-exponentiation
        (Amer. Math. Monthly 71, 1964) on the packed triples.  From the
        top bit down, one squaring of the running product and one
        ``_product`` per x whose k has that bit, so the squarings are
        shared: max bit_length(k) - 1 of them in all.  Each product is
        claimed at ``_product_scale``'s precision; the empty product, and
        every k = 0, is one at absprec."""
        self._own([x for x, _ in terms])
        acc = None
        for bit in reversed(range(max((k.bit_length() for _, k in terms), default=0))):
            if acc is not None:
                acc = self._product(acc, acc)
            for x, k in terms:
                if k >> bit & 1:
                    acc = x.packed if acc is None else self._product(acc, x.packed)
        if acc is None:
            return self.one(absprec)
        return CycloElement(self, *acc).reduce_absprec(absprec)

    def _own(self, xs):
        """Refuse an element of another level, as a product in K_n does."""
        if any(x.field.level != self.level for x in xs):
            raise InvalidInputError("level mismatch between cyclotomic elements")

    def _common_scale(self, xs):
        """(D, ints): the ints of each element of this field in xs over
        their largest denominator exponent D."""
        self._own(xs)
        denom = max(x.packed[0] for x in xs)
        scales = [self.ctx.pk(denom - x.packed[0]) for x in xs]
        return denom, [[c * q for c in x.packed[2]] for x, q in zip(xs, scales)]

    def root_weighted_sum(self, xs, ks) -> "CycloElement":
        """sum_i xs[i] zeta^(ks[i]) with no product in K_n: zeta^k x moves
        x's coordinate j to the slot j + k before the fold (``_fold``), so
        the terms are summed on integers over their common denominator.
        Each term is claimed as its product with ``zeta_power(k)``, held
        at wprec, is, and the sum at the least claim, as the loop over
        those products from zero at wprec claims it."""
        wprec = self.ctx.wprec
        denom, scaled = self._common_scale(xs)
        prec, out = wprec, [0] * self.degree
        for x, ints, k in zip(xs, scaled, ks):
            d, e = _product_scale(x.packed, (0, wprec, None))
            prec = min(prec, e - d)
            out = list(map(add, out, _fold(self, ints, 1, k)))
        return CycloElement(self, denom, prec + denom, out)

    def group_product(self, xs, ys):
        """The coefficients c_i = sum_(j + k = i mod m) xs[j] ys[k], i < m,
        of (sum_j xs[j] g^j)(sum_k ys[k] g^k) in K_n[Z/m], m = len(xs) =
        len(ys): one ``_group_product`` over the common denominators of
        xs and of ys.  c_i is claimed at the least ``_product_scale``
        precision of its m products, as the sum of those K_n products
        is."""
        m = len(xs)
        if len(ys) != m:
            raise InvalidInputError(f"cannot multiply {m} group coefficients by {len(ys)}")
        (dx, a), (dy, b) = self._common_scale(xs), self._common_scale(ys)
        out = []
        for i, c in enumerate(_group_product(self, a, b)):
            scales = (_product_scale(xs[j].packed, ys[(i - j) % m].packed) for j in range(m))
            prec = min(e - d for d, e in scales)
            out.append(CycloElement(self, dx + dy, prec + dx + dy, c))
        return out


class CycloElement(PackedVector):
    """sum ints[j] zeta^j / p^denom known mod p^(e - denom), held as
    ``packed`` = (denom, e, ints) in ``series._normalise``'s normal form;
    the linear operations are ``PackedVector``'s."""

    __slots__ = ("field",)

    def __init__(self, field: CycloField, denom: int, e: int, ints):
        self.field = field
        super().__init__(field.ctx, denom, e, ints)

    def _new(self, denom, e, ints):
        return CycloElement(self.field, denom, e, ints)

    def _coerce(self, other):
        if isinstance(other, CycloElement):
            self.field._own([other])
            return other
        return self.field.from_scalar(other)

    # -- multiplicative structure ------------------------------------------------

    def __mul__(self, other):
        other = self._coerce(other)
        return CycloElement(self.field, *self.field._product(self.packed, other.packed))

    def __pow__(self, k: int):
        """x^k by ``CycloField.power_product``; for k < 0, the one inverse
        of x^(-k)."""
        if k < 0:
            return (self ** (-k)).inverse()
        return self.field.power_product([(self, k)], self.absprec)

    def peel(self):
        """(u, s, m) with x = u p^m / (zeta-1)^s, u a unit, 0 <= s < d.

        With v(x) = k/d, m = ceil(k/d) and s = dm - k, so u = x (zeta-1)^s
        / p^m has valuation 0: (zeta-1)^d / p is a unit.  Raises
        PrecisionError for x zero at its precision.
        """
        v = self.valuation()
        if v is None:
            raise PrecisionError(
                "cannot peel a value that is zero at its precision",
                achieved=self.min_valuation(),
            )
        f = self.field
        k = int(v * f.degree)
        m = -(-k // f.degree)
        s = f.degree * m - k
        u = self
        if s:
            u = u * (f.zeta() - f.one()) ** s
        if m:
            u = u.scale(Fraction(self.ctx.p) ** -m)
        return u, s, m

    def inverse(self) -> "CycloElement":
        """x^(-1) = (zeta-1)^s u^(-1) / p^m for the peel (u, s, m) of x.

        u^(-1) mod p^A, A the absprec of u, is Newton's iteration
        y <- y (2 - u y) from the inverse of u's residue: 1 - u y starts at
        valuation >= 1/d and squares at each step, so ceil(log2(d A))
        steps, two products each, take it to p^A, where the inverse is
        unique.  Returned only when x x^(-1) - 1 reaches identity_floor
        (else PrecisionError)."""
        f = self.field
        p = self.ctx.p
        u, s, m = self.peel()
        _, a, _ = u.packed
        mod = self.ctx.pk(a)
        y = [pow(u.residue(), -1, mod)] + [0] * (f.degree - 1)
        for _ in range((f.degree * a - 1).bit_length()):
            t = [-c % mod for c in f._product(u.packed, (0, a, y))[2]]
            t[0] = (t[0] + 2) % mod
            y = f._product((0, a, y), (0, a, t))[2]
        inv = CycloElement(f, 0, a, y) * (f.zeta() - f.one()) ** s
        inv = inv.scale(Fraction(p) ** -m)
        resid = (self * inv - 1).min_valuation()
        if resid < self.ctx.identity_floor:
            raise PrecisionError(
                f"x x^(-1) - 1 only reaches valuation {resid}", achieved=resid
            )
        return inv

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    # -- Galois action -------------------------------------------------------------

    def galois(self, a: int) -> "CycloElement":
        """The automorphism zeta -> zeta^a applied coefficientwise."""
        if a % self.ctx.p == 0:
            raise InvalidInputError("Galois exponent must be prime to p")
        denom, e, ints = self.packed
        return CycloElement(self.field, denom, e, _fold(self.field, ints, a))

    # -- invariants ------------------------------------------------------------------

    def trace_to_qp(self) -> PadicScalar:
        """Absolute trace from K_n: the dot product of the coordinates
        with the trace table Tr(zeta^j), which is the trace form of 1
        (``_trace_form``)."""
        denom, e, ints = self.packed
        raw = sum(c * t for c, t in zip(ints, self.field._trace_table) if t)
        return PadicScalar._make(self.ctx, -denom, raw, e - denom)

    def residue(self) -> int:
        """Image in the residue field F_p (the tower is totally ramified)."""
        denom, _, ints = self.packed
        if denom:
            raise InvalidInputError("negative valuation has no residue")
        return sum(ints) % self.ctx.p

    def _first_low_coord(self, step: int):
        """(j, v) for the first coordinate j, step not dividing j, whose
        min valuation v is below identity_floor; else None."""
        for j, v in enumerate(self.valuations()):
            if j % step and v < self.ctx.identity_floor:
                return j, v
        return None

    def valuation(self):
        """Exact valuation as a Fraction (v(p) = 1), or None for zero at
        precision.

        The (zeta-1)^i, i < d, are a Z_p-basis of the integers of K_n and
        v(zeta - 1) = 1/d, so x = sum c_i (zeta-1)^i has valuation
        min_i (v(c_i) + i/d): the i/d differ mod 1, so no two terms cancel.
        An integer Taylor shift (zeta = 1 + t) takes the packed vector to
        the p^D c_i, all known mod p^E, so a nonzero c_i has v(c_i) < E - D,
        below every vanishing one's bound, and the minimum is exact.
        """
        d = self.field.degree
        p = self.ctx.p
        denom, e, a = self.packed
        a = list(a)
        for i in range(d):
            for j in range(d - 1, i, -1):
                a[j - 1] += a[j]
        m = self.ctx.pk(max(e, 0))
        keys = [d * vp(c, p) + i for i, c in enumerate(a) if c % m]
        if not keys:
            return None
        return Fraction(min(keys) - d * denom, d)

    def scalar_part(self) -> PadicScalar:
        """Extract the Q_p value of an element supported on zeta^0."""
        low = self._first_low_coord(self.field.degree)
        if low is not None:
            raise PrecisionError(
                f"element is not rational at precision {self.ctx.identity_floor}",
                achieved=low[1],
            )
        denom, e, ints = self.packed
        return PadicScalar._make(self.ctx, -denom, ints[0], e - denom)

    def __repr__(self):
        nz = [(i, c) for i, c in enumerate(self.coords) if not c.is_zero]
        body = " + ".join(f"({c!r})*z^{i}" for i, c in nz[:3])
        more = " + ..." if len(nz) > 3 else ""
        return f"CycloElement(level={self.field.level}; {body or '0'}{more})"


class CycloTower:
    """Shared context for levels 0..n_max and the k_n-layer machinery."""

    def __init__(self, ctx: PrimeContext, n_max: int, kappa_gamma: int | None = None):
        self.ctx = ctx
        self.n_max = n_max
        kg = (1 + ctx.p) if kappa_gamma is None else kappa_gamma
        if kg % ctx.p != 1 or kg == 1:
            raise InvalidInputError(
                "kappa(gamma) must lie in 1 + pZ_p and generate topologically"
            )
        if iwasawa_log(ctx.scalar(kg, 8)).valuation != 1:
            raise InvalidInputError("kappa(gamma) must be a topological generator")
        self.kappa_gamma = kg
        self._fields = {}
        self._pi = {}
        self._pi_powers = {}
        # each level's pi-basis, reduced once
        self._pi_reduction = {}
        self._log_cache = {}
        self._int_logs = {}

    def log_int(self, a: int) -> PadicScalar:
        """The Iwasawa log of the integer a at working precision, computed
        once per tower: log kappa(gamma) and log p enter every functional's
        checks."""
        if a not in self._int_logs:
            self._int_logs[a] = iwasawa_log(self.ctx.scalar(a))
        return self._int_logs[a]

    def field(self, n: int) -> CycloField:
        if n not in self._fields:
            if n < 0:
                raise InvalidInputError(f"no level {n} in the tower")
            self._fields[n] = CycloField(self.ctx, n)
        return self._fields[n]

    # -- Galois --------------------------------------------------------------------

    def gamma_exponent(self, n: int) -> int:
        return self.kappa_gamma % self.field(n).modulus_order

    def gamma_apply(self, x: CycloElement) -> CycloElement:
        return x.galois(self.gamma_exponent(x.field.n))

    def gamma_orbit_exponents(self, n: int, m: int = 0):
        """kappa(gamma)^(i p^m) mod p^(n+1) for i = 0..p^(n-m) - 1: at m = 0
        the coset reps of Delta, in general Gal(K_n/K_m), since
        kappa(gamma)^(p^m) generates 1 + p^(m+1)Z mod p^(n+1)."""
        if not 0 <= m <= n:
            raise InvalidInputError(f"no Gamma orbit from level {n} over level {m}")
        mo = self.field(n).modulus_order
        g = pow(self.kappa_gamma, self.ctx.p**m, mo)
        out = []
        a = 1
        for _ in range(self.ctx.p ** (n - m)):
            out.append(a)
            a = a * g % mo
        return out

    def gamma_conjugates(self, x: CycloElement, m: int = 0):
        """The conjugates of x over K_m, x^(gamma^(i p^m)) for i = 0..p^(n-m)
        - 1, in gamma_orbit_exponents order."""
        if m > x.field.n:
            raise InvalidInputError("target level above source level")
        return [
            x.galois(a) if a != 1 else x
            for a in self.gamma_orbit_exponents(x.field.n, m)
        ]

    def is_delta_fixed(self, x: CycloElement) -> bool:
        return all(
            (x.galois(a) - x).min_valuation() >= self.ctx.identity_floor
            for a in x.field.delta_exponents()
            if a != 1
        )

    # -- embeddings and relative maps --------------------------------------------------

    def restrict(self, x: CycloElement, m: int) -> CycloElement:
        """Extract an element supported on the level-m subfield."""
        n = x.field.n
        if not 0 <= m <= n:
            raise InvalidInputError(f"cannot restrict from level {n} to level {m}")
        if m == n:
            return x
        step = self.ctx.p ** (n - m)
        low = x._first_low_coord(step)
        if low is not None:
            raise PrecisionError(
                f"element does not descend to level {m}"
                f" (coord {low[0]} has valuation {low[1]})",
                achieved=low[1],
            )
        denom, e, ints = x.packed
        return CycloElement(self.field(m), denom, e, ints[::step])

    def trace(self, x: CycloElement, m: int) -> CycloElement:
        """Tr_{K_n/K_m} (= Tr_{k_n/k_m} on Delta-fixed elements)."""
        return self.restrict(reduce(add, self.gamma_conjugates(x, m)), m)

    def norm(self, x: CycloElement, m: int) -> CycloElement:
        """N_{K_n/K_m}; the conjugates are multiplied in orbit order, which
        is exact for integral x."""
        return self.restrict(reduce(mul, self.gamma_conjugates(x, m)), m)

    def trace_kn_to_qp(self, x: CycloElement) -> PadicScalar:
        """Tr_{k_n/Q_p} for Delta-fixed x: absolute trace divided by p-1."""
        return x.trace_to_qp() / (self.ctx.p - 1)

    def trace_pairings(self, xs, w: CycloElement):
        """Tr_{k_n/Q_p}(x w) for each x in xs, as ``trace_kn_to_qp(x * w)``
        but with no product in K_n: Tr(x w) = sum_k x_k t[k] for w's trace
        form t (``_trace_form``), one length-d dot product per x.  It is
        claimed at the product's ``_product_scale`` (D, e): the dot
        product times 1/(p-1) mod p^e, reduced mod p^e by
        ``PadicScalar._make``, is the scalar ``trace_kn_to_qp`` reads
        off the product reduced mod p^e."""
        w.field._own(xs)
        t = _trace_form(w.field, w.packed[2])
        out = []
        for x in xs:
            d, e = _product_scale(x.packed, w.packed)
            raw = sum(map(mul, x.packed[2], t)) * pow(self.ctx.p - 1, -1, self.ctx.pk(e))
            out.append(PadicScalar._make(self.ctx, -d, raw, e - d))
        return out

    def norm_kn_to_qp(self, x: CycloElement) -> PadicScalar:
        """N_{k_n/Q_p} for Delta-fixed x: N_{K_n/K_0}(x), which lies in Q_p."""
        return self.norm(x, 0).scalar_part()

    # -- the canonical uniformizer and k_n coordinates -----------------------------------

    def uniformizer(self, n: int) -> CycloElement:
        """pi_n = prod_{delta in Delta} (zeta^delta - 1), a uniformizer of k_n."""
        if n not in self._pi:
            f = self.field(n)
            factors = [f.zeta_power(a) - f.one() for a in f.delta_exponents()]
            self._pi[n] = reduce(mul, factors)
        return self._pi[n]

    def pi_powers(self, n: int, k: int):
        """pi^0..pi^(k-1), kept per level and extended on demand."""
        powers = self._pi_powers.setdefault(n, [self.field(n).one()])
        while len(powers) < k:
            powers.append(powers[-1] * self.uniformizer(n))
        return powers[:k]

    def pi_basis(self, n: int):
        """Powers pi^0..pi^(p^n - 1): a Z_p-basis of O_{k_n}."""
        return self.pi_powers(n, self.ctx.p**n)

    def to_pi_coords(self, x: CycloElement) -> PackedVector:
        """Coordinates of x in the pi-power basis of k_n, packed: one
        forward substitution through the basis, reduced once per level.  An
        x outside k_n leaves a residual below identity_floor: PrecisionError."""
        n = x.field.n
        if n not in self._pi_reduction:
            basis = self.pi_basis(n)
            self._pi_reduction[n] = solve_columns(self.ctx, basis, self.ctx.identity_floor)
        return self._pi_reduction[n].coords(x)

    def from_pi_coords(self, n: int, coeffs: PackedVector) -> CycloElement:
        """sum c_i pi^i for packed pi coordinates c, on the integers, known
        to the least absprec of the terms under ``scale``'s rule,
        min(A(pi^i) + v(c_i), v(pi^i) + A(c))."""
        basis = self.pi_basis(n)
        denom, e, cs = coeffs.packed
        terms = zip(basis, coeffs.valuations())
        absprec = min(min(b.absprec + v, int(b.min_valuation()) + e - denom) for b, v in terms)
        ints = [sum(map(mul, cs, row)) for row in zip(*(b.packed[2] for b in basis))]
        return CycloElement(self.field(n), denom, absprec + denom, ints)

    # -- logarithm and exponential -----------------------------------------------------

    def log_zeta_minus_one(self, n: int) -> CycloElement:
        """log(zeta - 1) = log((zeta-1)^d / p) / d: the peeled-off part of
        every logarithm on K_n^x (log p = 0 on the Iwasawa branch)."""
        key = ("log_z1", n)
        if key not in self._log_cache:
            f = self.field(n)
            z1 = f.zeta() - f.one()
            u0 = (z1**f.degree).scale(Fraction(1, self.ctx.p))
            self._log_cache[key] = self._log_unit(u0).scale(Fraction(1, f.degree))
        return self._log_cache[key]

    def log_element(self, x: CycloElement) -> CycloElement:
        """Iwasawa logarithm on K_n^x: kills torsion, log(p) = 0.

        With the peel x = u p^m / (zeta-1)^s, log x = log u - s log(zeta-1),
        so precision never pays for large valuations and no inverse is
        taken.
        """
        u, s, _ = x.peel()
        if not s:
            return self._log_unit(u)
        return self._log_unit(u) - self.log_zeta_minus_one(x.field.n).scale(s)

    def _log_unit(self, y: CycloElement) -> CycloElement:
        """log on units, on y's packed vector (0, A, ints).

        The Teichmuller strip multiplies by omega^(-1) mod p^E, E = min(A,
        wprec), and j p-powerings (about log2(p) products each) contract y
        into 1 + pO.  In log(1 + h) = sum_(k<=kmax) (-1)^(k-1) h^k/k every
        h^k is known to p^E; over the common denominator p^D,
        D = floor(log_p kmax), term k's coefficient is p^(D - v_p(k)) times
        the inverse of k's unit part, and the sum is one ``_evaluate``,
        about 2 sqrt(kmax) products.  1/p^j is a denominator shift, and
        the result is cut to absprec E - log_p(kmax + 1) - j, the bound on
        the skipped tail's 1/k; as D <= log_p(kmax + 1), the digits the
        common denominator moves lie above it.
        """
        ctx = self.ctx
        p = ctx.p
        field = y.field
        r = y.residue()
        if r == 0:
            raise PrecisionError("unit part collapsed; raise working precision")
        # residue() has checked that the denominator exponent is 0
        _, a, ints = y.packed
        omega = ctx.teichmuller_int(r, a)
        target = min(a, ctx.wprec)
        m = ctx.pk(target)
        winv = pow(omega, -1, m)
        y = CycloElement(field, 0, target, [c * winv for c in ints])
        j = 0
        while (y.packed[2][0] - 1) % p or any(c % p for c in y.packed[2][1:]):
            y = y**p
            j += 1
            if j > 3 * (field.n + 4):
                raise ConvergenceError("principal part failed to contract")
        h = list(y.packed[2])
        h[0] = (h[0] - 1) % m
        # log(1+h) with v(h) >= 1: term k has valuation >= k v(h) - v_p(k)
        vh = min((vp(c, p) for c in h if c), default=target)
        kmax = (target + 8) // vh + 4
        denom = _log_floor(kmax, p)
        coeffs = [0]
        for k in range(1, kmax + 1):
            vk, uk = split_p(k, p)
            c = pow(uk, -1, m) * ctx.pk(denom - vk)
            coeffs.append(-c % m if k % 2 == 0 else c)
        acc = field._evaluate(coeffs, h, target)
        # the skipped tail is below target only up to the 1/k denominators
        floor = _log_floor(kmax + 1, p)
        return CycloElement(field, denom + j, target - floor + denom, acc)

    # -- series evaluation ----------------------------------------------------------------

    def eval_series(self, f: TruncatedSeries, x: CycloElement) -> CycloElement:
        """sum f_m x^m with the truncation adequacy check M v(x) >= prec.

        x is integral, so the sum keeps f's denominator exponent D_f and is
        known to p^E, E = min(E_f, E_x) over that scale, as each step of
        Horner's rule is; the packed f_m are summed by ``_evaluate``, about
        2 sqrt(M) products, not M.
        """
        v = x.valuation()
        if v is None:
            return x.field.from_scalar(f.coeff(0))
        if v <= 0:
            raise InvalidInputError("series evaluation needs v(x) > 0")
        needed = int(self.ctx.prec / v) + 1
        if f.order < needed:
            raise PrecisionError(
                f"truncation order {f.order} insufficient at v = {v};"
                f" need at least {needed}",
                achieved=f.order,
            )
        field = x.field
        if x.packed[0] != 0:
            raise InvalidInputError("series evaluation needs an integral point")
        denom, e = _product_scale(f.packed, x.packed)
        return CycloElement(field, denom, e, field._evaluate(f.packed[2], x.packed[2], e))

    # -- Gamma-equivariant linear solving ---------------------------------------------------

    def gamma_solve(self, v: CycloElement) -> CycloElement:
        """The trace-zero y with (gamma - 1) y = v in k_n; needs Tr(v) = 0.

        y = p^(-n) sum_(i < p^n) (i - m) gamma^i(v), m = (p^n - 1)/2: as
        gamma^(p^n) fixes K_n, the sum telescopes to (gamma - 1) sum_i (i - m)
        gamma^i(v) = p^n v - Tr(v).  The weights sum to 0, so Tr(y) = 0 even
        where Tr(v) vanishes only to identity_floor.  They are exact integers
        and Galois keeps v's scale (it is an automorphism of Z[zeta]), so for
        v known to p^A, y is known to p^(A - n)."""
        tr = self.trace_kn_to_qp(v)
        if not tr.is_zero and tr.v < self.ctx.identity_floor:
            raise InvalidInputError(
                f"gamma_solve needs trace zero; got valuation {tr.min_valuation()}"
            )
        conj = [x.packed[2] for x in self.gamma_conjugates(v)]
        m = (len(conj) - 1) // 2
        ints = [sum((i - m) * c for i, c in enumerate(col)) for col in zip(*conj)]
        denom, e, _ = v.packed
        return CycloElement(v.field, denom + v.field.n, e, ints)


def _reduce(field, slots):
    """The ints of sum_j slots[j] zeta^j in the power basis, unreduced, for
    p^(n+1) <= len(slots) <= 2 p^(n+1): the slots at and past p^(n+1) are
    added onto the low ones (zeta^(p^(n+1)) = 1), then each top slot d + r
    is subtracted from the slots r + t p^n, t < p - 1, by the cyclotomic
    relation zeta^(d+r) = -sum_(t<p-1) zeta^(r + t p^n)."""
    mo, d = field.modulus_order, field.degree
    low = slots[:mo]
    for u, c in enumerate(slots[mo:]):
        low[u] += c
    return list(map(sub, low[:d], low[d:] * (field.ctx.p - 1)))


def _fold(field, ints, a: int, k: int = 0):
    """sum_j ints[j] zeta^(a j + k) in the power basis, unreduced: the
    Galois map zeta -> zeta^a for k = 0, and for a = 1 the product with
    zeta^k.  Each coordinate moves to its slot (a j + k) mod p^(n+1) and
    ``_reduce`` folds the slots, so no product is taken."""
    mo = field.modulus_order
    slots = [0] * mo
    for j, c in enumerate(ints):
        slots[(a * j + k) % mo] += c
    return _reduce(field, slots)


def _trace_form(field, ints):
    """t[k] = Tr_{K_n/Q_p}(zeta^k w), k < d, for the ints of w, so that
    Tr(x w) = sum_k x_k t[k].  Tr(zeta^m) is d at m = 0 mod p^(n+1),
    -p^n at the other multiples of p^n and 0 elsewhere, so
    t[k] = d w[-k] - p^n sum_(0<r<p) w[r p^n - k], indices mod p^(n+1)
    and w_j = 0 for j >= d: O(d p).  The trace table Tr(zeta^k) is the
    trace form of 1."""
    mo, d = field.modulus_order, field.degree
    pn = mo - d
    w = list(ints) + [0] * pn
    return [
        d * w[-k % mo] - pn * sum(w[(r - k) % mo] for r in range(pn, mo, pn))
        for k in range(d)
    ]


def _group_product(field, xs, ys):
    """The ints of sum_(j + k = i mod m) xs[j] ys[k] in K_n, i < m, for
    two lists of m vectors of d non-negative ints, unreduced: the product
    in K_n[Z/m] as one 2-D ``series._kronecker`` product, the group index
    outer and the field coordinate inner.  Each vector fills L = 2d - 1
    slots, so a product of two vectors stays inside its block; the blocks
    at and past m are added onto the m low ones (g^m = 1) on the product
    int; each of the m blocks read back is folded by ``_reduce``.  A slot
    sums at most m d products of two entries."""
    m, d = len(xs), field.degree
    span = 2 * d - 1
    gap = [0] * (span - d)

    def read(y, w, count):
        cut = 8 * w * count
        slots = _from_int((y & ((1 << cut) - 1)) + (y >> cut), w, count)
        # p^(n+1) <= span < 2 p^(n+1) for odd p
        return [_reduce(field, slots[i : i + span]) for i in range(0, count, span)]

    a, b = ([c for v in vs for c in (*v, *gap)] for vs in (xs, ys))
    return _kronecker(a, b, m * d, read, span * m)


class ColumnReduction:
    """The packed columns (the generators) of a matrix over Q_p, reduced
    once by valuation-pivoted column operations: Hermite reduction over
    Z_p (H. Cohen, GTM 138, 2.4).  Row by row, the remaining column of
    least valuation in the row pivots and clears the row in the others.
    ``pivots`` holds (row, column, expression over the generators) in
    pivot order, ``leftover`` the columns that never pivoted.

    Precision rule: every multiplier is ``_quotient``'s exact integer, so
    the operations are unimodular, each expression is an exact integer
    vector, and c - f b is known to min(A_c, A_b + v(f)): a column loses
    digits only at the pivot division.  ``gain`` is what the pivot rows
    add to an error's valuation on its way into a solve's coefficients.
    """

    def __init__(self, ctx: PrimeContext, cols, floor):
        self.ctx, self.floor, ngen = ctx, floor, len(cols)
        work = [(c, [int(g == h) for h in range(ngen)]) for g, c in enumerate(cols)]
        nrows = len(cols[0].packed[2]) if ngen else 0
        # err: forward substitution of an error of valuation 0 in each row
        self.pivots, err, gains = [], [0] * nrows, []
        for r in range(nrows):
            vals = [
                (vp(c.packed[2][r], ctx.p) - c.packed[0], i)
                for i, (c, _) in enumerate(work)
                if c.packed[2][r]
            ]
            if not vals:
                continue
            pv, pe = work.pop(min(vals)[1])
            for i, (c, e) in enumerate(work):
                f = _quotient(c, pv, r)
                if f:
                    work[i] = (c - pv.scale(f), [a - f * b for a, b in zip(e, pe)])
            self.pivots.append((r, pv, pe))
            pvals = pv.valuations()
            gains.append(err[r] - pvals[r])
            err = [min(a, gains[-1] + v) for a, v in zip(err, pvals)]
        self.leftover = [c for c, _ in work]
        self.gain = min(gains, default=0)
        self._by_generator = [[e[g] for _, _, e in self.pivots] for g in range(ngen)]

    def solve(self, rhs):
        """(coeffs, exps): rhs over the pivots, packed, and over the
        generators, exact, by forward substitution with ``_quotient``'s
        multipliers: rhs - sum exps_g gen_g is exactly rhs's leftover, which
        must vanish to the floor, else PrecisionError.  Its absprec A bounds
        every error of the substitution, so coeffs is known to A + gain."""
        res, fs = rhs, []
        for r, col, _ in self.pivots:
            fs.append(_quotient(res, col, r))
            if fs[-1]:
                res = res - col.scale(fs[-1])
        floor = res.min_valuation()
        if floor < self.floor:
            raise PrecisionError(
                f"linear system inconsistent at precision (residual valuation {floor})",
                achieved=floor,
            )
        q = max([1] + [f.denominator for f in fs])
        nums = [int(f * q) for f in fs]
        exps = [Fraction(sum(map(mul, nums, row)), q) for row in self._by_generator]
        return _exact(self.ctx, fs, res.absprec + self.gain), exps

    def coords(self, rhs) -> PackedVector:
        """rhs over the generators, packed as its coefficients are."""
        coeffs, exps = self.solve(rhs)
        return _exact(self.ctx, exps, coeffs.absprec)


def _quotient(a: PackedVector, b: PackedVector, r: int):
    """One fixed exact a_r / b_r: p^(v(a_r) - v(b_r)) times the least
    residue of unit(a_r) / unit(b_r) mod p^k, k the lesser relative
    precision of the entries, which clears row r to the precision of the
    new column.  A Fraction for a negative valuation; 0 for a zero a_r."""
    (da, ea, ai), (db, eb, bi) = a.packed, b.packed
    if not ai[r]:
        return 0
    p = a.ctx.p
    (va, ua), (vb, ub) = split_p(ai[r], p), split_p(bi[r], p)
    m = a.ctx.pk(min(ea - va, eb - vb))
    q, s = ua * pow(ub, -1, m) % m, va - da - vb + db
    return q * p**s if s >= 0 else Fraction(q, p**-s)


def _exact(ctx: PrimeContext, values, absprec) -> PackedVector:
    """Exact rationals with p-power denominators, packed at absprec."""
    q = max([1] + [x.denominator for x in values])
    denom = vp(q, ctx.p)
    return PackedVector(ctx, denom, absprec + denom, [int(x * q) for x in values])


def solve_columns(ctx, cols, floor) -> ColumnReduction:
    """The column reduction of the packed vectors cols, solving to floor."""
    return ColumnReduction(ctx, cols, floor)
