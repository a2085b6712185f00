"""The canonical local points d_n = 1 + c_n, their tower compatibilities,
the generation of the principal units, and the Hilbert-90 decomposition
d_n = (pi_n^{e_n} u_n)^{gamma - 1} with the congruence that pins e_n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .core import (
    InvalidInputError,
    PadicScalar,
    PrecisionError,
    PropertyFailure,
    iwasawa_log,
    padic_exp,
)
from .cyclotomic import CycloElement, CycloTower, solve_columns
from .honda import HondaData
from .series import PackedVector


class PointFamily:
    """c_n and d_n = 1 + c_n for levels 0..n_max, with cached logarithms.

    The raw formal-group value (1 + iota(zeta-1))(1 + iota(epsilon)) is
    only the canonical point up to a p-power root of unity: its Delta
    conjugates differ by torsion with the same logarithm.  The canonical
    point is the unique Delta-fixed representative, realised by the
    multiplicative Delta-symmetrisation: the product of the conjugates
    has the torsion cancel exactly (the Teichmuller lifts sum to zero
    mod p^(n+1)), and the (p-1)-st principal root recovers the point.

    That root is the integer power prod^a, a = (p-1)^(-1) mod p^(wprec+n):
    for x in U^1_n, x^(p^K) = 1 mod p^(K-n), so exponents that agree mod
    p^(wprec+n) give roots that agree mod p^wprec.  A product with a
    denominator (iota not integral) is refused before the power.
    """

    def __init__(self, honda: HondaData, tower: CycloTower, n_max: int):
        self.honda = honda
        self.tower = tower
        self.n_max = n_max
        self.c = []
        self.d = []
        self.raw_d = []
        self._log_d = {}
        self._log_d_conj = {}
        self._lattices = {}
        iota_eps = honda.iota.eval_scalar(honda.epsilon)
        self.one_plus_iota_eps = 1 + iota_eps
        ctx = tower.ctx
        for n in range(n_max + 1):
            f = tower.field(n)
            z = f.zeta() - f.one()
            iz = tower.eval_series(honda.iota, z)
            raw = f.one() + iz + f.from_scalar(iota_eps) + iz.scale(iota_eps)
            self.raw_d.append(raw)
            prod = None
            for a in f.delta_exponents():
                t = raw.galois(a) if a != 1 else raw
                prod = t if prod is None else prod * t
            if prod.packed[0]:
                raise PropertyFailure(f"the Delta-product of d_{n} is not integral")
            d = prod ** pow(ctx.p - 1, -1, ctx.pk(ctx.wprec + n))
            self.d.append(d)
            self.c.append(d - f.one())

    def log_d(self, n: int) -> CycloElement:
        if n not in self._log_d:
            self._log_d[n] = self.tower.log_element(self.d[n])
        return self._log_d[n]

    def log_d_conjugates(self, n: int):
        """log(d_n)^(gamma^i), i = 0..p^n - 1, in gamma_orbit_exponents order."""
        if n not in self._log_d_conj:
            self._log_d_conj[n] = self.tower.gamma_conjugates(self.log_d(n))
        return self._log_d_conj[n]

    def lattice(self, n: int) -> "UnitLogLattice":
        """log U^1_n as a lattice, built once per level."""
        if n not in self._lattices:
            self._lattices[n] = UnitLogLattice(self.tower, n)
        return self._lattices[n]

    def raw_delta_defect(self, n: int) -> CycloElement:
        """delta(raw)/raw for a generator of Delta: a p-power root of unity."""
        f = self.tower.field(n)
        gen = next(a for a in f.delta_exponents() if a != 1)
        return self.raw_d[n].galois(gen) / self.raw_d[n]


def build_points(honda: HondaData, tower: CycloTower, n_max: int) -> PointFamily:
    """d_0 .. d_(n_max), certified by the points suite, not here.  Each d_n
    is Delta-fixed exactly: its Delta-product is one product over a Galois
    orbit, and K_n products and Galois maps are exact mod p^e."""
    return PointFamily(honda, tower, n_max)


def verify_norm_tower(fam: PointFamily) -> dict:
    """N_{k_n/k_(n-1)}(d_n) = d_(n-1), and the trace compatibility of the
    logarithms; returns the residual valuations per level."""
    tower = fam.tower
    ctx = tower.ctx
    report = {"norm_residuals": {}, "trace_residuals": {}}
    for n in range(1, fam.n_max + 1):
        norm = tower.norm(fam.d[n], n - 1)
        report["norm_residuals"][n] = ctx.require(
            (norm - fam.d[n - 1]).min_valuation(),
            f"norm compatibility fails at level {n}",
        )
        tr = tower.trace(fam.log_d(n), n - 1)
        report["trace_residuals"][n] = ctx.require(
            (tr - fam.log_d(n - 1)).min_valuation(),
            f"log trace compatibility fails at level {n}",
        )
    report["d0_residual"] = ctx.require(
        (fam.d[0] - tower.field(0).one()).min_valuation(), "d_0 differs from 1"
    )
    return report


def closed_form_log(tower: CycloTower, n: int) -> CycloElement:
    """p + sum_{k<=n} sum_delta (zeta_{p^(n+1-k)}^delta - 1)/p^k."""
    f = tower.field(n)
    acc = f.from_scalar(tower.ctx.p)
    one = f.one()
    deltas = f.delta_exponents()
    pk = 1
    for k in range(n + 1):
        layer = f.zero()
        for delta in deltas:
            layer = layer + (f.zeta_power(pk * delta) - one)
        acc = acc + layer.scale(Fraction(1, tower.ctx.p**k))
        pk *= tower.ctx.p
    return acc


def verify_log_formula(fam: PointFamily, n: int) -> dict:
    """Field logarithm of d_n against the closed form, plus the split of
    the closed form into the two formal-group summands."""
    tower = fam.tower
    ctx = tower.ctx
    closed = closed_form_log(tower, n)
    resid = ctx.require(
        (fam.log_d(n) - closed).min_valuation(),
        f"closed-form logarithm fails at level {n}",
    )
    # the epsilon summand evaluates to p, the zeta summand to the k-sum
    f = tower.field(n)
    z = f.zeta() - f.one()
    ell_at_z = tower.eval_series(fam.honda.ell, z)
    ksum = closed - f.from_scalar(ctx.p)
    split_resid = ctx.require(
        (ell_at_z - ksum).min_valuation(), "ell(zeta - 1) differs from its closed form"
    )
    return {"level": n, "log_residual": resid, "summand_residual": split_resid}


def verify_two_routes(fam: PointFamily) -> dict:
    """1 + iota(epsilon) must agree with exp(p): the two descriptions of
    the epsilon-part of d_n."""
    ctx = fam.tower.ctx
    via_exp = padic_exp(ctx.scalar(ctx.p))
    resid = ctx.require(
        (fam.one_plus_iota_eps - via_exp).min_valuation(),
        "iota(epsilon) + 1 differs from exp(p)",
    )
    return {"exp_route_residual": resid}


# -- the unit logarithm lattice ------------------------------------------------------


class UnitLogLattice:
    """log U^1_n as an explicit Z_p-lattice in pi-power coordinates.

    Generators: the units 1 + pi^i for 1 <= i < j0 + p^n, with
    j0 = floor(p^n/(p-1)) + 1.  Below j0 they generate the graded pieces
    of the unit filtration; from j0 on, log(1 + pi^i) = pi^i mod m^(i+1),
    so their logs form a unipotent-triangular basis of m^(j0) = log U^(j0).
    The logs' pi coordinates are reduced once (``solve_columns`` at
    solve_floor): every row must pivot, and the redundant generators must
    reduce to zero.

    Precision: with exact multipliers a pivot loses digits only at the
    pivot divisions, a vector's coordinates are known to its leftover's
    absprec plus the reduction's ``gain``, and its exponents are exact.
    """

    def __init__(self, tower: CycloTower, n: int):
        self.tower = tower
        self.n = n
        ctx = tower.ctx
        self.dim = ctx.p**n
        self.j0 = self.dim // (ctx.p - 1) + 1
        one = tower.field(n).one()
        self.generators = list(range(1, self.j0 + self.dim))  # i of the unit 1 + pi^i
        self._pi_powers = tower.pi_powers(n, self.j0 + self.dim)
        logs = [tower.log_element(one + self._pi_powers[i]) for i in self.generators]
        vectors = [tower.to_pi_coords(x) for x in logs]
        self._reduction = solve_columns(ctx, vectors, ctx.solve_floor)
        rows = {r for r, _, _ in self._reduction.pivots}
        for r in range(self.dim):
            if r not in rows:
                raise PropertyFailure(f"unit lattice is rank-deficient at row {r}")
        for col in self._reduction.leftover:
            floor = col.min_valuation()
            if floor < ctx.solve_floor:
                raise PrecisionError(
                    f"redundant lattice generator fails to reduce (valuation {floor})",
                    achieved=floor,
                )

    def coords(self, y: PackedVector) -> PackedVector:
        """y's coordinates over the reduced basis; its leftover must reach solve_floor."""
        return self._reduction.solve(y)[0]

    def membership(self, y: PackedVector):
        """(coordinates over the reduced basis, exact exponents over the
        generators) of y when its coordinates are integral, else None."""
        coeffs, exps = self._reduction.solve(y)
        return (coeffs, exps) if coeffs.min_valuation() >= 0 else None

    def unit_from_exponents(self, exps):
        """Reconstruct the principal unit prod (1 + pi^i)^(e_i) from exact
        integer exponents e_i.

        Exponents are truncated modulo p^wprec; the discarded part moves
        the unit by a p^(wprec - n - 1)-th power of a principal unit,
        which is below every claimed precision.  The product is one
        ``CycloField.power_product``, Straus's multi-exponentiation, so the
        about wprec log2(p) squarings are shared by every generator.

        Precision: the exponents are exact, and the generators integral,
        so every product is known to the least absprec of its factors: the
        unit is cut to the least absprec of wprec and of the generators
        with a nonzero exponent.  How near its log is to the vector solved
        for is bounded by the solve's leftover.
        """
        tower = self.tower
        ctx = tower.ctx
        f = tower.field(self.n)
        cap = ctx.pk(ctx.wprec)
        terms = []
        for i, e in zip(self.generators, exps):
            if not e:
                continue
            if e.denominator != 1:
                raise InvalidInputError("unit reconstruction needs integral exponents")
            terms.append((f.one() + self._pi_powers[i], e.numerator % cap))
        return f.power_product(terms, min([ctx.wprec] + [g.absprec for g, _ in terms]))


def verify_generation(fam: PointFamily, n: int) -> dict:
    """The Z_p[Gamma_n]-span of d_n together with u = 1 + p must be all of
    U^1_n.  Their log-lattice coordinates are reduced by unimodular column
    operations to a triangular basis, so the rank is the number of pivots
    and, at full rank, the index is p^(sum of the pivot valuations); at
    index p^0 every elementary divisor (``divisors``) has valuation 0."""
    tower = fam.tower
    ctx = tower.ctx
    lattice = fam.lattice(n)
    vectors = [tower.to_pi_coords(conj) for conj in fam.log_d_conjugates(n)]
    log_u = tower.log_int(1 + ctx.p)
    vectors.append(PackedVector(ctx, 0, log_u.absprec, [log_u.lift()] + [0] * (lattice.dim - 1)))
    coords = [lattice.coords(v) for v in vectors]
    worst = min(c.min_valuation() for c in coords)
    ctx.require(worst, "span of the points leaves the unit lattice", 0)
    pivots = solve_columns(ctx, coords, ctx.solve_floor).pivots
    divisors = sorted(col.valuations()[r] for r, col, _ in pivots)
    rank = len(divisors)
    if rank != lattice.dim:
        raise PropertyFailure(
            f"span has rank {rank}, expected {lattice.dim}"
        )
    index_val = sum(divisors)
    if index_val != 0:
        raise PropertyFailure(
            f"span has index p^{index_val} in the unit lattice"
        )
    return {
        "level": n,
        "rank": rank,
        "index_valuation": index_val,
        "divisors": divisors,
    }


# -- Hilbert 90 -----------------------------------------------------------------------


@dataclass
class H90Solution:
    """x_n = pi_n^e u_n with its certificates.  The Gamma_n conjugates of
    log x_n, v(x_n) and N(x_n) are computed on first use and kept."""

    tower: CycloTower = field(repr=False)
    n: int
    e: int
    u_n: CycloElement
    x_n: CycloElement
    residual_valuation: int
    norm_residual: int
    searched: tuple = field(default=())

    @cached_property
    def log_x_conjugates(self):
        """log(x_n)^(gamma^i), i = 0..p^n - 1, in gamma_orbit_exponents order."""
        return self.tower.gamma_conjugates(self.tower.log_element(self.x_n))

    @cached_property
    def valuation_x(self) -> Fraction:
        return self.x_n.valuation()

    @cached_property
    def norm_x(self) -> PadicScalar:
        """N_{k_n/Q_p}(x_n) as N(u_n) N(pi_n)^e, a unit times a power of a
        value of valuation 1: it keeps its relative precision at any e, where
        N(x_n) is zero at its precision once e reaches the absprec of x_n."""
        norm = self.tower.norm_kn_to_qp
        return norm(self.u_n) * norm(self.tower.uniformizer(self.n)) ** self.e

    @cached_property
    def log_norm_x(self) -> PadicScalar:
        """log_p N(x_n), Iwasawa branch."""
        return iwasawa_log(self.norm_x)


def solve_h90(fam: PointFamily, n: int) -> H90Solution:
    """Find e in {0..p^n-1} and a norm-one principal unit u_n with
    d_n = (pi_n^e u_n)^(gamma-1).

    The trace-zero solution y(e) of (gamma - 1) y = log d_n +
    e log pi^(1-gamma) is linear in e, and so are its lattice coordinates:
    two solves give c(e) = c_0 + e (c_1 - c_0).  The class test is here:
    e in range(p^n) qualifies when c(e) is integral (p^n packed vector
    operations), and the one that does is rebuilt from y_0 + e (y_1 - y_0)
    by the lattice membership.  e is never taken from the congruence it
    later certifies; tests/test_points.py keeps the solve-per-class search
    as an oracle.  At n = 0, k_0 = Q_p and x_0 = u_0 = 1, certified like
    every other level.
    """
    tower = fam.tower
    ctx = tower.ctx
    if n == 0:
        one = tower.field(0).one()
        return _certified(fam, 0, 0, one, one, ())
    lattice = fam.lattice(n)
    pi = tower.uniformizer(n)
    ratio = pi / tower.gamma_apply(pi)  # pi^(1 - gamma)
    if ratio.residue() != 1:
        raise PropertyFailure("pi^(1-gamma) is not a principal unit")
    log_ratio = tower.log_element(ratio)
    pn = ctx.p**n
    y0 = tower.gamma_solve(fam.log_d(n))
    y1 = tower.gamma_solve(fam.log_d(n) + log_ratio)
    c0, c1 = (lattice.coords(tower.to_pi_coords(y)) for y in (y0, y1))
    dc = c1 - c0
    hits = [e for e in range(pn) if (c0 + dc.scale(e)).min_valuation() >= 0]
    if not hits:
        raise PropertyFailure(
            "no residue class admits a norm-one Hilbert-90 solution"
        )
    if len(hits) > 1:
        raise PrecisionError(
            f"multiple candidate classes {hits}; raise the working precision",
            achieved=ctx.prec,
        )
    e = hits[0]
    y = y0 + (y1 - y0).scale(e)
    member = lattice.membership(tower.to_pi_coords(y))
    if member is None:
        raise PrecisionError(f"class {e} fails the lattice membership", achieved=ctx.prec)
    _, exps = member
    u_n = lattice.unit_from_exponents(exps)
    log_match = (tower.log_element(u_n) - y).min_valuation()
    if log_match < ctx.solve_floor:
        raise PrecisionError(
            f"reconstructed unit log matches only to valuation {log_match}",
            achieved=log_match,
        )
    return _certified(fam, n, e, u_n, pi**e * u_n, tuple(range(pn)))


def _certified(fam: PointFamily, n: int, e: int, u_n, x_n, searched) -> H90Solution:
    """The solution x_n = pi_n^e u_n with both certificates measured."""
    tower = fam.tower
    ctx = tower.ctx
    # division-free form of x^gamma / x = d: gamma(x) - x d must vanish
    cert = ctx.require(
        (tower.gamma_apply(x_n) - x_n * fam.d[n]).min_valuation(),
        "x_n^gamma / x_n differs from d_n",
        ctx.solve_floor,
    )
    norm_res = ctx.require(
        (tower.norm_kn_to_qp(u_n) - 1).min_valuation(), "N(u_n) differs from 1", ctx.solve_floor
    )
    return H90Solution(tower, n, e, u_n, x_n, cert, norm_res, searched)


def verify_prop2(sol: H90Solution, tower: CycloTower) -> dict:
    """p = e_n (p-1) log kappa(gamma) mod p^(n+1), with e_n from the solve."""
    ctx = tower.ctx
    n = sol.n
    log_kappa = tower.log_int(tower.kappa_gamma)
    lhs = ctx.scalar(ctx.p)
    rhs = log_kappa * (ctx.p - 1) * sol.e
    diff = lhs - rhs
    modulus = n + 1
    if not diff.congruent_to(0, modulus):
        raise PropertyFailure(
            f"congruence fails at level {n}: difference has valuation "
            f"{diff.min_valuation()}, needed >= {modulus}"
        )
    # normalised form e_n = p / ((p-1) log kappa) mod p^n
    target_e = ctx.scalar(ctx.p) / (log_kappa * (ctx.p - 1))
    norm_diff = target_e - sol.e
    if n > 0 and not norm_diff.congruent_to(0, n):
        raise PropertyFailure("normalised e_n congruence fails")
    return {
        "level": n,
        "residual_valuation": diff.min_valuation(),
        "modulus_exponent": modulus,
        "e_class": sol.e,
        "normalised_e": target_e.lift() % ctx.p ** max(n, 1),
    }
