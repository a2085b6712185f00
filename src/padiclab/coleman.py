"""Finite-level Coleman maps in a local-reciprocity functional model.

A cohomology class is modelled by a functional on k_m^x per level:
x -> Tr_{k_m/Q_p}(log_p(x) E_m) + alpha v(x), with trace-compatible
densities E_m and a valuation slope alpha.  Cup products become
functional evaluation; the density at level 0 plays the role of the
dual-exponential value, and admissibility pins alpha so that the
functional kills the Tate period.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from operator import sub

from .core import (
    InvalidInputError,
    PadicScalar,
    PrimeContext,
    PropertyFailure,
    iwasawa_log,
    teichmuller,
)
from .cyclotomic import CycloElement, CycloTower
from .points import H90Solution, PointFamily
from .series import PackedVector


@dataclass(frozen=True)
class TateParameter:
    """q = p^ord * rho * u_q with rho in mu_{p-1} and u_q = 1 mod p."""

    ctx: PrimeContext
    ord: int
    unit: int
    rho: PadicScalar
    u_q: PadicScalar
    log: PadicScalar  # log_p(q) = log_p(u_q)

    @classmethod
    def make(cls, ctx: PrimeContext, ord: int, unit: int) -> "TateParameter":
        if ord < 1:
            raise InvalidInputError("the parameter must have positive valuation")
        if unit % ctx.p == 0:
            raise InvalidInputError("unit part must be prime to p")
        rho = teichmuller(unit, ctx)
        u_q = ctx.scalar(unit) / rho
        return cls(ctx, ord, unit, rho, u_q, iwasawa_log(ctx.scalar(unit)))

    def value(self) -> PadicScalar:
        return self.ctx.scalar(self.unit) * self.ctx.scalar(self.ctx.p) ** self.ord

    def slope(self) -> PadicScalar:
        """log_p(q)/ord_p(q), the quantity the derivative formula outputs."""
        return self.log / self.ord


class UnitFunctional:
    """Trace densities E_0..E_n plus the valuation slope alpha."""

    def __init__(self, tower: CycloTower, densities, alpha: PadicScalar):
        self.tower = tower
        self.densities = list(densities)
        self.n = len(self.densities) - 1
        self.alpha = alpha

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_top_density(cls, tower: CycloTower, top: CycloElement, q: TateParameter):
        """Back-propagate partial traces from the level-n density, then fix
        alpha by the admissibility constraint w_0(q) = 0."""
        n = top.field.n
        densities = [None] * (n + 1)
        densities[n] = top
        for m in range(n - 1, -1, -1):
            densities[m] = tower.trace(densities[m + 1], m)
        e0 = densities[0].scalar_part()
        alpha = -(e0 * q.log) / q.ord
        return cls(tower, densities, alpha)

    @classmethod
    def seeded(cls, tower: CycloTower, n: int, q: TateParameter, seed: int):
        rng = random.Random(seed)
        ctx = tower.ctx
        span = ctx.pk(ctx.prec)
        coords = [rng.randrange(span) for _ in range(ctx.p**n)]
        top = tower.from_pi_coords(n, PackedVector(ctx, 0, ctx.wprec, coords))
        return cls.from_top_density(tower, top, q)

    @classmethod
    def trace_type(cls, tower: CycloTower, n: int, e0, q: TateParameter):
        """The pure trace-compatible family E_m = E_0 / p^m (constants)."""
        ctx = tower.ctx
        e0 = e0 if isinstance(e0, PadicScalar) else ctx.scalar(e0)
        densities = []
        for m in range(n + 1):
            densities.append(
                tower.field(m).from_scalar(e0 * ctx.scalar(Fraction(1, ctx.p**m)))
            )
        alpha = -(e0 * q.log) / q.ord
        return cls(tower, densities, alpha)

    @classmethod
    def zero(cls, tower: CycloTower, n: int):
        ctx = tower.ctx
        return cls(
            tower,
            [tower.field(m).zero() for m in range(n + 1)],
            ctx.zero(),
        )

    # -- views -------------------------------------------------------------------

    def density(self, m: int) -> CycloElement:
        if not 0 <= m <= self.n:
            raise InvalidInputError(f"the functional has no level {m} (top level {self.n})")
        return self.densities[m]

    def e0(self) -> PadicScalar:
        return self.densities[0].scalar_part()

    def check_tower_compatibility(self):
        for m in range(1, self.n + 1):
            resid = (self.tower.trace(self.densities[m], m - 1) - self.densities[m - 1]).min_valuation()
            if resid < self.tower.ctx.identity_floor:
                raise InvalidInputError(
                    f"densities are not trace-compatible at level {m}"
                    f" (valuation {resid})"
                )
        return True


def pair(x: CycloElement, w: UnitFunctional, m: int) -> PadicScalar:
    """w_m(x) = Tr_{k_m/Q_p}(log_p(x) E_m) + alpha v(x), v(p) = 1."""
    tower = w.tower
    ctx = tower.ctx
    v = x.valuation()
    if v is None:
        raise InvalidInputError("pairing against zero")
    logx = tower.log_element(x)
    out = tower.trace_kn_to_qp(logx * w.density(m))
    if v != 0:
        out = out + w.alpha * ctx.scalar(v)
    return out


def _pair_log(log_y: PadicScalar, v: int, w: UnitFunctional) -> PadicScalar:
    """The level-0 pairing E_0 log_p(y) + alpha v(y), read from log_p(y)
    and v(y), so a logarithm the caller keeps is not recomputed."""
    out = w.e0() * log_y
    if v != 0:
        out = out + w.alpha * v
    return out


class GroupRingElement(PackedVector):
    """An element sum_i c_i gamma^i of Z_p[Gamma_n], i < p^n, with
    c_i = ints[i] / p^denom known mod p^(e - denom), held as ``packed`` =
    (denom, e, ints); ``coeffs`` is a view."""

    __slots__ = ("tower", "n")

    def __init__(self, tower: CycloTower, n: int, denom: int, e: int, ints):
        if len(ints) != tower.ctx.p**n:
            raise InvalidInputError(
                f"a level-{n} group-ring element has {tower.ctx.p**n}"
                f" coefficients, not {len(ints)}"
            )
        self.tower = tower
        self.n = n
        super().__init__(tower.ctx, denom, e, ints)

    def _new(self, denom, e, ints):
        return GroupRingElement(self.tower, self.n, denom, e, ints)

    coeffs = PackedVector.coords

    def augmentation(self) -> PadicScalar:
        return self._scalar(sum(self.packed[2]))

    def project(self, m: int) -> "GroupRingElement":
        """Push along Gamma_n -> Gamma_m, 0 <= m <= n."""
        if not 0 <= m <= self.n:
            raise InvalidInputError(f"cannot project level {self.n} to level {m}")
        denom, e, ints = self.packed
        pm = self.ctx.p**m
        return GroupRingElement(self.tower, m, denom, e, [sum(ints[r::pm]) for r in range(pm)])

    def polynomial_derivative_at_zero(self) -> PadicScalar:
        """P'(0) for the canonical polynomial lift: sum_i i c_i."""
        return self._scalar(sum(i * c for i, c in enumerate(self.packed[2])))

    def residual_against(self, other) -> int:
        if other.n != self.n:
            raise InvalidInputError(
                f"cannot compare a level-{self.n} image with a level-{other.n} one"
            )
        return (self - other).min_valuation()


def coleman_level(w: UnitFunctional, fam: PointFamily, n: int) -> GroupRingElement:
    """sum_sigma (d_n^sigma, w) sigma over Gamma_n."""
    tower = w.tower
    pairings = tower.trace_pairings(fam.log_d_conjugates(n), w.density(n))
    return GroupRingElement(tower, n, *pairings.packed)


def verify_trivial_zero(col: GroupRingElement) -> int:
    return col.tower.ctx.require(
        col.augmentation().min_valuation(), "augmentation does not vanish"
    )


def verify_level_compatibility(
    w: UnitFunctional, fam: PointFamily, upper: GroupRingElement
) -> int:
    """Pushing the level-n image ``upper`` of w to Gamma_(n-1) recovers the
    level-(n-1) map, which is the one image built here."""
    n = upper.n
    lower = coleman_level(w, fam, n - 1)
    return w.tower.ctx.require(
        upper.project(n - 1).residual_against(lower),
        f"level compatibility fails at {n} -> {n - 1}",
    )


def verify_convolution(w: UnitFunctional, fam: PointFamily, col: GroupRingElement) -> int:
    """The level-n image col of w equals the convolution of
    sum log(d^sigma) sigma with sum sigma(E_n) sigma^(-1): each
    coefficient of the product in K_n[Gamma_n], one group-ring product,
    collapses to the corresponding trace value."""
    tower = w.tower
    ctx = tower.ctx
    n = col.n
    pn = ctx.p**n
    B = tower.gamma_conjugates(w.density(n))
    f = tower.field(n)
    # sum sigma(E_n) sigma^(-1) has coefficient B[-i] at gamma^i
    conv = f.group_product(fam.log_d_conjugates(n), [B[-i % pn] for i in range(pn)])
    # the coefficient c_i of col is the element c_i zeta^0 of K_n
    denom, e, ints = col.packed
    pad = [0] * (f.degree - 1)
    return ctx.require(
        min((c - CycloElement(f, denom, e, [x, *pad])).min_valuation() for c, x in zip(conv, ints)),
        f"convolution identity fails at level {n}",
    )


# -- characters and Gauss sums ------------------------------------------------------


@dataclass(frozen=True)
class CharacterData:
    """A character of the level-n layer group, trivial on Delta, with
    chi(gamma) = zeta_{p^n}^a: primitive (conductor p^(n+1)) for a prime
    to p, trivial for a = 0; any other a is refused."""

    tower: CycloTower
    n: int
    a: int

    def __post_init__(self):
        if self.a and (self.a % self.tower.ctx.p == 0 or self.n == 0):
            raise InvalidInputError(
                f"chi(gamma) = zeta_(p^{self.n})^{self.a} is neither 1 nor of order p^{self.n}"
            )

    def exponent(self, i: int) -> int:
        """k with chi(gamma^i) = zeta^k, zeta = zeta_{p^(n+1)}."""
        p = self.tower.ctx.p
        return p * (self.a * i % p**self.n)

    def conjugate(self) -> "CharacterData":
        return CharacterData(self.tower, self.n, -self.a)


def gauss_sum(chi: CharacterData) -> CycloElement:
    """tau(chi) = sum over the level group of chi(sigma_b) zeta^b for a
    primitive chi.  sigma_b runs forward over b = delta kappa(gamma)^i, so
    each term is the root of unity zeta^(b + chi.exponent(i)) and the sum
    takes no product in K_n."""
    if chi.a == 0:
        raise InvalidInputError(f"the trivial character has no Gauss sum at level {chi.n}")
    f = chi.tower.field(chi.n)
    ks = [
        delta * g + chi.exponent(i)
        for i, g in enumerate(chi.tower.gamma_orbit_exponents(chi.n))
        for delta in f.delta_exponents()
    ]
    return f.root_weighted_sum([f.one()] * len(ks), ks)


def verify_gauss_product(chi: CharacterData) -> int:
    """tau(chi) tau(chi-bar) = p^(n+1) (chi trivial on Delta has chi(-1)=1)."""
    tower = chi.tower
    ctx = tower.ctx
    t1 = gauss_sum(chi)
    t2 = gauss_sum(chi.conjugate())
    expected = tower.field(chi.n).from_scalar(ctx.pk(chi.n + 1))
    return ctx.require((t1 * t2 - expected).min_valuation(), "Gauss product fails")


def verify_char_sum(fam: PointFamily, chi: CharacterData) -> int:
    """sum_sigma log(d_n^sigma) chi(sigma) = tau(chi), or 0 for trivial chi."""
    tower = fam.tower
    ctx = tower.ctx
    n = chi.n
    conj = fam.log_d_conjugates(n)
    acc = tower.field(n).root_weighted_sum(conj, [chi.exponent(i) for i in range(len(conj))])
    if chi.a == 0:
        resid = acc.min_valuation()
        label = "trivial-character sum"
    else:
        resid = (acc - gauss_sum(chi)).min_valuation()
        label = "Gauss-sum evaluation"
    return ctx.require(resid, f"{label} fails at level {n}")


def primitive_characters(tower: CycloTower, n: int):
    """All characters of exact conductor p^(n+1), trivial on Delta."""
    p = tower.ctx.p
    return [
        CharacterData(tower, n, a)
        for a in range(1, p**n)
        if a % p != 0
    ]


# -- the derivative chain --------------------------------------------------------------


def derivative_value(w: UnitFunctional, sol: H90Solution) -> PadicScalar:
    """The derivative representative D_n = -w_0(N x_n), n = sol.n, read
    off the norm's logarithm and valuation."""
    return -_pair_log(sol.log_norm_x, sol.norm_x.v, w)


def derivative_rep(w: UnitFunctional, sol: H90Solution, col: GroupRingElement):
    """Certifies the Abel summation identity at level n = sol.n,
            col = (gamma^(-1) - 1) sum_sigma (x_n^sigma, w) sigma,
    for the level-n image col = coleman_level(w, fam, n); it holds for
    every functional, admissible or not.  An image from another level is
    refused.  Also reads the derivative representative D_n.

    Returns (D_n, report)."""
    tower = w.tower
    ctx = tower.ctx
    n = sol.n
    # S_i = t_i + alpha v(x_n): alpha v cancels from S_(i+1) - S_i, but
    # each S_i is known only to the absprec of alpha v
    alpha_v = w.alpha * ctx.scalar(sol.valuation_x)
    denom, e, t = tower.trace_pairings(sol.log_x_conjugates, w.density(n)).packed
    rhs = GroupRingElement(tower, n, denom, e, list(map(sub, t[1:] + t[:1], t)))
    rhs = rhs.reduce_absprec(alpha_v.absprec)
    resid = ctx.require(
        col.residual_against(rhs), f"Abel summation identity fails at level {n}"
    )
    d_n = derivative_value(w, sol)
    return d_n, {"level": n, "abel_residual": resid, "derivative": d_n}


def verify_key2(w: UnitFunctional, q: TateParameter) -> int:
    """(p, w)_0 = -(log q / ord q) E_0 exactly (the admissibility constraint
    composed with the decomposition of the Tate period)."""
    ctx = w.tower.ctx
    lhs = _pair_log(w.tower.log_int(ctx.p), 1, w)
    rhs = -(q.slope() * w.e0())
    return ctx.require((lhs - rhs).min_valuation(), "valuation-slope identity fails")


def verify_dcol(w: UnitFunctional, sol: H90Solution, q: TateParameter) -> dict:
    """Certifies the assembled derivative congruence at level n = sol.n,
        D_n = [p/((p-1) log kappa(gamma))] (log q / ord q) E_0
    mod p^(n + v(alpha)), with D_n = -w_0(N x_n) read off the norm.  It
    does not rebuild the Coleman image: the Abel identity that ties the
    image to x_n is derivative_rep's certificate."""
    tower = w.tower
    ctx = tower.ctx
    n = sol.n
    d_n = derivative_value(w, sol)
    log_kappa = tower.log_int(tower.kappa_gamma)
    factor = ctx.scalar(ctx.p) / (log_kappa * (ctx.p - 1))
    rhs = factor * q.slope() * w.e0()
    if w.alpha.is_zero:
        # zero slope: both sides must vanish at precision
        resid = ctx.require(
            min(d_n.min_valuation(), rhs.min_valuation()),
            "degenerate case fails: a side does not vanish",
            ctx.solve_floor,
        )
        return {"level": n, "modulus_exponent": None, "residual_valuation": resid}
    modulus = n + w.alpha.v
    diff = d_n - rhs
    if not diff.congruent_to(0, modulus):
        raise PropertyFailure(
            f"derivative congruence fails at level {n}: valuation "
            f"{diff.min_valuation()}, needed >= {modulus}"
        )
    return {
        "level": n,
        "modulus_exponent": modulus,
        "residual_valuation": diff.min_valuation(),
    }


def negative_control(fam: PointFamily, sol: H90Solution, q: TateParameter) -> dict:
    """The pure trace-type family with E_0 = 1 is admissible levelwise yet
    fails the mod-p^2 comparison between the polynomial lift's derivative
    and D_n; the violation is asserted to occur.

    Levelwise admissibility is therefore strictly weaker than membership
    in the image of the compatible-family map.  The level n is sol.n.
    """
    tower = fam.tower
    ctx = tower.ctx
    n = sol.n
    w = UnitFunctional.trace_type(tower, n, 1, q)
    w.check_tower_compatibility()
    col = coleman_level(w, fam, n)
    ctx.require(
        col.min_valuation(),
        "trace-type image unexpectedly nonzero",
        ctx.solve_floor,
    )
    d_n, rep = derivative_rep(w, sol, col)
    p_prime_zero = col.polynomial_derivative_at_zero()
    diff = p_prime_zero - d_n
    if diff.congruent_to(0, 2):
        raise PropertyFailure(
            "negative control failed to fail: the finite-level lift"
            " derivative matched D_n mod p^2"
        )
    return {
        "level": n,
        "violated": True,
        "difference_valuation": diff.min_valuation(),
        "lift_derivative": p_prime_zero,
        "derivative": d_n,
        "abel_residual": rep["abel_residual"],
    }
