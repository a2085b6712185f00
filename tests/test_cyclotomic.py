import random
from fractions import Fraction
from functools import reduce
from operator import add

import pytest

from padiclab import (
    ConvergenceError,
    CycloTower,
    HondaData,
    InvalidInputError,
    PrecisionError,
    PrimeContext,
    build_points,
)
from padiclab import cyclotomic
from padiclab.core import _log_floor, factorial_valuation, vp
from padiclab.honda import default_truncation
from padiclab.points import UnitLogLattice
from padiclab.series import PackedVector, TruncatedSeries, log_one_plus_x
from conftest import from_coords, from_rationals


def test_galois_identity_and_defining_action(tower3):
    f = tower3.field(1)
    z = f.zeta()
    assert (z.galois(1) - z).min_valuation() >= tower3.ctx.prec
    assert (z.galois(4) - f.zeta_power(4)).min_valuation() >= tower3.ctx.prec


def test_galois_respects_multiplication_and_fixes_qp(tower3):
    f = tower3.field(1)
    x = f.zeta_power(2) + f.one().scale(3)
    y = f.zeta_power(5) - f.zeta_power(1)
    lhs = (x * y).galois(7)
    rhs = x.galois(7) * y.galois(7)
    assert (lhs - rhs).min_valuation() >= tower3.ctx.prec
    c = f.from_scalar(tower3.ctx.scalar(11))
    assert (c.galois(7) - c).min_valuation() >= tower3.ctx.prec


def test_delta_sum_of_zeta3(tower3):
    # sum of the primitive cube roots of unity is -1
    f = tower3.field(0)
    s = f.zeta_power(1) + f.zeta_power(2)
    assert (s + f.one()).min_valuation() >= tower3.ctx.prec


def test_trace_of_zeta_p_is_minus_one(tower3):
    # oracle: explicit sum over the two conjugates
    f = tower3.field(0)
    z = f.zeta()
    explicit = z + z.galois(2)
    assert (f.from_scalar(z.trace_to_qp()) - explicit).min_valuation() >= 10
    assert (z.trace_to_qp() + 1).is_zero


def test_norm_of_one_minus_zeta(tower3):
    # product of conjugates is Phi_p(1) = p
    f = tower3.field(0)
    x = f.one() - f.zeta()
    full = x * x.galois(2)
    assert (full.coords[0] - 3).is_zero
    assert full.coords[1].min_valuation() >= tower3.ctx.prec


def test_trace_of_one_is_degree(tower3):
    f = tower3.field(1)
    assert (f.one().trace_to_qp() - f.degree).is_zero


def test_uniformizer_level_zero_is_p(tower3):
    pi0 = tower3.uniformizer(0)
    assert (pi0 - tower3.field(0).from_scalar(3)).min_valuation() >= tower3.ctx.prec


def test_uniformizer_valuation_and_norm(tower3):
    pi1 = tower3.uniformizer(1)
    assert pi1.valuation() == Fraction(1, 3)
    nrm = tower3.norm_kn_to_qp(pi1)
    assert (nrm - 3).is_zero
    assert tower3.is_delta_fixed(pi1)


def test_log_of_uniformizers_follows_the_branch(tower3):
    # log(pi_0) = log(p) = 0, and Tr(log pi_1) = log N(pi_1) = log p = 0
    assert tower3.log_element(tower3.uniformizer(0)).min_valuation() >= 10
    lg = tower3.log_element(tower3.uniformizer(1))
    assert tower3.trace_kn_to_qp(lg).min_valuation() >= 10


def test_field_log_kills_roots_of_unity(tower3):
    f = tower3.field(1)
    lg = tower3.log_element(f.zeta_power(5))
    assert lg.min_valuation() >= tower3.ctx.prec - 2
    assert tower3.log_element(f.from_scalar(3)).min_valuation() >= tower3.ctx.prec - 2


def _exp_element(x):
    """Test-only: exp on the region v(x) > 1/(p-1).

    exp is 1-Lipschitz there, so the series is run on an exact lift of
    the coordinates with factorial headroom and the result is truncated
    back to the input precision.
    """
    ctx = x.ctx
    v = x.valuation()
    if v is None:
        return x.field.one()
    margin = v - Fraction(1, ctx.p - 1)
    if margin <= 0:
        raise InvalidInputError(f"exp needs v(x) > 1/(p-1); got v = {v}")
    honest = min(c.absprec for c in x.coords)
    bound = int(Fraction(honest + 8) / margin) + 8
    elevated = honest + factorial_valuation(bound + 16, ctx.p) + 16
    lifted = from_coords(
        x.field,
        tuple(ctx.scalar(c.lift(), elevated) for c in x.coords)
    )
    target = honest + 4
    acc = lifted.field.one(elevated)
    term = lifted.field.one(elevated)
    k = 1
    while True:
        term = (term * lifted).scale(Fraction(1, k))
        if term.min_valuation() >= target:
            break
        acc = acc + term
        k += 1
        if k > bound + 16:
            raise ConvergenceError("element exp failed to converge")
    return acc.reduce_absprec(honest - 1)


def _delta_project(x):
    """Test-only: the average of the Delta conjugates of x."""
    conjugates = [x.galois(a) for a in x.field.delta_exponents()]
    acc = conjugates[0]
    for t in conjugates[1:]:
        acc = acc + t
    return acc.scale(Fraction(1, x.ctx.p - 1))


def test_field_exp_log_roundtrip(tower3):
    f = tower3.field(1)
    pi = tower3.uniformizer(1)
    x = f.one() + pi * pi  # 1 + m^2, inside the convergence disc
    back = _exp_element(tower3.log_element(x))
    assert (back - x).min_valuation() >= tower3.ctx.prec - 2


def test_exp_outside_disc_rejected(tower3):
    pi = tower3.uniformizer(1)
    with pytest.raises(InvalidInputError):
        _exp_element(pi)  # v = 1/3 < 1/2


def test_log_norm_trace_compatibility(tower3):
    # log(N x) = Tr(log x) on units
    f = tower3.field(1)
    x = f.one() + tower3.uniformizer(1).scale(3)
    from padiclab import iwasawa_log

    lhs = iwasawa_log(tower3.norm_kn_to_qp(x))
    rhs = tower3.trace_kn_to_qp(tower3.log_element(x))
    assert (lhs - rhs).min_valuation() >= tower3.ctx.prec - 2


def test_log_is_galois_equivariant(tower3):
    f = tower3.field(1)
    x = f.one() + tower3.uniformizer(1)
    lg = tower3.log_element(x)
    a = tower3.gamma_exponent(1)
    assert (
        tower3.log_element(x.galois(a)) - lg.galois(a)
    ).min_valuation() >= tower3.ctx.prec - 2


def test_eval_series_identity_and_affine(tower3):
    f = tower3.field(1)
    z = f.zeta() - f.one()
    x_series = TruncatedSeries.x(tower3.ctx, 120)
    assert (tower3.eval_series(x_series, z) - z).min_valuation() >= 10
    one_plus = from_rationals(tower3.ctx, [1, 1] + [0] * 119)
    assert (
        tower3.eval_series(one_plus, z) - (f.one() + z)
    ).min_valuation() >= 10


def test_eval_series_truncation_guard(tower3):
    f = tower3.field(1)
    z = f.zeta() - f.one()
    short = log_one_plus_x(tower3.ctx, 10)
    with pytest.raises(PrecisionError):
        tower3.eval_series(short, z)


def test_trace_tower_transitivity(ctx3n2, tower3n2):
    f = tower3n2.field(2)
    x = f.zeta_power(5) + f.zeta_power(2).scale(4)
    via = tower3n2.trace(tower3n2.trace(x, 1), 0)
    direct = tower3n2.trace(x, 0)
    assert (via - direct).min_valuation() >= ctx3n2.prec - 2


def _relative_maps(tower, x, m):
    """Test-only oracle: Tr and N from K_n to K_m over the exponents
    a = 1 mod p^(m+1) of Gal(K_n/K_m), in increasing order."""
    mo = x.field.modulus_order
    step = tower.ctx.p ** (m + 1)
    conj = [x.galois(a) for a in range(1, mo, step)]
    tr, nm = conj[0], conj[0]
    for c in conj[1:]:
        tr, nm = tr + c, nm * c
    return tower.restrict(tr, m), tower.restrict(nm, m)


@pytest.mark.parametrize("p, n, kappa", [(3, 1, None), (3, 2, None), (3, 2, 13), (5, 1, 11)])
def test_trace_and_norm_match_relative_exponent_oracle(p, n, kappa):
    tower = CycloTower(PrimeContext(p, 12), n, kappa)
    rng = random.Random(300 * p + n)
    f = tower.field(n)
    for _ in range(2):
        x = from_coords(f, [tower.ctx.scalar(rng.randrange(p**12)) for _ in range(f.degree)])
        for m in range(n + 1):
            tr, nm = _relative_maps(tower, x, m)
            assert _triples(tower.trace(x, m)) == _triples(tr)
            assert _triples(tower.norm(x, m)) == _triples(nm)
    x = _seeded_kn(tower, n, rng)
    c = tower.norm_kn_to_qp(x)
    assert (c.v, c.unit, c.absprec) == _triples(_relative_maps(tower, x, 0)[1])[0]


def test_delta_projection_idempotent(tower3):
    f = tower3.field(1)
    x = f.zeta_power(2) + f.zeta_power(7).scale(5)
    once = _delta_project(x)
    twice = _delta_project(once)
    assert (once - twice).min_valuation() >= tower3.ctx.prec - 2
    assert tower3.is_delta_fixed(once)


def test_gamma_solve_from_constructed_target(tower3):
    # oracle: pick y, feed v = gamma(y) - y, recover up to constants
    f = tower3.field(1)
    pi = tower3.pi_basis(1)
    y = pi[1].scale(7) + pi[2].scale(2)
    v = tower3.gamma_apply(y) - y
    sol = tower3.gamma_solve(v)
    resid = (tower3.gamma_apply(sol) - sol - v).min_valuation()
    assert resid >= tower3.ctx.prec - 2
    diff = sol - y  # must be a constant
    assert min(tower3.to_pi_coords(diff).valuations()[1:]) >= 10


def test_gamma_solve_requires_trace_zero(tower3):
    with pytest.raises(InvalidInputError):
        tower3.gamma_solve(tower3.field(1).one())


def _seeded_kn(tower, n, rng):
    """A seeded element of O_{k_n}: the Delta-trace of random integer
    coordinates in K_n, built without the pi-basis."""
    span = tower.ctx.p**tower.ctx.prec
    return _kn_from_ints(tower, n, [rng.randrange(span) for _ in range(tower.field(n).degree)])


def _kn_from_ints(tower, n, ints):
    """The Delta-trace of the integer coordinates ints in K_n."""
    ctx = tower.ctx
    f = tower.field(n)
    z = from_coords(f, [ctx.scalar(c) for c in ints])
    acc = f.zero()
    for a in f.delta_exponents():
        acc = acc + (z.galois(a) if a != 1 else z)
    return acc


@pytest.mark.parametrize("p, n", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_pi_coords_and_gamma_solve_leave_no_residual(p, n):
    tower = CycloTower(PrimeContext(p, 12), n)
    ctx = tower.ctx
    rng = random.Random(100 * p + n)
    for _ in range(3):
        x = _seeded_kn(tower, n, rng)
        coords = tower.to_pi_coords(x)
        assert (tower.from_pi_coords(n, coords) - x).min_valuation() >= ctx.identity_floor
        w = _seeded_kn(tower, n, rng)
        v = w - tower.field(n).from_scalar(tower.trace_kn_to_qp(w) / p**n)
        y = tower.gamma_solve(v)
        assert (tower.gamma_apply(y) - y - v).min_valuation() >= ctx.identity_floor


def column_gamma_solve(tower, v):
    """(gamma - 1) y = v by column reduction: y = sum_i c_i pi^i, with the
    c_i read off the reduced columns (gamma - 1) pi^i, whose zero column
    i = 0 never pivots, so c_0 = 0.  The oracle for the closed form."""
    n = v.field.n
    cols = [tower.gamma_apply(b) - b for b in tower.pi_basis(n)]
    reduction = cyclotomic.solve_columns(tower.ctx, cols, tower.ctx.identity_floor)
    return tower.from_pi_coords(n, reduction.coords(v))


def _trace_zero_kn(tower, n, ints):
    """x - Tr_{k_n/Q_p}(x)/p^n for x = ``_kn_from_ints``: the same exact
    element at any precision."""
    x = _kn_from_ints(tower, n, ints)
    return x - tower.field(n).from_scalar(tower.trace_kn_to_qp(x) / tower.ctx.p**n)


def _agreement(a, b):
    """The least valuation of a - b for elements of two towers over the
    same p, their packed ints read as exact rationals."""
    p = a.ctx.p
    (da, _, ai), (db, _, bi) = a.packed, b.packed
    d = max(da, db)
    diffs = [x * p ** (d - da) - y * p ** (d - db) for x, y in zip(ai, bi)]
    return min((vp(c, p) - d for c in diffs if c), default=None)


@pytest.mark.parametrize("p, n", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_closed_form_gamma_solve_against_the_column_reduction(p, n):
    N, K = 12, 8
    tower, wide = (CycloTower(PrimeContext(p, prec), n) for prec in (N, N + K))
    ctx = tower.ctx
    rng = random.Random(200 * p + n)
    for _ in range(3):
        ints = [rng.randrange(p**N) for _ in range(tower.field(n).degree)]
        v = _trace_zero_kn(tower, n, ints)
        y = tower.gamma_solve(v)
        # the two solutions differ by a Q_p constant only
        diff = tower.to_pi_coords(y - column_gamma_solve(tower, v))
        assert min(diff.valuations()[1:]) >= ctx.identity_floor
        assert y.absprec == v.absprec - n
        # the weights sum to 0, so Tr(y) vanishes at y's precision even when
        # Tr(v) only reaches identity_floor
        for w in (v, v + tower.field(n).from_scalar(ctx.p**ctx.identity_floor)):
            y_w = tower.gamma_solve(w)
            assert tower.trace_kn_to_qp(y_w).min_valuation() >= y_w.absprec
        # the same exact v, solved at N + K, agrees to y's claimed absprec
        agree = _agreement(y, wide.gamma_solve(_trace_zero_kn(wide, n, ints)))
        assert agree is None or agree >= y.absprec


def test_pi_coords_refuse_an_element_outside_kn(tower3):
    with pytest.raises(PrecisionError, match="residual valuation"):
        tower3.to_pi_coords(tower3.field(1).zeta())


def smith_valuations(ctx, rows):
    """Elementary-divisor valuations of a matrix over Z_p, by full
    valuation pivoting: the oracle for the column reduction's index."""
    mat = [list(r) for r in rows]
    nr, nc = len(mat), len(mat[0])
    divisors = []
    used_r, used_c = set(), set()
    while True:
        best = None
        for i in range(nr):
            for j in range(nc):
                e = mat[i][j]
                if i in used_r or j in used_c or e.is_zero:
                    continue
                if best is None or e.v < best[2]:
                    best = (i, j, e.v)
        if best is None:
            return sorted(divisors)
        i0, j0, v0 = best
        for i in range(nr):
            if i != i0 and not mat[i][j0].is_zero:
                fac = mat[i][j0] / mat[i0][j0]
                mat[i] = [mat[i][j] - fac * mat[i0][j] for j in range(nc)]
        used_r.add(i0)
        used_c.add(j0)
        divisors.append(v0)


def _seeded_columns(ctx, seed):
    """Integer columns at wprec with entries of valuation 0 to 2; at odd
    seeds one more column, the sum of the first two."""
    rng = random.Random(seed)
    nrows = rng.randint(2, 5)
    ncols = nrows + rng.randint(0, 2)
    entries = [
        [rng.randrange(1, 81) * 3 ** rng.choice([0, 0, 1, 2]) for _ in range(nrows)]
        for _ in range(ncols)
    ]
    cols = [PackedVector(ctx, 0, ctx.wprec, ints) for ints in entries]
    if seed % 2:  # a dependent column
        cols.append(cols[0] + cols[1])
    return cols


def _pivot_valuations(reduction):
    return [col.valuations()[r] for r, col, _ in reduction.pivots]


@pytest.mark.parametrize("seed", range(8))
def test_column_reduction_pivots_give_rank_and_index(seed):
    # the pivots' valuations need not be the elementary divisors, but
    # their count is the rank and, at full row rank, their sum is the
    # index, as Smith's are
    ctx = PrimeContext(3, 12)
    cols = _seeded_columns(ctx, seed)
    pivots = _pivot_valuations(cyclotomic.solve_columns(ctx, cols, ctx.solve_floor))
    smith = smith_valuations(ctx, [c.coords for c in cols])
    assert len(pivots) == len(smith) == len(cols[0].packed[2])
    assert sum(pivots) == sum(smith)


def test_column_reduction_differs_from_smith_termwise():
    # rows (p, 0, 0), (0, p, 0), (1, 1, p): pivots p, p, p; Smith 1, p, p^2
    ctx = PrimeContext(3, 12)
    rows = [[3, 0, 0], [0, 3, 0], [1, 1, 3]]
    cols = [PackedVector(ctx, 0, ctx.wprec, [rows[i][j] for i in range(3)]) for j in range(3)]
    reduction = cyclotomic.solve_columns(ctx, cols, ctx.solve_floor)
    assert _pivot_valuations(reduction) == [1, 1, 1]
    assert smith_valuations(ctx, [c.coords for c in cols]) == [0, 1, 2]


class ScalarColumnReduction:
    """Test-only oracle: the column reduction on PadicScalar columns, each
    entry at its own absprec, every multiplier the PadicScalar quotient of
    the row's entries; solve returns (coeffs, exps) as PadicScalars."""

    def __init__(self, ctx, cols, floor):
        self.ctx = ctx
        self.floor = floor
        self.ngen = ngen = len(cols)
        work = []
        for g, col in enumerate(cols):
            expr = [ctx.zero()] * ngen
            expr[g] = ctx.one()
            work.append((list(col), expr))
        self.pivots = []
        remaining = list(range(ngen))
        for r in range(len(cols[0]) if cols else 0):
            if not remaining:
                break
            best, bestval = None, None
            for idx in remaining:
                entry = work[idx][0][r]
                if not entry.is_zero and (bestval is None or entry.v < bestval):
                    best, bestval = idx, entry.v
            if best is None:
                continue
            remaining.remove(best)
            pv, pe = work[best]
            for idx in remaining:
                cv, ce = work[idx]
                fac = cv[r] / pv[r]
                if not fac.is_zero:
                    work[idx] = (
                        [a - fac * b for a, b in zip(cv, pv)],
                        [a - fac * b for a, b in zip(ce, pe)],
                    )
            self.pivots.append((r, pv, pe))
        self.leftover = [work[idx][0] for idx in remaining]

    def solve(self, rhs):
        res = list(rhs)
        coeffs = []
        for r, col, _ in self.pivots:
            c = res[r] / col[r]
            coeffs.append(c)
            res = [a - c * b for a, b in zip(res, col)]
        floor = min(s.min_valuation() for s in res)
        if floor < self.floor:
            raise PrecisionError(f"residual valuation {floor}", achieved=floor)
        exps = [self.ctx.zero()] * self.ngen
        for c, (_, _, expr) in zip(coeffs, self.pivots):
            exps = [x + c * e for x, e in zip(exps, expr)]
        return coeffs, exps


def _lattice_columns(p, n):
    """The pi coordinates of the unit lattice's generators log(1 + pi^i)
    at (p, n), N = 12."""
    tower = CycloTower(PrimeContext(p, 12), n)
    lattice = UnitLogLattice(tower, n)
    one = lattice._pi_powers[0]
    logs = [tower.log_element(one + lattice._pi_powers[i]) for i in lattice.generators]
    return tower.ctx, [tower.to_pi_coords(x) for x in logs]


@pytest.mark.parametrize(
    "case",
    [("seeded", seed) for seed in range(8)]
    + [("lattice", pn) for pn in [(3, 1), (3, 2), (5, 1), (7, 1)]],
)
def test_column_reduction_matches_scalar_oracle(case):
    # the same pivot rows in the same order, so the same rank, and the same
    # pivot valuations (the divisors); a seeded combination of the
    # generators is solved to the floor with exact exponents, and its
    # coefficients over the pivots agree with the oracle's to the lesser
    # precision
    kind, arg = case
    if kind == "seeded":
        ctx = PrimeContext(3, 12)
        cols = _seeded_columns(ctx, arg)
    else:
        ctx, cols = _lattice_columns(*arg)
    floor = ctx.solve_floor
    reduction = cyclotomic.solve_columns(ctx, cols, floor)
    oracle = ScalarColumnReduction(ctx, [c.coords for c in cols], floor)
    assert [r for r, _, _ in reduction.pivots] == [r for r, _, _ in oracle.pivots]
    assert _pivot_valuations(reduction) == [col[r].v for r, col, _ in oracle.pivots]
    rng = random.Random(repr(case))
    rhs = reduce(add, (c.scale(rng.randrange(ctx.p**6)) for c in cols))
    coeffs, exps = reduction.solve(rhs)
    assert all(isinstance(x, (int, Fraction)) for x in exps)
    rebuilt = reduce(add, (c.scale(x) for c, x in zip(cols, exps)))
    assert (rhs - rebuilt).min_valuation() >= floor
    expected, _ = oracle.solve(rhs.coords)
    for c, o in zip(coeffs.coords, expected):
        assert (c - o).is_zero


@pytest.mark.parametrize("seed", range(8))
def test_column_reduction_coefficients_hold_to_their_absprec(seed):
    # exact integer columns and a combination of them cut to absprec a:
    # the coefficients claimed at a + gain agree with those of the uncut
    # combination (claimed at a, seeds 3 and 6 would overclaim)
    ctx = PrimeContext(3, 12)
    cols = _seeded_columns(ctx, seed)
    reduction = cyclotomic.solve_columns(ctx, cols, ctx.solve_floor)
    rng = random.Random(seed)
    rhs = reduce(add, (c.scale(rng.randrange(ctx.p**6)) for c in cols))
    exact, _ = reduction.solve(rhs)
    for a in (9, 12, 15):
        cut, _ = reduction.solve(rhs.reduce_absprec(a))
        assert cut.absprec == a + reduction.gain
        assert (cut - exact).min_valuation() >= cut.absprec


@pytest.fixture(scope="module")
def tower7():
    return CycloTower(PrimeContext(7, 12), 1)


@pytest.mark.parametrize("seed", [1, 3, 8, 9, 22, 41])
def test_inverse_returns_only_a_true_inverse(tower7, seed):
    # x = y/7 (zeta - 1)^k at d = 42: a norm of valuation 42 v(x) underflows
    # the working precision, the peel and one integer power do not
    ctx = tower7.ctx
    f = tower7.field(1)
    rng = random.Random(seed)
    y = from_coords(f, [ctx.scalar(rng.randrange(7**12)) for _ in range(f.degree)])
    k = rng.randrange(f.degree)
    x = y.scale(Fraction(1, 7)) * (f.zeta() - f.one()) ** k
    inv = x.inverse()
    assert (x * inv - 1).min_valuation() >= ctx.identity_floor


@pytest.mark.parametrize("p, n", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_peel_splits_off_a_unit(p, n):
    ctx = PrimeContext(p, 12)
    f = CycloTower(ctx, n).field(n)
    z1 = f.zeta() - f.one()
    rng = random.Random(500 * p + n)
    for _ in range(4):
        y = from_coords(f, [ctx.scalar(rng.randrange(p**12)) for _ in range(f.degree)])
        x = y.scale(Fraction(1, p**2)) * z1 ** rng.randrange(2 * f.degree)
        u, s, m = x.peel()
        assert u.valuation() == 0 and 0 <= s < f.degree
        assert x.valuation() == m - Fraction(s, f.degree)
        back = (u * (z1**s).inverse()).scale(Fraction(p) ** m)
        assert (back - x).min_valuation() >= ctx.identity_floor + m
    with pytest.raises(PrecisionError):
        f.zero().peel()


@pytest.mark.parametrize("p, n", [(3, 1), (5, 1)])
def test_log_element_makes_no_inverse(p, n, monkeypatch):
    tower = CycloTower(PrimeContext(p, 12), n)
    f = tower.field(n)
    z1 = f.zeta() - f.one()
    x = tower.uniformizer(n)
    calls = []
    orig = cyclotomic.CycloElement.inverse
    monkeypatch.setattr(
        cyclotomic.CycloElement, "inverse", lambda self: calls.append(1) or orig(self)
    )
    for y in (x, x * z1**3, z1.scale(Fraction(1, p)), f.from_scalar(p)):
        assert y.valuation() != 0
        tower.log_element(y)
    assert calls == []


def _loop_power(x, k):
    """Test-only oracle: x^k (k >= 0) by the per-product square-and-multiply
    loop, every product an unpacked CycloElement."""
    result = x.field.one(max(c.absprec for c in x.coords))
    base = x
    while k:
        if k & 1:
            result = result * base
        k >>= 1
        if k:
            base = base * base
    return result


@pytest.mark.parametrize("p, n", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_power_matches_per_product_loop(p, n):
    ctx = PrimeContext(p, 12)
    f = CycloTower(ctx, n).field(n)
    rng = random.Random(700 * p + n)
    z1 = f.zeta() - f.one()
    y = from_coords(f, [ctx.scalar(rng.randrange(p**12)) for _ in range(f.degree)])
    ragged = [ctx.scalar(rng.randrange(p**12), 20 + rng.randrange(8)) for _ in range(f.degree)]
    inputs = [y, from_coords(f, ragged), y * z1**3]
    for x in inputs:
        for k in (0, 1, 2, 7, f.degree):
            assert _triples(x**k) == _triples(_loop_power(x, k))
        for k in (1, 2, 7):
            assert _triples(x ** -k) == _triples((x**k).inverse())


def test_gamma_kernel_and_image_rank(tower3):
    # (gamma - 1) on k_1 has kernel Q_p and image the trace-zero plane
    ctx = tower3.ctx
    basis = tower3.pi_basis(1)
    images = [tower3.gamma_apply(b) - b for b in basis]
    nonzero = [im for im in images if im.min_valuation() < ctx.prec - 2]
    assert len(nonzero) == len(basis) - 1
    for im in nonzero:
        assert tower3.trace_kn_to_qp(im).min_valuation() >= ctx.prec - 2


def principal_power(tower, x, exponent):
    """Test-only oracle: x^a for a principal unit x and a in Z_p, by the
    binomial series sum C(a, m) (x-1)^m, with the exponent embedded with
    v_p(m!) digits of headroom for the multiply/divide chain of C(a, m)."""
    if x.residue() != 1:
        raise InvalidInputError("principal power needs x = 1 mod the maximal ideal")
    ctx = tower.ctx
    h = x - x.field.one()
    v = h.valuation()
    if v is None:
        return x.field.one()
    target = min(c.absprec for c in x.coords)
    acc = x.field.one()
    term = x.field.one()
    bound = int(target / v) + 8
    elevated = target + factorial_valuation(bound + 16, ctx.p) + 16
    a = ctx.scalar(exponent, elevated)
    binom = ctx.scalar(1, elevated)
    m = 1
    while m * v < target:
        binom = binom * (a - (m - 1)) / m
        term = term * h
        acc = acc + term.scale(binom)
        m += 1
    return acc


def test_principal_power_square_root(tower3):
    f = tower3.field(1)
    x = f.one() + tower3.uniformizer(1)
    r = principal_power(tower3, x, Fraction(1, 2))
    assert ((r * r) - x).min_valuation() >= tower3.ctx.prec - 2


@pytest.mark.parametrize("p, n", [(3, 1), (3, 2), (5, 1), (7, 1)])
def test_points_root_matches_binomial_oracle(p, n):
    # d_n is the integer power prod^a, a = (p-1)^(-1) mod p^(wprec+n), of the
    # Delta-product of the raw value; the binomial series is the oracle
    ctx = PrimeContext(p, 12)
    tower = CycloTower(ctx, n)
    fam = build_points(HondaData.build(ctx, default_truncation(ctx, n)), tower, n)
    for m in range(n + 1):
        raw = fam.raw_d[m]
        prod = raw
        for a in tower.field(m).delta_exponents():
            if a != 1:
                prod = prod * raw.galois(a)
        expected = principal_power(tower, prod, Fraction(1, p - 1))
        assert [(c.v, c.unit, c.absprec) for c in fam.d[m].coords] == [
            (c.v, c.unit, c.absprec) for c in expected.coords
        ]


def test_restrict_detects_non_members(tower3):
    z = tower3.field(1).zeta()
    with pytest.raises(PrecisionError):
        tower3.restrict(z, 0)


def _norm_valuation(x):
    """Test-only oracle: v(x) = v(N_{K_n/Q_p}(x)) / d, None if the norm
    underflows the working precision."""
    f = x.field
    norm = x
    for a in range(2, f.modulus_order):
        if a % f.ctx.p:
            norm = norm * x.galois(a)
    c0 = norm.coords[0]
    return None if c0.is_zero else Fraction(c0.v, f.degree)


@pytest.mark.parametrize("p, n", [(3, 0), (3, 1), (3, 2), (5, 1), (7, 1)])
def test_valuation_matches_norm_oracle(p, n):
    ctx = PrimeContext(p, 12)
    f = CycloTower(ctx, n).field(n)
    z1 = f.zeta() - f.one()
    rng = random.Random(1000 * p + n)
    resolved = 0
    for _ in range(8):
        coords = [
            ctx.scalar(rng.randrange(-p**3, p**3) * p ** rng.randrange(3))
            for _ in range(f.degree)
        ]
        x = from_coords(f, coords) * z1 ** rng.randrange(f.degree + 1)
        expected = _norm_valuation(x)
        if expected is not None:
            assert x.valuation() == expected
            # the packed coordinates of x / p carry a denominator exponent
            assert x.scale(Fraction(1, p)).valuation() == expected - 1
            resolved += 1
    assert resolved >= 4
    assert f.zero().valuation() is None
    assert f.zeta().scale(p**5).reduce_absprec(5).valuation() is None


@pytest.fixture(scope="module")
def tower3n2_16():
    return CycloTower(PrimeContext(3, 16), 2)


def test_principal_power_of_deep_principal_unit(tower3n2_16):
    # the norm of 27 zeta (valuation 54) underflows wprec = 40
    f = tower3n2_16.field(2)
    x = f.one() + f.zeta().scale(27)
    r = principal_power(tower3n2_16, x, 2)
    assert (r - x * x).min_valuation() >= tower3n2_16.ctx.prec - 2


def test_eval_series_at_deep_point(tower3n2_16):
    f = tower3n2_16.field(2)
    x = f.zeta().scale(27)
    ident = TruncatedSeries.x(tower3n2_16.ctx, 8)
    assert (tower3n2_16.eval_series(ident, x) - x).min_valuation() >= tower3n2_16.ctx.prec - 2


def test_log_of_zeta_minus_one_power_outside_kn(tower3n2_16):
    # (zeta-1)^45 does not lie in k_2 and its norm (valuation 45) underflows
    f = tower3n2_16.field(2)
    x = (f.zeta() - f.one()) ** 45
    assert x.valuation() == Fraction(5, 2)
    lg = tower3n2_16.log_element(x)
    expected = tower3n2_16.log_zeta_minus_one(2).scale(45)
    assert (lg - expected).min_valuation() >= tower3n2_16.ctx.prec - 2


# -- the packed unit logarithm against the per-coordinate series -------------


def _series_log_unit(tower, y):
    """Test-only oracle: the unit log as a per-coordinate series, each term
    scaled by a Fraction.  Returns (log y, number of p-powerings)."""
    ctx = tower.ctx
    r = y.residue()
    omega = ctx.teichmuller_int(r, min(c.absprec for c in y.coords))
    y = y.scale(ctx.scalar(1) / ctx.scalar(omega))
    one = y.field.one()
    j = 0
    while (y - one).min_valuation() < 1:
        y = y**ctx.p
        j += 1
    h = y - one
    target = min(c.absprec for c in h.coords)
    vh = h.min_valuation()
    kmax = int(Fraction(target + 8) / vh) + 4
    acc = y.field.zero(target)
    power = h
    for k in range(1, kmax + 1):
        acc = acc + power.scale(Fraction((-1) ** (k - 1), k))
        if power.min_valuation() >= target:
            break
        power = power * h
    out = acc.scale(Fraction(1, ctx.p**j)).reduce_absprec(
        target - _log_floor(kmax + 1, ctx.p) - j
    )
    return out, j


def _triples(x):
    return [(c.v, c.unit, c.absprec) for c in x.coords]


def _log_inputs(tower, n, rng):
    """Units of K_n: seeded, deep principal, and with ragged absprec."""
    ctx = tower.ctx
    p = ctx.p
    f = tower.field(n)
    span = ctx.pk(ctx.wprec)
    units = []
    for _ in range(4):
        coords = [rng.randrange(span) for _ in range(f.degree)]
        # the residue of y is the sum of its coordinates mod p
        coords[0] += (rng.randrange(1, p) - sum(coords)) % p
        units.append(from_coords(f, [ctx.scalar(c) for c in coords]))
    for k in (1, 2, 5):
        y = from_coords(f, [ctx.scalar(rng.randrange(span)) for _ in range(f.degree)])
        units.append(f.one() + y.scale(p**k))
    # coordinates known to different precisions; with all of them beyond
    # wprec, the strip's bound v + wprec is the one that binds
    for low in (-3, 1):
        vals = [rng.randrange(span) for _ in range(f.degree)]
        vals[0] = 2 + p * rng.randrange(span)
        vals[1] += (1 - sum(vals)) % p
        precs = [ctx.wprec + 7] + [ctx.wprec + rng.randrange(low, 6) for _ in vals[1:]]
        units.append(from_coords(f, [ctx.scalar(v, a) for v, a in zip(vals, precs)]))
    z1 = f.zeta() - f.one()
    units.append((z1**f.degree).scale(Fraction(1, p)))  # log_zeta_minus_one's unit
    return units


@pytest.mark.parametrize("p, n", [(3, 0), (3, 1), (3, 2), (5, 1), (7, 1)])
def test_packed_log_unit_matches_series_oracle(p, n):
    ctx = PrimeContext(p, 12)
    tower = CycloTower(ctx, n)
    contractions = set()
    for y in _log_inputs(tower, n, random.Random(31 * p + n)):
        expected, j = _series_log_unit(tower, y)
        contractions.add(j > 0)
        assert _triples(tower._log_unit(y)) == _triples(expected)
    assert contractions == {False, True}
    f = tower.field(n)
    u0 = ((f.zeta() - f.one()) ** f.degree).scale(Fraction(1, p))
    expected = _series_log_unit(tower, u0)[0].scale(Fraction(1, f.degree))
    assert _triples(tower.log_zeta_minus_one(n)) == _triples(expected)


@pytest.mark.parametrize("p, n", [(3, 1), (5, 1)])
def test_log_element_matches_series_oracle(p, n):
    # log_element on non-units, with the unit log swapped for the oracle
    ctx = PrimeContext(p, 12)
    tower = CycloTower(ctx, n)
    oracle = CycloTower(ctx, n)
    oracle._log_unit = lambda y: _series_log_unit(oracle, y)[0]
    f = tower.field(n)
    z1 = f.zeta() - f.one()
    rng = random.Random(7 * p + n)
    for y in _log_inputs(tower, n, rng)[:4]:
        for x in (y * z1 ** rng.randrange(1, f.degree), y.scale(p), tower.uniformizer(n)):
            assert _triples(tower.log_element(x)) == _triples(oracle.log_element(x))


def test_gamma_orbit_exponents_refuse_a_level_outside_zero_to_n(tower3n2):
    assert len(tower3n2.gamma_orbit_exponents(2, 2)) == 1
    assert len(tower3n2.gamma_orbit_exponents(2, 1)) == 3
    for m in (-1, 3):
        with pytest.raises(InvalidInputError, match=f"level 2 over level {m}"):
            tower3n2.gamma_orbit_exponents(2, m)


def test_restrict_refuses_a_level_outside_zero_to_n(tower3n2):
    x = tower3n2.field(1).one()
    assert tower3n2.restrict(x, 0).field is tower3n2.field(0)
    for m in (-1, 2):
        with pytest.raises(InvalidInputError, match=f"from level 1 to level {m}"):
            tower3n2.restrict(x, m)


def test_a_negative_level_is_refused(tower3n2):
    with pytest.raises(InvalidInputError, match="no level -1"):
        tower3n2.field(-1)
    with pytest.raises(InvalidInputError, match="no level -1"):
        tower3n2.uniformizer(-1)
