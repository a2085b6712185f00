import random
from fractions import Fraction

import pytest

from padiclab import (
    InvalidInputError,
    PrecisionError,
    PrimeContext,
    PropertyFailure,
    closed_form_log,
    solve_h90,
    verify_generation,
    verify_log_formula,
    verify_norm_tower,
    verify_prop2,
)
from padiclab import cyclotomic, points
from padiclab.cyclotomic import CycloTower
from padiclab.points import H90Solution, UnitLogLattice, verify_two_routes
from padiclab.runner import SuiteConfig, run_suite
from padiclab.series import PackedVector, _pack


def brute_force_h90_classes(fam, n):
    """The classes e in range(p^n) whose own trace-zero solve of
    (gamma - 1) y = log d_n + e log pi^(1-gamma) lies in log U^1_n: one
    solve per class, an oracle for the linear class test of solve_h90."""
    tower = fam.tower
    pn = tower.ctx.p**n
    pi = tower.uniformizer(n)
    log_ratio = tower.log_element(pi / tower.gamma_apply(pi))
    hits = []
    for e in range(pn):
        y = tower.gamma_solve(fam.log_d(n) + log_ratio.scale(e))
        if fam.lattice(n).membership(tower.to_pi_coords(y)) is not None:
            hits.append(e)
    return hits


def test_d0_is_one(fam3, tower3):
    resid = (fam3.d[0] - tower3.field(0).one()).min_valuation()
    assert resid >= tower3.ctx.prec


def test_points_are_delta_fixed(fam3, tower3):
    for n in (0, 1):
        assert tower3.is_delta_fixed(fam3.c[n])
        assert tower3.is_delta_fixed(fam3.d[n])


def test_raw_product_delta_defect_is_torsion(fam3, tower3):
    # before symmetrisation the point is off by a p-power root of unity;
    # at level 0 the defect is exactly zeta_3
    defect = fam3.raw_delta_defect(0)
    f = tower3.field(0)
    assert (defect - f.zeta()).min_valuation() >= tower3.ctx.prec
    defect1 = fam3.raw_delta_defect(1)
    f1 = tower3.field(1)
    pw = defect1 ** 9
    assert (pw - f1.one()).min_valuation() >= tower3.ctx.prec - 2


def test_c1_valuation_is_uniformizer_valuation(fam3):
    # the canonical Delta-fixed point lives in k_1, whose value group is
    # (1/p)Z: the valuation is 1/p, not 1/(p(p-1))
    assert fam3.c[1].valuation() == Fraction(1, 3)


def test_c1_valuation_p5(fam5):
    assert fam5.c[1].valuation() == Fraction(1, 5)


def test_norm_tower(fam3, tower3):
    rep = verify_norm_tower(fam3)
    assert rep["norm_residuals"][1] >= tower3.ctx.prec - 2
    assert rep["trace_residuals"][1] >= tower3.ctx.prec - 2


def test_norm_of_d1_is_one(fam3, tower3):
    nrm = tower3.norm(fam3.d[1], 0)
    assert (nrm - tower3.field(0).one()).min_valuation() >= tower3.ctx.prec - 2


def test_log_formula_levels(fam3, tower3):
    rep0 = verify_log_formula(fam3, 0)
    rep1 = verify_log_formula(fam3, 1)
    assert rep0["log_residual"] >= tower3.ctx.prec - 2
    assert rep1["log_residual"] >= tower3.ctx.prec - 2


def test_log_formula_level_zero_vanishes(fam3, tower3):
    # p + sum_delta (zeta^delta - 1) = p + (-1) - (p-1) = 0
    closed = closed_form_log(tower3, 0)
    assert closed.min_valuation() >= tower3.ctx.prec - 2
    assert fam3.log_d(0).min_valuation() >= tower3.ctx.prec - 2


def test_log_d1_frozen_value(fam3, tower3):
    # closed form collapses to zeta_9 + zeta_9^(-1) at (p, n) = (3, 1)
    f = tower3.field(1)
    expected = f.zeta_power(1) + f.zeta_power(8)
    assert (fam3.log_d(1) - expected).min_valuation() >= tower3.ctx.prec - 2


def test_two_route_agreement(fam3):
    rep = verify_two_routes(fam3)
    assert rep["exp_route_residual"] >= fam3.tower.ctx.prec - 2


def test_conjugate_norms_are_one(fam3, tower3):
    d = fam3.d[1]
    for a in tower3.gamma_orbit_exponents(1):
        conj = d.galois(a) if a != 1 else d
        assert (tower3.norm_kn_to_qp(conj) - 1).min_valuation() >= tower3.ctx.prec - 2


def test_generation_index_one(fam3):
    rep = verify_generation(fam3, 1)
    assert rep["rank"] == 3
    assert rep["index_valuation"] == 0
    assert rep["divisors"] == [0, 0, 0]


def test_generation_level_zero(fam3):
    rep = verify_generation(fam3, 0)
    assert rep["rank"] == 1
    assert rep["index_valuation"] == 0


def test_generation_p5(fam5):
    rep = verify_generation(fam5, 1)
    assert rep["rank"] == 5
    assert rep["index_valuation"] == 0


def test_lattice_rejects_foreign_vectors(fam3, tower3):
    lat = UnitLogLattice(tower3, 1)
    # 1/p times a basis vector is outside the lattice
    y = tower3.to_pi_coords(tower3.pi_basis(1)[2].scale(Fraction(1, 3)))
    assert lat.membership(y) is None


@pytest.mark.parametrize(
    "spoil, error, match",
    [
        # no generator reaches the last pi-power row
        (
            lambda ctx, v: PackedVector(ctx, *v.packed[:2], v.packed[2][:-1] + [0]),
            PropertyFailure,
            "rank-deficient at row 2",
        ),
        # the redundant generator can only reduce to the inputs' precision
        (
            lambda ctx, v: v.reduce_absprec(ctx.solve_floor - 1),
            PrecisionError,
            "redundant lattice generator fails to reduce",
        ),
    ],
)
def test_lattice_refuses_spoilt_generators(tower3, monkeypatch, spoil, error, match):
    to_pi_coords = tower3.to_pi_coords
    monkeypatch.setattr(tower3, "to_pi_coords", lambda x: spoil(tower3.ctx, to_pi_coords(x)))
    with pytest.raises(error, match=match):
        UnitLogLattice(tower3, 1)


def test_h90_exponent_class(sol3):
    assert sol3.e % 3 == 2
    assert sol3.searched == (0, 1, 2)


def test_h90_certificates(sol3, tower3):
    assert sol3.residual_valuation >= tower3.ctx.prec - 4
    assert sol3.norm_residual >= tower3.ctx.prec - 4


def test_h90_decomposition_shape(sol3, tower3, fam3):
    # x_1 = pi^e u with u a norm-one principal unit
    assert sol3.x_n.valuation() == Fraction(sol3.e, 3)
    assert sol3.u_n.residue() == 1
    lhs = tower3.gamma_apply(sol3.x_n) / sol3.x_n
    assert (lhs - fam3.d[1]).min_valuation() >= tower3.ctx.prec - 4


def test_norm_x_keeps_its_digits_past_the_working_precision():
    # x = pi^40 at (3, 1, 12): e = 40 exceeds wprec = 36, so the norm of x
    # itself is zero at its precision; N(u) N(pi)^e keeps 35 digits
    tower = CycloTower(PrimeContext(3, 12), 1)
    u = tower.field(1).one()
    x = tower.uniformizer(1) ** 40 * u
    sol = H90Solution(tower, 1, 40, u, x, Fraction(0), Fraction(0))
    assert tower.norm_kn_to_qp(x).is_zero
    assert (sol.norm_x.v, sol.norm_x.unit, sol.norm_x.absprec) == (40, 1, 75)
    assert sol.log_norm_x.is_zero


def test_h90_level_zero_degenerate(fam3):
    sol0 = solve_h90(fam3, 0)
    assert sol0.e == 0


def test_prop2_congruence(sol3, tower3):
    rep = verify_prop2(sol3, tower3)
    assert rep["residual_valuation"] >= 2
    assert rep["e_class"] == 2


def test_prop2_congruence_p5(sol5, tower5):
    rep = verify_prop2(sol5, tower5)
    assert rep["residual_valuation"] >= 2
    # normalised form: e = p/((p-1) log kappa) mod p; log_5(6) = 5 mod 25
    assert rep["e_class"] % 5 == 4


def test_prop2_shift_invariance(sol3, tower3):
    # shifting e by p^n moves the right side by a multiple of p^(n+1)
    from padiclab import iwasawa_log

    ctx = tower3.ctx
    log_kappa = iwasawa_log(ctx.scalar(tower3.kappa_gamma))
    shift = log_kappa * (ctx.p - 1) * (3)  # e -> e + p^1
    assert shift.min_valuation() >= 2


def test_e_stable_under_higher_precision(fam3):
    # same class from a fresh solve at higher precision
    from padiclab import CycloTower, HondaData, PrimeContext, build_points
    from padiclab.honda import default_truncation

    ctx = PrimeContext(3, 18)
    tower = CycloTower(ctx, 1)
    honda = HondaData.build(ctx, default_truncation(ctx, 1))
    fam = build_points(honda, tower, 1)
    sol = solve_h90(fam, 1)
    assert sol.e == 2


def test_prop2_level2(sol3n2, tower3n2):
    rep = verify_prop2(sol3n2, tower3n2)
    assert rep["residual_valuation"] >= 3
    assert sol3n2.e == 2  # matches p/((p-1) log_3 4) = 2 mod 9


@pytest.mark.parametrize(
    "fam, sol, n", [("fam3", "sol3", 1), ("fam5", "sol5", 1), ("fam3n2", "sol3n2", 2)]
)
def test_linear_class_test_matches_brute_force(fam, sol, n, request):
    fam, sol = request.getfixturevalue(fam), request.getfixturevalue(sol)
    assert brute_force_h90_classes(fam, n) == [sol.e]


def test_h90_solves_twice_per_level(fam3n2, monkeypatch):
    calls = []
    solve = CycloTower.gamma_solve

    def counted(self, v):
        calls.append(v)
        return solve(self, v)

    monkeypatch.setattr(CycloTower, "gamma_solve", counted)
    sol = solve_h90(fam3n2, 2)
    assert sol.searched == tuple(range(9))
    assert len(calls) == 2


def test_one_unit_lattice_per_level(monkeypatch):
    # points.generation and prop2.h90-certificate share each level's lattice
    levels = []
    init = UnitLogLattice.__init__

    def counted(self, tower, n):
        levels.append(n)
        init(self, tower, n)

    monkeypatch.setattr(UnitLogLattice, "__init__", counted)
    report = run_suite(SuiteConfig(p=3, n_max=2, prec=12, suites=("points", "prop2")))
    assert report.summary()["fail"] == 0
    assert sorted(levels) == [0, 1, 2]


def test_one_factorisation_per_level_and_matrix(monkeypatch):
    # per level: the pi-basis, the unit lattice and the generation span,
    # each reduced once in a full run; gamma_solve is a closed form
    matrices = []
    solve_columns = cyclotomic.solve_columns

    def counted(ctx, cols, *rest):
        matrices.append(tuple((*col.packed[:2], tuple(col.packed[2])) for col in cols))
        return solve_columns(ctx, cols, *rest)

    monkeypatch.setattr(cyclotomic, "solve_columns", counted)
    monkeypatch.setattr(points, "solve_columns", counted)
    report = run_suite(SuiteConfig(p=3, n_max=2, prec=12, n_functionals=4))
    assert report.summary()["fail"] == 0
    assert len(matrices) == len(set(matrices)) == 3 + 3 * 2


@pytest.mark.parametrize(
    "c, error, match",
    [
        (0, PrecisionError, r"multiple candidate classes \[0, 1, 2\]"),
        (Fraction(1, 3), PropertyFailure, "no residue class"),
    ],
)
def test_h90_class_test_contract(fam3, monkeypatch, c, error, match):
    # c(e) constant in e: integral for every class, or for none
    ctx = fam3.tower.ctx
    monkeypatch.setattr(
        UnitLogLattice,
        "coords",
        lambda self, y: PackedVector(ctx, *_pack([ctx.scalar(c)] * self.dim)),
    )
    with pytest.raises(error, match=match):
        solve_h90(fam3, 1)


def _power_per_generator(lattice, exps):
    """Test-only oracle: prod (1 + pi^i)^(e_i) with one power per
    generator, each exact integer exponent reduced mod p^wprec."""
    tower = lattice.tower
    ctx = tower.ctx
    f = tower.field(lattice.n)
    acc = f.one()
    for i, e in zip(lattice.generators, exps):
        if e == 0:
            continue
        if Fraction(e).denominator != 1:
            raise InvalidInputError("unit reconstruction needs integral exponents")
        acc = acc * (f.one() + lattice._pi_powers[i]) ** (int(e) % ctx.pk(ctx.wprec))
    return acc


def _straus_by_products(lattice, exps):
    """Test-only oracle: the reconstruction by Straus's
    multi-exponentiation over ``CycloElement.__mul__``, cut to the least
    absprec of wprec and of the generators with a nonzero exponent."""
    tower = lattice.tower
    ctx = tower.ctx
    f = tower.field(lattice.n)
    cap = ctx.pk(ctx.wprec)
    absprec = ctx.wprec
    terms = []
    for i, e in zip(lattice.generators, exps):
        if not e:
            continue
        g = f.one() + lattice._pi_powers[i]
        absprec = min(absprec, g.absprec)
        terms.append((g, int(e) % cap))
    acc = None
    for bit in range(max((k.bit_length() for _, k in terms), default=0) - 1, -1, -1):
        if acc is not None:
            acc = acc * acc
        for g, k in terms:
            if k >> bit & 1:
                acc = g if acc is None else acc * g
    return f.one(absprec) if acc is None else acc.reduce_absprec(absprec)


@pytest.mark.parametrize("level", [1, 2])
def test_unit_from_exponents_matches_one_power_per_generator(fam3n2, level):
    lattice = fam3n2.lattice(level)
    ctx = lattice.tower.ctx
    rng = random.Random(level)
    ngen = len(lattice.generators)
    zeros = [0] * ngen
    ints = [rng.randrange(ctx.pk(ctx.wprec)) for _ in range(ngen)]
    # a nonzero exponent that vanishes mod p^wprec, and exact exponents
    # past p^wprec, as a solve may return them
    wrapped = ctx.pk(ctx.wprec)
    cases = [
        zeros,
        [5] + zeros[1:],
        zeros[:-1] + [ints[-1]],
        [wrapped] + zeros[1:],
        [wrapped] + ints[1:],
        ints,
        [k * wrapped + k for k in ints],
        [Fraction(k, 1) for k in ints],
    ]
    for exps in cases:
        got = lattice.unit_from_exponents(exps)
        assert got.packed == _power_per_generator(lattice, exps).packed
        assert got.packed == _straus_by_products(lattice, exps).packed
    with pytest.raises(InvalidInputError):
        lattice.unit_from_exponents([Fraction(1, 3)] + zeros[1:])


def test_lattice_solve_keeps_exact_multipliers(sol3n2):
    # (3, 2, 12) at level 2 read 25 with the reductions on PadicScalar
    # columns and reads 26 with exact multipliers; scaling the lattice's
    # columns by the PadicScalar quotients instead drops it to 23
    assert sol3n2.residual_valuation >= 25
