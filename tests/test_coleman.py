import random
from fractions import Fraction
from functools import reduce
from math import comb
from operator import add

import pytest

from padiclab import (
    CharacterData,
    CycloTower,
    InvalidInputError,
    PrimeContext,
    TateParameter,
    UnitFunctional,
    coleman_level,
    derivative_rep,
    gauss_sum,
    iwasawa_log,
    negative_control,
    pair,
    primitive_characters,
    verify_char_sum,
    verify_convolution,
    verify_dcol,
    verify_key2,
    verify_level_compatibility,
    verify_trivial_zero,
)
from padiclab.coleman import GroupRingElement, _pair_log, verify_gauss_product
from padiclab.cyclotomic import CycloElement


def pair_qp(y, w):
    """Test-only: the level-0 pairing on Q_p^x."""
    return _pair_log(iwasawa_log(y), y.v, w)


def fingerprint(w):
    """Test-only: the bit-exact content of a functional."""
    densities = tuple(tuple((c.v, c.unit, c.absprec) for c in d.coords) for d in w.densities)
    a = w.alpha
    return densities, (a.v, a.unit, a.absprec)


def to_polynomial(x):
    """Test-only: coefficients of sum_i c_i (1+X)^i, the canonical lift of
    degree < p^n of a group-ring element under gamma -> 1 + X."""
    out = [x.tower.ctx.zero() for _ in x.coeffs]
    for i, c in enumerate(x.coeffs):
        if not c.is_zero:
            for j in range(i + 1):
                out[j] = out[j] + c * comb(i, j)
    return out


def test_tate_parameter_decomposition(ctx3):
    q = TateParameter.make(ctx3, 1, 4)
    assert q.ord == 1
    assert (q.rho - 1).is_zero
    assert (q.u_q - 4).is_zero
    assert q.log.lift() % 27 == 21
    q2 = TateParameter.make(ctx3, 2, 2)  # rho = omega(2) = -1
    assert (q2.rho + 1).is_zero
    assert (q2.u_q + 2).is_zero


def test_tate_parameter_requires_positive_ord(ctx3):
    with pytest.raises(InvalidInputError):
        TateParameter.make(ctx3, 0, 4)


def test_alpha_constraint_frozen_value(tower3, q3):
    # E_0 = 1, q = 3*4: alpha = -log_3(12) = 6 mod 27
    w = UnitFunctional.from_top_density(
        tower3, tower3.field(1).from_scalar(Fraction(1, 3)), q3
    )
    assert (w.e0() - 1).is_zero
    assert w.alpha.lift() % 27 == 6


def test_zero_functional(tower3, q3, fam3):
    w = UnitFunctional.zero(tower3, 1)
    assert w.alpha.is_zero
    col = coleman_level(w, fam3, 1)
    assert all(c.is_zero or c.min_valuation() >= 10 for c in col.coeffs)


def test_seeded_regeneration_is_bit_identical(tower3, q3):
    a = UnitFunctional.seeded(tower3, 1, q3, 42)
    b = UnitFunctional.seeded(tower3, 1, q3, 42)
    assert fingerprint(a) == fingerprint(b)
    c = UnitFunctional.seeded(tower3, 1, q3, 43)
    assert fingerprint(a) != fingerprint(c)


def test_tower_compatibility_enforced(tower3, q3):
    w = UnitFunctional.seeded(tower3, 1, q3, 7)
    assert w.check_tower_compatibility()
    bad = UnitFunctional(
        tower3, [tower3.field(0).one(), tower3.field(1).one()], tower3.ctx.zero()
    )
    with pytest.raises(InvalidInputError):
        bad.check_tower_compatibility()


def test_pair_on_units_with_zero_density(tower3, q3, fam3):
    w = UnitFunctional.zero(tower3, 1)
    val = pair(fam3.d[1], w, 1)
    assert val.is_zero or val.min_valuation() >= 10


def test_admissibility_kills_tate_period(tower3, q3):
    # w_0(q) = ord(q) alpha + E_0 log(u_q) = 0 is the defining constraint
    for seed in range(4):
        w = UnitFunctional.seeded(tower3, 1, q3, seed)
        assert pair_qp(q3.value(), w).min_valuation() >= tower3.ctx.prec - 2


def test_pair_of_p_is_alpha(tower3, q3):
    w = UnitFunctional.seeded(tower3, 1, q3, 5)
    got = pair_qp(tower3.ctx.scalar(3), w)
    assert (got - w.alpha).min_valuation() >= tower3.ctx.prec - 2


def test_pair_of_unit_part_level_zero(tower3, q3):
    w = UnitFunctional.seeded(tower3, 1, q3, 5)
    from padiclab import iwasawa_log

    got = pair_qp(q3.u_q, w)
    expected = w.e0() * iwasawa_log(q3.u_q)
    assert (got - expected).min_valuation() >= tower3.ctx.prec - 2


def test_pair_galois_compatibility(tower3, q3, fam3, sol3):
    # sum over conjugates at level n equals the level-0 pairing of the norm
    w = UnitFunctional.seeded(tower3, 1, q3, 11)
    for x in (fam3.d[1], sol3.x_n):
        acc = tower3.ctx.zero()
        for a in tower3.gamma_orbit_exponents(1):
            acc = acc + pair(x.galois(a) if a != 1 else x, w, 1)
        nrm = tower3.norm_kn_to_qp(x)
        assert (acc - pair_qp(nrm, w)).min_valuation() >= tower3.ctx.prec - 3


def test_trivial_zero_battery(tower3, q3, fam3):
    for seed in range(20):
        w = UnitFunctional.seeded(tower3, 1, q3, seed)
        col = coleman_level(w, fam3, 1)
        assert verify_trivial_zero(col) >= tower3.ctx.prec - 2


def test_convolution_identity(tower3, q3, fam3):
    for seed in range(3):
        w = UnitFunctional.seeded(tower3, 1, q3, seed)
        assert verify_convolution(w, fam3, coleman_level(w, fam3, 1)) >= tower3.ctx.prec - 2


def test_convolution_zero_density(tower3, q3, fam3):
    w = UnitFunctional.zero(tower3, 1)
    assert verify_convolution(w, fam3, coleman_level(w, fam3, 1)) >= tower3.ctx.prec - 2


def test_twist_permutes_coefficients(tower3, q3, fam3):
    # replacing the density by a Galois twist cyclically shifts the map
    w = UnitFunctional.seeded(tower3, 1, q3, 2)
    twisted = UnitFunctional(
        tower3,
        [w.densities[0], tower3.gamma_apply(w.densities[1])],
        w.alpha,
    )
    a = coleman_level(w, fam3, 1)
    b = coleman_level(twisted, fam3, 1)
    pn = 3
    for i in range(pn):
        assert (a.coeffs[i] - b.coeffs[(i + 1) % pn]).min_valuation() >= 10


def test_level_compatibility(fam3n2, tower3n2):
    q = TateParameter.make(tower3n2.ctx, 1, 4)
    w = UnitFunctional.seeded(tower3n2, 2, q, 0)
    upper = coleman_level(w, fam3n2, 2)
    assert verify_level_compatibility(w, fam3n2, upper) >= tower3n2.ctx.prec - 2


def test_gauss_sum_wrong_conductor_rejected(tower3):
    chi = CharacterData(tower3, 1, 0)
    with pytest.raises(InvalidInputError, match="trivial character"):
        gauss_sum(chi)


@pytest.mark.parametrize("n, a", [(1, 3), (1, -6), (2, 3), (0, 1)])
def test_character_is_trivial_or_primitive(tower3n2, n, a):
    # chi(gamma) = zeta_(p^n)^a is 1 (a = 0) or of exact order p^n (a prime
    # to p); at level 0 only the trivial character exists
    with pytest.raises(InvalidInputError, match="neither 1 nor of order"):
        CharacterData(tower3n2, n, a)
    assert CharacterData(tower3n2, n, 0).exponent(1) == 0


def _discrete_gamma_log(ctx, b, g, n):
    """Test-only oracle: i with g^i = b in (1 + pZ)/(1 + p^(n+1)Z), via the
    scalar logarithm."""
    if n == 0:
        return 0
    absprec = n + 4
    lb = iwasawa_log(ctx.scalar(b, absprec + 2))
    lg = iwasawa_log(ctx.scalar(g, absprec + 2))
    return (lb / lg).lift() % ctx.p**n


def _gauss_sum_by_discrete_log(chi):
    """Test-only oracle: tau(chi) over the units b mod p^(n+1), each
    chi(sigma_b) read through the discrete log of b omega(b)^(-1) on
    Gamma_n and multiplied onto zeta^b in K_n."""
    tower, n = chi.tower, chi.n
    ctx, f = tower.ctx, tower.field(n)
    mo = f.modulus_order
    acc = f.zero()
    for b in range(1, mo):
        if b % ctx.p == 0:
            continue
        gamma_part = b * pow(ctx.teichmuller_int(b, n + 1), -1, mo) % mo
        i = _discrete_gamma_log(ctx, gamma_part, tower.kappa_gamma, n)
        assert pow(tower.kappa_gamma, i, mo) == gamma_part
        acc = acc + f.zeta_power(ctx.p * (chi.a * i % ctx.p**n)) * f.zeta_power(b)
    return acc


@pytest.mark.parametrize("p, n", [(3, 1), (3, 2), (5, 1), (7, 1)])
def test_gauss_sum_matches_discrete_log_oracle(p, n):
    from padiclab import CycloTower, PrimeContext

    tower = CycloTower(PrimeContext(p, 12), n)
    for chi in primitive_characters(tower, n):
        assert gauss_sum(chi).packed == _gauss_sum_by_discrete_log(chi).packed


def test_gauss_product(tower3):
    for chi in primitive_characters(tower3, 1):
        assert verify_gauss_product(chi) >= tower3.ctx.prec - 2


def test_gauss_valuation_measured(tower3):
    chi = primitive_characters(tower3, 1)[0]
    assert gauss_sum(chi).valuation() == 1  # (n+1)/2 at n = 1


def test_gauss_sum_deterministic_across_precision(tower3):
    from padiclab import CycloTower, PrimeContext

    chi = primitive_characters(tower3, 1)[0]
    t1 = gauss_sum(chi)
    hi = CycloTower(PrimeContext(3, 18), 1)
    chi_hi = CharacterData(hi, 1, chi.a)
    t2 = gauss_sum(chi_hi)
    resid = min(
        (a - b.reduce_absprec(a.absprec)).min_valuation()
        for a, b in zip(t1.coords, t2.coords)
    )
    assert resid >= tower3.ctx.prec


def test_char_sums(fam3, tower3):
    for chi in primitive_characters(tower3, 1):
        assert verify_char_sum(fam3, chi) >= tower3.ctx.prec - 2
    trivial = CharacterData(tower3, 1, 0)
    assert verify_char_sum(fam3, trivial) >= tower3.ctx.prec - 2


def test_conjugate_character_gives_conjugate_sum(fam3, tower3):
    chi = primitive_characters(tower3, 1)[0]
    tau = gauss_sum(chi)
    tau_bar = gauss_sum(chi.conjugate())
    # complex conjugation is zeta -> zeta^(-1), i.e. the Galois map a = -1
    assert (tau_bar - tau.galois(tower3.field(1).modulus_order - 1)).min_valuation() >= 10


def test_to_polynomial_norm_element(tower3, q3):
    from math import comb

    ctx = tower3.ctx
    norm_elt = GroupRingElement(tower3, 1, [ctx.one()] * 3)
    poly = to_polynomial(norm_elt)
    # sum_sigma sigma -> ((1+X)^(p^n) - 1)/X = sum_j C(p^n, j+1) X^j
    for j in range(3):
        assert (poly[j] - comb(3, j + 1)).is_zero
    assert (norm_elt.augmentation() - 3).is_zero


def test_group_ring_element_refuses_a_wrong_length(tower3):
    # a raised error, not an assert, so that python -O keeps the check
    ctx = tower3.ctx
    with pytest.raises(InvalidInputError, match="has 3 coefficients, not 2"):
        GroupRingElement(tower3, 1, [ctx.one(), ctx.zero()])


def test_polynomial_derivative_is_bounded_by_a_zero_coefficient():
    # 1 * O(3^5) is a term of sum_i i c_i, so it bounds the claim
    ctx = PrimeContext(3, 12)
    elt = GroupRingElement(CycloTower(ctx, 1), 1, [ctx.one(), ctx.zero(5), ctx.one()])
    der, aug = elt.polynomial_derivative_at_zero(), elt.augmentation()
    assert aug.absprec == 5
    assert der.absprec == 5
    assert (der - 2).is_zero


def test_to_polynomial_delta_at_identity(tower3):
    ctx = tower3.ctx
    delta = GroupRingElement(tower3, 1, [ctx.one(), ctx.zero(), ctx.zero()])
    poly = to_polynomial(delta)
    assert (poly[0] - 1).is_zero
    assert all(c.is_zero for c in poly[1:])


def test_abel_identity_even_for_inadmissible_functionals(tower3, q3, fam3, sol3):
    # deliberately break admissibility: the identity must still hold
    w = UnitFunctional.seeded(tower3, 1, q3, 1)
    w_bad = UnitFunctional(tower3, w.densities, w.alpha + 1)
    _, rep = derivative_rep(w_bad, sol3, coleman_level(w_bad, fam3, 1))
    assert rep["abel_residual"] >= tower3.ctx.prec - 2


def test_derivative_closed_form(tower3, q3, fam3, sol3):
    # D_1 = -e_1 alpha with E_0 = 1: the frozen example 42 = 15 mod 27
    w = UnitFunctional.from_top_density(
        tower3, tower3.field(1).from_scalar(Fraction(1, 3)), q3
    )
    d1, _ = derivative_rep(w, sol3, coleman_level(w, fam3, 1))
    assert (d1 + w.alpha * 2).min_valuation() >= tower3.ctx.prec - 2
    assert d1.lift() % 27 == 15


def test_zero_functional_derivative(tower3, q3, fam3, sol3):
    w = UnitFunctional.zero(tower3, 1)
    d1, _ = derivative_rep(w, sol3, coleman_level(w, fam3, 1))
    assert d1.is_zero or d1.min_valuation() >= 10


def test_key2_frozen_example(tower3, q3):
    w = UnitFunctional.from_top_density(
        tower3, tower3.field(1).from_scalar(Fraction(1, 3)), q3
    )
    assert verify_key2(w, q3) >= tower3.ctx.prec - 2
    # both sides are -log_3(12) = -21 = 6 mod 27
    assert pair_qp(tower3.ctx.scalar(3), w).lift() % 27 == 6


def test_key2_scaling_linearity(tower3, q3):
    w = UnitFunctional.seeded(tower3, 1, q3, 9)
    scaled = UnitFunctional(
        tower3, [d.scale(7) for d in w.densities], w.alpha * 7
    )
    assert verify_key2(scaled, q3) >= tower3.ctx.prec - 2


def test_dcol_congruence(tower3, q3, fam3, sol3):
    for seed in range(6):
        w = UnitFunctional.seeded(tower3, 1, q3, seed)
        rep = verify_dcol(w, sol3, q3)
        assert rep["residual_valuation"] >= rep["modulus_exponent"]


def test_dcol_zero_density(tower3, q3, fam3, sol3):
    w = UnitFunctional.zero(tower3, 1)
    rep = verify_dcol(w, sol3, q3)
    assert rep["modulus_exponent"] is None


def test_dcol_generator_change_covariance(ctx3, fam3, q3):
    # kappa(gamma) = (1+p)^2 rescales both sides consistently
    from padiclab import CycloTower, HondaData, build_points, solve_h90
    from padiclab.honda import default_truncation

    tower2 = CycloTower(ctx3, 1, kappa_gamma=16)
    honda = HondaData.build(ctx3, default_truncation(ctx3, 1))
    fam2 = build_points(honda, tower2, 1)
    sol2 = solve_h90(fam2, 1)
    w = UnitFunctional.seeded(tower2, 1, q3, 0)
    rep = verify_dcol(w, sol2, q3)
    assert rep["residual_valuation"] >= rep["modulus_exponent"]


def test_dcol_p5(tower5, q5, fam5, sol5):
    w = UnitFunctional.seeded(tower5, 1, q5, 0)
    rep = verify_dcol(w, sol5, q5)
    assert rep["residual_valuation"] >= rep["modulus_exponent"]


def test_negative_control_detects_violation(fam3n2, sol3n2):
    q = TateParameter.make(fam3n2.tower.ctx, 1, 4)
    rep = negative_control(fam3n2, sol3n2, q)
    assert rep["violated"]
    assert rep["difference_valuation"] < 2
    assert rep["abel_residual"] >= fam3n2.tower.ctx.prec - 2


def test_trace_type_family_is_compatible_but_not_global(fam3n2, tower3n2):
    q = TateParameter.make(tower3n2.ctx, 1, 4)
    w = UnitFunctional.trace_type(tower3n2, 2, 1, q)
    assert w.check_tower_compatibility()
    col = coleman_level(w, fam3n2, 2)
    floor = min(c.min_valuation() for c in col.coeffs)
    assert floor >= tower3n2.ctx.prec - 4  # image is identically zero


def test_level_inputs_are_computed_once(monkeypatch):
    # the abel and dcol batteries read log x_n and N(x_n) from the solution;
    # each is computed once per level; a Gauss sum is a sum of roots of
    # unity and takes no product in K_n
    from padiclab import coleman, points
    from padiclab.cyclotomic import CycloField, CycloTower
    from padiclab.runner import SuiteConfig, run_suite

    args = {"log_element": [], "norm_kn_to_qp": []}
    for name, calls in args.items():
        orig = getattr(CycloTower, name)

        def counted(self, x, orig=orig, calls=calls):
            calls.append(x)
            return orig(self, x)

        monkeypatch.setattr(CycloTower, name, counted)
    sols = []
    solve = points.solve_h90

    def captured(*a, **k):
        sols.append(solve(*a, **k))
        return sols[-1]

    monkeypatch.setattr(points, "solve_h90", captured)
    products = {"gauss_sum": 0, "calls": 0}
    inside = []
    product, tau = CycloField._product, coleman.gauss_sum

    def counted_product(self, A, B):
        if inside:
            products["gauss_sum"] += 1
        return product(self, A, B)

    def counted_tau(chi):
        products["calls"] += 1
        inside.append(chi)
        try:
            return tau(chi)
        finally:
            inside.pop()

    monkeypatch.setattr(CycloField, "_product", counted_product)
    monkeypatch.setattr(coleman, "gauss_sum", counted_tau)
    report = run_suite(
        SuiteConfig(p=3, n_max=2, prec=12, n_functionals=4, suites=("coleman",))
    )
    assert report.summary()["fail"] == 0
    assert [s.n for s in sols] == [1, 2]
    for sol in sols:
        assert sum(x is sol.x_n for x in args["log_element"]) == 1
        # N(x_n) is N(u_n) N(pi_n)^e: u_n's norm is taken once for the
        # certificate and once for N(x_n), and x_n's never
        norms = args["norm_kn_to_qp"]
        assert sum(x is sol.u_n for x in norms) == 2
        assert not any(x is sol.x_n for x in norms)
    # each primitive character's sum is read by its character-sum check
    # and twice by the Gauss products (as chi and as chi-bar)
    assert products == {"gauss_sum": 0, "calls": 3 * (2 + 6)}


def test_fresh_h90_solution_gives_same_derivative(tower3n2, fam3n2, sol3n2):
    import dataclasses

    def triple(s):
        return (s.v, s.unit, s.absprec)

    q = TateParameter.make(tower3n2.ctx, 1, 4)
    for seed in (0, 1):
        w = UnitFunctional.seeded(tower3n2, 2, q, seed)
        fresh = dataclasses.replace(sol3n2)
        assert not {"log_x_conjugates", "norm_x"} & set(vars(fresh))
        d_a, rep_a = derivative_rep(w, sol3n2, coleman_level(w, fam3n2, 2))
        d_b, rep_b = derivative_rep(w, fresh, coleman_level(w, fam3n2, 2))
        assert triple(d_a) == triple(d_b)
        assert rep_a["abel_residual"] == rep_b["abel_residual"]


def _count_calls(monkeypatch, module, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        orig = getattr(module, name)

        def counted(*a, orig=orig, name=name):
            calls[name] += 1
            return orig(*a)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_each_image_is_built_once_per_suite_run(monkeypatch):
    # 4 functionals at each of levels 1 and 2: one image per (functional,
    # level), plus the lower image of each level-compatibility check; one
    # Abel identity per image plus the inadmissible functional per level
    from padiclab import coleman
    from padiclab.runner import SuiteConfig, run_suite

    calls = _count_calls(monkeypatch, coleman, ("coleman_level", "derivative_rep"))
    report = run_suite(
        SuiteConfig(p=3, n_max=2, prec=12, n_functionals=4, suites=("coleman",))
    )
    assert report.summary()["fail"] == 0
    assert calls == {"coleman_level": 10, "derivative_rep": 10}


def test_dcol_reads_the_derivative_without_the_image(monkeypatch, tower3, q3, sol3):
    from padiclab import coleman

    calls = _count_calls(monkeypatch, coleman, ("coleman_level", "derivative_rep"))
    w = UnitFunctional.seeded(tower3, 1, q3, 3)
    rep = verify_dcol(w, sol3, q3)
    assert rep["residual_valuation"] >= rep["modulus_exponent"]
    assert calls == {"coleman_level": 0, "derivative_rep": 0}


def test_broken_abel_identity_fails_once(monkeypatch):
    from padiclab import PropertyFailure, coleman
    from padiclab.runner import SuiteConfig, run_suite

    def broken(*a):
        raise PropertyFailure("Abel summation identity fails")

    monkeypatch.setattr(coleman, "derivative_rep", broken)
    report = run_suite(
        SuiteConfig(p=3, n_max=1, prec=12, n_functionals=2, suites=("coleman",))
    )
    status = {c.name: c.status for c in report.checks}
    assert status["coleman.abel-identity[n=1]"] == "fail"
    assert status["coleman.derivative-congruence[n=1]"] == "pass"
    assert [c.name for c in report.checks if c.status == "fail"] == [
        "coleman.abel-identity[n=1]"
    ]
    assert report.exit_code == 1


def test_checks_refuse_an_image_from_another_level(tower3n2, fam3n2, sol3n2):
    q = TateParameter.make(tower3n2.ctx, 1, 4)
    w = UnitFunctional.seeded(tower3n2, 2, q, 0)
    lower = coleman_level(w, fam3n2, 1)
    with pytest.raises(InvalidInputError, match="level-1 image with a level-2"):
        derivative_rep(w, sol3n2, lower)
    w1 = UnitFunctional.seeded(tower3n2, 1, q, 0)
    with pytest.raises(InvalidInputError, match="no level 2"):
        verify_convolution(w1, fam3n2, coleman_level(w, fam3n2, 2))
    with pytest.raises(InvalidInputError, match="no level -1"):
        verify_level_compatibility(w, fam3n2, coleman_level(w, fam3n2, 0))


def test_project_refuses_a_level_outside_zero_to_n(tower3n2, fam3n2):
    q = TateParameter.make(tower3n2.ctx, 1, 4)
    col = coleman_level(UnitFunctional.seeded(tower3n2, 2, q, 0), fam3n2, 1)
    assert col.project(0).n == 0
    for m in (-1, -2, 2):
        with pytest.raises(InvalidInputError, match=f"level 1 to level {m}"):
            col.project(m)


def test_suite_takes_each_logarithm_once(monkeypatch):
    # log N(x_n) is read once per level from the solution, log kappa(gamma)
    # and log p once per tower: 20 functionals at two levels take 4
    # logarithms, and setting up the towers and q take 3 more
    from padiclab import coleman, core, cyclotomic, points
    from padiclab.runner import SuiteConfig, run_suite

    args = []
    log = core.iwasawa_log

    def counted(x):
        args.append((x.v, x.unit, x.absprec))
        return log(x)

    for module in (core, coleman, cyclotomic, points):
        monkeypatch.setattr(module, "iwasawa_log", counted)
    report = run_suite(
        SuiteConfig(p=3, n_max=2, prec=12, n_functionals=20, suites=("coleman",))
    )
    assert report.summary()["fail"] == 0
    assert len(args) <= 8


# -- the packed Coleman kernels against the per-coefficient loops ---------------------


def _scalar_triple(s):
    return (s.v, s.unit, s.absprec)


def _trace_pairings_by_products(tower, xs, w):
    """Test-only oracle: one K_n product and one trace per x, the loop
    ``coleman_level`` and ``derivative_rep`` ran."""
    return [tower.trace_kn_to_qp(x * w) for x in xs]


def _group_product_by_products(xs, ys):
    """Test-only oracle: c_i = sum_(j+k = i mod m) xs[j] ys[k], one K_n
    product per term."""
    m = len(xs)
    return [reduce(add, (xs[j] * ys[(i - j) % m] for j in range(m))) for i in range(m)]


def _root_weighted_sum_by_products(xs, ks):
    """Test-only oracle: the loop ``verify_char_sum`` ran, from zero at
    wprec, one product with zeta_power(k) per term."""
    f = xs[0].field
    acc = f.zero()
    for x, k in zip(xs, ks):
        acc = acc + x * f.zeta_power(k)
    return acc


def _convolution_residual_by_products(w, fam, col):
    """Test-only oracle: ``verify_convolution``'s residual as the p^(2n)
    K_n products it took before the group-ring product."""
    tower = w.tower
    n = col.n
    pn = tower.ctx.p**n
    A = fam.log_d_conjugates(n)
    B = tower.gamma_conjugates(w.density(n))
    f = tower.field(n)

    def residual(i):
        acc = f.zero()
        for j in range(pn):
            acc = acc + A[j] * B[(j - i) % pn]
        return (acc - f.from_scalar(col.coeffs[i])).min_valuation()

    return min(residual(i) for i in range(pn))


def _random_elements(f, rng, count):
    """count elements of K_n over random denominators 0..2 and random
    absprecs, so the operands of one call sit at different scales."""
    ctx = f.ctx
    out = []
    for _ in range(count):
        denom = rng.randrange(3)
        e = rng.randrange(ctx.prec, ctx.wprec) + denom
        m = ctx.pk(e)
        out.append(CycloElement(f, denom, e, [rng.randrange(m) for _ in range(f.degree)]))
    return out


KERNEL_FIELDS = [(3, 1), (3, 2), (5, 1), (7, 1)]


@pytest.mark.parametrize("p, n", KERNEL_FIELDS)
def test_trace_pairings_match_the_product_loop(p, n):
    from padiclab import CycloTower, PrimeContext

    tower = CycloTower(PrimeContext(p, 8), n)
    f = tower.field(n)
    rng = random.Random(p * 10 + n)
    xs = _random_elements(f, rng, 6)
    assert any(x.packed[0] for x in xs)  # a nonzero denominator is covered
    for w in _random_elements(f, rng, 3) + [f.zero(), f.from_scalar(Fraction(1, p))]:
        got = tower.trace_pairings(xs, w)
        expected = _trace_pairings_by_products(tower, xs, w)
        assert list(map(_scalar_triple, got)) == list(map(_scalar_triple, expected))


def _root_trace(f, m):
    """Test-only: Tr_{K_n/Q_p}(zeta^m), d at m = 0 mod p^(n+1), -p^n at
    the other multiples of p^n, else 0."""
    pn = f.modulus_order // f.ctx.p
    if m % f.modulus_order == 0:
        return f.degree
    return -pn if m % pn == 0 else 0


@pytest.mark.parametrize("p, n", KERNEL_FIELDS)
def test_trace_form_is_the_trace_of_each_root_multiple(p, n):
    from padiclab import CycloTower, PrimeContext
    from padiclab.cyclotomic import _trace_form

    f = CycloTower(PrimeContext(p, 8), n).field(n)
    w = _random_elements(f, random.Random(p + n), 1)[0].packed[2]
    expected = [
        sum(c * _root_trace(f, k + j) for j, c in enumerate(w)) for k in range(f.degree)
    ]
    assert _trace_form(f, w) == expected


@pytest.mark.parametrize("p, n", KERNEL_FIELDS)
def test_group_product_matches_the_product_loop(p, n):
    from padiclab import CycloTower, PrimeContext

    f = CycloTower(PrimeContext(p, 8), n).field(n)
    rng = random.Random(100 + p * 10 + n)
    m = p**n
    xs, ys = _random_elements(f, rng, m), _random_elements(f, rng, m)
    assert any(x.packed[0] for x in xs + ys)
    got = f.group_product(xs, ys)
    assert [c.packed for c in got] == [c.packed for c in _group_product_by_products(xs, ys)]
    # a zero operand and a one-element group
    zeros = [f.zero()] * m
    assert [c.packed for c in f.group_product(xs, zeros)] == [
        c.packed for c in _group_product_by_products(xs, zeros)
    ]
    assert [c.packed for c in f.group_product(xs[:1], ys[:1])] == [(xs[0] * ys[0]).packed]


@pytest.mark.parametrize("p, n", KERNEL_FIELDS)
def test_root_weighted_sum_matches_the_product_loop(p, n):
    from padiclab import CycloTower, PrimeContext

    f = CycloTower(PrimeContext(p, 8), n).field(n)
    rng = random.Random(200 + p * 10 + n)
    xs = _random_elements(f, rng, 5)
    assert any(x.packed[0] for x in xs)
    ks = [rng.randrange(3 * f.modulus_order) for _ in xs]
    got = f.root_weighted_sum(xs, ks)
    assert got.packed == _root_weighted_sum_by_products(xs, ks).packed
    # zeta^k is held at wprec: a term over p^2 known past wprec - 2 is
    # claimed to wprec - 2, as its product with zeta_power(k) is
    wprec = f.ctx.wprec
    ints = [1] + [rng.randrange(f.ctx.pk(wprec)) for _ in range(f.degree - 1)]
    x = CycloElement(f, 2, wprec + 1, ints)
    assert x.absprec == wprec - 1
    got = f.root_weighted_sum([x], ks[:1])
    assert got.absprec == wprec - 2
    assert got.packed == _root_weighted_sum_by_products([x], ks[:1]).packed


def _level_cases(request):
    """(tower, fam, sol, q, n) for p = 3 at levels 1 and 2 and p = 5 at
    level 1."""
    cases = []
    for tower, fam, sol in (
        ("tower3", "fam3", "sol3"),
        ("tower3n2", "fam3n2", "sol3n2"),
        ("tower5", "fam5", "sol5"),
    ):
        t, fm, s = (request.getfixturevalue(x) for x in (tower, fam, sol))
        q = TateParameter.make(t.ctx, 1, 4 if t.ctx.p == 3 else 6)
        cases.append((t, fm, s, q, s.n))
    return cases


def test_coleman_functions_match_their_product_loops(request):
    for tower, fam, sol, q, n in _level_cases(request):
        for seed in (0, 1):
            w = UnitFunctional.seeded(tower, n, q, seed)
            col = coleman_level(w, fam, n)
            expected = _trace_pairings_by_products(tower, fam.log_d_conjugates(n), w.density(n))
            assert list(map(_scalar_triple, col.coeffs)) == list(map(_scalar_triple, expected))
            # the Abel sums S_i pair the conjugates of log x_n the same way
            S = tower.trace_pairings(sol.log_x_conjugates, w.density(n))
            S_loop = _trace_pairings_by_products(tower, sol.log_x_conjugates, w.density(n))
            assert list(map(_scalar_triple, S)) == list(map(_scalar_triple, S_loop))
            assert verify_convolution(w, fam, col) == _convolution_residual_by_products(w, fam, col)
        conj = fam.log_d_conjugates(n)
        for chi in [*primitive_characters(tower, n), CharacterData(tower, n, 0)]:
            ks = [chi.exponent(i) for i in range(len(conj))]
            got = tower.field(n).root_weighted_sum(conj, ks)
            assert got.packed == _root_weighted_sum_by_products(conj, ks).packed


def test_packed_kernels_refuse_another_level(tower3n2):
    f1, f2 = tower3n2.field(1), tower3n2.field(2)
    with pytest.raises(InvalidInputError, match="level mismatch"):
        tower3n2.trace_pairings([f1.one()], f2.one())
    with pytest.raises(InvalidInputError, match="level mismatch"):
        f2.group_product([f2.one()], [f1.one()])
    with pytest.raises(InvalidInputError, match="level mismatch"):
        f2.root_weighted_sum([f1.one()], [1])
    with pytest.raises(InvalidInputError, match="3 group coefficients by 2"):
        f1.group_product([f1.one()] * 3, [f1.one()] * 2)
