"""Acceptance gate: every criterion of the build contract, run on the
default grid p in {3, 5}, n <= 2 for p = 3 and n <= 1 for p = 5, at
precision N = 30, with one printed verdict line per criterion.

Congruence tolerances are pinned here and nowhere else:
  - exact identities must reach residual valuation >= N - 2, and the
    library's ``PrimeContext.identity_floor`` (its ``solve_floor``,
    N - 4) is asserted to equal this,
  - epsilon's defining residual must reach >= N,
  - stated congruences hold at their exact stated moduli,
  - pass-statuses must be stable under N -> N + 5,
  - reports must be byte-identical for identical config and seed.
"""

from fractions import Fraction

import pytest

from padiclab import (
    PrimeContext,
    TateParameter,
    a_invariants,
    iwasawa_log,
    mtt_report,
    sk_value,
    uniformize_point,
    weierstrass_residual,
)
from padiclab.honda import default_truncation
from padiclab.runner import SuiteConfig, emit_report, run_suite

N = 30
GRID = ((3, 2), (5, 1))


def _cfg(p, n_max, prec):
    return SuiteConfig(p=p, n_max=n_max, prec=prec)


@pytest.fixture(scope="module")
def reports():
    return {(p, n): run_suite(_cfg(p, n, N)) for (p, n) in GRID}


@pytest.fixture(scope="module")
def reports_higher():
    return {(p, n): run_suite(_cfg(p, n, N + 5)) for (p, n) in GRID}


def _statuses(report):
    return {c.name: c.status for c in report.checks}


def _require(report, names, label):
    status = _statuses(report)
    failed = []
    for name in names:
        if status.get(name) != "pass":
            failed.append((name, status.get(name, "missing")))
    verdict = "PASS" if not failed else f"FAIL {failed}"
    print(f"ACCEPTANCE {label}: {verdict}")
    assert not failed, f"{label}: {failed}"


def test_criterion_01_honda_properties(reports):
    for (p, n), rep in reports.items():
        assert default_truncation(PrimeContext(p, N), n) >= 120
        _require(
            rep,
            [
                "honda.frobenius-property",
                "honda.log-constant-and-derivative",
                "honda.iota-integral",
                "honda.iota-inverse-integral",
                "honda.log-of-inverse",
                "honda.log-at-points",
            ],
            f"criterion-1 honda-properties p={p}",
        )


def test_criterion_02_epsilon(reports):
    for (p, n), rep in reports.items():
        _require(
            rep,
            ["honda.epsilon-residual", "honda.epsilon-first-digit"],
            f"criterion-2 epsilon p={p}",
        )


def test_criterion_03_norm_compatibility(reports):
    for (p, n), rep in reports.items():
        _require(
            rep,
            ["points.norm-tower", "points.conjugate-norms", "points.delta-fixed"],
            f"criterion-3 norm-tower p={p}",
        )


def test_criterion_04_closed_form_logarithm(reports):
    for (p, n), rep in reports.items():
        names = [f"points.log-closed-form[n={m}]" for m in range(n + 1)]
        names.append("points.two-route-agreement")
        _require(rep, names, f"criterion-4 closed-form-log p={p}")


def test_criterion_05_generation_deep_gate(reports):
    for (p, n), rep in reports.items():
        names = [f"points.generation[n={m}]" for m in range(1, n + 1)]
        _require(rep, names, f"criterion-5 generation p={p}")


def test_criterion_06_exponent_congruence(reports):
    for (p, n), rep in reports.items():
        names = [f"prop2.congruence[n={m}]" for m in range(n + 1)]
        names += [f"prop2.h90-certificate[n={m}]" for m in range(n + 1)]
        if p == 3:
            names.append("prop2.e1-class")
        _require(rep, names, f"criterion-6 exponent-congruence p={p}")


def test_criterion_07_map_identities(reports):
    for (p, n), rep in reports.items():
        names = []
        for m in range(1, n + 1):
            names += [
                f"coleman.trivial-zero[n={m}]",
                f"coleman.convolution[n={m}]",
                f"coleman.character-sums[n={m}]",
                f"coleman.gauss-product[n={m}]",
            ]
        if n >= 2:
            names.append("coleman.level-compatibility[2->1]")
        _require(rep, names, f"criterion-7 map-identities p={p}")


def test_criterion_08_derivative_chain(reports):
    for (p, n), rep in reports.items():
        names = []
        for m in range(1, n + 1):
            names += [
                f"coleman.abel-identity[n={m}]",
                f"coleman.valuation-slope[n={m}]",
                f"coleman.derivative-congruence[n={m}]",
            ]
        _require(rep, names, f"criterion-8 derivative-chain p={p}")


def test_criterion_09_negative_control(reports):
    status = _statuses(reports[(3, 2)])
    ok = status.get("coleman.negative-control") == "expected-fail"
    print(f"ACCEPTANCE criterion-9 negative-control: {'PASS' if ok else 'FAIL'}")
    assert ok
    assert reports[(3, 2)].exit_code == 0


def test_criterion_10_tate_curve(reports):
    for (p, n), rep in reports.items():
        _require(
            rep,
            [
                "tate.a-leading-coefficients",
                "tate.a-integrality",
                "tate.weierstrass-residual-grid",
                "tate.inversion-symmetry",
                "tate.formal-group-identification",
            ],
            f"criterion-10 tate-curve p={p}",
        )


def test_criterion_10_stated_a4_contradiction():
    # the a4 q-coefficient -1 cannot satisfy the residual clause of the
    # same criterion: the uniformization forces -5; both facts verified
    ctx = PrimeContext(3, N)
    q = TateParameter.make(ctx, 1, 4)
    s3 = sk_value(3, q.value())
    _, a6 = a_invariants(q.value())
    X, Y, _ = uniformize_point(ctx.scalar(2), q)
    wrong = weierstrass_residual(X, Y, -s3, a6).min_valuation()
    right = weierstrass_residual(X, Y, -(s3 * 5), a6).min_valuation()
    ok = wrong <= 3 and right >= N - 2
    print(
        "ACCEPTANCE criterion-10 stated-a4-contradiction: "
        f"{'PASS' if ok else 'FAIL'} (residuals: stated {wrong}, forced {right})"
    )
    assert ok


def test_criterion_11_derivative_bookkeeping(reports):
    for (p, n), rep in reports.items():
        _require(
            rep,
            ["mtt.derivative-bookkeeping", "mtt.parameter-scaling"],
            f"criterion-11 bookkeeping p={p}",
        )
    # stated normalisation at q = p(1+p):
    # ds = log_p(1+p) (1 - 1/p) lratio p/(p-1), generator-independent
    ctx = PrimeContext(3, N)
    q = TateParameter.make(ctx, 1, 4)
    lratio = 7
    rep = mtt_report(ctx, q, lratio, kappa_gamma=4)
    rep2 = mtt_report(ctx, q, lratio, kappa_gamma=16)
    expected = (
        iwasawa_log(ctx.scalar(4))
        * ctx.scalar(Fraction(2, 3))
        * lratio
        * ctx.scalar(Fraction(3, 2))
    )
    ok = (
        (rep["ds_prediction"] - expected).min_valuation() >= N - 2
        and (rep["ds_prediction"] - rep2["ds_prediction"]).min_valuation() >= N - 2
    )
    print(f"ACCEPTANCE criterion-11 normalisation: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_12_determinism_and_stability(reports, reports_higher):
    # byte-identical reports for identical config and seed
    cfg = SuiteConfig(p=3, n_max=1, prec=14, n_functionals=3)
    blob1 = emit_report(run_suite(cfg), "json")
    blob2 = emit_report(run_suite(cfg), "json")
    byte_ok = blob1 == blob2
    print(f"ACCEPTANCE criterion-12 byte-determinism: {'PASS' if byte_ok else 'FAIL'}")
    assert byte_ok
    # pass-statuses stable under N -> N + 5 across the full grid
    for key in reports:
        s30 = _statuses(reports[key])
        s35 = _statuses(reports_higher[key])
        assert set(s30) == set(s35), f"check inventory changed at {key}"
        diffs = {k: (s30[k], s35[k]) for k in s30 if s30[k] != s35[k]}
        print(
            f"ACCEPTANCE criterion-12 precision-stability {key}: "
            f"{'PASS' if not diffs else f'FAIL {diffs}'}"
        )
        assert not diffs


def test_library_floors_match_the_gate():
    # the library's one residual policy must not drift from the tolerances
    # pinned above: identities at N - 2, solved quantities at N - 4
    contexts = [PrimeContext(p, prec) for p, _ in GRID for prec in (N, N + 5)]
    ok = all(
        (ctx.identity_floor, ctx.solve_floor) == (ctx.prec - 2, ctx.prec - 4)
        for ctx in contexts
    )
    print(f"ACCEPTANCE policy floors: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_grid_reports_fully_green(reports):
    for key, rep in reports.items():
        s = rep.summary()
        print(
            f"ACCEPTANCE summary {key}: pass={s['pass']} fail={s['fail']} "
            f"expected-fail={s['expected-fail']} skipped={s['skipped']}"
        )
        assert s["fail"] == 0
        assert rep.exit_code == 0
