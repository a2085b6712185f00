"""Seed-0 JSON reports of small all-suites configurations, byte for
byte against recorded files: (3, 2, 12) was recorded before the packed
unit logarithm, the per-level caches and the Gamma_n discrete-log table
went in, and re-recorded when the peeled inverse and logarithm raised
three of its residuals; (5, 1, 12) with kappa(gamma) = 11 pins a prime
other than 3 and a non-default generator.  Both were re-recorded when ell
came to be known to wprec (honda.epsilon-residual reads wprec) and
gained the honda.log-at-points check.  (3, 0, 80) with the tate and mtt
suites pins the Tate layer at the formal-tate workload's precision; it
was recorded before series came to be held as packed integer vectors.
(7, 1, 12) pins p = 7, whose field product folds the top block onto
p - 1 = 6 lower ones; it was recorded before the product became one
multiply and a fold on the packed integers.  (3, 2, 12), (5, 1, 12) and
(7, 1, 12) were re-recorded when honda.log-of-inverse came to read
ell' (1 + iota) = iota' over the whole order, its one field that moved
(to wprec, 36).  (3, 2, 12) was re-recorded when the Hilbert-90 solve of
(gamma - 1) y = v became a closed form; its one field that moved was
prop2.h90-certificate[n=1] (29 to 30).  The golden (3, 2, 12) run also
bounds the number of K_n products and of PadicScalar
normalisations, which no report shows."""

from pathlib import Path

from padiclab import core, cyclotomic
from padiclab.runner import SuiteConfig, emit_report, run_suite

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "report_p3n2_N12_seed0.json"
GOLDEN_P5 = DATA / "report_p5n1_N12_k11_seed0.json"
GOLDEN_TATE = DATA / "report_p3n0_N80_tate_mtt_seed0.json"
GOLDEN_P7 = DATA / "report_p7n1_N12_seed0.json"


def test_report_matches_golden_bytes():
    # p = 3, n_max = 2 runs every suite, the negative control included
    report = run_suite(SuiteConfig(p=3, n_max=2, prec=12, n_functionals=4))
    assert report.summary()["fail"] == 0
    assert emit_report(report) == GOLDEN.read_bytes()


def test_report_matches_golden_bytes_p5_kappa11():
    report = run_suite(SuiteConfig(p=5, n_max=1, prec=12, kappa_gamma=11, n_functionals=20))
    assert report.summary()["fail"] == 0
    assert emit_report(report) == GOLDEN_P5.read_bytes()


def test_report_matches_golden_bytes_tate_n80():
    report = run_suite(SuiteConfig(p=3, n_max=0, prec=80, suites=("tate", "mtt")))
    assert report.summary()["fail"] == 0
    assert emit_report(report) == GOLDEN_TATE.read_bytes()


def test_report_matches_golden_bytes_p7():
    report = run_suite(SuiteConfig(p=7, n_max=1, prec=12, n_functionals=4))
    assert report.summary()["fail"] == 0
    assert emit_report(report) == GOLDEN_P7.read_bytes()


def test_golden_config_product_count(monkeypatch):
    # 5233 K_n products before the evaluator, the shared squarings of u_n
    # and the Newton inverse; 2057 before the Coleman layer's trace
    # pairings, group-ring product and root sums, 1495 after: one product
    # per image coefficient, Abel term or convolution term would add 562
    calls = []
    product = cyclotomic.CycloField._product
    monkeypatch.setattr(
        cyclotomic.CycloField, "_product", lambda self, a, b: calls.append(1) or product(self, a, b)
    )
    run_suite(SuiteConfig(p=3, n_max=2, prec=12, n_functionals=4))
    assert len(calls) <= 1495


def test_golden_config_scalar_count(monkeypatch):
    # 12411 PadicScalar normalisations when the k_n column reductions ran
    # on PadicScalar columns; the packed reductions make none, and this
    # fails if scalars come back into them
    calls = []
    make = core.PadicScalar._make.__func__
    monkeypatch.setattr(
        core.PadicScalar, "_make", classmethod(lambda cls, *a: calls.append(1) or make(cls, *a))
    )
    run_suite(SuiteConfig(p=3, n_max=2, prec=12, n_functionals=4))
    assert len(calls) <= 12411 // 2
