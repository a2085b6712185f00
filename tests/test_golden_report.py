"""The seed-0 JSON report of a small all-suites configuration, byte for
byte against a file recorded before the packed unit logarithm, the
per-level caches and the Gamma_n discrete-log table went in."""

from pathlib import Path

from padiclab.runner import SuiteConfig, emit_report, run_suite

GOLDEN = Path(__file__).parent / "data" / "report_p3n2_N12_seed0.json"


def test_report_matches_golden_bytes():
    # p = 3, n_max = 2 runs every suite, the negative control included
    report = run_suite(SuiteConfig(p=3, n_max=2, prec=12, n_functionals=4))
    assert report.summary()["fail"] == 0
    assert emit_report(report) == GOLDEN.read_bytes()
