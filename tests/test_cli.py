import itertools
import json
import os

import pytest

from padiclab.runner import (
    ConfigError,
    Report,
    SuiteConfig,
    _check,
    emit_report,
    run_suite,
)
from padiclab import runner
from padiclab.cli import main


def parse_report(blob: bytes) -> dict:
    return json.loads(blob.decode("ascii"))


SMALL = dict(p=3, n_max=1, prec=10, n_functionals=2)


@pytest.fixture(scope="module")
def small_report():
    return run_suite(SuiteConfig(**SMALL))


def test_all_checks_pass_small(small_report):
    s = small_report.summary()
    assert s["fail"] == 0
    assert s["pass"] > 20
    assert small_report.exit_code == 0


def test_json_schema_and_roundtrip(small_report):
    blob = emit_report(small_report, "json")
    data = parse_report(blob)
    assert set(data) == {"config", "checks", "summary"}
    for check in data["checks"]:
        assert set(check) == {
            "name",
            "anchor",
            "status",
            "residual_valuation",
            "millis",
            "detail",
        }
        assert check["status"] in {"pass", "fail", "expected-fail", "skipped"}
    assert data["summary"]["total"] == len(data["checks"])
    # config is embedded fully resolved
    for key in ("p", "n_max", "prec", "q_ord", "q_unit", "kappa_gamma", "seed"):
        assert key in data["config"]


def test_reports_are_byte_identical(small_report):
    again = run_suite(SuiteConfig(**SMALL))
    assert emit_report(small_report, "json") == emit_report(again, "json")


def test_different_seed_changes_functionals_not_statuses():
    rep = run_suite(SuiteConfig(**{**SMALL, "seed": 99}))
    assert rep.summary()["fail"] == 0


def test_checks_sorted_by_name(small_report):
    blob = parse_report(emit_report(small_report, "json"))
    names = [c["name"] for c in blob["checks"]]
    assert names == sorted(names)


def test_millis_zeroed_by_default(small_report):
    blob = parse_report(emit_report(small_report, "json"))
    assert all(c["millis"] == 0 for c in blob["checks"])


def test_timings_opt_in(monkeypatch):
    # a clock that steps 0.25 s (exact in binary) per reading: every check
    # spans one step
    ticks = itertools.count(0, 0.25)
    monkeypatch.setattr(runner.time, "monotonic", lambda: next(ticks))
    on = run_suite(SuiteConfig(**{**SMALL, "timings": True}))
    assert on.checks and {c.millis for c in on.checks} == {250}
    off = run_suite(SuiteConfig(**SMALL))
    assert {c.millis for c in off.checks} == {0}


def test_negative_control_marked_expected_fail():
    cfg = SuiteConfig(
        p=3, n_max=2, prec=10, n_functionals=1,
        suites=("coleman-negative-control",),
    )
    rep = run_suite(cfg)
    checks = {c.name: c for c in rep.checks}
    nc = checks["coleman.negative-control"]
    assert nc.status == "expected-fail"
    assert rep.exit_code == 0  # expected failures do not fail the run


def test_negative_control_skipped_elsewhere():
    rep = run_suite(SuiteConfig(**{**SMALL, "suites": ("coleman-negative-control",)}))
    checks = {c.name: c for c in rep.checks}
    assert checks["coleman.negative-control"].status == "skipped"


def test_conjugate_norms_skipped_at_level_zero():
    # no level n >= 1 means no conjugate norm to measure: skipped, not passed
    rep = run_suite(SuiteConfig(p=3, n_max=0, prec=10, suites=("points",)))
    nc = {c.name: c for c in rep.checks}["points.conjugate-norms"]
    assert (nc.status, nc.residual_valuation, nc.detail) == ("skipped", None, "needs n_max >= 1")
    assert rep.exit_code == 0
    assert main(["--nmax", "0", "--prec", "10", "--suite", "points", "--out", os.devnull]) == 0


def test_negative_control_error_is_reported(monkeypatch):
    import padiclab.coleman

    def crash(*args, **kwargs):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(padiclab.coleman, "negative_control", crash)
    cfg = SuiteConfig(p=3, n_max=2, prec=10, n_functionals=1, suites=("coleman-negative-control",))
    nc = {c.name: c for c in run_suite(cfg).checks}["coleman.negative-control"]
    assert (nc.status, nc.detail) == ("fail", "ZeroDivisionError: injected")


def test_empty_battery_fails(monkeypatch):
    import padiclab.coleman

    monkeypatch.setattr(padiclab.coleman, "primitive_characters", lambda tower, n: [])
    rep = run_suite(SuiteConfig(**{**SMALL, "suites": ("coleman",)}))
    checks = {c.name: c.status for c in rep.checks}
    assert checks["coleman.gauss-product[n=1]"] == "fail"
    # the trivial character is still a member of the character-sum battery
    assert checks["coleman.character-sums[n=1]"] == "pass"


def test_empty_suite_list():
    rep = run_suite(SuiteConfig(**{**SMALL, "suites": ()}))
    assert rep.checks == []
    assert rep.exit_code == 0


def test_generation_check_runs_at_every_level():
    rep = run_suite(SuiteConfig(**{**SMALL, "suites": ("honda", "points")}))
    checks = {c.name: c.status for c in rep.checks}
    assert checks["points.generation[n=0]"] == "pass"
    assert checks["points.generation[n=1]"] == "pass"


def test_alternate_generator_full_suite():
    rep = run_suite(SuiteConfig(**{**SMALL, "kappa_gamma": 16}))
    assert rep.summary()["fail"] == 0


def test_concurrent_runs_share_nothing():
    # pure operations on immutable values: parallel suites must agree
    from concurrent.futures import ThreadPoolExecutor

    cfg = SuiteConfig(p=3, n_max=0, prec=10, suites=("honda", "mtt"))
    with ThreadPoolExecutor(max_workers=2) as pool:
        a, b = pool.map(run_suite, [cfg, cfg])
    assert emit_report(a, "json") == emit_report(b, "json")


def test_config_validation():
    with pytest.raises(ConfigError):
        SuiteConfig(p=4).resolved()
    with pytest.raises(ConfigError):
        SuiteConfig(q_ord=0).resolved()
    with pytest.raises(ConfigError):
        SuiteConfig(q_unit=9, p=3).resolved()
    with pytest.raises(ConfigError):
        SuiteConfig(kappa_gamma=5, p=3).resolved()
    with pytest.raises(ConfigError):
        SuiteConfig(kappa_gamma=10, p=3).resolved()
    with pytest.raises(ConfigError):
        SuiteConfig(n_functionals=0).resolved()
    with pytest.raises(ConfigError):
        SuiteConfig(suites=("nope",)).resolved()


def test_text_format(small_report):
    text = emit_report(small_report, "text")
    assert "PASS" in text
    assert "total=" in text


def test_cli_exit_codes_and_output(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "--p", "3", "--nmax", "1", "--prec", "10",
            "--suite", "honda", "--functionals", "2",
            "--out", str(out),
        ]
    )
    assert code == 0
    data = json.loads(out.read_bytes())
    assert data["summary"]["fail"] == 0


def test_cli_config_error_exit_two():
    assert main(["--p", "4"]) == 2
    assert main(["--q-ord", "0"]) == 2
    assert main(["--p", "3", "--kappa-gamma", "10"]) == 2
    assert main(["--functionals", "0"]) == 2
    # lratio = 0 would pass both mtt checks by comparing 0 with 0
    assert main(["--nmax", "0", "--prec", "10", "--suite", "mtt", "--lratio", "0"]) == 2


def test_cli_refuses_an_lratio_that_vanishes_at_the_precision(capsys):
    # 3^60 = 0 mod 3^30: both mtt checks would again compare 0 with 0
    for lratio in (3**60, 3**30, -(3**30)):
        args = ["--nmax", "0", "--prec", "30", "--suite", "mtt", "--lratio", str(lratio)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: need an lratio that is nonzero mod p^30 (")
        assert err.count("\n") == 1
    # 3^29 is nonzero mod 3^30, so the configuration stands
    cfg = SuiteConfig(p=3, n_max=0, prec=30, suites=("mtt",), lratio=3**29)
    assert cfg.resolved()["lratio"] == 3**29


def test_cli_validates_the_config_once(monkeypatch, capsys):
    calls = []
    resolved = SuiteConfig.resolved

    def counted(self):
        calls.append(self)
        return resolved(self)

    monkeypatch.setattr(SuiteConfig, "resolved", counted)
    args = ["--nmax", "0", "--prec", "10", "--suite", "honda", "--out", os.devnull]
    assert main(args) == 0
    assert len(calls) == 1
    assert main(["--q-ord", "0"]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "configuration error: q must have positive valuation (split multiplicative)"
    )


def test_cli_defaults_are_the_config_defaults(monkeypatch):
    # padiclab with no flags runs exactly SuiteConfig()
    from padiclab import cli

    seen = []

    def captured(config):
        seen.append(config)
        raise ConfigError("captured")

    monkeypatch.setattr(cli, "run_suite", captured)
    assert main([]) == 2
    assert seen == [SuiteConfig()]


def test_cli_env_var_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("PADICLAB_REPORT_DIR", str(tmp_path))
    code = main(
        ["--p", "3", "--nmax", "0", "--prec", "10", "--suite", "honda"]
    )
    assert code == 0
    files = list(tmp_path.iterdir())
    assert len(files) == 1
    assert files[0].name.startswith("report-p3-n0-N10")


def test_cli_report_dir_that_is_a_file(tmp_path, monkeypatch, capsys):
    # the directory cannot be made: one io error line and exit 2, no traceback
    blocker = tmp_path / "reports"
    blocker.write_text("")
    monkeypatch.setenv("PADICLAB_REPORT_DIR", str(blocker))
    assert main(["--nmax", "0", "--prec", "10", "--suite", "mtt"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("io error: ")
    assert "File exists" in err[0]


def test_cli_text_to_stdout(capsys):
    code = main(
        ["--p", "3", "--nmax", "0", "--prec", "10", "--suite", "honda",
         "--format", "text"]
    )
    assert code == 0
    cap = capsys.readouterr()
    assert "PASS" in cap.out


def test_a_pass_that_measured_nothing_fails():
    # a check function returning None has no evidence to pass on; a skip
    # needs none, and a residual of 0 is still a measurement
    report = Report(config={})
    _check(report, "stub.none", "stub", lambda: None)
    _check(report, "stub.skipped", "stub", lambda: None, "skipped", "not defined here")
    _check(report, "stub.zero", "stub", lambda: 0)
    got = {c.name: (c.status, c.residual_valuation, c.detail) for c in report.checks}
    assert got == {
        "stub.none": ("fail", None, "no residual measured"),
        "stub.skipped": ("skipped", None, "not defined here"),
        "stub.zero": ("pass", 0, ""),
    }
    assert report.exit_code == 1
