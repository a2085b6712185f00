"""A pass is evidence only if the check fails on a wrong input.

Each entry adds p^k at one place in one construction of the tate suite
at p = 3, N = 20, by monkeypatching the constructor, and names the
checks that must then fail; every other check keeps its status.  An
entry with k above every claimed precision must change no status.
"""

import pytest

from padiclab import tate
from padiclab.runner import SuiteConfig, run_suite
from padiclab.series import TruncatedSeries

P, N = 3, 20
CONFIG = SuiteConfig(p=P, n_max=0, prec=N, suites=("tate",))


def bump_t(m, k):
    """t_m + p^k in the uniformizing series, after the solve."""

    def patch(monkeypatch):
        solve = tate.multiplicative_parameter_series

        def bumped(ctx, omega, order):
            coeffs = list(solve(ctx, omega, order).coeffs)
            coeffs[m] = coeffs[m] + P**k
            return TruncatedSeries(ctx, coeffs)

        monkeypatch.setattr(tate, "multiplicative_parameter_series", bumped)

    return patch


def bump_a4(q_int, k):
    """a4 + p^k for the grid parameter q = q_int, at every precision."""

    def patch(monkeypatch):
        a_invariants = tate.a_invariants

        def bumped(q, sums=None):
            a4, a6 = a_invariants(q, sums)
            return (a4 + P**k, a6) if q.lift() == q_int else (a4, a6)

        monkeypatch.setattr(tate, "a_invariants", bumped)

    return patch


PERTURBATIONS = [
    ("t_3 + p^5", bump_t(3, 5), {"tate.formal-group-identification"}),
    ("a4(q = p(1+p)) + p^5", bump_a4(P * (1 + P), 5), {"tate.weierstrass-residual-grid"}),
    ("t_3 + p^(N+4)", bump_t(3, N + 4), set()),
]


def _statuses(report):
    return {c.name: c.status for c in report.checks}


@pytest.fixture(scope="module")
def baseline():
    statuses = _statuses(run_suite(CONFIG))
    assert set(statuses.values()) == {"pass"}
    return statuses


@pytest.mark.parametrize(
    "patch, failing", [entry[1:] for entry in PERTURBATIONS], ids=[entry[0] for entry in PERTURBATIONS]
)
def test_perturbation_fails_the_named_checks(baseline, monkeypatch, patch, failing):
    patch(monkeypatch)
    got = _statuses(run_suite(CONFIG))
    assert {name for name, status in got.items() if status == "fail"} == failing
    assert {name: s for name, s in got.items() if name not in failing} == {
        name: s for name, s in baseline.items() if name not in failing
    }
