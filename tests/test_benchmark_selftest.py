"""The benchmark's tracing self-test on both workloads.

perfbench/selftest.py wraps padiclab's public functions from outside and
checks that every declared span fires; a construction routed around a
traced function (say, a composition that no longer goes through
TruncatedSeries.compose) shows up here as a span with no call.
grid-p3n2 is the only workload on which series.reversion,
series.eval_scalar, series.frobenius_substitute and core.hensel_root must
fire.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _selftest(workload):
    # no bytecode, so the run leaves nothing under perfbench/
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py", "--workload", workload],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[0] == f"{workload}: ok"


def test_perfbench_selftest_formal_tate():
    _selftest("formal-tate")


def test_perfbench_selftest_grid_p3n2():
    _selftest("grid-p3n2")
