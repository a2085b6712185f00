"""The benchmark's tracing self-test on the formal-tate workload.

perfbench/selftest.py wraps padiclab's public functions from outside and
checks that every declared span fires; a construction routed around a
traced function (say, a composition that no longer goes through
TruncatedSeries.compose) shows up here as a span with no call.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_formal_tate():
    # no bytecode, so the run leaves nothing under perfbench/
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py", "--workload", "formal-tate"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[0] == "formal-tate: ok"
