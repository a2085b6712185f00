"""Each demo prints, byte for byte, the output recorded in tests/data/demos.

The demos touch every public layer with fixed inputs, so a change that
keeps the reports but moves a printed digit, a precision or a searched
class shows up here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXPECTED = Path(__file__).parent / "data" / "demos"


def test_every_demo_has_a_recording():
    assert [d.stem for d in DEMOS] == sorted(f.stem for f in EXPECTED.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_prints_recorded_output(demo):
    # no bytecode, so the run leaves nothing under src/
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (EXPECTED / f"{demo.stem}.txt").read_text()
