"""One verification pass in a fresh interpreter.

    python3 perfbench/worker.py --root CHECKOUT --config JSON --trace 0|1

Imports padiclab from CHECKOUT/src (and refuses any other copy), runs
``run_suite`` and ``emit_report`` on the given ``SuiteConfig`` fields,
and prints one JSON line: the pass time, the peak resident memory of
this process, the report bytes, the environment and, with ``--trace 1``,
the span statistics.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    import padiclab
    from padiclab import runner

    if os.path.commonpath([os.path.abspath(padiclab.__file__), src]) != src:
        print(f"padiclab resolved outside {src}: {padiclab.__file__}", file=sys.stderr)
        return 3

    fields = json.loads(args.config)
    fields["suites"] = tuple(fields["suites"])
    config = runner.SuiteConfig(**fields)

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    started = time.monotonic()
    t0 = time.perf_counter()
    report = runner.run_suite(config)
    payload = runner.emit_report(report)
    verify_s = time.perf_counter() - t0
    ended = time.monotonic()

    out = {
        "verify_s": verify_s,
        "interval": [started, ended],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "report": payload.decode("ascii"),
        "environment": {
            "python": platform.python_version(),
            "gmpy2_importable": importlib.util.find_spec("gmpy2") is not None,
            "nproc": os.cpu_count(),
            "padiclab_file": padiclab.__file__,
        },
        "trace": tracer.snapshot() if tracer else None,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
