"""Self-test of the benchmark's tracing.

    python3 perfbench/selftest.py [--workload NAME ...] [--seed N]

Run from the root of a padiclab checkout.  Checks that

- the closed form behind ``series.compose.terms`` matches a brute-force
  count of the Horner schedule;
- after ``Tracer.install()`` no module of padiclab still binds an
  unwrapped traced function;
- for each workload, two traced passes of one seed in fresh processes
  give byte-identical reports and identical calls, terms and hit counts
  (so ``points.h90.hit_ratio`` repeats too), every declared span fires
  and no span of a silent layer does.

Prints one line per failure and exits 1 if there was any.
"""

from __future__ import annotations

import argparse
import os
import sys
from types import SimpleNamespace

from run import Bench, BenchError
from spans import TARGETS, Tracer, compose_terms
from workloads import WORKLOADS


def brute_compose_terms(f_order, g_len):
    order = max(f_order, g_len - 1)
    la, total = 1, 0
    for _ in range(f_order):
        n = min(order + 1, la + g_len - 1)
        for i in range(la):
            if i < n:
                total += min(g_len, n - i)
        la = n
    return total


def check_compose_terms() -> list:
    bad = []
    for f_order in range(0, 14):
        for g_len in range(2, 14):
            f = SimpleNamespace(order=f_order)
            g = SimpleNamespace(order=g_len - 1, coeffs=[0] * g_len)
            want = brute_compose_terms(f_order, g_len)
            if compose_terms(f, g) != want:
                bad.append(f"compose_terms({f_order}, {g_len}) != {want}")
    return bad


def check_bindings(root) -> list:
    sys.path.insert(0, os.path.join(root, "src"))
    import padiclab  # noqa: F401
    import padiclab.cli  # noqa: F401

    Tracer().install()
    wanted = {(m, path) for _, m, path, *_ in TARGETS if "." not in path}
    bad = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "padiclab" and not mod_name.startswith("padiclab."):
            continue
        for attr, value in vars(mod).items():
            key = (getattr(value, "__module__", None), getattr(value, "__qualname__", None))
            if key in wanted:
                bad.append(f"{mod_name}.{attr} is not wrapped")
    return bad


def check_workload(root, name, seed) -> list:
    # a fresh Bench per pass, so each pass gets the whole run deadline;
    # no pass is timed, so no host-speed reference is needed
    runs = [Bench(root, WORKLOADS[name], seed, 0, None).worker(True) for _ in range(2)]
    bad = Bench(root, WORKLOADS[name], seed, 0, None).span_gate(runs)
    if runs[0]["report"] != runs[1]["report"]:
        bad.append("reports differ between two traced passes")
    return [f"{name}: {b}" for b in bad]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    root = os.getcwd()
    failures = check_compose_terms() + check_bindings(root)
    for name in args.workload or sorted(WORKLOADS):
        try:
            found = check_workload(root, name, args.seed)
        except BenchError as exc:
            found = [f"{name}: {exc}"]
        print(f"{name}: {'ok' if not found else 'FAILED'}", flush=True)
        failures += found
    for line in failures:
        print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
