"""Command-line driver for the verification suites."""

from __future__ import annotations

import argparse
import os
import sys

from .runner import ALL_SUITES, ConfigError, SuiteConfig, emit_report, run_suite

REPORT_DIR_ENV = "PADICLAB_REPORT_DIR"


def build_parser() -> argparse.ArgumentParser:
    d = SuiteConfig()
    ap = argparse.ArgumentParser(
        prog="padiclab",
        description=(
            "Run exact p-adic verification suites for the cyclotomic local"
            " points, the finite-level Coleman maps and the Tate curve"
        ),
    )
    ap.add_argument("--p", type=int, default=d.p, help="odd prime (default %(default)s)")
    ap.add_argument(
        "--nmax", type=int, default=d.n_max, help="top tower level (default %(default)s)"
    )
    ap.add_argument(
        "--prec", type=int, default=d.prec, help="target precision (default %(default)s)"
    )
    ap.add_argument("--q-ord", type=int, default=d.q_ord, help="valuation of the Tate parameter")
    ap.add_argument(
        "--q-unit", type=int, default=None, help="unit part of the Tate parameter (default 1+p)"
    )
    ap.add_argument(
        "--kappa-gamma", type=int, default=None, help="value of the generator (default 1+p)"
    )
    ap.add_argument("--seed", type=int, default=d.seed, help="seed for the functional battery")
    ap.add_argument(
        "--suite",
        action="append",
        choices=ALL_SUITES,
        default=None,
        help="suite to run (repeatable; default: all)",
    )
    ap.add_argument(
        "--functionals",
        type=int,
        default=d.n_functionals,
        help="seeded functionals per level (default %(default)s)",
    )
    ap.add_argument(
        "--lratio",
        type=int,
        default=d.lratio,
        help="input L-value/period ratio for the bookkeeping suite",
    )
    ap.add_argument("--format", choices=("json", "text"), default="json")
    ap.add_argument("--out", default=None, help="output path (default: stdout)")
    ap.add_argument(
        "--timings",
        action="store_true",
        help="record wall-clock millis (breaks byte-stability of reports)",
    )
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    suites = tuple(args.suite) if args.suite else ALL_SUITES
    config = SuiteConfig(
        p=args.p,
        n_max=args.nmax,
        prec=args.prec,
        q_ord=args.q_ord,
        q_unit=args.q_unit,
        kappa_gamma=args.kappa_gamma,
        seed=args.seed,
        suites=suites,
        n_functionals=args.functionals,
        lratio=args.lratio,
        timings=args.timings,
    )
    try:
        report = run_suite(config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    out = args.out
    try:
        if out is None and os.environ.get(REPORT_DIR_ENV):
            os.makedirs(os.environ[REPORT_DIR_ENV], exist_ok=True)
            tag = f"report-p{args.p}-n{args.nmax}-N{args.prec}-s{args.seed}.{args.format}"
            out = os.path.join(os.environ[REPORT_DIR_ENV], tag)
        payload = emit_report(report, args.format, out)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    if out is None:
        if isinstance(payload, bytes):
            sys.stdout.buffer.write(payload)
        else:
            sys.stdout.write(payload)
    else:
        print(f"wrote {out}", file=sys.stderr)
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
