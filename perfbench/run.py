"""padiclab benchmark: verification passes timed end to end, or traced
per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a padiclab checkout; the package is imported from
its ``src/``.  Every pass runs in a fresh single-threaded worker process
(``worker.py``) on the ``SuiteConfig`` that the workload builds from the
seed.  Passes repeat until about S seconds are used (at least one pass,
or one untraced/traced pair with ``--trace 1``).

``--trace 0`` reports the ``end_to_end`` metrics of BENCHMARK.json:
``verify_s`` (median pass time, ``run_suite`` through ``emit_report``),
``setup_s`` (median set-up time: each sample is the fastest of three
fresh interpreters in a row that import padiclab and resolve the
configuration; samples run after every pass, for a quarter of the pass's
time, and fill the rest of the S seconds) and ``peak_rss_mb`` (median
peak resident memory of a pass's process).  ``--trace 1`` reports the ``per_layer``
metrics, from spans that ``spans.py`` wraps around the public functions.

The two times (and ``runner.trace_overhead_s``) are in reference
seconds: the median wall time of the run's passes (or set-up samples)
times a factor for the host's speed during the passes, which
``calibrate.Reference`` measures on the spare core; see there how and
why.  The wall times and the factor are printed beside them.

Every pass goes through the correctness gate: no check fails, every
check that passes in ``reference.json`` still passes, and the report is
byte-identical to every other report of the same seed, both in this run
and in earlier runs of the same sources in this checkout (digests kept
under ``.perfbench/``).
A failed check and a pass that fails the gate each count as failed in
the last line, which is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exits non-zero, printing no result, when
the checkout or a worker is broken.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calibrate import Reference  # noqa: E402
from spans import LAYERS, STAGES, SUITE_FUNCS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
# Set-up samples run after every pass, for this share of the pass's time,
# and then fill what is left of the budget, so that their median spans
# the whole run, not one burst.
PROBE_RATIO = 0.25
# Each set-up sample is the fastest of this many interpreters in a row (as
# timeit's repeat does): other tenants of the host slow single probes at
# random by up to 1.8x.
SETUP_BEST_OF = 3
# A run may overrun --seconds by one round (a pass, or an untraced/traced
# pair) before it is cut.
OVERRUN_S = 110.0

# A fresh interpreter up to the point where it is ready to verify.
SETUP_PROBE = (
    "import json, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import padiclab, padiclab.cli\n"
    "fields = json.loads(sys.argv[2])\n"
    "fields['suites'] = tuple(fields['suites'])\n"
    "padiclab.SuiteConfig(**fields).resolved()\n"
)


class BenchError(Exception):
    pass


class Bench:
    def __init__(self, root, workload, seed, seconds, host_speed):
        self.root = root
        self.host_speed = host_speed
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.config = workload.config(seed)
        self.started = time.perf_counter()
        with open(os.path.join(HERE, "reference.json")) as fh:
            self.reference = json.load(fh)[workload.name]

    def spent(self) -> float:
        return time.perf_counter() - self.started

    def remaining(self) -> float:
        left = self.seconds + OVERRUN_S - self.spent()
        if left <= 0:
            raise BenchError("run deadline exceeded")
        return left

    def scale(self, intervals) -> float:
        """Wall-to-reference factor over these monotonic intervals."""
        try:
            return self.host_speed.scale(intervals)
        except RuntimeError as exc:
            raise BenchError(str(exc)) from exc

    def worker(self, trace: bool) -> dict:
        cmd = [
            sys.executable, WORKER,
            "--root", self.root,
            "--config", json.dumps(self.config),
            "--trace", str(int(trace)),
        ]
        try:
            proc = subprocess.run(
                cmd, cwd=self.root, capture_output=True, text=True, timeout=self.remaining()
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError("worker exceeded the run deadline") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setup_time(self) -> float:
        cmd = [sys.executable, "-c", SETUP_PROBE, os.path.join(self.root, "src"), json.dumps(self.config)]
        with self.host_speed.paused():  # timed in this process
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=self.root, capture_output=True, text=True, timeout=self.remaining())
            elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"setup probe exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return elapsed

    def repeat(self, one_round):
        """Call one_round until the next round would overrun the budget."""
        rounds = []
        while True:
            rounds.append(one_round())
            if self.spent() * (len(rounds) + 1) / len(rounds) > self.seconds:
                return rounds

    def setup_samples(self, until: float) -> list:
        """Set-up samples, taken until about `until` seconds of the run are
        spent (at least one)."""
        times = []
        while not times or self.spent() + SETUP_BEST_OF * times[-1] <= until:
            times.append(min(self.setup_time() for _ in range(SETUP_BEST_OF)))
        return times

    # -- correctness gate ---------------------------------------------------

    def gate(self, passes) -> tuple:
        """(attempted, failed, problems) over all passes of this run."""
        attempted = failed = 0
        problems = []
        digest_path = os.path.join(
            self.root, ".perfbench", "digests", source_id(self.root, self.config),
            f"{self.workload.name}-{self.seed}.sha256",
        )
        known = None
        if os.path.exists(digest_path):
            with open(digest_path) as fh:
                known = fh.read().strip()
        for i, p in enumerate(passes):
            checks = json.loads(p["report"])["checks"]
            status = {c["name"]: c["status"] for c in checks}
            attempted += sum(s != "skipped" for s in status.values()) + 1
            failed += sum(s == "fail" for s in status.values())
            bad = [f"{n} failed" for n, s in status.items() if s == "fail"]
            for name, want in self.reference.items():
                got = status.get(name, "missing")
                if want == "pass" and got in ("fail", "skipped", "missing"):
                    bad.append(f"{name} passed on the reference commit, now {got}")
                elif want == "expected-fail" and got != "expected-fail":
                    bad.append(f"{name} must be expected-fail, got {got}")
            digest = hashlib.sha256(p["report"].encode("ascii")).hexdigest()
            if known is None:
                known = digest
                _write_atomic(digest_path, digest + "\n")
            elif digest != known:
                bad.append("report bytes differ from another pass of this seed")
            if bad:
                failed += 1
                problems.append(f"pass {i}: " + "; ".join(bad))
        return attempted, failed, problems

    def span_gate(self, traced) -> list:
        """Declared spans fire, silent layers stay silent, counts repeat."""
        problems = []
        first = traced[0]["trace"]["stats"]
        for name in self.workload.live_spans():
            if first[name]["calls"] == 0:
                problems.append(f"span {name} recorded no call")
        for name in self.workload.silent_spans():
            if first[name]["calls"]:
                problems.append(f"span {name} fired {first[name]['calls']} times")
        once = counts(traced[0]["trace"])
        for other in traced[1:]:
            again = counts(other["trace"])
            problems += [
                f"span {name} counts {once[name]} then {again[name]}"
                for name in once
                if again[name] != once[name]
            ]
        return problems


def counts(trace: dict) -> dict:
    """The exactly repeatable part of a trace: calls, terms and hits."""
    return {
        name: (s["calls"], s["terms"], s["hits"]) for name, s in trace["stats"].items()
    }


def source_id(root, config) -> str:
    """Hash of the package sources and the workload's configuration, so
    reports of another version or configuration never meet this one's
    digests."""
    h = hashlib.sha256(json.dumps(config, sort_keys=True).encode())
    src = os.path.join(root, "src", "padiclab")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def _write_atomic(path, text):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def layer_metric(name: str, traced: list, plain: list, scale: float) -> float:
    """Value of one per_layer metric of BENCHMARK.json."""
    def med(fn):
        return statistics.median(fn(t["trace"]) for t in traced)

    if name == "runner.trace_overhead_s":
        return scale * (
            statistics.median(t["verify_s"] for t in traced)
            - statistics.median(p["verify_s"] for p in plain)
        )
    if name == "points.h90.hit_ratio":
        m = traced[0]["trace"]["stats"]["points.membership"]
        return m["hits"] / m["calls"] if m["calls"] else 0.0
    head, field = name.rsplit(".", 1)
    if field == "errors" and head in LAYERS:
        return med(lambda t: t["errors"][head])
    if field == "stages_s" and head.startswith("runner.suite."):
        return med(lambda t: t["stage_by_suite"][head[len("runner.suite."):]])
    if field in ("calls", "terms"):
        return traced[0]["trace"]["stats"][head][field]
    if field in ("self_s", "total_s"):
        return med(lambda t: t["stats"][head][field])
    raise BenchError(f"no rule computes per_layer metric {name}")


def stage_table(traced: list) -> list:
    """Suite times with the lazily built stages they paid for."""
    t = traced[0]["trace"]
    lines = ["suite                      total_s   stages_s   (traced pass)"]
    for suite in SUITE_FUNCS:
        total = t["stats"][f"runner.suite.{suite}"]["total_s"]
        if total:
            lines.append(f"{suite:26} {total:8.3f}  {t['stage_by_suite'][suite]:8.3f}")
    for stage in STAGES:
        s = t["stats"][stage]
        lines.append(f"  stage {stage:24} {s['total_s']:8.3f} s over {s['calls']} calls")
    return lines


def measure(bench, spec, trace: bool):
    """Run the passes; (passes, metrics, report lines, span problems)."""
    lines = []
    if trace:
        pairs = bench.repeat(lambda: (bench.worker(False), bench.worker(True)))
        plain = [a for a, _ in pairs]
        traced = [b for _, b in pairs]
        scale = bench.scale([p["interval"] for p in plain + traced])
        metrics = {
            m["name"]: {"value": layer_metric(m["name"], traced, plain, scale), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
        lines.append(
            "verify_s per pair, wall (untraced/traced): "
            + " ".join(f"{a['verify_s']:.3f}/{b['verify_s']:.3f}" for a, b in pairs)
        )
        lines += stage_table(traced)
        return plain + traced, metrics, lines, bench.span_gate(traced)

    bench.setup_time()  # unmeasured: the first import may compile bytecode
    setup = []

    def one_round():
        p = bench.worker(False)
        setup.extend(bench.setup_samples(bench.spent() + PROBE_RATIO * p["verify_s"]))
        return p

    passes = bench.repeat(one_round)
    setup += bench.setup_samples(bench.seconds)
    # the probes are interleaved with the passes, so the passes' factor
    # holds for them too
    scale = bench.scale([p["interval"] for p in passes])
    values = {
        "verify_s": scale * statistics.median(p["verify_s"] for p in passes),
        "setup_s": scale * statistics.median(setup),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]
    }
    lines.append(
        f"verify_s per pass, wall (scale {scale:.4f}): "
        + " ".join(f"{p['verify_s']:.3f}" for p in passes)
    )
    deciles = statistics.quantiles(setup, n=10)
    lines.append(
        f"setup_s over {len(setup)} samples, wall: "
        f"median {statistics.median(setup):.4f}, p10 {deciles[0]:.4f}, p90 {deciles[-1]:.4f}"
    )
    return passes, metrics, lines, []


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "padiclab", "__init__.py")):
        print(f"perfbench: no padiclab sources under {root}/src", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    try:
        with Reference() as host_speed:
            bench = Bench(root, WORKLOADS[args.workload], args.seed, args.seconds, host_speed)
            passes, metrics, lines, span_problems = measure(bench, spec, args.trace)
            attempted, failed, problems = bench.gate(passes)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.trace:  # the span gate is one more attempted check
        attempted += 1
        failed += bool(span_problems)
        problems += span_problems

    for name, m in metrics.items():
        lines.append(f"{name} = {m['value']:.6g} {m['unit']}")
    lines.append(f"fail_share = {failed / attempted:.6g} ({failed} of {attempted})")
    lines += [f"problem: {p}" for p in problems]
    lines.append("environment " + json.dumps(passes[0]["environment"], sort_keys=True))
    print("\n".join(lines))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
