"""The benchmark's workloads.

Each workload turns the benchmark seed into the fields of one
``SuiteConfig``; padiclab sees only that configuration.  Each also
declares which spans (see ``spans.TARGETS``) it exercises: in a traced
pass every span records at least one call, except that spans named in
``idle`` and the ``runner.suite`` spans of suites the workload does not
run may stay at zero, and spans of the ``silent`` layers must.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from spans import SUITE_FUNCS, TARGETS

ALL_SUITES = tuple(SUITE_FUNCS)


@dataclass(frozen=True)
class Workload:
    name: str
    fields: dict
    silent: tuple = ()
    idle: tuple = ()
    seeded_mtt: bool = False

    def config(self, seed: int) -> dict:
        """SuiteConfig fields for this seed (JSON-ready, suites as a list)."""
        cfg = {"seed": seed, "suites": list(ALL_SUITES), **self.fields}
        if self.seeded_mtt:
            rng = random.Random(seed)
            p = cfg["p"]
            cfg["q_unit"] = rng.choice([u for u in range(2, p**4) if u % p])
            cfg["lratio"] = rng.choice([r for r in range(1, 100) if r % p])
        return cfg

    def live_spans(self) -> list:
        suites = self.fields.get("suites", ALL_SUITES)
        skipped = {f"runner.suite.{s}" for s in ALL_SUITES if s not in suites}
        return [
            name
            for name, *_ in TARGETS
            if name.split(".", 1)[0] not in self.silent
            and name not in self.idle
            and name not in skipped
        ]

    def silent_spans(self) -> list:
        return [name for name, *_ in TARGETS if name.split(".", 1)[0] in self.silent]


WORKLOADS = {
    w.name: w
    for w in (
        # deepest tower (d = 18); the only one running the negative control.
        # N = 16 rather than the acceptance point's 30, so that a run holds
        # four or five passes of about 10 s instead of one of 25-37 s
        # (honda.build_ell is still the largest span).
        Workload(
            "grid-p3n2",
            {"p": 3, "n_max": 2, "prec": 16, "n_functionals": 20},
        ),
        # never builds ell or touches the tower: dense composition at N = 80
        Workload(
            "formal-tate",
            {"p": 3, "n_max": 0, "prec": 80, "suites": ["tate", "mtt"]},
            silent=("honda", "cyclotomic", "points", "coleman"),
            idle=(
                "core.hensel_root",
                "series.reversion",
                "series.eval_scalar",
                "series.frobenius_substitute",
            ),
            seeded_mtt=True,
        ),
    )
}
