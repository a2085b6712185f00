"""Batch driver: named verification suites over a resolved configuration,
with machine-readable reports.

Reports are byte-stable for a fixed config and seed: timings are zeroed
unless explicitly requested, and checks are sorted by name before
emission.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, asdict

from .core import InvalidInputError, PadicError, PrimeContext
from .cyclotomic import CycloTower
from .honda import HondaData, check_honda, default_truncation, inverse_integrality
from .honda import log_at_points, log_identity_residual
from . import coleman as cm
from . import points as pts
from . import tate as tt

ALL_SUITES = (
    "honda",
    "points",
    "prop2",
    "coleman",
    "coleman-negative-control",
    "tate",
    "mtt",
)


class ConfigError(Exception):
    pass


@dataclass
class SuiteConfig:
    p: int = 3
    n_max: int = 2
    prec: int = 30
    q_ord: int = 1
    q_unit: int | None = None
    kappa_gamma: int | None = None
    seed: int = 0
    suites: tuple = ALL_SUITES
    n_functionals: int = 20
    lratio: int = 1
    timings: bool = False

    def resolved(self) -> dict:
        """The configuration as reported; raises ConfigError on bad input.

        p, prec and kappa(gamma) are validated by building the objects that
        use them; the Tate parameter is checked here because building it
        costs a Teichmuller lift and a logarithm at full precision.
        """
        if self.n_max < 0:
            raise ConfigError("need n_max >= 0")
        if self.q_ord < 1:
            raise ConfigError("q must have positive valuation (split multiplicative)")
        if self.n_functionals < 1:
            raise ConfigError("need at least one functional per level")
        unknown = [s for s in self.suites if s not in ALL_SUITES]
        if unknown:
            raise ConfigError(f"unknown suites: {unknown}")
        try:
            ctx = PrimeContext(self.p, self.prec)
            tower = CycloTower(ctx, self.n_max, self.kappa_gamma)
        except InvalidInputError as exc:
            raise ConfigError(str(exc)) from None
        if self.lratio % ctx.pk(self.prec) == 0:
            raise ConfigError(
                f"need an lratio that is nonzero mod p^{self.prec}"
                " (one that vanishes makes both mtt checks compare 0 with 0)"
            )
        q_unit = (1 + self.p) if self.q_unit is None else self.q_unit
        if q_unit % self.p == 0:
            raise ConfigError("q unit part must be prime to p")
        return {
            "p": self.p,
            "n_max": self.n_max,
            "prec": self.prec,
            "truncation_order": default_truncation(ctx, self.n_max),
            "q_ord": self.q_ord,
            "q_unit": q_unit,
            "kappa_gamma": tower.kappa_gamma,
            "seed": self.seed,
            "suites": list(self.suites),
            "n_functionals": self.n_functionals,
            "lratio": self.lratio,
            "timings": self.timings,
        }


@dataclass
class CheckResult:
    name: str
    anchor: str
    status: str  # pass | fail | expected-fail | skipped
    residual_valuation: object = None
    millis: int = 0
    detail: str = ""


@dataclass
class Report:
    config: dict
    checks: list = field(default_factory=list)

    def summary(self) -> dict:
        counts = {"pass": 0, "fail": 0, "expected-fail": 0, "skipped": 0}
        for c in self.checks:
            counts[c.status] += 1
        counts["total"] = len(self.checks)
        return counts

    @property
    def exit_code(self) -> int:
        return 0 if self.summary()["fail"] == 0 else 1

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "checks": [asdict(c) for c in sorted(self.checks, key=lambda c: c.name)],
            "summary": self.summary(),
        }

    def to_json_bytes(self) -> bytes:
        return (
            json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
            + "\n"
        ).encode("ascii")

    def to_text(self) -> str:
        lines = []
        cfg = self.config
        lines.append(
            f"p={cfg['p']} n_max={cfg['n_max']} prec={cfg['prec']} "
            f"q={cfg['p']}^{cfg['q_ord']}*{cfg['q_unit']} "
            f"kappa={cfg['kappa_gamma']} seed={cfg['seed']}"
        )
        width = max((len(c.name) for c in self.checks), default=10)
        for c in sorted(self.checks, key=lambda c: c.name):
            res = "" if c.residual_valuation is None else f" v>={c.residual_valuation}"
            det = f"  {c.detail}" if c.detail else ""
            lines.append(f"{c.status.upper():14}{c.name.ljust(width)}  [{c.anchor}]{res}{det}")
        s = self.summary()
        lines.append(
            f"total={s['total']} pass={s['pass']} fail={s['fail']} "
            f"expected-fail={s['expected-fail']} skipped={s['skipped']}"
        )
        return "\n".join(lines) + "\n"


class _Session:
    """The lazily built stages of one run, each built by ``stage`` on
    first use.  A stage keeps its value, or the error it raised: a
    failed stage is built once and fails every check that needs it
    with the same message."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.ctx = PrimeContext(cfg["p"], cfg["prec"])
        self.tower = CycloTower(self.ctx, cfg["n_max"], cfg["kappa_gamma"])
        self.q = cm.TateParameter.make(self.ctx, cfg["q_ord"], cfg["q_unit"])
        self._stages = {}

    def stage(self, key, build, *args):
        """build(*args), run once per run under key; a failed build re-raises its error."""
        if key not in self._stages:
            try:
                self._stages[key] = build(*args), None
            except Exception as exc:  # noqa: BLE001 - kept for every reader
                self._stages[key] = None, exc
        value, error = self._stages[key]
        if error is not None:
            raise error
        return value

    @property
    def honda(self) -> HondaData:
        return self.stage("honda", HondaData.build, self.ctx, self.cfg["truncation_order"])

    @property
    def honda_report(self) -> dict:
        return self.stage("honda_report", check_honda, self.honda.ell)

    @property
    def fam(self) -> pts.PointFamily:
        return self.stage("fam", pts.build_points, self.honda, self.tower, self.cfg["n_max"])

    def h90(self, n: int) -> pts.H90Solution:
        return self.stage(("h90", n), pts.solve_h90, self.fam, n)

    def images(self, n: int) -> list:
        """The Coleman image of each functional at level n."""
        return self.stage(
            ("images", n), lambda: [cm.coleman_level(w, self.fam, n) for w in self.functionals(n)]
        )

    def functionals(self, n: int) -> list:
        seeds = range(self.cfg["seed"], self.cfg["seed"] + self.cfg["n_functionals"])
        seeded = cm.UnitFunctional.seeded
        return self.stage(
            ("functionals", n), lambda: [seeded(self.tower, n, self.q, i) for i in seeds]
        )


def run_suite(config: SuiteConfig) -> Report:
    cfg = config.resolved()
    report = Report(config=cfg)
    session = _Session(cfg)
    runners = {
        "honda": _run_honda,
        "points": _run_points,
        "prop2": _run_prop2,
        "coleman": _run_coleman,
        "coleman-negative-control": _run_negative_control,
        "tate": _run_tate,
        "mtt": _run_mtt,
    }
    for suite in ALL_SUITES:  # dependency order, independent of request order
        if suite in cfg["suites"]:
            runners[suite](session, report)
    if not cfg["timings"]:
        for c in report.checks:
            c.millis = 0
    return report


def _check(report, name, anchor, fn, status="pass", detail=""):
    """Run fn and record its residual under status and detail; any
    exception records a fail instead, with the error as its detail, and
    so does a pass whose fn measured nothing (returned None)."""
    t0 = time.monotonic()
    try:
        residual = fn()
    except PadicError as exc:
        status, detail, residual = "fail", str(exc), None
    except Exception as exc:  # noqa: BLE001 - recorded, process continues
        status, detail, residual = "fail", f"{type(exc).__name__}: {exc}", None
    else:
        if status == "pass" and residual is None:
            status, detail = "fail", "no residual measured"
    millis = int((time.monotonic() - t0) * 1000)
    report.checks.append(
        CheckResult(
            name=name,
            anchor=anchor,
            status=status,
            residual_valuation=residual,
            millis=millis,
            detail=detail,
        )
    )


def _run_honda(s: _Session, report: Report):
    ctx = s.ctx
    _check(
        report,
        "honda.frobenius-property",
        "honda:frobenius",
        lambda: s.honda_report["frobenius_min_valuation"],
    )
    _check(
        report,
        "honda.log-constant-and-derivative",
        "honda:logarithm",
        lambda: s.honda_report["deriv_min_valuation"],
    )
    _check(
        report,
        "honda.iota-integral",
        "honda:integral-isomorphism",
        lambda: ctx.require(s.honda.iota.is_integral()[1], "iota is not integral", 0),
    )
    _check(
        report,
        "honda.iota-inverse-integral",
        "honda:integral-isomorphism",
        lambda: inverse_integrality(s.honda.iota),
    )
    _check(
        report,
        "honda.log-of-inverse",
        "honda:integral-isomorphism",
        lambda: ctx.require(
            log_identity_residual(s.honda.ell, s.honda.iota), "ell' (1 + iota) != iota'"
        ),
    )
    _check(
        report,
        "honda.log-at-points",
        "honda:logarithm",
        lambda: ctx.require(
            log_at_points(s.honda.ell), "ell at p, p(1+p), p^2 misses its defining sum"
        ),
    )
    _check(
        report,
        "honda.epsilon-residual",
        "honda:epsilon",
        lambda: ctx.require(
            (s.honda.ell.eval_scalar(s.honda.epsilon) - ctx.p).min_valuation(),
            "ell(epsilon) - p does not vanish",
            ctx.prec,
        ),
    )
    _check(
        report,
        "honda.epsilon-first-digit",
        "honda:epsilon",
        lambda: ctx.require(
            (s.honda.epsilon - ctx.p).min_valuation(), "epsilon is not p mod p^2", 2
        ),
    )


def _run_points(s: _Session, report: Report):
    ctx = s.ctx
    levels = range(s.cfg["n_max"] + 1)

    def norm_tower():
        rep = pts.verify_norm_tower(s.fam)
        return min(
            [*rep["norm_residuals"].values(), *rep["trace_residuals"].values(), rep["d0_residual"]]
        )

    _check(report, "points.norm-tower", "prop:norm-compatible-system", norm_tower)
    for n in levels:
        _check(
            report,
            f"points.log-closed-form[n={n}]",
            "points:logarithm-closed-form",
            lambda n=n: pts.verify_log_formula(s.fam, n)["log_residual"],
        )
    _check(
        report,
        "points.two-route-agreement",
        "points:construction",
        lambda: pts.verify_two_routes(s.fam)["exp_route_residual"],
    )

    def delta_fixed():
        for n in levels:
            if not s.tower.is_delta_fixed(s.fam.c[n]):
                raise cm.PropertyFailure(f"c_{n} not Delta-fixed")
        return ctx.identity_floor

    _check(report, "points.delta-fixed", "points:construction", delta_fixed)

    def conj_norm(n, a):
        d = s.fam.d[n]
        nd = s.tower.norm_kn_to_qp(d.galois(a) if a != 1 else d)
        return ctx.require((nd - 1).min_valuation(), f"N(d_{n}^sigma) - 1 does not vanish")

    if s.cfg["n_max"] >= 1:
        _check(
            report,
            "points.conjugate-norms",
            "prop:norm-one",
            lambda: min(
                conj_norm(n, a)
                for n in levels[1:]
                for a in s.tower.gamma_orbit_exponents(n)[:3]
            ),
        )
    else:
        _check(
            report, "points.conjugate-norms", "prop:norm-one", lambda: None,
            "skipped", "needs n_max >= 1",
        )

    for n in levels:
        _check(
            report,
            f"points.generation[n={n}]",
            "prop:generation",
            lambda n=n: pts.verify_generation(s.fam, n)["index_valuation"]
            or ctx.prec,
        )


def _run_prop2(s: _Session, report: Report):
    for n in range(s.cfg["n_max"] + 1):
        _check(
            report,
            f"prop2.h90-certificate[n={n}]",
            "points:hilbert90",
            lambda n=n: s.h90(n).residual_valuation,
        )
        _check(
            report,
            f"prop2.congruence[n={n}]",
            "prop:exponent-congruence",
            lambda n=n: pts.verify_prop2(s.h90(n), s.tower)["residual_valuation"],
        )
    # the pinned class e_1 = 2 mod 3 belongs to the generator kappa = 1 + p
    if s.cfg["p"] == 3 and s.cfg["n_max"] >= 1 and s.cfg["kappa_gamma"] == 4:
        def e1_class():
            e = s.h90(1).e
            if e % 3 != 2:
                raise cm.PropertyFailure(f"e_1 = {e} is not 2 mod 3")
            return 1

        _check(report, "prop2.e1-class", "prop:exponent-congruence", e1_class)


def _run_coleman(s: _Session, report: Report):
    # each battery is the least residual over its members; an empty
    # battery has no minimum and so reports fail
    for n in range(1, s.cfg["n_max"] + 1):
        ws = s.functionals(n)
        _check(
            report,
            f"coleman.trivial-zero[n={n}]",
            "coleman:trivial-zero",
            lambda n=n: min(map(cm.verify_trivial_zero, s.images(n))),
        )
        _check(
            report,
            f"coleman.convolution[n={n}]",
            "coleman:dual-exponential-convolution",
            lambda n=n, ws=ws: min(
                cm.verify_convolution(w, s.fam, col) for w, col in zip(ws[:5], s.images(n))
            ),
        )

        def abel(n=n, ws=ws):
            # the identity holds for every functional, so the battery
            # includes one with the admissibility constraint broken; the
            # image does not depend on alpha, so it shares ws[0]'s
            broken = cm.UnitFunctional(s.tower, ws[0].densities, ws[0].alpha + 1)
            return min(
                cm.derivative_rep(w, s.h90(n), col)[1]["abel_residual"]
                for w, col in [*zip(ws, s.images(n)), (broken, s.images(n)[0])]
            )

        _check(report, f"coleman.abel-identity[n={n}]", "derivative:abel", abel)
        _check(
            report,
            f"coleman.valuation-slope[n={n}]",
            "eq:valuation-slope",
            lambda ws=ws: min(cm.verify_key2(w, s.q) for w in ws),
        )
        _check(
            report,
            f"coleman.derivative-congruence[n={n}]",
            "thm:derivative-leading-coefficient",
            lambda n=n, ws=ws: min(
                cm.verify_dcol(w, s.h90(n), s.q)["residual_valuation"]
                for w in ws
            ),
        )

        if s.cfg["n_max"] >= 2:
            _check(
                report,
                f"coleman.level-compatibility[{n}->{n-1}]",
                "coleman:projection-compatibility",
                lambda n=n, ws=ws: cm.verify_level_compatibility(ws[0], s.fam, s.images(n)[0]),
            )
        _check(
            report,
            f"coleman.character-sums[n={n}]",
            "eq:gauss-sum",
            lambda n=n: min(
                cm.verify_char_sum(s.fam, chi)
                for chi in [
                    *cm.primitive_characters(s.tower, n),
                    cm.CharacterData(s.tower, n, 0),
                ]
            ),
        )
        _check(
            report,
            f"coleman.gauss-product[n={n}]",
            "eq:gauss-sum",
            lambda n=n: min(
                cm.verify_gauss_product(chi) for chi in cm.primitive_characters(s.tower, n)
            ),
        )


def _run_negative_control(s: _Session, report: Report):
    name, anchor = "coleman.negative-control", "coleman:levelwise-vs-compatible"
    if s.cfg["p"] != 3 or s.cfg["n_max"] < 2:
        _check(report, name, anchor, lambda: None, "skipped", "defined at p=3, n=2")
        return
    # negative_control raises unless the documented violation occurs, so
    # its residual is reported as expected-fail, never silently skipped
    _check(
        report,
        name,
        anchor,
        lambda: cm.negative_control(s.fam, s.h90(2), s.q)["difference_valuation"],
        "expected-fail",
        "mod-p^2 derivative comparison violated, as documented",
    )


def _run_tate(s: _Session, report: Report):
    ctx = s.ctx

    # the sampling grid, and s_1, s_3, s_5 and the a-invariants of each q,
    # are stages of the run
    def grid():
        return s.stage("tate.grid", tt.default_grid, ctx)

    def sums(q):
        return s.stage(("tate.sums", q.ord, q.unit), lambda: tt.sk_values(q.value()))

    def a_inv(q):
        return s.stage(("tate.a_inv", q.ord, q.unit), lambda: tt.a_invariants(q.value(), sums(q)))

    def point(u, q):
        return tt.uniformize_point(u, q, a_inv(q), sums(q)[0])

    def leading():
        a4s, a6s = tt.a_series_coefficients(24)
        if a4s[1] != -5 or a6s[1] != -1:
            raise cm.PropertyFailure(
                f"leading q-coefficients ({a4s[1]}, {a6s[1]}) are off"
            )
        return ctx.prec

    _check(report, "tate.a-leading-coefficients", "tate:q-expansion", leading)

    def integrality():
        return ctx.require(
            min(
                min(a4.min_valuation(), a6.min_valuation())
                for a4, a6 in map(a_inv, grid()[0])
            ),
            "a-invariants not integral",
            0,
        )

    _check(report, "tate.a-integrality", "tate:q-expansion", integrality)

    def residual_grid():
        qs, us = grid()

        def residuals():
            for q in qs:
                for u in us:
                    if not (u - 1).is_zero:
                        _, _, resid = point(u, q)
                        yield ctx.require(
                            resid.min_valuation(),
                            f"Weierstrass residual at q={q.ord},{q.unit} does not vanish",
                        )

        return min(residuals())

    _check(report, "tate.weierstrass-residual-grid", "tate:uniformization", residual_grid)

    def symmetry():
        qs, us = grid()
        q, u = qs[1], us[0]
        x1, _, _ = point(u, q)
        x2, _, _ = point(u.inverse(), q)
        return ctx.require((x1 - x2).min_valuation(), "u <-> 1/u symmetry fails")

    _check(report, "tate.inversion-symmetry", "tate:uniformization", symmetry)

    def formal_iso():
        return min(
            min(rep["roundtrip_residual"], rep["pullback_residual"])
            for rep in (tt.verify_formal_iso(ctx, q) for q in grid()[0])
        )

    _check(report, "tate.formal-group-identification", "tate:formal-iso", formal_iso)


def _run_mtt(s: _Session, report: Report):
    ctx = s.ctx

    def mtt(q):
        lratio, kappa = s.cfg["lratio"], s.cfg["kappa_gamma"]
        return s.stage(("mtt", q.ord, q.unit), tt.mtt_report, ctx, q, lratio, kappa)

    def bookkeeping():
        return mtt(s.q)["generator_invariance_residual"]

    _check(report, "mtt.derivative-bookkeeping", "mtt:derivative", bookkeeping)

    def scaling():
        q2 = cm.TateParameter.make(ctx, 2 * s.q.ord, s.q.unit * s.q.unit)
        # q -> q^2 leaves log/ord invariant
        return ctx.require(
            (mtt(s.q)["ds_prediction"] - mtt(q2)["ds_prediction"]).min_valuation(),
            "squaring covariance fails",
        )

    _check(report, "mtt.parameter-scaling", "mtt:derivative", scaling)


def emit_report(report: Report, format: str = "json", path=None):
    """Serialise (and optionally write) a report; returns the bytes/str."""
    if format == "json":
        payload = report.to_json_bytes()
        if path is not None:
            with open(path, "wb") as fh:
                fh.write(payload)
        return payload
    if format == "text":
        payload = report.to_text()
        if path is not None:
            with open(path, "w") as fh:
                fh.write(payload)
        return payload
    raise ConfigError(f"unknown format {format!r}")
