"""A pass is evidence only if the check fails on a wrong input.

Each entry adds p^k at one place in one construction, by monkeypatching
the constructor, and names the checks that must then fail under its
configuration; every other check keeps its status.  An entry with k above
every claimed precision must change no status.  The tate entries run the
tate suite at p = 3, N = 20; the ell, iota, epsilon, d_n, Hilbert-90,
density and Coleman-image entries run every suite at
(p, n_max, N) = (3, 2, 12) with four functionals.
"""

import inspect
from fractions import Fraction

import pytest

from padiclab import coleman, honda, points, tate
from padiclab.runner import SuiteConfig, run_suite
from padiclab.series import TruncatedSeries
from conftest import from_coords

P, N = 3, 20
CONFIGS = {
    "tate": SuiteConfig(p=P, n_max=0, prec=N, suites=("tate",)),
    "tower": SuiteConfig(p=P, n_max=2, prec=12, n_functionals=4),
}
NEGATIVE_CONTROL = "coleman.negative-control"
# the truncation order of the tate suite's series
TATE_ORDER = inspect.signature(tate.verify_formal_iso).parameters["order"].default


def bump_t(m, k):
    """t_m + p^k in the uniformizing series, after the solve."""

    def patch(monkeypatch):
        solve = tate.multiplicative_parameter_series

        def bumped(ctx, omega, order):
            coeffs = list(solve(ctx, omega, order).coeffs)
            coeffs[m] = coeffs[m] + P**k
            return TruncatedSeries.from_scalars(ctx, coeffs)

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


def bump_ell(m, k):
    """ell_m + p^k, after the solve: check_honda, epsilon and every later
    stage read the perturbed ell."""

    def patch(monkeypatch):
        build = honda.build_ell

        def bumped(ctx, order):
            coeffs = list(build(ctx, order).coeffs)
            coeffs[m] = coeffs[m] + P**k
            return TruncatedSeries.from_scalars(ctx, coeffs)

        monkeypatch.setattr(honda, "build_ell", bumped)

    return patch


def bump_iota(m, k, scale=1):
    """iota_m times ``scale``, plus p^k, after the solve."""

    def patch(monkeypatch):
        build = honda.build_iota

        def bumped(ctx, order):
            coeffs = list(build(ctx, order).coeffs)
            coeffs[m] = coeffs[m] * scale + Fraction(P) ** k
            return TruncatedSeries.from_scalars(ctx, coeffs)

        monkeypatch.setattr(honda, "build_iota", bumped)

    return patch


def bump_epsilon(k):
    """epsilon + p^k, after the Newton solve: ell(epsilon) = p and every
    d_n read the perturbed root."""

    def patch(monkeypatch):
        solve = honda.solve_epsilon
        monkeypatch.setattr(honda, "solve_epsilon", lambda ell, ctx: solve(ell, ctx) + P**k)

    return patch


def bump_d(n, j, k):
    """Coordinate j of d_n + p^k, after build_points."""

    def patch(monkeypatch):
        build = points.build_points

        def bumped(honda, tower, n_max):
            fam = build(honda, tower, n_max)
            coords = list(fam.d[n].coords)
            coords[j] = coords[j] + P**k
            fam.d[n] = from_coords(fam.d[n].field, coords)
            return fam

        monkeypatch.setattr(points, "build_points", bumped)

    return patch


def bump_h90(n, shift_e=0, j=0, k=None):
    """The Hilbert-90 solution at level n, before its certificates are
    measured: e_n + shift_e, and coordinate j of u_n + p^k with
    x_n = pi_n^(e_n) u_n rebuilt from it."""

    def patch(monkeypatch):
        certified = points._certified

        def bumped(fam, m, e, u_n, x_n, searched):
            if m == n:
                e += shift_e
                if k is not None:
                    coords = list(u_n.coords)
                    coords[j] = coords[j] + P**k
                    u_n = from_coords(u_n.field, coords)
                    x_n = fam.tower.uniformizer(n) ** e * u_n
            return certified(fam, m, e, u_n, x_n, searched)

        monkeypatch.setattr(points, "_certified", bumped)

    return patch


def bump_x(n, j, k):
    """Coordinate j of the Hilbert-90 solution x_n + p^k, before its
    certificates are measured; e_n and u_n are kept."""

    def patch(monkeypatch):
        certified = points._certified

        def bumped(fam, m, e, u_n, x_n, searched):
            if m == n:
                coords = list(x_n.coords)
                coords[j] = coords[j] + P**k
                x_n = from_coords(x_n.field, coords)
            return certified(fam, m, e, u_n, x_n, searched)

        monkeypatch.setattr(points, "_certified", bumped)

    return patch


def bump_density(n, j, k):
    """Coordinate j of the level-n density of every seeded functional
    + p^k, after its traces to the lower levels are taken."""

    def patch(monkeypatch):
        seeded = coleman.UnitFunctional.seeded

        def bumped(cls, tower, top, q, seed):
            w = seeded(tower, top, q, seed)
            if top >= n:
                coords = list(w.densities[n].coords)
                coords[j] = coords[j] + P**k
                w.densities[n] = from_coords(w.densities[n].field, coords)
            return w

        monkeypatch.setattr(coleman.UnitFunctional, "seeded", classmethod(bumped))

    return patch


def bump_image(n, i, k):
    """Coefficient i of every level-n Coleman image + p^k, after the
    trace pairings: the convolution and the Abel sums recompute the image
    their own way, and the trivial zero and the projection read it."""

    def patch(monkeypatch):
        build = coleman.coleman_level

        def bumped(w, fam, m):
            col = build(w, fam, m)
            if m == n:
                col.coeffs[i] = col.coeffs[i] + P**k
            return col

        monkeypatch.setattr(coleman, "coleman_level", bumped)

    return patch


# the class e_1 is read by the exponent congruences and, through
# N(x_1) = N(u_1) N(pi_1)^(e_1), by the derivative congruence
E1_READERS = {"prop2.congruence[n=1]", "prop2.e1-class", "coleman.derivative-congruence[n=1]"}
# a wrong u_1 fails the certificate, so every reader of the level-1
# solution fails with it
H90_1_READERS = E1_READERS | {
    "prop2.h90-certificate[n=1]",
    "coleman.abel-identity[n=1]",
    "coleman.derivative-congruence[n=1]",
}

# every check that reads d_2, through its log, its H90 solution or its
# Coleman image
D2_READERS = {
    "points.norm-tower",
    "points.log-closed-form[n=2]",
    "points.generation[n=2]",
    "points.conjugate-norms",
    "prop2.h90-certificate[n=2]",
    "prop2.congruence[n=2]",
    "coleman.abel-identity[n=2]",
    "coleman.character-sums[n=2]",
    "coleman.convolution[n=2]",
    "coleman.derivative-congruence[n=2]",
    "coleman.level-compatibility[2->1]",
    "coleman.trivial-zero[n=2]",
    NEGATIVE_CONTROL,
}

# every d_n is built from iota at zeta_n - 1 and at epsilon, the root of
# ell = p, so a wrong ell or iota moves every point, and with it every
# log, Hilbert-90 solution and Coleman image; inside the honda suite only
# ell' (1 + iota) = iota' reads both
IOTA_READERS = {
    "honda.log-of-inverse",
    "points.norm-tower",
    "points.log-closed-form[n=0]",
    "points.log-closed-form[n=1]",
    "points.log-closed-form[n=2]",
    "points.two-route-agreement",
    "points.conjugate-norms",
    "prop2.h90-certificate[n=0]",
    "prop2.h90-certificate[n=1]",
    "prop2.h90-certificate[n=2]",
    "prop2.congruence[n=0]",
    "prop2.congruence[n=1]",
    "prop2.congruence[n=2]",
    "prop2.e1-class",
    "coleman.abel-identity[n=1]",
    "coleman.abel-identity[n=2]",
    "coleman.character-sums[n=1]",
    "coleman.character-sums[n=2]",
    "coleman.derivative-congruence[n=1]",
    "coleman.derivative-congruence[n=2]",
    "coleman.level-compatibility[1->0]",
    "coleman.level-compatibility[2->1]",
    "coleman.trivial-zero[n=1]",
    NEGATIVE_CONTROL,
}
# a wrong ell also misses its defining sum at the three points
ELL_READERS = IOTA_READERS | {"honda.log-at-points"}
# every d_n carries the factor 1 + iota(epsilon), so a wrong epsilon fails
# every reader of the points that a wrong iota fails, and the level-2
# trivial zero too; inside the honda suite only ell(epsilon) = p reads it
EPSILON_READERS = (IOTA_READERS - {"honda.log-of-inverse"}) | {
    "honda.epsilon-residual",
    "coleman.trivial-zero[n=2]",
}
# iota_1 = p fails the premise of the inverse's integrality as well as
# every reader of iota, and moves 1 + iota(epsilon) enough for the level-2
# trivial zero too
NON_UNIT_IOTA_1 = IOTA_READERS | {"honda.iota-inverse-integral", "coleman.trivial-zero[n=2]"}
# a non-integral iota has no points: build_points refuses d_1's product, so
# every check that reads the points fails, the negative control included
# (a fail, not its expected-fail), and only the Gauss sums and slopes stand
NON_INTEGRAL_IOTA = NON_UNIT_IOTA_1 | {
    "honda.iota-integral",
    "points.delta-fixed",
    "points.generation[n=0]",
    "points.generation[n=1]",
    "points.generation[n=2]",
    "coleman.convolution[n=1]",
    "coleman.convolution[n=2]",
}

# a wrong x_2 fails its certificate, so the level-2 solve raises and every
# reader of that solution fails with it, the negative control included (a
# fail, not its expected-fail)
H90_2_READERS = {
    "prop2.h90-certificate[n=2]",
    "prop2.congruence[n=2]",
    "coleman.abel-identity[n=2]",
    "coleman.derivative-congruence[n=2]",
    NEGATIVE_CONTROL,
}
# the trace pairings read a level-2 density only through Tr(x E_2), so the
# image, its Abel identity and its trivial zero move together and agree;
# the group-ring convolution collapses to those traces only for E_2 fixed
# by Delta, which E_2 + p^5 zeta^3 is not, and the projection to level 1
# meets E_1, no longer the trace of E_2 (zeta^3 is zeta_9, of nonzero
# trace to K_1).  A constant c added to E_2 moves no check: every d_2 has
# norm one, so Tr(c log d^sigma) = 0 and the image does not move.
DENSITY_2_READERS = {"coleman.convolution[n=2]", "coleman.level-compatibility[2->1]"}

# a level-2 Coleman image is read by its trivial zero and by the Abel
# identity, recomputed as a group-ring product by the convolution check,
# projected by the level compatibility, and, for the trace-type
# functional, checked to vanish by the negative control
IMAGE_2_READERS = {
    "coleman.trivial-zero[n=2]",
    "coleman.convolution[n=2]",
    "coleman.abel-identity[n=2]",
    "coleman.level-compatibility[2->1]",
    NEGATIVE_CONTROL,
}

PERTURBATIONS = [
    ("t_3 + p^5", "tate", bump_t(3, 5), {"tate.formal-group-identification"}),
    ("a4(q = p(1+p)) + p^5", "tate", bump_a4(P * (1 + P), 5), {"tate.weierstrass-residual-grid"}),
    ("t_3 + p^(N+4)", "tate", bump_t(3, N + 4), set()),
    # the last giant steps of lambda(t) and omega(t) are the shortest, yet
    # they still read t's top coefficients
    ("t_(order-2) + p^5", "tate", bump_t(TATE_ORDER - 2, 5), {"tate.formal-group-identification"}),
    ("t_(order-2) + p^(N+4)", "tate", bump_t(TATE_ORDER - 2, N + 4), set()),
    ("ell_2 + p^5", "tower", bump_ell(2, 5), ELL_READERS),
    ("iota_2 + p^5", "tower", bump_iota(2, 5), IOTA_READERS),
    # ell_400 x^400 at the smallest point valuation 1/18 has valuation 25,
    # so no point sees it, but ell' (1 + iota) = iota' reads it over the
    # whole order M = 404 (residual 3), as it does iota_400 + p^3
    ("ell_400 + p^3", "tower", bump_ell(400, 3), {"honda.log-of-inverse"}),
    ("iota_400 + p^3", "tower", bump_iota(400, 3), {"honda.log-of-inverse"}),
    # iota_1 = p: the inverse's integrality loses its premise
    ("iota_1 = p", "tower", bump_iota(1, 1, scale=0), NON_UNIT_IOTA_1),
    # iota_5 + 1/p: iota is not integral, so neither premise of the inverse's
    # integrality holds, ell' (1 + iota) = iota' misses at valuation -1, and
    # the points build refuses d_1's product before its root
    ("iota_5 + 1/p", "tower", bump_iota(5, -1), NON_INTEGRAL_IOTA),
    ("epsilon + p^5", "tower", bump_epsilon(5), EPSILON_READERS),
    # epsilon is solved to wprec - 2 = 34 digits, so p^30 does move it
    ("epsilon + p^30", "tower", bump_epsilon(30), set()),
    ("d_2[3] + p^5", "tower", bump_d(2, 3, 5), D2_READERS),
    ("d_2[3] + p^30", "tower", bump_d(2, 3, 30), set()),
    ("e_1 + 1", "tower", bump_h90(1, shift_e=1), E1_READERS),
    ("u_1[0] + p^5", "tower", bump_h90(1, k=5), H90_1_READERS),
    ("u_1[0] + p^30", "tower", bump_h90(1, k=30), set()),
    # x_2 = pi_2^(e_2) u_2 is one power_product
    ("x_2[1] + p^5", "tower", bump_x(2, 1, 5), H90_2_READERS),
    ("x_2[1] + p^30", "tower", bump_x(2, 1, 30), set()),
    ("E_2[3] + p^5", "tower", bump_density(2, 3, 5), DENSITY_2_READERS),
    ("E_2[3] + p^30", "tower", bump_density(2, 3, 30), set()),
    ("col_2[1] + p^5", "tower", bump_image(2, 1, 5), IMAGE_2_READERS),
    ("col_2[1] + p^30", "tower", bump_image(2, 1, 30), set()),
]


def _statuses(report):
    return {c.name: c.status for c in report.checks}


@pytest.fixture(scope="module")
def baselines():
    """Unperturbed statuses per configuration, each run once."""
    runs = {}

    def baseline(name):
        if name not in runs:
            statuses = _statuses(run_suite(CONFIGS[name]))
            # everything passes; the negative control, where run, fails as expected
            rest = dict(statuses)
            assert rest.pop(NEGATIVE_CONTROL, "expected-fail") == "expected-fail"
            assert set(rest.values()) == {"pass"}
            runs[name] = statuses
        return runs[name]

    return baseline


@pytest.mark.parametrize(
    "config, patch, failing",
    [entry[1:] for entry in PERTURBATIONS],
    ids=[entry[0] for entry in PERTURBATIONS],
)
def test_perturbation_fails_the_named_checks(baselines, monkeypatch, config, patch, failing):
    baseline = baselines(config)
    patch(monkeypatch)
    got = _statuses(run_suite(CONFIGS[config]))
    assert {name for name, status in got.items() if status == "fail"} == failing
    assert {name: s for name, s in got.items() if name not in failing} == {
        name: s for name, s in baseline.items() if name not in failing
    }
