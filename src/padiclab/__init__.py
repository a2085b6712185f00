"""padiclab: exact p-adic verification of cyclotomic local points,
finite-level Coleman maps and the Tate curve uniformization."""

from .core import (
    ConvergenceError,
    InvalidInputError,
    PadicError,
    PadicScalar,
    PrecisionError,
    PrimeContext,
    PropertyFailure,
    hensel_root,
    iwasawa_log,
    padic_exp,
    teichmuller,
)
from .series import (
    TruncatedSeries,
    frobenius_substitute,
    geometric_inverse,
    log_one_plus_x,
)
from .cyclotomic import CycloElement, CycloField, CycloTower
from .honda import HondaData, build_ell, build_iota, check_honda, default_truncation, formal_add, solve_epsilon
from .points import (
    H90Solution,
    PointFamily,
    UnitLogLattice,
    build_points,
    closed_form_log,
    solve_h90,
    verify_generation,
    verify_log_formula,
    verify_norm_tower,
    verify_prop2,
)
from .coleman import (
    CharacterData,
    GroupRingElement,
    TateParameter,
    UnitFunctional,
    coleman_level,
    derivative_rep,
    gauss_sum,
    negative_control,
    pair,
    primitive_characters,
    verify_char_sum,
    verify_convolution,
    verify_dcol,
    verify_key2,
    verify_level_compatibility,
    verify_trivial_zero,
)
from .tate import (
    a_invariants,
    a_series_coefficients,
    formal_log_weierstrass,
    mtt_report,
    sk_coefficients,
    sk_value,
    sk_values,
    uniformize_point,
    verify_formal_iso,
    weierstrass_residual,
)
from .runner import CheckResult, Report, SuiteConfig, emit_report, run_suite

__version__ = "0.1.0"
