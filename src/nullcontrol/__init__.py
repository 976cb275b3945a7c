"""nullcontrol: moment-method null-control synthesis and minimal-time
diagnostics for parabolic spectral models."""

from . import errors
from .biortho_space import VectorFamily, biorthogonalize, gram, smallest_eigenvalue
from .biortho_time import (
    BiorthogonalFamily,
    ExponentialSpan,
    build_biortho,
    build_biortho_jordan,
    cauchy_inverse_oracle,
    exp_gram,
    norm_growth_fit,
    pair_with_exponential,
)
from .generators import make_rule
from .grushin import (
    CrossSectionMode,
    grushin_tstar_profile,
    observation_integral,
    solve_mode,
)
from .hautus import (
    TestVector,
    inequality_ratio,
    tstar_estimate,
    tstar_gap_profile,
    tstar_jordan_profile,
    tstar_observation_profile,
)
from .models import (
    Block2x2,
    ParabolicModel,
    PiecewiseConstant,
    academic_lf,
    block_2x2,
    cascade_boundary_q,
    cascade_internal_q,
    harmonic_oscillator,
    pointwise_heat,
    two_diffusion_boundary,
    two_diffusion_pointwise,
)
from .observations import Scalar, SineSeries
from .report import ProfileReport, make_profile
from .spectral import (
    SpectralSequence,
    blaschke_log_wprime,
    blaschke_profile,
    bohr_profile,
    check_hypotheses,
    condensation_profile,
    from_rule,
    log_E_prime,
    log_eprime_single_family,
    log_eprime_two_family,
    normal_order,
)
from .synthesis import (
    ControlPlan,
    gramian_control_2x2,
    moment_rhs,
    sample_plan,
    synthesize,
    synthesize_jordan,
    synthesize_multiple,
    synthesize_simple,
    terminal_projection,
    verify_moments,
)

__version__ = "0.1.0"
