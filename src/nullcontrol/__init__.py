"""nullcontrol: moment-method null-control synthesis and minimal-time
diagnostics for parabolic spectral models."""

from . import errors
from .biortho_time import (
    BiorthogonalFamily,
    ExponentialSpan,
    build_biortho,
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
    blaschke_profile,
    bohr_profile,
    check_hypotheses,
    condensation_profile,
    from_rule,
)
from .synthesis import (
    ControlPlan,
    gramian_control_2x2,
    sample_plan,
    synthesize,
    verify_moments,
)

__version__ = "0.1.0"
