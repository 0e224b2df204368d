"""delaycert: stability certificates and decay-rate bounds for positive
systems with time-varying (possibly unbounded) delays, validated by direct
simulation of the delayed dynamics."""

from .model import (
    CONTINUOUS,
    DISCRETE,
    Certificate,
    Dilation,
    LevelSetProbe,
    PolyVectorField,
    ScalarPoly,
    SystemModel,
    dilate,
    is_homogeneous,
    jacobian,
    lyapunov_v,
)
from .delays import (
    AlternatingParityDelay,
    ConstantDelay,
    ConstantStepDelay,
    CustomDelay,
    DelayModel,
    LogLagDelay,
    PiecewiseLinearDelay,
    ProportionalDelay,
    ProportionalStepDelay,
    SinusoidalDelay,
    history_depth,
)
from .checks import (
    CheckResult,
    DelayAssumptionReport,
    HypothesisReport,
    check_cooperative,
    check_delay_assumption,
    check_homogeneity,
    check_model,
    check_nondecreasing,
    check_positivity_condition,
)
from .certify import (
    HypothesisError,
    find_certificate_linear,
    find_certificate_nonlinear,
    hurwitz_metzler,
    linear_model,
    margins,
    spectral_radius,
    verify_certificate,
)
from .rates import (
    DecayBound,
    MissingLimitError,
    beta_bound,
    eta_bound,
    mu_condition_check,
    solve_monotone,
    theta_bound,
    upper_envelope,
    upper_solution_theta,
    xi_bound,
)
from .simulate import (
    EnvelopeReport,
    HistoryUnderrunError,
    Trajectory,
    constant_history,
    envelope_check,
    export_csv,
    level_set_descent,
    simulate_continuous,
    simulate_discrete,
    tabulated_history,
)
from .config import ConfigError, ExperimentConfig, load_config, parse_config

__version__ = "0.1.0"
