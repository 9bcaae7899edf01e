"""Toolkit for population oscillations in a driven, damped bosonic junction.

Two condensate modes coupled by tunneling reduce to two degrees of freedom:
the fractional population imbalance z and the relative phase phi.  This
package integrates that reduced system under a harmonically modulated tilt
with optional damping, analyzes the resulting dynamics (stroboscopic
sections, spectra, attractor classification, Lyapunov estimates), and
evaluates separatrix stability integrals that predict where driven chaos
sets in.
"""

from .analysis import (
    AttractorReport,
    Spectrum,
    detect_frequency_locking,
    dominant_bin,
    lyapunov_estimate,
    power_spectrum,
    time_average_z,
)
from .config import RunConfig, merge_sources, parse_config, parse_kv_text
from .errors import (
    BjjError,
    ConfigError,
    QuadratureError,
    SingularityError,
    StepUnderflowError,
)
from .integrate import (
    SectionPoints,
    StepControl,
    Trajectory,
    advance,
    default_control,
    integrate_adaptive,
    sample_stroboscopic,
    section_from_trajectory,
)
from .model import (
    TOL_SEP,
    Z_GUARD,
    DampingKind,
    MotionClass,
    PhaseState,
    PotentialShape,
    Regime,
    TrapParams,
    classify_regime,
    effective_energy,
    effective_potential,
    hamiltonian,
    make_rate,
    trap_asymmetry,
)
from .separatrix import (
    SeparatrixFrame,
    StabilityCurve,
    basis_z11,
    basis_z12,
    drive_coefficient,
    duffing_residual,
    epsilon1,
    frame_from_initial,
    melnikov_closed,
    melnikov_numeric,
    running_stability_integral,
    separatrix_accel,
    separatrix_orbit,
    separatrix_velocity,
    stability_curve,
)
from .twomode import (
    CrosscheckReport,
    TwoModeState,
    TwoModeTrajectory,
    amplitudes_from_phase,
    crosscheck_max_dz,
    integrate_twomode,
    project_trajectory,
)

__version__ = "0.1.0"

__all__ = [
    "AttractorReport",
    "BjjError",
    "ConfigError",
    "CrosscheckReport",
    "DampingKind",
    "MotionClass",
    "PhaseState",
    "PotentialShape",
    "QuadratureError",
    "Regime",
    "RunConfig",
    "SectionPoints",
    "SeparatrixFrame",
    "SingularityError",
    "Spectrum",
    "StabilityCurve",
    "StepControl",
    "StepUnderflowError",
    "TOL_SEP",
    "Trajectory",
    "TrapParams",
    "TwoModeState",
    "TwoModeTrajectory",
    "Z_GUARD",
    "advance",
    "amplitudes_from_phase",
    "basis_z11",
    "basis_z12",
    "classify_regime",
    "crosscheck_max_dz",
    "default_control",
    "detect_frequency_locking",
    "dominant_bin",
    "drive_coefficient",
    "duffing_residual",
    "effective_energy",
    "effective_potential",
    "epsilon1",
    "frame_from_initial",
    "hamiltonian",
    "integrate_adaptive",
    "integrate_twomode",
    "lyapunov_estimate",
    "make_rate",
    "melnikov_closed",
    "melnikov_numeric",
    "merge_sources",
    "parse_config",
    "parse_kv_text",
    "power_spectrum",
    "project_trajectory",
    "running_stability_integral",
    "sample_stroboscopic",
    "section_from_trajectory",
    "separatrix_accel",
    "separatrix_orbit",
    "separatrix_velocity",
    "stability_curve",
    "time_average_z",
    "trap_asymmetry",
    "__version__",
]
