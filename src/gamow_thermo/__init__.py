"""Resonance poles, survival dynamics and complex entropy of unstable states."""

from .numerics import (
    QuadratureSpec,
    RootSearchConfig,
    NumericalFailure,
    NonConvergence,
    IntegrandError,
    MaxIterExceeded,
    SingularStep,
    StepUnderflow,
    InvalidElements,
    integrate,
    principal_values,
    complex_newton,
    ode_evolve,
    derivative,
)
from .friedrichs import (
    ContinuationUnavailable,
    PoleInUpperHalfPlane,
    PoleOutsideSupport,
    FormFactor,
    FlatCutoff,
    RationalFormFactor,
    TabulatedFormFactor,
    FriedrichsModel,
    ResonancePole,
    ResolvedPole,
    DiscretizedSpectrum,
    self_energy,
    find_pole,
    perturbative_pole,
    spectral_density,
    discretize,
)
from .decay import (
    InsufficientSpan,
    UnitarityViolation,
    SurvivalSeries,
    RegimeReport,
    DensityTable,
    density_table,
    survival_amplitude,
    survival_probability,
    gamow_approximation,
    zeno_check,
    classify_regimes,
)
from .thermo import (
    IllDefinedBracket,
    NonFiniteEntropy,
    ThermoPoint,
    ComplexEntropy,
    complex_entropy,
    entropy_via_log_identity,
    canonical_entropy,
    naive_partition_function,
)
from .evolution import (
    Mode,
    LadderCoefficient,
    MonotonicityTable,
    thermal_evolve,
    time_evolve,
    temperature_monotonicity,
    verify_ode_solutions,
)

__version__ = "0.1.0"
