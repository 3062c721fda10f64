"""Coherence of quantum states relative to general measurements: measure
values, certified upper bounds, discrimination identities, uncertainty
relations, and exact-vs-sampled Haar averages."""

from .bounds import (
    BoundReport,
    bound_b1,
    bound_b2,
    bound_b3,
    figure1_reference_bounds,
    figure1_state,
    figure2_reference_bounds,
    figure2_state,
    holder_bound,
    holder_bound_22,
    pair_bounds,
)
from .errors import (
    AlphaOutOfRangeError,
    BetaNonPositiveError,
    ConvergenceFailureError,
    DegenerateEnsembleError,
    DimensionMismatchError,
    DomainError,
    EmptyEnsembleError,
    InvalidExponentsError,
    NegativeEigenvalueError,
    NotHermitianError,
    NotSquareError,
    NotUnitaryError,
    NumericError,
    PovmcohError,
    SingularSumError,
    ValidationError,
    XOutOfRangeError,
    ZOutOfRangeError,
)
from .haar import (
    HaarAverageResult,
    McEstimate,
    haar_average,
    haar_average_l1_bound,
    haar_average_relative_entropy,
    haar_average_tsallis,
    haar_moment,
    monte_carlo_average,
    tsallis_half_trace_formula,
)
from .lsm import (
    IdentityCheck,
    LsmInstance,
    StatePovmResult,
    build_lsm,
    discrimination_identity_check,
    ensemble_from_measurement,
    measurement_from_ensemble,
)
from .measures import (
    CoherenceResult,
    IncoherenceReport,
    is_povm_incoherent,
    l1_coherence,
    relative_entropy_coherence,
    tsallis_coherence,
)
from .objects import (
    DensityMatrix,
    Ensemble,
    Povm,
    PureState,
    Violation,
    haar_random_pure,
    projective_povm,
    random_povm,
    validate,
)
from .uncertainty import (
    UncertaintyReport,
    overlap_constant,
    pure_state_bound,
    refined_overlap_constant,
    uncertainty_report,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
