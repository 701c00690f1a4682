"""Statistical-query learning of quantum states from Pauli measurement data."""

__version__ = "0.1.0"

from .pauli import (
    BudgetExceeded,
    DimensionMismatch,
    PauliMeasurement,
    PauliOperator,
    commutes,
)
from .stabilizer import (
    Membership,
    StabilizerGroup,
    enumerate_stabilizer_groups,
    random_stabilizer_group,
    signed_intersection_counts,
)
from .pconcept import (
    EXACT,
    BlochVector,
    Exact,
    ExactUnavailable,
    FiniteWeighted,
    HaarSingleQubitProduct,
    MaximallyMixed,
    MonteCarlo,
    MonteCarloEstimate,
    ProductState,
    SingleQubitProjector,
    StabilizerState,
    UniformParity,
    UniformPauli,
    f_value,
    inner_product,
    parity_index,
    parity_measurement,
    squared_loss,
)
from .oracle import (
    AdversarialCallback,
    BoundedChannelAbsorbingOracle,
    BoundedChannelNoise,
    ClassificationCorrectedOracle,
    ClassificationNoise,
    DefaultAdversary,
    DepolarizingCorrectedOracle,
    DepolarizingNoise,
    EmpiricalFromSamples,
    ExactPolicy,
    MaliciousAbsorbingOracle,
    MaliciousNoise,
    NoNoise,
    OracleConfig,
    RandomWithinTau,
    SQQuery,
    StatisticalQueryOracle,
    ToleranceExhausted,
    UnboundedQuery,
    draw_validation_set,
    eta_grid_search,
)
from .learners import (
    LearnedHypothesis,
    LPNInstance,
    exhaustive_lpn_solver,
    gaussian_elimination_parity,
    generate_lpn_instance,
    learn_basis_state,
    learn_product_state,
    make_lpn_as_state_learning,
)
from .statdim import (
    ConceptClass,
    SDAReport,
    Verdict,
    average_correlation,
    sda_bound,
    sda_exact,
    verify_query_lower_bound,
)
