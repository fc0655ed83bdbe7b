"""bellkit: Bell-inequality verification toolkit for small quantum systems.

Projector-lattice distances and their triangle/quadrilateral inequalities,
constructive hidden-variable models for commuting observables,
joint-probability feasibility (LP) against the four permuted CHSH
inequalities, and the linear-entropy sufficient condition for
Bell-inequality satisfaction.
"""

from .entropy import (
    ClassicalDistribution,
    EntropyReport,
    HorodeckiReport,
    LinearEntropyVerdict,
    bell_purity_bound,
    check_concavity,
    entropy_report,
    horodecki_criterion,
    linear_entropy_classical,
    linear_entropy_criterion,
    linear_entropy_quantum,
    shannon_entropy,
    von_neumann_entropy,
)
from .errors import CommutationError, InconsistentMarginalsError
from .feasibility import (
    FeasibilityVerdict,
    FineReport,
    MarginalSet,
    ContextualityReport,
    contextuality_demo,
    fine_criterion,
    joint_feasible,
    marginals_from_scenario,
)
from .hidden_vars import (
    HVModel,
    JointEigenbasis,
    ModelVerification,
    build_hv_model,
    hv_expectation,
    joint_eigenbasis,
    verify_model,
)
from .linalg import (
    DEFAULT_TOL,
    DensityOperator,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PureState,
    hermitian_eigensystem,
    is_hermitian,
    is_projector,
    matrix_from_lists,
    partial_trace,
    random_density,
    random_dichotomic,
    random_pure,
    random_unitary,
    tensor_product,
)
from .logic import (
    DistanceReport,
    Proposition,
    QuadReport,
    TriangleReport,
    TruthValue,
    distance,
    join,
    meet,
    negate,
    quad_check,
    state_prob,
    triangle_check,
    truth_value,
)
from .scenario import (
    SPEED_OF_LIGHT,
    TSIRELSON_BOUND,
    BellScenario,
    BellOperator,
    CorrelationSet,
    ViolationSearch,
    bell_operator,
    beta,
    chsh_value,
    correlation_matrix,
    correlations,
    direction_vector,
    epr_min_separation,
    maximize_violation,
    positive_projector,
    preset_state,
    product00_state,
    singlet_state,
    spin_observable,
    werner_state,
)
from .sweeps import SWEEP_TOLERANCES, SWEEPS, SweepRow, run_sweep

__version__ = "0.1.0"
