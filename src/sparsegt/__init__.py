"""Constrained non-adaptive group testing.

Designs that respect per-item and per-test budgets, the decoders they were
built for, test-count bounds and error floors, and a reproducible Monte Carlo
harness with exact enumeration oracles.
"""

from .core import (
    DefectiveSet,
    DesignParams,
    GroupTestingError,
    IncompatibleDecoderError,
    InvalidParameterError,
    Outcomes,
    ParseError,
    Prior,
    PRIOR_IID_BERNOULLI,
    PRIOR_UNIFORM_EXACT,
    RegimeError,
    ResourceCapError,
    TestMatrix,
    Violation,
    apply_noise,
    evaluate,
    parse,
    parse_outcomes,
    serialize,
    serialize_outcomes,
    validate,
)
from .designs import (
    HypergridShape,
    balanced_block_starts,
    block_binary_rho_design,
    block_hypergrid_design,
    hypergrid_design,
    hypergrid_shape,
    permuted_block_rho_design,
    random_gamma_design,
    repeat_design,
)
from .decoders import (
    DecodeResult,
    STATUS_AMBIGUOUS,
    STATUS_OK,
    STATUS_UNTESTABLE,
    binary_block_decode,
    coma_decode,
    decoder_for,
    hypergrid_block_decode,
    majority_coma_decode,
)
from .bounds import (
    BoundReport,
    gamma_lower_bound,
    noisy_gamma_error_floor,
    rho_lower_bound,
    upper_bound_tests,
)
from .sim import (
    Breakdown,
    SimConfig,
    SimReport,
    bayes_optimal_error,
    block_collision_error,
    derive_trial_seed,
    exhaustive_error_probability,
    outcome_collision_groups,
    run_monte_carlo,
    wilson_interval,
)

__version__ = "0.1.0"
