"""Prediction of binary sequences generated by finite-state machines.

A Mealy machine fed uniformly random input bits defines a distribution over
output sequences. This package provides the machine semantics, the optimal
online predictors for several knowledge regimes (true state known, machine
known, machine within a finite set), exact and Monte Carlo error metrics,
stationary state-frequency analysis, exhaustive machine enumeration up to
relabeling, and search for the best bounded-state predicting automaton.
"""

from .automaton import (
    Bits,
    InvalidStateError,
    MachineFormatError,
    MealyMachine,
    StateClass,
    machine_id,
    parse_machine,
    serialize_machine,
)
from .enumeration import (
    canonicalize,
    count_machines,
    enumerate_machines,
    is_strongly_connected,
    orbit_size,
    raw_machine_count,
    relabel,
)
from .evaluation import (
    BatchProblem,
    BatchSelection,
    CapExceeded,
    ErrorReport,
    InconsistentTrainingData,
    PredictorScore,
    SelectionWitness,
    batch_select,
    consistency_profile,
    default_batch_predictors,
    evaluate_exhaustive,
    evaluate_monte_carlo,
    find_selection_witness,
)
from .machines import (
    alternating_ring,
    biased_unbiased_ring,
    constant_machine,
    delay_machine,
    echo_machine,
    eight_state_example,
    random_machine,
    ring_machine,
)
from .predictors import (
    AutomatonPredictor,
    ConsistencyPredictor,
    ConstantPredictor,
    EnsemblePredictor,
    InconsistentObservation,
    KnownStatePredictor,
    Predictor,
    PredictorTrace,
    trace_predictor,
)
from .search import (
    SearchResult,
    search_after_training,
    search_best_predictor,
)
from .spectral import (
    StationaryVector,
    adjacency,
    normalized_matrix,
    perfect_knowledge_error_bound,
    stationary_frequencies,
)

__version__ = "0.1.0"
