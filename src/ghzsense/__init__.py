"""GHZ-probe distributed phase sensing: simulation and estimation.

Library layout:

- :mod:`ghzsense.states`      analytic GHZ-group engine + dense oracle
- :mod:`ghzsense.probes`      layouts, strategy taxonomy, probe factories
- :mod:`ghzsense.evolution`   single- and multi-pass phase encoding
- :mod:`ghzsense.measurement` exact sigma_x statistics, shot sampling
- :mod:`ghzsense.acquisition` source/loss/post-selection simulation
- :mod:`ghzsense.estimation`  Fisher matrices, bounds, fits, grouped MLE
- :mod:`ghzsense.harness`     config-driven sweeps and reproductions
"""

from .acquisition import (
    RawPulseStats,
    SourceModel,
    counts_consistent,
    postselected_distribution_invariance,
    simulate_run,
)
from .errors import GhzSenseError, NumericalError, ValidationError
from .estimation import (
    EstimationResult,
    FisherMatrix,
    FitResult,
    FringeModel,
    crb,
    db_reduction,
    effective_fi,
    effective_fi_crb,
    fi_curve,
    fisher_matrix,
    fit_fringe,
    infer_multiplier,
    mle_estimate,
    repeat_estimation,
    theoretical_limits,
)
from .evolution import apply_phases, apply_phases_dense
from .measurement import (
    CountRecord,
    OutcomeDistribution,
    dense_outcome_distribution,
    outcome_distribution,
    parity_counts,
    sample_counts,
    subset_parity_marginal,
)
from .probes import ModeLayout, Strategy, make_probe, standard_layout, weights
from .states import (
    MAX_PHOTONS,
    DenseState,
    ProductState,
    assert_equiv,
    to_dense,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_PHOTONS",
    "CountRecord",
    "DenseState",
    "EstimationResult",
    "FisherMatrix",
    "FitResult",
    "FringeModel",
    "GhzSenseError",
    "ModeLayout",
    "NumericalError",
    "OutcomeDistribution",
    "ProductState",
    "RawPulseStats",
    "SourceModel",
    "Strategy",
    "ValidationError",
    "apply_phases",
    "apply_phases_dense",
    "assert_equiv",
    "counts_consistent",
    "crb",
    "db_reduction",
    "dense_outcome_distribution",
    "effective_fi",
    "effective_fi_crb",
    "fi_curve",
    "fisher_matrix",
    "fit_fringe",
    "infer_multiplier",
    "make_probe",
    "mle_estimate",
    "outcome_distribution",
    "parity_counts",
    "postselected_distribution_invariance",
    "repeat_estimation",
    "sample_counts",
    "simulate_run",
    "standard_layout",
    "subset_parity_marginal",
    "theoretical_limits",
    "to_dense",
    "weights",
]
