"""Canonical operation registry.

Maps every public operation name to its import path.  The formula
coverage table in docs/formulas.md must list exactly these names; a
test keeps the two in sync so documentation cannot silently drift from
the implemented surface.
"""

from __future__ import annotations

import importlib

OPERATIONS: dict[str, str] = {
    # state engines
    "to_dense": "ghzsense.states",
    "fidelity": "ghzsense.states",
    "assert_equiv": "ghzsense.states",
    # probe construction
    "make_probe": "ghzsense.probes",
    "weights": "ghzsense.probes",
    # phase encoding
    "phase_unitary": "ghzsense.evolution",
    "apply_phases": "ghzsense.evolution",
    "apply_phases_dense": "ghzsense.evolution",
    # measurement statistics
    "parity_probability": "ghzsense.measurement",
    "outcome_distribution": "ghzsense.measurement",
    "subset_parity_marginal": "ghzsense.measurement",
    "sample_counts": "ghzsense.measurement",
    # source and post-selection
    "simulate_run": "ghzsense.acquisition",
    "postselected_distribution_invariance": "ghzsense.acquisition",
    # estimation core
    "fisher_matrix": "ghzsense.estimation",
    "effective_fi": "ghzsense.estimation",
    "effective_fi_crb": "ghzsense.estimation",
    "crb": "ghzsense.estimation",
    "fi_curve": "ghzsense.estimation",
    "theoretical_limits": "ghzsense.estimation",
    "fit_fringe": "ghzsense.estimation",
    "mle_estimate": "ghzsense.estimation",
    "repeat_estimation": "ghzsense.estimation",
    "db_reduction": "ghzsense.estimation",
    # scenario harness
    "run_sweep": "ghzsense.harness",
    "run_fisher": "ghzsense.harness",
    "run_estimation": "ghzsense.harness",
    "reproduce": "ghzsense.harness",
    # golden verification
    "verify_goldens": "ghzsense.goldens",
}


def resolve(name: str):
    """Import and return the callable registered under ``name``."""
    module = importlib.import_module(OPERATIONS[name])
    return getattr(module, name)
