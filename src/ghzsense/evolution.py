"""Distributed phase encoding for both state engines.

Each pass through mode k applies diag(e^{-i theta_k/2}, e^{+i theta_k/2})
to the photon, so a GHZ group's |V..V> branch picks up
e^{+i sum_p passes(p) * theta_mode(p)} relative to |H..H>.  Phases are
accumulated as plain reals with no mod-2pi reduction, keeping Fisher
derivatives smooth.
"""

from __future__ import annotations

import numpy as np

from .errors import LayoutMismatchError
from .probes import ModeLayout
from .states import DenseState, ProductState


def as_phase_vector(theta, num_modes: int | None = None) -> np.ndarray:
    """Validate and convert a phase vector to a float array."""
    values = np.atleast_1d(np.asarray(theta, dtype=float))
    if values.ndim != 1:
        raise LayoutMismatchError("phase vector must be one-dimensional")
    if not np.all(np.isfinite(values)):
        raise LayoutMismatchError("phase values must be finite")
    if num_modes is not None and values.shape != (num_modes,):
        raise LayoutMismatchError(
            f"expected {num_modes} phases, got {values.shape[0]}"
        )
    return values


def phase_unitary(theta: float) -> np.ndarray:
    """Single-pass evolution matrix diag(e^{-i theta/2}, e^{+i theta/2})."""
    if not np.isfinite(theta):
        raise ValueError("theta must be finite")
    half = 0.5j * theta
    return np.diag([np.exp(-half), np.exp(half)])


def apply_phases(state: ProductState, theta) -> ProductState:
    """Analytic evolution: add sum_p passes(p)*theta_mode(p) to each group.

    Every group's increment is summed photon by photon in group order
    (a running sum along the zero-padded group x photon table), so each
    phase is bit-identical to the plain per-group Python sum.
    """
    values = as_phase_vector(theta)
    if state.num_modes > values.shape[0]:
        raise LayoutMismatchError(
            f"state references mode {state.num_modes} but only "
            f"{values.shape[0]} phases were given"
        )
    terms = state.photon_passes * values[state.photon_modes]
    return state.with_phase(state.phase + np.cumsum(terms, axis=1)[:, -1])


def apply_phases_dense(state: DenseState, layout: ModeLayout, theta) -> DenseState:
    """Oracle evolution: apply the per-photon diagonal phases directly."""
    if state.num_photons != layout.num_photons:
        raise LayoutMismatchError(
            f"state has {state.num_photons} photons, layout {layout.num_photons}"
        )
    values = as_phase_vector(theta, layout.num_modes)
    n = state.num_photons
    index = np.arange(2**n)
    total = np.zeros(2**n)
    for p, (mode, passes) in enumerate(layout.assignments, start=1):
        bit = (index >> (n - p)) & 1
        # bit 0 (H) rotates by -passes*theta/2, bit 1 (V) by +passes*theta/2
        total += np.where(bit == 1, 1.0, -1.0) * (passes * values[mode - 1] / 2.0)
    return DenseState(n, state.amplitudes * np.exp(1j * total))
