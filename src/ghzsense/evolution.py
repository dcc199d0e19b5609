"""Distributed phase encoding for both state engines.

Each pass through mode k applies diag(e^{-i theta_k/2}, e^{+i theta_k/2})
to the photon, so a GHZ group's |V..V> branch picks up
e^{+i sum_p passes(p) * theta_mode(p)} relative to |H..H>.  Phases are
accumulated as plain reals with no mod-2pi reduction, keeping Fisher
derivatives smooth.
"""

from __future__ import annotations

import numpy as np

from .errors import LayoutMismatchError, NonFinitePhaseError
from .probes import ModeLayout
from .states import DenseState, ProductState


def as_phase_vector(theta, num_modes: int) -> np.ndarray:
    """Validate and convert a vector of ``num_modes`` phases to a float array."""
    values = np.asarray(theta, dtype=float)
    if values.ndim == 0:
        values = values.reshape(1)
    if values.ndim != 1:
        raise LayoutMismatchError("phase vector must be one-dimensional")
    if not np.isfinite(values).all():
        raise LayoutMismatchError("phase values must be finite")
    if values.shape != (num_modes,):
        raise LayoutMismatchError(
            f"expected {num_modes} phases, got {values.shape[0]}"
        )
    return values


@np.errstate(over="ignore")  # an overflow is reported below, not warned about
def apply_phases(state: ProductState, theta) -> ProductState:
    """Analytic evolution: add sum_p passes(p)*theta_mode(p) to each group.

    ``theta`` holds one phase per mode of the layout the state was built
    from.

    Every group's increment is summed photon by photon in group order
    (a running sum along the zero-padded group x photon table), so each
    phase is bit-identical to the plain per-group Python sum.  A phase
    that overflows to infinity raises
    :class:`~ghzsense.errors.NonFinitePhaseError` (a ``ValueError``), as
    :meth:`~ghzsense.states.ProductState.with_phase` does.
    """
    values = as_phase_vector(theta, state.num_modes)
    terms = state.photon_passes * values[state.photon_modes]
    phase = state.phase + np.cumsum(terms, axis=1)[:, -1]
    if not np.isfinite(phase).all():
        raise NonFinitePhaseError("group phase must be finite")
    return state._replace(phase=phase)


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
    return DenseState(state.amplitudes * np.exp(1j * total))
