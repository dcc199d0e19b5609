"""Two interchangeable state engines for GHZ-group probes.

The analytic engine represents a probe as a product of independent GHZ
coherence blocks, each carrying an accumulated phase and a single
dephasing factor ``coherence`` that multiplies the off-diagonal block.
A group over photons ``g`` stands for the two-level mixture::

    1/2 (|H..H><H..H| + |V..V><V..V|)
      + coherence/2 (e^{i phase} |V..V><H..H| + h.c.)

which is pure exactly when ``coherence == 1``.

A :class:`ProductState` holds its G groups as arrays: the group x mode
pass-count matrix ``coefficients`` (C), the coherence vector
``coherence`` (V), the phase vector ``phase`` (phi), each group's
``photon_ids`` and the zero-padded group x photon tables
``photon_modes`` / ``photon_passes`` that evolution accumulates over.
The structure (everything but V and phi) is validated once, when the
state is built from :class:`GhzGroup` records; evolved and re-cohered
copies share it and replace only phi or V.  ``state.groups`` is a
read-only tuple of :class:`GhzGroup` views built from the arrays on
first access; the numerical paths never read it.

The dense engine (:class:`DenseState`) is a brute-force 2**N state
vector used as an oracle for cross-validation of the analytic results;
it only exists for pure states.

Basis convention (fixed and test-locked): photon 1 occupies the most
significant bit of a basis index, H maps to bit 0 and V to bit 1.  The
sigma_x outcome indices reuse the same ordering with bit 0 meaning the
+1 eigenvector.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidCoherenceError,
    NotPureError,
    TooLargeError,
)

#: Largest photon count for which 2**N sized objects (dense vectors,
#: outcome tables) are constructed.  Analytic group arithmetic has no
#: such limit; pass ``max_photons`` to ProductState to lift its cap.
MAX_PHOTONS = 12

#: Coherence within this distance of 1 counts as pure.
_PURE_TOL = 0.0


@dataclass(frozen=True)
class GhzGroup:
    """One independent GHZ coherence block.

    Parameters
    ----------
    photon_ids : tuple of int
        1-based photon indices, strictly increasing.
    members : tuple of (mode_id, passes)
        Per-photon sensing assignment, aligned with ``photon_ids``.
        ``mode_id`` is 1-based; ``passes`` counts how many times the
        photon traverses its mode's phase shifter.
    coherence : float
        Dephasing factor V in [0, 1] multiplying the off-diagonal block.
    phase : float
        Accumulated relative phase (radians) on the |V..V> branch.
    """

    photon_ids: tuple[int, ...]
    members: tuple[tuple[int, int], ...]
    coherence: float = 1.0
    phase: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "photon_ids", tuple(int(p) for p in self.photon_ids))
        object.__setattr__(
            self, "members", tuple((int(m), int(j)) for m, j in self.members)
        )
        if not self.photon_ids:
            raise ValueError("group must contain at least one photon")
        if any(b <= a for a, b in zip(self.photon_ids, self.photon_ids[1:])):
            raise ValueError("photon_ids must be strictly increasing")
        if min(self.photon_ids) < 1:
            raise ValueError("photon ids are 1-based")
        if len(self.members) != len(self.photon_ids):
            raise ValueError("one (mode, passes) record required per photon")
        for mode, passes in self.members:
            if mode < 1:
                raise ValueError(f"mode id {mode} is not 1-based")
            if passes < 0:
                raise ValueError(f"negative pass count {passes}")
        if not (0.0 <= self.coherence <= 1.0):
            raise InvalidCoherenceError(
                f"coherence {self.coherence} outside [0, 1]"
            )
        if not isfinite(self.phase):
            raise ValueError("group phase must be finite")

    @property
    def size(self) -> int:
        return len(self.photon_ids)

    @property
    def is_pure(self) -> bool:
        return self.coherence >= 1.0 - _PURE_TOL

    def phase_coefficients(self, num_modes: int) -> np.ndarray:
        """Gradient of the group phase with respect to each mode phase.

        Entry k is the total number of passes the group's photons make
        through mode k+1, i.e. d(phase)/d(theta_k).
        """
        coeff = np.zeros(num_modes)
        for mode, passes in self.members:
            if mode > num_modes:
                raise ValueError(f"mode {mode} exceeds num_modes={num_modes}")
            coeff[mode - 1] += passes
        return coeff


@dataclass(frozen=True, eq=False)
class _Structure:
    """Validated, immutable part of a ProductState, shared by its copies."""

    photon_ids: tuple[tuple[int, ...], ...]
    members: tuple[tuple[tuple[int, int], ...], ...]
    coefficients: np.ndarray  # (G, M) passes of group g through mode k
    photon_modes: np.ndarray  # (G, L) 0-based mode per photon slot, padding 0
    photon_passes: np.ndarray  # (G, L) passes per photon slot, padding 0.0
    total_photons: int
    max_photons: int


def _frozen(values: np.ndarray) -> np.ndarray:
    values.setflags(write=False)
    return values


class ProductState:
    """Tensor product of GHZ groups partitioning photons 1..N.

    Built from :class:`GhzGroup` records, held as arrays (see the module
    docstring).  ``max_photons`` caps N (default :data:`MAX_PHOTONS`);
    it exists to keep 2**N oracles bounded and may be raised for
    analytic-only work such as Fisher calculations on large separable
    references.
    """

    __slots__ = ("_structure", "_coherence", "_phase", "_groups")

    def __init__(self, groups, max_photons: int = MAX_PHOTONS):
        groups = tuple(groups)
        photon_ids = tuple(g.photon_ids for g in groups)
        ids = sorted(p for g in photon_ids for p in g)
        n = len(ids)
        if ids != list(range(1, n + 1)):
            raise ValueError("groups must partition photon ids 1..N exactly")
        if n > max_photons:
            raise TooLargeError(
                f"{n} photons exceeds the configured maximum {max_photons}"
            )
        members = tuple(g.members for g in groups)
        num_modes = max((mode for m in members for mode, _ in m), default=0)
        width = max((len(m) for m in members), default=0)
        coefficients = np.zeros((len(groups), num_modes))
        photon_modes = np.zeros((len(groups), width), dtype=np.intp)
        photon_passes = np.zeros((len(groups), width))
        for g, group in enumerate(members):
            for slot, (mode, passes) in enumerate(group):
                coefficients[g, mode - 1] += passes
                photon_modes[g, slot] = mode - 1
                photon_passes[g, slot] = passes
        self._structure = _Structure(
            photon_ids,
            members,
            _frozen(coefficients),
            _frozen(photon_modes),
            _frozen(photon_passes),
            n,
            max_photons,
        )
        self._coherence = _frozen(np.array([g.coherence for g in groups], dtype=float))
        self._phase = _frozen(np.array([g.phase for g in groups], dtype=float))
        self._groups = groups

    def _replace(self, coherence=None, phase=None) -> "ProductState":
        new = object.__new__(type(self))
        new._structure = self._structure
        new._coherence = self._coherence if coherence is None else _frozen(coherence)
        new._phase = self._phase if phase is None else _frozen(phase)
        new._groups = None
        return new

    @property
    def groups(self) -> tuple[GhzGroup, ...]:
        """Read-only :class:`GhzGroup` view, built on first access."""
        if self._groups is None:
            self._groups = tuple(
                GhzGroup(ids, members, coherence=float(v), phase=float(phi))
                for ids, members, v, phi in zip(
                    self.photon_ids, self._structure.members, self._coherence, self._phase
                )
            )
        return self._groups

    @property
    def coherence(self) -> np.ndarray:
        """Per-group coherence V (read-only array)."""
        return self._coherence

    @property
    def phase(self) -> np.ndarray:
        """Per-group accumulated phase phi (read-only array)."""
        return self._phase

    @property
    def coefficients(self) -> np.ndarray:
        """Group x mode pass counts C: row g is d(phase_g)/d(theta)."""
        return self._structure.coefficients

    @property
    def photon_ids(self) -> tuple[tuple[int, ...], ...]:
        return self._structure.photon_ids

    @property
    def photon_modes(self) -> np.ndarray:
        """0-based mode of each group's photons, zero-padded to one width."""
        return self._structure.photon_modes

    @property
    def photon_passes(self) -> np.ndarray:
        """Pass counts aligned with :attr:`photon_modes`; padding is 0.0."""
        return self._structure.photon_passes

    @property
    def max_photons(self) -> int:
        return self._structure.max_photons

    @property
    def total_photons(self) -> int:
        return self._structure.total_photons

    @property
    def num_modes(self) -> int:
        return self._structure.coefficients.shape[1]

    @property
    def is_pure(self) -> bool:
        return bool(np.all(self._coherence >= 1.0 - _PURE_TOL))

    def _per_group(self, values) -> np.ndarray:
        """Fresh float array of one value per group (scalars broadcast)."""
        return np.array(np.broadcast_to(np.asarray(values, dtype=float), self._phase.shape))

    def with_coherence(self, coherence) -> "ProductState":
        """Copy with per-group coherence replaced (scalar or sequence)."""
        values = self._per_group(coherence)
        outside = ~((values >= 0.0) & (values <= 1.0))
        if outside.any():
            raise InvalidCoherenceError(f"coherence {values[outside][0]} outside [0, 1]")
        return self._replace(coherence=values)

    def with_phase(self, phase) -> "ProductState":
        """Copy with the per-group phase vector replaced (scalar or sequence)."""
        values = self._per_group(phase)
        if not np.all(np.isfinite(values)):
            raise ValueError("group phase must be finite")
        return self._replace(phase=values)

    def __eq__(self, other):
        if not isinstance(other, ProductState):
            return NotImplemented
        same = self._structure is other._structure or (
            self.max_photons == other.max_photons
            and self.photon_ids == other.photon_ids
            and self._structure.members == other._structure.members
        )
        return (
            same
            and np.array_equal(self._coherence, other._coherence)
            and np.array_equal(self._phase, other._phase)
        )

    def __repr__(self) -> str:
        return f"ProductState(groups={self.groups!r}, max_photons={self.max_photons})"


@dataclass(frozen=True)
class DenseState:
    """2**N complex amplitudes; photon 1 is the most significant bit."""

    num_photons: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (2**self.num_photons,):
            raise ValueError(
                f"expected {2**self.num_photons} amplitudes, got {amps.shape}"
            )
        norm = np.sum(np.abs(amps) ** 2)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"state not normalized: sum |a|^2 = {norm!r}")


def to_dense(state: ProductState) -> DenseState:
    """Dense oracle image of a pure product state.

    Each group contributes (|H..H> + e^{i phase} |V..V>)/sqrt(2) on its
    photons; the result is the tensor product in the documented basis
    order.  Only defined for pure states.
    """
    if not state.is_pure:
        raise NotPureError("dense oracle exists only for coherence = 1 states")
    n = state.total_photons
    if n > MAX_PHOTONS:
        raise TooLargeError(f"{n} photons exceeds dense maximum {MAX_PHOTONS}")
    masks = [sum(1 << (n - p) for p in ids) for ids in state.photon_ids]
    phasors = np.exp(1j * state.phase)
    scale = 2.0 ** (-len(masks) / 2.0)
    amps = np.zeros(2**n, dtype=complex)
    for combo in range(2 ** len(masks)):
        index = 0
        amp = scale
        for j, mask in enumerate(masks):
            if (combo >> j) & 1:
                index |= mask
                amp *= phasors[j]
        amps[index] = amp
    return DenseState(n, amps)


def fidelity(a: DenseState, b: DenseState) -> float:
    """|<a|b>|^2 between two dense states of equal photon count."""
    if a.num_photons != b.num_photons:
        raise DimensionMismatchError(
            f"photon counts differ: {a.num_photons} vs {b.num_photons}"
        )
    overlap = np.vdot(a.amplitudes, b.amplitudes)
    return float(np.abs(overlap) ** 2)


def assert_equiv(analytic: ProductState, dense: DenseState, tol: float) -> bool:
    """True iff both engines give the same sigma_x outcome distribution.

    Every one of the 2**N outcome probabilities must agree within
    ``tol``.  The analytic state must be pure, since the dense engine
    cannot represent dephased states.
    """
    from . import measurement

    if not analytic.is_pure:
        raise NotPureError("engine comparison requires a pure analytic state")
    if analytic.total_photons != dense.num_photons:
        raise DimensionMismatchError(
            f"photon counts differ: {analytic.total_photons} vs {dense.num_photons}"
        )
    p_analytic = measurement.outcome_distribution(analytic).probabilities
    p_dense = measurement.dense_outcome_distribution(dense).probabilities
    return bool(np.max(np.abs(p_analytic - p_dense)) <= tol)
