"""Exact sigma_x outcome statistics and seeded shot sampling.

Outcome indices follow the dense-state bit order: photon 1 is the most
significant bit, bit 0 means the +1 eigenvector.  For a product of GHZ
groups the probability of an outcome string x factorizes as::

    P(x) = prod_g (1 + p_g(x) * V_g * cos(phase_g)) / 2**|g|

where p_g(x) is the parity (+1/-1) of x restricted to group g.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _checks
from .errors import BadSubsetError, TooLargeError
from .states import DenseState, GhzGroup, ProductState, MAX_PHOTONS

#: Probabilities more negative than this are rejected; anything in
#: [-_CLAMP_TOL, 0) is clamped to zero.
_CLAMP_TOL = 1e-15


@dataclass(frozen=True)
class OutcomeDistribution:
    """Exact probabilities over all 2**N sigma_x outcome strings."""

    num_photons: int
    probabilities: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probabilities, dtype=float)
        if probs.shape != (2**self.num_photons,):
            raise ValueError(
                f"expected {2**self.num_photons} probabilities, got {probs.shape}"
            )
        if np.min(probs) < -_CLAMP_TOL:
            raise ValueError(f"negative probability {np.min(probs)!r}")
        probs = np.clip(probs, 0.0, None)
        object.__setattr__(self, "probabilities", probs)
        total = probs.sum()
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"probabilities sum to {total!r}, not 1")


@dataclass(frozen=True)
class CountRecord:
    """Sampled shot counts over outcome indices or parity bins.

    ``counts`` is kept as int64.  Integer input is taken on its dtype
    alone; float input must hold whole numbers of magnitude at most
    2**53, and booleans are refused, so no count is truncated or read
    from a truth value.  ``shots`` must be a Python or numpy integer,
    not a boolean or a float.
    """

    shots: int
    counts: np.ndarray

    def __post_init__(self):
        _checks.strict_integer(self.shots, "shots")
        counts = np.asarray(self.counts)
        kind = counts.dtype.kind
        # a float count must be a whole number that float64 holds exactly,
        # which also refuses NaN and infinities before the int64 cast
        if kind not in "iu" and not (
            kind == "f"
            and (abs(counts) <= 2.0**53).all()
            and (counts == np.trunc(counts)).all()
        ):
            raise ValueError(f"counts must be whole numbers, got {counts.dtype} {counts!r}")
        counts = counts.astype(np.int64, copy=False)
        object.__setattr__(self, "counts", counts)
        if (counts < 0).any():
            raise ValueError("counts must be non-negative")
        total = counts.sum()
        if total != self.shots:
            raise ValueError(f"counts sum to {total}, expected shots={self.shots}")


def parity_probability(group: GhzGroup, parity: int) -> float:
    """Probability (1 + parity * V * cos(phase)) / 2 of the group parity."""
    if parity not in (1, -1):
        raise ValueError("parity must be +1 or -1")
    return 0.5 * (1.0 + parity * group.coherence * np.cos(group.phase))


def _subset_mask(subset, num_photons: int) -> int:
    (photons,) = _checks.integer_rows((subset,), "subset", BadSubsetError)
    if not photons:
        raise BadSubsetError("subset must not be empty")
    if len(set(photons)) != len(photons):
        raise BadSubsetError("subset contains duplicate photons")
    if min(photons) < 1 or max(photons) > num_photons:
        raise BadSubsetError(
            f"subset {photons} outside photon range 1..{num_photons}"
        )
    return sum(1 << (num_photons - p) for p in photons)


def _parities(num_photons: int, mask: int) -> np.ndarray:
    """Vector of +-1 subset parities over all 2**N outcome indices."""
    index = np.arange(2**num_photons, dtype=np.uint64)
    ones = np.bitwise_count(index & np.uint64(mask))
    return 1 - 2 * (ones.astype(np.int64) & 1)


def outcome_distribution(state: ProductState) -> OutcomeDistribution:
    """Exact sigma_x distribution of a (possibly dephased) product state."""
    n = state.total_photons
    if n > MAX_PHOTONS:
        raise TooLargeError(f"{n} photons exceeds outcome-table maximum {MAX_PHOTONS}")
    probs = np.full(2**n, 2.0**-n)
    fringe = state.coherence * np.cos(state.phase)
    for ids, amplitude in zip(state.photon_ids, fringe):
        mask = sum(1 << (n - p) for p in ids)
        probs = probs * (1.0 + _parities(n, mask) * amplitude)
    return OutcomeDistribution(n, probs)


def dense_outcome_distribution(state: DenseState) -> OutcomeDistribution:
    """Born probabilities of a dense state in the sigma_x basis.

    The basis change uses the unnormalized [[1, 1], [1, -1]] transform
    per photon with a single 2**N normalization at the end, so sums of
    equal amplitudes cancel exactly in floating point.
    """
    n = state.num_photons
    psi = state.amplitudes.reshape([2] * n)
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]])
    for axis in range(n):
        psi = np.moveaxis(np.tensordot(hadamard, psi, axes=([1], [axis])), 0, axis)
    probs = np.abs(psi.reshape(-1)) ** 2
    return OutcomeDistribution(n, probs / probs.sum())


def subset_parity_marginal(dist: OutcomeDistribution, subset) -> tuple[float, float]:
    """(P_plus, P_minus) of the joint parity over a photon subset."""
    mask = _subset_mask(subset, dist.num_photons)
    parity = _parities(dist.num_photons, mask)
    p_plus = float(dist.probabilities[parity == 1].sum())
    return p_plus, 1.0 - p_plus


def parity_counts(record: CountRecord, subset=None) -> CountRecord:
    """Reduce a full outcome record to subset-parity counts (+1 first)."""
    size = len(record.counts)
    n = size.bit_length() - 1
    if 2**n != size:
        raise BadSubsetError("record does not hold a full 2**N outcome table")
    if subset is None:
        subset = range(1, n + 1)
    mask = _subset_mask(subset, n)
    parity = _parities(n, mask)
    plus = int(record.counts[parity == 1].sum())
    return CountRecord(
        record.shots, np.array([plus, record.shots - plus], dtype=np.int64)
    )


def draw_counts(probabilities: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Multinomial counts via cumulative-probability binning of uniforms.

    The algorithm is fixed so that identical (probabilities, shots,
    generator state) give identical counts on every platform: draw
    ``shots`` IID uniforms u from ``rng``; bin k receives the u with
    ``edges[k-1] <= u < edges[k]`` (no lower edge for k = 0), where the
    edges are the cumulative sums with the final edge forced to 1.  The
    uniforms are sorted and each bin count is a difference of
    left-sided searches of the edges into them, which equals a
    right-sided search of each uniform into the edges.
    """
    shots = _checks.integer(shots, "shots", 0)
    probs = np.asarray(probabilities, dtype=float)
    if shots == 0:
        return np.zeros(len(probs), dtype=np.int64)
    edges = probs.cumsum()
    edges[-1] = 1.0
    draws = rng.random(shots)
    draws.sort()
    counts = draws.searchsorted(edges, side="left")
    counts[1:] -= counts[:-1]  # numpy buffers the overlapping operand
    return counts.astype(np.int64, copy=False)


def sample_counts(dist: OutcomeDistribution, shots: int, seed: int) -> CountRecord:
    """Seeded multinomial sample of ``shots`` outcomes from ``dist``.

    The generator is a numpy PCG64 stream seeded with ``seed``; see
    :func:`draw_counts` for the binning algorithm.  The pair
    (dist, shots, seed) fully determines the result.
    """
    shots = _checks.integer(shots, "shots", 0)
    rng = np.random.Generator(np.random.PCG64(seed))
    counts = draw_counts(dist.probabilities, shots, rng)
    return CountRecord(shots, counts)
