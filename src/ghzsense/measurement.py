"""Exact sigma_x outcome statistics and seeded shot sampling.

Outcome indices follow the dense-state bit order: photon 1 is the most
significant bit, bit 0 means the +1 eigenvector.  For a product of GHZ
groups the probability of an outcome string x factorizes as::

    P(x) = prod_g (1 + p_g(x) * V_g * cos(phase_g)) / 2**|g|

where p_g(x) is the parity (+1/-1) of x restricted to group g.

The table is built in O(2**N), not O(G * 2**N): each group contributes
its own 2**|g| table ``1 + s * V_g cos(phase_g)`` (s the +-1 parity of
|g| photons), and the running product takes the outer product with it,
group by group from ``2**-N``.  That product runs over the groups'
photons in group order, so one transpose puts the axes in photon order
when groups interleave (meps).  Every entry is
``(((2**-N * f_1) * f_2) * ...) * f_G`` with the same factors rounded in
the same order as a loop of full-length products over the groups, so
the two tables agree bit for bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import _checks
from .errors import BadSubsetError, TooLargeError
from .states import DenseState, ProductState, MAX_PHOTONS


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Exact probabilities over all 2**N sigma_x outcome strings.

    ``probabilities`` is a one-dimensional table of 2**N entries, none
    negative, summing to 1 within 1e-10; ``num_photons`` is its N.
    """

    probabilities: np.ndarray
    num_photons: int = field(init=False)

    def __post_init__(self):
        probs = np.asarray(self.probabilities, dtype=float)
        n = _checks.table_photons(probs, "probabilities")
        object.__setattr__(self, "num_photons", n)
        if np.min(probs) < 0.0:
            raise ValueError(f"negative probability {np.min(probs)!r}")
        object.__setattr__(self, "probabilities", probs)
        total = probs.sum()
        # written so that a NaN total fails too
        if not abs(total - 1.0) <= 1e-10:
            raise ValueError(f"probabilities sum to {total!r}, not 1")


@dataclass(frozen=True, eq=False)
class CountRecord:
    """Sampled shot counts over outcome indices or parity bins.

    ``counts`` is kept as int64.  Integer input is taken on its dtype
    alone; float input must hold whole numbers of magnitude at most
    2**53, and booleans are refused, so no count is truncated or read
    from a truth value.  ``shots``, read-only, is the exact total of
    ``counts`` as a Python int, summed on first read and kept; reading
    it raises ``ValueError`` if the total is 2**63 or more.  The records
    the library builds from its own :func:`draw_counts` output skip the
    dtype and sign checks, since those counts are non-negative int64 by
    construction; a record built from outside keeps every check.
    """

    counts: np.ndarray

    @classmethod
    def _drawn(cls, counts: np.ndarray) -> "CountRecord":
        """A record of counts that :func:`draw_counts` returned, unchecked."""
        record = object.__new__(cls)
        object.__setattr__(record, "counts", counts)
        return record

    def __post_init__(self):
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
        if counts.size and counts.min() < 0:
            raise ValueError("counts must be non-negative")

    @functools.cached_property
    def shots(self) -> int:
        counts = self.counts
        # the int64 sum of non-negative counts is exact below this bound
        if not counts.size or counts.max() < _checks.INT64_BOUND // counts.size:
            return int(counts.sum())
        total = sum(counts.tolist())
        if total >= _checks.INT64_BOUND:
            raise ValueError(f"counts sum to {total}, beyond 2**63 - 1")
        return total


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


@functools.cache
def _signs(size: int) -> np.ndarray:
    """Read-only float +-1 parities of all 2**size strings of ``size``
    photons; at most MAX_PHOTONS arrays (64 KB) are ever cached."""
    signs = _parities(size, 2**size - 1).astype(float)
    signs.flags.writeable = False
    return signs


def outcome_distribution(state: ProductState) -> OutcomeDistribution:
    """Exact sigma_x distribution of a (possibly dephased) product state."""
    n = state.total_photons
    if n > MAX_PHOTONS:
        raise TooLargeError(f"{n} photons exceeds outcome-table maximum {MAX_PHOTONS}")
    probs = np.array([2.0**-n])
    fringe = state.coherence * np.cos(state.phase)
    for ids, amplitude in zip(state.photon_ids, fringe):
        probs = np.multiply.outer(probs, 1.0 + _signs(len(ids)) * amplitude).reshape(-1)
    order = [p for ids in state.photon_ids for p in ids]
    if order != sorted(order):  # interleaved groups: axes back to photon order
        probs = probs.reshape((2,) * n).transpose(np.argsort(order)).reshape(-1)
    return OutcomeDistribution(probs)


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
    return OutcomeDistribution(probs / probs.sum())


def subset_parity_marginal(dist: OutcomeDistribution, subset) -> tuple[float, float]:
    """(P_plus, P_minus) of the joint parity over a photon subset."""
    mask = _subset_mask(subset, dist.num_photons)
    parity = _parities(dist.num_photons, mask)
    p_plus = float(dist.probabilities[parity == 1].sum())
    return p_plus, 1.0 - p_plus


def parity_counts(record: CountRecord, subset=None) -> CountRecord:
    """Reduce a full outcome record to subset-parity counts (+1 first)."""
    n = _checks.table_photons(record.counts, "record counts", BadSubsetError)
    if subset is None:
        subset = range(1, n + 1)
    mask = _subset_mask(subset, n)
    parity = _parities(n, mask)
    plus = int(record.counts[parity == 1].sum())
    return CountRecord(np.array([plus, record.shots - plus], dtype=np.int64))


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

    Two bins need no sort: the one inner edge is ``probabilities[0]``
    and the last edge 1 lies above every uniform, so bin 1 holds the
    uniforms with ``u >= probabilities[0]`` and bin 0 the rest.  The
    count is taken with ``>=`` rather than ``<`` for a NaN edge, which
    the sorted search places above every uniform: no u compares
    ``>=`` NaN, so all of them land in bin 0, as they do there.
    """
    shots = _checks.integer(shots, "shots", 0)
    probs = np.asarray(probabilities, dtype=float)
    if shots == 0:
        return np.zeros(len(probs), dtype=np.int64)
    if probs.shape == (2,):
        above = np.count_nonzero(rng.random(shots) >= probs[0])
        return np.array([shots - above, above], dtype=np.int64)
    edges = probs.cumsum()
    edges[-1] = 1.0
    draws = rng.random(shots)
    draws.sort()
    counts = draws.searchsorted(edges, side="left")
    counts[1:] -= counts[:-1]  # numpy buffers the overlapping operand
    return counts.astype(np.int64, copy=False)


def sample_counts(dist: OutcomeDistribution, shots: int, seed: int) -> CountRecord:
    """Seeded multinomial sample of ``shots`` outcomes from ``dist``.

    The generator is a numpy PCG64 stream seeded with ``seed``, a
    non-negative integer or a ``numpy.random.SeedSequence``; see
    :func:`draw_counts` for the binning algorithm.  The triple
    (dist, shots, seed) fully determines the result.
    """
    rng = np.random.Generator(np.random.PCG64(_checks.seed_sequence(seed)))
    return CountRecord._drawn(draw_counts(dist.probabilities, shots, rng))
