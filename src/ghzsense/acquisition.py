"""Pulse-level source, loss, and post-selection simulation.

Each pulse fires every pair source independently with probability p;
each emitted photon then survives its channel with efficiency eta.
Only pulses in which all N photons survive are kept (N-fold
coincidence post-selection), and the kept pulses draw their sigma_x
outcome from the exact distribution of the evolved probe.  Because the
loss is outcome-independent, conditioning on a coincidence leaves the
outcome distribution untouched; that invariance is the property under
test here.

Sampling is vectorized over pulses: the per-pulse Bernoulli cascade is
drawn as one multinomial over source-fire patterns, one binomial for
all-photon survival, and one multinomial over outcomes, which is
distributionally identical to looping pulse by pulse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChannelMismatchError
from .evolution import apply_phases
from .measurement import CountRecord, outcome_distribution
from .states import ProductState

#: Photons emitted per fired source (one down-converted pair).
PHOTONS_PER_SOURCE = 2


@dataclass(frozen=True)
class SourceModel:
    """Pulsed pair-source parameters.

    ``pair_probability`` is the per-pulse emission probability of each
    source; ``channel_efficiency`` is a scalar or per-channel sequence
    of survival probabilities covering all 2 * num_sources channels.
    """

    pair_probability: float
    pulses: int
    num_sources: int = 3
    channel_efficiency: float | tuple[float, ...] = 1.0

    def __post_init__(self):
        if not (0.0 <= self.pair_probability <= 1.0):
            raise ValueError("pair_probability must lie in [0, 1]")
        if self.pulses < 0:
            raise ValueError("pulses must be >= 0")
        if self.num_sources < 1:
            raise ValueError("need at least one source")
        eta = np.atleast_1d(np.asarray(self.channel_efficiency, dtype=float))
        if np.any(eta < 0.0) or np.any(eta > 1.0):
            raise ValueError("channel efficiencies must lie in [0, 1]")

    @property
    def num_channels(self) -> int:
        return PHOTONS_PER_SOURCE * self.num_sources

    def efficiencies(self) -> np.ndarray:
        return np.broadcast_to(
            np.atleast_1d(np.asarray(self.channel_efficiency, dtype=float)),
            (self.num_channels,),
        ).copy()


@dataclass(frozen=True)
class RawPulseStats:
    """Per-run emission bookkeeping.

    ``pattern_counts[b]`` counts pulses whose fired-source bitmask is b
    (bit s-1 set means source s fired); ``full_emissions`` is the
    all-sources-fired entry and ``coincidences`` how many of those
    survived every channel.
    """

    pulses: int
    pattern_counts: np.ndarray
    full_emissions: int
    coincidences: int


def simulate_run(
    source: SourceModel,
    probe: ProductState,
    theta,
    seed,
) -> tuple[CountRecord, RawPulseStats]:
    """Simulate ``source.pulses`` pulses and post-select N-fold events.

    Returns the outcome counts of the post-selected coincidences and
    the raw pulse statistics.  ``seed`` is anything numpy's PCG64
    accepts (an integer or a SeedSequence).
    """
    if probe.total_photons != source.num_channels:
        raise ChannelMismatchError(
            f"probe has {probe.total_photons} photons, source feeds "
            f"{source.num_channels} channels"
        )
    eta = source.efficiencies()
    rng = np.random.Generator(np.random.PCG64(seed))

    p = source.pair_probability
    n_src = source.num_sources
    masks = np.arange(2**n_src)
    fired = (masks[:, None] >> np.arange(n_src)) & 1
    pattern_probs = np.prod(np.where(fired == 1, p, 1.0 - p), axis=1)
    pattern_counts = rng.multinomial(source.pulses, pattern_probs)
    full_emissions = int(pattern_counts[-1])

    survival = float(np.prod(eta))
    coincidences = int(rng.binomial(full_emissions, survival))

    dist = outcome_distribution(apply_phases(probe, theta))
    counts = rng.multinomial(coincidences, dist.probabilities)
    record = CountRecord(coincidences, counts.astype(np.int64))
    stats = RawPulseStats(
        pulses=source.pulses,
        pattern_counts=pattern_counts.astype(np.int64),
        full_emissions=full_emissions,
        coincidences=coincidences,
    )
    return record, stats


def _pool_sparse_bins(table: np.ndarray) -> np.ndarray:
    """Merge low-count bins until every expected cell count is >= 5.

    Keeps the chi-square asymptotics valid for records with few events;
    bins are pooled smallest-total first into a single overflow bin.
    """
    totals = table.sum(axis=0)
    grand = table.sum()
    row_frac = table.sum(axis=1).min() / grand if grand > 0 else 0.0
    if row_frac <= 0.0:
        return table
    threshold = 5.0 / row_frac  # bin total needed for min expected cell >= 5
    order = list(np.argsort(totals))
    pool: list[int] = []
    while order and totals[order[0]] < threshold:
        pool.append(order.pop(0))
    while pool and order and totals[pool].sum() < threshold:
        pool.append(order.pop(0))
    if len(pool) <= 1:
        return table
    kept = table[:, sorted(order)]
    pooled = table[:, pool].sum(axis=1, keepdims=True)
    return np.hstack([kept, pooled])


def counts_consistent(
    a: CountRecord,
    b: CountRecord,
    significance: float = 1e-3,
) -> bool:
    """Two-sample chi-square homogeneity test on outcome counts.

    True when the hypothesis "both records sample one distribution"
    is NOT rejected at ``significance``.  Bins empty in both records
    are dropped and sparse bins are pooled before testing.
    """
    ca = np.asarray(a.counts, dtype=np.int64)
    cb = np.asarray(b.counts, dtype=np.int64)
    if ca.shape != cb.shape:
        raise ValueError("records must cover the same outcome space")
    keep = (ca + cb) > 0
    table = np.vstack([ca[keep], cb[keep]]).astype(float)
    if table.shape[1] < 2:
        return True
    table = _pool_sparse_bins(table)
    if table.shape[1] < 2:
        return True
    import scipy.stats  # deferred: about 1 s to import, and only this test needs it

    result = scipy.stats.chi2_contingency(table)
    return bool(result.pvalue >= significance)


def postselected_distribution_invariance(
    source_a: SourceModel,
    source_b: SourceModel,
    probe: ProductState,
    theta,
    seed: int = 0,
    theta_b=None,
    significance: float = 1e-3,
) -> bool:
    """Check that post-selected statistics do not depend on loss.

    Runs both sources (which must differ only in channel efficiency and
    pulse budget) and compares the conditional outcome distributions
    with a chi-square test.  ``theta_b`` overrides the second run's
    phases; with a different encoding the fringes shift and the check
    reports False.
    """
    if source_a.pair_probability != source_b.pair_probability:
        raise ValueError("sources must share the same pair probability")
    if source_a.num_sources != source_b.num_sources:
        raise ValueError("sources must share the same source count")
    seed_a, seed_b = np.random.SeedSequence(seed).spawn(2)
    rec_a, _ = simulate_run(source_a, probe, theta, seed=seed_a)
    rec_b, _ = simulate_run(
        source_b, probe, theta if theta_b is None else theta_b, seed=seed_b
    )
    return counts_consistent(rec_a, rec_b, significance=significance)
