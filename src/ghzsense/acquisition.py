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

from . import _checks
from .errors import ChannelMismatchError
from .evolution import apply_phases
from .measurement import CountRecord, outcome_distribution
from .states import ProductState

#: Photons emitted per fired source (one down-converted pair).
PHOTONS_PER_SOURCE = 2

#: Chi-square p-value below which two count records are declared to
#: sample different distributions.
_SIGNIFICANCE = 1e-3


@dataclass(frozen=True)
class SourceModel:
    """Pulsed pair-source parameters.

    ``pair_probability`` is the per-pulse emission probability of each
    source; ``channel_efficiency`` is the survival probability of every
    channel, or a sequence of exactly 2 * num_sources of them, one per
    channel.
    """

    pair_probability: float
    pulses: int
    num_sources: int = 3
    channel_efficiency: float | tuple[float, ...] = 1.0

    def __post_init__(self):
        # the rules of the config's keys: 3.0 pulses is 3; 2.5 and True are errors
        p = _checks.unit_interval(self.pair_probability, "pair_probability")
        object.__setattr__(self, "pair_probability", p)
        object.__setattr__(self, "pulses", _checks.integer(self.pulses, "pulses", 0))
        object.__setattr__(
            self, "num_sources", _checks.integer(self.num_sources, "num_sources", 1)
        )
        if np.ndim(self.channel_efficiency) == 0:
            _checks.unit_interval(self.channel_efficiency, "channel_efficiency")
        else:
            _checks.no_booleans(self.channel_efficiency, "channel_efficiency")
            if np.shape(self.channel_efficiency) != (self.num_channels,):
                raise ValueError(
                    f"channel_efficiency needs one value per channel ({self.num_channels}), "
                    f"got {self.channel_efficiency!r}"
                )
        eta = np.atleast_1d(np.asarray(self.channel_efficiency, dtype=float))
        if np.any(~((eta >= 0.0) & (eta <= 1.0))):
            raise ValueError("channel_efficiency values must lie in [0, 1]")

    @property
    def num_channels(self) -> int:
        return PHOTONS_PER_SOURCE * self.num_sources

    def efficiencies(self) -> np.ndarray:
        return np.broadcast_to(
            np.atleast_1d(np.asarray(self.channel_efficiency, dtype=float)),
            (self.num_channels,),
        ).copy()


@dataclass(frozen=True, eq=False)
class RawPulseStats:
    """Per-run emission bookkeeping.

    ``pattern_counts[b]`` counts pulses whose fired-source bitmask is b
    (bit s-1 set means source s fired), and ``coincidences`` how many
    all-sources-fired pulses survived every channel.  ``pulses`` (their
    total) and ``full_emissions`` (the all-sources-fired entry) are
    read-only ints derived from ``pattern_counts``.
    """

    pattern_counts: np.ndarray
    coincidences: int

    @property
    def pulses(self) -> int:
        return int(self.pattern_counts.sum())

    @property
    def full_emissions(self) -> int:
        return int(self.pattern_counts[-1])


def simulate_run(
    source: SourceModel,
    probe: ProductState,
    theta,
    seed,
) -> tuple[CountRecord, RawPulseStats]:
    """Simulate ``source.pulses`` pulses and post-select N-fold events.

    Returns the outcome counts of the post-selected coincidences and
    the raw pulse statistics.  ``seed`` is a non-negative integer or a
    ``numpy.random.SeedSequence``.
    """
    if probe.total_photons != source.num_channels:
        raise ChannelMismatchError(
            f"probe has {probe.total_photons} photons, source feeds "
            f"{source.num_channels} channels"
        )
    eta = source.efficiencies()
    rng = np.random.Generator(np.random.PCG64(_checks.seed_sequence(seed)))

    p = source.pair_probability
    n_src = source.num_sources
    masks = np.arange(2**n_src)
    fired = (masks[:, None] >> np.arange(n_src)) & 1
    pattern_probs = np.prod(np.where(fired == 1, p, 1.0 - p), axis=1)
    pattern_counts = rng.multinomial(source.pulses, pattern_probs)

    survival = float(np.prod(eta))
    coincidences = int(rng.binomial(int(pattern_counts[-1]), survival))

    dist = outcome_distribution(apply_phases(probe, theta))
    counts = rng.multinomial(coincidences, dist.probabilities)
    return CountRecord(counts), RawPulseStats(pattern_counts, coincidences)


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
    order = np.argsort(totals)
    ranked = totals[order]
    # pool every sparse bin, then the next smallest until the pool is not
    # sparse; the totals are counts, so the running sums are exact
    sparse = int(np.searchsorted(ranked, threshold))
    if sparse == 0:
        return table
    enough = int(np.searchsorted(np.cumsum(ranked), threshold)) + 1
    cut = min(max(sparse, enough), len(ranked))
    if cut <= 1:
        return table
    kept = table[:, np.sort(order[cut:])]
    pooled = table[:, order[:cut]].sum(axis=1, keepdims=True)
    return np.hstack([kept, pooled])


def _homogeneity_pvalue(table: np.ndarray) -> float:
    """Pearson chi-square p-value that the rows of a 2 x k table of
    counts (no empty row or column, k >= 2) sample one distribution.

    Computes what ``scipy.stats.chi2_contingency`` computes, bit for
    bit, including Yates' continuity correction at one degree of
    freedom.
    """
    # scipy.special loads in ~0.4 s, against ~1.4 s for scipy.stats
    from scipy.special import chdtrc

    rows = table.sum(axis=1, keepdims=True)
    expected = rows * table.sum(axis=0, keepdims=True) / table.sum()
    dof = table.shape[1] - 1
    if dof == 1:  # Yates, never moving a count past its expected value
        diff = expected - table
        table = table + np.minimum(0.5, np.abs(diff)) * np.sign(diff)
    return float(chdtrc(dof, ((table - expected) ** 2 / expected).sum()))


def counts_consistent(a: CountRecord, b: CountRecord) -> bool:
    """Two-sample Pearson chi-square homogeneity test on outcome counts.

    True when the hypothesis "both records sample one distribution"
    is NOT rejected at the fixed significance level 1e-3.  Bins empty
    in both records are dropped and sparse bins are pooled before
    testing.  A record with no events, or a table of fewer than two
    bins, cannot reject the hypothesis, so the answer is then True.
    """
    ca = np.asarray(a.counts, dtype=np.int64)
    cb = np.asarray(b.counts, dtype=np.int64)
    if ca.shape != cb.shape:
        raise ValueError("records must cover the same outcome space")
    keep = (ca + cb) > 0
    table = np.vstack([ca[keep], cb[keep]]).astype(float)
    if table.shape[1] < 2 or not table.sum(axis=1).all():
        return True
    table = _pool_sparse_bins(table)
    if table.shape[1] < 2:
        return True
    return _homogeneity_pvalue(table) >= _SIGNIFICANCE


def postselected_distribution_invariance(
    source_a: SourceModel,
    source_b: SourceModel,
    probe: ProductState,
    theta,
    seed: int = 0,
    theta_b=None,
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
    seed_a, seed_b = _checks.seed_sequence(seed).spawn(2)
    rec_a, _ = simulate_run(source_a, probe, theta, seed=seed_a)
    rec_b, _ = simulate_run(
        source_b, probe, theta if theta_b is None else theta_b, seed=seed_b
    )
    return counts_consistent(rec_a, rec_b)
