import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ghzsense import (
    CountRecord,
    SourceModel,
    Strategy,
    apply_phases,
    counts_consistent,
    make_probe,
    outcome_distribution,
    postselected_distribution_invariance,
    sample_counts,
    simulate_run,
    standard_layout,
)
from ghzsense.acquisition import _homogeneity_pvalue, _pool_sparse_bins
from ghzsense.errors import ChannelMismatchError

THETA = np.array([0.45, np.pi / 6, np.pi / 3])


def mepe_probe(coherence=0.9):
    layout = standard_layout(Strategy.MEPE, 3, 2)
    return make_probe(Strategy.MEPE, layout, coherence=coherence)


class TestSimulateRun:
    def test_perfect_source_every_pulse_counts(self):
        source = SourceModel(pair_probability=1.0, pulses=5000, channel_efficiency=1.0)
        record, stats = simulate_run(source, mepe_probe(), THETA, seed=1)
        assert record.shots == 5000
        assert stats.coincidences == 5000
        assert stats.full_emissions == 5000

    def test_dead_channel_kills_coincidences(self):
        eta = (1.0, 1.0, 0.0, 1.0, 1.0, 1.0)
        source = SourceModel(pair_probability=1.0, pulses=2000, channel_efficiency=eta)
        record, stats = simulate_run(source, mepe_probe(), THETA, seed=2)
        assert record.shots == 0
        assert stats.coincidences == 0

    def test_expected_coincidence_rate(self):
        p, eta, pulses = 0.0195, 0.6, 10_000_000
        source = SourceModel(pair_probability=p, pulses=pulses, channel_efficiency=eta)
        _, stats = simulate_run(source, mepe_probe(), THETA, seed=3)
        expected = pulses * p**3 * eta**6
        sigma = np.sqrt(expected)  # binomial, q << 1
        assert abs(stats.coincidences - expected) < 5 * sigma

    def test_pattern_counts_partition_pulses(self):
        source = SourceModel(pair_probability=0.4, pulses=100_000, channel_efficiency=0.8)
        _, stats = simulate_run(source, mepe_probe(), THETA, seed=4)
        assert stats.pattern_counts.sum() == stats.pulses
        assert stats.pattern_counts[-1] == stats.full_emissions

    def test_outcomes_follow_model_distribution(self):
        probe = mepe_probe(0.8)
        source = SourceModel(pair_probability=1.0, pulses=200_000, channel_efficiency=1.0)
        record, _ = simulate_run(source, probe, THETA, seed=5)
        dist = outcome_distribution(apply_phases(probe, THETA))
        import scipy.stats

        expected = dist.probabilities * record.shots
        keep = expected > 0
        assert scipy.stats.chisquare(record.counts[keep], expected[keep]).pvalue > 1e-3

    def test_channel_mismatch(self):
        probe = make_probe(Strategy.MEPC, standard_layout(Strategy.MEPC, 3))
        source = SourceModel(pair_probability=0.5, pulses=100)
        with pytest.raises(ChannelMismatchError):
            simulate_run(source, probe, [0.1, 0.2, 0.3], seed=0)


class TestPostselectionInvariance:
    def test_loss_does_not_shift_conditional_distribution(self):
        probe = mepe_probe(0.9)
        lossless = SourceModel(pair_probability=0.5, pulses=1_000_000, channel_efficiency=1.0)
        lossy = SourceModel(pair_probability=0.5, pulses=8_000_000, channel_efficiency=0.5)
        assert postselected_distribution_invariance(lossless, lossy, probe, THETA, seed=11)

    def test_same_efficiency_different_seeds(self):
        probe = mepe_probe(0.9)
        source = SourceModel(pair_probability=0.8, pulses=400_000, channel_efficiency=0.9)
        rec_a, _ = simulate_run(source, probe, THETA, seed=21)
        rec_b, _ = simulate_run(source, probe, THETA, seed=22)
        assert counts_consistent(rec_a, rec_b)

    def test_small_sample_comparison_pools_bins(self):
        # few hundred events over 64 bins: sparse bins must be pooled,
        # otherwise the asymptotic chi-square over-rejects
        from ghzsense import outcome_distribution, apply_phases, sample_counts

        probe = mepe_probe(0.9)
        dist = outcome_distribution(apply_phases(probe, THETA))
        rejections = 0
        for seed in range(40):
            big = sample_counts(dist, 7000, seed=2 * seed)
            small = sample_counts(dist, 300, seed=2 * seed + 1)
            if not counts_consistent(big, small):
                rejections += 1
        assert rejections == 0

    def test_different_theta_fails(self):
        probe = mepe_probe(0.9)
        source = SourceModel(pair_probability=0.8, pulses=400_000, channel_efficiency=1.0)
        shifted = THETA + np.array([0.35, 0.0, 0.0])
        assert not postselected_distribution_invariance(
            source, source, probe, THETA, seed=31, theta_b=shifted
        )

    def test_record_without_events_cannot_reject(self):
        dist = outcome_distribution(apply_phases(mepe_probe(0.9), THETA))
        full = sample_counts(dist, 500, seed=3)
        empty = CountRecord(0, np.zeros_like(full.counts))
        assert counts_consistent(empty, full)
        assert counts_consistent(full, empty)
        assert counts_consistent(empty, empty)

    @pytest.mark.parametrize("dead", [{"channel_efficiency": 0.0}, {"pulses": 0}])
    def test_source_without_coincidences_cannot_reject(self, dead):
        live = SourceModel(pair_probability=0.5, pulses=100_000)
        silent = SourceModel(**{"pair_probability": 0.5, "pulses": 100_000, **dead})
        assert postselected_distribution_invariance(live, silent, mepe_probe(), THETA, seed=3)

    def test_requires_matching_sources(self):
        a = SourceModel(pair_probability=0.5, pulses=1000)
        b = SourceModel(pair_probability=0.4, pulses=1000)
        with pytest.raises(ValueError):
            postselected_distribution_invariance(a, b, mepe_probe(), THETA)


def test_rate_monotone_in_efficiency_and_pair_probability():
    probe = mepe_probe()
    pulses = 2_000_000
    rates_eta = []
    for eta in (0.3, 0.6, 1.0):
        source = SourceModel(pair_probability=0.5, pulses=pulses, channel_efficiency=eta)
        _, stats = simulate_run(source, probe, THETA, seed=77)
        rates_eta.append(stats.coincidences / pulses)
    assert rates_eta[0] < rates_eta[1] < rates_eta[2]

    rates_p = []
    for p in (0.2, 0.5, 0.9):
        source = SourceModel(pair_probability=p, pulses=pulses, channel_efficiency=0.8)
        _, stats = simulate_run(source, probe, THETA, seed=78)
        rates_p.append(stats.coincidences / pulses)
    assert rates_p[0] < rates_p[1] < rates_p[2]


def test_source_model_validation():
    for p in (1.5, True, False):
        with pytest.raises(ValueError, match="pair_probability"):
            SourceModel(pair_probability=p, pulses=10)
    with pytest.raises(ValueError):
        SourceModel(pair_probability=0.5, pulses=-1)
    with pytest.raises(ValueError):
        SourceModel(pair_probability=0.5, pulses=10, channel_efficiency=1.2)
    for eta in (float("nan"), (1.0, float("nan"))):
        with pytest.raises(ValueError):
            SourceModel(pair_probability=0.5, pulses=10, channel_efficiency=eta)
    for counts in (
        {"pulses": 2.5},
        {"pulses": True},
        {"pulses": float("nan")},
        {"pulses": 10, "num_sources": 2.5},
        {"pulses": 10, "num_sources": True},
    ):
        with pytest.raises(ValueError):
            SourceModel(pair_probability=0.5, **counts)
    # integral numbers are read as integers, as in a config file
    source = SourceModel(pair_probability=0.5, pulses=10.0, num_sources=2.0)
    assert (source.pulses, source.num_sources) == (10, 2)
    assert type(source.pulses) is int and type(source.num_sources) is int


@pytest.mark.parametrize(
    "eta", [[0.5] * 4, [0.5], [0.5] * 7, [[0.5] * 6]], ids=["4", "1", "7", "nested"]
)
def test_channel_efficiency_needs_one_value_per_channel(eta):
    # three sources feed six channels; a sequence of any other shape was
    # broadcast, or died in numpy inside simulate_run
    with pytest.raises(ValueError, match="channel_efficiency"):
        SourceModel(pair_probability=0.5, pulses=10, num_sources=3, channel_efficiency=eta)
    two = SourceModel(pair_probability=0.5, pulses=10, num_sources=2, channel_efficiency=[0.5] * 4)
    assert two.efficiencies().tolist() == [0.5] * 4


@st.composite
def _count_pairs(draw):
    """Two count vectors over k bins: sparse ones pool, and the row
    totals differ."""
    k = draw(st.integers(2, 16))
    rows = []
    for _ in range(2):
        top = draw(st.sampled_from((3, 40, 3000)))
        rows.append(np.array(draw(st.lists(st.integers(0, top), min_size=k, max_size=k))))
    return tuple(rows)


@settings(max_examples=300, deadline=None)
@given(counts=_count_pairs())
@example(counts=(np.array([30, 10]), np.array([12, 20])))  # k = 2: Yates
@example(counts=(np.array([10, 10]), np.array([10, 11])))  # Yates capped below 0.5
@example(counts=(np.array([300, 200, 90]), np.array([30, 24, 5])))  # 2 dof: no Yates
@example(counts=(np.array([900, 40, 3, 1, 0, 2]), np.array([80, 5, 0, 1, 1, 0])))  # pools
def test_pvalue_matches_chi2_contingency(counts):
    import scipy.stats

    a, b = counts
    keep = (a + b) > 0
    table = _pool_sparse_bins(np.vstack([a[keep], b[keep]]).astype(float))
    assume(table.shape[1] >= 2 and table.sum(axis=1).all())
    pvalue = _homogeneity_pvalue(table)
    assert pvalue == scipy.stats.chi2_contingency(table).pvalue
    records = [CountRecord(int(c.sum()), c) for c in counts]
    assert counts_consistent(*records) == (pvalue >= 1e-3)


def _pool_sparse_bins_loop(table):
    """The pooling as first written, one bin at a time: the oracle."""
    totals = table.sum(axis=0)
    grand = table.sum()
    row_frac = table.sum(axis=1).min() / grand if grand > 0 else 0.0
    if row_frac <= 0.0:
        return table
    threshold = 5.0 / row_frac
    order = list(np.argsort(totals))
    pool = []
    while order and totals[order[0]] < threshold:
        pool.append(order.pop(0))
    while pool and order and totals[pool].sum() < threshold:
        pool.append(order.pop(0))
    if len(pool) <= 1:
        return table
    kept = table[:, sorted(order)]
    pooled = table[:, pool].sum(axis=1, keepdims=True)
    return np.hstack([kept, pooled])


@st.composite
def _count_tables(draw):
    """2 x k count tables with many tied and sparse bins."""
    k = draw(st.integers(1, 40))
    top = draw(st.sampled_from((2, 6, 50, 5000)))
    cells = st.lists(st.integers(0, top), min_size=k, max_size=k)
    return np.array([draw(cells), draw(cells)], dtype=float)


@settings(max_examples=400, deadline=None)
@given(table=_count_tables())
@example(table=np.array([[0.0, 0.0], [0.0, 0.0]]))  # no events
@example(table=np.array([[3.0, 3.0, 3.0, 900.0], [3.0, 3.0, 3.0, 80.0]]))  # ties
@example(table=np.array([[1.0, 400.0, 500.0], [2.0, 300.0, 200.0]]))  # one sparse bin
@example(table=np.array([[1.0, 2.0, 1.0, 2.0], [2.0, 1.0, 1.0, 1.0]]))  # pools every bin
@example(table=np.array([[1.0], [2.0]]))  # a single bin is never pooled
@example(table=np.array([[5.0, 5.0, 40.0], [5.0, 5.0, 40.0]]))  # totals at the threshold
def test_pool_sparse_bins_matches_the_loop(table):
    assert np.array_equal(_pool_sparse_bins(table), _pool_sparse_bins_loop(table))
