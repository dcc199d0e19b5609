import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from ghzsense import (
    CountRecord,
    GhzGroup,
    ProductState,
    Strategy,
    apply_phases,
    apply_phases_dense,
    dense_outcome_distribution,
    make_probe,
    outcome_distribution,
    parity_counts,
    parity_probability,
    sample_counts,
    standard_layout,
    subset_parity_marginal,
    to_dense,
    weights,
)
from ghzsense.errors import BadSubsetError, TooLargeError
from ghzsense.measurement import draw_counts


def ghz_group(photons, mode=1, passes=1, coherence=1.0, phase=0.0):
    members = tuple((mode, passes) for _ in photons)
    return GhzGroup(tuple(photons), members, coherence=coherence, phase=phase)


class TestParityProbability:
    def test_aligned_fringe_peak(self):
        g = ghz_group([1, 2], phase=0.0)
        assert parity_probability(g, +1) == 1.0
        assert parity_probability(g, -1) == 0.0

    def test_quarter_fringe_is_balanced(self):
        g = ghz_group([1, 2, 3], phase=np.pi / 2)
        assert parity_probability(g, +1) == pytest.approx(0.5)
        assert parity_probability(g, -1) == pytest.approx(0.5)

    def test_dephased_fringe(self):
        g = ghz_group([1] * 1, coherence=0.756, phase=1.3)
        expected = 0.5 * (1 + 0.756 * np.cos(1.3))
        assert parity_probability(g, +1) == pytest.approx(expected)

    def test_bad_parity_value(self):
        with pytest.raises(ValueError):
            parity_probability(ghz_group([1]), 0)


class TestOutcomeDistribution:
    def test_msps_uniform_at_quarter_fringe(self):
        layout = standard_layout(Strategy.MSPS, 3, 2)
        probe = make_probe(Strategy.MSPS, layout)
        evolved = apply_phases(probe, [np.pi / 2] * 3)
        dist = outcome_distribution(evolved)
        np.testing.assert_allclose(dist.probabilities, np.full(64, 1 / 64))

    def test_msps_not_uniform_at_generic_theta(self):
        layout = standard_layout(Strategy.MSPS, 3, 2)
        probe = make_probe(Strategy.MSPS, layout)
        theta = [0.3, 0.9, 2.2]
        dist = outcome_distribution(apply_phases(probe, theta))
        assert np.ptp(dist.probabilities) > 1e-3
        # dense oracle agrees with the non-uniform values
        dense = apply_phases_dense(to_dense(probe), layout, theta)
        np.testing.assert_allclose(
            dist.probabilities,
            dense_outcome_distribution(dense).probabilities,
            atol=1e-12,
        )

    def test_mepe_even_parity_strings_only(self):
        probe = make_probe(Strategy.MEPE, standard_layout(Strategy.MEPE, 3, 2))
        dist = outcome_distribution(probe)
        index = np.arange(64)
        parity_odd = np.array([bin(i).count("1") % 2 for i in index], dtype=bool)
        np.testing.assert_allclose(dist.probabilities[~parity_odd], 2 / 64)
        np.testing.assert_allclose(dist.probabilities[parity_odd], 0.0)

    def test_matches_dense_born_rule(self):
        layout = standard_layout(Strategy.MEPS, 3, 2)
        probe = make_probe(Strategy.MEPS, layout)
        theta = [1.0, 0.2, 0.4]
        analytic = outcome_distribution(apply_phases(probe, theta))
        dense = apply_phases_dense(to_dense(probe), layout, theta)
        np.testing.assert_allclose(
            analytic.probabilities,
            dense_outcome_distribution(dense).probabilities,
            atol=1e-12,
        )

    def test_too_many_photons(self):
        groups = tuple(ghz_group([p]) for p in range(1, 14))
        state = ProductState(groups, max_photons=13)
        with pytest.raises(TooLargeError):
            outcome_distribution(state)

    def test_normalization_over_random_states(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            n = int(rng.integers(1, 8))
            ids = list(rng.permutation(np.arange(1, n + 1)))
            groups = []
            while ids:
                size = int(rng.integers(1, len(ids) + 1))
                chunk, ids = sorted(int(i) for i in ids[:size]), ids[size:]
                groups.append(
                    ghz_group(
                        chunk,
                        coherence=float(rng.uniform(0, 1)),
                        phase=float(rng.uniform(-20, 20)),
                    )
                )
            dist = outcome_distribution(ProductState(tuple(groups)))
            assert abs(dist.probabilities.sum() - 1.0) < 1e-10
            assert np.min(dist.probabilities) >= 0.0


class TestSubsetParityMarginal:
    def test_meps_block_fringe(self):
        layout = standard_layout(Strategy.MEPS, 3, 2)
        probe = make_probe(Strategy.MEPS, layout, coherence=0.85)
        theta = np.array([0.7, 0.1, 0.9])
        theta_hat = float(weights(layout) @ theta)
        dist = outcome_distribution(apply_phases(probe, theta))
        p_plus, p_minus = subset_parity_marginal(dist, probe.groups[0].photon_ids)
        assert p_plus == pytest.approx(0.5 * (1 + 0.85 * np.cos(3 * theta_hat)))
        assert p_plus + p_minus == pytest.approx(1.0)

    def test_individual_pair_fringe(self):
        layout = standard_layout(Strategy.INDIVIDUAL, 3, 2)
        probe = make_probe(Strategy.INDIVIDUAL, layout, coherence=0.97)
        theta = np.array([0.4, 1.2, 2.5])
        dist = outcome_distribution(apply_phases(probe, theta))
        for k, g in enumerate(probe.groups, start=1):
            p_plus, _ = subset_parity_marginal(dist, g.photon_ids)
            assert p_plus == pytest.approx(0.5 * (1 + 0.97 * np.cos(2 * theta[k - 1])))

    def test_full_set_mepe_fringe(self):
        layout = standard_layout(Strategy.MEPE, 3, 2)
        probe = make_probe(Strategy.MEPE, layout, coherence=0.76)
        theta = np.array([0.5, 0.25, 0.125])
        theta_hat = float(weights(layout) @ theta)
        dist = outcome_distribution(apply_phases(probe, theta))
        p_plus, _ = subset_parity_marginal(dist, range(1, 7))
        assert p_plus == pytest.approx(0.5 * (1 + 0.76 * np.cos(6 * theta_hat)))

    def test_full_set_marginal_equals_group_parity_product(self):
        # parity over all photons is the product of group parities, so
        # P_+ = (1 + prod_g V_g cos(phase_g)) / 2
        rng = np.random.default_rng(8)
        layout = standard_layout(Strategy.MSPE, 3, 2)
        probe = make_probe(Strategy.MSPE, layout, coherence=[0.9, 0.8, 0.7])
        for _ in range(20):
            theta = rng.uniform(-np.pi, np.pi, 3)
            evolved = apply_phases(probe, theta)
            dist = outcome_distribution(evolved)
            p_plus, _ = subset_parity_marginal(dist, range(1, 7))
            product = np.prod(
                [g.coherence * np.cos(g.phase) for g in evolved.groups]
            )
            assert p_plus == pytest.approx(0.5 * (1 + product), abs=1e-12)

    def test_bad_subsets(self):
        dist = outcome_distribution(
            make_probe(Strategy.MEPE, standard_layout(Strategy.MEPE, 3, 2))
        )
        with pytest.raises(BadSubsetError):
            subset_parity_marginal(dist, [])
        with pytest.raises(BadSubsetError):
            subset_parity_marginal(dist, [1, 1])
        with pytest.raises(BadSubsetError):
            subset_parity_marginal(dist, [7])


class TestSampleCounts:
    def test_zero_shots(self):
        dist = outcome_distribution(
            make_probe(Strategy.MEPE, standard_layout(Strategy.MEPE, 3, 2))
        )
        record = sample_counts(dist, 0, seed=1)
        assert record.shots == 0
        assert record.counts.sum() == 0

    def test_point_mass(self):
        from ghzsense.measurement import OutcomeDistribution

        probs = np.zeros(4)
        probs[2] = 1.0
        record = sample_counts(OutcomeDistribution(2, probs), 500, seed=3)
        assert record.counts[2] == 500

    def test_identical_seed_identical_counts(self):
        dist = outcome_distribution(
            apply_phases(
                make_probe(Strategy.MEPE, standard_layout(Strategy.MEPE, 3, 2), 0.76),
                [0.3, 0.5, 0.7],
            )
        )
        a = sample_counts(dist, 7000, seed=99)
        b = sample_counts(dist, 7000, seed=99)
        np.testing.assert_array_equal(a.counts, b.counts)
        c = sample_counts(dist, 7000, seed=100)
        assert np.any(a.counts != c.counts)

    def test_parity_fraction_within_five_sigma(self):
        layout = standard_layout(Strategy.MEPE, 3, 2)
        probe = make_probe(Strategy.MEPE, layout, coherence=0.76)
        theta = np.array([0.4, np.pi / 6, np.pi / 3])
        evolved = apply_phases(probe, theta)
        dist = outcome_distribution(evolved)
        p_model = parity_probability(evolved.groups[0], +1)
        shots = 70_000
        record = sample_counts(dist, shots, seed=2024)
        plus = parity_counts(record)
        p_hat = plus.counts[0] / shots
        sigma = np.sqrt(p_model * (1 - p_model) / shots)
        assert abs(p_hat - p_model) < 5 * sigma

    def test_chi_square_goodness_of_fit(self):
        layout = standard_layout(Strategy.MEPE, 3, 2)
        probe = make_probe(Strategy.MEPE, layout, coherence=0.5)
        dist = outcome_distribution(apply_phases(probe, [0.3, 0.8, 1.9]))
        shots = 100_000
        record = sample_counts(dist, shots, seed=4242)
        expected = dist.probabilities * shots
        keep = expected > 0
        stat, pvalue = scipy.stats.chisquare(record.counts[keep], expected[keep])
        assert pvalue >= 1e-3


def unsorted_binning(probabilities, shots, rng):
    """Oracle: a right-sided search of each uniform into the edges."""
    edges = np.cumsum(probabilities)
    edges[-1] = 1.0
    if shots == 0:
        return np.zeros(len(edges), dtype=np.int64)
    bins = np.searchsorted(edges, rng.random(shots), side="right")
    return np.bincount(bins, minlength=len(edges))


class _FixedUniforms:
    """Stands in for a Generator whose uniforms are given in advance."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, size):
        assert size == len(self.values)
        return self.values.copy()


class TestDrawCounts:
    @given(
        size=st.one_of(st.integers(1, 8), st.integers(1, 2**12)),
        table_seed=st.integers(0, 2**32 - 1),
        zero_frac=st.sampled_from([0.0, 0.5, 0.95]),
        leading_zero=st.booleans(),
        trailing_zero=st.booleans(),
        total=st.sampled_from([1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.3]),
        shots=st.one_of(st.sampled_from([0, 1, 100_000]), st.integers(0, 100_000)),
        seed=st.integers(0, 2**63),
    )
    def test_matches_unsorted_binning(
        self, size, table_seed, zero_frac, leading_zero, trailing_zero, total, shots, seed
    ):
        table_rng = np.random.default_rng(table_seed)
        probs = table_rng.random(size)
        probs[table_rng.random(size) < zero_frac] = 0.0
        if leading_zero and size > 1:
            probs[0] = 0.0
        if trailing_zero and size > 1:
            probs[-1] = 0.0
        if probs.sum() == 0.0:
            probs[size // 2] = 1.0
        # total > 1 makes the cumulative sum overshoot 1 before the last edge
        probs *= total / probs.sum()
        counts = draw_counts(probs, shots, np.random.Generator(np.random.PCG64(seed)))
        expected = unsorted_binning(probs, shots, np.random.Generator(np.random.PCG64(seed)))
        assert counts.dtype == np.int64
        assert counts.shape == probs.shape
        assert (counts == expected).all()

    def test_uniform_on_an_edge_lands_in_upper_bin(self):
        probs = np.array([0.25, 0.25, 0.0, 0.25, 0.25])  # edges .25 .5 .5 .75 1
        uniforms = [0.0, 0.25, 0.5, 0.5, 0.75, 0.999]
        counts = draw_counts(probs, len(uniforms), _FixedUniforms(uniforms))
        np.testing.assert_array_equal(counts, [1, 1, 0, 2, 2])
        expected = unsorted_binning(probs, len(uniforms), _FixedUniforms(uniforms))
        np.testing.assert_array_equal(counts, expected)


class TestParityCounts:
    def test_subset_reduction(self):
        counts = np.zeros(4, dtype=np.int64)
        counts[0b00] = 10  # photon 1 bit, photon 2 bit
        counts[0b01] = 20
        counts[0b10] = 30
        counts[0b11] = 40
        record = CountRecord(100, counts)
        full = parity_counts(record)
        np.testing.assert_array_equal(full.counts, [50, 50])
        photon1 = parity_counts(record, subset=[1])
        np.testing.assert_array_equal(photon1.counts, [30, 70])

    def test_requires_full_table(self):
        with pytest.raises(BadSubsetError):
            parity_counts(CountRecord(3, np.array([1, 1, 1])))
