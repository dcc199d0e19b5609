import numpy as np
import pytest

from ghzsense import (
    ModeLayout,
    Strategy,
    assert_equiv,
    make_probe,
    standard_layout,
    to_dense,
    weights,
)
from ghzsense.errors import InvalidCoherenceError, InvalidLayoutError
from ghzsense.states import DenseState


class TestStandardLayouts:
    def test_mepe_members(self):
        layout = standard_layout(Strategy.MEPE, 3, 2)
        probe = make_probe(Strategy.MEPE, layout)
        assert len(probe.groups) == 1
        g = probe.groups[0]
        assert g.photon_ids == (1, 2, 3, 4, 5, 6)
        assert g.members == ((1, 1), (1, 1), (2, 1), (2, 1), (3, 1), (3, 1))

    def test_mspc_singletons_with_ramped_passes(self):
        layout = standard_layout(Strategy.MSPC, 6)
        probe = make_probe(Strategy.MSPC, layout)
        assert len(probe.groups) == 6
        for k, g in enumerate(probe.groups, start=1):
            assert g.photon_ids == (k,)
            assert g.members == ((k, k),)

    def test_msps_six_singletons(self):
        layout = standard_layout(Strategy.MSPS, 3, 2)
        probe = make_probe(Strategy.MSPS, layout)
        assert len(probe.groups) == 6
        assert all(len(g.photon_ids) == 1 for g in probe.groups)
        assert all(j == 1 for g in probe.groups for _, j in g.members)

    def test_meps_groups_span_all_modes(self):
        layout = standard_layout(Strategy.MEPS, 3, 2)
        for group in layout.grouping:
            modes = sorted(layout.assignments[p - 1][0] for p in group)
            assert modes == [1, 2, 3]

    def test_meps_requires_divisibility(self):
        # N=3 photons over M=2 modes: M does not divide N
        layout = ModeLayout(
            2,
            ((1, 1), (2, 1), (1, 1)),
            ((1, 2), (3,)),
        )
        with pytest.raises(InvalidLayoutError):
            make_probe(Strategy.MEPS, layout)

    def test_generic_needs_explicit_layout(self):
        with pytest.raises(InvalidLayoutError):
            standard_layout(Strategy.GENERIC, 3)

    def test_strategy_layout_mismatch_rejected(self):
        mepe = standard_layout(Strategy.MEPE, 3, 2)
        with pytest.raises(InvalidLayoutError):
            make_probe(Strategy.MSPE, mepe)
        mspc = standard_layout(Strategy.MSPC, 6)
        with pytest.raises(InvalidLayoutError):
            make_probe(Strategy.MEPE, mspc)

    @pytest.mark.parametrize(
        "strategy, assignments, grouping, message",
        [
            ("meps", [[1, 1], [2, 1]] * 2, [[1, 2, 3, 4]], "N/M single-pass groups"),
            ("meps", [[1, 1], [2, 1]] * 2, [[1, 3], [2, 4]], "span every mode"),
            ("mspe", [[1, 1], [2, 1]] * 2, [[1, 2], [3, 4]], "sit in one mode"),
            ("mspe", [[1, 1], [1, 1]], [[1], [2]], "one group in every mode"),
            ("msps", [[1, 1], [2, 1]], [[1, 2]], "single-pass singleton"),
            ("mepc", [[1, 1], [2, 2]], [[1], [2]], "single group"),
            ("mepc", [[1, 1], [1, 2]], [[1, 2]], "one photon in every mode"),
            ("mspc", [[1, 1], [2, 2]], [[1, 2]], "singleton groups"),
            ("mspc", [[1, 1], [1, 2]], [[1], [2]], "one photon in every mode"),
        ],
    )
    def test_layout_breaking_its_strategy_rejected(
        self, strategy, assignments, grouping, message
    ):
        layout = ModeLayout(2, assignments, grouping)
        with pytest.raises(InvalidLayoutError, match=message):
            make_probe(strategy, layout)


class TestCoherence:
    def test_scalar_broadcasts(self):
        layout = standard_layout(Strategy.MSPE, 3, 2)
        probe = make_probe(Strategy.MSPE, layout, coherence=0.8)
        assert [g.coherence for g in probe.groups] == [0.8, 0.8, 0.8]

    def test_per_group_values(self):
        layout = standard_layout(Strategy.MEPS, 3, 2)
        probe = make_probe(Strategy.MEPS, layout, coherence=[0.8, 0.9])
        assert [g.coherence for g in probe.groups] == [0.8, 0.9]

    def test_invalid_values_rejected(self):
        layout = standard_layout(Strategy.MEPE, 3, 2)
        with pytest.raises(InvalidCoherenceError):
            make_probe(Strategy.MEPE, layout, coherence=1.2)
        with pytest.raises(InvalidCoherenceError):
            make_probe(Strategy.MEPE, layout, coherence=[0.5, 0.5])
        with pytest.raises(InvalidCoherenceError):
            make_probe(Strategy.MEPE, layout, coherence=float("nan"))
        meps = standard_layout(Strategy.MEPS, 3, 2)
        with pytest.raises(InvalidCoherenceError):
            make_probe(Strategy.MEPS, meps, coherence=[0.5, float("nan")])


class TestWeights:
    def test_equal_parallel_weights(self):
        layout = standard_layout(Strategy.MEPE, 3, 2)
        np.testing.assert_allclose(weights(layout), [1 / 3] * 3, atol=1e-15)

    def test_pass_weighted(self):
        layout = standard_layout(Strategy.MSPC, 6)
        np.testing.assert_allclose(
            weights(layout), np.arange(1, 7) / 21.0, atol=1e-15
        )

    def test_single_mode(self):
        layout = standard_layout(Strategy.INDIVIDUAL, 1, 2)
        np.testing.assert_allclose(weights(layout), [1.0])

    def test_sum_is_one(self):
        for layout in (
            standard_layout(Strategy.MEPE, 3, 2),
            standard_layout(Strategy.MSPC, 6),
            standard_layout(Strategy.MEPS, 3, 4),
        ):
            assert abs(weights(layout).sum() - 1.0) <= 1e-15

    def test_invariant_under_relabeling_within_mode(self):
        # photons 1 and 2 share mode 1 but carry different pass counts;
        # exchanging their labels must not move any weight
        base = ModeLayout(2, ((1, 2), (1, 3), (2, 1)), ((1,), (2,), (3,)))
        swapped = ModeLayout(2, ((1, 3), (1, 2), (2, 1)), ((1,), (2,), (3,)))
        np.testing.assert_array_equal(weights(base), weights(swapped))


def _hand_built_dense(groups, n):
    """Independent brute-force construction: enumerate all 2**n strings."""
    amps = np.zeros(2**n, dtype=complex)
    for idx in range(2**n):
        bits = [(idx >> (n - p)) & 1 for p in range(1, n + 1)]
        amp = 1.0
        for photons in groups:
            values = {bits[p - 1] for p in photons}
            if len(values) > 1:
                amp = 0.0
                break
            amp *= 1 / np.sqrt(2)
        amps[idx] = amp
    return DenseState(amps)


@pytest.mark.parametrize(
    "strategy,layout_args",
    [
        (Strategy.MEPE, (3, 2)),
        (Strategy.MEPS, (3, 2)),
        (Strategy.MSPE, (3, 2)),
        (Strategy.MSPS, (3, 2)),
        (Strategy.MEPC, (6,)),
        (Strategy.MSPC, (6,)),
        (Strategy.INDIVIDUAL, (3, 2)),
    ],
)
def test_probe_matches_hand_built_dense(strategy, layout_args):
    layout = standard_layout(strategy, *layout_args)
    probe = make_probe(strategy, layout)
    reference = _hand_built_dense(layout.grouping, layout.num_photons)
    assert assert_equiv(probe, reference, 1e-12)
    np.testing.assert_allclose(
        to_dense(probe).amplitudes, reference.amplitudes, atol=1e-15
    )
