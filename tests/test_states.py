import numpy as np
import pytest

from ghzsense import (
    ModeLayout,
    ProductState,
    Strategy,
    apply_phases,
    apply_phases_dense,
    assert_equiv,
    make_probe,
    standard_layout,
    to_dense,
)
from ghzsense.errors import (
    DimensionMismatchError,
    InvalidCoherenceError,
    InvalidLayoutError,
    LayoutMismatchError,
    NotPureError,
    TooLargeError,
)
from ghzsense.states import MAX_PHOTONS

SQRT2 = np.sqrt(2.0)


def product_state(*grouping, coherence=1.0, phase=0.0, max_photons=MAX_PHOTONS):
    """Single-pass photons in one mode, entangled as ``grouping``."""
    n = sum(len(g) for g in grouping)
    layout = ModeLayout(1, ((1, 1),) * n, grouping)
    return ProductState(layout, coherence, max_photons).with_phase(phase)


class TestProductState:
    def test_partition_enforced(self):
        # the layout owns the partition; a state is only built from a valid one
        with pytest.raises(InvalidLayoutError):
            ModeLayout(1, ((1, 1), (1, 1)), ((1,), (1,)))
        with pytest.raises(InvalidLayoutError):
            ModeLayout(1, ((1, 1), (1, 1)), ((1,), (3,)))
        with pytest.raises(InvalidLayoutError):
            ModeLayout(1, ((1, 1),), ((1,), ()))

    def test_max_photons_cap(self):
        singletons = tuple((p,) for p in range(1, 14))
        with pytest.raises(TooLargeError):
            product_state(*singletons)
        # the cap is configurable for analytic-only work
        state = product_state(*singletons, max_photons=13)
        assert state.total_photons == 13

    def test_purity_flag(self):
        assert product_state((1,)).is_pure
        assert not product_state((1,), coherence=0.9).is_pure

    def test_with_phase_needs_one_phase_per_group(self):
        probe = make_probe(Strategy.MEPS, standard_layout(Strategy.MEPS, 3, 2))
        with pytest.raises(LayoutMismatchError, match=r"one phase per group \(2\)"):
            probe.with_phase([0.1, 0.2, 0.3])
        # a scalar still broadcasts to every group
        assert list(probe.with_phase(0.3).phase) == [0.3, 0.3]


class TestToDense:
    def test_single_photon_plus_state(self):
        state = product_state((1,))
        dense = to_dense(state)
        np.testing.assert_allclose(dense.amplitudes, [1 / SQRT2, 1 / SQRT2])

    def test_six_photon_ghz(self):
        state = product_state((1, 2, 3, 4, 5, 6))
        amps = to_dense(state).amplitudes
        expected = np.zeros(64, dtype=complex)
        expected[0] = expected[63] = 1 / SQRT2
        np.testing.assert_allclose(amps, expected)

    def test_three_pair_product(self):
        # expand (|HH> + |VV>)^{x3} / (2 sqrt(2)) by hand: the nonzero
        # strings pair up photons (1,2), (3,4), (5,6)
        amps = to_dense(product_state((1, 2), (3, 4), (5, 6))).amplitudes
        nonzero = np.flatnonzero(np.abs(amps) > 1e-15)
        expected_indices = sorted(
            (a * 0b110000) | (b * 0b001100) | (c * 0b000011)
            for a in (0, 1)
            for b in (0, 1)
            for c in (0, 1)
        )
        assert list(nonzero) == expected_indices
        np.testing.assert_allclose(amps[nonzero], 1 / (2 * SQRT2))

    def test_group_phase_lands_on_v_branch(self):
        state = product_state((1, 2), phase=0.7)
        amps = to_dense(state).amplitudes
        assert amps[0] == pytest.approx(1 / SQRT2)
        assert amps[3] == pytest.approx(np.exp(0.7j) / SQRT2)

    def test_rejects_mixed_state(self):
        with pytest.raises(NotPureError):
            to_dense(product_state((1,), coherence=0.5))

    def test_unit_norm_for_random_structures(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            ids = list(range(1, n + 1))
            rng.shuffle(ids)
            grouping, phases = [], []
            while ids:
                size = int(rng.integers(1, len(ids) + 1))
                chunk, ids = sorted(ids[:size]), ids[size:]
                grouping.append(chunk)
                phases.append(float(rng.uniform(-10, 10)))
            dense = to_dense(product_state(*grouping, phase=phases))
            assert abs(np.sum(np.abs(dense.amplitudes) ** 2) - 1.0) < 1e-10


class TestAssertEquiv:
    def test_probe_against_own_dense_image(self):
        layout = standard_layout(Strategy.MEPE, 3, 2)
        probe = make_probe(Strategy.MEPE, layout)
        assert assert_equiv(probe, to_dense(probe), 1e-12)
        assert assert_equiv(probe, to_dense(probe), 0.0)

    def test_distinguishes_strategies_at_generic_theta(self):
        theta = [0.4, 0.9, 1.7]
        lay_e = standard_layout(Strategy.MEPE, 3, 2)
        lay_s = standard_layout(Strategy.MSPE, 3, 2)
        mepe = apply_phases(make_probe(Strategy.MEPE, lay_e), theta)
        mspe_dense = apply_phases_dense(
            to_dense(make_probe(Strategy.MSPE, lay_s)), lay_s, theta
        )
        assert not assert_equiv(mepe, mspe_dense, 1e-12)

    def test_rejects_mixed_state(self):
        probe = product_state((1,), coherence=0.3)
        pure = to_dense(product_state((1,)))
        with pytest.raises(NotPureError):
            assert_equiv(probe, pure, 1e-9)

    def test_dimension_mismatch(self):
        probe = make_probe(Strategy.MEPE, standard_layout(Strategy.MEPE, 3, 2))
        dense = to_dense(product_state((1, 2)))
        with pytest.raises(DimensionMismatchError, match="6 vs 2"):
            assert_equiv(probe, dense, 1e-12)


def test_engine_equivalence_over_random_phases():
    # analytic and dense engines agree on every outcome probability
    rng = np.random.default_rng(42)
    cases = [
        (Strategy.MEPE, standard_layout(Strategy.MEPE, 3, 2)),
        (Strategy.MEPS, standard_layout(Strategy.MEPS, 3, 2)),
        (Strategy.MSPE, standard_layout(Strategy.MSPE, 3, 2)),
        (Strategy.MSPS, standard_layout(Strategy.MSPS, 3, 2)),
        (Strategy.MEPC, standard_layout(Strategy.MEPC, 6)),
        (Strategy.MSPC, standard_layout(Strategy.MSPC, 6)),
    ]
    for strategy, layout in cases:
        probe = make_probe(strategy, layout)
        dense0 = to_dense(probe)
        for _ in range(20):
            theta = rng.uniform(-np.pi, np.pi, layout.num_modes)
            evolved = apply_phases(probe, theta)
            dense = apply_phases_dense(dense0, layout, theta)
            assert assert_equiv(evolved, dense, 1e-12)
