import numpy as np
import pytest

from ghzsense import (
    Strategy,
    apply_phases,
    apply_phases_dense,
    assert_equiv,
    make_probe,
    phase_unitary,
    standard_layout,
    to_dense,
    weights,
)
from ghzsense.errors import LayoutMismatchError, NonFinitePhaseError, ValidationError


class TestPhaseUnitary:
    def test_identity_at_zero(self):
        np.testing.assert_allclose(phase_unitary(0.0), np.eye(2))

    def test_pi_gives_minus_i_plus_i(self):
        np.testing.assert_allclose(
            phase_unitary(np.pi), np.diag([-1j, 1j]), atol=1e-15
        )

    def test_two_half_passes_equal_one_full(self):
        twice = phase_unitary(np.pi / 2) @ phase_unitary(np.pi / 2)
        np.testing.assert_allclose(twice, phase_unitary(np.pi), atol=1e-15)

    def test_unitarity(self):
        for theta in np.linspace(-7, 7, 29):
            u = phase_unitary(theta)
            np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-14)


class TestApplyPhases:
    def test_mepe_phase_is_six_theta_hat(self):
        layout = standard_layout(Strategy.MEPE, 3, 2)
        probe = make_probe(Strategy.MEPE, layout)
        theta = np.array([0.2, 0.5, 1.1])
        evolved = apply_phases(probe, theta)
        theta_hat = float(weights(layout) @ theta)
        assert evolved.groups[0].phase == pytest.approx(6 * theta_hat)

    def test_mepc_phase_is_21_theta_hat(self):
        layout = standard_layout(Strategy.MEPC, 6)
        probe = make_probe(Strategy.MEPC, layout)
        theta = np.linspace(0.1, 0.6, 6)
        evolved = apply_phases(probe, theta)
        expected = sum(k * theta[k - 1] for k in range(1, 7))
        assert evolved.groups[0].phase == pytest.approx(expected)
        assert expected == pytest.approx(21 * float(weights(layout) @ theta))

    def test_zero_vector_is_identity(self):
        layout = standard_layout(Strategy.MEPS, 3, 2)
        probe = make_probe(Strategy.MEPS, layout)
        assert apply_phases(probe, [0.0, 0.0, 0.0]) == probe

    def test_structure_and_coherence_untouched(self):
        layout = standard_layout(Strategy.MSPE, 3, 2)
        probe = make_probe(Strategy.MSPE, layout, coherence=0.77)
        evolved = apply_phases(probe, [1.0, 2.0, 3.0])
        for before, after in zip(probe.groups, evolved.groups):
            assert after.photon_ids == before.photon_ids
            assert after.members == before.members
            assert after.coherence == before.coherence

    def test_too_short_phase_vector(self):
        layout = standard_layout(Strategy.MEPE, 3, 2)
        probe = make_probe(Strategy.MEPE, layout)
        with pytest.raises(LayoutMismatchError):
            apply_phases(probe, [0.1, 0.2])

    def test_phase_vector_checks_in_order(self):
        layout = standard_layout(Strategy.MEPE, 3, 2)
        probe = make_probe(Strategy.MEPE, layout)
        with pytest.raises(LayoutMismatchError, match="one-dimensional"):
            apply_phases(probe, [[0.1, 0.2, 0.3]])
        # a non-finite phase is named before a wrong length
        with pytest.raises(LayoutMismatchError, match="finite"):
            apply_phases(probe, [0.1, np.nan])
        with pytest.raises(LayoutMismatchError, match="expected 3 phases, got 1"):
            apply_phases(probe, 0.1)
        one_mode = standard_layout(Strategy.MEPE, 1, 2)
        evolved = apply_phases(make_probe(Strategy.MEPE, one_mode), np.float64(0.25))
        assert evolved.phase.tolist() == [0.5]
        assert not evolved.phase.flags.writeable

    @pytest.mark.parametrize("start", [0.0, 1.5e308])
    def test_overflowing_group_phase_raises(self, start):
        # finite mode phases whose sum, or whose sum with the group's
        # phase so far, overflows give no state with an infinite phase
        layout = standard_layout(Strategy.MEPE, 3, 2)
        probe = make_probe(Strategy.MEPE, layout).with_phase(start)
        theta = [1e308, 1e308, 1e308] if start == 0.0 else [0.0, 0.0, 2.5e307]
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="group phase must be finite"):
            apply_phases(probe, theta)

    def test_overflow_is_a_validation_error_without_warning(self):
        # RuntimeWarning is an error in this suite, so the running sum
        # must not warn; the CLI maps the error to exit code 2
        layout = standard_layout(Strategy.MEPE, 3, 2)
        probe = make_probe(Strategy.MEPE, layout)
        with pytest.raises(NonFinitePhaseError, match="group phase must be finite") as info:
            apply_phases(probe, [0.0, 1e308, 0.0])
        assert isinstance(info.value, ValidationError) and isinstance(info.value, ValueError)
        with pytest.raises(NonFinitePhaseError):
            probe.with_phase(np.inf)

    def test_additivity(self):
        layout = standard_layout(Strategy.MSPC, 6)
        probe = make_probe(Strategy.MSPC, layout)
        rng = np.random.default_rng(3)
        ta, tb = rng.normal(size=6), rng.normal(size=6)
        once = apply_phases(probe, ta + tb)
        twice = apply_phases(apply_phases(probe, ta), tb)
        for g1, g2 in zip(once.groups, twice.groups):
            assert g1.phase == pytest.approx(g2.phase, abs=1e-12)


class TestApplyPhasesDense:
    def test_identity_at_zero(self):
        layout = standard_layout(Strategy.MEPE, 3, 2)
        dense = to_dense(make_probe(Strategy.MEPE, layout))
        out = apply_phases_dense(dense, layout, np.zeros(3))
        np.testing.assert_allclose(out.amplitudes, dense.amplitudes)

    def test_single_photon_pi(self):
        layout = standard_layout(Strategy.INDIVIDUAL, 1, 1)
        probe = make_probe(Strategy.INDIVIDUAL, layout)
        out = apply_phases_dense(to_dense(probe), layout, [np.pi])
        expected = np.array([np.exp(-0.5j * np.pi), np.exp(0.5j * np.pi)]) / np.sqrt(2)
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-15)

    def test_norm_preserved(self):
        layout = standard_layout(Strategy.MEPC, 6)
        dense = to_dense(make_probe(Strategy.MEPC, layout))
        rng = np.random.default_rng(11)
        for _ in range(25):
            out = apply_phases_dense(dense, layout, rng.uniform(-9, 9, 6))
            assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1.0) < 1e-12

    def test_agrees_with_analytic_engine(self):
        rng = np.random.default_rng(5)
        for strategy, args in [
            (Strategy.MEPE, (3, 2)),
            (Strategy.MSPE, (3, 2)),
            (Strategy.MEPC, (6,)),
        ]:
            layout = standard_layout(strategy, *args)
            probe = make_probe(strategy, layout)
            dense0 = to_dense(probe)
            for _ in range(100):
                theta = rng.uniform(-np.pi, np.pi, layout.num_modes)
                analytic = apply_phases(probe, theta)
                dense = apply_phases_dense(dense0, layout, theta)
                assert assert_equiv(analytic, dense, 1e-12)

    def test_photon_count_mismatch(self):
        layout = standard_layout(Strategy.MEPE, 3, 2)
        small = to_dense(make_probe(Strategy.MEPC, standard_layout(Strategy.MEPC, 3)))
        with pytest.raises(LayoutMismatchError):
            apply_phases_dense(small, layout, np.zeros(3))


def test_group_phase_collapses_to_global_function():
    # each named strategy turns the evolved phase into a multiple of the
    # estimand: 6 theta_hat, 3 theta_hat per block, 2 theta_k per mode,
    # 21 theta_hat, k theta_k
    theta = np.array([0.3, 0.7, 1.3])
    theta_hat = theta.mean()
    mepe = apply_phases(
        make_probe(Strategy.MEPE, standard_layout(Strategy.MEPE, 3, 2)), theta
    )
    assert mepe.groups[0].phase == pytest.approx(6 * theta_hat)

    meps = apply_phases(
        make_probe(Strategy.MEPS, standard_layout(Strategy.MEPS, 3, 2)), theta
    )
    for g in meps.groups:
        assert g.phase == pytest.approx(3 * theta_hat)

    mspe = apply_phases(
        make_probe(Strategy.MSPE, standard_layout(Strategy.MSPE, 3, 2)), theta
    )
    for k, g in enumerate(mspe.groups, start=1):
        assert g.phase == pytest.approx(2 * theta[k - 1])

    theta6 = np.array([0.11, 0.23, 0.31, 0.41, 0.53, 0.61])
    mepc = apply_phases(
        make_probe(Strategy.MEPC, standard_layout(Strategy.MEPC, 6)), theta6
    )
    assert mepc.groups[0].phase == pytest.approx(
        21 * float(np.arange(1, 7) @ theta6 / 21)
    )

    mspc = apply_phases(
        make_probe(Strategy.MSPC, standard_layout(Strategy.MSPC, 6)), theta6
    )
    for k, g in enumerate(mspc.groups, start=1):
        assert g.phase == pytest.approx(k * theta6[k - 1])
