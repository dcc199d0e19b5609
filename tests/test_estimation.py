import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzsense import (
    CountRecord,
    FringeModel,
    Strategy,
    apply_phases,
    crb,
    db_reduction,
    effective_fi,
    effective_fi_crb,
    fi_curve,
    fisher_matrix,
    fit_fringe,
    fringe_multiplier,
    infer_multiplier,
    make_probe,
    mle_estimate,
    outcome_distribution,
    repeat_estimation,
    sample_counts,
    standard_layout,
    theoretical_limits,
    weights,
)
from ghzsense.errors import (
    DegenerateFitError,
    FlatLikelihoodError,
    InsufficientDataError,
    SingularMatrixError,
    SingularPointError,
    UnsupportedLayoutError,
)


def fd_fisher(probe, layout, theta, step=1e-6):
    """Independent oracle: central finite differences of the outcome model."""
    theta = np.asarray(theta, dtype=float)
    m = layout.num_modes

    def probs(t):
        return outcome_distribution(apply_phases(probe, t)).probabilities

    grads = []
    for k in range(m):
        up, dn = theta.copy(), theta.copy()
        up[k] += step
        dn[k] -= step
        grads.append((probs(up) - probs(dn)) / (2.0 * step))
    p0 = probs(theta)
    keep = p0 > 1e-13
    fisher = np.zeros((m, m))
    for k in range(m):
        for l in range(m):
            fisher[k, l] = np.sum(grads[k][keep] * grads[l][keep] / p0[keep])
    return fisher


class TestFisherMatrix:
    def test_individual_pair_at_quarter_fringe(self):
        layout = standard_layout(Strategy.INDIVIDUAL, 3, 2)
        probe = make_probe(Strategy.INDIVIDUAL, layout)
        theta = np.array([np.pi / 4, np.pi / 4, np.pi / 4])  # 2 theta_k = pi/2
        fisher = fisher_matrix(probe, layout, theta)
        np.testing.assert_allclose(fisher.matrix, np.diag([4.0, 4.0, 4.0]), atol=1e-12)

    def test_mepe_effective_fi_is_36(self):
        layout = standard_layout(Strategy.MEPE, 3, 2)
        probe = make_probe(Strategy.MEPE, layout)
        theta = np.array([np.pi / 12, np.pi / 12, np.pi / 12])  # cos(6 theta_hat) = 0
        fisher = fisher_matrix(probe, layout, theta)
        assert effective_fi(fisher, weights(layout)) == pytest.approx(36.0, abs=1e-9)

    def test_msps_effective_fi_is_6(self):
        layout = standard_layout(Strategy.MSPS, 3, 2)
        probe = make_probe(Strategy.MSPS, layout)
        fisher = fisher_matrix(probe, layout, [0.4, 0.9, 1.3])
        assert effective_fi(fisher, weights(layout)) == pytest.approx(6.0, abs=1e-9)

    def test_singular_point_raises(self):
        layout = standard_layout(Strategy.MEPE, 3, 2)
        probe = make_probe(Strategy.MEPE, layout)
        with pytest.raises(SingularPointError):
            fisher_matrix(probe, layout, np.zeros(3))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        cases = [
            (Strategy.MEPE, standard_layout(Strategy.MEPE, 3, 2)),
            (Strategy.MEPS, standard_layout(Strategy.MEPS, 3, 2)),
            (Strategy.MSPE, standard_layout(Strategy.MSPE, 3, 2)),
            (Strategy.MSPC, standard_layout(Strategy.MSPC, 6)),
        ]
        for strategy, layout in cases:
            for _ in range(10):
                v = float(rng.uniform(0.3, 1.0))
                probe = make_probe(strategy, layout, coherence=v)
                while True:
                    theta = rng.uniform(-np.pi, np.pi, layout.num_modes)
                    evolved = apply_phases(probe, theta)
                    margins = [
                        min(abs(np.sin(g.phase)), 1 - abs(np.cos(g.phase)))
                        for g in evolved.groups
                    ]
                    if min(margins) > 0.05:
                        break
                analytic = fisher_matrix(probe, layout, theta).matrix
                numeric = fd_fisher(probe, layout, theta)
                rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(analytic)
                assert rel < 1e-6


class TestEffectiveFi:
    def test_equal_diagonal(self):
        alpha = np.full(3, 1 / 3)
        assert effective_fi(np.diag([4.0, 4.0, 4.0]), alpha) == pytest.approx(12.0)

    def test_pass_weighted_diagonal(self):
        alpha = np.arange(1, 7) / 21.0
        fisher = np.diag(np.arange(1.0, 7.0) ** 2)
        assert effective_fi(fisher, alpha) == pytest.approx(2275 * 441 / 8281)

    def test_scaled_identity(self):
        alpha = np.array([0.5, 0.3, 0.2])
        c = 7.3
        assert effective_fi(c * np.eye(3), alpha) == pytest.approx(c / (alpha @ alpha))


class TestEffectiveFiCrb:
    def test_equal_diagonal_matches_plain(self):
        alpha = np.full(3, 1 / 3)
        assert effective_fi_crb(np.diag([4.0] * 3), alpha) == pytest.approx(12.0)

    def test_pass_weighted_diagonal(self):
        alpha = np.arange(1, 7) / 21.0
        fisher = np.diag(np.arange(1.0, 7.0) ** 2)
        assert effective_fi_crb(fisher, alpha) == pytest.approx(73.5)

    def test_identity(self):
        alpha = np.array([0.6, 0.3, 0.1])
        assert effective_fi_crb(np.eye(3), alpha) == pytest.approx(1 / (alpha @ alpha))

    def test_singular_matrix(self):
        grad = np.array([2.0, 2.0, 2.0])
        with pytest.raises(SingularMatrixError):
            effective_fi_crb(np.outer(grad, grad), np.full(3, 1 / 3))

    def test_agrees_with_plain_for_equal_diagonal(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            c = float(rng.uniform(0.1, 50))
            alpha = rng.dirichlet(np.ones(4))
            plain = effective_fi(c * np.eye(4), alpha)
            bound = effective_fi_crb(c * np.eye(4), alpha)
            assert plain == pytest.approx(bound, rel=1e-10)


class TestCrb:
    def test_heisenberg_parallel(self):
        assert crb(36.0, 1) == pytest.approx(1 / 6)

    def test_heisenberg_combined(self):
        assert crb(441.0, 1) == pytest.approx(1 / 21)

    def test_trials_scale(self):
        assert crb(1.0, 100) == pytest.approx(0.1)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            crb(0.0, 1)
        with pytest.raises(ValueError):
            crb(1.0, 0)


class TestFiCurve:
    def test_noise_free_peak(self):
        assert fi_curve(1.0, 6, np.pi / 12) == pytest.approx(36.0, abs=1e-9)

    def test_parallel_fitted_visibility_peak(self):
        v = np.sqrt((0.756**2 + 0.765**2) / 2)
        assert fi_curve(v, 6, np.pi / 12) == pytest.approx(20.82, abs=0.01)

    def test_zero_visibility(self):
        assert fi_curve(0.0, 6, 0.37) == 0.0

    def test_matches_mepe_effective_fi(self):
        layout = standard_layout(Strategy.MEPE, 3, 2)
        alpha = weights(layout)
        for v in (0.5, 0.9):
            probe = make_probe(Strategy.MEPE, layout, coherence=v)
            for theta_hat in np.linspace(0.05, 1.0, 17):
                theta = np.full(3, theta_hat)
                eff = effective_fi(fisher_matrix(probe, layout, theta), alpha)
                assert eff == pytest.approx(
                    fi_curve(v, 6, theta_hat), abs=1e-10, rel=1e-10
                )

    def test_monotone_in_abs_cos(self):
        for v in (0.3, 0.7, 0.95):
            theta = np.linspace(0.0, np.pi / 12, 200)  # |cos 6t| decreasing
            values = fi_curve(v, 6, theta)
            assert np.all(np.diff(values) >= -1e-12)


class TestTheoreticalLimits:
    def test_parallel_family(self):
        lay = standard_layout(Strategy.MEPE, 3, 2)
        assert theoretical_limits(Strategy.MEPE, lay)["fi"] == 36.0
        assert theoretical_limits(Strategy.MEPS, lay)["fi"] == 18.0
        assert theoretical_limits(Strategy.MSPE, lay)["fi"] == 12.0
        assert theoretical_limits(Strategy.MSPS, lay)["fi"] == 6.0
        assert theoretical_limits(Strategy.MSPS, lay)["snl_fi"] == 6.0

    def test_combined_family(self):
        lay = standard_layout(Strategy.MEPC, 6)
        limits = theoretical_limits(Strategy.MEPC, lay)
        assert limits["fi"] == 441.0
        assert limits["rmse"] == pytest.approx(1 / 21)
        assert limits["snl_fi"] == 21.0
        assert theoretical_limits(Strategy.MSPC, standard_layout(Strategy.MSPC, 6))[
            "fi"
        ] == 91.0

    def test_individual(self):
        lay = standard_layout(Strategy.INDIVIDUAL, 3, 2)
        limits = theoretical_limits(Strategy.INDIVIDUAL, lay)
        assert limits["fi"] == 4.0
        assert limits["snl_fi"] == 2.0

    def test_generic_unsupported(self):
        lay = standard_layout(Strategy.MEPE, 3, 2)
        with pytest.raises(UnsupportedLayoutError):
            theoretical_limits(Strategy.GENERIC, lay)


class TestDbReduction:
    @pytest.mark.parametrize(
        "fi,ref,expected",
        [
            (20.825, 6.0, 2.70),
            (12.313, 6.0, 1.56),
            (3.887 + 3.832 + 3.877, 6.0, 1.43),
            (3.88, 2.0, 1.44),
            (180.0, 21.0, 4.7),
        ],
    )
    def test_reported_reductions(self, fi, ref, expected):
        assert db_reduction(fi, ref) == pytest.approx(expected, abs=0.05)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            db_reduction(0.0, 1.0)


class TestFitFringe:
    def test_noiseless_roundtrip(self):
        theta = np.linspace(0, 2 * np.pi / 6, 61)
        model = FringeModel(0.8, 6.0)
        p_plus = model.p_plus(theta)
        fit = fit_fringe(theta, p_plus, 1 - p_plus, 6.0)
        assert fit.v_plus == pytest.approx(0.8, abs=1e-9)
        assert fit.v_minus == pytest.approx(0.8, abs=1e-9)
        assert fit.offset == pytest.approx(0.0, abs=1e-9)

    def test_asymmetric_visibilities_roundtrip(self):
        # the fit layer allows independent branch visibilities even
        # though the generative model is symmetric
        theta = np.linspace(0, np.pi, 41)
        p_plus = 0.5 * (1 + 0.982 * np.cos(2 * theta))
        p_minus = 0.5 * (1 - 0.989 * np.cos(2 * theta))
        fit = fit_fringe(theta, p_plus, p_minus, 2.0)
        assert fit.v_plus == pytest.approx(0.982, abs=1e-9)
        assert fit.v_minus == pytest.approx(0.989, abs=1e-9)

    def test_offset_recovered(self):
        theta = np.linspace(0, np.pi, 61)
        delta = 0.6
        p_plus = 0.5 * (1 + 0.9 * np.cos(2 * theta + delta))
        p_minus = 0.5 * (1 - 0.9 * np.cos(2 * theta + delta))
        fit = fit_fringe(theta, p_plus, p_minus, 2.0)
        assert fit.offset == pytest.approx(delta, abs=1e-9)

    def test_sampled_recovery_within_three_sigma(self):
        layout = standard_layout(Strategy.MEPE, 3, 2)
        probe = make_probe(Strategy.MEPE, layout, coherence=0.76)
        grid = np.linspace(0, 2 * np.pi, 61)
        shots = 7000
        p_plus, p_minus = [], []
        for i, t1 in enumerate(grid):
            theta = np.array([t1, np.pi / 6, np.pi / 3])
            dist = outcome_distribution(apply_phases(probe, theta))
            counts = sample_counts(dist, shots, seed=5000 + i)
            from ghzsense import parity_counts

            pc = parity_counts(counts)
            p_plus.append(pc.counts[0] / shots)
            p_minus.append(pc.counts[1] / shots)
        theta_hat = (grid + np.pi / 6 + np.pi / 3) / 3
        fit = fit_fringe(theta_hat, np.array(p_plus), np.array(p_minus), 6.0)
        sigma = max(fit.conf90[0] / 1.645, 1e-6)
        assert abs(fit.v_plus - 0.76) < 3 * sigma

    def test_insufficient_points(self):
        theta = np.linspace(0, np.pi, 4)
        with pytest.raises(InsufficientDataError):
            fit_fringe(theta, theta * 0 + 0.5, theta * 0 + 0.5, 2.0)

    def test_insufficient_span(self):
        theta = np.linspace(0, 0.1, 40)  # far less than half a c=2 period
        p = 0.5 * (1 + 0.9 * np.cos(2 * theta))
        with pytest.raises(InsufficientDataError):
            fit_fringe(theta, p, 1 - p, 2.0)

    def test_degenerate_grid(self):
        theta = np.full(10, 0.3)
        theta[0] = 0.3 + np.pi  # span ok for c=2 but only two distinct x
        p = 0.5 * (1 + 0.9 * np.cos(2 * theta))
        with pytest.raises(DegenerateFitError):
            fit_fringe(theta, p, 1 - p, 2.0)

    def test_infer_multiplier(self):
        theta = np.linspace(0, np.pi, 61)
        model = FringeModel(0.7, 6.0)
        p_plus = model.p_plus(theta)
        assert infer_multiplier(theta, p_plus, 1 - p_plus) == 6


class TestFringeMultiplier:
    def test_named_strategies(self):
        assert fringe_multiplier(Strategy.MEPE, standard_layout(Strategy.MEPE, 3, 2)) == 6
        assert fringe_multiplier(Strategy.MEPS, standard_layout(Strategy.MEPS, 3, 2)) == 3
        assert fringe_multiplier(Strategy.MSPE, standard_layout(Strategy.MSPE, 3, 2)) == 2
        assert fringe_multiplier(Strategy.MEPC, standard_layout(Strategy.MEPC, 6)) == 21


class TestMleEstimate:
    def test_all_plus_counts_peak_at_zero(self):
        record = CountRecord(50, np.array([50, 0]))
        model = FringeModel(1.0, 6.0)
        assert mle_estimate(record, model, prior_center=0.0) == 0.0

    def test_balanced_counts_give_quarter_fringe(self):
        record = CountRecord(100, np.array([50, 50]))
        model = FringeModel(1.0, 6.0)
        est = mle_estimate(record, model, prior_center=np.pi / 12)
        assert est == pytest.approx(np.pi / 12, abs=1e-9)

    def test_simulation_self_consistency(self):
        model = FringeModel(0.9, 6.0)
        theta_true = np.pi / 12
        result = repeat_estimation(model, theta_true, groups=200, shots_per_group=70, seed=7)
        stderr = result.std_dev / np.sqrt(result.groups)
        assert abs(result.theta_hat - theta_true) < 3 * stderr

    @settings(max_examples=300)
    @given(
        visibility=st.floats(0.0, 1.0, exclude_min=True),
        multiplier=st.integers(-24, 24).filter(bool),
        offset=st.floats(-np.pi, np.pi),
        record=st.integers(1, 500).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(0, n))
        ),
        prior=st.floats(-np.pi, np.pi),
    )
    def test_no_grid_point_beats_the_closed_form(
        self, visibility, multiplier, offset, record, prior
    ):
        # Oracle: the clipped log-likelihood on a dense grid over one period
        # centred on the prior.  Likelihoods, not thetas, are compared, so
        # flat plateaus (saturated records, tiny V) cannot make this flaky.
        total, n_plus = record
        n_minus = total - n_plus
        model = FringeModel(visibility, float(multiplier), offset)

        def loglik(theta):
            p = np.clip(model.p_plus(theta), 1e-300, 1.0)
            q = np.clip(1.0 - p, 1e-300, 1.0)
            return n_plus * np.log(p) + n_minus * np.log(q)

        est = mle_estimate(
            CountRecord(total, np.array([n_plus, n_minus])), model, prior_center=prior
        )
        half_period = np.pi / abs(multiplier)
        assert abs(est - prior) <= half_period * (1.0 + 1e-12)
        # the mirror branch, reflected about the fringe extreme, is no nearer
        mirror = -est - 2.0 * offset / multiplier
        mirror += 2.0 * half_period * np.round((prior - mirror) / (2.0 * half_period))
        assert abs(est - prior) <= abs(mirror - prior) + 1e-9
        grid = np.linspace(prior - half_period, prior + half_period, 20001)
        best = float(np.max(loglik(grid)))
        ll = float(loglik(est))
        assert ll >= best - 1e-12 * (1.0 + abs(ll))

    def test_flat_likelihood(self):
        with pytest.raises(FlatLikelihoodError):
            mle_estimate(CountRecord(10, np.array([5, 5])), FringeModel(0.0, 6.0))
        with pytest.raises(FlatLikelihoodError):
            mle_estimate(CountRecord(0, np.array([0, 0])), FringeModel(0.9, 6.0))


class TestRepeatEstimation:
    def test_minimal_case_formula(self):
        model = FringeModel(0.9, 6.0)
        result = repeat_estimation(model, np.pi / 12, groups=2, shots_per_group=2, seed=1)
        assert result.std_dev_error == pytest.approx(result.std_dev / np.sqrt(2))

    def test_validates_sizes(self):
        model = FringeModel(0.9, 6.0)
        with pytest.raises(ValueError):
            repeat_estimation(model, 0.1, groups=1, shots_per_group=10, seed=0)
        with pytest.raises(ValueError):
            repeat_estimation(model, 0.1, groups=10, shots_per_group=1, seed=0)

    def test_large_shots_approach_crb(self):
        model = FringeModel(1.0, 6.0)
        theta_true = np.pi / 12
        result = repeat_estimation(
            model, theta_true, groups=80, shots_per_group=100_000, seed=13
        )
        band = 3.0 / np.sqrt(2 * (result.groups - 1))
        assert abs(result.std_dev / result.crb - 1.0) < band

    def test_mle_efficiency_band(self):
        # delta_theta * sqrt(s * F) within [0.9, 1.1] at s = 1e4
        model = FringeModel(0.9, 6.0)
        theta_true = 0.11
        result = repeat_estimation(
            model, theta_true, groups=100, shots_per_group=10_000, seed=29
        )
        ratio = result.std_dev * np.sqrt(
            result.shots_per_group * model.fisher(theta_true)
        )
        assert 0.9 <= ratio <= 1.1

    def test_deterministic_given_seed(self):
        model = FringeModel(0.8, 21.0)
        a = repeat_estimation(model, np.pi / 42, 10, 70, seed=55)
        b = repeat_estimation(model, np.pi / 42, 10, 70, seed=55)
        assert a.estimates == b.estimates


def test_mspc_convention_triple():
    # the pass-weighted separable design exposes three inequivalent
    # effective-information conventions; all are reported, none hidden
    layout = standard_layout(Strategy.MSPC, 6)
    probe = make_probe(Strategy.MSPC, layout)
    alpha = weights(layout)
    theta = np.pi / 2 / np.arange(1, 7)  # every group at quarter fringe
    fisher = fisher_matrix(probe, layout, theta)
    assert effective_fi(fisher, alpha) == pytest.approx(2275 * 441 / 8281, rel=1e-9)
    assert effective_fi_crb(fisher, alpha) == pytest.approx(73.5, rel=1e-9)
    assert theoretical_limits(Strategy.MSPC, layout)["fi"] == 91.0
