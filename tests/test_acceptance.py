"""Acceptance gate: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line
per criterion.  Tolerances are pinned here, not calibrated elsewhere.
"""

import time

import numpy as np

from ghzsense import (
    ModeLayout,
    SourceModel,
    Strategy,
    apply_phases,
    apply_phases_dense,
    counts_consistent,
    crb,
    db_reduction,
    dense_outcome_distribution,
    effective_fi,
    effective_fi_crb,
    fi_curve,
    fisher_matrix,
    make_probe,
    outcome_distribution,
    repeat_estimation,
    simulate_run,
    standard_layout,
    theoretical_limits,
    to_dense,
    weights,
)
from ghzsense.estimation import FringeModel
from ghzsense.harness import reproduce

SEED = 20260810


def _report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} {status}: {detail}")
    assert ok, detail


def _combined_snl_layout() -> ModeLayout:
    # separable single-pass reference for the pass-weighted estimand:
    # mode k holds k independent photons, 21 in total
    assignments = []
    for mode in range(1, 7):
        assignments.extend([(mode, 1)] * mode)
    grouping = tuple((p,) for p in range(1, 22))
    return ModeLayout(6, tuple(assignments), grouping)


def test_criterion_1_noise_free_limits():
    """Effective FI at V=1 reproduces every closed-form strategy limit."""
    checks = []

    def eval_at(strategy, layout, theta, reduction):
        probe = make_probe(strategy, layout, max_photons=layout.num_photons)
        fisher = fisher_matrix(probe, layout, theta)
        return reduction(fisher, weights(layout))

    parallel = np.array([np.pi / 12 + 0.013, np.pi / 12, np.pi / 12 - 0.013])
    cases = [
        ("mepe", Strategy.MEPE, standard_layout(Strategy.MEPE, 3, 2), parallel,
         effective_fi, 36.0),
        ("meps", Strategy.MEPS, standard_layout(Strategy.MEPS, 3, 2), parallel,
         effective_fi, 18.0),
        ("mspe", Strategy.MSPE, standard_layout(Strategy.MSPE, 3, 2), parallel,
         effective_fi, 12.0),
        ("msps snl", Strategy.MSPS, standard_layout(Strategy.MSPS, 3, 2), parallel,
         effective_fi, 6.0),
        ("mepc", Strategy.MEPC, standard_layout(Strategy.MEPC, 6),
         np.full(6, np.pi / 42), effective_fi, 441.0),  # total phase pi/2
    ]
    for name, strategy, layout, theta, reduction, target in cases:
        value = eval_at(strategy, layout, theta, reduction)
        checks.append((name, value, target))
        limit = theoretical_limits(strategy, layout)["fi"]
        assert limit == target

    # combined shot-noise reference: matrix bound of the separable
    # single-pass layout carrying the same pass-weighted estimand
    snl_layout = _combined_snl_layout()
    theta21 = np.full(6, np.pi / 2)
    value = eval_at(Strategy.GENERIC, snl_layout, theta21, effective_fi_crb)
    checks.append(("combined snl", value, 21.0))
    assert theoretical_limits(Strategy.MEPC, standard_layout(Strategy.MEPC, 6))[
        "snl_fi"
    ] == 21.0

    worst = max(abs(v - t) for _, v, t in checks)
    detail = ", ".join(f"{n}={v:.12g}" for n, v, t in checks) + f" (worst |err|={worst:.2e})"
    _report(1, worst <= 1e-9, detail)


def test_criterion_2_db_convention():
    """The dB convention reproduces all five reported reductions."""
    pairs = [
        (20.825, 6.0, 2.70),
        (12.313, 6.0, 1.56),
        (3.887 + 3.832 + 3.877, 6.0, 1.43),
        (3.88, 2.0, 1.44),
        (180.0, 21.0, 4.7),
    ]
    values = [db_reduction(fi, ref) for fi, ref, _ in pairs]
    worst = max(abs(v - expected) for v, (_, _, expected) in zip(values, pairs))
    detail = ", ".join(f"{v:.3f}dB" for v in values) + f" (worst dev {worst:.3f} dB)"
    _report(2, worst <= 0.05, detail)


def test_criterion_3_visibility_to_fi_peak():
    """Fitted visibilities map to the reported information maxima."""
    grid = np.linspace(0, 2 * np.pi, 200_001)
    v_parallel = np.sqrt((0.756**2 + 0.765**2) / 2)
    peak6 = float(np.max(fi_curve(v_parallel, 6, grid)))
    v_combined = np.sqrt((0.647**2 + 0.631**2) / 2)
    peak21 = float(np.max(fi_curve(v_combined, 21, grid)))
    ok = abs(peak6 - 20.82) <= 0.1 and abs(peak21 - 180.0) <= 2.0
    _report(3, ok, f"peak(c=6)={peak6:.3f} vs 20.82+-0.1, peak(c=21)={peak21:.2f} vs 180+-2")


def test_criterion_4_oracle_equivalence():
    """Analytic and dense engines agree to 1e-12 for all six strategies."""
    start = time.time()
    rng = np.random.default_rng(SEED)
    cases = [
        (Strategy.MEPE, standard_layout(Strategy.MEPE, 3, 2)),
        (Strategy.MEPS, standard_layout(Strategy.MEPS, 3, 2)),
        (Strategy.MSPE, standard_layout(Strategy.MSPE, 3, 2)),
        (Strategy.MSPS, standard_layout(Strategy.MSPS, 3, 2)),
        (Strategy.MEPC, standard_layout(Strategy.MEPC, 6)),
        (Strategy.MSPC, standard_layout(Strategy.MSPC, 6)),
    ]
    worst = 0.0
    for strategy, layout in cases:
        probe = make_probe(strategy, layout)
        dense0 = to_dense(probe)
        for _ in range(100):
            theta = rng.uniform(-np.pi, np.pi, layout.num_modes)
            analytic = outcome_distribution(apply_phases(probe, theta)).probabilities
            dense = dense_outcome_distribution(
                apply_phases_dense(dense0, layout, theta)
            ).probabilities
            worst = max(worst, float(np.max(np.abs(analytic - dense))))
    elapsed = time.time() - start
    _report(
        4,
        worst <= 1e-12 and elapsed < 10,
        f"600 random comparisons, max deviation {worst:.2e} in {elapsed:.1f}s",
    )


def _fd_fisher(probe, layout, theta, step=1e-6):
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


def test_criterion_5_fisher_consistency():
    """Analytic Fisher matrices match finite differences to 1e-6 relative."""
    start = time.time()
    rng = np.random.default_rng(SEED + 1)
    strategies = [
        (Strategy.MEPE, standard_layout(Strategy.MEPE, 3, 2)),
        (Strategy.MEPS, standard_layout(Strategy.MEPS, 3, 2)),
        (Strategy.MSPE, standard_layout(Strategy.MSPE, 3, 2)),
        (Strategy.MSPS, standard_layout(Strategy.MSPS, 3, 2)),
        (Strategy.MEPC, standard_layout(Strategy.MEPC, 6)),
        (Strategy.MSPC, standard_layout(Strategy.MSPC, 6)),
    ]
    worst = 0.0
    samples = 0
    while samples < 200:
        strategy, layout = strategies[samples % len(strategies)]
        v = float(rng.uniform(0.3, 1.0))
        probe = make_probe(strategy, layout, coherence=v)
        theta = rng.uniform(-np.pi, np.pi, layout.num_modes)
        evolved = apply_phases(probe, theta)
        margins = [
            min(abs(np.sin(g.phase)), 1.0 - abs(v * np.cos(g.phase)))
            for g in evolved.groups
        ]
        if min(margins) < 0.05:  # singular-point neighborhood excluded
            continue
        analytic = fisher_matrix(probe, layout, theta).matrix
        numeric = _fd_fisher(probe, layout, theta)
        rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(analytic)
        worst = max(worst, float(rel))
        samples += 1
    elapsed = time.time() - start
    _report(
        5,
        worst <= 1e-6 and elapsed < 30,
        f"200 samples, worst relative deviation {worst:.2e} in {elapsed:.1f}s",
    )


def test_criterion_6_mle_crb_saturation():
    """Grouped MLE saturates the bound at the combined operating point."""
    start = time.time()
    v_fit = np.sqrt((0.647**2 + 0.631**2) / 2)
    model = FringeModel(v_fit, 21.0)
    theta_true = np.pi / 42  # quarter fringe: peak information
    result = repeat_estimation(model, theta_true, groups=100, shots_per_group=70, seed=SEED)
    bound = crb(model.fisher(theta_true), result.shots_per_group)
    sigma = result.std_dev_error  # std_dev / sqrt(2 (s - 1))
    deviation = abs(result.std_dev - bound)
    elapsed = time.time() - start
    _report(
        6,
        deviation <= 3 * sigma and elapsed < 60,
        f"std={result.std_dev:.6f}, bound={bound:.6f}, |dev|={deviation:.2e} "
        f"<= 3 sigma={3 * sigma:.2e}, {elapsed:.1f}s",
    )


def test_criterion_7_postselection_invariance():
    """Conditional statistics are unchanged by channel loss."""
    start = time.time()
    layout = standard_layout(Strategy.MEPE, 3, 2)
    probe = make_probe(Strategy.MEPE, layout, coherence=0.9)
    theta = np.array([0.45, np.pi / 6, np.pi / 3])
    p = 0.0195
    lossless = SourceModel(pair_probability=p, pulses=18_000_000_000,
                           channel_efficiency=1.0)
    lossy = SourceModel(pair_probability=p, pulses=1_150_000_000_000,
                        channel_efficiency=0.5)
    seed_a, seed_b = np.random.SeedSequence(SEED + 2).spawn(2)
    rec_a, stats_a = simulate_run(lossless, probe, theta, seed=seed_a)
    rec_b, stats_b = simulate_run(lossy, probe, theta, seed=seed_b)
    ok_counts = min(stats_a.coincidences, stats_b.coincidences) >= 100_000
    consistent = counts_consistent(rec_a, rec_b)
    elapsed = time.time() - start
    _report(
        7,
        ok_counts and consistent and elapsed < 60,
        f"coincidences {stats_a.coincidences} (eta=1.0) vs {stats_b.coincidences} "
        f"(eta=0.5), chi-square consistent={consistent}, {elapsed:.1f}s",
    )


def test_criterion_8_reproduce_determinism(tmp_path):
    """reproduce('fig4') twice yields byte-identical CSV files."""
    _, first = reproduce("fig4", tmp_path / "run1")
    _, second = reproduce("fig4", tmp_path / "run2")
    names = [p.name for p in first]
    identical = all(
        a.read_bytes() == b.read_bytes() for a, b in zip(first, second)
    )
    _report(8, identical and len(first) == 3, f"{names} byte-identical={identical}")
