import itertools
from math import sqrt

import numpy as np
import pytest

from ghzsense import (
    ModeLayout,
    Strategy,
    assert_equiv,
    make_probe,
    standard_layout,
    theoretical_limits,
    to_dense,
    weights,
)
from ghzsense import probes
from ghzsense.errors import (
    InvalidCoherenceError,
    InvalidLayoutError,
    UnsupportedLayoutError,
)
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


# ---------------------------------------------------------------- oracle
# The case-by-case layout check and closed-form limits that the taxonomy
# table replaced, kept here as an oracle for the table's rules.


def _case_check(strategy: Strategy, layout: ModeLayout) -> None:
    n = layout.num_photons
    m = layout.num_modes
    single_pass = all(j == 1 for _, j in layout.assignments)
    group_modes = [
        sorted(layout.assignments[p - 1][0] for p in g) for g in layout.grouping
    ]
    every_mode = sorted(mode for mode, _ in layout.assignments) == list(range(1, m + 1))
    if strategy is Strategy.MEPE:
        ok = len(layout.grouping) == 1 and single_pass
    elif strategy is Strategy.MEPS:
        ok = (
            n % m == 0
            and len(layout.grouping) == n // m
            and single_pass
            and all(modes == list(range(1, m + 1)) for modes in group_modes)
        )
    elif strategy in (Strategy.MSPE, Strategy.INDIVIDUAL):
        ok = (
            len(layout.grouping) == m
            and single_pass
            and all(len(set(modes)) == 1 for modes in group_modes)
            and sorted(modes[0] for modes in group_modes) == list(range(1, m + 1))
        )
    elif strategy is Strategy.MSPS:
        ok = all(len(g) == 1 for g in layout.grouping) and single_pass
    elif strategy is Strategy.MEPC:
        ok = len(layout.grouping) == 1 and every_mode
    elif strategy is Strategy.MSPC:
        ok = all(len(g) == 1 for g in layout.grouping) and every_mode
    else:
        ok = True
    if not ok:
        raise InvalidLayoutError(f"{strategy.value} layout")


def _case_limits(strategy: Strategy, layout: ModeLayout) -> dict:
    n_photons = layout.num_photons
    n_passes = layout.total_passes
    mode_photons = layout.mode_photons()
    mode_passes = layout.mode_passes()
    if strategy is Strategy.MEPE:
        fi = float(n_photons**2)
    elif strategy is Strategy.MEPS:
        fi = float(layout.num_modes * n_photons)
    elif strategy is Strategy.MSPE:
        fi = float(np.sum(mode_photons.astype(float) ** 2))
    elif strategy is Strategy.MSPS:
        fi = float(n_photons)
    elif strategy is Strategy.INDIVIDUAL:
        if np.ptp(mode_photons) != 0:
            raise UnsupportedLayoutError("per-mode limit")
        fi = float(mode_photons[0] ** 2)
    elif strategy is Strategy.MEPC:
        fi = float(n_passes**2)
    elif strategy is Strategy.MSPC:
        fi = float(np.sum(mode_passes.astype(float) ** 2))
    else:
        raise UnsupportedLayoutError(f"no closed-form limit for {strategy}")
    snl = float(mode_photons[0] if strategy is Strategy.INDIVIDUAL else n_passes)
    return {"fi": fi, "rmse": 1.0 / sqrt(fi), "snl_fi": snl, "snl_rmse": 1.0 / sqrt(snl)}


def _partitions(items):
    """Every set partition of the list ``items``."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _partitions(rest):
        yield [(first,), *partition]
        for i, block in enumerate(partition):
            yield [*partition[:i], (first, *block), *partition[i + 1:]]


def _small_layouts():
    """Every layout with N <= 4 photons in M <= 3 modes, passes in {1, 2}."""
    for m in range(1, 4):
        for n in range(1, 5):
            groupings = list(_partitions(list(range(1, n + 1))))
            for modes in itertools.product(range(1, m + 1), repeat=n):
                for passes in itertools.product((1, 2), repeat=n):
                    assignments = tuple(zip(modes, passes))
                    for grouping in groupings:
                        yield ModeLayout(m, assignments, grouping)


def _result(function, *args):
    """``function(*args)``, or the class of the layout error it raises."""
    try:
        return function(*args)
    except (InvalidLayoutError, UnsupportedLayoutError) as exc:
        return type(exc)


@pytest.mark.parametrize("strategy", list(Strategy))
def test_taxonomy_rules_match_the_case_by_case_rules(strategy):
    """The layout check refuses exactly the layouts that the case-by-case
    check refuses, with the same error class, and the limits agree on
    every layout that check accepts."""
    accepted = 0
    for layout in _small_layouts():
        expected = _result(_case_check, strategy, layout)
        assert _result(probes._check_consistent, strategy, layout) == expected, layout
        if expected is None:
            accepted += 1
            assert _result(theoretical_limits, strategy, layout) == _result(
                _case_limits, strategy, layout
            ), layout
    assert accepted > 0


@pytest.mark.parametrize("strategy", list(Strategy))
def test_every_accepted_limit_reaches_its_reference(strategy):
    """No layout that theoretical_limits accepts reads below shot noise."""
    for layout in _small_layouts():
        limits = _result(theoretical_limits, strategy, layout)
        if isinstance(limits, dict):
            assert limits["fi"] >= limits["snl_fi"], layout
