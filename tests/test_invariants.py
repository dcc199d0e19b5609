"""Physics invariants over random layouts, and the array-backed state
checked against per-group reference formulas.

Layouts are drawn as GENERIC probes with up to 12 photons: random
grouping, modes, pass counts, coherences and phases.  The references
below loop over ``state.groups`` one group at a time, the way the
library did before it held a ProductState as arrays.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghzsense import (
    GhzGroup,
    ModeLayout,
    ProductState,
    Strategy,
    apply_phases,
    apply_phases_dense,
    dense_outcome_distribution,
    effective_fi,
    effective_fi_crb,
    fisher_matrix,
    make_probe,
    outcome_distribution,
    standard_layout,
    theoretical_limits,
    to_dense,
    weights,
)
from ghzsense.errors import (
    InvalidCoherenceError,
    SingularMatrixError,
    SingularPointError,
)
from ghzsense.measurement import _parities

PHASES = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)


@st.composite
def generic_layouts(draw, max_photons=12):
    n = draw(st.integers(1, max_photons))
    m = draw(st.integers(1, 4))
    assignments = tuple(
        (draw(st.integers(1, m)), draw(st.integers(1, 4))) for _ in range(n)
    )
    order = draw(st.permutations(range(1, n + 1)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
    bounds = [0, *cuts, n]
    grouping = tuple(tuple(sorted(order[a:b])) for a, b in zip(bounds, bounds[1:]))
    return ModeLayout(m, assignments, grouping)


@st.composite
def probes(draw, pure=None):
    """(layout, probe, theta): a GENERIC probe with random coherences."""
    layout = draw(generic_layouts())
    groups = len(layout.grouping)
    if pure is None:
        pure = draw(st.booleans())
    coherence = 1.0 if pure else draw(
        st.lists(st.floats(0.0, 1.0), min_size=groups, max_size=groups)
    )
    probe = make_probe(Strategy.GENERIC, layout, coherence)
    theta = np.array(
        draw(st.lists(PHASES, min_size=layout.num_modes, max_size=layout.num_modes))
    )
    return layout, probe, theta


@st.composite
def shifted_states(draw):
    """(layout, state, theta): a state built from GhzGroups with random phases."""
    layout = draw(generic_layouts())
    groups = []
    for photons in layout.grouping:
        photons = tuple(sorted(photons))
        groups.append(
            GhzGroup(
                photons,
                tuple(layout.assignments[p - 1] for p in photons),
                coherence=draw(st.floats(0.0, 1.0)),
                phase=draw(PHASES),
            )
        )
    theta = np.array(
        draw(st.lists(PHASES, min_size=layout.num_modes, max_size=layout.num_modes))
    )
    return layout, ProductState(tuple(groups)), theta


def _is_singular(state: ProductState) -> bool:
    return any(
        0.5 * (1.0 - abs(g.coherence * np.cos(g.phase))) < 1e-12 for g in state.groups
    )


# ------------------------------------------------------- physics invariants


@given(probes())
def test_probabilities_sum_to_one(case):
    _, probe, theta = case
    probs = outcome_distribution(apply_phases(probe, theta)).probabilities
    assert np.all(probs >= 0.0)
    assert abs(probs.sum() - 1.0) <= 1e-12


@given(probes(pure=True))
def test_analytic_and_dense_engines_agree(case):
    layout, probe, theta = case
    analytic = outcome_distribution(apply_phases(probe, theta)).probabilities
    dense = apply_phases_dense(to_dense(probe), layout, theta)
    oracle = dense_outcome_distribution(dense).probabilities
    assert np.max(np.abs(analytic - oracle)) <= 1e-12


@given(probes())
def test_fisher_matrix_is_psd_and_below_heisenberg(case):
    layout, probe, theta = case
    try:
        fisher = fisher_matrix(probe, layout, theta)
    except SingularPointError:
        # the skip is only allowed where a group parity probability vanishes
        assert _is_singular(apply_phases(probe, theta))
        return
    mat = fisher.matrix
    assert np.min(np.linalg.eigvalsh(mat)) >= -1e-9 * max(1.0, np.max(np.abs(mat)))
    # pass-weighted information never beats n^2, the mepc closed form
    heisenberg = theoretical_limits(Strategy.MEPC, layout)["fi"]
    assert effective_fi(fisher, weights(layout)) <= heisenberg * (1 + 1e-12)


#: Strategies whose limit bounds the whole estimand (INDIVIDUAL's is per mode).
NAMED = (
    Strategy.MEPE,
    Strategy.MEPS,
    Strategy.MSPE,
    Strategy.MSPS,
    Strategy.MEPC,
    Strategy.MSPC,
)


@given(
    st.sampled_from(NAMED),
    st.integers(1, 4),
    st.integers(1, 3),
    st.lists(st.integers(1, 4), min_size=4, max_size=4),
    st.floats(0.0, 1.0),
    st.lists(PHASES, min_size=4, max_size=4),
)
def test_effective_fi_below_closed_form_limit(strategy, m, q, passes, v, theta):
    if strategy in (Strategy.MEPC, Strategy.MSPC):
        layout = standard_layout(strategy, m, passes=tuple(passes[:m]))
    else:
        layout = standard_layout(strategy, m, q)
    probe = make_probe(strategy, layout, v)
    try:
        fisher = fisher_matrix(probe, layout, theta[:m])
    except SingularPointError:
        assert _is_singular(apply_phases(probe, theta[:m]))
        return
    limit = theoretical_limits(strategy, layout)["fi"] * (1 + 1e-12)
    alpha = weights(layout)
    # mspc's pass-weighted effective_fi exceeds sum n_k^2 by design
    # (test_estimation.py::test_mspc_convention_triple); its matrix bound does not
    if strategy is not Strategy.MSPC:
        assert effective_fi(fisher, alpha) <= limit
    try:
        assert effective_fi_crb(fisher, alpha) <= limit
    except SingularMatrixError:
        pass


# --------------------------------- array path against per-group references


@given(shifted_states())
def test_apply_phases_matches_per_group_sum_exactly(case):
    _, state, theta = case
    evolved = apply_phases(state, theta)
    expected = [
        g.phase + float(sum(j * theta[mode - 1] for mode, j in g.members))
        for g in state.groups
    ]
    assert evolved.phase.tolist() == expected
    assert [g.phase for g in evolved.groups] == expected
    np.testing.assert_array_equal(evolved.coherence, state.coherence)


@given(shifted_states())
def test_fisher_matrix_matches_per_group_outer_products(case):
    layout, state, theta = case
    m = layout.num_modes
    try:
        fisher = fisher_matrix(state, layout, theta).matrix
    except SingularPointError:
        assert _is_singular(apply_phases(state, theta))
        return
    reference = np.zeros((m, m))
    for g in apply_phases(state, theta).groups:
        s = g.coherence * np.sin(g.phase)
        f = s * s / ((1.0 - g.coherence**2) + s * s)
        grad = g.phase_coefficients(m)
        reference += f * np.outer(grad, grad)
    np.testing.assert_allclose(fisher, reference, rtol=1e-12, atol=0.0)


@given(shifted_states())
def test_outcome_distribution_matches_per_group_product_exactly(case):
    _, state, theta = case
    evolved = apply_phases(state, theta)
    n = evolved.total_photons
    reference = np.full(2**n, 2.0**-n)
    for g in evolved.groups:
        mask = sum(1 << (n - p) for p in g.photon_ids)
        reference = reference * (
            1.0 + _parities(n, mask) * (g.coherence * np.cos(g.phase))
        )
    reference = np.clip(reference, 0.0, None)
    np.testing.assert_array_equal(outcome_distribution(evolved).probabilities, reference)


# ----------------------------------------------------- the array-backed state


def test_hot_paths_build_no_group_records(monkeypatch):
    layout = standard_layout(Strategy.MEPS, 3, 2)
    probe = make_probe(Strategy.MEPS, layout, 0.8)

    def forbidden(self):
        raise AssertionError("a hot path built a GhzGroup")

    monkeypatch.setattr(GhzGroup, "__post_init__", forbidden)
    theta = [0.3, 0.7, 1.1]
    evolved = apply_phases(probe.with_coherence([0.9, 0.7]), theta)
    outcome_distribution(evolved)
    fisher_matrix(probe, layout, theta)


def test_copies_share_the_validated_structure():
    layout = standard_layout(Strategy.MSPE, 3, 2)
    probe = make_probe(Strategy.MSPE, layout, 0.9)
    evolved = apply_phases(probe, [0.1, 0.2, 0.3])
    recohered = probe.with_coherence(0.5)
    assert evolved.coefficients is probe.coefficients
    assert recohered.photon_ids is probe.photon_ids
    np.testing.assert_array_equal(probe.phase, [0.0, 0.0, 0.0])
    np.testing.assert_array_equal(recohered.coherence, [0.5, 0.5, 0.5])
    np.testing.assert_array_equal(probe.coefficients, np.diag([2.0, 2.0, 2.0]))


def test_state_arrays_are_read_only():
    probe = make_probe(Strategy.MEPE, standard_layout(Strategy.MEPE, 3, 2))
    for values in (probe.phase, probe.coherence, probe.coefficients):
        with pytest.raises(ValueError):
            values[0] = 1.0
    assert isinstance(probe.groups, tuple)


@pytest.mark.parametrize("coherence", [1.5, -0.1, float("nan"), [0.5, 2.0]])
def test_with_coherence_rejects_values_outside_unit_interval(coherence):
    probe = make_probe(Strategy.MEPS, standard_layout(Strategy.MEPS, 3, 2))
    with pytest.raises(InvalidCoherenceError):
        probe.with_coherence(coherence)
