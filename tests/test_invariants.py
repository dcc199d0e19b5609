"""Physics invariants over random layouts, and the array-backed state
checked against per-group reference formulas.

Layouts are drawn as GENERIC probes with up to 12 photons: random
grouping, modes, pass counts, coherences and phases.  The Fisher checks
also draw layouts of up to 200 modes in which every group sits in one
mode, whose Fisher matrix is diagonal by structure.  A state is built
from its ModeLayout, and ``state.groups`` is only a view of the same
arrays, so the references below never read it: they loop over
``layout.grouping`` and ``layout.assignments`` one group at a time,
taking each group's V and phi from the state's vectors.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghzsense import (
    FisherMatrix,
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
    LayoutMismatchError,
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
def mode_grouped_layouts(draw, max_modes=200, shared=False):
    """A layout in which every group sits in one mode and every mode holds
    a group; with ``shared``, modes may hold several groups.  Groups take
    1-3 photons in order, their modes in random order."""
    m = draw(st.integers(1, max_modes))
    modes = list(draw(st.permutations(range(1, m + 1))))
    if shared:
        modes += draw(st.lists(st.integers(1, m), max_size=m))
    assignments, grouping = [], []
    for mode in modes:
        size = draw(st.integers(1, 3))
        first = len(assignments) + 1
        grouping.append(tuple(range(first, first + size)))
        assignments += [(mode, draw(st.integers(1, 4))) for _ in range(size)]
    return ModeLayout(m, tuple(assignments), tuple(grouping))


@st.composite
def one_group_per_mode_probes(draw):
    """(layout, probe, theta): one GHZ group in each of up to 200 modes."""
    layout = draw(mode_grouped_layouts())
    groups = len(layout.grouping)
    coherence = draw(st.lists(st.floats(0.0, 1.0), min_size=groups, max_size=groups))
    probe = ProductState(layout, coherence, max_photons=layout.num_photons)
    assert probe._structure.one_group_per_mode is not None
    theta = np.array(
        draw(st.lists(PHASES, min_size=layout.num_modes, max_size=layout.num_modes))
    )
    return layout, probe, theta


FISHER_CASES = st.one_of(probes(), one_group_per_mode_probes())


@st.composite
def shifted_states(draw):
    """(layout, state, theta): a layout's state with random coherences and phases."""
    layout = draw(generic_layouts())
    groups = len(layout.grouping)
    coherence = draw(st.lists(st.floats(0.0, 1.0), min_size=groups, max_size=groups))
    phase = draw(st.lists(PHASES, min_size=groups, max_size=groups))
    theta = np.array(
        draw(st.lists(PHASES, min_size=layout.num_modes, max_size=layout.num_modes))
    )
    return layout, ProductState(layout, coherence).with_phase(phase), theta


def _members(layout, photons):
    """(mode, passes) of each photon of a group, in increasing photon order."""
    return [layout.assignments[p - 1] for p in sorted(photons)]


def _is_singular(state: ProductState) -> bool:
    return any(
        0.5 * (1.0 - abs(v * np.cos(phi))) < 1e-12
        for v, phi in zip(state.coherence, state.phase)
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


@given(FISHER_CASES)
def test_fisher_spectrum_and_matrix_bound_follow_the_eigvalsh_rule(case):
    # whatever the probe's structure lets FisherMatrix and effective_fi_crb
    # skip, the spectrum is eigvalsh's bit for bit, the verdict is the
    # eigvalsh rule's and the value is solve's
    layout, probe, theta = case
    assert probe._structure.rank_bound >= np.linalg.matrix_rank(probe.coefficients)
    try:
        fisher = fisher_matrix(probe, layout, theta)
    except SingularPointError:
        return
    mat = fisher.matrix
    alpha = weights(layout)
    try:
        value = effective_fi_crb(fisher, alpha)
    except SingularMatrixError:
        value = None
    else:
        assert value == 1.0 / (alpha @ np.linalg.solve(mat, alpha))
    spectrum = np.linalg.eigvalsh(mat)
    np.testing.assert_array_equal(fisher.eigenvalues, spectrum)
    sigma = np.abs(spectrum)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = sigma.max() / sigma.min()
    # eigvalsh resolves the smallest |lambda| to about n * eps * max|lambda|,
    # so within that band of the threshold the verdict may go either way;
    # the zero matrix (cond NaN) and exact zeros (cond inf) lie outside it
    band = 2 * len(mat) * np.finfo(float).eps * 1e12
    if not abs(cond / 1e12 - 1.0) <= band:
        assert (value is None) == (not 0.0 < sigma.max() <= 1e12 * sigma.min())


@given(FISHER_CASES)
def test_fisher_matrix_is_the_dense_product_bit_for_bit(case):
    # a probe with one group per mode writes its products onto a zero
    # matrix instead of multiplying; every entry, signed zeros included,
    # is still the matrix product's
    layout, probe, theta = case
    try:
        fisher = fisher_matrix(probe, layout, theta)
    except SingularPointError:
        return
    evolved = apply_phases(probe, theta)
    s = evolved.coherence * np.sin(evolved.phase)
    f = s * s / ((1.0 - evolved.coherence**2) + s * s)
    coeff = probe.coefficients
    assert fisher.matrix.tobytes() == ((coeff.T * f) @ coeff).tobytes()


#: Scales of the group information, from subnormal to beyond LAPACK's
#: unscaled range.
SCALES = (5e-324, 1e-310, 1e-150, 1.0, 1e150)


@given(
    mode_grouped_layouts(shared=True),
    st.sampled_from(SCALES),
    st.integers(0, 2**32 - 1),
)
def test_diagonal_matrix_bound_equals_solve_without_a_warning(layout, scale, seed):
    # a diagonal F is solved by a division; solve stays the oracle, except
    # where a subnormal diagonal overflows the quotient: the bound is then
    # below ~5.6e-309 and reads 0.0, where solve's back-substitution may
    # multiply the infinite entry by a zero and give NaN
    probe = ProductState(layout, max_photons=layout.num_photons)
    assert probe._structure.diagonal
    f = scale * np.random.default_rng(seed).uniform(1.0, 100.0, len(layout.grouping))
    fisher = FisherMatrix._from_terms(probe._structure, f)
    alpha = weights(layout)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = effective_fi_crb(fisher, alpha)
        except SingularMatrixError:
            return
        expected = 1.0 / (alpha @ np.linalg.solve(fisher.matrix, alpha))
    with np.errstate(over="ignore"):
        overflows = np.isinf(alpha / fisher.matrix.diagonal()).any()
    assert value == (0.0 if overflows else expected)


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
    layout, state, theta = case
    evolved = apply_phases(state, theta)
    expected = [
        phi + float(sum(j * theta[mode - 1] for mode, j in _members(layout, photons)))
        for photons, phi in zip(layout.grouping, state.phase)
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
    evolved = apply_phases(state, theta)
    reference = np.zeros((m, m))
    for photons, v, phi in zip(layout.grouping, evolved.coherence, evolved.phase):
        s = v * np.sin(phi)
        f = s * s / ((1.0 - v**2) + s * s)
        grad = np.zeros(m)
        for mode, j in _members(layout, photons):
            grad[mode - 1] += j
        reference += f * np.outer(grad, grad)
    np.testing.assert_allclose(fisher, reference, rtol=1e-12, atol=0.0)


@given(shifted_states())
def test_outcome_distribution_matches_per_group_product_exactly(case):
    layout, state, theta = case
    evolved = apply_phases(state, theta)
    n = layout.num_photons
    reference = np.full(2**n, 2.0**-n)
    for photons, v, phi in zip(layout.grouping, evolved.coherence, evolved.phase):
        mask = sum(1 << (n - p) for p in photons)
        reference = reference * (1.0 + _parities(n, mask) * (v * np.cos(phi)))
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


@given(generic_layouts())
def test_state_arrays_match_layout_loop(layout):
    state = ProductState(layout)
    m, width = layout.num_modes, max(len(g) for g in layout.grouping)
    assert state.photon_ids == tuple(tuple(sorted(g)) for g in layout.grouping)
    assert state.num_modes == m
    for g, photons in enumerate(layout.grouping):
        coefficients, modes, passes = np.zeros(m), np.zeros(width), np.zeros(width)
        for slot, (mode, j) in enumerate(_members(layout, photons)):
            coefficients[mode - 1] += j
            modes[slot], passes[slot] = mode - 1, j
        np.testing.assert_array_equal(state.coefficients[g], coefficients)
        np.testing.assert_array_equal(state.photon_modes[g], modes)
        np.testing.assert_array_equal(state.photon_passes[g], passes)


def test_equality_compares_layout_arrays_and_vectors():
    layout = ModeLayout(3, ((1, 1), (2, 2)), ((1, 2),))
    probe = ProductState(layout, 0.9)
    assert ProductState(layout, 0.9) == probe
    assert ProductState(layout, 0.8) != probe
    assert probe.with_phase(0.1) != probe
    for other in (
        ModeLayout(3, ((1, 1), (2, 1)), ((1, 2),)),  # passes differ
        ModeLayout(3, ((1, 1), (3, 2)), ((1, 2),)),  # modes differ
        ModeLayout(2, ((1, 1), (2, 2)), ((1, 2),)),  # mode count differs
        ModeLayout(3, ((1, 1), (2, 2)), ((1,), (2,))),  # grouping differs
    ):
        assert ProductState(other, 0.9) != probe


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
    # the facts derived from C are computed on first read, once per structure
    assert "rank_bound" not in vars(probe._structure)
    assert evolved._structure.rank_bound == 3
    assert recohered._structure is probe._structure
    assert "rank_bound" in vars(probe._structure)


def test_state_arrays_are_read_only():
    probe = make_probe(Strategy.MEPE, standard_layout(Strategy.MEPE, 3, 2))
    for values in (probe.phase, probe.coherence, probe.coefficients):
        with pytest.raises(ValueError):
            values[0] = 1.0
    assert isinstance(probe.groups, tuple)


@pytest.mark.parametrize(
    "coherence", [1.5, -0.1, float("nan"), [0.5, 2.0], [0.5, 0.5, 0.5]]
)
def test_with_coherence_rejects_values_outside_unit_interval(coherence):
    probe = make_probe(Strategy.MEPS, standard_layout(Strategy.MEPS, 3, 2))
    with pytest.raises(InvalidCoherenceError):
        probe.with_coherence(coherence)


def test_unused_mode_still_counts():
    # mode 3 carries no photon, yet the probe lives on all three modes
    layout = ModeLayout(3, ((1, 1), (2, 1)), ((1, 2),))
    probe = make_probe(Strategy.GENERIC, layout, 0.9)
    assert probe.num_modes == 3
    with pytest.raises(LayoutMismatchError):
        apply_phases(probe, [0.3, 0.7])
    fisher = fisher_matrix(probe, layout, [0.3, 0.7, 1.1]).matrix
    assert fisher.shape == (3, 3)
    np.testing.assert_array_equal(fisher[2], 0.0)
    assert fisher[0, 0] > 0.0
