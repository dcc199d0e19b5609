"""Physics invariants over random layouts, and the array-backed state
checked against per-group reference formulas.

Layouts are drawn as GENERIC probes with up to 12 photons: random
grouping, modes, pass counts, coherences and phases.  The Fisher checks
also draw layouts of up to 200 modes in which every group sits in one
mode, whose Fisher matrix is diagonal by structure, and one-group
layouts of up to 200 modes, whose Fisher matrix has rank one.  A state
is built from its ModeLayout, and ``state.groups`` is only a view of
the same arrays, so the references below never read it: they loop over
``layout.grouping`` and ``layout.assignments`` one group at a time,
taking each group's V and phi from the state's vectors.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ghzsense import (
    FisherMatrix,
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


@st.composite
def one_group_probes(draw):
    """(layout, probe, theta): one GHZ group over every photon of up to
    200 modes, 1-2 photons per mode, each making one pass (mepe-like)
    or up to 1000 (mepc-like)."""
    m = draw(st.integers(1, 200))
    passes = st.integers(1, draw(st.sampled_from([1, 1000])))
    photons = draw(st.lists(st.integers(1, 2), min_size=m, max_size=m))
    assignments = tuple(
        (mode, draw(passes)) for mode, count in enumerate(photons, start=1) for _ in range(count)
    )
    layout = ModeLayout(m, assignments, (tuple(range(1, len(assignments) + 1)),))
    probe = ProductState(layout, draw(st.floats(0.0, 1.0)), max_photons=layout.num_photons)
    theta = np.array(draw(st.lists(PHASES, min_size=m, max_size=m)))
    return layout, probe, theta


FISHER_CASES = st.one_of(probes(), one_group_per_mode_probes(), one_group_probes())


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


def _sigma_x(amplitudes: np.ndarray, n: int) -> np.ndarray:
    """Normalized Hadamard on each of ``n`` photons, photon 1 the top bit."""
    psi = amplitudes
    for p in range(n):
        psi = psi.reshape(2**p, 2, -1)
        psi = np.stack((psi[:, 0] + psi[:, 1], psi[:, 0] - psi[:, 1]), axis=1) / np.sqrt(2.0)
    return psi.reshape(-1)


def flip_mixing_oracle(layout, probe, theta):
    """(P, dP): the sigma_x table of ``probe`` evolved by ``theta`` and its
    gradient over the mode phases, from the pure dense state alone.

    dP_k = 2 Re(conj(H psi) H(i g_k psi)), g_k the diagonal generator of
    mode k; each group's coherence V is then mixed into P and dP alike,
    P <- (1+V)/2 P + (1-V)/2 P[x ^ bit], flipping one photon of the group
    (and so its parity)."""
    n = layout.num_photons
    psi = apply_phases_dense(to_dense(probe.with_coherence(1.0)), layout, theta).amplitudes
    index = np.arange(2**n)
    generators = np.zeros((layout.num_modes, 2**n))
    for p, (mode, passes) in enumerate(layout.assignments, start=1):
        generators[mode - 1] += np.where((index >> (n - p)) & 1, 0.5, -0.5) * passes
    h_psi = _sigma_x(psi, n)
    table = np.abs(h_psi) ** 2
    grad = np.array([2.0 * np.real(np.conj(h_psi) * _sigma_x(1j * g * psi, n)) for g in generators])
    for photons, v in zip(probe.photon_ids, probe.coherence):
        flipped = index ^ (1 << (n - photons[0]))
        table = (1.0 + v) / 2.0 * table + (1.0 - v) / 2.0 * table[flipped]
        grad = (1.0 + v) / 2.0 * grad + (1.0 - v) / 2.0 * grad[:, flipped]
    return table, grad


@given(probes())
def test_dephased_tables_match_the_flip_mixing_oracle(case):
    layout, probe, theta = case
    table, _ = flip_mixing_oracle(layout, probe, theta)
    analytic = outcome_distribution(apply_phases(probe, theta)).probabilities
    assert np.max(np.abs(analytic - table)) <= 1e-12


@given(probes())
def test_dephased_fisher_matrices_match_the_flip_mixing_oracle(case):
    layout, probe, theta = case
    try:
        fisher = fisher_matrix(probe, layout, theta).matrix
    except SingularPointError:
        return
    table, grad = flip_mixing_oracle(layout, probe, theta)
    inverse = np.divide(1.0, table, out=np.zeros_like(table), where=table > 0.0)
    expected = (grad * inverse) @ grad.T
    # mixing leaves dP_mixed = V dP + rounding of about eps |dP|, so the
    # oracle is good to about eps / V relative; the scale is floored at
    # 1e-12 of the pure probe's C^T C (F <= C^T C), reached only where
    # every V is below ~1e-6
    coeff = probe.coefficients
    scale = max(np.linalg.norm(expected), 1e-12 * np.linalg.norm(coeff.T @ coeff))
    assert np.linalg.norm(fisher - expected) <= 1e-9 * scale


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
    # matrix, and a one-group probe takes the outer product of c f and c,
    # instead of multiplying; every entry, signed zeros included, is
    # still the matrix product's
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
            value = None
        else:
            expected = 1.0 / (alpha @ np.linalg.solve(fisher.matrix, alpha))
    if value is not None:
        with np.errstate(over="ignore"):
            overflows = np.isinf(alpha / fisher.matrix.diagonal()).any()
        assert value == (0.0 if overflows else expected)
    # at every scale, outside LAPACK's unscaled range too, the verdict is
    # the exact diagonal's, and the spectrum read is eigvalsh's
    d = fisher.matrix.diagonal()
    assert (value is not None) == (0.0 < d.max() <= 1e12 * d.min())
    np.testing.assert_array_equal(fisher.eigenvalues, np.linalg.eigvalsh(fisher.matrix))


@st.composite
def group_structures(draw):
    """The shared structure of a layout of up to 60 groups of 1-3 photons
    in up to 30 modes, each photon making up to 10^4 passes."""
    m = draw(st.integers(1, 30))
    assignments, grouping = [], []
    for _ in range(draw(st.integers(1, 60))):
        first = len(assignments) + 1
        size = draw(st.integers(1, 3))
        grouping.append(tuple(range(first, first + size)))
        assignments += [(draw(st.integers(1, m)), draw(st.integers(1, 10**4))) for _ in range(size)]
    layout = ModeLayout(m, tuple(assignments), tuple(grouping))
    return ProductState(layout, max_photons=layout.num_photons)._structure


def rounding_bound(structure, f: np.ndarray) -> float:
    """2 gamma_{G+2} sum_g max_k C_gk^2 max(f), gamma_n = n u / (1 - n u)
    and u = 2^-53: for f >= 0, the bound of docs/formulas.md on every
    entry of |F - F^T|, F = C^T diag(f) C summed in any order."""
    nu = (len(structure.coefficients) + 2) * 2.0**-53
    peaks = structure.coefficients.max(axis=1)
    return 2.0 * nu / (1.0 - nu) * float(peaks @ peaks) * f.max()


@given(group_structures(), st.sampled_from(SCALES), st.integers(0, 2**32 - 1))
def test_built_matrix_is_symmetric_within_the_rounding_bound(structure, scale, seed):
    # F = C^T diag(f) C is built without a symmetry check: whatever order
    # the product sums in, |F - F^T| stays within the rounding bound,
    # so the 1e-10 check a matrix from outside gets would pass wherever
    # that bound is 1e-10 or less
    f = scale * np.random.default_rng(seed).uniform(1.0, 100.0, len(structure.photon_ids))
    mat = FisherMatrix._from_terms(structure, f).matrix
    asymmetry = np.max(np.abs(mat - mat.T))
    bound = rounding_bound(structure, f)
    assert asymmetry <= bound
    if bound <= 1e-10:
        assert asymmetry <= 1e-10


def test_asymmetry_bound_is_not_loose_by_a_factor_two():
    # one group in two modes: (c_1 f) c_2 and (c_2 f) c_1 round apart by
    # 0.64 of the bound, so half of it would not hold
    layout = ModeLayout(2, ((1, 8510), (2, 8513)), ((1, 2),))
    structure = ProductState(layout)._structure
    f = np.array([2037490.407521542])
    mat = FisherMatrix._from_terms(structure, f).matrix
    bound = rounding_bound(structure, f)
    assert 0.5 * bound < abs(mat[0, 1] - mat[1, 0]) <= bound


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


def _state_case(strategy, coherence, phase, theta):
    layout = standard_layout(strategy, 3, 2)
    return layout, ProductState(layout, coherence).with_phase(phase), np.array(theta)


@given(shifted_states())
# meps interleaves its groups, (1, 3, 5) and (2, 4, 6)
@example(_state_case(Strategy.MEPS, [0.8, 0.35], [0.3, -2.0], [0.4, 1.9, -0.7]))
# V = 0 makes a group's factors exactly 1; V = 1 at a fringe extremum makes them 0 and 2
@example(_state_case(Strategy.MEPS, [0.0, 1.0], [1.1, 0.0], [0.0, 0.0, 0.0]))
@example(_state_case(Strategy.MSPS, [1.0, 0.0, 1.0, 0.0, 1.0, 0.0], [0.0] * 6, [0.5, 0.0, np.pi]))
@example(_state_case(Strategy.MEPE, 0.0, [0.0], [0.0, 0.0, 0.0]))
@example(_state_case(Strategy.MEPE, 1.0, [0.0], [0.0, 0.0, 0.0]))
def test_outcome_distribution_matches_per_group_product_exactly(case):
    # the loop of full-length products over the groups is the oracle, bit
    # for bit (a sign of zero included)
    layout, state, theta = case
    evolved = apply_phases(state, theta)
    n = layout.num_photons
    reference = np.full(2**n, 2.0**-n)
    for photons, v, phi in zip(layout.grouping, evolved.coherence, evolved.phase):
        mask = sum(1 << (n - p) for p in photons)
        reference = reference * (1.0 + _parities(n, mask) * (v * np.cos(phi)))
    reference = np.clip(reference, 0.0, None)
    probabilities = outcome_distribution(evolved).probabilities
    np.testing.assert_array_equal(probabilities.view(np.uint64), reference.view(np.uint64))


# ----------------------------------------------------- the array-backed state


def test_hot_paths_build_no_group_records(monkeypatch):
    layout = standard_layout(Strategy.MEPS, 3, 2)
    probe = make_probe(Strategy.MEPS, layout, 0.8)

    def refuse(self):
        raise AssertionError("a hot path read ProductState.groups")

    monkeypatch.setattr(ProductState, "groups", property(refuse))
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
