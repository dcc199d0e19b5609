"""Scalar arguments follow the config's rules, refused by name.

Every public callable below reads its scalar arguments through the same
checkers as the config readers.  A malformed value (a boolean, NaN, an
infinity, a fraction where a count is due, a number out of range, as a
Python or a numpy scalar, alone or inside a per-group or per-channel
sequence) must raise ``ValueError`` or a package ``ValidationError``
whose message names the argument: never a numpy error, a NaN result or
a boolean read as a number.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzsense import (
    CountRecord,
    FringeModel,
    ModeLayout,
    SourceModel,
    crb,
    db_reduction,
    fi_curve,
    fit_fringe,
    make_probe,
    mle_estimate,
    outcome_distribution,
    phase_unitary,
    postselected_distribution_invariance,
    repeat_estimation,
    sample_counts,
    simulate_run,
    standard_layout,
    subset_parity_marginal,
)
from ghzsense.config import SweepSpec
from ghzsense.errors import ValidationError
from ghzsense.measurement import draw_counts

_LAYOUT = standard_layout("mepe", 3, 2)
_PROBE = make_probe("mepe", _LAYOUT, 0.9)
_DIST = outcome_distribution(_PROBE)
_MODEL = FringeModel(0.9, 6.0)
_GRID = np.linspace(0.0, np.pi, 21)
_P_PLUS = 0.5 * (1 + 0.9 * np.cos(2 * _GRID))
_SOURCE = SourceModel(0.9, 50)
_THETA = [0.1, 0.2, 0.3]


def _sweep(start, stop):
    return SweepSpec.from_dict({"parameter": 1, "start": start, "stop": stop, "steps": 5})


#: name -> (call with the argument set to a value, rule, the argument's
#: name in the message, and for a count or a seed its smallest valid
#: value, which for a record's shots is the only one).  A name ending in
#: ``[]`` puts the value in a sequence of one per group or channel.
_CASES = {
    "SourceModel.pair_probability": (
        lambda v: SourceModel(v, 10), "unit", "pair_probability", None
    ),
    "SourceModel.pulses": (lambda v: SourceModel(0.5, v), "count", "pulses", 0),
    "SourceModel.num_sources": (lambda v: SourceModel(0.5, 10, v), "count", "num_sources", 1),
    "SourceModel.channel_efficiency": (
        lambda v: SourceModel(0.5, 10, 3, v), "unit", "channel_efficiency", None
    ),
    "SourceModel.channel_efficiency[]": (
        lambda v: SourceModel(0.5, 10, 3, [v] * 6), "unit", "channel_efficiency", None
    ),
    "FringeModel.visibility": (lambda v: FringeModel(v, 6.0), "unit", "visibility", None),
    "FringeModel.multiplier": (lambda v: FringeModel(0.9, v), "multiplier", "multiplier", None),
    "fi_curve.visibility": (lambda v: fi_curve(v, 6.0, 0.3), "unit", "visibility", None),
    "fi_curve.multiplier": (lambda v: fi_curve(0.9, v, 0.3), "multiplier", "multiplier", None),
    "fit_fringe.multiplier": (
        lambda v: fit_fringe(_GRID, _P_PLUS, 1 - _P_PLUS, v), "multiplier", "multiplier", None
    ),
    "crb.effective_fi": (lambda v: crb(v, 10), "positive", "effective_fi", None),
    "crb.trials": (lambda v: crb(4.0, v), "count", "trials", 1),
    "db_reduction.fi": (lambda v: db_reduction(v, 6.0), "positive", "fi", None),
    "db_reduction.fi_ref": (lambda v: db_reduction(20.0, v), "positive", "fi_ref", None),
    "mle_estimate.prior_center": (
        lambda v: mle_estimate(CountRecord(10, [7, 3]), _MODEL, v), "finite", "prior_center", None
    ),
    "repeat_estimation.theta_true": (
        lambda v: repeat_estimation(_MODEL, v, 4, 10, 0), "finite", "theta_true", None
    ),
    "repeat_estimation.groups": (
        lambda v: repeat_estimation(_MODEL, 0.1, v, 10, 0), "count", "groups", 2
    ),
    "repeat_estimation.shots_per_group": (
        lambda v: repeat_estimation(_MODEL, 0.1, 4, v, 0), "count", "shots_per_group", 2
    ),
    "repeat_estimation.seed": (
        lambda v: repeat_estimation(_MODEL, 0.1, 3, 5, v), "seed", "seed", 0
    ),
    # a record's shot count is stricter: an integral float is refused too
    "CountRecord.shots": (lambda v: CountRecord(v, [7, 3]), "strict", "shots", 10),
    "draw_counts.shots": (
        lambda v: draw_counts(_DIST.probabilities, v, np.random.default_rng(0)), "count", "shots", 0
    ),
    "sample_counts.shots": (lambda v: sample_counts(_DIST, v, 0), "count", "shots", 0),
    "sample_counts.seed": (lambda v: sample_counts(_DIST, 3, v), "seed", "seed", 0),
    "simulate_run.seed": (
        lambda v: simulate_run(_SOURCE, _PROBE, _THETA, v), "seed", "seed", 0
    ),
    "postselected_distribution_invariance.seed": (
        lambda v: postselected_distribution_invariance(_SOURCE, _SOURCE, _PROBE, _THETA, v),
        "seed",
        "seed",
        0,
    ),
    "subset_parity_marginal.subset": (
        lambda v: subset_parity_marginal(_DIST, [v, 2]), "count", "subset", 1
    ),
    "phase_unitary.theta": (phase_unitary, "finite", "theta", None),
    "ModeLayout.num_modes": (lambda v: ModeLayout(v, ((1, 1),), ((1,),)), "count", "num_modes", 1),
    "ModeLayout.mode": (lambda v: ModeLayout(3, ((v, 1),), ((1,),)), "count", "assignments", 1),
    "ModeLayout.passes": (lambda v: ModeLayout(3, ((1, v),), ((1,),)), "count", "assignments", 1),
    "ModeLayout.grouping": (lambda v: ModeLayout(3, ((1, 1),), ((v,),)), "count", "grouping", 1),
    "standard_layout.num_modes": (
        lambda v: standard_layout("meps", v, 2), "count", "num_modes", 1
    ),
    "standard_layout.photons_per_mode": (
        lambda v: standard_layout("meps", 3, v), "count", "photons_per_mode", 1
    ),
    "make_probe.coherence": (lambda v: make_probe("mepe", _LAYOUT, v), "unit", "coherence", None),
    "make_probe.coherence[]": (
        lambda v: make_probe("mepe", _LAYOUT, [v]), "unit", "coherence", None
    ),
    "with_coherence.coherence": (lambda v: _PROBE.with_coherence(v), "unit", "coherence", None),
    "with_coherence.coherence[]": (
        lambda v: _PROBE.with_coherence([v]), "unit", "coherence", None
    ),
    "SweepSpec.start": (lambda v: _sweep(v, 1.0), "finite", "sweep.start", None),
    "SweepSpec.stop": (lambda v: _sweep(0.0, v), "finite", "sweep.stop", None),
}


def _scalars(values, *types):
    """``values`` as a Python or numpy scalar of one of ``types``."""
    return st.builds(lambda value, kind: kind(value), values, st.sampled_from(types))


_BOOLS = st.sampled_from([True, False, np.bool_(True), np.bool_(False)])
_NON_FINITE = _scalars(
    st.sampled_from([math.nan, math.inf, -math.inf]), float, np.float64, np.float32
)
_FLOATS = (float, np.float64)
_INTS = (int, np.int64, float, np.float64)


def _malformed(rule: str, minimum):
    """Values that ``rule`` refuses."""
    values = _BOOLS | _NON_FINITE
    if rule in ("count", "strict"):
        fractions = st.floats(-1e6, 1e6).filter(lambda x: not x.is_integer())
        values |= _scalars(fractions, *_FLOATS) | _scalars(
            st.integers(-(10**6), minimum - 1), *_INTS
        )
    if rule == "strict":
        values |= _scalars(st.integers(minimum, minimum), *_FLOATS)
    if rule == "seed":
        fractions = st.floats(-1e6, 1e6).filter(lambda x: not x.is_integer())
        values |= _scalars(fractions | st.integers(0, 10**6), *_FLOATS)
        values |= _scalars(st.integers(-(10**6), minimum - 1), int, np.int64)
    if rule == "positive":
        values |= _scalars(st.integers(-(10**6), 0), *_INTS) | _scalars(
            st.floats(-1e300, 0.0), *_FLOATS
        )
    if rule == "unit":
        outside = st.floats(1.0, 1e300, exclude_min=True) | st.floats(-1e300, 0.0, exclude_max=True)
        values |= _scalars(outside, *_FLOATS) | _scalars(st.sampled_from([-1, 2]), *_INTS)
    if rule == "multiplier":
        values |= _scalars(st.sampled_from([0.0, -0.0]), *_FLOATS)
        values |= _scalars(st.just(0), int, np.int64)
    return values


@settings(max_examples=400, deadline=None)
@given(data=st.data(), case=st.sampled_from(sorted(_CASES)))
def test_malformed_scalar_arguments_are_refused_by_name(data, case):
    call, rule, name, minimum = _CASES[case]
    value = data.draw(_malformed(rule, minimum), label="value")
    with pytest.raises((ValueError, ValidationError)) as info:
        call(value)
    assert name in str(info.value), (case, value, info.value)
    if rule == "count":
        # an integral float is the integer, as in a config file
        expected = repr(call(minimum))
        for integral in (float(minimum), np.float64(minimum), np.int64(minimum)):
            assert repr(call(integral)) == expected, (case, integral)
    if rule == "seed":
        # a numpy integer, or the SeedSequence an integer seeds, draws as it
        expected = repr(call(minimum))
        for same in (np.int64(minimum), np.uint32(minimum), np.random.SeedSequence(minimum)):
            assert repr(call(same)) == expected, (case, same)


@pytest.mark.parametrize("value", [2**63, -(2**63) - 1, 1e308], ids=["2**63", "-2**63-1", "1e308"])
@pytest.mark.parametrize("case", sorted(c for c, spec in _CASES.items() if spec[1] == "count"))
def test_counts_beyond_64_bits_are_refused(case, value):
    # integral, but no 64-bit integer holds it: numpy would fail on it
    # (or a layout of 1e308 modes would be built), so it is refused by name
    call, _, name, _ = _CASES[case]
    with pytest.raises((ValueError, ValidationError)) as info:
        call(value)
    assert name in str(info.value), (case, value, info.value)


@pytest.mark.parametrize(
    "call",
    [
        lambda v: make_probe("mepe", _LAYOUT, v),
        lambda v: _PROBE.with_coherence(v),
        lambda v: SourceModel(0.5, 10, 3, v),
    ],
    ids=["make_probe", "with_coherence", "SourceModel"],
)
@pytest.mark.parametrize(
    "values",
    [np.array([True]), [np.True_], (False,), np.array([True], dtype=object)],
    ids=["bool array", "numpy bool", "tuple", "object array"],
)
def test_boolean_sequences_are_refused(call, values):
    with pytest.raises((ValueError, ValidationError), match="booleans"):
        call(values)
