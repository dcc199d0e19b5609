"""Probe factories: mode layouts, strategy taxonomy, weights.

A :class:`ModeLayout` assigns every photon a sensing mode and a pass
count and partitions the photons into entanglement groups.  The
strategies name the standard arrangements: modes/particles entangled
(e), separated (s), or coherent multi-pass (c).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import zip_longest
from typing import NamedTuple

import numpy as np

from . import _checks
from .errors import InvalidLayoutError
from .states import ProductState, MAX_PHOTONS


class Strategy(str, Enum):
    """Closed taxonomy of probe arrangements."""

    INDIVIDUAL = "individual"  # one entangled block per mode, estimated per mode
    MEPE = "mepe"  # modes entangled, particles entangled: one GHZ over all photons
    MEPS = "meps"  # modes entangled, particles separated: GHZ blocks spanning modes
    MSPE = "mspe"  # modes separated, particles entangled: one GHZ block per mode
    MSPS = "msps"  # modes separated, particles separated: all photons independent
    MEPC = "mepc"  # modes entangled, particles coherent: single photons, multi-pass
    MSPC = "mspc"  # modes separated, particles coherent: singletons, multi-pass
    GENERIC = "generic"  # any valid layout, no structural constraint


@dataclass(frozen=True)
class ModeLayout:
    """M sensing modes plus a photon -> (mode, passes) assignment.

    ``assignments[p-1]`` holds ``(mode_id, passes)`` for photon p;
    ``grouping`` partitions photons 1..N into entanglement groups.
    """

    num_modes: int
    assignments: tuple[tuple[int, int], ...]
    grouping: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        m = _checks.integer(self.num_modes, "num_modes", 1, InvalidLayoutError)
        assignments = _checks.integer_rows(self.assignments, "assignments", InvalidLayoutError)
        object.__setattr__(self, "num_modes", m)
        object.__setattr__(self, "assignments", assignments)
        object.__setattr__(
            self, "grouping", _checks.integer_rows(self.grouping, "grouping", InvalidLayoutError)
        )
        if not set(map(len, assignments)) <= {2}:
            raise InvalidLayoutError("assignments: need one (mode, passes) pair per photon")
        for mode, passes in assignments:
            if not (1 <= mode <= m):
                raise InvalidLayoutError(f"assignments: mode id {mode} outside 1..{m}")
            if not 1 <= passes < _checks.INT64_BOUND:
                raise InvalidLayoutError(
                    f"assignments: pass count {passes:.3g} must lie in [1, 2**63)"
                )
        n = len(self.assignments)
        if n < 1:
            raise InvalidLayoutError("need at least one photon")
        ids = sorted(p for g in self.grouping for p in g)
        if ids != list(range(1, n + 1)) or not all(self.grouping):
            raise InvalidLayoutError("grouping must partition photons 1..N")

    @property
    def num_photons(self) -> int:
        return len(self.assignments)

    @property
    def total_passes(self) -> int:
        return sum(j for _, j in self.assignments)

    def mode_passes(self) -> np.ndarray:
        """Total passes accumulated in each mode (length M, integer)."""
        tot = np.zeros(self.num_modes, dtype=np.int64)
        for mode, passes in self.assignments:
            tot[mode - 1] += passes
        return tot

    def mode_photons(self) -> np.ndarray:
        """Photon count per mode (length M, integer)."""
        tot = np.zeros(self.num_modes, dtype=np.int64)
        for mode, _ in self.assignments:
            tot[mode - 1] += 1
        return tot


def weights(layout: ModeLayout) -> np.ndarray:
    """Normalized mode weights alpha_k = (passes in mode k) / (total passes).

    These are the coefficients of the linear estimand
    theta_hat = sum_k alpha_k theta_k; they sum to 1.
    """
    tot = layout.mode_passes().astype(float)
    return tot / tot.sum()


class _Kind(NamedTuple):
    """A named strategy's place on the paper's grid."""

    modes_separated: bool
    particles_separated: bool
    coherent: bool = False  # one multi-pass photon in every mode


#: The named strategies; GENERIC has no entry.
_KINDS = {
    Strategy.INDIVIDUAL: _Kind(True, False),
    Strategy.MEPE: _Kind(False, False),
    Strategy.MEPS: _Kind(False, True),
    Strategy.MSPE: _Kind(True, False),
    Strategy.MSPS: _Kind(True, True),
    Strategy.MEPC: _Kind(False, False, True),
    Strategy.MSPC: _Kind(True, False, True),
}

#: The refusal of a layout whose groups break the (modes separated,
#: particles separated) rule of its strategy.
_GROUPING_RULES = {
    (False, False): "{} needs a single group",
    (False, True): "{} needs N/M single-pass groups that each span every mode exactly once",
    (True, False): (
        "{} needs one group in every mode, and each group must sit in one mode"
        " (singleton groups when every mode holds one photon)"
    ),
    (True, True): "{} needs single-pass singleton groups",
}


def _groups(kind: _Kind, grid, rows) -> list:
    """The groups of ``kind`` on a mode x rank grid: the whole grid, its
    rows (modes separated), its columns, rank r of every mode that has
    one (particles separated), or its cells (both separated).  ``grid``
    lists the entries mode-major and ``rows`` yields row k, mode k's
    entries in photon order; only the view that the shape needs is read.
    """
    if kind.modes_separated == kind.particles_separated:
        return [(x,) for x in grid] if kind.modes_separated else [grid]
    if kind.modes_separated:
        return list(rows)
    return [[x for x in column if x is not None] for column in zip_longest(*rows)]


def standard_layout(
    strategy: Strategy,
    num_modes: int = 3,
    photons_per_mode: int = 2,
    passes: tuple[int, ...] | None = None,
) -> ModeLayout:
    """Canonical layout for each named strategy.

    Parallel strategies place ``photons_per_mode`` single-pass photons
    in each of ``num_modes`` modes, ordered mode-major.  Coherent
    strategies place one photon per mode with ``passes[k]`` traversals
    (default 1..M).  The photons form a mode x rank grid, and the
    strategy groups its whole, its rows, its columns or its cells.
    """
    strategy = Strategy(strategy)
    m = _checks.integer(num_modes, "num_modes", 1, InvalidLayoutError)
    kind = _KINDS.get(strategy)
    if kind is None:
        raise InvalidLayoutError("generic strategy needs an explicit layout")
    if kind.coherent:
        if passes is None:
            passes = range(1, m + 1)
        if len(passes) != m:
            raise InvalidLayoutError(
                f"need one pass count per mode, got {len(passes)} for M={m}"
            )
        q = 1
        assignments = tuple(zip(range(1, m + 1), passes))
    else:
        if passes is not None:
            raise InvalidLayoutError("pass counts apply only to coherent strategies")
        q = _checks.integer(photons_per_mode, "photons_per_mode", 1, InvalidLayoutError)
        assignments = tuple((k, 1) for k in range(1, m + 1) for _ in range(q))
    grid = range(1, m * q + 1)
    return ModeLayout(m, assignments, _groups(kind, grid, zip(*[iter(grid)] * q)))


def _check_single_pass(strategy: Strategy, layout: ModeLayout) -> None:
    """Refuse a multi-pass photon, which only a coherent strategy takes."""
    if any(j != 1 for _, j in layout.assignments):
        raise InvalidLayoutError(f"{strategy.value} needs single-pass photons")


def _check_consistent(strategy: Strategy, layout: ModeLayout) -> None:
    kind = _KINDS.get(strategy)
    if kind is None:
        return
    every_mode = list(range(1, layout.num_modes + 1))
    modes = [mode for mode, _ in layout.assignments]
    if kind.coherent:
        if sorted(modes) != every_mode:
            raise InvalidLayoutError(f"{strategy.value} places exactly one photon in every mode")
    else:
        _check_single_pass(strategy, layout)
    grouping = layout.grouping
    if kind.modes_separated == kind.particles_separated:
        ok = all(len(g) == 1 for g in grouping) if kind.modes_separated else len(grouping) == 1
    else:
        groups = [sorted(modes[p - 1] for p in g) for g in grouping]
        if kind.particles_separated:
            ok = all(g == every_mode for g in groups)
        else:  # 0 stands for a group that spans modes
            ok = sorted(g[0] if g[0] == g[-1] else 0 for g in groups) == every_mode
    if not ok:
        raise InvalidLayoutError(_GROUPING_RULES[kind[:2]].format(strategy.value))


def make_probe(
    strategy: Strategy,
    layout: ModeLayout,
    coherence=1.0,
    max_photons: int = MAX_PHOTONS,
) -> ProductState:
    """Construct the probe state for ``strategy`` on ``layout``.

    ``coherence`` is either a scalar applied to every group or one value
    per group, each in [0, 1].  All group phases start at 0.
    """
    _check_consistent(Strategy(strategy), layout)
    return ProductState(layout, coherence, max_photons)
