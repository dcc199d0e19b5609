"""Probe factories: mode layouts, strategy taxonomy, weights.

A :class:`ModeLayout` assigns every photon a sensing mode and a pass
count and partitions the photons into entanglement groups.  The
strategies name the standard arrangements: modes/particles entangled
(e), separated (s), or coherent multi-pass (c).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

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
        object.__setattr__(
            self, "assignments", tuple((int(m), int(j)) for m, j in self.assignments)
        )
        object.__setattr__(
            self, "grouping", tuple(tuple(int(p) for p in g) for g in self.grouping)
        )
        if self.num_modes < 1:
            raise InvalidLayoutError("need at least one mode")
        for mode, passes in self.assignments:
            if not (1 <= mode <= self.num_modes):
                raise InvalidLayoutError(
                    f"mode id {mode} outside 1..{self.num_modes}"
                )
            if passes < 1:
                raise InvalidLayoutError(f"pass count {passes} must be >= 1")
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
    (default 1..M).
    """
    strategy = Strategy(strategy)
    m = int(num_modes)
    if strategy in (Strategy.MEPC, Strategy.MSPC):
        if passes is None:
            passes = tuple(range(1, m + 1))
        if len(passes) != m:
            raise InvalidLayoutError(
                f"need one pass count per mode, got {len(passes)} for M={m}"
            )
        assignments = tuple((k + 1, int(passes[k])) for k in range(m))
        if strategy is Strategy.MEPC:
            grouping = (tuple(range(1, m + 1)),)
        else:
            grouping = tuple((p,) for p in range(1, m + 1))
        return ModeLayout(m, assignments, grouping)

    if passes is not None:
        raise InvalidLayoutError("pass counts apply only to coherent strategies")
    q = int(photons_per_mode)
    if q < 1:
        raise InvalidLayoutError("photons_per_mode must be >= 1")
    n = m * q
    assignments = tuple((k + 1, 1) for k in range(m) for _ in range(q))
    if strategy is Strategy.MEPE:
        grouping = (tuple(range(1, n + 1)),)
    elif strategy is Strategy.MEPS:
        # q groups, each holding one photon per mode
        grouping = tuple(
            tuple(k * q + r + 1 for k in range(m)) for r in range(q)
        )
    elif strategy in (Strategy.MSPE, Strategy.INDIVIDUAL):
        grouping = tuple(
            tuple(range(k * q + 1, (k + 1) * q + 1)) for k in range(m)
        )
    elif strategy is Strategy.MSPS:
        grouping = tuple((p,) for p in range(1, n + 1))
    elif strategy is Strategy.GENERIC:
        raise InvalidLayoutError("generic strategy needs an explicit layout")
    else:  # pragma: no cover - exhaustive enum
        raise InvalidLayoutError(f"unhandled strategy {strategy}")
    return ModeLayout(m, assignments, grouping)


def _check_consistent(strategy: Strategy, layout: ModeLayout) -> None:
    n = layout.num_photons
    m = layout.num_modes
    single_pass = all(j == 1 for _, j in layout.assignments)
    group_modes = [
        sorted(layout.assignments[p - 1][0] for p in g) for g in layout.grouping
    ]
    if strategy is Strategy.GENERIC:
        return
    if strategy is Strategy.MEPE:
        if len(layout.grouping) != 1 or not single_pass:
            raise InvalidLayoutError(
                "mepe needs a single group of single-pass photons"
            )
    elif strategy is Strategy.MEPS:
        if n % m != 0:
            raise InvalidLayoutError(f"meps requires M | N, got N={n}, M={m}")
        if len(layout.grouping) != n // m or not single_pass:
            raise InvalidLayoutError("meps needs N/M single-pass groups")
        for modes in group_modes:
            if modes != list(range(1, m + 1)):
                raise InvalidLayoutError(
                    "each meps group must span every mode exactly once"
                )
    elif strategy in (Strategy.MSPE, Strategy.INDIVIDUAL):
        if len(layout.grouping) != m or not single_pass:
            raise InvalidLayoutError("mspe needs one single-pass group per mode")
        seen = sorted(modes[0] for modes in group_modes)
        for modes in group_modes:
            if len(set(modes)) != 1:
                raise InvalidLayoutError("each mspe group must sit in one mode")
        if seen != list(range(1, m + 1)):
            raise InvalidLayoutError("mspe needs exactly one group in every mode")
    elif strategy is Strategy.MSPS:
        if any(len(g) != 1 for g in layout.grouping) or not single_pass:
            raise InvalidLayoutError("msps needs single-pass singleton groups")
    elif strategy is Strategy.MEPC:
        if len(layout.grouping) != 1:
            raise InvalidLayoutError("mepc needs a single group")
        if sorted(mode for mode, _ in layout.assignments) != list(range(1, m + 1)):
            raise InvalidLayoutError("mepc places exactly one photon in every mode")
    elif strategy is Strategy.MSPC:
        if any(len(g) != 1 for g in layout.grouping):
            raise InvalidLayoutError("mspc needs singleton groups")
        if sorted(mode for mode, _ in layout.assignments) != list(range(1, m + 1)):
            raise InvalidLayoutError("mspc places exactly one photon in every mode")


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
