"""Scenario configuration: strict JSON schema with unknown-key rejection.

A scenario either sweeps one mode phase over a grid (``sweep`` block)
or runs grouped maximum-likelihood estimation at requested estimand
values (``theta_true`` list).  Silent typos are a classic failure mode
in physics configs, so every unknown key is an error and every message
names the offending field.  See docs/config_schema.md for the full
schema.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .probes import ModeLayout, Strategy, standard_layout

_TOP_KEYS = {
    "label",
    "strategy",
    "num_modes",
    "photons_per_mode",
    "passes_per_mode",
    "assignments",
    "grouping",
    "visibility",
    "theta_fixed",
    "sweep",
    "shots_per_point",
    "subset",
    "groups",
    "shots_per_group",
    "theta_true",
    "reference_fi",
    "out_dir",
    "seed",
}
_SWEEP_KEYS = {"parameter", "start", "stop", "steps"}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _coerce(convert, value, key: str):
    """``convert(value)``, with any failure reported as a ConfigError on ``key``."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key}: cannot read {value!r} ({exc})") from None


def _int(value) -> int:
    """``int(value)``, refusing booleans and non-integral numbers such as 3.9."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _float(value) -> float:
    """``float(value)``, refusing booleans."""
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def _ints(values) -> tuple[int, ...]:
    return tuple(_int(v) for v in values)


def _floats(values) -> tuple[float, ...]:
    return tuple(_float(v) for v in values)


def _reject_unknown(mapping: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    _require(not unknown, f"{where}: unknown key(s) {unknown}")


@dataclass(frozen=True)
class SweepSpec:
    """Grid over one mode phase: theta[parameter] from start to stop."""

    parameter: int
    start: float
    stop: float
    steps: int

    @classmethod
    def from_dict(cls, raw: dict) -> "SweepSpec":
        _require(isinstance(raw, dict), "sweep: must be an object")
        _reject_unknown(raw, _SWEEP_KEYS, "sweep")
        for key in _SWEEP_KEYS:
            _require(key in raw, f"sweep.{key}: required")
        spec = cls(
            parameter=_coerce(_int, raw["parameter"], "sweep.parameter"),
            start=_coerce(_float, raw["start"], "sweep.start"),
            stop=_coerce(_float, raw["stop"], "sweep.stop"),
            steps=_coerce(_int, raw["steps"], "sweep.steps"),
        )
        _require(spec.parameter >= 1, "sweep.parameter: 1-based mode index")
        _require(
            math.isfinite(spec.start) and math.isfinite(spec.stop),
            "sweep: start and stop must be finite",
        )
        _require(spec.steps >= 2, "sweep.steps: need at least 2 grid points")
        _require(spec.stop != spec.start, "sweep: degenerate range (start == stop)")
        return spec

    def to_dict(self) -> dict:
        return {
            "parameter": self.parameter,
            "start": self.start,
            "stop": self.stop,
            "steps": self.steps,
        }


@dataclass(frozen=True)
class ScenarioConfig:
    label: str
    strategy: Strategy
    num_modes: int
    seed: int
    photons_per_mode: int | None = None
    passes_per_mode: tuple[int, ...] | None = None
    assignments: tuple[tuple[int, int], ...] | None = None
    grouping: tuple[tuple[int, ...], ...] | None = None
    visibility: float | tuple[float, ...] = 1.0
    theta_fixed: dict[int, float] = field(default_factory=dict)
    sweep: SweepSpec | None = None
    shots_per_point: int = 7000
    subset: tuple[int, ...] | None = None
    groups: int | None = None
    shots_per_group: int | None = None
    theta_true: tuple[float, ...] | None = None
    reference_fi: dict[str, float] = field(default_factory=dict)
    out_dir: str | None = None

    @property
    def kind(self) -> str:
        return "sweep" if self.sweep is not None else "estimation"

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        _require(isinstance(raw, dict), "config: must be a JSON object")
        _reject_unknown(raw, _TOP_KEYS, "config")
        for key in ("strategy", "num_modes", "seed"):
            _require(key in raw, f"{key}: required")
        try:
            strategy = Strategy(str(raw["strategy"]).lower())
        except ValueError:
            choices = sorted(s.value for s in Strategy)
            raise ConfigError(f"strategy: {raw['strategy']!r} not one of {choices}")

        fixed = raw.get("theta_fixed", {})
        _require(isinstance(fixed, dict), "theta_fixed: must be an object")
        theta_fixed = {}
        for key, value in fixed.items():
            mode = _coerce(_int, key, "theta_fixed")
            theta_fixed[mode] = _coerce(_float, value, f"theta_fixed.{key}")

        visibility = raw.get("visibility", 1.0)
        visibility = _coerce(
            _floats if isinstance(visibility, list) else _float, visibility, "visibility"
        )

        sweep = SweepSpec.from_dict(raw["sweep"]) if raw.get("sweep") else None
        theta_true = raw.get("theta_true")
        if theta_true is not None:
            _require(
                isinstance(theta_true, list) and len(theta_true) >= 1,
                "theta_true: non-empty list of estimand values",
            )
            theta_true = _coerce(_floats, theta_true, "theta_true")
        _require(
            (sweep is None) != (theta_true is None),
            "config: provide exactly one of 'sweep' or 'theta_true'",
        )

        assignments = raw.get("assignments")
        if assignments is not None:
            assignments = _coerce(
                lambda rows: tuple((_int(m), _int(j)) for m, j in rows),
                assignments,
                "assignments",
            )
        grouping = raw.get("grouping")
        if grouping is not None:
            grouping = _coerce(
                lambda rows: tuple(_ints(g) for g in rows), grouping, "grouping"
            )
        _require(
            (assignments is None) == (grouping is None),
            "config: 'assignments' and 'grouping' must be given together",
        )
        if strategy is Strategy.GENERIC:
            _require(assignments is not None, "generic strategy: explicit layout required")

        passes = raw.get("passes_per_mode")
        if passes is not None:
            passes = _coerce(_ints, passes, "passes_per_mode")

        subset = raw.get("subset")
        if subset is not None:
            subset = _coerce(_ints, subset, "subset")

        references = raw.get("reference_fi", {})
        _require(isinstance(references, dict), "reference_fi: must be an object")
        reference_fi = {
            str(k): _coerce(_float, v, f"reference_fi.{k}") for k, v in references.items()
        }

        label = raw.get("label", "scenario")
        _require(
            isinstance(label, str)
            and label not in ("", ".", "..")
            and not any(c in label for c in "/\\\0"),
            f"label: {label!r} is not a file name (need a non-empty string "
            "without '/', '\\' or NUL, other than '.' and '..')",
        )

        config = cls(
            label=label,
            strategy=strategy,
            num_modes=_coerce(_int, raw["num_modes"], "num_modes"),
            seed=_coerce(_int, raw["seed"], "seed"),
            photons_per_mode=(
                _coerce(_int, raw["photons_per_mode"], "photons_per_mode")
                if "photons_per_mode" in raw
                else None
            ),
            passes_per_mode=passes,
            assignments=assignments,
            grouping=grouping,
            visibility=visibility,
            theta_fixed=theta_fixed,
            sweep=sweep,
            shots_per_point=_coerce(
                _int, raw.get("shots_per_point", 7000), "shots_per_point"
            ),
            subset=subset,
            groups=_coerce(_int, raw["groups"], "groups") if "groups" in raw else None,
            shots_per_group=(
                _coerce(_int, raw["shots_per_group"], "shots_per_group")
                if "shots_per_group" in raw
                else None
            ),
            theta_true=theta_true,
            reference_fi=reference_fi,
            out_dir=str(raw["out_dir"]) if "out_dir" in raw else None,
        )
        config.validate()
        return config

    def validate(self) -> None:
        _require(self.num_modes >= 1, "num_modes: must be >= 1")
        _require(self.seed >= 0, "seed: must be >= 0")
        _require(self.shots_per_point >= 0, "shots_per_point: must be >= 0")
        if self.sweep is not None:
            _require(
                1 <= self.sweep.parameter <= self.num_modes,
                f"sweep.parameter: mode {self.sweep.parameter} outside 1..{self.num_modes}",
            )
            for mode in self.theta_fixed:
                _require(
                    1 <= mode <= self.num_modes,
                    f"theta_fixed: mode {mode} outside 1..{self.num_modes}",
                )
                _require(
                    mode != self.sweep.parameter,
                    f"theta_fixed: mode {mode} is also the swept parameter",
                )
        if self.theta_true is not None:
            _require(self.groups is not None, "groups: required for estimation runs")
            _require(
                self.shots_per_group is not None,
                "shots_per_group: required for estimation runs",
            )
            _require(self.groups >= 2, "groups: need at least 2 groups")
            _require(self.shots_per_group >= 2, "shots_per_group: need at least 2")

    def build_layout(self) -> ModeLayout:
        if self.assignments is not None:
            return ModeLayout(self.num_modes, self.assignments, self.grouping)
        if self.strategy in (Strategy.MEPC, Strategy.MSPC):
            return standard_layout(
                self.strategy, self.num_modes, passes=self.passes_per_mode
            )
        _require(
            self.passes_per_mode is None,
            "passes_per_mode: only valid for the coherent strategies",
        )
        return standard_layout(
            self.strategy,
            self.num_modes,
            photons_per_mode=(
                self.photons_per_mode if self.photons_per_mode is not None else 2
            ),
        )

    def to_dict(self) -> dict:
        out: dict = {
            "label": self.label,
            "strategy": self.strategy.value,
            "num_modes": self.num_modes,
            "seed": self.seed,
        }
        if self.photons_per_mode is not None:
            out["photons_per_mode"] = self.photons_per_mode
        if self.passes_per_mode is not None:
            out["passes_per_mode"] = list(self.passes_per_mode)
        if self.assignments is not None:
            out["assignments"] = [list(a) for a in self.assignments]
            out["grouping"] = [list(g) for g in self.grouping]
        out["visibility"] = (
            list(self.visibility)
            if isinstance(self.visibility, tuple)
            else self.visibility
        )
        if self.theta_fixed:
            out["theta_fixed"] = {str(k): v for k, v in self.theta_fixed.items()}
        if self.sweep is not None:
            out["sweep"] = self.sweep.to_dict()
            out["shots_per_point"] = self.shots_per_point
        if self.subset is not None:
            out["subset"] = list(self.subset)
        if self.groups is not None:
            out["groups"] = self.groups
        if self.shots_per_group is not None:
            out["shots_per_group"] = self.shots_per_group
        if self.theta_true is not None:
            out["theta_true"] = list(self.theta_true)
        if self.reference_fi:
            out["reference_fi"] = dict(self.reference_fi)
        if self.out_dir is not None:
            out["out_dir"] = self.out_dir
        return out


def load_config(path) -> ScenarioConfig:
    """Read and validate a scenario config from a JSON file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    return ScenarioConfig.from_dict(raw)
