"""Scenario configuration: strict JSON schema with unknown-key rejection.

A scenario either sweeps one mode phase over a grid (``sweep`` block)
or runs grouped maximum-likelihood estimation at requested estimand
values (``theta_true`` list).  Silent typos are a classic failure mode
in physics configs, so every unknown key is an error and every message
names the offending field.  Each key is read, and echoed back by
:meth:`ScenarioConfig.to_dict`, through one entry of a key table.  See
docs/config_schema.md for the full schema.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from . import _checks
from .errors import ConfigError
from .probes import ModeLayout, Strategy, standard_layout


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _coerce(read, value, key: str):
    """``read(value)``, with any failure reported as a ConfigError on ``key``."""
    try:
        return read(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key}: cannot read {value!r} ({exc})") from None


def _reject_unknown(mapping: dict, table: dict, where: str) -> None:
    unknown = sorted(mapping.keys() - table.keys())
    _require(not unknown, f"{where}: unknown key(s) {unknown}")


#: The scalar readers are the library's argument rules, so a key and the
#: argument it becomes refuse the same values.
_int, _float, _finite = _checks.integer, _checks.real, _checks.finite


def _list(read):
    """Reader of a JSON list, converting each item: a string or an object
    is not read item by item."""

    def read_list(values) -> tuple:
        if not isinstance(values, (list, tuple)):
            raise TypeError("must be a list")
        return tuple(read(v) for v in values)

    return read_list


_ints = _list(_int)
_floats = _list(_float)
_finites = _list(_finite)


def _object(read_key, read_value):
    """Reader of a JSON object, converting each key and value."""

    def read(value) -> dict:
        if not isinstance(value, dict):
            raise TypeError("must be an object")
        return {read_key(k): read_value(v) for k, v in value.items()}

    return read


def _label(value) -> str:
    if not isinstance(value, str) or value in ("", ".", "..") or set(value) & set("/\\\0"):
        raise ValueError(
            "not a file name: need a non-empty string without '/', '\\' or NUL, "
            "other than '.' and '..'"
        )
    return value


def _path(value) -> str:
    if not isinstance(value, str) or not value or "\0" in value:
        raise TypeError("need a non-empty string without NUL")
    return value


def _strategy(value) -> Strategy:
    try:
        return Strategy(str(value).lower())
    except ValueError:
        raise ValueError(f"not one of {sorted(s.value for s in Strategy)}") from None


def _visibility(value) -> float | tuple[float, ...]:
    return _floats(value) if isinstance(value, list) else _float(value)


def _theta_true(values) -> tuple[float, ...]:
    values = _finites(values)
    if not values:
        raise ValueError("need a non-empty list of estimand values")
    return values


def _assignment(pair) -> tuple[int, int]:
    mode, passes = _ints(pair)
    return mode, passes


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
        _reject_unknown(raw, _SWEEP_READERS, "sweep")
        for key in _SWEEP_READERS:
            _require(key in raw, f"sweep.{key}: required")
        values = {k: _coerce(r, raw[k], f"sweep.{k}") for k, r in _SWEEP_READERS.items()}
        spec = cls(**values)
        _require(spec.parameter >= 1, "sweep.parameter: 1-based mode index")
        _require(spec.steps >= 2, "sweep.steps: need at least 2 grid points")
        _require(spec.stop != spec.start, "sweep: degenerate range (start == stop)")
        _require(
            math.isfinite(spec.stop - spec.start), "sweep: range (stop - start) overflows"
        )
        return spec


_SWEEP_READERS = {"parameter": _int, "start": _finite, "stop": _finite, "steps": _int}

#: Reader per top-level key, in the order :meth:`ScenarioConfig.to_dict`
#: echoes them.  Every key is optional except ``_REQUIRED``; a key given
#: as ``null`` fails its reader like any other unreadable value.
_READERS = {
    "label": _label,
    "strategy": _strategy,
    "num_modes": _int,
    "seed": _int,
    "photons_per_mode": _int,
    "passes_per_mode": _ints,
    "assignments": _list(_assignment),
    "grouping": _list(_ints),
    "visibility": _visibility,
    "theta_fixed": _object(_int, _finite),
    "sweep": SweepSpec.from_dict,
    "shots_per_point": _int,
    "subset": _ints,
    "groups": _int,
    "shots_per_group": _int,
    "theta_true": _theta_true,
    "reference_fi": _object(str, _finite),
    "out_dir": _path,
}
_REQUIRED = ("strategy", "num_modes", "seed")


def _echo(value):
    """JSON form of a read value: lists for tuples, string keys for objects."""
    kind = type(value)  # readers return exact types; cheaper than isinstance
    if kind is tuple:
        return [_echo(v) if type(v) is tuple else v for v in value]
    if kind is dict:
        return {str(k): v for k, v in value.items()}
    if kind is SweepSpec:
        return dict(vars(value))
    return value.value if kind is Strategy else value


@dataclass(frozen=True)
class ScenarioConfig:
    strategy: Strategy
    num_modes: int
    seed: int
    label: str = "scenario"
    photons_per_mode: int | None = None
    passes_per_mode: tuple[int, ...] | None = None
    assignments: tuple[tuple[int, int], ...] | None = None
    grouping: tuple[tuple[int, ...], ...] | None = None
    visibility: float | tuple[float, ...] = 1.0
    theta_fixed: dict[int, float] = field(default_factory=dict)
    sweep: SweepSpec | None = None
    shots_per_point: int | None = None  # sweep runs only, where it defaults to 7000
    subset: tuple[int, ...] | None = None
    groups: int | None = None
    shots_per_group: int | None = None
    theta_true: tuple[float, ...] | None = None
    reference_fi: dict[str, float] = field(default_factory=dict)
    out_dir: str | None = None

    def __post_init__(self):
        if self.sweep is not None and self.shots_per_point is None:
            object.__setattr__(self, "shots_per_point", 7000)

    @property
    def kind(self) -> str:
        return "sweep" if self.sweep is not None else "estimation"

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        _require(isinstance(raw, dict), "config: must be a JSON object")
        _reject_unknown(raw, _READERS, "config")
        for key in _REQUIRED:
            _require(key in raw, f"{key}: required")
        config = cls(
            **{key: _coerce(_READERS[key], value, key) for key, value in raw.items()}
        )
        config.validate()
        return config

    def validate(self) -> None:
        _require(
            (self.sweep is None) != (self.theta_true is None),
            "config: provide exactly one of 'sweep' or 'theta_true'",
        )
        _require(
            (self.assignments is None) == (self.grouping is None),
            "config: 'assignments' and 'grouping' must be given together",
        )
        if self.strategy is Strategy.GENERIC:
            _require(
                self.assignments is not None, "generic strategy: explicit layout required"
            )
        _require(self.num_modes >= 1, "num_modes: must be >= 1")
        _require(self.seed >= 0, "seed: must be >= 0")
        if self.sweep is not None:
            _require(
                self.shots_per_point >= 1,
                "shots_per_point: need at least 1 shot per grid point",
            )
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
            _require(
                self.shots_per_point is None,
                "shots_per_point: only valid for sweep runs "
                "(an estimation run samples shots_per_group)",
            )
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
        """The config as JSON values; unset keys are left out."""
        out = {}
        for key in _READERS:
            value = getattr(self, key)
            if value is not None and value != {}:
                out[key] = _echo(value)
        return out


def load_config(path) -> ScenarioConfig:
    """Read and validate a scenario config from a JSON file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    return ScenarioConfig.from_dict(raw)
