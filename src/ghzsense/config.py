"""Scenario configuration: strict JSON schema with unknown-key rejection.

A scenario either sweeps one mode phase over a grid (``sweep`` block)
or runs grouped maximum-likelihood estimation at requested estimand
values (``theta_true`` list).  Silent typos are a classic failure mode
in physics configs, so every unknown key is an error, as is a key that
the config's run would not read, and every message names the offending
field.  Each key is read through one entry of a key table, and one
table of readers decides which configs may set it and which reports
echo it.  See docs/config_schema.md.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from . import _checks
from .errors import ConfigError
from .probes import _KINDS, ModeLayout, Strategy, standard_layout


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _coerce(read, value, key: str):
    """``read(value)``, with any failure reported as a ConfigError on ``key``."""
    try:
        return read(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key}: cannot read {value!r} ({exc})") from None


def _read_object(raw, readers: dict, required, where: str, prefix: str = "") -> dict:
    """The values of the JSON object ``raw``, each read by its key's
    reader and reported under ``prefix + key``; a value that is not an
    object, an unknown key or a missing ``required`` one is refused."""
    _require(isinstance(raw, dict), f"{where}: must be an object")
    unknown = sorted(raw.keys() - readers.keys())
    _require(not unknown, f"{where}: unknown key(s) {unknown}")
    for key in required:
        _require(key in raw, prefix + key + ": required")
    return {key: _coerce(readers[key], value, prefix + key) for key, value in raw.items()}


#: The scalar readers are the library's argument rules, so a key and the
#: argument it becomes refuse the same values.
_int, _finite = _checks.integer, _checks.finite


def _count(minimum: int):
    """Reader of an integer key whose values start at ``minimum``."""
    return lambda value: _checks.integer(value, minimum=minimum)


def _list(read):
    """Reader of a JSON list, converting each item: a string or an object
    is not read item by item."""

    def read_list(values) -> tuple:
        if not isinstance(values, (list, tuple)):
            raise TypeError("must be a list")
        return tuple(read(v) for v in values)

    return read_list


_ints = _list(_int)
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


def _unit(value) -> float:
    return _checks.unit_interval(value, "visibility")


def _visibility(value) -> float | tuple[float, ...]:
    return _list(_unit)(value) if isinstance(value, list) else _unit(value)


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
        spec = cls(**_read_object(raw, _SWEEP_READERS, _SWEEP_READERS, "sweep", "sweep."))
        _require(spec.stop != spec.start, "sweep: degenerate range (start == stop)")
        _require(
            math.isfinite(spec.stop - spec.start), "sweep: range (stop - start) overflows"
        )
        return spec


_SWEEP_READERS = {"parameter": _count(1), "start": _finite, "stop": _finite, "steps": _count(2)}

#: Reader per top-level key, in the order :meth:`ScenarioConfig.to_dict`
#: echoes them.  Every key is optional except ``_REQUIRED``; a key given
#: as ``null`` fails its reader like any other unreadable value.
_READERS = {
    "label": _label,
    "strategy": _strategy,
    "num_modes": _count(1),
    "seed": _count(0),
    "photons_per_mode": _int,
    "passes_per_mode": _ints,
    "assignments": _list(_assignment),
    "grouping": _list(_ints),
    "visibility": _visibility,
    "theta_fixed": _object(_int, _finite),
    "sweep": SweepSpec.from_dict,
    "shots_per_point": _count(1),
    "subset": _ints,
    "groups": _count(2),
    "shots_per_group": _count(2),
    "theta_true": _theta_true,
    "reference_fi": _object(str, _finite),
    "out_dir": _path,
}
_REQUIRED = ("strategy", "num_modes", "seed")

#: The one reader of each key that not every config reads: a run's
#: (``grid``, read by both runs of a sweep config, the sampled sweep and the
#: Fisher scan; ``sampling``, read by the sampled sweep only; ``estimation``)
#: or a layout path's (``explicit`` given ``assignments``, else the standard
#: layout of a ``coherent`` strategy (mepc, mspc) or a ``parallel`` one).
#: Every run reads the other keys.  A config that sets a key which neither
#: the run of its kind nor its layout path reads is refused, naming the
#: first such key in this order; a report echoes the keys its run reads.
_READ_ONLY_BY = {
    "shots_per_point": "sampling", "subset": "sampling", "theta_fixed": "grid",
    "reference_fi": "sampling", "sweep": "grid",
    "groups": "estimation", "shots_per_group": "estimation", "theta_true": "estimation",
    "photons_per_mode": "parallel", "passes_per_mode": "coherent",
    "assignments": "explicit", "grouping": "explicit",
}

#: The run readers of each report kind.  A config's kind names the run
#: that reads every key any of its runs reads.
_RUN_READERS = {"sweep": ("grid", "sampling"), "fisher": ("grid",), "estimation": ("estimation",)}


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
    photons_per_mode: int = 2
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

    def _readers(self, run: str) -> tuple[str, ...]:
        """The readers of ``run`` and, last, that of the layout path."""
        kind = _KINDS.get(self.strategy)
        path = "coherent" if kind and kind.coherent else "parallel"
        return (*_RUN_READERS[run], "explicit" if self.assignments is not None else path)

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        config = cls(**_read_object(raw, _READERS, _REQUIRED, "config"))
        config.validate()
        readers = config._readers(config.kind)
        for key, reader in _READ_ONLY_BY.items():
            _require(
                key not in raw or reader in readers,
                f"{key}: read only by {reader} configs, "
                f"not by this one ({config.kind}, {readers[-1]} layout)",
            )
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
        if self.sweep is not None:
            _require(
                self.sweep.parameter <= self.num_modes,
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
            for key in ("groups", "shots_per_group"):
                _require(getattr(self, key) is not None, f"{key}: required for estimation runs")

    def build_layout(self) -> ModeLayout:
        if self.assignments is not None:
            return ModeLayout(self.num_modes, self.assignments, self.grouping)
        return standard_layout(
            self.strategy, self.num_modes, self.photons_per_mode, self.passes_per_mode
        )

    def to_dict(self) -> dict:
        """The config as JSON values: the keys that the run of its kind
        reads, unset ones left out."""
        return self._echo_for(self.kind)

    def _echo_for(self, run: str) -> dict:
        """:meth:`to_dict` for the report of ``run``, a key of ``_RUN_READERS``."""
        readers = (None, *self._readers(run))  # None: every run reads the key
        return {
            key: _echo(getattr(self, key))
            for key in _READERS
            if _READ_ONLY_BY.get(key) in readers and getattr(self, key) not in (None, {})
        }


def load_config(path) -> ScenarioConfig:
    """Read and validate a scenario config from a JSON file; a file that
    is not UTF-8 JSON, or nests too deeply to parse, is a ConfigError."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except RecursionError:
        raise ConfigError(f"{path}: JSON nested too deeply to read") from None
    return ScenarioConfig.from_dict(raw)
