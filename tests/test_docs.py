"""Keep the docs honest: the formula table lists exactly the registered
operations, the config schema lists exactly the keys a config may hold, and
the README's library tour lists exactly the package's exported functions."""

import importlib
import inspect
import json
import re
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from ghzsense.config import _READ_ONLY_BY, _READERS, _SWEEP_READERS, ScenarioConfig
from ghzsense.harness import FIGURES, _preset_text
from ghzsense.probes import Strategy

ROOT = Path(__file__).resolve().parent.parent
DOCS = ROOT / "docs"


def _table_operations():
    text = (DOCS / "formulas.md").read_text(encoding="utf-8")
    names = []
    for line in text.splitlines():
        if not line.startswith("|") or set(line) <= {"|", "-", " "}:
            continue
        cells = [c.strip() for c in line.strip("|").split("|")]
        if len(cells) < 2 or cells[-1] in ("Operation", ""):
            continue
        match = re.fullmatch(r"`([a-z_]+)`", cells[-1])
        if match:
            names.append(match.group(1))
    return names


#: The operation registry: every operation docs/formulas.md maps a formula
#: to, by the module that exports it, which is the package itself, or the
#: harness and the golden check, which the package does not import.
OPERATIONS = {
    "ghzsense": (
        # state engines
        "to_dense", "assert_equiv",
        # probe construction
        "make_probe", "weights",
        # phase encoding
        "apply_phases", "apply_phases_dense",
        # measurement statistics
        "outcome_distribution", "subset_parity_marginal", "sample_counts",
        # source and post-selection
        "simulate_run", "postselected_distribution_invariance",
        # estimation core
        "fisher_matrix", "effective_fi", "effective_fi_crb", "crb", "fi_curve",
        "theoretical_limits", "fit_fringe", "mle_estimate", "repeat_estimation",
        "db_reduction",
    ),
    "ghzsense.harness": ("run_sweep", "run_fisher", "run_estimation", "reproduce"),
    "ghzsense.goldens": ("verify_goldens",),
}


def test_table_covers_registry_exactly():
    listed = _table_operations()
    assert sorted(listed) == sorted(name for names in OPERATIONS.values() for name in names)
    assert len(listed) == len(set(listed)), "duplicate rows in formulas.md"


def test_registered_operations_resolve():
    package = importlib.import_module("ghzsense")
    for module_name, names in OPERATIONS.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"
            if module is package:
                assert name in package.__all__, name


def test_config_schema_documents_contract_columns():
    text = (DOCS / "config_schema.md").read_text(encoding="utf-8")
    from ghzsense.harness import ESTIMATION_COLUMNS, FISHER_COLUMNS, SWEEP_COLUMNS

    for column in SWEEP_COLUMNS + FISHER_COLUMNS + ESTIMATION_COLUMNS:
        assert column in text, f"column {column} undocumented"


def _schema_rows(heading: str) -> list[list[str]]:
    """Cells of each body row of the table under ``heading``."""
    text = (DOCS / "config_schema.md").read_text(encoding="utf-8")
    section = text.split(f"## {heading}\n", 1)[1].split("\n#", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("|") and cells[0] != "key" and not set(cells[0]) <= {"-"}:
            rows.append(cells)
    return rows


def _schema_keys(heading: str) -> list[str]:
    """Keys named in the first column of the table under ``heading``."""
    return [key for cells in _schema_rows(heading) for key in re.findall(r"`(\w+)`", cells[0])]


def test_config_schema_lists_exactly_the_accepted_keys():
    top = _schema_keys("Top-level keys")
    assert sorted(top) == sorted(_READERS)
    assert len(top) == len(set(top)), "duplicate rows in config_schema.md"
    assert sorted(_schema_keys("`sweep` block")) == sorted(_SWEEP_READERS)
    # the "read by" column is the config's table of which run reads a key
    read_by = {key: "all" for key in _READERS}
    read_by.update(_READ_ONLY_BY)
    documented = {cells[0].strip("`"): cells[3] for cells in _schema_rows("Top-level keys")}
    assert documented == read_by


_PRESET_RUNS = [run for f in FIGURES for run in json.loads(_preset_text(f))["runs"]]
_NUMBERS = st.floats(-10.0, 10.0)
_UNIT = st.floats(0.0, 1.0)


@st.composite
def _scenario_dicts(draw):
    """Valid scenario configs; layouts need not build, since only reading
    and echoing are under test."""
    m = draw(st.integers(1, 6))
    raw = {
        "strategy": draw(st.sampled_from([s.value for s in Strategy])),
        "num_modes": m,
        "seed": draw(st.integers(0, 2**40)),
    }
    optional = {
        "label": st.text("ab_-0", min_size=1, max_size=6),
        "visibility": _UNIT | st.lists(_UNIT, min_size=1, max_size=3),
        "out_dir": st.text("ab/.", min_size=1, max_size=6),
    }
    # a key is drawn only for the layout path and run kind that read it
    if raw["strategy"] == "generic" or draw(st.booleans()):
        pairs = st.lists(st.tuples(st.integers(1, m), st.integers(0, 3)), max_size=4)
        raw["assignments"] = [list(pair) for pair in draw(pairs)]
        raw["grouping"] = draw(st.lists(st.lists(st.integers(1, 4), max_size=3), max_size=3))
    elif raw["strategy"] in ("mepc", "mspc"):
        optional["passes_per_mode"] = st.lists(st.integers(0, 6), max_size=m)
    else:
        optional["photons_per_mode"] = st.integers(1, 4)
    for key, values in optional.items():
        if draw(st.booleans()):
            raw[key] = draw(values)
    if draw(st.booleans()):
        param = draw(st.integers(1, m))
        start, stop = draw(st.tuples(_NUMBERS, _NUMBERS).filter(lambda p: p[0] != p[1]))
        steps = draw(st.integers(2, 50))
        raw["sweep"] = {"parameter": param, "start": start, "stop": stop, "steps": steps}
        others = [str(k) for k in range(1, m + 1) if k != param]
        if others:
            raw["theta_fixed"] = draw(st.dictionaries(st.sampled_from(others), _NUMBERS))
        # a sweep needs at least one shot per grid point
        sweep_only = {
            "shots_per_point": st.integers(1, 10**6),
            "subset": st.lists(st.integers(1, 6), max_size=3),
            "reference_fi": st.dictionaries(st.text("abc", max_size=4), _NUMBERS, max_size=2),
        }
        for key, values in sweep_only.items():
            if draw(st.booleans()):
                raw[key] = draw(values)
    else:
        raw["theta_true"] = draw(st.lists(_NUMBERS, min_size=1, max_size=4))
        raw["groups"] = draw(st.integers(2, 500))
        raw["shots_per_group"] = draw(st.integers(2, 500))
    return raw


def _assert_round_trip(raw):
    config = ScenarioConfig.from_dict(raw)
    echoed = json.loads(json.dumps(config.to_dict()))
    assert ScenarioConfig.from_dict(echoed) == config


def test_preset_runs_round_trip_through_their_echo():
    for raw in _PRESET_RUNS:
        _assert_round_trip(raw)


@settings(max_examples=150, deadline=None)
@given(raw=_scenario_dicts())
def test_config_round_trips_through_its_echo(raw):
    _assert_round_trip(raw)


#: The tour rows whose names are the package's exports; the harness and the
#: golden check are entry points the package does not import.
PACKAGE_MODULES = tuple(
    f"ghzsense.{name}"
    for name in ("states", "probes", "evolution", "measurement", "acquisition", "estimation")
)


def _library_tour():
    """(module, names) per row of the README's "Library tour" table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library tour", 1)[1].split("\n#", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0].startswith("`ghzsense."):
            rows.append((cells[0].strip("`"), re.findall(r"`(\w+)`", cells[1])))
    return rows


def test_readme_library_tour_names_resolve():
    rows = _library_tour()
    assert len(rows) == 8
    for module_name, names in rows:
        module = importlib.import_module(module_name)
        assert names, module_name
        for name in names:
            assert hasattr(module, name), f"README lists {module_name}.{name}"
    # the package modules' rows and ghzsense.__all__ are one surface: each
    # name listed is exported, and each exported function is listed in the
    # row of the module that defines it
    package = importlib.import_module("ghzsense")
    rows = dict(rows)
    for module_name in PACKAGE_MODULES:
        for name in rows[module_name]:
            assert name in package.__all__, f"README lists unexported {module_name}.{name}"
    for name in package.__all__:
        obj = getattr(package, name)
        if inspect.isfunction(obj):
            assert name in rows.get(obj.__module__, ()), f"README tour misses {obj.__module__}.{name}"
