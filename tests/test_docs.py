"""Keep the docs honest: the formula table and registry must agree, and
every name the README's library tour lists must exist."""

import importlib
import re
from pathlib import Path

from ghzsense.registry import OPERATIONS, resolve

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


def test_table_covers_registry_exactly():
    listed = _table_operations()
    assert sorted(listed) == sorted(OPERATIONS)
    assert len(listed) == len(set(listed)), "duplicate rows in formulas.md"


def test_registered_operations_resolve():
    for name in OPERATIONS:
        assert callable(resolve(name)), name


def test_config_schema_documents_contract_columns():
    text = (DOCS / "config_schema.md").read_text(encoding="utf-8")
    from ghzsense.harness import ESTIMATION_COLUMNS, FISHER_COLUMNS, SWEEP_COLUMNS

    for column in SWEEP_COLUMNS + FISHER_COLUMNS + ESTIMATION_COLUMNS:
        assert column in text, f"column {column} undocumented"


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
