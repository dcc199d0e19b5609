"""Keep the docs honest: the formula table and registry must agree."""

import re
from pathlib import Path

from ghzsense.registry import OPERATIONS, resolve

DOCS = Path(__file__).resolve().parent.parent / "docs"


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
