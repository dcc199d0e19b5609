"""Golden verification of the bundled reproduction presets.

``presets/goldens.json`` is the one record of the bytes the presets
write.  Each preset has exactly one entry, whose ``files`` maps every
file that :func:`write_outputs` writes for it (the CSV, the JSON report
and the SVG plots of each run) to its :func:`digest`.  Exact-class
presets must re-run byte-identically from their recorded seeds.
Statistical-class presets also declare tolerance checks, which hold for
any seed: re-seeded, they are held to those checks instead of the
digests.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import MissingGoldenError
from .estimation import fit_fringe
from .harness import FIGURES, read_columns, reproduce, write_report

_GOLDEN_RESOURCE = "goldens.json"


@dataclass(frozen=True)
class GoldenOutcome:
    preset: str
    tolerance_class: str
    ok: bool
    detail: str


def digest(path) -> str:
    """SHA-256 of an output file.  A JSON report is digested with its
    ``versions`` block removed, so that only numbers and structure count."""
    path = Path(path)
    data = path.read_bytes()
    if path.suffix == ".json":
        report = json.loads(data)
        report.pop("versions")
        data = (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()
    return hashlib.sha256(data).hexdigest()


def write_outputs(name: str, out_dir, seed: int | None = None) -> list[Path]:
    """Run each config of preset ``name`` once and write its CSV, JSON and
    SVG files to ``out_dir``; returns their paths."""
    reports, paths = reproduce(name, out_dir, seed=seed, svg=True)
    for report in reports:
        paths += write_report(report, out_dir, fmt="json")
    return paths


def load_goldens() -> dict:
    text = resources.files("ghzsense.presets").joinpath(_GOLDEN_RESOURCE).read_text()
    return json.loads(text)


def _run_check(check: dict, out_dir: Path) -> tuple[bool, str]:
    path = out_dir / check["file"]
    if not path.exists():
        raise MissingGoldenError(f"expected output {check['file']} was not produced")
    data = read_columns(path)
    kind = check["kind"]
    if kind == "fitted_visibility":
        fit = fit_fringe(
            data["theta_hat"],
            data["p_plus_sampled"],
            data["p_minus_sampled"],
            float(check["multiplier"]),
        )
        v_bar = fit.visibility
        ok = abs(v_bar - check["target"]) <= check["tol"]
        return ok, f"fitted visibility {v_bar:.4f} vs {check['target']} +- {check['tol']}"
    if kind == "std_dev_band":
        ratio = data["std_dev"] / data["crb_model"]
        worst = float(np.max(np.abs(ratio - 1.0)))
        ok = worst <= check["rtol"]
        return ok, f"max |std_dev/crb - 1| = {worst:.3f} vs band {check['rtol']}"
    raise MissingGoldenError(f"unknown golden check kind {kind!r}")


def verify_preset(
    name: str, golden: dict, seed: int | None = None
) -> GoldenOutcome:
    """Re-run preset ``name`` and check what it writes against ``golden``.

    A written file without a digest fails the preset, and a listed file
    that was not written raises MissingGoldenError.  The digests are
    compared unless a statistical preset is re-seeded; a statistical
    preset then runs its tolerance checks.
    """
    tolerance_class = golden.get("class")
    if tolerance_class not in ("exact", "statistical"):
        raise MissingGoldenError(f"{name}: bad tolerance class {tolerance_class!r}")
    expected = golden.get("files", {})
    if not expected:
        raise MissingGoldenError(f"{name}: entry without file digests")
    with tempfile.TemporaryDirectory() as td:
        out_dir = Path(td)
        actual = {path.name: digest(path) for path in write_outputs(name, out_dir, seed)}
        missing = sorted(expected.keys() - actual.keys())
        if missing:
            raise MissingGoldenError(f"{name}: output(s) {missing} missing")
        unlisted = sorted(actual.keys() - expected.keys())
        ok = not unlisted
        details = [f"no digest for {unlisted}"] if unlisted else []
        if tolerance_class == "exact" or seed is None:
            bad = [fname for fname in sorted(expected) if actual[fname] != expected[fname]]
            ok = ok and not bad
            details.append(
                f"digest mismatch: {bad}" if bad else f"{len(expected)} file(s) byte-identical"
            )
        for check in golden.get("checks", []):
            passed, detail = _run_check(check, out_dir)
            ok = ok and passed
            details.append(detail)
        return GoldenOutcome(name, tolerance_class, ok, "; ".join(details))


def verify_goldens(seed: int | None = None) -> list[GoldenOutcome]:
    """Re-run every preset and compare against its golden entry.

    ``seed`` optionally re-seeds statistical presets (their tolerance
    checks must still pass); exact presets always run from their
    recorded seeds.  Returns one outcome per preset; raises
    MissingGoldenError when a preset has no entry.
    """
    goldens = load_goldens()
    entries = goldens.get("presets", {})
    outcomes = []
    for name in FIGURES:
        if name not in entries:
            raise MissingGoldenError(f"preset {name} has no golden entry")
        golden = entries[name]
        use_seed = seed if golden.get("class") == "statistical" else None
        outcomes.append(verify_preset(name, golden, seed=use_seed))
    return outcomes
