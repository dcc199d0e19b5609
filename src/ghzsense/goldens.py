"""Golden verification of the bundled reproduction presets.

Each preset has exactly one golden entry.  Exact-class presets re-run
byte-identically from their recorded seed, so only SHA-256 digests of
the output CSVs are stored.  Statistical-class presets are verified by
declared tolerance checks instead, which hold for any seed.
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
from .harness import FIGURES, read_columns, reproduce

_GOLDEN_RESOURCE = "goldens.json"


@dataclass(frozen=True)
class GoldenOutcome:
    preset: str
    tolerance_class: str
    ok: bool
    detail: str


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
        v_bar = float(np.sqrt((fit.v_plus**2 + fit.v_minus**2) / 2))
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
    tolerance_class = golden.get("class")
    if tolerance_class not in ("exact", "statistical"):
        raise MissingGoldenError(f"{name}: bad tolerance class {tolerance_class!r}")
    with tempfile.TemporaryDirectory() as td:
        out_dir = Path(td)
        reproduce(name, out_dir, seed=seed)
        if tolerance_class == "exact":
            expected = golden.get("files", {})
            if not expected:
                raise MissingGoldenError(f"{name}: exact entry without file digests")
            bad = []
            for fname, digest in sorted(expected.items()):
                path = out_dir / fname
                if not path.exists():
                    raise MissingGoldenError(f"{name}: output {fname} missing")
                actual = _sha256(path)
                if actual != digest:
                    bad.append(fname)
            if bad:
                return GoldenOutcome(
                    name, tolerance_class, False, f"digest mismatch: {bad}"
                )
            return GoldenOutcome(
                name, tolerance_class, True, f"{len(expected)} file(s) byte-identical"
            )
        details = []
        ok = True
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

