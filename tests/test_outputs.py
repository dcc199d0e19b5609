"""Every preset output, byte for byte, against a checked-in manifest.

``tests/data/outputs.sha256`` holds one ``<sha256>  <file name>`` line
for each file that the four presets write in CSV and in JSON with
plots, for the Fisher-scan CSV and JSON of each preset sweep, and for
the Fisher scans of :data:`SCANS`.  A JSON report is digested with its
``versions`` block removed, so that only numbers and structure count.

Run ``python tests/test_outputs.py`` (with ``src`` importable) to
rewrite the manifest from the current tree; it prints each digest that
changed.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

from ghzsense.config import ScenarioConfig
from ghzsense.harness import FIGURES, load_preset, run_fisher, run_scenario, write_report

MANIFEST = Path(__file__).parent / "data" / "outputs.sha256"


def _scan(label: str, strategy: str, num_modes: int, visibility: float, **layout) -> dict:
    """A Fisher-scan config sweeping mode 1 over [0, pi], with every other
    mode held at a distinct phase."""
    return {
        "label": label,
        "strategy": strategy,
        "num_modes": num_modes,
        "seed": 0,
        "visibility": visibility,
        "theta_fixed": {str(k): 0.37 * k for k in range(2, num_modes + 1)},
        "sweep": {"parameter": 1, "start": 0.0, "stop": 3.141592653589793, "steps": 41},
        **layout,
    }


#: Photon p sits in mode (p + 1) // 2; the second photon of mode k and
#: the first of mode k + 1 form a pair, and the two left over are singletons.
_CHAIN = {
    "assignments": [[(p + 1) // 2, 1] for p in range(1, 21)],
    "grouping": [[1]] + [[2 * k, 2 * k + 1] for k in range(1, 10)] + [[20]],
}

#: Fisher scans of the large structured layouts that no preset reaches:
#: one group over 200 modes (rank 1), 200 singletons over 200 modes and
#: 200 over 10 modes (diagonal), one GHZ group of 20 photons in each of
#: 10 modes (diagonal), 20 groups spanning 10 modes (rank 1), and a chain
#: of pairs across 10 modes (full rank, not diagonal).
SCANS = (
    _scan("scan_mepc200", "mepc", 200, 0.9, passes_per_mode=[1, 2, 3, 4] * 50),
    _scan("scan_mepc200_pure", "mepc", 200, 1.0, passes_per_mode=[1, 2, 3, 4] * 50),
    _scan("scan_mspc200", "mspc", 200, 0.9, passes_per_mode=[1, 2, 3, 4] * 50),
    _scan("scan_msps10x20", "msps", 10, 0.8, photons_per_mode=20),
    _scan("scan_mspe10x20", "mspe", 10, 0.85, photons_per_mode=20),
    _scan("scan_meps10x20", "meps", 10, 0.8, photons_per_mode=20),
    _scan("scan_meps10x20_pure", "meps", 10, 1.0, photons_per_mode=20),
    _scan("scan_chain10", "generic", 10, 0.8, **_CHAIN),
)


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.suffix == ".json":
        report = json.loads(data)
        report.pop("versions")
        data = (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()
    return hashlib.sha256(data).hexdigest()


def output_digests(out_dir) -> dict[str, str]:
    """Digest of every preset and scan output written to ``out_dir``, by
    file name.

    Each config runs once; both formats are written from that one report.
    """
    reports = []
    for figure in FIGURES:
        for config in load_preset(figure):
            reports.append(run_scenario(config))
            if config.kind == "sweep":
                reports.append(run_fisher(config))
    reports += [run_fisher(ScenarioConfig.from_dict(scan)) for scan in SCANS]
    paths = []
    for report in reports:
        for fmt in ("csv", "json"):
            paths += write_report(report, out_dir, fmt=fmt, svg=report.kind != "fisher")
    return {path.name: _digest(path) for path in sorted(set(paths))}


def read_manifest() -> dict[str, str]:
    lines = MANIFEST.read_text(encoding="utf-8").splitlines()
    return {name: digest for digest, name in (line.split("  ", 1) for line in lines)}


def test_every_preset_output_matches_the_manifest(tmp_path):
    expected = read_manifest()
    actual = output_digests(tmp_path)
    assert sorted(actual) == sorted(expected), "the set of output files changed"
    changed = [name for name in expected if actual[name] != expected[name]]
    assert not changed, f"outputs differ from {MANIFEST.name}: {changed}"


def main() -> None:
    old = read_manifest() if MANIFEST.exists() else {}
    with tempfile.TemporaryDirectory() as out_dir:
        new = output_digests(out_dir)
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(
        "".join(f"{digest}  {name}\n" for name, digest in sorted(new.items())),
        encoding="utf-8",
    )
    changed = sorted(n for n in old.keys() | new.keys() if old.get(n) != new.get(n))
    for name in changed:
        print(f"{old.get(name, '-'):64}  ->  {new.get(name, '-'):64}  {name}")
    print(f"{MANIFEST}: {len(new)} files, {len(changed)} digests changed")


if __name__ == "__main__":
    main()
