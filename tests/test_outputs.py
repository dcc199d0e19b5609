"""Every preset output, byte for byte, against a checked-in manifest.

``tests/data/outputs.sha256`` holds one ``<sha256>  <file name>`` line
for each file that the four presets write in CSV and in JSON with
plots, and for the Fisher-scan CSV and JSON of each preset sweep.  A
JSON report is digested with its ``versions`` block removed, so that
only numbers and structure count.

Run ``python tests/test_outputs.py`` (with ``src`` importable) to
rewrite the manifest from the current tree; it prints each digest that
changed.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

from ghzsense.harness import FIGURES, load_preset, run_fisher, run_scenario, write_report

MANIFEST = Path(__file__).parent / "data" / "outputs.sha256"


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.suffix == ".json":
        report = json.loads(data)
        report.pop("versions")
        data = (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()
    return hashlib.sha256(data).hexdigest()


def output_digests(out_dir) -> dict[str, str]:
    """Digest of every preset output written to ``out_dir``, by file name.

    Each preset config runs once; both formats are written from that
    one report.
    """
    paths = []
    for figure in FIGURES:
        for config in load_preset(figure):
            reports = [run_scenario(config)]
            if config.kind == "sweep":
                reports.append(run_fisher(config))
            for report in reports:
                for fmt in ("csv", "json"):
                    paths += write_report(
                        report, out_dir, fmt=fmt, svg=report.kind != "fisher"
                    )
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
