"""Every output byte for byte, against the one record of its digest.

``ghzsense/presets/goldens.json`` holds the digest of every file that
the four presets write (``verify_goldens``, run by
``tests/test_goldens.py``, checks them).  ``tests/data/outputs.sha256``
holds one ``<sha256>  <file name>`` line for each file that no preset
writes: the Fisher-scan CSV and JSON of each preset sweep, and of the
scans of :data:`SCANS`.  Both use :func:`ghzsense.goldens.digest`, and
no digest is stored in both.

Run ``python tests/test_outputs.py`` (with ``src`` importable) to
rewrite both files from the current tree; it prints each digest that
changed.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import ghzsense
from ghzsense.config import ScenarioConfig
from ghzsense.goldens import digest, load_goldens, write_outputs
from ghzsense.harness import FIGURES, load_preset, run_fisher, write_report

MANIFEST = Path(__file__).parent / "data" / "outputs.sha256"
GOLDENS = Path(ghzsense.__file__).parent / "presets" / "goldens.json"


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


def scan_digests(out_dir) -> dict[str, str]:
    """Digest of the Fisher scan of each preset sweep and of each of
    :data:`SCANS`, written to ``out_dir`` in CSV and JSON, by file name."""
    configs = [c for figure in FIGURES for c in load_preset(figure) if c.kind == "sweep"]
    configs += [ScenarioConfig.from_dict(scan) for scan in SCANS]
    paths = []
    for config in configs:
        report = run_fisher(config)
        for fmt in ("csv", "json"):
            paths += write_report(report, out_dir, fmt=fmt)
    return {path.name: digest(path) for path in paths}


def read_manifest() -> dict[str, str]:
    lines = MANIFEST.read_text(encoding="utf-8").splitlines()
    return {name: sha for sha, name in (line.split("  ", 1) for line in lines)}


def test_every_fisher_scan_matches_the_manifest(tmp_path):
    expected = read_manifest()
    actual = scan_digests(tmp_path)
    assert sorted(actual) == sorted(expected), "the set of output files changed"
    changed = [name for name in expected if actual[name] != expected[name]]
    assert not changed, f"outputs differ from {MANIFEST.name}: {changed}"


def _preset_digests(store: dict) -> dict[str, str]:
    return {name: d for entry in store["presets"].values() for name, d in entry["files"].items()}


def test_each_digest_is_stored_once():
    names = list(_preset_digests(load_goldens())) + list(read_manifest())
    assert len(names) == len(set(names))


def test_rewrite_on_an_unchanged_tree_is_byte_identical(tmp_path, monkeypatch, capsys):
    # main() rewrites copies of both files, which must come out unchanged
    originals = {}
    for name in ("GOLDENS", "MANIFEST"):
        path = globals()[name]
        originals[name] = path.read_bytes()
        (tmp_path / path.name).write_bytes(originals[name])
        monkeypatch.setitem(globals(), name, tmp_path / path.name)
    main()
    for name, data in originals.items():
        assert globals()[name].read_bytes() == data, name
    assert capsys.readouterr().out.endswith(": 73 files, 0 digests changed\n")


def main() -> None:
    store = json.loads(GOLDENS.read_text(encoding="utf-8"))
    old = {**read_manifest(), **_preset_digests(store)}
    with tempfile.TemporaryDirectory() as out_dir:
        scans = scan_digests(out_dir)
        for figure in FIGURES:
            paths = write_outputs(figure, out_dir)
            store["presets"][figure]["files"] = {path.name: digest(path) for path in paths}
    GOLDENS.write_text(json.dumps(store, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    MANIFEST.write_text(
        "".join(f"{sha}  {name}\n" for name, sha in sorted(scans.items())),
        encoding="utf-8",
    )
    new = {**scans, **_preset_digests(store)}
    changed = sorted(n for n in old.keys() | new.keys() if old.get(n) != new.get(n))
    for name in changed:
        print(f"{old.get(name, '-'):64}  ->  {new.get(name, '-'):64}  {name}")
    print(f"{GOLDENS.name} and {MANIFEST.name}: {len(new)} files, {len(changed)} digests changed")


if __name__ == "__main__":
    main()
