import pytest

import ghzsense.goldens as goldens_module
from ghzsense.errors import MissingGoldenError
from ghzsense.goldens import load_goldens, verify_goldens, verify_preset
from ghzsense.harness import FIGURES


def test_untouched_checkout_passes():
    outcomes = verify_goldens()
    assert [o.preset for o in outcomes] == list(FIGURES)
    for outcome in outcomes:
        assert outcome.ok, f"{outcome.preset}: {outcome.detail}"


def test_every_preset_has_exactly_one_entry():
    entries = load_goldens()["presets"]
    assert sorted(entries) == sorted(FIGURES)
    for name, entry in entries.items():
        assert entry["class"] in ("exact", "statistical"), name


def test_perturbed_seed_breaks_exact_class():
    golden = load_goldens()["presets"]["ext1"]
    outcome = verify_preset("ext1", golden, seed=77)
    assert not outcome.ok
    assert "mismatch" in outcome.detail


def test_statistical_class_survives_reseeding():
    golden = load_goldens()["presets"]["fig5"]
    outcome = verify_preset("fig5", golden, seed=20260810)
    assert outcome.ok, outcome.detail


def test_missing_entry_detected(monkeypatch):
    truncated = load_goldens()
    truncated["presets"].pop("fig3")
    monkeypatch.setattr(goldens_module, "load_goldens", lambda: truncated)
    with pytest.raises(MissingGoldenError):
        goldens_module.verify_goldens()


@pytest.mark.parametrize("suffix", [".json", ".svg"])
def test_one_changed_byte_fails(monkeypatch, suffix):
    # change one digit of the first written file with the suffix
    write_outputs = goldens_module.write_outputs
    changed = []

    def tampered(name, out_dir, seed=None):
        paths = write_outputs(name, out_dir, seed)
        path = next(p for p in paths if p.suffix == suffix)
        data = bytearray(path.read_bytes())
        i = next(i for i, b in enumerate(data) if chr(b).isdigit())
        data[i] = ord("2") if data[i] == ord("1") else ord("1")
        path.write_bytes(data)
        changed.append(path.name)
        return paths

    monkeypatch.setattr(goldens_module, "write_outputs", tampered)
    outcome = verify_preset("ext1", load_goldens()["presets"]["ext1"])
    assert not outcome.ok
    assert outcome.detail == f"digest mismatch: {changed}"


@pytest.mark.parametrize(("name", "seed"), [("ext1", None), ("fig5", 20260810)])
def test_unlisted_output_fails(name, seed):
    golden = load_goldens()["presets"][name]
    unlisted = next(f for f in sorted(golden["files"]) if f.endswith(".svg"))
    del golden["files"][unlisted]
    outcome = verify_preset(name, golden, seed=seed)
    assert not outcome.ok
    assert f"no digest for {[unlisted]}" in outcome.detail


def test_listed_output_not_written_raises():
    golden = load_goldens()["presets"]["ext1"]
    golden["files"]["ext1_mode4.csv"] = golden["files"]["ext1_mode2.csv"]
    with pytest.raises(MissingGoldenError, match="ext1_mode4.csv"):
        verify_preset("ext1", golden)
