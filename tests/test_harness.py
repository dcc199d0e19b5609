import copy
import json
import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ghzsense
from ghzsense import cli, svgplot
from ghzsense.config import ScenarioConfig, load_config
from ghzsense.errors import (
    ConfigError,
    InvalidLayoutError,
    SingularMatrixError,
    SingularPointError,
    UnknownFigureError,
)
from ghzsense.estimation import effective_fi, effective_fi_crb, fisher_matrix
from ghzsense.harness import (
    FIGURES,
    FISHER_COLUMNS,
    SWEEP_COLUMNS,
    _preset_text,
    load_preset,
    read_columns,
    reproduce,
    run_estimation,
    run_fisher,
    run_scenario,
    run_sweep,
    write_report,
)
from ghzsense.probes import ModeLayout, make_probe, weights
from ghzsense.states import ProductState

MEPE_SWEEP = {
    "label": "mepe_demo",
    "strategy": "mepe",
    "num_modes": 3,
    "photons_per_mode": 2,
    "visibility": 0.7605125903,
    "theta_fixed": {"2": np.pi / 6, "3": np.pi / 3},
    "sweep": {"parameter": 1, "start": 0.0, "stop": np.pi, "steps": 31},
    "shots_per_point": 4000,
    "seed": 901,
}

#: Fisher-scan configs: a pure mepe probe is rank one (every matrix bound
#: NaN); a pure msps probe has vanishing outcome probabilities on the
#: grid (SingularPointError rows); mspe off the fringe nodes is full rank;
#: a 24-photon msps probe lies above the 12-photon table cap, and its
#: swept mode is blind at theta = 0 and pi (singular matrix bound); an
#: mspe probe at V = 1e-160 is well conditioned with a bound below the
#: smallest normal float, which reads 0.0 rather than a singular NaN.
FISHER_SCANS = {
    "mepe_rank_one": MEPE_SWEEP,
    "msps_singular_points": {
        **MEPE_SWEEP,
        "label": "msps_pure",
        "strategy": "msps",
        "visibility": 1.0,
        "sweep": {"parameter": 1, "start": 0.0, "stop": np.pi, "steps": 13},
    },
    "mspe_full_rank": {
        **MEPE_SWEEP,
        "label": "mspe_mixed",
        "strategy": "mspe",
        "visibility": [0.8, 0.9, 0.7],
        "sweep": {"parameter": 1, "start": 0.1, "stop": 3.0, "steps": 9},
    },
    "msps_24_photons": {
        **MEPE_SWEEP,
        "label": "msps_large",
        "strategy": "msps",
        "num_modes": 4,
        "photons_per_mode": 6,
        "visibility": 0.9,
        "theta_fixed": {"2": np.pi / 6, "3": np.pi / 3, "4": np.pi / 4},
        "sweep": {"parameter": 1, "start": 0.0, "stop": np.pi, "steps": 13},
    },
    "mspe_vanishing_visibility": {
        **MEPE_SWEEP,
        "label": "mspe_faint",
        "strategy": "mspe",
        "visibility": 1e-160,
        "theta_fixed": {"2": 0.9, "3": 1.1},
        "sweep": {"parameter": 1, "start": 0.5, "stop": 1.5, "steps": 5},
    },
}


def fisher_oracle(config: ScenarioConfig) -> np.ndarray:
    """Per-point Fisher scan, one grid point at a time."""
    layout = config.build_layout()
    probe = make_probe(
        config.strategy, layout, config.visibility, max_photons=layout.num_photons
    )
    alpha = weights(layout)
    rows = []
    for value in np.linspace(config.sweep.start, config.sweep.stop, config.sweep.steps):
        theta = np.zeros(config.num_modes)
        for mode, fixed in config.theta_fixed.items():
            theta[mode - 1] = fixed
        theta[config.sweep.parameter - 1] = value
        theta_hat = float(alpha @ theta)
        try:
            fisher = fisher_matrix(probe, layout, theta)
        except SingularPointError:
            rows.append((theta_hat, np.nan, np.nan))
            continue
        eff = effective_fi(fisher, alpha)
        try:
            eff_crb = effective_fi_crb(fisher, alpha)
        except SingularMatrixError:
            eff_crb = np.nan
        rows.append((theta_hat, eff, eff_crb))
    return np.array(rows)


#: Marks a key of ``MEPE_SWEEP`` that a test's override leaves out.
DROP = object()

#: Override turning MEPE_SWEEP into an estimation run.
AS_ESTIMATION = {"sweep": DROP, "shots_per_point": DROP, "groups": 4, "shots_per_group": 4}

MEPC_ESTIMATION = {
    "label": "mepc_demo",
    "strategy": "mepc",
    "num_modes": 6,
    "passes_per_mode": [1, 2, 3, 4, 5, 6],
    "visibility": 0.6390500763,
    "groups": 20,
    "shots_per_group": 70,
    "theta_true": [0.06, 0.075],
    "seed": 902,
}


class TestConfigValidation:
    def test_roundtrip(self):
        config = ScenarioConfig.from_dict(MEPE_SWEEP)
        again = ScenarioConfig.from_dict(config.to_dict())
        assert again == config

    def test_unknown_key_rejected(self):
        bad = {**MEPE_SWEEP, "shotz": 3}
        with pytest.raises(ConfigError, match="shotz"):
            ScenarioConfig.from_dict(bad)

    def test_integer_keys_take_integral_values_and_strings(self):
        config = ScenarioConfig.from_dict({**MEPE_SWEEP, "num_modes": 3.0})
        assert config.num_modes == 3 and isinstance(config.num_modes, int)
        assert config.theta_fixed == {2: np.pi / 6, 3: np.pi / 3}

    def test_unknown_nested_key_rejected(self):
        bad = {**MEPE_SWEEP, "sweep": {**MEPE_SWEEP["sweep"], "stepz": 2}}
        with pytest.raises(ConfigError, match="stepz"):
            ScenarioConfig.from_dict(bad)

    def test_seed_required(self):
        bad = dict(MEPE_SWEEP)
        del bad["seed"]
        with pytest.raises(ConfigError, match="seed"):
            ScenarioConfig.from_dict(bad)

    def test_degenerate_sweep_rejected(self):
        bad = {**MEPE_SWEEP, "sweep": {"parameter": 1, "start": 0, "stop": 0, "steps": 5}}
        with pytest.raises(ConfigError, match="degenerate"):
            ScenarioConfig.from_dict(bad)

    def test_single_step_sweep_rejected(self):
        bad = {**MEPE_SWEEP, "sweep": {"parameter": 1, "start": 0, "stop": 1, "steps": 1}}
        with pytest.raises(ConfigError, match="steps"):
            ScenarioConfig.from_dict(bad)

    def test_sweep_and_theta_true_exclusive(self):
        bad = {**MEPE_SWEEP, "theta_true": [0.1]}
        with pytest.raises(ConfigError, match="exactly one"):
            ScenarioConfig.from_dict(bad)

    def test_estimation_needs_two_groups(self):
        bad = {**MEPC_ESTIMATION, "groups": 1}
        with pytest.raises(ConfigError, match="groups"):
            ScenarioConfig.from_dict(bad)

    def test_bad_strategy_lists_choices(self):
        bad = {**MEPE_SWEEP, "strategy": "mepz"}
        with pytest.raises(ConfigError, match="mepz"):
            ScenarioConfig.from_dict(bad)

    def test_load_config_reports_json_errors(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json}")
        with pytest.raises(ConfigError, match="line"):
            load_config(path)


class TestRunSweep:
    def test_mepe_fit_and_peak(self):
        report = run_sweep(ScenarioConfig.from_dict(MEPE_SWEEP))
        assert report.metrics["fitted_multiplier"] == 6
        assert report.metrics["multiplier"] == pytest.approx(6.0)
        # max FI should be near Vbar^2 * 36 = 20.8
        assert report.metrics["fi_peak_model"] == pytest.approx(20.8, abs=0.6)
        assert report.metrics["theoretical"]["fi"] == 36.0
        assert report.metrics["db_vs_snl"] == pytest.approx(2.70, abs=0.1)
        assert len(report.rows) == 31

    def test_no_finite_information_gives_nan_reduction(self):
        # a pure mspe fit reaches V ~ 1, and groups 2 and 3 sit at phase 0,
        # where an outcome probability vanishes: every FI cell is NaN, so
        # there is no peak to compare with the shot-noise reference
        config = {
            **MEPE_SWEEP,
            "strategy": "mspe",
            "visibility": 1.0,
            "subset": [1, 2],
            "theta_fixed": {},
            "sweep": {"parameter": 1, "start": 0.1, "stop": 3.0, "steps": 21},
            "shots_per_point": 500,
        }
        report = run_sweep(ScenarioConfig.from_dict(config))
        assert np.isnan(report.metrics["fi_peak_model"])
        assert np.isnan(report.metrics["db_vs_snl"])

    def test_exact_columns_match_model(self):
        config = ScenarioConfig.from_dict(MEPE_SWEEP)
        report = run_sweep(config)
        rows = np.asarray(report.rows)
        v = MEPE_SWEEP["visibility"]
        expected = 0.5 * (1 + v * np.cos(6 * rows[:, 0]))
        np.testing.assert_allclose(rows[:, 1], expected, atol=1e-12)
        np.testing.assert_allclose(rows[:, 1] + rows[:, 2], 1.0, atol=1e-12)

    def test_sampled_probabilities_near_exact(self):
        report = run_sweep(ScenarioConfig.from_dict(MEPE_SWEEP))
        rows = np.asarray(report.rows)
        sigma = np.sqrt(0.25 / MEPE_SWEEP["shots_per_point"])
        assert np.max(np.abs(rows[:, 3] - rows[:, 1])) < 6 * sigma

    def test_rerun_from_echoed_config(self):
        report = run_sweep(ScenarioConfig.from_dict(MEPE_SWEEP))
        again = run_scenario(ScenarioConfig.from_dict(report.config))
        assert again.rows == report.rows
        assert again.to_csv() == report.to_csv()

    def test_multi_group_probe_requires_subset(self):
        bad = {**MEPE_SWEEP, "strategy": "meps", "label": "x"}
        with pytest.raises(ConfigError, match="subset"):
            run_sweep(ScenarioConfig.from_dict(bad))

    def test_subset_must_be_whole_group(self):
        bad = {**MEPE_SWEEP, "strategy": "meps", "subset": [1, 2]}
        with pytest.raises(ConfigError, match="whole entanglement group"):
            run_sweep(ScenarioConfig.from_dict(bad))

    def test_meps_subset_fringe(self):
        config = ScenarioConfig.from_dict(
            {
                **MEPE_SWEEP,
                "strategy": "meps",
                "subset": [1, 3, 5],
                "sweep": {"parameter": 1, "start": 0.0, "stop": 2 * np.pi, "steps": 41},
            }
        )
        report = run_sweep(config)
        assert report.metrics["multiplier"] == pytest.approx(3.0)
        assert report.metrics["fitted_multiplier"] == 3


class TestRunFisher:
    @pytest.mark.parametrize(
        "name, singular_points, singular_crb",
        [
            ("mepe_rank_one", 0, 31),
            ("msps_singular_points", 2, 0),
            ("mspe_full_rank", 0, 0),
            ("msps_24_photons", 0, 2),
            ("mspe_vanishing_visibility", 0, 0),
        ],
    )
    def test_rows_match_per_point_oracle(self, name, singular_points, singular_crb):
        config = ScenarioConfig.from_dict(FISHER_SCANS[name])
        report = run_fisher(config)
        oracle = fisher_oracle(config)
        assert report.kind == "fisher"
        assert report.columns == FISHER_COLUMNS
        # exact equality, NaN rows included
        np.testing.assert_array_equal(np.array(report.rows), oracle)
        assert report.metrics == {
            "singular_points": singular_points,
            "singular_crb": singular_crb,
        }
        assert int(np.isnan(oracle[:, 1]).sum()) == singular_points
        nan_crb_only = np.isnan(oracle[:, 2]) & ~np.isnan(oracle[:, 1])
        assert int(nan_crb_only.sum()) == singular_crb

    @pytest.mark.parametrize("name", sorted(FISHER_SCANS))
    def test_csv_is_oracle_at_12g(self, tmp_path, name):
        config = ScenarioConfig.from_dict(FISHER_SCANS[name])
        (path,) = write_report(run_fisher(config), tmp_path)
        assert path.name == f"{config.label}_fisher.csv"
        expected = [",".join(FISHER_COLUMNS)] + [
            ",".join(format(v, ".12g") for v in row) for row in fisher_oracle(config)
        ]
        assert path.read_text(encoding="utf-8") == "\n".join(expected) + "\n"

    def test_needs_sweep(self):
        with pytest.raises(ConfigError, match="sweep"):
            run_fisher(ScenarioConfig.from_dict(MEPC_ESTIMATION))

    def test_sweep_and_fisher_reports_do_not_collide(self, tmp_path):
        config = ScenarioConfig.from_dict(MEPE_SWEEP)
        paths = write_report(run_sweep(config), tmp_path, fmt="json")
        paths += write_report(run_fisher(config), tmp_path, fmt="json")
        assert [p.name for p in paths] == ["mepe_demo.json", "mepe_demo_fisher.json"]

    def test_no_svg_for_fisher(self, tmp_path):
        report = run_fisher(ScenarioConfig.from_dict(MEPE_SWEEP))
        with pytest.raises(ConfigError, match="svg"):
            write_report(report, tmp_path, svg=True)
        assert list(tmp_path.iterdir()) == []


class TestRunEstimation:
    def test_columns_and_bounds(self):
        report = run_estimation(ScenarioConfig.from_dict(MEPC_ESTIMATION))
        rows = np.asarray(report.rows)
        assert rows.shape == (2, 7)
        # crb_ideal = 1/(21 sqrt(70)), snl = 1/sqrt(21*70)
        np.testing.assert_allclose(rows[:, 5], 1 / (21 * np.sqrt(70)))
        np.testing.assert_allclose(rows[:, 6], 1 / np.sqrt(21 * 70))
        # observed std dev within a loose band of the model bound
        assert np.all(rows[:, 2] / rows[:, 4] < 1.6)
        assert np.all(rows[:, 2] / rows[:, 4] > 0.5)

    def test_probe_above_table_cap(self):
        # grouped MLE builds no 2**N table, so 16 photons are allowed
        config = {
            **MEPC_ESTIMATION,
            "strategy": "mepe",
            "num_modes": 4,
            "photons_per_mode": 4,
            "visibility": 0.8,
        }
        del config["passes_per_mode"]
        report = run_estimation(ScenarioConfig.from_dict(config))
        rows = np.asarray(report.rows)
        assert report.metrics["multiplier"] == 16.0
        np.testing.assert_allclose(rows[:, 5], 1 / (16 * np.sqrt(70)))
        np.testing.assert_allclose(rows[:, 6], 1 / np.sqrt(16 * 70))
        assert np.all(rows[:, 2] / rows[:, 4] < 1.6)
        assert np.all(rows[:, 2] / rows[:, 4] > 0.5)

    def test_multi_group_probe_rejected(self):
        bad = {**MEPC_ESTIMATION, "strategy": "mspc"}
        with pytest.raises(ConfigError, match="single-group"):
            run_estimation(ScenarioConfig.from_dict(bad))


def test_run_paths_read_probe_arrays(monkeypatch):
    # the GhzGroup view is built for callers; the run paths must not need it
    def refuse(self):
        raise AssertionError("ProductState.groups was read")

    monkeypatch.setattr(ProductState, "groups", property(refuse))
    meps = {**MEPE_SWEEP, "strategy": "meps", "subset": [1, 3, 5]}
    assert run_sweep(ScenarioConfig.from_dict(meps)).metrics["multiplier"] == 3.0
    run_fisher(ScenarioConfig.from_dict(MEPE_SWEEP))
    run_estimation(ScenarioConfig.from_dict(MEPC_ESTIMATION))


class TestReproduce:
    def test_unknown_figure(self, tmp_path):
        with pytest.raises(UnknownFigureError):
            reproduce("fig9", tmp_path)

    def test_presets_load(self):
        for figure in ("fig3", "fig4", "fig5", "ext1"):
            configs = load_preset(figure)
            assert configs, figure

    def test_fig4_deterministic_bytes(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        _, paths_a = reproduce("fig4", a_dir)
        _, paths_b = reproduce("fig4", b_dir)
        assert [p.name for p in paths_a] == [p.name for p in paths_b]
        for pa, pb in zip(paths_a, paths_b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_fig4_seed_override_changes_samples(self, tmp_path):
        _, paths_a = reproduce("fig4", tmp_path / "a")
        _, paths_b = reproduce("fig4", tmp_path / "b", seed=1)
        changed = [
            pa.read_bytes() != pb.read_bytes() for pa, pb in zip(paths_a, paths_b)
        ]
        assert all(changed)

    def test_ext1_individual_fi_peaks(self, tmp_path):
        reports, _ = reproduce("ext1", tmp_path)
        peaks = {r.config["label"]: r.metrics["fi_peak_model"] for r in reports}
        assert peaks["ext1_mode2"] == pytest.approx(3.832, abs=0.05)
        assert peaks["ext1_mode3"] == pytest.approx(3.877, abs=0.05)

    def test_fig3_individual_fi_peaks(self, tmp_path):
        reports, _ = reproduce("fig3", tmp_path)
        peaks = [r.metrics["fi_peak_model"] for r in reports]
        for peak, target in zip(peaks, (3.88, 3.85, 3.86)):
            assert peak == pytest.approx(target, abs=0.06)

    def test_svg_outputs(self, tmp_path):
        _, paths = reproduce("ext1", tmp_path, svg=True)
        svgs = [p for p in paths if p.suffix == ".svg"]
        assert len(svgs) == 4  # fringe + fi per run
        for p in svgs:
            text = p.read_text()
            assert text.startswith("<svg") and "polyline" in text

    @pytest.mark.parametrize("figure", ["fig4", "fig5"])
    def test_fi_reference_line_styles(self, tmp_path, figure):
        # caption convention: SNL dotted black, block limits red dash-dot,
        # per-mode limits blue dashed
        expected = {
            "snl": ("#000000", "2,4"),
            "msps_snl": ("#000000", "2,4"),
            "meps_limit": ("#d62728", "8,4,2,4"),
            "mspc_limit": ("#d62728", "8,4,2,4"),
            "mspe_limit": ("#1f77b4", "8,5"),
            "heisenberg": ("#1f77b4", "8,5"),
        }
        # the FI band series: fit solid, 90% edges dotted
        series = {
            "FI (fit)": ("#2ca02c", None),
            "FI lo90": ("#2ca02c", "2,4"),
            "FI hi90": ("#2ca02c", "2,4"),
        }
        reports, _ = reproduce(figure, tmp_path, svg=True)
        sweeps = [r for r in reports if r.kind == "sweep"]
        assert sweeps
        svg = "{http://www.w3.org/2000/svg}"
        for report in sweeps:
            label = report.config["label"]
            children = list(ET.parse(tmp_path / f"{label}_fi.svg").getroot())
            lines = [el for el in children if el.tag == svg + "line"]
            # reference lines span the plot; legend swatches do not
            full_width = [
                (line.get("stroke"), line.get("stroke-dasharray"))
                for line in lines
                if line.get("x1") == str(svgplot.MARGIN_L)
                and line.get("x2") == str(svgplot.WIDTH - svgplot.MARGIN_R)
            ]
            refs = report.config["reference_fi"]
            assert sorted(full_width) == sorted(expected[n] for n in refs), label
            # each legend swatch is a short line followed by its label
            legend = {
                text.text: (line.get("stroke"), line.get("stroke-dasharray"))
                for line, text in zip(children, children[1:])
                if line in lines and text.tag == svg + "text"
            }
            assert legend == {**series, **{n: expected[n] for n in refs}}, label

    def test_json_format(self, tmp_path):
        _, paths = reproduce("ext1", tmp_path, fmt="json")
        assert all(p.suffix == ".json" for p in paths)
        payload = json.loads(paths[0].read_text())
        assert payload["kind"] == "sweep"
        assert payload["columns"][0] == "theta_hat"

    def test_preset_reference_lines_match_limits(self):
        # overlaid limit lines must equal theoretical_limits outputs
        from ghzsense import Strategy, standard_layout, theoretical_limits

        parallel = standard_layout(Strategy.MEPS, 3, 2)
        pair = standard_layout(Strategy.INDIVIDUAL, 1, 2)
        combined = standard_layout(Strategy.MSPC, 6)
        expected = {
            "meps_limit": theoretical_limits(Strategy.MEPS, parallel)["fi"],
            "mspe_limit": theoretical_limits(Strategy.MSPE, parallel)["fi"],
            "msps_snl": theoretical_limits(Strategy.MSPS, parallel)["snl_fi"],
            "heisenberg": theoretical_limits(Strategy.INDIVIDUAL, pair)["fi"],
            "snl": theoretical_limits(Strategy.INDIVIDUAL, pair)["snl_fi"],
            "mspc_limit": theoretical_limits(Strategy.MSPC, combined)["fi"],
        }
        snl_combined = theoretical_limits(
            Strategy.MEPC, standard_layout(Strategy.MEPC, 6)
        )["snl_fi"]
        for figure in ("fig3", "fig4", "fig5", "ext1"):
            for config in load_preset(figure):
                for name, value in config.reference_fi.items():
                    if name == "snl" and config.strategy is Strategy.MEPC:
                        assert value == snl_combined
                    else:
                        assert value == expected[name], (figure, name)


class TestWriteReport:
    def test_unknown_format(self, tmp_path):
        report = run_sweep(ScenarioConfig.from_dict(MEPE_SWEEP))
        with pytest.raises(ConfigError, match="format"):
            write_report(report, tmp_path, fmt="yaml")


def child_env():
    """Environment in which a child Python imports the ghzsense under test."""
    src = str(Path(ghzsense.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


class TestCli:
    def run_cli(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "ghzsense.cli", *argv],
            capture_output=True,
            text=True,
            env=child_env(),
        )

    def test_import_defers_scipy_stats_and_optimize(self):
        # both cost most of a cold start; only counts_consistent and
        # fit_fringe need them, so they load on first use
        code = (
            "import sys, ghzsense; "
            "print([m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules])"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_fisher_run_defers_scipy_stats_and_optimize(self, tmp_path):
        # an exact information scan needs neither the fit nor the chi2 test
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(FISHER_SCANS["mspe_full_rank"]))
        code = (
            "import sys; from ghzsense import cli; "
            f"code = cli.main(['fisher', {str(config_path)!r}, "
            f"'--out-dir', {str(tmp_path)!r}]); "
            "print(code, [m for m in ('scipy.stats', 'scipy.optimize') "
            "if m in sys.modules])"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "0 []"
        assert (tmp_path / "mspe_mixed_fisher.csv").exists()

    def test_loss_study_defers_scipy_stats_and_optimize(self):
        # the invariance test needs only scipy.special for its p-value
        code = (
            "import sys; import ghzsense as g; "
            "layout = g.standard_layout(g.Strategy.MEPE, 3, 2); "
            "probe = g.make_probe(g.Strategy.MEPE, layout, coherence=0.9); "
            "source = g.SourceModel(pair_probability=0.5, pulses=200_000); "
            "same = g.postselected_distribution_invariance("
            "source, source, probe, [0.45, 0.5, 1.0], seed=1); "
            "print(same, 'scipy.special' in sys.modules, "
            "[m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules])"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "True True []"

    def test_reproduce_and_fit(self, tmp_path):
        result = self.run_cli("reproduce", "ext1", "--out-dir", str(tmp_path))
        assert result.returncode == 0, result.stderr
        csv_path = tmp_path / "ext1_mode2.csv"
        assert csv_path.exists()
        fit = self.run_cli("fit", str(csv_path))
        assert fit.returncode == 0, fit.stderr
        payload = json.loads(fit.stdout)
        assert payload["multiplier"] == pytest.approx(2.0)
        assert payload["v_plus"] == pytest.approx(0.979, abs=0.02)

    def test_simulate_and_estimate(self, tmp_path):
        sweep_path = tmp_path / "sweep.json"
        sweep_cfg = dict(MEPE_SWEEP)
        sweep_cfg["theta_fixed"] = {"2": float(np.pi / 6), "3": float(np.pi / 3)}
        sweep_cfg["sweep"] = {"parameter": 1, "start": 0.0, "stop": float(np.pi), "steps": 11}
        sweep_cfg["reference_fi"] = {"mspe_limit": 12.0, "msps_snl": 6.0}
        sweep_path.write_text(json.dumps(sweep_cfg))
        result = self.run_cli(
            "simulate", str(sweep_path), "--out-dir", str(tmp_path), "--svg"
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "mepe_demo.csv").exists()
        assert (tmp_path / "mepe_demo_fi.svg").exists()

        est_path = tmp_path / "est.json"
        est_path.write_text(json.dumps(MEPC_ESTIMATION))
        result = self.run_cli(
            "estimate", str(est_path), "--out-dir", str(tmp_path), "--format", "json"
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "mepc_demo.json").exists()

    @pytest.mark.parametrize("svg", [False, True])
    def test_simulate_pure_probe_through_fringe_nodes(self, tmp_path, svg):
        # With this seed the fitted visibility of the pure probe clips to
        # 1 - 1e-12, so the FI bands meet vanishing outcome probabilities at
        # the fringe nodes: those cells are NaN, and the run still succeeds.
        raw = {**MEPE_SWEEP, "visibility": 1.0, "theta_fixed": {}, "seed": 5}
        raw["sweep"] = {"parameter": 1, "start": 0.0, "stop": np.pi, "steps": 21}
        del raw["shots_per_point"]
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(raw))
        argv = ["simulate", str(config_path), "--out-dir", str(tmp_path)]
        assert cli.main(argv + ["--svg"] * svg) == 0
        columns = read_columns(tmp_path / "mepe_demo.csv")
        exact = np.minimum(columns["p_plus_exact"], columns["p_minus_exact"])
        nodes = exact < 1e-12
        assert nodes.sum() == 3
        assert np.array_equal(np.isnan(columns["fi_model"]), nodes)
        for name in ("fi_fit_lo90", "fi_fit_hi90"):
            assert not np.any(np.isnan(columns[name]) & ~nodes), name
        if svg:
            text = (tmp_path / "mepe_demo_fi.svg").read_text()
            ET.fromstring(text)
            assert "nan" not in text.lower()
        report = run_sweep(ScenarioConfig.from_dict(raw))
        assert report.metrics["visibility_fit"] == 1.0 - 1e-12
        fi_model = np.array(report.rows)[:, SWEEP_COLUMNS.index("fi_model")]
        assert report.metrics["fi_peak_model"] == np.nanmax(fi_model)

    def test_fisher_command(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg = dict(MEPE_SWEEP)
        cfg["theta_fixed"] = {"2": float(np.pi / 6), "3": float(np.pi / 3)}
        cfg["sweep"] = {"parameter": 1, "start": 0.1, "stop": 3.0, "steps": 9}
        cfg_path.write_text(json.dumps(cfg))
        result = self.run_cli("fisher", str(cfg_path), "--out-dir", str(tmp_path))
        assert result.returncode == 0, result.stderr
        lines = (tmp_path / "mepe_demo_fisher.csv").read_text().splitlines()
        assert lines[0] == "theta_hat,effective_fi,effective_fi_crb"
        assert len(lines) == 10

    def test_fisher_json_is_run_report(self, tmp_path, capsys):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(FISHER_SCANS["msps_singular_points"]))
        code = cli.main(
            ["fisher", str(config_path), "--out-dir", str(tmp_path), "--format", "json"]
        )
        assert code == 0
        path = tmp_path / "msps_pure_fisher.json"
        assert capsys.readouterr().out.strip() == str(path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        config = ScenarioConfig.from_dict(FISHER_SCANS["msps_singular_points"])
        assert payload["kind"] == "fisher"
        assert payload["columns"] == list(FISHER_COLUMNS)
        assert payload["config"] == config.to_dict()
        np.testing.assert_array_equal(np.array(payload["rows"]), fisher_oracle(config))
        assert payload["metrics"] == {"singular_points": 2, "singular_crb": 0}

    @pytest.mark.parametrize(
        "argv",
        [
            ["fisher", "cfg.json", "--svg"],
            ["fit", "sweep.csv", "--seed", "1"],
            ["fit", "sweep.csv", "--out-dir", "out"],
            ["fit", "sweep.csv", "--svg"],
            ["fit", "sweep.csv", "--format", "json"],
        ],
    )
    def test_unused_flags_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @staticmethod
    def write_fringe_csv(path, cells=None):
        """A sweep CSV of a c = 2, V = 0.9 fringe; ``cells`` replaces cells."""
        theta = np.linspace(0.0, np.pi, 21)
        p_plus = 0.5 * (1 + 0.9 * np.cos(2 * theta))
        rows = [[format(v, ".12g") for v in r] for r in zip(theta, p_plus, 1 - p_plus)]
        for (i, j), text in (cells or {}).items():
            rows[i][j] = text
        lines = ["theta_hat,p_plus_sampled,p_minus_sampled", *map(",".join, rows)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    @pytest.mark.parametrize("multiplier", ["2", "-2"])
    def test_fit_with_given_multiplier(self, tmp_path, capsys, multiplier):
        csv_path = tmp_path / "sweep.csv"
        self.write_fringe_csv(csv_path)
        assert cli.main(["fit", str(csv_path), "--multiplier", multiplier]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["multiplier"] == float(multiplier)
        assert payload["v_plus"] == pytest.approx(0.9, abs=1e-9)

    @pytest.mark.parametrize(
        "case, key",
        [
            ("multiplier 0", "multiplier"),
            ("multiplier nan", "multiplier"),
            ("multiplier inf", "multiplier"),
            ("non-numeric cell", "row 4, column 'p_plus_sampled'"),
            ("short row", "row 7, column 'p_minus_sampled'"),
            ("non-UTF-8 bytes", "UTF-8"),
            ("nan probability", "finite"),
            ("inf probability", "finite"),
            ("nan grid value", "finite"),
        ],
    )
    def test_malformed_fit_input_exit_code(self, tmp_path, capsys, case, key):
        csv_path = tmp_path / "sweep.csv"
        argv = ["fit", str(csv_path)]
        if case.startswith("multiplier"):
            self.write_fringe_csv(csv_path)
            argv += ["--multiplier", case.split()[1]]
        elif case == "non-numeric cell":
            self.write_fringe_csv(csv_path, {(3, 1): "abc"})
        elif case == "short row":
            self.write_fringe_csv(csv_path)
            lines = csv_path.read_text().splitlines()
            lines[7] = lines[7].rsplit(",", 1)[0]
            csv_path.write_text("\n".join(lines) + "\n")
        elif case == "non-UTF-8 bytes":
            self.write_fringe_csv(csv_path)
            csv_path.write_bytes(csv_path.read_bytes() + b"0.5,\xff\xfe,0.5\n")
        elif case == "nan probability":
            self.write_fringe_csv(csv_path, {(5, 1): "nan"})
        elif case == "inf probability":
            self.write_fringe_csv(csv_path, {(5, 2): "inf"})
        else:
            self.write_fringe_csv(csv_path, {(5, 0): "nan"})
        # in-process, so an escaping exception fails the test outright
        assert cli.main(argv) == 2
        stderr = capsys.readouterr().err
        assert key in stderr and "Traceback" not in stderr

    def test_config_error_exit_code(self, tmp_path):
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps({**MEPE_SWEEP, "bogus": 1}))
        result = self.run_cli("simulate", str(bad_path))
        assert result.returncode == 2
        assert "bogus" in result.stderr

    @pytest.mark.parametrize(
        "override, key",
        [
            ({"num_modes": "x"}, "num_modes"),
            ({"shots_per_point": "lots"}, "shots_per_point"),
            ({"seed": -1}, "seed"),
            ({"source": {"pair_probability": 0.1, "pulses": 100}}, "source"),
            (
                {"sweep": {"parameter": 1, "start": float("nan"), "stop": 1.0, "steps": 5}},
                "sweep",
            ),
            ({"label": "fig\u0000"}, "label"),
            ({"num_modes": 3.9}, "num_modes"),
            ({"shots_per_point": True}, "shots_per_point"),
            ({"photons_per_mode": False}, "photons_per_mode"),
            ({"visibility": True}, "visibility"),
            (
                {"sweep": {"parameter": 1, "start": 0.0, "stop": 1.0, "steps": 5.5}},
                "sweep.steps",
            ),
            ({"theta_fixed": False}, "theta_fixed"),
            ({"theta_fixed": []}, "theta_fixed"),
            ({"theta_fixed": 0}, "theta_fixed"),
            ({"theta_fixed": None}, "theta_fixed"),
            ({"reference_fi": 0}, "reference_fi"),
            ({"reference_fi": False}, "reference_fi"),
            # a sweep builds 2**N outcome tables, so it keeps the 12-photon cap
            ({"num_modes": 1, "photons_per_mode": 13, "theta_fixed": {}}, "13 photons"),
            ({"out_dir": None}, "out_dir"),
            ({"out_dir": 7}, "out_dir"),
            ({"out_dir": ""}, "out_dir"),
            # an optional key given as null is an error, not an absent key
            ({"sweep": None}, "sweep"),
            ({"theta_true": None}, "theta_true"),
            ({"assignments": None}, "assignments"),
            ({"grouping": None}, "grouping"),
            ({"passes_per_mode": None}, "passes_per_mode"),
            ({"subset": None}, "subset"),
            # and so is a falsy sweep on an estimation run
            ({"sweep": [], "theta_true": [0.1], "groups": 4, "shots_per_group": 4}, "sweep"),
            ({"sweep": 0, "theta_true": [0.1], "groups": 4, "shots_per_group": 4}, "sweep"),
            ({"sweep": False, "theta_true": [0.1], "groups": 4, "shots_per_group": 4}, "sweep"),
            # a list key is a JSON list, never a string or object read item by item
            ({"strategy": "mepc", "passes_per_mode": "123"}, "passes_per_mode"),
            (
                {"strategy": "mepc", "passes_per_mode": {"1": 0, "2": 0, "3": 0}},
                "passes_per_mode",
            ),
            ({"subset": "123456"}, "subset"),
            (
                {
                    "strategy": "generic",
                    "assignments": [[1, 1], [1, 1]],
                    "grouping": "12",
                    "subset": [1],
                },
                "grouping",
            ),
            ({"strategy": "generic", "assignments": [[1, 1]] * 2, "grouping": ["12"]}, "grouping"),
            (
                {"strategy": "generic", "assignments": ["11", "11"], "grouping": [[1, 2]]},
                "assignments",
            ),
            (
                {"sweep": DROP, "theta_true": "0.1", "groups": 4, "shots_per_group": 4},
                "theta_true",
            ),
            # shots_per_point is a sweep key: an estimation run samples shots_per_group
            (
                {"sweep": DROP, "theta_true": [0.1], "groups": 4, "shots_per_group": 4},
                "shots_per_point",
            ),
            # a sweep without shots has no sampled fringe to fit
            ({"shots_per_point": 0}, "shots_per_point"),
            # an estimand is sampled and reported at its value, so it must be finite
            ({**AS_ESTIMATION, "theta_true": [float("nan")]}, "theta_true"),
            ({**AS_ESTIMATION, "theta_true": [float("inf")]}, "theta_true"),
            ({**AS_ESTIMATION, "theta_true": [0.1, float("-inf")]}, "theta_true"),
            # and so is a group phase
            ({"theta_fixed": {"2": float("nan")}}, "theta_fixed"),
            ({"theta_fixed": {"2": float("-inf")}}, "theta_fixed"),
        ],
    )
    def test_malformed_config_exit_code(self, tmp_path, capsys, override, key):
        bad_path = tmp_path / "bad.json"
        raw = {k: v for k, v in {**MEPE_SWEEP, **override}.items() if v is not DROP}
        bad_path.write_text(json.dumps(raw))
        # in-process, so an escaping exception fails the test outright
        assert cli.main(["simulate", str(bad_path), "--out-dir", str(tmp_path)]) == 2
        stderr = capsys.readouterr().err
        assert key in stderr and "Traceback" not in stderr

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_reference_fi_exit_code(self, tmp_path, capsys, value):
        # a reference line is drawn at its value, so it must be a finite one
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({**MEPE_SWEEP, "reference_fi": {"snl": value}}))
        out_dir = tmp_path / "out"
        argv = ["simulate", str(config_path), "--out-dir", str(out_dir), "--svg"]
        assert cli.main(argv) == 2
        stderr = capsys.readouterr().err
        assert "reference_fi" in stderr and "Traceback" not in stderr
        # and no plot is drawn, with a NaN coordinate or any other
        assert not list(out_dir.glob("*.svg"))

    @pytest.mark.parametrize("command", ["simulate", "fisher"])
    @pytest.mark.parametrize(
        "assignments, grouping, key",
        [
            ([], [], "need at least one photon"),
            ([[1, 1]], [[1], []], "grouping must partition"),
            ([[1, 1.7]], [[1]], "must be an integer"),
        ],
        ids=["no photons", "empty group", "fractional passes"],
    )
    def test_layout_without_photons_exit_code(
        self, tmp_path, capsys, command, assignments, grouping, key
    ):
        # the library refuses the layout with the config's message
        with pytest.raises(InvalidLayoutError, match=key):
            ModeLayout(2, assignments, grouping)
        config_path = tmp_path / "cfg.json"
        raw = {**MEPE_SWEEP, "strategy": "generic", "num_modes": 2, "theta_fixed": {}}
        raw.update(assignments=assignments, grouping=grouping)
        del raw["photons_per_mode"]
        config_path.write_text(json.dumps(raw))
        # in-process, so an escaping exception fails the test outright
        assert cli.main([command, str(config_path), "--out-dir", str(tmp_path)]) == 2
        stderr = capsys.readouterr().err
        assert key in stderr and "Traceback" not in stderr

    @pytest.mark.parametrize("command", ["simulate", "fisher"])
    @pytest.mark.parametrize("label", ["../escaped", "..", ".", "a/b", "a\\b", "", 7])
    def test_label_cannot_leave_out_dir(self, tmp_path, capsys, command, label):
        # the label is the output file stem, so it must name a file in --out-dir
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({**MEPE_SWEEP, "label": label}))
        out_dir = tmp_path / "out"
        assert cli.main([command, str(config_path), "--out-dir", str(out_dir)]) == 2
        stderr = capsys.readouterr().err
        assert "label" in stderr and "Traceback" not in stderr
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [config_path]

    @pytest.mark.parametrize("command", ["simulate", "fisher"])
    @pytest.mark.parametrize(
        ("override", "key"),
        [
            ({"theta_fixed": {"2": 1e308}}, "group phase must be finite"),
            (
                {"sweep": {"parameter": 1, "start": -1e308, "stop": 1e308, "steps": 61}},
                "sweep: range (stop - start) overflows",
            ),
        ],
        ids=["theta_fixed", "sweep range"],
    )
    def test_overflowing_phase_exit_code(self, tmp_path, capsys, command, override, key):
        # finite phases whose group sum or sweep range overflows; RuntimeWarning
        # is an error in this suite, so no numpy warning may reach stderr
        runs = json.loads(_preset_text("fig4"))["runs"]
        raw = {**next(r for r in runs if r["label"] == "fig4_mepe"), **override}
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(raw))
        assert cli.main([command, str(config_path), "--out-dir", str(tmp_path)]) == 2
        stderr = capsys.readouterr().err
        assert key in stderr and "Traceback" not in stderr

    @settings(
        max_examples=40,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_mutated_preset_exit_codes(self, tmp_path, data):
        # drop one key of a bundled preset run, or one entry of an object or
        # list key, or give it a value of the wrong kind or a huge one; the
        # CLI must answer with a documented exit code.  The key path is
        # drawn first and the run after it, so that a key that one run
        # carries, such as theta_fixed.2, is drawn as often as one all do.
        runs = [run for figure in FIGURES for run in json.loads(_preset_text(figure))["runs"]]
        paths = {}
        for index, run in enumerate(runs):
            for key, value in run.items():
                if isinstance(value, (dict, list)):
                    entries = value if isinstance(value, dict) else range(len(value))
                else:
                    entries = ()
                for path in [(key,), *((key, entry) for entry in entries)]:
                    paths.setdefault(path, []).append(index)
        *parents, key = path = data.draw(st.sampled_from(list(paths)))
        run = runs[data.draw(st.sampled_from(paths[path]))]
        raw = copy.deepcopy(run)
        target = raw
        for parent in parents:
            target = target[parent]
        mutation = data.draw(st.sampled_from(["drop", "huge", "other"]))
        if mutation == "drop":
            del target[key]
        elif mutation == "huge":
            # finite, but beyond any count, and a phase sum may overflow
            target[key] = data.draw(st.sampled_from([1e308, -1e308]))
        else:
            target[key] = data.draw(
                st.one_of(
                    st.text(max_size=4),
                    st.floats(-20.0, 20.0),
                    st.booleans(),
                    st.integers(-50, -1),
                    st.just(float("nan")),
                    st.lists(st.integers(-2, 3), max_size=3),
                    st.lists(st.integers(1, 10**4), min_size=1, max_size=6),
                )
            )
        if "theta_true" in run:
            command = "estimate"
        else:
            command = data.draw(st.sampled_from(["simulate", "fisher"]))
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        config_path = work / "mutated.json"
        config_path.write_text(json.dumps(raw))
        code = cli.main([command, str(config_path), "--out-dir", str(work / "out")])
        assert code in (0, 2, 3, 4)

    @settings(
        max_examples=10,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(passes=st.lists(st.integers(1, 10**4), min_size=6, max_size=6))
    def test_mutated_pass_counts_exit_codes(self, tmp_path, capsys, passes):
        # the generic mutation above rarely gives fig5's sweep a list of six
        # pass counts; large ones make its FI bands' entries ~1e8
        runs = json.loads(_preset_text("fig5"))["runs"]
        raw = {**next(r for r in runs if "sweep" in r), "passes_per_mode": passes}
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        config_path = work / "mutated.json"
        config_path.write_text(json.dumps(raw))
        code = cli.main(["simulate", str(config_path), "--out-dir", str(work / "out")])
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in capsys.readouterr().err

    def test_large_pass_counts_exit_zero(self, tmp_path, capsys):
        # F's entries reach ~1e8 here, so its rounding alone exceeds the
        # 1e-10 symmetry tolerance kept for matrices given from outside
        config_path = tmp_path / "cfg.json"
        config = {
            "strategy": "mepc",
            "num_modes": 10,
            "passes_per_mode": list(range(991, 1001)),
            "visibility": 0.9,
            "sweep": {"parameter": 1, "start": 0.1, "stop": 1.0, "steps": 5},
            "seed": 1,
        }
        config_path.write_text(json.dumps(config))
        assert cli.main(["fisher", str(config_path), "--out-dir", str(tmp_path)]) == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_io_error_exit_code(self, tmp_path):
        result = self.run_cli("simulate", str(tmp_path / "missing.json"))
        assert result.returncode == 4

    def test_unknown_figure_exit_code(self):
        result = self.run_cli("reproduce", "fig9")
        assert result.returncode == 2
