import copy
import json
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ghzsense import cli, svgplot
from ghzsense.config import ScenarioConfig, load_config
from ghzsense.errors import ConfigError, UnknownFigureError
from ghzsense.harness import (
    FIGURES,
    _preset_text,
    load_preset,
    reproduce,
    run_estimation,
    run_scenario,
    run_sweep,
    write_report,
)

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

    def test_multi_group_probe_rejected(self):
        bad = {**MEPC_ESTIMATION, "strategy": "mspc"}
        with pytest.raises(ConfigError, match="single-group"):
            run_estimation(ScenarioConfig.from_dict(bad))


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


class TestCli:
    def run_cli(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "ghzsense.cli", *argv],
            capture_output=True,
            text=True,
        )

    def test_import_defers_scipy_stats_and_optimize(self):
        # both cost most of a cold start; only counts_consistent and
        # fit_fringe need them, so they load on first use
        code = (
            "import sys, ghzsense; "
            "print([m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules])"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

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
        ],
    )
    def test_malformed_config_exit_code(self, tmp_path, capsys, override, key):
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps({**MEPE_SWEEP, **override}))
        # in-process, so an escaping exception fails the test outright
        assert cli.main(["simulate", str(bad_path), "--out-dir", str(tmp_path)]) == 2
        stderr = capsys.readouterr().err
        assert key in stderr and "Traceback" not in stderr

    @settings(
        max_examples=40,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_mutated_preset_exit_codes(self, tmp_path, data):
        # drop one key of a bundled preset run, or give it a value of the
        # wrong kind; the CLI must answer with a documented exit code
        figure = data.draw(st.sampled_from(FIGURES))
        runs = json.loads(_preset_text(figure))["runs"]
        raw = copy.deepcopy(data.draw(st.sampled_from(runs)))
        paths = [(k,) for k in sorted(raw)]
        paths += [("sweep", k) for k in sorted(raw.get("sweep", {}))]
        *parents, key = data.draw(st.sampled_from(paths))
        target = raw
        for parent in parents:
            target = target[parent]
        if data.draw(st.booleans()):
            del target[key]
        else:
            target[key] = data.draw(
                st.one_of(
                    st.text(max_size=4),
                    st.floats(-20.0, 20.0),
                    st.booleans(),
                    st.integers(-50, -1),
                    st.just(float("nan")),
                    st.lists(st.integers(-2, 3), max_size=3),
                )
            )
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        config_path = work / "mutated.json"
        config_path.write_text(json.dumps(raw))
        code = cli.main(["simulate", str(config_path), "--out-dir", str(work / "out")])
        assert code in (0, 2, 3, 4)

    def test_io_error_exit_code(self, tmp_path):
        result = self.run_cli("simulate", str(tmp_path / "missing.json"))
        assert result.returncode == 4

    def test_unknown_figure_exit_code(self):
        result = self.run_cli("reproduce", "fig9")
        assert result.returncode == 2
