"""Config-driven scenario runner: sweeps, Fisher scans, estimation runs,
reproductions.

Every run is deterministic given the config's seed: per-point sampling
seeds derive from one seed sequence, outputs are written with fixed
float formatting, and the report echoes the full config so it can be
re-run bit-identically.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .config import ScenarioConfig
from .errors import (
    ConfigError,
    SingularMatrixError,
    SingularPointError,
    UnknownFigureError,
    UnsupportedLayoutError,
    ValidationError,
)
from .estimation import (
    FringeModel,
    crb,
    db_reduction,
    effective_fi,
    effective_fi_crb,
    fisher_matrix,
    fit_fringe,
    infer_multiplier,
    repeat_estimation,
    theoretical_limits,
)
from .evolution import apply_phases
from .measurement import (
    outcome_distribution,
    parity_counts,
    sample_counts,
    subset_parity_marginal,
)
from .probes import make_probe, weights
from . import svgplot

SWEEP_COLUMNS = (
    "theta_hat",
    "p_plus_exact",
    "p_minus_exact",
    "p_plus_sampled",
    "p_minus_sampled",
    "fi_model",
    "fi_fit_lo90",
    "fi_fit_hi90",
)

FISHER_COLUMNS = ("theta_hat", "effective_fi", "effective_fi_crb")

ESTIMATION_COLUMNS = (
    "theta_true",
    "theta_hat_mean",
    "std_dev",
    "std_dev_error",
    "crb_model",
    "crb_ideal",
    "snl_rmse",
)

FIGURES = ("fig3", "fig4", "fig5", "ext1")

#: Output file-stem suffix per report kind, so that a config's sweep and
#: Fisher-scan reports do not overwrite each other.
_STEM_SUFFIX = {"fisher": "_fisher"}

#: Plots per report kind: (file-stem suffix, y label, series), with one
#: (column, legend label, colour, dash) per series.  The ``reference_fi``
#: lines of the config go on the ``_fi`` plot.
_PLOTS = {
    "sweep": (
        ("_fringe", "outcome probability", (
            ("p_plus_exact", "P+ exact", "#1f77b4", "solid"),
            ("p_minus_exact", "P- exact", "#ff7f0e", "solid"),
            ("p_plus_sampled", "P+ sampled", "#1f77b4", "dot"),
            ("p_minus_sampled", "P- sampled", "#ff7f0e", "dot"),
        )),
        ("_fi", "Fisher information per trial", (
            ("fi_model", "FI (fit)", "#2ca02c", "solid"),
            ("fi_fit_lo90", "FI lo90", "#2ca02c", "dot"),
            ("fi_fit_hi90", "FI hi90", "#2ca02c", "dot"),
        )),
    ),
    "estimation": (
        ("_estimation", "standard deviation", (
            ("std_dev", "observed std dev", "#000000", "solid"),
            ("crb_model", "model bound", "#2ca02c", "dash"),
            ("snl_rmse", "shot-noise", "#9467bd", "dot"),
        )),
    ),
}


def _ref_style(name: str) -> tuple[str, str]:
    """Caption-convention styling: separable refs dotted black, block
    limits red dash-dot, per-mode limits blue dashed."""
    lowered = name.lower()
    if "snl" in lowered:
        return "#000000", "dot"
    if "meps" in lowered or "mspc" in lowered:
        return "#d62728", "dashdot"
    return "#1f77b4", "dash"


@dataclass(frozen=True)
class RunReport:
    """Self-contained result of one scenario run."""

    kind: str
    config: dict
    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]
    fit: dict | None
    metrics: dict

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "config": self.config,
            "columns": list(self.columns),
            "rows": [list(r) for r in self.rows],
            "fit": self.fit,
            "metrics": self.metrics,
            "seed": self.config["seed"],
            "versions": {"ghzsense": __version__, "numpy": np.__version__},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow(format(v, ".12g") for v in row)
        return buf.getvalue()


def _point_seeds(seed: int, count: int) -> list[int]:
    """Per-point integer seeds derived from the scenario seed."""
    state = np.random.SeedSequence(seed).generate_state(count, dtype=np.uint64)
    return [int(s) for s in state]


def _sweep_grid(config: ScenarioConfig, alpha) -> tuple[np.ndarray, np.ndarray]:
    """The (steps x modes) phase grid of a sweep and theta_hat of each row.

    theta_hat is taken row by row, as ``alpha @ theta`` of one phase
    vector, so that it rounds as a single point's estimand does.
    """
    sweep = config.sweep
    thetas = np.zeros((sweep.steps, config.num_modes))
    for mode, fixed in config.theta_fixed.items():
        thetas[:, mode - 1] = fixed
    thetas[:, sweep.parameter - 1] = np.linspace(sweep.start, sweep.stop, sweep.steps)
    return thetas, np.array([float(alpha @ theta) for theta in thetas])


def _resolve_subset(config: ScenarioConfig, probe):
    """The fringe subset must be the photon set of exactly one group."""
    group_sets = list(probe.photon_ids)
    if config.subset is None:
        if len(group_sets) == 1:
            return group_sets[0], 0
        raise ConfigError(
            "subset: required when the probe has several groups; "
            f"choose one of {group_sets}"
        )
    chosen = tuple(sorted(config.subset))
    if chosen not in group_sets:
        raise ConfigError(
            f"subset: {list(chosen)} is not a whole entanglement group "
            f"(groups are {group_sets})"
        )
    return chosen, group_sets.index(chosen)


def _fisher_rows(probe, layout, thetas) -> list:
    """The Fisher matrix at each grid row, or None where an outcome
    probability vanishes, so that the information diverges."""
    fishers = []
    for theta in thetas:
        try:
            fishers.append(fisher_matrix(probe, layout, theta))
        except SingularPointError:
            fishers.append(None)
    return fishers


def _fi_column(fishers, score, alpha) -> np.ndarray:
    """``score(fisher, alpha)`` per grid row; NaN where the row has no
    Fisher matrix or ``score`` finds it singular."""
    column = np.full(len(fishers), np.nan)
    for i, fisher in enumerate(fishers):
        if fisher is not None:
            try:
                column[i] = score(fisher, alpha)
            except SingularMatrixError:
                pass
    return column


def _rows(*columns) -> tuple[tuple[float, ...], ...]:
    """Report rows from columns and (rows x k) blocks of columns."""
    return tuple(map(tuple, np.column_stack(columns).tolist()))


def run_sweep(config: ScenarioConfig) -> RunReport:
    """Sweep one mode phase: exact and sampled fringes, fit, FI curve.

    The probe keeps the :data:`~ghzsense.states.MAX_PHOTONS` cap, since
    every grid point builds a 2**N outcome table.  An FI cell is NaN
    where an outcome probability of the model probe vanishes, as in
    :func:`run_fisher`.
    """
    if config.sweep is None:
        raise ConfigError("sweep: required for run_sweep")
    layout = config.build_layout()
    probe = make_probe(config.strategy, layout, config.visibility)
    alpha = weights(layout)
    subset, group_index = _resolve_subset(config, probe)

    param = config.sweep.parameter
    alpha_p = float(alpha[param - 1])
    if alpha_p == 0.0:
        raise ConfigError(f"sweep.parameter: mode {param} carries zero weight")
    passes = probe.coefficients[group_index, param - 1]
    if passes == 0.0:
        raise ConfigError(
            f"subset: group {list(subset)} is insensitive to swept mode {param}"
        )
    multiplier = float(passes / alpha_p)

    thetas, theta_hat = _sweep_grid(config, alpha)
    seeds = _point_seeds(config.seed, config.sweep.steps)
    exact = np.empty((config.sweep.steps, 2))
    sampled = np.empty((config.sweep.steps, 2))
    for i, theta in enumerate(thetas):
        dist = outcome_distribution(apply_phases(probe, theta))
        exact[i] = subset_parity_marginal(dist, subset)
        counts = parity_counts(
            sample_counts(dist, config.shots_per_point, seeds[i]), subset
        )
        sampled[i] = counts.counts / config.shots_per_point

    fit = fit_fringe(theta_hat, sampled[:, 0], sampled[:, 1], multiplier)
    fitted_multiplier = infer_multiplier(theta_hat, sampled[:, 0], sampled[:, 1])

    v_bar = np.sqrt((fit.v_plus**2 + fit.v_minus**2) / 2.0)
    dv = (
        np.sqrt((fit.v_plus * fit.conf90[0]) ** 2 + (fit.v_minus * fit.conf90[1]) ** 2)
        / (2.0 * v_bar)
        if v_bar > 0
        else 0.0
    )
    ceiling = 1.0 - 1e-12
    v_mid = min(max(v_bar, 0.0), ceiling)
    v_lo = min(max(v_bar - dv, 0.0), ceiling)
    v_hi = min(v_bar + dv, ceiling)

    bands = [_fisher_rows(probe.with_coherence(v), layout, thetas) for v in (v_mid, v_lo, v_hi)]
    fi_bands = np.column_stack([_fi_column(band, effective_fi, alpha) for band in bands])

    metrics: dict = {
        "multiplier": multiplier,
        "fitted_multiplier": fitted_multiplier,
        "visibility_fit": float(v_mid),
        # fmax skips NaN cells without warning (NaN only if every cell is)
        "fi_peak_model": float(np.fmax.reduce(fi_bands[:, 0])),
    }
    try:
        limits = theoretical_limits(config.strategy, layout)
    except UnsupportedLayoutError:
        limits = None
    if limits is not None:
        metrics["theoretical"] = limits
        # NaN when no grid point has positive information to compare
        peak = metrics["fi_peak_model"]
        metrics["db_vs_snl"] = (
            db_reduction(peak, limits["snl_fi"]) if peak > 0.0 else float("nan")
        )

    return RunReport(
        kind="sweep",
        config=config.to_dict(),
        columns=SWEEP_COLUMNS,
        rows=_rows(theta_hat, exact, sampled, fi_bands),
        fit=fit.to_dict(),
        metrics=metrics,
    )


def run_fisher(config: ScenarioConfig) -> RunReport:
    """Exact Fisher-information scan over the sweep grid (no sampling).

    A grid point where an outcome probability vanishes gets a NaN row and
    counts in ``metrics["singular_points"]``; a point whose Fisher matrix
    is singular gets a NaN matrix bound only and counts in
    ``metrics["singular_crb"]``.  The probe may hold any number of
    photons: a Fisher scan builds no 2**N table.
    """
    if config.sweep is None:
        raise ConfigError("sweep: required for run_fisher")
    layout = config.build_layout()
    probe = make_probe(
        config.strategy, layout, config.visibility, max_photons=layout.num_photons
    )
    alpha = weights(layout)
    thetas, theta_hat = _sweep_grid(config, alpha)
    fishers = _fisher_rows(probe, layout, thetas)
    fi = _fi_column(fishers, effective_fi, alpha)
    fi_crb = _fi_column(fishers, effective_fi_crb, alpha)
    return RunReport(
        kind="fisher",
        config=config.to_dict(),
        columns=FISHER_COLUMNS,
        rows=_rows(theta_hat, fi, fi_crb),
        fit=None,
        metrics={
            "singular_points": sum(fisher is None for fisher in fishers),
            "singular_crb": int(np.sum(np.isnan(fi_crb) & ~np.isnan(fi))),
        },
    )


def run_estimation(config: ScenarioConfig) -> RunReport:
    """Grouped MLE at each requested estimand value, with bound curves."""
    if config.theta_true is None:
        raise ConfigError("theta_true: required for run_estimation")
    layout = config.build_layout()
    probe = make_probe(
        config.strategy, layout, config.visibility, max_photons=layout.num_photons
    )
    if len(probe.photon_ids) != 1:
        raise ConfigError(
            "estimation runs need a single-group probe whose parity fringe "
            "depends only on theta_hat"
        )
    visibility = float(probe.coherence[0])
    multiplier = float(layout.total_passes)
    model = FringeModel(visibility, multiplier)
    shots = config.shots_per_group
    seeds = _point_seeds(config.seed, len(config.theta_true))

    stats = []
    for theta_true, seed in zip(config.theta_true, seeds):
        result = repeat_estimation(model, theta_true, config.groups, shots, seed)
        stats.append((result.theta_hat, result.std_dev, result.std_dev_error, result.crb))
    ideal = (crb(multiplier**2, shots), crb(multiplier, shots))

    metrics = {
        "multiplier": multiplier,
        "visibility": visibility,
        "snl_fi": multiplier,
        "heisenberg_fi": multiplier**2,
    }
    return RunReport(
        kind="estimation",
        config=config.to_dict(),
        columns=ESTIMATION_COLUMNS,
        rows=_rows(config.theta_true, stats, [ideal] * len(stats)),
        fit=None,
        metrics=metrics,
    )


def run_scenario(config: ScenarioConfig) -> RunReport:
    return run_sweep(config) if config.kind == "sweep" else run_estimation(config)


def _preset_text(figure_id: str) -> str:
    return resources.files("ghzsense.presets").joinpath(f"{figure_id}.json").read_text()


def load_preset(figure_id: str) -> list[ScenarioConfig]:
    """Bundled scenario configs for one reproduction figure."""
    if figure_id not in FIGURES:
        raise UnknownFigureError(
            f"unknown figure {figure_id!r}; choose one of {list(FIGURES)}"
        )
    raw = json.loads(_preset_text(figure_id))
    return [ScenarioConfig.from_dict(entry) for entry in raw["runs"]]


def read_columns(path) -> dict[str, np.ndarray]:
    """Columns of a report CSV as float arrays, keyed by header name.

    A file that is not UTF-8 CSV, or a cell that is missing or not a
    number, raises ValidationError naming the file, row and column.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"{path}: not a UTF-8 CSV file ({exc})") from None
    columns = {name: [] for name in reader.fieldnames or []}
    for i, row in enumerate(rows, start=1):
        for name, values in columns.items():
            try:
                values.append(float(row[name]))
            except (TypeError, ValueError):
                raise ValidationError(
                    f"{path}: row {i}, column {name!r}: {row[name]!r} is not a number"
                ) from None
    return {name: np.array(values) for name, values in columns.items()}


def _write_svg(report: RunReport, out_dir: Path, label: str) -> list[Path]:
    columns = dict(zip(report.columns, np.asarray(report.rows, dtype=float).T))
    refs = [
        svgplot.RefLine(value, name, *_ref_style(name))
        for name, value in sorted(report.config.get("reference_fi", {}).items())
    ]
    return [
        svgplot.line_plot(
            out_dir / f"{label}{suffix}.svg",
            columns[report.columns[0]],
            [svgplot.Series(columns[c], *style) for c, *style in series],
            ref_lines=refs if suffix == "_fi" else None,
            title=label,
            xlabel="theta_hat",
            ylabel=ylabel,
        )
        for suffix, ylabel, series in _PLOTS[report.kind]
    ]


def write_report(
    report: RunReport,
    out_dir,
    fmt: str = "csv",
    svg: bool = False,
) -> list[Path]:
    """Write a report to ``out_dir``; returns the created paths.

    The file stem is the config's label, plus ``_fisher`` for a Fisher scan.
    """
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format: unknown output format {fmt!r}")
    if svg and report.kind not in _PLOTS:
        raise ConfigError("svg: Fisher-scan reports have no plot")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    label = report.config.get("label", "scenario")
    path = out_dir / f"{label}{_STEM_SUFFIX.get(report.kind, '')}.{fmt}"
    text = report.to_csv() if fmt == "csv" else report.to_json()
    path.write_text(text, encoding="utf-8")
    paths = [path]
    if svg:
        paths.extend(_write_svg(report, out_dir, label))
    return paths


def reproduce(
    figure_id: str,
    out_dir,
    seed: int | None = None,
    fmt: str = "csv",
    svg: bool = False,
) -> tuple[list[RunReport], list[Path]]:
    """Run a bundled figure preset; writes one output file per run."""
    configs = load_preset(figure_id)
    reports = []
    paths = []
    for config in configs:
        if seed is not None:
            config = ScenarioConfig.from_dict({**config.to_dict(), "seed": seed})
        report = run_scenario(config)
        reports.append(report)
        paths.extend(write_report(report, out_dir, fmt=fmt, svg=svg))
    return reports, paths
