"""Seeded workloads of the ghzsense benchmark: inputs, tasks, output checks.

A workload turns a seed into a schedule: a list of tasks whose first
entry is the warm-up task (timed only as part of set-up) and whose rest
is one *cycle* that the timed loop repeats.  Each task is run by calling
the library's public functions through their modules at call time, so
the tracer in ``spans.py`` sees every call.  The checks recompute the
expected physics here, from the generated inputs, without the library's
analytic engine.

A task's ``items`` count its units of work; ``digest(output)`` gives the
bytes that must repeat between untraced and traced runs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ghzsense import (
    acquisition,
    config,
    estimation,
    evolution,
    harness,
    measurement,
    probes,
    states,
)
from ghzsense.errors import SingularMatrixError, SingularPointError

ROOT = Path(__file__).resolve().parents[1]
PRESETS = ROOT / "src" / "ghzsense" / "presets"

SWEEP_STEPS = 61
SWEEP_SHOTS = 7000
FISHER_POINTS = 25
PAIR_EFFICIENCIES = 4
#: Group counts of the generated estimation runs; each runs at 1 and 2 points.
GENERATED_ESTIMATES = 23
#: Tail probability of the std/CRB band of generated estimation rows.
BAND_TAIL = 1e-9


# ---------------------------------------------------------------- layouts
# Independent replica of the photon numbering of probes.standard_layout,
# used by the checks to compute group phases without the library.


def standard_groups(strategy: str, num_modes: int, photons_per_mode=None, passes=None):
    """(assignments, grouping) with the documented mode-major numbering."""
    m = num_modes
    if strategy in ("mepc", "mspc"):
        assignments = [(k + 1, int(passes[k])) for k in range(m)]
        if strategy == "mepc":
            return assignments, [tuple(range(1, m + 1))]
        return assignments, [(p,) for p in range(1, m + 1)]
    q = photons_per_mode
    n = m * q
    assignments = [(k + 1, 1) for k in range(m) for _ in range(q)]
    if strategy == "mepe":
        grouping = [tuple(range(1, n + 1))]
    elif strategy == "meps":
        grouping = [tuple(k * q + r + 1 for k in range(m)) for r in range(q)]
    elif strategy in ("mspe", "individual"):
        grouping = [tuple(range(k * q + 1, (k + 1) * q + 1)) for k in range(m)]
    elif strategy == "msps":
        grouping = [(p,) for p in range(1, n + 1)]
    else:
        raise ValueError(f"no standard layout for {strategy}")
    return assignments, grouping


def group_members(assignments, grouping):
    return [[assignments[p - 1] for p in group] for group in grouping]


def group_phase(members, theta) -> float:
    """sum over the group's photons of passes * theta[mode], photon order."""
    return sum(j * theta[mode - 1] for mode, j in members)


def fringe_fisher(v: float, phase: float) -> float:
    """f(V, phi) = V^2 sin^2 / (1 - V^2 cos^2), cancellation-free form."""
    s = v * math.sin(phase)
    return s * s / ((1.0 - v * v) + s * s)


def is_singular(v: float, phase: float) -> bool:
    """The documented skip: a group parity probability below 1e-12."""
    return 0.5 * (1.0 - abs(v * math.cos(phase))) < 1e-12


def _divisors(n: int, lo: int, hi: int) -> list[int]:
    return [d for d in range(lo, min(n, hi) + 1) if n % d == 0]


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


@dataclass
class Task:
    kind: str
    inputs: dict
    items: int


@dataclass(frozen=True)
class Workload:
    """A named traffic mix: schedule, task runner, checker, call-count oracle."""

    name: str
    build: Callable  # (rng) -> list[Task]; entry 0 is the warm-up task
    run: Callable  # (task, out_dir) -> output
    digest: Callable  # (output) -> bytes
    check: Callable  # (task, output) -> list[str] of failures
    predict: Callable  # (task) -> {traced name: expected calls}
    counts: Callable  # (task, output) -> {counter: value}, for the table


def _sha(*parts: bytes) -> bytes:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.digest()


# ----------------------------------------------------------------- sweep


SWEEP_STRATEGIES = ("individual", "mepe", "meps", "mspe", "mepc")


def _sweep_layout(rng, strategy: str, n: int):
    """Standard layout with n photons: the most modes (<= 6) that divide n."""
    if strategy == "mepc":
        passes = [int(j) for j in rng.integers(1, 4, size=n)]
        return {"num_modes": n, "passes_per_mode": passes}, (n, None, passes)
    m = max(_divisors(n, 2 if strategy == "meps" else 1, 6) or [n])
    return {"num_modes": m, "photons_per_mode": n // m}, (m, n // m, None)


def _gen_sweep(rng, index: int, strategy: str, n: int) -> Task:
    shape, (m, q, passes) = _sweep_layout(rng, strategy, n)
    assignments, grouping = standard_groups(strategy, m, q, passes)
    members = group_members(assignments, grouping)
    param = int(rng.integers(1, m + 1))
    if strategy in ("mspe", "individual"):
        subset_index = param - 1
    else:
        subset_index = int(rng.integers(0, len(grouping)))
    pure = rng.random() < 0.25
    visibility = 1.0 if pure else float(rng.uniform(0.6, 0.95))
    span = 2 * math.pi if strategy in ("meps", "mepc") else math.pi
    for _ in range(1000):
        start = float(rng.uniform(0.0, 0.5))
        fixed = {k: float(rng.uniform(0.0, 2 * math.pi)) for k in range(1, m + 1) if k != param}
        grid = np.linspace(start, start + span, SWEEP_STEPS)
        thetas = [_theta(m, fixed, param, x) for x in grid]
        # A pure probe's fitted visibility can clip to 1 - 1e-12, where a
        # group phase at a fringe node is a documented SingularPointError.
        # Keep every phase away from the nodes so no task is skipped.
        if not pure or min(
            abs(math.sin(group_phase(g, th))) for g in members for th in thetas
        ) > 1e-3:
            break
    else:  # pragma: no cover - a start is found within a few tries
        raise RuntimeError("no node-free sweep grid found")
    raw = {
        "label": f"gen{index:02d}_{strategy}{n}",
        "strategy": strategy,
        **shape,
        "visibility": visibility,
        "sweep": {"parameter": param, "start": start, "stop": start + span, "steps": SWEEP_STEPS},
        "shots_per_point": SWEEP_SHOTS,
        "seed": int(rng.integers(0, 2**31)),
    }
    if fixed:
        raw["theta_fixed"] = {str(k): v for k, v in fixed.items()}
    if len(grouping) > 1:
        raw["subset"] = list(grouping[subset_index])
    return Task(
        "generated",
        {"config": raw, "members": members, "subset_index": subset_index, "thetas": thetas},
        SWEEP_STEPS,
    )


def _theta(m: int, fixed: dict, param: int, value: float) -> np.ndarray:
    theta = np.zeros(m)
    for mode, v in fixed.items():
        theta[mode - 1] = v
    theta[param - 1] = value
    return theta


def _preset_sweeps() -> list[Task]:
    goldens = _read_json(PRESETS / "goldens.json")["presets"]
    tasks = []
    for figure in ("fig3", "fig4", "ext1", "fig5"):
        golden = goldens[figure]
        for raw in _read_json(PRESETS / f"{figure}.json")["runs"]:
            if "sweep" not in raw:
                continue
            name = f"{raw['label']}.csv"
            if golden["class"] == "exact":
                check = {"sha256": golden["files"][name]}
            else:
                check = next(c for c in golden["checks"] if c["file"] == name)
            tasks.append(Task("preset", {"config": raw, "golden": check}, raw["sweep"]["steps"]))
    return tasks


def build_sweep(rng) -> list[Task]:
    # Shapes are fixed (every N in 2..12 twice, strategies in rotation) so
    # that seeds change values, not the amount of work in a cycle.
    warmup = _gen_sweep(rng, 0, "mepe", 6)
    shapes = [(SWEEP_STRATEGIES[(n + 2 * r) % 5], n) for r in range(2) for n in range(2, 13)]
    generated = [_gen_sweep(rng, i + 1, s, n) for i, (s, n) in enumerate(shapes)]
    cycle = _preset_sweeps() + generated
    order = rng.permutation(len(cycle))
    return [warmup] + [cycle[i] for i in order]


def run_sweep(task: Task, out_dir: Path):
    cfg = config.ScenarioConfig.from_dict(task.inputs["config"])
    report = harness.run_sweep(cfg)
    paths = harness.write_report(report, out_dir)
    return report, paths


def digest_sweep(output) -> bytes:
    report, paths = output
    return _sha(*(Path(p).read_bytes() for p in paths), report.to_json().encode())


def check_sweep(task: Task, output) -> list[str]:
    report, paths = output
    label = task.inputs["config"]["label"]
    if task.kind == "preset":
        golden = task.inputs["golden"]
        if "sha256" in golden:
            actual = hashlib.sha256(Path(paths[0]).read_bytes()).hexdigest()
            return [] if actual == golden["sha256"] else [f"{label}: CSV digest differs from goldens.json"]
        rows = np.loadtxt(paths[0], delimiter=",", skiprows=1)  # as goldens.py reads it
        fit = estimation.fit_fringe(rows[:, 0], rows[:, 3], rows[:, 4], float(golden["multiplier"]))
        v_bar = math.sqrt((fit.v_plus**2 + fit.v_minus**2) / 2)
        if abs(v_bar - golden["target"]) > golden["tol"]:
            return [f"{label}: fitted visibility {v_bar:.4f} outside {golden['target']} +- {golden['tol']}"]
        return []
    errors = []
    raw = task.inputs["config"]
    members = task.inputs["members"][task.inputs["subset_index"]]
    v = raw["visibility"]
    exact = np.asarray(report.rows)[:, 1:3]
    expected = np.array(
        [[(1 + s * v * math.cos(group_phase(members, th))) / 2 for s in (1, -1)]
         for th in task.inputs["thetas"]]
    )
    worst = float(np.max(np.abs(exact - expected)))
    if worst > 1e-12:
        errors.append(f"{label}: exact fringe differs from (1 +- V cos phi)/2 by {worst:.3g}")
    if v == 1.0:
        layout = config.ScenarioConfig.from_dict(raw).build_layout()
        dense = states.to_dense(probes.make_probe(raw["strategy"], layout, 1.0))
        n = layout.num_photons
        mask = sum(1 << (n - p) for p in raw.get("subset", range(1, n + 1)))
        even = np.array([bin(i & mask).count("1") % 2 == 0 for i in range(2**n)])
        worst = 0.0
        for th, row in zip(task.inputs["thetas"], exact):
            evolved = evolution.apply_phases_dense(dense, layout, th)
            p = measurement.dense_outcome_distribution(evolved).probabilities
            p_plus = float(p[even].sum())
            worst = max(worst, abs(p_plus - row[0]), abs(1 - p_plus - row[1]))
        if worst > 1e-12:
            errors.append(f"{label}: analytic and dense engines differ by {worst:.3g}")
    return errors


def predict_sweep(task: Task) -> dict:
    s = task.inputs["config"]["sweep"]["steps"]
    return {
        "config.from_dict": 1, "harness.run_sweep": 1, "harness.write_report": 1,
        "probes.make_probe": 1, "states.with_coherence": 3,
        "evolution.apply_phases": 4 * s, "measurement.outcome_distribution": s,
        "measurement.sample_counts": s, "measurement.draw_counts": s,
        "measurement.subset_parity_marginal": s, "measurement.parity_counts": s,
        "estimation.fisher_matrix": 3 * s, "estimation.effective_fi": 3 * s,
        "estimation.fit_fringe": 33, "estimation.infer_multiplier": 1,
    }


# -------------------------------------------------------------- estimate


def _gen_estimate(rng, index: int, strategy: str, groups: int, points: int, shots: int) -> Task:
    if strategy == "mepc":
        m = int(rng.integers(2, 7))
        passes = [int(j) for j in rng.integers(1, 4, size=m)]
        shape = {"num_modes": m, "passes_per_mode": passes}
        multiplier = sum(passes)
    else:
        m, q = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        shape = {"num_modes": m, "photons_per_mode": q}
        multiplier = m * q
    raw = {
        "label": f"gen{index:02d}_{strategy}",
        "strategy": strategy,
        **shape,
        "visibility": float(rng.uniform(0.5, 0.99)),
        "groups": groups,
        "shots_per_group": shots,
        "theta_true": sorted(float(t) for t in rng.uniform(0, 2 * math.pi / multiplier, points)),
        "seed": int(rng.integers(0, 2**31)),
    }
    return Task("generated", {"config": raw, "multiplier": multiplier}, points * groups)


def build_estimate(rng) -> list[Task]:
    fig5 = next(r for r in _read_json(PRESETS / "fig5.json")["runs"] if "theta_true" in r)
    golden = next(
        c for c in _read_json(PRESETS / "goldens.json")["presets"]["fig5"]["checks"]
        if c["file"] == "fig5_estimation.csv"
    )
    preset = Task("preset", {"config": fig5, "golden": golden},
                  fig5["groups"] * len(fig5["theta_true"]))
    warmup = _gen_estimate(rng, 0, "mepe", groups=20, points=1, shots=100)
    # 46 generated runs: each of 23 group counts from 10 to 30 once with one
    # theta point and once with two, mepc and mepe in turn.  Shot counts are
    # log-uniform on 20..500, one from each of 46 strata in shuffled order,
    # so seeds change values and order, not the amount of work in a cycle.
    # A run's cost per estimate also depends on where its theta_true falls
    # on the fringe, so the cycle has enough runs for its median task to
    # average over that.
    strata = rng.permutation(2 * GENERATED_ESTIMATES)
    shots = [int(round(math.exp(math.log(20) + math.log(25) * (k + rng.random()) / len(strata))))
             for k in strata]
    cycle = [preset] + [
        _gen_estimate(rng, i + 1, ("mepc", "mepe")[i // 2 % 2], 10 + round(20 * (i % 23) / 22),
                      1 + i % 2, shots[i])
        for i in range(len(strata))
    ]
    order = rng.permutation(len(cycle))
    return [warmup] + [cycle[i] for i in order]


def run_estimate(task: Task, out_dir: Path):
    cfg = config.ScenarioConfig.from_dict(task.inputs["config"])
    return harness.run_estimation(cfg)


def digest_estimate(report) -> bytes:
    return _sha(report.to_json().encode())


def mle_moments(v: float, c: float, shots: int, theta: float) -> tuple[float, float]:
    """Exact variance and 4th central moment of the parity-record MLE.

    n+ ~ Binomial(shots, p+(theta)).  By MLE invariance the estimate is
    the branch of (+-arccos(clip((2 n+/n - 1)/V)) + 2 pi k)/c nearest
    theta, so its whole distribution is a finite sum.
    """
    k = np.arange(shots + 1)
    p = 0.5 * (1 + v * math.cos(c * theta))
    log_pmf = (
        np.array([math.lgamma(shots + 1) - math.lgamma(i + 1) - math.lgamma(shots - i + 1) for i in k])
        + k * math.log(p) + (shots - k) * math.log1p(-p)
    )
    pmf = np.exp(log_pmf)
    base = np.arccos(np.clip((2 * k / shots - 1) / v, -1.0, 1.0))
    period = 2 * math.pi / c
    best = None
    for sign in (1.0, -1.0):
        t = sign * base / c
        t = t + period * np.round((theta - t) / period)
        best = t if best is None else np.where(np.abs(t - theta) < np.abs(best - theta), t, best)
    mean = float(pmf @ best)
    dev = best - mean
    return float(pmf @ dev**2), float(pmf @ dev**4)


def std_ceiling(v, c, shots, theta, groups) -> float:
    """Upper band edge for the sample std of ``groups`` estimates.

    The sample variance is matched to a scaled chi-square with the same
    mean and variance (its dof follow from the exact 4th moment); the
    edge is that law's 1 - BAND_TAIL quantile.  There is no lower edge:
    at small shot counts the estimate law is bimodal, so a sample whose
    estimates all land in one mode (std near 0) is common.
    """
    from scipy.stats import chi2

    var, m4 = mle_moments(v, c, shots, theta)
    if var == 0.0:
        return 0.0
    var_s2 = max(m4 - var * var * (groups - 3) / (groups - 1), 1e-300) / groups
    dof = 2 * var * var / var_s2
    return math.sqrt(var * chi2.isf(BAND_TAIL, dof) / dof)


def check_estimate(task: Task, report) -> list[str]:
    raw = task.inputs["config"]
    rows = np.asarray(report.rows)
    label = raw["label"]
    if task.kind == "preset":
        rtol = task.inputs["golden"]["rtol"]
        worst = float(np.max(np.abs(rows[:, 2] / rows[:, 4] - 1.0)))
        return [] if worst <= rtol else [f"{label}: |std/crb - 1| = {worst:.3f} > {rtol}"]
    errors = []
    c = task.inputs["multiplier"]
    v, shots, groups = raw["visibility"], raw["shots_per_group"], raw["groups"]
    for theta, mean, std, crb in rows[:, [0, 1, 2, 4]]:
        if not (math.isfinite(mean) and abs(mean - theta) <= math.pi / c):
            errors.append(f"{label}: estimate {mean!r} not within half a period of {theta}")
            continue
        ceiling = std_ceiling(v, c, shots, theta, groups) / crb
        if not std / crb <= ceiling + 1e-12:
            errors.append(f"{label}: std/CRB {std / crb:.4f} above {ceiling:.4f} at theta={theta}")
    return errors


def predict_estimate(task: Task) -> dict:
    raw = task.inputs["config"]
    mles = raw["groups"] * len(raw["theta_true"])
    return {
        "config.from_dict": 1, "harness.run_estimation": 1, "probes.make_probe": 1,
        "estimation.repeat_estimation": len(raw["theta_true"]),
        "estimation.mle_estimate": mles, "measurement.draw_counts": mles,
    }


# ---------------------------------------------------------------- fisher


def _gen_fisher(rng, strategy: str, photons: int, modes: int, pure: bool) -> Task:
    if strategy in ("mepc", "mspc"):
        shape = (photons, None, [int(j) for j in rng.integers(1, 5, size=photons)])
    else:
        shape = (modes, photons // modes, None)
    m = shape[0]
    assignments, grouping = standard_groups(strategy, *shape)
    visibility = 1.0 if pure else float(rng.uniform(0.5, 0.99))
    fixed = rng.uniform(0.0, 2 * math.pi, size=m)
    thetas = []
    for x in np.linspace(0.0, math.pi, FISHER_POINTS):
        theta = fixed.copy()
        theta[0] = x
        thetas.append(theta)
    return Task(
        "generated",
        {"strategy": strategy, "shape": shape, "visibility": visibility, "thetas": thetas,
         "members": group_members(assignments, grouping), "num_photons": len(assignments)},
        FISHER_POINTS,
    )


def build_fisher(rng) -> list[Task]:
    # (photons, modes), geometric from 12 to 200 photons; the coherent
    # strategies put one photon in each mode instead.
    sizes = ((12, 3), (18, 3), (27, 3), (40, 4), (60, 6), (90, 6), (135, 9), (200, 10))
    strategies = ("mepe", "mepc", "msps", "mspc", "meps", "mspe")
    warmup = _gen_fisher(rng, "msps", 24, 4, pure=False)
    # A quarter of the layouts, spread over strategies and sizes, are pure.
    cycle = [_gen_fisher(rng, s, n, m, pure=(i + j) % 4 == 0)
             for i, s in enumerate(strategies) for j, (n, m) in enumerate(sizes)]
    order = rng.permutation(len(cycle))
    return [warmup] + [cycle[i] for i in order]


def _layout(task: Task):
    m, q, passes = task.inputs["shape"]
    strategy = task.inputs["strategy"]
    if passes is not None:
        return probes.standard_layout(strategy, m, passes=tuple(passes))
    return probes.standard_layout(strategy, m, photons_per_mode=q)


def run_fisher(task: Task, out_dir: Path):
    layout = _layout(task)
    probe = probes.make_probe(task.inputs["strategy"], layout, task.inputs["visibility"],
                              max_photons=layout.num_photons)
    alpha = probes.weights(layout)
    fi = np.full(len(task.inputs["thetas"]), np.nan)
    fi_crb = fi.copy()
    for i, theta in enumerate(task.inputs["thetas"]):
        try:
            fisher = estimation.fisher_matrix(probe, layout, theta)
        except SingularPointError:
            continue
        fi[i] = estimation.effective_fi(fisher, alpha)
        try:
            fi_crb[i] = estimation.effective_fi_crb(fisher, alpha)
        except SingularMatrixError:
            pass
    return fi, fi_crb


def digest_fisher(output) -> bytes:
    fi, fi_crb = output
    return _sha(fi.tobytes(), fi_crb.tobytes())


def _fisher_expectation(task: Task):
    """Closed-form effective FI per point; None where a group is singular."""
    v = task.inputs["visibility"]
    members = task.inputs["members"]
    m = len(task.inputs["thetas"][0])
    coeff = np.zeros((len(members), m))
    for g, group in enumerate(members):
        for mode, j in group:
            coeff[g, mode - 1] += j
    alpha = coeff.sum(axis=0) / coeff.sum()
    proj = coeff @ alpha
    norm2 = float(alpha @ alpha) ** 2
    diagonal = all(len({mode for mode, _ in group}) == 1 for group in members)
    out = []
    for theta in task.inputs["thetas"]:
        phases = [group_phase(group, theta) for group in members]
        if any(is_singular(v, ph) for ph in phases):
            out.append(None)
            continue
        f = np.array([fringe_fisher(v, ph) for ph in phases])
        fi = float(np.sum(f * proj * proj)) / norm2
        crb = None
        if diagonal:
            per_mode = (f[:, None] * coeff * coeff).sum(axis=0)
            with np.errstate(divide="ignore"):
                crb = float(1.0 / np.sum(alpha * alpha / per_mode))
        out.append((fi, crb))
    return out


def check_fisher(task: Task, output) -> list[str]:
    fi, fi_crb = output
    strategy = task.inputs["strategy"]
    label = f"{strategy}{task.inputs['num_photons']}"
    limit = estimation.theoretical_limits(strategy, _layout(task))["fi"] * (1 + 1e-12)
    errors = []
    for i, expected in enumerate(_fisher_expectation(task)):
        if expected is None:
            if not (np.isnan(fi[i]) and np.isnan(fi_crb[i])):
                errors.append(f"{label}: point {i} should be skipped as singular")
            continue
        want_fi, want_crb = expected
        if not abs(fi[i] - want_fi) <= 1e-12 * abs(want_fi):
            errors.append(f"{label}: point {i} effective_fi {fi[i]!r} vs closed form {want_fi!r}")
        # The pass-weighted effective_fi of mspc exceeds sum n_k^2 by
        # design (tests/test_estimation.py::test_mspc_convention_triple);
        # its matrix bound does not.
        if strategy != "mspc" and fi[i] > limit:
            errors.append(f"{label}: point {i} effective_fi {fi[i]!r} exceeds the limit")
        if not np.isnan(fi_crb[i]):
            if fi_crb[i] > limit:
                errors.append(f"{label}: point {i} effective_fi_crb {fi_crb[i]!r} exceeds the limit")
            if want_crb is not None and not abs(fi_crb[i] - want_crb) <= 1e-12 * want_crb:
                errors.append(f"{label}: point {i} effective_fi_crb {fi_crb[i]!r} vs {want_crb!r}")
    return errors


def predict_fisher(task: Task) -> dict:
    points = len(task.inputs["thetas"])
    regular = sum(e is not None for e in _fisher_expectation(task))
    return {
        "probes.make_probe": 1, "estimation.fisher_matrix": points,
        "evolution.apply_phases": points, "estimation.effective_fi": regular,
        "estimation.effective_fi_crb": regular,
    }


def counts_fisher(task: Task, output) -> dict:
    fi, fi_crb = output
    return {"singular_points": int(np.isnan(fi).sum()),
            "singular_crb": int((np.isnan(fi_crb) & ~np.isnan(fi)).sum())}


# ------------------------------------------------------------ postselect


def _gen_postselect(rng, strategy: str, sources: int, stratum: float) -> Task:
    """A loss study; ``stratum`` in [0, 1) sets its expected full emissions,
    log-uniformly from 5e3 to 2e4."""
    p = float(rng.uniform(0.2, 0.5))
    full = 5e3 * 4 ** stratum
    efficiencies = [1.0] + sorted((float(e) for e in rng.uniform(0.6, 1.0, PAIR_EFFICIENCIES - 1)),
                                  reverse=True)
    return Task(
        "generated",
        # one mode per pair source, holding its two photons
        {"strategy": strategy, "num_modes": sources, "photons_per_mode": 2,
         "visibility": float(rng.uniform(0.7, 1.0)),
         "theta": [float(t) for t in rng.uniform(0.0, 2 * math.pi, sources)],
         "sources": sources, "pair_probability": p,
         "pulses": int(math.ceil(full / p**sources)), "efficiencies": efficiencies,
         "seeds": [int(s) for s in rng.integers(0, 2**31, PAIR_EFFICIENCIES + 1)]},
        PAIR_EFFICIENCIES + 2,
    )


def build_postselect(rng) -> list[Task]:
    warmup = _gen_postselect(rng, "mepe", 3, rng.random())
    # The run's size sets the cost of the invariance test's bin pooling, so
    # each source count draws one of four strata of full emissions.
    strategies = ("mepe", "meps", "mspe", "msps")
    cycle = [_gen_postselect(rng, strategy, s, (k + rng.random()) / 4)
             for s in range(2, 7) for strategy, k in zip(strategies, rng.permutation(4))]
    order = rng.permutation(len(cycle))
    return [warmup] + [cycle[i] for i in order]


def run_postselect(task: Task, out_dir: Path):
    x = task.inputs
    layout = probes.standard_layout(x["strategy"], x["num_modes"], photons_per_mode=x["photons_per_mode"])
    probe = probes.make_probe(x["strategy"], layout, x["visibility"])
    runs = []
    for eta, seed in zip(x["efficiencies"], x["seeds"]):
        source = acquisition.SourceModel(x["pair_probability"], x["pulses"], x["sources"], eta)
        runs.append(acquisition.simulate_run(source, probe, x["theta"], seed))
    lossless, lossy = (
        acquisition.SourceModel(x["pair_probability"], x["pulses"], x["sources"], eta)
        for eta in (x["efficiencies"][0], x["efficiencies"][-1])
    )
    invariant = acquisition.postselected_distribution_invariance(
        lossless, lossy, probe, x["theta"], seed=x["seeds"][-1]
    )
    return runs, invariant


def digest_postselect(output) -> bytes:
    runs, invariant = output
    parts = []
    for record, stats in runs:
        parts += [record.counts.tobytes(), stats.pattern_counts.tobytes(),
                  f"{stats.full_emissions},{stats.coincidences}".encode()]
    return _sha(*parts, str(invariant).encode())


def check_postselect(task: Task, output) -> list[str]:
    runs, _ = output
    x = task.inputs
    errors = []
    for eta, (record, stats) in zip(x["efficiencies"], runs):
        where = f"{x['strategy']}{2 * x['sources']} eta={eta:.3f}"
        if len(stats.pattern_counts) != 2 ** x["sources"] or stats.pattern_counts.sum() != x["pulses"]:
            errors.append(f"{where}: pattern counts do not sum to the pulses")
        if stats.full_emissions != stats.pattern_counts[-1]:
            errors.append(f"{where}: full emissions are not the all-fired pattern")
        if not 0 <= stats.coincidences <= stats.full_emissions:
            errors.append(f"{where}: coincidences exceed full emissions")
        if record.shots != stats.coincidences or record.counts.sum() != stats.coincidences:
            errors.append(f"{where}: outcome counts do not sum to coincidences")
        if len(record.counts) != 2 ** (2 * x["sources"]):
            errors.append(f"{where}: outcome table has the wrong size")
    return errors


def predict_postselect(task: Task) -> dict:
    runs = PAIR_EFFICIENCIES + 2
    return {
        "probes.make_probe": 1, "acquisition.simulate_run": runs,
        "evolution.apply_phases": runs, "measurement.outcome_distribution": runs,
        "acquisition.counts_consistent": 1, "acquisition.postselected_distribution_invariance": 1,
    }


def counts_postselect(task: Task, output) -> dict:
    return {"invariance_rejections": int(not output[1])}


def _no_counts(task: Task, output) -> dict:
    return {}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", build_sweep, run_sweep, digest_sweep, check_sweep, predict_sweep,
                 _no_counts),
        Workload("estimate", build_estimate, run_estimate, digest_estimate, check_estimate,
                 predict_estimate, _no_counts),
        Workload("fisher", build_fisher, run_fisher, digest_fisher, check_fisher,
                 predict_fisher, counts_fisher),
        Workload("postselect", build_postselect, run_postselect, digest_postselect,
                 check_postselect, predict_postselect, counts_postselect),
    )
}
