"""Span tracer that wraps ghzsense's public functions from outside.

Each traced function is rebound on its defining module and on every
loaded ``ghzsense`` module that imported it by name (``harness.fit_fringe``,
``estimation.apply_phases``, the package namespace, ...).  Methods are
rebound on their class.  A span records name, start, end, parent span
and task id; spans stay in memory until ``write``.  Work counters are
computed from call arguments and return values, never from timings, so
they repeat exactly for a given seed.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

#: (metric prefix, module, class or None, attribute)
TARGETS = (
    ("config.from_dict", "config", "ScenarioConfig", "from_dict"),
    ("probes.make_probe", "probes", None, "make_probe"),
    ("states.with_coherence", "states", "ProductState", "with_coherence"),
    ("evolution.apply_phases", "evolution", None, "apply_phases"),
    ("measurement.outcome_distribution", "measurement", None, "outcome_distribution"),
    ("measurement.sample_counts", "measurement", None, "sample_counts"),
    ("measurement.draw_counts", "measurement", None, "draw_counts"),
    ("measurement.subset_parity_marginal", "measurement", None, "subset_parity_marginal"),
    ("measurement.parity_counts", "measurement", None, "parity_counts"),
    ("acquisition.simulate_run", "acquisition", None, "simulate_run"),
    ("acquisition.counts_consistent", "acquisition", None, "counts_consistent"),
    ("acquisition.postselected_distribution_invariance", "acquisition", None,
     "postselected_distribution_invariance"),
    ("estimation.fisher_matrix", "estimation", None, "fisher_matrix"),
    ("estimation.effective_fi", "estimation", None, "effective_fi"),
    ("estimation.effective_fi_crb", "estimation", None, "effective_fi_crb"),
    ("estimation.fit_fringe", "estimation", None, "fit_fringe"),
    ("estimation.infer_multiplier", "estimation", None, "infer_multiplier"),
    ("estimation.mle_estimate", "estimation", None, "mle_estimate"),
    ("estimation.repeat_estimation", "estimation", None, "repeat_estimation"),
    ("harness.run_sweep", "harness", None, "run_sweep"),
    ("harness.run_estimation", "harness", None, "run_estimation"),
    ("harness.write_report", "harness", None, "write_report"),
)

#: Counters reported next to the spans: (name, unit, better).
COUNTERS = (
    ("measurement.table_bytes", "B", "lower"),  # computed: 8 * 2**N per table
    ("measurement.shots", "count", "lower"),
    ("estimation.fisher_matrix.group_terms", "count", "lower"),  # computed
    ("estimation.fisher_matrix.singular", "count", "lower"),
    ("estimation.effective_fi_crb.singular", "count", "lower"),
    ("estimation.fit_fringe.errors", "count", "lower"),
    ("estimation.infer_multiplier.fits_per_call", "count", "lower"),
    ("estimation.mle_estimate.saturated", "count", "lower"),
    ("acquisition.coincidence_frac", "ratio", "higher"),
    ("acquisition.invariance_rejections", "count", "lower"),
    ("harness.write_report.bytes", "B", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _table_bytes(c, args, kwargs, result):
    c["measurement.table_bytes"] += 8 * 2 ** _arg(args, kwargs, 0, "state").total_photons


def _shots(c, args, kwargs, result):
    c["measurement.shots"] += int(_arg(args, kwargs, 1, "shots"))


def _group_terms(c, args, kwargs, result):
    c["estimation.fisher_matrix.group_terms"] += len(_arg(args, kwargs, 0, "probe").groups)


def _saturated(c, args, kwargs, result):
    n_plus, n_minus = (int(x) for x in _arg(args, kwargs, 0, "counts").counts)
    total = n_plus + n_minus
    visibility = _arg(args, kwargs, 1, "model").visibility
    c["estimation.mle_estimate.saturated"] += abs(2 * n_plus / total - 1) > visibility


def _coincidences(c, args, kwargs, result):
    c["acquisition.coincidences"] += result[1].coincidences
    c["acquisition.pulses"] += result[1].pulses


def _rejections(c, args, kwargs, result):
    c["acquisition.invariance_rejections"] += not result


def _report_bytes(c, args, kwargs, result):
    c["harness.write_report.bytes"] += sum(Path(p).stat().st_size for p in result)


#: Argument hooks run before the call, result hooks after it.
ARG_HOOKS = {
    "measurement.outcome_distribution": _table_bytes,
    "measurement.draw_counts": _shots,
    "estimation.fisher_matrix": _group_terms,
    "estimation.mle_estimate": _saturated,
}
RESULT_HOOKS = {
    "acquisition.simulate_run": _coincidences,
    "acquisition.postselected_distribution_invariance": _rejections,
    "harness.write_report": _report_bytes,
}


class Tracer:
    """Rebinds the TARGETS once ghzsense is imported; install/uninstall toggle."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, task, error)
        self.counters: Counter = Counter()
        self.task = None
        self._stack: list[int] = []
        self._sites = []  # (owner, attribute, original, replacement)
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "ghzsense" or k.startswith("ghzsense.")) and m is not None]
        for name, module_name, cls, attr in TARGETS:
            module = sys.modules[f"ghzsense.{module_name}"]
            if cls is not None:
                owner = getattr(module, cls)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    replacement = classmethod(self._wrap(name, raw.__func__))
                else:
                    replacement = self._wrap(name, raw)
                self._sites.append((owner, attr, raw, replacement))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._sites.append((mod, key, original, wrapper))

    def bindings(self) -> list[str]:
        return sorted(f"{getattr(o, '__name__', o)}.{a}" for o, a, _, _ in self._sites)

    def install(self):
        for owner, attr, _, replacement in self._sites:
            setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original, _ in self._sites:
            setattr(owner, attr, original)

    def _wrap(self, name, fn):
        tracer = self
        before = ARG_HOOKS.get(name)
        after = RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(tracer.counters, args, kwargs, None)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.task, error)
            if after is not None:
                after(tracer.counters, args, kwargs, result)
            return result

        return traced

    def calls_by_task(self) -> dict:
        calls: dict = defaultdict(Counter)
        for name, _, _, _, task, _ in self.spans:
            calls[task][name] += 1
        return calls

    def summary(self, cycles: int) -> dict:
        """Per-cycle calls, inclusive and self seconds, and counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        incl: Counter = Counter()
        own: Counter = Counter()
        errors: Counter = Counter()
        fits_in_infer = 0
        for i, (name, start, end, parent, _, error) in enumerate(self.spans):
            calls[name] += 1
            incl[name] += end - start
            own[name] += end - start - child[i]
            if error is not None:
                errors[name, error] += 1
            if name == "estimation.fit_fringe" and parent >= 0 \
                    and self.spans[parent][0] == "estimation.infer_multiplier":
                fits_in_infer += 1
        out = {}
        for name, _, _, _ in TARGETS:
            out[f"{name}.calls"] = (calls[name] / cycles, "count", "lower")
            out[f"{name}.s"] = (incl[name] / cycles, "s", "lower")
            out[f"{name}.self_s"] = (own[name] / cycles, "s", "lower")
        c = self.counters
        derived = {
            "estimation.fisher_matrix.singular": errors["estimation.fisher_matrix", "SingularPointError"],
            "estimation.effective_fi_crb.singular":
                errors["estimation.effective_fi_crb", "SingularMatrixError"],
            "estimation.fit_fringe.errors": sum(v for (n, _), v in errors.items()
                                                if n == "estimation.fit_fringe"),
        }
        for name, unit, better in COUNTERS:
            if name == "estimation.infer_multiplier.fits_per_call":
                n = calls["estimation.infer_multiplier"]
                value = fits_in_infer / n if n else 0.0
            elif name == "acquisition.coincidence_frac":
                value = c["acquisition.coincidences"] / c["acquisition.pulses"] if c["acquisition.pulses"] else 0.0
            elif name == "trace_overhead_frac":
                continue
            else:
                value = derived.get(name, c[name]) / cycles
            out[name] = (value, unit, better)
        return out

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, task, error) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "task": task, "error": error}) + "\n")
