"""ghzsense benchmark: four closed-loop workloads, one client.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

One process runs the tasks of one workload back to back (a closed loop
with one client) with the BLAS pool pinned to one thread.  With
``--trace 0`` it prints the end-to-end metrics, with wall times rescaled
to a reference host speed (see hostspeed.py); with ``--trace 1`` it
runs every task of each schedule cycle once untraced and once traced and
prints the per-layer metrics.  Every output is checked; the last stdout
line is one JSON object and the exit code is 0 only if nothing failed.
See NOTES.md for the workloads, metrics and their interactions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
#: BLAS pool size: at most nproc.  One thread: the client is single-threaded
#: and the library's matrices (at most 200 x 200) gain only jitter from more.
BLAS_THREADS = 1
#: Fresh interpreters started per run for set-up samples, besides this one.
SETUP_CHILDREN = 2
#: Task seconds between host-speed probes in the timed loop.
PROBE_EVERY_S = 0.5
WORKLOAD_NAMES = ("sweep", "estimate", "fisher", "postselect")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def load(workload: str, seed: int, work: Path):
    """Import ghzsense from this checkout, build the schedule, run the warm-up.

    Returns (set-up seconds, modules, schedule, warm-up output).  The clock
    starts before ``import ghzsense`` and stops after the warm-up task.
    """
    if not (SRC / "ghzsense" / "__init__.py").is_file():
        sys.exit(f"bench: no ghzsense sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import ghzsense

    if Path(ghzsense.__file__).resolve().parent != (SRC / "ghzsense").resolve():
        sys.exit(f"bench: imported ghzsense from {ghzsense.__file__}, not this checkout")
    import numpy as np
    import workloads

    wl = workloads.WORKLOADS[workload]
    schedule = wl.build(np.random.default_rng(seed))
    warm = wl.run(schedule[0], work / "warmup")
    return perf_counter() - start, wl, schedule, warm


def setup_child(args) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-sample"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up sample failed: {done.stderr.strip()[-400:]}")
    return float(done.stdout.strip().splitlines()[-1])


def machine(np, blas_threads: str) -> dict:
    import scipy

    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines() if line.startswith("model name")),
               platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        caches[f"L{level}{kind[0].lower()}"] = (index / "size").read_text().strip()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {"nproc": nproc(), "blas": blas, "blas_threads": int(blas_threads),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "cpu": cpu, "caches": caches}


class Checker:
    """Checks each distinct (task, output digest) once; counts failed tasks."""

    def __init__(self, wl):
        self.wl = wl
        self.seen: dict = {}
        self.failures: list[str] = []
        self.failed = 0
        self.totals: dict = {}

    def __call__(self, key, task, output, error=None, count=True) -> bytes | None:
        problems = [error] if error else []
        digest = None
        if not problems:
            digest = self.wl.digest(output)
            if (key, digest) not in self.seen:
                self.seen[key, digest] = self.wl.check(task, output)
            problems = self.seen[key, digest]
            for name, value in (self.wl.counts(task, output) if count else {}).items():
                self.totals[name] = self.totals.get(name, 0) + value
        if problems:
            self.failed += 1
            self.failures.extend(problems)
        return digest


def run_task(wl, task, out_dir):
    """(seconds, output, error text); only documented skips stay inside run."""
    start = perf_counter()
    try:
        output, error = wl.run(task, out_dir), None
    except Exception as exc:  # any library error is a failed task, not a crash
        output, error = None, f"{type(exc).__name__}: {exc}"
    return perf_counter() - start, output, error


def timed_loop(args, wl, cycle, check, work, speed):
    """Untraced tasks back to back until --seconds of task time is spent.

    A host-speed probe runs between tasks every PROBE_EVERY_S of task
    time.  Returns (start, wall seconds) of each task grouped by cycle;
    the last group may be partial.
    """
    cycles = []
    spent = since_probe = 0.0
    i = 0
    speed.probe()
    while spent < args.seconds:
        index = i % len(cycle)
        if index == 0:
            cycles.append([])
        start = perf_counter()
        seconds, output, error = run_task(wl, cycle[index], work / f"{i:05d}")
        cycles[-1].append((start, seconds))
        spent += seconds
        since_probe += seconds
        check(index, cycle[index], output, error)
        if since_probe >= PROBE_EVERY_S:
            speed.probe()
            since_probe = 0.0
        i += 1
    speed.probe()
    return cycles


def timing_metrics(cycles, cycle) -> dict:
    """Medians over complete cycles of per-cycle rate, p50 and p90.

    Every complete cycle runs the same tasks, so per-cycle figures are
    comparable, and their median is robust to slow spells of a shared
    machine that last a few seconds.
    """
    whole = [times for times in cycles if len(times) == len(cycle)] or cycles[:1]
    items = sum(task.items for task in cycle)
    return {
        "items_per_s": statistics.median(items / sum(times) for times in whole),
        "task_s_p50": statistics.median(statistics.median(times) for times in whole),
        "task_s_p90": statistics.median(statistics.quantiles(times, n=10)[-1] for times in whole),
    }


def traced_loop(args, wl, cycle, check, work):
    """Whole cycles; each task untraced and traced in alternating order."""
    import spans

    tracer = spans.Tracer()
    spent = {False: 0.0, True: 0.0}
    reference: dict = {}
    predicted = [wl.predict(task) for task in cycle]
    cycles = 0
    while cycles == 0 or sum(spent.values()) < args.seconds:
        for index, task in enumerate(cycle):
            tag = f"{cycles}:{index}"
            digests = {}
            for traced in ((False, True) if (index + cycles) % 2 == 0 else (True, False)):
                if traced:
                    tracer.task = tag
                    tracer.install()
                try:
                    seconds, output, error = run_task(wl, task, work / tag.replace(":", "-") / str(traced))
                finally:
                    tracer.uninstall()
                spent[traced] += seconds
                digests[traced] = check(index, task, output, error, count=not traced)
            reference.setdefault(index, digests[False])
            if not (digests[False] == digests[True] == reference[index]):
                check.failed += 1
                check.failures.append(f"task {tag}: output differs between untraced, traced "
                                      "or earlier runs")
        cycles += 1
    calls = tracer.calls_by_task()
    for tag in (f"{c}:{i}" for c in range(cycles) for i in range(len(cycle))):
        counted = calls.get(tag, {})
        want = {k: v for k, v in predicted[int(tag.split(":")[1])].items() if v}
        if dict(counted) != want:
            check.failed += 1
            diff = {k: (counted.get(k, 0), want.get(k, 0)) for k in set(counted) | set(want)
                    if counted.get(k, 0) != want.get(k, 0)}
            check.failures.append(f"task {tag}: traced calls differ from prediction {diff}")
    metrics = tracer.summary(cycles)
    metrics["trace_overhead_frac"] = (spent[True] / spent[False] - 1.0, "ratio", "lower")
    tracer.write(OUT / f"trace-{args.workload}.jsonl")
    return cycles, metrics, tracer.bindings()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-sample", action="store_true",
                        help="print one set-up time and exit (used by the benchmark itself)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    blas_threads = str(min(BLAS_THREADS, nproc()))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = blas_threads
    work = OUT / f"{args.workload}-{os.getpid()}"
    try:
        setup_s, wl, schedule, warm = load(args.workload, args.seed, work)
        if args.setup_sample:
            print(repr(setup_s))
            return 0
        import numpy as np

        check = Checker(wl)
        check("warmup", schedule[0], warm)
        cycle = schedule[1:]
        extra = {}
        if args.trace:
            cycles, per_layer, bindings = traced_loop(args, wl, cycle, check, work)
            attempted = 1 + 2 * cycles * len(cycle)  # each task untraced and traced
            metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in per_layer.items()}
            print(f"traced {cycles} cycle(s) of {len(cycle)} tasks; {len(bindings)} binding sites:")
            print("  " + ", ".join(bindings))
            for name, (value, unit, _) in per_layer.items():
                if value:
                    print(f"{name:<52} {value:.6g} {unit}")
            print("per cycle; the rest are 0; measurement.table_bytes and "
                  "estimation.fisher_matrix.group_terms are computed, not measured")
        else:
            import hostspeed

            samples = [setup_s] + [setup_child(args) for _ in range(SETUP_CHILDREN)]
            speed = hostspeed.HostSpeed()
            cycles = timed_loop(args, wl, cycle, check, work, speed)
            wall = [[seconds for _, seconds in times] for times in cycles]
            scaled = [[seconds * speed.scale(start + seconds / 2) for start, seconds in times]
                      for times in cycles]
            tasks = sum(len(times) for times in cycles)
            complete = sum(len(times) == len(cycle) for times in cycles)
            attempted = 1 + tasks
            values = {"setup_s": statistics.median(samples), **timing_metrics(scaled, cycle),
                      "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
            raw = timing_metrics(wall, cycle)
            units = {"setup_s": "s", "items_per_s": "1/s", "task_s_p50": "s", "task_s_p90": "s",
                     "peak_rss_mb": "MB"}
            metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
            print(f"{'setup_s':<12} {values['setup_s']:.4f} s   (wall; median of {len(samples)} "
                  "fresh interpreters)")
            print(f"task times at reference host speed, wall figures in brackets; host scale "
                  f"{speed.median_scale():.3f} over {len(speed.seconds)} probes")
            for name in ("items_per_s", "task_s_p50", "task_s_p90"):
                print(f"{name:<12} {values[name]:.5g} {units[name]:<3} ({raw[name]:.5g}; median "
                      f"over {complete} complete cycles of {len(cycle)} tasks; {tasks} tasks timed)")
            print(f"{'peak_rss_mb':<12} {values['peak_rss_mb']:.1f} MB")
            extra = {"host_scale": speed.median_scale(), "probe_reference_s": hostspeed.REFERENCE_S,
                     "probes": len(speed.seconds), "wall": raw}
        print(f"{'error_frac':<12} {check.failed / attempted:.4g}     "
              f"({check.failed} of {attempted} tasks failed)")
        for name, value in sorted(check.totals.items()):
            print(f"{name:<12} {value}")
        for failure in check.failures[:20]:
            print(f"FAIL {failure}")
        print(json.dumps({"meta": {"workload": args.workload, "seed": args.seed,
                                   "seconds": args.seconds, "trace": args.trace,
                                   **machine(np, blas_threads), **extra}}))
        print(json.dumps({"correct": check.failed == 0, "attempted": attempted,
                          "failed": check.failed, "metrics": metrics}))
        return 0 if check.failed == 0 else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
