#!/usr/bin/env python3
"""rydock benchmark: three pipeline workloads, timed end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload dock6_vqaa --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Each run builds its inputs from --seed, repeats one unit of work of the
workload for as many whole units as fit in --seconds (and at least the
workload's minimum), then checks the outputs outside the timed region. It
prints a report line and, last, one JSON line
``{"correct", "attempted", "failed", "metrics"}``. With --trace 0 the metrics
are the end-to-end ones in BENCHMARK.json, with every time given at nominal
host speed (see calib.py; the report carries the raw clock readings too);
with --trace 1 the run repeats the first unit with tracing off and on in turn
and reports the per-layer ones from raw clock readings.
Load model: a closed loop with one caller in one process. The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time

# numpy is imported only after pin_threads() has set the thread variables.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 5
SETUP_TICKS = 10  # calibration ticks after each set-up probe
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def pin_threads() -> int:
    """One BLAS/OpenMP thread (at most nproc), set before numpy loads.

    The workloads are one caller in one process; a single thread keeps the
    GCN's small matrix products from competing with the rest of the machine,
    and leaves the other cores to worker processes a later change may add.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return nproc


def import_rydock():
    """Import the checkout's rydock, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "rydock", "__init__.py")):
        sys.exit(f"error: no rydock sources under {SRC}")
    for path in (os.path.dirname(os.path.abspath(__file__)), SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads
    import rydock
    if not os.path.abspath(rydock.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported rydock from {rydock.__file__}, not {SRC}")
    return workloads


def setup_probe(name: str, seed: int, calibrate: bool):
    """Child process: time the imports plus the workload's construction, then
    tick the calibrator here, on the core that did the work."""
    t0 = time.perf_counter()
    workloads = import_rydock()
    wl = workloads.WORKLOADS[name](ROOT, seed, None)
    wl.setup()
    took = time.perf_counter() - t0
    import calib
    cal = calib.Calibrator(enabled=calibrate)
    factor = statistics.fmean(cal.tick() for _ in range(SETUP_TICKS))
    print(json.dumps({"setup_s": took, "normalized_s": took / factor}))


def measure_setup(name: str, seed: int, probes: int, calibrate: bool) -> tuple:
    """Set-up time of `probes` fresh processes, each importing and constructing:
    (raw seconds, seconds at nominal host speed) per probe."""
    raw, normalized = [], []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", name, "--seed", str(seed), "--trace", str(int(not calibrate))],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(probe["setup_s"])
        normalized.append(probe["normalized_s"])
    return raw, normalized


def src_loc() -> int:
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f)) as fh:
                    total += sum(1 for _ in fh)
    return total


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest child's (set-up probes, workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def mean_or_none(values):
    return statistics.fmean(values) if values else None


def tail_percentile(n: int) -> float:
    """Highest percentile of a ladder that has at least ten samples beyond it."""
    fitting = [q for q in (99.9, 99, 95, 90, 75, 50) if n * (1 - q / 100) >= 10]
    return fitting[0] if fitting else 50


def percentile(values, pct):
    import numpy as np
    return float(np.percentile(values, pct))


def run(name, seed, seconds, trace, smoke=False, nproc=1):
    """One benchmark run; returns (report, result) as printed."""
    workloads = import_rydock()
    import numpy
    import scipy
    import calib
    import tracer

    tmp = os.path.join(ROOT, ".bench_out", f"tmp-{os.getpid()}-{name}")
    os.makedirs(tmp, exist_ok=True)
    try:
        # timings of an untraced run are normalized to nominal host speed;
        # a traced run reports raw ones, so its overhead is a raw difference
        cal = calib.Calibrator(enabled=not trace)
        setup_raw, setup_samples = measure_setup(name, seed, 1 if smoke else SETUP_PROBES,
                                                  cal.enabled)
        wl = workloads.WORKLOADS[name](ROOT, seed, tmp, smoke, cal)
        setup_trace = tracer.Tracer(-1)
        saved = tracer.install(setup_trace) if trace else []
        try:
            wl.setup()
        finally:
            tracer.restore(saved)

        clock = tracer.EvalClock(cal)
        walls = {False: [], True: []}  # unit wall times by tracing state
        raw_walls = []
        unit_evals, unit_registers, unit_search_s = [], [], []
        reps = []
        failures = []
        min_units = 1 if smoke or trace else wl.min_units
        start = time.perf_counter()
        k = 0
        while True:
            traced = bool(trace) and k % 2 == 1
            unit_seed = workloads.sub_seed(seed, 0 if trace else k)
            rep = tracer.Tracer(len(reps)) if traced else None
            saved = tracer.install(rep) if traced else clock.install()
            evals_before = len(clock.latencies)
            t0 = time.perf_counter()
            mark = cal.mark()
            try:
                # a traced run repeats the first draw of the inputs
                registers, search_s = wl.unit(0 if trace else k, unit_seed)
            except (ValueError, RuntimeError) as exc:  # rydock's errors derive from these
                failures.append(f"unit {k}: {type(exc).__name__}: {exc}")
                break
            finally:
                tracer.restore(saved)
            raw_wall, wall = cal.since(mark)
            raw_walls.append(raw_wall)
            walls[traced].append(wall)
            if traced:
                reps.append((rep, wall))
            else:
                unit_evals.append(len(clock.latencies) - evals_before)
                unit_registers.append(registers)
                unit_search_s.append(search_s)
            k += 1
            # stop when a unit as long as this one would end past the deadline,
            # once there are enough units for a median to pass over one that
            # drew far more work than the rest
            now = time.perf_counter()
            done = now - start + (now - t0) > seconds and k >= min_units
            if done and (not trace or reps):
                break

        checks, tv = wl.finish() if not failures else ([], float("nan"))
        checks.append(("tv_ref", tv <= workloads.TV_LIMIT,
                       f"{tv:.3g} vs limit {workloads.TV_LIMIT}"))
        failed = len(failures) + sum(1 for _, ok, _ in checks if not ok)
        lat = clock.latencies
        tail_pct = tail_percentile(len(lat))
        attempted = max(1, len(lat) + len(checks) + len(failures))
        report = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "units": k, "evals": len(lat), "setup_samples_s": setup_samples,
            "unit_wall_s": walls[False] + walls[True],
            # an untraced run's timings are at nominal host speed (calib.py);
            # these are the same figures as the clock read them
            "raw": {"setup_samples_s": setup_raw, "unit_wall_s": raw_walls,
                    "eval_ms_p50": percentile(clock.raw, 50) * 1e3 if lat else None},
            "host": {"calib_nominal_s": calib.NOMINAL_S, "ticks": len(cal.factors),
                     "tick_s": cal.spent,
                     "factor_quartiles": (statistics.quantiles(cal.factors, n=4)
                                          if len(cal.factors) > 1 else cal.factors)},
            "eval_ms_quantiles": {f"p{q}": percentile(lat, q) * 1e3
                                  for q in (0, 10, 25, 50, 75, 90, 100)} if lat else {},
            "tv_limit": workloads.TV_LIMIT,
            # end-to-end figures printed with their units but not in BENCHMARK.json
            "ungated": {
                # the tail holds the dock6_vqaa units whose layout fell back
                # to ancillas, so it swings with how many a run drew
                "eval_ms_tail": {"value": percentile(lat, tail_pct) * 1e3 if lat else None,
                                 "unit": "ms", "percentile": tail_pct, "samples": len(lat)},
                "success_probability": {"value": mean_or_none(wl.success), "unit": "1"},
                "holdout_normalized_score": {"value": mean_or_none(wl.holdout_normalized),
                                             "unit": "1"},
                "tv_ref": {"value": tv if tv == tv else None, "unit": "1"},
                "fail_frac": {"value": failed / attempted, "unit": "fraction"},
            },
            "notes": wl.notes,
            "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
            "failures": failures,
            "src_loc": src_loc(),
            "env": {"nproc": nproc, "python": platform.python_version(),
                    "numpy": numpy.__version__, "scipy": scipy.__version__,
                    **{v: os.environ[v] for v in THREAD_VARS}},
        }
        if failures:
            metrics = {}
        elif trace:
            metrics, trace_file = layer_report(tracer, setup_trace, reps, walls, tv, name, seed)
            report["trace_file"] = os.path.relpath(trace_file, ROOT)
            report["exact_counts"] = {k: metrics[k]["value"] for k in tracer.EXACT_COUNTS}
        else:
            metrics = end_to_end(wl, walls[False], lat, setup_samples,
                                 unit_evals, unit_registers, unit_search_s)
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": metrics}
        return report, result
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def end_to_end(wl, walls, lat, setup_samples, evals, registers, search_s) -> dict:
    """Medians at nominal host speed: over units of work for the wall time and
    rates, over evaluations for latency, over probes for set-up.

    Calibration takes out the host's slow spells; what the medians guard
    against is a unit that drew far more work than the rest (on the fixture
    pair, layout falls back to ancilla chains for a few seeds)."""
    values = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "evals_per_s": (statistics.median(e / w for e, w in zip(evals, walls)), "1/s"),
        "eval_ms_p50": (percentile(lat, 50) * 1e3, "ms"),
        "registers_per_s": (statistics.median(r / s for r, s in zip(registers, search_s)),
                            "1/s"),
        "normalized_score": (statistics.fmean(wl.normalized), "1"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def layer_report(tracer, setup_trace, reps, walls, tv, name, seed):
    """Per-layer metrics: timings are medians over traced repetitions, counts
    come from the first one (every repetition does the same work)."""
    per_rep = [tracer.layer_metrics(setup_trace, rep, wall) for rep, wall in reps]
    metrics = {}
    for key, unit in tracer.PER_LAYER_UNITS.items():
        if key == "simulator.tv_ref":
            value = tv
        elif key == "trace.overhead_s":
            value = statistics.median(walls[True]) - statistics.median(walls[False])
        elif key == "trace.overhead_frac":
            off = statistics.median(walls[False])
            value = (statistics.median(walls[True]) - off) / off
        elif unit in ("count", "bytes", "atoms"):
            value = per_rep[0][key]
        else:
            value = statistics.median(r[key] for r in per_rep)
        metrics[key] = {"value": value, "unit": unit}
    out_dir = os.path.join(ROOT, ".bench_out")
    path = os.path.join(out_dir, f"trace-{name}-{seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": name, "seed": seed,
                   "spans": setup_trace.dump() + [s for rep, _ in reps for s in rep.dump()]},
                  fh)
    return metrics, path


def smoke(nproc) -> int:
    """Every workload at minimal size, traced and untraced: each metric that
    BENCHMARK.json names must be emitted, well named and with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    workloads = import_rydock()
    for w in spec["workloads"]:
        if w["name"] not in workloads.WORKLOADS or "\n" in w["why"] or not w["why"]:
            problems.append(f"workload {w['name']}: unknown or without a one-line why")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for name in names:
            report, result = run(name, 0, 0, trace, smoke=True, nproc=nproc)
            got = result["metrics"]
            if not result["correct"]:
                problems.append(f"{name} trace {trace}: checks failed: {report['checks']}")
            if set(got) != set(expected):
                problems.append(f"{name} trace {trace}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(expected))}")
            for metric, entry in got.items():
                if not NAME_RE.match(metric):
                    problems.append(f"{name}: bad metric name {metric!r}")
                unit = entry.get("unit")
                if not unit or unit != expected.get(metric, unit):
                    problems.append(f"{name}: metric {metric} unit {unit!r}")
            print(f"smoke {name} trace {trace}: {len(got)} metrics", flush=True)
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke ok" if not problems else f"smoke FAILED ({len(problems)} problems)")
    return 1 if problems else 0


def main(argv=None) -> int:
    nproc = pin_threads()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="self-test: every workload at minimal size")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.smoke:
        return smoke(nproc)
    if args.setup_probe:
        setup_probe(args.workload, args.seed, calibrate=not args.trace)
        return 0
    workloads = import_rydock()
    if args.workload not in workloads.WORKLOADS:
        p.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    report, result = run(args.workload, args.seed, args.seconds, args.trace, nproc=nproc)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
