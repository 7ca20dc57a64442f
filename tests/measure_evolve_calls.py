"""Per-call and per-sub-step cost of `rydock.simulator.evolve` on small registers.

Run from the repository root with one BLAS thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/measure_evolve_calls.py \
        [--atoms 3-9] [--repeats 5] [--only NAME] [--against PATH]

Registers: the corpus registers of `--atoms` atoms (`generate_corpus`), and
the 6-atom register that `dock` -> `embed --seed 1` builds from the fixture
molecules (`measure_groups.fixture_embedding`); `--only NAME` times one
corpus register, or `fixture` the docking register alone. Each register
takes the complex pulse at the centre of its `search_space`, with two ramp
durations:
- 16 + 16 ns at dt 8, four steps: what one call costs beyond its sub-steps
  (`us/call`, the mean of 20 back-to-back calls);
- 1250 + 1250 ns at dt 4: the cost of a sub-step in a long pulse
  (`us/substep`, one call over its sub-step count, counted through
  `substep_counts` in an untimed call).
Each figure is the min over `--repeats` repeats.

`--against PATH` compares this tree's `src/` with the checkout at PATH
(`--against .` is an A/A run). Each tree runs in a worker process of its
own, which imports that tree's `rydock` and checks it did. Both workers are
pinned to the lowest CPU the script may run on (choose another with
`taskset -c N`), since the two vCPUs of a shared host can differ in speed
by 1.7x. The workers time each register back to back, `--repeats` times,
the other tree first in every other pair, each time as the min of TURN = 3
repeats: with one, the fixture's us/substep ratio read 0.93-0.99 over seven
runs on a loaded host, against 0.87-0.88 with three and 0.86 with the two
trees alternating in one process. Printed per register: this tree's median
us/call and us/substep, each with the median and quartiles of this tree's
time over the other's, as tests/measure_groups.py prints its paired
statistic. A drift of the host's speed hits both sides of a pair alike,
where single runs of bench/run.py cannot tell it from a change of a few
percent.

Output on 2 vCPUs of an AVX-512 Xeon with one BLAS thread, --repeats 5, one
register at a time with --only, pinned to one CPU, the min of three runs
alternating with the tree before the sub-step bodies were written out for
one to three groups (`before`); the host ran about 1.8x slower than when the
previous table was taken, so compare within this table:

    name                 atoms  us/call  us/substep  substeps    before: us/call  us/substep
    line-1-s9.75             3    286.9       2.729       626              276.6       3.141
    line-3-s9.75             5    295.4       4.847       626              305.1       5.317
    fixture                  6    358.9       5.596       626              367.5       6.330
    hexagon-0-s6             6    596.4       3.477      3588              649.9       4.112
    hexagon-1-s9.75          7    311.4       4.087       626              318.4       5.050
    hexagon-1-s6             7    538.4       2.106      9624              588.5       2.412
    rectangle-2-s7.25        8    636.5       6.037      2062              690.1       7.154
    triangle-2-s9.75        10    908.2      12.208       626              970.0      15.408

A sub-step costs 0.79-0.91 of what it did. A call of the short pulse costs
0.92-0.98 of what it did from 5 atoms, but 1.04 at 3 atoms: there np.cos
and np.sin cost more than the one complex exp they replace on rows of 8
amplitudes, and `_phase_rows` runs 5 times a call. A stiff register
spends its call in sub-steps: hexagon-1-s6 averages 15 sub-steps a step.
The host's speed drifts by up to 1.8x between runs, so compare two trees
with `--against`, not across scans.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from measure_groups import DEV, fixture_embedding
from rydock import simulator
from rydock.mlqaa.dataset import generate_corpus
from rydock.optimize import search_space, sequence_for

CALLS = 20
# repeats of `measure` per turn of an `--against` worker, whose min it reports
TURN = 3


def centred_pulse(emb, ramp_ns: float):
    """The complex pulse at the centre of the search space, both ramps
    `ramp_ns` long."""
    space = search_space(emb, DEV, "complex")
    centre = {k: 0.5 * (lo + hi) for k, (lo, hi) in space.intervals.items()}
    return sequence_for(space.clamp(dict(centre, t_rise=ramp_ns, t_fall=ramp_ns)),
                        "complex", DEV)


def registers(atoms: range, only: str | None) -> list:
    """[(name, embedding)]: the corpus registers of `atoms` atoms, then the
    fixture docking register."""
    out = [(e.name, e.embedding) for e in generate_corpus(DEV)
           if e.embedding.register.n in atoms and only in (None, e.name)]
    if only in (None, "fixture"):
        out.append(("fixture", fixture_embedding()))
    return out


def substeps(reg, seq, dt: float) -> int:
    """Sub-steps of one evolve, summed over the schedule."""
    counted, count = [], simulator.substep_counts
    simulator.substep_counts = lambda *args: counted.append(count(*args)) or counted[-1]
    try:
        simulator.evolve(reg, seq, DEV, dt=dt)
    finally:
        simulator.substep_counts = count
    return int(sum(c.sum() for c in counted))


def measure(emb, repeats: int) -> tuple:
    """(us per call of the 4-step pulse, us per sub-step of the long one,
    the long one's sub-steps), each time the min over `repeats`."""
    reg, short, long = emb.register, centred_pulse(emb, 16.0), centred_pulse(emb, 1250.0)
    total = substeps(reg, long, 4.0)
    calls, steps = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(CALLS):
            simulator.evolve(reg, short, DEV, dt=8.0)
        t1 = time.perf_counter()
        simulator.evolve(reg, long, DEV, dt=4.0)
        t2 = time.perf_counter()
        calls.append((t1 - t0) / CALLS)
        steps.append((t2 - t1) / total)
    return 1e6 * min(calls), 1e6 * min(steps), total


def serve(atoms: range, only: str | None) -> None:
    """The worker of `--against`: print one JSON line, the directory of the
    `rydock` it imported and [name, atoms] of each register, then answer
    each register name read from stdin with the JSON of one `measure` of it
    at TURN repeats."""
    regs = dict(registers(atoms, only))
    for emb in regs.values():
        simulator.evolve(emb.register, centred_pulse(emb, 16.0), DEV, dt=8.0)  # warm the caches
    print(json.dumps([str(Path(simulator.__file__).parents[1]),
                      [[name, emb.register.n] for name, emb in regs.items()]]), flush=True)
    for line in sys.stdin:
        print(json.dumps(measure(regs[line.strip()], TURN)), flush=True)


def against(other: str, argv: list, repeats: int) -> None:
    """Time this tree's `src/` against `other`'s, each in a worker process
    (`serve`) pinned to the same CPU, and print per register this tree's
    median times and the median of this tree's time over the other's, with
    quartiles, over `repeats` back-to-back pairs; the other tree goes first
    in every other pair."""
    roots = [Path(__file__).resolve().parents[1] / "src", Path(other).resolve() / "src"]
    workers = []
    for src in roots:
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        workers.append(subprocess.Popen(
            [sys.executable, __file__, "--serve", *argv], env=dict(os.environ, PYTHONPATH=path),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True))
        if hasattr(os, "sched_setaffinity"):  # so that a busy core slows neither tree alone
            os.sched_setaffinity(workers[-1].pid, {min(os.sched_getaffinity(0))})

    def ask(worker, name):
        worker.stdin.write(name + "\n")
        worker.stdin.flush()
        return json.loads(worker.stdout.readline())

    try:
        (ours_src, regs), (theirs_src, their_regs) = (json.loads(w.stdout.readline())
                                                      for w in workers)
        if [Path(ours_src), Path(theirs_src)] != roots:
            raise SystemExit(f"the workers imported rydock from {ours_src} and {theirs_src}")
        if regs != their_regs:
            raise SystemExit(f"the two trees build different registers: {regs}, {their_regs}")
        print("name                 atoms  us/call  vs other  [q1-q3]        "
              "us/substep  vs other  [q1-q3]")
        for name, n in regs:
            pairs = []
            for r in range(repeats):
                times = {w: ask(w, name) for w in (workers if r % 2 == 0 else workers[::-1])}
                pairs.append((times[workers[0]], times[workers[1]]))
            cells = []
            for k, fmt in ((0, "8.1f"), (1, "11.3f")):
                q1, med, q3 = np.percentile([ours[k] / theirs[k] for ours, theirs in pairs],
                                            [25, 50, 75])
                median = statistics.median(ours[k] for ours, _ in pairs)
                cells.append(f"{median:{fmt}}  {med:8.3f}  [{q1:.3f}-{q3:.3f}]")
            print(f"{name:20s} {n:5d} " + " ".join(cells), flush=True)
    finally:
        for w in workers:
            w.communicate()  # closes stdin, which ends the worker, and reads to its end


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--atoms", default="3-9", help="range of atom counts, e.g. 3-9")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--only", default=None,
                    help="time this corpus register alone ('fixture': the docking register)")
    ap.add_argument("--against", metavar="PATH",
                    help="time this tree against the checkout at PATH, alternating")
    ap.add_argument("--serve", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    lo, _, hi = args.atoms.partition("-")
    atoms = range(int(lo), int(hi or lo) + 1)
    if args.serve:
        return serve(atoms, args.only)
    if args.against:
        only = ["--only", args.only] if args.only else []
        return against(args.against, ["--atoms", args.atoms, *only], args.repeats)
    print("name                 atoms  us/call  us/substep  substeps")
    for name, emb in registers(atoms, args.only):
        simulator.evolve(emb.register, centred_pulse(emb, 16.0), DEV, dt=8.0)  # warm the caches
        per_call, per_step, total = measure(emb, args.repeats)
        print(f"{name:20s} {emb.register.n:5d} {per_call:8.1f} {per_step:11.3f} {total:9d}",
              flush=True)


if __name__ == "__main__":
    main()
