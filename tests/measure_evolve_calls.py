"""Per-call and per-sub-step cost of `rydock.simulator.evolve` on small registers.

Run from the repository root with one BLAS thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/measure_evolve_calls.py \
        [--atoms 3-9] [--repeats 5] [--only NAME]

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

Output on 2 vCPUs of an AVX-512 Xeon with one BLAS thread, --repeats 5, one
register at a time with --only, the min of three runs (excerpt):

    name                 atoms  us/call  us/substep  substeps
    line-1-s9.75             3    169.3       1.561       626
    line-3-s9.75             5    167.6       2.708       626
    fixture                  6    199.0       3.096       626
    hexagon-0-s6             6    339.3       2.071      3588
    hexagon-1-s9.75          7    283.9       4.492       626
    hexagon-1-s6             7    519.8       2.091      9624
    rectangle-2-s7.25        8    411.2       4.358      2062
    triangle-2-s9.75        10    591.2       9.564       626

A stiff register spends its call in sub-steps: hexagon-1-s6 averages 15
sub-steps a step. The host's speed drifts by up to 1.5x between runs, so
compare two trees by alternating their runs, not across scans.
"""

from __future__ import annotations

import argparse
import time

from measure_groups import DEV, fixture_embedding
from rydock import simulator
from rydock.mlqaa.dataset import generate_corpus
from rydock.optimize import search_space, sequence_for

CALLS = 20


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


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--atoms", default="3-9", help="range of atom counts, e.g. 3-9")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--only", default=None,
                    help="time this corpus register alone ('fixture': the docking register)")
    args = ap.parse_args(argv)
    lo, _, hi = args.atoms.partition("-")
    print("name                 atoms  us/call  us/substep  substeps")
    for name, emb in registers(range(int(lo), int(hi or lo) + 1), args.only):
        simulator.evolve(emb.register, centred_pulse(emb, 16.0), DEV, dt=8.0)  # warm the caches
        per_call, per_step, total = measure(emb, args.repeats)
        print(f"{name:20s} {emb.register.n:5d} {per_call:8.1f} {per_step:11.3f} {total:9d}",
              flush=True)


if __name__ == "__main__":
    main()
