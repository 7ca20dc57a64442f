"""Timing scan behind the Kronecker partition of `rydock.simulator.evolve`.

Run from the repository root with one BLAS thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/measure_groups.py \
        [--atoms 7-16] [--repeats 5] [--per-size 0]

Registers: the corpus registers of 7-12 atoms (`generate_corpus`, at most
`--per-size` of each size, 0 for all), each with one uniform complex pulse
drawn in `search_space(..., "complex")` with `default_rng(11)` in corpus
order and clamped, as in `calibrate_substeps.py`. The corpus stops at 12
atoms, so 13-16 atoms are the first n sites of a 4 x 4 square grid at 9.75
um with the next draws of the same generator.

Partitions: near-equal groups of at most c atoms for c = 3..7 (`sizes`),
smaller ones lowest as `group_sizes` puts them and also larger ones lowest,
one row per distinct partition. Every variant evolves every pulse at dt 4
and 8 ns, the variants alternating within each repeat; printed is the sum
over the registers of each variant's median time, and the speed-up over
groups of at most 6, larger ones lowest. `*` marks the partition `evolve`
uses. Output on 2 vCPUs with one BLAS thread, --repeats 5 (excerpt):

    atoms  regs  dt  partition  ms/evolve  vs 6-cap
        7     5   4  3+2+2         105.91    0.80
        7     5   4  4+3            84.22    1.00
        7     5   4  3+4            80.80    1.04 *
        7     5   4  7             127.01    0.66
       10    20   4  3+3+2+2       559.72    0.99
       10    20   4  4+3+3         494.94    1.12
       10    20   4  3+3+4         488.75    1.14 *
       10    20   4  5+5           556.25    1.00
       11     5   4  4+4+3         275.43    1.61
       11     5   4  3+4+4         264.02    1.68 *
       11     5   4  6+5           443.34    1.00
       12    10   4  3+3+3+3       459.41    1.64
       12    10   4  4+4+4         438.46    1.71 *
       12    10   4  6+6           751.95    1.00

The simulator's module docstring tabulates the speed-ups at dt 4 and 8; a
full scan of 7-16 atoms takes several minutes. With `--atoms 5-6
--per-size 10`, one group reads 1.00 against 0.65-0.91 for two groups.
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from rydock import simulator
from rydock.mlqaa.dataset import generate_corpus
from rydock.optimize import search_space, sequence_for
from rydock.register import DeviceParams, embedding_from_positions

DEV = DeviceParams()
DTS = (4.0, 8.0)
CAPS = (3, 4, 5, 6, 7)
GRID_SPACING = 9.75


def sizes(n: int, cap: int) -> tuple:
    """ceil(n / cap) near-equal groups, smaller ones first, as `group_sizes`."""
    count = -(-n // cap)
    return tuple(n // count + (g >= count - n % count) for g in range(count))


def _pulse(emb, rng):
    space = search_space(emb, DEV, "complex")
    params = {k: rng.uniform(lo, hi) for k, (lo, hi) in space.intervals.items()}
    return sequence_for(space.clamp(params), "complex", DEV)


def cases(atoms: range, per_size: int, only: str | None) -> dict:
    """{atom count: [(name, register, sequence)]}."""
    rng = np.random.default_rng(11)
    out = {n: [] for n in atoms}
    for entry in generate_corpus(DEV):
        seq = _pulse(entry.embedding, rng)
        n = entry.embedding.register.n
        if n in out and (only is None or entry.name == only):
            out[n].append((entry.name, entry.embedding.register, seq))
    grid = [(GRID_SPACING * (k % 4), GRID_SPACING * (k // 4)) for k in range(16)]
    for n in atoms:
        if n > 12 and only is None:
            emb = embedding_from_positions(grid[:n], DEV, spacing=GRID_SPACING)
            out[n].append((f"grid-{n}", emb.register, _pulse(emb, rng)))
    return {n: (c[:per_size] if per_size else c) for n, c in out.items() if c}


def time_evolve(reg, seq, dt: float, partition: tuple) -> float:
    saved = simulator.group_sizes
    simulator.group_sizes = lambda n: partition
    try:
        t0 = time.perf_counter()
        simulator.evolve(reg, seq, DEV, dt=dt)
        return time.perf_counter() - t0
    finally:
        simulator.group_sizes = saved


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--atoms", default="7-16", help="range of atom counts, e.g. 7-16")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--per-size", type=int, default=0,
                    help="registers per atom count (0: all)")
    ap.add_argument("--only", default=None, help="time this corpus register alone")
    args = ap.parse_args(argv)
    lo, _, hi = args.atoms.partition("-")
    atoms = range(int(lo), int(hi or lo) + 1)
    print("atoms  regs  dt  partition  ms/evolve  vs 6-cap")
    for n, regs in cases(atoms, args.per_size, args.only).items():
        variants = list(dict.fromkeys(v for c in CAPS for v in (sizes(n, c)[::-1], sizes(n, c))))
        for dt in DTS:
            for _, reg, seq in regs:
                for v in variants:
                    time_evolve(reg, seq, dt, v)  # warm the caches
            runs = {(v, name): [] for v in variants for name, _, _ in regs}
            for r in range(args.repeats):
                for name, reg, seq in regs:
                    # alternate which variant goes first
                    order = variants[r % len(variants):] + variants[:r % len(variants)]
                    for v in order:
                        runs[v, name].append(time_evolve(reg, seq, dt, v))
            total = {v: sum(statistics.median(runs[v, name]) for name, _, _ in regs)
                     for v in variants}
            base = total[sizes(n, simulator.GROUP_MAX_ATOMS)[::-1]]
            for v in variants:
                mark = " *" if v == simulator.group_sizes(n) else ""
                print(f"{n:5d} {len(regs):5d} {dt:3.0f}  {'+'.join(map(str, v)):9s}"
                      f"  {1e3 * total[v]:9.2f}  {base / total[v]:6.2f}{mark}", flush=True)


if __name__ == "__main__":
    main()
