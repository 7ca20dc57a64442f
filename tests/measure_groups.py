"""Timing scan behind the Kronecker partition of `rydock.simulator.evolve`.

Run from the repository root with one BLAS thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/measure_groups.py \
        [--atoms 3-16] [--repeats 5] [--per-size 0] [--only NAME]

Registers: the corpus registers of 3-12 atoms (`generate_corpus`, at most
`--per-size` of each size, 0 for all), each with one uniform complex pulse
drawn in `search_space(..., "complex")` with `default_rng(11)` in corpus
order and clamped, as in `calibrate_substeps.py`. The corpus stops at 12
atoms, so 13-16 atoms are the `placed` set: at each corpus spacing from 7.25
um, a square grid and a scattered placement (`large_registers`), with the
next draws of the same generator. The 6-atom register that `dock` -> `embed
--seed 1` builds from the fixture molecules is a set of its own, with a pulse
from a fresh `default_rng(11)`; `--only fixture` times it alone.

Partitions: near-equal groups of at most c atoms for c = 2..7, at most four
groups (`sizes`), smaller ones lowest as `group_sizes` puts them and also
larger ones lowest, one row per distinct partition. Every variant evolves
every pulse at dt 4 and 8 ns, the variants alternating within each repeat;
printed is the sum over the set's registers of each variant's median time,
and the speed-up over groups of at most 6, larger ones lowest. `*` marks the
partition `evolve` uses. Output on 2 vCPUs with one BLAS thread, --atoms 3-16
--per-size 10 --repeats 3, about 14 minutes (excerpt):

    atoms  set      regs  dt  partition  ms/evolve  vs 6-cap
        5  corpus     5   4  2+3            28.78    0.79
        5  corpus     5   4  5              22.63    1.00 *
        6  corpus    10   4  2+2+2          43.97    1.13
        6  corpus    10   4  3+3            38.34    1.30 *
        6  corpus    10   4  6              49.71    1.00
        6  corpus    10   8  3+3            34.03    1.06 *
        6  corpus    10   8  6              36.20    1.00
        6  fixture    1   4  2+2+2           2.44    1.39
        6  fixture    1   4  3+3             2.00    1.69 *
        6  fixture    1   8  3+3             1.24    1.51 *
        7  corpus     5   4  4+3            79.70    1.00
        7  corpus     5   4  3+4            73.75    1.08 *
        7  corpus     5   8  4+3            70.96    1.00
        7  corpus     5   8  3+4            64.86    1.09 *
        8  corpus    10   4  2+3+3         131.45    1.09
        8  corpus    10   4  4+4           143.87    1.00 *
        9  corpus    10   4  3+3+3         125.43    1.57 *
        9  corpus    10   4  4+5           150.72    1.30
        9  corpus    10   8  3+3+3         115.31    1.36 *
        9  corpus    10   8  4+5           128.17    1.22
       10  corpus    10   4  4+3+3         258.01    1.34  (a)
       10  corpus    10   4  3+3+4         242.06    1.42 *(a)
       10  corpus    10   8  3+3+4         229.25    1.39 *(a)
       10  corpus    10   8  5+5           319.20    1.00  (a)
       11  corpus     5   4  3+4+4         315.14    2.53 *(a)
       11  corpus     5   8  3+4+4         245.92    2.32 *(a)
       12  corpus    10   4  3+3+3+3       493.50    2.75  (a)
       12  corpus    10   4  4+4+4         508.49    2.67 *(a)
       12  corpus    10   8  3+3+3+3       480.03    2.47  (a)
       12  corpus    10   8  4+4+4         518.65    2.28 *(a)
       12  corpus    10   8  6+6          1184.84    1.00  (a)
       13  placed     8   4  3+3+3+4       788.20    1.23 *(a)
       13  placed     8   4  4+4+5         733.91    1.32  (a)
       13  placed     8   8  4+3+3+3       551.82    1.38  (a)
       13  placed     8   8  3+3+3+4       619.60    1.22 *(a)
       13  placed     8   8  4+4+5         564.31    1.34  (a)
       14  placed     8   4  3+3+4+4      1939.31    1.48 *
       14  placed     8   4  4+5+5        2790.93    1.03
       14  placed     8   8  3+3+4+4      1578.75    1.50 *
       16  placed     8   4  4+4+4+4     15325.21    1.30 *
       16  placed     8   8  4+4+4+4     12404.94    1.29 *
       16  placed     8   8  5+5+6       14188.27    1.12

Rows marked (a) are from a later scan of --atoms 10-13 (about 2 minutes),
taken after the phase rows of 10 atoms and more moved to BLAS outer products;
the other rows are from the full scan before it. In the full scan the rule is
within 8% of the fastest partition at every size but those re-timed below; in
the (a) scan it is the fastest at 10 and 11 atoms. Re-timed at --repeats 7: at
8 atoms, dt 4, 2+3+3 leads 4+4 by 3% (1% at dt 8); at 13 atoms, after the (a)
scan, 3+3+3+4 is the fastest at dt 8 and within 1% of 4+3+3+3 at dt 4. At 12
atoms 3+3+3+3 led 4+4+4 by 2-7% before the BLAS phase rows, and by -1% to 12%
in three scans after (3% / 8%, 10% / 2% and -1% / 12% at dt 4 / 8); a new
partition moves amplitudes, so the rule keeps 4+4+4. At 7 atoms the rule's 3+4
now beats 4+3 by 8-9%. The host's speed drifted by up to 1.8x between scans,
so compare ratios within one scan, not times across scans.
"""

from __future__ import annotations

import argparse
import statistics
import time
from pathlib import Path

import numpy as np

from rydock import simulator
from rydock.cli import DEFAULTS
from rydock.docking import build_binding_graph, default_table, load_molecule
from rydock.errors import InfeasibilityError
from rydock.graphs import complement
from rydock.mlqaa.dataset import SPACINGS, generate_corpus
from rydock.optimize import search_space, sequence_for
from rydock.register import DeviceParams, embedding_from_positions, layout

DEV = DeviceParams()
DTS = (4.0, 8.0)
CAPS = (2, 3, 4, 5, 6, 7)
MAX_GROUPS = 4
FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def sizes(n: int, cap: int) -> tuple:
    """ceil(n / cap) near-equal groups, smaller ones first, as `group_sizes`."""
    count = -(-n // cap)
    return tuple(n // count + (g >= count - n % count) for g in range(count))


def _pulse(emb, rng):
    space = search_space(emb, DEV, "complex")
    params = {k: rng.uniform(lo, hi) for k, (lo, hi) in space.intervals.items()}
    return sequence_for(space.clamp(params), "complex", DEV)


def fixture_embedding():
    """The register of `dock` -> `embed --seed 1` on the fixture molecules."""
    g = build_binding_graph(load_molecule(FIXTURES / "acetic_acid.json"),
                            load_molecule(FIXTURES / "ethylene_glycol.json"),
                            default_table(), tau=DEFAULTS["tau"])
    return layout(complement(g), DEV, spacing=DEFAULTS["spacing"], seed=1)


def scattered(n: int, spacing: float, seed: int) -> np.ndarray:
    """n points drawn one at a time, uniform in a square of side 1.3 spacing
    sqrt(n), each kept when no earlier point is nearer than `spacing`."""
    rng = np.random.default_rng([n, seed])
    side, pos = 1.3 * spacing * np.sqrt(n), []
    while len(pos) < n:
        p = rng.uniform(0.0, side, size=2)
        if all(np.hypot(*(p - q)) >= spacing for q in pos):
            pos.append(p)
    return np.array(pos)


def large_registers(n: int) -> list:
    """[(name, embedding)] above the corpus's 12 atoms: at each corpus
    spacing but the densest, the first n sites of a square grid of 4 columns
    (5 at every other spacing), then a scattered placement, the first of
    seeds 0, 1, ... whose Rabi band is not empty. At 6 um one 16-atom grid
    evolve takes about 17 s on 2 vCPUs with one BLAS thread, nearly three
    times the slowest other register of its size."""
    out = []
    for k, spacing in enumerate(SPACINGS[1:]):
        cols = 4 + k % 2
        grid = [(spacing * (j % cols), spacing * (j // cols)) for j in range(n)]
        out.append((f"grid{cols}-{n}-s{spacing:g}",
                    embedding_from_positions(grid, DEV, spacing=spacing)))
        for seed in range(100):
            try:
                emb = embedding_from_positions(scattered(n, spacing, seed), DEV, spacing=spacing)
                search_space(emb, DEV, "complex")
            except InfeasibilityError:
                continue
            out.append((f"scatter{seed}-{n}-s{spacing:g}", emb))
            break
    return out


def cases(atoms: range, per_size: int, only: str | None) -> list:
    """[(atom count, set, [(name, register, sequence)])]: the corpus registers
    of each size (above 12 atoms the `placed` set of `large_registers`), and
    the fixture docking register as a set of its own."""
    rng = np.random.default_rng(11)
    corpus = {n: [] for n in atoms}
    for entry in generate_corpus(DEV):
        seq = _pulse(entry.embedding, rng)
        n = entry.embedding.register.n
        if n in corpus and (only is None or entry.name == only):
            corpus[n].append((entry.name, entry.embedding.register, seq))
    for n in atoms:
        if n > 12 and only is None:
            corpus[n] += [(name, emb.register, _pulse(emb, rng))
                          for name, emb in large_registers(n)]
    out = [(n, "corpus" if n <= 12 else "placed", regs[:per_size] if per_size else regs)
           for n, regs in corpus.items() if regs]
    emb = fixture_embedding()
    if emb.register.n in corpus and only in (None, "fixture"):
        seq = _pulse(emb, np.random.default_rng(11))
        out.append((emb.register.n, "fixture", [("fixture", emb.register, seq)]))
    return sorted(out, key=lambda case: case[0])


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
    ap.add_argument("--atoms", default="3-16", help="range of atom counts, e.g. 3-16")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--per-size", type=int, default=0,
                    help="registers per atom count (0: all)")
    ap.add_argument("--only", default=None,
                    help="time this corpus register alone ('fixture': the docking register)")
    args = ap.parse_args(argv)
    lo, _, hi = args.atoms.partition("-")
    atoms = range(int(lo), int(hi or lo) + 1)
    print("atoms  set      regs  dt  partition  ms/evolve  vs 6-cap")
    for n, label, regs in cases(atoms, args.per_size, args.only):
        variants = list(dict.fromkeys(v for c in CAPS if c * MAX_GROUPS >= n
                                      for v in (sizes(n, c)[::-1], sizes(n, c))))
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
            base = sizes(n, 6)[::-1]
            for v in variants:
                mark = " *" if v == simulator.group_sizes(n) else ""
                print(f"{n:5d}  {label:7s} {len(regs):4d} {dt:3.0f}  {'+'.join(map(str, v)):9s}"
                      f"  {1e3 * total[v]:9.2f}  {total[base] / total[v]:6.2f}{mark}", flush=True)


if __name__ == "__main__":
    main()
