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
larger ones lowest, one row per distinct partition. Each variant but the
rule's (`group_sizes`, marked `*`) evolves every pulse at dt 4 and 8 ns back
to back with the rule's partition, which goes first every other repeat, so a
drift in the host's speed hits both times of a pair alike. Printed are the
sum over the set's registers of each variant's median time, and the paired
statistic: the median, with quartiles, over registers and repeats of the
variant's time over the rule's time in the same pair. Output on 2 vCPUs with
one BLAS thread, --atoms 3-14 --per-size 10 --repeats 3, about 5 minutes
(excerpt):

    atoms  set      regs  dt  partition  ms/evolve  vs rule  [q1-q3]
        5  corpus     5   4  2+3            53.59   1.10  [1.07-1.23]
        5  corpus     5   4  5              43.28   1.00  *
        6  corpus    10   4  2+2+2          45.19   1.10  [1.02-1.21]
        6  corpus    10   4  3+3            40.83   1.00  *
        6  corpus    10   4  6              52.06   1.47  [1.19-1.71]
        6  corpus    10   8  3+3            38.86   1.00  *
        6  corpus    10   8  6              39.09   1.28  [1.01-1.63]
        6  fixture    1   4  2+2+2           2.04   1.10  [1.10-1.10]
        6  fixture    1   4  3+3             1.86   1.00  *
        6  fixture    1   8  2+2+2           1.19   0.99  [0.99-1.01]
        6  fixture    1   8  3+3             1.15   1.00  *
        7  corpus     5   4  4+3            93.22   1.16  [1.08-1.36]
        7  corpus     5   4  3+4            80.00   1.00  *
        7  corpus     5   8  4+3            87.79   1.08  [1.05-1.14]
        7  corpus     5   8  3+4            84.28   1.00  *
        8  corpus    10   4  2+3+3         131.79   0.88  [0.84-0.94]
        8  corpus    10   4  4+4           141.47   1.00  *
        8  corpus    10   8  2+3+3         159.00   0.93  [0.87-1.02]
        8  corpus    10   8  4+4           135.49   1.00  *
        9  corpus    10   4  3+3+3         120.63   1.00  *
        9  corpus    10   4  4+5           156.57   1.26  [1.23-1.39]
       10  corpus    10   4  4+3+3         326.70   1.06  [1.01-1.10]
       10  corpus    10   4  3+3+4         302.70   1.00  *
       11  corpus     5   4  4+4+3         335.19   1.09  [1.05-1.13]
       11  corpus     5   4  3+4+4         331.19   1.00  *
       12  corpus    10   4  3+3+3+3       560.70   0.95  [0.93-0.97]
       12  corpus    10   4  4+4+4         576.38   1.00  *
       12  corpus    10   8  3+3+3+3       419.40   0.95  [0.91-0.98]
       12  corpus    10   8  4+4+4         445.33   1.00  *
       13  placed     8   4  4+3+3+3       501.30   1.04  [1.02-1.05]
       13  placed     8   4  3+3+3+4       480.39   1.00  *
       13  placed     8   8  4+3+3+3       397.78   1.03  [1.02-1.05]
       13  placed     8   8  3+3+3+4       381.82   1.00  *
       14  placed     8   4  4+4+3+3      1548.60   1.20  [1.19-1.23]
       14  placed     8   4  3+3+4+4      1291.42   1.00  *

Every other partition reads slower than the rule at every size but two.
At 8 atoms 2+3+3 leads 4+4 (0.88 / 0.93 at dt 4 / 8; re-timed at --repeats
7 with another job sharing the host, 0.90 / 0.91 with quartiles 0.84-1.00 /
0.81-1.02), and at 12 atoms 3+3+3+3 leads 4+4+4 (0.95 / 0.95; at --repeats
7, 0.95 / 0.95 with quartiles 0.92-1.01 / 0.90-1.01). A new partition moves
amplitudes, so the rule keeps 4+4 and 4+4+4. 15 and 16 atoms were not timed
with the paired statistic; in the last scan before it (sums of medians), at
16 atoms the rule's 4+4+4+4 ran 1.14 times as fast as 5+5+6 at dt 8. The
host's speed drifts by up to 1.8x between scans, so compare ratios, not
times across scans.

Timings behind `evolve`'s group products and phase rows, on 2 vCPUs of an
AVX-512 Xeon with OpenBLAS 0.3.31 and one BLAS thread:
- GEMM orientation, on 2^13 floats: x.reshape(len(F), -1).T.dot(F), which
  writes the group out as the lowest, takes 9.7 us against 16.9 us for
  F.dot(x.reshape(-1, len(F)).T) at len(F) = 16, and 13.5 against 22.6 us
  at len(F) = 32.
- Phase rows on 4096 amplitudes: an exact row takes about 29 us, a step of
  a stepped row (one complex multiply by R) about 3 us.
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
    print("atoms  set      regs  dt  partition  ms/evolve  vs rule  [q1-q3]")
    for n, label, regs in cases(atoms, args.per_size, args.only):
        rule = simulator.group_sizes(n)
        variants = list(dict.fromkeys(v for c in CAPS if c * MAX_GROUPS >= n
                                      for v in (sizes(n, c)[::-1], sizes(n, c))))
        for dt in DTS:
            for _, reg, seq in regs:
                for v in variants:
                    time_evolve(reg, seq, dt, v)  # warm the caches
            runs = {(v, name): [] for v in variants for name, _, _ in regs}
            ratios = {v: [] for v in variants if v != rule}
            for r in range(args.repeats):
                for name, reg, seq in regs:
                    for v in ratios:
                        # back to back with the rule, which goes first every other repeat
                        pair = (v, rule) if r % 2 else (rule, v)
                        times = dict(zip(pair, (time_evolve(reg, seq, dt, p) for p in pair)))
                        runs[v, name].append(times[v])
                        runs[rule, name].append(times[rule])
                        ratios[v].append(times[v] / times[rule])
            for v in variants:
                total = sum(statistics.median(runs[v, name]) for name, _, _ in regs)
                if v == rule:
                    paired = "   1.00  *"
                else:
                    q1, med, q3 = np.percentile(ratios[v], [25, 50, 75])
                    paired = f"   {med:4.2f}  [{q1:4.2f}-{q3:4.2f}]"
                print(f"{n:5d}  {label:7s} {len(regs):4d} {dt:3.0f}  {'+'.join(map(str, v)):9s}"
                      f"  {1e3 * total:9.2f}{paired}", flush=True)


if __name__ == "__main__":
    main()
