"""Draws, relaxations and placements of `rydock.register.layout`.

Run from the repository root with one BLAS thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/measure_layout.py \
        [--seeds 0-59] [--spacing 9] [--repeats 3]

Graphs: the complement of the fixture binding graph (`dock` on the fixture
molecules) at each of --seeds and --spacing (the CLI's 9 um by default),
then `complement(six_node)` at 6 um and seeds 1 and 4, which need an
ancilla chain on every draw. Per layout: `draws`, the seeds drawn; `relax`,
the `_relax` calls; `iters`, the iterations of all those calls; `anc`, the
ancilla atoms placed; `hi/lo`, the ratio of the Rabi band's edges
(`omega_bounds`); `ms`, the layout's wall time, min of --repeats. The
summary gives, over the fixture seeds, the chain-free count and the median
and minimum hi/lo.

Output on 2 vCPUs with one BLAS thread at the default arguments, before and
after `_relax` became stress majorization; before, every relaxation ran
1,000 capped gradient steps. Excerpt, ms min of 3:

                  before                            after
    graph    seed draws relax  iters anc  hi/lo      ms  draws relax iters anc  hi/lo     ms
    fixture     0     2     3   3000   0 5.6825   152.3      2     3   887   0 5.6825   29.7
    fixture     1     1     1   1000   0 5.6825    44.2      1     1   133   0 5.6825    2.9
    fixture     2     1     1   1000   0 5.6825    45.8      1     1   135   0 5.6825    2.9
    fixture     4     2     3   3000   0 5.6825   142.1      2     3  1029   0 5.6825   29.3
    fixture     9     5     9   9000   0 5.6825   391.9      5     9  3536   0 5.6825  103.2
    fixture    11     7    15  15000   0 5.6825   658.1      7    15  4009   0 5.6825  142.6
    fixture    18     2     3   3000   0 5.6825   109.9      1     1   136   0 5.6825    2.7
    fixture    29     5     9   9000   0 5.6825   355.7      4     7  2423   0 5.6825   75.4
    six_node    1    20    40  40000   4 1.2833  1213.3     20    40  5888   4 1.2833  283.8
    six_node    4    20    40  40000   4 1.2833  1223.8     20    40  5828   4 1.2833  319.3

    before: fixture 60/60 chain-free, hi/lo median 5.6825 min 5.6825, ms mean 115.4 max 658.1
    after:  fixture 60/60 chain-free, hi/lo median 5.6825 min 5.6825,
            iterations per relax median 156, ms mean 30.7 max 142.6

Draws that fail relax slowly: a relaxation that cannot meet its targets
creeps on until LAYOUT_MAX_ITERS. The relaxation is scale-free, so the
iteration counts do not depend on the spacing. At --spacing 6 the fixture
reads 60/60 chain-free and hi/lo 2.0450 (the omega_max cap binds) before
and after. Most of a six_node layout is now its 20 chained placements
(`insert_quantum_link`), not its relaxations.
"""

from __future__ import annotations

import argparse
import statistics
import time
from pathlib import Path

from rydock import register
from rydock.cli import DEFAULTS
from rydock.docking import build_binding_graph, default_table, load_molecule
from rydock.graphs import complement, load_graph
from rydock.register import DeviceParams, layout, omega_bounds

DEV = DeviceParams()
FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
SIX_NODE_SEEDS = (1, 4)
SIX_NODE_SPACING = 6.0


def fixture_complement():
    """The graph `embed` lays out in the fixture chain `dock -> embed`."""
    g = build_binding_graph(load_molecule(FIXTURES / "acetic_acid.json"),
                            load_molecule(FIXTURES / "ethylene_glycol.json"),
                            default_table(), tau=DEFAULTS["tau"])
    return complement(g)


def counted_layout(g, spacing: float, seed: int):
    """(embedding, draws, _relax calls, iterations) of one layout call.

    Draws are the layout substreams taken; iterations are the distance
    matrices `_relax` computes, one per iteration."""
    counts = {"draws": 0, "relax": 0, "iters": 0}
    saved = register.substream, register._relax, register._distance_matrix
    inside = []

    def substream(*key):
        counts["draws"] += key[1] == "layout"
        return saved[0](*key)

    def relax(*args):
        counts["relax"] += 1
        inside.append(True)
        try:
            return saved[1](*args)
        finally:
            inside.pop()

    def distance_matrix(pos):
        counts["iters"] += bool(inside)
        return saved[2](pos)

    register.substream, register._relax, register._distance_matrix = (
        substream, relax, distance_matrix)
    try:
        emb = layout(g, DEV, spacing=spacing, seed=seed)
    finally:
        register.substream, register._relax, register._distance_matrix = saved
    return emb, counts["draws"], counts["relax"], counts["iters"]


def band_ratio(emb) -> float:
    lo, hi = omega_bounds(emb, DEV)
    return hi / lo if lo > 0 else float("inf")


def row(name: str, g, spacing: float, seed: int, repeats: int) -> dict:
    emb, draws, relax, iters = counted_layout(g, spacing, seed)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        layout(g, DEV, spacing=spacing, seed=seed)
        times.append(time.perf_counter() - t0)
    return {"graph": name, "seed": seed, "draws": draws, "relax": relax,
            "iters": iters, "anc": len(emb.ancilla_ids()),
            "ratio": band_ratio(emb), "ms": 1e3 * min(times)}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0-59", help="fixture seeds, e.g. 0-59")
    ap.add_argument("--spacing", type=float, default=DEFAULTS["spacing"])
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    fixture = fixture_complement()
    six = complement(load_graph(FIXTURES / "six_node.json"))
    rows = [row("fixture", fixture, args.spacing, s, args.repeats)
            for s in range(int(lo), int(hi or lo) + 1)]
    rows += [row("six_node", six, SIX_NODE_SPACING, s, args.repeats) for s in SIX_NODE_SEEDS]
    print("graph     seed  draws  relax  iters  anc   hi/lo       ms")
    for r in rows:
        print(f"{r['graph']:<8} {r['seed']:>5} {r['draws']:>6} {r['relax']:>6} "
              f"{r['iters']:>6} {r['anc']:>4} {r['ratio']:>7.4f} {r['ms']:>8.1f}")
    fix = [r for r in rows if r["graph"] == "fixture"]
    ratios = [r["ratio"] for r in fix]
    print(f"fixture: {sum(r['anc'] == 0 for r in fix)}/{len(fix)} chain-free, "
          f"hi/lo median {statistics.median(ratios):.4f} min {min(ratios):.4f}, "
          f"iterations per relax median "
          f"{statistics.median(r['iters'] / r['relax'] for r in fix):.0f}, "
          f"ms mean {statistics.fmean(r['ms'] for r in fix):.1f} "
          f"max {max(r['ms'] for r in fix):.1f}")


if __name__ == "__main__":
    main()
