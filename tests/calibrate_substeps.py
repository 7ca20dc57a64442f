"""Corpus scan behind the split step's sub-step rule in `rydock.simulator`.

Run from the repository root (several minutes on two cores):

    PYTHONPATH=src:tests python tests/calibrate_substeps.py [--jobs 2] [--grid] [--only NAME]

Registers: all 125 corpus registers (`generate_corpus`). Pulses, two per
register: one uniform complex pulse, its parameters drawn in
`search_space(..., "complex")` with `default_rng(11)` in corpus order and
clamped; and the same pulse with omega at the top of the register's Rabi
band. Each pulse runs through `evolve` at dt 4 and 8 ns under each sub-step
rule, and through `taylor_evolve` at dt 0.5 (the fine reference) and at the
same dt (the same midpoint samples with no splitting, so that TV is the
splitting error alone).

A rule is (exponent p, budget phi): nsub = ceil(tau g (|Omega| /
omega_max)^p / phi), capped at ceil(tau g / PHI_MAX). The old rule is p = 0,
phi = PHI_MAX, where every step takes the cap. `--grid` adds the scan that
chose the simulator's OMEGA_EXPONENT and PHI_OMEGA (an hour on two cores).

Printed per rule and dt: the worst TV against dt 0.5 over each pulse set,
the worst splitting-only TV over the uniform pulses and over both sets, the
total sub-steps over both sets, and the total over the uniform pulses of the
registers the `corpus_mlqaa` benchmark labels (spacings 7.25 and 9.75; 3, 4,
6 or 8 atoms). Output:

    rule             dt  fine, uniform              fine, band top             split, uniform             split, both                substeps  pools
    old p=0 0.15      4  1.338e-04 triangle-3-s8.5  5.469e-04 hexagon-4-s8.5   1.308e-04 triangle-3-s8.5  5.387e-04 hexagon-4-s8.5     610598  34554
    old p=0 0.15      8  2.657e-04 triangle-2-s8.5  5.780e-04 hexagon-4-s8.5   2.325e-04 triangle-3-s8.5  5.373e-04 hexagon-4-s8.5     562900  29821
    new p=0.75 0.06   4  1.362e-04 triangle-3-s8.5  5.469e-04 hexagon-4-s8.5   1.348e-04 triangle-3-s8.5  5.387e-04 hexagon-4-s8.5     520938  26857
    new p=0.75 0.06   8  2.661e-04 triangle-2-s8.5  5.722e-04 hexagon-4-s8.5   2.388e-04 triangle-3-s8.5  5.349e-04 hexagon-4-s8.5     466362  21950

So the new rule takes 15% fewer sub-steps at dt 4 and 17% fewer at dt 8,
and 22% and 26% fewer on the benchmark's registers. The worst splitting
error over both sets is a band-top pulse on a register whose steps run
unsplit (or as wide) under both rules. From the `--grid` rows, with the
fine TV at dt 4 and 8, the splitting-only TV over the uniform pulses at dt 4
and 8, and the pool sub-steps at dt 8:

    p=0.5  phi=0.05   1.344e-04 2.658e-04   1.315e-04 2.331e-04   27023
    p=0.5  phi=0.10   1.485e-04 2.667e-04   1.460e-04 2.446e-04   21049
    p=0.75 phi=0.06   1.362e-04 2.661e-04   1.348e-04 2.388e-04   21950
    p=1    phi=0.04   1.362e-04 2.656e-04   1.348e-04 2.452e-04   21582
    p=1    phi=0.05   1.427e-04 2.690e-04   1.400e-04 2.580e-04   19891

No rule that cuts the pool sub-steps by a quarter keeps the worst fine TV
at dt 4 at the cap's 1.338e-4; p = 0.75, phi = 0.06 grows it least, with
the smaller splitting error of the two best. With no sub-steps at all (one
Strang step per midpoint step) the worst fine TV reads 2.3e-3 at dt 4 and
9.7e-3 at dt 8.
"""

from __future__ import annotations

import argparse
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from rydock import simulator
from rydock.mlqaa.dataset import generate_corpus
from rydock.optimize import search_space, sequence_for
from rydock.register import DeviceParams
from taylor_reference import taylor_evolve

DEV = DeviceParams()
DTS = (4.0, 8.0)
FINE_DT = 0.5
POOL_SPACINGS = (7.25, 9.75)
POOL_ATOMS = (3, 4, 6, 8)
GRID = [(p, phi) for p in (0.5, 0.75, 1.0) for phi in (0.04, 0.05, 0.06, 0.08, 0.10)]


def rules(grid: bool) -> list:
    base = [("old", 0.0, simulator.PHI_MAX),
            ("new", simulator.OMEGA_EXPONENT, simulator.PHI_OMEGA)]
    return base + [("grid", p, phi) for p, phi in GRID] if grid else base


def pulses() -> list:
    """(name, register, pulse kind, sequence) in corpus order."""
    rng = np.random.default_rng(11)
    out = []
    for entry in generate_corpus(DEV):
        space = search_space(entry.embedding, DEV, "complex")
        params = space.clamp({k: rng.uniform(lo, hi) for k, (lo, hi) in space.intervals.items()})
        top = dict(params, omega=space.intervals["omega"][1])
        reg = entry.embedding.register
        for kind, p in (("uniform", params), ("band_top", top)):
            out.append((entry.name, entry.spacing, reg, kind, sequence_for(p, "complex", DEV)))
    return out


def tv(a, b) -> float:
    return 0.5 * float(np.abs(np.abs(a) ** 2 - np.abs(b) ** 2).sum())


def scan_one(case, rule_list):
    """TVs and sub-step totals of one pulse under every rule."""
    name, spacing, reg, kind, seq = case
    fine = taylor_evolve(reg, seq, DEV, dt=FINE_DT).amplitudes
    counted = []
    count_substeps = simulator.substep_counts

    def counting(*args):
        nsubs = count_substeps(*args)
        counted.append(int(nsubs.sum()))
        return nsubs

    rule = simulator.OMEGA_EXPONENT, simulator.PHI_OMEGA
    simulator.substep_counts = counting
    out = {"name": name, "kind": kind, "n": reg.n, "spacing": spacing, "rows": []}
    try:
        for dt in DTS:
            same = taylor_evolve(reg, seq, DEV, dt=dt).amplitudes
            for label, p, phi in rule_list:
                simulator.OMEGA_EXPONENT, simulator.PHI_OMEGA = p, phi
                counted.clear()
                psi = simulator.evolve(reg, seq, DEV, dt=dt).amplitudes
                out["rows"].append((label, p, phi, dt, tv(psi, fine), tv(psi, same), sum(counted)))
    finally:
        simulator.substep_counts = count_substeps
        simulator.OMEGA_EXPONENT, simulator.PHI_OMEGA = rule
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jobs", type=int, default=1, help="worker processes")
    ap.add_argument("--grid", action="store_true", help="also scan the exponent/budget grid")
    ap.add_argument("--only", default=None, help="scan this corpus register alone")
    args = ap.parse_args(argv)
    rule_list = rules(args.grid)
    cases = [case for case in pulses() if args.only in (None, case[0])]
    if not cases:
        ap.error(f"no corpus register named {args.only}")
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=args.jobs, mp_context=ctx) as pool:
        results = list(pool.map(scan_one, cases, [rule_list] * len(cases)))

    print(f"{'rule':<16} {'dt':>2}  {'fine, uniform':<26} {'fine, band top':<26} "
          f"{'split, uniform':<26} {'split, both':<26} {'substeps':>8} {'pools':>6}")
    for label, p, phi in rule_list:
        for dt in DTS:
            worst = {key: (0.0, "") for key in ("fine_uniform", "fine_band_top",
                                                "split_uniform", "split_band_top")}
            total = pools = 0
            for res in results:
                for lab, rp, rphi, rdt, tv_fine, tv_split, nsub in res["rows"]:
                    if (lab, rp, rphi, rdt) != (label, p, phi, dt):
                        continue
                    for key, value in (("fine", tv_fine), ("split", tv_split)):
                        key = f"{key}_{res['kind']}"
                        worst[key] = max(worst[key], (value, res["name"]))
                    total += nsub
                    if (res["kind"] == "uniform" and res["spacing"] in POOL_SPACINGS
                            and res["n"] in POOL_ATOMS):
                        pools += nsub
            worst["split_both"] = max(worst["split_uniform"], worst["split_band_top"])
            cells = [f"{worst[key][0]:.3e} {worst[key][1]:<16}" for key in
                     ("fine_uniform", "fine_band_top", "split_uniform", "split_both")]
            print(f"{label} p={p:g} {phi:g}".ljust(16) + f" {dt:>2g}  " + " ".join(cells)
                  + f" {total:>8} {pools:>6}")


if __name__ == "__main__":
    main()
