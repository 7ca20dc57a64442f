"""The three benchmark workloads, driven through rydock's public API.

Each workload has a set-up (construction the user pays once per process), a
unit of work that the run repeats until its time is up, and a finish step
that checks the outputs outside the timed region. Every call into a layer
goes through a module attribute (``optimize.qaa_sweep``, ``cli.main``), so
the wrappers in ``tracer.py`` see it.
"""

from __future__ import annotations

import contextlib
import filecmp
import io
import json
import math
import os
import zlib

import numpy as np

from rydock import cli, docking, graphs, optimize, simulator
from rydock.histogram import load_histogram
from rydock.mlqaa import dataset, gcn
from rydock.register import DeviceParams, load_register, omega_bounds

from calib import Calibrator

DEV = DeviceParams()
# ROADMAP accuracy target for the integrator: TV distance of the exact
# outcome distribution to a dt = 0.5 ns reference.
TV_LIMIT = 1e-3
TV_REF_DT = 0.5


def sub_seed(seed: int, *keys) -> int:
    """Seed for the part of a run named by `keys` (ints or strings), from --seed."""
    words = [k if isinstance(k, int) else zlib.crc32(k.encode()) for k in keys]
    return int(np.random.SeedSequence([seed, *words]).generate_state(1)[0])


def tv_distance(p: dict, q: dict) -> float:
    return 0.5 * sum(abs(p.get(b, 0.0) - q.get(b, 0.0)) for b in set(p) | set(q))


def tv_ref(register, seq, dt: float) -> float:
    """TV distance of the outcome distribution at `dt` to a dt = 0.5 reference."""
    coarse = simulator.exact_distribution(simulator.evolve(register, seq, DEV, dt=dt))
    fine = simulator.exact_distribution(simulator.evolve(register, seq, DEV, dt=TV_REF_DT))
    return tv_distance(coarse, fine)


def oracle_check(g) -> tuple:
    """Both exact solvers must agree: MWIS of g and max clique of its complement."""
    mwis = {s.bitstring for s in graphs.brute_force_mwis(g)}
    clique = {s.bitstring for s in graphs.max_weight_clique(graphs.complement(g))}
    return ("oracle", mwis == clique, f"{g.n} vertices, {len(mwis)} optima")


class Workload:
    """Answer quality, accumulated over units of work.

    ``unit(k, seed)`` runs the k-th draw of the workload's inputs with root
    seed `seed` and returns (registers searched, seconds spent searching), the
    seconds at nominal host speed as the calibrator `cal` gives them.
    An untraced run measures at least `min_units` units.
    """

    min_units = 3

    def __init__(self, cal=None):
        self.cal = cal or Calibrator(enabled=False)
        self.normalized = []  # normalized_score of every answer
        # Printed in the report but not gated: over five seeds their spread
        # across runs exceeds the largest bound a metric may have.
        self.success = []  # success_probability of every answer
        self.holdout_normalized = []  # normalized_score of MLQAA predictions
        self.notes = {}  # workload-specific counts for the report

    def _timed(self, fn, *args, **kwargs):
        mark = self.cal.mark()
        result = fn(*args, **kwargs)
        return result, self.cal.since(mark)[1]


class Dock6Vqaa(Workload):
    """Fixture molecules through ``rydock dock -> embed -> vqaa``.

    The paper's docking path on a 6-atom register. Each evolve is small, so
    tpe_suggest, the one-off layout and per-call overhead take a visible share.
    For about one seed in thirty, layout finds no chain-free placement and
    adds six ancillas; that unit's 12-atom search costs ten units' time. A
    run measures enough units for its medians to pass over one such unit,
    and the report counts them.
    """

    name = "dock6_vqaa"
    min_units = 10

    def __init__(self, root, seed, tmp, smoke=False, cal=None):
        super().__init__(cal)
        self.fixtures = os.path.join(root, "fixtures")
        self.tmp = tmp
        # TPE's 10 uniform start-up draws, then 4 modelled suggestions: units
        # short enough that a run averages over a dozen searches
        self.rounds = 2 if smoke else 14
        self.outs = []

    def setup(self):
        # the CLI reads the fixtures itself; parsing them here checks they exist
        for name in ("acetic_acid", "ethylene_glycol"):
            docking.load_molecule(os.path.join(self.fixtures, f"{name}.json"))

    def _chain(self, out, seed):
        common = ["--out", out, "--seed", str(seed)]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["dock", "--ligand", os.path.join(self.fixtures, "acetic_acid.json"),
                           "--receptor", os.path.join(self.fixtures, "ethylene_glycol.json"),
                           *common])
            rc = rc or cli.main(["embed", "--graph", os.path.join(out, "complement_graph.json"),
                                 *common])
            mark = self.cal.mark()
            rc = rc or cli.main(["vqaa", "--register", os.path.join(out, "register.json"),
                                 "--rounds", str(self.rounds), "--family", "complex",
                                 "--optimizer", "tpe", "--dt", "4", *common])
            search_s = self.cal.since(mark)[1]
        if rc:
            raise RuntimeError(f"rydock exited with code {rc}")
        return search_s

    def unit(self, k, seed):
        out = os.path.join(self.tmp, f"{self.name}-{len(self.outs)}")
        search_s = self._chain(out, seed)
        emb = load_register(os.path.join(out, "register.json"), DEV)
        self.outs.append((out, seed, emb))
        if emb.ancilla_ids():
            self.notes["units_with_ancillas"] = self.notes.get("units_with_ancillas", 0) + 1
        with open(os.path.join(out, "result.json")) as fh:
            res = json.load(fh)
        self.normalized.append(res["normalized_score"])
        self.success.append(res["success_probability"])
        return 1, search_s

    def finish(self):
        checks = []
        # re-run the first unit with the smallest register, which is the quickest
        first_out, first_seed, emb = min(self.outs, key=lambda o: o[2].register.n)
        repeat = os.path.join(self.tmp, f"{self.name}-repeat")
        self._chain(repeat, first_seed)
        names = sorted(os.listdir(first_out))
        same = names == sorted(os.listdir(repeat)) and all(
            filecmp.cmp(os.path.join(first_out, f), os.path.join(repeat, f), shallow=False)
            for f in names)
        checks.append(("byte_identical_rerun", same, f"{len(names)} files"))
        for out, _, _ in self.outs:
            g = graphs.load_graph(os.path.join(out, "complement_graph.json"))
            checks.append(oracle_check(g))
            with open(os.path.join(out, "result.json")) as fh:
                res = json.load(fh)
            hist = load_histogram(os.path.join(out, "histogram.json"))
            winners = {s.bitstring for s in graphs.max_weight_clique(graphs.complement(g))}
            hits = sum(c for b, c in hist.counts.items() if b in winners) / hist.shots
            checks.append(("success_probability", hits == res["success_probability"]
                           and math.isfinite(res["normalized_score"]),
                           f"{hits} vs {res['success_probability']}"))
        with open(os.path.join(first_out, "result.json")) as fh:
            best = json.load(fh)["best_params"]
        tv = tv_ref(emb.register, optimize.sequence_for(best, "complex", DEV), 4.0)
        return checks, tv


class Hex12Sweep(Workload):
    """``qaa_sweep`` grids on the 12-atom two-hexagon corpus register.

    evolve on 2^12 amplitudes is over 99% of the time, with no search, layout
    or GCN: an integrator change shows in full and a search change not at all.
    """

    name = "hex12_sweep"
    dt = 4.0
    shots = 1000

    def __init__(self, root, seed, tmp, smoke=False, cal=None):
        super().__init__(cal)
        self.seed = seed
        # one pulse length, so every cell costs the same number of steps
        self.time = 48.0 if smoke else 1000.0
        self.width = 1 if smoke else 2
        self.rows = []

    def setup(self):
        self.emb = dataset.corpus_entry("hexagon", 4, 9.75, DEV).embedding
        self.band = omega_bounds(self.emb, DEV)

    def grid(self, seed):
        """Every cell feasible: omega inside the Rabi band, delta inside the device range."""
        rng = np.random.default_rng(seed)
        hi = self.band[1]
        omegas = sorted(rng.uniform(0.75 * hi, 0.85 * hi, self.width + 1))
        deltas = sorted(rng.uniform(3.0, 4.0, self.width))
        return omegas, deltas, [self.time]

    def unit(self, k, seed):
        rows, search_s = self._timed(optimize.qaa_sweep, self.emb, DEV, *self.grid(seed),
                                shots=self.shots, seed=seed, dt=self.dt)
        self.rows.extend(rows)
        self.success.extend(r["success_prob"] for r in rows)
        return 1, search_s

    def finish(self):
        g = self.emb.graph
        checks = [oracle_check(g)]
        finite = all(math.isfinite(r["success_prob"]) and 0.0 <= r["success_prob"] <= 1.0
                     for r in self.rows)
        checks.append(("cells_finite", finite, f"{len(self.rows)} cells"))
        # the sampled success probability of the first cell must match the exact one
        first = self.rows[0]
        params = {"omega": first["omega"], "delta": first["delta"], "time": first["time"]}
        seq = optimize.sequence_for(params, "simple", DEV)
        exact = simulator.exact_distribution(
            simulator.evolve(self.emb.register, seq, DEV, dt=self.dt))
        winners = {s.bitstring for s in graphs.brute_force_mwis(g)}
        p = sum(v for b, v in exact.items() if b in winners)
        tol = 5.0 * math.sqrt(p * (1.0 - p) / self.shots) + 1.0 / self.shots
        checks.append(("sweep_vs_exact", abs(first["success_prob"] - p) <= tol,
                       f"{first['success_prob']} vs exact {p:.4f}"))
        tv = tv_ref(self.emb.register, seq, self.dt)
        # quality of the answer a sweep user takes: the best cell, re-scored
        best = max(self.rows, key=lambda r: r["success_prob"])
        sb, hist = optimize.evaluate_params(
            self.emb, DEV, {"omega": best["omega"], "delta": best["delta"],
                            "time": best["time"]},
            family="simple", shots=self.shots, seed=sub_seed(self.seed, "best"),
            dt=self.dt)
        self.normalized.append(optimize.normalized_score(hist, g, sb))
        return checks, tv


class CorpusMlqaa(Workload):
    """Label a corpus subset, train the five GCNs, predict for unseen registers.

    Many distinct small registers, each with a short search, then dense numpy
    training: the only workload where fan-out across registers can show. The
    models predict pulses for every corpus register of at most 6 atoms at a
    spacing absent from training. normalized_score is that of the search
    labels; the predictions' quality varies too much between models trained
    on eight labels to gate on, so it goes to the report.
    """

    name = "corpus_mlqaa"
    dt = 8.0
    shots = 500
    spacings = (7.25, 9.75)
    holdout_spacing = 8.5
    # each unit labels one register per atom count and spacing; the families
    # of a pool are taken in an order the run's seed shuffles, so a run covers
    # each pool about evenly
    atom_counts = (3, 4, 6, 8)
    holdout_atoms = 6

    def __init__(self, root, seed, tmp, smoke=False, cal=None):
        super().__init__(cal)
        self.seed = seed
        # every round of so short a search is one of TPE's uniform start-up draws
        self.rounds = 3 if smoke else 4
        self.epochs = 2 if smoke else 40
        if smoke:
            self.atom_counts, self.holdout_atoms = (3, 4), 3
        self.params_ok = True
        self.labelled = {}  # name -> entry, every register a unit labelled

    def setup(self):
        corpus = dataset.generate_corpus(DEV)
        rng = np.random.default_rng(sub_seed(self.seed, "order"))
        self.pools = []
        for spacing in self.spacings:
            for n in self.atom_counts:
                pool = [e for e in corpus if e.spacing == spacing and e.embedding.register.n == n]
                self.pools.append([pool[i] for i in rng.permutation(len(pool))])
        self.best_card = {e.name: max(s.bitstring.count("1")
                                      for s in graphs.brute_force_mwis(e.embedding.graph))
                          for pool in self.pools for e in pool}
        self.holdout = [e for e in corpus if e.spacing == self.holdout_spacing
                        and e.embedding.register.n <= self.holdout_atoms]

    def unit(self, k, seed):
        entries = [pool[k % len(pool)] for pool in self.pools]
        self.labelled.update((e.name, e) for e in entries)
        records, search_s = self._timed(dataset.label_dataset, entries, DEV,
                                        rounds=self.rounds, shots=self.shots, seed=seed,
                                        dt=self.dt)
        self.normalized.extend(r.score / (self.best_card[r.name] / len(r.ids))
                               for r in records)
        models = {t: gcn.train(records, t, epochs=self.epochs, seed=seed)
                  for t in gcn.TARGETS}
        self.params = []
        for entry in self.holdout:
            emb = entry.embedding
            params = gcn.predict_params(models, emb, DEV)
            sb, hist = optimize.evaluate_params(
                emb, DEV, params, family="complex", shots=self.shots,
                seed=sub_seed(seed, "eval", entry.name), dt=self.dt)
            self.holdout_normalized.append(optimize.normalized_score(hist, emb.graph, sb))
            self.success.append(optimize.success_probability(hist, emb.graph))
            self.params_ok &= optimize.search_space(emb, DEV, "complex").feasible(params)
            self.params.append(params)
        return len(records), search_s

    def finish(self):
        checks = [oracle_check(e.embedding.graph)
                  for e in [*self.labelled.values(), *self.holdout]]
        checks.append(("predictions_in_space", self.params_ok, "predicted params feasible"))
        # the largest holdout register with the last unit's predicted pulse
        entry, params = max(zip(self.holdout, self.params),
                            key=lambda ep: ep[0].embedding.register.n)
        tv = tv_ref(entry.embedding.register,
                    optimize.sequence_for(params, "complex", DEV), self.dt)
        return checks, tv


WORKLOADS = {w.name: w for w in (Dock6Vqaa, Hex12Sweep, CorpusMlqaa)}
