"""Pulse-parameter search: scoring, samplers, and the variational loop.

The figure of merit for a measured histogram rewards shots that are large
independent sets while demanding that the distribution stays spread over
several outcomes: per-shot quality f(C) = popcount(C)/N when C is
independent (0 otherwise), concentration factor gini = 1 - sum_c p_c^2 over
the distinct empirical outcomes, and score = mean(f) * gini, nullified to 0
when gini < 1/3. The nullification guards against premature collapse onto
one outcome, at the price of zeroing perfectly converged runs on graphs
with a unique optimum; that trade-off is intentional and documented here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InfeasibilityError, InputError
from .graphs import WeightedGraph, brute_force_mwis, is_independent
from .histogram import Histogram
from .pulses import (
    MIN_WAVEFORM_NS,
    ComplexParams,
    SimpleParams,
    complex_sequence,
    simple_sequence,
)
from .register import DeviceParams, Embedding, omega_bounds, strip_ancillas
from .rng import substream, substream_seed
from .simulator import evolve, measure

GINI_THRESHOLD = 1.0 / 3.0
TPE_STARTUP = 10
TPE_GAMMA = 0.25
TPE_CANDIDATES = 24
NM_RESTARTS = 5
REFINE_SHOT_FACTOR = 5


@dataclass(frozen=True)
class ScoreBreakdown:
    mean_f: float
    gini: float
    score: float
    nullified: bool


def score(hist: Histogram, g: WeightedGraph,
          gini_threshold: float | None = GINI_THRESHOLD) -> ScoreBreakdown:
    """Frequency-weighted independence score of a histogram against a graph.

    Pass gini_threshold=None to disable nullification.
    """
    n = g.n
    mean_f = 0.0
    herf = 0.0
    for bits, c in hist.counts.items():
        if len(bits) != n:
            raise InputError(f"bitstring width {len(bits)} vs {n} vertices")
        p = c / hist.shots
        herf += p * p
        if is_independent_bits(bits, g):
            mean_f += p * bits.count("1") / n
    gini = 1.0 - herf
    nullified = gini_threshold is not None and gini < gini_threshold
    return ScoreBreakdown(
        mean_f=float(mean_f),
        gini=float(gini),
        score=0.0 if nullified else float(mean_f * gini),
        nullified=nullified,
    )


def is_independent_bits(bits: str, g: WeightedGraph) -> bool:
    index = {v: k for k, v in enumerate(g.vertex_ids)}
    for (u, v) in g.edges:
        if bits[index[u]] == "1" and bits[index[v]] == "1":
            return False
    return True


def success_probability(hist: Histogram, g: WeightedGraph) -> float:
    """Fraction of shots that are exact maximum-weight independent sets."""
    winners = {s.bitstring for s in brute_force_mwis(g)}
    hit = sum(c for bits, c in hist.counts.items() if bits in winners)
    return hit / hist.shots


def normalized_score(hist: Histogram, g: WeightedGraph,
                     breakdown: ScoreBreakdown | None = None) -> float:
    """Score scaled by the best reachable mean_f, i.e. |MIS| / N.

    For the cardinality we take the largest optimum of the weighted problem.
    """
    sb = breakdown if breakdown is not None else score(hist, g)
    best_card = max(s.bitstring.count("1") for s in brute_force_mwis(g))
    if best_card == 0:
        raise InputError("graph optimum is the empty set")
    return float(sb.score / (best_card / g.n))


@dataclass(frozen=True)
class SearchSpace:
    """Box bounds per parameter, plus an optional joint duration budget."""

    family: str
    intervals: dict
    total_time_limit: float | None = None

    @property
    def names(self) -> tuple:
        return tuple(self.intervals)

    def clamp(self, params: dict) -> dict:
        out = {}
        for k, (lo, hi) in self.intervals.items():
            out[k] = float(min(max(params[k], lo), hi))
        if self.total_time_limit is not None:
            total = out["t_rise"] + out["t_fall"]
            if total > self.total_time_limit:
                f = self.total_time_limit / total
                out["t_rise"] = max(out["t_rise"] * f, self.intervals["t_rise"][0])
                out["t_fall"] = max(out["t_fall"] * f, self.intervals["t_fall"][0])
        return out

    def feasible(self, params: dict) -> bool:
        for k, (lo, hi) in self.intervals.items():
            if not lo - 1e-9 <= params[k] <= hi + 1e-9:
                return False
        if self.total_time_limit is not None:
            if params["t_rise"] + params["t_fall"] > self.total_time_limit + 1e-9:
                return False
        return True


def search_space(emb: Embedding, dev: DeviceParams, family: str,
                 relaxed: bool = False) -> SearchSpace:
    """Bounds for the pulse search on this embedding.

    `relaxed` doubles the duration budget; the simplex searcher uses it to
    chase slow sweeps past the nominal coherence budget.
    """
    lo, hi = omega_bounds(emb, dev)
    coherence = dev.coherence_time * (2.0 if relaxed else 1.0)
    if family == "simple":
        return SearchSpace(
            family="simple",
            intervals={
                "omega": (lo, hi),
                "delta": (0.05, dev.delta_abs_max),
                "time": (2 * MIN_WAVEFORM_NS, coherence),
            },
        )
    if family == "complex":
        ramp_hi = min(2500.0 * (2.0 if relaxed else 1.0), coherence - MIN_WAVEFORM_NS)
        return SearchSpace(
            family="complex",
            intervals={
                "t_rise": (MIN_WAVEFORM_NS, ramp_hi),
                "t_fall": (MIN_WAVEFORM_NS, ramp_hi),
                "omega": (lo, hi),
                "delta0": (0.0, dev.delta_abs_max),
                "deltaf": (0.0, dev.delta_abs_max),
            },
            total_time_limit=coherence,
        )
    raise InputError(f"unknown family {family!r}")


def sequence_for(params: dict, family: str, dev: DeviceParams,
                 coherence_ns: float | None = None):
    budget = coherence_ns if coherence_ns is not None else dev.coherence_time
    if family == "simple":
        p = SimpleParams(omega=params["omega"], delta=params["delta"], time=params["time"])
        return simple_sequence(p, dev.omega_max, dev.delta_abs_max, budget)
    if family == "complex":
        p = ComplexParams(
            t_rise=params["t_rise"], t_fall=params["t_fall"], omega=params["omega"],
            delta0=params["delta0"], deltaf=params["deltaf"],
        )
        return complex_sequence(p, dev.omega_max, dev.delta_abs_max, budget)
    raise InputError(f"unknown family {family!r}")


def nelder_mead(objective, x0, bounds, max_iter: int = 200, seed: int = 0):
    """Minimise `objective` over a box with a hand-rolled simplex search.

    Coefficients: reflection 1, expansion 2, contraction 0.5, shrink 0.5.
    Candidate points are clamped into the bounds before evaluation, so the
    objective is never called outside the box. Terminates when the simplex
    diameter, scaled by the interval widths, falls below 1e-3, or after
    `max_iter` iterations. Returns (x_best, f_best, evaluations).
    """
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    span = hi - lo
    if np.any(span <= 0):
        raise InputError("empty bounds")
    ndim = len(bounds)
    rng = substream(seed, "simplex")

    def clamp(x):
        return np.minimum(np.maximum(x, lo), hi)

    x0 = clamp(np.asarray(x0, dtype=float))
    simplex = [x0]
    for k in range(ndim):
        step = np.zeros(ndim)
        step[k] = 0.08 * span[k] * (1.0 + 0.1 * rng.standard_normal())
        if x0[k] + step[k] > hi[k]:
            step[k] = -abs(step[k])
        simplex.append(clamp(x0 + step))
    values = [objective(x) for x in simplex]
    evals = len(simplex)

    for _ in range(max_iter):
        order = np.argsort(values)
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        diam = max(
            np.max(np.abs((simplex[i] - simplex[0]) / span))
            for i in range(1, ndim + 1)
        )
        if diam < 1e-3:
            break
        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]
        refl = clamp(centroid + 1.0 * (centroid - worst))
        f_refl = objective(refl)
        evals += 1
        if values[0] <= f_refl < values[-2]:
            simplex[-1], values[-1] = refl, f_refl
        elif f_refl < values[0]:
            expd = clamp(centroid + 2.0 * (centroid - worst))
            f_expd = objective(expd)
            evals += 1
            if f_expd < f_refl:
                simplex[-1], values[-1] = expd, f_expd
            else:
                simplex[-1], values[-1] = refl, f_refl
        else:
            contr = clamp(centroid + 0.5 * (worst - centroid))
            f_contr = objective(contr)
            evals += 1
            if f_contr < values[-1]:
                simplex[-1], values[-1] = contr, f_contr
            else:
                best = simplex[0]
                for i in range(1, ndim + 1):
                    simplex[i] = clamp(best + 0.5 * (simplex[i] - best))
                    values[i] = objective(simplex[i])
                    evals += 1
    order = np.argsort(values)
    return simplex[order[0]], values[order[0]], evals


def _trunc_norm_pdf(x, mu, sigma, lo, hi):
    z = (x - mu) / sigma
    phi = np.exp(-0.5 * z * z) / (sigma * math.sqrt(2 * math.pi))
    cdf = 0.5 * (math.erf((hi - mu) / (sigma * math.sqrt(2)))
                 - math.erf((lo - mu) / (sigma * math.sqrt(2))))
    return phi / max(cdf, 1e-300)


def _sample_trunc(rng, mu, sigma, lo, hi):
    for _ in range(100):
        x = rng.normal(mu, sigma)
        if lo <= x <= hi:
            return x
    return float(min(max(mu, lo), hi))


def tpe_suggest(history, space: SearchSpace, seed,
                n_startup: int = TPE_STARTUP, gamma: float = TPE_GAMMA,
                n_candidates: int = TPE_CANDIDATES) -> dict:
    """Next parameter point given (params, score) history.

    The first `n_startup` suggestions are uniform. Afterwards the history
    splits at the gamma score quantile into good/bad sets; each dimension
    gets truncated-Gaussian kernel densities l(x) over the good points and
    g(x) over the bad (bandwidth = interval width / sqrt(set size)), and
    the best of `n_candidates` draws from l under the ratio l/g wins. The
    joint duration budget is enforced by rejection during sampling.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    def uniform_point():
        for _ in range(200):
            p = {k: float(rng.uniform(lo, hi)) for k, (lo, hi) in space.intervals.items()}
            if space.feasible(p):
                return p
        return space.clamp(p)

    history = list(history)
    if len(history) < n_startup:
        return uniform_point()

    ranked = sorted(history, key=lambda t: (-t.score, t.round))
    n_good = max(1, int(math.ceil(gamma * len(ranked))))
    good = ranked[:n_good]
    bad = ranked[n_good:] or good
    sig_good = {k: (hi - lo) / math.sqrt(len(good)) for k, (lo, hi) in space.intervals.items()}
    sig_bad = {k: (hi - lo) / math.sqrt(len(bad)) for k, (lo, hi) in space.intervals.items()}

    candidates = []
    for _ in range(n_candidates):
        for _try in range(200):
            anchor = good[int(rng.integers(len(good)))]
            cand = {}
            for k, (lo, hi) in space.intervals.items():
                cand[k] = _sample_trunc(rng, anchor.params[k], sig_good[k], lo, hi)
            if space.feasible(cand):
                break
        else:
            cand = space.clamp(cand)
        candidates.append(cand)

    def log_ratio(cand):
        total = 0.0
        for k, (lo, hi) in space.intervals.items():
            l_val = np.mean([
                _trunc_norm_pdf(cand[k], t.params[k], sig_good[k], lo, hi) for t in good
            ])
            g_val = np.mean([
                _trunc_norm_pdf(cand[k], t.params[k], sig_bad[k], lo, hi) for t in bad
            ])
            total += math.log(max(l_val, 1e-300)) - math.log(max(g_val, 1e-300))
        return total

    scores = [log_ratio(c) for c in candidates]
    return candidates[int(np.argmax(scores))]


@dataclass(frozen=True)
class Trial:
    round: int
    params: dict
    score: float
    gini: float
    mean_f: float
    top: tuple


@dataclass(frozen=True)
class VqaaResult:
    best: Trial
    trials: tuple
    refined: ScoreBreakdown
    refined_histogram: Histogram
    low_confidence: bool
    second_pass: bool
    family: str


def _evaluate(params, emb, dev, family, shots, shot_seed, dt,
              coherence_ns=None, gini_threshold=GINI_THRESHOLD):
    """Returns (ScoreBreakdown, stripped Histogram, final StateVector), the
    state being None on the exact omega=0 shortcut."""
    if params["omega"] == 0.0:
        # hardware validation rejects a dead drive, but box searches can
        # land exactly on the omega=0 bound; the outcome there is exact
        zeros = "0" * emb.graph.n
        hist = Histogram(shots=shots, counts={zeros: shots})
        return score(hist, emb.graph, gini_threshold), hist, None
    seq = sequence_for(params, family, dev, coherence_ns)
    state = evolve(emb.register, seq, dev, dt=dt)
    return (*_measure_scored(state, emb, shots, shot_seed, gini_threshold), state)


def _measure_scored(state, emb, shots, shot_seed, gini_threshold):
    hist = measure(state, shots, shot_seed)
    stripped = strip_ancillas(hist, emb)
    return score(stripped, emb.graph, gini_threshold), stripped


def evaluate_params(emb: Embedding, dev: DeviceParams, params: dict,
                    family: str = "complex", shots: int = 1000, seed=0,
                    dt: float = 4.0,
                    gini_threshold: float | None = GINI_THRESHOLD):
    """Score one parameter set end to end: evolve, measure, strip, score.

    Returns (ScoreBreakdown, stripped Histogram).
    """
    return _evaluate(params, emb, dev, family, shots, seed, dt,
                     gini_threshold=gini_threshold)[:2]


def vqaa(emb: Embedding, dev: DeviceParams, family: str = "complex",
         rounds: int = 50, shots: int = 1000, optimizer: str = "tpe",
         seed: int = 0, dt: float = 4.0,
         gini_threshold: float | None = GINI_THRESHOLD,
         log_path=None) -> VqaaResult:
    """Variational search for pulse parameters on one embedding.

    optimizer="tpe": `rounds` sequential suggestions; when every trial ends
    nullified the loop runs a second pass of the same depth before giving
    up (low_confidence marks a best trial that still scored 0).
    optimizer="nm": NM_RESTARTS simplex searches from random starts inside
    a relaxed-budget space, `rounds` iterations each.

    Every evaluation draws its shots from a stream keyed by (seed, round),
    and the final state of the winning trial is kept and re-measured at 5x
    shots for reporting.
    """
    if rounds < 1:
        raise InputError("rounds must be >= 1")
    g = emb.graph
    trials = []
    best = best_state = None
    log_fh = open(log_path, "w") if log_path else None

    def run_one(params, rnd):
        nonlocal best, best_state
        sb, stripped, state = _evaluate(
            params, emb, dev, family, shots,
            substream(seed, "shots", rnd), dt,
            coherence_ns=budget, gini_threshold=gini_threshold,
        )
        trial = Trial(
            round=rnd, params=dict(params), score=sb.score, gini=sb.gini,
            mean_f=sb.mean_f, top=tuple(stripped.top(10)),
        )
        trials.append(trial)
        if best is None or _rank(trial) > _rank(best):
            best, best_state = trial, state
        if log_fh:
            log_fh.write(json.dumps({
                "round": rnd, "params": trial.params, "score": trial.score,
                "gini": trial.gini, "mean_f": trial.mean_f,
                "top": [list(t) for t in trial.top],
            }, sort_keys=True) + "\n")
        return trial

    second_pass = False
    try:
        if optimizer == "tpe":
            budget = dev.coherence_time
            space = search_space(emb, dev, family)
            target = rounds
            rnd = 0
            while rnd < target:
                params = tpe_suggest(
                    trials, space, substream(seed, "suggest", rnd),
                )
                run_one(params, rnd)
                rnd += 1
                if rnd == target and not second_pass and all(t.score == 0.0 for t in trials):
                    target += rounds
                    second_pass = True
        elif optimizer == "nm":
            budget = dev.coherence_time * 2.0
            space = search_space(emb, dev, family, relaxed=True)
            names = space.names
            bounds = [space.intervals[k] for k in names]
            counter = [0]

            def objective(x):
                params = space.clamp(dict(zip(names, x)))
                trial = run_one(params, counter[0])
                counter[0] += 1
                return -trial.score

            for restart in range(NM_RESTARTS):
                rng = substream(seed, "nm-start", restart)
                for _ in range(200):
                    x0 = np.array([rng.uniform(lo, hi) for (lo, hi) in bounds])
                    if space.feasible(dict(zip(names, x0))):
                        break
                nelder_mead(objective, x0, bounds, max_iter=rounds,
                            seed=substream_seed(seed, "nm", restart))
        else:
            raise InputError(f"unknown optimizer {optimizer!r}")
    finally:
        if log_fh:
            log_fh.close()

    refine_seed = substream(seed, "refine")
    if best_state is None:
        rb, rh, _ = _evaluate(
            best.params, emb, dev, family, shots * REFINE_SHOT_FACTOR,
            refine_seed, dt, coherence_ns=budget, gini_threshold=gini_threshold,
        )
    else:
        rb, rh = _measure_scored(best_state, emb, shots * REFINE_SHOT_FACTOR,
                                 refine_seed, gini_threshold)
    return VqaaResult(
        best=best, trials=tuple(trials), refined=rb, refined_histogram=rh,
        low_confidence=best.score == 0.0, second_pass=second_pass, family=family,
    )


def _rank(trial: Trial) -> tuple:
    """Ordering of trials: the best one has the largest key."""
    return (trial.score, trial.gini, trial.mean_f, -trial.round)


def prefix_result(emb: Embedding, dev: DeviceParams, trials, k: int,
                  family: str = "complex", shots: int = 1000, seed: int = 0,
                  dt: float = 4.0,
                  gini_threshold: float | None = GINI_THRESHOLD) -> VqaaResult:
    """Result an identically seeded tpe run of only `k` rounds would return.

    Valid because round r consumes nothing beyond trials[:r] and streams
    keyed by r, so trials[:k] of a longer run are exactly the trials of a
    k-round run. Re-measures the prefix winner the same way vqaa does.
    One caveat: a standalone k-round run whose trials all ended nullified
    would grow a second pass; here the prefix is reported as-is with
    low_confidence set instead.
    """
    trials = list(trials)
    if not 1 <= k <= len(trials):
        raise InputError(f"prefix {k} outside 1..{len(trials)}")
    head = trials[:k]
    best = max(head, key=_rank)
    rb, rh, _ = _evaluate(
        best.params, emb, dev, family, shots * REFINE_SHOT_FACTOR,
        substream(seed, "refine"), dt,
        coherence_ns=dev.coherence_time, gini_threshold=gini_threshold,
    )
    return VqaaResult(
        best=best, trials=tuple(head), refined=rb, refined_histogram=rh,
        low_confidence=best.score == 0.0, second_pass=False, family=family,
    )


def qaa_sweep(emb: Embedding, dev: DeviceParams, omegas, deltas, times,
              shots: int = 500, seed: int = 0, dt: float = 4.0) -> list:
    """Grid sweep of the single-segment family.

    Returns one row per (omega, delta, time) cell: a dict with the cell
    coordinates and the exact-optimum success probability. Infeasible cells
    get success NaN instead of raising.
    """
    g = emb.graph
    rows = []
    for i, om in enumerate(omegas):
        for j, de in enumerate(deltas):
            for k, tt in enumerate(times):
                cell = {"omega": float(om), "delta": float(de), "time": float(tt)}
                try:
                    seq = sequence_for(
                        {"omega": om, "delta": de, "time": tt}, "simple", dev,
                    )
                    state = evolve(emb.register, seq, dev, dt=dt)
                    hist = measure(state, shots, substream(seed, "sweep", i, j, k))
                    stripped = strip_ancillas(hist, emb)
                    cell["success_prob"] = success_probability(stripped, g)
                except (InputError, InfeasibilityError):
                    cell["success_prob"] = float("nan")
                rows.append(cell)
    return rows
