"""Pulse-parameter search: scoring, samplers, and the variational loop.

The figure of merit for a measured histogram rewards shots that are heavy
independent sets while demanding that the distribution stays spread over
several outcomes: per-shot quality f(C) = w(C)/w(V), the weight of C over
the weight of all vertices, when C is independent (0 otherwise),
concentration factor gini = 1 - sum_c p_c^2 over the distinct empirical
outcomes, and score = mean(f) * gini, nullified to 0 when gini < 1/3. On a
unit-weight graph f(C) is popcount(C)/N. The nullification guards against
premature collapse onto one outcome, at the price of zeroing perfectly
converged runs on graphs with a unique optimum; that trade-off is
intentional and documented here. A normalised score divides by the best
reachable mean(f), w(MWIS)/w(V), so it never exceeds 1.

Independence is read from `graphs.independent_weights`, the one test. The
search space is a `pulses.ParamSpace`, the hardware space narrowed where the
search decides (`search_space`); its methods are both optimizers' one
feasibility test, clamp and draw. `sequence_for` checks every pulse.

Every pulse is evolved (or a kept final state re-measured) and stripped by
`_outcome`, the one home of the exact omega=0 shortcut. `qaa_sweep` calls
it too, but marks an omega=0 cell infeasible before the shortcut is reached.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import files
from .errors import InfeasibilityError, InputError
from .graphs import WeightedGraph, brute_force_mwis, independent_weights
from .histogram import Histogram
from .pulses import FAMILIES, MIN_WAVEFORM_NS, ParamSpace, complex_sequence, simple_sequence
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


def score(hist: Histogram, g: WeightedGraph) -> ScoreBreakdown:
    """Frequency-weighted independence score of a histogram against a graph,
    nullified below the GINI_THRESHOLD read at call time. Each outcome's
    w(C) is looked up in the graph's `independent_weights` table."""
    n = g.n
    total = g.total_weight()
    table = independent_weights(g)
    mean_f = 0.0
    herf = 0.0
    for bits, c in hist.counts.items():
        if len(bits) != n:
            raise InputError(f"bitstring width {len(bits)} vs {n} vertices")
        p = c / hist.shots
        herf += p * p
        w = table.item(int(bits[::-1], 2))  # vertex 0 is the leftmost character
        if w != -math.inf:
            mean_f += p * w / total
    gini = 1.0 - herf
    nullified = gini < GINI_THRESHOLD
    return ScoreBreakdown(
        mean_f=float(mean_f),
        gini=float(gini),
        score=0.0 if nullified else float(mean_f * gini),
        nullified=nullified,
    )


def exact_optimum(g: WeightedGraph) -> tuple:
    """(frozenset of MWIS bitstrings, their weight).

    Solved by brute force on the first call for a graph and kept on the
    frozen graph itself, so the loops that score many histograms against
    one graph solve it once.
    """
    cached = g.__dict__.get("_exact_optimum")
    if cached is None:
        sols = brute_force_mwis(g)
        cached = (frozenset(s.bitstring for s in sols), sols[0].weight(g))
        object.__setattr__(g, "_exact_optimum", cached)
    return cached


def success_probability(hist: Histogram, g: WeightedGraph) -> float:
    """Fraction of shots that are exact maximum-weight independent sets."""
    winners = exact_optimum(g)[0]
    hit = sum(c for bits, c in hist.counts.items() if bits in winners)
    return hit / hist.shots


def normalized_score(hist: Histogram, g: WeightedGraph,
                     breakdown: ScoreBreakdown | None = None) -> float:
    """Score scaled by the best reachable mean_f, w(MWIS) / w(V)."""
    sb = breakdown if breakdown is not None else score(hist, g)
    return normalized_value(sb.score, g)


def normalized_value(value: float, g: WeightedGraph) -> float:
    """A score of `g` over the best reachable mean_f, w(MWIS) / w(V)."""
    best = exact_optimum(g)[1]
    if best == 0:
        raise InputError("graph optimum is the empty set")
    return float(value / (best / g.total_weight()))


def search_space(emb: Embedding, dev: DeviceParams, family: str) -> ParamSpace:
    """The family's hardware space under the device coherence time, which
    both optimizers of `vqaa` search, narrowed to the Rabi band of this
    embedding, a simple sweep delta >= 0.05 and complex ramps of at most
    2500 ns each, with every lower bound closed: omega = 0 is searched."""
    coherence = dev.coherence_time
    hw = ParamSpace.hardware(family, dev.omega_max, dev.delta_abs_max, coherence)
    box = dict(hw.intervals, omega=omega_bounds(emb, dev))
    if family == "simple":
        box["delta"] = (0.05, box["delta"][1])
    else:
        box.update({k: (box[k][0], min(2500.0, coherence - MIN_WAVEFORM_NS)) for k in hw.ramps})
    return replace(hw, intervals=box, open_lo=frozenset())


def sequence_for(params: dict, family: str, dev: DeviceParams):
    """The checked schedule of `params` within the device coherence time."""
    if family not in FAMILIES:
        raise InputError(f"unknown family {family!r}")
    # looked up at call time, so wrappers of the two builders see the calls
    build = simple_sequence if family == "simple" else complex_sequence
    return build(params, dev.omega_max, dev.delta_abs_max, dev.coherence_time)


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


def _kernel_density(x: np.ndarray, centres: list, sigma: float, lo: float,
                    hi: float) -> np.ndarray:
    """Mean over `centres` of the Gaussian kernels of width sigma, each
    truncated to [lo, hi], at every point of x: a (candidates x kernels)
    array averaged over its last axis. Each kernel's mass is found once."""
    mass = [0.5 * (math.erf((hi - mu) / (sigma * math.sqrt(2)))
                   - math.erf((lo - mu) / (sigma * math.sqrt(2)))) for mu in centres]
    z = (x[:, None] - np.array(centres)) / sigma
    phi = np.exp(-0.5 * z * z) / (sigma * math.sqrt(2 * math.pi))
    return np.mean(phi / np.maximum(mass, 1e-300), axis=-1)


def _sample_trunc(rng, mu, sigma, lo, hi):
    for _ in range(100):
        x = rng.normal(mu, sigma)
        if lo <= x <= hi:
            return x
    return float(min(max(mu, lo), hi))


def tpe_suggest(history, space: ParamSpace, seed) -> dict:
    """Next parameter point given (params, score) history.

    The first TPE_STARTUP suggestions are uniform. Afterwards the history
    splits at the TPE_GAMMA score quantile into good/bad sets; each dimension
    gets truncated-Gaussian kernel densities l(x) over the good points and
    g(x) over the bad (bandwidth = interval width / sqrt(set size)), and
    the best of TPE_CANDIDATES draws from l under the ratio l/g wins. The
    joint duration budget is enforced by rejection during sampling.
    """
    rng = np.random.default_rng(seed)
    history = list(history)
    if len(history) < TPE_STARTUP:
        return space.uniform(rng)

    ranked = sorted(history, key=lambda t: (-t.score, t.round))
    n_good = max(1, int(math.ceil(TPE_GAMMA * len(ranked))))
    good = ranked[:n_good]
    bad = ranked[n_good:] or good
    sig_good = {k: (hi - lo) / math.sqrt(len(good)) for k, (lo, hi) in space.intervals.items()}
    sig_bad = {k: (hi - lo) / math.sqrt(len(bad)) for k, (lo, hi) in space.intervals.items()}

    def near_good():  # truncated kernels around one good trial
        anchor = good[int(rng.integers(len(good)))]
        return {k: _sample_trunc(rng, anchor.params[k], sig_good[k], lo, hi)
                for k, (lo, hi) in space.intervals.items()}

    candidates = [space.draw(near_good) for _ in range(TPE_CANDIDATES)]

    # log l(x) - log g(x) summed over the dimensions; math.log, not np.log,
    # whose last bit can differ and flip a near-tie
    scores = np.zeros(len(candidates))
    for k, (lo, hi) in space.intervals.items():
        x = np.array([c[k] for c in candidates])
        l_val = _kernel_density(x, [t.params[k] for t in good], sig_good[k], lo, hi)
        g_val = _kernel_density(x, [t.params[k] for t in bad], sig_bad[k], lo, hi)
        scores += [math.log(max(a, 1e-300)) - math.log(max(b, 1e-300))
                   for a, b in zip(l_val.tolist(), g_val.tolist())]
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


def _outcome(params, emb, dev, family, shots, shot_seed, dt, state=None):
    """(stripped Histogram, final StateVector) of `params` evolved, or of a kept
    final `state`, measured `shots` times; no state on the omega=0 shortcut."""
    if state is None:
        if params["omega"] == 0.0:
            # hardware validation rejects a dead drive, but searches and
            # predictions can land on the omega=0 bound, where this is exact
            return Histogram(shots=shots, counts={"0" * emb.graph.n: shots}), None
        seq = sequence_for(params, family, dev)
        state = evolve(emb.register, seq, dev, dt=dt)
    return strip_ancillas(measure(state, shots, shot_seed), emb), state


def evaluate_params(emb: Embedding, dev: DeviceParams, params: dict,
                    family: str = "complex", shots: int = 1000, seed=0,
                    dt: float = 4.0):
    """(ScoreBreakdown, stripped Histogram) of one parameter set: evolve,
    measure, strip, score."""
    hist, _ = _outcome(params, emb, dev, family, shots, seed, dt)
    return score(hist, emb.graph), hist


def vqaa(emb: Embedding, dev: DeviceParams, family: str = "complex",
         rounds: int = 50, shots: int = 1000, optimizer: str = "tpe",
         seed: int = 0, dt: float = 4.0, log_path=None,
         log_fields: dict | None = None, on_trial=None, replay=()) -> VqaaResult:
    """Variational search for pulse parameters on one embedding.

    optimizer="tpe": `rounds` sequential suggestions; when every trial ends
    nullified the loop runs a second pass of the same depth before giving
    up (low_confidence marks a best trial that still scored 0).
    optimizer="nm": NM_RESTARTS simplex searches from random starts,
    `rounds` iterations each, in the same `search_space` as tpe.

    Every evaluation draws its shots from a stream keyed by (seed, round),
    and the final state of the winning trial is kept and re-measured at
    REFINE_SHOT_FACTOR x shots for reporting. Trials go to `log_path` as JSON
    lines with `log_fields`. `on_trial(trial, state)` sees each trial with its
    final state (None on the exact omega=0 shortcut and on a replayed trial).

    `replay` holds the logged trials of rounds 0..k-1 of an identically
    seeded tpe search; they stand in for those rounds, exactly, since round r
    consumes only trials[:r] and streams keyed by r. k may exceed `rounds`:
    a longer search replays as a standalone one, second pass included. A
    replayed winner has no state, so it is evolved again for the re-measure.
    """
    if rounds < 1:
        raise InputError("rounds must be >= 1")
    if optimizer not in ("tpe", "nm"):
        raise InputError(f"unknown optimizer {optimizer!r}")
    if replay and optimizer != "tpe":
        raise InputError("only a tpe search can replay logged trials")
    if [t.round for t in replay] != list(range(len(replay))):
        raise InputError("replayed trials must be rounds 0..k-1 in order")
    g = emb.graph
    # an empty Rabi band raises here, before the log of an earlier run is truncated
    space = search_space(emb, dev, family)
    trials = []
    best = best_state = None
    # line-buffered: each trial's line is flushed before the next evaluation,
    # so a search killed between trials leaves only whole lines to replay
    log_fh = open(log_path, "w", buffering=1) if log_path else None

    def record(trial, state):
        nonlocal best, best_state
        trials.append(trial)
        if on_trial:
            on_trial(trial, state)
        if best is None or _rank(trial) > _rank(best):
            best, best_state = trial, state
        if log_fh:
            # vars, not asdict, which deep-copies every leaf: 100 against 20 us a line
            log_fh.write(json.dumps({**(log_fields or {}), **vars(trial)},
                                    sort_keys=True) + "\n")
        return trial

    def run_one(params, rnd):
        stripped, state = _outcome(params, emb, dev, family, shots,
                                   substream(seed, "shots", rnd), dt)
        sb = score(stripped, g)
        return record(Trial(
            round=rnd, params=dict(params), score=sb.score, gini=sb.gini,
            mean_f=sb.mean_f, top=tuple(stripped.top(10)),
        ), state)

    second_pass = False
    try:
        if optimizer == "tpe":
            target = rounds
            rnd = 0
            while rnd < target:
                if rnd < len(replay):
                    record(replay[rnd], None)
                else:
                    run_one(tpe_suggest(trials, space, substream(seed, "suggest", rnd)), rnd)
                rnd += 1
                if rnd == target and not second_pass and all(t.score == 0.0 for t in trials):
                    target += rounds
                    second_pass = True
        else:
            counter = [0]

            def objective(x):
                params = space.clamp(dict(zip(space.names, x)))
                trial = run_one(params, counter[0])
                counter[0] += 1
                return -trial.score

            for restart in range(NM_RESTARTS):
                x0 = space.uniform(substream(seed, "nm-start", restart))
                nelder_mead(objective, list(x0.values()), list(space.intervals.values()),
                            max_iter=rounds, seed=substream_seed(seed, "nm", restart))
    finally:
        if log_fh:
            log_fh.close()

    rh, _ = _outcome(best.params, emb, dev, family, shots * REFINE_SHOT_FACTOR,
                     substream(seed, "refine"), dt, state=best_state)
    return VqaaResult(
        best=best, trials=tuple(trials), refined=score(rh, g), refined_histogram=rh,
        low_confidence=best.score == 0.0, second_pass=second_pass, family=family,
    )


def load_trials(path, digest=None) -> list:
    """The trials `vqaa` logged to `path`; none when `digest` is given and
    the log's `search_digest` differs, as the log of another search."""
    def parse(docs):
        if digest is not None and any(d.get("search_digest") != digest for d in docs):
            return []
        trials = [Trial(**{f.name: d[f.name] for f in fields(Trial)}) for d in docs]
        # JSON reads the (bitstring, count) pairs of `top` back as lists
        return [replace(t, top=tuple(map(tuple, t.top))) for t in trials]
    return files.read(path, parse, lines=True)


def _rank(trial: Trial) -> tuple:
    """Ordering of trials: the best one has the largest key."""
    return (trial.score, trial.gini, trial.mean_f, -trial.round)


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
                cell = {"omega": float(om), "delta": float(de), "time": float(tt),
                        "success_prob": float("nan")}
                try:
                    if om != 0:  # a dead drive is infeasible here, not shortcut
                        hist, _ = _outcome({"omega": om, "delta": de, "time": tt}, emb, dev,
                                           "simple", shots, substream(seed, "sweep", i, j, k), dt)
                        cell["success_prob"] = success_probability(hist, g)
                except (InputError, InfeasibilityError):
                    pass
                rows.append(cell)
    return rows
