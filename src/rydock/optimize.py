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

`vqaa` runs one loop for both optimizers, and `rounds` is its budget of
evaluations: each round asks TPE (`tpe_suggest`) or the running simplex
(`nelder_mead`, a generator that is sent each value) for one point. So a
k-round search is the first k rounds of any longer one with the same seed,
and its trials, logged to `trials.jsonl` by the CLI's `vqaa` command,
replay exactly.

Every pulse is evolved (or a kept final state re-measured) and stripped by
`_outcome`, the one home of the exact omega=0 shortcut. `qaa_sweep` calls
it too, but marks an omega=0 cell infeasible before the shortcut is reached.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

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


def nelder_mead(x0, bounds, seed: int = 0):
    """A hand-rolled simplex search over a box, as a generator to be
    minimised by its caller: it yields each point to evaluate, is sent that
    point's value, and returns (x_best, f_best) once the simplex diameter,
    scaled by the interval widths, falls below 1e-3.

    Coefficients: reflection 1, expansion 2, contraction 0.5, shrink 0.5.
    Every point is clamped into the bounds before it is yielded.
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
    values = []
    for x in simplex:
        values.append((yield x))

    while True:
        order = np.argsort(values)
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        diam = max(
            np.max(np.abs((simplex[i] - simplex[0]) / span))
            for i in range(1, ndim + 1)
        )
        if diam < 1e-3:
            return simplex[0], values[0]
        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]
        refl = clamp(centroid + 1.0 * (centroid - worst))
        f_refl = yield refl
        if values[0] <= f_refl < values[-2]:
            simplex[-1], values[-1] = refl, f_refl
        elif f_refl < values[0]:
            expd = clamp(centroid + 2.0 * (centroid - worst))
            f_expd = yield expd
            if f_expd < f_refl:
                simplex[-1], values[-1] = expd, f_expd
            else:
                simplex[-1], values[-1] = refl, f_refl
        else:
            contr = clamp(centroid + 0.5 * (worst - centroid))
            f_contr = yield contr
            if f_contr < values[-1]:
                simplex[-1], values[-1] = contr, f_contr
            else:
                best = simplex[0]
                for i in range(1, ndim + 1):
                    simplex[i] = clamp(best + 0.5 * (simplex[i] - best))
                    values[i] = yield simplex[i]


def _simplex_points(space: ParamSpace, seed: int):
    """Endless parameter points of `nelder_mead` searches, each sent the
    score of the point before it: a search maximises the score from an
    "nm-start" draw, and a converged one restarts from the next draw."""
    bounds = list(space.intervals.values())
    for restart in itertools.count():
        x0 = space.uniform(substream(seed, "nm-start", restart))
        search = nelder_mead(list(x0.values()), bounds, seed=substream_seed(seed, "nm", restart))
        try:
            x = next(search)
            while True:
                value = yield space.clamp(dict(zip(space.names, x)))
                x = search.send(-value)
        except StopIteration:
            pass


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
                    dt: float = 4.0, state=None):
    """(ScoreBreakdown, stripped Histogram) of one parameter set: evolve,
    measure, strip, score; or of its kept final `state`, measured again."""
    hist, _ = _outcome(params, emb, dev, family, shots, seed, dt, state)
    return score(hist, emb.graph), hist


def replayable(trials) -> list:
    """`trials` as a list, refused unless they are rounds 0..k-1 in order."""
    trials = list(trials)
    if [t.round for t in trials] != list(range(len(trials))):
        raise InputError("replayed trials must be rounds 0..k-1 in order")
    return trials


def vqaa(emb: Embedding, dev: DeviceParams, family: str = "complex",
         rounds: int = 50, shots: int = 1000, optimizer: str = "tpe",
         seed: int = 0, dt: float = 4.0, on_trial=None, replay=()) -> VqaaResult:
    """Variational search for pulse parameters on one embedding.

    One loop of `rounds` evaluations runs both optimizers in the same
    `search_space`. Round r evaluates `tpe_suggest` on trials[:r] under
    optimizer="tpe", or the running simplex's next point under "nm"
    (`_simplex_points`). When every trial ends nullified the loop runs a
    second pass of `rounds` more before giving up (low_confidence marks a
    best trial that still scored 0).

    Every evaluation draws its shots from a stream keyed by (seed, round),
    and the final state of the winning trial is kept and re-measured at
    REFINE_SHOT_FACTOR x shots for reporting. `on_trial(trial, state)` sees
    each trial with its final state (None on the exact omega=0 shortcut and
    on a replayed trial).

    `replay` holds the trials of rounds 0..k-1 of an identically seeded
    search; they stand in for those rounds, exactly, since round r consumes
    only trials[:r] and streams keyed by r. k may exceed `rounds`: a longer
    search replays as a standalone one, second pass included. A replayed
    winner has no state, so it is evolved again for the re-measure.
    """
    if rounds < 1:
        raise InputError("rounds must be >= 1")
    if optimizer not in ("tpe", "nm"):
        raise InputError(f"unknown optimizer {optimizer!r}")
    replay = replayable(replay)
    space = search_space(emb, dev, family)
    simplex = _simplex_points(space, seed) if optimizer == "nm" else None
    trials = []
    best = best_state = None
    target, second_pass = rounds, False
    for rnd in itertools.count():
        if rnd == target:
            if second_pass or any(t.score != 0.0 for t in trials):
                break
            target, second_pass = target + rounds, True
        if simplex:
            # sent every score, a replayed one too, so that it walks the
            # path it walked when the trials were logged
            params = simplex.send(trials[-1].score if trials else None)
        if rnd < len(replay):
            trial, state = replay[rnd], None
        else:
            if not simplex:
                params = tpe_suggest(trials, space, substream(seed, "suggest", rnd))
            stripped, state = _outcome(params, emb, dev, family, shots,
                                       substream(seed, "shots", rnd), dt)
            sb = score(stripped, emb.graph)
            trial = Trial(round=rnd, params=dict(params), score=sb.score, gini=sb.gini,
                          mean_f=sb.mean_f, top=tuple(stripped.top(10)))
        trials.append(trial)
        if on_trial:
            on_trial(trial, state)
        if best is None or _rank(trial) > _rank(best):
            best, best_state = trial, state

    refined, rh = evaluate_params(emb, dev, best.params, family, shots * REFINE_SHOT_FACTOR,
                                  substream(seed, "refine"), dt, state=best_state)
    return VqaaResult(
        best=best, trials=tuple(trials), refined=refined, refined_histogram=rh,
        low_confidence=best.score == 0.0, second_pass=second_pass, family=family,
    )


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
