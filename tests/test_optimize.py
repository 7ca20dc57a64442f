"""Scoring, search spaces, the two optimizers, and the vqaa loop."""

import ast
import json
import math
from itertools import compress
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rydock.optimize
from rydock.errors import InputError
from rydock.graphs import WeightedGraph
from rydock.histogram import Histogram
from rydock.optimize import (
    GINI_THRESHOLD,
    REFINE_SHOT_FACTOR,
    ScoreBreakdown,
    Trial,
    _kernel_density,
    evaluate_params,
    exact_optimum,
    nelder_mead,
    normalized_score,
    normalized_value,
    qaa_sweep,
    score,
    search_space,
    sequence_for,
    success_probability,
    tpe_suggest,
    vqaa,
)
from rydock.pulses import ParamSpace
from rydock.register import DeviceParams, layout, strip_ancillas
from rydock.rng import substream
from rydock.simulator import evolve, measure

DEV = DeviceParams()
PATH3 = WeightedGraph.from_parts("abc", [("a", "b"), ("b", "c")])


def k2_embedding():
    g = WeightedGraph.from_parts(["a", "b"], [("a", "b")], positions=[(0, 0), (9, 0)])
    return layout(g, DEV, spacing=9.0)


def test_score_worked_examples():
    # all shots on the dependent full string: nothing to reward
    sb = score(Histogram(shots=100, counts={"111": 100}), PATH3)
    assert (sb.mean_f, sb.gini, sb.score) == (0.0, 0.0, 0.0)
    assert sb.nullified

    # all shots on one perfect answer: concentration nullifies it
    sb = score(Histogram(shots=100, counts={"101": 100}), PATH3)
    assert sb.mean_f == pytest.approx(2.0 / 3.0)
    assert sb.gini == 0.0
    assert sb.nullified and sb.score == 0.0

    # an even split spreads the mass and survives
    sb = score(Histogram(shots=1000, counts={"101": 500, "010": 500}), PATH3)
    assert sb.mean_f == pytest.approx(0.5)
    assert sb.gini == pytest.approx(0.5)
    assert sb.score == pytest.approx(0.25)
    assert not sb.nullified


def test_nullification_threshold_is_strict(monkeypatch):
    hist = Histogram(shots=100, counts={"101": 90, "010": 10})
    gini = 1.0 - (0.81 + 0.01)
    assert gini < GINI_THRESHOLD
    sb = score(hist, PATH3)
    assert sb.nullified and sb.score == 0.0
    assert sb.gini == pytest.approx(gini)
    # score reads the threshold when it is called
    monkeypatch.setattr(rydock.optimize, "GINI_THRESHOLD", gini)
    at = score(hist, PATH3)
    assert not at.nullified  # nullification needs gini strictly below
    assert at.score == pytest.approx(sb.mean_f * gini)


def test_score_width_mismatch():
    with pytest.raises(InputError):
        score(Histogram(shots=1, counts={"10": 1}), PATH3)


def edge_loop_score(hist, g):
    """The oracle for `score`: every outcome tested against each edge and
    w(C) summed over its members, without the graph's `independent_weights`
    table. The arithmetic is the same, so the results must be equal."""
    total = g.total_weight()
    index = {v: k for k, v in enumerate(g.vertex_ids)}
    edges = [(index[u], index[v]) for (u, v) in g.edges]
    mean_f = 0.0
    herf = 0.0
    for bits, c in hist.counts.items():
        p = c / hist.shots
        herf += p * p
        for (i, j) in edges:
            if bits[i] == "1" and bits[j] == "1":
                break
        else:
            mean_f += p * sum(compress(g.weights, map("1".__eq__, bits))) / total
    gini = 1.0 - herf
    nullified = gini < GINI_THRESHOLD
    return ScoreBreakdown(mean_f=float(mean_f), gini=float(gini),
                          score=0.0 if nullified else float(mean_f * gini),
                          nullified=nullified)


@st.composite
def graphs_and_histograms(draw):
    """A weighted graph of at most 10 vertices and a histogram over its subsets."""
    n = draw(st.integers(1, 10))
    weights = draw(st.lists(st.one_of(st.just(1.0), st.floats(1e-3, 1e3)),
                            min_size=n, max_size=n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    ids = [f"v{k}" for k in range(n)]
    g = WeightedGraph.from_parts(ids, [(ids[i], ids[j]) for (i, j), k in zip(pairs, keep) if k],
                                 weights=weights)
    masks = draw(st.dictionaries(st.integers(0, (1 << n) - 1), st.integers(1, 500),
                                 min_size=1, max_size=30))
    counts = {"".join("1" if m >> k & 1 else "0" for k in range(n)): c for m, c in masks.items()}
    return g, Histogram(shots=sum(counts.values()), counts=counts)


@settings(max_examples=200, deadline=None)
@given(case=graphs_and_histograms())
def test_score_equals_the_edge_loop_oracle(case):
    g, hist = case
    assert score(hist, g) == edge_loop_score(hist, g)


def test_score_bounds_on_random_inputs(monkeypatch):
    monkeypatch.setattr(rydock.optimize, "GINI_THRESHOLD", 0.0)
    rng = np.random.default_rng(12)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        ids = [f"v{k}" for k in range(n)]
        edges = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.4]
        g = WeightedGraph.from_parts(ids, edges)
        raw = {}
        for _ in range(int(rng.integers(1, 6))):
            bits = "".join(rng.choice(["0", "1"], size=n))
            raw[bits] = raw.get(bits, 0) + int(rng.integers(1, 50))
        hist = Histogram(shots=sum(raw.values()), counts=raw)
        sb = score(hist, g)
        assert not sb.nullified
        assert 0.0 <= sb.score <= sb.mean_f <= 1.0
        assert 0.0 <= sb.gini < 1.0


def test_score_relabeling_invariance(monkeypatch):
    monkeypatch.setattr(rydock.optimize, "GINI_THRESHOLD", 0.0)
    rng = np.random.default_rng(21)
    g = WeightedGraph.from_parts(
        "abcd", [("a", "b"), ("b", "c"), ("c", "d")], weights=[1, 2, 3, 4])
    raw = {"0101": 30, "1010": 50, "1111": 20}
    base = score(Histogram(shots=100, counts=raw), g)
    for _ in range(10):
        perm = rng.permutation(4)
        ids = [g.vertex_ids[p] for p in perm]
        edges = sorted(
            tuple(sorted((u, v), key=ids.index)) for u, v in g.edges)
        g2 = WeightedGraph.from_parts(
            ids, edges, weights=[g.weights[p] for p in perm])
        remapped = {"".join(bits[p] for p in perm): c for bits, c in raw.items()}
        sb = score(Histogram(shots=100, counts=remapped), g2)
        assert sb.mean_f == pytest.approx(base.mean_f)
        assert sb.gini == pytest.approx(base.gini)
        assert sb.score == pytest.approx(base.score)


def test_success_probability():
    hist = Histogram(shots=1000, counts={"101": 500, "010": 500})
    assert success_probability(hist, PATH3) == pytest.approx(0.5)
    assert success_probability(
        Histogram(shots=10, counts={"010": 10}), PATH3) == 0.0


def test_normalized_score():
    hist = Histogram(shots=1000, counts={"101": 500, "010": 500})
    sb = score(hist, PATH3)
    # best independent set has 2 of 3 vertices
    assert normalized_score(hist, PATH3) == pytest.approx(sb.score / (2 / 3))
    assert normalized_score(hist, PATH3, breakdown=sb) == \
        pytest.approx(0.25 * 1.5)


@st.composite
def weighted_graph_and_histogram(draw):
    n = draw(st.integers(1, 7))
    ids = [f"v{k}" for k in range(n)]
    pairs = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)]
    edges = [e for e in pairs if draw(st.booleans())]
    weights = draw(st.lists(st.floats(0.01, 100.0), min_size=n, max_size=n))
    g = WeightedGraph.from_parts(ids, edges, weights=weights)
    bits = st.text(alphabet="01", min_size=n, max_size=n)
    counts = draw(st.dictionaries(bits, st.integers(1, 50), min_size=1, max_size=12))
    return g, Histogram(shots=sum(counts.values()), counts=counts)


@settings(max_examples=100, deadline=None)
@given(case=weighted_graph_and_histogram())
def test_normalized_score_lies_in_unit_interval(case):
    g, hist = case
    assert 0.0 <= normalized_score(hist, g) <= 1.0


def test_weighted_score_is_bounded_by_the_optimum(monkeypatch):
    # centre 10, three leaves 1: the MWIS is the centre alone, so leaf sets
    # are independent but light, and must not outscore the optimum
    star = WeightedGraph.from_parts(
        ["c", "l1", "l2", "l3"], [("c", "l1"), ("c", "l2"), ("c", "l3")],
        weights=[10, 1, 1, 1])
    leaves = Histogram(shots=1000, counts={"0111": 400, "0110": 300, "0101": 300})
    sb = score(leaves, star)
    assert sb.mean_f == pytest.approx((0.4 * 3 + 0.6 * 2) / 13)
    assert normalized_score(leaves, star, sb) == pytest.approx(0.66 * 2.4 / 10)
    assert normalized_score(leaves, star, sb) <= 1.0
    assert success_probability(leaves, star) == 0.0
    # all mass on the optimum and the best spread it can keep reach at most 1
    best = Histogram(shots=1000, counts={"1000": 600, "0000": 400})
    monkeypatch.setattr(rydock.optimize, "GINI_THRESHOLD", 0.0)
    assert normalized_score(best, star, score(best, star)) <= 1.0
    assert normalized_value(score(best, star).mean_f, star) == pytest.approx(0.6)


def test_exact_optimum_solved_once_per_graph(monkeypatch):
    calls = []
    solve = rydock.optimize.brute_force_mwis
    monkeypatch.setattr(rydock.optimize, "brute_force_mwis",
                        lambda g: calls.append(g) or solve(g))
    g = WeightedGraph.from_parts("abc", [("a", "b"), ("b", "c")])
    hist = Histogram(shots=1000, counts={"101": 500, "010": 500})
    for _ in range(3):
        assert success_probability(hist, g) == pytest.approx(0.5)
        assert normalized_score(hist, g) == score(hist, g).score / (2 / 3)
    assert normalized_value(0.25, g) == 0.25 / (2 / 3)
    assert calls == [g]
    winners, best_card = exact_optimum(g)
    assert winners == frozenset({"101"}) and best_card == 2
    assert isinstance(exact_optimum(g), tuple)
    # an equal graph built separately is solved again, not confused with g
    exact_optimum(WeightedGraph.from_parts("abc", [("a", "b"), ("b", "c")]))
    assert len(calls) == 2


def test_search_space_contracts():
    emb = k2_embedding()
    simple = search_space(emb, DEV, "simple")
    assert simple.names == ("omega", "delta", "time")
    assert simple.intervals["delta"] == (0.05, DEV.delta_abs_max)
    assert simple.intervals["time"] == (32.0, DEV.coherence_time)
    assert simple.total_time_limit == DEV.coherence_time

    comp = search_space(emb, DEV, "complex")
    assert comp.names == ("t_rise", "t_fall", "omega", "delta0", "deltaf")
    assert comp.intervals["t_rise"] == (16.0, 2500.0)
    assert comp.total_time_limit == DEV.coherence_time

    with pytest.raises(InputError):
        search_space(emb, DEV, "fancy")


def test_clamp_and_feasible():
    sp = ParamSpace(intervals={"t_rise": (16.0, 4000.0),
                               "t_fall": (16.0, 4000.0)},
                    total_time_limit=5000.0, ramps=("t_rise", "t_fall"))
    out = sp.clamp({"t_rise": 4000.0, "t_fall": 3000.0})
    assert out["t_rise"] + out["t_fall"] <= 5000.0 + 1e-9
    assert out["t_rise"] == pytest.approx(4000.0 * 5.0 / 7.0)
    assert sp.feasible(out)
    assert not sp.feasible({"t_rise": 4000.0, "t_fall": 3000.0})
    assert not sp.feasible({"t_rise": 5.0, "t_fall": 100.0})
    boxed = sp.clamp({"t_rise": -50.0, "t_fall": 9000.0})
    assert boxed["t_rise"] >= 16.0
    assert boxed["t_fall"] <= 4000.0


def test_sequence_for_families():
    seq = sequence_for({"omega": 3.0, "delta": 2.0, "time": 800.0},
                       "simple", DEV)
    assert [s.duration for s in seq.segments] == [800.0]
    seq = sequence_for({"t_rise": 100.0, "t_fall": 400.0, "omega": 4.0,
                        "delta0": 2.0, "deltaf": 5.0}, "complex", DEV)
    assert [s.duration for s in seq.segments] == [100.0, 400.0]
    with pytest.raises(InputError):
        sequence_for({}, "fancy", DEV)


def _simple(**kw):
    return "simple", {"omega": 4.0, "delta": 3.0, "time": 1000.0, **kw}


def _complex(**kw):
    return "complex", {"t_rise": 200.0, "t_fall": 800.0, "omega": 5.0,
                       "delta0": 2.0, "deltaf": 6.0, **kw}


# (family, params, accepted): strict lower bounds on omega and the simple
# delta, exact lower bounds elsewhere, 1e-9 of slack on every upper bound
# and on the ramps' shared budget
HARDWARE_CASES = {
    "simple": (*_simple(), True),
    "simple-omega-0": (*_simple(omega=0.0), False),
    "simple-omega-16": (*_simple(omega=16.0), False),
    "simple-omega-max-slack": (*_simple(omega=DEV.omega_max + 1e-9), True),
    "simple-delta-0": (*_simple(delta=0.0), False),
    "simple-delta-9": (*_simple(delta=9.0), False),
    "simple-time-20": (*_simple(time=20.0), False),
    "simple-time-32": (*_simple(time=32.0), True),
    "simple-time-6000": (*_simple(time=6000.0), False),
    "complex": (*_complex(), True),
    "complex-rise-10": (*_complex(t_rise=10.0), False),
    "complex-rise-under-16": (*_complex(t_rise=16.0 - 1e-9), False),
    "complex-ramps-6000": (*_complex(t_rise=3000.0, t_fall=3000.0), False),
    "complex-ramps-coherence": (*_complex(t_rise=1000.0, t_fall=4000.0), True),
    "complex-omega-0": (*_complex(omega=0.0), False),
    "complex-omega-max-slack": (*_complex(omega=DEV.omega_max + 1e-9), True),
    "complex-delta0-0": (*_complex(delta0=0.0), True),
    "complex-delta0-neg": (*_complex(delta0=-1.0), False),
    "complex-deltaf-9": (*_complex(deltaf=9.0), False),
}


@pytest.mark.parametrize("family, params, accepted", HARDWARE_CASES.values(),
                         ids=HARDWARE_CASES.keys())
def test_sequence_for_hardware_check(family, params, accepted):
    if accepted:
        sequence_for(params, family, DEV)
    else:
        with pytest.raises(InputError):
            sequence_for(params, family, DEV)


def test_nelder_mead_quadratic():
    calls = []

    def f(x):
        calls.append(np.array(x))
        return (x[0] - 2.0) ** 2 + (x[1] + 1.0) ** 2

    x, fx, evals = nelder_mead(f, [4.0, 4.0], [(-5, 5), (-5, 5)],
                               max_iter=300, seed=1)
    assert fx < 1e-3
    assert abs(x[0] - 2.0) < 0.02 and abs(x[1] + 1.0) < 0.02
    assert evals == len(calls)
    for c in calls:
        assert np.all(c >= -5.0) and np.all(c <= 5.0)


def test_nelder_mead_rosenbrock():
    def rosen(x):
        return (1 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2

    x, fx, _ = nelder_mead(rosen, [-1.2, 1.0], [(-2, 2), (-2, 2)],
                           max_iter=500, seed=0)
    assert fx < 1e-6
    assert np.allclose(x, [1.0, 1.0], atol=0.01)


def test_nelder_mead_deterministic_and_validated():
    f = lambda x: float(np.sum(np.square(x)))
    a = nelder_mead(f, [1.0, 1.0], [(-2, 2), (-2, 2)], seed=5)
    b = nelder_mead(f, [1.0, 1.0], [(-2, 2), (-2, 2)], seed=5)
    assert np.allclose(a[0], b[0]) and a[1] == b[1] and a[2] == b[2]
    with pytest.raises(InputError):
        nelder_mead(f, [0.0], [(1.0, 1.0)])


SPACE_1D = ParamSpace(intervals={"x": (0.0, 1.0)})


def run_tpe(seed, rounds=50):
    hist = []
    for r in range(rounds):
        p = tpe_suggest(hist, SPACE_1D, substream(seed, "s", r))
        assert 0.0 <= p["x"] <= 1.0
        s = -((p["x"] - 0.7) ** 2)
        hist.append(Trial(round=r, params=p, score=s, gini=0.0,
                          mean_f=0.0, top=()))
    return max(t.score for t in hist)


def trunc_norm_pdf(x, mu, sigma, lo, hi):
    """Scalar truncated-Gaussian density: one kernel at one point."""
    z = (x - mu) / sigma
    phi = np.exp(-0.5 * z * z) / (sigma * math.sqrt(2 * math.pi))
    cdf = 0.5 * (math.erf((hi - mu) / (sigma * math.sqrt(2)))
                 - math.erf((lo - mu) / (sigma * math.sqrt(2))))
    return phi / max(cdf, 1e-300)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kernels=st.integers(1, 40),
       points=st.integers(1, 30), width=st.floats(1e-3, 1e3))
def test_kernel_density_equals_the_scalar_mean(seed, kernels, points, width):
    # the same arithmetic in the same order as one scalar density per
    # (point, kernel) averaged by np.mean, so tpe_suggest's argmax cannot move
    rng = np.random.default_rng(seed)
    lo, hi = -width, 2 * width
    centres = rng.uniform(lo, hi, size=kernels).tolist()
    x = rng.uniform(lo, hi, size=points)
    sigma = 3 * width / math.sqrt(kernels)
    got = _kernel_density(x, centres, sigma, lo, hi)
    want = [np.mean([trunc_norm_pdf(v, mu, sigma, lo, hi) for mu in centres])
            for v in x.tolist()]
    assert got.tolist() == want


def test_tpe_startup_uniform_deterministic():
    a = tpe_suggest([], SPACE_1D, substream(11, "d", 0))
    b = tpe_suggest([], SPACE_1D, substream(11, "d", 0))
    assert a == b
    assert 0.0 <= a["x"] <= 1.0


def test_tpe_respects_joint_budget():
    sp = ParamSpace(intervals={"t_rise": (16.0, 2500.0),
                               "t_fall": (16.0, 2500.0)},
                    total_time_limit=2600.0, ramps=("t_rise", "t_fall"))
    hist = []
    rng = np.random.default_rng(3)
    for r in range(120):
        p = tpe_suggest(hist, sp, substream(7, "b", r))
        assert sp.feasible(p)
        hist.append(Trial(round=r, params=p, score=float(rng.normal()),
                          gini=0.0, mean_f=0.0, top=()))


def test_tpe_beats_uniform_search():
    def uni_best(seed, rounds=50):
        rng = np.random.default_rng(seed)
        return max(-((x - 0.7) ** 2) for x in rng.uniform(0, 1, rounds))

    tpe = [run_tpe(s) for s in range(20)]
    uni = [uni_best(s) for s in range(20)]
    assert np.median(tpe) > np.median(uni)
    assert sum(a > b for a, b in zip(tpe, uni)) >= 13


def test_vqaa_tpe_contract():
    emb = k2_embedding()
    res = vqaa(emb, DEV, family="simple", rounds=12, shots=200,
               optimizer="tpe", seed=0, dt=8.0)
    assert len(res.trials) == 12
    assert [t.round for t in res.trials] == list(range(12))
    best = max(res.trials,
               key=lambda t: (t.score, t.gini, t.mean_f, -t.round))
    assert res.best == best
    assert res.best.score > 0.0
    assert not res.second_pass and not res.low_confidence
    assert res.refined_histogram.shots == 200 * REFINE_SHOT_FACTOR
    again = vqaa(emb, DEV, family="simple", rounds=12, shots=200,
                 optimizer="tpe", seed=0, dt=8.0)
    assert [t.score for t in again.trials] == [t.score for t in res.trials]
    assert again.refined_histogram.counts == res.refined_histogram.counts


def test_vqaa_refines_the_kept_best_state(monkeypatch):
    emb = k2_embedding()
    evolve_calls = []

    def counting_evolve(*args, **kwargs):
        evolve_calls.append(args)
        return evolve(*args, **kwargs)

    monkeypatch.setattr(rydock.optimize, "evolve", counting_evolve)
    res = vqaa(emb, DEV, family="simple", rounds=5, shots=100,
               optimizer="tpe", seed=3, dt=8.0)
    assert not res.second_pass
    assert len(evolve_calls) == 5
    # the re-measure of the kept state equals re-evolving the winner
    sb, hist = evaluate_params(emb, DEV, res.best.params, family="simple",
                               shots=100 * REFINE_SHOT_FACTOR,
                               seed=substream(3, "refine"), dt=8.0)
    assert res.refined == sb
    assert res.refined_histogram.counts == hist.counts


def test_vqaa_trial_log(tmp_path):
    emb = k2_embedding()
    path = tmp_path / "trials.jsonl"
    res = vqaa(emb, DEV, family="simple", rounds=3, shots=100,
               optimizer="tpe", seed=2, dt=8.0, log_path=path)
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert len(lines) == len(res.trials) == 3
    for row, trial in zip(lines, res.trials):
        assert row["round"] == trial.round
        assert row["score"] == pytest.approx(trial.score)
        assert row["params"] == pytest.approx(trial.params)


def test_vqaa_second_pass_on_all_nullified(monkeypatch):
    emb = k2_embedding()
    # an unreachable gini bar nullifies every trial, forcing the retry pass
    monkeypatch.setattr(rydock.optimize, "GINI_THRESHOLD", 2.0)
    res = vqaa(emb, DEV, family="simple", rounds=3, shots=100,
               optimizer="tpe", seed=0, dt=8.0)
    assert res.second_pass
    assert len(res.trials) == 6
    assert res.low_confidence
    assert res.best.score == 0.0
    with pytest.raises(InputError):
        vqaa(emb, DEV, rounds=0)
    with pytest.raises(InputError):
        vqaa(emb, DEV, rounds=1, optimizer="anneal")


def test_vqaa_nm_handles_zero_drive_bound():
    emb = k2_embedding()
    # seed 75 drives the simplex onto the omega=0 box edge; the run must
    # record that as a worthless trial rather than fail
    res = vqaa(emb, DEV, family="simple", rounds=3, shots=100,
               optimizer="nm", seed=75, dt=8.0)
    assert res.best.score > 0.0
    zero = [t for t in res.trials if t.params["omega"] == 0.0]
    assert zero and zero[0].top == (("00", 100),)
    assert zero[0].score == 0.0


@pytest.mark.parametrize("family", ["simple", "complex"])
@pytest.mark.parametrize("optimizer", ["tpe", "nm"])
def test_vqaa_trials_pass_the_hardware_check(optimizer, family):
    # both optimizers search the one space, inside the coherence time; an
    # omega=0 trial takes the exact shortcut and builds no schedule
    emb = k2_embedding()
    res = vqaa(emb, DEV, family=family, rounds=3, shots=50,
               optimizer=optimizer, seed=1, dt=16.0)
    for t in res.trials:
        if t.params["omega"] > 0.0:
            sequence_for(t.params, family, DEV)


def test_replay_of_a_longer_search_matches_standalone_run(monkeypatch):
    # the trials of a 6-round run replay as a 3-round run, and where every
    # trial of those 3 rounds is nullified, as its second pass too
    emb = k2_embedding()
    kw = dict(family="simple", shots=150, optimizer="tpe", seed=0, dt=8.0)
    for threshold, passes in ((GINI_THRESHOLD, 1), (2.0, 2)):
        monkeypatch.setattr(rydock.optimize, "GINI_THRESHOLD", threshold)
        long = vqaa(emb, DEV, rounds=6, **kw)
        short = vqaa(emb, DEV, rounds=3, **kw)
        assert len(short.trials) == 3 * passes
        got = vqaa(emb, DEV, rounds=3, **kw, replay=long.trials)
        assert got.trials == short.trials and got.best == short.best
        assert got.second_pass == short.second_pass == (passes == 2)
        assert got.low_confidence == short.low_confidence
        assert got.refined == short.refined
        assert got.refined_histogram.counts == short.refined_histogram.counts


def test_vqaa_replay_extends_a_shorter_search(monkeypatch):
    # the trials of a 3-round run stand in for rounds 0-2 of a 6-round run,
    # and of the first pass of a search that every trial nullifies
    emb = k2_embedding()
    kw = dict(family="simple", shots=150, optimizer="tpe", seed=0, dt=8.0)
    short = vqaa(emb, DEV, rounds=3, **kw)
    for threshold in (GINI_THRESHOLD, 2.0):
        monkeypatch.setattr(rydock.optimize, "GINI_THRESHOLD", threshold)
        want = vqaa(emb, DEV, rounds=6, **kw)
        got = vqaa(emb, DEV, rounds=6, **kw,
                   replay=vqaa(emb, DEV, rounds=3, **kw).trials)
        assert got.trials == want.trials and got.best == want.best
        assert got.second_pass == want.second_pass
        assert got.refined == want.refined
        assert got.refined_histogram.counts == want.refined_histogram.counts
    with pytest.raises(InputError):
        vqaa(emb, DEV, rounds=6, **dict(kw, optimizer="nm"), replay=short.trials)
    with pytest.raises(InputError):
        vqaa(emb, DEV, rounds=6, **kw, replay=short.trials[1:])


def test_qaa_sweep_matches_direct_evaluation():
    emb = k2_embedding()
    rows = qaa_sweep(emb, DEV, [3.0], [3.0], [1000.0], shots=500, seed=0,
                     dt=4.0)
    assert len(rows) == 1
    seq = sequence_for({"omega": 3.0, "delta": 3.0, "time": 1000.0},
                       "simple", DEV)
    hist = measure(evolve(emb.register, seq, DEV, dt=4.0), 500,
                   substream(0, "sweep", 0, 0, 0))
    want = success_probability(strip_ancillas(hist, emb), emb.graph)
    assert rows[0]["success_prob"] == pytest.approx(want)
    assert rows[0]["omega"] == 3.0


def test_qaa_sweep_nan_and_shape():
    emb = k2_embedding()
    # a dead drive is no pulse at all: unlike a search trial, a sweep cell at
    # omega=0 is infeasible
    rows = qaa_sweep(emb, DEV, [0.0, 3.0, 20.0], [3.0], [500.0, 1000.0],
                     shots=50, seed=1, dt=8.0)
    assert len(rows) == 6
    good = [r for r in rows if r["omega"] == 3.0]
    bad = [r for r in rows if r["omega"] in (0.0, 20.0)]
    assert len(bad) == 4
    assert all(math.isfinite(r["success_prob"]) for r in good)
    assert all(math.isnan(r["success_prob"]) for r in bad)


def test_evaluate_params_end_to_end():
    emb = k2_embedding()
    params = {"omega": 3.0, "delta": 3.0, "time": 1000.0}
    sb, hist = evaluate_params(emb, DEV, params, family="simple",
                               shots=400, seed=6, dt=4.0)
    assert score(hist, emb.graph) == sb
    sb2, hist2 = evaluate_params(emb, DEV, params, family="simple",
                                 shots=400, seed=6, dt=4.0)
    assert hist2.counts == hist.counts
    # the omega=0 box edge is exact: the register never leaves the ground
    # state, so the result is all zeros and a nullified score
    sb0, hist0 = evaluate_params(emb, DEV, {**params, "omega": 0.0},
                                 family="simple", shots=50, seed=0)
    assert hist0.counts == {"00": 50}
    assert sb0.nullified and sb0.score == 0.0


SRC = Path(rydock.optimize.__file__).resolve().parent
EVALUATION_STEPS = ("evolve", "measure", "strip_ancillas")


def _evaluation_calls(tree):
    """(line, name) of every call of evolve, measure or strip_ancillas, by
    bare name or as an attribute, in a module's syntax tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in EVALUATION_STEPS:
                found.append((node.lineno, name))
    return found


def test_only_optimize_evaluates_pulses():
    # a pulse is evolved, measured and stripped in optimize._outcome alone,
    # so there is one evaluation path; simulator defines the first two
    tree = ast.parse((SRC / "optimize.py").read_text())
    outcome = [fn for fn in tree.body if getattr(fn, "name", None) == "_outcome"]
    assert [sorted(name for _, name in _evaluation_calls(fn)) for fn in outcome] == [
        ["evolve", "measure", "strip_ancillas"]]
    assert len(_evaluation_calls(tree)) == 3
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel in ("optimize.py", "simulator.py"):
            continue
        offenders += [f"{rel}:{line}: {name}"
                      for line, name in _evaluation_calls(ast.parse(path.read_text()))]
    assert offenders == []
    code = ("from .simulator import evolve\n"
            "def f(emb, seq, dev, simulator, register):\n"
            "    s = evolve(emb.register, seq, dev)\n"
            "    return register.strip_ancillas(simulator.measure(s, 9, 0), emb)\n")
    assert sorted(_evaluation_calls(ast.parse(code))) == [
        (3, "evolve"), (4, "measure"), (4, "strip_ancillas")]
