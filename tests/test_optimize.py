"""Scoring, search spaces, the two optimizers, and the vqaa loop."""

import json
import math

import numpy as np
import pytest

import rydock.optimize
from rydock.errors import InputError
from rydock.graphs import WeightedGraph
from rydock.histogram import Histogram
from rydock.optimize import (
    GINI_THRESHOLD,
    REFINE_SHOT_FACTOR,
    SearchSpace,
    Trial,
    evaluate_params,
    is_independent_bits,
    nelder_mead,
    normalized_score,
    prefix_result,
    qaa_sweep,
    score,
    search_space,
    sequence_for,
    success_probability,
    tpe_suggest,
    vqaa,
)
from rydock.register import DeviceParams, embedding_from_positions, strip_ancillas
from rydock.rng import substream
from rydock.simulator import evolve, measure

DEV = DeviceParams()
PATH3 = WeightedGraph.from_parts("abc", [("a", "b"), ("b", "c")])


def k2_embedding():
    g = WeightedGraph.from_parts(["a", "b"], [("a", "b")])
    return embedding_from_positions([(0, 0), (9, 0)], DEV, ids=["a", "b"],
                                    spacing=9.0, graph=g)


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


def test_nullification_threshold_is_strict():
    hist = Histogram(shots=100, counts={"101": 90, "010": 10})
    gini = 1.0 - (0.81 + 0.01)
    assert gini < GINI_THRESHOLD
    sb = score(hist, PATH3)
    assert sb.nullified and sb.score == 0.0
    raw = score(hist, PATH3, gini_threshold=None)
    assert not raw.nullified
    assert raw.score == pytest.approx(raw.mean_f * gini)
    at = score(hist, PATH3, gini_threshold=gini)
    assert not at.nullified  # nullification needs gini strictly below


def test_score_width_mismatch():
    with pytest.raises(InputError):
        score(Histogram(shots=1, counts={"10": 1}), PATH3)


def test_score_bounds_on_random_inputs():
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
        sb = score(hist, g, gini_threshold=None)
        assert 0.0 <= sb.score <= sb.mean_f <= 1.0
        assert 0.0 <= sb.gini < 1.0


def test_score_relabeling_invariance():
    rng = np.random.default_rng(21)
    g = WeightedGraph.from_parts(
        "abcd", [("a", "b"), ("b", "c"), ("c", "d")], weights=[1, 2, 3, 4])
    raw = {"0101": 30, "1010": 50, "1111": 20}
    base = score(Histogram(shots=100, counts=raw), g, gini_threshold=None)
    for _ in range(10):
        perm = rng.permutation(4)
        ids = [g.vertex_ids[p] for p in perm]
        edges = sorted(
            tuple(sorted((u, v), key=ids.index)) for u, v in g.edges)
        g2 = WeightedGraph.from_parts(
            ids, edges, weights=[g.weights[p] for p in perm])
        remapped = {"".join(bits[p] for p in perm): c for bits, c in raw.items()}
        sb = score(Histogram(shots=100, counts=remapped), g2,
                   gini_threshold=None)
        assert sb.mean_f == pytest.approx(base.mean_f)
        assert sb.gini == pytest.approx(base.gini)
        assert sb.score == pytest.approx(base.score)


def test_is_independent_bits():
    assert is_independent_bits("101", PATH3)
    assert is_independent_bits("000", PATH3)
    assert not is_independent_bits("110", PATH3)
    assert not is_independent_bits("111", PATH3)


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


def test_search_space_contracts():
    emb = k2_embedding()
    simple = search_space(emb, DEV, "simple")
    assert simple.names == ("omega", "delta", "time")
    assert simple.intervals["delta"] == (0.05, DEV.delta_abs_max)
    assert simple.intervals["time"] == (32.0, DEV.coherence_time)
    assert simple.total_time_limit is None

    comp = search_space(emb, DEV, "complex")
    assert comp.names == ("t_rise", "t_fall", "omega", "delta0", "deltaf")
    assert comp.intervals["t_rise"] == (16.0, 2500.0)
    assert comp.total_time_limit == DEV.coherence_time

    relaxed = search_space(emb, DEV, "complex", relaxed=True)
    assert relaxed.total_time_limit == 2 * DEV.coherence_time
    assert relaxed.intervals["t_rise"][1] == 5000.0

    with pytest.raises(InputError):
        search_space(emb, DEV, "fancy")


def test_clamp_and_feasible():
    sp = SearchSpace(family="complex",
                     intervals={"t_rise": (16.0, 4000.0),
                                "t_fall": (16.0, 4000.0)},
                     total_time_limit=5000.0)
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
    assert len(seq.segments) == 1
    assert seq.total_duration == pytest.approx(800.0)
    seq = sequence_for({"t_rise": 100.0, "t_fall": 400.0, "omega": 4.0,
                        "delta0": 2.0, "deltaf": 5.0}, "complex", DEV)
    assert len(seq.segments) == 2
    assert seq.total_duration == pytest.approx(500.0)
    with pytest.raises(InputError):
        sequence_for({}, "fancy", DEV)


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


SPACE_1D = SearchSpace(family="simple", intervals={"x": (0.0, 1.0)})


def run_tpe(seed, rounds=50):
    hist = []
    for r in range(rounds):
        p = tpe_suggest(hist, SPACE_1D, substream(seed, "s", r))
        assert 0.0 <= p["x"] <= 1.0
        s = -((p["x"] - 0.7) ** 2)
        hist.append(Trial(round=r, params=p, score=s, gini=0.0,
                          mean_f=0.0, top=()))
    return max(t.score for t in hist)


def test_tpe_startup_uniform_deterministic():
    a = tpe_suggest([], SPACE_1D, substream(11, "d", 0))
    b = tpe_suggest([], SPACE_1D, substream(11, "d", 0))
    assert a == b
    assert 0.0 <= a["x"] <= 1.0


def test_tpe_respects_joint_budget():
    sp = SearchSpace(family="complex",
                     intervals={"t_rise": (16.0, 2500.0),
                                "t_fall": (16.0, 2500.0)},
                     total_time_limit=2600.0)
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


def test_vqaa_second_pass_on_all_nullified():
    emb = k2_embedding()
    # an unreachable gini bar nullifies every trial, forcing the retry pass
    res = vqaa(emb, DEV, family="simple", rounds=3, shots=100,
               optimizer="tpe", seed=0, dt=8.0, gini_threshold=2.0)
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
    # seed 1 drives the simplex onto the omega=0 box edge; the run must
    # record that as a worthless trial rather than fail
    res = vqaa(emb, DEV, family="simple", rounds=3, shots=100,
               optimizer="nm", seed=1, dt=8.0)
    assert res.best.score > 0.0
    zero = [t for t in res.trials if t.params["omega"] == 0.0]
    assert zero and zero[0].top == (("00", 100),)
    assert zero[0].score == 0.0


def test_prefix_result_matches_standalone_run():
    emb = k2_embedding()
    long = vqaa(emb, DEV, family="simple", rounds=6, shots=150,
                optimizer="tpe", seed=0, dt=8.0)
    short = vqaa(emb, DEV, family="simple", rounds=3, shots=150,
                 optimizer="tpe", seed=0, dt=8.0)
    assert not short.second_pass
    for a, b in zip(long.trials[:3], short.trials):
        assert a.params == pytest.approx(b.params)
        assert a.score == b.score
    pre = prefix_result(emb, DEV, long.trials, 3, family="simple",
                        shots=150, seed=0, dt=8.0)
    assert pre.best == short.best
    assert pre.refined_histogram.counts == short.refined_histogram.counts
    assert len(pre.trials) == 3
    with pytest.raises(InputError):
        prefix_result(emb, DEV, long.trials, 0)
    with pytest.raises(InputError):
        prefix_result(emb, DEV, long.trials, 99)


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
    rows = qaa_sweep(emb, DEV, [3.0, 20.0], [3.0], [500.0, 1000.0],
                     shots=50, seed=1, dt=8.0)
    assert len(rows) == 4
    good = [r for r in rows if r["omega"] == 3.0]
    bad = [r for r in rows if r["omega"] == 20.0]
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
