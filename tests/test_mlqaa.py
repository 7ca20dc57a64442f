"""Geometry featurization, the graph regressor, and the labelled corpus."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

import rydock.mlqaa
from rydock.errors import InputError
from rydock.mlqaa import (
    DatasetRecord,
    TARGETS,
    GcnModel,
    corpus_entry,
    featurize,
    generate_corpus,
    label_dataset,
    load_dataset,
    load_models,
    mape,
    predict_params,
    save_dataset,
    save_models,
    shape_positions,
    train,
    train_holdout_split,
    train_models,
)
from rydock.mlqaa import gcn
from rydock.mlqaa.dataset import _canonical_trial
from rydock.mlqaa.gcn import (
    DROPOUT,
    HIDDEN,
    LAYERS,
    MODEL_VERSION,
    TARGET_SCALES,
    _adam_step,
    _drop_masks,
    _forward_batch,
    _from_scale,
    _pack,
    _to_scale,
    _views,
    _weight_names,
    init_weights,
    loss_and_gradients,
)
from rydock import cli, optimize
from rydock.optimize import Trial, evaluate_params, search_space, vqaa
from rydock.register import DeviceParams, embedding_from_positions, omega_bounds
from rydock.rng import substream

import measure_mlqaa

DEV = DeviceParams()


def _line(n, s):
    return np.array([[i * s, 0.0] for i in range(n)])


def _model(target, seed, t_lo=0.0, t_hi=1.0):
    return GcnModel(weights=init_weights(seed), target=target, t_lo=t_lo, t_hi=t_hi)


def _model_set(seed, t_lo=0.0, t_hi=1.0):
    """Five views of one weight set, as train_models and load_models return."""
    weights = init_weights(seed)
    return {t: GcnModel(weights=weights, target=t, t_lo=t_lo, t_hi=t_hi) for t in TARGETS}


def _output(model, feats):
    """Dropout-free output of `model`'s target for one graph (normalised
    target space)."""
    adj, mask = _pack([feats])
    y, _, _ = _forward_batch(model.weights, adj, mask)
    return float(y[0, TARGETS.index(model.target)])


def _predict(model, feats, band):
    """`model`'s prediction for one graph in device units, given its Rabi band."""
    return model.label(_output(model, feats), band)


def _record(spacing, n=2, omega=None):
    pos = tuple((i * spacing, 0.0) for i in range(n))
    emb = embedding_from_positions(list(pos), DEV, spacing=spacing)
    lo, hi = omega_bounds(emb, DEV)
    params = {
        "t_rise": 300.0,
        "t_fall": 700.0,
        "omega": 0.5 * (lo + hi) if omega is None else omega,
        "delta0": 2.0,
        "deltaf": 4.0,
    }
    return DatasetRecord(
        family="line", size_index=n - 2, spacing=float(spacing),
        ids=tuple(f"a{i}" for i in range(n)), positions=pos,
        params=params, score=0.5, rounds=4, seed=0,
    )


def test_featurize_two_atoms():
    f = featurize(np.array([[0.0, 0.0], [5.0, 0.0]]))
    assert f.shape == (2, 2)
    assert f.tolist() == [[1.0, 1.0 / 25.0], [1.0 / 25.0, 1.0]]


def test_featurize_complete_digraph():
    for n in (3, 5, 8):
        rng = substream(7, "feat", n)
        pos = rng.uniform(0.0, 60.0, size=(n, 2))
        f = featurize(pos)
        assert f.shape == (n, n)
        assert np.all(np.diag(f) == 1.0)
        assert np.all(f > 0.0) and np.array_equal(f, f.T)


def test_featurize_accepts_register_embedding_positions():
    pos = _line(3, 9.0)
    emb = embedding_from_positions([tuple(p) for p in pos], DEV, spacing=9.0)
    fa = featurize(pos)
    for other in (featurize(emb.register.positions()), featurize(pos.tolist())):
        assert fa.tobytes() == other.tobytes()


def test_featurize_rigid_motion_invariance():
    rng = substream(3, "rigid")
    pos = rng.uniform(0.0, 40.0, size=(6, 2))
    theta = 1.234
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    moved = pos @ rot.T + np.array([17.0, -4.0])
    assert np.allclose(featurize(pos), featurize(moved))


def test_featurize_errors():
    with pytest.raises(InputError):
        featurize(np.array([[0.0, 0.0]]))
    with pytest.raises(InputError):
        featurize(np.array([[1.0, 2.0], [1.0, 2.0], [9.0, 0.0]]))


def test_propagation_matrix_hand_values():
    f = featurize(np.array([[0.0, 0.0], [5.0, 0.0]]))
    assert np.allclose(f, [[1.0, 0.04], [0.04, 1.0]])
    # 3-4-5 right triangle keeps each inverse squared side, unnormalised
    p = featurize(np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]]))
    assert np.allclose(np.diag(p), 1.0)
    assert np.isclose(p[0, 1], 1.0 / 9.0)
    assert np.isclose(p[0, 2], 1.0 / 16.0)
    assert np.isclose(p[1, 2], 1.0 / 25.0)
    assert np.allclose(p, p.T)


def test_forward_sees_length_scale():
    model = _model("t_rise", seed=5)
    pos = _line(4, 8.0)
    a = _output(model, featurize(pos))
    b = _output(model, featurize(2.0 * pos))
    assert abs(a - b) > 1e-6


def test_label_scale_transforms():
    assert TARGET_SCALES == {
        "t_rise": "identity", "t_fall": "identity",
        "omega": "band", "delta0": "bandtop", "deltaf": "bandtop",
    }
    band = (2.0, 10.0)
    assert _to_scale(6.0, "band", band) == pytest.approx(0.5)
    assert _from_scale(0.25, "band", band) == pytest.approx(4.0)
    assert _to_scale(4.0, "bandtop", (0.0, 8.0)) == pytest.approx(0.5)
    assert _from_scale(0.5, "bandtop", (0.0, 8.0)) == pytest.approx(4.0)
    assert _to_scale(3.3, "identity", None) == 3.3
    for scale in ("identity", "band", "bandtop"):
        for v in (0.31, 4.7):
            z = _to_scale(v, scale, band)
            assert _from_scale(z, scale, band) == pytest.approx(v)


def gradient_check(model: GcnModel, feats_list, target_values,
                   n_sample: int = 100, n_head: int = 40, step: float = 1e-5,
                   seed: int = 0) -> float:
    """Max relative error of analytic vs central-difference gradients, at
    n_sample weights drawn from the whole model plus n_head of the head's
    `hw` and every entry of its bias `hb`."""
    adj, mask = _pack(feats_list)
    targets = np.asarray(target_values, dtype=float)
    weights = {k: v.copy() for k, v in model.weights.items()}
    _, grads, _ = loss_and_gradients(weights, adj, mask, targets)
    rng = substream(seed, "gradcheck")
    names = _weight_names()
    sizes = np.array([weights[k].size for k in names])
    total = int(sizes.sum())
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    head = offsets[names.index("hw")]
    picks = np.concatenate([
        rng.choice(total, size=min(n_sample, total), replace=False),
        head + rng.choice(weights["hw"].size, size=n_head, replace=False),
        offsets[names.index("hb")] + np.arange(weights["hb"].size),
    ])
    worst = 0.0
    for flat in picks:
        arr_k = int(np.searchsorted(offsets, flat, side="right") - 1)
        name = names[arr_k]
        local = int(flat - offsets[arr_k])
        idx = np.unravel_index(local, weights[name].shape)
        keep = weights[name][idx]
        weights[name][idx] = keep + step
        lp, _, _ = loss_and_gradients(weights, adj, mask, targets)
        weights[name][idx] = keep - step
        lm, _, _ = loss_and_gradients(weights, adj, mask, targets)
        weights[name][idx] = keep
        numeric = (lp - lm) / (2 * step)
        analytic = grads[name][idx]
        err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        worst = max(worst, err)
    return float(worst)


def test_gradients_match_finite_differences():
    rng = substream(11, "gc")
    feats = [featurize(rng.uniform(0.0, 50.0, size=(n, 2))) for n in (4, 3)]
    weights = init_weights(3)
    assert weights["hw"].shape == (HIDDEN, len(TARGETS))
    assert weights["hb"].shape == (len(TARGETS),)
    weights["hb"] = rng.uniform(0.0, 1.0, size=len(TARGETS))
    model = GcnModel(weights=weights, target="omega", t_lo=0.0, t_hi=1.0)
    targets = rng.uniform(0.0, 1.0, size=(2, len(TARGETS)))
    worst = gradient_check(model, feats, targets, seed=2)
    assert worst < 1e-4


def test_loss_is_the_mean_over_batch_and_targets():
    feats = [featurize(_line(3, 8.0)), featurize(_line(2, 6.5))]
    adj, mask = _pack(feats)
    weights = init_weights(4)
    targets = substream(4, "tg").uniform(0.0, 1.0, size=(2, len(TARGETS)))
    loss, _, y = loss_and_gradients(weights, adj, mask, targets)
    assert y.shape == (2, len(TARGETS))
    assert loss == pytest.approx(float(np.mean((y - targets) ** 2)), rel=1e-12)
    # each column is its target's output of the one forward
    models = _model_set(4)
    for k, t in enumerate(TARGETS):
        assert _output(models[t], feats[0]) == pytest.approx(y[0, k], abs=1e-12)


def test_forward_permutation_invariance():
    rng = substream(9, "perm")
    pos = rng.uniform(0.0, 45.0, size=(6, 2))
    model = _model("deltaf", seed=1)
    base = _output(model, featurize(pos))
    for k in range(4):
        perm = substream(9, "perm", k).permutation(6)
        assert _output(model, featurize(pos[perm])) == pytest.approx(base, abs=1e-8)


def test_batch_padding_matches_single_forward():
    model = _model("delta0", seed=2)
    fa = featurize(_line(2, 7.0))
    fb = featurize(_line(5, 9.0))
    adj, mask = _pack([fa, fb])
    assert adj.shape == (2, 5, 5)
    y, _, _ = _forward_batch(model.weights, adj, mask)
    k = TARGETS.index("delta0")
    assert y[0, k] == pytest.approx(_output(model, fa), abs=1e-10)
    assert y[1, k] == pytest.approx(_output(model, fb), abs=1e-10)


def test_adam_step_matches_textbook_update():
    rng = substream(4, "adam")
    weights = {"W": rng.normal(size=(6, 5)), "b": rng.normal(size=5),
               "c": rng.normal(size=1)}
    ref_w = {k: v.copy() for k, v in weights.items()}
    ref_m = {k: np.zeros_like(v) for k, v in weights.items()}
    ref_v = {k: np.zeros_like(v) for k, v in weights.items()}
    m = {k: np.zeros_like(w) for k, w in weights.items()}
    v = {k: np.zeros_like(w) for k, w in weights.items()}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    for step in range(1, 8):
        lr = 1e-2 * 0.7 ** step
        grads = {k: rng.normal(size=w.shape) * 10.0 ** rng.integers(-4, 2)
                 for k, w in weights.items()}
        for k in weights:
            _adam_step(weights[k], grads[k], m[k], v[k], step, lr)
        for k, g in grads.items():
            ref_m[k] = beta1 * ref_m[k] + (1 - beta1) * g
            ref_v[k] = beta2 * ref_v[k] + (1 - beta2) * g * g
            mhat = ref_m[k] / (1 - beta1 ** step)
            vhat = ref_v[k] / (1 - beta2 ** step)
            ref_w[k] = ref_w[k] - lr * mhat / (np.sqrt(vhat) + eps)
        for k in weights:
            assert np.max(np.abs(weights[k] - ref_w[k])) <= 1e-12
            assert np.max(np.abs(m[k] - ref_m[k])) <= 1e-12
            assert np.max(np.abs(v[k] - ref_v[k])) <= 1e-12


def _per_array_adam(w, g, m, v, step, lr, buf=None, beta1=0.9, beta2=0.999, eps=1e-8):
    """Reference Adam: the same arithmetic, one weight array at a time,
    over the flat buffers' per-array views."""
    a = lr / (1.0 - beta1 ** step)
    s = 1.0 / math.sqrt(1.0 - beta2 ** step)
    like = init_weights(0)
    for wk, gk, mk, vk in zip(*(_views(x, like).values() for x in (w, g, m, v))):
        buf = np.multiply(gk, 1.0 - beta1)
        mk *= beta1
        mk += buf
        np.multiply(gk, gk, out=buf)
        buf *= 1.0 - beta2
        vk *= beta2
        vk += buf
        np.sqrt(vk, out=buf)
        buf *= s
        buf += eps
        np.divide(mk, buf, out=buf)
        buf *= a
        wk -= buf


def test_flat_buffer_training_equals_per_array_adam(monkeypatch):
    records = [_record(s, n=n) for s, n in ((7.0, 2), (8.0, 3), (9.0, 3), (10.0, 4), (6.5, 2))]
    monkeypatch.setattr("rydock.mlqaa.gcn.BATCH_SIZE", 2)
    got = train_models(records, epochs=6, seed=2)
    monkeypatch.setattr("rydock.mlqaa.gcn._adam_step", _per_array_adam)
    want = train_models(records, epochs=6, seed=2)
    for t in TARGETS:
        assert got[t].history == want[t].history
        assert all(got[t].weights[k].tobytes() == want[t].weights[k].tobytes()
                   for k in want[t].weights)
    # gradients written into a flat buffer's views equal freshly allocated ones
    adj, mask = _pack([featurize(r.positions) for r in records])
    weights, targets = init_weights(5), np.linspace(0.0, 1.0, len(records))
    fresh = loss_and_gradients(weights, adj, mask, targets)[1]
    flat = np.full(sum(w.size for w in weights.values()), np.nan)
    loss_and_gradients(weights, adj, mask, targets, grads=_views(flat, weights))
    assert all(_views(flat, weights)[k].tobytes() == fresh[k].tobytes() for k in fresh)


def test_preallocated_training_equals_allocating_training(monkeypatch):
    # Adam's scratch buffer and the dropout draw are allocated once per
    # training; fresh arrays at every step give the same weights bit for bit
    records = [_record(s, n=n) for s, n in ((7.0, 2), (8.0, 3), (9.0, 4), (10.0, 3), (6.5, 2))]
    monkeypatch.setattr("rydock.mlqaa.gcn.BATCH_SIZE", 3)
    got = train_models(records, epochs=4, seed=3)
    adam, drop = gcn._adam_step, gcn._drop_masks
    monkeypatch.setattr("rydock.mlqaa.gcn._adam_step",
                        lambda w, g, m, v, step, lr, buf: adam(w, g, m, v, step, lr))
    monkeypatch.setattr("rydock.mlqaa.gcn._drop_masks",
                        lambda rng, b, n, scratch: drop(rng, b, n))
    want = train_models(records, epochs=4, seed=3)
    assert got["omega"].history == want["omega"].history
    assert all(got["omega"].weights[k].tobytes() == want["omega"].weights[k].tobytes()
               for k in _weight_names())


def test_drop_masks_one_draw_equals_per_layer_draws():
    masks = _drop_masks(substream(6, "drop"), 3, 7)
    rng = substream(6, "drop")
    assert masks.shape == (LAYERS, 3, 7, HIDDEN)
    for layer in range(LAYERS):
        keep = (rng.random((3, 7, HIDDEN)) >= DROPOUT).astype(float)
        assert np.array_equal(masks[layer], keep / (1.0 - DROPOUT))
    # drawn into larger scratch buffers, the masks are the same
    size = LAYERS * 4 * 7 * HIDDEN
    scratch = np.full(size, np.nan), np.empty(size, dtype=bool)
    again = _drop_masks(substream(6, "drop"), 3, 7, scratch)
    assert np.shares_memory(again, scratch[0])
    assert np.array_equal(again, masks)


def test_train_overfits_single_record(monkeypatch):
    # masks of exactly 1.0 leave every product unchanged: no dropout
    monkeypatch.setattr("rydock.mlqaa.gcn.DROPOUT", 0.0)
    rec = _record(9.0, n=3)
    model = train([rec], "t_rise", epochs=250, seed=0)
    assert min(tl for tl, _ in model.history) < 1e-3
    pred = _predict(model, featurize(rec.positions), None)
    assert pred == pytest.approx(300.0, abs=0.5)


def test_train_determinism():
    recs = [_record(s) for s in (6.0, 7.5, 9.0, 11.0)]
    a = train_models(recs, epochs=3, seed=1)["t_fall"]
    b = train_models(recs, epochs=3, seed=1)["t_fall"]
    assert a.weights.keys() == b.weights.keys()
    for k in a.weights:
        assert np.array_equal(a.weights[k], b.weights[k])
    c = train_models(recs, epochs=3, seed=2)["t_fall"]
    assert any(not np.array_equal(a.weights[k], c.weights[k]) for k in a.weights)


def test_train_models_is_one_weight_set_with_a_mean_head_bias(monkeypatch):
    recs = [_record(s, n=n) for s, n in ((6.0, 2), (7.5, 3), (9.0, 2), (11.0, 3))]
    models = train_models(recs, epochs=1, seed=4)
    assert list(models) == list(TARGETS)
    weights = models["t_rise"].weights
    assert all(models[t].weights is weights for t in TARGETS)
    assert all(models[t].history == models["t_rise"].history for t in TARGETS)
    assert weights["hw"].shape == (HIDDEN, 5) and weights["hb"].shape == (5,)
    # with no epoch run, the head bias is the training split's mean
    # normalised target, and the head weights keep their uniform init
    monkeypatch.setattr("rydock.mlqaa.gcn.VAL_FRAC", 0.25)
    start = train_models(recs, epochs=0, seed=4)
    assert start["t_rise"].history == ()
    val = set(substream(4, "val").permutation(4)[:1].tolist())
    for k, t in enumerate(TARGETS):
        m = start[t]
        labels = [
            gcn._to_scale(r.params[t], TARGET_SCALES[t], omega_bounds(r.embedding(DEV), DEV))
            for r in recs
        ]
        assert m.t_lo == min(labels)
        want = np.mean([(v - m.t_lo) / (m.t_hi - m.t_lo)
                        for j, v in enumerate(labels) if j not in val])
        assert m.weights["hb"][k] == pytest.approx(want, abs=1e-15)
    bound = math.sqrt(6.0 / (HIDDEN + 5))
    assert np.array_equal(start["omega"].weights["hw"], init_weights(4)["hw"])
    assert 0.9 * bound < np.abs(init_weights(4)["hw"]).max() <= bound


def test_train_band_scale_inverts_per_register(monkeypatch):
    # Both labels sit at the exact middle of their own usable band, so a
    # model fit in band fraction must come back at mid-band in rad/us for
    # each register separately even though the two bands barely overlap.
    monkeypatch.setattr("rydock.mlqaa.gcn.DROPOUT", 0.0)
    recs = [_record(6.0, omega=None), _record(11.0, omega=None)]
    model = train(recs, "omega", epochs=300, seed=0, dev=DEV)
    for rec in recs:
        lo, hi = omega_bounds(rec.embedding(DEV), DEV)
        got = _predict(model, featurize(rec.positions), (lo, hi))
        assert abs(got - 0.5 * (lo + hi)) <= 0.05 * (hi - lo)


def test_train_errors():
    with pytest.raises(InputError):
        train([_record(9.0)], "phase")
    with pytest.raises(InputError):
        train([], "omega")
    with pytest.raises(InputError):
        train_models([])
    with pytest.raises(InputError, match="unknown target 'phase'"):
        _model("phase", seed=0)


def _fresh_cache(monkeypatch):
    """Empty train's one-entry cache, and count the trainings it runs."""
    monkeypatch.setattr("rydock.mlqaa.gcn._last_set", (None, None))
    calls = []
    inner = gcn.train_models

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr("rydock.mlqaa.gcn.train_models", counted)
    return calls


def test_train_is_a_view_of_train_models(monkeypatch):
    recs = [_record(s, n=n) for s, n in ((6.0, 2), (7.5, 3), (9.0, 2), (11.0, 3))]
    calls = _fresh_cache(monkeypatch)
    views = {t: train(recs, t, epochs=3, seed=1) for t in TARGETS}
    assert len(calls) == 1
    models = train_models(recs, epochs=3, seed=1)
    for t in TARGETS:
        assert (views[t].target, views[t].t_lo, views[t].t_hi, views[t].history) == (
            t, models[t].t_lo, models[t].t_hi, models[t].history)
        assert all(views[t].weights[k].tobytes() == models[t].weights[k].tobytes()
                   for k in _weight_names())
    # the cached weights are shared by every hit, so they cannot be written
    with pytest.raises(ValueError):
        views["omega"].weights["hb"][0] = 0.0


def test_train_cache_misses_on_any_changed_input(monkeypatch):
    recs = [_record(s) for s in (6.0, 7.5, 9.0)]
    calls = _fresh_cache(monkeypatch)
    base = train(recs, "omega", epochs=2, seed=0)
    assert train(recs, "t_rise", epochs=2, seed=0).weights is base.weights
    assert train(list(recs), "deltaf", epochs=2, seed=0, dev=DEV).weights is base.weights
    assert len(calls) == 1
    moved = [recs[0], recs[1], _record(9.5)]
    relabelled = [recs[0], recs[1], replace(recs[2], params={**recs[2].params, "delta0": 2.5})]
    for args, kwargs in (
        ((moved, "omega"), dict(epochs=2, seed=0)),
        ((relabelled, "omega"), dict(epochs=2, seed=0)),
        ((recs, "omega"), dict(epochs=3, seed=0)),
        ((recs, "omega"), dict(epochs=2, seed=1)),
        ((recs, "omega"), dict(epochs=2, seed=0, dev=replace(DEV, omega_max=14.0))),
    ):
        before = len(calls)
        train(*args, **kwargs)
        assert len(calls) == before + 1, (args, kwargs)
    for name, value in (("DROPOUT", 0.2), ("BATCH_SIZE", 2), ("LEARNING_RATE", (1e-3, 1e-4)),
                        ("VAL_FRAC", 0.4), ("HIDDEN", 16), ("LAYERS", 2)):
        train(recs, "omega", epochs=2, seed=0)
        before = len(calls)
        with monkeypatch.context() as m:
            m.setattr(f"rydock.mlqaa.gcn.{name}", value)
            train(recs, "omega", epochs=2, seed=0)
        assert len(calls) == before + 1, name


def test_mape_contract():
    assert mape([1.0, 2.0], [2.0, 2.0]) == pytest.approx(25.0)
    with pytest.raises(InputError):
        mape([1.0], [1.0, 2.0])
    with pytest.warns(UserWarning, match="excluded"):
        assert mape([1.0, 1.0], [0.0, 2.0]) == pytest.approx(50.0)
    with pytest.raises(InputError), pytest.warns(UserWarning):
        mape([1.0, 1.0], [0.0, 0.0])


def test_predict_params_stays_in_space():
    models = _model_set(seed=1, t_lo=-3.0, t_hi=9.0)
    emb = embedding_from_positions([(0.0, 0.0), (9.0, 0.0), (18.0, 0.0)],
                                   DEV, spacing=9.0)
    out = predict_params(models, emb, DEV)
    space = search_space(emb, DEV, "complex")
    assert set(out) == set(space.intervals)
    assert space.feasible(out)
    short = dict(models)
    del short["omega"]
    with pytest.raises(InputError):
        predict_params(short, emb, DEV)
    # the five predictions come from one forward of one weight set
    mixed = {**models, "omega": _model("omega", seed=2)}
    with pytest.raises(InputError, match="share one weight set"):
        predict_params(mixed, emb, DEV)
    feats = featurize(emb.register.positions())
    band = omega_bounds(emb, DEV)
    _, unclamped = gcn.predict_unclamped(models, emb, DEV)
    assert unclamped == {t: _predict(models[t], feats, band) for t in TARGETS}


def test_save_load_roundtrip(tmp_path, monkeypatch):
    recs = [_record(s) for s in (6.0, 8.0, 10.0)]
    models = train_models(recs, epochs=2, seed=0, dev=DEV)
    path = tmp_path / "models.npz"
    save_models(models, path, meta={"note": "roundtrip"})
    loaded = load_models(path)
    assert list(loaded) == list(TARGETS)
    # the weight set is stored once, and loads as one shared set
    with np.load(path) as data:
        assert sorted(data.files) == sorted([*_weight_names(), "__meta__"])
    assert all(loaded[t].weights is loaded["omega"].weights for t in TARGETS)
    # npz arrays and JSON floats round-trip exactly
    for name, model in models.items():
        other = loaded[name]
        assert other.target == name
        assert other.t_lo == model.t_lo
        assert other.t_hi == model.t_hi
    emb = embedding_from_positions(_line(3, 8.5), DEV, spacing=8.5)
    assert (gcn.predict_unclamped(loaded, emb, DEV)[1]
            == gcn.predict_unclamped(models, emb, DEV)[1])
    monkeypatch.setattr("rydock.mlqaa.gcn.MODEL_VERSION", "999")
    with pytest.raises(InputError):
        load_models(path)


def test_canonical_trial_prefers_center_of_plateau():
    emb = embedding_from_positions([(0.0, 0.0), (9.0, 0.0)], DEV, spacing=9.0)
    space = search_space(emb, DEV, "complex")
    center = {k: 0.5 * (lo + hi) for k, (lo, hi) in space.intervals.items()}
    edge = {k: lo + 0.9 * (hi - lo) for k, (lo, hi) in space.intervals.items()}
    t_edge = Trial(round=0, params=edge, score=1.0, gini=0.5, mean_f=0.5, top=())
    t_mid = Trial(round=1, params=center, score=0.96, gini=0.5, mean_f=0.5, top=())
    t_low = Trial(round=2, params=center, score=0.2, gini=0.1, mean_f=0.2, top=())
    assert _canonical_trial([t_edge, t_mid, t_low], space) is t_mid
    # below the plateau cut the centre candidate loses to the lone best
    assert _canonical_trial([t_edge, t_low], space) is t_edge
    # equal distance falls back to the earlier round
    t_mid2 = Trial(round=0, params=dict(center), score=0.98, gini=0.5,
                   mean_f=0.5, top=())
    assert _canonical_trial([t_mid, t_mid2], space) is t_mid2


def test_train_holdout_split():
    recs = [_record(6.0 + 0.5 * k) for k in range(10)]
    tr_a, ho_a = train_holdout_split(recs, seed=0)
    tr_b, ho_b = train_holdout_split(recs, seed=0)
    assert [r.name for r in tr_a] == [r.name for r in tr_b]
    assert [r.name for r in ho_a] == [r.name for r in ho_b]
    assert len(ho_a) == 2
    assert len(tr_a) + len(ho_a) == len(recs)
    names = {r.name for r in tr_a} | {r.name for r in ho_a}
    assert len(names) == len(recs)
    with pytest.raises(InputError):
        train_holdout_split(recs, holdout_frac=0.0)
    with pytest.raises(InputError):
        train_holdout_split(recs, holdout_frac=1.0)


def test_shape_positions_hand_cases():
    assert np.allclose(shape_positions("line", 0, 7.25), [[0.0, 0.0], [7.25, 0.0]])
    hexagon = shape_positions("hexagon", 0, 8.0)
    assert hexagon.shape == (6, 2)
    assert np.allclose(np.linalg.norm(hexagon, axis=1), 8.0)
    expected_counts = {
        "line": [2, 3, 4, 5, 6],
        "rectangle": [4, 6, 8, 9, 10],
        "triangle": [3, 6, 10, 9, 12],
        "tri_lattice": [4, 6, 8, 9, 10],
        "hexagon": [6, 7, 10, 11, 12],
    }
    for family, counts in expected_counts.items():
        for k, want in enumerate(counts):
            assert shape_positions(family, k, 8.5).shape == (want, 2)
    with pytest.raises(InputError):
        shape_positions("line", 5, 8.0)
    with pytest.raises(InputError):
        shape_positions("line", 0, 0.0)
    with pytest.raises(InputError):
        shape_positions("blob", 0, 8.0)


def test_generate_corpus():
    entries = generate_corpus(DEV)
    assert len(entries) == 125
    names = [e.name for e in entries]
    assert len(set(names)) == 125
    assert "hexagon-4-s9.75" in names
    for e in entries[::17]:
        assert e.name == f"{e.family}-{e.size_index}-s{e.spacing:g}"
        pos = shape_positions(e.family, e.size_index, e.spacing)
        assert e.embedding.register.n == len(pos)


def test_load_models_refuses_broken_files(tmp_path):
    # a truncated npz raises BadZipFile, which is not a ValueError; junk bytes
    # read as a pickle, which np.load refuses
    path = tmp_path / "m.npz"
    save_models(train_models([_record(6.0), _record(9.0)], epochs=1), path)
    with np.load(path) as data:
        arrays = dict(data)
    for broken in (path.read_bytes()[:200], b"", b"not a model"):
        path.write_bytes(broken)
        with pytest.raises(InputError, match="m.npz"):
            load_models(path)
    for missing in ("__meta__", "hb"):
        np.savez(path, **{k: v for k, v in arrays.items() if k != missing})
        with pytest.raises(InputError, match="m.npz"):
            load_models(path)
    with pytest.raises(InputError, match="absent.npz"):
        load_models(tmp_path / "absent.npz")


def _rewrite_header(path, edit):
    """Rewrite the JSON header of the model file at `path` through `edit`."""
    with np.load(path) as data:
        arrays = dict(data)
    info = json.loads(arrays["__meta__"].tobytes().decode())
    edit(info)
    arrays["__meta__"] = np.frombuffer(json.dumps(info).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


def test_load_models_refuses_the_version_2_layout(tmp_path):
    # version 2 stored each target's seed, scale and version beside its
    # min-max constants; such a file is refused, not read with a dropped scale
    path = tmp_path / "m.npz"
    save_models(_model_set(seed=3), path)
    with np.load(path) as data:
        info = json.loads(data["__meta__"].tobytes().decode())
    assert info["version"] == MODEL_VERSION == "4"
    assert info["targets"]["omega"] == {"t_lo": 0.0, "t_hi": 1.0}

    def version_2(info):
        info["version"] = "2"
        info["targets"]["omega"].update(seed=3, scale="band", version="2")

    _rewrite_header(path, version_2)
    with pytest.raises(InputError, match="bad model file .*m.npz.*unsupported version '2'"):
        load_models(path)


def test_load_models_refuses_version_3_and_other_targets(tmp_path):
    # version 3 held one network per target, its arrays named "target:W0"
    path = tmp_path / "m.npz"
    np.savez(path, **{f"{t}:{k}": w for t in TARGETS for k, w in init_weights(0).items()},
             __meta__=np.frombuffer(json.dumps({"version": "3", "targets": {
                 t: {"t_lo": 0.0, "t_hi": 1.0} for t in TARGETS}}).encode(), dtype=np.uint8))
    with pytest.raises(InputError, match="bad model file .*m.npz.*unsupported version '3'"):
        load_models(path)
    # a header must name exactly the five targets
    for edit in (lambda info: info["targets"].pop("omega"),
                 lambda info: info["targets"].update(phase={"t_lo": 0.0, "t_hi": 1.0})):
        save_models(_model_set(seed=3), path)
        _rewrite_header(path, edit)
        with pytest.raises(InputError, match="bad model file .*m.npz.*targets"):
            load_models(path)


def test_load_models_refuses_non_finite_numbers(tmp_path):
    # JSON reads NaN and Infinity literals into the header, and an array
    # can hold them too; either is refused at load, naming the file
    path = tmp_path / "m.npz"
    for edit in (lambda info: info["targets"]["omega"].update(t_lo=math.nan),
                 lambda info: info["targets"]["t_fall"].update(t_hi=math.inf)):
        save_models(_model_set(seed=3), path)
        _rewrite_header(path, edit)
        with pytest.raises(InputError, match="bad model file .*m.npz.*not finite"):
            load_models(path)
    weights = init_weights(3)
    weights["W2"][1, 7] = math.nan
    save_models({t: GcnModel(weights=weights, target=t, t_lo=0.0, t_hi=1.0)
                 for t in TARGETS}, path)
    with pytest.raises(InputError, match="bad model file .*m.npz.*array W2 is not finite"):
        load_models(path)


def test_every_exported_name_resolves():
    for module in (rydock, rydock.mlqaa):
        assert [name for name in module.__all__ if not hasattr(module, name)] == []
        assert len(set(module.__all__)) == len(module.__all__)
        exec(f"from {module.__name__} import *", {})


def test_dataset_jsonl_roundtrip(tmp_path):
    recs = [_record(6.0), _record(9.0, n=3)]
    path = tmp_path / "labels.jsonl"
    save_dataset(recs, path)
    loaded = load_dataset(path)
    assert loaded == recs
    emb = loaded[0].embedding(DEV)
    assert np.allclose(emb.register.positions(), np.asarray(recs[0].positions))
    path.write_text(json.dumps({"family": "line"}) + "\n")
    with pytest.raises(InputError):
        load_dataset(path)


def test_label_dataset_measures_the_kept_canonical_state(monkeypatch):
    # the search keeps its near-best states, so each entry takes exactly one
    # evolve per trial, and the records equal those made by evolving the
    # canonical pulse again
    entries = [corpus_entry(f, 0, s, DEV)
               for f, s in (("line", 9.75), ("triangle", 7.25), ("rectangle", 8.5))]
    reference = []
    for entry in entries:
        entry_seed = int(substream(0, "label", entry.name).integers(1 << 62))
        res = vqaa(entry.embedding, DEV, family="complex", rounds=4, shots=100,
                   optimizer="tpe", seed=entry_seed, dt=8.0)
        canon = _canonical_trial(res.trials, search_space(entry.embedding, DEV, "complex"))
        sb, _ = evaluate_params(entry.embedding, DEV, canon.params, family="complex",
                                shots=500, seed=substream(entry_seed, "canon"), dt=8.0)
        if res.refined.score > 0.0 and sb.score > 0.0:
            reference.append((entry.name, canon.params, sb.score))
    assert reference

    calls, trials = [0], [0]
    evolve = optimize.evolve

    def counting(*args, **kwargs):
        calls[0] += 1
        return evolve(*args, **kwargs)

    def progress(k, total, name, res):
        trials[0] += len(res.trials)

    monkeypatch.setattr(optimize, "evolve", counting)
    recs = label_dataset(entries, DEV, rounds=4, shots=100, seed=0, dt=8.0,
                         progress=progress)
    assert trials[0] == 4 * len(entries)
    assert calls[0] == trials[0]
    assert [(r.name, r.params, r.score) for r in recs] == reference


def test_label_dataset_small_register():
    entries = [corpus_entry("line", 0, 9.75, DEV)]
    recs = label_dataset(entries, DEV, rounds=4, shots=100, seed=0, dt=8.0)
    assert len(recs) <= 1
    if recs:
        rec = recs[0]
        assert rec.name == "line-0-s9.75"
        assert rec.rounds == 4
        assert rec.score > 0.0
        space = search_space(entries[0].embedding, DEV, "complex")
        assert set(rec.params) == set(space.intervals)
        assert space.feasible(rec.params)
    again = label_dataset(entries, DEV, rounds=4, shots=100, seed=0, dt=8.0)
    assert again == recs


def test_measure_mlqaa_script_runs(tmp_path, capsys):
    dataset = tmp_path / "dataset.jsonl"
    save_dataset([_record(s, n=n) for s, n in ((6.0, 2), (7.5, 3), (9.0, 2), (11.0, 3))],
                 dataset)
    assert measure_mlqaa.main(["--seed", "0", "--epochs", "2", "--work", str(tmp_path),
                               "--dataset", str(dataset)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result["mape"]) == set(TARGETS)
    for key in ("holdout_normalized", "constant_normalized", "vqaa_normalized"):
        assert 0.0 <= result[key] <= 1.0
    # the constant predictor is scored through mlqaa-eval, which is left as shipped
    assert (tmp_path / "constant-s0" / "mlqaa_eval.csv").exists()
    assert cli.predict_params is predict_params
