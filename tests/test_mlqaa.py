"""Geometry featurization, the graph regressor, and the labelled corpus."""

import json
import math

import numpy as np
import pytest

from rydock.errors import InputError
from rydock.mlqaa import (
    DatasetRecord,
    TARGETS,
    GcnModel,
    corpus_entry,
    featurize,
    forward,
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
)
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
from rydock import optimize
from rydock.optimize import Trial, evaluate_params, search_space, vqaa
from rydock.register import DeviceParams, embedding_from_positions, omega_bounds
from rydock.rng import substream

DEV = DeviceParams()


def _line(n, s):
    return np.array([[i * s, 0.0] for i in range(n)])


def _model(target, seed, t_lo=0.0, t_hi=1.0):
    return GcnModel(weights=init_weights(seed), target=target, t_lo=t_lo, t_hi=t_hi)


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
    a = forward(model, featurize(pos))
    b = forward(model, featurize(2.0 * pos))
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


def gradient_check(model: GcnModel, feats, target_value: float,
                   n_sample: int = 100, step: float = 1e-5,
                   seed: int = 0) -> float:
    """Max relative error of analytic vs central-difference gradients."""
    adj, mask = _pack([feats])
    targets = np.array([target_value], dtype=float)
    weights = {k: v.copy() for k, v in model.weights.items()}
    _, grads, _ = loss_and_gradients(weights, adj, mask, targets)
    rng = substream(seed, "gradcheck")
    names = _weight_names()
    sizes = np.array([weights[k].size for k in names])
    total = int(sizes.sum())
    picks = rng.choice(total, size=min(n_sample, total), replace=False)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
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
    pos = rng.uniform(0.0, 50.0, size=(4, 2))
    model = _model("omega", seed=3)
    worst = gradient_check(model, featurize(pos), target_value=0.7, seed=2)
    assert worst < 1e-4


def test_forward_permutation_invariance():
    rng = substream(9, "perm")
    pos = rng.uniform(0.0, 45.0, size=(6, 2))
    model = _model("deltaf", seed=1)
    base = forward(model, featurize(pos))
    for k in range(4):
        perm = substream(9, "perm", k).permutation(6)
        assert forward(model, featurize(pos[perm])) == pytest.approx(base, abs=1e-8)


def test_batch_padding_matches_single_forward():
    model = _model("delta0", seed=2)
    fa = featurize(_line(2, 7.0))
    fb = featurize(_line(5, 9.0))
    adj, mask = _pack([fa, fb])
    assert adj.shape == (2, 5, 5)
    y, _, _ = _forward_batch(model.weights, adj, mask)
    assert y[0] == pytest.approx(forward(model, fa), abs=1e-10)
    assert y[1] == pytest.approx(forward(model, fb), abs=1e-10)


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


def _per_array_adam(w, g, m, v, step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
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
    got = {t: train(records, t, epochs=6, seed=2) for t in TARGETS}
    monkeypatch.setattr("rydock.mlqaa.gcn._adam_step", _per_array_adam)
    for t in TARGETS:
        want = train(records, t, epochs=6, seed=2)
        assert got[t].history == want.history
        assert all(got[t].weights[k].tobytes() == want.weights[k].tobytes()
                   for k in want.weights)
    # gradients written into a flat buffer's views equal freshly allocated ones
    adj, mask = _pack([featurize(r.positions) for r in records])
    weights, targets = init_weights(5), np.linspace(0.0, 1.0, len(records))
    fresh = loss_and_gradients(weights, adj, mask, targets)[1]
    flat = np.full(sum(w.size for w in weights.values()), np.nan)
    loss_and_gradients(weights, adj, mask, targets, grads=_views(flat, weights))
    assert all(_views(flat, weights)[k].tobytes() == fresh[k].tobytes() for k in fresh)


def test_drop_masks_one_draw_equals_per_layer_draws():
    masks = _drop_masks(substream(6, "drop"), 3, 7)
    rng = substream(6, "drop")
    assert masks.shape == (LAYERS, 3, 7, HIDDEN)
    for layer in range(LAYERS):
        keep = (rng.random((3, 7, HIDDEN)) >= DROPOUT).astype(float)
        assert np.array_equal(masks[layer], keep / (1.0 - DROPOUT))


def test_train_overfits_single_record(monkeypatch):
    # masks of exactly 1.0 leave every product unchanged: no dropout
    monkeypatch.setattr("rydock.mlqaa.gcn.DROPOUT", 0.0)
    rec = _record(9.0, n=3)
    model = train([rec], "t_rise", epochs=250, seed=0)
    assert min(tl for tl, _ in model.history) < 1e-3
    pred = model.predict(featurize(rec.positions), None)
    assert pred == pytest.approx(300.0, abs=0.5)


def test_train_determinism():
    recs = [_record(s) for s in (6.0, 7.5, 9.0, 11.0)]
    a = train(recs, "t_fall", epochs=3, seed=1)
    b = train(recs, "t_fall", epochs=3, seed=1)
    assert a.weights.keys() == b.weights.keys()
    for k in a.weights:
        assert np.array_equal(a.weights[k], b.weights[k])
    c = train(recs, "t_fall", epochs=3, seed=2)
    assert any(not np.array_equal(a.weights[k], c.weights[k]) for k in a.weights)


def test_train_band_scale_inverts_per_register(monkeypatch):
    # Both labels sit at the exact middle of their own usable band, so a
    # model fit in band fraction must come back at mid-band in rad/us for
    # each register separately even though the two bands barely overlap.
    monkeypatch.setattr("rydock.mlqaa.gcn.DROPOUT", 0.0)
    recs = [_record(6.0, omega=None), _record(11.0, omega=None)]
    model = train(recs, "omega", epochs=300, seed=0, dev=DEV)
    for rec in recs:
        lo, hi = omega_bounds(rec.embedding(DEV), DEV)
        got = model.predict(featurize(rec.positions), (lo, hi))
        assert abs(got - 0.5 * (lo + hi)) <= 0.05 * (hi - lo)


def test_train_errors():
    with pytest.raises(InputError):
        train([_record(9.0)], "phase")
    with pytest.raises(InputError):
        train([], "omega")


def test_mape_contract():
    assert mape([1.0, 2.0], [2.0, 2.0]) == pytest.approx(25.0)
    with pytest.raises(InputError):
        mape([1.0], [1.0, 2.0])
    with pytest.warns(UserWarning, match="excluded"):
        assert mape([1.0, 1.0], [0.0, 2.0]) == pytest.approx(50.0)
    with pytest.raises(InputError), pytest.warns(UserWarning):
        mape([1.0, 1.0], [0.0, 0.0])


def test_predict_params_stays_in_space():
    models = {t: _model(t, seed=k, t_lo=-3.0, t_hi=9.0)
              for k, t in enumerate(TARGETS)}
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


def test_save_load_roundtrip(tmp_path, monkeypatch):
    recs = [_record(s) for s in (6.0, 8.0, 10.0)]
    models = {
        "t_rise": train(recs, "t_rise", epochs=2, seed=0),
        "omega": train(recs, "omega", epochs=2, seed=0, dev=DEV),
    }
    path = tmp_path / "models.npz"
    save_models(models, path, meta={"note": "roundtrip"})
    loaded = load_models(path)
    assert set(loaded) == {"t_rise", "omega"}
    feats, band = featurize(_line(3, 8.5)), (1.0, 4.0)
    # npz arrays and JSON floats round-trip exactly
    for name, model in models.items():
        other = loaded[name]
        assert other.target == name
        assert other.t_lo == model.t_lo
        assert other.t_hi == model.t_hi
        assert other.predict(feats, band) == model.predict(feats, band)
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
    save_models({"t_rise": train([_record(6.0), _record(9.0)], "t_rise", epochs=1)}, path)
    with np.load(path) as data:
        arrays = dict(data)
    for broken in (path.read_bytes()[:200], b"", b"not a model"):
        path.write_bytes(broken)
        with pytest.raises(InputError, match="m.npz"):
            load_models(path)
    for missing in ("__meta__", "t_rise:hb"):
        np.savez(path, **{k: v for k, v in arrays.items() if k != missing})
        with pytest.raises(InputError, match="m.npz"):
            load_models(path)
    with pytest.raises(InputError, match="absent.npz"):
        load_models(tmp_path / "absent.npz")


def test_load_models_refuses_the_version_2_layout(tmp_path):
    # version 2 stored each target's seed, scale and version beside its
    # min-max constants; such a file is refused, not read with a dropped scale
    path = tmp_path / "m.npz"
    save_models({"omega": _model("omega", seed=3)}, path)
    with np.load(path) as data:
        arrays = dict(data)
    info = json.loads(arrays["__meta__"].tobytes().decode())
    assert info["version"] == MODEL_VERSION == "3"
    assert info["targets"]["omega"] == {"t_lo": 0.0, "t_hi": 1.0}
    info["version"] = "2"
    info["targets"]["omega"].update(seed=3, scale="band", version="2")
    arrays["__meta__"] = np.frombuffer(json.dumps(info).encode(), dtype=np.uint8)
    np.savez(path, **arrays)
    with pytest.raises(InputError, match="bad model file .*m.npz.*unsupported version '2'"):
        load_models(path)


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
