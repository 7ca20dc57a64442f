"""Graph-convolutional regression from register geometry to pulse params.

A register becomes a complete directed graph weighted by inverse squared
pairwise distance, with all-ones node features: in a padded batch those
are the atom mask itself. Five convolution layers (hidden width 128, ReLU,
dropout 0.1 while training) pass messages through the raw weighted
adjacency with unit self-loops, and an additive pool collapses node states
to one vector. One trunk serves all five pulse parameters (multi-task
learning: Caruana, Machine Learning 28, 1997): an affine head, `hw` (128, 5)
and `hb` (5,), emits one output per target in TARGETS order. Each target's
labels are min-max normalised to [0, 1], and the loss is the mean, over the
batch and the five targets, of the squared error. The head bias starts at
the training split's mean normalised targets, since sum pooling under a
random head otherwise starts far from them. Backpropagation and the
adaptive-moment updates are implemented here directly so they can be
checked against finite differences.

A training step is array code over the whole padded batch (b registers,
n atom slots). One random draw gives all five layers' dropout masks. The
forward keeps each layer's masked ReLU output, whose sign gates the
backward pass. The backward pass forms each layer's weight gradient as
one matrix product over the flattened (b * n) node rows. Weights,
gradients, both Adam moments and the best epoch's weights each live in one
flat buffer, the weight and gradient dicts being views into theirs, so an
Adam update (bias corrections folded into two scalars) is one pass of
numpy calls over the whole model. Adam's scratch buffer and the dropout
draw are allocated once per training. After each epoch one dropout-free
forward over all records gives the squared errors that split into the
training and the validation loss, and the weights of the epoch with the
lowest validation loss are kept.

`train_models` returns the model set as five `GcnModel` views of one weight
set, one per target, each with its own min-max constants. `train(records,
target)` is one target's view, kept for callers that train per target: it
holds the last set it trained, so five calls with the same arguments run
one training.

A model set is one `.npz` file: the weight arrays once, and a JSON header
with MODEL_VERSION and each target's min-max constants; the label scale is
TARGET_SCALES[target]. Every prediction comes from `predict_unclamped`, one
forward for all five targets.
"""

from __future__ import annotations

import dataclasses
import json
import math
import warnings
import zipfile
from dataclasses import dataclass, field

import numpy as np

from ..errors import InputError, NumericalError
from ..register import DeviceParams, Embedding, omega_bounds
from ..rng import substream
from ..optimize import search_space

HIDDEN = 128
LAYERS = 5
DROPOUT = 0.1
BATCH_SIZE = 64
LEARNING_RATE = (1e-2, 1e-4)  # decays geometrically from the first to the second
VAL_FRAC = 0.2
TARGETS = ("t_rise", "t_fall", "omega", "delta0", "deltaf")
MODEL_VERSION = "4"

# Label scale per target. The Rabi drive is regressed as its fraction of
# the register's usable band, not in rad/us: the score surface is flat in
# omega across the band, so labels land at a consistent band fraction while
# the band itself moves with the geometry. The detunings are regressed as
# ratios to the band top, the blockade energy that sets how much detuning
# a register can use. Ramp times are regressed raw.
TARGET_SCALES = {
    "t_rise": "identity",
    "t_fall": "identity",
    "omega": "band",
    "delta0": "bandtop",
    "deltaf": "bandtop",
}


def _to_scale(value: float, scale: str, band) -> float:
    if scale == "band":
        lo, hi = band
        return (value - lo) / (hi - lo)
    if scale == "bandtop":
        return value / band[1]
    return value


def _from_scale(value: float, scale: str, band) -> float:
    if scale == "band":
        lo, hi = band
        return lo + value * (hi - lo)
    if scale == "bandtop":
        return value * band[1]
    return value


def featurize(positions) -> np.ndarray:
    """The (n, n) propagation matrix A + I of (n, 2) positions, A_ij =
    1 / (dx^2 + dy^2): summed squares, not a squared hypot, keep the
    features bit-identical to the pairwise form. Unnormalised, as degree
    normalisation would divide out the register's length scale, which
    several pulse parameters depend on; the device's minimum spacing keeps
    the magnitudes tame."""
    pos = np.asarray(positions, dtype=float)
    if len(pos) < 2:
        raise InputError("featurization needs at least 2 atoms")
    d = pos[:, None, :] - pos[None, :, :]
    d2 = d[..., 0] ** 2 + d[..., 1] ** 2
    np.fill_diagonal(d2, 1.0)  # A_ii = 0, so (A + I)_ii = 1 = 1 / 1
    hit = np.argwhere(d2 == 0.0)
    if len(hit):
        raise InputError(f"coincident atoms {hit[0][0]} and {hit[0][1]}")
    return 1.0 / d2


@dataclass
class GcnModel:
    """One target's view of a model set: `weights` are the set's shared
    trunk and five-wide head, of which the target reads its own output."""

    weights: dict
    target: str
    t_lo: float
    t_hi: float
    history: tuple = field(default=(), repr=False)

    def __post_init__(self):
        if self.target not in TARGETS:
            raise InputError(f"unknown target {self.target!r}")

    def label(self, output: float, band) -> float:
        """The model's normalised output in device units, given the
        register's Rabi band."""
        value = self.t_lo + output * (self.t_hi - self.t_lo)
        return _from_scale(value, TARGET_SCALES[self.target], band)


def _weight_names():
    names = []
    for layer in range(LAYERS):
        names += [f"W{layer}", f"b{layer}"]
    return names + ["hw", "hb"]


def init_weights(seed: int) -> dict:
    w = {}
    for layer in range(LAYERS):
        fan_in = 1 if layer == 0 else HIDDEN
        bound = math.sqrt(6.0 / (fan_in + HIDDEN))
        rng = substream(seed, "init", layer)
        w[f"W{layer}"] = rng.uniform(-bound, bound, size=(fan_in, HIDDEN))
        w[f"b{layer}"] = np.zeros(HIDDEN)
    rng = substream(seed, "init", "head")
    bound = math.sqrt(6.0 / (HIDDEN + len(TARGETS)))
    w["hw"] = rng.uniform(-bound, bound, size=(HIDDEN, len(TARGETS)))
    w["hb"] = np.zeros(len(TARGETS))
    return w


def _pack(feats_list) -> tuple:
    """(adjacency, atom mask) of a padded batch; the mask is the node features."""
    nmax = max(len(f) for f in feats_list)
    b = len(feats_list)
    adj = np.zeros((b, nmax, nmax))
    mask = np.zeros((b, nmax, 1))
    for k, f in enumerate(feats_list):
        adj[k, : len(f), : len(f)] = f
        mask[k, : len(f)] = 1.0
    return adj, mask


def _forward_batch(weights, adj, mask, drop_masks=None):
    """(outputs (b, len(TARGETS)), pooled node states, per-layer caches)."""
    h = mask
    caches = []
    for layer in range(LAYERS):
        ah = adj @ h
        z = ah @ weights[f"W{layer}"]
        z += weights[f"b{layer}"]
        r = np.maximum(z, 0.0, out=z)
        r *= mask
        d = None if drop_masks is None else drop_masks[layer]
        caches.append((ah, r, d))
        h = r if d is None else r * d
    pooled = h.sum(axis=1)
    y = pooled @ weights["hw"]
    y += weights["hb"]
    return y, pooled, caches


def loss_and_gradients(weights, adj, mask, targets, drop_masks=None, grads=None):
    """The mean over the batch and the targets of the squared error, and its
    gradient for every weight array, written into the arrays of `grads`
    when given. `targets` is (b, len(TARGETS))."""
    y, pooled, caches = _forward_batch(weights, adj, mask, drop_masks)
    b = len(targets)
    diff = y - targets
    loss = float(np.mean(diff * diff))
    dy = diff * (2.0 / diff.size)
    if grads is None:
        grads = {k: np.empty_like(w) for k, w in weights.items()}
    dy.sum(axis=0, out=grads["hb"])
    np.matmul(pooled.T, dy, out=grads["hw"])
    dh = np.broadcast_to((dy @ weights["hw"].T)[:, None, :], (b, adj.shape[1], HIDDEN))
    for layer in reversed(range(LAYERS)):
        ah, r, d = caches[layer]
        dr = dh if d is None else dh * d
        dz = dr * (r > 0.0)
        np.matmul(ah.reshape(-1, ah.shape[-1]).T, dz.reshape(-1, HIDDEN),
                  out=grads[f"W{layer}"])
        dz.sum(axis=(0, 1), out=grads[f"b{layer}"])
        if layer:
            dh = adj @ (dz @ weights[f"W{layer}"].T)
    return loss, grads, y


def _flat_views(arrays: dict) -> tuple:
    """A copy of `arrays` in one flat buffer, and the views into it by name."""
    flat = np.concatenate([arrays[k].reshape(-1) for k in _weight_names()])
    return flat, _views(flat, arrays)


def _views(flat: np.ndarray, like: dict) -> dict:
    """Views into `flat` shaped as the arrays of `like`, back to back in
    _weight_names() order."""
    views, start = {}, 0
    for k in _weight_names():
        views[k] = flat[start : start + like[k].size].reshape(like[k].shape)
        start += like[k].size
    return views


def _adam_step(w, g, m, v, step, lr, buf=None, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update of the weights `w`, in place, with gradient `g` and
    moments `m` and `v`: one call of each numpy operation over the flat
    buffers.

    The bias corrections fold into two scalars: lr * mhat / (sqrt(vhat) +
    eps) = a * m / (sqrt(v) * s + eps) with a = lr / (1 - beta1^t) and
    s = 1 / sqrt(1 - beta2^t). The update takes one scratch buffer, `buf`
    when given.
    """
    a = lr / (1.0 - beta1 ** step)
    s = 1.0 / math.sqrt(1.0 - beta2 ** step)
    buf = np.multiply(g, 1.0 - beta1, out=buf)
    m *= beta1
    m += buf
    np.multiply(g, g, out=buf)
    buf *= 1.0 - beta2
    v *= beta2
    v += buf
    np.sqrt(v, out=buf)
    buf *= s
    buf += eps
    np.divide(m, buf, out=buf)
    buf *= a
    w -= buf


def _drop_masks(rng, shape_b, shape_n, scratch=None):
    """Inverted-dropout masks of all LAYERS layers, shape (LAYERS, b, n, HIDDEN).

    One draw fills the layers in order from the stream, exactly as one
    (b, n, HIDDEN) draw per layer would, so the masks equal those bit for bit.
    `scratch`, a flat float and a flat bool buffer of at least that many
    elements, holds the draw and its comparison instead of new arrays.
    """
    shape = (LAYERS, shape_b, shape_n, HIDDEN)
    size = math.prod(shape)
    draw, keep = scratch or (np.empty(size), np.empty(size, dtype=bool))
    draw = rng.random(shape, out=draw[:size].reshape(shape))
    keep = np.greater_equal(draw, DROPOUT, out=keep[:size].reshape(shape))
    return np.multiply(keep, 1.0 / (1.0 - DROPOUT), out=draw)


def train_models(records, epochs: int = 300, seed: int = 0,
                 dev: DeviceParams | None = None) -> dict:
    """Fit the model set over labelled records: {target: GcnModel}, five
    views of one weight set.

    Labels are moved into each target's scale (see TARGET_SCALES), then
    min-max normalised to [0, 1] per target, with the constants stored on
    that target's model for inference. The learning rate decays
    geometrically over LEARNING_RATE. The returned weights are the
    epoch-best by validation loss (VAL_FRAC of the records, split off
    deterministically; with too few records for a split the training loss
    stands in), and `history` holds each epoch's (training, validation)
    loss. The constants are read at call time.
    """
    if not records:
        raise InputError("empty dataset")
    dev = DeviceParams() if dev is None else dev
    feats = [featurize(r.positions) for r in records]
    bands = [omega_bounds(r.embedding(dev), dev) for r in records]
    raw = np.array([[_to_scale(float(r.params[t]), TARGET_SCALES[t], band) for t in TARGETS]
                    for r, band in zip(records, bands)])
    t_lo, t_hi = raw.min(axis=0), raw.max(axis=0)
    t_hi = np.where(t_hi > t_lo, t_hi, t_lo + 1.0)
    targets = (raw - t_lo) / (t_hi - t_lo)

    n = len(records)
    order = substream(seed, "val").permutation(n)
    n_val = int(round(VAL_FRAC * n))
    val_idx = order[:n_val]
    tr_idx = order[n_val:]

    adj, mask = _pack(feats)
    start = init_weights(seed)
    start["hb"] = targets[tr_idx].mean(axis=0)
    flat_w, weights = _flat_views(start)
    flat_g = np.empty_like(flat_w)
    grads = _views(flat_g, weights)
    m_state, v_state = np.zeros_like(flat_w), np.zeros_like(flat_w)
    adam_buf = np.empty_like(flat_w)
    drop_size = LAYERS * min(BATCH_SIZE, len(tr_idx)) * adj.shape[1] * HIDDEN
    drop_scratch = np.empty(drop_size), np.empty(drop_size, dtype=bool)
    hi, lo = LEARNING_RATE
    decay = (lo / hi) ** (1.0 / max(epochs - 1, 1))

    best_val = math.inf
    best_flat = flat_w.copy()
    history = []
    step = 0
    for epoch in range(epochs):
        perm = substream(seed, "shuffle", epoch).permutation(len(tr_idx))
        epoch_lr = hi * decay ** epoch
        for bstart in range(0, len(tr_idx), BATCH_SIZE):
            batch = tr_idx[perm[bstart : bstart + BATCH_SIZE]]
            drop = _drop_masks(substream(seed, "drop", epoch, bstart),
                               len(batch), adj.shape[1], drop_scratch)
            loss, _, _ = loss_and_gradients(
                weights, adj[batch], mask[batch], targets[batch], drop, grads,
            )
            if not math.isfinite(loss):
                raise NumericalError(f"non-finite loss at epoch {epoch} (lr {epoch_lr:.2e})")
            step += 1
            _adam_step(flat_w, flat_g, m_state, v_state, step, epoch_lr, adam_buf)
        y, _, _ = _forward_batch(weights, adj, mask)
        sq = (y - targets) ** 2
        train_loss = float(np.mean(sq[tr_idx]))
        val_loss = float(np.mean(sq[val_idx])) if len(val_idx) else train_loss
        history.append((train_loss, val_loss))
        if val_loss < best_val:
            best_val = val_loss
            np.copyto(best_flat, flat_w)

    best = _views(best_flat, weights)
    return {t: GcnModel(weights=best, target=t, t_lo=float(t_lo[k]), t_hi=float(t_hi[k]),
                        history=tuple(history))
            for k, t in enumerate(TARGETS)}


# (key, model set) of the last `train` call that trained
_last_set = (None, None)


def train(records, target: str, epochs: int = 300, seed: int = 0,
          dev: DeviceParams | None = None) -> GcnModel:
    """`train_models(records, epochs, seed, dev)[target]`, for callers that
    train one target at a time; it lasts until `bench/` moves to
    `train_models` (ROADMAP item 1).

    The last model set trained is kept, keyed by the records' positions,
    spacings and params, the other arguments and the training constants as
    read at call time, so the five targets' calls with the same arguments
    run one training. Its weight arrays are read-only, being shared with
    every later call that hits the key.
    """
    global _last_set
    if target not in TARGETS:
        raise InputError(f"unknown target {target!r}")
    dev = DeviceParams() if dev is None else dev
    key = (
        tuple((tuple(map(float, np.ravel(r.positions))), float(r.spacing),
               tuple(sorted(r.params.items()))) for r in records),
        epochs, seed, dataclasses.astuple(dev),
        HIDDEN, LAYERS, DROPOUT, BATCH_SIZE, LEARNING_RATE, VAL_FRAC,
    )
    if _last_set[0] != key:
        models = train_models(records, epochs=epochs, seed=seed, dev=dev)
        for arr in models[target].weights.values():
            arr.flags.writeable = False
        _last_set = (key, models)
    return _last_set[1][target]


def mape(predictions, targets) -> float:
    """100 * mean(|p - t| / |t|), zero targets excluded with a warning."""
    p = np.asarray(predictions, dtype=float)
    t = np.asarray(targets, dtype=float)
    if p.shape != t.shape:
        raise InputError("prediction/target length mismatch")
    keep = t != 0.0
    dropped = int(np.sum(~keep))
    if dropped:
        warnings.warn(f"mape: excluded {dropped} zero targets")
    if not np.any(keep):
        raise InputError("all targets zero")
    return float(100.0 * np.mean(np.abs(p[keep] - t[keep]) / np.abs(t[keep])))


def _shared_weights(models: dict) -> dict:
    """The one weight set behind the five targets' models."""
    missing = [t for t in TARGETS if t not in models]
    if missing:
        raise InputError(f"missing models for {missing}")
    weights = models[TARGETS[0]].weights
    if any(models[t].weights is not weights for t in TARGETS):
        raise InputError("the five models do not share one weight set")
    return weights


def predict_unclamped(models: dict, emb: Embedding, dev: DeviceParams) -> tuple:
    """(search space of `emb`, the five predictions in device units), from
    one forward: the space's omega interval is the band that maps `omega`
    back, and the predictions are not yet clamped into it."""
    weights = _shared_weights(models)
    adj, mask = _pack([featurize(emb.register.positions())])
    y, _, _ = _forward_batch(weights, adj, mask)
    space = search_space(emb, dev, "complex")
    band = space.intervals["omega"]  # omega_bounds(emb, dev), computed once
    return space, {t: models[t].label(float(y[0, k]), band) for k, t in enumerate(TARGETS)}


def predict_params(models: dict, emb: Embedding, dev: DeviceParams) -> dict:
    """One pulse-parameter set from the five trained models, kept in-space."""
    space, params = predict_unclamped(models, emb, dev)
    return space.clamp(params)


def save_models(models: dict, path, meta: dict | None = None):
    """Write the model set: its weight arrays once, and each target's
    min-max constants in the header."""
    arrays = dict(_shared_weights(models))
    info = {"version": MODEL_VERSION,
            "targets": {t: {"t_lo": models[t].t_lo, "t_hi": models[t].t_hi}
                        for t in TARGETS}}
    if meta:
        info["meta"] = meta
    arrays["__meta__"] = np.frombuffer(
        json.dumps(info, sort_keys=True).encode(), dtype=np.uint8,
    )
    np.savez_compressed(path, **arrays)


def load_models(path) -> dict:
    """The model set stored in `path`; any unreadable or malformed model
    file, including a missing array, an array of another shape than
    `init_weights` gives or not of floats, another MODEL_VERSION, targets
    other than TARGETS or a non-finite number, is an InputError naming it."""
    try:
        # opened here, not by np.load, which leaves its file open on a bad zip
        with open(path, "rb") as fh, np.load(fh) as data:
            info = json.loads(bytes(data["__meta__"].tobytes()).decode())
            if info.get("version") != MODEL_VERSION:
                raise InputError(f"unsupported version {info.get('version')!r}")
            if sorted(info["targets"]) != sorted(TARGETS):
                raise InputError(f"targets {sorted(info['targets'])} are not {list(TARGETS)}")
            weights = {k: np.array(data[k]) for k in _weight_names()}
            for k, w in init_weights(0).items():
                if weights[k].shape != w.shape or weights[k].dtype.kind != "f":
                    raise InputError(f"array {k} is {weights[k].dtype} {weights[k].shape}, "
                                     f"not float {w.shape}")
            models = {t: GcnModel(weights=weights, target=t,
                                  t_lo=float(info["targets"][t]["t_lo"]),
                                  t_hi=float(info["targets"][t]["t_hi"]))
                      for t in TARGETS}
            # JSON reads NaN and Infinity literals, and arrays can hold them
            bad = [f"{t}'s t_lo or t_hi" for t, m in models.items()
                   if not np.isfinite([m.t_lo, m.t_hi]).all()]
            bad += [f"array {k}" for k, w in weights.items() if not np.isfinite(w).all()]
            if bad:
                raise InputError(f"{bad[0]} is not finite")
            return models
    except (OSError, EOFError, zipfile.BadZipFile, AttributeError, KeyError,
            TypeError, ValueError) as exc:
        raise InputError(f"bad model file {path}: {exc}") from None
