"""Graph-convolutional regression from register geometry to pulse params.

A register becomes a complete directed graph weighted by inverse squared
pairwise distance, with all-ones node features: in a padded batch those
are the atom mask itself. Five convolution layers
(hidden width 128, ReLU, dropout 0.1 while training) pass messages through
the raw weighted adjacency with unit self-loops, an
additive pool collapses node states to one vector, and an affine head
emits a single scalar. One model is trained per pulse parameter against
min-max normalised targets; backpropagation and the adaptive-moment
updates are implemented here directly so they can be checked against
finite differences.

A training step is array code over the whole padded batch (b registers,
n atom slots). One random draw gives all five layers' dropout masks. The
forward keeps each layer's masked ReLU output, whose sign gates the
backward pass. The backward pass forms each layer's weight gradient as
one matrix product over the flattened (b * n) node rows. Weights,
gradients, both Adam moments and the best epoch's weights each live in one
flat buffer, the weight and gradient dicts being views into theirs, so an
Adam update (bias corrections folded into two scalars) is one pass of
numpy calls over the whole model. After each epoch one dropout-free
forward over all records gives the squared errors that split into the
training and the validation loss, and the weights of the epoch with the
lowest validation loss are kept.

A model set is one `.npz` file: each target's weight arrays, and a JSON
header with MODEL_VERSION and each target's min-max constants; the label
scale is TARGET_SCALES[target]. Every prediction comes from `predict_unclamped`.
"""

from __future__ import annotations

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
MODEL_VERSION = "3"

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
    weights: dict
    target: str
    t_lo: float
    t_hi: float
    history: tuple = field(default=(), repr=False)

    def predict(self, feats: np.ndarray, band) -> float:
        """Prediction for one register in device units, given its Rabi band."""
        label = self.t_lo + forward(self, feats) * (self.t_hi - self.t_lo)
        return _from_scale(label, TARGET_SCALES[self.target], band)


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
    bound = math.sqrt(6.0 / (HIDDEN + 1))
    w["hw"] = rng.uniform(-bound, bound, size=HIDDEN)
    w["hb"] = np.zeros(1)
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
    y = pooled @ weights["hw"] + weights["hb"][0]
    return y, pooled, caches


def loss_and_gradients(weights, adj, mask, targets, drop_masks=None, grads=None):
    """Mean-squared-error loss and its gradient for every weight array,
    written into the arrays of `grads` when given."""
    y, pooled, caches = _forward_batch(weights, adj, mask, drop_masks)
    b = len(targets)
    diff = y - targets
    loss = float(np.mean(diff * diff))
    dy = 2.0 * diff / b
    if grads is None:
        grads = {k: np.empty_like(w) for k, w in weights.items()}
    grads["hb"][0] = float(dy.sum())
    np.matmul(pooled.T, dy, out=grads["hw"])
    dh = np.broadcast_to(
        (dy[:, None] * weights["hw"][None, :])[:, None, :],
        (b, adj.shape[1], HIDDEN),
    )
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


def forward(model: GcnModel, feats: np.ndarray) -> float:
    """Dropout-free scalar output for one graph (normalised target space)."""
    adj, mask = _pack([feats])
    y, _, _ = _forward_batch(model.weights, adj, mask)
    return float(y[0])


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


def _adam_step(w, g, m, v, step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update of the weights `w`, in place, with gradient `g` and
    moments `m` and `v`: one call of each numpy operation over the flat
    buffers.

    The bias corrections fold into two scalars: lr * mhat / (sqrt(vhat) +
    eps) = a * m / (sqrt(v) * s + eps) with a = lr / (1 - beta1^t) and
    s = 1 / sqrt(1 - beta2^t). The update takes one scratch buffer.
    """
    a = lr / (1.0 - beta1 ** step)
    s = 1.0 / math.sqrt(1.0 - beta2 ** step)
    buf = np.multiply(g, 1.0 - beta1)
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


def _drop_masks(rng, shape_b, shape_n):
    """Inverted-dropout masks of all LAYERS layers, shape (LAYERS, b, n, HIDDEN).

    One draw fills the layers in order from the stream, exactly as one
    (b, n, HIDDEN) draw per layer would, so the masks equal those bit for bit.
    """
    draw = rng.random((LAYERS, shape_b, shape_n, HIDDEN))
    return np.multiply(draw >= DROPOUT, 1.0 / (1.0 - DROPOUT), out=draw)


def train(records, target: str, epochs: int = 300, seed: int = 0,
          dev: DeviceParams | None = None) -> GcnModel:
    """Fit one regression model for `target` over labelled records.

    Labels are moved into the target's scale (see TARGET_SCALES), then
    min-max normalised to [0, 1], with the constants stored on the model
    for inference. The learning rate decays geometrically over LEARNING_RATE.
    The returned weights are the epoch-best by validation loss (VAL_FRAC of
    the records, split off deterministically; with too few records for a
    split the training loss stands in). The constants are read at call time.
    """
    if target not in TARGETS:
        raise InputError(f"unknown target {target!r}")
    if not records:
        raise InputError("empty dataset")
    scale = TARGET_SCALES[target]
    if scale != "identity" and dev is None:
        dev = DeviceParams()
    feats = [featurize(r.positions) for r in records]
    raw = np.array([
        _to_scale(
            float(r.params[target]), scale,
            None if scale == "identity" else omega_bounds(r.embedding(dev), dev),
        )
        for r in records
    ])
    t_lo, t_hi = float(raw.min()), float(raw.max())
    if t_hi <= t_lo:
        t_hi = t_lo + 1.0
    targets = (raw - t_lo) / (t_hi - t_lo)

    n = len(records)
    order = substream(seed, "val").permutation(n)
    n_val = int(round(VAL_FRAC * n))
    val_idx = order[:n_val]
    tr_idx = order[n_val:]

    adj, mask = _pack(feats)
    flat_w, weights = _flat_views(init_weights(seed))
    flat_g = np.empty_like(flat_w)
    grads = _views(flat_g, weights)
    m_state, v_state = np.zeros_like(flat_w), np.zeros_like(flat_w)
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
                               len(batch), adj.shape[1])
            loss, _, _ = loss_and_gradients(
                weights, adj[batch], mask[batch], targets[batch], drop, grads,
            )
            if not math.isfinite(loss):
                raise NumericalError(
                    f"non-finite loss at epoch {epoch} (target {target}, lr {epoch_lr:.2e})"
                )
            step += 1
            _adam_step(flat_w, flat_g, m_state, v_state, step, epoch_lr)
        # free the last step's masks before the epoch forward, which would
        # otherwise set the training's peak memory
        del drop
        y, _, _ = _forward_batch(weights, adj, mask)
        sq = (y - targets) ** 2
        train_loss = float(np.mean(sq[tr_idx]))
        val_loss = float(np.mean(sq[val_idx])) if len(val_idx) else train_loss
        history.append((train_loss, val_loss))
        if val_loss < best_val:
            best_val = val_loss
            np.copyto(best_flat, flat_w)

    return GcnModel(
        weights=_views(best_flat, weights), target=target, t_lo=t_lo, t_hi=t_hi,
        history=tuple(history),
    )


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


def predict_unclamped(models: dict, emb: Embedding, dev: DeviceParams) -> tuple:
    """(search space of `emb`, the five predictions in device units): the
    space's omega interval is the band that maps `omega` back, and the
    predictions are not yet clamped into it."""
    missing = [t for t in TARGETS if t not in models]
    if missing:
        raise InputError(f"missing models for {missing}")
    feats = featurize(emb.register.positions())
    space = search_space(emb, dev, "complex")
    band = space.intervals["omega"]  # omega_bounds(emb, dev), computed once
    return space, {name: models[name].predict(feats, band) for name in TARGETS}


def predict_params(models: dict, emb: Embedding, dev: DeviceParams) -> dict:
    """One pulse-parameter set from the five trained models, kept in-space."""
    space, params = predict_unclamped(models, emb, dev)
    return space.clamp(params)


def save_models(models: dict, path, meta: dict | None = None):
    arrays = {}
    info = {"version": MODEL_VERSION, "targets": {}}
    if meta:
        info["meta"] = meta
    for name, model in models.items():
        for wname, arr in model.weights.items():
            arrays[f"{name}:{wname}"] = arr
        info["targets"][name] = {"t_lo": model.t_lo, "t_hi": model.t_hi}
    arrays["__meta__"] = np.frombuffer(
        json.dumps(info, sort_keys=True).encode(), dtype=np.uint8,
    )
    np.savez_compressed(path, **arrays)


def load_models(path) -> dict:
    """The models stored in `path`; any unreadable or malformed model file,
    including a missing array or another MODEL_VERSION, is an InputError
    naming it."""
    try:
        # opened here, not by np.load, which leaves its file open on a bad zip
        with open(path, "rb") as fh, np.load(fh) as data:
            info = json.loads(bytes(data["__meta__"].tobytes()).decode())
            if info.get("version") != MODEL_VERSION:
                raise InputError(f"unsupported version {info.get('version')!r}")
            return {name: GcnModel(
                weights={wname: np.array(data[f"{name}:{wname}"])
                         for wname in _weight_names()},
                target=name, t_lo=float(tmeta["t_lo"]), t_hi=float(tmeta["t_hi"]),
            ) for name, tmeta in info["targets"].items()}
    except (OSError, EOFError, zipfile.BadZipFile, AttributeError, KeyError,
            TypeError, ValueError) as exc:
        raise InputError(f"bad model file {path}: {exc}") from None
