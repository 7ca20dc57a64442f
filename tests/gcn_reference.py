"""Reference GCN passes that allocate every layer array, as plain code.

`rydock.mlqaa.gcn.train_models` runs its forward and backward passes in
layer arrays allocated once per training (`_layer_scratch`), written with
out=. This module keeps the passes they replaced, each layer array a new
array, `adj @ h`, `r * d`, `dr * (r > 0.0)`. The arithmetic and its order
are the same, so a training through either gives the same weights bit for
bit; a layer array read after a later batch or layer wrote it shows as a
different loss history.
"""

from __future__ import annotations

import numpy as np

from rydock.mlqaa.gcn import HIDDEN, LAYERS


def allocating_forward(weights, adj, mask, drop_masks=None, scratch=None):
    """`_forward_batch` with new layer arrays; `scratch` is unused."""
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


def allocating_loss_and_gradients(weights, adj, mask, targets, drop_masks=None, grads=None,
                                  scratch=None):
    """`loss_and_gradients` with new layer arrays; `scratch` is unused."""
    y, pooled, caches = allocating_forward(weights, adj, mask, drop_masks)
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
