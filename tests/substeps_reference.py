"""Reference forms of `rydock.simulator`'s group matrices, sub-step loop and
phase rows, as they were before their per-call costs were cut.

- `reim_drives`: one gather per group, the lowest of several over the signed
  index of G^{(x)m} (x) I_2 (`reim_index`), where `_drives` gathers each
  group size once and writes the lowest group's two diagonal blocks into a
  zeroed buffer it reuses.
- `generic_substeps`: one loop over the groups and one over the sub-steps,
  where `_substeps` has one body per group count up to three, written
  out; for four groups `_substeps` runs this loop itself.
- `exp_phase_rows`: each group's factor as the complex exp of its i w.n,
  where `_phase_rows` takes np.cos and np.sin of all groups' real d w.n at
  once.

Each computes the same values in the same order, so `evolve` gives the same
bytes with either form; `test_simulator.py` checks it piece by piece and
end to end.
"""

from __future__ import annotations

import functools

import numpy as np

from rydock.simulator import _signed_index


@functools.lru_cache(maxsize=None)
def reim_index(m: int) -> np.ndarray:
    """Each entry of G^{(x)m} (x) I_2 as its place in a `drive_table` row: the
    zeros of I_2 become -1, the row's last entry, which is 0."""
    return np.kron(_signed_index(m) + 1, np.eye(2, dtype=np.intp)) - 1


def reim_drives(tables: dict, sizes: tuple, low, c0: int, c1: int) -> list:
    """`_drives` as one gather per group, top group first; `low` is unused."""
    return [tables[m][c0:c1].take(reim_index(m) if g == 0 and len(sizes) > 1
                                  else _signed_index(m), axis=1)
            for g, m in reversed(list(enumerate(sizes)))]


def generic_substeps(plan, steps, nsub) -> None:
    """`_substeps` as a loop over the sub-steps and one over the groups."""
    psi, out, views = plan
    multiply = np.multiply
    if len(views) == 1:
        (x, y), = views
        for phase, rep, (mat,) in steps:
            gemm = mat.dot
            for _ in range(nsub):
                multiply(psi, phase, out)
                gemm(x, y)
                phase = rep
        return
    gemms = [(x.dot, y) for x, y in views]
    for phase, rep, mats in steps:
        for _ in range(nsub):
            multiply(psi, phase, out)
            for mat, (gemm, y) in zip(mats, gemms):
                gemm(mat, y)
            phase = rep


def exp_phase_rows(u, iocc, d):
    """`_phase_rows` over the groups' i w.n parts `iocc`, top group first,
    each group's factor exp(d i w.n) as a complex exp."""
    steps = len(d)
    if (d == d[:1]).all():
        d = d[:1]
    out = np.exp(d[:, None] * iocc[0])
    for col in iocc[1:]:
        out = (out[:, :, None] * np.exp(d[:, None] * col)[:, None, :]).reshape(
            len(d), out.shape[1] * len(col))
    np.multiply(u, out, out=out)
    return out if len(d) == steps else [out[0]] * steps


def iocc_of(parts) -> list:
    """The i w.n parts of each group, top group first, from `_phase_rows`'
    (w.n end to end, each group's slice)."""
    flat, cuts = parts
    return [1j * flat[cut] for cut in cuts]
