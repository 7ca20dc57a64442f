"""Reference split step with the drive as complex Kronecker-group products.

`rydock.simulator.evolve` applies R(theta)^{(x)N} as S G(theta)^{(x)N} S with
G real, and keeps the S factors as sign and phase bookkeeping. This module
applies R(theta)^{(x)m} itself, group by group, in complex arithmetic: its
entry is cos(theta)^(m - h) (-i sin(theta))^h, with h the Hamming distance of
row and column, so a step's group matrix is one gather of an (m + 1)-entry
table (`rotation_table`). Each product F @ psi.reshape(-1, 2^m).T takes the
group in the lowest bits and writes it out as the highest, so the canonical
order is back after the last group.

`complex_evolve` takes the same midpoints, sub-step counts and partition as
`evolve` and runs every sub-step as exp(-i D s/2) R^{(x)N} exp(-i D s/2), with
no phases merged and no sign or i^popcount factors, so the two agree to
rounding and a slip in `evolve`'s bookkeeping shows as an O(1) difference.
"""

from __future__ import annotations

import functools

import numpy as np

from rydock.pulses import PulseSequence
from rydock.register import DeviceParams, Register
from rydock.simulator import (
    _bit_table,
    group_sizes,
    interaction_diagonal,
    occupation_diagonal,
    substep_counts,
)


@functools.lru_cache(maxsize=None)
def _hamming(m: int) -> np.ndarray:
    """Hamming distances between row and column of a 2^m matrix."""
    idx = np.arange(1 << m)
    return _bit_table(m).sum(axis=0).astype(np.intp)[idx[:, None] ^ idx]


def rotation_table(theta, m: int) -> np.ndarray:
    """cos(theta)^(m - h) (-i sin(theta))^h for h = 0..m on the last axis,
    per angle in `theta`: the entries of R(theta)^{(x)m} by Hamming distance."""
    theta = np.asarray(theta, dtype=float)[..., None]
    h = np.arange(m + 1)
    return np.cos(theta) ** (m - h) * np.sin(theta) ** h * (-1j) ** h


def complex_drive_factor(psi: np.ndarray, factors) -> np.ndarray:
    """psi <- R(theta)^{(x)n} psi, given R(theta)^{(x)m} of each group of
    `group_sizes(n)`, lowest group first."""
    if len(factors) == 1:
        return (psi.reshape(1, -1) @ factors[0]).reshape(-1)
    for factor in factors:
        psi = (factor @ psi.reshape(-1, len(factor)).T).reshape(-1)
    return psi


def complex_evolve(reg: Register, seq: PulseSequence, dev: DeviceParams,
                   dt: float) -> np.ndarray:
    """The amplitudes `evolve` computes, through complex group products."""
    inter = interaction_diagonal(reg, dev)
    occ = occupation_diagonal(reg)
    dim = 1 << reg.n
    flip_gap = inter[-1] - inter[(dim - 1) ^ (1 << np.arange(reg.n))]
    weights = np.abs(reg.detuning_weights())
    psi = np.zeros(dim, dtype=complex)
    psi[0] = 1.0
    for seg in seq.segments:
        steps = max(1, int(np.ceil(seg.duration / dt - 1e-9)))
        edges = np.linspace(0.0, seg.duration, steps + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        omegas = np.asarray(seg.omega.sample(mids), dtype=float).reshape(-1)
        deltas = np.asarray(seg.delta.sample(mids), dtype=float).reshape(-1)
        tau = seg.duration / steps * 1e-3
        gap = float(np.max(flip_gap + np.abs(deltas).max() * weights))
        for om, de, nsub in zip(omegas, deltas,
                                substep_counts(tau, gap, omegas, dev.omega_max)):
            s = tau / nsub
            half = np.exp(-0.5j * s * (inter - de * occ))
            factors = [rotation_table(0.5 * om * s, m).take(_hamming(m))
                       for m in group_sizes(reg.n)]
            for _ in range(nsub):
                psi = half * complex_drive_factor(half * psi, factors)
    return psi
