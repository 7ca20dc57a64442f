"""Reference step schedule: `rydock.simulator._compile` in its plainer form.

`_compile` turns a pulse into flat per-step arrays and stretch bounds, and
runs once per `evolve` call, so it is written for few numpy calls: Python
`math.ceil`, `np.minimum` and `np.maximum` in place of `np.clip` (also in
`Ramp.sample` and `Parabola.sample`), stretch bounds gathered per segment as
Python ints, and a leading 0 entry of delta and half in place of
`np.append`. This module keeps the plainer version it replaced: each waveform
sampled through `np.clip` (`clipped_sample`), the sub-step rule through
`np.clip` (`clipped_substep_counts`), and the bounds as one `np.union1d`
of the steps where nsub changes and the segment ends. Both build the same
arrays, so `_compile` must give the same bytes.
"""

from __future__ import annotations

import math

import numpy as np

from rydock.pulses import Parabola, PulseSequence, Ramp
from rydock.simulator import OMEGA_EXPONENT, PHI_MAX, PHI_OMEGA


def clipped_sample(wave, t) -> np.ndarray:
    """A Ramp's or a Parabola's value at times `t` ns, with u = t / duration
    clipped by `np.clip`; any other waveform's own `sample`."""
    if not isinstance(wave, (Ramp, Parabola)):
        return wave.sample(t)
    u = np.clip(np.asarray(t, dtype=float) / wave.duration, 0.0, 1.0)
    if isinstance(wave, Ramp):
        return wave.start + (wave.end - wave.start) * u
    return 4.0 * wave.peak * u * (1.0 - u)


def clipped_substep_counts(tau: float, gap: float, omegas: np.ndarray,
                           omega_max: float) -> np.ndarray:
    """`substep_counts`, bounded by `np.clip`."""
    cap = max(1, math.ceil(tau * gap / PHI_MAX))
    want = np.ceil(tau * gap * (np.abs(omegas) / omega_max) ** OMEGA_EXPONENT / PHI_OMEGA)
    return np.clip(want, 1, cap).astype(np.int64)


def reference_compile(seq: PulseSequence, dt: float, flip_gap: np.ndarray,
                      weights: np.ndarray, omega_max: float) -> tuple:
    """(theta, nsub, half, lead, d_first, t_first, stretch bounds), as
    `_compile` returns them."""
    omegas, deltas, nsubs, halves = [], [], [], []
    for seg in seq.segments:
        steps = max(1, int(np.ceil(seg.duration / dt - 1e-9)))
        edges = np.linspace(0.0, seg.duration, steps + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        omegas.append(np.asarray(clipped_sample(seg.omega, mids), dtype=float).reshape(-1))
        deltas.append(np.asarray(clipped_sample(seg.delta, mids), dtype=float).reshape(-1))
        tau = seg.duration / steps * 1e-3  # ns -> us
        gap = float(np.max(flip_gap + np.abs(deltas[-1]).max() * np.abs(weights)))
        nsubs.append(clipped_substep_counts(tau, gap, omegas[-1], omega_max))
        halves.append(0.5 * tau / nsubs[-1])
    omega, delta, nsub, half = map(np.concatenate, (omegas, deltas, nsubs, halves))
    lead = delta * half
    # half changes within a segment only where nsub does
    bounds = np.union1d(np.flatnonzero(np.diff(nsub)) + 1, np.cumsum(list(map(len, nsubs))))
    return (omega * half, nsub, half, lead, np.append(0.0, lead[:-1]) + lead,
            np.append(0.0, half[:-1]) + half, [0, *bounds.tolist()])
