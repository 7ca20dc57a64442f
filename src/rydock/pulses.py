"""Pulse schedules for the analog drive.

Times are nanoseconds, angular frequencies rad/us. A schedule is a list of
segments, each pairing a Rabi waveform with a detuning waveform, with no
carrier phase. Detuning sign convention: the Hamiltonian contains
-delta(t) * w_i * n_i, so sweeps run from negative (ground state favoured)
to positive (excitation favoured). This is the single most error-prone sign
in the package; it is asserted by the evolution tests.

`FAMILIES` states each schedule family once, its parameters in search order
with hardware bounds. Lower bounds are strict on omega and the simple delta
(a dead drive or sweep is refused) and exact elsewhere; upper bounds and the
complex ramps' shared duration budget allow 1e-9 of rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError

MIN_WAVEFORM_NS = 16.0
DEFAULT_COHERENCE_NS = 5000.0


@dataclass(frozen=True)
class Ramp:
    """Linear sweep from `start` to `end` over `duration` ns."""

    start: float
    end: float
    duration: float

    def __post_init__(self):
        if self.duration < MIN_WAVEFORM_NS:
            raise InputError(f"waveform shorter than {MIN_WAVEFORM_NS} ns")

    def sample(self, t):
        frac = np.clip(np.asarray(t, dtype=float) / self.duration, 0.0, 1.0)
        return self.start + (self.end - self.start) * frac


@dataclass(frozen=True)
class Interpolated:
    """Shape-preserving piecewise cubic (PCHIP) through evenly spaced points.

    Interior slopes are the Fritsch-Carlson weighted harmonic mean of the
    neighbouring secant slopes, and zero where those change sign or either
    is flat, so the curve is monotone between neighbouring points and never
    overshoots their range. End slopes use the one-sided three-point
    formula, set to zero when it disagrees in sign with the end secant and
    capped at three times that secant when the first two secants differ in
    sign. Two points give a straight line. Slopes, coefficients and the
    evaluation order follow scipy's `PchipInterpolator`, and the samples
    match it bit for bit.
    """

    points: tuple
    duration: float

    def __post_init__(self):
        if self.duration < MIN_WAVEFORM_NS:
            raise InputError(f"waveform shorter than {MIN_WAVEFORM_NS} ns")
        if len(self.points) < 2:
            raise InputError("interpolated waveform needs at least 2 points")

    @cached_property
    def _spline(self):
        """Knots and per-interval coefficients of c0 s^3 + c1 s^2 + c2 s + c3."""
        x = np.linspace(0.0, self.duration, len(self.points))
        y = np.asarray(self.points, dtype=float)
        h = np.diff(x)
        m = np.diff(y) / h
        if len(y) == 2:
            d = np.array([m[0], m[0]])
        else:
            w1 = 2 * h[1:] + h[:-1]
            w2 = h[1:] + 2 * h[:-1]
            keep = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0) & (m[:-1] != 0)
            d = np.zeros_like(y)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
                d[1:-1] = np.where(keep, 1.0 / whmean, 0.0)
            d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
            d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
        t = (d[:-1] + d[1:] - 2 * m) / h
        return x, (t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1])

    def sample(self, t):
        x, (c0, c1, c2, c3) = self._spline
        t = np.clip(np.asarray(t, dtype=float), 0.0, self.duration)
        k = np.clip(np.searchsorted(x, t, side="right") - 1, 0, len(x) - 2)
        s = t - x[k]
        s2 = s * s
        return c3[k] + c2[k] * s + c1[k] * s2 + c0[k] * (s2 * s)


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point end slope with the two shape-preserving clamps."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


@dataclass(frozen=True)
class Segment:
    """One schedule segment: Rabi and detuning waveforms of one duration."""

    omega: object
    delta: object

    def __post_init__(self):
        if abs(self.omega.duration - self.delta.duration) > 1e-9:
            raise InputError("omega and delta waveforms must share a duration")

    @property
    def duration(self) -> float:
        return float(self.omega.duration)


@dataclass(frozen=True)
class PulseSequence:
    segments: tuple

    def __post_init__(self):
        if not self.segments:
            raise InputError("empty pulse sequence")


# Each family's parameters in search order, with hardware bounds (lo, hi,
# lo_open). A string `hi` names a device limit, or the duration budget.
FAMILIES = {
    # one segment: Rabi bump 0 -> omega -> 0, detuning sweep -delta -> +delta
    "simple": {
        "omega": (0, "omega_max", True),
        "delta": (0, "delta_abs_max", True),
        "time": (2 * MIN_WAVEFORM_NS, "budget", False),
    },
    # Rabi rise at constant -delta0, then fall as the detuning ramps to +deltaf
    "complex": {
        "t_rise": (MIN_WAVEFORM_NS, "budget", False),
        "t_fall": (MIN_WAVEFORM_NS, "budget", False),
        "omega": (0, "omega_max", True),
        "delta0": (0, "delta_abs_max", False),
        "deltaf": (0, "delta_abs_max", False),
    },
}


def hardware_bounds(family: str, omega_max: float, delta_abs_max: float, budget: float) -> dict:
    """{parameter: (lo, hi, lo_open)} of `family`, device limits filled in."""
    if family not in FAMILIES:
        raise InputError(f"unknown family {family!r}")
    limit = {"omega_max": omega_max, "delta_abs_max": delta_abs_max, "budget": budget}
    return {k: (lo, limit[hi], lo_open) for k, (lo, hi, lo_open) in FAMILIES[family].items()}


def durations(family: str) -> tuple:
    """The segment durations of `family`, whose sum must fit the budget."""
    return tuple(k for k, (_, hi, _) in FAMILIES[family].items() if hi == "budget")


def _check_params(params: dict, family: str, omega_max: float, delta_abs_max: float,
                  budget: float):
    """InputError unless every parameter of `family` is inside its hardware
    interval and the segment durations fit the budget together."""
    for k, (lo, hi, lo_open) in hardware_bounds(family, omega_max, delta_abs_max,
                                                 budget).items():
        v = params[k]
        if not (lo < v if lo_open else lo <= v) or not v <= hi + 1e-9:
            raise InputError(f"{k} {v} outside {'(' if lo_open else '['}{lo}, {hi}]")
    total = sum(params[k] for k in durations(family))
    if total > budget + 1e-9:
        raise InputError(f"{' + '.join(durations(family))} = {total:.0f} ns "
                         f"exceeds the {budget:.0f} ns budget")


def simple_sequence(params: dict, omega_max: float, delta_abs_max: float,
                    coherence_ns: float = DEFAULT_COHERENCE_NS) -> PulseSequence:
    _check_params(params, "simple", omega_max, delta_abs_max, coherence_ns)
    seg = Segment(
        omega=Interpolated((0.0, params["omega"], 0.0), params["time"]),
        delta=Interpolated((-params["delta"], 0.0, params["delta"]), params["time"]),
    )
    return PulseSequence(segments=(seg,))


def complex_sequence(params: dict, omega_max: float, delta_abs_max: float,
                     coherence_ns: float = DEFAULT_COHERENCE_NS) -> PulseSequence:
    _check_params(params, "complex", omega_max, delta_abs_max, coherence_ns)
    rise = Segment(
        omega=Ramp(0.0, params["omega"], params["t_rise"]),
        delta=Ramp(-params["delta0"], -params["delta0"], params["t_rise"]),
    )
    fall = Segment(
        omega=Ramp(params["omega"], 0.0, params["t_fall"]),
        delta=Ramp(-params["delta0"], params["deltaf"], params["t_fall"]),
    )
    return PulseSequence(segments=(rise, fall))
