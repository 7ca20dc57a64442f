"""Pulse schedules for the analog drive.

Times are nanoseconds, angular frequencies rad/us. A schedule is a list of
segments, each pairing a Rabi waveform with a detuning waveform and a fixed
carrier phase. Detuning sign convention: the Hamiltonian contains
-delta(t) * w_i * n_i, so sweeps run from negative (ground state favoured)
to positive (excitation favoured). This is the single most error-prone sign
in the package; it is asserted by the evolution tests.
"""

from __future__ import annotations

import json
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

    def bounds(self):
        lo, hi = sorted((self.start, self.end))
        return lo, hi


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

    def bounds(self):
        return float(min(self.points)), float(max(self.points))


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
    """One schedule segment: Rabi and detuning waveforms plus carrier phase."""

    omega: object
    delta: object
    phase: float = 0.0

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

    @property
    def total_duration(self) -> float:
        return float(sum(s.duration for s in self.segments))

    def segment_at(self, t: float):
        """Segment containing global time t, with t mapped to segment-local."""
        left = 0.0
        for seg in self.segments:
            if t <= left + seg.duration or seg is self.segments[-1]:
                return seg, t - left
            left += seg.duration
        raise InputError(f"time {t} outside sequence")

    def omega_at(self, t: float) -> float:
        seg, tl = self.segment_at(t)
        return float(seg.omega.sample(tl))

    def delta_at(self, t: float) -> float:
        seg, tl = self.segment_at(t)
        return float(seg.delta.sample(tl))

    def validate(self, omega_max: float, delta_abs_max: float,
                 coherence_ns: float = DEFAULT_COHERENCE_NS):
        """Check hardware envelopes: non-negative Rabi within omega_max,
        |detuning| within delta_abs_max (scaled per-atom weights excluded),
        and total duration within the coherence budget."""
        if self.total_duration > coherence_ns + 1e-9:
            raise InputError(
                f"sequence lasts {self.total_duration:.0f} ns, "
                f"coherence budget is {coherence_ns:.0f} ns"
            )
        for seg in self.segments:
            olo, ohi = seg.omega.bounds()
            if olo < -1e-12 or ohi > omega_max + 1e-9:
                raise InputError(f"Rabi waveform outside [0, {omega_max}]")
            dlo, dhi = seg.delta.bounds()
            if max(abs(dlo), abs(dhi)) > delta_abs_max + 1e-9:
                raise InputError(f"detuning outside [-{delta_abs_max}, {delta_abs_max}]")


@dataclass(frozen=True)
class SimpleParams:
    """Single-segment family: Rabi bump 0 -> omega -> 0, detuning sweep
    -delta -> +delta, one total duration."""

    omega: float
    delta: float
    time: float

    def validate(self, omega_max: float, delta_abs_max: float,
                 coherence_ns: float = DEFAULT_COHERENCE_NS):
        if not 0.0 < self.omega <= omega_max + 1e-9:
            raise InputError(f"omega {self.omega} outside (0, {omega_max}]")
        if not 0.0 < self.delta <= delta_abs_max + 1e-9:
            raise InputError(f"delta {self.delta} outside (0, {delta_abs_max}]")
        if not 2 * MIN_WAVEFORM_NS <= self.time <= coherence_ns + 1e-9:
            raise InputError(f"time {self.time} outside [{2 * MIN_WAVEFORM_NS}, {coherence_ns}]")


@dataclass(frozen=True)
class ComplexParams:
    """Two-segment family: linear Rabi rise at constant -delta0, then Rabi
    fall while the detuning ramps -delta0 -> +deltaf."""

    t_rise: float
    t_fall: float
    omega: float
    delta0: float
    deltaf: float

    def validate(self, omega_max: float, delta_abs_max: float,
                 coherence_ns: float = DEFAULT_COHERENCE_NS):
        for name, t in (("t_rise", self.t_rise), ("t_fall", self.t_fall)):
            if not MIN_WAVEFORM_NS <= t <= coherence_ns + 1e-9:
                raise InputError(f"{name} {t} outside [{MIN_WAVEFORM_NS}, {coherence_ns}]")
        if self.t_rise + self.t_fall > coherence_ns + 1e-9:
            raise InputError(
                f"t_rise + t_fall = {self.t_rise + self.t_fall:.0f} ns "
                f"exceeds the {coherence_ns:.0f} ns budget"
            )
        if not 0.0 < self.omega <= omega_max + 1e-9:
            raise InputError(f"omega {self.omega} outside (0, {omega_max}]")
        for name, d in (("delta0", self.delta0), ("deltaf", self.deltaf)):
            if not 0.0 <= d <= delta_abs_max + 1e-9:
                raise InputError(f"{name} {d} outside [0, {delta_abs_max}]")


def simple_sequence(params: SimpleParams, omega_max: float, delta_abs_max: float,
                    coherence_ns: float = DEFAULT_COHERENCE_NS) -> PulseSequence:
    params.validate(omega_max, delta_abs_max, coherence_ns)
    seg = Segment(
        omega=Interpolated((0.0, params.omega, 0.0), params.time),
        delta=Interpolated((-params.delta, 0.0, params.delta), params.time),
        phase=0.0,
    )
    return PulseSequence(segments=(seg,))


def complex_sequence(params: ComplexParams, omega_max: float, delta_abs_max: float,
                     coherence_ns: float = DEFAULT_COHERENCE_NS) -> PulseSequence:
    params.validate(omega_max, delta_abs_max, coherence_ns)
    rise = Segment(
        omega=Ramp(0.0, params.omega, params.t_rise),
        delta=Ramp(-params.delta0, -params.delta0, params.t_rise),
        phase=0.0,
    )
    fall = Segment(
        omega=Ramp(params.omega, 0.0, params.t_fall),
        delta=Ramp(-params.delta0, params.deltaf, params.t_fall),
        phase=0.0,
    )
    return PulseSequence(segments=(rise, fall))


def dump_sequence(seq: PulseSequence, path, resolution_ns: float = 4.0,
                  meta: dict | None = None):
    """Write sampled (t, omega, delta) triples at fixed resolution."""
    total = seq.total_duration
    ts = np.arange(0.0, total + resolution_ns / 2, resolution_ns)
    ts[-1] = min(ts[-1], total)
    samples = [[float(t), float(seq.omega_at(t)), float(seq.delta_at(t))] for t in ts]
    doc = {"duration_ns": total, "resolution_ns": resolution_ns, "samples": samples}
    if meta is not None:
        doc["meta"] = meta
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
