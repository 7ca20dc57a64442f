"""Pulse schedules for the analog drive.

Times are nanoseconds, angular frequencies rad/us. A schedule is a list of
segments, each pairing a Rabi waveform with a detuning waveform, with no
carrier phase. Detuning sign convention: the Hamiltonian contains
-delta(t) * w_i * n_i, so sweeps run from negative (ground state favoured)
to positive (excitation favoured). This is the single most error-prone sign
in the package; it is asserted by the evolution tests.

The simple family is closed form, with u = t/T: the Rabi bump
4 omega u (1 - u) and the sweep -delta + 2 delta u. These are the PCHIP
(Fritsch and Carlson, SIAM J. Numer. Anal. 17, 238, 1980) through
(0, omega, 0) and (-delta, 0, delta) at t = 0, T/2, T, since they share its
values and slopes, which fix a cubic on each half: interior slope 0 for the
bump and 2 delta/T for the sweep, end slopes +-4 omega/T and 2 delta/T.

`FAMILIES` states each schedule family once, its parameters in search order
with hardware bounds. Lower bounds are strict on omega and the simple delta
(a dead drive or sweep is refused) and exact elsewhere; upper bounds and the
complex ramps' shared duration budget allow 1e-9 of rounding. `ParamSpace`
is the one home of pulse feasibility: the builders `check` a pulse against
`ParamSpace.hardware`, `optimize.search_space` narrows that space, and both
searches draw, clamp and test their points with its methods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        frac = np.minimum(np.maximum(np.asarray(t, dtype=float) / self.duration, 0.0), 1.0)
        return self.start + (self.end - self.start) * frac


@dataclass(frozen=True)
class Parabola:
    """Rabi bump 0 -> `peak` -> 0 over `duration` ns: 4 peak u (1 - u), u = t/duration."""

    peak: float
    duration: float

    def __post_init__(self):
        if self.duration < MIN_WAVEFORM_NS:
            raise InputError(f"waveform shorter than {MIN_WAVEFORM_NS} ns")

    def sample(self, t):
        u = np.minimum(np.maximum(np.asarray(t, dtype=float) / self.duration, 0.0), 1.0)
        return 4.0 * self.peak * u * (1.0 - u)


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
    # one segment, u = t/time: Rabi bump 4 omega u (1 - u), detuning sweep
    # -delta + 2 delta u (the PCHIP through 0, omega, 0 and -delta, 0, delta)
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


@dataclass(frozen=True)
class ParamSpace:
    """Bounds (lo, hi) per parameter, in search order, with the lower bounds
    of `open_lo` strict, plus a joint limit on the sum of the `ramps`
    durations. Upper bounds and the limit allow 1e-9 of rounding."""

    intervals: dict
    total_time_limit: float = math.inf
    ramps: tuple = ()
    open_lo: frozenset = frozenset()

    @classmethod
    def hardware(cls, family: str, omega_max: float, delta_abs_max: float,
                 budget: float) -> "ParamSpace":
        """The hardware space of `family` within the duration `budget`."""
        if family not in FAMILIES:
            raise InputError(f"unknown family {family!r}")
        limit = {"omega_max": omega_max, "delta_abs_max": delta_abs_max, "budget": budget}
        table = FAMILIES[family].items()
        return cls({k: (lo, limit[hi]) for k, (lo, hi, _) in table}, budget,
                   tuple(k for k, (_, hi, _) in table if hi == "budget"),
                   frozenset(k for k, (_, _, lo_open) in table if lo_open))

    @property
    def names(self) -> tuple:
        return tuple(self.intervals)

    def _violations(self, params: dict):
        """Why `params` lies outside the space, in the order checked."""
        for k, (lo, hi) in self.intervals.items():
            v, lo_open = params[k], k in self.open_lo
            if not (lo < v if lo_open else lo <= v) or not v <= hi + 1e-9:
                yield f"{k} {v} outside {'(' if lo_open else '['}{lo}, {hi}]"
        total = sum(params[k] for k in self.ramps)
        if total > self.total_time_limit + 1e-9:
            yield (f"{' + '.join(self.ramps)} = {total:.0f} ns "
                   f"exceeds the {self.total_time_limit:.0f} ns budget")

    def feasible(self, params: dict) -> bool:
        return next(self._violations(params), None) is None

    def check(self, params: dict):
        """InputError naming the first bound that `params` breaks."""
        for reason in self._violations(params):
            raise InputError(reason)

    def clamp(self, params: dict) -> dict:
        """`params` moved into the box, then the ramps scaled down together
        (not below their lower bounds) to fit the duration limit."""
        out = {k: float(min(max(params[k], lo), hi)) for k, (lo, hi) in self.intervals.items()}
        total = sum(out[k] for k in self.ramps)
        if total > self.total_time_limit:
            f = self.total_time_limit / total
            for k in self.ramps:
                out[k] = max(out[k] * f, self.intervals[k][0])
        return out

    def draw(self, sample) -> dict:
        """A point of `sample()`, redrawn until it is feasible (at most 200
        times, then clamped)."""
        for _ in range(200):
            p = sample()
            if self.feasible(p):
                return p
        return self.clamp(p)

    def uniform(self, rng) -> dict:
        """A feasible draw, uniform over the box."""
        return self.draw(lambda: {k: float(rng.uniform(lo, hi))
                                  for k, (lo, hi) in self.intervals.items()})


def simple_sequence(params: dict, omega_max: float, delta_abs_max: float,
                    coherence_ns: float = DEFAULT_COHERENCE_NS) -> PulseSequence:
    ParamSpace.hardware("simple", omega_max, delta_abs_max, coherence_ns).check(params)
    seg = Segment(
        omega=Parabola(params["omega"], params["time"]),
        delta=Ramp(-params["delta"], params["delta"], params["time"]),
    )
    return PulseSequence(segments=(seg,))


def complex_sequence(params: dict, omega_max: float, delta_abs_max: float,
                     coherence_ns: float = DEFAULT_COHERENCE_NS) -> PulseSequence:
    ParamSpace.hardware("complex", omega_max, delta_abs_max, coherence_ns).check(params)
    rise = Segment(
        omega=Ramp(0.0, params["omega"], params["t_rise"]),
        delta=Ramp(-params["delta0"], -params["delta0"], params["t_rise"]),
    )
    fall = Segment(
        omega=Ramp(params["omega"], 0.0, params["t_fall"]),
        delta=Ramp(-params["delta0"], params["deltaf"], params["t_fall"]),
    )
    return PulseSequence(segments=(rise, fall))
