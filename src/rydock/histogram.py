"""Measurement histograms: bitstring -> shot count.

Bitstrings follow the global convention: leftmost character is the first
atom (or vertex) in construction order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import files
from .errors import InputError


@dataclass(frozen=True)
class Histogram:
    shots: int
    counts: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.shots <= 0:
            raise InputError("shots must be positive")
        total = 0
        width = None
        for bits, c in self.counts.items():
            if set(bits) - {"0", "1"}:
                raise InputError(f"bad bitstring {bits!r}")
            if width is None:
                width = len(bits)
            elif len(bits) != width:
                raise InputError("bitstrings of mixed width")
            if c < 0 or c != int(c):
                raise InputError(f"bad count {c} for {bits!r}")
            total += c
        if total != self.shots:
            raise InputError(f"counts sum to {total}, expected {self.shots}")

    def top(self, k: int = 10) -> list:
        """Most frequent outcomes, count-descending with bitstring tiebreak."""
        ordered = sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return ordered[:k]


def load_histogram(path) -> Histogram:
    return files.read(path, lambda doc: Histogram(
        shots=int(doc["shots"]), counts={str(k): int(v) for k, v in doc["counts"].items()}))


def save_histogram(h: Histogram, path, meta: dict | None = None):
    doc = {"shots": h.shots, "counts": dict(sorted(h.counts.items()))}
    if meta is not None:
        doc["meta"] = meta
    files.write(path, doc)
