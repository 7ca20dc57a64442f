"""Host-speed calibration: a fixed kernel timed between pieces of work.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over seconds to minutes, for the program and for anything
else alike. A timed run therefore interleaves a short fixed kernel, owned by
the benchmark and independent of ``src/``, with the work: after every scored
evaluation and at both ends of every timed region. Each tick gives a speed
factor, the kernel's time over ``NOMINAL_S``. A region's seconds divided by the
mean factor of the ticks inside and around it are its seconds at nominal host
speed; the ticks' own time is left out of the region. A change to rydock moves
the region's time but not the kernel's, so it shows in full, while a slow
spell of the host moves both and cancels.

The kernel mixes the three kinds of work the workloads do: a sparse complex
matrix-vector product like the simulator's (a 10-qubit bit-flip operator),
small dense products like the GCN's, and pure-Python loop work like the
optimizers' bookkeeping.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp

# Median kernel time on the machine the benchmark was defined on (2 vCPUs of
# an Intel Xeon, Python 3.11, numpy 2.4, scipy 1.17, one BLAS thread).
NOMINAL_S = 0.0025
QUBITS = 10


def _flip_operator(n: int) -> sp.csr_matrix:
    """Sum over qubits of the bit flip X_i, as a CSR matrix on 2^n amplitudes."""
    dim = 1 << n
    rows = np.repeat(np.arange(dim), n)
    cols = rows ^ np.tile(1 << np.arange(n), dim)
    return sp.csr_matrix((np.ones(dim * n), (rows, cols)), shape=(dim, dim))


class Calibrator:
    """Speed factors of the host, sampled by ticks, and the time they took."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.factors = []
        self.spent = 0.0  # seconds spent in ticks
        if not enabled:
            return
        rng = np.random.default_rng(12345)
        self._flip = _flip_operator(QUBITS)
        self._diag = rng.uniform(-1.0, 1.0, 1 << QUBITS)
        self._psi = np.full(1 << QUBITS, (1 << QUBITS) ** -0.5, dtype=np.complex128)
        self._dense = rng.standard_normal((48, 48)) / 48
        self._words = [f"w{i % 97}" for i in range(600)]

    def _kernel(self) -> float:
        psi = self._psi
        for _ in range(24):
            psi = psi - 0.01j * (self._flip @ psi + self._diag * psi)
        m = self._dense
        for _ in range(40):
            m = np.tanh(m @ self._dense)
        counts = {}
        for _ in range(4):
            for w in self._words:
                counts[w] = counts.get(w, 0) + len(w)
        return float(abs(psi[0])) + float(m[0, 0]) + len(counts)

    def tick(self) -> float:
        """Time the kernel once; return and record the host's speed factor."""
        if not self.enabled:
            return 1.0
        t0 = time.perf_counter()
        self._kernel()
        took = time.perf_counter() - t0
        self.spent += took
        factor = took / NOMINAL_S
        self.factors.append(factor)
        return factor

    @property
    def last(self) -> float:
        return self.factors[-1] if self.factors else 1.0

    def mark(self):
        """Tick, then start a timed region."""
        self.tick()
        return time.perf_counter(), self.spent, len(self.factors) - 1

    def since(self, mark):
        """(raw seconds, seconds at nominal speed) of the region since `mark`,
        without the ticks inside it; ticks once more to close the region."""
        t0, spent0, first = mark
        raw = time.perf_counter() - t0 - (self.spent - spent0)
        self.tick()
        if not self.enabled:
            return raw, raw
        return raw, raw / statistics.fmean(self.factors[first:])
