"""State-vector emulation of the analog Rydberg dynamics.

The Hamiltonian is H(t) = Omega(t)/2 * sum_i sigma_x_i
                        - delta(t) * sum_i w_i n_i
                        + sum_{i<j} (c6 / R_ij^6) n_i n_j
with hbar = 1, energies in rad/us, times in ns, distances in um. The
number operator n = (1 + sigma_z)/2, so this differs from a sigma_z-based
writing only by a state-independent shift. Note the detuning sign: positive
delta *lowers* the energy of excited atoms.

Everything diagonal lives in a single length-2^N vector. Each step applies
the midpoint-rule propagator psi <- exp(-i H(t + dt/2) dt) psi through a
truncated power series, with terms added until one falls below 1e-12 in
norm. The diagonal is recentred first, and a step is split into sub-steps
whenever ||H|| * dt would exceed THETA_MAX. The series runs on one step
operator per `evolve` call, -i * tau * H, preassembled with fixed slots for
the 2^N diagonal entries and the N * 2^N bit-flip entries; a step only
rewrites the values in those slots. The operator is a dense matrix up to
DENSE_MAX_ATOMS atoms, where numpy's matrix product costs less than sparse
dispatch, and a complex CSR matrix above that.
The state is never renormalised: norm drift is an error signal, and drift
beyond 1e-4 raises.

Basis convention: bit k of the state index is atom k, and rendered
bitstrings put atom 0 leftmost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .errors import InputError, NumericalError
from .histogram import Histogram
from .pulses import PulseSequence
from .register import DeviceParams, Register

ATOM_CAP = 16
SERIES_TOL = 1e-12
DRIFT_LIMIT = 1e-4
# Maximum allowed ||H|| * dt per series application; larger steps are split.
THETA_MAX = 6.0
# Largest register whose step operator is a dense matrix: below this size
# numpy's `@` beats scipy's sparse dispatch; above it the CSR form wins.
DENSE_MAX_ATOMS = 7


@dataclass(frozen=True)
class StateVector:
    amplitudes: np.ndarray
    n_atoms: int

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def _check_cap(n: int):
    if n > ATOM_CAP:
        raise InputError(f"{n} atoms exceeds the {ATOM_CAP}-atom state-vector cap")
    if n < 1:
        raise InputError("need at least one atom")


def bitstring_of(index: int, n: int) -> str:
    """Render a basis index: atom k = bit k, atom 0 leftmost."""
    return "".join("1" if (index >> k) & 1 else "0" for k in range(n))


def _half_flip_operator(n: int) -> csr_matrix:
    """Sparse 0.5 * sum_k sigma_x_k."""
    dim = 1 << n
    idx = np.arange(dim, dtype=np.int64)
    rows = np.tile(idx, n)
    cols = np.concatenate([idx ^ (1 << k) for k in range(n)])
    data = np.full(n * dim, 0.5)
    return csr_matrix((data, (rows, cols)), shape=(dim, dim))


def _bit_table(n: int) -> np.ndarray:
    dim = 1 << n
    idx = np.arange(dim, dtype=np.int64)
    return np.stack([(idx >> k) & 1 for k in range(n)]).astype(float)


def interaction_diagonal(reg: Register, dev: DeviceParams) -> np.ndarray:
    """sum_{i<j} U_ij n_i n_j over the register geometry, as a 2^N vector."""
    _check_cap(reg.n)
    bits = _bit_table(reg.n)
    pos = reg.positions()
    diag = np.zeros(1 << reg.n)
    for i in range(reg.n):
        for j in range(i + 1, reg.n):
            r = float(np.hypot(*(pos[i] - pos[j])))
            if r <= 0:
                raise InputError(f"coincident atoms {reg.atoms[i].id}, {reg.atoms[j].id}")
            diag += (dev.c6 / r**6) * bits[i] * bits[j]
    return diag


def occupation_diagonal(reg: Register) -> np.ndarray:
    """sum_i w_i n_i as a 2^N vector (w = per-atom detuning weights)."""
    _check_cap(reg.n)
    bits = _bit_table(reg.n)
    return reg.detuning_weights() @ bits


@dataclass(frozen=True)
class Hamiltonian:
    """Fixed-control Hamiltonian split into drive and diagonal parts."""

    n_atoms: int
    omega: float
    diagonal: np.ndarray
    half_flip: csr_matrix

    def apply(self, psi: np.ndarray) -> np.ndarray:
        out = self.diagonal * psi
        if self.omega != 0.0:
            out = out + self.omega * (self.half_flip @ psi)
        return out

    def to_dense(self) -> np.ndarray:
        if self.n_atoms > 12:
            raise InputError("dense form capped at 12 atoms")
        return self.omega * self.half_flip.toarray() + np.diag(self.diagonal)


def build_hamiltonian(reg: Register, omega: float, delta: float,
                      dev: DeviceParams) -> Hamiltonian:
    """H at fixed controls: (omega/2) sum sigma_x - delta sum w n + sum U nn."""
    _check_cap(reg.n)
    diag = interaction_diagonal(reg, dev) - delta * occupation_diagonal(reg)
    return Hamiltonian(
        n_atoms=reg.n,
        omega=float(omega),
        diagonal=diag,
        half_flip=_half_flip_operator(reg.n),
    )


@dataclass(frozen=True)
class _StepOperator:
    """-i tau (diag + omega/2 sum_k sigma_x_k) with writable value slots.

    `values` is a flat view of the operator's entries: `diag_slots` index
    the 2^N diagonal entries and `drive_slots` the N * 2^N bit-flip
    entries, so a step rewrites the operator with two indexed assignments.
    """

    matrix: object  # dense ndarray or csr_matrix; both apply with `@`
    values: np.ndarray
    diag_slots: np.ndarray
    drive_slots: np.ndarray


def _step_operator(n: int) -> _StepOperator:
    """Zeroed step operator for n atoms, dense up to DENSE_MAX_ATOMS."""
    dim = 1 << n
    idx = np.arange(dim, dtype=np.int32)
    # row i holds column i, then columns i ^ 2^k for k = 0..n-1
    cols = np.stack([idx] + [idx ^ (1 << k) for k in range(n)], axis=1)
    if n <= DENSE_MAX_ATOMS:
        matrix = np.zeros((dim, dim), dtype=np.complex128)
        values = matrix.reshape(-1)
        slots = idx[:, None] * dim + cols
    else:
        width = n + 1
        indptr = np.arange(0, dim * width + 1, width, dtype=np.int32)
        matrix = csr_matrix((np.zeros(dim * width, dtype=np.complex128),
                             cols.ravel(), indptr), shape=(dim, dim))
        values = matrix.data
        slots = np.arange(dim * width, dtype=np.int32).reshape(dim, width)
    return _StepOperator(matrix, values, slots[:, 0], slots[:, 1:].ravel())


def evolve(reg: Register, seq: PulseSequence, dev: DeviceParams,
           dt: float = 4.0) -> StateVector:
    """Integrate the schedule from |00...0> with midpoint steps of `dt` ns.

    Steps never straddle segment boundaries. Raises NumericalError when the
    norm drifts by more than 1e-4 (the step size is too coarse); drift is
    never hidden by renormalising.
    """
    _check_cap(reg.n)
    if not (math.isfinite(dt) and dt > 0):
        raise InputError(f"dt must be a positive finite number, got {dt}")
    inter = interaction_diagonal(reg, dev)
    occ = occupation_diagonal(reg)
    step = _step_operator(reg.n)
    op, values = step.matrix, step.values
    tol_sq = SERIES_TOL * SERIES_TOL
    dim = 1 << reg.n
    psi = np.zeros(dim, dtype=np.complex128)
    psi[0] = 1.0

    for seg in seq.segments:
        if abs(seg.phase) > 1e-12:
            raise InputError("only phase-0 schedules are supported")
        steps = max(1, int(np.ceil(seg.duration / dt - 1e-9)))
        edges = np.linspace(0.0, seg.duration, steps + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        omegas = np.asarray(seg.omega.sample(mids), dtype=float).reshape(-1)
        deltas = np.asarray(seg.delta.sample(mids), dtype=float).reshape(-1)
        widths = np.diff(edges)
        for k in range(steps):
            om, de = float(omegas[k]), float(deltas[k])
            diag = inter - de * occ
            centre = 0.5 * (float(diag.max()) + float(diag.min()))
            diag -= centre
            tau = float(widths[k]) * 1e-3  # ns -> us
            bound = float(np.abs(diag).max()) + 0.5 * abs(om) * reg.n
            nsub = max(1, int(np.ceil(bound * tau / THETA_MAX)))
            sub = tau / nsub
            phase = np.exp(-1j * centre * sub)
            values[step.diag_slots] = (-1j * sub) * diag
            values[step.drive_slots] = (-0.5j * sub) * om
            for _ in range(nsub):
                # psi <- exp(op) psi by power series, terms until below SERIES_TOL
                acc = psi.copy()
                term = psi
                for j in range(1, 400):
                    term = op @ term
                    term *= 1.0 / j
                    acc += term
                    if np.vdot(term, term).real < tol_sq:
                        break
                else:
                    raise NumericalError("propagator series failed to converge")
                acc *= phase
                psi = acc

    drift = abs(np.linalg.norm(psi) - 1.0)
    if drift > DRIFT_LIMIT:
        raise NumericalError(
            f"norm drift {drift:.2e} exceeds {DRIFT_LIMIT}; reduce dt"
        )
    return StateVector(amplitudes=psi, n_atoms=reg.n)


def measure(state: StateVector, shots: int, seed) -> Histogram:
    """Draw `shots` independent basis samples from |amplitude|^2."""
    if shots <= 0:
        raise InputError("shots must be positive")
    probs = np.abs(state.amplitudes) ** 2
    probs = probs / probs.sum()
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    counts = rng.multinomial(shots, probs)
    out = {}
    for idx in np.flatnonzero(counts):
        out[bitstring_of(int(idx), state.n_atoms)] = int(counts[idx])
    return Histogram(shots=shots, counts=out)


def exact_distribution(state: StateVector) -> dict:
    """Exact outcome probabilities keyed by bitstring (nonzero entries)."""
    probs = np.abs(state.amplitudes) ** 2
    out = {}
    for idx in np.flatnonzero(probs):
        out[bitstring_of(int(idx), state.n_atoms)] = float(probs[idx])
    return out
