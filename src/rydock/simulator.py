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
norm. The series is centred on the state's own energy: with D the step's
diagonal and c = Re <psi|D|psi>, it runs on H - c and multiplies by the
exact phase exp(-i c dt) afterwards. The state's energy spread is much
smaller than half the spectrum, so the series converges in fewer terms
than one centred on the spectrum's midpoint. A step is split into
sub-steps whenever (max|D - c| + |Omega| N / 2) * dt would exceed
THETA_MAX.

The series runs on one operator per `evolve` call, with the factor
-i * tau * Omega / 2 (tau the sub-step width) taken out of -i tau (H - c):
M = 2 (D - c) / Omega + sum_k sigma_x_k. Its N * 2^N bit-flip entries are
1 and are written once per call; a step rewrites only the 2^N diagonal
entries, through a strided view of the matrix's storage. M is a dense
matrix up to DENSE_MAX_ATOMS atoms, where numpy's matrix product costs
less than sparse dispatch, and a complex CSR matrix above that. A step
whose drive is too weak to move the state in double precision (Omega = 0
among them) is the exact diagonal phase exp(-i D dt) instead.

The state is never renormalised: norm drift is an error signal, and drift
beyond 1e-4 raises.

Basis convention: bit k of the state index is atom k, and rendered
bitstrings put atom 0 leftmost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
# A step whose drive bound |Omega| N dt / 2 is below the unit roundoff
# cannot move a unit state and is applied as its exact diagonal phase.
DRIVE_FLOOR = 2.0**-53


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


def _step_operator(n: int) -> tuple:
    """sum_k sigma_x_k for n atoms plus a writable view of its diagonal.

    The bit-flip entries are written as 1 here, once per `evolve` call, and
    never change; a step writes only the 2^N diagonal entries, through the
    returned strided view of the matrix's own storage. The matrix is dense
    up to DENSE_MAX_ATOMS and complex CSR above, where row i holds column i
    first, then columns i ^ 2^k.
    """
    dim = 1 << n
    idx = np.arange(dim, dtype=np.int32)
    if n <= DENSE_MAX_ATOMS:
        matrix = np.zeros((dim, dim), dtype=np.complex128)
        for k in range(n):
            matrix[idx, idx ^ (1 << k)] = 1.0
        return matrix, matrix.reshape(-1)[:: dim + 1]
    # imported here, so that registers up to DENSE_MAX_ATOMS never load it
    from scipy.sparse import csr_matrix

    width = n + 1
    cols = np.stack([idx] + [idx ^ (1 << k) for k in range(n)], axis=1)
    indptr = np.arange(0, dim * width + 1, width, dtype=np.int32)
    data = np.ones(dim * width, dtype=np.complex128)
    data[::width] = 0.0
    matrix = csr_matrix((data, cols.ravel(), indptr), shape=(dim, dim))
    return matrix, matrix.data[::width]


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
    op, op_diag = _step_operator(reg.n)
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
            tau = float(widths[k]) * 1e-3  # ns -> us
            diag = inter - de * occ
            drive = 0.5 * abs(om) * reg.n
            if drive * tau < DRIVE_FLOOR:
                # the drive cannot move the state: the step is an exact phase
                psi = psi * np.exp(-1j * tau * diag)
                continue
            centre = np.vdot(psi, diag * psi).real
            diag -= centre
            bound = float(np.abs(diag).max()) + drive
            nsub = max(1, int(np.ceil(bound * tau / THETA_MAX)))
            sub = tau / nsub
            phase = np.exp(-1j * centre * sub)
            # -i sub (H - centre) = scale * op, op = 2 diag / omega + sum_k sigma_x_k
            scale = -0.5j * sub * om
            np.multiply(diag, 2.0 / om, out=op_diag)
            for _ in range(nsub):
                # psi <- exp(scale * op) psi by power series, terms until below SERIES_TOL
                acc = psi.copy()
                term = psi
                for j in range(1, 400):
                    term = op @ term
                    term *= scale / j
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
