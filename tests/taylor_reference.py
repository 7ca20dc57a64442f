"""Fine-step reference integrator: midpoint steps through a Taylor series.

Each step applies psi <- exp(-i H(t + dt/2) dt) psi through a truncated
power series, with terms added until one falls below SERIES_TOL in norm.
The series is centred on the state's own energy: with D the step's diagonal
and c = Re <psi|D|psi>, it runs on H - c and multiplies by the exact phase
exp(-i c dt) afterwards. A step is split into sub-steps whenever
(max|D - c| + |Omega| N / 2) * dt would exceed THETA_MAX.

The series runs on one operator per call, with the factor -i tau Omega / 2
(tau the sub-step width) taken out of -i tau (H - c):
M = 2 (D - c) / Omega + sum_k sigma_x_k. Its bit-flip entries are written
once per call; a step rewrites only the 2^N diagonal entries, through a
strided view of the matrix's storage. M is dense up to DENSE_MAX_ATOMS atoms
and complex CSR above. A step whose drive is too weak to move the state in
double precision (Omega = 0 among them) is the exact phase exp(-i D dt).

Its error differs in kind from `rydock.simulator.evolve`'s split step (no
splitting error, a midpoint error that grows as dt^2), so at dt = 0.5 it is
the reference that the split step's accuracy tests measure against.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csr_matrix

from rydock.errors import InputError, NumericalError
from rydock.pulses import PulseSequence
from rydock.register import DeviceParams, Register
from rydock.simulator import (
    DRIFT_LIMIT,
    StateVector,
    _check_cap,
    interaction_diagonal,
    occupation_diagonal,
)

SERIES_TOL = 1e-12
# Maximum allowed ||H|| * dt per series application; larger steps are split.
THETA_MAX = 6.0
# Largest register whose step operator is a dense matrix: below this size
# numpy's `@` beats scipy's sparse dispatch; above it the CSR form wins.
DENSE_MAX_ATOMS = 7
# A step whose drive bound |Omega| N dt / 2 is below the unit roundoff
# cannot move a unit state and is applied as its exact diagonal phase.
DRIVE_FLOOR = 2.0**-53


def _step_operator(n: int) -> tuple:
    """sum_k sigma_x_k for n atoms plus a writable view of its diagonal.

    The bit-flip entries are written as 1 here, once per `taylor_evolve`
    call, and never change; a step writes only the 2^N diagonal entries,
    through the returned strided view of the matrix's own storage. The matrix is dense
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
    width = n + 1
    cols = np.stack([idx] + [idx ^ (1 << k) for k in range(n)], axis=1)
    indptr = np.arange(0, dim * width + 1, width, dtype=np.int32)
    data = np.ones(dim * width, dtype=np.complex128)
    data[::width] = 0.0
    matrix = csr_matrix((data, cols.ravel(), indptr), shape=(dim, dim))
    return matrix, matrix.data[::width]


def taylor_evolve(reg: Register, seq: PulseSequence, dev: DeviceParams,
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
