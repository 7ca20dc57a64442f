"""State-vector emulation of the analog Rydberg dynamics.

The Hamiltonian is H(t) = Omega(t)/2 * sum_i sigma_x_i
                        - delta(t) * sum_i w_i n_i
                        + sum_{i<j} (c6 / R_ij^6) n_i n_j
with hbar = 1, energies in rad/us, times in ns, distances in um. The
number operator n = (1 + sigma_z)/2, so this differs from a sigma_z-based
writing only by a state-independent shift. Note the detuning sign: positive
delta *lowers* the energy of excited atoms.

Everything diagonal lives in one length-2^N vector, D = U - delta occ with
U the interaction and occ = sum_i w_i n_i. A step of width tau samples the
pulse at its midpoint and runs as nsub Strang sub-steps of width s (Strang,
SIAM J. Numer. Anal. 5, 506, 1968): psi <- exp(-i D s/2) R^{(x)N} exp(-i D
s/2) psi, R = cos(theta) - i sin(theta) sigma_x, theta = Omega s / 2. Both
factors are exact: no power series, no sparse matrix, and Omega = 0 is an
exact identity. Neighbouring half-step phases merge into one product.

R^{(x)N} runs in Kronecker groups of at most GROUP_MAX_ATOMS = 6 atoms. On m
atoms R^{(x)m} has entry cos(theta)^(m - h) (-i sin(theta))^h, h the Hamming
distance of row and column, so a step's group matrix is one gather of that
(m + 1)-entry table, applied by one matrix product to the state viewed as
(2^hi, 2^m, 2^lo). The detuning phase factorises over the groups.

Sub-steps. g = max_k (sum_j U_kj + max|delta| w_k) bounds the energy change
of one atom flip over the segment. The leading splitting error terms, the
nested commutators [D, [D, X]] and [X, [X, D]] with X the drive, carry a
factor Omega, so each step sizes its sub-steps by its own drive:
nsub = ceil(tau g (|Omega| / omega_max)^OMEGA_EXPONENT / PHI_OMEGA), at least
1 and at most ceil(tau g / PHI_MAX). A step at full drive takes that cap, an
undriven step one sub-step, and no step more than the cap.

Calibration (tests/calibrate_substeps.py): all 125 corpus registers, each
with one uniform random complex pulse (default_rng(11), corpus order) and the
same pulse at the top of its Rabi band, at dt 4 and 8, against the Taylor
midpoint rule at dt 0.5 and at the same dt (the latter samples the same
midpoints, so its TV is the splitting error alone). Over exponents 0.5-1 and
budgets 0.04-0.12, OMEGA_EXPONENT = 0.75 with PHI_OMEGA = 0.06 cuts the
sub-steps of the uniform pulses on the registers the `corpus_mlqaa`
benchmark labels by 26% at dt 8 (22% at dt 4) for the least growth of the
worst total-variation distance. Against dt 0.5 that is 1.36e-4 at dt 4
(triangle-3-s8.5; the cap alone, 1.34e-4) and 2.66e-4 at dt 8
(triangle-2-s8.5; 2.66e-4), where the Taylor midpoint rule alone reads
6.4e-5 and 2.6e-4 and no sub-steps 2.3e-3 and 9.7e-3. The splitting error
alone is 1.35e-4 and 2.39e-4 (the cap alone, 1.31e-4 and 2.33e-4).
Exponent 0.5 with 0.10 read 1.49e-4 at dt 4.

Caveat, measured on the band-top pulses: the rule bounds the Omega g^2 term
but not Omega^2 g, and a step with tau g < PHI_MAX runs unsplit at any
drive. hexagon-4-s8.5 (tau g = 0.14 at dt 4) reads a splitting error of
5.4e-4 at dt 4 under either rule, and the same at dt 8, where its two
sub-steps are as wide. At dt 8 the midpoint rule alone reads up to 5.5e-4
(triangle-2-s8.5), so there more sub-steps cannot help.

The state is never renormalised: norm drift is an error signal, and drift
beyond 1e-4 raises.

Basis convention: bit k of the state index is atom k, and rendered
bitstrings put atom 0 leftmost.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .histogram import Histogram
from .pulses import PulseSequence
from .register import DeviceParams, Register

ATOM_CAP = 16
DRIFT_LIMIT = 1e-4
# Largest s * g of a Strang sub-step (see above), calibrated on the corpus.
PHI_MAX = 0.15
# s * g * (|Omega| / omega_max)^OMEGA_EXPONENT of a sub-step, below the cap.
PHI_OMEGA = 0.06
OMEGA_EXPONENT = 0.75
GROUP_MAX_ATOMS = 6


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


@functools.lru_cache(maxsize=None)
def _groups(n: int) -> tuple:
    """ceil(n / 6) Kronecker groups of near-equal size m, lowest atoms first:
    (m, the (2^hi, 2^m, 2^lo) state view with the group's atoms in the middle,
    the Hamming distances between row and column of a 2^m matrix)."""
    count = -(-n // GROUP_MAX_ATOMS)
    out, lo = [], 0
    for g in range(count):
        m = n // count + (g < n % count)
        idx = np.arange(1 << m)
        ham = _bit_table(m).sum(axis=0).astype(np.intp)[idx[:, None] ^ idx]
        ham.flags.writeable = False
        out.append((m, (1 << (n - lo - m), 1 << m, 1 << lo), ham))
        lo += m
    return tuple(out)


def rotation_table(theta, m: int) -> np.ndarray:
    """cos(theta)^(m - h) (-i sin(theta))^h for h = 0..m on the last axis,
    per angle in `theta`: the entries of R(theta)^{(x)m} by Hamming distance."""
    theta = np.asarray(theta, dtype=float)[..., None]
    h = np.arange(m + 1)
    return np.cos(theta) ** (m - h) * np.sin(theta) ** h * (-1j) ** h


def drive_factor(psi: np.ndarray, n: int, factors) -> np.ndarray:
    """psi <- R(theta)^{(x)n} psi, given each group's symmetric matrix
    R(theta)^{(x)m}: a `rotation_table` row taken over its Hamming distances."""
    for (_, shape, _), factor in zip(_groups(n), factors):
        if shape[2] == 1:
            psi = psi.reshape(-1, shape[1]) @ factor
        else:
            psi = np.matmul(factor, psi.reshape(shape))
    return psi.reshape(-1)


def substep_counts(tau: float, gap: float, omegas: np.ndarray,
                   omega_max: float) -> np.ndarray:
    """Strang sub-steps of each midpoint step of width `tau` us, given the
    segment's flip-gap bound `gap` and each step's Rabi frequency:
    ceil(tau gap (|Omega| / omega_max)^OMEGA_EXPONENT / PHI_OMEGA), at least
    1 and at most ceil(tau gap / PHI_MAX)."""
    cap = max(1, math.ceil(tau * gap / PHI_MAX))
    if cap == 1:
        return np.ones(omegas.shape, dtype=np.int64)
    want = np.ceil(tau * gap * (np.abs(omegas) / omega_max) ** OMEGA_EXPONENT / PHI_OMEGA)
    return np.clip(want, 1, cap).astype(np.int64)


def evolve(reg: Register, seq: PulseSequence, dev: DeviceParams,
           dt: float = 4.0) -> StateVector:
    """Integrate the schedule from |00...0> with midpoint steps of `dt` ns,
    each run as Strang sub-steps; steps never straddle segment boundaries.

    Raises NumericalError when the norm drifts by more than 1e-4; drift is
    never hidden by renormalising.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise InputError(f"dt must be a positive finite number, got {dt}")
    inter = interaction_diagonal(reg, dev)
    n, dim, groups = reg.n, 1 << reg.n, _groups(reg.n)
    weights = reg.detuning_weights()
    occ = occupation_diagonal(reg)
    # i w.n over each group's atoms (occ where only they are excited), top first
    iocc = [1j * occ[np.arange(shape[1]) * shape[2]] for _, shape, _ in groups[::-1]]
    # one flip of atom k changes U by at most sum_j U_kj (U >= 0)
    flip_gap = inter[-1] - inter[(dim - 1) ^ (1 << np.arange(n))]
    # exp(-i t U) of the last t, which changes only between stretches
    cache = [None, None]

    def diagonal_phase(t, d):
        """exp(-i (t U - d occ)); the occ part is an outer product over groups."""
        if t != cache[0]:
            cache[:] = t, np.exp(-1j * t * inter)
        out = np.exp(d * iocc[0])
        for col in iocc[1:]:
            out = np.multiply.outer(out, np.exp(d * col)).reshape(-1)
        return cache[1] * out

    psi = np.zeros(dim, dtype=np.complex128)
    psi[0] = 1.0
    t_pend = d_pend = 0.0  # the last sub-step's trailing half, not yet applied
    for seg in seq.segments:
        if abs(seg.phase) > 1e-12:
            raise InputError("only phase-0 schedules are supported")
        steps = max(1, int(np.ceil(seg.duration / dt - 1e-9)))
        edges = np.linspace(0.0, seg.duration, steps + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        omegas = np.asarray(seg.omega.sample(mids), dtype=float).reshape(-1)
        deltas = np.asarray(seg.delta.sample(mids), dtype=float).reshape(-1)
        tau = seg.duration / steps * 1e-3  # ns -> us
        gap = float(np.max(flip_gap + np.abs(deltas).max() * np.abs(weights)))
        nsubs = substep_counts(tau, gap, omegas, dev.omega_max)
        tables = [rotation_table(omegas * (0.5 * tau / nsubs), m) for m, _, _ in groups]
        # the steps run in stretches of equal nsub, a handful per segment
        ends = (np.flatnonzero(np.diff(nsubs)) + 1).tolist() + [steps]
        for start, end in zip([0] + ends[:-1], ends):
            nsub = int(nsubs[start])
            half = 0.5 * tau / nsub
            for k in range(start, end):
                de = float(deltas[k])
                factors = [t[k].take(ham) for t, (_, _, ham) in zip(tables, groups)]
                for j in range(nsub):
                    t_pend += half
                    d_pend += de * half
                    if j < 2:  # from the second sub-step on, the phase repeats
                        phase = diagonal_phase(t_pend, d_pend)
                    psi *= phase
                    psi = drive_factor(psi, n, factors)
                    t_pend, d_pend = half, de * half
    psi *= diagonal_phase(t_pend, d_pend)

    drift = abs(np.linalg.norm(psi) - 1.0)
    if drift > DRIFT_LIMIT:
        raise NumericalError(f"norm drift {drift:.2e} exceeds {DRIFT_LIMIT}; reduce dt")
    return StateVector(amplitudes=psi, n_atoms=reg.n)


def measure(state: StateVector, shots: int, seed) -> Histogram:
    """Draw `shots` independent basis samples from |amplitude|^2."""
    if shots <= 0:
        raise InputError("shots must be positive")
    probs = np.abs(state.amplitudes) ** 2
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    counts = rng.multinomial(shots, probs / probs.sum())
    return Histogram(shots=shots, counts={bitstring_of(int(i), state.n_atoms): int(counts[i])
                                          for i in np.flatnonzero(counts)})


def exact_distribution(state: StateVector) -> dict:
    """Exact outcome probabilities keyed by bitstring (nonzero entries)."""
    probs = np.abs(state.amplitudes) ** 2
    return {bitstring_of(int(i), state.n_atoms): float(probs[i]) for i in np.flatnonzero(probs)}
