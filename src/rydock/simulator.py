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

R^{(x)N} runs in Kronecker groups of near-equal size, lowest atoms first: at
most GROUP_MAX_ATOMS = 6 atoms each up to 10 atoms, and at most
SMALL_GROUP_MAX_ATOMS = 4 from SMALL_GROUPS_FROM = 11 atoms on. On m atoms
R^{(x)m} has entry cos(theta)^(m - h) (-i sin(theta))^h, h the Hamming
distance of row and column, so a step's group matrix F is one gather of that
(m + 1)-entry table. F is symmetric, so each group is one plain matrix
product F @ psi.reshape(-1, 2^m).T: it acts on the group in the lowest bits
and writes it out as the highest, and after the last group the canonical
order is back (a single group is the row-vector product psi @ F). The
detuning phase factorises over the groups.

Partition, timed by tests/measure_groups.py on 2 vCPUs with one BLAS thread:
the sum over the registers of each size of the median evolve time, as a
speed-up over groups of at most 6 atoms at dt 4 / dt 8 (13-16 atoms: one
4 x 4 grid register each; 13 atoms with 15 repeats):

    atoms  at most 4 atoms  speed-up     other
      7    4+3 (as 6)       1.00 / 1.00  one group of 7: 0.82 / 0.92
      9    3+3+3            0.83 / 0.87
     10    4+3+3            0.93 / 0.95
     11    4+4+3            1.17 / 1.19  3+3+3+2: 1.06 / 1.13
     12    4+4+4            1.39 / 1.36  3+3+3+3: 1.47 / 1.46
     13    4+3+3+3          1.07 / 1.06
     14    4+4+3+3          1.24 / 1.16
     16    4+4+4+4          1.13 / 1.22  3+3+3+3+2+2: 1.19 / 1.23

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
# From this many atoms, groups of at most SMALL_GROUP_MAX_ATOMS are faster.
SMALL_GROUPS_FROM = 11
SMALL_GROUP_MAX_ATOMS = 4


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


def bitstrings(indices, n: int) -> list:
    """Render basis indices: atom k = bit k, atom 0 leftmost. The characters
    are built a column at a time and cut from one ASCII string, which keeps
    the temporaries to about a byte per character."""
    indices = np.asarray(indices, dtype=np.int64)
    chars = np.empty((len(indices), n), dtype=np.uint8)
    for k in range(n):
        chars[:, k] = (indices >> k) & 1
    chars += ord("0")
    text = chars.tobytes().decode("ascii")
    return [text[i:i + n] for i in range(0, len(text), n)]


def _bit_table(n: int) -> np.ndarray:
    dim = 1 << n
    idx = np.arange(dim, dtype=np.int64)
    return np.stack([(idx >> k) & 1 for k in range(n)]).astype(float)


def interaction_diagonal(reg: Register, dev: DeviceParams) -> np.ndarray:
    """sum_{i<j} U_ij n_i n_j over the register geometry, as a read-only 2^N
    vector, built once per register and c6 and kept on the frozen register."""
    _check_cap(reg.n)
    cache = reg.__dict__.setdefault("_interaction_diagonals", {})
    if dev.c6 not in cache:
        bits = _bit_table(reg.n)
        pos = reg.positions()
        diag = np.zeros(1 << reg.n)
        for i in range(reg.n):
            for j in range(i + 1, reg.n):
                r = float(np.hypot(*(pos[i] - pos[j])))
                if r <= 0:
                    raise InputError(f"coincident atoms {reg.atoms[i].id}, {reg.atoms[j].id}")
                diag += (dev.c6 / r**6) * bits[i] * bits[j]
        diag.flags.writeable = False
        cache[dev.c6] = diag
    return cache[dev.c6]


def occupation_diagonal(reg: Register) -> np.ndarray:
    """sum_i w_i n_i as a read-only 2^N vector (w = per-atom detuning
    weights), built once per register and kept on it."""
    _check_cap(reg.n)
    occ = reg.__dict__.get("_occupation_diagonal")
    if occ is None:
        occ = reg.__dict__["_occupation_diagonal"] = reg.detuning_weights() @ _bit_table(reg.n)
        occ.flags.writeable = False
    return occ


def group_sizes(n: int) -> tuple:
    """Atoms per Kronecker group, lowest atoms first: ceil(n / cap) groups of
    near-equal size, cap = GROUP_MAX_ATOMS below SMALL_GROUPS_FROM atoms and
    SMALL_GROUP_MAX_ATOMS from there on."""
    cap = GROUP_MAX_ATOMS if n < SMALL_GROUPS_FROM else SMALL_GROUP_MAX_ATOMS
    count = -(-n // cap)
    return tuple(n // count + (g < n % count) for g in range(count))


@functools.lru_cache(maxsize=None)
def _hamming(m: int) -> np.ndarray:
    """Hamming distances between row and column of a 2^m matrix."""
    idx = np.arange(1 << m)
    ham = _bit_table(m).sum(axis=0).astype(np.intp)[idx[:, None] ^ idx]
    ham.flags.writeable = False
    return ham


def _groups(n: int) -> tuple:
    """(m, `_hamming(m)`) of each group of `group_sizes(n)`, lowest atoms first."""
    return tuple((m, _hamming(m)) for m in group_sizes(n))


def rotation_table(theta, m: int) -> np.ndarray:
    """cos(theta)^(m - h) (-i sin(theta))^h for h = 0..m on the last axis,
    per angle in `theta`: the entries of R(theta)^{(x)m} by Hamming distance."""
    theta = np.asarray(theta, dtype=float)[..., None]
    h = np.arange(m + 1)
    return np.cos(theta) ** (m - h) * np.sin(theta) ** h * (-1j) ** h


def drive_factor(psi: np.ndarray, factors) -> np.ndarray:
    """psi <- R(theta)^{(x)n} psi, given each group's symmetric matrix
    R(theta)^{(x)m}, lowest group first: a `rotation_table` row taken over its
    Hamming distances. Each product takes the group in the lowest bits and
    writes it out as the highest, so the order is canonical again after the
    last group."""
    if len(factors) == 1:
        return (psi.reshape(1, -1) @ factors[0]).reshape(-1)
    for factor in factors:
        psi = (factor @ psi.reshape(-1, len(factor)).T).reshape(-1)
    return psi


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
    occ = occupation_diagonal(reg)
    n, dim, groups = reg.n, 1 << reg.n, _groups(reg.n)
    weights = reg.detuning_weights()
    # i w.n over each group's atoms (occ where only they are excited), top first
    lows = np.cumsum([0] + [m for m, _ in groups])
    iocc = [1j * occ[np.arange(1 << m) << lo] for (m, _), lo in zip(groups, lows)][::-1]
    # one flip of atom k changes U by at most sum_j U_kj (U >= 0)
    flip_gap = inter[-1] - inter[(dim - 1) ^ (1 << np.arange(n))]
    # exp(-i t U) of the last t, which changes only between stretches, and
    # the phase of the last (t, d), which repeats while delta is constant
    u_cache, cache = [None, None], [None, None]

    def diagonal_phase(t, d):
        """exp(-i (t U - d occ)); the occ part is an outer product over groups."""
        if (t, d) != cache[0]:
            if t != u_cache[0]:
                u_cache[:] = t, np.exp(-1j * t * inter)
            out = np.exp(d * iocc[0])
            for col in iocc[1:]:
                out = np.multiply.outer(out, np.exp(d * col)).reshape(-1)
            cache[:] = (t, d), u_cache[1] * out
        return cache[1]

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
        tables = [rotation_table(omegas * (0.5 * tau / nsubs), m) for m, _ in groups]
        # the steps run in stretches of equal nsub, a handful per segment
        ends = (np.flatnonzero(np.diff(nsubs)) + 1).tolist() + [steps]
        for start, end in zip([0] + ends[:-1], ends):
            nsub = int(nsubs[start])
            half = 0.5 * tau / nsub
            for k in range(start, end):
                de = float(deltas[k])
                factors = [t[k].take(ham) for t, (_, ham) in zip(tables, groups)]
                for j in range(nsub):
                    t_pend += half
                    d_pend += de * half
                    if j < 2:  # from the second sub-step on, the phase repeats
                        phase = diagonal_phase(t_pend, d_pend)
                    psi *= phase
                    psi = drive_factor(psi, factors)
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
    hit = np.flatnonzero(counts)
    return Histogram(shots=shots, counts=dict(zip(bitstrings(hit, state.n_atoms),
                                                  counts[hit].tolist())))


def exact_distribution(state: StateVector) -> dict:
    """Exact outcome probabilities keyed by bitstring (nonzero entries)."""
    probs = np.abs(state.amplitudes) ** 2
    hit = np.flatnonzero(probs)
    return dict(zip(bitstrings(hit, state.n_atoms), probs[hit].tolist()))
