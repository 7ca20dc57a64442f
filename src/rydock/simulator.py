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

The drive is applied as a real matrix: with S = diag(1, -i) and the real
G = [[c, s], [s, -c]] (c, s = cos, sin theta), R = S G S, so R^{(x)N} =
S_N G^{(x)N} S_N with S_N = diag((-i)^popcount). Between two drives
S_N P S_N = sigma P for a diagonal phase P, sigma = (-1)^popcount, which
evolve folds into its cached exp(-i t U). S_N is 1 on the start state
|0...0>, and the last S_N times the last phase's sigma is i^popcount, applied
once at the end. G^{(x)m} has entry c^(m - h) s^h (-1)^popcount(r & c),
h = popcount(r ^ c), so a step's group matrix is one gather of a real table
(the m + 1 values, their negatives, a 0) over a fixed signed index.

The state is interleaved float64 (re, im per amplitude); the phase multiplies
its complex view. G^{(x)N} is split into Kronecker groups, lowest atoms first:
one up to GROUP_MAX_ATOMS = 5 atoms, else near-equal groups of at most
SMALL_GROUP_MAX_ATOMS = 4, smaller ones lowest. evolve keeps two state
buffers, a and b, and builds their views once (`_plan`). One group is
G.dot(x.reshape(2^N, 2)) into y.reshape(2^N, 2). Otherwise the groups run top
group first, each as x.reshape(len(F), -1).T.dot(F) into y.reshape(-1,
len(F)), which takes the group in the highest bits and writes it out as the
lowest: OpenBLAS's faster GEMM orientation. F is the group's matrix itself,
since G^{(x)m} and the lowest group's G^{(x)m} (x) I_2 are symmetric; in the
latter the re/im axis rides the rotation as one more bit. The lowest group
runs last, when (re/im, its atoms) are the highest bits, and after it the
layout is canonical again. Each product writes the other buffer, and the
phase multiply writes a -> b for an odd group count and in place for an even
one, so every sub-step starts and ends in a and is one np.multiply and one
ndarray.dot per group, each with out=, creating no array; the method skips
np.dot's __array_function__ dispatch. The detuning phase factorises over
the groups. tests/measure_groups.py times the partitions and
holds the timings behind these choices.

Schedule. `_compile` turns the pulse into flat per-step arrays, the one place
where a step's first phase merges the previous sub-step's trailing half, and
cuts them into stretches of steps with equal (nsub, half) that end at
segment boundaries. evolve runs a stretch in chunks of steps, counted back
from its end. A chunk's matrices are one gather per group,
table[c0:c1].take(index, axis=1), from one table per group size, and its
phase rows come as one batch of each kind from `_rows`; evolve zips the
batches and the matrices straight into `_substeps`, prepending only the
stretch's first row to its first chunk. `_substeps` runs each step's nsub
sub-steps: its first phase row once, then its repeated row nsub - 1 times. A
chunk holds at most CHUNK_FLOATS = 2^16 floats (512 KiB) of matrices and
rows, or one step's where that is more (from 14 atoms), so the 2^N-sized
buffers do not grow with the schedule. What depends on the register alone
(sigma, i^popcount, each group's i w.n parts, the flip gaps and the detuning
weights) is built once per register and c6 and kept on the frozen register
(`_register_terms`), so a small evolve pays little beyond its sub-steps.

Phase rows. A row is u exp(i d occ), u = sigma exp(-i t U), with d = d_first
for a step's first row and d = 2 lead for its repeated row; the stretch's
first row takes its own u, whose t holds the previous step's trailing half.
`_rows` gives each kind of row across a stretch, one batch per chunk:
- By default a row is exact: the broadcast outer product over the groups of
  exp(i d w.n), times u (`_phase_rows`). A chunk's batch is built at once;
  a constant d builds one row.
- Rows of at least LONG_ROW = 2^10 amplitudes (10 atoms and more) are
  stepped where d is affine along the stretch, as along the Ramp detuning
  of both pulse families: row_{j+1} = row_j R, R = exp(i slope occ) from
  np.cos and np.sin of slope occ, one contiguous complex multiply in place.
  Each kind keeps one running row and one R, and a chunk's batch iterates
  the running row over the chunk's steps, so stepped bytes do not depend on
  CHUNK_FLOATS. The first rows are rebuilt exactly every ANCHOR_PERIOD = 16
  steps from the stretch's second step; the repeated row enters the state
  nsub - 1 times a step, so it is rebuilt every max(1, 16 // (nsub - 1))
  steps. d is affine when it leaves no anchor's line, d_a + k slope, by a
  phase over AFFINE_TOL = 1e-14 rad; other long rows are exact, one at a
  time.
Stepped rows stay within 1e-13 of exact rows on the corpus registers and on
13-16-atom grids. Registers of at most 9 atoms take exact rows only.

Partition: tests/measure_groups.py times near-equal partitions into groups of
2-7 atoms against the rule's, back to back, on corpus registers and 13-16-atom
placements; its docstring has the table. Two lead the rule's, 2+3+3 at 8
atoms and 3+3+3+3 at 12, but a new partition moves amplitudes, so the rule
keeps 4+4 and 4+4+4.

Sub-steps. g = max_k (sum_j U_kj + max|delta| w_k) bounds the energy change
of one atom flip over the segment. The leading splitting error terms, the
nested commutators [D, [D, X]] and [X, [X, D]] with X the drive, carry a
factor Omega, so each step sizes its sub-steps by its own drive:
nsub = ceil(tau g (|Omega| / omega_max)^OMEGA_EXPONENT / PHI_OMEGA), at least
1 and at most ceil(tau g / PHI_MAX). A step at full drive takes that cap, an
undriven step one sub-step, and no step more than the cap.

Calibration (tests/calibrate_substeps.py, whose docstring has the tables):
OMEGA_EXPONENT = 0.75 and PHI_OMEGA = 0.06 keep the worst TV against the
Taylor midpoint rule at dt 0.5, over all 125 corpus registers, at 1.36e-4 at
dt 4 and 2.66e-4 at dt 8.

Caveat: the rule does not bound the Omega^2 g term, and a step with
tau g < PHI_MAX runs unsplit at any drive, so band-top pulses on weakly
interacting registers carry the largest splitting error (5.4e-4 at dt 4).

The state is never renormalised: norm drift is an error signal, and drift
beyond 1e-4 raises.

Basis convention: bit k of the state index is atom k, and rendered
bitstrings put atom 0 leftmost.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain, islice, repeat

import numpy as np

from .errors import InputError, NumericalError
from .graphs import bitstrings
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
# One Kronecker group up to GROUP_MAX_ATOMS, else at most SMALL_GROUP_MAX_ATOMS.
GROUP_MAX_ATOMS = 5
SMALL_GROUP_MAX_ATOMS = 4
# Floats of the group matrices and phase rows that evolve prepares at a time.
CHUNK_FLOATS = 1 << 16
# Amplitudes per phase row from which evolve steps the rows (see above).
LONG_ROW = 1 << 10
# Steps between exact rebuilds of a stepped phase row.
ANCHOR_PERIOD = 16
# Largest phase (rad) by which a stretch's d may leave its anchors' line and
# still be stepped.
AFFINE_TOL = 1e-14
_I_POWERS = np.array([1, 1j, -1, -1j])


@dataclass(frozen=True)
class StateVector:
    amplitudes: np.ndarray
    n_atoms: int


def _check_cap(n: int):
    if n > ATOM_CAP:
        raise InputError(f"{n} atoms exceeds the {ATOM_CAP}-atom state-vector cap")
    if n < 1:
        raise InputError("need at least one atom")


def _bit_table(n: int) -> np.ndarray:
    idx = np.arange(1 << n, dtype=np.int64)
    return np.stack([(idx >> k) & 1 for k in range(n)]).astype(float)


@functools.lru_cache(maxsize=None)
def _popcount(n: int) -> np.ndarray:
    """Excited atoms of each of the 2^n basis states, read-only."""
    pop = _bit_table(n).sum(axis=0).astype(np.intp)
    pop.flags.writeable = False
    return pop


def interaction_diagonal(reg: Register, dev: DeviceParams) -> np.ndarray:
    """sum_{i<j} U_ij n_i n_j over the register geometry, as a read-only 2^N
    vector, built once per register and c6 and kept on the frozen register."""
    _check_cap(reg.n)
    cache = reg.__dict__.setdefault("_interaction_diagonals", {})
    if dev.c6 not in cache:
        bits = _bit_table(reg.n)
        dist = reg.distances()
        diag = np.zeros(1 << reg.n)
        for i in range(reg.n):
            for j in range(i + 1, reg.n):
                r = float(dist[i, j])
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
    """Atoms per Kronecker group, lowest atoms first: one group of up to
    GROUP_MAX_ATOMS atoms, else ceil(n / SMALL_GROUP_MAX_ATOMS) groups of
    near-equal size, the smaller ones lowest, since the lowest group's matrix
    also carries the re/im axis."""
    cap = n if n <= GROUP_MAX_ATOMS else SMALL_GROUP_MAX_ATOMS
    count = -(-n // cap)
    return tuple(n // count + (g >= count - n % count) for g in range(count))


@functools.lru_cache(maxsize=None)
def _signed_index(m: int, reim: bool) -> np.ndarray:
    """Each entry of G^{(x)m} (x) I_2 if `reim`, else of G^{(x)m}, as its
    place in a `drive_table` row: h = popcount(r ^ c), plus m + 1 where the
    sign (-1)^popcount(r & c) is negative."""
    pop, idx = _popcount(m), np.arange(1 << m)
    index = pop[idx[:, None] ^ idx] + (m + 1) * (pop[idx[:, None] & idx] & 1)
    if reim:  # the zeros of I_2 become -1, the row's last entry
        index = np.kron(index + 1, np.eye(2, dtype=np.intp)) - 1
    index.flags.writeable = False
    return index


def _groups(n: int) -> tuple:
    """(m, `_signed_index`) of each group, lowest (carrying re/im) first."""
    sizes = group_sizes(n)
    return tuple((m, _signed_index(m, g == 0 and len(sizes) > 1))
                 for g, m in enumerate(sizes))


def drive_table(theta, m: int) -> np.ndarray:
    """cos(theta)^(m - h) sin(theta)^h for h = 0..m, their negatives and a
    0 on the last axis, per angle in `theta`."""
    theta = np.asarray(theta, dtype=float)[..., None]
    h = np.arange(m + 1)
    table = np.cos(theta) ** (m - h) * np.sin(theta) ** h
    return np.concatenate([table, -table, np.zeros_like(theta)], axis=-1)


def _phase_rows(u, iocc, d):
    """The rows u exp(i d occ), one per entry of `d`; a constant `d` builds
    one row and repeats it. exp(i d occ) is a broadcast outer product over
    the groups, whose i w.n parts `iocc` come top group first."""
    steps = len(d)
    if (d == d[:1]).all():
        d = d[:1]
    out = np.exp(d[:, None] * iocc[0])
    for col in iocc[1:]:
        out = (out[:, :, None] * np.exp(d[:, None] * col)[:, None, :]).reshape(
            len(d), out.shape[1] * len(col))
    np.multiply(u, out, out=out)  # in place, in u * out's operand order and rounding
    return out if len(d) == steps else [out[0]] * steps


def _rows(u, iocc, occ, d, period, ends):
    """The rows u exp(i d_j occ), one per entry of `d`, as one batch per
    chunk: each entry of `ends` closes a batch of the rows from the previous
    end (0 for the first) to its own, and the last end is len(d). A batch may
    be empty. The batches are read in order, each before the next.

    Rows are exact (`_phase_rows`), a batch built at once. Rows of at least
    LONG_ROW amplitudes are stepped instead, each batch iterating one running
    row that each step overwrites: it is built exactly every `period` rows
    from the first and otherwise multiplied by R = exp(i slope occ), slope =
    d's mean step, R from np.cos and np.sin of slope occ; with slope 0 the
    first row serves them all. Long rows whose d leaves an anchor's line,
    d_anchor + k slope, by a phase over AFFINE_TOL are exact, one at a time."""
    cuts = zip(chain((0,), ends), ends)
    if len(u) < LONG_ROW or not len(d):
        return (_phase_rows(u, iocc, d[c0:c1]) if c1 > c0 else () for c0, c1 in cuts)
    steps = np.arange(len(d))
    back = steps % period
    slope = (d[-1] - d[0]) / max(1, len(d) - 1)
    if np.abs(d - d[steps - back] - back * slope).max() * np.abs(occ).max() > AFFINE_TOL:
        rows = (_phase_rows(u, iocc, d[j:j + 1])[0] for j in range(len(d)))
    else:
        rows = _stepped_rows(u, iocc, occ, d, period, slope)
    return (islice(rows, c1 - c0) for c0, c1 in cuts)


def _stepped_rows(u, iocc, occ, d, period, slope):
    """The running row of `_rows`, yielded once per entry of `d`."""
    if slope and period > 1:
        ratio = np.empty_like(u)
        np.cos(slope * occ, out=ratio.real)
        np.sin(slope * occ, out=ratio.imag)
    for j in range(len(d)):
        if j == 0 or slope and j % period == 0:
            row = _phase_rows(u, iocc, d[j:j + 1])[0]
        elif slope:
            row *= ratio
        yield row


def _plan(groups, a: np.ndarray, b: np.ndarray) -> tuple:
    """The fixed views of a sub-step that starts and ends in buffer `a`: the
    phase multiply's complex input and output, and the (input, output) float
    views of each product in the order they run, top group first. Each
    product writes the other buffer, and the phase writes a -> b for an odd
    group count and in place for an even one."""
    src = a if len(groups) % 2 == 0 else b
    psi, out, views = a.view(np.complex128), src.view(np.complex128), []
    for _, index in groups[::-1]:
        dst, k = (b if src is a else a), len(index)
        views.append((src.reshape(-1, 2), dst.reshape(-1, 2)) if len(groups) == 1
                     else (src.reshape(k, -1).T, dst.reshape(-1, k)))
        src = dst
    return psi, out, views


def _substeps(plan, steps, nsub):
    """Run `nsub` sub-steps per (first row, repeated row, group matrices)
    triple on a `_plan`'s buffers: each a phase multiply, by the first row
    and then by the repeated one, and one GEMM per group, the matrices in
    the order the products run, top group first. A single group's G
    multiplies the (2^N, 2) view from the left; otherwise each symmetric F
    multiplies its view from the right. Each call passes its output buffer
    positionally, which numpy parses faster than out=."""
    psi, out, views = plan
    multiply = np.multiply
    if len(views) == 1:
        (x, y), = views
        for phase, rep, (mat,) in steps:
            gemm = mat.dot
            for _ in range(nsub):
                multiply(psi, phase, out)
                gemm(x, y)
                phase = rep
        return
    gemms = [(x.dot, y) for x, y in views]
    for phase, rep, mats in steps:
        for _ in range(nsub):
            multiply(psi, phase, out)
            for mat, (gemm, y) in zip(mats, gemms):
                gemm(mat, y)
            phase = rep


def substep_counts(tau: float, gap: float, omegas: np.ndarray,
                   omega_max: float) -> np.ndarray:
    """Strang sub-steps of each midpoint step of width `tau` us, given the
    segment's flip-gap bound `gap` and each step's Rabi frequency:
    ceil(tau gap (|Omega| / omega_max)^OMEGA_EXPONENT / PHI_OMEGA), at least
    1 and at most ceil(tau gap / PHI_MAX)."""
    cap = max(1, math.ceil(tau * gap / PHI_MAX))
    want = np.ceil(tau * gap * (np.abs(omegas) / omega_max) ** OMEGA_EXPONENT / PHI_OMEGA)
    return np.minimum(np.maximum(want, 1), cap).astype(np.int64)


def _compile(seq: PulseSequence, dt: float, flip_gap: np.ndarray, weights: np.ndarray,
             omega_max: float) -> tuple:
    """The schedule as flat per-step arrays (theta, nsub, half, lead, d_first,
    t_first), then the stretch bounds. A midpoint step of width tau runs nsub
    sub-steps of width 2 half, each a drive by angle theta = Omega half between
    two detuning half-phases lead = delta half. Its first phase also applies
    the previous step's trailing half: t_first and d_first are the previous
    half and lead plus its own, 0 before the first step. A stretch is a run of
    steps with equal (nsub, half) within one segment; the bounds run from 0 to
    the step count. The detuning `weights` are positive, as `Atom` holds them."""
    # one leading 0 entry of delta and half, the "previous step" of the first
    omegas, deltas, nsubs, halves, ends = [], [np.zeros(1)], [], [np.zeros(1)], [0]
    for seg in seq.segments:
        steps = max(1, math.ceil(seg.duration / dt - 1e-9))
        edges = np.linspace(0.0, seg.duration, steps + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        omegas.append(np.asarray(seg.omega.sample(mids), dtype=float))
        deltas.append(np.asarray(seg.delta.sample(mids), dtype=float))
        tau = seg.duration / steps * 1e-3  # ns -> us
        gap = float((flip_gap + np.abs(deltas[-1]).max() * weights).max())
        nsubs.append(substep_counts(tau, gap, omegas[-1], omega_max))
        halves.append(0.5 * tau / nsubs[-1])
        ends.append(ends[-1] + steps)
    omega, delta, nsub, half = map(np.concatenate, (omegas, deltas, nsubs, halves))
    lead = delta * half
    # half changes within a segment only where nsub does
    bounds = sorted({*ends, *(np.flatnonzero(nsub[1:] != nsub[:-1]) + 1).tolist()})
    return (omega * half[1:], nsub, half[1:], lead[1:], lead[:-1] + lead[1:],
            half[:-1] + half[1:], bounds)


def _register_terms(reg: Register, dev: DeviceParams) -> tuple:
    """What evolve needs of the register beyond the pulse, read-only, built
    once per register and c6 and kept on the frozen register: the interaction
    and occupation diagonals, sigma = (-1)^popcount and i^popcount, each
    atom's flip gap sum_j U_kj, the detuning weights, and the i w.n parts of
    each group (occ where only its atoms are excited), top group first."""
    cache = reg.__dict__.setdefault("_register_terms", {})
    if dev.c6 not in cache:
        inter, occ = interaction_diagonal(reg, dev), occupation_diagonal(reg)
        n, groups, pop = reg.n, _groups(reg.n), _popcount(reg.n)
        lows = np.cumsum([0] + [m for m, _ in groups])
        iocc = tuple(1j * occ[np.arange(1 << m) << lo] for (m, _), lo in zip(groups, lows))[::-1]
        # one flip of atom k changes U by at most sum_j U_kj (U >= 0)
        flip_gap = inter[-1] - inter[((1 << n) - 1) ^ (1 << np.arange(n))]
        terms = (inter, occ, 1.0 - 2.0 * (pop & 1), _I_POWERS[pop & 3], flip_gap,
                 reg.detuning_weights(), iocc)
        for array in (*terms[:-1], *iocc):
            array.flags.writeable = False
        cache[dev.c6] = terms
    return cache[dev.c6]


def evolve(reg: Register, seq: PulseSequence, dev: DeviceParams,
           dt: float = 4.0) -> StateVector:
    """Integrate the schedule from |00...0> with midpoint steps of `dt` ns,
    each run as Strang sub-steps; steps never straddle segment boundaries.
    The schedule is compiled into stretches (`_compile`); each stretch runs
    in chunks of steps through `_substeps`, each chunk with its batch of
    first and repeated phase rows from `_rows`.

    Raises NumericalError when the norm drifts by more than 1e-4; drift is
    never hidden by renormalising.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise InputError(f"dt must be a positive finite number, got {dt}")
    inter, occ, sign, i_powers, flip_gap, weights, iocc = _register_terms(reg, dev)
    dim, groups = 1 << reg.n, _groups(reg.n)
    theta, nsubs, halves, leads, d_firsts, t_firsts, bounds = _compile(
        seq, dt, flip_gap, weights, dev.omega_max)
    tables = {m: drive_table(theta, m) for m in {size for size, _ in groups}}
    gathers = [(tables[m], index) for m, index in groups[::-1]]  # in run order
    mat_floats = sum(index.size for _, index in groups)

    a = np.zeros(2 * dim)  # the state's interleaved re/im floats, between sub-steps
    a[0] = 1.0
    plan = _plan(groups, a, np.empty_like(a))
    for start, end in zip(bounds, bounds[1:]):
        nsub, half = int(nsubs[start]), float(halves[start])
        # sigma exp(-i t U) of every phase but the stretch's first, t = 2 half,
        # and of the first, whose t holds the previous step's trailing half
        u = sign * np.exp(-1j * (half + half) * inter)
        carry = sign * np.exp(-1j * float(t_firsts[start]) * inter)
        # steps whose group matrices fit the budget beside their first and
        # repeated rows, or beside two rows of each kind where `_rows` steps
        row_floats = 2 * dim * min(nsub, 2)
        chunk = max(1, (CHUNK_FLOATS - 2 * row_floats) // mat_floats if dim >= LONG_ROW
                    else CHUNK_FLOATS // (mat_floats + row_floats))
        # chunks counted back from the stretch's end: each one's end, counted
        # from the stretch's start; the first rows' batches skip the first
        # step, whose row takes the carried phase
        ends = range((end - start) % chunk or chunk, end - start + 1, chunk)
        firsts = _rows(u, iocc, occ, d_firsts[start + 1:end], ANCHOR_PERIOD,
                       range(ends[0] - 1, end - start, chunk))
        # the repeated row enters the state nsub - 1 times a step, so it is
        # anchored nsub - 1 times as often
        repeats = repeat(repeat(None)) if nsub == 1 else _rows(
            u, iocc, occ, leads[start:end] + leads[start:end],
            max(1, ANCHOR_PERIOD // (nsub - 1)), ends)
        head = _phase_rows(carry, iocc, d_firsts[start:start + 1])
        for stop, rows, reps in zip(ends, firsts, repeats):
            c0, c1 = start + max(0, stop - chunk), start + stop
            _substeps(plan, zip(chain(head, rows) if c0 == start else rows, reps, zip(
                *(table[c0:c1].take(index, axis=1) for table, index in gathers))), nsub)
        firsts = repeats = None  # the running rows, freed before the next stretch's
    # sigma S_N = i^popcount turns the sigma-phased G products into R products
    last = _phase_rows(sign * np.exp(-1j * float(halves[-1]) * inter), iocc, leads[-1:])[0]
    psi = plan[0]
    psi *= last
    psi *= i_powers

    drift = abs(np.linalg.norm(psi) - 1.0)
    if drift > DRIFT_LIMIT:
        raise NumericalError(f"norm drift {drift:.2e} exceeds {DRIFT_LIMIT}; reduce dt")
    return StateVector(amplitudes=psi, n_atoms=reg.n)


def measure(state: StateVector, shots: int, seed) -> Histogram:
    """Draw `shots` independent basis samples from |amplitude|^2."""
    if shots <= 0:
        raise InputError("shots must be positive")
    probs = np.abs(state.amplitudes) ** 2
    counts = np.random.default_rng(seed).multinomial(shots, probs / probs.sum())
    hit = np.flatnonzero(counts)
    return Histogram(shots=shots, counts=dict(zip(bitstrings(hit, state.n_atoms),
                                                  counts[hit].tolist())))


def exact_distribution(state: StateVector) -> dict:
    """Exact outcome probabilities keyed by bitstring (nonzero entries)."""
    probs = np.abs(state.amplitudes) ** 2
    hit = np.flatnonzero(probs)
    return dict(zip(bitstrings(hit, state.n_atoms), probs[hit].tolist()))
