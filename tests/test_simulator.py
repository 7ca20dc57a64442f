"""Emulator checks against closed-form dynamics and dense expm oracles."""

import math
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator
from scipy.linalg import expm
from scipy.sparse import csr_matrix

from rydock.cli import DEFAULTS
from rydock.docking import build_binding_graph, default_table, load_molecule
from rydock.errors import InputError
from rydock.graphs import bitstrings, complement
from rydock.mlqaa.dataset import SPACINGS, corpus_entry, generate_corpus
from rydock.optimize import search_space, sequence_for
from rydock.pulses import (
    ParamSpace,
    PulseSequence,
    Ramp,
    Segment,
    complex_sequence,
    simple_sequence,
)
from rydock.register import Atom, DeviceParams, Register, layout, omega_bounds
from rydock.rng import substream
from rydock import simulator
from rydock.simulator import (
    ATOM_CAP,
    GROUP_MAX_ATOMS,
    LONG_ROW,
    OMEGA_EXPONENT,
    PHI_MAX,
    PHI_OMEGA,
    SMALL_GROUP_MAX_ATOMS,
    StateVector,
    _drives,
    _phase_rows,
    _plan,
    _rows,
    _signed_index,
    _substeps,
    drive_table,
    evolve,
    exact_distribution,
    group_sizes,
    interaction_diagonal,
    measure,
    occupation_diagonal,
    substep_counts,
)
import calibrate_substeps
import measure_evolve_calls
import measure_groups
from allocating_loop_reference import allocating_substeps
from compile_reference import reference_compile
from complex_drive_reference import complex_evolve
from substeps_reference import exp_phase_rows, generic_substeps, iocc_of, reim_drives
from taylor_reference import DENSE_MAX_ATOMS, THETA_MAX, _step_operator, taylor_evolve

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

DEV = DeviceParams()


def line_register(*xs, weights=None):
    weights = weights or [1.0] * len(xs)
    return Register(atoms=tuple(
        Atom(f"q{k}", x, 0.0, detuning_weight=w)
        for k, (x, w) in enumerate(zip(xs, weights))))


def constant_segment(omega, delta, duration):
    return Segment(omega=Ramp(omega, omega, duration),
                   delta=Ramp(delta, delta, duration))


def dense_hamiltonian(reg, dev, omega, delta):
    """Independent dense build: loops over basis states, no shared code."""
    n = reg.n
    dim = 2**n
    pos = reg.positions()
    h = np.zeros((dim, dim), dtype=complex)
    for idx in range(dim):
        bits = [(idx >> k) & 1 for k in range(n)]
        e = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                if bits[i] and bits[j]:
                    r = math.hypot(pos[i][0] - pos[j][0], pos[i][1] - pos[j][1])
                    e += dev.c6 / r**6
        for i in range(n):
            if bits[i]:
                e -= delta * reg.atoms[i].detuning_weight
        h[idx, idx] = e
        for k in range(n):
            h[idx ^ (1 << k), idx] += omega / 2.0
    return h


def _half_flip_operator(n: int) -> csr_matrix:
    """Sparse 0.5 * sum_k sigma_x_k."""
    dim = 1 << n
    idx = np.arange(dim, dtype=np.int64)
    rows = np.tile(idx, n)
    cols = np.concatenate([idx ^ (1 << k) for k in range(n)])
    data = np.full(n * dim, 0.5)
    return csr_matrix((data, (rows, cols)), shape=(dim, dim))


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
        return self.omega * self.half_flip.toarray() + np.diag(self.diagonal)


def build_hamiltonian(reg, omega, delta, dev) -> Hamiltonian:
    """H at fixed controls: (omega/2) sum sigma_x - delta sum w n + sum U nn,
    from the emulator's diagonals and an independently built drive."""
    diag = interaction_diagonal(reg, dev) - delta * occupation_diagonal(reg)
    return Hamiltonian(n_atoms=reg.n, omega=float(omega), diagonal=diag,
                       half_flip=_half_flip_operator(reg.n))


def _midpoint_controls(seg, dt):
    """Step widths in us and midpoint (omega, delta) of a segment's steps."""
    steps = max(1, int(np.ceil(seg.duration / dt - 1e-9)))
    edges = np.linspace(0.0, seg.duration, steps + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    controls = [(float(np.asarray(seg.omega.sample(t))),
                 float(np.asarray(seg.delta.sample(t)))) for t in mids]
    return np.diff(edges) * 1e-3, controls


def dense_parts(reg, dev):
    """(X, U, W) with H(omega, delta) = omega X + U - delta W, each taken
    from `dense_hamiltonian`: X the drive per unit omega, U the diagonal
    interaction and W the diagonal occupation."""
    inter = dense_hamiltonian(reg, dev, 0.0, 0.0)
    return (dense_hamiltonian(reg, dev, 1.0, 0.0) - inter, inter,
            inter - dense_hamiltonian(reg, dev, 0.0, 1.0))


def expm_evolve(reg, seq, dev, dt):
    """Midpoint stepping with scipy expm as the propagator."""
    drive, inter, occ = dense_parts(reg, dev)
    psi = np.zeros(2**reg.n, dtype=complex)
    psi[0] = 1.0
    for seg in seq.segments:
        widths, controls = _midpoint_controls(seg, dt)
        for tau, (om, de) in zip(widths, controls):
            psi = expm(-1j * tau * (om * drive + inter - de * occ)) @ psi
    return psi


def split_substeps(reg, dev, seg, dt, exponent=OMEGA_EXPONENT, budget=PHI_OMEGA):
    """Strang sub-steps of each midpoint step of a segment, by evolve's rule:
    ceil(tau g (|omega| / omega_max)^exponent / budget), at least 1 and at
    most ceil(tau g / PHI_MAX), with g the largest energy change of one atom
    flip over the segment's sampled detunings, here found by brute force."""
    widths, controls = _midpoint_controls(seg, dt)
    inter = np.diag(dense_hamiltonian(reg, dev, 0.0, 0.0)).real
    idx = np.arange(2**reg.n)
    de_max = max(abs(de) for _, de in controls)
    gap = max(np.abs(inter - inter[idx ^ (1 << k)]).max()
              + de_max * abs(reg.atoms[k].detuning_weight) for k in range(reg.n))
    tau = widths.max()
    cap = max(1, math.ceil(tau * gap / PHI_MAX))
    return [min(cap, max(1, math.ceil(tau * gap * (abs(om) / dev.omega_max) ** exponent
                                      / budget)))
            for om, _ in controls]


def strang_expm_evolve(reg, seq, dev, dt):
    """Midpoint steps of Strang sub-steps, each factor a scipy expm:
    exp(-i D s / 2) exp(-i omega X s) exp(-i D s / 2), with D the diagonal
    and omega X the drive of the dense Hamiltonian."""
    drive, inter, occ = dense_parts(reg, dev)
    psi = np.zeros(2**reg.n, dtype=complex)
    psi[0] = 1.0
    for seg in seq.segments:
        nsubs = split_substeps(reg, dev, seg, dt)
        widths, controls = _midpoint_controls(seg, dt)
        for tau, (om, de), nsub in zip(widths, controls, nsubs):
            s = tau / nsub
            half = expm(-0.5j * s * (inter - de * occ))
            step = half @ expm(-1j * s * om * drive) @ half
            for _ in range(nsub):
                psi = step @ psi
    return psi


def check_oracles(reg, seq, dt):
    """The split step against its expm oracle, and the Taylor reference
    against the expm midpoint rule, both to 1e-8."""
    got = evolve(reg, seq, DEV, dt=dt).amplitudes
    assert np.linalg.norm(got - strang_expm_evolve(reg, seq, DEV, dt)) < 1e-8
    ref = taylor_evolve(reg, seq, DEV, dt=dt).amplitudes
    assert np.linalg.norm(ref - expm_evolve(reg, seq, DEV, dt)) < 1e-8


def bitstring_of(index: int, n: int) -> str:
    """Scalar rendering of one basis index: atom k = bit k, atom 0 leftmost."""
    return "".join("1" if (index >> k) & 1 else "0" for k in range(n))


def test_bitstring_convention():
    # atom 0 is the leftmost character
    assert bitstrings([0, 1, 4, 6], 3) == ["000", "100", "001", "011"]


def test_bitstrings_match_the_scalar_rendering():
    for n in range(1, 11):
        assert bitstrings(np.arange(1 << n), n) == [bitstring_of(i, n) for i in range(1 << n)]
    idx = np.random.default_rng(5).integers(0, 1 << 16, size=500)
    assert bitstrings(idx, 16) == [bitstring_of(int(i), 16) for i in idx]
    assert bitstrings(np.array([], dtype=np.int64), 4) == []


def test_interaction_diagonal_two_atoms():
    reg = line_register(0.0, 9.0)
    diag = interaction_diagonal(reg, DEV)
    u = DEV.c6 / 9.0**6
    assert diag == pytest.approx([0.0, 0.0, 0.0, u])


def test_interaction_diagonal_triangle():
    reg = Register(atoms=(Atom("a", 0, 0), Atom("b", 9, 0), Atom("c", 0, 9)))
    diag = interaction_diagonal(reg, DEV)
    u = DEV.c6 / 9.0**6
    ud = DEV.c6 / (9.0 * math.sqrt(2)) ** 6
    # index 3 = a,b; 5 = a,c; 6 = b,c; 7 = all three
    assert diag[3] == pytest.approx(u)
    assert diag[5] == pytest.approx(u)
    assert diag[6] == pytest.approx(ud)
    assert diag[7] == pytest.approx(2 * u + ud)


def test_diagonals_are_built_once_per_register_and_c6(monkeypatch):
    # a search or a sweep evolves one register many times: its diagonals are
    # kept on the frozen register, the interaction one per c6
    reg = line_register(0.0, 9.0, 18.0, 27.0, weights=[1.0, 1.5, 0.5, 2.0])
    positions = Register.positions
    calls = []
    monkeypatch.setattr(Register, "positions",
                        lambda self: calls.append(1) or positions(self))
    seq = simple_sequence(dict(omega=3.0, delta=2.5, time=200.0),
                          DEV.omega_max, DEV.delta_abs_max)
    a = evolve(reg, seq, DEV, dt=4.0).amplitudes
    b = evolve(reg, seq, DEV, dt=4.0).amplitudes
    assert len(calls) == 1
    assert a.tobytes() == b.tobytes()
    assert interaction_diagonal(reg, DEV) is interaction_diagonal(reg, DEV)
    assert occupation_diagonal(reg) is occupation_diagonal(reg)
    stronger = DeviceParams(c6=2.0 * DEV.c6)
    assert np.array_equal(interaction_diagonal(reg, stronger),
                          2.0 * interaction_diagonal(reg, DEV))
    assert len(calls) == 1  # the register keeps its distances too
    # a fresh register of the same atoms builds the same values
    fresh = Register(atoms=reg.atoms)
    assert interaction_diagonal(fresh, DEV).tobytes() == interaction_diagonal(reg, DEV).tobytes()


def test_register_terms_are_kept_per_c6():
    # evolve keeps sigma, the i w.n parts, the flip gaps and the detuning
    # weights on the register, per c6: one register evolved under two c6
    # values, in either order and again, gives each the bytes of a fresh
    # register, and the kept terms are read-only
    seq = complex_sequence(dict(t_rise=200.0, t_fall=300.0, omega=6.0, delta0=3.0, deltaf=7.0),
                           DEV.omega_max, DEV.delta_abs_max)
    devs = (DEV, DeviceParams(c6=0.25 * DEV.c6))
    reg = line_register(0.0, 5.0, 10.0, 15.0, 20.0, 25.0, weights=[1.0, 1.5, 0.5, 2.0, 1.0, 1.2])
    fresh = {dev: evolve(Register(atoms=reg.atoms), seq, dev, dt=8.0).amplitudes.tobytes()
             for dev in devs}
    assert fresh[devs[0]] != fresh[devs[1]]
    for order in (devs, devs[::-1]):
        shared = Register(atoms=reg.atoms)
        for dev in (*order, *order):
            assert evolve(shared, seq, dev, dt=8.0).amplitudes.tobytes() == fresh[dev]
    for dev in devs:
        terms = simulator._register_terms(reg, dev)
        assert simulator._register_terms(reg, dev) is terms
        assert not any(a.flags.writeable for a in (*terms[:-1], terms[-1][0]))


def test_occupation_diagonal_weights():
    reg = line_register(0.0, 30.0, weights=[1.5, 2.0])
    occ = occupation_diagonal(reg)
    assert occ == pytest.approx([0.0, 1.5, 2.0, 3.5])


def test_coincident_atoms_rejected():
    reg = Register(atoms=(Atom("a", 1.0, 1.0), Atom("b", 1.0, 1.0)))
    with pytest.raises(InputError):
        interaction_diagonal(reg, DEV)


def test_atom_cap():
    reg = Register(atoms=tuple(Atom(f"q{k}", 100.0 * k, 0.0) for k in range(17)))
    with pytest.raises(InputError):
        occupation_diagonal(reg)


def test_hamiltonian_dense_matches_apply():
    reg = Register(atoms=(Atom("a", 0, 0), Atom("b", 9, 0), Atom("c", 5, 8)))
    ham = build_hamiltonian(reg, omega=3.2, delta=1.7, dev=DEV)
    dense = ham.to_dense()
    assert np.allclose(dense, dense.conj().T)
    assert np.allclose(dense, dense_hamiltonian(reg, DEV, 3.2, 1.7))
    rng = np.random.default_rng(7)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    assert np.allclose(ham.apply(psi), dense @ psi)


def test_resonant_rabi_oscillation():
    # isolated atom at delta=0: P(1) = sin^2(omega * t / 2)
    reg = line_register(0.0)
    omega, t_ns = 2.0, 500.0
    seq = PulseSequence(segments=(constant_segment(omega, 0.0, t_ns),))
    state = evolve(reg, seq, DEV, dt=1.0)
    want = math.sin(omega * (t_ns * 1e-3) / 2.0) ** 2
    assert exact_distribution(state)["1"] == pytest.approx(want, abs=1e-6)


def test_detuned_rabi_oscillation():
    # generalised Rabi: P(1) = (omega/W)^2 sin^2(W t / 2), W = sqrt(om^2+de^2)
    reg = line_register(0.0)
    omega, delta, t_ns = 3.0, 4.0, 500.0
    seq = PulseSequence(segments=(constant_segment(omega, delta, t_ns),))
    state = evolve(reg, seq, DEV, dt=1.0)
    w = math.hypot(omega, delta)
    want = (omega / w) ** 2 * math.sin(w * t_ns * 1e-3 / 2.0) ** 2
    assert exact_distribution(state)["1"] == pytest.approx(want, abs=1e-6)


def test_detuning_sign_favours_occupation():
    # slow sweep to positive delta leaves an isolated atom excited; the
    # opposite sign convention would leave it in the ground state
    reg = line_register(0.0)
    seq = simple_sequence(dict(omega=4.0, delta=6.0, time=2000.0),
                          DEV.omega_max, DEV.delta_abs_max)
    probs = exact_distribution(evolve(reg, seq, DEV, dt=4.0))
    assert probs["1"] > 0.9


def test_blockade_suppresses_double_excitation():
    reg = line_register(0.0, 6.0)
    seq = simple_sequence(dict(omega=4.0, delta=6.0, time=2000.0),
                          DEV.omega_max, DEV.delta_abs_max)
    probs = exact_distribution(evolve(reg, seq, DEV, dt=4.0))
    assert probs.get("11", 0.0) < 0.01
    assert probs.get("10", 0.0) + probs.get("01", 0.0) > 0.9
    assert probs.get("10", 0.0) == pytest.approx(probs.get("01", 0.0), rel=0.05)


def test_against_dense_expm_oracle():
    reg = Register(atoms=(Atom("a", 0, 0, detuning_weight=1.5),
                          Atom("b", 9, 0),
                          Atom("c", 0, 9, detuning_weight=2.0)))
    seq = complex_sequence(
        dict(t_rise=100.0, t_fall=300.0, omega=5.0,
                      delta0=2.0, deltaf=6.0),
        DEV.omega_max, DEV.delta_abs_max)
    check_oracles(reg, seq, dt=4.0)


def test_oracle_simple_family_two_atoms():
    reg = line_register(0.0, 9.0)
    seq = simple_sequence(dict(omega=3.0, delta=2.5, time=400.0),
                          DEV.omega_max, DEV.delta_abs_max)
    check_oracles(reg, seq, dt=4.0)


def test_oracle_split_substeps():
    # atoms 4 um apart: U ~ 1300 rad/us, so ||H|| * tau ~ 10 at dt 8; every
    # step runs as several THETA_MAX-sized series in the Taylor reference and
    # most steps as many Strang sub-steps in evolve
    reg = line_register(0.0, 4.0, 8.0)
    diag = interaction_diagonal(reg, DEV)
    assert 0.5 * np.ptp(diag) * 8e-3 > THETA_MAX
    seq = simple_sequence(dict(omega=3.0, delta=2.5, time=400.0),
                          DEV.omega_max, DEV.delta_abs_max)
    (seg,) = seq.segments
    assert np.median(split_substeps(reg, DEV, seg, 8.0)) > 10
    check_oracles(reg, seq, dt=8.0)


def test_oracle_above_dense_threshold():
    # one atom past DENSE_MAX_ATOMS: the Taylor reference's step operator is
    # sparse, and evolve's drive factor runs as two Kronecker groups
    n = DENSE_MAX_ATOMS + 1
    assert len(group_sizes(n)) == 2
    reg = line_register(*(9.0 * k for k in range(n)),
                        weights=[1.0 + 0.25 * k for k in range(n)])
    seq = simple_sequence(dict(omega=3.0, delta=2.5, time=200.0),
                          DEV.omega_max, DEV.delta_abs_max)
    check_oracles(reg, seq, dt=8.0)


def test_oracle_energy_far_from_midpoint():
    # atoms 4 um apart: the spectrum spans ~ 4000 rad/us, while the state
    # stays near the ground edge, so the Taylor series centre sits far from
    # the spectrum's midpoint; at dt 16 ||H|| * tau ~ 64 and every step must
    # split (a single series step does not converge)
    reg = line_register(0.0, 4.0, 8.0, 12.0)
    diag = interaction_diagonal(reg, DEV)
    assert 0.5 * np.ptp(diag) * 16e-3 > 5 * THETA_MAX
    seq = complex_sequence(
        dict(t_rise=200.0, t_fall=300.0, omega=6.0,
                      delta0=3.0, deltaf=7.0),
        DEV.omega_max, DEV.delta_abs_max)
    check_oracles(reg, seq, dt=16.0)


def test_oracle_detuning_sets_substeps():
    # atoms 30 um apart barely interact, so the detuning term |delta| w of
    # the sub-step rule alone splits each step
    reg = line_register(0.0, 30.0, weights=[3.0, 1.0])
    seq = complex_sequence(
        dict(t_rise=100.0, t_fall=200.0, omega=4.0,
                      delta0=5.0, deltaf=8.0),
        DEV.omega_max, DEV.delta_abs_max)
    assert all(max(split_substeps(reg, DEV, seg, 16.0)) > 1 for seg in seq.segments)
    check_oracles(reg, seq, dt=16.0)


def test_split_error_is_second_order():
    # one Strang sub-step per midpoint step on both grids, so halving dt
    # should cut the error against a fine midpoint expm run about 4x
    reg = line_register(0.0, 10.0, 20.0, weights=[1.0, 1.5, 0.5])
    seq = simple_sequence(dict(omega=4.0, delta=3.0, time=600.0),
                          DEV.omega_max, DEV.delta_abs_max)
    assert all(max(split_substeps(reg, DEV, seg, 8.0)) == 1 for seg in seq.segments)
    ref = expm_evolve(reg, seq, DEV, 0.5)
    err8 = np.linalg.norm(evolve(reg, seq, DEV, dt=8.0).amplitudes - ref)
    err4 = np.linalg.norm(evolve(reg, seq, DEV, dt=4.0).amplitudes - ref)
    assert 3.0 < err8 / err4 < 5.0


def test_undriven_segment_is_a_diagonal_phase():
    # after a driven segment, omega = 0 (and omega too small for 2 / omega
    # to be finite) leaves only the closed-form phase exp(-i D t)
    reg = line_register(0.0, 7.0, weights=[1.0, 1.5])
    drive = constant_segment(3.0, 1.0, 300.0)
    driven = evolve(reg, PulseSequence(segments=(drive,)), DEV, dt=4.0).amplitudes
    delta, t_ns = 2.5, 200.0
    diag = interaction_diagonal(reg, DEV) - delta * occupation_diagonal(reg)
    want = driven * np.exp(-1j * diag * t_ns * 1e-3)
    assert np.count_nonzero(np.abs(driven) > 0.1) >= 2
    for omega in (0.0, 1e-310):
        seq = PulseSequence(segments=(drive, constant_segment(omega, delta, t_ns)))
        got = evolve(reg, seq, DEV, dt=4.0).amplitudes
        assert np.all(np.isfinite(got))
        assert np.linalg.norm(got - want) < 1e-12


def test_evolve_repeats_bit_for_bit():
    # one, two and four Kronecker groups
    seq = simple_sequence(dict(omega=3.0, delta=2.5, time=200.0),
                          DEV.omega_max, DEV.delta_abs_max)
    for n in (3, 8, 13):
        reg = line_register(*(9.0 * k for k in range(n)))
        a = evolve(reg, seq, DEV, dt=4.0).amplitudes
        b = evolve(reg, seq, DEV, dt=4.0).amplitudes
        assert a.tobytes() == b.tobytes()


def test_step_operator_diagonal_view():
    # the Taylor reference's operator: writing the diagonal view must set
    # exactly the matrix's diagonal, on both the dense and the CSR form,
    # over the fixed bit-flip pattern
    def dense(op):
        return op if isinstance(op, np.ndarray) else op.toarray()

    for n in (DENSE_MAX_ATOMS, DENSE_MAX_ATOMS + 1):
        op, op_diag = _step_operator(n)
        flips = 2.0 * _half_flip_operator(n).toarray()
        assert np.array_equal(dense(op), flips)
        values = np.arange(1 << n) - 0.5
        op_diag[:] = values
        assert np.array_equal(dense(op), flips + np.diag(values))


def _rotation(theta):
    return np.array([[math.cos(theta), -1j * math.sin(theta)],
                     [-1j * math.sin(theta), math.cos(theta)]])


def _reflection(theta):
    """G(theta), with R(theta) = S G(theta) S and S = diag(1, -i)."""
    return np.array([[math.cos(theta), math.sin(theta)],
                     [math.sin(theta), -math.cos(theta)]])


def _state(n, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return psi / np.linalg.norm(psi)


def _factors(theta, n):
    """Each group's matrix in the order `_substeps` runs them, top group
    first, as evolve gathers them (`_drives`)."""
    sizes = group_sizes(n)
    tables = {m: drive_table([theta], m) for m in sizes}
    return [mat[0] for mat in _drives(tables, sizes, np.zeros((1, 2 << sizes[0], 2 << sizes[0])),
                                      0, 1)]


def real_drive(psi, theta, n):
    """G(theta)^{(x)n} psi as one sub-step of evolve's loop with a unit phase,
    on the interleaved floats of two buffers planned as evolve plans them."""
    a = psi.view(float).copy()
    _substeps(_plan(group_sizes(n), a, np.empty_like(a)),
              [(np.ones(1 << n, complex), None, _factors(theta, n))], 1)
    return a.view(complex)


_angles = st.floats(-10.0, 10.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), theta=_angles, seed=st.integers(0, 2**32 - 1))
def test_grouped_drive_factor_equals_kron(n, theta, seed):
    dense = np.ones((1, 1))
    for _ in range(n):
        dense = np.kron(_reflection(theta), dense)
    psi = _state(n, seed)
    assert np.abs(real_drive(psi, theta, n) - dense @ psi).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([3, 6, 9, 10]), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_one_substep_equals_the_dense_kron_product(n, data, seed):
    # 1, 2 and 3 groups, each turned by its own angle; the dense product fixes
    # which atoms each group acts on whatever the GEMM orientation, so a view
    # built against the wrong buffer or a flipped group order fails here
    sizes = group_sizes(n)
    thetas = data.draw(st.lists(_angles, min_size=len(sizes), max_size=len(sizes)))
    dense = np.ones((1, 1))
    for m, theta in zip(sizes, thetas):
        for _ in range(m):
            dense = np.kron(_reflection(theta), dense)
    mats = [drive_table(theta, m).take(_signed_index(m)) for m, theta in zip(sizes, thetas)]
    if len(sizes) > 1:  # the lowest group carries the re/im axis
        mats[0] = np.kron(mats[0], np.eye(2))
    psi = _state(n, seed)
    a = psi.view(float).copy()
    _substeps(_plan(sizes, a, np.empty_like(a)), [(np.ones(1 << n, complex), None, mats[::-1])], 1)
    assert np.abs(a.view(complex) - dense @ psi).max() < 1e-13


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), theta=_angles)
def test_phased_real_factor_equals_the_rotation(n, theta):
    # S_n G^{(x)n} S_n = R^{(x)n} with S_n = diag((-i)^popcount), for the table
    # gathered over the signed index
    dense = np.ones((1, 1))
    for _ in range(n):
        dense = np.kron(_rotation(theta), dense)
    d = (-1j) ** np.array([bin(i).count("1") for i in range(1 << n)])
    g = drive_table(theta, n).take(_signed_index(n))
    assert np.abs(d[:, None] * g * d - dense).max() < 1e-12


def per_atom_drive(psi, n, rot):
    """rot^{(x)n} psi as n 2x2 products, one per atom axis."""
    for k in range(n):
        psi = np.einsum("ab,hbl->hal", rot, psi.reshape(-1, 2, 1 << k)).reshape(-1)
    return psi


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, ATOM_CAP), theta=_angles, seed=st.integers(0, 2**32 - 1))
def test_grouped_drive_factor_equals_per_atom_rotations(n, theta, seed):
    # every partition up to the cap, with the order rotating through the groups
    psi = _state(n, seed)
    want = per_atom_drive(psi, n, _reflection(theta))
    assert np.abs(real_drive(psi, theta, n) - want).max() < 1e-12


def _random_occupation(n, data, rng):
    """occ = w.n over n atoms with random weights, and its w.n parts over 1-4
    groups of any sizes, top group first, as evolve passes them: end to end,
    with each group's slice."""
    cuts = data.draw(st.lists(st.integers(1, n - 1), max_size=3, unique=True))
    sizes = np.diff([0, *sorted(cuts), n])
    weights = rng.uniform(0.5, 1.5, n)
    bits = (np.arange(1 << n)[None, :] >> np.arange(n)[:, None]) & 1
    lows = np.cumsum([0, *sizes])
    parts = [weights[lo:lo + m] @ bits[:m, :1 << m] for m, lo in zip(sizes, lows)][::-1]
    ends = np.cumsum([0, *map(len, parts)]).tolist()
    return weights @ bits, (np.concatenate(parts), tuple(map(slice, ends, ends[1:])))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(3, 13), data=st.data(), kind=st.sampled_from(["empty", "constant", "varying"]),
       seed=st.integers(0, 2**32 - 1))
def test_phase_rows_match_the_direct_phase(n, data, kind, seed):
    # 1-4 groups of any sizes, rows of 2^3 to 2^13 amplitudes; a chunk's d is
    # empty (its one step opens the stretch), constant (one row, repeated) or
    # varying. Rows of every length, the anchors and the exact fallback of
    # stepped rows included, keep the complex-exp build's bytes
    rng = np.random.default_rng(seed)
    occ, parts = _random_occupation(n, data, rng)
    u = np.exp(-1j * rng.uniform(0.0, 2 * np.pi, 1 << n))
    rows = data.draw(st.integers(1, 4))
    d = {"empty": np.empty(0), "constant": np.full(rows, rng.uniform(-0.3, 0.3)),
         "varying": rng.uniform(-0.3, 0.3, rows)}[kind]
    got = _phase_rows(u, parts, d)
    assert len(got) == len(d)
    for row, step in zip(got, d):
        assert np.abs(row - u * np.exp(1j * step * occ)).max() <= 1e-14
    want = exp_phase_rows(u, iocc_of(parts), d)
    assert [row.tobytes() for row in got] == [row.tobytes() for row in want]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 12), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_stepped_rows_follow_an_affine_detuning(n, data, seed):
    # a stretch's rows along a Ramp, with any anchor period, read as evolve
    # reads them, one batch per chunk, over two random chunk splits (a chunk
    # may be empty, as the first rows' first batch is when the stretch's
    # first chunk holds one step), once as short rows and once with LONG_ROW
    # at the row length: exact rows keep the complex-exp build's bytes whatever
    # the split; stepped rows stay within 1e-13 of them, with the same bytes
    # whatever the split; and long rows whose d is off its line are exact
    rng = np.random.default_rng(seed)
    occ, parts = _random_occupation(n, data, rng)
    u = np.exp(-1j * rng.uniform(0.0, 2 * np.pi, 1 << n))
    steps, period = data.draw(st.integers(1, 150)), data.draw(st.integers(1, 64))
    edges = np.linspace(0.0, 1000.0, steps + 1)  # midpoints as _compile takes them
    delta = Ramp(rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0), 1000.0)
    d = delta.sample(0.5 * (edges[:-1] + edges[1:])) * rng.uniform(2e-4, 4e-3)
    splits = [[*sorted(data.draw(st.lists(st.integers(0, steps), max_size=6))), steps]
              for _ in range(2)]

    def read(long_row, d, ends):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulator, "LONG_ROW", long_row)
            batches, got = list(_rows(u, parts, occ, d, period, ends)), []
            assert len(batches) == len(ends)
            for batch, c1 in zip(batches, ends):
                got += [row.copy() for row in batch]
                assert len(got) == c1
        return [row.tobytes() for row in got], got

    want = exp_phase_rows(u, iocc_of(parts), d)
    for ends in splits:
        assert read(2 << n, d, ends)[0] == [row.tobytes() for row in want]
    stepped = [read(1 << n, d, ends) for ends in splits]
    assert stepped[0][0] == stepped[1][0]
    assert all(np.abs(got - row).max() <= 1e-13 for got, row in zip(stepped[0][1], want))
    if steps > 2 and period > 1:
        wave = rng.uniform(-0.3, 0.3, steps)
        assert read(1 << n, wave, splits[0])[0] == [
            row.tobytes() for row in exp_phase_rows(u, iocc_of(parts), wave)]


def test_partition_covers_the_atoms_in_order():
    for n in range(1, ATOM_CAP + 1):
        sizes = group_sizes(n)
        cap = n if n <= GROUP_MAX_ATOMS else SMALL_GROUP_MAX_ATOMS
        assert sum(sizes) == n and min(sizes) >= 1 and max(sizes) <= cap
        assert len(sizes) == -(-n // cap)  # as few groups as the cap allows
        assert max(sizes) - min(sizes) <= 1 and list(sizes) == sorted(sizes)
        mats = _drives({m: drive_table([0.3], m) for m in sizes}, sizes,
                       np.zeros((1, 2 << sizes[0], 2 << sizes[0])), 0, 1)
        for m, mat in zip(sizes, mats[::-1]):
            # with several groups the lowest one carries the re/im axis
            size = 2 << m if mat is mats[-1] and len(sizes) > 1 else 1 << m
            assert mat.shape == (1, size, size)
    assert group_sizes(5) == (5,) and group_sizes(6) == (3, 3) and group_sizes(7) == (3, 4)
    assert group_sizes(9) == (3, 3, 3) and group_sizes(10) == (3, 3, 4)
    assert group_sizes(11) == (3, 4, 4) and group_sizes(12) == (4, 4, 4)
    assert group_sizes(16) == (4, 4, 4, 4)


def test_small_groups_match_the_old_partition(monkeypatch):
    # the 12-atom two-hexagon register evolves to the same distribution under
    # its 4 + 4 + 4 partition and under 6 + 6, the rule used up to 10 atoms
    emb = corpus_entry("hexagon", 4, 9.75, DEV).embedding
    hi = omega_bounds(emb, DEV)[1]
    seq = simple_sequence(dict(omega=0.8 * hi, delta=3.5, time=600.0),
                          DEV.omega_max, DEV.delta_abs_max)
    assert group_sizes(emb.register.n) == (4, 4, 4)
    new = exact_distribution(evolve(emb.register, seq, DEV, dt=4.0))
    monkeypatch.setattr("rydock.simulator.group_sizes", lambda n: (6, 6))
    old = exact_distribution(evolve(emb.register, seq, DEV, dt=4.0))
    assert new.keys() == old.keys()
    assert max(abs(new[b] - old[b]) for b in new) < 1e-12


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), theta=_angles, seed=st.integers(0, 2**32 - 1),
       s=st.floats(1e-4, 0.1))
def test_split_substep_preserves_norm(n, theta, seed, s):
    psi = _state(n, seed)
    diag = np.random.default_rng(seed).uniform(-3000.0, 3000.0, size=1 << n)
    half = np.exp(-0.5j * s * diag)
    out = half * real_drive(half * psi, theta, n)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


@settings(max_examples=200, deadline=None)
@given(tau=st.floats(1e-4, 0.05), gap=st.floats(0.0, 5000.0),
       omega_max=st.floats(1.0, 50.0),
       fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
def test_substeps_never_exceed_the_flip_gap_cap(tau, gap, omega_max, fracs):
    omegas = np.array(fracs) * omega_max * np.where(np.arange(len(fracs)) % 2, -1.0, 1.0)
    counts = substep_counts(tau, gap, np.append(omegas, [0.0, omega_max]), omega_max)
    cap = max(1, math.ceil(tau * gap / PHI_MAX))
    assert counts.min() >= 1 and counts.max() <= cap
    assert counts[-2] == 1  # an undriven step is one exact phase
    assert counts[-1] == cap  # a step at full drive takes the whole cap


def _tv(a, b):
    return 0.5 * float(np.abs(np.abs(a) ** 2 - np.abs(b) ** 2).sum())


def _random_complex_pulse(emb, rng):
    space = search_space(emb, DEV, "complex")
    params = {k: rng.uniform(lo, hi) for k, (lo, hi) in space.intervals.items()}
    return sequence_for(space.clamp(params), "complex", DEV)


def test_split_step_tv_against_taylor_reference():
    # the stiffest corpus registers (close pairs, strong drive) and the
    # fixture docking register; corpus pulses are drawn in corpus order
    rng = np.random.default_rng(11)
    names = {"line-3-s7.25", "rectangle-2-s6", "triangle-3-s8.5"}
    cases = []
    for entry in generate_corpus(DEV):
        seq = _random_complex_pulse(entry.embedding, rng)
        if entry.name in names:
            cases.append((entry.embedding.register, seq))
    assert len(cases) == len(names)
    g = build_binding_graph(load_molecule(FIXTURES / "acetic_acid.json"),
                            load_molecule(FIXTURES / "ethylene_glycol.json"),
                            default_table(), tau=DEFAULTS["tau"])
    emb = layout(complement(g), DEV, spacing=DEFAULTS["spacing"], seed=2)
    cases.append((emb.register, _random_complex_pulse(emb, np.random.default_rng(11))))
    for reg, seq in cases:
        ref = taylor_evolve(reg, seq, DEV, dt=0.5).amplitudes
        for dt in (4.0, 8.0):
            assert _tv(evolve(reg, seq, DEV, dt=dt).amplitudes, ref) <= 1e-3


def test_split_error_across_the_rabi_band():
    # the splitting error alone (the Taylor reference at the same dt samples
    # the same midpoints) on stiff corpus registers and the fixture register,
    # with each pulse's drive at 0.3, 0.7 and 1.0 of the register's Rabi band;
    # line-0-s8.5 at the band top reads 2.8e-4 at dt 8 under any rule, since
    # tau g < PHI_MAX leaves its steps unsplit, hence the looser dt 8 bound
    rng = np.random.default_rng(11)
    names = {"triangle-3-s8.5", "triangle-1-s7.25", "line-0-s8.5", "rectangle-2-s6"}
    cases = []
    for entry in generate_corpus(DEV):
        space = search_space(entry.embedding, DEV, "complex")
        params = {k: rng.uniform(lo, hi) for k, (lo, hi) in space.intervals.items()}
        if entry.name in names:
            cases.append((entry.embedding, space, params))
    assert len(cases) == len(names)
    g = build_binding_graph(load_molecule(FIXTURES / "acetic_acid.json"),
                            load_molecule(FIXTURES / "ethylene_glycol.json"),
                            default_table(), tau=DEFAULTS["tau"])
    emb = layout(complement(g), DEV, spacing=DEFAULTS["spacing"], seed=2)
    space = search_space(emb, DEV, "complex")
    rng = np.random.default_rng(11)
    cases.append((emb, space, {k: rng.uniform(lo, hi) for k, (lo, hi) in space.intervals.items()}))
    for emb, space, params in cases:
        lo, hi = space.intervals["omega"]
        for frac in (0.3, 0.7, 1.0):
            seq = sequence_for(space.clamp(dict(params, omega=lo + frac * (hi - lo))),
                               "complex", DEV)
            for dt in (4.0, 8.0):
                ref = taylor_evolve(emb.register, seq, DEV, dt=dt).amplitudes
                got = evolve(emb.register, seq, DEV, dt=dt).amplitudes
                assert _tv(got, ref) <= {4.0: 2e-4, 8.0: 3e-4}[dt]


def _drive_cases():
    """Registers of 1, 3, 6, 7 and 12 atoms (one to three groups), each with
    a pulse; corpus pulses are drawn in corpus order."""
    names = {"triangle-0-s6", "hexagon-0-s7.25", "hexagon-1-s6", "hexagon-4-s9.75"}
    rng = np.random.default_rng(11)
    cases = [(line_register(0.0), simple_sequence(
        dict(omega=4.0, delta=3.0, time=1000.0), DEV.omega_max, DEV.delta_abs_max))]
    for entry in generate_corpus(DEV):
        seq = _random_complex_pulse(entry.embedding, rng)
        if entry.name in names:
            cases.append((entry.embedding.register, seq))
    assert sorted(reg.n for reg, _ in cases) == [1, 3, 6, 7, 12]
    return cases


def test_evolve_matches_the_complex_group_drive():
    # the real factor with sigma folded into the phase and i^popcount at the
    # end, against complex R(theta) group products between plain half-phases
    for reg, seq in _drive_cases():
        for dt in (4.0, 8.0):
            got = evolve(reg, seq, DEV, dt=dt).amplitudes
            assert np.abs(got - complex_evolve(reg, seq, DEV, dt)).max() <= 1e-12


def test_chunk_boundaries_are_invisible(monkeypatch):
    # evolve prepares each stretch of equal nsub a chunk of steps at a time;
    # with one-step chunks every step is a chunk boundary, and the merged
    # trailing half-phase must cross it, and each stretch and segment
    # boundary, exactly as it does within a chunk
    cases = _drive_cases()
    default = {(k, dt): evolve(reg, seq, DEV, dt=dt).amplitudes
               for k, (reg, seq) in enumerate(cases) for dt in (4.0, 8.0)}
    # a pulse whose sub-step count changes within a segment, several times
    reg, seq = next(case for case in cases if case[0].n == 6)
    assert all(len(set(split_substeps(reg, DEV, seg, 4.0))) > 2 for seg in seq.segments)
    monkeypatch.setattr(simulator, "CHUNK_FLOATS", 1)
    for k, (reg, seq) in enumerate(cases):
        for dt in (4.0, 8.0):
            got = evolve(reg, seq, DEV, dt=dt).amplitudes
            assert got.tobytes() == default[k, dt].tobytes()
            if reg.n < 12:  # the 12-atom reference takes seconds; the default run has it
                assert np.abs(got - complex_evolve(reg, seq, DEV, dt)).max() <= 1e-12


def _grid_register(n, spacing, seed):
    """n sites of a 4-column square grid, each moved by up to 0.1 spacing."""
    jitter = np.random.default_rng(seed).uniform(-0.1, 0.1, size=(n, 2))
    return Register(atoms=tuple(
        Atom(f"q{k}", spacing * (k % 4 + dx), spacing * (k // 4 + dy))
        for k, (dx, dy) in enumerate(jitter)))


@dataclass(frozen=True)
class PchipWave:
    """scipy's PCHIP through evenly spaced `points` over `duration` ns."""

    points: tuple
    duration: float

    def sample(self, t):
        knots = np.linspace(0.0, self.duration, len(self.points))
        return PchipInterpolator(knots, self.points)(np.clip(t, 0.0, self.duration))


def _centred_complex(emb, t_rise, t_fall):
    """The complex pulse at the centre of the register's search space, with
    the given ramp durations (ns)."""
    space = search_space(emb, DEV, "complex")
    centre = {k: 0.5 * (lo + hi) for k, (lo, hi) in space.intervals.items()}
    return sequence_for(space.clamp(dict(centre, t_rise=t_rise, t_fall=t_fall)), "complex", DEV)


@settings(max_examples=150, deadline=None)
@given(family=st.sampled_from(["simple", "complex", "pchip"]), data=st.data(),
       dt=st.sampled_from([0.5, 1.0, 3.0, 4.0, 8.0, 16.0, 100.0]),
       stiffness=st.sampled_from([1.0, 100.0, 3000.0]), seed=st.integers(0, 2**32 - 1))
def test_compile_matches_the_reference_schedule(family, data, dt, stiffness, seed):
    # both families at any hardware point, and one to three segments of PCHIP
    # waves whose drive starts at 0, over registers from weak to stiff, so
    # that nsub changes within segments and at their boundaries: every array
    # keeps the reference's dtype and bytes, and the stretch bounds its ints
    rng = np.random.default_rng(seed)
    n = data.draw(st.integers(1, 9))
    flip_gap, weights = rng.uniform(0.0, stiffness, n), rng.uniform(0.5, 3.0, n)
    if family == "pchip":
        seq = PulseSequence(segments=tuple(
            Segment(omega=PchipWave((0.0, *rng.uniform(0.0, DEV.omega_max, 3)), duration),
                    delta=PchipWave(tuple(rng.uniform(-20.0, 20.0, 3)), duration))
            for duration in rng.uniform(16.0, 1500.0, data.draw(st.integers(1, 3)))))
    else:
        space = ParamSpace.hardware(family, DEV.omega_max, DEV.delta_abs_max,
                                    DEV.coherence_time)
        params = space.clamp({k: data.draw(st.floats(lo, hi))
                              for k, (lo, hi) in space.intervals.items()})
        assume(space.feasible(params))
        seq = sequence_for(params, family, DEV)
    got = simulator._compile(seq, dt, flip_gap, weights, DEV.omega_max)
    want = reference_compile(seq, dt, flip_gap, weights, DEV.omega_max)
    for array, ref in zip(got[:6], want[:6]):
        assert array.dtype == ref.dtype and array.tobytes() == ref.tobytes()
    assert got[6] == want[6] and all(type(b) is int for b in got[6])


def test_rows_step_along_a_ramp_and_not_along_a_pchip_wave(monkeypatch):
    # 10 and 12 atoms, so evolve steps the rows. Along a Ramp detuning they
    # move the amplitudes, by at most 1e-13, also on triangle-2-s6, whose
    # repeated row enters the state up to 37 times a step, and on two-segment
    # pulses whose segments share a step width, where a stretch ends at the
    # segment boundary and the falling ramp steps; along a PchipWave the
    # stretch leaves its line, and evolve takes exact rows, the bytes of an
    # anchor every step
    rng = np.random.default_rng(11)  # corpus pulses are drawn in corpus order
    for entry in generate_corpus(DEV):
        pulse = _random_complex_pulse(entry.embedding, rng)
        if entry.name == "triangle-2-s6":
            break
    hexagon = corpus_entry("hexagon", 4, 9.75, DEV).embedding
    omega = 0.3 * DEV.omega_max
    waves = {"ramp": Ramp(-3.0, 4.0, 400.0), "pchip": PchipWave((-3.0, 2.0, -1.0, 4.0), 400.0)}
    cases = {k: (hexagon.register, PulseSequence(segments=(
        Segment(omega=Ramp(omega, omega, 400.0), delta=wave),))) for k, wave in waves.items()}
    cases["stiff"] = (entry.embedding.register, pulse)
    for k, emb in {"two_segments_12": hexagon,
                   "two_segments_10": corpus_entry("hexagon", 2, 9.75, DEV).embedding}.items():
        cases[k] = (emb.register, _centred_complex(emb, 1000.0, 1000.0))
    assert all(1 << reg.n >= LONG_ROW for reg, _ in cases.values())
    got = {k: evolve(reg, seq, DEV, dt=8.0).amplitudes for k, (reg, seq) in cases.items()}
    monkeypatch.setattr(simulator, "ANCHOR_PERIOD", 1)
    exact = {k: evolve(reg, seq, DEV, dt=8.0).amplitudes for k, (reg, seq) in cases.items()}
    for k in ("ramp", "stiff", "two_segments_12", "two_segments_10"):
        assert got[k].tobytes() != exact[k].tobytes()
        assert np.abs(got[k] - exact[k]).max() <= 1e-13
    assert got["pchip"].tobytes() == exact["pchip"].tobytes()
    assert np.abs(got["pchip"] - complex_evolve(hexagon.register, cases["pchip"][1], DEV,
                                                8.0)).max() <= 1e-12


@pytest.mark.parametrize("n", [3, 6, 12, 13])
@settings(max_examples=8, deadline=None)
@given(spacing=st.floats(5.5, 6.5), seed=st.integers(0, 2**32 - 1),
       frac=st.floats(0.5, 1.0), dt=st.sampled_from([4.0, 8.0]))
def test_two_buffer_loop_equals_the_allocating_loop(n, spacing, seed, frac, dt):
    # 1, 2, 3 and 4 groups, so the phase multiply runs out of place and in
    # place; the drive is 0 over the first segment's first third and reaches
    # frac of omega_max, so that segment holds steps of one sub-step and of
    # several; with one-step chunks every step is a chunk boundary
    reg = _grid_register(n, spacing, seed)
    assert len(group_sizes(n)) == {3: 1, 6: 2, 12: 3, 13: 4}[n]
    omega = frac * DEV.omega_max
    seq = PulseSequence(segments=(
        Segment(omega=PchipWave((0.0, 0.0, omega, omega), 240.0),
                delta=Ramp(-2.0, 3.0, 240.0)),
        constant_segment(0.5 * omega, 3.0, 40.0)))
    counts = []

    def counting(*args):
        counts.append(substep_counts(*args))
        return counts[-1]

    for chunk_floats in (simulator.CHUNK_FLOATS, 1):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulator, "substep_counts", counting)
            patch.setattr(simulator, "CHUNK_FLOATS", chunk_floats)
            got = evolve(reg, seq, DEV, dt=dt).amplitudes
            patch.setattr(simulator, "_substeps", allocating_substeps)
            want = evolve(reg, seq, DEV, dt=dt).amplitudes
        assert got.tobytes() == want.tobytes()
    assert counts[0].min() == 1 and counts[0].max() > 1


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([3, 5, 6, 7, 8, 9, 10, 12, 13]), nsub=st.integers(1, 4),
       data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_unrolled_substeps_equal_the_generic_loop(n, nsub, data, seed):
    # 1, 2, 3 and 4 groups at 1-4 sub-steps a step, over chunks of different
    # lengths, the last shorter than an earlier one, with one lowest-group
    # buffer for all of them as evolve keeps it: each chunk's matrices from
    # `_drives` through `_substeps` (its own body for 1-3 groups) give the bytes of the
    # re/im gather through the generic loop, so a stale entry of the buffer,
    # a body that skips or repeats a row, or a swapped matrix shows
    sizes = group_sizes(n)
    lengths = data.draw(st.lists(st.integers(1, 5), min_size=2, max_size=4))
    assume(lengths[-1] < max(lengths[:-1]))
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-3.0, 3.0, sum(lengths))
    tables = {m: drive_table(theta, m) for m in set(sizes)}
    rows = np.exp(1j * rng.uniform(0.0, 2 * np.pi, (sum(lengths), 2, 1 << n)))
    low = np.zeros((max(lengths), 2 << sizes[0], 2 << sizes[0]))
    got, want = (_state(n, seed).view(float).copy() for _ in range(2))
    plans = [(_substeps, _drives, _plan(sizes, got, np.empty_like(got))),
             (generic_substeps, reim_drives, _plan(sizes, want, np.empty_like(want)))]
    for c0, c1 in zip(np.cumsum([0, *lengths[:-1]]), np.cumsum(lengths)):
        for run, drives, plan in plans:
            run(plan, zip(rows[c0:c1, 0], rows[c0:c1, 1],
                          zip(*drives(tables, sizes, low, c0, c1))), nsub)
        assert got.tobytes() == want.tobytes()


def _exp_phase_rows(u, parts, d):
    return exp_phase_rows(u, iocc_of(parts), d)


@pytest.mark.parametrize("n, chunk_floats", [(3, 200), (6, 1400), (10, 9444), (13, 66826)])
def test_evolve_equals_its_reference_pieces(n, chunk_floats, monkeypatch):
    # evolve through `_drives`, the unrolled bodies and the cos/sin rows, and
    # through the re/im gather, the generic loop and the complex-exp rows:
    # the same bytes for 1-4 groups, with stepped rows from 10 atoms. The
    # second segment's drive rises from 0, so it holds stretches of one
    # sub-step a step and of several, and `chunk_floats` gives them chunks
    # of different lengths (2 and 3 steps at 6 atoms); the lowest-group
    # buffer, sized by the driven first segment, must grow for them
    reg = _grid_register(n, 6.0, n)
    omega = 0.9 * DEV.omega_max
    seq = PulseSequence(segments=(
        Segment(omega=Ramp(omega, 0.3 * omega, 200.0), delta=Ramp(3.0, 6.0, 200.0)),
        Segment(omega=PchipWave((0.0, 0.0, omega, omega), 240.0), delta=Ramp(-2.0, 3.0, 240.0))))
    monkeypatch.setattr(simulator, "CHUNK_FLOATS", chunk_floats)
    lengths, drives = set(), simulator._drives
    monkeypatch.setattr(simulator, "_drives", lambda tables, sizes, low, c0, c1: (
        lengths.add(c1 - c0), drives(tables, sizes, low, c0, c1))[1])
    got = evolve(reg, seq, DEV, dt=4.0).amplitudes
    assert len(lengths) > 1
    monkeypatch.setattr(simulator, "_drives", reim_drives)
    monkeypatch.setattr(simulator, "_substeps", generic_substeps)
    monkeypatch.setattr(simulator, "_phase_rows", _exp_phase_rows)
    assert got.tobytes() == evolve(reg, seq, DEV, dt=4.0).amplitudes.tobytes()


def test_phase_rows_keep_the_complex_exp_bytes_on_the_corpus(monkeypatch):
    # every corpus register's groups, with d negative, zero, positive and
    # constant: the cos/sin rows have the complex exp's bytes, signed zeros
    # included; and a 10-atom triangle, whose stepped rows call
    # `_phase_rows` at their anchors, evolves to the same bytes with either
    rng = np.random.default_rng(3)
    for entry in generate_corpus(DEV):
        reg = entry.embedding.register
        inter, _, sign, _, _, _, parts = simulator._register_terms(reg, DEV)
        u = sign * np.exp(-1j * 0.01 * inter)
        for d in (-rng.uniform(0.0, 0.3, 3), np.zeros(3), rng.uniform(0.0, 0.3, 3),
                  np.full(3, -0.2)):
            assert [row.tobytes() for row in _phase_rows(u, parts, d)] == [
                row.tobytes() for row in exp_phase_rows(u, iocc_of(parts), d)]
    emb = corpus_entry("triangle", 2, 8.5, DEV).embedding
    assert 1 << emb.register.n >= LONG_ROW
    seq = _centred_complex(emb, 1000.0, 1000.0)
    got = evolve(emb.register, seq, DEV, dt=8.0).amplitudes
    monkeypatch.setattr(simulator, "_phase_rows", _exp_phase_rows)
    assert got.tobytes() == evolve(emb.register, seq, DEV, dt=8.0).amplitudes.tobytes()


def test_evolve_memory_is_bounded():
    # a 12-atom evolve holds at most one chunk's group matrices and phase
    # rows (CHUNK_FLOATS floats) and about nine state-sized vectors: the
    # two state buffers, the detuning-free phase of the stretch and of its
    # first step, sigma, and the final phase's temporaries.
    # Holding two chunks at once, or a segment's rows, reads 16 or more.
    # The rows are stepped along the simple pulse's one segment and the
    # two-segment complex pulse's falling ramp, and exact along a PchipWave
    emb = corpus_entry("hexagon", 4, 9.75, DEV).embedding
    omega = 0.8 * omega_bounds(emb, DEV)[1]
    pulses = [
        simple_sequence(dict(omega=omega, delta=3.5, time=1000.0),
                        DEV.omega_max, DEV.delta_abs_max),
        _centred_complex(emb, 1000.0, 1000.0),
        PulseSequence(segments=(Segment(omega=Ramp(omega, omega, 1000.0),
                                        delta=PchipWave((-3.0, 2.0, -1.0, 4.0), 1000.0)),)),
    ]
    state = 16 << emb.register.n
    for seq in pulses:
        evolve(emb.register, seq, DEV, dt=4.0)  # warm the cached diagonals and indices
        tracemalloc.start()
        try:
            evolve(emb.register, seq, DEV, dt=4.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * simulator.CHUNK_FLOATS + 10 * state


@pytest.mark.parametrize("shape, size, spacing", [
    ("hexagon", 0, 6.0), ("hexagon", 1, 6.0), ("rectangle", 2, 7.25)])
def test_a_chunk_keeps_to_chunk_floats(shape, size, spacing, monkeypatch):
    # 6, 7 and 8 atoms, exact rows, up to 15 sub-steps a step: each chunk's
    # phase rows, the gathers `_drives` makes for it, transient ones too,
    # and its steps of the lowest-group buffer take at most CHUNK_FLOATS
    # floats, within 4 KiB of Python objects around the arrays. At 7 atoms
    # (3 + 4) the lowest group's plain gather is a gather of its own; a
    # chunk sized without it reads 32 KiB over
    emb = corpus_entry(shape, size, spacing, DEV).embedding
    seq = _centred_complex(emb, 1000.0, 1000.0)
    evolve(emb.register, seq, DEV, dt=4.0)  # warm the cached diagonals and indices
    m0 = group_sizes(emb.register.n)[0]
    rows, drives, phase_rows = [], simulator._drives, simulator._phase_rows
    over = []

    def counted_rows(u, parts, d):
        out = phase_rows(u, parts, d)
        rows.append(out[0].nbytes * (len(out) if isinstance(out, np.ndarray) else 1))
        return out

    def counted_drives(tables, sizes, low, c0, c1):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        mats = drives(tables, sizes, low, c0, c1)
        made = tracemalloc.get_traced_memory()[1] - before
        low_bytes = (c1 - c0) * 8 << 2 * m0 + 2
        over.append(sum(rows) + made + low_bytes - 8 * simulator.CHUNK_FLOATS)
        rows.clear()
        return mats

    monkeypatch.setattr(simulator, "_phase_rows", counted_rows)
    monkeypatch.setattr(simulator, "_drives", counted_drives)
    tracemalloc.start()
    try:
        evolve(emb.register, seq, DEV, dt=4.0)
    finally:
        tracemalloc.stop()
    assert len(over) > 10 and max(over) < 4096


def test_calibrate_substeps_counts_every_substep():
    # the calibration scan counts sub-steps through a hook on substep_counts;
    # its totals must equal the rule summed over the schedule, or the scan's
    # sub-step columns would silently read 0
    case = next(c for c in calibrate_substeps.pulses()
                if c[0] == "triangle-0-s6" and c[3] == "uniform")
    _, _, reg, _, seq = case
    rows = calibrate_substeps.scan_one(case, calibrate_substeps.rules(False))["rows"]
    assert len(rows) == 4
    for _, exponent, budget, dt, _, _, counted in rows:
        want = sum(sum(split_substeps(reg, DEV, seg, dt, exponent, budget))
                   for seg in seq.segments)
        assert counted == want
        assert want > sum(len(split_substeps(reg, DEV, seg, dt)) for seg in seq.segments)


def test_measure_groups_script_runs(capsys):
    # the timing scan behind the partition drives evolve's internals, on the
    # corpus and on the fixture docking register
    measure_groups.main(["--atoms", "6", "--per-size", "1", "--repeats", "1"])
    rows = capsys.readouterr().out.splitlines()[1:]
    assert {row.split()[1] for row in rows} == {"corpus", "fixture"}
    assert {row.split()[3] for row in rows} == {"4", "8"}
    assert {row.split()[4] for row in rows} == {"2+2+2", "3+3", "6"}
    assert [row.split()[4] for row in rows if row.endswith("*")] == ["3+3"] * 4
    # each other partition's paired ratio to the rule, with its quartiles
    for row in rows:
        if row.endswith("*"):
            assert row.split()[6:] == ["1.00", "*"]
        else:
            assert float(row.split()[6]) > 0 and row.split()[7].startswith("[")


def test_measure_evolve_calls_script_runs(capsys):
    # the per-call and per-sub-step timing scan, on the 2-atom corpus
    # registers and the fixture docking register
    measure_evolve_calls.main(["--atoms", "2", "--repeats", "1"])
    rows = [row.split() for row in capsys.readouterr().out.splitlines()[1:]]
    assert [row[0] for row in rows] == [f"line-0-s{s:g}" for s in SPACINGS] + ["fixture"]
    assert [row[1] for row in rows] == ["2"] * len(SPACINGS) + ["6"]
    for row in rows:
        assert float(row[2]) > 0 and float(row[3]) > 0 and int(row[4]) >= 626


def test_measure_evolve_calls_against_a_tree_runs(capsys):
    # the paired mode: this tree against itself, in two worker processes,
    # each printing its times and its ratio to the other's with quartiles
    measure_evolve_calls.main(["--only", "fixture", "--repeats", "2",
                               "--against", str(FIXTURES.parent)])
    rows = [row.split() for row in capsys.readouterr().out.splitlines()[1:]]
    assert [row[:2] for row in rows] == [["fixture", "6"]]
    (row,) = rows
    assert float(row[2]) > 0 and float(row[3]) > 0 and row[4].startswith("[")
    assert float(row[5]) > 0 and float(row[6]) > 0 and row[7].startswith("[")


def test_norm_preserved():
    reg = line_register(0.0, 9.0, 18.0)
    seq = simple_sequence(dict(omega=4.0, delta=3.0, time=1000.0),
                          DEV.omega_max, DEV.delta_abs_max)
    state = evolve(reg, seq, DEV, dt=4.0)
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-6)


def test_dt_refinement_converges():
    reg = line_register(0.0, 9.0, 18.0)
    seq = simple_sequence(dict(omega=4.0, delta=3.0, time=1000.0),
                          DEV.omega_max, DEV.delta_abs_max)
    ref = evolve(reg, seq, DEV, dt=0.5).amplitudes
    err8 = np.linalg.norm(evolve(reg, seq, DEV, dt=8.0).amplitudes - ref)
    err2 = np.linalg.norm(evolve(reg, seq, DEV, dt=2.0).amplitudes - ref)
    assert err2 < err8
    assert err2 < 1e-3


def test_evolve_input_errors():
    reg = line_register(0.0)
    seq = PulseSequence(segments=(constant_segment(1.0, 0.0, 100.0),))
    for dt in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InputError):
            evolve(reg, seq, DEV, dt=dt)


def test_measure_statistics():
    amps = np.array([math.sqrt(0.25), math.sqrt(0.75)], dtype=complex)
    state = StateVector(amplitudes=amps, n_atoms=1)
    shots = 10000
    hist = measure(state, shots, seed=5)
    assert sum(hist.counts.values()) == shots
    sigma = math.sqrt(0.75 * 0.25 * shots)
    assert abs(hist.counts["1"] - 0.75 * shots) < 5 * sigma


def test_measure_seeding():
    amps = np.full(4, 0.5, dtype=complex)
    state = StateVector(amplitudes=amps, n_atoms=2)
    a = measure(state, 200, seed=9)
    b = measure(state, 200, seed=9)
    assert a.counts == b.counts
    c = measure(state, 200, seed=substream(9, "alt"))
    assert sum(c.counts.values()) == 200
    with pytest.raises(InputError):
        measure(state, 0, seed=1)


def test_exact_distribution_normalised():
    reg = line_register(0.0, 9.0)
    seq = simple_sequence(dict(omega=3.0, delta=2.0, time=600.0),
                          DEV.omega_max, DEV.delta_abs_max)
    probs = exact_distribution(evolve(reg, seq, DEV, dt=2.0))
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)
    assert all(len(b) == 2 and set(b) <= {"0", "1"} for b in probs)
