"""Emulator checks against closed-form dynamics and a dense expm oracle."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.sparse import csr_matrix

from rydock.errors import InputError
from rydock.pulses import (
    ComplexParams,
    PulseSequence,
    Ramp,
    Segment,
    SimpleParams,
    complex_sequence,
    simple_sequence,
)
from rydock.register import Atom, DeviceParams, Register
from rydock.rng import substream
from rydock.simulator import (
    DENSE_MAX_ATOMS,
    THETA_MAX,
    StateVector,
    _step_operator,
    bitstring_of,
    evolve,
    exact_distribution,
    interaction_diagonal,
    measure,
    occupation_diagonal,
)

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


def expm_evolve(reg, seq, dev, dt):
    """Midpoint stepping with scipy expm as the propagator."""
    psi = np.zeros(2**reg.n, dtype=complex)
    psi[0] = 1.0
    for seg in seq.segments:
        steps = max(1, int(np.ceil(seg.duration / dt - 1e-9)))
        edges = np.linspace(0.0, seg.duration, steps + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        for k in range(steps):
            om = float(np.asarray(seg.omega.sample(mids[k])))
            de = float(np.asarray(seg.delta.sample(mids[k])))
            h = dense_hamiltonian(reg, dev, om, de)
            tau = (edges[k + 1] - edges[k]) * 1e-3
            psi = expm(-1j * tau * h) @ psi
    return psi


def test_bitstring_convention():
    assert bitstring_of(0, 3) == "000"
    assert bitstring_of(1, 3) == "100"  # atom 0 is the leftmost character
    assert bitstring_of(4, 3) == "001"
    assert bitstring_of(6, 3) == "011"


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
    seq = simple_sequence(SimpleParams(omega=4.0, delta=6.0, time=2000.0),
                          DEV.omega_max, DEV.delta_abs_max)
    probs = exact_distribution(evolve(reg, seq, DEV, dt=4.0))
    assert probs["1"] > 0.9


def test_blockade_suppresses_double_excitation():
    reg = line_register(0.0, 6.0)
    seq = simple_sequence(SimpleParams(omega=4.0, delta=6.0, time=2000.0),
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
        ComplexParams(t_rise=100.0, t_fall=300.0, omega=5.0,
                      delta0=2.0, deltaf=6.0),
        DEV.omega_max, DEV.delta_abs_max)
    got = evolve(reg, seq, DEV, dt=4.0).amplitudes
    want = expm_evolve(reg, seq, DEV, dt=4.0)
    assert np.linalg.norm(got - want) < 1e-8


def test_oracle_simple_family_two_atoms():
    reg = line_register(0.0, 9.0)
    seq = simple_sequence(SimpleParams(omega=3.0, delta=2.5, time=400.0),
                          DEV.omega_max, DEV.delta_abs_max)
    got = evolve(reg, seq, DEV, dt=4.0).amplitudes
    want = expm_evolve(reg, seq, DEV, dt=4.0)
    assert np.linalg.norm(got - want) < 1e-8


def test_oracle_split_substeps():
    # atoms 4 um apart: U ~ 1300 rad/us, so ||H|| * tau ~ 10 at dt 8 and
    # every step runs as several THETA_MAX-sized sub-steps
    reg = line_register(0.0, 4.0, 8.0)
    diag = interaction_diagonal(reg, DEV)
    assert 0.5 * np.ptp(diag) * 8e-3 > THETA_MAX
    seq = simple_sequence(SimpleParams(omega=3.0, delta=2.5, time=400.0),
                          DEV.omega_max, DEV.delta_abs_max)
    got = evolve(reg, seq, DEV, dt=8.0).amplitudes
    want = expm_evolve(reg, seq, DEV, dt=8.0)
    assert np.linalg.norm(got - want) < 1e-8


def test_oracle_above_dense_threshold():
    # one atom past DENSE_MAX_ATOMS, so the step operator is sparse
    n = DENSE_MAX_ATOMS + 1
    reg = line_register(*(9.0 * k for k in range(n)),
                        weights=[1.0 + 0.25 * k for k in range(n)])
    seq = simple_sequence(SimpleParams(omega=3.0, delta=2.5, time=200.0),
                          DEV.omega_max, DEV.delta_abs_max)
    got = evolve(reg, seq, DEV, dt=8.0).amplitudes
    want = expm_evolve(reg, seq, DEV, dt=8.0)
    assert np.linalg.norm(got - want) < 1e-8


def test_oracle_energy_far_from_midpoint():
    # atoms 4 um apart: the spectrum spans ~ 4000 rad/us, while the state
    # stays near the ground edge, so the series centre sits far from the
    # spectrum's midpoint; at dt 16 ||H|| * tau ~ 64 and every step must
    # split (a single series step does not converge)
    reg = line_register(0.0, 4.0, 8.0, 12.0)
    diag = interaction_diagonal(reg, DEV)
    assert 0.5 * np.ptp(diag) * 16e-3 > 5 * THETA_MAX
    seq = complex_sequence(
        ComplexParams(t_rise=200.0, t_fall=300.0, omega=6.0,
                      delta0=3.0, deltaf=7.0),
        DEV.omega_max, DEV.delta_abs_max)
    got = evolve(reg, seq, DEV, dt=16.0).amplitudes
    want = expm_evolve(reg, seq, DEV, dt=16.0)
    assert np.linalg.norm(got - want) < 1e-8


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
    seq = simple_sequence(SimpleParams(omega=3.0, delta=2.5, time=200.0),
                          DEV.omega_max, DEV.delta_abs_max)
    for n in (3, DENSE_MAX_ATOMS + 1):
        reg = line_register(*(9.0 * k for k in range(n)))
        a = evolve(reg, seq, DEV, dt=4.0).amplitudes
        b = evolve(reg, seq, DEV, dt=4.0).amplitudes
        assert a.tobytes() == b.tobytes()


def test_step_operator_diagonal_view():
    # writing the diagonal view must set exactly the matrix's diagonal, on
    # both the dense and the CSR form, over the fixed bit-flip pattern
    def dense(op):
        return op if isinstance(op, np.ndarray) else op.toarray()

    for n in (DENSE_MAX_ATOMS, DENSE_MAX_ATOMS + 1):
        op, op_diag = _step_operator(n)
        flips = 2.0 * _half_flip_operator(n).toarray()
        assert np.array_equal(dense(op), flips)
        values = np.arange(1 << n) - 0.5
        op_diag[:] = values
        assert np.array_equal(dense(op), flips + np.diag(values))


def test_norm_preserved():
    reg = line_register(0.0, 9.0, 18.0)
    seq = simple_sequence(SimpleParams(omega=4.0, delta=3.0, time=1000.0),
                          DEV.omega_max, DEV.delta_abs_max)
    state = evolve(reg, seq, DEV, dt=4.0)
    assert state.norm() == pytest.approx(1.0, abs=1e-6)


def test_dt_refinement_converges():
    reg = line_register(0.0, 9.0, 18.0)
    seq = simple_sequence(SimpleParams(omega=4.0, delta=3.0, time=1000.0),
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
    phased = PulseSequence(segments=(Segment(
        omega=Ramp(1.0, 1.0, 100.0), delta=Ramp(0.0, 0.0, 100.0), phase=0.3),))
    with pytest.raises(InputError):
        evolve(reg, phased, DEV)


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
    seq = simple_sequence(SimpleParams(omega=3.0, delta=2.0, time=600.0),
                          DEV.omega_max, DEV.delta_abs_max)
    probs = exact_distribution(evolve(reg, seq, DEV, dt=2.0))
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)
    assert all(len(b) == 2 and set(b) <= {"0", "1"} for b in probs)
