"""Waveforms, schedule assembly, and hardware envelope validation."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from rydock.errors import InputError
from rydock.pulses import (
    MIN_WAVEFORM_NS,
    ComplexParams,
    Interpolated,
    PulseSequence,
    Ramp,
    Segment,
    SimpleParams,
    complex_sequence,
    dump_sequence,
    simple_sequence,
)

OMEGA_MAX = 15.7
DELTA_MAX = 8.0


def test_ramp_samples_and_clipping():
    r = Ramp(0.0, 10.0, 100.0)
    assert r.sample(0.0) == pytest.approx(0.0)
    assert r.sample(50.0) == pytest.approx(5.0)
    assert r.sample(100.0) == pytest.approx(10.0)
    assert r.sample(150.0) == pytest.approx(10.0)
    assert r.sample(-5.0) == pytest.approx(0.0)
    assert r.bounds() == (0.0, 10.0)
    assert Ramp(7.0, -2.0, 50.0).bounds() == (-2.0, 7.0)


def test_waveform_minimum_duration():
    with pytest.raises(InputError):
        Ramp(0.0, 1.0, MIN_WAVEFORM_NS / 2)
    with pytest.raises(InputError):
        Interpolated((0.0, 1.0), 1.0)
    with pytest.raises(InputError):
        Interpolated((1.0,), 100.0)


def test_interpolated_hits_points_without_overshoot():
    w = Interpolated((0.0, 5.0, 0.0), 200.0)
    assert w.sample(0.0) == pytest.approx(0.0)
    assert w.sample(100.0) == pytest.approx(5.0)
    assert w.sample(200.0) == pytest.approx(0.0)
    dense = w.sample(np.linspace(-10.0, 210.0, 500))
    assert dense.min() >= -1e-9
    assert dense.max() <= 5.0 + 1e-9
    assert w.bounds() == (0.0, 5.0)


def test_interpolated_monotone_between_points():
    w = Interpolated((-3.0, 0.0, 3.0), 120.0)
    dense = w.sample(np.linspace(0.0, 120.0, 400))
    assert np.all(np.diff(dense) >= -1e-9)


# Small integers give repeated points, flat sides and sign changes; the
# wide floats cover everything else a waveform can carry.
_knot_values = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300, deadline=None)
@given(
    points=st.lists(_knot_values, min_size=2, max_size=8),
    duration=st.floats(MIN_WAVEFORM_NS, 5000.0),
    times=st.lists(st.floats(-1000.0, 6000.0), max_size=40),
)
def test_interpolated_matches_scipy_pchip_exactly(points, duration, times):
    # scipy is the oracle only: the waveform itself is a numpy port
    w = Interpolated(tuple(points), duration)
    knots = np.linspace(0.0, duration, len(points))
    t = np.concatenate([times, knots, [0.0, duration, -1.0, duration + 1.0]])
    with np.errstate(over="ignore"):  # scipy's own 1/slope on subnormal secants
        want = PchipInterpolator(knots, np.asarray(points))(np.clip(t, 0.0, duration))
    assert np.array_equal(w.sample(t), want)
    # scalar samples, as `PulseSequence.omega_at` takes them, agree too
    assert all(w.sample(x) == y for x, y in zip(t[-4:], want[-4:]))


def test_segment_duration_mismatch():
    with pytest.raises(InputError):
        Segment(omega=Ramp(0, 1, 100.0), delta=Ramp(0, 1, 99.0))
    seg = Segment(omega=Ramp(0, 1, 100.0), delta=Ramp(-1, 1, 100.0))
    assert seg.duration == pytest.approx(100.0)
    assert seg.phase == 0.0


def test_sequence_lookup_across_segments():
    a = Segment(omega=Ramp(0.0, 4.0, 100.0), delta=Ramp(-2.0, -2.0, 100.0))
    b = Segment(omega=Ramp(4.0, 0.0, 300.0), delta=Ramp(-2.0, 6.0, 300.0))
    seq = PulseSequence(segments=(a, b))
    assert seq.total_duration == pytest.approx(400.0)
    assert seq.omega_at(0.0) == pytest.approx(0.0)
    assert seq.omega_at(100.0) == pytest.approx(4.0)
    assert seq.omega_at(250.0) == pytest.approx(2.0)
    assert seq.omega_at(400.0) == pytest.approx(0.0)
    # past the end holds the final value instead of failing
    assert seq.omega_at(450.0) == pytest.approx(0.0)
    assert seq.delta_at(50.0) == pytest.approx(-2.0)
    assert seq.delta_at(400.0) == pytest.approx(6.0)
    with pytest.raises(InputError):
        PulseSequence(segments=())


def test_envelope_validation():
    good = Segment(omega=Ramp(0.0, 10.0, 100.0), delta=Ramp(-4.0, 4.0, 100.0))
    PulseSequence(segments=(good,)).validate(OMEGA_MAX, DELTA_MAX)
    hot = Segment(omega=Ramp(0.0, 20.0, 100.0), delta=Ramp(-4.0, 4.0, 100.0))
    with pytest.raises(InputError, match="Rabi"):
        PulseSequence(segments=(hot,)).validate(OMEGA_MAX, DELTA_MAX)
    wide = Segment(omega=Ramp(0.0, 10.0, 100.0), delta=Ramp(-9.0, 4.0, 100.0))
    with pytest.raises(InputError, match="detuning"):
        PulseSequence(segments=(wide,)).validate(OMEGA_MAX, DELTA_MAX)
    long = Segment(omega=Ramp(0.0, 1.0, 3000.0), delta=Ramp(0.0, 0.0, 3000.0))
    with pytest.raises(InputError, match="coherence"):
        PulseSequence(segments=(long, long)).validate(
            OMEGA_MAX, DELTA_MAX, coherence_ns=5000.0)


def test_simple_params_validation():
    SimpleParams(omega=4.0, delta=3.0, time=1000.0).validate(OMEGA_MAX, DELTA_MAX)
    bad = [
        SimpleParams(omega=0.0, delta=3.0, time=1000.0),
        SimpleParams(omega=16.0, delta=3.0, time=1000.0),
        SimpleParams(omega=4.0, delta=0.0, time=1000.0),
        SimpleParams(omega=4.0, delta=9.0, time=1000.0),
        SimpleParams(omega=4.0, delta=3.0, time=20.0),
        SimpleParams(omega=4.0, delta=3.0, time=6000.0),
    ]
    for p in bad:
        with pytest.raises(InputError):
            p.validate(OMEGA_MAX, DELTA_MAX)


def test_simple_sequence_shape():
    seq = simple_sequence(SimpleParams(omega=4.0, delta=3.0, time=1000.0),
                          OMEGA_MAX, DELTA_MAX)
    assert len(seq.segments) == 1
    assert seq.total_duration == pytest.approx(1000.0)
    assert seq.omega_at(0.0) == pytest.approx(0.0)
    assert seq.omega_at(500.0) == pytest.approx(4.0)
    assert seq.omega_at(1000.0) == pytest.approx(0.0)
    assert seq.delta_at(0.0) == pytest.approx(-3.0)
    assert seq.delta_at(500.0) == pytest.approx(0.0)
    assert seq.delta_at(1000.0) == pytest.approx(3.0)
    ds = [seq.delta_at(t) for t in np.linspace(0.0, 1000.0, 200)]
    assert np.all(np.diff(ds) >= -1e-9)
    seq.validate(OMEGA_MAX, DELTA_MAX)


def test_complex_params_validation():
    ComplexParams(t_rise=200.0, t_fall=800.0, omega=5.0,
                  delta0=2.0, deltaf=6.0).validate(OMEGA_MAX, DELTA_MAX)
    bad = [
        ComplexParams(t_rise=10.0, t_fall=800.0, omega=5.0, delta0=2.0, deltaf=6.0),
        ComplexParams(t_rise=3000.0, t_fall=3000.0, omega=5.0, delta0=2.0, deltaf=6.0),
        ComplexParams(t_rise=200.0, t_fall=800.0, omega=0.0, delta0=2.0, deltaf=6.0),
        ComplexParams(t_rise=200.0, t_fall=800.0, omega=5.0, delta0=-1.0, deltaf=6.0),
        ComplexParams(t_rise=200.0, t_fall=800.0, omega=5.0, delta0=2.0, deltaf=9.0),
    ]
    for p in bad:
        with pytest.raises(InputError):
            p.validate(OMEGA_MAX, DELTA_MAX)


def test_complex_sequence_shape():
    seq = complex_sequence(
        ComplexParams(t_rise=200.0, t_fall=800.0, omega=5.0,
                      delta0=2.0, deltaf=6.0),
        OMEGA_MAX, DELTA_MAX)
    assert len(seq.segments) == 2
    assert seq.total_duration == pytest.approx(1000.0)
    assert seq.omega_at(0.0) == pytest.approx(0.0)
    assert seq.omega_at(100.0) == pytest.approx(2.5)
    assert seq.omega_at(200.0) == pytest.approx(5.0)
    assert seq.omega_at(1000.0) == pytest.approx(0.0)
    # detuning holds at -delta0 through the rise, then sweeps to +deltaf
    assert seq.delta_at(0.0) == pytest.approx(-2.0)
    assert seq.delta_at(150.0) == pytest.approx(-2.0)
    assert seq.delta_at(200.0) == pytest.approx(-2.0)
    assert seq.delta_at(600.0) == pytest.approx(2.0)
    assert seq.delta_at(1000.0) == pytest.approx(6.0)
    seq.validate(OMEGA_MAX, DELTA_MAX)


def test_dump_sequence(tmp_path):
    seq = simple_sequence(SimpleParams(omega=4.0, delta=3.0, time=100.0),
                          OMEGA_MAX, DELTA_MAX)
    path = tmp_path / "seq.json"
    dump_sequence(seq, path, resolution_ns=4.0, meta={"tag": "demo"})
    doc = json.loads(path.read_text())
    assert doc["duration_ns"] == pytest.approx(100.0)
    assert doc["resolution_ns"] == 4.0
    assert doc["meta"] == {"tag": "demo"}
    ts = [s[0] for s in doc["samples"]]
    assert ts[0] == 0.0
    assert ts[-1] == pytest.approx(100.0)
    assert np.all(np.diff(ts) > 0)
    for t, om, dl in doc["samples"]:
        assert om == pytest.approx(seq.omega_at(t))
        assert dl == pytest.approx(seq.delta_at(t))
