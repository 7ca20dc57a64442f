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
    Parabola,
    PulseSequence,
    Ramp,
    Segment,
    complex_sequence,
    simple_sequence,
)

OMEGA_MAX = 15.7
DELTA_MAX = 8.0


def total_duration(seq: PulseSequence) -> float:
    return float(sum(seg.duration for seg in seq.segments))


def segment_at(seq: PulseSequence, t: float):
    """Segment containing global time t, with t mapped to segment-local."""
    left = 0.0
    for seg in seq.segments:
        if t <= left + seg.duration or seg is seq.segments[-1]:
            return seg, t - left
        left += seg.duration
    raise InputError(f"time {t} outside sequence")


def omega_at(seq: PulseSequence, t: float) -> float:
    seg, tl = segment_at(seq, t)
    return float(seg.omega.sample(tl))


def delta_at(seq: PulseSequence, t: float) -> float:
    seg, tl = segment_at(seq, t)
    return float(seg.delta.sample(tl))


def dump_sequence(seq: PulseSequence, path, resolution_ns: float = 4.0,
                  meta: dict | None = None):
    """Write sampled (t, omega, delta) triples at fixed resolution."""
    total = total_duration(seq)
    ts = np.arange(0.0, total + resolution_ns / 2, resolution_ns)
    ts[-1] = min(ts[-1], total)
    samples = [[float(t), omega_at(seq, t), delta_at(seq, t)] for t in ts]
    doc = {"duration_ns": total, "resolution_ns": resolution_ns, "samples": samples}
    if meta is not None:
        doc["meta"] = meta
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def assert_inside_envelope(seq):
    """The sampled waveforms keep the Rabi frequency in [0, OMEGA_MAX] and
    |detuning| within DELTA_MAX, and the schedule fits 5 us of coherence."""
    assert total_duration(seq) <= 5000.0
    for seg in seq.segments:
        t = np.linspace(0.0, seg.duration, 1001)
        omega, delta = seg.omega.sample(t), seg.delta.sample(t)
        assert omega.min() >= -1e-12 and omega.max() <= OMEGA_MAX + 1e-9
        assert np.abs(delta).max() <= DELTA_MAX + 1e-9


def test_ramp_samples_and_clipping():
    r = Ramp(0.0, 10.0, 100.0)
    assert r.sample(0.0) == pytest.approx(0.0)
    assert r.sample(50.0) == pytest.approx(5.0)
    assert r.sample(100.0) == pytest.approx(10.0)
    assert r.sample(150.0) == pytest.approx(10.0)
    assert r.sample(-5.0) == pytest.approx(0.0)
    dense = r.sample(np.linspace(-10.0, 110.0, 241))
    assert (dense.min(), dense.max()) == (0.0, 10.0)
    dense = Ramp(7.0, -2.0, 50.0).sample(np.linspace(-10.0, 60.0, 141))
    assert (dense.min(), dense.max()) == (-2.0, 7.0)


def test_waveform_minimum_duration():
    with pytest.raises(InputError):
        Ramp(0.0, 1.0, MIN_WAVEFORM_NS / 2)
    with pytest.raises(InputError):
        Parabola(1.0, MIN_WAVEFORM_NS / 2)


def test_parabola_hits_its_peak_without_overshoot():
    w = Parabola(5.0, 200.0)
    assert (w.sample(0.0), w.sample(100.0), w.sample(200.0)) == (0.0, 5.0, 0.0)
    assert (w.sample(-10.0), w.sample(210.0)) == (0.0, 0.0)
    dense = w.sample(np.linspace(-10.0, 210.0, 441))
    assert (dense.min(), dense.max()) == (0.0, 5.0)


@settings(max_examples=300, deadline=None)
@given(
    omega=st.floats(1e-3, OMEGA_MAX),
    delta=st.floats(1e-3, DELTA_MAX),
    time=st.floats(2 * MIN_WAVEFORM_NS, 5000.0),
    times=st.lists(st.floats(-1000.0, 6000.0), max_size=40),
)
def test_simple_family_is_the_pchip_through_its_three_points(omega, delta, time, times):
    # scipy is the oracle only: the simple family's bump and sweep are closed
    # forms of the shape-preserving cubic through (0, omega, 0), (-delta, 0, delta)
    (seg,) = simple_sequence(dict(omega=omega, delta=delta, time=time),
                             OMEGA_MAX, DELTA_MAX).segments
    knots = np.array([0.0, 0.5 * time, time])
    t = np.concatenate([times, knots, np.linspace(0.0, time, 21), [-1.0, time + 1.0]])
    clipped = np.clip(t, 0.0, time)
    for wave, points in ((seg.omega, (0.0, omega, 0.0)), (seg.delta, (-delta, 0.0, delta))):
        want = PchipInterpolator(knots, points)(clipped)
        assert np.abs(wave.sample(t) - want).max() <= 1e-15 * max(map(abs, points))
        # scalar samples, as `omega_at` takes them, agree too
        assert [wave.sample(x) for x in t[-4:]] == list(wave.sample(t[-4:]))


def test_segment_duration_mismatch():
    with pytest.raises(InputError):
        Segment(omega=Ramp(0, 1, 100.0), delta=Ramp(0, 1, 99.0))
    seg = Segment(omega=Ramp(0, 1, 100.0), delta=Ramp(-1, 1, 100.0))
    assert seg.duration == pytest.approx(100.0)


def test_sequence_lookup_across_segments():
    a = Segment(omega=Ramp(0.0, 4.0, 100.0), delta=Ramp(-2.0, -2.0, 100.0))
    b = Segment(omega=Ramp(4.0, 0.0, 300.0), delta=Ramp(-2.0, 6.0, 300.0))
    seq = PulseSequence(segments=(a, b))
    assert total_duration(seq) == pytest.approx(400.0)
    assert omega_at(seq, 0.0) == pytest.approx(0.0)
    assert omega_at(seq, 100.0) == pytest.approx(4.0)
    assert omega_at(seq, 250.0) == pytest.approx(2.0)
    assert omega_at(seq, 400.0) == pytest.approx(0.0)
    # past the end holds the final value instead of failing
    assert omega_at(seq, 450.0) == pytest.approx(0.0)
    assert delta_at(seq, 50.0) == pytest.approx(-2.0)
    assert delta_at(seq, 400.0) == pytest.approx(6.0)
    with pytest.raises(InputError):
        PulseSequence(segments=())


def test_simple_params_validation():
    simple_sequence(dict(omega=4.0, delta=3.0, time=1000.0), OMEGA_MAX, DELTA_MAX)
    bad = [
        dict(omega=0.0, delta=3.0, time=1000.0),
        dict(omega=16.0, delta=3.0, time=1000.0),
        dict(omega=4.0, delta=0.0, time=1000.0),
        dict(omega=4.0, delta=9.0, time=1000.0),
        dict(omega=4.0, delta=3.0, time=20.0),
        dict(omega=4.0, delta=3.0, time=6000.0),
    ]
    for p in bad:
        with pytest.raises(InputError):
            simple_sequence(p, OMEGA_MAX, DELTA_MAX)


def test_simple_sequence_shape():
    seq = simple_sequence(dict(omega=4.0, delta=3.0, time=1000.0), OMEGA_MAX, DELTA_MAX)
    assert len(seq.segments) == 1
    assert total_duration(seq) == pytest.approx(1000.0)
    assert omega_at(seq, 0.0) == pytest.approx(0.0)
    assert omega_at(seq, 500.0) == pytest.approx(4.0)
    assert omega_at(seq, 1000.0) == pytest.approx(0.0)
    assert delta_at(seq, 0.0) == pytest.approx(-3.0)
    assert delta_at(seq, 500.0) == pytest.approx(0.0)
    assert delta_at(seq, 1000.0) == pytest.approx(3.0)
    ds = [delta_at(seq, t) for t in np.linspace(0.0, 1000.0, 200)]
    assert np.all(np.diff(ds) >= -1e-9)
    assert_inside_envelope(seq)


def test_complex_params_validation():
    complex_sequence(dict(t_rise=200.0, t_fall=800.0, omega=5.0, delta0=2.0, deltaf=6.0),
                     OMEGA_MAX, DELTA_MAX)
    bad = [
        dict(t_rise=10.0, t_fall=800.0, omega=5.0, delta0=2.0, deltaf=6.0),
        dict(t_rise=3000.0, t_fall=3000.0, omega=5.0, delta0=2.0, deltaf=6.0),
        dict(t_rise=200.0, t_fall=800.0, omega=0.0, delta0=2.0, deltaf=6.0),
        dict(t_rise=200.0, t_fall=800.0, omega=5.0, delta0=-1.0, deltaf=6.0),
        dict(t_rise=200.0, t_fall=800.0, omega=5.0, delta0=2.0, deltaf=9.0),
    ]
    for p in bad:
        with pytest.raises(InputError):
            complex_sequence(p, OMEGA_MAX, DELTA_MAX)


def test_complex_sequence_shape():
    seq = complex_sequence(
        dict(t_rise=200.0, t_fall=800.0, omega=5.0, delta0=2.0, deltaf=6.0),
        OMEGA_MAX, DELTA_MAX)
    assert len(seq.segments) == 2
    assert total_duration(seq) == pytest.approx(1000.0)
    assert omega_at(seq, 0.0) == pytest.approx(0.0)
    assert omega_at(seq, 100.0) == pytest.approx(2.5)
    assert omega_at(seq, 200.0) == pytest.approx(5.0)
    assert omega_at(seq, 1000.0) == pytest.approx(0.0)
    # detuning holds at -delta0 through the rise, then sweeps to +deltaf
    assert delta_at(seq, 0.0) == pytest.approx(-2.0)
    assert delta_at(seq, 150.0) == pytest.approx(-2.0)
    assert delta_at(seq, 200.0) == pytest.approx(-2.0)
    assert delta_at(seq, 600.0) == pytest.approx(2.0)
    assert delta_at(seq, 1000.0) == pytest.approx(6.0)
    assert_inside_envelope(seq)


def test_dump_sequence(tmp_path):
    seq = simple_sequence(dict(omega=4.0, delta=3.0, time=100.0), OMEGA_MAX, DELTA_MAX)
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
        assert om == pytest.approx(omega_at(seq, t))
        assert dl == pytest.approx(delta_at(seq, t))
