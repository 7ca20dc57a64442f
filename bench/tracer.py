"""Spans, counters and the per-evaluation clock, installed from outside rydock.

rydock's modules import names directly (``from .simulator import evolve``),
so a wrapper must replace the name in the module that *calls* it, not in the
module that defines it. ``SITES`` lists those call-site bindings; nothing in
``src/`` is edited. Spans are kept in memory, each with an id, its parent
span and the id of the repetition (trace) it belongs to, and are written out
once the benchmark ends.
"""

from __future__ import annotations

import importlib
import math
import time

import numpy as np

# (module holding the binding, attribute, span name). A span's layer is its
# name without the last dotted component.
SITES = (
    ("rydock.cli", "cmd_dock", "cli.dock"),
    ("rydock.cli", "cmd_embed", "cli.embed"),
    ("rydock.cli", "cmd_vqaa", "cli.vqaa"),
    ("rydock.cli", "build_binding_graph", "docking.build_binding_graph"),
    ("rydock.cli", "complement", "graphs.complement"),
    ("rydock.cli", "layout", "register.layout"),
    ("rydock.cli", "vqaa", "optimize.vqaa"),
    ("rydock.cli", "success_probability", "optimize.success_probability"),
    ("rydock.optimize", "evolve", "simulator.evolve"),
    ("rydock.optimize", "measure", "simulator.measure"),
    ("rydock.optimize", "tpe_suggest", "optimize.tpe_suggest"),
    ("rydock.optimize", "score", "optimize.score"),
    ("rydock.optimize", "success_probability", "optimize.success_probability"),
    ("rydock.optimize", "qaa_sweep", "optimize.qaa_sweep"),
    ("rydock.optimize", "strip_ancillas", "register.strip_ancillas"),
    ("rydock.optimize", "brute_force_mwis", "graphs.brute_force_mwis"),
    ("rydock.optimize", "simple_sequence", "pulses.sequence"),
    ("rydock.optimize", "complex_sequence", "pulses.sequence"),
    ("rydock.mlqaa.dataset", "vqaa", "optimize.vqaa"),
    ("rydock.mlqaa.dataset", "embedding_from_positions", "register.embedding_from_positions"),
    ("rydock.mlqaa.dataset", "label_dataset", "mlqaa.dataset.label_dataset"),
    ("rydock.mlqaa.gcn", "train", "mlqaa.gcn.train"),
    ("rydock.mlqaa.gcn", "predict_params", "mlqaa.gcn.predict_params"),
)

LAYERS = ("cli", "docking", "graphs", "register", "pulses", "simulator",
          "optimize", "mlqaa.dataset", "mlqaa.gcn")

# Every per-layer metric with its unit.
PER_LAYER_UNITS = {
    "simulator.evolve.calls": "count",
    "simulator.evolve.s": "s",
    "simulator.evolve.share": "fraction",
    "simulator.evolve.ms_p50": "ms",
    "simulator.evolve.steps": "count",
    "simulator.evolve.amp_steps": "count",
    "simulator.evolve.ns_per_amp_step": "ns",
    "simulator.state_bytes": "bytes",
    "simulator.measure.s": "s",
    "simulator.tv_ref": "1",
    "optimize.vqaa.s": "s",
    "optimize.tpe_suggest.calls": "count",
    "optimize.tpe_suggest.s": "s",
    "optimize.tpe_suggest.ms_p50": "ms",
    "optimize.score.s": "s",
    "optimize.qaa_sweep.s": "s",
    "optimize.success_probability.s": "s",
    "optimize.nullified_frac": "fraction",
    "optimize.second_pass": "count",
    "register.layout.s": "s",
    "register.embedding_from_positions.s": "s",
    "register.strip_ancillas.s": "s",
    "register.atoms_mean": "atoms",
    "register.ancillas": "count",
    "graphs.complement.s": "s",
    "graphs.brute_force_mwis.calls": "count",
    "graphs.brute_force_mwis.s": "s",
    "graphs.brute_force_mwis.calls_per_graph": "count",
    "pulses.sequence.calls": "count",
    "pulses.sequence.s": "s",
    "docking.build_binding_graph.s": "s",
    "docking.contacts": "count",
    "cli.dock.s": "s",
    "cli.embed.s": "s",
    "cli.vqaa.s": "s",
    "mlqaa.dataset.label_dataset.s": "s",
    "mlqaa.dataset.dropped": "count",
    "mlqaa.gcn.train.s": "s",
    "mlqaa.gcn.epochs_per_s": "1/s",
    "mlqaa.gcn.predict_params.s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.spans": "count",
}

# Counts that repeat exactly for a given seed, because a traced run repeats
# one fixed unit of work. Steps, amp_steps and state_bytes are computed from
# the schedules and register sizes, not measured.
EXACT_COUNTS = ("simulator.evolve.calls", "simulator.evolve.steps",
                "simulator.evolve.amp_steps", "simulator.state_bytes",
                "optimize.tpe_suggest.calls", "graphs.brute_force_mwis.calls",
                "graphs.brute_force_mwis.calls_per_graph", "pulses.sequence.calls")


def schedule_steps(seq, dt: float) -> int:
    """Integrator steps ``evolve`` takes for a schedule, from the schedule alone."""
    return sum(max(1, int(math.ceil(seg.duration / dt - 1e-9))) for seg in seq.segments)


class Tracer:
    """Spans and counters of one repetition of a unit of work."""

    def __init__(self, trace_id: int):
        self.trace_id = trace_id
        self.spans = []  # [id, parent, name, start, end]
        self.stack = []
        self.evolve_steps = 0
        self.amp_steps = 0
        self.max_atoms = 0
        self.graphs = set()
        self.scores = 0
        self.nullified = 0
        self.second_pass = 0
        self.registers = []  # (atoms, ancillas) of every register built
        self.contacts = 0
        self.dropped = 0
        self.epochs = 0

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            span = [len(self.spans), self.stack[-1] if self.stack else -1, name,
                    time.perf_counter(), 0.0]
            self.spans.append(span)
            self.stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self.stack.pop()
            self._count(name, args, kwargs, result)
            return result
        return traced

    def _count(self, name, args, kwargs, result):
        if name == "simulator.evolve":
            reg, seq = args[0], args[1]
            dt = kwargs.get("dt", args[3] if len(args) > 3 else 4.0)
            steps = schedule_steps(seq, dt)
            self.evolve_steps += steps
            self.amp_steps += (1 << reg.n) * steps
            self.max_atoms = max(self.max_atoms, reg.n)
        elif name == "graphs.brute_force_mwis":
            g = args[0]
            self.graphs.add((g.vertex_ids, g.edges, g.weights))
        elif name == "optimize.score":
            self.scores += 1
            self.nullified += bool(result.nullified)
        elif name == "optimize.vqaa":
            self.second_pass += bool(result.second_pass)
        elif name in ("register.layout", "register.embedding_from_positions"):
            self.registers.append((result.register.n, len(result.ancilla_ids())))
        elif name == "docking.build_binding_graph":
            self.contacts += result.n
        elif name == "mlqaa.dataset.label_dataset":
            self.dropped += len(args[0]) - len(result)
        elif name == "mlqaa.gcn.train":
            self.epochs += len(result.history)

    def dump(self):
        return [{"trace": self.trace_id, "id": s[0], "parent": s[1], "name": s[2],
                 "start": s[3], "end": s[4]} for s in self.spans]


class EvalClock:
    """Per-evaluation latency: from the pulse sequence being built to the score.

    Both evaluation paths in ``rydock.optimize`` (``_evaluate`` and the
    ``qaa_sweep`` cell loop) start with ``sequence_for`` and end with
    ``score`` or ``success_probability``. Costs two clock reads per
    evaluation, so it stays installed in untraced runs. After each
    evaluation it ticks the calibrator `cal`, outside the evaluation's time,
    and divides that time by the mean speed factor of the ticks on either side.
    """

    def __init__(self, cal):
        self.cal = cal
        self.latencies = []  # seconds at nominal host speed
        self.raw = []  # seconds as the clock read them
        self._start = None
        self._before = 1.0

    def _begin(self, fn):
        def begin(*args, **kwargs):
            self._before = self.cal.last
            self._start = time.perf_counter()
            return fn(*args, **kwargs)
        return begin

    def _end(self, fn):
        def end(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self._start is not None:
                took = time.perf_counter() - self._start
                self._start = None
                self.raw.append(took)
                after = self.cal.tick()
                self.latencies.append(took / (0.5 * (self._before + after)))
            return result
        return end

    def install(self):
        mod = importlib.import_module("rydock.optimize")
        saved = [(mod, k, getattr(mod, k)) for k in
                 ("sequence_for", "score", "success_probability")]
        mod.sequence_for = self._begin(mod.sequence_for)
        mod.score = self._end(mod.score)
        mod.success_probability = self._end(mod.success_probability)
        return saved


def install(tracer: Tracer):
    """Wrap every call site for `tracer`; returns what `restore` needs."""
    saved = []
    for modname, attr, name in SITES:
        mod = importlib.import_module(modname)
        fn = getattr(mod, attr)
        saved.append((mod, attr, fn))
        setattr(mod, attr, tracer.wrap(name, fn))
    return saved


def restore(saved):
    for mod, attr, fn in reversed(saved):
        setattr(mod, attr, fn)


def _busy(spans, name):
    return [s[4] - s[3] for s in spans if s[2] == name]


def layer_metrics(setup: Tracer, rep: Tracer, wall_s: float) -> dict:
    """Per-layer metrics of one set-up plus one traced unit of work."""
    spans = setup.spans + rep.spans
    out = {}

    def total(name):
        return float(sum(_busy(spans, name)))

    def p50_ms(name):
        d = _busy(spans, name)
        return float(np.median(d) * 1e3) if d else 0.0

    evolve_s = total("simulator.evolve")
    evolve_calls = len(_busy(spans, "simulator.evolve"))
    out["simulator.evolve.calls"] = evolve_calls
    out["simulator.evolve.s"] = evolve_s
    out["simulator.evolve.share"] = evolve_s / wall_s if wall_s > 0 else 0.0
    out["simulator.evolve.ms_p50"] = p50_ms("simulator.evolve")
    out["simulator.evolve.steps"] = rep.evolve_steps
    out["simulator.evolve.amp_steps"] = rep.amp_steps
    out["simulator.evolve.ns_per_amp_step"] = (
        evolve_s * 1e9 / rep.amp_steps if rep.amp_steps else 0.0)
    out["simulator.state_bytes"] = 16 * (1 << rep.max_atoms) if rep.max_atoms else 0
    out["simulator.measure.s"] = total("simulator.measure")
    out["optimize.vqaa.s"] = total("optimize.vqaa")
    out["optimize.tpe_suggest.calls"] = len(_busy(spans, "optimize.tpe_suggest"))
    out["optimize.tpe_suggest.s"] = total("optimize.tpe_suggest")
    out["optimize.tpe_suggest.ms_p50"] = p50_ms("optimize.tpe_suggest")
    out["optimize.score.s"] = total("optimize.score")
    out["optimize.qaa_sweep.s"] = total("optimize.qaa_sweep")
    out["optimize.success_probability.s"] = total("optimize.success_probability")
    out["optimize.nullified_frac"] = rep.nullified / rep.scores if rep.scores else 0.0
    out["optimize.second_pass"] = rep.second_pass
    registers = setup.registers + rep.registers
    out["register.layout.s"] = total("register.layout")
    out["register.embedding_from_positions.s"] = total("register.embedding_from_positions")
    out["register.strip_ancillas.s"] = total("register.strip_ancillas")
    out["register.atoms_mean"] = (
        float(np.mean([a for a, _ in registers])) if registers else 0.0)
    out["register.ancillas"] = sum(b for _, b in registers)
    mwis_calls = len(_busy(spans, "graphs.brute_force_mwis"))
    graphs = setup.graphs | rep.graphs
    out["graphs.complement.s"] = total("graphs.complement")
    out["graphs.brute_force_mwis.calls"] = mwis_calls
    out["graphs.brute_force_mwis.s"] = total("graphs.brute_force_mwis")
    out["graphs.brute_force_mwis.calls_per_graph"] = (
        mwis_calls / len(graphs) if graphs else 0.0)
    out["pulses.sequence.calls"] = len(_busy(spans, "pulses.sequence"))
    out["pulses.sequence.s"] = total("pulses.sequence")
    out["docking.build_binding_graph.s"] = total("docking.build_binding_graph")
    out["docking.contacts"] = setup.contacts + rep.contacts
    out["cli.dock.s"] = total("cli.dock")
    out["cli.embed.s"] = total("cli.embed")
    out["cli.vqaa.s"] = total("cli.vqaa")
    out["mlqaa.dataset.label_dataset.s"] = total("mlqaa.dataset.label_dataset")
    out["mlqaa.dataset.dropped"] = setup.dropped + rep.dropped
    train_s = total("mlqaa.gcn.train")
    out["mlqaa.gcn.train.s"] = train_s
    out["mlqaa.gcn.epochs_per_s"] = rep.epochs / train_s if train_s > 0 else 0.0
    out["mlqaa.gcn.predict_params.s"] = total("mlqaa.gcn.predict_params")
    out.update(self_times((setup, rep)))
    out["trace.spans"] = len(spans)
    return out


def self_times(tracers) -> dict:
    """Busy time of each layer minus the time its child spans cover."""
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for t in tracers:
        child = [0.0] * len(t.spans)
        for s in t.spans:
            if s[1] >= 0:
                child[s[1]] += s[4] - s[3]
        for s, c in zip(t.spans, child):
            out[f"{s[2].rsplit('.', 1)[0]}.self_s"] += (s[4] - s[3]) - c
    return out
