"""Atom registers: geometry, blockade feasibility, layout, quantum links.

A register realises a graph when some Rabi frequency Omega makes the
blockade-radius disk graph over the atom positions equal the intended edge
set. Edges that cannot be drawn inside the disk band are routed through
chains of ancilla atoms ("quantum links"); an even chain preserves the
projected maximum-weight independent set, which is why link parity matters.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InfeasibilityError, InputError
from .graphs import WeightedGraph
from .histogram import Histogram
from .rng import substream

# Required gap between the band edges: omega_min * BAND_MARGIN < omega_max.
# 1.05 keeps square grids workable down to 6 um, where the cell diagonal
# pushes omega_min within a few percent of the hardware omega_max.
BAND_MARGIN = 1.05
# Ancilla detuning weight as a multiple of the lighter link endpoint. Any
# factor > 1 preserves the projected optimum (for an independent set no link
# has both endpoints selected, so the chain contribution is a constant). The
# excess over 1, times delta, is the energy margin that penalises selecting
# both endpoints; it has to beat the soft interaction tail across two chain
# gaps (about 1.8 rad/us at 6 um spacing), which a thin margin does not.
# Too large a factor erodes the blockade within the chain instead (delta *
# weight approaching the chain-gap interaction), so this sits in the middle.
ANCILLA_WEIGHT_FACTOR = 2.0
# Layout edges longer than this multiple of the spacing get routed as links.
LINK_CUT = 1.45
# Relaxation pushes plain non-edges and linked pairs out to these multiples.
NONEDGE_TARGET = 1.7
LINK_TARGET = 3.0
MAX_CHAIN_ATOMS = 6
LAYOUT_ITERS = 1000
LAYOUT_SEED_RETRIES = 5
# Explicitly placed registers: pairs within this multiple of the minimum
# pairwise distance count as intended edges.
GEOMETRIC_EDGE_FACTOR = 1.3


@dataclass(frozen=True)
class DeviceParams:
    """Hardware envelope of the emulated machine.

    c6 in rad/us * um^6, frequencies in rad/us, times in ns, lengths in um.
    """

    c6: float = 5.42e6
    omega_max: float = 15.7
    delta_abs_max: float = 8.0
    coherence_time: float = 5000.0
    min_spacing: float = 4.0

    def __post_init__(self):
        for name in ("c6", "omega_max", "delta_abs_max", "coherence_time", "min_spacing"):
            if getattr(self, name) <= 0:
                raise InputError(f"device parameter {name} must be positive")


@dataclass(frozen=True)
class Atom:
    id: str
    x: float
    y: float
    detuning_weight: float = 1.0
    is_ancilla: bool = False

    def __post_init__(self):
        if self.detuning_weight <= 0:
            raise InputError(f"atom {self.id}: detuning weight must be positive")


@dataclass(frozen=True)
class Register:
    atoms: tuple
    origin_graph: WeightedGraph | None = None

    def __post_init__(self):
        ids = [a.id for a in self.atoms]
        if len(set(ids)) != len(ids):
            raise InputError("duplicate atom ids")

    @property
    def n(self) -> int:
        return len(self.atoms)

    @property
    def ids(self) -> tuple:
        return tuple(a.id for a in self.atoms)

    def positions(self) -> np.ndarray:
        return np.array([[a.x, a.y] for a in self.atoms], dtype=float)

    def detuning_weights(self) -> np.ndarray:
        return np.array([a.detuning_weight for a in self.atoms], dtype=float)

    def pair_distances(self) -> dict:
        pos = self.positions()
        out = {}
        for i, j in itertools.combinations(range(self.n), 2):
            out[(self.atoms[i].id, self.atoms[j].id)] = float(
                np.hypot(*(pos[i] - pos[j]))
            )
        return out

    def min_distance(self) -> float:
        d = self.pair_distances()
        return min(d.values()) if d else math.inf


def blockade_radius(omega: float, dev: DeviceParams) -> float:
    """Distance at which the van der Waals shift equals the Rabi frequency."""
    if omega <= 0:
        raise InputError("omega must be positive")
    return float((dev.c6 / omega) ** (1.0 / 6.0))


def interaction(distance: float, dev: DeviceParams) -> float:
    """Pairwise van der Waals shift c6 / R^6 in rad/us."""
    if distance <= 0:
        raise InputError("distance must be positive")
    return float(dev.c6 / distance**6)


@dataclass(frozen=True)
class Embedding:
    """A register plus the disk-graph reading of it.

    `induced_edges` are the atom pairs closer than `blockade_radius`;
    `link_map` maps an original (long) edge to the ordered ancilla chain
    realising it. The origin graph lives on the register.
    """

    register: Register
    blockade_radius: float
    induced_edges: tuple
    link_map: dict = field(default_factory=dict)
    spacing: float = 0.0

    @property
    def graph(self) -> WeightedGraph:
        g = self.register.origin_graph
        if g is None:
            raise InputError("embedding has no origin graph")
        return g

    def ancilla_ids(self) -> tuple:
        return tuple(a.id for a in self.register.atoms if a.is_ancilla)

    def projected_edges(self) -> set:
        """Induced edges on the original vertices, with every ancilla chain
        contracted back to the long edge it realises."""
        ancillas = set(self.ancilla_ids())
        projected = set()
        for e in self.induced_edges:
            if not set(e) & ancillas:
                projected.add(frozenset(e))
        for (u, v) in self.link_map:
            projected.add(frozenset((u, v)))
        return projected


def _induced_pairs(reg: Register, radius: float) -> tuple:
    return tuple(pair for pair, d in reg.pair_distances().items() if d < radius)


def _band_from_partition(reg: Register, intended: set, dev: DeviceParams) -> tuple:
    dists = reg.pair_distances()
    edge_d = [d for pair, d in dists.items() if frozenset(pair) in intended]
    nonedge_d = [d for pair, d in dists.items() if frozenset(pair) not in intended]
    hi = dev.omega_max
    if edge_d:
        hi = min(hi, interaction(max(edge_d), dev))
    lo = interaction(min(nonedge_d), dev) if nonedge_d else 0.0
    return lo, hi


def omega_bounds(emb: Embedding, dev: DeviceParams) -> tuple:
    """Feasible Rabi band (omega_min, omega_max] for the embedding.

    omega_max keeps every intended edge inside the blockade disk; omega_min
    keeps every intended non-edge outside it. Raises when the band is empty.
    """
    intended = {frozenset(e) for e in emb.induced_edges}
    lo, hi = _band_from_partition(emb.register, intended, dev)
    if lo * BAND_MARGIN >= hi:
        raise InfeasibilityError(
            f"empty Rabi band: omega_min {lo:.4g} vs omega_max {hi:.4g}"
        )
    return float(lo), float(hi)


def _band_omega(lo: float, hi: float) -> float:
    """Representative Rabi frequency inside a band."""
    return math.sqrt(lo * hi) if lo > 0 else 0.5 * hi


def _embedding_for(reg: Register, dev: DeviceParams, spacing: float,
                   intended: set, link_map: dict | None = None) -> Embedding:
    """Embedding whose disk graph realises exactly the intended pairs."""
    if reg.min_distance() < dev.min_spacing:
        raise InfeasibilityError(
            f"atoms closer than the {dev.min_spacing} um hardware minimum"
        )
    lo, hi = _band_from_partition(reg, intended, dev)
    if lo * BAND_MARGIN >= hi:
        raise InfeasibilityError(
            f"empty Rabi band: omega_min {lo:.4g} vs omega_max {hi:.4g}"
        )
    radius = blockade_radius(_band_omega(lo, hi), dev)
    induced = _induced_pairs(reg, radius)
    if {frozenset(e) for e in induced} != intended:
        raise InfeasibilityError("disk graph does not match the intended edges")
    return Embedding(
        register=reg,
        blockade_radius=radius,
        induced_edges=induced,
        link_map=dict(link_map or {}),
        spacing=spacing,
    )


def embedding_from_positions(positions, dev: DeviceParams, ids=None, weights=None,
                             spacing: float = 0.0,
                             graph: WeightedGraph | None = None) -> Embedding:
    """Embedding for explicitly placed atoms.

    With a graph supplied, its edges are the intended pairs and the
    positions must realise them. Without one, pairs within 1.3x the minimum
    pairwise distance count as edges and the induced graph (unit weights)
    becomes the origin graph.
    """
    positions = np.asarray(positions, dtype=float)
    n = len(positions)
    if graph is not None:
        if ids is None:
            ids = list(graph.vertex_ids)
        if list(ids) != list(graph.vertex_ids):
            raise InputError("ids must match the graph's vertex order")
        if weights is None:
            weights = list(graph.weights)
    if ids is None:
        ids = [f"q{k}" for k in range(n)]
    ids = [str(i) for i in ids]
    if len(ids) != n:
        raise InputError("ids length does not match positions")
    if weights is None:
        weights = [1.0] * n
    atoms = tuple(
        Atom(id=ids[k], x=float(positions[k][0]), y=float(positions[k][1]),
             detuning_weight=float(weights[k]))
        for k in range(n)
    )
    reg = Register(atoms=atoms)
    if spacing <= 0:
        spacing = reg.min_distance() if n > 1 else dev.min_spacing

    if graph is not None:
        # Edges longer than the chain threshold are routed through ancilla
        # chains instead of being demanded of the bare disk rule.
        index = {v: k for k, v in enumerate(ids)}
        direct, linked = set(), set()
        for (u, v) in graph.edges:
            i, j = sorted((index[u], index[v]))
            d = math.hypot(positions[i][0] - positions[j][0],
                           positions[i][1] - positions[j][1])
            (linked if d > LINK_CUT * spacing else direct).add((i, j))
        if n == 1:
            reg = Register(atoms=atoms, origin_graph=graph)
            return Embedding(
                register=reg,
                blockade_radius=blockade_radius(dev.omega_max, dev),
                induced_edges=(),
                spacing=spacing,
            )
        return _assemble(graph, dev, positions, direct, linked, spacing)

    cut = GEOMETRIC_EDGE_FACTOR * (reg.min_distance() if n > 1 else spacing)
    intended = {frozenset(p) for p, d in reg.pair_distances().items() if d <= cut}
    order = {v: k for k, v in enumerate(ids)}
    edges = [tuple(sorted(e, key=order.get)) for e in intended]
    graph = WeightedGraph.from_parts(
        ids, edges, weights=weights,
        positions=[(a.x, a.y) for a in atoms],
    )
    reg = Register(atoms=atoms, origin_graph=graph)
    if n == 1:
        return Embedding(
            register=reg,
            blockade_radius=blockade_radius(dev.omega_max, dev),
            induced_edges=(),
            spacing=spacing,
        )
    return _embedding_for(reg, dev, spacing, intended)


def _relax(pos, springs, repel, spacing, iters=LAYOUT_ITERS):
    """Force-directed relaxation.

    `springs`: index pairs pulled toward `spacing`. `repel`: (i, j, target)
    triples pushed out to `target` when closer.
    """
    pos = pos.copy()
    for it in range(iters):
        step = 0.12 * spacing * (1.0 - 0.9 * it / iters)
        force = np.zeros_like(pos)
        for (i, j) in springs:
            d = pos[j] - pos[i]
            r = math.hypot(*d)
            if r < 1e-9:
                d, r = np.array([1e-3, 0.0]), 1e-3
            f = (r - spacing) / (r * spacing) * d
            force[i] += 0.5 * f
            force[j] -= 0.5 * f
        for (i, j, target) in repel:
            d = pos[j] - pos[i]
            r = math.hypot(*d)
            if r < 1e-9:
                d, r = np.array([1e-3, 0.0]), 1e-3
            if r < target:
                f = (target - r) / (r * spacing) * d
                force[i] -= 0.5 * f
                force[j] += 0.5 * f
        norms = np.hypot(force[:, 0], force[:, 1])
        big = norms > 1.0
        force[big] /= norms[big, None]
        pos += step * force
    return pos


def _layout_ok(pos, direct, linked, spacing, dev):
    """Direct edges vs everything else must leave a usable disk band, linked
    pairs must be far enough to route a chain through, and no two atoms may
    violate the hardware minimum."""
    n = len(pos)
    dmat = np.hypot(pos[:, None, 0] - pos[None, :, 0],
                    pos[:, None, 1] - pos[None, :, 1])
    iu = np.triu_indices(n, 1)
    if dmat[iu].size and dmat[iu].min() < dev.min_spacing:
        return False
    emax = max((dmat[i, j] for (i, j) in direct), default=0.0)
    others = [dmat[i, j] for i in range(n) for j in range(i + 1, n)
              if (i, j) not in direct]
    nmin = min(others, default=math.inf)
    for (i, j) in linked:
        if dmat[i, j] < 2.5 * spacing:
            return False
    if emax > 0.0:
        hi = min(dev.omega_max, dev.c6 / emax**6)
        lo = 0.0 if math.isinf(nmin) else dev.c6 / nmin**6
        if lo * BAND_MARGIN >= hi:
            return False
    return True


def layout(g: WeightedGraph, dev: DeviceParams, spacing: float = 6.0,
           seed: int = 0) -> Embedding:
    """Place a graph on the plane so the disk rule reproduces its edges.

    Geometric graphs (with positions) are used as given. Others get a
    seeded force-directed layout; edges the relaxation cannot shorten are
    routed through ancilla chains. Retries a handful of seeds and returns
    the first chain-free placement, or failing that the one with fewest
    ancilla atoms (every ancilla doubles the simulation space).
    """
    if g.n == 0:
        raise InputError("cannot lay out an empty graph")
    if spacing < dev.min_spacing:
        raise InputError(f"spacing {spacing} below hardware minimum {dev.min_spacing}")
    if g.positions is not None:
        return embedding_from_positions(
            g.positions, dev, ids=g.vertex_ids, weights=g.weights,
            spacing=spacing, graph=g,
        )
    if g.n == 1:
        reg = Register(
            atoms=(Atom(id=g.vertex_ids[0], x=0.0, y=0.0, detuning_weight=g.weights[0]),),
            origin_graph=g,
        )
        return Embedding(
            register=reg,
            blockade_radius=blockade_radius(dev.omega_max, dev),
            induced_edges=(),
            spacing=spacing,
        )

    index = {v: k for k, v in enumerate(g.vertex_ids)}
    all_pairs = {(i, j) for i in range(g.n) for j in range(i + 1, g.n)}
    base_edges = {tuple(sorted((index[u], index[v]))) for (u, v) in g.edges}

    failures = []
    fallback = None
    for attempt in range(LAYOUT_SEED_RETRIES):
        rng = substream(seed, "layout", attempt)
        side = spacing * (math.sqrt(g.n) + 1.0)
        pos = rng.uniform(0.0, side, size=(g.n, 2))
        direct = set(base_edges)
        linked = set()
        ok = False
        for _round in range(1 + len(base_edges)):
            repel = [(i, j, NONEDGE_TARGET * spacing) for (i, j) in sorted(all_pairs - base_edges)]
            repel += [(i, j, LINK_TARGET * spacing) for (i, j) in sorted(linked)]
            pos = _relax(pos, sorted(direct), repel, spacing)
            if _layout_ok(pos, direct, linked, spacing, dev):
                ok = True
                break
            dmat = np.hypot(pos[:, None, 0] - pos[None, :, 0],
                            pos[:, None, 1] - pos[None, :, 1])
            long_edges = [(dmat[i, j], (i, j)) for (i, j) in direct
                          if dmat[i, j] > LINK_CUT * spacing]
            if long_edges:
                _, worst = max(long_edges)
            else:
                # Frustration can also surface as non-edges jammed inside
                # the blockade floor (the omega_max cap makes that floor an
                # absolute distance). Free the tightest such pair by
                # rerouting its longest incident edge through a chain.
                emax = max((dmat[i, j] for (i, j) in direct), default=0.0)
                if emax <= 0.0:
                    break
                hi = min(dev.omega_max, dev.c6 / emax**6)
                needed = (dev.c6 * BAND_MARGIN / hi) ** (1.0 / 6.0)
                crowded = [(dmat[i, j], (i, j))
                           for (i, j) in sorted(all_pairs - direct - linked)
                           if dmat[i, j] < needed]
                if not crowded:
                    break
                _, (ci, cj) = min(crowded)
                incident = [(dmat[i, j], (i, j)) for (i, j) in direct
                            if i in (ci, cj) or j in (ci, cj)]
                if not incident:
                    break
                _, worst = max(incident)
            direct.discard(worst)
            linked.add(worst)
        if not ok:
            failures.append(f"seed {attempt}: no usable band")
            continue
        try:
            emb = _assemble(g, dev, pos, direct, linked, spacing)
        except InfeasibilityError as exc:
            failures.append(f"seed {attempt}: {exc}")
            continue
        if not emb.ancilla_ids():
            return emb
        lo, hi = omega_bounds(emb, dev)
        key = (len(emb.ancilla_ids()), -(hi / max(lo, 1e-12)))
        if fallback is None or key < fallback[0]:
            fallback = (key, emb)
    if fallback is not None:
        return fallback[1]
    raise InfeasibilityError("layout failed on all seeds: " + "; ".join(failures))


def _assemble(g, dev, pos, direct, linked, spacing):
    atoms = tuple(
        Atom(id=g.vertex_ids[k], x=float(pos[k][0]), y=float(pos[k][1]),
             detuning_weight=g.weights[k])
        for k in range(g.n)
    )
    reg = Register(atoms=atoms, origin_graph=g)
    intended = {frozenset((g.vertex_ids[i], g.vertex_ids[j])) for (i, j) in direct}
    emb = _embedding_for(reg, dev, spacing, intended)
    for (i, j) in sorted(linked):
        emb = insert_quantum_link(emb, g.vertex_ids[i], g.vertex_ids[j], dev)
    want = {frozenset(e) for e in g.edges}
    got = emb.projected_edges()
    if want != got:
        raise InfeasibilityError(
            f"embedding does not realise the graph: missing "
            f"{sorted(map(sorted, want - got))}, unintended {sorted(map(sorted, got - want))}"
        )
    return emb


def _even_on_curve(curve, count):
    """`count` interior points evenly spaced by arc length along a sampled
    curve (endpoints excluded)."""
    seg = np.hypot(*np.diff(curve, axis=0).T)
    arc = np.concatenate([[0.0], np.cumsum(seg)])
    want = np.linspace(0.0, arc[-1], count + 2)[1:-1]
    out = []
    for s in want:
        k = min(max(int(np.searchsorted(arc, s)), 1), len(arc) - 1)
        f = (s - arc[k - 1]) / max(arc[k] - arc[k - 1], 1e-12)
        out.append(curve[k - 1] + f * (curve[k] - curve[k - 1]))
    return np.array(out)


def _arc_curve(p0, p1, bend):
    """Quadratic arc from p0 to p1 with apex offset `bend` (um,
    perpendicular at the midpoint), sampled densely."""
    p0, p1 = np.asarray(p0, float), np.asarray(p1, float)
    d = p1 - p0
    length = math.hypot(*d)
    perp = np.array([-d[1], d[0]]) / length
    mid = 0.5 * (p0 + p1) + bend * perp
    ts = np.linspace(0.0, 1.0, 256)
    return ((1 - ts)[:, None] ** 2) * p0 \
        + 2 * (ts * (1 - ts))[:, None] * mid + (ts[:, None] ** 2) * p1


def _detour_curve(p0, p1, offset):
    """Flat-topped detour from p0 to p1: out perpendicular by `offset`,
    across, back. Clears obstructions sitting on the direct line, which an
    arc only clears at its apex."""
    p0, p1 = np.asarray(p0, float), np.asarray(p1, float)
    d = p1 - p0
    length = math.hypot(*d)
    perp = np.array([-d[1], d[0]]) / length
    corners = [p0, p0 + offset * perp, p1 + offset * perp, p1]
    parts = []
    for a, b in zip(corners, corners[1:]):
        ts = np.linspace(0.0, 1.0, 96, endpoint=False)[:, None]
        parts.append(a + ts * (b - a))
    parts.append(p1[None, :])
    return np.concatenate(parts, axis=0)


def insert_quantum_link(emb: Embedding, u: str, v: str,
                        dev: DeviceParams) -> Embedding:
    """Realise the long edge (u, v) with an even chain of ancilla atoms.

    The chain carries the blockade constraint across the gap while leaving
    the projected maximum-weight independent set of the original vertices
    unchanged: selecting both endpoints costs one ancilla slot, any other
    choice fills the chain to the same maximum. Ancilla detuning weights sit
    strictly above the lighter endpoint weight so a violating configuration
    can never tie with a legal one; at weight parity the tie is exact and
    measurement could project onto vertex sets that are not independent.
    """
    reg = emb.register
    ids = list(reg.ids)
    if u not in ids or v not in ids:
        raise InputError(f"unknown link endpoints ({u}, {v})")
    if frozenset((u, v)) in {frozenset(k) for k in emb.link_map}:
        raise InputError(f"({u}, {v}) already linked")
    if frozenset((u, v)) in {frozenset(e) for e in emb.induced_edges}:
        raise InputError(f"({u}, {v}) is already blockaded directly")
    pos = reg.positions()
    pu, pv = pos[ids.index(u)], pos[ids.index(v)]
    spacing = emb.spacing if emb.spacing > 0 else reg.min_distance()
    wu = reg.atoms[ids.index(u)].detuning_weight
    wv = reg.atoms[ids.index(v)].detuning_weight
    ancilla_w = ANCILLA_WEIGHT_FACTOR * min(wu, wv)
    g = reg.origin_graph

    intended = {frozenset(e) for e in emb.induced_edges}
    n_existing = sum(1 for a in reg.atoms if a.is_ancilla)
    curves = [("arc", 0.0)]
    for b in (0.6, 1.0, 1.5, 2.0, 2.6):
        curves += [("arc", b * spacing), ("arc", -b * spacing)]
    for h in (1.0, 1.45, 1.75, 2.2):
        curves += [("detour", h * spacing), ("detour", -h * spacing)]
    # The interaction falls smoothly with distance, so a chain that merely
    # satisfies the disk partition can still sit too close to other atoms
    # for the dynamics to tell edges from non-edges. Among all routable
    # chains, keep the one with the widest Rabi band (largest blockade
    # contrast), preferring fewer ancillas and straighter paths on ties.
    best = None
    for count in range(2, MAX_CHAIN_ATOMS + 1, 2):
        for shape, amount in curves:
            if shape == "arc":
                chain_pos = _even_on_curve(_arc_curve(pu, pv, amount), count)
            else:
                chain_pos = _even_on_curve(_detour_curve(pu, pv, amount), count)
            names = tuple(f"anc{n_existing + k}" for k in range(count))
            new_atoms = reg.atoms + tuple(
                Atom(id=names[k], x=float(chain_pos[k][0]), y=float(chain_pos[k][1]),
                     detuning_weight=ancilla_w, is_ancilla=True)
                for k in range(count)
            )
            new_reg = Register(atoms=new_atoms, origin_graph=g)
            path = [u, *names, v]
            chain_pairs = {frozenset(p) for p in zip(path, path[1:])}
            link_map = dict(emb.link_map)
            link_map[(u, v)] = names
            try:
                cand = _embedding_for(new_reg, dev, spacing,
                                      intended | chain_pairs, link_map)
            except InfeasibilityError:
                continue
            # Physical contrast, not the omega_max-capped band: the shift on
            # the weakest intended edge over the shift on the strongest
            # intended non-edge.
            dists = new_reg.pair_distances()
            want = intended | chain_pairs
            emax = max(d for p, d in dists.items() if frozenset(p) in want)
            nmin = min(d for p, d in dists.items() if frozenset(p) not in want)
            contrast = (nmin / emax) ** 6
            key = (round(contrast, 6), -count, shape == "arc", -abs(amount))
            if best is None or key > best[0]:
                best = (key, cand)
    if best is None:
        raise InfeasibilityError(f"could not route a quantum link between {u} and {v}")
    return best[1]


def strip_ancillas(hist: Histogram, emb: Embedding) -> Histogram:
    """Drop ancilla bit positions from every outcome, merging counts."""
    ids = emb.register.ids
    keep = [k for k, a in enumerate(emb.register.atoms) if not a.is_ancilla]
    if len(keep) == len(ids):
        return hist
    merged = {}
    for bits, c in hist.counts.items():
        if len(bits) != len(ids):
            raise InputError("histogram width does not match register")
        short = "".join(bits[k] for k in keep)
        merged[short] = merged.get(short, 0) + c
    return Histogram(shots=hist.shots, counts=merged)


def save_register(emb: Embedding, path, meta: dict | None = None):
    doc = {
        "atoms": [
            {"id": a.id, "x": a.x, "y": a.y, "w": a.detuning_weight,
             "ancilla": a.is_ancilla}
            for a in emb.register.atoms
        ],
        "blockade_radius": emb.blockade_radius,
    }
    extra = {
        "spacing": emb.spacing,
        "links": {f"{u}~{v}": list(chain) for (u, v), chain in emb.link_map.items()},
    }
    if emb.register.origin_graph is not None:
        gg = emb.register.origin_graph
        extra["graph"] = {
            "nodes": [{"id": vid, "weight": w} for vid, w in zip(gg.vertex_ids, gg.weights)],
            "edges": [list(e) for e in gg.edges],
        }
    if meta:
        extra.update(meta)
    doc["meta"] = extra
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_register(path, dev: DeviceParams | None = None) -> Embedding:
    dev = dev or DeviceParams()
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from None
    if "atoms" not in doc:
        raise InputError(f"{path}: expected an 'atoms' list")
    atoms = tuple(
        Atom(id=str(a["id"]), x=float(a["x"]), y=float(a["y"]),
             detuning_weight=float(a.get("w", 1.0)),
             is_ancilla=bool(a.get("ancilla", False)))
        for a in doc["atoms"]
    )
    meta = doc.get("meta", {})
    graph = None
    if "graph" in meta:
        gdoc = meta["graph"]
        graph = WeightedGraph.from_parts(
            [n["id"] for n in gdoc["nodes"]],
            gdoc["edges"],
            weights=[n.get("weight", 1.0) for n in gdoc["nodes"]],
        )
    reg = Register(atoms=atoms, origin_graph=graph)
    links = {}
    for key, chain in meta.get("links", {}).items():
        u, v = key.split("~")
        links[(u, v)] = tuple(chain)
    spacing = float(meta.get("spacing", 0.0))
    if spacing <= 0 and reg.n > 1:
        spacing = reg.min_distance()
    radius = float(doc.get("blockade_radius", 0.0))
    if radius <= 0:
        cut = GEOMETRIC_EDGE_FACTOR * reg.min_distance()
        intended = {frozenset(p) for p, d in reg.pair_distances().items() if d <= cut}
        emb = _embedding_for(reg, dev, spacing, intended, links)
    else:
        emb = Embedding(
            register=reg,
            blockade_radius=radius,
            induced_edges=_induced_pairs(reg, radius),
            link_map=links,
            spacing=spacing,
        )
    if graph is not None and emb.projected_edges() != {frozenset(e) for e in graph.edges}:
        raise InfeasibilityError(
            f"{path}: the register's disk graph does not realise its stored graph"
        )
    return emb
