"""Atom registers: geometry, blockade feasibility, layout, quantum links.

A register realises a graph when some Rabi frequency Omega makes the
blockade-radius disk graph over the atom positions equal the intended edge
set. Edges that cannot be drawn inside the disk band are routed through
chains of ancilla atoms ("quantum links"); an even chain preserves the
projected maximum-weight independent set, which is why link parity matters.

Every register with known positions becomes an Embedding in `_assemble`:
`layout`'s relaxed draws, graphs that carry positions, and the geometric
registers of `embedding_from_positions`.

Atom-pair distances come from one place: `Register.distances()`, a cached
read-only (n, n) np.hypot matrix, or its helper on `layout`'s positions,
which `_relax` reads once per iteration. An edge set is one symmetric
boolean matrix over vertex order: a graph's edges, an intended disk graph,
and `layout`'s direct and linked pairs alike. c6 / r^6 stays a scalar pow,
which an array pow can round apart from, and the LINK_CUT split keeps
math.hypot, whose last bit can differ from np.hypot's: either could flip a
borderline comparison.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import files
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
# Relaxation stops once no atom moves more than LAYOUT_TOL * spacing in one
# iteration. On the fixture complement graph at seeds 0-59, 129 of 183
# relaxations stop so, 97 of them within 250 iterations. The other 54, on
# draws whose targets conflict, creep on past 1,000 iterations, and
# LAYOUT_MAX_ITERS cuts them off. Every placement layout returned there (at
# 6 and 9 um) and on complement(six_node) came from a relaxation that met
# the tolerance.
LAYOUT_TOL = 1e-9
LAYOUT_MAX_ITERS = 500
# Seeds drawn before settling for ancillas; 5 settled on 5 of 200 fixture
# seeds (at 6 and at 9 um), 20 on none.
LAYOUT_SEED_RETRIES = 20
# Draws after which a graph that has given no placement at all is infeasible.
LAYOUT_BARREN_DRAWS = 5
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
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError(f"device parameter {name} must be a number, got {value!r}")
            if not (math.isfinite(value) and value > 0):
                raise InputError(f"device parameter {name} must be positive and finite")


@dataclass(frozen=True)
class Atom:
    id: str
    x: float
    y: float
    detuning_weight: float = 1.0
    is_ancilla: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise InputError(f"atom {self.id}: position must be finite")
        if not (math.isfinite(self.detuning_weight) and self.detuning_weight > 0):
            raise InputError(f"atom {self.id}: detuning weight must be positive and finite")


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
        return np.array([[a.x, a.y] for a in self.atoms], dtype=float).reshape(-1, 2)

    def detuning_weights(self) -> np.ndarray:
        return np.array([a.detuning_weight for a in self.atoms], dtype=float)

    def distances(self) -> np.ndarray:
        """Every atom-pair distance as one read-only (n, n) matrix, computed
        once per register and kept on it."""
        dist = self.__dict__.get("_distances")
        if dist is None:
            dist = self.__dict__["_distances"] = _distance_matrix(self.positions())
        return dist

    def min_distance(self) -> float:
        dist = self.distances()[np.triu_indices(self.n, 1)]
        return float(dist.min()) if dist.size else math.inf


def _distance_matrix(pos) -> np.ndarray:
    """Read-only np.hypot matrix of the differences of every two rows of `pos`."""
    dist = np.hypot(pos[:, None, 0] - pos[None, :, 0], pos[:, None, 1] - pos[None, :, 1])
    dist.flags.writeable = False
    return dist


def _edge_matrix(ids, pairs) -> np.ndarray:
    """Symmetric boolean matrix over `ids`, True at each pair in `pairs`."""
    index = {v: k for k, v in enumerate(ids)}
    edges = np.zeros((len(index), len(index)), dtype=bool)
    for u, v in pairs:
        edges[index[u], index[v]] = edges[index[v], index[u]] = True
    return edges


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
    """Id pairs closer than `radius`, in register order."""
    i, j = np.triu_indices(reg.n, 1)
    near = reg.distances()[i, j] < radius
    ids = reg.ids
    return tuple((ids[a], ids[b]) for a, b in zip(i[near].tolist(), j[near].tolist()))


def _band(dist, edges, dev: DeviceParams) -> tuple:
    """Rabi band (lo, hi] from a distance matrix and a symmetric boolean
    matrix of intended edges: hi keeps the longest edge inside the blockade
    disk (capped at the hardware omega_max), lo the shortest non-edge
    outside it. The band is usable when lo * BAND_MARGIN < hi."""
    iu = np.triu_indices(len(dist), 1)
    d, e = dist[iu], edges[iu]
    hi = min(dev.omega_max, interaction(float(d[e].max()), dev)) if e.any() else dev.omega_max
    lo = interaction(float(d[~e].min()), dev) if not e.all() else 0.0
    return lo, hi


def _rabi_band(reg: Register, intended, dev: DeviceParams) -> tuple:
    """Rabi band (omega_min, omega_max] that keeps every intended pair inside
    the blockade disk and every other pair outside it; raises when empty."""
    lo, hi = _band(reg.distances(), intended, dev)
    if lo * BAND_MARGIN >= hi:
        raise InfeasibilityError(
            f"empty Rabi band: omega_min {lo:.4g} vs omega_max {hi:.4g}"
        )
    return lo, hi


def omega_bounds(emb: Embedding, dev: DeviceParams) -> tuple:
    """Feasible Rabi band (omega_min, omega_max] for the embedding.

    omega_max keeps every intended edge inside the blockade disk; omega_min
    keeps every intended non-edge outside it. Raises when the band is empty.
    """
    reg = emb.register
    lo, hi = _rabi_band(reg, _edge_matrix(reg.ids, emb.induced_edges), dev)
    return float(lo), float(hi)


def _band_omega(lo: float, hi: float) -> float:
    """Representative Rabi frequency inside a band."""
    return math.sqrt(lo * hi) if lo > 0 else 0.5 * hi


def _embedding_for(reg: Register, dev: DeviceParams, spacing: float,
                   intended, link_map: dict | None = None) -> Embedding:
    """Embedding whose disk graph realises exactly the intended pairs, given
    as a symmetric boolean matrix."""
    if reg.min_distance() < dev.min_spacing:
        raise InfeasibilityError(
            f"atoms closer than the {dev.min_spacing} um hardware minimum"
        )
    lo, hi = _rabi_band(reg, intended, dev)
    radius = blockade_radius(_band_omega(lo, hi) if reg.n > 1 else dev.omega_max, dev)
    induced = _induced_pairs(reg, radius)
    if not np.array_equal(_edge_matrix(reg.ids, induced), intended):
        raise InfeasibilityError("disk graph does not match the intended edges")
    return Embedding(
        register=reg,
        blockade_radius=radius,
        induced_edges=induced,
        link_map=dict(link_map or {}),
        spacing=spacing,
    )


def embedding_from_positions(positions, dev: DeviceParams, ids=None,
                             spacing: float = 0.0) -> Embedding:
    """Embedding for explicitly placed atoms: pairs within
    GEOMETRIC_EDGE_FACTOR x the least pairwise distance are the edges of its
    origin graph (unit weights, the positions kept). A spacing <= 0 becomes
    that least distance."""
    positions = np.asarray(positions, dtype=float)
    n = len(positions)
    ids = [f"q{k}" for k in range(n)] if ids is None else [str(i) for i in ids]
    if len(ids) != n:
        raise InputError("ids length does not match positions")
    dist = _distance_matrix(positions)
    least = float(dist[np.triu_indices(n, 1)].min()) if n > 1 else dev.min_spacing
    if spacing <= 0:
        spacing = least
    edges = np.triu(dist <= GEOMETRIC_EDGE_FACTOR * least, 1)
    g = WeightedGraph.from_parts(ids, [(ids[a], ids[b]) for a, b in zip(*np.nonzero(edges))],
                                 positions=positions.tolist())
    return _assemble(g, dev, positions, edges | edges.T, np.zeros_like(edges), spacing)


def _relax(pos, target, one_sided, spacing):
    """Stress majorization (SMACOF; Gansner, Koren and North, "Graph Drawing
    by Stress Majorization", GD 2004) of the layout energy

        E(X) = sum over pairs i < j of (r_ij - t_ij)^2,
               or of min(0, r_ij - t_ij)^2 where one_sided[i, j],

    r_ij being the distance of atoms i and j and t_ij = target[i, j]; the
    two symmetric (n, n) matrices' diagonals are never read. Each pair has
    unit weight, so one Guttman transform is X+ = B(X) X / n. At each
    iterate a one-sided term is majorised by the two-sided term with target
    max(t_ij, r_ij), so E never rises. A pair closer than 1e-9 takes a fixed
    unit vector of its own as its direction, which majorises too. Stops
    once no atom moves more than LAYOUT_TOL * spacing in one transform, or
    after LAYOUT_MAX_ITERS; the result is centred on the origin.
    """
    n = len(pos)
    # unit vectors u_ij = -u_ji standing in for (pos_i - pos_j) / dist_ij when
    # atoms i and j coincide, each pair at its own golden-angle multiple so
    # that the pushes on atoms that start together do not cancel
    k = np.arange(n)
    turn = math.pi * (3.0 - math.sqrt(5.0)) * (np.minimum.outer(k, k) * n
                                               + np.maximum.outer(k, k))
    apart = (np.sign(np.subtract.outer(k, k))[:, :, None]
             * np.stack([np.cos(turn), np.sin(turn)], axis=-1))
    for _ in range(LAYOUT_MAX_ITERS):
        dist = _distance_matrix(pos)
        goal = np.where(one_sided, np.maximum(target, dist), target)
        near = dist < 1e-9
        ratio = np.divide(goal, dist, out=np.zeros((n, n)), where=~near)
        # new_i = sum_j goal_ij / dist_ij * (pos_i - pos_j) / n
        new = ratio.sum(axis=1)[:, None] * pos - ratio @ pos
        if np.count_nonzero(near) > n:  # beyond the diagonal
            new += ((goal * near)[:, :, None] * apart).sum(axis=1)
        new /= n
        step = new - pos
        pos = new
        if np.hypot(step[:, 0], step[:, 1]).max() <= LAYOUT_TOL * spacing:
            break
    return pos


def _layout_ok(dist, direct, linked, spacing, dev):
    """Direct edges vs everything else must leave a usable disk band, linked
    pairs must be at least 2.5 spacings apart to route a chain through, and
    no two atoms may violate the hardware minimum; `direct` and `linked`
    are symmetric boolean matrices."""
    if len(dist) > 1 and dist[np.triu_indices(len(dist), 1)].min() < dev.min_spacing:
        return False
    if (dist[linked] < 2.5 * spacing).any():
        return False
    if direct.any():
        lo, hi = _band(dist, direct, dev)
        if lo * BAND_MARGIN >= hi:
            return False
    return True


def layout(g: WeightedGraph, dev: DeviceParams, spacing: float = 6.0,
           seed: int = 0) -> Embedding:
    """Place a graph on the plane so the disk rule reproduces its edges.

    A graph with positions, or a lone vertex, is placed as given: its edges
    longer than LINK_CUT x spacing become ancilla chains. Others are drawn
    uniformly from a seeded stream and relaxed by stress majorization
    (`_relax`). An edge the relaxation cannot shorten is routed through an
    ancilla chain, its ends pushed out to LINK_TARGET in the next
    relaxation. Draws up to LAYOUT_SEED_RETRIES seeds and returns the first
    chain-free placement, or failing that the one with fewest ancilla atoms
    (every ancilla doubles the simulation space). A graph whose first
    LAYOUT_BARREN_DRAWS draws gave no placement fails. A draw that needs
    chains is held, its chains not yet routed, while a chain-free draw may
    still come: at LAYOUT_BARREN_DRAWS the held draws are routed in order
    until one assembles, and after the last seed the rest are.
    """
    if g.n == 0:
        raise InputError("cannot lay out an empty graph")
    if spacing < dev.min_spacing:
        raise InputError(f"spacing {spacing} below hardware minimum {dev.min_spacing}")
    edges = _edge_matrix(g.vertex_ids, g.edges)
    if g.positions is not None or g.n == 1:
        pos = g.positions if g.positions is not None else ((0.0, 0.0),)
        linked = np.zeros_like(edges)
        for i, j in zip(*np.nonzero(edges)):
            linked[i, j] = math.hypot(pos[i][0] - pos[j][0],
                                      pos[i][1] - pos[j][1]) > LINK_CUT * spacing
        return _assemble(g, dev, pos, edges & ~linked, linked, spacing)

    failures = []
    fallback = None
    held = []  # (attempt, pos, direct, linked) of chained draws not yet routed

    def route():
        # the held draw's chains, kept as the fallback when it assembles
        # with fewer ancillas (or a wider band) than every earlier one
        nonlocal fallback
        attempt, pos, direct, linked = held.pop(0)
        try:
            emb = _assemble(g, dev, pos, direct, linked, spacing)
        except InfeasibilityError as exc:
            failures.append((attempt, f"seed {attempt}: {exc}"))
            return
        lo, hi = omega_bounds(emb, dev)
        key = (len(emb.ancilla_ids()), -(hi / max(lo, 1e-12)))
        if fallback is None or key < fallback[0]:
            fallback = (key, emb)

    for attempt in range(LAYOUT_SEED_RETRIES):
        if attempt == LAYOUT_BARREN_DRAWS:
            while fallback is None and held:
                route()
            if fallback is None:
                break
        rng = substream(seed, "layout", attempt)
        side = spacing * (math.sqrt(g.n) + 1.0)
        pos = rng.uniform(0.0, side, size=(g.n, 2))
        direct, linked = edges.copy(), np.zeros_like(edges)
        ok = False
        for _round in range(1 + len(g.edges)):
            target = spacing * np.where(direct, 1.0, np.where(linked, LINK_TARGET, NONEDGE_TARGET))
            pos = _relax(pos, target, ~direct, spacing)
            dmat = _distance_matrix(pos)
            if _layout_ok(dmat, direct, linked, spacing, dev):
                ok = True
                break
            worst = _extreme(max, dmat, direct & (dmat > LINK_CUT * spacing))
            if worst is None:
                # Frustration can also surface as non-edges jammed inside
                # the blockade floor (the omega_max cap makes that floor an
                # absolute distance). Free the tightest such pair by
                # rerouting its longest incident edge through a chain.
                if not direct.any():
                    break
                hi = min(dev.omega_max, interaction(float(dmat[direct].max()), dev))
                needed = (dev.c6 * BAND_MARGIN / hi) ** (1.0 / 6.0)
                crowded = _extreme(min, dmat, ~edges & (dmat < needed))
                if crowded is None:
                    break
                ends = np.isin(np.arange(g.n), crowded)
                worst = _extreme(max, dmat, direct & (ends[:, None] | ends[None, :]))
                if worst is None:
                    break
            i, j = worst
            direct[i, j] = direct[j, i] = False
            linked[i, j] = linked[j, i] = True
        if not ok:
            failures.append((attempt, f"seed {attempt}: no usable band"))
            continue
        if linked.any():
            held.append((attempt, pos, direct, linked))
            continue
        try:
            return _assemble(g, dev, pos, direct, linked, spacing)
        except InfeasibilityError as exc:
            failures.append((attempt, f"seed {attempt}: {exc}"))
    while held:
        route()
    if fallback is not None:
        return fallback[1]
    raise InfeasibilityError("layout failed on all seeds: "
                             + "; ".join(text for _, text in sorted(failures)))


def _extreme(pick, dist, pairs):
    """The pair (i, j), i < j, of a symmetric boolean matrix that `pick`
    (max or min) chooses by (distance, (i, j)), or None if there is none."""
    i, j = np.nonzero(np.triu(pairs, 1))
    return pick(zip(dist[i, j], zip(i.tolist(), j.tolist())), default=(None, None))[1]


def _assemble(g, dev, pos, direct, linked, spacing):
    """Embedding of `g` with vertex k at pos[k]. `direct` and `linked` are
    symmetric boolean matrices over vertex order: `direct` holds its
    disk-graph edges, and each `linked` pair, in sorted order, gets an
    ancilla chain."""
    atoms = tuple(
        Atom(id=g.vertex_ids[k], x=float(pos[k][0]), y=float(pos[k][1]),
             detuning_weight=g.weights[k])
        for k in range(g.n)
    )
    reg = Register(atoms=atoms, origin_graph=g)
    emb = _embedding_for(reg, dev, spacing, direct)
    for i, j in zip(*np.nonzero(np.triu(linked))):
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


def _curve(p0, p1, shape, amount):
    """Dense samples of a path from p0 to p1 bowed out sideways by `amount`
    um: a quadratic arc with that apex offset, or a flat-topped "detour",
    which clears obstructions on the direct line (an arc only at its apex)."""
    p0, p1 = np.asarray(p0, float), np.asarray(p1, float)
    d = p1 - p0
    perp = np.array([-d[1], d[0]]) / math.hypot(*d)
    if shape == "arc":
        mid = 0.5 * (p0 + p1) + amount * perp
        ts = np.linspace(0.0, 1.0, 256)[:, None]
        return (1 - ts) ** 2 * p0 + 2 * (ts * (1 - ts)) * mid + ts ** 2 * p1
    corners = [p0, p0 + amount * perp, p1 + amount * perp, p1]
    ts = np.linspace(0.0, 1.0, 96, endpoint=False)[:, None]
    return np.concatenate([a + ts * (b - a) for a, b in zip(corners, corners[1:])]
                          + [p1[None, :]])


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

    # ancilla names count on from the existing ancillas, skipping ids in use
    fresh = (f"anc{k}" for k in itertools.count(sum(a.is_ancilla for a in reg.atoms)))
    pool = tuple(itertools.islice((a for a in fresh if a not in ids), MAX_CHAIN_ATOMS))
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
        names = pool[:count]
        path = [u, *names, v]
        link_map = {**emb.link_map, (u, v): names}
        for shape, amount in curves:
            chain_pos = _even_on_curve(_curve(pu, pv, shape, amount), count)
            new_reg = Register(atoms=reg.atoms + tuple(
                Atom(id=names[k], x=float(chain_pos[k][0]), y=float(chain_pos[k][1]),
                     detuning_weight=ancilla_w, is_ancilla=True)
                for k in range(count)
            ), origin_graph=g)
            want = _edge_matrix(new_reg.ids, [*emb.induced_edges, *zip(path, path[1:])])
            try:
                cand = _embedding_for(new_reg, dev, spacing, want, link_map)
            except InfeasibilityError:
                continue
            # Physical contrast, not the omega_max-capped band: the shift on
            # the weakest intended edge over the shift on the strongest
            # intended non-edge.
            iu = np.triu_indices(new_reg.n, 1)
            d, w = new_reg.distances()[iu], want[iu]
            contrast = (float(d[~w].min()) / float(d[w].max())) ** 6
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
    files.write(path, doc)


def _register_from_doc(doc) -> tuple:
    """(register, link map, spacing or 0, blockade radius) as stored."""
    atoms = tuple(
        Atom(id=str(a["id"]), x=float(a["x"]), y=float(a["y"]),
             detuning_weight=float(a.get("w", 1.0)),
             is_ancilla=bool(a.get("ancilla", False)))
        for a in doc["atoms"]
    )
    radius = float(doc["blockade_radius"])
    if not (math.isfinite(radius) and radius > 0):
        raise InputError(f"blockade_radius must be positive and finite, got {radius}")
    meta = doc.get("meta", {})
    graph = None
    if "graph" in meta:
        gdoc = meta["graph"]
        graph = WeightedGraph.from_parts(
            [n["id"] for n in gdoc["nodes"]],
            gdoc["edges"],
            weights=[n.get("weight", 1.0) for n in gdoc["nodes"]],
        )
    ids = {a.id for a in atoms}
    links = {}
    for key, chain in meta.get("links", {}).items():
        # written as f"{u}~{v}", and ids may contain "~": the split must name two atoms
        ends = [(key[:k], key[k + 1:]) for k, c in enumerate(key)
                if c == "~" and key[:k] in ids and key[k + 1:] in ids]
        if len(ends) != 1:
            raise InputError(f"link key {key!r} does not name exactly one pair of atoms")
        links[ends[0]] = tuple(chain)
    return (Register(atoms=atoms, origin_graph=graph), links,
            float(meta.get("spacing", 0.0)), radius)


def load_register(path, dev: DeviceParams | None = None) -> Embedding:
    """Read a register file; its stored graph must be the disk graph of its
    stored blockade radius. `dev` is not needed for that."""
    reg, links, spacing, radius = files.read(path, _register_from_doc)
    if spacing <= 0 and reg.n > 1:
        spacing = reg.min_distance()
    emb = Embedding(
        register=reg,
        blockade_radius=radius,
        induced_edges=_induced_pairs(reg, radius),
        link_map=links,
        spacing=spacing,
    )
    graph = reg.origin_graph
    if graph is not None and emb.projected_edges() != {frozenset(e) for e in graph.edges}:
        raise InfeasibilityError(
            f"{path}: the register's disk graph does not realise its stored graph"
        )
    return emb
