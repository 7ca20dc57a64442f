"""Registers, blockade bands, layout, and quantum links.

Chain parity and the ancilla-weight rule get brute-force demonstrations on
hand-built augmented graphs, since those are the properties the physics
depends on and the easiest to get silently wrong.
"""

import ast
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import rydock.register
from rydock.cli import DEFAULTS
from rydock.docking import build_binding_graph, default_table, load_molecule
from rydock.errors import InfeasibilityError, InputError
from rydock.graphs import WeightedGraph, brute_force_mwis, complement, load_graph
from rydock.histogram import Histogram
from rydock.mlqaa.dataset import generate_corpus
from rydock.register import (
    ANCILLA_WEIGHT_FACTOR,
    LAYOUT_TOL,
    LINK_TARGET,
    NONEDGE_TARGET,
    Atom,
    DeviceParams,
    Embedding,
    Register,
    blockade_radius,
    embedding_from_positions,
    insert_quantum_link,
    interaction,
    layout,
    load_register,
    omega_bounds,
    save_register,
    strip_ancillas,
)
from rydock.register import (
    _band,
    _distance_matrix,
    _edge_matrix,
    _embedding_for,
    _layout_ok,
    _relax,
    _usable,
)
from rydock.rng import substream

import measure_layout

DEV = DeviceParams()
FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def test_device_param_validation():
    with pytest.raises(InputError):
        DeviceParams(c6=-1.0)
    with pytest.raises(InputError):
        DeviceParams(min_spacing=0.0)


def test_blockade_radius_formula():
    dev = DeviceParams(c6=64.0)
    assert blockade_radius(1.0, dev) == pytest.approx(2.0)
    with pytest.raises(InputError):
        blockade_radius(0.0, dev)


def test_blockade_radius_monotone():
    omegas = np.linspace(0.5, 15.0, 20)
    radii = [blockade_radius(om, DEV) for om in omegas]
    assert all(a > b for a, b in zip(radii, radii[1:]))


def test_blockade_radius_inverts_interaction():
    # root-finding oracle: the radius is where U(r) crosses omega
    omega = 12.57
    r = blockade_radius(omega, DEV)
    lo, hi = 1.0, 50.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if interaction(mid, DEV) > omega:
            lo = mid
        else:
            hi = mid
    assert r == pytest.approx(0.5 * (lo + hi), abs=1e-6)
    assert interaction(r, DEV) == pytest.approx(omega, rel=1e-9)


def test_interaction_sixth_power():
    assert interaction(2.0, DEV) == pytest.approx(DEV.c6 / 64.0)
    assert interaction(1.0, DEV) / interaction(2.0, DEV) == pytest.approx(64.0)
    with pytest.raises(InputError):
        interaction(-1.0, DEV)


def test_register_rejects_duplicate_ids():
    with pytest.raises(InputError):
        Register(atoms=(Atom("a", 0, 0), Atom("a", 6, 0)))
    with pytest.raises(InputError):
        Atom("a", 0, 0, detuning_weight=0.0)


def test_pair_distances():
    reg = Register(atoms=(Atom("a", 0, 0), Atom("b", 3, 4), Atom("c", 3, 0)))
    dist = reg.distances()
    assert dist.tolist() == [[0.0, 5.0, 3.0], [5.0, 0.0, 4.0], [3.0, 4.0, 0.0]]
    assert dist is reg.distances()
    assert not dist.flags.writeable
    assert reg.min_distance() == 3.0
    assert Register(atoms=(Atom("a", 0, 0),)).min_distance() == math.inf


def test_omega_bounds_single_edge():
    emb = embedding_from_positions([(0, 0), (9, 0)], DEV)
    lo, hi = omega_bounds(emb, DEV)
    assert lo == 0.0
    assert hi == pytest.approx(DEV.c6 / 9.0**6)


def test_omega_bounds_caps_at_device_max():
    emb = embedding_from_positions([(0, 0), (6, 0)], DEV)
    _, hi = omega_bounds(emb, DEV)
    assert hi == pytest.approx(DEV.omega_max)


def test_equilateral_triangle_band():
    s = 6.0
    pts = [(0, 0), (s, 0), (s / 2, s * math.sqrt(3) / 2)]
    emb = embedding_from_positions(pts, DEV)
    assert {frozenset(e) for e in emb.induced_edges} == {
        frozenset(p) for p in [("q0", "q1"), ("q0", "q2"), ("q1", "q2")]}
    lo, hi = omega_bounds(emb, DEV)
    assert lo == 0.0 and hi == pytest.approx(DEV.omega_max)


def test_square_band_and_disk_graph():
    s = 6.0
    pts = [(0, 0), (s, 0), (s, s), (0, s)]
    emb = embedding_from_positions(pts, DEV)
    sides = {frozenset(p) for p in
             [("q0", "q1"), ("q1", "q2"), ("q2", "q3"), ("q0", "q3")]}
    assert {frozenset(e) for e in emb.induced_edges} == sides
    lo, hi = omega_bounds(emb, DEV)
    assert lo == pytest.approx(DEV.c6 / (s * math.sqrt(2)) ** 6)
    assert hi == pytest.approx(DEV.omega_max)
    # every omega strictly inside the band reproduces the same disk graph
    for om in np.linspace(lo * 1.06, hi * 0.99, 10):
        r = blockade_radius(om, DEV)
        dist, ids = emb.register.distances(), emb.register.ids
        induced = {frozenset((ids[i], ids[j])) for i in range(4) for j in range(i)
                   if dist[i, j] < r}
        assert induced == sides


def test_empty_band_raises():
    # direct diagonal demanded alongside an equal-length non-edge
    g = WeightedGraph.from_parts(
        "abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"), ("a", "c")],
        positions=[(0, 0), (6, 0), (6, 6), (0, 6)])
    with pytest.raises(InfeasibilityError):
        layout(g, DEV, spacing=6.0)


def test_min_spacing_enforced():
    with pytest.raises(InfeasibilityError):
        embedding_from_positions([(0, 0), (3.0, 0)], DEV)


def test_geometric_edge_reading():
    # 1.3x the minimum pairwise distance separates sides from diagonals
    emb = embedding_from_positions([(0, 0), (6, 0), (12, 0)], DEV)
    assert {frozenset(e) for e in emb.induced_edges} == {
        frozenset(("q0", "q1")), frozenset(("q1", "q2"))}
    g = emb.graph
    assert set(g.edges) == {("q0", "q1"), ("q1", "q2")}
    assert g.weights == (1.0, 1.0, 1.0)


def test_ids_must_match_graph_order():
    with pytest.raises(InputError):
        embedding_from_positions([(0, 0), (6, 0)], DEV, ids=["a"])


def test_single_atom_embedding():
    g = WeightedGraph.from_parts(["v"], [], weights=[2.0])
    emb = layout(g, DEV)
    assert emb.register.n == 1
    assert emb.induced_edges == ()
    assert emb.register.atoms[0].detuning_weight == 2.0


def test_chain_parity_demonstration():
    # replacing an edge by a 1-ancilla chain flips the projected optimum:
    # the P3 maximum is both endpoints, which the original edge forbids.
    # An even chain keeps the projection on single endpoints.
    odd = WeightedGraph.from_parts(
        ["u", "a", "v"], [("u", "a"), ("a", "v")])
    assert [s.bitstring for s in brute_force_mwis(odd)] == ["101"]
    even = WeightedGraph.from_parts(
        ["u", "a0", "a1", "v"],
        [("u", "a0"), ("a0", "a1"), ("a1", "v")],
        weights=[1.0, 2.0, 2.0, 1.0])
    sols = {s.bitstring for s in brute_force_mwis(even)}
    assert sols == {"1010", "0101"}
    projected = {b[0] + b[3] for b in sols}
    assert projected == {"10", "01"}


def test_unit_ancilla_weight_would_tie():
    # at weight parity the augmented optimum includes the both-endpoints
    # configuration, which projects onto a violated edge; this is why
    # ancilla weights sit strictly above the endpoint weight
    tied = WeightedGraph.from_parts(
        ["u", "a0", "a1", "v"],
        [("u", "a0"), ("a0", "a1"), ("a1", "v")])
    sols = {s.bitstring for s in brute_force_mwis(tied)}
    assert "1001" in sols
    assert ANCILLA_WEIGHT_FACTOR > 1.0


def test_canonical_link_three_spacings_apart():
    g = WeightedGraph.from_parts(["u", "v"], [("u", "v")], weights=[1.5, 2.0],
                                 positions=[(0, 0), (27, 0)])
    emb = layout(g, DEV, spacing=9.0)
    assert set(emb.link_map) == {("u", "v")}
    chain = emb.link_map[("u", "v")]
    assert len(chain) == 2
    atoms = {a.id: a for a in emb.register.atoms}
    # equidistant along the straight line, weights scaled off the lighter end
    assert atoms["anc0"].x == pytest.approx(9.0)
    assert atoms["anc1"].x == pytest.approx(18.0)
    assert atoms["anc0"].y == pytest.approx(0.0, abs=1e-9)
    for name in chain:
        assert atoms[name].is_ancilla
        assert atoms[name].detuning_weight == pytest.approx(
            ANCILLA_WEIGHT_FACTOR * 1.5)
    assert emb.projected_edges() == {frozenset(("u", "v"))}


def test_chains_are_even_and_invariant_on_random_instances():
    # layout random sparse graphs, force the farthest non-adjacent pair
    # into an edge, and check the projected optimum never moves
    checked = 0
    for seed in range(10):
        rng = substream(seed, "reg-inv")
        n = int(rng.integers(4, 8))
        ids = [f"v{k}" for k in range(n)]
        edges = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.3]
        h = WeightedGraph.from_parts(ids, edges)
        try:
            base = layout(h, DEV, spacing=9.0, seed=int(rng.integers(50)))
        except InfeasibilityError:
            continue
        if base.ancilla_ids():
            continue
        pos = base.register.positions()
        have = {frozenset(e) for e in h.edges}
        cands = [(math.dist(pos[i], pos[j]), i, j)
                 for i in range(n) for j in range(i + 1, n)
                 if frozenset((ids[i], ids[j])) not in have]
        cands = [c for c in cands if c[0] >= 2.5 * 9.0]
        if not cands:
            continue
        _, i, j = max(cands)
        g = WeightedGraph.from_parts(ids, list(h.edges) + [(ids[i], ids[j])],
                                     positions=pos)
        try:
            emb = layout(g, DEV, spacing=9.0)
        except InfeasibilityError:
            continue
        if not emb.link_map:
            continue
        for chain in emb.link_map.values():
            assert len(chain) % 2 == 0
        aug = WeightedGraph.from_parts(
            list(emb.register.ids),
            sorted(tuple(e) for e in emb.induced_edges),
            weights=[a.detuning_weight for a in emb.register.atoms])
        keep = [k for k, a in enumerate(emb.register.atoms) if not a.is_ancilla]
        proj = {"".join(s.bitstring[k] for k in keep)
                for s in brute_force_mwis(aug)}
        want = {s.bitstring for s in brute_force_mwis(g)}
        assert proj == want
        checked += 1
    assert checked >= 4


def test_link_routes_around_collinear_obstruction():
    # B sits exactly on the segment between A and C, so a straight chain
    # cannot work; the router must bow the chain out
    g = WeightedGraph.from_parts(
        "abc", [("a", "b"), ("b", "c"), ("a", "c")], positions=[(0, 0), (9, 0), (18, 0)])
    emb = layout(g, DEV, spacing=9.0)
    assert emb.projected_edges() == {frozenset(e) for e in g.edges}
    assert len(emb.ancilla_ids()) >= 2
    for a in emb.register.atoms:
        if a.is_ancilla:
            assert abs(a.y) > 1.0


def test_insert_link_errors():
    g = WeightedGraph.from_parts("ab", [("a", "b")], positions=[(0, 0), (6, 0)])
    emb = layout(g, DEV, spacing=6.0)
    with pytest.raises(InputError):
        insert_quantum_link(emb, "a", "q", DEV)
    with pytest.raises(InputError):
        insert_quantum_link(emb, "a", "b", DEV)  # already blockaded


def test_hub_saturation_is_infeasible():
    # six mutually avoiding leaves cannot all sit inside the hub's disk,
    # and chains out of a saturated hub have nowhere to anchor
    ids = ["hub"] + [f"l{k}" for k in range(6)]
    g = WeightedGraph.from_parts(ids, [("hub", l) for l in ids[1:]])
    with pytest.raises(InfeasibilityError):
        layout(g, DEV, spacing=9.0, seed=0)


def test_layout_stops_early_on_a_graph_with_no_placement():
    # K_{1,6} gives no placement, chain-free or with ancillas, on any draw
    ids = ["hub"] + [f"l{k}" for k in range(6)]
    g = WeightedGraph.from_parts(ids, [("hub", l) for l in ids[1:]])
    with pytest.raises(InfeasibilityError) as info:
        layout(g, DEV, spacing=9.0, seed=0)
    assert str(info.value).count("seed ") == 5


def _layout_energy_and_gradient(pos, springs, repel, spacing):
    """The energy `_relax` minimises, and its gradient, summed pair by pair:
    (r - spacing)^2 per spring, min(0, r - t)^2 per repel triple. A
    coincident pair adds no gradient, having no direction."""
    energy, grad = 0.0, np.zeros_like(pos)
    for i, j, t, one_sided in ([(i, j, spacing, False) for i, j in springs]
                               + [(i, j, t, True) for i, j, t in repel]):
        d = pos[i] - pos[j]
        r = math.hypot(*d)
        if one_sided and r >= t:
            continue
        energy += (r - t) ** 2
        if r > 0:
            grad[i] += 2.0 * (r - t) / r * d
            grad[j] -= 2.0 * (r - t) / r * d
    return energy, grad


@st.composite
def relax_problems(draw):
    """Atoms at points of a small grid, so that some may coincide or line
    up; every pair a spring, a plain non-edge or a linked pair, as `layout`
    passes them."""
    n = draw(st.integers(2, 7))
    spacing = draw(st.sampled_from([6.0, 9.0]))
    cells = st.integers(0, 2 * n + 2)
    pos = np.array(draw(st.lists(st.tuples(cells, cells), min_size=n, max_size=n)),
                   dtype=float) * spacing / 2.0
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    kinds = draw(st.lists(st.sampled_from("snl"), min_size=len(pairs), max_size=len(pairs)))
    springs = [p for p, k in zip(pairs, kinds) if k == "s"]
    repel = [(i, j, (NONEDGE_TARGET if k == "n" else LINK_TARGET) * spacing)
             for (i, j), k in zip(pairs, kinds) if k != "s"]
    return pos, springs, repel, spacing


def _relax_matrices(n, springs, repel, spacing):
    """`_relax`'s target and one-sided matrices for spring pairs and repel
    triples (i, j, t), as `layout` builds them from its edge matrices."""
    target, one_sided = np.zeros((n, n)), np.zeros((n, n), dtype=bool)
    for i, j, t, repels in ([(i, j, spacing, False) for i, j in springs]
                            + [(i, j, t, True) for i, j, t in repel]):
        target[i, j] = target[j, i] = t
        one_sided[i, j] = one_sided[j, i] = repels
    return target, one_sided


@given(relax_problems())
@settings(max_examples=60, deadline=None)
def test_relax_energy_never_rises(problem):
    # one iteration per call: the iteration depends on the positions alone
    pos, springs, repel, spacing = problem
    target, one_sided = _relax_matrices(len(pos), springs, repel, spacing)
    energy, _ = _layout_energy_and_gradient(pos, springs, repel, spacing)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("rydock.register.LAYOUT_MAX_ITERS", 1)
        for _ in range(40):
            pos = _relax(pos, target, one_sided, spacing)
            following, _ = _layout_energy_and_gradient(pos, springs, repel, spacing)
            assert following <= energy * (1.0 + 1e-12) + 1e-12
            energy = following


@given(relax_problems())
@settings(max_examples=60, deadline=None)
def test_relax_ends_stationary(problem):
    # A relaxation that stops before its cap has moved no atom more than
    # LAYOUT_TOL * spacing in its last iteration. One iteration moves each
    # atom by its energy gradient times -1/(2n), and the moves shrink, so
    # where it stops the gradient over 2n is within that tolerance too.
    # About one problem in fifty creeps toward a zero-energy placement, its
    # moves shrinking like 1/iterations, and takes the cap; those are skipped.
    pos, springs, repel, spacing = problem
    iterations, distance_matrix = [0], rydock.register._distance_matrix

    def counted(p):
        iterations[0] += 1
        return distance_matrix(p)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("rydock.register.LAYOUT_MAX_ITERS", 5000)
        mp.setattr("rydock.register._distance_matrix", counted)
        got = _relax(pos, *_relax_matrices(len(pos), springs, repel, spacing), spacing)
    assume(iterations[0] < 5000)
    _, grad = _layout_energy_and_gradient(got, springs, repel, spacing)
    step = np.hypot(grad[:, 0], grad[:, 1]) / (2 * len(pos))
    assert step.max() <= LAYOUT_TOL * spacing


def test_layout_ok_needs_linked_pairs_two_and_a_half_spacings_apart():
    # a linked pair exactly 2.5 spacings apart can take a chain; one a
    # rounding step closer cannot
    spacing = 9.0
    linked = np.array([[False, True], [True, False]])
    for x, ok in ((2.5 * spacing, True), (np.nextafter(2.5 * spacing, 0.0), False)):
        dist = _distance_matrix(np.array([[0.0, 0.0], [x, 0.0]]))
        assert _layout_ok(dist, np.zeros_like(linked), linked, spacing, DEV) is ok


@st.composite
def banded_edge_sets(draw):
    """Atoms at least the hardware minimum apart, a symmetric edge matrix
    over them with a usable Rabi band, and a device whose omega_max may cap
    the band's top. A band is usable only where every intended pair is
    shorter than every other pair, so the edge sets are the pairs up to a
    drawn cut: none, all, or any count between."""
    n = draw(st.integers(1, 7))
    coord = st.floats(0.0, 45.0)
    pos = np.array(draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n)))
    dist = _distance_matrix(pos.reshape(n, 2))
    iu = np.triu_indices(n, 1)
    assume(n == 1 or dist[iu].min() >= DEV.min_spacing)
    cut = draw(st.sampled_from([0.0, *dist[iu].tolist()]))
    edges = (dist <= cut) & ~np.eye(n, dtype=bool)
    dev = DeviceParams(omega_max=draw(st.sampled_from([15.7, 4.0, 0.5])))
    assume(_usable(*_band(dist, edges, dev)))
    return pos.reshape(n, 2), edges, dev


def _pair(d):
    return np.array([[False, d], [d, False]])


@given(banded_edge_sets())
@settings(max_examples=300, deadline=None)
# omega_max caps hi; lo = 0 (every pair an edge); no edge at all
@example((np.array([[0.0, 0.0], [5.0, 0.0], [30.0, 0.0]]),
          np.array([[False, True, False], [True, False, False], [False, False, False]]),
          DEV))
@example((np.array([[0.0, 0.0], [6.0, 0.0]]), _pair(True), DEV))
@example((np.array([[0.0, 0.0], [20.0, 0.0]]), _pair(False), DEV))
def test_a_usable_band_realises_exactly_the_intended_edges(case):
    # _embedding_for's radius sits between the longest intended edge and
    # the shortest other pair with 1.05^(1/12) to spare on either side, so
    # its disk graph needs no comparison with the intended edges
    pos, edges, dev = case
    reg = Register(atoms=tuple(Atom(f"a{k}", x, y) for k, (x, y) in enumerate(pos.tolist())))
    emb = _embedding_for(reg, dev, 6.0, edges)
    assert np.array_equal(_edge_matrix(reg.ids, emb.induced_edges), edges)
    iu = np.triu_indices(reg.n, 1)
    d, e = reg.distances()[iu], edges[iu]
    margin = 1.05 ** (1.0 / 12.0) * (1.0 - 1e-12)
    if e.any():
        assert emb.blockade_radius >= margin * d[e].max()
    if not e.all():
        assert d[~e].min() >= margin * emb.blockade_radius


def test_layout_projects_onto_exactly_the_graph_edges():
    # `direct | linked` is the graph's edge set and each chain realises its
    # own path alone, so every placement projects onto exactly g.edges
    rng = np.random.default_rng(1)
    graphs = [WeightedGraph.from_parts(["u", "v", "w"], [("u", "v"), ("v", "w")],
                                       positions=[(0, 0), (27, 0), (27, 9)])]
    for _ in range(20):
        n = int(rng.integers(3, 8))
        ids = [f"v{k}" for k in range(n)]
        edges = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.5]
        graphs.append(WeightedGraph.from_parts(ids, edges, weights=rng.uniform(0.5, 2.0, n)))
    placed = chained = 0
    for g in graphs:
        for spacing, seed in ((6.0, 0), (9.0, 1)):
            try:
                emb = layout(g, DEV, spacing=spacing, seed=seed)
            except InfeasibilityError:
                continue
            assert emb.projected_edges() == {frozenset(e) for e in g.edges}
            ancillas = set(emb.ancilla_ids())
            paths = {frozenset(step) for (u, v), chain in emb.link_map.items()
                     for step in zip((u, *chain), (*chain, v))}
            assert {frozenset(e) for e in emb.induced_edges if set(e) & ancillas} == paths
            placed += 1
            chained += bool(emb.link_map)
    assert placed >= 36 and chained >= 4


def test_layout_path_band_nonempty():
    g = WeightedGraph.from_parts("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    emb = layout(g, DEV, spacing=6.0, seed=0)
    lo, hi = omega_bounds(emb, DEV)
    assert lo < hi
    assert emb.projected_edges() == {frozenset(e) for e in g.edges}
    assert emb.register.min_distance() >= DEV.min_spacing


def test_layout_deterministic():
    g = WeightedGraph.from_parts("abcde", [("a", "b"), ("b", "c"),
                                           ("c", "d"), ("d", "e"), ("a", "e")])
    e1 = layout(g, DEV, spacing=7.0, seed=3)
    e2 = layout(g, DEV, spacing=7.0, seed=3)
    assert np.allclose(e1.register.positions(), e2.register.positions())


def test_layout_random_graphs_realize_edges():
    rng = np.random.default_rng(31)
    done = 0
    for _ in range(12):
        n = int(rng.integers(3, 8))
        ids = [f"v{k}" for k in range(n)]
        edges = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.35]
        g = WeightedGraph.from_parts(ids, edges,
                                     weights=rng.uniform(0.5, 2.0, n))
        try:
            emb = layout(g, DEV, spacing=9.0, seed=int(rng.integers(100)))
        except InfeasibilityError:
            continue
        assert emb.projected_edges() == {frozenset(e) for e in g.edges}
        assert emb.register.min_distance() >= DEV.min_spacing
        done += 1
    assert done >= 6


def test_layout_prefers_chain_free_seeds():
    # first-seed placements that need a chain must lose to later flat ones
    g = WeightedGraph.from_parts(
        [f"c{k}" for k in range(6)],
        [("c0", "c1"), ("c0", "c2"), ("c0", "c3"), ("c1", "c4"),
         ("c2", "c5"), ("c3", "c4"), ("c3", "c5")])
    for seed in range(3):
        try:
            emb = layout(g, DEV, spacing=9.0, seed=seed)
        except InfeasibilityError:
            continue
        assert emb.ancilla_ids() == ()


def _fixture_complement():
    """The graph `embed` lays out in the fixture chain `dock -> embed`."""
    return complement(build_binding_graph(load_molecule(FIXTURES / "acetic_acid.json"),
                                          load_molecule(FIXTURES / "ethylene_glycol.json"),
                                          default_table(), tau=DEFAULTS["tau"]))


def test_layout_keeps_drawing_seeds_for_a_chain_free_placement():
    # seed 11 of the fixture complement graph finds its first chain-free
    # placement only after five draws; settling then cost 6 ancillas
    emb = layout(_fixture_complement(), DEV, spacing=DEFAULTS["spacing"], seed=11)
    assert emb.ancilla_ids() == ()
    assert emb.register.n == 6


def test_layout_routes_no_chain_of_a_draw_it_discards(monkeypatch):
    # seed 9's first draws need chains (routing them took four
    # insert_quantum_link calls), and a later one, still before
    # LAYOUT_BARREN_DRAWS, is chain-free: the chained draws are held and
    # never routed, since the chain-free one wins
    calls = []
    inner = rydock.register.insert_quantum_link
    monkeypatch.setattr(rydock.register, "insert_quantum_link",
                        lambda *a, **k: calls.append(a[1:3]) or inner(*a, **k))
    emb = layout(_fixture_complement(), DEV, spacing=DEFAULTS["spacing"], seed=9)
    assert emb.ancilla_ids() == ()
    assert calls == []
    # a graph that needs a chain at every draw still routes them
    six = complement(load_graph(FIXTURES / "six_node.json"))
    assert layout(six, DEV, spacing=6.0, seed=1).ancilla_ids()
    assert calls


def test_layout_relaxes_a_held_draw_no_further_than_needed(monkeypatch):
    # seed 9's first four draws fail their first relaxation, so none can be
    # chain-free; each is held after that round, and the fifth draw is
    # chain-free, so their remaining relaxations never run: 5 `_relax` calls,
    # where finishing every draw before holding it took 9
    calls = []
    inner = rydock.register._relax
    monkeypatch.setattr(rydock.register, "_relax",
                        lambda *a: calls.append(1) or inner(*a))
    emb = layout(_fixture_complement(), DEV, spacing=DEFAULTS["spacing"], seed=9)
    assert emb.ancilla_ids() == ()
    assert len(calls) == 5


def test_fixture_layouts_are_chain_free_at_one_band_ratio():
    # seeds 0-19 of the fixture complement graph at the CLI spacing, a
    # subset of the seeds 0-59 that tests/measure_layout.py reports
    g = _fixture_complement()
    for seed in range(20):
        emb = layout(g, DEV, spacing=DEFAULTS["spacing"], seed=seed)
        lo, hi = omega_bounds(emb, DEV)
        assert emb.ancilla_ids() == ()
        assert f"{hi / lo:.4f}" == "5.6825"


@st.composite
def embedding_and_histogram(draw):
    flags = draw(st.lists(st.booleans(), min_size=1, max_size=8))
    flags[draw(st.integers(0, len(flags) - 1))] = False  # one real vertex
    atoms = tuple(Atom(f"a{k}", 9.0 * k, 0.0, is_ancilla=f)
                  for k, f in enumerate(flags))
    emb = Embedding(register=Register(atoms=atoms), blockade_radius=12.0,
                    induced_edges=(), spacing=9.0)
    bits = st.text(alphabet="01", min_size=len(flags), max_size=len(flags))
    counts = draw(st.dictionaries(bits, st.integers(1, 50), min_size=1, max_size=16))
    return emb, Histogram(shots=sum(counts.values()), counts=counts)


@settings(max_examples=100, deadline=None)
@given(case=embedding_and_histogram())
def test_strip_ancillas_keeps_the_shot_count(case):
    emb, hist = case
    out = strip_ancillas(hist, emb)
    assert out.shots == hist.shots
    assert sum(out.counts.values()) == hist.shots
    assert {len(bits) for bits in out.counts} == {len(emb.register.atoms) - len(emb.ancilla_ids())}


def test_strip_ancillas_hand_case():
    g = WeightedGraph.from_parts(["u", "v"], [("u", "v")])
    reg = Register(atoms=(
        Atom("u", 0, 0), Atom("anc0", 9, 0, is_ancilla=True), Atom("v", 18, 0)),
        origin_graph=g)
    emb = Embedding(register=reg, blockade_radius=12.0,
                    induced_edges=(("u", "anc0"), ("anc0", "v")),
                    link_map={("u", "v"): ("anc0",)}, spacing=9.0)
    out = strip_ancillas(Histogram(shots=5, counts={"101": 5}), emb)
    assert out.counts == {"11": 5}
    assert out.shots == 5
    with pytest.raises(InputError):
        strip_ancillas(Histogram(shots=1, counts={"10": 1}), emb)


def test_strip_ancillas_identity_and_conservation():
    flat = layout(WeightedGraph.from_parts("ab", [("a", "b")], positions=[(0, 0), (6, 0)]),
                  DEV, spacing=6.0)
    h = Histogram(shots=4, counts={"01": 1, "10": 3})
    assert strip_ancillas(h, flat) is h

    linked = layout(WeightedGraph.from_parts(["a", "b"], [("a", "b")],
                                             positions=[(0, 0), (27, 0)]),
                    DEV, spacing=9.0)
    rng = np.random.default_rng(41)
    n = linked.register.n
    for _ in range(10):
        raw = {}
        for _ in range(6):
            bits = "".join(rng.choice(["0", "1"], size=n))
            raw[bits] = raw.get(bits, 0) + int(rng.integers(1, 30))
        h = Histogram(shots=sum(raw.values()), counts=raw)
        out = strip_ancillas(h, linked)
        assert sum(out.counts.values()) == h.shots
        assert all(len(b) == 2 for b in out.counts)


def test_save_load_roundtrip(tmp_path):
    g = WeightedGraph.from_parts(["u", "v"], [("u", "v")], weights=[1.5, 2.0],
                                 positions=[(0, 0), (27, 0)])
    emb = layout(g, DEV, spacing=9.0)
    path = tmp_path / "reg.json"
    save_register(emb, path, meta={"note": "kept"})
    back = load_register(path, DEV)
    assert back.register.ids == emb.register.ids
    assert back.blockade_radius == pytest.approx(emb.blockade_radius)
    assert {frozenset(e) for e in back.induced_edges} == \
        {frozenset(e) for e in emb.induced_edges}
    assert back.link_map == emb.link_map
    assert back.spacing == emb.spacing
    assert [a.detuning_weight for a in back.register.atoms] == \
        [a.detuning_weight for a in emb.register.atoms]
    assert back.graph.edges == g.edges
    with pytest.raises(InputError):
        load_register(tmp_path / "missing.json", DEV)


def test_load_register_checks_stored_radius(tmp_path):
    g = WeightedGraph.from_parts(["u", "v", "w"], [("u", "v"), ("v", "w")],
                                 positions=[(0, 0), (9, 0), (18, 0)])
    emb = layout(g, DEV, spacing=9.0)
    path = tmp_path / "reg.json"
    save_register(emb, path)
    assert load_register(path, DEV).projected_edges() == {frozenset(e) for e in g.edges}
    doc = json.loads(path.read_text())
    # too small a radius drops both edges; too large a one adds (u, w)
    for radius in (1.0, 100.0):
        doc["blockade_radius"] = radius
        path.write_text(json.dumps(doc))
        with pytest.raises(InfeasibilityError):
            load_register(path, DEV)


def test_embedding_without_origin_graph():
    reg = Register(atoms=(Atom("a", 0, 0),))
    emb = Embedding(register=reg, blockade_radius=8.0, induced_edges=())
    with pytest.raises(InputError):
        emb.graph


def _placement_digest(embs):
    """sha256 over every placement's atoms, radius, induced edges, links,
    spacing and Rabi band, with each float at full precision."""
    h = hashlib.sha256()
    for emb in embs:
        atoms = [(a.id, float(a.x), float(a.y), float(a.detuning_weight), a.is_ancilla)
                 for a in emb.register.atoms]
        links = sorted((k, tuple(v)) for k, v in emb.link_map.items())
        band = tuple(float(b) for b in omega_bounds(emb, DEV))
        h.update(repr((atoms, float(emb.blockade_radius), tuple(emb.induced_edges),
                       links, float(emb.spacing), band)).encode())
    return h.hexdigest()


PINNED_PLACEMENTS = "1790243892b28a2bbe4b5d1ecd2bf9e40743885b9b10d17d0711a27a2c7eccbe"
# the 125 corpus registers alone: placed explicitly, never by `layout`
PINNED_CORPUS = "496776f673f0b276f154d9de4dbec278c72af6e2263e481104fe77d4169c8253"
# graphs that carry positions (and a lone vertex), laid out as placed
PINNED_POSITIONED = "2369be6611aac002462e837fcc03549101784c6d1321aecf8e1ae02f20fbe12d"


def test_corpus_placements_are_pinned():
    embs = [entry.embedding for entry in generate_corpus(DEV)]
    assert _placement_digest(embs) == PINNED_CORPUS


def _positioned_placements():
    """Graphs that carry positions, laid out as placed: the three positioned
    fixtures at 9 um, five_node at 6 um, a two-vertex edge 27 um long (routed
    as a link) and one weighted lone vertex."""
    embs = [layout(load_graph(FIXTURES / f"{name}.json"), DEV, spacing=9.0)
            for name in ("five_node", "six_node", "eight_node")]
    embs.append(layout(load_graph(FIXTURES / "five_node.json"), DEV, spacing=6.0))
    embs.append(layout(WeightedGraph.from_parts(["u", "v"], [("u", "v")],
                                                positions=[(0, 0), (27, 0)]),
                       DEV, spacing=9.0))
    embs.append(layout(WeightedGraph.from_parts(["v"], [], weights=[2.0]), DEV))
    return embs


def test_positioned_placements_are_pinned():
    embs = _positioned_placements()
    assert embs[4].link_map and embs[5].register.n == 1
    assert _placement_digest(embs) == PINNED_POSITIONED


def test_placements_are_pinned():
    # the fixture complement graph at seeds 0-5, two complement(six_node)
    # layouts that route ancilla chains, and the 125 corpus registers
    g = _fixture_complement()
    embs = [layout(g, DEV, spacing=DEFAULTS["spacing"], seed=s)
            for s in range(6)]
    six = complement(load_graph(FIXTURES / "six_node.json"))
    chained = [layout(six, DEV, spacing=6.0, seed=s) for s in (1, 4)]
    assert all(emb.link_map for emb in chained)
    embs += chained
    embs += [entry.embedding for entry in generate_corpus(DEV)]
    assert _placement_digest(embs) == PINNED_PLACEMENTS


def test_ancilla_names_skip_vertex_ids():
    # a vertex named like the first ancilla keeps its name; the chain
    # counts on past it
    g = WeightedGraph.from_parts(["anc0", "v"], [("anc0", "v")], positions=[(0, 0), (27, 0)])
    emb = layout(g, DEV, spacing=9.0)
    assert emb.register.ids == ("anc0", "v", "anc1", "anc2")
    assert emb.link_map == {("anc0", "v"): ("anc1", "anc2")}
    assert emb.ancilla_ids() == ("anc1", "anc2")
    assert emb.projected_edges() == {frozenset(("anc0", "v"))}


def test_link_keys_with_a_tilde_round_trip(tmp_path):
    g = WeightedGraph.from_parts(["a~x", "v"], [("a~x", "v")], positions=[(0, 0), (27, 0)])
    emb = layout(g, DEV, spacing=9.0)
    path = tmp_path / "reg.json"
    save_register(emb, path)
    assert json.loads(path.read_text())["meta"]["links"] == {"a~x~v": ["anc0", "anc1"]}
    back = load_register(path, DEV)
    assert back.link_map == emb.link_map
    assert back.induced_edges == emb.induced_edges


def test_load_register_refuses_unreadable_radius_and_link_keys(tmp_path):
    # a register file has to store its radius, and each link key has to
    # split at one "~" into two atom ids in exactly one way
    g = WeightedGraph.from_parts(["u", "v"], [("u", "v")], positions=[(0, 0), (27, 0)])
    emb = layout(g, DEV, spacing=9.0)
    path = tmp_path / "reg.json"
    save_register(emb, path)
    good = json.loads(path.read_text())
    bad = [{k: v for k, v in good.items() if k != "blockade_radius"},
           {**good, "blockade_radius": 0.0}]
    for key in ("u~w", "u-v", "u~anc0~v"):
        bad.append({**good, "meta": {**good["meta"], "links": {key: ["anc0", "anc1"]}}})
    # "p~q~r" splits into atoms "p", "q~r" and into "p~q", "r"
    ambiguous = json.loads(json.dumps(good))
    for atom, name in zip(ambiguous["atoms"], ("p", "p~q", "q~r", "r")):
        atom["id"] = name
    ambiguous["meta"] = {"links": {"p~q~r": []}}
    for doc in bad + [ambiguous]:
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError, match=re.escape(str(path))):
            load_register(path, DEV)


def _hypot_calls(tree):
    """Lines of every call of hypot, by bare name or as an attribute."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and "hypot" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))]


def test_only_register_computes_distances():
    # atom-pair distances come from Register.distances and its helper alone
    src = Path(rydock.register.__file__).resolve().parent
    offenders = [f"{path.relative_to(src).as_posix()}:{line}"
                 for path in sorted(src.rglob("*.py")) if path.name != "register.py"
                 for line in _hypot_calls(ast.parse(path.read_text()))]
    assert offenders == []
    code = "import numpy as np\nfrom math import hypot\nnp.hypot(1, 2)\nhypot(3, 4)\n"
    assert _hypot_calls(ast.parse(code)) == [3, 4]


def test_measure_layout_script_runs(capsys):
    # the counting scan behind `_relax`'s iteration and placement figures
    measure_layout.main(["--seeds", "1", "--repeats", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["graph", "seed", "draws", "relax", "iters", "anc",
                                "hi/lo", "ms"]
    rows = [line.split() for line in lines[1:4]]
    assert [r[:2] for r in rows] == [["fixture", "1"], ["six_node", "1"], ["six_node", "4"]]
    assert rows[0][2:4] == ["1", "1"] and rows[0][5:7] == ["0", "5.6825"]
    assert [r[5] for r in rows[1:]] == ["4", "4"]
    assert lines[4].startswith("fixture: 1/1 chain-free, hi/lo median 5.6825")
