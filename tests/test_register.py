"""Registers, blockade bands, layout, and quantum links.

Chain parity and the ancilla-weight rule get brute-force demonstrations on
hand-built augmented graphs, since those are the properties the physics
depends on and the easiest to get silently wrong.
"""

import json
import math

import numpy as np
import pytest

from rydock.errors import InfeasibilityError, InputError
from rydock.graphs import WeightedGraph, brute_force_mwis
from rydock.histogram import Histogram
from rydock.register import (
    ANCILLA_WEIGHT_FACTOR,
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
from rydock.rng import substream

DEV = DeviceParams()


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
    reg = Register(atoms=(Atom("a", 0, 0), Atom("b", 3, 4)))
    assert reg.pair_distances() == {("a", "b"): pytest.approx(5.0)}
    assert reg.min_distance() == pytest.approx(5.0)


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
        induced = {frozenset(p) for p, d in
                   emb.register.pair_distances().items() if d < r}
        assert induced == sides


def test_empty_band_raises():
    # direct diagonal demanded alongside an equal-length non-edge
    g = WeightedGraph.from_parts(
        "abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"), ("a", "c")])
    pts = [(0, 0), (6, 0), (6, 6), (0, 6)]
    with pytest.raises(InfeasibilityError):
        embedding_from_positions(pts, DEV, ids="abcd", spacing=6.0, graph=g)


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
    g = WeightedGraph.from_parts("ab", [("a", "b")])
    with pytest.raises(InputError):
        embedding_from_positions([(0, 0), (6, 0)], DEV, ids=["b", "a"], graph=g)
    with pytest.raises(InputError):
        embedding_from_positions([(0, 0), (6, 0)], DEV, ids=["a"], graph=None)


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
    g = WeightedGraph.from_parts(["u", "v"], [("u", "v")], weights=[1.5, 2.0])
    emb = embedding_from_positions([(0, 0), (27, 0)], DEV, ids=["u", "v"],
                                   spacing=9.0, graph=g)
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
        g = WeightedGraph.from_parts(ids, list(h.edges) + [(ids[i], ids[j])])
        try:
            emb = embedding_from_positions(pos, DEV, ids=ids, spacing=9.0,
                                           graph=g)
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
        "abc", [("a", "b"), ("b", "c"), ("a", "c")])
    pts = [(0, 0), (9, 0), (18, 0)]
    emb = embedding_from_positions(pts, DEV, ids="abc", spacing=9.0, graph=g)
    assert emb.projected_edges() == {frozenset(e) for e in g.edges}
    assert len(emb.ancilla_ids()) >= 2
    for a in emb.register.atoms:
        if a.is_ancilla:
            assert abs(a.y) > 1.0


def test_insert_link_errors():
    g = WeightedGraph.from_parts("ab", [("a", "b")])
    emb = embedding_from_positions([(0, 0), (6, 0)], DEV, ids="ab",
                                   spacing=6.0, graph=g)
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
    g = WeightedGraph.from_parts("ab", [("a", "b")])
    flat = embedding_from_positions([(0, 0), (6, 0)], DEV, ids="ab",
                                    spacing=6.0, graph=g)
    h = Histogram(shots=4, counts={"01": 1, "10": 3})
    assert strip_ancillas(h, flat) is h

    linked = embedding_from_positions([(0, 0), (27, 0)], DEV, ids=["a", "b"],
                                      spacing=9.0, graph=WeightedGraph.from_parts(
                                          ["a", "b"], [("a", "b")]))
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
    g = WeightedGraph.from_parts(["u", "v"], [("u", "v")], weights=[1.5, 2.0])
    emb = embedding_from_positions([(0, 0), (27, 0)], DEV, ids=["u", "v"],
                                   spacing=9.0, graph=g)
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
    g = WeightedGraph.from_parts(["u", "v", "w"], [("u", "v"), ("v", "w")])
    emb = embedding_from_positions([(0, 0), (9, 0), (18, 0)], DEV,
                                   spacing=9.0, graph=g)
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
