"""Graph types and the exact solvers, cross-checked against an independent
subset enumerator written here and never shared with the library."""

import itertools
import math

import numpy as np
import pytest

from rydock.errors import InputError
from rydock.graphs import (
    SIZE_CAP,
    VertexSubset,
    WeightedGraph,
    brute_force_mwis,
    complement,
    load_graph,
    max_weight_clique,
    save_graph,
)


def oracle_mwis(g):
    """All maximum-weight independent sets by direct subset enumeration.

    Deliberately a different algorithm from the library's vectorised mask
    sweep: explicit combinations with pairwise edge checks.
    """
    index = {v: k for k, v in enumerate(g.vertex_ids)}
    adj = {v: set() for v in g.vertex_ids}
    for (u, v) in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    best_w = -1.0
    best = []
    for r in range(g.n + 1):
        for combo in itertools.combinations(g.vertex_ids, r):
            chosen = set(combo)
            if any(not adj[u].isdisjoint(chosen) for u in combo):
                continue
            w = sum(g.weights[index[u]] for u in combo)
            if w > best_w + 1e-12:
                best_w, best = w, [chosen]
            elif abs(w - best_w) <= 1e-12:
                best.append(chosen)
    out = ["".join("1" if v in s else "0" for v in g.vertex_ids) for s in best]
    return sorted(out)


def random_graph(rng, n_max=10, weighted=True):
    n = int(rng.integers(1, n_max + 1))
    ids = [f"v{k}" for k in range(n)]
    p = rng.uniform(0.1, 0.7)
    edges = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    weights = rng.uniform(0.5, 3.0, size=n) if weighted else None
    return WeightedGraph.from_parts(ids, edges, weights=weights)


def bitstrings(solutions):
    return [s.bitstring for s in solutions]


def test_triangle_mwis_is_every_singleton():
    g = WeightedGraph.from_parts("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    assert bitstrings(brute_force_mwis(g)) == ["001", "010", "100"]


def test_path4_mwis_ties():
    g = WeightedGraph.from_parts("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    assert bitstrings(brute_force_mwis(g)) == ["0101", "1001", "1010"]


def test_weighted_star_prefers_heavy_center():
    g = WeightedGraph.from_parts(
        ["hub", "x", "y", "z"],
        [("hub", "x"), ("hub", "y"), ("hub", "z")],
        weights=[5.0, 1.0, 1.0, 1.0],
    )
    sols = brute_force_mwis(g)
    assert bitstrings(sols) == ["1000"]
    assert sols[0].members == frozenset({"hub"})
    assert sols[0].weight(g) == 5.0


def test_empty_edge_set_takes_everything():
    g = WeightedGraph.from_parts("abc", [])
    assert bitstrings(brute_force_mwis(g)) == ["111"]


def test_mwis_matches_oracle_on_random_graphs():
    rng = np.random.default_rng(7)
    for _ in range(150):
        g = random_graph(rng, n_max=9)
        assert bitstrings(brute_force_mwis(g)) == oracle_mwis(g)


def test_clique_solver_agrees_with_complement_route():
    rng = np.random.default_rng(11)
    for _ in range(80):
        g = random_graph(rng, n_max=9)
        direct = bitstrings(max_weight_clique(g))
        dual = bitstrings(brute_force_mwis(complement(g)))
        assert direct == dual


def test_complement_involution():
    rng = np.random.default_rng(3)
    for _ in range(40):
        g = random_graph(rng, n_max=10)
        gg = complement(complement(g))
        assert gg.edges == g.edges
        assert gg.weights == g.weights
        assert gg.vertex_ids == g.vertex_ids


def test_complement_edge_counts_add_up():
    rng = np.random.default_rng(5)
    for _ in range(40):
        g = random_graph(rng, n_max=10)
        assert len(g.edges) + len(complement(g).edges) == g.n * (g.n - 1) // 2


def test_every_solution_is_independent():
    def independent(s, g):
        return not any(u in s.members and v in s.members for (u, v) in g.edges)

    rng = np.random.default_rng(13)
    for _ in range(30):
        g = random_graph(rng)
        for s in brute_force_mwis(g):
            assert independent(s, g)
        for s in max_weight_clique(g):
            assert independent(s, complement(g))


def test_vertex_subset_roundtrip():
    g = WeightedGraph.from_parts("abcd", [], weights=[1.0, 2.0, 3.0, 4.0])
    s = VertexSubset.from_bitstring(g, "0101")
    assert s.members == {"b", "d"}
    assert s.bitstring == "0101"
    assert s.weight(g) == 6.0
    with pytest.raises(InputError):
        VertexSubset.from_bitstring(g, "01")
    with pytest.raises(InputError):
        VertexSubset.from_bitstring(g, "01x1")


def test_bit_convention_leftmost_is_first_vertex():
    g = WeightedGraph.from_parts(["first", "second"], [])
    s = VertexSubset.from_bitstring(g, "10")
    assert s.members == {"first"}


def test_construction_validation():
    with pytest.raises(InputError):
        WeightedGraph.from_parts("aa", [])
    with pytest.raises(InputError):
        WeightedGraph.from_parts("ab", [], weights=[1.0, -2.0])
    with pytest.raises(InputError):
        WeightedGraph.from_parts("ab", [], weights=[1.0, 0.0])
    with pytest.raises(InputError):
        WeightedGraph.from_parts("ab", [("a", "a")])
    with pytest.raises(InputError):
        WeightedGraph.from_parts("ab", [("a", "q")])
    with pytest.raises(InputError):
        WeightedGraph.from_parts("ab", [("a", "b"), ("b", "a")])
    with pytest.raises(InputError):
        brute_force_mwis(WeightedGraph.from_parts(
            [f"v{k}" for k in range(SIZE_CAP + 1)], []))


def has_edge(g, u, v) -> bool:
    i, j = g.vertex_ids.index(u), g.vertex_ids.index(v)
    if i > j:
        u, v = v, u
    return (u, v) in set(g.edges)


def test_from_parts_normalizes_edge_order():
    g = WeightedGraph.from_parts("abc", [("c", "a")])
    assert g.edges == (("a", "c"),)
    assert has_edge(g, "c", "a")
    assert not has_edge(g, "a", "b")


def test_save_load_roundtrip(tmp_path):
    g = WeightedGraph.from_parts(
        "abc", [("a", "b")], weights=[1.0, 2.0, 0.5],
        positions=[(0, 0), (6, 0), (0, 6)],
    )
    path = tmp_path / "g.json"
    save_graph(g, path, meta={"note": "ignored on load"})
    g2 = load_graph(path)
    assert g2 == g


def test_load_graph_errors(tmp_path):
    with pytest.raises(InputError):
        load_graph(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError):
        load_graph(bad)
    nolist = tmp_path / "nolist.json"
    nolist.write_text("[1, 2]")
    with pytest.raises(InputError):
        load_graph(nolist)
