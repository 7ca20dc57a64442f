"""Weighted graphs, complements, and exact brute-force solvers.

These types are the lingua franca of the pipeline: docking produces a
binding graph, registers embed its complement, and every quantum result is
checked against the exact solvers below.

Bit conventions used everywhere downstream: vertex order is fixed at
construction, bit k of an integer mask is vertex k, and the leftmost
character of a bitstring is vertex 0; `bitstrings` is the one rendering.
`independent_weights` is the one independence test: the per-graph table of
w(C) that `brute_force_mwis` maximises and `optimize.score` reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import files
from .errors import InputError

SIZE_CAP = 24


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph with positive vertex weights.

    `edges` are stored with endpoints ordered by vertex index; `positions`
    (optional, micrometres) mark geometric graphs whose coordinates should be
    reused by register layout.
    """

    vertex_ids: tuple
    weights: tuple
    edges: tuple
    positions: tuple | None = None

    def __post_init__(self):
        ids = self.vertex_ids
        if len(set(ids)) != len(ids):
            raise InputError("duplicate vertex ids")
        if len(self.weights) != len(ids):
            raise InputError("weights length does not match vertex count")
        for w in self.weights:
            if not (np.isfinite(w) and w > 0):
                raise InputError(f"vertex weights must be positive, got {w}")
        index = {v: k for k, v in enumerate(ids)}
        seen = set()
        for (u, v) in self.edges:
            if u not in index or v not in index:
                raise InputError(f"edge ({u}, {v}) references unknown vertex")
            if u == v:
                raise InputError(f"self-loop on {u}")
            if index[u] > index[v]:
                raise InputError(f"edge ({u}, {v}) not in vertex order")
            if (u, v) in seen:
                raise InputError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
        if self.positions is not None:
            if len(self.positions) != len(ids):
                raise InputError("positions length does not match vertex count")
            if not np.isfinite(self.positions).all():
                raise InputError("positions must be finite")

    @classmethod
    def from_parts(cls, ids, edges, weights=None, positions=None):
        """Build a graph, normalising edge endpoint order."""
        ids = tuple(str(v) for v in ids)
        index = {v: k for k, v in enumerate(ids)}
        if weights is None:
            weights = (1.0,) * len(ids)
        norm = []
        for e in edges:
            u, v = map(str, e)
            if u not in index or v not in index:
                raise InputError(f"edge ({u}, {v}) references unknown vertex")
            if index[u] > index[v]:
                u, v = v, u
            norm.append((u, v))
        return cls(
            vertex_ids=ids,
            weights=tuple(float(w) for w in weights),
            edges=tuple(norm),
            positions=tuple((float(x), float(y)) for x, y in positions) if positions is not None else None,
        )

    @property
    def n(self) -> int:
        return len(self.vertex_ids)

    def adjacency_masks(self) -> list:
        """Per-vertex neighbour bitmasks (bit k = vertex k)."""
        index = {v: k for k, v in enumerate(self.vertex_ids)}
        masks = [0] * self.n
        for (u, v) in self.edges:
            i, j = index[u], index[v]
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        return masks

    def total_weight(self) -> float:
        return float(sum(self.weights))


@dataclass(frozen=True)
class VertexSubset:
    """A subset of vertices together with its bitstring rendering.

    The bitstring is ordered by the owning graph's vertex order: leftmost
    character = first vertex.
    """

    members: frozenset
    bitstring: str

    @classmethod
    def from_bitstring(cls, g: WeightedGraph, bits: str) -> "VertexSubset":
        if len(bits) != g.n or set(bits) - {"0", "1"}:
            raise InputError(f"bad bitstring {bits!r} for {g.n} vertices")
        members = frozenset(v for v, b in zip(g.vertex_ids, bits) if b == "1")
        return cls(members=members, bitstring=bits)

    def weight(self, g: WeightedGraph) -> float:
        return float(sum(w for v, w in zip(g.vertex_ids, g.weights) if v in self.members))


def complement(g: WeightedGraph) -> WeightedGraph:
    """Complement graph: same vertices and weights, inverted edge set.

    Positions do not carry over; they describe the original geometry.
    """
    present = set(g.edges)
    edges = []
    for i in range(g.n):
        for j in range(i + 1, g.n):
            e = (g.vertex_ids[i], g.vertex_ids[j])
            if e not in present:
                edges.append(e)
    return WeightedGraph(
        vertex_ids=g.vertex_ids,
        weights=g.weights,
        edges=tuple(edges),
    )


def _check_cap(g: WeightedGraph):
    if g.n > SIZE_CAP:
        raise InputError(
            f"graph has {g.n} vertices, exact enumeration capped at {SIZE_CAP}"
        )
    if g.n == 0:
        raise InputError("empty graph")


def _weight_table(g: WeightedGraph, conflicts) -> np.ndarray:
    """w(C) of every subset C (bit k = vertex k), summed in vertex order, and
    -inf where C holds a vertex k and one of the vertices of mask
    conflicts[k]. Built over vertices 0..k-1, then doubled by vertex k."""
    _check_cap(g)
    table = np.zeros(1)
    for k, (w, bad) in enumerate(zip(g.weights, conflicts)):
        grown = table + w
        grown[(np.arange(1 << k) & bad) != 0] = -np.inf
        table = np.concatenate([table, grown])
    return table


def independent_weights(g: WeightedGraph) -> np.ndarray:
    """w(C) of every subset C, -inf where C holds an edge: the one
    independence test. A read-only 2^n vector, built on the first call for a
    graph and kept on the frozen graph; refuses graphs larger than SIZE_CAP."""
    table = g.__dict__.get("_independent_weights")
    if table is None:
        table = _weight_table(g, g.adjacency_masks())
        table.flags.writeable = False
        g.__dict__["_independent_weights"] = table
    return table


def bitstrings(indices, n: int) -> list:
    """Render subset masks or basis indices: bit k = character k, bit 0
    leftmost. The characters are built a column at a time and cut from one
    ASCII string, which keeps the temporaries to about a byte per character."""
    indices = np.asarray(indices, dtype=np.int64)
    chars = np.empty((len(indices), n), dtype=np.uint8)
    for k in range(n):
        chars[:, k] = (indices >> k) & 1
    chars += ord("0")
    text = chars.tobytes().decode("ascii")
    return [text[i:i + n] for i in range(0, len(text), n)]


def _solutions(g: WeightedGraph, weights: np.ndarray) -> list:
    """The subsets of largest weight in a table of w(C), sorted by bitstring;
    the empty set, of weight 0, is in every table."""
    bits = sorted(bitstrings(np.flatnonzero(weights == weights.max()), g.n))
    return [VertexSubset.from_bitstring(g, b) for b in bits]


def brute_force_mwis(g: WeightedGraph) -> list:
    """All maximum-weight independent sets, sorted by bitstring: the argmax
    of `independent_weights`. Exhaustive over all 2^n subsets; refuses graphs
    larger than SIZE_CAP."""
    return _solutions(g, independent_weights(g))


def max_weight_clique(g: WeightedGraph) -> list:
    """All maximum-weight cliques, sorted by bitstring.

    Enumerated directly from the adjacency structure (a subset holding a
    vertex and one of its non-neighbours is refused), not via the
    complement; the complement route is kept as an independent cross-check
    in the tests.
    """
    full = (1 << g.n) - 1
    return _solutions(g, _weight_table(g, [full & ~(adj | 1 << k)
                                           for k, adj in enumerate(g.adjacency_masks())]))


def load_graph(path) -> WeightedGraph:
    """Read a graph from its JSON file format.

    Format: {"nodes": [{"id", "weight", "pos"?}], "edges": [[a, b], ...]}.
    Other top-level keys (e.g. "meta") are ignored.
    """
    return files.read(path, _graph_from_doc)


def _graph_from_doc(doc) -> WeightedGraph:
    nodes = doc["nodes"]
    # "pos" on any node makes it required on every node
    has_pos = any("pos" in node for node in nodes)
    return WeightedGraph.from_parts(
        [node["id"] for node in nodes],
        doc.get("edges", []),
        weights=[node.get("weight", 1.0) for node in nodes],
        positions=[node["pos"] for node in nodes] if has_pos else None,
    )


def save_graph(g: WeightedGraph, path, meta: dict | None = None):
    nodes = []
    for k, v in enumerate(g.vertex_ids):
        node = {"id": v, "weight": g.weights[k]}
        if g.positions is not None:
            node["pos"] = list(g.positions[k])
        nodes.append(node)
    doc = {"nodes": nodes, "edges": [list(e) for e in g.edges]}
    if meta is not None:
        doc["meta"] = meta
    files.write(path, doc)
