"""Pharmacophore docking mapped onto a binding graph.

A contact pairs one ligand point with one receptor point whose kinds
interact. Two contacts are geometrically compatible (an edge of the binding
graph) when they involve distinct points on both molecules and the
intra-ligand distance matches the intra-receptor distance within the
flexibility tolerance tau. Cliques of the binding graph are candidate
binding poses, so the maximum-weight clique (equivalently, the
maximum-weight independent set of the complement) is the best pose.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import files
from .errors import InputError
from .graphs import WeightedGraph

DEFAULT_TAU = 2.0


class Kind(str, Enum):
    HDONOR = "HDonor"
    HACCEPTOR = "HAcceptor"
    HYDROPHOBE = "Hydrophobe"
    AROMATIC = "Aromatic"
    POS_ION = "PosIon"
    NEG_ION = "NegIon"


@dataclass(frozen=True)
class PharmacophorePoint:
    id: str
    kind: Kind
    position: tuple

    def __post_init__(self):
        if len(self.position) != 3:
            raise InputError(f"point {self.id}: position must have 3 coordinates")
        if not all(math.isfinite(x) for x in self.position):
            raise InputError(f"point {self.id}: position must be finite")


@dataclass(frozen=True)
class Molecule:
    name: str
    points: tuple

    def __post_init__(self):
        ids = [p.id for p in self.points]
        if len(set(ids)) != len(ids):
            raise InputError(f"molecule {self.name}: duplicate point ids")
        if not self.points:
            raise InputError(f"molecule {self.name}: no points")

    def distance_matrix(self) -> np.ndarray:
        coords = np.array([p.position for p in self.points])
        diff = coords[:, None, :] - coords[None, :, :]
        return np.sqrt((diff**2).sum(axis=2))


@dataclass(frozen=True)
class InteractionTable:
    """Symmetric kind-pair interaction strengths; missing pairs are 0."""

    pairs: dict

    def strength(self, a: Kind, b: Kind) -> float:
        return self.pairs.get(frozenset((a, b)), 0.0)


def default_table() -> InteractionTable:
    return InteractionTable(pairs={
        frozenset((Kind.HDONOR, Kind.HACCEPTOR)): 1.0,
        frozenset((Kind.HYDROPHOBE,)): 0.5,
        frozenset((Kind.AROMATIC,)): 0.5,
        frozenset((Kind.POS_ION, Kind.NEG_ION)): 1.0,
    })


@dataclass(frozen=True)
class Contact:
    """One candidate interaction: a ligand point matched to a receptor point."""

    ligand_point: str
    receptor_point: str
    weight: float

    @property
    def vertex_id(self) -> str:
        return f"{self.ligand_point}:{self.receptor_point}"


def enumerate_contacts(ligand: Molecule, receptor: Molecule,
                       table: InteractionTable | None = None) -> list:
    """All (ligand point, receptor point) pairs with positive strength, which
    is the contact's weight.

    Ordered ligand-major, following each molecule's point order.
    """
    table = table or default_table()
    out = []
    for lp in ligand.points:
        for rp in receptor.points:
            s = table.strength(lp.kind, rp.kind)
            if s > 0:
                out.append(Contact(ligand_point=lp.id, receptor_point=rp.id, weight=s))
    return out


def build_binding_graph(ligand: Molecule, receptor: Molecule,
                        table: InteractionTable | None = None,
                        tau: float = DEFAULT_TAU) -> WeightedGraph:
    """Binding graph over contacts; see the module docstring for the rule."""
    if tau < 0:
        raise InputError("tau must be non-negative")
    contacts = enumerate_contacts(ligand, receptor, table)
    ids = [c.vertex_id for c in contacts]
    weights = [c.weight for c in contacts]
    lig_row = {p.id: k for k, p in enumerate(ligand.points)}
    rec_row = {p.id: k for k, p in enumerate(receptor.points)}
    lig_dist, rec_dist = ligand.distance_matrix(), receptor.distance_matrix()
    edges = []
    for a, b in itertools.combinations(range(len(contacts)), 2):
        ca, cb = contacts[a], contacts[b]
        if ca.ligand_point == cb.ligand_point:
            continue
        if ca.receptor_point == cb.receptor_point:
            continue
        d_lig = lig_dist[lig_row[ca.ligand_point], lig_row[cb.ligand_point]]
        d_rec = rec_dist[rec_row[ca.receptor_point], rec_row[cb.receptor_point]]
        if abs(d_lig - d_rec) <= tau:
            edges.append((ids[a], ids[b]))
    return WeightedGraph.from_parts(ids, edges, weights=weights)


def load_molecule(path) -> Molecule:
    """Read a pharmacophore JSON file: {"name", "points": [{"id", "kind", "xyz"}]}."""
    return files.read(path, lambda doc: Molecule(
        name=str(doc.get("name", "molecule")),
        points=tuple(PharmacophorePoint(
            id=str(p["id"]), kind=Kind(p["kind"]),
            position=tuple(float(x) for x in p["xyz"]),
        ) for p in doc["points"]),
    ))


def _strength(entry) -> float:
    s = float(entry["s"])
    if not math.isfinite(s):  # JSON reads NaN and Infinity literals
        raise InputError(f"pair {entry['a']}-{entry['b']}: s must be finite, got {s}")
    return s


def load_table(path) -> InteractionTable:
    """Read an interaction table JSON file: {"pairs": [{"a", "b", "s"}]},
    every s finite."""
    return files.read(path, lambda doc: InteractionTable(pairs={
        frozenset((Kind(e["a"]), Kind(e["b"]))): _strength(e)
        for e in doc.get("pairs", [])
    }))
