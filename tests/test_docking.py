"""Contacts, binding graphs, and pose extraction.

The 4-contact rectangle (two donors against two acceptors at matching
separation) is small enough to enumerate the compatibility rule by hand, so
its graph and poses are frozen here as the reference case.
"""

import json

import numpy as np
import pytest

from rydock.docking import (
    Contact,
    InteractionTable,
    Kind,
    Molecule,
    PharmacophorePoint,
    build_binding_graph,
    default_table,
    enumerate_contacts,
    load_molecule,
    load_table,
)
from rydock.errors import InputError
from rydock.graphs import complement, brute_force_mwis, max_weight_clique


def pose_from_clique(clique, contacts) -> list:
    """Map a clique of the binding graph back to (ligand, receptor) pairs.

    Rejects selections that reuse a ligand or receptor point; a physical
    pose assigns each point at most once.
    """
    members = clique.members if hasattr(clique, "members") else set(map(str, clique))
    known = {c.vertex_id for c in contacts}
    unknown = members - known
    if unknown:
        raise InputError(f"unknown contacts {sorted(unknown)}")
    lig_seen, rec_seen = set(), set()
    pose = []
    for c in contacts:
        if c.vertex_id not in members:
            continue
        if c.ligand_point in lig_seen:
            raise InputError(f"ligand point {c.ligand_point} used twice")
        if c.receptor_point in rec_seen:
            raise InputError(f"receptor point {c.receptor_point} used twice")
        lig_seen.add(c.ligand_point)
        rec_seen.add(c.receptor_point)
        pose.append((c.ligand_point, c.receptor_point))
    return pose


def point(pid, kind, x, y=0.0, z=0.0):
    return PharmacophorePoint(id=pid, kind=kind, position=(x, y, z))


def two_by_two(d_lig=3.0, d_rec=3.0):
    lig = Molecule(name="lig", points=(
        point("D1", Kind.HDONOR, 0.0), point("D2", Kind.HDONOR, d_lig)))
    rec = Molecule(name="rec", points=(
        point("A1", Kind.HACCEPTOR, 0.0), point("A2", Kind.HACCEPTOR, d_rec)))
    return lig, rec


def test_single_contact_graph():
    lig = Molecule(name="l", points=(point("D1", Kind.HDONOR, 0.0),))
    rec = Molecule(name="r", points=(point("A1", Kind.HACCEPTOR, 0.0),))
    g = build_binding_graph(lig, rec, default_table(), tau=1.0)
    assert g.vertex_ids == ("D1:A1",)
    assert g.edges == ()
    assert g.weights == (1.0,)


def test_four_contact_rectangle():
    # hand enumeration: edges need distinct points on both molecules and
    # |d_lig - d_rec| <= tau, which here keeps exactly the two diagonals
    lig, rec = two_by_two()
    g = build_binding_graph(lig, rec, default_table(), tau=1.0)
    assert g.vertex_ids == ("D1:A1", "D1:A2", "D2:A1", "D2:A2")
    assert set(g.edges) == {("D1:A1", "D2:A2"), ("D1:A2", "D2:A1")}


def test_four_contact_max_cliques_give_one_to_one_poses():
    lig, rec = two_by_two()
    table = default_table()
    g = build_binding_graph(lig, rec, table, tau=1.0)
    contacts = enumerate_contacts(lig, rec, table)
    cliques = max_weight_clique(g)
    assert [c.bitstring for c in cliques] == ["0110", "1001"]
    for c in cliques:
        pose = pose_from_clique(c, contacts)
        ligs = [a for a, _ in pose]
        recs = [b for _, b in pose]
        assert len(set(ligs)) == len(ligs) == 2
        assert len(set(recs)) == len(recs) == 2


def test_mismatched_separation_drops_edges():
    lig, rec = two_by_two(d_lig=3.0, d_rec=8.0)
    g = build_binding_graph(lig, rec, default_table(), tau=2.0)
    assert g.n == 4
    assert g.edges == ()


def test_no_edge_shares_a_point():
    rng = np.random.default_rng(23)
    kinds = [Kind.HDONOR, Kind.HACCEPTOR, Kind.HYDROPHOBE, Kind.AROMATIC]
    for _ in range(25):
        lig = Molecule(name="l", points=tuple(
            point(f"L{k}", kinds[rng.integers(len(kinds))],
                  *rng.uniform(-6, 6, size=3))
            for k in range(rng.integers(2, 5))))
        rec = Molecule(name="r", points=tuple(
            point(f"R{k}", kinds[rng.integers(len(kinds))],
                  *rng.uniform(-6, 6, size=3))
            for k in range(rng.integers(2, 5))))
        g = build_binding_graph(lig, rec, default_table(), tau=2.0)
        for (a, b) in g.edges:
            la, ra = a.split(":")
            lb, rb = b.split(":")
            assert la != lb
            assert ra != rb


def test_swap_symmetry():
    lig, rec = two_by_two()
    g1 = build_binding_graph(lig, rec, default_table(), tau=1.0)
    g2 = build_binding_graph(rec, lig, default_table(), tau=1.0)
    transpose = {":".join(v.split(":")[::-1]) for v in g2.vertex_ids}
    assert transpose == set(g1.vertex_ids)
    e2 = {frozenset((":".join(a.split(":")[::-1]), ":".join(b.split(":")[::-1])))
          for (a, b) in g2.edges}
    assert e2 == {frozenset(e) for e in g1.edges}


def test_coordinate_scaling_with_tau():
    lig, rec = two_by_two(3.0, 4.0)
    g1 = build_binding_graph(lig, rec, default_table(), tau=1.5)
    lig2 = Molecule(name="l", points=tuple(
        PharmacophorePoint(p.id, p.kind, tuple(3 * c for c in p.position))
        for p in lig.points))
    rec2 = Molecule(name="r", points=tuple(
        PharmacophorePoint(p.id, p.kind, tuple(3 * c for c in p.position))
        for p in rec.points))
    g2 = build_binding_graph(lig2, rec2, default_table(), tau=4.5)
    assert g1.edges == g2.edges
    assert g1.vertex_ids == g2.vertex_ids


def test_contact_count_matches_positive_strengths():
    lig = Molecule(name="l", points=(
        point("D", Kind.HDONOR, 0.0), point("H", Kind.HYDROPHOBE, 3.0),
        point("P", Kind.POS_ION, 6.0)))
    rec = Molecule(name="r", points=(
        point("A", Kind.HACCEPTOR, 0.0), point("N", Kind.NEG_ION, 3.0)))
    contacts = enumerate_contacts(lig, rec, default_table())
    assert {c.vertex_id for c in contacts} == {"D:A", "P:N"}
    assert all(c.weight > 0 for c in contacts)


def test_pose_rejects_reused_points():
    contacts = [
        Contact("D1", "A1", 1.0),
        Contact("D1", "A2", 1.0),
        Contact("D2", "A1", 1.0),
    ]
    assert pose_from_clique({"D1:A1"}, contacts) == [("D1", "A1")]
    assert pose_from_clique(set(), contacts) == []
    with pytest.raises(InputError):
        pose_from_clique({"D1:A1", "D1:A2"}, contacts)
    with pytest.raises(InputError):
        pose_from_clique({"D1:A1", "D2:A1"}, contacts)
    with pytest.raises(InputError):
        pose_from_clique({"D9:A9"}, contacts)


def test_molecule_validation():
    with pytest.raises(InputError):
        Molecule(name="m", points=())
    with pytest.raises(InputError):
        Molecule(name="m", points=(
            point("a", Kind.HDONOR, 0.0), point("a", Kind.HDONOR, 1.0)))
    with pytest.raises(InputError):
        PharmacophorePoint(id="p", kind=Kind.HDONOR, position=(0.0, 1.0))


def test_distance_matrix():
    lig = Molecule(name="l", points=(
        point("a", Kind.HDONOR, 0.0), point("b", Kind.HDONOR, 3.0, 4.0)))
    m = lig.distance_matrix()
    assert m.shape == (2, 2)
    assert m[0, 0] == 0.0
    assert m[0, 1] == pytest.approx(5.0)
    assert m[1, 0] == m[0, 1]


def test_table_symmetry_and_default():
    t = default_table()
    for a in Kind:
        for b in Kind:
            assert t.strength(a, b) == t.strength(b, a)
    assert t.strength(Kind.HDONOR, Kind.HACCEPTOR) == 1.0
    assert t.strength(Kind.HDONOR, Kind.HDONOR) == 0.0
    assert t.strength(Kind.HYDROPHOBE, Kind.HYDROPHOBE) == 0.5


def test_load_molecule_fixture():
    mol = load_molecule("fixtures/acetic_acid.json")
    kinds = sorted(p.kind.value for p in mol.points)
    assert len(mol.points) == 3
    assert kinds == ["HAcceptor", "HAcceptor", "HDonor"]


def test_load_molecule_errors(tmp_path):
    with pytest.raises(InputError):
        load_molecule(tmp_path / "none.json")
    bad_kind = tmp_path / "k.json"
    bad_kind.write_text(json.dumps(
        {"name": "x", "points": [{"id": "a", "kind": "Magic", "xyz": [0, 0, 0]}]}))
    with pytest.raises(InputError, match="Magic"):
        load_molecule(bad_kind)
    missing = tmp_path / "m.json"
    missing.write_text(json.dumps(
        {"name": "x", "points": [{"id": "a", "kind": "HDonor"}]}))
    with pytest.raises(InputError, match="xyz"):
        load_molecule(missing)


def test_load_table(tmp_path):
    p = tmp_path / "t.json"
    p.write_text(json.dumps({"pairs": [{"a": "HDonor", "b": "HAcceptor", "s": 2.5}]}))
    t = load_table(p)
    assert t.strength(Kind.HACCEPTOR, Kind.HDONOR) == 2.5
    assert t.strength(Kind.AROMATIC, Kind.AROMATIC) == 0.0
    p.write_text(json.dumps({"pairs": [{"a": "HDonor", "s": 1.0}]}))
    with pytest.raises(InputError):
        load_table(p)


def test_fixture_pipeline_clique_is_oracle_optimum():
    lig = load_molecule("fixtures/acetic_acid.json")
    rec = load_molecule("fixtures/ethylene_glycol.json")
    g = build_binding_graph(lig, rec, default_table(), tau=2.0)
    assert g.n == 6
    direct = {c.bitstring for c in max_weight_clique(g)}
    dual = {c.bitstring for c in brute_force_mwis(complement(g))}
    assert direct == dual
    contacts = enumerate_contacts(lig, rec, default_table())
    for c in max_weight_clique(g):
        pose = pose_from_clique(c, contacts)
        assert len(pose) == 3
