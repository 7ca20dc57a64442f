"""Byte-level pins of the pipeline's outputs.

A small fixture chain runs in process and the sha256 of every file it writes
is pinned: `dock`; `embed` of its complement at 9 and 6 um; `embed` of
complement(six_node) at 6 um, which routes 4 ancillas, and a short `vqaa` on
it, so that `strip_ancillas` runs; `vqaa` with tpe (dt 4, 14 rounds) and nm
(dt 8, 4 rounds) in both pulse families; a `sweep` with an omega = 0 cell;
a one-cell `sweep` on the 12-atom two-hexagon corpus register, whose phase
rows are long enough for `evolve` to step them; and `label_dataset` on three
corpus entries. A refactor that claims identical outputs keeps every pin; a
change that moves an output bumps `cli.OUTPUT_VERSION`, which enters every
config digest, pins the new version's outputs and names the files that
moved.

The GCN commands (`train`, `predict`, `mlqaa-eval`) are left out: their
weights are raw GEMM sums, whose last bits depend on the CPU's kernels.
"""

import hashlib
from pathlib import Path

import pytest

from rydock.cli import OUTPUT_VERSION, main
from rydock.graphs import complement, load_graph, save_graph
from rydock.mlqaa.dataset import corpus_entry, label_dataset, save_dataset
from rydock.register import DeviceParams, save_register

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

# the sha256 of every output, by the `OUTPUT_VERSION` that wrote them
PINNED = {1: {
    "dataset/dataset.jsonl": "bfa7d45ede14f80c1dbdcd29ce24ee2d76b936922d1f92179a47a5891c8c0ed0",
    "dock/binding_graph.json": "37054951df262c753457aaac668289591351c2ba8b219bf872ed9c258e926788",
    "dock/complement_graph.json": "938962654c902843b751157994bb190eecc4a94ee3bbf415bf1afadd2c44e39c",
    "embed6/register.json": "fcdcda78ac8d93c169bee944eff6551571ec4fd38fe17a981b907628368e4e2e",
    "embed9/register.json": "cd6b34cbfef46069e6268ebc970c8a251719ede9e7451472701a4c9f054ed9a9",
    "embed_anc/register.json": "d6f9806acc448cd89ca6b2945abdd2cba4e6bff9f5d19c7553567a134190b24f",
    "nm_complex/histogram.json": "0582e69555f1a649965faa0cbf616a03a42bf3df805717845b61cc4fcb148bab",
    "nm_complex/result.json": "3a689d83f86ed6a6389272ba3ad6dbfaa3f86f26333c30194ea2d327bc4474e9",
    "nm_complex/trials.jsonl": "e0ef2f8bf294b40aa2df56b04a0485e84884dff4c3c71a682963b6b223a6c64c",
    "nm_simple/histogram.json": "8c865309b0407f3866e6138c0c8eb901a8e24c3465e362bc15a21177eb18c2a9",
    "nm_simple/result.json": "cb65eec47b72c100c6dc17ae56ecd5d1117b5e753a9807e32a20db768a59f72a",
    "nm_simple/trials.jsonl": "40cbd7573e86e70fca97ab621a0480bca79b56f816a4f76a2a8d9acdb1cf309f",
    "six_node_complement.json": "2f11c232ecb8df27ffaf863735ee823125a45509f51368b175b109f1e59ce955",
    "sweep/sweep.csv": "52e56fa0efd220f59a0bfc6412cc478e303c1010ceb579566a9316b89d99bc83",
    "sweep12/hexagon-4-s9.75.json": "6a8b469764317a045789ca936530784eadc857a385c91db7229971b5a4592670",
    "sweep12/sweep.csv": "6d2e936efea4eb2e8f51c8319c706ba65787a3c73857f25aa83cecc1ee0d7469",
    "tpe_complex/histogram.json": "77f9722e6b0703f63d88743fc7460a1dcd847fd7b6d71d91285e40660776d9be",
    "tpe_complex/result.json": "e74051297ae687e15f4bf0afd7420a83ff215ca268a42bf86ca0ab377d13aefe",
    "tpe_complex/trials.jsonl": "fca51327bd307c02bad44b849ccb937e070083bda947015a0213729832ea508b",
    "tpe_simple/histogram.json": "3144519e26c711fcd1693bd5d41ddf16da57dcff3c1714771fa4d2cad9c0105c",
    "tpe_simple/result.json": "e4c08f493ccea8bba7f4deebf220ffa22715fd592bdcccaf31b74f1acf3f2852",
    "tpe_simple/trials.jsonl": "5bef4f45f4a9fa4e4cafa16b976e21fa89955b8052b83d71c2139bd79aee61ad",
    "vqaa_anc/histogram.json": "8ab98930824dab3f6400ecab6b2eebd5e7096a3559ce2b93949ddefa3c5355bb",
    "vqaa_anc/result.json": "06b9cb9dd6f86f65f408b5706e04432362abc63a35a2abe74d9fdac2ea44743e",
    "vqaa_anc/trials.jsonl": "76b7ab4cf41087bc87286b2455c71391249e49c6e696a3895d889177f28c1952",
}}
PINS = PINNED.get(OUTPUT_VERSION, {})


def _run(root: Path):
    """Run the chain under `root`, one directory per step."""
    def cli(step, *argv):
        assert main([*argv, "--out", str(root / step)]) == 0, step

    cli("dock", "dock", "--ligand", str(FIXTURES / "acetic_acid.json"),
        "--receptor", str(FIXTURES / "ethylene_glycol.json"))
    graph = str(root / "dock" / "complement_graph.json")
    cli("embed9", "embed", "--graph", graph, "--seed", "1")
    cli("embed6", "embed", "--graph", graph, "--spacing", "6", "--seed", "1")
    six = root / "six_node_complement.json"
    save_graph(complement(load_graph(FIXTURES / "six_node.json")), six)
    cli("embed_anc", "embed", "--graph", str(six), "--spacing", "6", "--seed", "1")
    cli("vqaa_anc", "vqaa", "--register", str(root / "embed_anc" / "register.json"),
        "--rounds", "4", "--dt", "8", "--seed", "1")

    register = str(root / "embed9" / "register.json")
    for family in ("complex", "simple"):
        cli(f"tpe_{family}", "vqaa", "--register", register, "--family", family,
            "--rounds", "14", "--dt", "4", "--seed", "1")
        cli(f"nm_{family}", "vqaa", "--register", register, "--family", family,
            "--optimizer", "nm", "--rounds", "4", "--dt", "8", "--seed", "1")
    cli("sweep", "sweep", "--register", register, "--omegas", "0,3",
        "--deltas", "2,5", "--times", "400,1200", "--shots", "200", "--dt", "8")

    dev = DeviceParams()
    hex12 = root / "sweep12" / "hexagon-4-s9.75.json"
    hex12.parent.mkdir()
    save_register(corpus_entry("hexagon", 4, 9.75, dev).embedding, hex12)
    cli("sweep12", "sweep", "--register", str(hex12), "--omegas", "2", "--deltas", "5",
        "--times", "2000", "--shots", "200", "--dt", "8")

    entries = [corpus_entry(family, 0, spacing, dev)
               for family, spacing in (("line", 9.75), ("rectangle", 8.5), ("hexagon", 11.0))]
    records = label_dataset(entries, dev, rounds=2, shots=200, seed=1)
    assert records
    (root / "dataset").mkdir()
    save_dataset(records, root / "dataset" / "dataset.jsonl")


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    _run(root)
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("step", sorted({name.split("/")[0] for name in PINS}))
def test_outputs_are_pinned(digests, step):
    got = {k: v for k, v in digests.items() if k.split("/")[0] == step}
    assert got == {k: v for k, v in PINS.items() if k.split("/")[0] == step}


def test_every_output_is_pinned(digests):
    # fails too when the current OUTPUT_VERSION has no pins
    assert sorted(digests) == sorted(PINS)
