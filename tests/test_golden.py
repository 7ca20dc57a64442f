"""Byte-level pins of the pipeline's outputs.

A small fixture chain runs in process and the sha256 of every file it writes
is pinned: `dock`; `embed` of its complement at 9 and 6 um; `embed` of
complement(six_node) at 6 um, which routes 4 ancillas, and a short `vqaa` on
it, so that `strip_ancillas` runs; `vqaa` with tpe (dt 4, 14 rounds) and nm
(dt 8, 4 rounds) in both pulse families; a `sweep` with an omega = 0 cell;
and `label_dataset` on three corpus entries. A refactor that claims
identical outputs keeps every pin; a change that moves an output must
re-pin it and name the file.

The GCN commands (`train`, `predict`, `mlqaa-eval`) are left out: their
weights are raw GEMM sums, whose last bits depend on the CPU's kernels.
"""

import hashlib
from pathlib import Path

import pytest

from rydock.cli import main
from rydock.graphs import complement, load_graph, save_graph
from rydock.mlqaa.dataset import corpus_entry, label_dataset, save_dataset
from rydock.register import DeviceParams

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

PINNED = {
    "dataset/dataset.jsonl": "bfa7d45ede14f80c1dbdcd29ce24ee2d76b936922d1f92179a47a5891c8c0ed0",
    "dock/binding_graph.json": "e5d80eeb10dba122695d92bbc407ce71b115fefe5d8e0718c0f9d36e07b0e34a",
    "dock/complement_graph.json": "95cd24d6d91f959ef869ceaa89416717479261bfe23881af9713227f7bda78bd",
    "embed6/register.json": "924a9190cdbe09b85134731e13d0529d0c0f12978df9c6fb6d827bcc1cfd3d0d",
    "embed9/register.json": "859132dd9b95cf3f371a8cf3467e233dcb5fa9d1067f67ccb83259527e8e59cc",
    "embed_anc/register.json": "c4c95752f5221cb8134e8f08096d2adfe7142c7179a4fe9463164f73c3f7347a",
    "nm_complex/histogram.json": "04a6ce7cdbce695de85f99b1464bafc942362f3837191065c8c60b12bc552e18",
    "nm_complex/result.json": "c69fc2dba3e7efd8a8c5bdbec6199b1215b60abc741d1ec1702e41ae8680af50",
    "nm_complex/trials.jsonl": "3fae81aa803d56ef1182b4426383ad613fa4b6db367119e1d2a4be7ecc01353d",
    "nm_simple/histogram.json": "dac64077d4ac8281a99e5924a8bb5d9f8236ed14c153772dedd08e9ba1ebe0b6",
    "nm_simple/result.json": "0481890168ddd4fdccf05639db11bc0790a111bd0435c93b00214cb6a20b5b8a",
    "nm_simple/trials.jsonl": "11426601c8209dab78c21eb8cbcae9be17939eceea6e89bd15ce9ebc17a4928c",
    "six_node_complement.json": "2f11c232ecb8df27ffaf863735ee823125a45509f51368b175b109f1e59ce955",
    "sweep/sweep.csv": "3da15168513127bdece04b32035890ac6a7ca63248548cab1c808d6862e1f56b",
    "tpe_complex/histogram.json": "dddbd7e2ff4c12e4afe680f3f33a9e97a595535fdb0ea44d3c35583970b32901",
    "tpe_complex/result.json": "4e95966a492d04b9593b215441c4937d070ca081d7bbfbc1b75ac987182ac669",
    "tpe_complex/trials.jsonl": "c4e348d84fd8d59cb4b9052b65686ca6a6f637cf14b2e184aea11113a39fb016",
    "tpe_simple/histogram.json": "a03d8f9d79399c9950794d873664de4368eec7272408de1de1cdd6ef03e11638",
    "tpe_simple/result.json": "7556770b8acbd9708be9672e941396c09edbd6905cda69b6fba505135f7feb4a",
    "tpe_simple/trials.jsonl": "0adc4d95c1e295c85f631e633de36fedeb181ba42e3aac53d4f4932addcf0e2d",
    "vqaa_anc/histogram.json": "50bb4f3959d366eed0d0ee625ce6fb3525cfc0e504a566c1cc33c044eea4d28e",
    "vqaa_anc/result.json": "65f66b55dc0b0c705cec520407f620d312485b8f1a6379b9b030e95e255de336",
    "vqaa_anc/trials.jsonl": "1b573b8c6bc7ce282f8ce761d0700d9682bfc1b371bb05f7695dabcc4e3818cf",
}


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


@pytest.mark.parametrize("step", sorted({name.split("/")[0] for name in PINNED}))
def test_outputs_are_pinned(digests, step):
    got = {k: v for k, v in digests.items() if k.split("/")[0] == step}
    assert got == {k: v for k, v in PINNED.items() if k.split("/")[0] == step}


def test_every_output_is_pinned(digests):
    assert sorted(digests) == sorted(PINNED)
