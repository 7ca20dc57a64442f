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
moved. Version 2 moved the GCN commands' outputs only; the pinned files
moved with the digest that stamps them, and their other bytes are version
1's.

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
PINNED = {2: {
    "dataset/dataset.jsonl": "bfa7d45ede14f80c1dbdcd29ce24ee2d76b936922d1f92179a47a5891c8c0ed0",
    "dock/binding_graph.json": "b915d53deb55271c6e36f4531831e0051281c86611606cbb5fb57eb8a880868d",
    "dock/complement_graph.json": "189dd44a2e236b080a38b008d901f2256f72ffde0382dee4c44a96e50b4c193a",
    "embed6/register.json": "d560536d6c82426ba15bfb6f07561d75b992cd73f6d6f24cb653be4799124611",
    "embed9/register.json": "179347e9edcf34433079891beb89147052bc4cf24aad1a55fdef02538b68dbe4",
    "embed_anc/register.json": "61b09e20ba099ccf79f10cc6dc9bfe006d4bf6b9b91a781fb3853d8aad7f6f92",
    "nm_complex/histogram.json": "e209bc77d0841762bc2d87dce4cd92681f814f1df1cd48b3f04ce36c0ee540b5",
    "nm_complex/result.json": "39ef3a126aafd302658d8d8a2f0fbe1a1fff1ef9d2369c9ce95e63d6f30901b2",
    "nm_complex/trials.jsonl": "3a28c2d397fc8a8b9cad0244c668b580da88e727b7df4a4e17b4b6052e2094b9",
    "nm_simple/histogram.json": "b0a2f8112bbcd9fdc60d2c5614a2aae3838f8d10c9fa4e7fc8aed96014d4e4b4",
    "nm_simple/result.json": "2a3356decf70622094d7577d7f4f19fdc5fd029c932ad9a08453347ba8302072",
    "nm_simple/trials.jsonl": "7b60be6be9964f8c21d798f24fff17948dca64d0ff05cf0ae12fc47092d536e5",
    "six_node_complement.json": "2f11c232ecb8df27ffaf863735ee823125a45509f51368b175b109f1e59ce955",
    "sweep/sweep.csv": "772564975d2caa3f10408bcc3b51d5a4ab1489d6e7f561171efd4e2c77628309",
    "sweep12/hexagon-4-s9.75.json": "6a8b469764317a045789ca936530784eadc857a385c91db7229971b5a4592670",
    "sweep12/sweep.csv": "25151e5fd25fff9f89b333b29fd3957c8e6e846017c5839f5d4e4d699144d9bb",
    "tpe_complex/histogram.json": "e34d38015c5eb2707db9e0d96e0e41b843322cb6d339b5b84cc67eac566e7c2e",
    "tpe_complex/result.json": "fff425cdb7b5604f7f95d22777c959d1264956d5564319a7edfc9123cbd189d8",
    "tpe_complex/trials.jsonl": "5629f58bf159f1f2be5c11ce172b100de84c1e21797cc1802ec1e1b72b541fc5",
    "tpe_simple/histogram.json": "fecac5e3c147fd4f8011c70a5a3e3fd60357fcc5e75c7c1488421f41ae707141",
    "tpe_simple/result.json": "bd45fca438461095c3631be8e14c54969e80f6a4492843264cfb67f950dae906",
    "tpe_simple/trials.jsonl": "470cebfd8187ba9e639033cd974b942a1929c9341c80510fc28894f48c65dcc4",
    "vqaa_anc/histogram.json": "6b31db3d2b347a9c18aa04d9de0b3bbd59e8651f4fbaf8fe71d621da4cda8999",
    "vqaa_anc/result.json": "6c4e2ec3046e2d5e749af02d626f30bf28f818ac77bb68ba4a763cd1718d2162",
    "vqaa_anc/trials.jsonl": "c10c01d697cd19f7feef4172453554085abcdbef1f294cd392384b9164ad2ecd",
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
