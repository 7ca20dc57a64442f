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
moved. Version 2 moved the GCN commands' outputs only. Version 3 made
`rounds` nm's budget of evaluations, as it is tpe's, so only the `nm_*`
files moved; every other pinned file moved with the digest that stamps it,
and its other bytes are version 1's.

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
PINNED = {3: {
    "dataset/dataset.jsonl": "bfa7d45ede14f80c1dbdcd29ce24ee2d76b936922d1f92179a47a5891c8c0ed0",
    "dock/binding_graph.json": "62e0cbc8e8db55cae89e890151433a0b8b86c67938d48ecf204f7844949b023c",
    "dock/complement_graph.json": "dee11b73134d5d739f9d5c6e7cf5adaec39ab29feca95fcb9653bb25ffdb6824",
    "embed6/register.json": "d4f9769cd49c432934bcc82ee04fdf2e25775270a03818dac03ca3ac5c5d8bce",
    "embed9/register.json": "94ae48bd6b80dfbb5146c44ffb3f986c507c8cc6e3f6fefaddf41c5ab7edc93d",
    "embed_anc/register.json": "16c1130147de3d708c0bb64fe0280dd7bb0a8f554b5d455a29d50b4eaa11b403",
    "nm_complex/histogram.json": "58f33b4862f513ca3bf5235c53c792165e73c20a25df4aae8cd82758a7462eee",
    "nm_complex/result.json": "53b43169cb71531f04684ecd8bcf331d784e9323bde8fa51779e570033dc457f",
    "nm_complex/trials.jsonl": "3ae5a691bb5c14597644339f7040f988ccdbd15a87f588889cc8549550613865",
    "nm_simple/histogram.json": "d44b765a2a9c02d177154cb429d2983bb15200027b4b171bb77bc3517f42a3d9",
    "nm_simple/result.json": "2b29638ca8a7d066dc5a9070831d6f8e7871bf1b15d33270de53c68c8388cd94",
    "nm_simple/trials.jsonl": "33527e5cbeb8083adfa882d5a8a8e8e15e1bca641899c7283161f661e2f70948",
    "six_node_complement.json": "2f11c232ecb8df27ffaf863735ee823125a45509f51368b175b109f1e59ce955",
    "sweep/sweep.csv": "4b7f6257b00cb7fa06a89b740deaf843bc573c807c1473a3ec1643b2c467a424",
    "sweep12/hexagon-4-s9.75.json": "6a8b469764317a045789ca936530784eadc857a385c91db7229971b5a4592670",
    "sweep12/sweep.csv": "1ffad34b2ae083121bdb240c2d2c5b45ffb3b690ae283be0ecb9c7fea08e6854",
    "tpe_complex/histogram.json": "ba385556b53fefd038cd7683e25682f3fb8b9cb4fa7f4cc8164ed6f326ff4dab",
    "tpe_complex/result.json": "814d3378c47d26b8693068e93010e70efbbb3e640d87bc0765ecb56f964f1cbd",
    "tpe_complex/trials.jsonl": "35bc0b7149a84fec8611d4b4fc85ee1e5952bcdd4e71015bbd42794c22754481",
    "tpe_simple/histogram.json": "75a1fa935a1cbe8aa1c6f74d32c309a8c97c766a38f41d0c56704da99bb43252",
    "tpe_simple/result.json": "f794e45b7a3d22a5dc0a885e3cf36c7753e3e22157c356ce2f649cc924ab8e7f",
    "tpe_simple/trials.jsonl": "de7c43d57e3b8c8c16435345cc757f8d7c060a977b24e1c0918b0ad8e7280a50",
    "vqaa_anc/histogram.json": "e9873fefe32e0d3e65088f9a59e3b23c12dd581d384eeee46fafcdc88e5971ec",
    "vqaa_anc/result.json": "d32f26a457105dd46574dd6d682ea0130e7a706cd56cc06dc0e961d1249dbbbd",
    "vqaa_anc/trials.jsonl": "1d58aa753006781bd9071c312351b0212c1577332285bb6dd844edfd62cd049b",
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
