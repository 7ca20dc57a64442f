"""Command line surface: config layering, digests, output files, exit codes."""

import json
import math
import os
import subprocess
import sys
from argparse import Namespace
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import rydock
from rydock.cli import DEFAULTS, config_digest, effective_config, main
from rydock.errors import InputError
from rydock.graphs import load_graph
from rydock.mlqaa import DatasetRecord, save_dataset
from rydock.mlqaa.dataset import corpus_entry
from rydock.mlqaa.gcn import TARGETS, GcnModel, init_weights, save_models
from rydock.optimize import Trial, load_trials, normalized_score, search_space, vqaa
from rydock.register import DeviceParams, load_register, omega_bounds
from rydock.rng import substream

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
DEV = DeviceParams()


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _write_graph(path, weights, edges):
    doc = {"nodes": [{"id": f"v{i}", "weight": w} for i, w in enumerate(weights)],
           "edges": edges}
    return _write(path, doc)


def _p2_register(tmp_path):
    graph = _write_graph(tmp_path / "p2.json", [1.0, 1.0], [["v0", "v1"]])
    assert main(["embed", "--graph", graph, "--out", str(tmp_path)]) == 0
    return str(tmp_path / "register.json")


def _record(spacing):
    pos = ((0.0, 0.0), (spacing, 0.0))
    return DatasetRecord(
        family="line", size_index=0, spacing=float(spacing),
        ids=("a0", "a1"), positions=pos,
        params={"t_rise": 280.0, "t_fall": 640.0, "omega": 2.0,
                "delta0": 1.5, "deltaf": 4.5},
        score=0.5, rounds=4, seed=0,
    )


def test_effective_config_layering(tmp_path):
    cfg = effective_config(Namespace(config=None))
    for key, value in DEFAULTS.items():
        assert cfg[key] == value
    assert cfg["device"] == {}

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 5, "dt": 2, "device": {"omega_max": 12.0}}))
    cfg = effective_config(Namespace(config=str(path)))
    assert cfg["seed"] == 5
    assert cfg["dt"] == 2.0
    assert cfg["device"] == {"omega_max": 12.0}
    # explicit flag beats the file
    cfg = effective_config(Namespace(config=str(path), seed=7))
    assert cfg["seed"] == 7
    # a per-command dt default sits below the file and the flag
    assert effective_config(Namespace(config=None, dt_default=8.0))["dt"] == 8.0
    assert effective_config(Namespace(config=str(path), dt_default=8.0))["dt"] == 2.0
    assert effective_config(
        Namespace(config=str(path), dt_default=8.0, dt=1.0))["dt"] == 1.0


def test_effective_config_validation(tmp_path):
    def cfg_with(doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        return Namespace(config=str(path))

    for doc in (
        {"volume": 11},
        {"device": {"magnet": 3}},
        {"device": [1, 2]},
        {"optimizer": "sgd"},
        {"family": "warble"},
        {"shots": 0},
        {"dt": 0},
        {"dt": float("nan")},
        {"dt": float("inf")},
        {"seed": "xyz"},
        {"seed": -1},
        {"epochs": 0},
        ["not", "an", "object"],
    ):
        with pytest.raises(InputError):
            effective_config(cfg_with(doc))
    with pytest.raises(InputError):
        effective_config(Namespace(config=str(tmp_path / "absent.json")))
    path = tmp_path / "mangled.json"
    path.write_text("{nope")
    with pytest.raises(InputError):
        effective_config(Namespace(config=str(path)))


def test_config_digest_stability():
    cfg = effective_config(Namespace(config=None))
    a = config_digest(cfg, "dock")
    assert a == config_digest(dict(cfg), "dock")
    assert len(a) == 12
    assert a != config_digest(cfg, "embed")
    cfg["seed"] = 1
    assert a != config_digest(cfg, "dock")


def test_config_digest_includes_the_output_version(monkeypatch):
    cfg = effective_config(Namespace(config=None))
    a = config_digest(cfg, "dock")
    monkeypatch.setattr("rydock.cli.OUTPUT_VERSION", rydock.cli.OUTPUT_VERSION + 1)
    assert config_digest(cfg, "dock") != a


def test_dock_embed_vqaa_pipeline(tmp_path, capsys):
    rc = main([
        "dock", "--ligand", str(FIXTURES / "acetic_acid.json"),
        "--receptor", str(FIXTURES / "ethylene_glycol.json"),
        "--tau", "2.0", "--out", str(tmp_path),
    ])
    assert rc == 0
    assert "contacts: 6" in capsys.readouterr().out
    binding = load_graph(tmp_path / "binding_graph.json")
    comp = load_graph(tmp_path / "complement_graph.json")
    assert binding.n == comp.n == 6
    assert len(binding.edges) + len(comp.edges) == 15
    doc = json.loads((tmp_path / "binding_graph.json").read_text())
    assert len(doc["meta"]["config_digest"]) == 12

    rc = main(["embed", "--graph", str(tmp_path / "complement_graph.json"),
               "--seed", "0", "--out", str(tmp_path)])
    assert rc == 0
    assert "atoms:" in capsys.readouterr().out
    emb = load_register(tmp_path / "register.json", DEV)
    assert emb.register.n >= 6

    rc = main(["vqaa", "--register", str(tmp_path / "register.json"),
               "--rounds", "2", "--shots", "100", "--dt", "8",
               "--seed", "0", "--out", str(tmp_path)])
    assert rc == 0
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["family"] == "complex"
    assert result["rounds_run"] == len(load_trials(tmp_path / "trials.jsonl"))
    assert 0.0 <= result["refined"]["gini"] <= 1.0
    assert isinstance(result["normalized_score"], float)
    assert all(len(b) == 6 for b, _ in result["top"])
    hist = json.loads((tmp_path / "histogram.json").read_text())
    assert hist["meta"]["config_digest"] == result["config_digest"]


def test_vqaa_resume_reuses_trials(tmp_path):
    register = _p2_register(tmp_path)
    run_a = tmp_path / "a"
    rc = main(["vqaa", "--register", register, "--rounds", "3", "--shots", "100",
               "--dt", "8", "--seed", "0", "--out", str(run_a)])
    assert rc == 0
    assert len(load_trials(run_a / "trials.jsonl")) == 3

    # resume trims to the first two rounds without touching the log
    log = (run_a / "trials.jsonl").read_bytes()
    rc = main(["vqaa", "--register", register, "--rounds", "2", "--shots", "100",
               "--dt", "8", "--seed", "0", "--out", str(run_a), "--resume"])
    assert rc == 0
    assert (run_a / "trials.jsonl").read_bytes() == log
    resumed = json.loads((run_a / "result.json").read_text())

    run_b = tmp_path / "b"
    rc = main(["vqaa", "--register", register, "--rounds", "2", "--shots", "100",
               "--dt", "8", "--seed", "0", "--out", str(run_b)])
    assert rc == 0
    fresh = json.loads((run_b / "result.json").read_text())
    assert not fresh["second_pass"]
    assert resumed == fresh

    rc = main(["vqaa", "--register", register, "--rounds", "2", "--optimizer",
               "nm", "--out", str(run_a), "--resume"])
    assert rc == 2


def test_vqaa_resume_with_nm_is_refused_before_any_output(tmp_path, capsys):
    # refused whether or not a log exists, before the search and before the
    # output directory is made
    register = _p2_register(tmp_path)
    out = tmp_path / "nm"
    argv = ["vqaa", "--register", register, "--rounds", "2", "--optimizer", "nm",
            "--out", str(out), "--resume"]
    assert main(argv) == 2
    assert not out.exists()
    assert capsys.readouterr().err == "error: resume is only meaningful for the tpe optimizer\n"
    out.mkdir()
    (out / "trials.jsonl").write_text("")
    assert main(argv) == 2
    assert [p.name for p in out.iterdir()] == ["trials.jsonl"]


def test_vqaa_resume_reruns_a_log_of_another_search(tmp_path):
    # a log written under another seed, dt and shot count must not be
    # replayed: the resumed run must equal a fresh run of its own config
    register = _p2_register(tmp_path)
    run_a = tmp_path / "a"
    rc = main(["vqaa", "--register", register, "--rounds", "4", "--shots", "100",
               "--dt", "4", "--seed", "1", "--out", str(run_a)])
    assert rc == 0
    flags = ["--register", register, "--rounds", "3", "--shots", "50",
             "--dt", "8", "--seed", "99"]
    assert main(["vqaa", *flags, "--out", str(run_a), "--resume"]) == 0
    resumed = json.loads((run_a / "result.json").read_text())
    assert len(load_trials(run_a / "trials.jsonl")) == 3

    run_b = tmp_path / "b"
    assert main(["vqaa", *flags, "--out", str(run_b)]) == 0
    fresh = json.loads((run_b / "result.json").read_text())
    assert resumed == fresh
    assert (run_a / "trials.jsonl").read_bytes() == (run_b / "trials.jsonl").read_bytes()


def test_vqaa_on_an_empty_band_exits_3_and_keeps_the_log(tmp_path, capsys):
    # the search space is refused before the log is opened, so the log of
    # an earlier run survives byte for byte
    assert main(["embed", "--graph", str(FIXTURES / "five_node.json"),
                 "--out", str(tmp_path)]) == 0
    register = str(tmp_path / "register.json")
    out = tmp_path / "run"
    argv = ["vqaa", "--register", register, "--rounds", "3", "--shots", "100",
            "--dt", "8", "--out", str(out)]
    assert main(argv) == 0
    log = (out / "trials.jsonl").read_bytes()
    assert len(log.splitlines()) == 3
    config = _write(tmp_path / "narrow.json", {"device": {"omega_max": 0.1}})
    assert main([*argv, "--config", config]) == 3
    assert "empty Rabi band" in capsys.readouterr().err
    assert (out / "trials.jsonl").read_bytes() == log


def test_vqaa_log_holds_every_finished_trial(tmp_path):
    # a search killed while it evaluates trial k leaves trials 0..k-1 as
    # whole lines, which `--resume` can replay
    emb = load_register(_p2_register(tmp_path), DEV)
    log = tmp_path / "trials.jsonl"
    seen = []

    def on_trial(trial, state):
        assert [t.round for t in load_trials(log)] == list(range(trial.round))
        assert log.read_text().endswith("\n") or trial.round == 0
        seen.append(trial.round)

    vqaa(emb, DEV, rounds=4, shots=100, dt=8.0, log_path=log, on_trial=on_trial)
    assert seen == [0, 1, 2, 3]
    assert len(load_trials(log)) == 4


@pytest.mark.parametrize("seed, evolves", [(2, 10), (3, 9)])
def test_vqaa_resume_extends_a_shorter_log(tmp_path, monkeypatch, seed, evolves):
    # resuming 5 -> 14 rounds replays the 5 logged trials and evaluates only
    # the 9 new ones, plus the winner again when it is a replayed one (its
    # state was not kept): round 1 wins at seed 2, round 11 at seed 3
    register = _p2_register(tmp_path)
    flags = ["--register", register, "--shots", "100", "--dt", "8", "--seed", str(seed)]
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    assert main(["vqaa", *flags, "--rounds", "14", "--out", str(run_b)]) == 0
    assert main(["vqaa", *flags, "--rounds", "5", "--out", str(run_a)]) == 0

    import rydock.optimize
    calls = []
    evolve = rydock.optimize.evolve
    monkeypatch.setattr(rydock.optimize, "evolve",
                        lambda *a, **k: calls.append(1) or evolve(*a, **k))
    assert main(["vqaa", *flags, "--rounds", "14", "--out", str(run_a), "--resume"]) == 0
    assert len(calls) == evolves
    for name in ("trials.jsonl", "histogram.json", "result.json"):
        assert (run_a / name).read_bytes() == (run_b / name).read_bytes()


def test_benchmark_rows_equal_standalone_runs(tmp_path, monkeypatch):
    # every trial of line-3-s11's first two rounds is nullified, so a
    # standalone 2-round search runs a second pass, and so must its row
    entry = corpus_entry("line", 3, 11.0, DEV)
    monkeypatch.setattr("rydock.cli.generate_corpus", lambda *a, **k: [entry])
    assert main(["benchmark", "--subset", "lines", "--rounds", "2,4", "--shots", "200",
                 "--dt", "8", "--seed", "3", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "benchmark.csv").read_text().splitlines()[2:]
    seed = int(substream(3, "bench", entry.name).integers(1 << 62))
    assert len(rows) == 2
    for row, k in zip(rows, (2, 4)):
        res = vqaa(entry.embedding, DEV, family="complex", rounds=k, shots=200,
                   optimizer="tpe", seed=seed, dt=8.0)
        assert res.second_pass == (k == 2)
        norm = normalized_score(res.refined_histogram, entry.embedding.graph, res.refined)
        assert row.split(",")[4:] == [str(k), str(res.refined.score), str(norm),
                                      str(res.low_confidence)]


@pytest.mark.parametrize("rounds", ["1.5", "10,2.5", "0", "nan", "inf", ","])
def test_benchmark_refuses_rounds_that_are_not_positive_integers(tmp_path, monkeypatch,
                                                                 capsys, rounds):
    # refused before any corpus is built, instead of truncating 1.5 to 1 round
    monkeypatch.setattr("rydock.cli.generate_corpus",
                        lambda *a, **k: pytest.fail("corpus built"))
    capsys.readouterr()
    assert main(["benchmark", "--rounds", rounds, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: rounds list"), err


@pytest.mark.parametrize("command, doc", [
    ("benchmark", {"optimizer": "nm"}),
    ("dataset", {"optimizer": "nm"}),
    ("dataset", {"family": "simple"}),
])
def test_corpus_commands_refuse_settings_they_ignore(tmp_path, monkeypatch, capsys,
                                                     command, doc):
    # benchmark always searches with tpe, and dataset labels with tpe on the
    # complex family; another value is refused before any corpus is built
    monkeypatch.setattr("rydock.cli.generate_corpus",
                        lambda *a, **k: pytest.fail("corpus built"))
    cfg = _write(tmp_path / "cfg.json", doc)
    capsys.readouterr()
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    (key, value), = doc.items()
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {command} runs {key} {DEFAULTS[key]!r} only, not {value!r}"], err


def test_benchmark_embeds_under_the_configured_device(tmp_path, monkeypatch):
    # the corpus a benchmark searches is embedded under the config's device;
    # with c6 halved the first line register's blockade radius moves
    dev = replace(DEV, c6=DEV.c6 / 2)
    cfg = _write(tmp_path / "cfg.json", {"device": {"c6": dev.c6}})
    searched = []

    class Searched(Exception):
        pass

    def first_search(emb, used, **kw):
        searched.append((emb, used))
        raise Searched

    monkeypatch.setattr("rydock.cli.vqaa", first_search)
    with pytest.raises(Searched):
        main(["benchmark", "--config", cfg, "--rounds", "1", "--out", str(tmp_path)])
    (emb, used), = searched
    assert used == dev
    want = corpus_entry("line", 0, 6.0, dev).embedding
    assert want.blockade_radius != corpus_entry("line", 0, 6.0, DEV).embedding.blockade_radius
    assert emb.blockade_radius == want.blockade_radius
    assert emb.register.atoms == want.register.atoms


def test_main_reuses_one_parser_without_carrying_options(tmp_path, monkeypatch):
    # the parser is built once per process; an option given to one call
    # must not leak into the next, and a command rebound after the parser
    # was built (as bench/tracer.py rebinds them) is the one that runs
    graph = _write_graph(tmp_path / "p2.json", [1.0, 1.0], [["v0", "v1"]])
    for out, extra in (("a", ["--spacing", "7"]), ("b", [])):
        assert main(["embed", "--graph", graph, "--out", str(tmp_path / out), *extra]) == 0
    assert load_register(tmp_path / "a" / "register.json").spacing == 7.0
    assert load_register(tmp_path / "b" / "register.json").spacing == DEFAULTS["spacing"]
    assert rydock.cli.build_parser() is rydock.cli.build_parser()
    monkeypatch.setattr("rydock.cli.cmd_embed", lambda args, cfg, *rest: cfg["spacing"])
    assert main(["embed", "--graph", graph, "--spacing", "5", "--out", str(tmp_path)]) == 5.0


def test_sweep_writes_grid(tmp_path, capsys):
    register = _p2_register(tmp_path)
    rc = main(["sweep", "--register", register, "--omegas", "2.0",
               "--deltas", "3.0", "--times", "200,400", "--shots", "100",
               "--dt", "8", "--out", str(tmp_path)])
    assert rc == 0
    assert "cells: 2" in capsys.readouterr().out
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert lines[0].startswith("# config_digest=")
    assert lines[1] == "omega,delta,time,success_prob"
    assert len(lines) == 4

    rc = main(["sweep", "--register", register, "--omegas", "2;3",
               "--deltas", "3", "--times", "200", "--out", str(tmp_path)])
    assert rc == 2


def test_oracle_lists_solutions(tmp_path, capsys):
    out_file = tmp_path / "oracle.json"
    rc = main(["oracle", "--graph", str(FIXTURES / "five_node.json"),
               "--clique", "--out-file", str(out_file)])
    assert rc == 0
    assert "agree" in capsys.readouterr().out
    doc = json.loads(out_file.read_text())
    assert doc["cross_check_agrees"] is True
    assert all(set(m["bitstring"]) <= {"0", "1"} for m in doc["mwis"])


def test_oracle_cross_check_failure_is_numerical(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("rydock.cli.max_weight_clique", lambda g: [])
    rc = main(["oracle", "--graph", str(FIXTURES / "five_node.json")])
    assert rc == 4
    assert "numerical failure" in capsys.readouterr().err


def test_exit_codes(tmp_path, capsys):
    # star with six leaves cannot be laid out on the plane within blockade
    star = _write_graph(tmp_path / "star.json", [1.0] * 7,
                        [["v0", f"v{k}"] for k in range(1, 7)])
    assert main(["embed", "--graph", star, "--out", str(tmp_path)]) == 3
    assert "infeasible" in capsys.readouterr().err
    # a negative seed is refused before any random stream is made
    assert main(["embed", "--graph", star, "--seed", "-1", "--out", str(tmp_path)]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err

    assert main(["dock", "--ligand", str(tmp_path / "absent.json"),
                 "--receptor", str(FIXTURES / "acetic_acid.json"),
                 "--out", str(tmp_path)]) == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["embed", "--graph", str(bad), "--out", str(tmp_path)]) == 2

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"optimizer": "sgd"}))
    register = _p2_register(tmp_path)
    assert main(["vqaa", "--register", register, "--config", str(cfg),
                 "--out", str(tmp_path)]) == 2

    # a stored blockade radius whose disk graph is not the stored graph
    doc = json.loads(Path(register).read_text())
    doc["blockade_radius"] = 1.0
    shrunk = tmp_path / "shrunk.json"
    shrunk.write_text(json.dumps(doc))
    assert main(["vqaa", "--register", str(shrunk), "--rounds", "1",
                 "--out", str(tmp_path / "shrunk")]) == 3
    assert "does not realise" in capsys.readouterr().err

    # a non-finite step is refused before any evolution runs
    for dt in ("nan", "inf"):
        assert main(["vqaa", "--register", register, "--rounds", "1",
                     "--dt", dt, "--out", str(tmp_path / "nonfinite")]) == 2
        assert "positive finite" in capsys.readouterr().err
    assert not (tmp_path / "nonfinite").exists()


def _ligand(points):
    return {"name": "l", "points": points}


LIGAND = str(FIXTURES / "acetic_acid.json")
RECEPTOR = str(FIXTURES / "ethylene_glycol.json")
SWEEP = ["sweep", "--register", "REGISTER"]  # a two-atom register, written per test


def _malformed(case, tmp_path):
    """(argv, path the error line must name) for one regression case: a
    malformed input, or an output that cannot be written."""
    out = ["--out", str(tmp_path / "out")]
    if case == "dataset_missing":
        path = str(tmp_path / "absent.jsonl")
        return ["train", "--dataset", path, *out], path
    if case == "graph_is_directory":
        path = str(tmp_path)
        return ["embed", "--graph", path, *out], path
    if case == "graph_nodes_not_objects":
        path = _write(tmp_path / "g.json", {"nodes": [1, 2]})
        return ["embed", "--graph", path, *out], path
    if case == "node_weight_not_a_number":
        path = _write(tmp_path / "g.json", {"nodes": [{"id": "a", "weight": "x"}]})
        return ["embed", "--graph", path, *out], path
    if case == "node_weight_negative":
        path = _write(tmp_path / "g.json", {"nodes": [{"id": "a", "weight": -1}]})
        return ["embed", "--graph", path, *out], path
    if case == "out_is_a_file":
        path = _write(tmp_path / "taken", {})
        return ["embed", "--graph", str(FIXTURES / "five_node.json"), "--out", path], path
    if case == "out_file_in_missing_dir":
        path = str(tmp_path / "absent" / "oracle.json")
        return ["oracle", "--graph", str(FIXTURES / "five_node.json"),
                "--out-file", path, *out], path
    if case == "atom_without_x":
        path = _write(tmp_path / "r.json", {"atoms": [{"id": "a", "y": 0.0}]})
        return ["vqaa", "--register", path, *out], path
    if case in ("register_without_radius", "link_key_names_no_atoms",
                "atom_weight_nan", "atom_x_nan", "atom_x_infinite", "radius_infinite"):
        doc = json.loads(Path(_p2_register(tmp_path)).read_text())
        if case == "register_without_radius":
            del doc["blockade_radius"]
        elif case == "link_key_names_no_atoms":
            doc["meta"]["links"] = {"v0~nope": []}
        elif case == "radius_infinite":
            doc["blockade_radius"] = math.inf
        else:
            key, value = {"atom_weight_nan": ("w", math.nan), "atom_x_nan": ("x", math.nan),
                          "atom_x_infinite": ("x", math.inf)}[case]
            doc["atoms"][0][key] = value
        path = _write(tmp_path / "r.json", doc)
        return ["vqaa", "--register", path, *out], path
    if case == "graph_pos_nan":
        path = _write(tmp_path / "g.json", {"nodes": [{"id": "a", "pos": [0.0, 0.0]},
                                                      {"id": "b", "pos": [math.nan, 9.0]}],
                                            "edges": [["a", "b"]]})
        return ["embed", "--graph", path, *out], path
    if case == "xyz_not_numbers":
        path = _write(tmp_path / "l.json",
                      _ligand([{"id": "a", "kind": "HDonor", "xyz": "abc"}]))
        return ["dock", "--ligand", path, "--receptor", RECEPTOR, *out], path
    if case == "xyz_nan":
        points = json.loads(Path(LIGAND).read_text())["points"]
        points[0]["xyz"][0] = math.nan
        path = _write(tmp_path / "l.json", _ligand(points))
        return ["dock", "--ligand", path, "--receptor", RECEPTOR, *out], path
    if case == "points_not_a_list":
        path = _write(tmp_path / "l.json", _ligand(5))
        return ["dock", "--ligand", path, "--receptor", RECEPTOR, *out], path
    if case in ("table_pair_without_s", "table_s_nan", "table_s_infinite"):
        pair = {"a": "HDonor", "b": "HAcceptor"}
        if case != "table_pair_without_s":
            pair["s"] = math.nan if case == "table_s_nan" else math.inf
        path = _write(tmp_path / "t.json", {"pairs": [pair]})
        return ["dock", "--ligand", LIGAND, "--receptor", RECEPTOR,
                "--table", path, *out], path
    if case == "device_value_not_a_number":
        path = _write(tmp_path / "cfg.json", {"device": {"c6": "x"}})
        return ["embed", "--graph", str(FIXTURES / "five_node.json"),
                "--config", path, *out], path
    if case == "device_c6_infinite":
        path = _write(tmp_path / "cfg.json", {"device": {"c6": math.inf}})
        return ["embed", "--graph", str(FIXTURES / "five_node.json"),
                "--config", path, *out], path
    if case == "junk_model_set":
        models = tmp_path / "models"
        models.mkdir()
        (models / "mlqaa_models.npz").write_bytes(b"not a model")
        register = _p2_register(tmp_path)
        return (["predict", "--register", register, "--models", str(models), *out],
                str(models / "mlqaa_models.npz"))
    if case in ("dataset_score_nan", "dataset_label_nan", "dataset_ids_not_positions",
                "model_t_lo_nan", "model_w2_wrong_shape"):
        recs = [_record(s) for s in (6.0, 7.5, 9.0, 11.0)]
        if case == "dataset_score_nan":
            recs = [replace(r, score=math.nan) for r in recs]
        if case == "dataset_label_nan":
            recs[0] = replace(recs[0], params={**recs[0].params, "t_rise": math.nan})
        if case == "dataset_ids_not_positions":
            recs = [replace(r, ids=r.ids[:1]) for r in recs]
        dataset = str(tmp_path / "dataset.jsonl")
        save_dataset(recs, dataset)
        models = tmp_path / "models"
        models.mkdir()
        weights = init_weights(0)
        if case == "model_w2_wrong_shape":
            weights["W2"] = np.zeros((128, 64))
        save_models({t: GcnModel(weights=weights, target=t, t_hi=1.0,
                                 t_lo=math.nan if case == "model_t_lo_nan" else 0.0)
                     for t in TARGETS}, models / "mlqaa_models.npz")
        if case == "dataset_score_nan":
            return (["mlqaa-eval", "--dataset", dataset, "--models", str(models), *out],
                    dataset)
        if case in ("dataset_label_nan", "dataset_ids_not_positions"):
            return ["train", "--dataset", dataset, "--epochs", "1", *out], dataset
        return (["predict", "--register", _p2_register(tmp_path), "--models", str(models),
                 *out], str(models / "mlqaa_models.npz"))
    raise AssertionError(case)


@pytest.mark.parametrize("case", [
    "dataset_missing", "graph_is_directory", "graph_nodes_not_objects",
    "node_weight_not_a_number", "atom_without_x", "xyz_not_numbers",
    "points_not_a_list", "table_pair_without_s", "device_value_not_a_number",
    "junk_model_set", "node_weight_negative", "out_is_a_file",
    "out_file_in_missing_dir", "register_without_radius", "link_key_names_no_atoms",
    # JSON reads NaN and Infinity literals, so every number a file feeds in
    # is checked for being finite
    "xyz_nan", "atom_weight_nan", "atom_x_nan", "atom_x_infinite", "radius_infinite",
    "graph_pos_nan", "device_c6_infinite", "table_s_nan", "table_s_infinite",
    "dataset_score_nan", "dataset_label_nan", "model_t_lo_nan",
    # a record's ids and positions pair up, and each model array has the
    # shape and float type `init_weights` gives it
    "dataset_ids_not_positions", "model_w2_wrong_shape",
])
def test_malformed_input_exits_2_naming_the_file(tmp_path, capsys, case):
    argv, path = _malformed(case, tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and path in err[0], err


@pytest.mark.parametrize("argv", [
    ["embed", "--graph", str(FIXTURES / "five_node.json"), "--spacing", "nan"],
    ["embed", "--graph", str(FIXTURES / "five_node.json"), "--spacing", "inf"],
    ["dock", "--ligand", LIGAND, "--receptor", RECEPTOR, "--tau", "nan"],
    [*SWEEP, "--deltas", "5", "--times", "400", "--omegas", "nan"],
    [*SWEEP, "--omegas", "3", "--times", "400", "--deltas", "nan"],
    [*SWEEP, "--omegas", "3", "--deltas", "5", "--times", "inf"],
    [*SWEEP, "--deltas", "5", "--times", "400", "--omegas", ","],
], ids=["spacing_nan", "spacing_inf", "tau_nan", "omegas_nan", "deltas_nan", "times_inf",
        "omegas_empty"])
def test_non_finite_flags_exit_2(tmp_path, capsys, argv):
    flag = argv[-2].lstrip("-")
    if "REGISTER" in argv:
        argv = [_p2_register(tmp_path) if a == "REGISTER" else a for a in argv]
        capsys.readouterr()
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {flag} must be finite"), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (["vqaa", "--register", "REGISTER", "--rounds", "0"], "rounds must be >= 1"),
    (["dataset", "--rounds", "0"], "rounds must be >= 1"),
    (["benchmark", "--rounds", "0"], "rounds list must contain positive integers"),
    (["dock", "--ligand", LIGAND, "--receptor", RECEPTOR, "--tau", "-1"],
     "tau must be >= 0"),
], ids=["vqaa_rounds_0", "dataset_rounds_0", "benchmark_rounds_0", "dock_tau_negative"])
def test_bad_rounds_or_tau_is_refused_before_the_output_directory(tmp_path, capsys,
                                                                  argv, message):
    if "REGISTER" in argv:
        argv = [_p2_register(tmp_path) if a == "REGISTER" else a for a in argv]
        capsys.readouterr()
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {message}"), err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["vqaa", "--register", "ABSENT"],
    ["sweep", "--register", "ABSENT", "--omegas", "2", "--deltas", "3", "--times", "400"],
    ["embed", "--graph", "ABSENT"],
    ["dock", "--ligand", "ABSENT", "--receptor", RECEPTOR],
    ["train", "--dataset", "ABSENT"],
    ["predict", "--register", "REGISTER", "--models", "ABSENT"],
    ["mlqaa-eval", "--dataset", "DATASET", "--models", "ABSENT"],
], ids=["vqaa", "sweep", "embed", "dock", "train", "predict", "mlqaa_eval"])
def test_unreadable_input_leaves_no_output_directory(tmp_path, capsys, argv):
    absent = str(tmp_path / "absent.json")
    dataset = tmp_path / "dataset.jsonl"
    save_dataset([_record(s) for s in (6.0, 7.5, 9.0, 11.0)], dataset)
    argv = [{"ABSENT": absent, "REGISTER": _p2_register(tmp_path),
             "DATASET": str(dataset)}.get(a, a) for a in argv]
    capsys.readouterr()
    out = tmp_path / "D"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "absent.json" in err[0], err
    assert not out.exists()


def test_log_formats_are_pinned(tmp_path):
    # one trials.jsonl line and one dataset.jsonl line, byte for byte
    trial = Trial(round=0, params={"omega": 2.5, "delta": 3.0, "time": 400.0},
                  score=0.5, gini=0.25, mean_f=0.75, top=(("10", 60), ("01", 40)))
    emb = load_register(_p2_register(tmp_path), DEV)
    log = tmp_path / "trials.jsonl"
    vqaa(emb, DEV, family="simple", rounds=1, shots=100, dt=8.0, log_path=log,
         log_fields={"search_digest": "abc"}, replay=[trial])
    assert log.read_text() == (
        '{"gini": 0.25, "mean_f": 0.75, "params": {"delta": 3.0, "omega": 2.5, '
        '"time": 400.0}, "round": 0, "score": 0.5, "search_digest": "abc", '
        '"top": [["10", 60], ["01", 40]]}\n')
    assert load_trials(log) == [trial]
    assert load_trials(log, "abc") == [trial]
    assert load_trials(log, "another search") == []

    dataset = tmp_path / "dataset.jsonl"
    save_dataset([_record(6.0)], dataset)
    assert dataset.read_text() == (
        '{"family": "line", "ids": ["a0", "a1"], "params": {"delta0": 1.5, '
        '"deltaf": 4.5, "omega": 2.0, "t_fall": 640.0, "t_rise": 280.0}, '
        '"positions": [[0.0, 0.0], [6.0, 0.0]], "rounds": 4, "score": 0.5, '
        '"seed": 0, "size_index": 0, "spacing": 6.0}\n')


def test_train_predict_eval_round(tmp_path, capsys):
    records = [_record(s) for s in (6.0, 7.5, 9.0, 11.0)]
    dataset = tmp_path / "dataset.jsonl"
    save_dataset(records, dataset)

    models_dir = tmp_path / "models"
    rc = main(["train", "--dataset", str(dataset), "--epochs", "2",
               "--seed", "0", "--out", str(models_dir)])
    assert rc == 0
    report = json.loads((models_dir / "mape_report.json").read_text())
    assert report["train_size"] == 3
    assert report["holdout_size"] == 1
    assert set(report["mape"]) == {"t_rise", "t_fall", "omega", "delta0", "deltaf"}
    assert sorted(p.name for p in models_dir.iterdir()) == ["mape_report.json",
                                                            "mlqaa_models.npz"]

    register = _p2_register(tmp_path)
    rc = main(["predict", "--register", register, "--models", str(models_dir),
               "--out", str(tmp_path)])
    assert rc == 0
    params = json.loads((tmp_path / "params.json").read_text())["params"]
    emb = load_register(register, DEV)
    space = search_space(emb, DEV, "complex")
    assert set(params) == set(space.intervals)
    assert space.feasible(params)

    rc = main(["mlqaa-eval", "--dataset", str(dataset), "--models",
               str(models_dir), "--shots", "100", "--dt", "8",
               "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "mlqaa_eval_summary.json").read_text())
    assert summary["holdout_size"] == 1
    assert summary["gap"] == pytest.approx(
        summary["vqaa_mean_normalized"] - summary["mlqaa_mean_normalized"])
    rows = (tmp_path / "mlqaa_eval.csv").read_text().strip().splitlines()
    assert len(rows) == 3

    rc = main(["predict", "--register", register,
               "--models", str(tmp_path / "missing"), "--out", str(tmp_path)])
    assert rc == 2


def test_mlqaa_eval_scores_a_zero_drive_prediction(tmp_path, monkeypatch):
    # a 2-atom line's Rabi band starts at 0, so a predicted pulse can clamp to
    # omega 0: the register stays in its ground state, which is scored, not refused
    records = [_record(s) for s in (6.0, 7.5, 9.0, 11.0)]
    dataset = tmp_path / "dataset.jsonl"
    save_dataset(records, dataset)
    models_dir = tmp_path / "models"
    assert main(["train", "--dataset", str(dataset), "--epochs", "2",
                 "--seed", "0", "--out", str(models_dir)]) == 0
    assert omega_bounds(records[0].embedding(DEV), DEV)[0] == 0.0
    monkeypatch.setattr("rydock.cli.predict_params",
                        lambda models, emb, dev: {**records[0].params, "omega": 0.0})
    assert main(["mlqaa-eval", "--dataset", str(dataset), "--models", str(models_dir),
                 "--shots", "100", "--dt", "8", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "mlqaa_eval.csv").read_text().strip().splitlines()
    assert len(rows) == 3
    assert rows[2].split(",")[3] == "0.0"  # mlqaa_norm of the all-zeros outcome


def test_mlqaa_eval_refuses_an_empty_dataset(tmp_path, capsys):
    # with valid models, an empty dataset is refused as `train` refuses it,
    # instead of averaging no rows into a NaN gap
    dataset = tmp_path / "dataset.jsonl"
    save_dataset([_record(s) for s in (6.0, 7.5, 9.0, 11.0)], dataset)
    models_dir = tmp_path / "models"
    assert main(["train", "--dataset", str(dataset), "--epochs", "2",
                 "--seed", "0", "--out", str(models_dir)]) == 0
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    capsys.readouterr()
    for command in (["train"], ["mlqaa-eval", "--models", str(models_dir)]):
        assert main([*command, "--dataset", str(empty), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: dataset is empty"], err
    assert not (tmp_path / "mlqaa_eval_summary.json").exists()


def test_train_refuses_an_empty_training_split(tmp_path, capsys):
    # one record is all held out: the file is not empty, its training split is
    dataset = tmp_path / "dataset.jsonl"
    save_dataset([_record(6.0)], dataset)
    capsys.readouterr()
    assert main(["train", "--dataset", str(dataset), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: training split is empty: the holdout takes every record"], err
    assert not (tmp_path / "mape_report.json").exists()


def test_train_mape_in_device_units(tmp_path):
    # omega labels sit mid-band, about 5-12 rad/us; the model predicts a band
    # fraction near 0.5, which must be mapped back through each holdout
    # register's band before it is compared with the label
    records = []
    for s in (6.0, 6.5, 7.0, 7.5, 8.0, 8.5, 9.0, 9.5, 10.0, 11.0):
        rec = _record(s)
        lo, hi = omega_bounds(rec.embedding(DEV), DEV)
        records.append(replace(rec, params={**rec.params, "omega": 0.5 * (lo + hi)}))
    dataset = tmp_path / "dataset.jsonl"
    save_dataset(records, dataset)
    rc = main(["train", "--dataset", str(dataset), "--epochs", "30",
               "--seed", "0", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "mape_report.json").read_text())
    assert report["holdout_size"] == 2
    assert report["mape"]["omega"] < 5.0


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency: importing the CLI and evolving a
    # 12-atom register (two Kronecker groups) loads no scipy module at all
    code = (
        "import sys\n"
        "import rydock.cli\n"
        "from rydock.pulses import simple_sequence\n"
        "from rydock.register import Atom, DeviceParams, Register\n"
        "from rydock.simulator import evolve\n"
        "reg = Register(atoms=tuple(Atom(f'q{k}', 9.0 * k, 0.0) for k in range(12)))\n"
        "dev = DeviceParams()\n"
        "seq = simple_sequence(dict(omega=3.0, delta=2.5, time=100.0),\n"
        "                      dev.omega_max, dev.delta_abs_max)\n"
        "evolve(reg, seq, dev, dt=8.0)\n"
        "print(' '.join(sorted(m for m in sys.modules\n"
        "                      if m.partition('.')[0] == 'scipy')))\n"
    )
    src = str(Path(rydock.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []
