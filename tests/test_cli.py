"""Command line surface: config layering, digests, output files, exit codes."""

import json
import os
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

import rydock
from rydock.cli import DEFAULTS, _load_trials, config_digest, effective_config, main
from rydock.errors import InputError
from rydock.graphs import load_graph
from rydock.mlqaa import DatasetRecord, save_dataset
from rydock.optimize import search_space
from rydock.register import DeviceParams, load_register

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
DEV = DeviceParams()


def _write_graph(path, weights, edges):
    doc = {"nodes": [{"id": f"v{i}", "weight": w} for i, w in enumerate(weights)],
           "edges": edges}
    path.write_text(json.dumps(doc))
    return str(path)


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
    assert result["rounds_run"] == len(_load_trials(tmp_path / "trials.jsonl"))
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
    assert len(_load_trials(run_a / "trials.jsonl")) == 3

    # resume trims to the first two rounds without touching the log
    rc = main(["vqaa", "--register", register, "--rounds", "2", "--shots", "100",
               "--dt", "8", "--seed", "0", "--out", str(run_a), "--resume"])
    assert rc == 0
    assert len(_load_trials(run_a / "trials.jsonl")) == 3
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
    for target in report["mape"]:
        assert (models_dir / f"mlqaa_{target}.npz").exists()

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


def test_cli_import_loads_no_scipy_beyond_sparse():
    code = (
        "import sys, scipy\n"
        "before = set(sys.modules)\n"
        "import rydock.cli\n"
        "loaded = {m.split('.')[1] for m in set(sys.modules) - before\n"
        "          if m.startswith('scipy.')}\n"
        "print(' '.join(sorted(m for m in loaded if not m.startswith('_'))))\n"
    )
    src = str(Path(rydock.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["sparse"]
