"""Command line interface for the docking-to-pulse pipeline.

Every command reads one optional JSON config plus flag overrides, derives
all randomness from a single root seed, and stamps each output file with
the sha256 digest of the effective configuration so that runs can be told
apart (and reproduced) byte for byte. No timestamps are written anywhere.

Exit codes: 0 success, 2 bad input or unwritable output, 3 infeasible
embedding or band, 4 numerical failure. An input file that is missing,
unreadable, not JSON, or holds a document that does not decode, and an output
directory or file that cannot be written, exit 2 with one `error:` line
naming the path.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import files
from .docking import (
    DEFAULT_TAU,
    build_binding_graph,
    default_table,
    load_molecule,
    load_table,
)
from .errors import InfeasibilityError, InputError, NumericalError
from .graphs import (
    brute_force_mwis,
    complement,
    load_graph,
    max_weight_clique,
    save_graph,
)
from .histogram import save_histogram
from .mlqaa.dataset import (
    generate_corpus,
    label_dataset,
    load_dataset,
    save_dataset,
    train_holdout_split,
)
from .mlqaa.gcn import (
    TARGETS,
    load_models,
    mape,
    predict_params,
    predict_unclamped,
    save_models,
    train_models,
)
from .optimize import (
    evaluate_params,
    load_trials,
    normalized_score,
    normalized_value,
    qaa_sweep,
    success_probability,
    vqaa,
)
from .pulses import FAMILIES
from .register import DeviceParams, layout, load_register, omega_bounds, save_register
from .rng import substream

# Spacing 9 um puts edge interactions near 10 rad/us and 1.7x non-edge
# clearances near 0.5 rad/us, both comfortably bracketed by the hardware
# omega and delta ranges; tighter registers leave the soft interaction
# tails competing with the detuning.
DEFAULTS = {
    "seed": 0, "shots": 1000, "dt": 4.0, "rounds": 50, "optimizer": "tpe",
    "family": "complex", "tau": DEFAULT_TAU, "spacing": 9.0, "epochs": 300,
    "holdout_frac": 0.2, "out": ".",
}
CONFIG_KEYS = {"device", *DEFAULTS}
# The sweep grid's flags, in qaa_sweep's argument order.
SWEEP_AXES = ("omegas", "deltas", "times")
# The model set's file: `train` writes it to --out, and --models names that directory.
MODEL_FILE = "mlqaa_models.npz"
# Enters every config digest: a change that moves any output bumps it, so
# that one digest always stamps the same bytes.
OUTPUT_VERSION = 2


def _config_doc(doc) -> dict:
    if not isinstance(doc, dict):
        raise InputError("config must be a JSON object")
    unknown = set(doc) - CONFIG_KEYS
    if unknown:
        raise InputError(f"unknown config keys: {sorted(unknown)}")
    DeviceParams(**doc.get("device", {}))  # refuses unknown keys and non-numbers
    return doc


def effective_config(args) -> dict:
    """Config file values, overridden by explicit CLI flags, over defaults."""
    cfg = dict(DEFAULTS)
    if getattr(args, "dt_default", None) is not None:
        cfg["dt"] = args.dt_default
    cfg["device"] = {}
    if getattr(args, "config", None):
        loaded = files.read(args.config, _config_doc)
        cfg["device"].update(loaded.get("device", {}))
        for k, v in loaded.items():
            if k != "device":
                cfg[k] = v
    for k in DEFAULTS:
        flag = getattr(args, k, None)
        if flag is not None:
            cfg[k] = flag
    try:
        for k in ("seed", "shots", "rounds", "epochs"):
            cfg[k] = int(cfg[k])
        for k in ("dt", "tau", "spacing", "holdout_frac"):
            cfg[k] = float(cfg[k])
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad config value: {exc}") from None
    for k, least in (("seed", 0), ("shots", 1), ("rounds", 1), ("epochs", 1), ("tau", 0)):
        if cfg[k] < least:
            raise InputError(f"{k} must be >= {least}")
    if not (math.isfinite(cfg["dt"]) and cfg["dt"] > 0):
        raise InputError(f"dt must be a positive finite number, got {cfg['dt']}")
    for k in ("tau", "spacing"):
        if not math.isfinite(cfg[k]):
            raise InputError(f"{k} must be finite, got {cfg[k]}")
    if cfg["optimizer"] not in ("tpe", "nm"):
        raise InputError(f"unknown optimizer {cfg['optimizer']!r}")
    if cfg["family"] not in FAMILIES:
        raise InputError(f"unknown family {cfg['family']!r}")
    return cfg


def config_digest(cfg: dict, command: str) -> str:
    doc = dict(cfg)
    doc.pop("out", None)  # runs differing only in output directory are the same run
    doc["command"] = command
    doc["output_version"] = OUTPUT_VERSION
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _write_csv(path, meta, columns, rows):
    with open(path, "w") as fh:
        fh.write(f"# config_digest={meta['config_digest']} seed={meta['seed']}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(str(row[c]) for c in columns) + "\n")


def _float_list(text) -> list:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise InputError(f"expected comma-separated numbers, got {text!r}") from None


def cmd_dock(args, cfg, meta, out, dev) -> int:
    ligand = load_molecule(args.ligand)
    receptor = load_molecule(args.receptor)
    table = load_table(args.table) if args.table else default_table()
    os.makedirs(out, exist_ok=True)
    g = build_binding_graph(ligand, receptor, table, tau=cfg["tau"])
    gc = complement(g)
    save_graph(g, os.path.join(out, "binding_graph.json"), meta=meta)
    save_graph(gc, os.path.join(out, "complement_graph.json"), meta=meta)
    print(f"contacts: {g.n}  binding edges: {len(g.edges)}  "
          f"complement edges: {len(gc.edges)}")
    if g.n == 0:
        print("warning: no attracting contacts, graphs are empty", file=sys.stderr)
    return 0


def cmd_embed(args, cfg, meta, out, dev) -> int:
    g = load_graph(args.graph)
    os.makedirs(out, exist_ok=True)
    emb = layout(g, dev, spacing=cfg["spacing"], seed=cfg["seed"])
    lo, hi = omega_bounds(emb, dev)
    ancillas = emb.ancilla_ids()
    save_register(emb, os.path.join(out, "register.json"), meta=meta)
    print(f"atoms: {emb.register.n}  ancillas: {len(ancillas)}  "
          f"links: {len(emb.link_map)}  omega band: [{lo:.4g}, {hi:.4g}] rad/us")
    return 0


def cmd_vqaa(args, cfg, meta, out, dev) -> int:
    emb = load_register(args.register, dev)
    log_path = os.path.join(out, "trials.jsonl")
    # a log is replayed for the same register and config but `rounds` only
    with open(args.register, "rb") as fh:
        register_sha = hashlib.sha256(fh.read()).hexdigest()
    os.makedirs(out, exist_ok=True)
    digest = config_digest({**cfg, "rounds": None, "register": register_sha}, "vqaa")

    done = load_trials(log_path, digest) if args.resume and os.path.exists(log_path) else []
    # a log of the same search is replayed, and extended if it is shorter
    res = vqaa(
        emb, dev, family=cfg["family"], rounds=cfg["rounds"],
        shots=cfg["shots"], optimizer=cfg["optimizer"], seed=cfg["seed"],
        dt=cfg["dt"], log_path=None if len(done) >= cfg["rounds"] else log_path,
        log_fields={"search_digest": digest}, replay=done,
    )

    g = emb.graph
    norm = normalized_score(res.refined_histogram, g, res.refined)
    succ = success_probability(res.refined_histogram, g)
    files.write(os.path.join(out, "result.json"), {
        **meta,
        "family": res.family,
        "optimizer": cfg["optimizer"],
        "rounds_run": len(res.trials),
        "best_round": res.best.round,
        "best_params": res.best.params,
        "best_trial_score": res.best.score,
        "refined": {
            "score": res.refined.score, "mean_f": res.refined.mean_f,
            "gini": res.refined.gini, "nullified": res.refined.nullified,
        },
        "normalized_score": norm,
        "success_probability": succ,
        "low_confidence": res.low_confidence,
        "second_pass": res.second_pass,
        "top": [list(t) for t in res.refined_histogram.top(10)],
    })
    save_histogram(res.refined_histogram, os.path.join(out, "histogram.json"), meta=meta)
    print(f"best round {res.best.round}: score {res.refined.score:.4f} "
          f"(normalized {norm:.4f}, success {succ:.3f})"
          + ("  [low confidence]" if res.low_confidence else ""))
    return 0


def _sweep_axis(args, k: str) -> list:
    """The sweep flag `k` as a non-empty list of finite numbers."""
    values = _float_list(getattr(args, k))
    bad = [v for v in values if not math.isfinite(v)]
    if bad or not values:
        raise InputError(f"{k} must be finite, got {bad[0] if bad else 'no values'}")
    return values


def cmd_sweep(args, cfg, meta, out, dev) -> int:
    emb = load_register(args.register, dev)
    os.makedirs(out, exist_ok=True)
    rows = qaa_sweep(
        emb, dev, *(_sweep_axis(args, k) for k in SWEEP_AXES),
        shots=cfg["shots"], seed=cfg["seed"], dt=cfg["dt"],
    )
    _write_csv(os.path.join(out, "sweep.csv"), meta,
               ["omega", "delta", "time", "success_prob"], rows)
    feasible = [r for r in rows if not math.isnan(r["success_prob"])]
    if feasible:
        best = max(feasible, key=lambda r: r["success_prob"])
        print(f"cells: {len(rows)} ({len(rows) - len(feasible)} infeasible)  "
              f"best: omega={best['omega']:g} delta={best['delta']:g} "
              f"time={best['time']:g} success={best['success_prob']:.3f}")
    else:
        print(f"cells: {len(rows)} (all infeasible)")
    return 0


def _rounds_list(args) -> list:
    """benchmark's --rounds as a sorted list of positive integers."""
    rounds = _float_list(args.rounds_list)
    if not rounds or not all(r >= 1 and r.is_integer() for r in rounds):
        raise InputError(f"rounds list must contain positive integers, got {args.rounds_list!r}")
    return sorted(int(r) for r in rounds)


def _benchmark_entries(subset: str, dev: DeviceParams):
    entries = generate_corpus(dev)
    if subset == "lines":
        return [e for e in entries if e.family == "line"]
    if subset == "all":
        return entries
    raise InputError(f"unknown subset {subset!r}")


def _refuse_other(cfg: dict, command: str, **runs):
    """InputError when the config sets a key to a value `command` ignores."""
    for k, v in runs.items():
        if cfg[k] != v:
            raise InputError(f"{command} runs {k} {v!r} only, not {cfg[k]!r}")


def cmd_benchmark(args, cfg, meta, out, dev) -> int:
    # replaying the longest search for every shorter one needs tpe
    _refuse_other(cfg, "benchmark", optimizer="tpe")
    rounds_list = _rounds_list(args)
    os.makedirs(out, exist_ok=True)
    rows = []
    for entry in _benchmark_entries(args.subset, dev):
        entry_seed = int(substream(cfg["seed"], "bench", entry.name).integers(1 << 62))
        kw = dict(family=cfg["family"], shots=cfg["shots"], optimizer="tpe",
                  seed=entry_seed, dt=cfg["dt"])
        full = vqaa(entry.embedding, dev, rounds=rounds_list[-1], **kw)
        for k in rounds_list:
            # the longest run's trials replay as a standalone run of k rounds
            res = full if k == rounds_list[-1] else vqaa(
                entry.embedding, dev, rounds=k, replay=full.trials, **kw)
            norm = normalized_score(res.refined_histogram, entry.embedding.graph,
                                    res.refined)
            rows.append({
                "family": entry.family, "size_index": entry.size_index,
                "spacing": entry.spacing, "n_atoms": entry.embedding.register.n,
                "rounds": k, "score": res.refined.score,
                "normalized_score": norm,
                "low_confidence": res.low_confidence,
            })
    _write_csv(os.path.join(out, "benchmark.csv"), meta,
               ["family", "size_index", "spacing", "n_atoms", "rounds", "score",
                "normalized_score", "low_confidence"], rows)
    for k in rounds_list:
        vals = [r["normalized_score"] for r in rows if r["rounds"] == k]
        print(f"rounds {k}: mean normalized score {np.mean(vals):.4f} "
              f"over {len(vals)} registers")
    return 0


def cmd_dataset(args, cfg, meta, out, dev) -> int:
    # the labels are the complex-family parameters the GCN learns, found by tpe
    _refuse_other(cfg, "dataset", optimizer="tpe", family="complex")
    os.makedirs(out, exist_ok=True)
    entries = generate_corpus(dev)

    def progress(k, total, name, res):
        if args.verbose:
            print(f"[{k + 1}/{total}] {name}: score {res.refined.score:.4f}",
                  flush=True)

    records = label_dataset(
        entries, dev, rounds=cfg["rounds"], shots=cfg["shots"],
        seed=cfg["seed"], dt=cfg["dt"], progress=progress,
    )
    save_dataset(records, os.path.join(out, "dataset.jsonl"))
    report = {
        **meta,
        "registers": len(entries),
        "labelled": len(records),
        "dropped": len(entries) - len(records),
        "rounds": cfg["rounds"],
        "mean_score": float(np.mean([r.score for r in records])) if records else 0.0,
    }
    files.write(os.path.join(out, "dataset_report.json"), report)
    print(f"labelled {report['labelled']}/{report['registers']} registers "
          f"(mean score {report['mean_score']:.4f})")
    return 0


def cmd_train(args, cfg, meta, out, dev) -> int:
    records = load_dataset(args.dataset)
    train_recs, hold_recs = train_holdout_split(
        records, seed=cfg["seed"], holdout_frac=cfg["holdout_frac"],
    )
    if not train_recs:
        raise InputError("training split is empty: the holdout takes every record")
    report = {**meta, "train_size": len(train_recs), "holdout_size": len(hold_recs),
              "epochs": cfg["epochs"], "mape": {}}
    os.makedirs(out, exist_ok=True)
    models = train_models(train_recs, epochs=cfg["epochs"], seed=cfg["seed"], dev=dev)
    save_models(models, os.path.join(out, MODEL_FILE), meta=meta)
    preds = [predict_unclamped(models, r.embedding(dev), dev)[1] for r in hold_recs]
    for target in TARGETS:
        value = mape([p[target] for p in preds], [r.params[target] for r in hold_recs])
        report["mape"][target] = value
        print(f"{target}: holdout MAPE {value:.1f}%")
    print(f"best val loss {min(v for _, v in models[TARGETS[0]].history):.5f}")
    files.write(os.path.join(out, "mape_report.json"), report)
    return 0


def cmd_predict(args, cfg, meta, out, dev) -> int:
    emb = load_register(args.register, dev)
    models = load_models(os.path.join(args.models, MODEL_FILE))
    os.makedirs(out, exist_ok=True)
    params = predict_params(models, emb, dev)
    files.write(os.path.join(out, "params.json"),
                {**meta, "family": "complex", "params": params})
    print("  ".join(f"{k}={v:.4g}" for k, v in sorted(params.items())))
    return 0


def cmd_mlqaa_eval(args, cfg, meta, out, dev) -> int:
    records = load_dataset(args.dataset)
    _, hold_recs = train_holdout_split(records, seed=cfg["seed"],
                                       holdout_frac=cfg["holdout_frac"])
    models = load_models(os.path.join(args.models, MODEL_FILE))
    os.makedirs(out, exist_ok=True)
    rows = []
    for rec in hold_recs:
        emb = rec.embedding(dev)
        g = emb.graph
        sb, hist = evaluate_params(
            emb, dev, predict_params(models, emb, dev), "complex", cfg["shots"],
            substream(cfg["seed"], "eval", rec.name), cfg["dt"],
        )
        rows.append({
            "name": rec.name, "n_atoms": emb.register.n,
            "spacing": rec.spacing,
            "mlqaa_norm": normalized_score(hist, g, sb),
            "vqaa_norm": normalized_value(rec.score, g),
        })
    mlqaa_mean = float(np.mean([r["mlqaa_norm"] for r in rows]))
    vqaa_mean = float(np.mean([r["vqaa_norm"] for r in rows]))
    _write_csv(os.path.join(out, "mlqaa_eval.csv"), meta,
               ["name", "n_atoms", "spacing", "mlqaa_norm", "vqaa_norm"], rows)
    files.write(os.path.join(out, "mlqaa_eval_summary.json"), {
        **meta, "holdout_size": len(rows),
        "mlqaa_mean_normalized": mlqaa_mean,
        "vqaa_mean_normalized": vqaa_mean,
        "gap": vqaa_mean - mlqaa_mean,
    })
    print(f"holdout {len(rows)}: MLQAA {mlqaa_mean:.4f} vs VQAA {vqaa_mean:.4f} "
          f"(gap {vqaa_mean - mlqaa_mean:+.4f})")
    return 0


def cmd_oracle(args, cfg, meta, out, dev) -> int:
    g = load_graph(args.graph)
    mwis = brute_force_mwis(g)
    gc = complement(g)
    cliques_dual = max_weight_clique(gc)
    agree = {s.bitstring for s in mwis} == {s.bitstring for s in cliques_dual}
    print(f"graph: {g.n} vertices, {len(g.edges)} edges")
    for s in mwis:
        print(f"  mwis {s.bitstring}  weight {s.weight(g):g}  members {sorted(s.members)}")
    print(f"cross-check vs clique solver on complement: "
          f"{'agree' if agree else 'DISAGREE'}")
    if args.clique:
        cliques = max_weight_clique(g)
        for s in cliques:
            print(f"  clique {s.bitstring}  weight {s.weight(g):g}  "
                  f"members {sorted(s.members)}")
    if args.out_file:
        files.write(args.out_file, {
            **meta,
            "mwis": [{"bitstring": s.bitstring, "weight": s.weight(g),
                      "members": sorted(s.members)} for s in mwis],
            "cross_check_agrees": agree,
        })
    if not agree:
        raise NumericalError("solver cross-check failed")
    return 0


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing leaves it
    unchanged, so every `main` call can reuse it. It names the command and
    holds no function; `main` looks the `cmd_*` function up."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--seed", type=int, help="root random seed")
    common.add_argument("--shots", type=int, help="measurement shots")
    common.add_argument("--dt", type=float, help="integrator step, ns")
    common.add_argument("--out", help="output directory")

    p = argparse.ArgumentParser(
        prog="rydock",
        description="pharmacophore docking via Rydberg-register independent sets",
    )
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("dock", parents=[common],
                       help="binding graph from two pharmacophore files")
    d.add_argument("--ligand", required=True)
    d.add_argument("--receptor", required=True)
    d.add_argument("--table", help="interaction table JSON (default built-in)")
    d.add_argument("--tau", type=float, help="distance tolerance, angstrom")

    e = sub.add_parser("embed", parents=[common],
                       help="lay a graph out as an atom register")
    e.add_argument("--graph", required=True)
    e.add_argument("--spacing", type=float, help="target edge length, um")

    v = sub.add_parser("vqaa", parents=[common],
                       help="variational pulse search on a register")
    v.add_argument("--register", required=True)
    v.add_argument("--family", choices=FAMILIES)
    v.add_argument("--optimizer", choices=["tpe", "nm"])
    v.add_argument("--rounds", type=int)
    v.add_argument("--resume", action="store_true",
                   help="replay trials.jsonl of the same search, extending a shorter one")

    w = sub.add_parser("sweep", parents=[common],
                       help="success-probability grid over the simple family")
    w.add_argument("--register", required=True)
    w.add_argument("--omegas", required=True, help="comma list, rad/us")
    w.add_argument("--deltas", required=True, help="comma list, rad/us")
    w.add_argument("--times", required=True, help="comma list, ns")

    b = sub.add_parser("benchmark", parents=[common],
                       help="normalized score vs optimization rounds on the corpus")
    b.add_argument("--subset", default="lines", choices=["lines", "all"])
    b.add_argument("--rounds", dest="rounds_list", default="10,50,200",
                   help="comma list")
    b.add_argument("--family", choices=FAMILIES)

    ds = sub.add_parser("dataset", parents=[common],
                        help="generate and label the 125-register corpus")
    ds.add_argument("--rounds", type=int, help="search rounds per register")
    ds.add_argument("--verbose", action="store_true")
    ds.set_defaults(dt_default=8.0)

    t = sub.add_parser("train", parents=[common],
                       help=f"fit the five pulse-parameter regressors into --out/{MODEL_FILE}")
    t.add_argument("--dataset", required=True)
    t.add_argument("--epochs", type=int)

    pr = sub.add_parser("predict", parents=[common],
                        help="pulse parameters for a register from trained models")
    pr.add_argument("--register", required=True)
    pr.add_argument("--models", required=True, help=f"train's --out, with {MODEL_FILE}")

    me = sub.add_parser("mlqaa-eval", parents=[common],
                        help="head-to-head: predicted pulses vs the search labels")
    me.add_argument("--dataset", required=True)
    me.add_argument("--models", required=True, help=f"train's --out, with {MODEL_FILE}")

    o = sub.add_parser("oracle", parents=[common],
                       help="exact solver listing for a graph file")
    o.add_argument("--graph", required=True)
    o.add_argument("--clique", action="store_true",
                   help="also list maximum-weight cliques of the graph itself")
    o.add_argument("--out-file", dest="out_file")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = effective_config(args)
        dev = DeviceParams(**cfg["device"])
        meta = {"config_digest": config_digest(cfg, args.command), "seed": cfg["seed"]}
        # refused before any input is read; each command makes its output
        # directory once its inputs are read
        if args.command == "sweep":
            for k in SWEEP_AXES:
                _sweep_axis(args, k)
        if args.command == "benchmark":
            _rounds_list(args)
        if args.command == "vqaa" and args.resume and cfg["optimizer"] != "tpe":
            raise InputError("resume is only meaningful for the tpe optimizer")
        # looked up on every call, so a rebinding of a cmd_* name in this
        # module (as a tracer or a test makes) takes effect
        command = globals()["cmd_" + args.command.replace("-", "_")]
        return command(args, cfg, meta, cfg["out"], dev)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibilityError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        # files.read turns an input's OSError into InputError: this is output
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
