"""Holdout quality of the MLQAA model set against a constant predictor.

Run from the repository root with one BLAS thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/measure_mlqaa.py \
        --seed 0 [--epochs 300] [--work DIR] [--dataset PATH]

Runs the CLI chain `dataset -> train -> mlqaa-eval` in process, under
--work (default: a new temporary directory):
- `dataset` with the default config (seed 0, about three minutes on one
  core), unless --dataset names a labelled file, or --work already holds
  `dataset/dataset.jsonl`;
- `train --seed S --epochs E`, which fits on the training split of seed S;
- `mlqaa-eval --seed S`, which scores each holdout register's predicted
  pulse (1000 shots, dt 4, the `eval` substream).
Then it scores a constant predictor through the same `mlqaa-eval` path: each
target's mean over the training split, in its TARGET_SCALES scale, mapped
back through each holdout register's band and clamped into its space.

Printed: the model set's holdout mean normalized score, the VQAA labels'
score, each target's holdout MAPE, the CPU time of `train`, and the
constant predictor's score; last, the same as one JSON line. It uses only
the CLI and `gcn`'s scale helpers, so it runs on any tree since the single
model file (MODEL_VERSION 3), which makes a before/after gate repeatable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

import numpy as np

from rydock import cli
from rydock.mlqaa.dataset import load_dataset, train_holdout_split
from rydock.mlqaa.gcn import TARGET_SCALES, TARGETS, _from_scale, _to_scale
from rydock.optimize import search_space
from rydock.register import DeviceParams, omega_bounds


def constant_predictor(train_recs, dev):
    """predict_params' stand-in: the training split's mean of each target in
    its label scale, mapped back through the register's band and clamped."""
    mean = {t: float(np.mean([
        _to_scale(float(r.params[t]), TARGET_SCALES[t], omega_bounds(r.embedding(dev), dev))
        for r in train_recs])) for t in TARGETS}

    def predict(models, emb, dev):
        space = search_space(emb, dev, "complex")
        band = space.intervals["omega"]
        return space.clamp({t: _from_scale(mean[t], TARGET_SCALES[t], band) for t in TARGETS})

    return predict


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--epochs", type=int, default=300)
    ap.add_argument("--work", help="directory for the chain's outputs")
    ap.add_argument("--dataset", help="a labelled dataset.jsonl to use instead")
    args = ap.parse_args(argv)
    work = args.work or tempfile.mkdtemp(prefix="measure_mlqaa-")
    dataset = args.dataset or os.path.join(work, "dataset", "dataset.jsonl")
    seed = ["--seed", str(args.seed)]

    def run(*argv):
        rc = cli.main(list(argv))
        if rc:
            sys.exit(f"error: {' '.join(argv[:1])} exited {rc}")

    if not os.path.exists(dataset):
        run("dataset", "--out", os.path.dirname(dataset))
    models = os.path.join(work, f"train-s{args.seed}")
    cpu = time.process_time()
    run("train", "--dataset", dataset, "--epochs", str(args.epochs), *seed, "--out", models)
    cpu = time.process_time() - cpu
    run("mlqaa-eval", "--dataset", dataset, "--models", models, *seed,
        "--out", os.path.join(work, f"eval-s{args.seed}"))

    train_recs, _ = train_holdout_split(load_dataset(dataset), seed=args.seed)
    shipped = cli.predict_params
    cli.predict_params = constant_predictor(train_recs, DeviceParams())
    try:
        run("mlqaa-eval", "--dataset", dataset, "--models", models, *seed,
            "--out", os.path.join(work, f"constant-s{args.seed}"))
    finally:
        cli.predict_params = shipped

    def summary(name):
        with open(os.path.join(work, f"{name}-s{args.seed}", "mlqaa_eval_summary.json")) as fh:
            return json.load(fh)

    with open(os.path.join(models, "mape_report.json")) as fh:
        mapes = json.load(fh)["mape"]
    result = {
        "seed": args.seed, "epochs": args.epochs,
        "holdout_normalized": summary("eval")["mlqaa_mean_normalized"],
        "constant_normalized": summary("constant")["mlqaa_mean_normalized"],
        "vqaa_normalized": summary("eval")["vqaa_mean_normalized"],
        "train_cpu_s": cpu,
        "mape": mapes,
    }
    print(f"seed {args.seed}, {args.epochs} epochs, outputs under {work}")
    print(f"holdout normalized: model {result['holdout_normalized']:.4f}  "
          f"constant {result['constant_normalized']:.4f}  "
          f"VQAA labels {result['vqaa_normalized']:.4f}")
    print("MAPE %: " + "  ".join(f"{t} {mapes[t]:.1f}" for t in TARGETS))
    print(f"train CPU {cpu:.1f} s")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
