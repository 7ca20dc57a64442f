"""Learned pulse-parameter regression replacing the per-register search."""

from .dataset import (
    FAMILIES,
    SPACINGS,
    CorpusEntry,
    DatasetRecord,
    corpus_entry,
    generate_corpus,
    label_dataset,
    load_dataset,
    save_dataset,
    shape_positions,
    train_holdout_split,
)
from .gcn import (
    TARGETS,
    GcnModel,
    featurize,
    load_models,
    mape,
    predict_params,
    save_models,
    train,
    train_models,
)

__all__ = [
    "FAMILIES", "SPACINGS", "CorpusEntry", "DatasetRecord", "corpus_entry",
    "generate_corpus", "label_dataset", "load_dataset", "save_dataset",
    "shape_positions", "train_holdout_split",
    "TARGETS", "GcnModel", "featurize", "load_models", "mape",
    "predict_params", "save_models", "train", "train_models",
]
