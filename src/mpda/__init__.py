"""Supervised dimensionality reduction through partitioned tangent spaces.

The main entry points are ``fit_mpda`` / ``fit_pmpda`` (tangent-space
models), ``fit_lda`` / ``fit_pca`` (baselines), ``transform``, and the
benchmark harness in ``mpda.evaluation``.
"""

from .baselines import fit_lda, fit_pca
from .dataset import LabeledDataset, load_dataset, train_test_split
from .evaluation import benchmark, cross_validate, error_rate, nn_classify
from .geodesy import geodesic_distances
from .graph import NeighborLists, between_class_form, knn_neighbors, within_class_graph
from .model import (
    EmbeddingModel,
    assemble_between,
    assemble_within,
    fit_mpda,
    fit_pmpda,
    load_model,
    save_model,
    solve_gep,
    transform,
)
from .partition import partition_classes

__version__ = "0.1.0"

__all__ = [
    "EmbeddingModel",
    "LabeledDataset",
    "NeighborLists",
    "assemble_between",
    "assemble_within",
    "benchmark",
    "between_class_form",
    "cross_validate",
    "error_rate",
    "fit_lda",
    "fit_mpda",
    "fit_pca",
    "fit_pmpda",
    "geodesic_distances",
    "knn_neighbors",
    "load_dataset",
    "load_model",
    "nn_classify",
    "partition_classes",
    "save_model",
    "solve_gep",
    "train_test_split",
    "transform",
    "within_class_graph",
]
