"""Supervised dimensionality reduction through partitioned tangent spaces.

The stable entry points are the names in ``__all__``: the fits
``fit_mpda`` / ``fit_pmpda`` (tangent-space models) and ``fit_lda`` /
``fit_pca`` (baselines), ``transform``, model files (``save_model``,
``load_model``), data (``LabeledDataset``, ``load_dataset``,
``train_test_split``) and the protocol (``benchmark``, ``cross_validate``,
``nn_classify``, ``error_rate``).  The fit's stages stay in their modules
and are internal to the fit.
"""

from .baselines import fit_lda, fit_pca
from .dataset import LabeledDataset, load_dataset, train_test_split
from .evaluation import benchmark, cross_validate, error_rate, nn_classify
from .model import EmbeddingModel, fit_mpda, fit_pmpda, load_model, save_model, transform

__version__ = "0.1.0"

__all__ = [
    "EmbeddingModel",
    "LabeledDataset",
    "benchmark",
    "cross_validate",
    "error_rate",
    "fit_lda",
    "fit_mpda",
    "fit_pca",
    "fit_pmpda",
    "load_dataset",
    "load_model",
    "nn_classify",
    "save_model",
    "train_test_split",
    "transform",
]
