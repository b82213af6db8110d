"""The package's public surface: the names a user calls, and nothing else.

The fit's kernels stay in their modules under their names, because the
benchmark tracer wraps module attributes and probes their arguments.
"""

import pathlib
import re

import mpda
import mpda.geodesy
import mpda.graph
import mpda.model
import mpda.partition

PUBLIC = {
    "EmbeddingModel", "LabeledDataset",
    "benchmark", "cross_validate", "error_rate", "nn_classify",
    "fit_lda", "fit_mpda", "fit_pca", "fit_pmpda", "transform",
    "load_dataset", "load_model", "save_model", "train_test_split",
}
KERNELS = {
    "NeighborLists": mpda.graph,
    "assemble_between": mpda.model,
    "assemble_within": mpda.model,
    "between_class_form": mpda.graph,
    "geodesic_distances": mpda.geodesy,
    "knn_neighbors": mpda.graph,
    "partition_classes": mpda.partition,
    "solve_gep": mpda.model,
    "within_class_graph": mpda.graph,
}
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_all_is_the_user_facing_names():
    assert len(mpda.__all__) == len(PUBLIC) and set(mpda.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(mpda, name).__name__ == name


def test_kernels_live_only_in_their_modules():
    for name, module in KERNELS.items():
        assert not hasattr(mpda, name), name
        kernel = getattr(module, name)
        assert kernel.__name__ == name and kernel.__module__ == module.__name__


def test_readme_lists_the_stable_names():
    text = README.read_text(encoding="utf-8")
    start = text.index("The stable names")
    listed = re.findall(r"`(\w+)`", text[start:text.index("\n\n", start)])
    assert sorted(listed) == sorted(mpda.__all__)
