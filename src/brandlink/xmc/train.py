"""Per-layer training of the tree ranker with matching-aware negatives.

Every tree node is a binary classifier.  An input is a positive for the
node on its gold label's root-to-label path and a negative for that node's
siblings under the same parent, so each parent group forms one small
one-vs-all subproblem over exactly the inputs routed to it.
"""
from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable

import numpy as np
import scipy.sparse as sp

from ..core import BrandEntityId
from ..linear import fit_sparse_ova, stack_rows
from ..text import FeaturizerConfig, SparseVector
from .model import XmcModel
from .tree import LabelSpace, LabelTree

LOGGER = logging.getLogger(__name__)

DEFAULT_REG = 1e-3
DEFAULT_PRUNE = 1e-2


def train(
    data: Iterable[tuple[SparseVector, BrandEntityId]],
    space: LabelSpace,
    tree: LabelTree,
    reg: float = DEFAULT_REG,
    *,
    featurizer: FeaturizerConfig,
    threads: int = 1,
) -> XmcModel:
    """Train one sparse weight matrix per tree layer.

    Args:
        data: Featurized inputs with their gold labels; every label must
            belong to ``space``.  Zero vectors are skipped with a count.
        space: The label space the tree was built over.
        tree: Output of :func:`brandlink.xmc.tree.build_tree` for ``space``.
        reg: L2 penalty for every node classifier.
        featurizer: The configuration the inputs were featurized with;
            stored on the model for inference-time parity.
        threads: Worker threads across parent subproblems.  Results are
            assembled in parent order, so any value produces the same model.

    Returns:
        The trained model.  ``stats`` reports example counts and the number
        of all-negative default columns per layer.

    Raises:
        ValueError: On labels outside the space or no usable examples.
    """
    if tree.n_labels != len(space):
        raise ValueError("tree and label space disagree on label count")
    index_of = space.index_of()
    vectors: list[SparseVector] = []
    label_rows: list[int] = []
    unknown = 0
    skipped_zero = 0
    for vec, label in data:
        idx = index_of.get(label)
        if idx is None:
            unknown += 1
            continue
        if vec.nnz == 0:
            skipped_zero += 1
            continue
        vectors.append(vec)
        label_rows.append(idx)
    if unknown:
        raise ValueError(f"{unknown} training examples carry labels outside the space")
    if not vectors:
        raise ValueError("no usable training examples")

    dim = featurizer.dim
    x = stack_rows(vectors, dim)
    labels = np.array(label_rows, dtype=np.int64)

    # Route every example along its gold label's path, deepest layer first.
    node_of = np.empty((tree.n_layers, len(vectors)), dtype=np.int64)
    node_of[tree.n_layers - 1] = tree.label_positions[labels]
    for layer in range(tree.n_layers - 1, 0, -1):
        parent_of = tree.parents_of_layer(layer)
        node_of[layer - 1] = parent_of[node_of[layer]]

    stats: dict = {
        "examples": len(vectors),
        "skipped_zero_vectors": skipped_zero,
        "default_columns": [],
    }
    layer_weights: list[sp.csr_matrix] = []
    for layer in range(tree.n_layers):
        if layer == 0:
            group_slices = [(np.arange(len(vectors), dtype=np.int64), 0, tree.layer_sizes[0])]
        else:
            indptr = tree.children_indptr[layer - 1]
            order = np.argsort(node_of[layer - 1], kind="stable")
            sorted_parents = node_of[layer - 1][order]
            boundaries = np.searchsorted(
                sorted_parents, np.arange(tree.layer_sizes[layer - 1] + 1)
            )
            group_slices = [
                (
                    order[boundaries[p] : boundaries[p + 1]],
                    int(indptr[p]),
                    int(indptr[p + 1]),
                )
                for p in range(tree.layer_sizes[layer - 1])
            ]

        def solve(entry: tuple[np.ndarray, int, int]):
            rows, col_start, col_end = entry
            n_cols = col_end - col_start
            x_group = x[rows]
            positive = node_of[layer][rows] - col_start
            r, c, v, n_default = fit_sparse_ova(
                x_group, positive, n_cols, dim, reg, prune=DEFAULT_PRUNE
            )
            return r, c + col_start, v, n_default

        if threads > 1 and len(group_slices) > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(solve, group_slices))
        else:
            results = [solve(entry) for entry in group_slices]

        rows = np.concatenate([r for r, _, _, _ in results])
        cols = np.concatenate([c for _, c, _, _ in results])
        vals = np.concatenate([v for _, _, v, _ in results])
        n_defaults = sum(d for _, _, _, d in results)
        stats["default_columns"].append(int(n_defaults))
        matrix = sp.coo_matrix(
            (vals, (rows, cols)), shape=(dim + 1, tree.layer_sizes[layer])
        ).tocsr()
        layer_weights.append(matrix)
        LOGGER.info(
            "trained layer %d: %d columns, %d default, nnz %d",
            layer,
            tree.layer_sizes[layer],
            n_defaults,
            matrix.nnz,
        )
    if any(stats["default_columns"]):
        LOGGER.info(
            "all-negative default columns per layer: %s", stats["default_columns"]
        )

    return XmcModel(
        labels=space.labels,
        tree=tree,
        layer_weights=layer_weights,
        featurizer=featurizer,
        stats=stats,
    )
