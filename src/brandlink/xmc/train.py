"""Per-layer training of the tree ranker with matching-aware negatives.

Every tree node is a binary classifier.  An input is a positive for the
node on its gold label's root-to-label path and a negative for that node's
siblings under the same parent, so each parent group forms one small
one-vs-all subproblem over exactly the inputs routed to it.  Groups are
solved in parent order, layer by layer.  Each group's block of weights,
in feature order, is joined to its layer's, and the layers become the
model's stored stack, with float32 values, in one
:func:`brandlink.linear.stack_layers` call.
"""
from __future__ import annotations

import logging
from typing import Iterable

import numpy as np
import scipy.sparse as sp

from ..core import BrandEntityId
from ..linear import DEFAULT_REG, fit_sparse_ova, stack_layers, stack_rows
from ..text import FeaturizerConfig, SparseVector
from .model import XmcModel
from .tree import LabelSpace, LabelTree

LOGGER = logging.getLogger(__name__)

DEFAULT_PRUNE = 1e-2


def train(
    data: Iterable[tuple[SparseVector, BrandEntityId]],
    space: LabelSpace,
    tree: LabelTree,
    reg: float = DEFAULT_REG,
    *,
    featurizer: FeaturizerConfig,
) -> XmcModel:
    """Train the node weights of every tree layer as one stacked matrix.

    Args:
        data: Featurized inputs with their gold labels; every label must
            belong to ``space``.  Zero vectors are skipped with a count.
        space: The label space the tree was built over.
        tree: Output of :func:`brandlink.xmc.tree.build_tree` for ``space``.
        reg: L2 penalty for every node classifier.
        featurizer: The configuration the inputs were featurized with;
            stored on the model for inference-time parity.

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
    layers: list[sp.csc_matrix] = []
    for layer in range(tree.n_layers):
        if layer:
            parents, indptr = node_of[layer - 1], tree.children_indptr[layer - 1]
        else:  # layer 0 is one group under the implicit root
            parents = np.zeros(len(vectors), dtype=np.int64)
            indptr = np.array([0, tree.layer_sizes[0]])
        order = np.argsort(parents, kind="stable")
        bounds = np.searchsorted(parents[order], np.arange(len(indptr)))
        starts = indptr.tolist()
        groups = zip(np.split(order, bounds[1:-1]), starts, starts[1:])
        # The groups' blocks are held only until the layer joins them.
        layers.append(
            sp.hstack(
                [
                    fit_sparse_ova(
                        x[rows],
                        node_of[layer][rows] - lo,
                        hi - lo,
                        dim,
                        reg,
                        prune=DEFAULT_PRUNE,
                    )
                    for rows, lo, hi in groups
                ],
                format="csc",
            )
        )
        # A column no example reaches is one of fit_sparse_ova's defaults.
        size = tree.layer_sizes[layer]
        n_defaults = int((np.bincount(node_of[layer], minlength=size) == 0).sum())
        stats["default_columns"].append(n_defaults)
        LOGGER.info(
            "trained layer %d: %d columns, %d default, nnz %d",
            layer,
            size,
            n_defaults,
            layers[-1].nnz,
        )
    if any(stats["default_columns"]):
        LOGGER.info(
            "all-negative default columns per layer: %s", stats["default_columns"]
        )

    weights = stack_layers(layers, dim + 1)
    return XmcModel(
        labels=space.labels,
        tree=tree,
        layer_weights=weights,
        featurizer=featurizer,
        stats=stats,
    )
