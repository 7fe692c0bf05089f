"""Trained ranker model and level-wise beam inference.

A model holds one sparse weight matrix with one column per tree node, the
layers stacked column-wise from the root down, stored row-major so a query
reads only its own feature rows.  A loaded model serves that matrix as a
view over its artifact.  Inference scores every node with one
:func:`brandlink.linear.score_rows` call, which sums each column's terms in
ascending feature order, then walks the layers keeping the ``beam_size``
best partial paths; a path's score is the product of sigmoid-transformed
node margins, so leaf scores stay in (0, 1) and each layer keeps only the
columns under the surviving beam.
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np
import scipy.sparse as sp

from ..core import BrandEntityId, BrandMention, Query, ScoredEntity
from ..linear import concat_ranges, query_rows, score_rows
from ..text import FeaturizerConfig, SparseVector, featurize, normalize
from .tree import LabelTree

SCORE_TRANSFORM = "sigmoid"


@dataclass(frozen=True, slots=True)
class BeamParams:
    """Inference knobs: beam width and result count."""

    beam_size: int = 10
    top_k: int = 5

    def __post_init__(self) -> None:
        if self.beam_size < 1:
            raise ValueError("beam_size must be at least 1")
        if self.top_k < 1:
            raise ValueError("top_k must be at least 1")


@dataclass(eq=False)
class XmcModel:
    """Tree, stacked node weights, and the featurizer they were trained with.

    ``layer_weights`` is either one matrix per tree layer, in any sparse
    layout, or one sparse matrix that already stacks them column-wise; a
    CSR stack, such as a loaded model's, is kept as it is.  ``weights`` is
    that stack, of shape
    ``(featurizer.dim + 1, sum(tree.layer_sizes))``; the extra final row is
    the constant bias feature appended at train and inference time.  Layer
    ``l`` owns columns ``layer_offsets[l]:layer_offsets[l + 1]``.
    """

    labels: tuple[BrandEntityId, ...]
    tree: LabelTree
    layer_weights: InitVar[sp.spmatrix | list[sp.spmatrix]]
    featurizer: FeaturizerConfig
    score_transform: str = SCORE_TRANSFORM
    stats: dict = field(default_factory=dict, repr=False)
    weights: sp.csr_matrix = field(init=False, repr=False)
    layer_offsets: np.ndarray = field(init=False, repr=False)
    # Rank of each label index by label id, for tie-breaking; derived.
    _id_rank: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, layer_weights) -> None:
        if self.score_transform != SCORE_TRANSFORM:
            raise ValueError(f"unsupported score transform {self.score_transform!r}")
        sizes = self.tree.layer_sizes
        expected_rows = self.featurizer.dim + 1
        if sp.issparse(layer_weights):
            self.weights = layer_weights.tocsr()
        else:
            if len(layer_weights) != self.tree.n_layers:
                raise ValueError("one weight matrix per tree layer expected")
            for layer, weights in enumerate(layer_weights):
                if weights.shape != (expected_rows, sizes[layer]):
                    raise ValueError(f"layer {layer} weight shape mismatch")
            # Stacked in the blocks' own layout, then converted: a direct
            # CSR stack of CSC blocks goes through the coordinate format
            # and peaks about a third higher.
            self.weights = sp.hstack(layer_weights).tocsr()
        if self.weights.shape != (expected_rows, sum(sizes)):
            raise ValueError("stacked weight shape mismatch")
        if len(self.labels) != self.tree.n_labels:
            raise ValueError("label count must match the tree")
        self.layer_offsets = np.cumsum((0, *sizes))
        by_id = sorted(range(len(self.labels)), key=lambda i: self.labels[i].id)
        self._id_rank = np.empty(len(by_id), dtype=np.int64)
        self._id_rank[by_id] = np.arange(len(by_id))

    @property
    def n_labels(self) -> int:
        return len(self.labels)


def _log_sigmoid(margins: np.ndarray) -> np.ndarray:
    return -np.logaddexp(0.0, -margins)


def beam_predict(
    model: XmcModel,
    x: SparseVector,
    params: BeamParams = BeamParams(),
) -> list[ScoredEntity]:
    """Rank labels for one feature vector by beam search over the tree.

    Args:
        model: Trained model.
        x: Featurized input; the zero vector yields no candidates.
        params: Beam width and result count.

    Returns:
        At most ``top_k`` candidates with a positive score, sorted by
        descending score with ties broken by ascending label id.
    """
    if x.nnz == 0:
        return []
    if x.dim != model.featurizer.dim:
        raise ValueError("input dimension does not match the model featurizer")
    x_rows, x_vals = query_rows(x)
    tree = model.tree

    margins = score_rows(model.weights, x_rows, x_vals)

    nodes = np.arange(tree.layer_sizes[0], dtype=np.int64)
    path_logs = np.zeros(len(nodes), dtype=np.float64)
    for layer in range(tree.n_layers):
        if layer > 0:
            indptr = tree.children_indptr[layer - 1]
            counts = indptr[nodes + 1] - indptr[nodes]
            children = concat_ranges(indptr[nodes], counts)
            layer_margins = margins[children + model.layer_offsets[layer]]
            logs = np.repeat(path_logs, counts) + _log_sigmoid(layer_margins)
        else:
            children = nodes
            logs = path_logs + _log_sigmoid(margins[: len(nodes)])
        if layer < tree.n_layers - 1 and len(children) > params.beam_size:
            order = np.lexsort((children, -logs))[: params.beam_size]
            nodes = children[order]
            path_logs = logs[order]
        else:
            nodes = children
            path_logs = logs

    scores = np.exp(path_logs)
    label_indices = tree.label_order[nodes]
    keep = scores > 0.0
    scores, label_indices = scores[keep], label_indices[keep]
    top = np.lexsort((model._id_rank[label_indices], -scores))[: params.top_k]
    return [
        ScoredEntity(model.labels[int(label_indices[i])], float(scores[i]))
        for i in top
    ]


def m2e_match(
    model: XmcModel,
    mention: BrandMention,
    params: BeamParams = BeamParams(),
) -> list[ScoredEntity]:
    """Rank entities for a detected mention surface."""
    vec = featurize(normalize(mention.surface), model.featurizer)
    return beam_predict(model, vec, params)


def q2e_predict(
    model: XmcModel,
    query: Query,
    params: BeamParams = BeamParams(),
) -> list[ScoredEntity]:
    """Rank entities (including NIL when trained with it) for a query."""
    vec = featurize(normalize(query.text), model.featurizer)
    return beam_predict(model, vec, params)
