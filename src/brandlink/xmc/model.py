"""Trained ranker model and level-wise beam inference.

A model holds one sparse weight matrix with one column per tree node, the
layers stacked column-wise from the root down at the tree's ``offsets``,
stored as the CSR matrix :mod:`brandlink.linear` writes and reads; that
module alone knows its row order and its float32 value dtype.  Training
builds the stack from ``fit_sparse_ova``'s triplets, and a loaded model
serves it as a view over its artifact.  Inference scores every node with
one :func:`brandlink.linear.score_vector` call, which sums each column's
float32 terms in ascending feature order, then walks the layers keeping
the ``beam_size`` best partial paths; a path's score is the product of
sigmoid-transformed node margins, so leaf scores stay in (0, 1).  Each
layer reads only the columns under the surviving beam, through child
position arrays built once with the model.
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np
import scipy.sparse as sp

from ..core import BrandEntityId, BrandMention, Query, ScoredEntity
from ..linear import WEIGHT_DTYPE, score_vector, stack_layers
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

    ``layer_weights`` is either a list with one matrix per tree layer, in
    any sparse layout, with one row per feature in feature order and a
    final row for the constant bias feature, which
    :func:`brandlink.linear.stack_layers` stacks; or the stored stack
    itself, a CSR matrix such as training and loading produce, which is
    kept as it is.  A single matrix in another layout is refused, so a
    stack in feature order cannot be mis-read, and so is a stack whose
    values are not :data:`brandlink.linear.WEIGHT_DTYPE`, which the scorer
    cannot read.  ``weights`` is the stack,
    of shape ``(featurizer.dim + 1, tree.offsets[-1])``.  Layer ``l``
    owns columns ``tree.offsets[l]:tree.offsets[l + 1]``.  ``labels`` are
    unique, NIL among them at most once, and as many as the tree's.
    """

    labels: tuple[BrandEntityId, ...]
    tree: LabelTree
    layer_weights: InitVar[sp.spmatrix | list[sp.spmatrix]]
    featurizer: FeaturizerConfig
    stats: dict = field(default_factory=dict, repr=False)
    weights: sp.csr_matrix = field(init=False, repr=False)
    # Derived for beam search: per node of every non-final layer, in stack
    # column order, its children's stack columns (read-only views) and
    # their count; the rank of each label index by label id, for ties.
    _children: tuple[np.ndarray, ...] = field(init=False, repr=False)
    _fanout: np.ndarray = field(init=False, repr=False)
    _id_rank: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, layer_weights) -> None:
        expected_rows = self.featurizer.dim + 1
        if not sp.issparse(layer_weights):
            if len(layer_weights) != self.tree.n_layers:
                raise ValueError("one weight matrix per tree layer expected")
            for layer, weights in enumerate(layer_weights):
                if weights.shape != (expected_rows, self.tree.layer_sizes[layer]):
                    raise ValueError(f"layer {layer} weight shape mismatch")
            self.weights = stack_layers(layer_weights, expected_rows)
        elif layer_weights.format == "csr":
            self.weights = layer_weights
        else:
            raise ValueError("a single weight matrix must be the stored CSR stack")
        if self.weights.shape != (expected_rows, self.tree.offsets[-1]):
            raise ValueError("stacked weight shape mismatch")
        if self.weights.dtype != WEIGHT_DTYPE:
            raise ValueError(f"weights are {self.weights.dtype}, expected {WEIGHT_DTYPE}")
        if len(self.labels) != self.tree.n_labels:
            raise ValueError("label count must match the tree")
        if len({label.id for label in self.labels}) != len(self.labels):
            raise ValueError("label ids must be unique")
        offsets = self.tree.offsets
        columns = np.arange(offsets[-1], dtype=np.int64)
        columns.setflags(write=False)
        self._children = tuple(
            child
            for indptr, lo, hi in zip(self.tree.children_indptr, offsets[1:], offsets[2:])
            for child in np.split(columns[lo:hi], indptr[1:-1])
        )
        self._fanout = np.array([len(child) for child in self._children], dtype=np.int64)
        by_id = sorted(range(len(self.labels)), key=lambda i: self.labels[i].id)
        self._id_rank = np.empty(len(by_id), dtype=np.int64)
        self._id_rank[by_id] = np.arange(len(by_id))

    def _repr_pretty_(self, printer, cycle) -> None:
        # Pretty-printers that walk the dataclass fields would read the
        # init-only ``layer_weights``, which is never stored.
        printer.text(repr(self))


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
    margins = score_vector(model.weights, x)
    offsets = model.tree.offsets

    # A path's cost is minus its log-score, the sum of its nodes'
    # -log(sigmoid(margin)) = log(1 + exp(-margin)).  Beam nodes are stack
    # columns; within a layer they order as tree positions.
    nodes = np.arange(offsets[1], dtype=np.int64)
    costs = np.logaddexp(0.0, -margins[: offsets[1]])
    children_of, fanout = model._children, model._fanout
    for _ in range(1, model.tree.n_layers):
        if len(nodes) > params.beam_size:
            order = np.lexsort((nodes, costs))[: params.beam_size]
            nodes, costs = nodes[order], costs[order]
        children = np.concatenate([children_of[n] for n in nodes.tolist()])
        if not len(children):
            return []
        costs = np.repeat(costs, fanout[nodes]) + np.logaddexp(0.0, -margins[children])
        nodes = children

    scores = np.exp(-costs)
    label_indices = model.tree.label_order[nodes - offsets[-2]]
    top = np.lexsort((model._id_rank[label_indices], -scores))[: params.top_k]
    labels = model.labels
    # A score that underflowed to 0 sorts last; dropping it after the cut
    # keeps the same positive-score candidates.
    return [
        ScoredEntity(labels[i], score)
        for i, score in zip(label_indices[top].tolist(), scores[top].tolist())
        if score > 0.0
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
