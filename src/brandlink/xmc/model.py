"""Trained ranker model and level-wise beam inference.

A model holds one sparse weight matrix with one column per tree node, the
layers stacked column-wise from the root down, stored row-major and
bottom-up (the bias row first, then the features from the last down) so a
query's rows are read where they lie.  A loaded model serves that matrix
as a view over its artifact.  Inference scores every node with one
:func:`brandlink.linear.score_vector` call, which sums each column's terms
in ascending feature order, then walks the layers keeping the
``beam_size`` best partial paths; a path's score is the product of
sigmoid-transformed node margins, so leaf scores stay in (0, 1).  Each
layer reads only the columns under the surviving beam, through child
position arrays built once with the model.
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np
import scipy.sparse as sp

from ..core import BrandEntityId, BrandMention, Query, ScoredEntity
from ..linear import score_vector, to_bottom_up
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


# Stored entries a CSC layer is transposed in at a time while stacking;
# bounds the build's temporaries whatever the size of the layer.
_STACK_SLICE_NNZ = 1 << 16


def _stack_layers(blocks: list[sp.spmatrix], n_rows: int) -> sp.csr_matrix:
    """The layer blocks side by side as one bottom-up CSR matrix.

    Row counts are summed first, so every entry is written once, straight
    into its final slot, and each block is transposed a slice of columns at
    a time: the build holds no stacked copy beside the result.  Block row
    ``r`` lands in stored row ``n_rows - 1 - r``, and each row lists its
    columns in ascending order, as ``sp.hstack(blocks).tocsr()[::-1]``
    does.
    """
    counts = np.zeros(n_rows, dtype=np.int64)
    for block in blocks:
        counts += block.getnnz(axis=1)[::-1]
    nnz = int(counts.sum())
    n_cols = sum(block.shape[1] for block in blocks)
    fits = max(nnz, n_rows + 1, n_cols) <= np.iinfo(np.int32).max
    index_dtype = np.int32 if fits else np.int64
    indptr = np.zeros(n_rows + 1, dtype=index_dtype)
    np.cumsum(counts, out=indptr[1:])
    del counts
    indices = np.empty(nnz, dtype=index_dtype)
    data = np.empty(nnz, dtype=np.float64)
    # Next free slot of each block row r, in its stored row n_rows - 1 - r.
    fill = indptr[-2::-1].copy()
    col = 0
    for block in blocks:
        block = block.tocsc()
        bounds = block.indptr
        targets = np.arange(_STACK_SLICE_NNZ, bounds[-1], _STACK_SLICE_NNZ)
        cuts = np.searchsorted(bounds, targets)
        cuts = np.unique(np.concatenate(([0], cuts, [block.shape[1]])))
        for start, stop in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
            piece = block[:, start:stop].tocsr()
            per_row = np.diff(piece.indptr)
            dest = np.repeat(fill - piece.indptr[:-1], per_row)
            dest += np.arange(piece.nnz, dtype=dest.dtype)
            indices[dest] = piece.indices + (col + start)
            data[dest] = piece.data
            fill += per_row
        col += block.shape[1]
    return sp.csr_matrix((data, indices, indptr), shape=(n_rows, n_cols))


@dataclass(eq=False)
class XmcModel:
    """Tree, stacked node weights, and the featurizer they were trained with.

    ``layer_weights`` is either one matrix per tree layer or one matrix
    that already stacks them column-wise, in any sparse layout, with one
    row per feature and a final row for the constant bias feature appended
    at train and inference time.  ``weights`` is that stack, of shape
    ``(featurizer.dim + 1, sum(tree.layer_sizes))``, stored as CSR with
    its rows bottom-up, as :func:`brandlink.linear.score_vector` reads it:
    the stack is turned once, here.  ``bottom_up`` says a stack is already
    stored so, such as a loaded model's, and is then kept as it is; once
    built, a model's ``weights`` always are.  Layer ``l`` owns columns
    ``layer_offsets[l]:layer_offsets[l + 1]``.
    """

    labels: tuple[BrandEntityId, ...]
    tree: LabelTree
    layer_weights: InitVar[sp.spmatrix | list[sp.spmatrix]]
    featurizer: FeaturizerConfig
    stats: dict = field(default_factory=dict, repr=False)
    bottom_up: bool = field(default=False, repr=False)
    weights: sp.csr_matrix = field(init=False, repr=False)
    layer_offsets: np.ndarray = field(init=False, repr=False)
    # Derived for beam search: per node of every non-final layer, in stack
    # column order, its children's stack columns (read-only views) and
    # their count; the rank of each label index by label id, for ties.
    _children: tuple[np.ndarray, ...] = field(init=False, repr=False)
    _fanout: np.ndarray = field(init=False, repr=False)
    _id_rank: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, layer_weights) -> None:
        sizes = self.tree.layer_sizes
        expected_rows = self.featurizer.dim + 1
        if sp.issparse(layer_weights):
            if self.bottom_up:
                self.weights = layer_weights.tocsr()
            else:
                self.weights = to_bottom_up(layer_weights)
        else:
            if len(layer_weights) != self.tree.n_layers:
                raise ValueError("one weight matrix per tree layer expected")
            for layer, weights in enumerate(layer_weights):
                if weights.shape != (expected_rows, sizes[layer]):
                    raise ValueError(f"layer {layer} weight shape mismatch")
            self.weights = _stack_layers(layer_weights, expected_rows)
        self.bottom_up = True
        if self.weights.shape != (expected_rows, sum(sizes)):
            raise ValueError("stacked weight shape mismatch")
        if len(self.labels) != self.tree.n_labels:
            raise ValueError("label count must match the tree")
        self.layer_offsets = np.cumsum((0, *sizes))
        columns = np.arange(self.layer_offsets[-1], dtype=np.int64)
        columns.setflags(write=False)
        self._children = tuple(
            child
            for layer, indptr in enumerate(self.tree.children_indptr)
            for child in np.split(
                columns[self.layer_offsets[layer + 1] : self.layer_offsets[layer + 2]],
                indptr[1:-1],
            )
        )
        self._fanout = np.array([len(child) for child in self._children], dtype=np.int64)
        by_id = sorted(range(len(self.labels)), key=lambda i: self.labels[i].id)
        self._id_rank = np.empty(len(by_id), dtype=np.int64)
        self._id_rank[by_id] = np.arange(len(by_id))

    @property
    def n_labels(self) -> int:
        return len(self.labels)

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
    offsets = model.layer_offsets

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
