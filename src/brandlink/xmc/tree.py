"""Hierarchical label tree built by recursive balanced spherical k-means.

Labels are clustered on their aggregated feature vectors: one CSR matrix,
a row per label, built as a sparse indicator product over the stacked
surface and input vectors, as Parabel and PECOS aggregate label features.
A level is split while any of its nodes still holds more labels than
``max_leaf``, which keeps the tree rectangular: every layer spans the
whole label set and sibling group sizes differ by at most one within a
split.  The final layer is the labels themselves, grouped under their
leaf cluster.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import pairwise
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from ..core import BrandEntityId
from ..linear import stack_rows
from ..text import FeaturizerConfig, SparseVector, vectorize

LOGGER = logging.getLogger(__name__)

_KMEANS_ITERS = 10


@dataclass(frozen=True, eq=False)
class LabelSpace:
    """Ordered label set with one clustering feature row per label."""

    labels: tuple[BrandEntityId, ...]
    features: sp.csr_matrix = field(repr=False)

    def __post_init__(self) -> None:
        if len(self.labels) < 2:
            raise ValueError("a label space needs at least two labels")
        if len(self.labels) != self.features.shape[0]:
            raise ValueError("labels and feature rows must align")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("label ids must be unique")

    def __len__(self) -> int:
        return len(self.labels)

    def index_of(self) -> dict[BrandEntityId, int]:
        return {label: i for i, label in enumerate(self.labels)}

    def feature_matrix(self) -> sp.csr_matrix:
        return self.features


def aggregate_label_features(
    labels: Sequence[BrandEntityId],
    surfaces: Mapping[BrandEntityId, Iterable[str]],
    inputs: Mapping[BrandEntityId, Iterable[SparseVector]],
    config: FeaturizerConfig,
) -> LabelSpace:
    """Build clustering features: unit-normalized sums per label.

    Each label's row is the sum of its featurized surface forms plus the
    feature vectors of its training inputs, renormalized to unit length.
    The sums are one product of a label-by-vector indicator matrix with
    the vectors stacked label by label, surfaces first, so every entry
    adds its terms in that order.  Labels with no data at all keep a zero
    row and cluster arbitrarily but deterministically.
    """
    vectors: list[SparseVector] = []
    per_label = np.zeros(len(labels) + 1, dtype=np.int64)
    for i, label in enumerate(labels):
        vectors.extend(vectorize(surface, config) for surface in surfaces.get(label, ()))
        vectors.extend(inputs.get(label, ()))
        per_label[i + 1] = len(vectors)
    indicator = sp.csr_matrix(
        (np.ones(len(vectors)), np.arange(len(vectors)), per_label),
        shape=(len(labels), len(vectors)),
    )
    sums = indicator @ stack_rows(vectors, config.dim)
    sums.sort_indices()
    bounds = sums.indptr.tolist()
    norms = np.array(
        [np.sqrt(np.dot(sums.data[a:b], sums.data[a:b])) for a, b in pairwise(bounds)],
        dtype=np.float64,
    )
    # An infinite norm zeroes a row whose norm underflowed to zero, and the
    # row then drops out, as the row of a label without data.
    norms[norms == 0.0] = np.inf
    sums.data /= np.repeat(norms, np.diff(bounds))
    sums.eliminate_zeros()
    return LabelSpace(labels=tuple(labels), features=sums)


@dataclass(frozen=True)
class LabelTree:
    """Rectangular layer structure over a label space.

    Layers exclude the root and end with the label layer.  For layer ``l``
    before the last, ``children_indptr[l][j]:children_indptr[l][j + 1]`` is
    the contiguous range of layer ``l + 1`` positions under its node ``j``.
    Final-layer position ``p`` corresponds to label index
    ``label_order[p]``.  Only these arrays are given; the layer sizes, and
    the ``offsets`` at which each layer's columns start in a stack of all
    layers, are derived from them.
    """

    children_indptr: tuple[np.ndarray, ...] = field(repr=False)
    label_order: np.ndarray = field(repr=False)
    layer_sizes: tuple[int, ...] = field(init=False)
    offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for l, indptr in enumerate(self.children_indptr):
            if len(indptr) == 0 or int(indptr[0]) != 0 or np.any(np.diff(indptr) < 0):
                raise ValueError(f"indptr {l} must rise from 0")
        # Each indptr covers the layer the previous one ends at, and the
        # last ends at the label count.
        sizes = (*(len(indptr) - 1 for indptr in self.children_indptr), self.n_labels)
        if [int(indptr[-1]) for indptr in self.children_indptr] != list(sizes[1:]):
            raise ValueError("each indptr must end at the size of the next layer")
        if not np.array_equal(np.sort(self.label_order), np.arange(self.n_labels)):
            raise ValueError("label_order must be a permutation of the labels")
        object.__setattr__(self, "layer_sizes", sizes)
        object.__setattr__(self, "offsets", np.cumsum((0, *sizes)))

    @property
    def n_labels(self) -> int:
        return len(self.label_order)

    @property
    def n_layers(self) -> int:
        return len(self.layer_sizes)

    @property
    def label_positions(self) -> np.ndarray:
        """Inverse of ``label_order``: label index to final-layer position."""
        positions = np.empty(self.n_labels, dtype=np.int64)
        positions[self.label_order] = np.arange(self.n_labels, dtype=np.int64)
        return positions

    def parents_of_layer(self, layer: int) -> np.ndarray:
        """Parent node index in layer - 1 for every node of ``layer``."""
        if layer == 0:
            return np.zeros(self.layer_sizes[0], dtype=np.int64)
        indptr = self.children_indptr[layer - 1]
        return np.repeat(np.arange(len(indptr) - 1, dtype=np.int64), np.diff(indptr))


def _balanced_assign(scores: np.ndarray) -> np.ndarray:
    """Assign each row to a column so column sizes differ by at most one.

    Pairs are visited by descending score, ties broken by row then column
    index, and assigned greedily while capacity remains.
    """
    m, k = scores.shape
    base, extras = divmod(m, k)
    flat = scores.ravel()
    row_ids = np.repeat(np.arange(m), k)
    col_ids = np.tile(np.arange(k), m)
    order = np.lexsort((col_ids, row_ids, -flat))
    assignment = np.full(m, -1, dtype=np.int64)
    counts = np.zeros(k, dtype=np.int64)
    full = np.zeros(k, dtype=bool)
    assigned = 0
    for pair in order:
        row = int(row_ids[pair])
        if assignment[row] >= 0:
            continue
        col = int(col_ids[pair])
        if full[col]:
            continue
        if counts[col] == base:
            if extras == 0:
                full[col] = True
                continue
            extras -= 1
        assignment[row] = col
        counts[col] += 1
        if counts[col] > base or (counts[col] == base and extras == 0):
            full[col] = True
        assigned += 1
        if assigned == m:
            break
    return assignment


def unit_rows(matrix: sp.spmatrix) -> sp.csr_matrix:
    """Each row scaled to unit length; an all-zero row stays zero."""
    norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1)).ravel())
    norms[norms == 0.0] = 1.0
    return (sp.diags(1.0 / norms) @ matrix).tocsr()


def _split_group(
    members: np.ndarray,
    features: sp.csr_matrix,
    k: int,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Balanced spherical k-means split of one sorted member group."""
    sub = features[members]
    seeds = np.sort(rng.choice(len(members), size=k, replace=False))
    centroids = sub[seeds].tocsr()
    assignment = np.full(len(members), -1, dtype=np.int64)
    for _ in range(_KMEANS_ITERS):
        scores = np.asarray((sub @ centroids.T).todense())
        new_assignment = _balanced_assign(scores)
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        indicator = sp.csr_matrix(
            (
                np.ones(len(members), dtype=np.float64),
                (assignment, np.arange(len(members))),
            ),
            shape=(k, len(members)),
        )
        centroids = unit_rows(indicator @ sub)
    return [members[assignment == j] for j in range(k)]


def build_tree(
    space: LabelSpace,
    branching: int = 16,
    max_leaf: int = 100,
    seed: int = 0,
) -> LabelTree:
    """Cluster a label space into a rectangular tree.

    Args:
        space: Labels with clustering features.
        branching: Maximum children per node.
        max_leaf: Largest label count a leaf may hold without splitting.
        seed: Clustering seed; fixes the result completely.

    Returns:
        The tree; degenerate single-layer (flat one-vs-all) when the label
        count does not exceed ``max_leaf``.
    """
    if branching < 2:
        raise ValueError("branching must be at least 2")
    if max_leaf < 1:
        raise ValueError("max_leaf must be at least 1")
    n = len(space)
    features = space.feature_matrix()

    groups: list[np.ndarray] = [np.arange(n, dtype=np.int64)]
    split_counts: list[list[int]] = []  # children per parent, per split level
    node_counter = 0
    while max(len(g) for g in groups) > max_leaf:
        next_groups: list[np.ndarray] = []
        counts: list[int] = []
        for group in groups:
            k = min(branching, len(group))
            if k < 2:
                children = [group]
            else:
                rng = np.random.default_rng([seed, node_counter])
                children = [
                    c for c in _split_group(group, features, k, rng) if len(c)
                ]
            node_counter += 1
            counts.append(len(children))
            next_groups.extend(children)
        split_counts.append(counts)
        groups = next_groups

    # The root's own indptr (the first split) is implicit: layer 0 is scored
    # in full.  Each later split, then the leaf clusters' label counts, make
    # one indptr each; the last maps leaf clusters to label positions.
    if split_counts:
        split_counts.append([len(g) for g in groups])
    indptrs = tuple(
        np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        for counts in split_counts[1:]
    )
    label_order = np.concatenate([np.sort(g) for g in groups]).astype(np.int64)
    tree = LabelTree(children_indptr=indptrs, label_order=label_order)
    LOGGER.info(
        "built label tree: %d labels, layers %s", n, "/".join(map(str, tree.layer_sizes))
    )
    return tree
