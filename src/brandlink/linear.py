"""Sparse L2-regularized logistic training and scoring shared by the linear rankers.

Sibling columns of one tree node share the same training rows, so they are
fit jointly: the objective is the per-column mean logistic loss summed over
columns plus an L2 penalty, which is separable per column and therefore
reaches the same optimum as independent fits.  Positive rows of a column
are weighted by that column's negative-to-positive count ratio, so a label
with few examples is not drowned out by its siblings and label priors do
not leak into the scores.  Both the averaging and the count ratio are
invariant to uniform duplication of the training data.

Every trained model scores through :func:`score_vector`, which reads only
the query's feature rows of a row-major weight matrix, in compiled code.
"""
from __future__ import annotations

import logging
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize
# Compiled CSR/CSC kernels behind scipy's own indexing and matvec.
from scipy.sparse import _sparsetools
from scipy.special import expit

from .text import SparseVector

LOGGER = logging.getLogger(__name__)

# Bias assigned to columns that saw no positive example: always-low score.
DEFAULT_NEGATIVE_BIAS = -10.0

GRAD_TOL = 1e-4
MAX_EPOCHS = 100


def fit_logistic_columns(
    x: sp.csr_matrix,
    y: np.ndarray,
    reg: float,
    *,
    pos_weight: np.ndarray | None = None,
    max_epochs: int = MAX_EPOCHS,
    tol: float = GRAD_TOL,
) -> np.ndarray:
    """Fit k binary logistic columns over shared rows.

    Args:
        x: Training rows, CSR of shape (n, d); the last feature column is
            expected to be the constant bias feature.
        y: Targets in {-1, +1}, shape (n, k).
        reg: L2 penalty weight; must be positive.
        pos_weight: Optional per-column loss weight for positive rows,
            shape (k,); negatives always weigh 1.
        max_epochs: Iteration cap for the optimizer.
        tol: Gradient-norm convergence tolerance.

    Returns:
        Dense weights of shape (d, k).
    """
    if reg <= 0.0:
        raise ValueError("reg must be positive")
    n, d = x.shape
    k = y.shape[1]
    if y.shape[0] != n:
        raise ValueError("row count mismatch between x and y")
    if pos_weight is None:
        row_weight = np.ones_like(y)
    else:
        if pos_weight.shape != (k,):
            raise ValueError("pos_weight must have one entry per column")
        row_weight = np.where(y > 0.0, pos_weight[None, :], 1.0)
    xt = x.T.tocsr()

    def objective(flat: np.ndarray) -> tuple[float, np.ndarray]:
        w = flat.reshape(d, k)
        margins = x @ w
        z = y * margins
        loss = float(
            (row_weight * np.logaddexp(0.0, -z)).sum()
        ) / n + 0.5 * reg * float(np.vdot(w, w))
        residual = (row_weight * -y * expit(-z)) / n
        grad = xt @ residual + reg * w
        return loss, grad.ravel()

    result = minimize(
        objective,
        np.zeros(d * k, dtype=np.float64),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": max_epochs, "gtol": tol, "maxfun": 50 * max_epochs},
    )
    return result.x.reshape(d, k)


def fit_sparse_ova(
    x: sp.csr_matrix,
    positive_col: np.ndarray,
    n_cols: int,
    dim: int,
    reg: float,
    *,
    balanced: bool = True,
    prune: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Train one-vs-all columns over a shared row group, sparsely.

    Rows are restricted to the features they actually touch before the
    dense solve, then weights are scattered back into the full space with
    a constant bias feature stored at row index ``dim``.  When balanced,
    positive rows are class-weighted per column (negatives over positives,
    1 when a column has no negatives).  Columns without a single positive
    row are not trained; they get a zero weight vector with
    :data:`DEFAULT_NEGATIVE_BIAS` so they always score low.

    Args:
        x: Rows in the full feature space, CSR of shape (n, dim), no bias.
        positive_col: Per row, the local column index in [0, n_cols) whose
            classifier treats it as positive; every other column treats it
            as negative.
        n_cols: Number of columns to produce.
        dim: Full feature dimension; bias lands at index ``dim``.
        reg: L2 penalty weight.
        balanced: Apply the per-column positive class weight.  Leave off
            for calibrated scores whose absolute value gates a decision;
            keep on when only the relative ranking matters.
        prune: Drop trained weights with magnitude below this (bias kept).

    Returns:
        COO triplets (rows, cols, values) in the (dim + 1)-row space and
        the count of untrained all-negative default columns.
    """
    counts = np.bincount(positive_col, minlength=n_cols)
    trained = np.flatnonzero(counts)
    defaults = np.flatnonzero(counts == 0)
    active = np.unique(x.indices)
    w = np.empty((len(active) + 1, 0), dtype=np.float64)  # one column per trained column
    if len(trained):
        n = x.shape[0]
        x_aug = sp.hstack(
            [x[:, active], sp.csr_matrix(np.ones((n, 1), dtype=np.float64))],
            format="csr",
        )
        y = np.where(positive_col[:, None] == trained, 1.0, -1.0)
        pos_weight = None
        if balanced:
            n_pos = counts[trained].astype(np.float64)
            n_neg = n - n_pos
            pos_weight = np.where(n_neg > 0.0, n_neg / n_pos, 1.0)
        w = fit_logistic_columns(x_aug, y, reg, pos_weight=pos_weight)
    keep = np.abs(w) >= prune if prune > 0.0 else w != 0.0
    keep[-1] = True  # bias survives pruning
    # Column by column, rows ascending, after the default columns' biases.
    col, row = np.nonzero(keep.T)
    rows = np.concatenate((np.full(len(defaults), dim), np.append(active, dim)[row]))
    cols = np.concatenate((defaults, trained[col]))
    vals = np.concatenate((np.full(len(defaults), DEFAULT_NEGATIVE_BIAS), w[row, col]))
    return rows, cols, vals, len(defaults)


def stack_rows(vectors: Sequence[SparseVector], dim: int) -> sp.csr_matrix:
    """The vectors as the rows of a CSR matrix with ``dim`` columns."""
    indptr = np.zeros(len(vectors) + 1, dtype=np.int64)
    for i, vec in enumerate(vectors):
        if vec.dim != dim:
            raise ValueError(f"row {i} has dimension {vec.dim}, expected {dim}")
        indptr[i + 1] = indptr[i] + vec.nnz
    if indptr[-1]:
        indices = np.concatenate([v.indices for v in vectors])
        data = np.concatenate([v.values for v in vectors])
    else:
        indices = np.empty(0, dtype=np.int64)
        data = np.empty(0, dtype=np.float64)
    return sp.csr_matrix((data, indices, indptr), shape=(len(vectors), dim))


def score_vector(weights: sp.csr_matrix, x: SparseVector) -> np.ndarray:
    """Margins ``weights.T @ [x, 1]`` of every column, read from x's nonzero rows.

    ``weights`` has one row per feature of ``x`` plus a final bias row.
    scipy's compiled kernels copy those rows out and add each stored term
    into its column, walking the rows in ascending order, the order of a
    dense matvec, so the margins equal it bit for bit.  The kernels do not
    bounds-check: a ``weights`` whose row count is not ``x.dim + 1``
    raises ValueError here, and ``x``'s own invariant keeps its indices
    inside ``[0, x.dim)``.
    """
    indptr = weights.indptr
    n_rows, n_cols = weights.shape
    if n_rows != x.dim + 1:
        raise ValueError(f"weights have {n_rows} rows, expected {x.dim + 1}")
    n = x.nnz + 1
    rows = np.empty(n, dtype=indptr.dtype)
    rows[:-1] = x.indices
    rows[-1] = x.dim
    vals = np.empty(n, dtype=np.float64)
    vals[:-1] = x.values
    vals[-1] = 1.0
    picked = np.zeros(n + 1, dtype=indptr.dtype)
    np.cumsum(indptr[rows + 1] - indptr[rows], out=picked[1:])
    cols = np.empty(picked[-1], dtype=weights.indices.dtype)
    terms = np.empty(picked[-1], dtype=weights.data.dtype)
    _sparsetools.csr_row_index(n, rows, indptr, weights.indices, weights.data, cols, terms)
    # Read as CSC, each picked row is a column; csc_matvec walks them in
    # order and adds weight times the row's x value to each margin.
    margins = np.zeros(n_cols, dtype=np.float64)
    _sparsetools.csc_matvec(n_cols, n, picked, cols, terms, vals, margins)
    return margins
