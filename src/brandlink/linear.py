"""Sparse L2-regularized logistic training and scoring shared by the linear rankers.

Sibling columns of one tree node share the same training rows, so they are
fit jointly: the objective is the per-column mean logistic loss summed over
columns plus an L2 penalty, which is separable per column and therefore
reaches the same optimum as independent fits.  Positive rows of a column
are weighted by that column's negative-to-positive count ratio, so a label
with few examples is not drowned out by its siblings and label priors do
not leak into the scores.  Both the averaging and the count ratio are
invariant to uniform duplication of the training data.

The solver is LIBLINEAR's trust-region Newton method for L2 logistic
regression (TRON; Lin, Weng and Keerthi, JMLR 2008), run on all sibling
columns at once with a trust radius per column.  Each Newton step is
conjugate-gradient iterations on Hessian-vector products, held inside the
radius.  The only products are ``scipy.sparse`` kernels with the training
rows and their transpose, and every reduction is a numpy column sum, so
no step goes through BLAS: the weights come out as the same bytes on any
BLAS thread count.  Only ``scipy.sparse`` is imported, so loading a model
to link with never loads an optimizer.

Every trained model holds its weights as one row-major (CSR) matrix
stored bottom-up: stored row 0 is the bias row and stored row ``k`` is
feature ``dim - k``.  Its values are :data:`WEIGHT_DTYPE`, float32: the
weights are most of a serving process's memory, and the solver's float64
is kept only while training.  This module is the only one that knows
that order and that dtype.  :func:`fit_sparse_ova` writes its triplets
in the order, :func:`stack_triplets` and :func:`stack_layers` build the
stored matrix from triplets or from per-layer blocks in feature order,
and :func:`score_vector` reads only the query's rows of it, where they
lie, in one compiled loop.  Models, loaders and writers hold the matrix
and pass it on.
"""
from __future__ import annotations

import logging
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
# Compiled CSR/CSC kernels behind scipy's own indexing and matvec.
from scipy.sparse import _sparsetools

from .text import SparseVector

LOGGER = logging.getLogger(__name__)

# The dtype of every stored weight value.  Margins are summed in it and
# widened to float64 once per score.
WEIGHT_DTYPE = np.dtype(np.float32)

# Bias assigned to columns that saw no positive example: always-low score.
DEFAULT_NEGATIVE_BIAS = -10.0

# A column is solved once no entry of its gradient exceeds this.
GRAD_TOL = 1e-6

# tron.cpp's step acceptance and radius update: a step is taken when the
# actual reduction is above ETA0 of the predicted one, and the ratio's band
# picks how the radius shrinks (SIGMA1, SIGMA2) or grows (SIGMA3).
_ETA0, _ETA1, _ETA2 = 1e-4, 0.25, 0.75
_SIGMA1, _SIGMA2, _SIGMA3 = 0.25, 0.5, 4.0
# CG stops once its residual norm is this fraction of the gradient norm.
_CG_TOL = 0.1


def _sigmoid(t: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-t)) without overflow."""
    e = np.exp(-np.abs(t))
    return np.where(t >= 0.0, 1.0, e) / (1.0 + e)


def _trust_region_cg(
    hess_vec: Callable[[np.ndarray, np.ndarray], np.ndarray],
    g: np.ndarray,
    delta: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Steihaug CG on ``g.s + s.H.s / 2`` inside ``|s| <= delta``, per column.

    ``hess_vec(v, cols)`` returns H times ``v`` for the columns ``cols`` of
    ``g``.  A column's CG ends when its residual falls to ``_CG_TOL`` of
    its gradient norm or its step reaches the radius; it then leaves the
    products.

    Returns:
        The steps, their residuals ``-g - H s``, and which columns ended
        on the radius.
    """
    d, m = g.shape
    s_out = np.zeros_like(g)
    r_out = -g
    boundary = np.zeros(m, dtype=bool)
    cols = np.arange(m)
    s, r, p = s_out.copy(), r_out.copy(), r_out.copy()
    rr = (r * r).sum(axis=0)
    rr_stop = _CG_TOL**2 * rr
    delta_sq = delta * delta
    going = rr > rr_stop
    for _ in range(max(d, 5)):
        if not going.all():
            done = ~going
            s_out[:, cols[done]] = s[:, done]
            r_out[:, cols[done]] = r[:, done]
            cols = cols[going]
            s, r, p = s[:, going], r[:, going], p[:, going]
            rr, rr_stop, delta_sq = rr[going], rr_stop[going], delta_sq[going]
        if not cols.size:
            break
        hp = hess_vec(p, cols)
        alpha = rr / (p * hp).sum(axis=0)
        s_next = s + alpha * p
        r_next = r - alpha * hp
        out = (s_next * s_next).sum(axis=0) > delta_sq
        if out.any():
            # Stop where the segment from s along p crosses the radius.
            sp_, ss, pp = (s * p).sum(axis=0), (s * s).sum(axis=0), (p * p).sum(axis=0)
            rad = np.sqrt(sp_ * sp_ + pp * (delta_sq - ss))
            with np.errstate(divide="ignore", invalid="ignore"):
                tau = np.where(
                    sp_ >= 0.0, (delta_sq - ss) / (sp_ + rad), (rad - sp_) / pp
                )
            s_next = np.where(out, s + tau * p, s_next)
            r_next = np.where(out, r - tau * hp, r_next)
            boundary[cols[out]] = True
        rr_next = (r_next * r_next).sum(axis=0)
        p = r_next + (rr_next / rr) * p
        s, r, rr = s_next, r_next, rr_next
        going = ~out & (rr > rr_stop)
    else:  # out of iterations: keep where each column got to
        s_out[:, cols] = s
        r_out[:, cols] = r
    return s_out, r_out, boundary


def fit_logistic_columns(
    x: sp.csr_matrix,
    y: np.ndarray,
    reg: float,
    *,
    pos_weight: np.ndarray | None = None,
) -> np.ndarray:
    """Fit k binary logistic columns over shared rows.

    Each column runs TRON until no gradient entry exceeds
    :data:`GRAD_TOL`, or until its steps stall at rounding level.

    Args:
        x: Training rows, CSR of shape (n, d); the last feature column is
            expected to be the constant bias feature.
        y: Targets in {-1, +1}, shape (n, k).
        reg: L2 penalty weight; must be positive.
        pos_weight: Optional per-column loss weight for positive rows,
            shape (k,); negatives always weigh 1.

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
        cost = np.full(y.shape, 1.0 / n)
    else:
        if pos_weight.shape != (k,):
            raise ValueError("pos_weight must have one entry per column")
        cost = np.where(y > 0.0, pos_weight[None, :], 1.0) / n
    xt = x.T.tocsr()
    # Per live column: weights, y times margins, objective, gradient,
    # Hessian row weights and trust radius.  Solved columns move to out.
    out = np.zeros((d, k))
    cols = np.arange(k)
    w = np.zeros((d, k))
    z = np.zeros((n, k))

    def objective(w, z, cost):
        loss = (cost * np.logaddexp(0.0, -z)).sum(axis=0)
        return loss + 0.5 * reg * (w * w).sum(axis=0)

    def derivatives(w, z, y, cost):
        p = _sigmoid(-z)
        grad = xt @ (-cost * y * p) + reg * w
        return grad, cost * p * _sigmoid(z)

    f = objective(w, z, cost)
    g, hess = derivatives(w, z, y, cost)
    delta = np.sqrt((g * g).sum(axis=0))
    first = True  # every column takes its first step in the same pass
    going = np.abs(g).max(axis=0) > GRAD_TOL
    while True:
        if not going.all():
            out[:, cols[~going]] = w[:, ~going]
            cols = cols[going]
            w, z, y, cost = w[:, going], z[:, going], y[:, going], cost[:, going]
            f, g, hess = f[going], g[:, going], hess[:, going]
            delta = delta[going]
        if not cols.size:
            break

        def hess_vec(v, sub):
            weights = hess if len(sub) == hess.shape[1] else hess[:, sub]
            return xt @ (weights * (x @ v)) + reg * v

        s, r, boundary = _trust_region_cg(hess_vec, g, delta)
        w_new = w + s
        z_new = y * (x @ w_new)
        f_new = objective(w_new, z_new, cost)
        gs = (g * s).sum(axis=0)
        predicted = -0.5 * (gs - (s * r).sum(axis=0))
        actual = f - f_new
        s_norm = np.sqrt((s * s).sum(axis=0))
        if first:
            delta = np.minimum(delta, s_norm)
            first = False
        # Step length, relative to s, that minimizes the loss's quadratic
        # fit along s; tron.cpp's alpha.
        curve = f_new - f - gs
        alpha = np.where(
            curve > 0.0,
            np.maximum(_SIGMA1, -0.5 * gs / np.where(curve > 0.0, curve, 1.0)),
            _SIGMA3,
        )
        step = alpha * s_norm
        delta = np.select(
            [
                actual < _ETA0 * predicted,
                actual < _ETA1 * predicted,
                actual < _ETA2 * predicted,
                boundary,
            ],
            [
                np.minimum(step, _SIGMA2 * delta),
                np.maximum(_SIGMA1 * delta, np.minimum(step, _SIGMA2 * delta)),
                np.maximum(_SIGMA1 * delta, np.minimum(step, _SIGMA3 * delta)),
                _SIGMA3 * delta,
            ],
            np.maximum(delta, np.minimum(step, _SIGMA3 * delta)),
        )
        taken = actual > _ETA0 * predicted
        if taken.any():
            w = np.where(taken, w_new, w)
            z = np.where(taken, z_new, z)
            f = np.where(taken, f_new, f)
            g, hess = derivatives(w, z, y, cost)
        # tron.cpp also ends a column whose model predicts no decrease or
        # whose reductions are down to rounding.
        stalled = (np.abs(actual) <= 1e-12 * np.abs(f)) & (
            np.abs(predicted) <= 1e-12 * np.abs(f)
        )
        going = (np.abs(g).max(axis=0) > GRAD_TOL) & (predicted > 0.0) & ~stalled
    return out


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
    dense solve, then weights are scattered back into the stored rows
    :func:`score_vector` reads: feature ``r`` goes to row ``dim - r`` and
    the constant bias feature to row 0.  When balanced,
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
        dim: Full feature dimension; the weights span ``dim + 1`` rows.
        reg: L2 penalty weight.
        balanced: Apply the per-column positive class weight.  Leave off
            for calibrated scores whose absolute value gates a decision;
            keep on when only the relative ranking matters.
        prune: Drop trained weights with magnitude below this (bias kept).

    Returns:
        COO triplets (stored rows, cols, float64 values) in the
        (dim + 1)-row space and the count of untrained all-negative
        default columns.
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
    # Column by column, features ascending, after the default columns' biases.
    col, row = np.nonzero(keep.T)
    rows = np.concatenate(
        (np.zeros(len(defaults), dtype=np.int64), np.append(dim - active, 0)[row])
    )
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


def stack_triplets(
    triplets: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]], shape: tuple[int, int]
) -> sp.csr_matrix:
    """:func:`fit_sparse_ova`'s triplets, already in stored rows and shifted
    to their columns, as the stored CSR matrix with :data:`WEIGHT_DTYPE`
    values.  No coordinate may repeat."""
    rows, cols, vals = zip(*triplets)
    return sp.coo_matrix(
        (
            np.concatenate(vals, dtype=WEIGHT_DTYPE),
            (np.concatenate(rows), np.concatenate(cols)),
        ),
        shape=shape,
    ).tocsr()


# Stored entries a CSC block is placed in at a time while stacking; bounds
# the build's temporaries whatever the size of the block.
_STACK_SLICE_NNZ = 1 << 16


def stack_layers(blocks: Sequence[sp.spmatrix], n_rows: int) -> sp.csr_matrix:
    """Blocks in feature order, the bias row last, side by side as the
    stored CSR matrix :func:`score_vector` reads.

    Row counts are summed into the row pointers first, so every entry is
    written once, straight into its final slot.  Each block is then placed
    a slice of columns at a time, its entries put in row order by a stable
    sort, so the temporaries follow the slice's entry count, not the row
    count, and the build holds no stacked copy beside the result.  Block
    row ``r`` lands in stored row ``n_rows - 1 - r``, and each row lists
    its columns in ascending order, as ``sp.hstack(blocks).tocsr()[::-1]``
    does.  Values are rounded to :data:`WEIGHT_DTYPE` as they are placed.
    """
    # Counted in CSC form, which sums a COO block's repeated coordinates.
    blocks = [block.tocsc() for block in blocks]
    nnz = sum(block.nnz for block in blocks)
    n_cols = sum(block.shape[1] for block in blocks)
    fits = max(nnz, n_rows + 1, n_cols) <= np.iinfo(np.int32).max
    index_dtype = np.int32 if fits else np.int64
    # Block row r's count goes to indptr[n_rows - r], the end of its stored
    # row, so the running sum gives every stored row's bounds.
    indptr = np.zeros(n_rows + 1, dtype=index_dtype)
    for block in blocks:
        indptr[:0:-1] += block.getnnz(axis=1)
    np.cumsum(indptr, out=indptr)
    indices = np.empty(nnz, dtype=index_dtype)
    data = np.empty(nnz, dtype=WEIGHT_DTYPE)
    # Next free slot of each block row r, in its stored row n_rows - 1 - r.
    fill = indptr[-2::-1].copy()
    col = 0
    for block in blocks:
        bounds = block.indptr
        targets = np.arange(_STACK_SLICE_NNZ, bounds[-1], _STACK_SLICE_NNZ)
        cuts = np.searchsorted(bounds, targets)
        cuts = np.unique(np.concatenate(([0], cuts, [block.shape[1]])))
        for start, stop in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
            lo, hi = bounds[start], bounds[stop]
            # Stable, so each row keeps the column order of the slice.
            order = np.argsort(block.indices[lo:hi], kind="stable")
            rows = block.indices[lo:hi][order]
            first = np.flatnonzero(np.diff(rows, prepend=-1))
            per_row = np.diff(first, append=len(rows))
            dest = np.repeat(fill[rows[first]] - first, per_row)
            dest += np.arange(len(rows), dtype=dest.dtype)
            columns = np.arange(col + start, col + stop, dtype=index_dtype)
            indices[dest] = np.repeat(columns, np.diff(bounds[start : stop + 1]))[order]
            data[dest] = block.data[lo:hi][order]
            fill[rows[first]] += per_row
        col += block.shape[1]
    return sp.csr_matrix((data, indices, indptr), shape=(n_rows, n_cols))


def score_vector(weights: sp.csr_matrix, x: SparseVector) -> np.ndarray:
    """Margins ``W.T @ [x, 1]`` of every column, read in place from x's rows.

    ``weights`` holds W bottom-up, with :data:`WEIGHT_DTYPE` values:
    stored row 0 is the bias row and stored row ``k`` is feature
    ``x.dim - k``, so x's features, ascending, sit at strictly descending
    stored rows.  One compiled ``csc_matvec`` walks a "column" per feature
    over its stored row's range of the weight arrays, with x's value
    rounded to float32, and between two features a gap "column" from the
    end of one row back to the start of the next, which is empty, with 0;
    the bias row comes last, with 1.  The gaps stay empty only because the
    row pointers never decrease, as in every matrix scipy builds; the
    artifact loaders check it of a stored one.  Nothing is copied out.
    Each margin adds its float32 products in a float32 sum from 0.0, in
    ascending feature order and the bias last, the order of a dense
    matvec, and is widened to float64 once, so beam search and the PT
    decision compute in float64.  The kernel does not bounds-check: a
    ``weights`` whose row count is not ``x.dim + 1`` raises ValueError
    here, and ``x``'s own invariant keeps its indices inside
    ``[0, x.dim)``.  Weights of another dtype make the kernel raise
    ValueError.
    """
    indptr = weights.indptr
    n_rows, n_cols = weights.shape
    if n_rows != x.dim + 1:
        raise ValueError(f"weights have {n_rows} rows, expected {x.dim + 1}")
    n = x.nnz
    # Each feature's stored row r as the pointer pair (r, r + 1), then the
    # bias row's (0, 1).
    rows = np.empty(2 * n + 2, dtype=np.int64)
    np.subtract(x.dim, x.indices, out=rows[:-2:2])
    np.subtract(x.dim + 1, x.indices, out=rows[1:-2:2])
    rows[-2:] = 0, 1
    bounds = indptr.take(rows)
    vals = np.zeros(2 * n + 1, dtype=WEIGHT_DTYPE)
    vals[:-1:2] = x.values
    vals[-1] = 1.0
    # The float32 sums fill the upper half of the margins' own bytes, and
    # the widening copies them down, front first.  numpy's assignment
    # reads as if from a copy of its source, and for one dimension with
    # the source above the destination it makes none, so a score
    # allocates only its float64 margins.
    margins = np.zeros(n_cols, dtype=np.float64)
    sums = margins.view(WEIGHT_DTYPE)[n_cols:]
    _sparsetools.csc_matvec(
        n_cols, 2 * n + 1, bounds, weights.indices, weights.data, vals, sums
    )
    margins[:] = sums
    return margins
