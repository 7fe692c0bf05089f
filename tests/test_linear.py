"""Sparse regularized logistic fitting shared by the rankers."""
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from brandlink.core import BrandEntityId
from brandlink.linear import (
    DEFAULT_NEGATIVE_BIAS,
    GRAD_TOL,
    WEIGHT_DTYPE,
    check_stack,
    fit_logistic_columns,
    fit_sparse_ova,
    score_vector,
    stack_rows,
)
from brandlink.ptfilter import LinearPtPredictor, ProductType
from brandlink.text import FeaturizerConfig, SparseVector
from brandlink.xmc.model import XmcModel
from brandlink.xmc.train import DEFAULT_PRUNE
from brandlink.xmc.tree import LabelTree


def with_bias(rows: np.ndarray) -> sp.csr_matrix:
    n = rows.shape[0]
    return sp.csr_matrix(np.hstack([rows, np.ones((n, 1))]))


def test_separable_problem_is_separated():
    # Feature 0 marks the positive class, feature 1 the negative one.
    x = with_bias(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]))
    y = np.array([[1.0], [1.0], [-1.0], [-1.0]])
    w = fit_logistic_columns(x, y, reg=1e-3)
    margins = x @ w
    assert (margins[:2] > 0).all()
    assert (margins[2:] < 0).all()


def column_objective(x, y_col, w_col, reg, pos_weight=1.0):
    """One column's objective as fit_logistic_columns defines it."""
    margins = np.asarray(x @ w_col).ravel()
    weight = np.where(y_col > 0.0, pos_weight, 1.0)
    loss = (weight * np.logaddexp(0.0, -y_col * margins)).mean()
    return loss + 0.5 * reg * float(w_col @ w_col)


def test_joint_fit_matches_independent_fits():
    # Same optimum either way; iterates may differ by optimizer slack, so
    # compare achieved per-column objective values, not raw weights.
    rng = np.random.default_rng(0)
    x = with_bias(rng.random((20, 4)))
    y = np.where(rng.random((20, 3)) < 0.5, 1.0, -1.0)
    joint = fit_logistic_columns(x, y, reg=1e-2)
    for j in range(3):
        alone = fit_logistic_columns(x, y[:, j : j + 1], reg=1e-2)
        f_joint = column_objective(x, y[:, j], joint[:, j], 1e-2)
        f_alone = column_objective(x, y[:, j], alone[:, 0], 1e-2)
        assert f_joint == pytest.approx(f_alone, abs=1e-7)
        assert np.allclose(joint[:, j], alone[:, 0], atol=5e-3)


def lbfgs_reference(x, y_col, reg, pos_weight):
    """The column's optimum as L-BFGS-B finds it at gtol 1e-10."""
    from scipy.optimize import minimize

    dense = x.toarray()
    weight = np.where(y_col > 0.0, pos_weight, 1.0) / len(y_col)

    def fun(w):
        z = y_col * (dense @ w)
        loss = float((weight * np.logaddexp(0.0, -z)).sum()) + 0.5 * reg * float(w @ w)
        grad = dense.T @ (-weight * y_col / (1.0 + np.exp(z))) + reg * w
        return loss, grad

    result = minimize(
        fun, np.zeros(x.shape[1]), jac=True, method="L-BFGS-B",
        options={"gtol": 1e-10, "ftol": 0.0, "maxiter": 10_000, "maxfun": 100_000},
    )
    return result.x


def optimum_problem(seed: int, single_positive: bool):
    rng = np.random.default_rng(seed)
    n, d, k = 60, 12, 4
    rows = rng.random((n, d)) * (rng.random((n, d)) < 0.4)
    y = np.where(rng.random((n, k)) < 0.3, 1.0, -1.0)
    if single_positive:
        y[:, 0] = -1.0
        y[int(rng.integers(n)), 0] = 1.0
    return with_bias(rows), y


@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "pos_weight"])
@pytest.mark.parametrize("single_positive", [False, True], ids=["random", "one-positive"])
@pytest.mark.parametrize("reg", [1e-1, 1e-3])
@pytest.mark.parametrize("seed", range(3))
def test_reaches_the_lbfgs_optimum(seed, reg, single_positive, weighted):
    x, y = optimum_problem(seed, single_positive)
    n_pos = (y > 0.0).sum(axis=0)
    pos_weight = (len(y) - n_pos) / n_pos if weighted else None
    w = fit_logistic_columns(x, y, reg, pos_weight=pos_weight)
    # The objective is reg-strongly convex, so a column stopped at gradient
    # g lies within |g|^2 / (2 reg) of the optimum; every |g_i| <= GRAD_TOL.
    gap = x.shape[1] * GRAD_TOL**2 / (2.0 * reg)
    for j in range(y.shape[1]):
        pw = 1.0 if pos_weight is None else pos_weight[j]
        reference = lbfgs_reference(x, y[:, j], reg, pw)
        got = column_objective(x, y[:, j], w[:, j], reg, pw)
        want = column_objective(x, y[:, j], reference, reg, pw)
        assert abs(got - want) <= gap


def test_pos_weight_lifts_rare_positives():
    # 2 positives vs 38 negatives, separable: unweighted sits below the
    # decision point on positives because the prior dominates the bias.
    x_rows = np.zeros((40, 2))
    x_rows[:2, 0] = 1.0
    x_rows[2:, 1] = 1.0
    x = with_bias(x_rows)
    y = np.full((40, 1), -1.0)
    y[:2] = 1.0
    plain = fit_logistic_columns(x, y, reg=1e-1)
    weight = np.array([38.0 / 2.0])
    balanced = fit_logistic_columns(x, y, reg=1e-1, pos_weight=weight)
    margin_plain = float((x @ plain)[0, 0])
    margin_balanced = float((x @ balanced)[0, 0])
    assert margin_balanced > margin_plain
    assert expit(margin_balanced) > 0.5


def test_pos_weight_shape_validated():
    x = with_bias(np.ones((4, 1)))
    y = np.ones((4, 2))
    with pytest.raises(ValueError):
        fit_logistic_columns(x, y, reg=1e-2, pos_weight=np.ones(3))


class TestStackRows:
    def vec(self, pairs, dim=8):
        indices, values = zip(*pairs) if pairs else ((), ())
        return SparseVector(np.array(indices, dtype=np.int64), np.array(values), dim)

    def test_rows_equal_their_vectors(self):
        vectors = [self.vec([(1, 0.5), (6, 2.0)]), self.vec([]), self.vec([(0, -1.0)])]
        dense = stack_rows(vectors, 8).toarray()
        want = np.zeros((3, 8))
        want[0, [1, 6]] = [0.5, 2.0]
        want[2, 0] = -1.0
        assert np.array_equal(dense, want)

    def test_no_rows_or_no_entries(self):
        assert stack_rows([], 8).shape == (0, 8)
        assert stack_rows([self.vec([]), self.vec([])], 8).nnz == 0

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError):
            stack_rows([self.vec([(1, 1.0)]), self.vec([(1, 1.0)], dim=16)], 8)


class TestScoreRows:
    """score_vector, which reads a vector's rows of bottom-up weights in place."""

    def weights(self, index_dtype):
        # 39 feature rows plus the bias row, stored bottom-up.
        rng = np.random.default_rng(3)
        dense = rng.normal(size=(40, 7)) * (rng.random((40, 7)) < 0.3)
        dense = dense.astype(WEIGHT_DTYPE)
        matrix = sp.csr_matrix(dense[::-1])
        matrix.indices = matrix.indices.astype(index_dtype)
        matrix.indptr = matrix.indptr.astype(index_dtype)
        return matrix, dense

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    def test_equals_dense_matvec_in_ascending_row_order(self, index_dtype):
        matrix, _ = self.weights(index_dtype)
        x = SparseVector(
            np.array([0, 3, 4, 17, 38]), np.array([0.25, -1.5, 2.0, 0.125, 1.0]), 39
        )
        # Exact in float32, so the dense float32 matvec is the reference.
        dense = np.zeros(40, dtype=WEIGHT_DTYPE)
        dense[x.indices] = x.values
        dense[39] = 1.0
        assert np.array_equal(score_vector(matrix, x), matrix[::-1].T @ dense)

    def test_zero_vector_scores_the_bias_row(self):
        matrix, dense = self.weights(np.int32)
        assert np.array_equal(score_vector(matrix, SparseVector.zero(39)), dense[39])

    @pytest.mark.parametrize("row", [-1, 39], ids=["negative", "past-last"])
    def test_row_outside_weights_rejected(self, row):
        # The kernel does not bounds-check; the vector's invariant keeps its
        # rows inside [0, dim), so such a row never reaches it.
        matrix, _ = self.weights(np.int32)
        with pytest.raises(ValueError):
            score_vector(matrix, SparseVector(np.array([0, row]), np.ones(2), 39))

    @pytest.mark.parametrize("dim", [38, 40], ids=["rows-past-dim", "bias-row-missing"])
    def test_dimension_mismatch_rejected(self, dim):
        # The compiled kernel would read out of bounds.
        matrix, _ = self.weights(np.int32)
        with pytest.raises(ValueError):
            score_vector(matrix, SparseVector(np.array([0, dim - 1]), np.ones(2), dim))

    @staticmethod
    @st.composite
    def weights_and_vector(draw):
        dim = draw(st.integers(1, 24))
        n_cols = draw(st.integers(1, 5))
        finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
        cells = st.one_of(st.just(0.0), st.floats(-1e6, 1e6, width=32))
        dense = np.array(
            draw(st.lists(cells, min_size=(dim + 1) * n_cols, max_size=(dim + 1) * n_cols)),
            dtype=WEIGHT_DTYPE,
        ).reshape(dim + 1, n_cols)
        if draw(st.booleans()):
            dense[draw(st.integers(0, dim))] = 0.0  # an empty row
        # The edge buckets 0 and dim - 1 are drawn as often as the rest.
        buckets = st.one_of(st.sampled_from([0, dim - 1]), st.integers(0, dim - 1))
        indices = np.array(sorted(draw(st.sets(buckets, max_size=dim))), dtype=np.int64)
        values = np.array(draw(st.lists(finite, min_size=len(indices), max_size=len(indices))))
        index_dtype = draw(st.sampled_from([np.int32, np.int64]))
        return dense, SparseVector(indices, values.astype(np.float64), dim), index_dtype

    @given(weights_and_vector())
    @settings(max_examples=300, deadline=None)
    def test_equals_dense_matvec_bit_for_bit(self, case):
        dense, x, index_dtype = case
        stored = sp.csr_matrix(dense[::-1])
        stored.indices = stored.indices.astype(index_dtype)
        stored.indptr = stored.indptr.astype(index_dtype)
        # x rounded to float32, then W.T @ [x, 1] as float32 products
        # added in a float32 sum from 0.0, row by row in ascending order,
        # the zero terms included and the bias row last, and widened.
        vector = np.zeros(x.dim + 1, dtype=WEIGHT_DTYPE)
        vector[x.indices] = x.values
        vector[x.dim] = 1.0
        want = np.zeros(dense.shape[1], dtype=WEIGHT_DTYPE)
        for row in range(x.dim + 1):
            want = want + dense[row] * vector[row]
        got = score_vector(stored, x)
        assert got.dtype == np.float64
        assert got.tobytes() == want.astype(np.float64).tobytes()

    @pytest.mark.parametrize("nnz", [0, 1, 60], ids=["zero", "one-feature", "q2e-query"])
    def test_allocates_per_feature_and_column_not_per_term(self, nnz):
        # A q2e-sized score: 2k columns over 2**20 buckets, the query's rows
        # holding 45k terms.  A copy of those terms would take 360 kB; the
        # bound allows the float64 margins and a few arrays per feature,
        # 24 kB, so the float32 sums must not take memory of their own.
        dim, n_cols, per_row = 2**20, 2000, 750
        rng = np.random.default_rng(5)
        features = np.sort(rng.choice(dim, size=nnz, replace=False))
        stored_rows = np.append(dim - features, 0)  # the bias row too
        counts = np.zeros(dim + 1, dtype=np.int32)
        counts[stored_rows] = per_row
        indptr = np.zeros(dim + 2, dtype=np.int32)
        np.cumsum(counts, out=indptr[1:])
        terms = per_row * len(stored_rows)
        indices = np.concatenate(
            [np.sort(rng.choice(n_cols, size=per_row, replace=False)) for _ in stored_rows]
        ).astype(np.int32)
        weights = sp.csr_matrix(
            (rng.normal(size=terms).astype(WEIGHT_DTYPE), indices, indptr),
            shape=(dim + 1, n_cols),
        )
        x = SparseVector(features.astype(np.int64), rng.random(nnz) + 0.5, dim)
        tracemalloc.start()
        try:
            score_vector(weights, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n_cols + 64 * (nnz + 1) + 4096


# A stack fault as an edit in place: (array, position, new value).
STACK_EDITS = {
    "column-past-last": ("indices", -1, 2),
    "column-negative": ("indices", 0, -1),
    "indptr-decreasing": ("indptr", 1, 10**6),
    "value-nan": ("data", 0, np.nan),
    "value-inf": ("data", 0, np.inf),
}


class TestCheckStack:
    """Every model runs ``check_stack`` on the stack it keeps, so a stack
    built in memory meets the same checks as a loaded one before the
    scorer's unchecked loop reads it."""

    FEATURIZER = FeaturizerConfig(dim=2**16)

    def stack(self):
        return sp.random(
            self.FEATURIZER.dim + 1, 2, density=1e-3, format="csr", random_state=0,
            dtype=WEIGHT_DTYPE,
        )

    def models(self, weights):
        labels = (BrandEntityId("A"), BrandEntityId("B"))
        tree = LabelTree((), np.array([0, 1]))
        yield lambda: XmcModel(labels, tree, weights, self.FEATURIZER)
        types = (ProductType("shoe"), ProductType("sock"))
        yield lambda: LinearPtPredictor(types, weights, self.FEATURIZER)

    def test_well_formed_stack_kept(self):
        weights = self.stack()
        assert weights.indices.dtype == weights.indptr.dtype == np.int32
        for build in self.models(weights):
            assert build().weights is weights

    @pytest.mark.parametrize(
        "fault", [*STACK_EDITS, "indptr-not-to-nnz", "indptr-wider-than-indices"]
    )
    def test_malformed_stack_refused_by_every_model(self, fault):
        weights = self.stack()
        if fault == "indptr-not-to-nnz":  # one entry past the last row pointer
            weights.indices = np.append(weights.indices, weights.indices[:1])
            weights.data = np.append(weights.data, weights.data[:1])
        elif fault == "indptr-wider-than-indices":
            weights.indptr = weights.indptr.astype(np.int64)
        else:
            name, position, value = STACK_EDITS[fault]
            getattr(weights, name)[position] = value
        for build in self.models(weights):
            with pytest.raises(ValueError):
                build()
        with pytest.raises(ValueError):
            check_stack(weights, self.FEATURIZER.dim, 2)


def test_reg_must_be_positive():
    x = with_bias(np.ones((2, 1)))
    y = np.ones((2, 1))
    with pytest.raises(ValueError):
        fit_logistic_columns(x, y, reg=0.0)


def make_group(dim: int = 64):
    # Three columns; column 2 never appears as a positive.
    rows = []
    cols = []
    feats = {0: [3, 7], 1: [11, 13]}
    positive = np.array([0, 0, 1, 1, 0, 1], dtype=np.int64)
    for i, col in enumerate(positive):
        for f in feats[int(col)]:
            rows.append((i, f))
    data = np.ones(len(rows))
    r, c = zip(*rows)
    x = sp.csr_matrix((data, (list(r), list(c))), shape=(len(positive), dim))
    return x, positive


def default_columns(block):
    """Columns holding nothing but the default bias in their bias row."""
    only_bias = block.getnnz(axis=0) == 1
    return np.flatnonzero(only_bias & (block[-1].toarray()[0] == DEFAULT_NEGATIVE_BIAS))


class TestFitSparseOva:
    def test_untrained_column_gets_default_bias(self):
        x, positive = make_group()
        block = fit_sparse_ova(x, positive, 3, 64, reg=1e-2)
        assert default_columns(block).tolist() == [2]
        default = block[:, 2]
        assert default.indices.tolist() == [64]  # the bias row
        assert default.data[0] == DEFAULT_NEGATIVE_BIAS

    def test_trained_columns_rank_their_own_features(self):
        x, positive = make_group()
        block = fit_sparse_ova(x, positive, 3, 64, reg=1e-2)
        x_aug = sp.hstack([x, sp.csr_matrix(np.ones((x.shape[0], 1)))], format="csr")
        margins = (x_aug @ block).toarray()
        for i, col in enumerate(positive):
            assert np.argmax(margins[i]) == col

    def test_duplication_leaves_model_unchanged(self):
        x, positive = make_group()
        once = fit_sparse_ova(x, positive, 3, 64, reg=1e-2)
        doubled = fit_sparse_ova(
            sp.vstack([x, x], format="csr"),
            np.concatenate([positive, positive]),
            3,
            64,
            reg=1e-2,
        )
        assert np.allclose(once.toarray(), doubled.toarray(), atol=1e-3)

    def test_prune_drops_small_weights_keeps_bias(self):
        x, positive = make_group()
        block = fit_sparse_ova(x, positive, 3, 64, reg=1e-2, prune=1e9)
        assert set(block[:, :2].indices) == {64}  # the bias row

    def test_empty_group_all_defaults(self):
        x = sp.csr_matrix((0, 16))
        block = fit_sparse_ova(x, np.empty(0, dtype=np.int64), 2, 16, reg=1e-2)
        assert default_columns(block).tolist() == [0, 1]
        assert set(block.data) == {DEFAULT_NEGATIVE_BIAS}

    def test_single_all_positive_column_scores_high(self):
        x = sp.csr_matrix(np.ones((4, 1)), shape=(4, 8))
        positive = np.zeros(4, dtype=np.int64)
        block = fit_sparse_ova(x, positive, 1, 8, reg=1e-2)
        assert not len(default_columns(block))
        w = block.toarray()
        margin = float(w[0, 0] + w[8, 0])  # feature 0, then the bias
        assert expit(margin) > 0.9


# fit_sparse_ova before its targets, default columns and kept weights
# became array operations, kept as the reference the current one must
# equal entry for entry once both are converted to CSR.  Both write rows
# in feature order, the bias at ``dim``.
def reference_fit_sparse_ova(x, positive_col, n_cols, dim, reg, *, balanced=True, prune=0.0):
    n = x.shape[0]
    rows_out, cols_out, vals_out = [], [], []
    counts = np.bincount(positive_col, minlength=n_cols) if n else np.zeros(
        n_cols, dtype=np.int64
    )
    trained = np.flatnonzero(counts > 0)
    defaults = np.flatnonzero(counts == 0)
    for col in defaults:
        rows_out.append(np.array([dim], dtype=np.int64))
        cols_out.append(np.array([col], dtype=np.int64))
        vals_out.append(np.array([DEFAULT_NEGATIVE_BIAS], dtype=np.float64))
    if len(trained) > 0:
        active = np.unique(x.indices) if x.nnz else np.empty(0, dtype=x.indices.dtype)
        x_local = x[:, active] if len(active) < dim else x
        x_aug = sp.hstack(
            [x_local, sp.csr_matrix(np.ones((n, 1), dtype=np.float64))], format="csr"
        )
        y = np.full((n, len(trained)), -1.0, dtype=np.float64)
        local_of = {int(c): j for j, c in enumerate(trained)}
        for i, col in enumerate(positive_col):
            j = local_of.get(int(col))
            if j is not None:
                y[i, j] = 1.0
        if balanced:
            n_pos = counts[trained].astype(np.float64)
            n_neg = n - n_pos
            pos_weight = np.where(n_neg > 0.0, n_neg / n_pos, 1.0)
        else:
            pos_weight = None
        w = fit_logistic_columns(x_aug, y, reg, pos_weight=pos_weight)
        full_rows = np.append(
            active if len(active) < dim else np.arange(dim, dtype=np.int64), dim
        ).astype(np.int64)
        for j, col in enumerate(trained):
            column = w[:, j]
            keep = np.abs(column) >= prune if prune > 0.0 else column != 0.0
            keep[-1] = True
            rows_out.append(full_rows[keep])
            cols_out.append(np.full(int(keep.sum()), col, dtype=np.int64))
            vals_out.append(column[keep])
    if rows_out:
        return (
            np.concatenate(rows_out),
            np.concatenate(cols_out),
            np.concatenate(vals_out),
            len(defaults),
        )
    empty_i = np.empty(0, dtype=np.int64)
    return empty_i, empty_i.copy(), np.empty(0, dtype=np.float64), len(defaults)


def random_group(seed: int, dim: int):
    """Rows over ``dim`` features and a positive column per row.

    With 8 features every row holds them all; wider rows hold a few, and
    some none.  No row is positive for the last column, so every group
    has a default column.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 30))
    n_cols = int(rng.integers(2, 6))
    density = 1.0 if dim <= 8 else 0.05
    dense = rng.random((n, dim)) * (rng.random((n, dim)) < density)
    positive = rng.integers(0, n_cols - 1, size=n)
    return sp.csr_matrix(dense), positive, n_cols


class TestFitSparseOvaReference:
    @pytest.mark.parametrize("balanced", [True, False])
    @pytest.mark.parametrize("prune", [0.0, DEFAULT_PRUNE])
    @pytest.mark.parametrize("dim", [8, 64])  # 8: every feature active
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_reference(self, seed, dim, prune, balanced):
        x, positive, n_cols = random_group(seed, dim)
        got = fit_sparse_ova(x, positive, n_cols, dim, 1e-2, balanced=balanced, prune=prune)
        want = reference_fit_sparse_ova(
            x, positive, n_cols, dim, 1e-2, balanced=balanced, prune=prune
        )
        assert len(default_columns(got)) == want[3] >= 1
        shape = (dim + 1, n_cols)
        assert got.format == "csc" and got.shape == shape and got.dtype == np.float64
        assert got.has_canonical_format
        got_csr = got.tocsr()
        want_csr = sp.coo_matrix((want[2], (want[0], want[1])), shape=shape).tocsr()
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got_csr, name), getattr(want_csr, name))

    def test_empty_group_equals_reference(self):
        x, positive = sp.csr_matrix((0, 16)), np.empty(0, dtype=np.int64)
        block = fit_sparse_ova(x, positive, 3, 16, reg=1e-2)
        got = block.tocoo()
        want = reference_fit_sparse_ova(x, positive, 3, 16, reg=1e-2)
        assert got.data.dtype == want[2].dtype
        for a, b in zip((got.row, got.col, got.data), want[:3]):
            assert np.array_equal(a, b)
        assert len(default_columns(block)) == want[3] == 3
