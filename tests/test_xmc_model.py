"""Beam inference against an independent exhaustive scorer, plus training
behavior and artifact round-trips."""
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.vendor.pretty import pretty
from scipy.sparse import _sparsetools

from brandlink.binio import (
    ArtifactChecksumError,
    ArtifactFormatError,
    ArtifactVersionError,
    csr_blobs,
    read_artifact,
    write_artifact,
)
from brandlink.core import NIL, NIL_ID, BrandEntityId, BrandMention, Query, StoreTag
from brandlink.text import FeaturizerConfig, SparseVector, featurize_corpus, normalize, vectorize
from brandlink import linear
from brandlink.linear import WEIGHT_DTYPE, score_vector
from brandlink.xmc.model import BeamParams, XmcModel, beam_predict, m2e_match, q2e_predict
from brandlink.xmc.serialize import MODEL_KIND, MODEL_VERSION, load_model, save_model
from brandlink.xmc.train import train
from brandlink.xmc.tree import LabelSpace, LabelTree, aggregate_label_features, build_tree

CFG = FeaturizerConfig(dim=2**16)
US = StoreTag("us")


def cosine(a: SparseVector, b: SparseVector) -> float:
    """Reference cosine over dense copies of both vectors."""
    da, db = np.zeros(a.dim), np.zeros(b.dim)
    da[a.indices], db[b.indices] = a.values, b.values
    denom = np.linalg.norm(da) * np.linalg.norm(db)
    return float(da @ db / denom) if denom else 0.0


def memory_owner(array):
    """The object that owns the memory under ``array``."""
    while True:
        if isinstance(array, np.ndarray) and array.base is not None:
            array = array.base
        elif isinstance(array, memoryview):
            array = array.obj
        else:
            return array


def layer_weights(model, layer):
    """The columns of one tree layer, sliced from the model's stack in
    feature order (the stack is stored bottom-up)."""
    lo, hi = model.tree.offsets[layer], model.tree.offsets[layer + 1]
    return model.weights[::-1][:, lo:hi]


def exhaustive_scores(model, vec) -> dict:
    """Score every label by its full root-to-leaf path, no beam, no pruning.

    Margins come from one dense float32 matvec per layer over all columns,
    widened to float64 as the scorer's are; the path log-score is
    accumulated through the parent pointers.
    """
    dense = np.zeros(vec.dim + 1, dtype=WEIGHT_DTYPE)
    dense[vec.indices] = vec.values
    dense[vec.dim] = 1.0
    tree = model.tree
    logs = None
    for layer in range(tree.n_layers):
        margins = (layer_weights(model, layer).T @ dense).astype(np.float64)
        layer_logs = -np.logaddexp(0.0, -margins)
        if logs is None:
            logs = layer_logs
        else:
            logs = logs[tree.parents_of_layer(layer)] + layer_logs
    scores = np.exp(logs)
    return {
        model.labels[int(label_idx)]: float(scores[pos])
        for pos, label_idx in enumerate(tree.label_order)
    }


def exhaustive_top(model, vec, k: int):
    ranked = sorted(
        exhaustive_scores(model, vec).items(), key=lambda kv: (-kv[1], kv[0].id)
    )
    return ranked[:k]


# beam_predict and its row gather before the per-call costs were cut, kept
# as the reference the current ones must equal bit for bit.  It reads the
# weights in feature order, the stored stack turned back (``[::-1]``), and
# adds the float32 products of the query's rows, ascending, then the bias
# row's, in a float32 sum that it widens to float64.
def reference_margins(weights, x) -> np.ndarray:
    rows = np.append(x.indices, x.dim)
    vals = np.append(x.values, 1.0).astype(WEIGHT_DTYPE)
    indptr = weights.indptr
    rows = rows.astype(indptr.dtype, copy=False)
    picked = np.zeros(len(rows) + 1, dtype=indptr.dtype)
    np.cumsum(indptr[rows + 1] - indptr[rows], out=picked[1:])
    cols = np.empty(picked[-1], dtype=weights.indices.dtype)
    terms = np.empty(picked[-1], dtype=weights.data.dtype)
    _sparsetools.csr_row_index(
        len(rows), rows, indptr, weights.indices, weights.data, cols, terms
    )
    margins = np.zeros(weights.shape[1], dtype=WEIGHT_DTYPE)
    _sparsetools.csc_matvec(weights.shape[1], len(rows), picked, cols, terms, vals, margins)
    return margins.astype(np.float64)


def reference_beam_predict(model, x, params):
    if x.nnz == 0:
        return []
    tree = model.tree
    margins = reference_margins(model.weights[::-1], x)
    nodes = np.arange(tree.layer_sizes[0], dtype=np.int64)
    path_logs = np.zeros(len(nodes), dtype=np.float64)
    for layer in range(tree.n_layers):
        if layer > 0:
            indptr = tree.children_indptr[layer - 1]
            counts = indptr[nodes + 1] - indptr[nodes]
            ends = np.cumsum(counts)
            children = np.repeat(indptr[nodes] - ends + counts, counts) + np.arange(
                counts.sum()
            )
            layer_margins = margins[children + model.tree.offsets[layer]]
            logs = np.repeat(path_logs, counts) - np.logaddexp(0.0, -layer_margins)
        else:
            children = nodes
            logs = path_logs - np.logaddexp(0.0, -margins[: len(nodes)])
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
    return [(model.labels[int(label_indices[i])], float(scores[i])) for i in top]


def random_model(seed: int):
    """A random tree (childless internal nodes included) with tie-prone weights.

    Weights are small integers on a few feature rows, so many paths tie
    and the tie-breaks are exercised; returns the model and query vectors.
    """
    rng = np.random.default_rng(seed)
    sizes = [int(rng.integers(1, 7))]
    indptrs = []
    for _ in range(int(rng.integers(0, 4))):
        fanout = rng.integers(0, 5, size=sizes[-1])
        if fanout.sum() == 0:
            fanout[-1] = 1
        indptrs.append(np.concatenate(([0], np.cumsum(fanout))).astype(np.int64))
        sizes.append(int(fanout.sum()))
    n_labels = sizes[-1]
    tree = LabelTree(tuple(indptrs), rng.permutation(n_labels))
    labels = tuple(BrandEntityId(f"L{i:02d}") for i in rng.permutation(n_labels))
    features = np.append(rng.choice(CFG.dim, size=6, replace=False), CFG.dim)
    block = rng.integers(-2, 3, size=(len(features), sum(sizes))).astype(np.float64)
    block *= rng.random(block.shape) < 0.6
    weights = np.zeros((CFG.dim + 1, sum(sizes)))
    weights[features] = block
    stack = linear.stack_layers([sp.csr_matrix(weights)], CFG.dim + 1)
    model = XmcModel(labels, tree, stack, CFG)
    vectors = []
    for _ in range(4):
        rows = np.sort(rng.choice(features[:-1], size=int(rng.integers(1, 7)), replace=False))
        vectors.append(SparseVector(rows, rng.integers(1, 3, size=len(rows)) / 2.0, CFG.dim))
    return model, vectors


def toy_model(surface_by_label: dict, data: list, **tree_kw):
    labels = sorted(surface_by_label, key=lambda e: e.id)
    space = aggregate_label_features(
        labels, {l: [s] for l, s in surface_by_label.items()}, {}, CFG
    )
    tree = build_tree(space, **tree_kw)
    pairs = [(vectorize(text, CFG), label) for text, label in data]
    return train(pairs, space, tree, featurizer=CFG)


@pytest.fixture(scope="module")
def two_brand_model():
    e1, e2 = BrandEntityId("E1"), BrandEntityId("E2")
    data = [
        ("nike", e1),
        ("nike shoes", e1),
        ("nike socks", e1),
        ("nike air", e1),
        ("nike runners", e1),
        ("sony", e2),
        ("sony tv", e2),
        ("sony radio", e2),
        ("sony headphones", e2),
        ("sony cable", e2),
    ]
    return toy_model({e1: "nike", e2: "sony"}, data, branching=2, max_leaf=1), data


class TestTrain:
    @pytest.mark.parametrize("fixture", ["two_brand_model", "fifty_label_model", "idf_model"])
    def test_stack_equals_one_built_from_layer_slices(self, fixture, request):
        model = request.getfixturevalue(fixture)
        model = model[0] if isinstance(model, tuple) else model
        offsets = model.tree.offsets.tolist()
        logical = model.weights[::-1]
        blocks = [logical[:, a:b] for a, b in zip(offsets[:-1], offsets[1:])]
        rebuilt = XmcModel(model.labels, model.tree, blocks, model.featurizer)
        for name in ("indptr", "indices", "data"):
            got, want = getattr(model.weights, name), getattr(rebuilt.weights, name)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_separable_toy_memorized(self, two_brand_model):
        model, data = two_brand_model
        for text, label in data:
            top = beam_predict(model, vectorize(text, CFG), BeamParams(top_k=1))
            assert top[0].entity == label

    def test_label_swap_swaps_predictions(self, two_brand_model):
        model, data = two_brand_model
        e1, e2 = BrandEntityId("E1"), BrandEntityId("E2")
        flip = {e1: e2, e2: e1}
        swapped = toy_model(
            {e1: "sony", e2: "nike"},
            [(t, flip[l]) for t, l in data],
            branching=2,
            max_leaf=1,
        )
        for text, label in data:
            top = beam_predict(swapped, vectorize(text, CFG), BeamParams(top_k=1))
            assert top[0].entity == flip[label]

    def test_duplicated_data_same_predictions(self, two_brand_model):
        model, data = two_brand_model
        e1, e2 = BrandEntityId("E1"), BrandEntityId("E2")
        doubled = toy_model(
            {e1: "nike", e2: "sony"}, data + data, branching=2, max_leaf=1
        )
        for text, _ in data:
            vec = vectorize(text, CFG)
            a = beam_predict(model, vec, BeamParams(top_k=1))[0]
            b = beam_predict(doubled, vec, BeamParams(top_k=1))[0]
            assert a.entity == b.entity
            assert a.score == pytest.approx(b.score, abs=1e-3)

    def test_label_without_data_defaults_negative(self):
        e1, e2, e3 = (BrandEntityId(f"E{i}") for i in (1, 2, 3))
        model = toy_model(
            {e1: "nike", e2: "sony", e3: "puma"},
            [("nike", e1), ("sony", e2)],
            branching=16,
            max_leaf=100,
        )
        assert sum(model.stats["default_columns"]) >= 1
        # Each layer's count is its columns that hold only the default bias.
        for layer, n_defaults in enumerate(model.stats["default_columns"]):
            block = layer_weights(model, layer).tocsc()
            bias = block[-1].toarray()[0]
            only_bias = (block.getnnz(axis=0) == 1) & (bias == linear.DEFAULT_NEGATIVE_BIAS)
            assert only_bias.sum() == n_defaults
        scores = exhaustive_scores(model, vectorize("puma", CFG))
        assert scores[e3] < 1e-3

    def test_peak_follows_the_stack(self):
        # 21 groups over a (4, 16, 512) tree, each label with 32 features
        # of its own: no group's solve holds more than a fraction of the
        # 0.56M weights, so the stack's build sets the peak.  The per-layer
        # blocks (12 bytes a weight) and the stored stack (8) measure 3.1
        # times the stack's bytes; a build that holds every group's weights
        # as COO triplets (24 bytes a weight) and a joined copy reads 6.3.
        n_labels, pool = 512, 32
        tree = LabelTree(
            (np.arange(0, 17, 4), np.arange(0, n_labels + 1, 32)), np.arange(n_labels)
        )
        labels = tuple(BrandEntityId(f"L{i:04d}") for i in range(n_labels))
        space = LabelSpace(labels, sp.csr_matrix((n_labels, CFG.dim)))
        rng = np.random.default_rng(3)
        data = []
        for i, label in enumerate(labels):
            for _ in range(4):
                features = np.sort(rng.choice(pool, 12, replace=False)) + i * pool
                data.append((SparseVector(features, np.ones(12), CFG.dim), label))
        tracemalloc.start()
        try:
            model = train(data, space, tree, featurizer=CFG)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        weights = model.weights
        stack_bytes = sum(a.nbytes for a in (weights.data, weights.indices, weights.indptr))
        assert weights.nnz > 500_000
        assert peak < 4 * stack_bytes

    def test_label_outside_space_rejected(self):
        e1, e2 = BrandEntityId("E1"), BrandEntityId("E2")
        space = aggregate_label_features([e1, e2], {e1: ["a"], e2: ["b"]}, {}, CFG)
        tree = build_tree(space)
        with pytest.raises(ValueError):
            train(
                [(vectorize("a", CFG), BrandEntityId("E9"))],
                space,
                tree,
                featurizer=CFG,
            )


@pytest.fixture(scope="module")
def fifty_label_model():
    rng = np.random.default_rng(42)
    vocab = [f"w{i}" for i in range(25)]
    labels = {}
    data = []
    for i in range(50):
        entity = BrandEntityId(f"B{i:03d}")
        name = f"brand{i:02d} {vocab[i % 25]}"
        labels[entity] = name
        data.append((name, entity))
        for _ in range(2):
            extra = rng.choice(vocab, size=2, replace=False)
            data.append((f"{name} {' '.join(extra)}", entity))
    model = toy_model(labels, data, branching=4, max_leaf=5, seed=1)
    queries = []
    for _ in range(200):
        i = int(rng.integers(0, 50))
        extra = " ".join(rng.choice(vocab, size=1))
        queries.append(f"brand{i:02d} {extra}")
    return model, queries


@pytest.fixture(scope="module")
def idf_model():
    """A small ranker whose featurizer carries an idf table."""
    names = ["nike", "sony", "puma", "bosch", "lego", "dyson"]
    labels = [BrandEntityId(f"E{i}") for i in range(len(names))]
    data = [
        (f"{name} {kind}", label)
        for name, label in zip(names, labels)
        for kind in ("shoes", "tv", "drill", "")
    ]
    cfg, _ = featurize_corpus((normalize(text) for text, _ in data), CFG)
    space = aggregate_label_features(
        labels, {l: [n] for l, n in zip(labels, names)}, {}, cfg
    )
    tree = build_tree(space, branching=2, max_leaf=2)
    pairs = [(vectorize(text, cfg), label) for text, label in data]
    model = train(pairs, space, tree, featurizer=cfg)
    return model, [text for text, _ in data] + ["nikee", "usb cable"]


@pytest.mark.parametrize(
    "fields, name",
    [
        ({"beam_size": 2.5}, "beam_size"),
        ({"beam_size": True, "top_k": 2}, "beam_size"),
        ({"top_k": 2.0}, "top_k"),
        ({"top_k": True}, "top_k"),
        ({"beam_size": "10"}, "beam_size"),
    ],
    ids=["float-beam", "bool-beam", "float-top-k", "bool-top-k", "string-beam"],
)
def test_beam_params_must_be_positive_ints(fields, name):
    # Accepted, a float or a bool would fail every query in beam_predict.
    with pytest.raises(ValueError, match=name):
        BeamParams(**fields)


class TestBeamAgainstOracle:
    def test_wide_beam_equals_exhaustive(self, fifty_label_model):
        model, queries = fifty_label_model
        wide = BeamParams(beam_size=max(model.tree.layer_sizes), top_k=5)
        for text in queries[:50]:
            vec = vectorize(text, CFG)
            got = beam_predict(model, vec, wide)
            want = exhaustive_top(model, vec, 5)
            assert [(s.entity, pytest.approx(s.score)) for s in got] == [
                (e, pytest.approx(v)) for e, v in want
            ]

    def test_narrow_beam_top1_agreement(self, fifty_label_model):
        model, queries = fifty_label_model
        params = BeamParams(beam_size=4, top_k=1)
        agree = 0
        for text in queries:
            vec = vectorize(text, CFG)
            got = beam_predict(model, vec, params)
            want = exhaustive_top(model, vec, 1)
            if got and got[0].entity == want[0][0]:
                agree += 1
        assert agree >= 190

    def test_scores_sorted_and_in_range(self, fifty_label_model):
        model, queries = fifty_label_model
        for text in queries[:30]:
            out = beam_predict(model, vectorize(text, CFG), BeamParams(top_k=5))
            assert all(0.0 < c.score <= 1.0 for c in out)
            keys = [(-c.score, c.entity.id) for c in out]
            assert keys == sorted(keys)
            assert len({c.entity for c in out}) == len(out)

    def test_score_rows_equals_dense_matvec(self, fifty_label_model):
        # Gathering the query's rows of the whole stack must sum the same
        # terms in the same order as a dense matvec of each layer, on whole
        # layers and on child subsets.
        model, queries = fifty_label_model
        rng = np.random.default_rng(7)
        for text in queries[:10]:
            vec = vectorize(text, CFG)
            dense = np.zeros(vec.dim + 1, dtype=WEIGHT_DTYPE)
            dense[vec.indices] = vec.values
            dense[vec.dim] = 1.0
            stacked = score_vector(model.weights, vec)
            assert stacked.dtype == np.float64
            assert np.array_equal(stacked, reference_margins(model.weights[::-1], vec))
            for layer in range(model.tree.n_layers):
                weights = layer_weights(model, layer)
                want = (weights.T @ dense).astype(np.float64)
                got = stacked[model.tree.offsets[layer] : model.tree.offsets[layer + 1]]
                assert np.array_equal(got, want)
                width = weights.shape[1]
                for _ in range(3):
                    children = np.sort(
                        rng.choice(width, size=max(1, width // 2), replace=False)
                    )
                    assert np.array_equal(got[children], want[children])

    def test_equals_reference_on_trained_model(self, fifty_label_model):
        model, queries = fifty_label_model
        for beam_size in (1, 3, 12):
            params = BeamParams(beam_size=beam_size, top_k=5)
            for text in queries[:40]:
                vec = vectorize(text, CFG)
                got = [(c.entity, c.score) for c in beam_predict(model, vec, params)]
                assert got == reference_beam_predict(model, vec, params)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        beam_size=st.integers(1, 12),
        top_k=st.integers(1, 6),
    )
    def test_equals_reference_on_random_trees(self, seed, beam_size, top_k):
        # Narrow beams over ragged trees, where no exhaustive oracle applies.
        model, vectors = random_model(seed)
        params = BeamParams(beam_size=beam_size, top_k=top_k)
        for vec in vectors:
            got = [(c.entity, c.score) for c in beam_predict(model, vec, params)]
            assert got == reference_beam_predict(model, vec, params)

    def test_childless_internal_nodes(self):
        # Nodes 1 and 3 of layer 0 and node 2 of layer 1 have no children.
        indptrs = (np.array([0, 2, 2, 4, 4]), np.array([0, 1, 3, 3, 5]))
        tree = LabelTree(indptrs, np.array([4, 0, 3, 1, 2]))
        labels = tuple(BrandEntityId(f"E{i}") for i in range(5))
        rng = np.random.default_rng(5)
        vec = vectorize("nike air", CFG)
        weights = np.zeros((CFG.dim + 1, 13))
        weights[vec.indices] = rng.normal(size=(vec.nnz, 13))
        weights[CFG.dim] = rng.normal(size=13)
        blocks = [sp.csc_matrix(weights[:, a:b]) for a, b in ((0, 4), (4, 8), (8, 13))]
        model = XmcModel(labels, tree, blocks, CFG)
        wide = BeamParams(beam_size=13, top_k=5)
        got = beam_predict(model, vec, wide)
        assert [(s.entity, pytest.approx(s.score)) for s in got] == [
            (e, pytest.approx(v)) for e, v in exhaustive_top(model, vec, 5)
        ]
        for beam_size in range(1, 5):
            beam_predict(model, vec, BeamParams(beam_size=beam_size))

    def test_only_childless_survivors_yield_nothing(self):
        # Node 0 wins layer 0 but has no children; a beam of one keeps it alone.
        tree = LabelTree((np.array([0, 0, 2]),), np.array([0, 1]))
        labels = (BrandEntityId("A"), BrandEntityId("B"))
        vec = vectorize("nike", CFG)
        weights = np.zeros((CFG.dim + 1, 4))
        weights[CFG.dim] = [5.0, -5.0, 1.0, 1.0]
        blocks = [sp.csr_matrix(weights[:, :2]), sp.csr_matrix(weights[:, 2:])]
        model = XmcModel(labels, tree, blocks, CFG)
        assert beam_predict(model, vec, BeamParams(beam_size=1)) == []
        both = beam_predict(model, vec, BeamParams(beam_size=2))
        assert [c.entity.id for c in both] == ["A", "B"]

    @pytest.mark.parametrize("layout", ["coo", "csc"])
    def test_single_matrix_must_be_the_stored_csr_stack(self, layout):
        # One matrix is the stored stack, kept as it is; in another layout
        # it is most likely a stack in feature order, which would mis-score.
        tree = LabelTree((), np.array([0, 1]))
        labels = (BrandEntityId("A"), BrandEntityId("B"))
        weights = sp.random(
            CFG.dim + 1, 2, density=1e-3, format=layout, random_state=0, dtype=WEIGHT_DTYPE
        )
        with pytest.raises(ValueError, match="stored CSR stack"):
            XmcModel(labels, tree, weights, CFG)
        stack = weights.tocsr()
        assert XmcModel(labels, tree, stack, CFG).weights is stack

    def test_float64_stack_refused(self):
        # The scorer sums float32 weights; with a float64 stack every
        # score would raise, so it is refused before any query.
        tree = LabelTree((), np.array([0, 1]))
        labels = (BrandEntityId("A"), BrandEntityId("B"))
        stack = sp.random(CFG.dim + 1, 2, density=1e-3, format="csr", random_state=0)
        assert stack.dtype == np.float64
        with pytest.raises(ValueError, match="float32"):
            XmcModel(labels, tree, stack, CFG)

    def test_beam_allocates_no_dense_vector(self):
        wide = FeaturizerConfig(dim=2**20)
        e1, e2 = BrandEntityId("E1"), BrandEntityId("E2")
        space = aggregate_label_features([e1, e2], {e1: ["nike"], e2: ["sony"]}, {}, wide)
        data = [("nike shoes", e1), ("nike", e1), ("sony tv", e2), ("sony", e2)]
        model = train(
            [(vectorize(t, wide), l) for t, l in data],
            space,
            build_tree(space),
            featurizer=wide,
        )
        vec = vectorize("nike shoes", wide)
        tracemalloc.start()
        try:
            assert beam_predict(model, vec, BeamParams())[0].entity == e1
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (wide.dim + 1) * 8 // 16

    def test_equal_scores_rank_by_label_id(self):
        # Label indices, tree positions and ids all disagree in order; the
        # three labels share one weight column, so their scores tie.
        labels = tuple(BrandEntityId(i) for i in ("B", "C", "A"))
        tree = LabelTree((), np.array([1, 2, 0]))
        vec = vectorize("nike", CFG)
        weights = np.zeros((CFG.dim + 1, 3))
        weights[vec.indices] = 1.0
        model = XmcModel(labels, tree, [sp.csc_matrix(weights)], CFG)
        got = beam_predict(model, vec, BeamParams(top_k=2))
        assert [c.entity.id for c in got] == ["A", "B"]
        assert got[0].score == got[1].score

    def test_top_k_caps_output(self, fifty_label_model):
        model, queries = fifty_label_model
        out = beam_predict(model, vectorize(queries[0], CFG), BeamParams(top_k=1))
        assert len(out) <= 1

    def test_zero_vector_yields_nothing(self, fifty_label_model):
        model, _ = fifty_label_model
        assert beam_predict(model, SparseVector.zero(CFG.dim), BeamParams()) == []

    def test_dimension_mismatch_rejected(self, fifty_label_model):
        model, _ = fifty_label_model
        other = vectorize("x", FeaturizerConfig(dim=2**17))
        with pytest.raises(ValueError):
            beam_predict(model, other, BeamParams())


def assert_stored(got, want):
    """``got`` is ``want``'s structure with its values rounded to float32."""
    assert got.data.dtype == WEIGHT_DTYPE
    for name in ("indptr", "indices"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert np.array_equal(got.data, want.data.astype(WEIGHT_DTYPE))


class TestStackLayers:
    def blocks(self, rng, dim=2**16, widths=(3, 0, 40, 500), density=0.01):
        n_rows = dim + 1
        return [
            sp.random(n_rows, w, density=density, format="csc", random_state=rng)
            for w in widths
        ]

    @pytest.mark.parametrize("layout", ["csc", "csr", "coo"])
    def test_equals_hstack_then_tocsr(self, layout):
        rng = np.random.default_rng(11)
        blocks = [b.asformat(layout) for b in self.blocks(rng)]
        want = sp.hstack(blocks).tocsr()
        want.sort_indices()
        want = want[::-1]
        got = linear.stack_layers(blocks, 2**16 + 1)
        assert got.shape == want.shape
        assert got.indices.dtype == np.int32
        assert_stored(got, want)

    def test_slices_within_a_layer_keep_the_column_order(self, monkeypatch):
        monkeypatch.setattr(linear, "_STACK_SLICE_NNZ", 7)
        rng = np.random.default_rng(12)
        blocks = self.blocks(rng, widths=(30, 1, 90), density=0.001)
        want = sp.hstack(blocks).tocsr()[::-1]
        got = linear.stack_layers(blocks, 2**16 + 1)
        assert got.has_sorted_indices or got.nnz == 0
        assert_stored(got, want)

    def test_duplicate_coo_entries_are_summed(self):
        # A COO block may store one coordinate twice.  Its CSC form sums
        # them; counted before that, a slot of the result stays unwritten.
        block = sp.coo_matrix(([1.0, 2.0, 5.0], ([0, 0, 3], [0, 0, 1])), shape=(5, 2))
        got = linear.stack_layers([block], 5)
        want = block.tocsr()[::-1]
        assert got.nnz == 2
        assert_stored(got, want)

    def test_build_from_csc_layers_holds_no_stacked_copy(self):
        # A stacked CSC copy beside the CSR result would double the peak.
        rng = np.random.default_rng(13)
        blocks = self.blocks(rng, widths=(16, 256, 4096), density=0.004)
        nnz = sum(b.nnz for b in blocks)
        result_bytes = 8 * nnz + 4 * (2**16 + 2)
        tracemalloc.start()
        try:
            stacked = linear.stack_layers(blocks, 2**16 + 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stacked.nnz == nnz > 1_000_000
        assert peak < 1.5 * result_bytes

    def test_temporaries_follow_the_slices_not_the_row_count(self, monkeypatch):
        # At the 2^20 + 1 rows of the default featurizer, a small stack of
        # many slices may hold only the row pointers and fill pointers (4
        # bytes a row each) and one block's row counts (8) at a time; an
        # array of the row count per slice would take the peak past that.
        monkeypatch.setattr(linear, "_STACK_SLICE_NNZ", 64)
        n_rows = 2**20 + 1
        rng = np.random.default_rng(14)
        blocks = [
            sp.random(n_rows, w, density=2e-4, format="csc", random_state=rng)
            for w in (3, 16, 40)
        ]
        tracemalloc.start()
        try:
            stacked = linear.stack_layers(blocks, n_rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stacked.nnz > 100 * linear._STACK_SLICE_NNZ
        assert peak < 16 * n_rows
        want = sp.hstack(blocks).tocsr()[::-1]
        assert_stored(stacked, want)


def test_hypothesis_prints_a_model():
    # Hypothesis prints every argument of a falsifying example; a model
    # that failed to print would hide the real failure behind its error.
    model, _ = random_model(0)
    assert pretty(model) == repr(model)


@pytest.fixture(scope="module")
def m2e_model():
    e1, e2, e3 = (BrandEntityId(f"E{i}") for i in (1, 2, 3))
    surfaces = {e1: "nike", e2: "sony", e3: "puma"}
    data = [("nike", e1), ("sony", e2), ("puma", e3)]
    return toy_model(surfaces, data, branching=16, max_leaf=100), surfaces


class TestM2eMatch:
    def test_training_surface_recovered(self, m2e_model):
        model, _ = m2e_model
        mention = BrandMention.from_text("nike", 0, 4)
        assert m2e_match(model, mention)[0].entity == BrandEntityId("E1")

    def test_misspelling_resolves_to_nearest_label(self, m2e_model):
        model, surfaces = m2e_model
        # Reference ranking first: cosine of the query against each label's
        # surface vector must already prefer E1 before the model is trusted.
        query_vec = vectorize("nikee", CFG)
        by_cosine = sorted(
            surfaces,
            key=lambda e: -cosine(query_vec, vectorize(surfaces[e], CFG)),
        )
        assert by_cosine[0] == BrandEntityId("E1")
        mention = BrandMention.from_text("nikee", 0, 5)
        assert m2e_match(model, mention)[0].entity == BrandEntityId("E1")

    def test_blank_mention_yields_nothing(self, m2e_model):
        model, _ = m2e_model
        mention = BrandMention(surface=" ", span=(0, 1))
        assert m2e_match(model, mention) == []


@pytest.fixture(scope="module")
def q2e_model():
    e1, e2 = BrandEntityId("E1"), BrandEntityId("E2")
    data = [
        ("nike shoes", e1),
        ("nike boots", e1),
        ("sony tv", e2),
        ("sony radio", e2),
        ("usb cable", NIL),
        ("hdmi cable", NIL),
    ]
    surfaces = {e1: "nike", e2: "sony", NIL: ""}
    return toy_model(surfaces, data, branching=16, max_leaf=100)


class TestQ2ePredict:
    def test_branded_query_ranks_entity_over_nil(self, q2e_model):
        vec = vectorize("nike shoes", CFG)
        want = exhaustive_top(q2e_model, vec, 3)
        assert want[0][0] == BrandEntityId("E1")
        got = q2e_predict(q2e_model, Query("nike shoes", US))
        assert got[0].entity == BrandEntityId("E1")
        nil_rank = [c.entity for c in got].index(NIL)
        assert nil_rank > 0

    def test_non_branded_query_ranks_nil_first(self, q2e_model):
        vec = vectorize("usb cable", CFG)
        assert exhaustive_top(q2e_model, vec, 1)[0][0] == NIL
        got = q2e_predict(q2e_model, Query("usb cable", US))
        assert got[0].entity == NIL

    def test_training_queries_memorized(self, q2e_model):
        for text, label in [("nike boots", BrandEntityId("E1")), ("sony tv", BrandEntityId("E2"))]:
            got = q2e_predict(q2e_model, Query(text, US))
            assert got[0].entity == label


class TestSerialization:
    def test_round_trip_identical_outputs(self, fifty_label_model, tmp_path):
        model, queries = fifty_label_model
        path = tmp_path / "model.blaf"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.labels == model.labels
        rng = np.random.default_rng(3)
        texts = list(queries[:80]) + [
            " ".join(rng.choice([q.split()[0] for q in queries[:20]], size=2))
            for _ in range(20)
        ]
        for text in texts:
            vec = vectorize(text, CFG)
            a = beam_predict(model, vec, BeamParams())
            b = beam_predict(loaded, vec, BeamParams())
            assert [(c.entity, c.score) for c in a] == [(c.entity, c.score) for c in b]

    def test_save_deterministic_bytes(self, two_brand_model, tmp_path):
        model, _ = two_brand_model
        a, b = tmp_path / "a.blaf", tmp_path / "b.blaf"
        save_model(model, a)
        save_model(model, b)
        assert a.read_bytes() == b.read_bytes()

    def test_corrupt_byte_detected(self, two_brand_model, tmp_path):
        model, _ = two_brand_model
        path = tmp_path / "m.blaf"
        save_model(model, path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ArtifactChecksumError):
            load_model(path)

    def test_wrong_kind_version_detected(self, tmp_path):
        path = tmp_path / "m.blaf"
        write_artifact(path, "xmc-model", 99, {"anything": True}, {})
        with pytest.raises(ArtifactVersionError):
            load_model(path)

    def test_format_2_rejected(self, two_brand_model, tmp_path):
        # Format 2 stored the rows in feature order; read as bottom-up they
        # would mis-score every query, so the loader refuses the file.
        model, _ = two_brand_model
        path = tmp_path / "m.blaf"
        save_model(model, path)
        meta, blobs = read_artifact(path, MODEL_KIND, MODEL_VERSION)
        blobs = dict(blobs, **csr_blobs(model.weights[::-1], "weights"))
        write_artifact(path, MODEL_KIND, 2, meta, blobs)
        with pytest.raises(ArtifactVersionError):
            load_model(path)

    def test_format_3_rejected(self, two_brand_model, tmp_path):
        # Format 3 stored float64 values, which the scorer does not read.
        model, _ = two_brand_model
        path = tmp_path / "m.blaf"
        save_model(model, path)
        meta, blobs = read_artifact(path, MODEL_KIND, MODEL_VERSION)
        blobs = dict(blobs, **{"weights/data": blobs["weights/data"].astype(np.float64)})
        write_artifact(path, MODEL_KIND, 3, meta, blobs)
        with pytest.raises(ArtifactVersionError):
            load_model(path)

    def test_weight_that_overflows_float32_not_saved(self):
        # Rounded to float32 it is infinite: no model holds it, so none
        # can serve or save it.
        tree = LabelTree((), np.array([0, 1]))
        labels = (BrandEntityId("A"), BrandEntityId("B"))
        weights = np.zeros((CFG.dim + 1, 2))
        weights[CFG.dim] = [1e39, 0.5]
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            XmcModel(labels, tree, [sp.csc_matrix(weights)], CFG)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_weights_and_idf_rejected(self, fifty_label_model, tmp_path, bad):
        model, _ = fifty_label_model
        path = tmp_path / "m.blaf"
        save_model(model, path)
        meta, blobs = read_artifact(path, MODEL_KIND, MODEL_VERSION)
        weights = dict(blobs)
        data = np.array(blobs["weights/data"])
        data[len(data) // 2] = bad
        weights["weights/data"] = data
        idf_meta = dict(meta, featurizer=dict(meta["featurizer"], idf_docs=1))
        idf = np.ones(CFG.dim, dtype=np.float32)
        idf[3] = bad
        with_idf = dict(blobs, **{"featurizer/idf": idf})
        for crafted_meta, crafted in ((meta, weights), (idf_meta, with_idf)):
            write_artifact(path, MODEL_KIND, MODEL_VERSION, crafted_meta, crafted)
            with pytest.raises(ArtifactFormatError):
                load_model(path)

    @pytest.mark.parametrize(
        "name, edit",
        [
            ("weights/indptr", lambda a, n_cols: a[:-1]),
            ("weights/indptr", lambda a, n_cols: a + 1),
            ("weights/indptr", lambda a, n_cols: np.concatenate([[0, a[-1]], a[2:]])),
            ("weights/indptr", lambda a, n_cols: np.append(a[:-1], a[-1] - 1)),
            ("weights/indices", lambda a, n_cols: np.append(a[:-1], n_cols)),
            ("weights/indices", lambda a, n_cols: np.append(a[:-1], -1)),
            ("weights/data", lambda a, n_cols: a[:-1]),
            ("tree/label_order", lambda a, n_cols: np.zeros_like(a)),
            ("tree/label_order", lambda a, n_cols: a + 1),
            (
                "tree/indptr0",
                lambda a, n_cols: np.concatenate([a[:1], a[2:3], a[1:2], a[3:]]),
            ),
        ],
        ids=[
            "indptr-short",
            "indptr-not-from-zero",
            "indptr-decreasing",
            "indptr-not-to-nnz",
            "column-past-last-node",
            "index-negative",
            "data-short",
            "label-order-repeats",
            "label-order-out-of-range",
            "tree-indptr-decreasing",
        ],
    )
    def test_crafted_structure_rejected(self, fifty_label_model, tmp_path, name, edit):
        # Re-written through write_artifact, so the checksum is valid and
        # only the structure checks stand between the arrays and scipy.
        # Each edited array keeps its stored dtype.
        model, _ = fifty_label_model
        path = tmp_path / "m.blaf"
        save_model(model, path)
        meta, blobs = read_artifact(path, MODEL_KIND, MODEL_VERSION)
        blobs = dict(blobs)
        n_cols = sum(model.tree.layer_sizes)
        blobs[name] = edit(np.array(blobs[name]), n_cols).astype(blobs[name].dtype)
        write_artifact(path, MODEL_KIND, MODEL_VERSION, meta, blobs)
        with pytest.raises(ArtifactFormatError):
            load_model(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda sizes: [sizes[0] + 1, *sizes[1:]],
            lambda sizes: [*sizes[:-1], sizes[-1] - 1],
            lambda sizes: sizes[1:],
            lambda sizes: [*sizes, sizes[-1]],
        ],
        ids=["first-layer-larger", "label-layer-smaller", "layer-dropped", "layer-added"],
    )
    def test_stored_layer_sizes_must_match_the_tree(self, fifty_label_model, tmp_path, edit):
        # The tree's sizes are derived from its indptr arrays; the sizes the
        # metadata repeats must agree with them, or the file is not one
        # save_model wrote.
        model, _ = fifty_label_model
        path = tmp_path / "m.blaf"
        save_model(model, path)
        meta, blobs = read_artifact(path, MODEL_KIND, MODEL_VERSION)
        assert meta["layer_sizes"] == list(model.tree.layer_sizes)
        crafted = dict(meta, layer_sizes=edit(meta["layer_sizes"]))
        write_artifact(path, MODEL_KIND, MODEL_VERSION, crafted, blobs)
        with pytest.raises(ArtifactFormatError):
            load_model(path)

    @pytest.mark.parametrize("source, target", [(1, 2), (0, 1)], ids=["entity", "nil"])
    def test_duplicate_labels_rejected(self, q2e_model, tmp_path, source, target):
        # A repeated label would let beam search return one entity twice,
        # and a second NIL is a repeated label like any other.
        path = tmp_path / "m.blaf"
        save_model(q2e_model, path)
        meta, blobs = read_artifact(path, MODEL_KIND, MODEL_VERSION)
        assert meta["labels"] == [NIL_ID, "E1", "E2"]
        labels = list(meta["labels"])
        labels[target] = labels[source]
        write_artifact(path, MODEL_KIND, MODEL_VERSION, dict(meta, labels=labels), blobs)
        with pytest.raises(ArtifactFormatError, match="unique"):
            load_model(path)
        repeated = tuple(BrandEntityId(label) for label in labels)
        with pytest.raises(ValueError, match="unique"):
            XmcModel(repeated, q2e_model.tree, q2e_model.weights, q2e_model.featurizer)

    @settings(max_examples=40, deadline=None)
    @given(
        n_labels=st.integers(2, 40),
        branching=st.integers(2, 5),
        max_leaf=st.integers(1, 50),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_built_tree_round_trips(
        self, tmp_path_factory, n_labels, branching, max_leaf, seed
    ):
        labels = tuple(BrandEntityId(f"L{i:02d}") for i in range(n_labels))
        features = sp.random(
            n_labels, CFG.dim, density=8 / CFG.dim, format="csr", random_state=seed
        )
        tree = build_tree(LabelSpace(labels, features), branching, max_leaf, seed)
        assert (tree.n_layers == 1) == (n_labels <= max_leaf)
        empty = sp.csr_matrix((CFG.dim + 1, tree.offsets[-1]), dtype=WEIGHT_DTYPE)
        path = tmp_path_factory.mktemp("tree") / "m.blaf"
        save_model(XmcModel(labels, tree, empty, CFG), path)
        loaded = load_model(path).tree
        assert loaded.layer_sizes == tree.layer_sizes
        assert np.array_equal(loaded.offsets, tree.offsets)
        assert np.array_equal(loaded.label_order, tree.label_order)
        assert len(loaded.children_indptr) == len(tree.children_indptr)
        for got, want in zip(loaded.children_indptr, tree.children_indptr):
            assert np.array_equal(got, want)

    def test_other_score_transform_rejected(self, fifty_label_model, tmp_path):
        # Beam search only computes sigmoid path scores; a model that
        # declares another transform must not load and be mis-scored.
        model, _ = fifty_label_model
        path = tmp_path / "m.blaf"
        save_model(model, path)
        meta, blobs = read_artifact(path, MODEL_KIND, MODEL_VERSION)
        assert meta["score_transform"] == "sigmoid"
        write_artifact(
            path, MODEL_KIND, MODEL_VERSION, dict(meta, score_transform="softmax"), blobs
        )
        with pytest.raises(ArtifactFormatError, match="softmax"):
            load_model(path)

    @pytest.mark.parametrize(
        "edit",
        [{"word_ngrams": 3}, {"char_ngrams": [1, 3]}, {"hash_name": "md5/v1"}],
        ids=["word-ngrams", "char-ngrams", "hash-name"],
    )
    def test_other_featurizer_rejected(self, fifty_label_model, tmp_path, edit):
        # Featurization is fixed; a model that records other n-gram orders
        # or another hash would be fed vectors it was not trained on.
        model, _ = fifty_label_model
        path = tmp_path / "m.blaf"
        save_model(model, path)
        meta, blobs = read_artifact(path, MODEL_KIND, MODEL_VERSION)
        assert meta["featurizer"]["word_ngrams"] == 2
        crafted = dict(meta, featurizer=dict(meta["featurizer"], **edit))
        write_artifact(path, MODEL_KIND, MODEL_VERSION, crafted, blobs)
        with pytest.raises(ArtifactFormatError, match="unsupported"):
            load_model(path)

    @pytest.mark.parametrize(
        "name, dtype",
        [
            ("weights/data", np.float64),
            ("weights/indices", np.int64),
            ("weights/indptr", np.int64),
            ("weights/indices", np.float64),
            ("featurizer/idf", np.float64),
        ],
        ids=["data-float64", "indices-wider", "indptr-wider", "indices-float", "idf-float64"],
    )
    def test_crafted_dtype_rejected(self, idf_model, tmp_path, name, dtype):
        # The loader builds on the stored arrays as they are, so any dtype
        # other than the scorer's fails the load instead of being converted.
        model, _ = idf_model
        path = tmp_path / "m.blaf"
        save_model(model, path)
        meta, blobs = read_artifact(path, MODEL_KIND, MODEL_VERSION)
        assert blobs["weights/indices"].dtype == blobs["weights/indptr"].dtype == np.int32
        blobs = dict(blobs, **{name: blobs[name].astype(dtype)})
        write_artifact(path, MODEL_KIND, MODEL_VERSION, meta, blobs)
        with pytest.raises(ArtifactFormatError):
            load_model(path)

    @pytest.mark.parametrize(
        "field, value",
        [("dim", "65536"), ("dim", 65536.9), ("idf_docs", "3"), ("idf_docs", 3.5)],
        ids=["dim-string", "dim-fraction", "idf-docs-string", "idf-docs-fraction"],
    )
    def test_featurizer_sizes_must_be_integers(self, idf_model, tmp_path, field, value):
        # Read with int(), "65536" and 65536.9 would load as dim 65536.
        model, _ = idf_model
        path = tmp_path / "m.blaf"
        save_model(model, path)
        meta, blobs = read_artifact(path, MODEL_KIND, MODEL_VERSION)
        assert meta["featurizer"]["dim"] == CFG.dim
        assert meta["featurizer"]["idf_docs"] is not None
        crafted = dict(meta, featurizer=dict(meta["featurizer"], **{field: value}))
        write_artifact(path, MODEL_KIND, MODEL_VERSION, crafted, blobs)
        with pytest.raises(ArtifactFormatError):
            load_model(path)

    def test_load_serves_weights_and_idf_from_one_aligned_buffer(self, idf_model, tmp_path):
        model, queries = idf_model
        path = tmp_path / "m.blaf"
        save_model(model, path)
        loaded = load_model(path)
        arrays = [
            loaded.weights.data,
            loaded.weights.indices,
            loaded.weights.indptr,
            loaded.featurizer.idf.weights,
        ]
        for array in arrays:
            assert not array.flags.writeable and not array.flags.owndata
            assert array.ctypes.data % 8 == 0
        # Every array lies inside the one payload buffer the file was read into.
        owners = {id(memory_owner(array)) for array in arrays}
        assert len(owners) == 1 and owners != {id(None)}
        for text in queries:
            vec = vectorize(text, model.featurizer)
            want = beam_predict(model, vec, BeamParams(top_k=5))
            got = beam_predict(loaded, vec, BeamParams(top_k=5))
            assert [(c.entity, c.score) for c in got] == [(c.entity, c.score) for c in want]

    def test_load_peaks_under_the_file_size(self, idf_model, tmp_path):
        # The payload is read once into the buffer the model serves from;
        # a conversion or copy of the weights would push the peak past it.
        model, _ = idf_model
        path = tmp_path / "m.blaf"
        save_model(model, path)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            loaded = load_model(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.weights.nnz == model.weights.nnz
        assert peak < 1.2 * size
