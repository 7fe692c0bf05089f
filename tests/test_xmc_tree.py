"""Label feature aggregation and balanced tree construction."""
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from brandlink.core import BrandEntityId
from brandlink.text import FeaturizerConfig, SparseVector, featurize_corpus, normalize, vectorize
from brandlink.xmc.tree import LabelSpace, LabelTree, aggregate_label_features, build_tree

CFG = FeaturizerConfig(dim=2**16)


def leaf_groups(tree) -> list[np.ndarray]:
    """Label indices grouped by leaf cluster, in layer order."""
    if tree.n_layers == 1:
        return [tree.label_order]
    return np.split(tree.label_order, tree.children_indptr[-1][1:-1])


def space_from_surfaces(surfaces: list[str]) -> LabelSpace:
    labels = [BrandEntityId(f"E{i:03d}") for i in range(len(surfaces))]
    return aggregate_label_features(
        labels, {l: [s] for l, s in zip(labels, surfaces)}, {}, CFG
    )


class TestAggregateLabelFeatures:
    def test_unit_norm_with_data(self):
        space = space_from_surfaces(["nike", "sony"])
        for row in space.feature_matrix():
            assert np.linalg.norm(row.data) == pytest.approx(1.0)

    def test_label_without_data_gets_zero_vector(self):
        labels = [BrandEntityId("E0"), BrandEntityId("E1")]
        space = aggregate_label_features(labels, {labels[0]: ["nike"]}, {}, CFG)
        assert space.feature_matrix()[1].nnz == 0

    def test_surfaces_and_inputs_both_contribute(self):
        labels = [BrandEntityId("E0"), BrandEntityId("E1")]
        query_vec = vectorize("nike running shoes", CFG)
        space = aggregate_label_features(
            labels,
            {labels[0]: ["nike"], labels[1]: ["nike"]},
            {labels[1]: [query_vec]},
            CFG,
        )
        surface_only, mixed = space.feature_matrix()
        assert mixed.nnz > surface_only.nnz

    def test_duplicate_labels_rejected(self):
        labels = [BrandEntityId("E0"), BrandEntityId("E0")]
        with pytest.raises(ValueError):
            aggregate_label_features(labels, {labels[0]: ["a"]}, {}, CFG)

    def test_at_least_two_labels(self):
        with pytest.raises(ValueError):
            aggregate_label_features([BrandEntityId("E0")], {}, {}, CFG)


# aggregate_label_features before it became one indicator product, kept as
# the reference the current one must equal row for row, bit for bit.
def reference_aggregate(labels, surfaces, inputs, config) -> list[SparseVector]:
    features = []
    for label in labels:
        acc: dict[int, float] = {}
        for surface in surfaces.get(label, ()):
            vec = vectorize(surface, config)
            for idx, val in zip(vec.indices, vec.values):
                acc[int(idx)] = acc.get(int(idx), 0.0) + float(val)
        for vec in inputs.get(label, ()):
            for idx, val in zip(vec.indices, vec.values):
                acc[int(idx)] = acc.get(int(idx), 0.0) + float(val)
        if not acc:
            features.append(SparseVector.zero(config.dim))
            continue
        indices = np.array(sorted(acc), dtype=np.int64)
        values = np.array([acc[int(i)] for i in indices], dtype=np.float64)
        norm = float(np.sqrt(np.dot(values, values)))
        features.append(
            SparseVector(indices, values / norm, config.dim)
            if norm > 0.0
            else SparseVector.zero(config.dim)
        )
    return features


_IDF_CFG, _ = featurize_corpus(
    (normalize(t) for t in ("nike air", "sony tv", "鞋子 nike", "耐克 跑鞋", "usb")), CFG
)
# Latin and CJK texts from a small pool of overlapping phrases, so surfaces
# repeat within a label and many entries sum three or more terms.
_PHRASES = [
    "nike",
    "nike air max running shoes",
    "nike running socks",
    "sony tv 4k hdr",
    "耐克",
    "耐克 跑鞋 男款 夏季",
    "鞋子 nike air",
    " ",
]
_TEXT = st.one_of(
    st.sampled_from(_PHRASES),
    st.text(alphabet=st.sampled_from("nikesoy 耐克鞋子ー"), max_size=12),
)
# Per label: its surfaces and the texts of its training inputs.
_LABEL_DATA = st.lists(
    st.tuples(st.lists(_TEXT, max_size=5), st.lists(_TEXT, max_size=5)),
    min_size=2,
    max_size=5,
)


class TestAggregateReference:
    @given(data=_LABEL_DATA, idf=st.booleans())
    @example(data=[([], []), (["nike"], [])], idf=False)  # a label without data
    @example(data=[(["nike", "nike"], ["nike air"]), (["sony tv"], [])], idf=True)
    @example(data=[([], ["nike air", "nike"]), ([], ["鞋子 nike"])], idf=False)
    @example(data=[(["耐克", "鞋子 nike"], ["耐克"]), (["ー"], ["鞋子"])], idf=True)
    def test_rows_equal_reference(self, data, idf):
        config = _IDF_CFG if idf else CFG
        labels = [BrandEntityId(f"E{i}") for i in range(len(data))]
        surfaces = {label: texts for label, (texts, _) in zip(labels, data)}
        inputs = {
            label: [vectorize(text, config) for text in texts]
            for label, (_, texts) in zip(labels, data)
        }
        got = aggregate_label_features(labels, surfaces, inputs, config).feature_matrix()
        want = reference_aggregate(labels, surfaces, inputs, config)
        assert got.shape == (len(labels), config.dim)
        for row, vec in zip(got, want):
            assert np.array_equal(row.indices, vec.indices)
            assert np.array_equal(row.data, vec.values)


class TestBuildTree:
    def test_flat_when_small(self):
        space = space_from_surfaces(["a", "b", "c"])
        tree = build_tree(space, branching=16, max_leaf=100)
        assert tree.layer_sizes == (3,)
        assert tree.n_layers == 1

    def test_binary_tree_of_four(self):
        space = space_from_surfaces(["alpha", "beta", "gamma", "delta"])
        tree = build_tree(space, branching=2, max_leaf=1)
        assert tree.layer_sizes == (2, 4, 4)
        assert [len(g) for g in leaf_groups(tree)] == [1, 1, 1, 1]

    def test_thousand_labels_one_split(self):
        surfaces = [f"brand {i:04d} {'x' * (i % 7)}" for i in range(1000)]
        space = space_from_surfaces(surfaces)
        tree = build_tree(space, branching=16, max_leaf=100)
        assert tree.layer_sizes == (16, 1000)
        sizes = sorted(len(g) for g in leaf_groups(tree))
        assert set(sizes) <= {62, 63}
        assert sum(sizes) == 1000

    def test_balance_within_every_split(self):
        # Sibling subtree label counts under one parent differ by at most 1.
        surfaces = [f"tok{i} v{i % 11} w{i % 5}" for i in range(333)]
        tree = build_tree(space_from_surfaces(surfaces), branching=4, max_leaf=10)
        sizes = np.ones(tree.layer_sizes[-1], dtype=np.int64)
        for layer in range(tree.n_layers - 2, -1, -1):
            indptr = tree.children_indptr[layer]
            child_spread = [
                sizes[indptr[p] : indptr[p + 1]]
                for p in range(tree.layer_sizes[layer])
            ]
            for mine in child_spread:
                if len(mine) > 1:
                    assert mine.max() - mine.min() <= 1
            sizes = np.array([m.sum() for m in child_spread], dtype=np.int64)
        # The implicit root split over layer 0 is balanced too.
        assert sizes.max() - sizes.min() <= 1

    def test_every_label_reachable_exactly_once(self):
        surfaces = [f"{chr(97 + i % 26)}{i}" for i in range(120)]
        tree = build_tree(space_from_surfaces(surfaces), branching=3, max_leaf=7)
        seen = np.concatenate(leaf_groups(tree))
        assert sorted(seen.tolist()) == list(range(120))
        assert len(set(seen.tolist())) == 120

    def test_identical_features_share_a_leaf(self):
        surfaces = [
            "alpha",
            "alpha",  # identical twin of label 0
            "alpine",
            "alps",
            "zulu",
            "zebra",
            "zigzag",
            "zone",
        ]
        space = space_from_surfaces(surfaces)
        features = space.feature_matrix()
        assert np.array_equal(features[0].indices, features[1].indices)
        tree = build_tree(space, branching=2, max_leaf=4, seed=0)
        for group in leaf_groups(tree):
            members = set(group.tolist())
            if 0 in members:
                assert 1 in members
                break
        else:
            pytest.fail("label 0 missing from every leaf")

    def test_deterministic_for_fixed_seed(self):
        surfaces = [f"name{i} part{i % 13}" for i in range(200)]
        space = space_from_surfaces(surfaces)
        a = build_tree(space, branching=4, max_leaf=20, seed=7)
        b = build_tree(space, branching=4, max_leaf=20, seed=7)
        assert a.layer_sizes == b.layer_sizes
        assert np.array_equal(a.label_order, b.label_order)
        for ia, ib in zip(a.children_indptr, b.children_indptr):
            assert np.array_equal(ia, ib)

    def test_branching_validated(self):
        space = space_from_surfaces(["a", "b"])
        with pytest.raises(ValueError):
            build_tree(space, branching=1)
        with pytest.raises(ValueError):
            build_tree(space, max_leaf=0)


class TestLabelTree:
    def test_sizes_and_offsets_derived_from_the_arrays(self):
        indptrs = (np.array([0, 2, 3]), np.array([0, 1, 3, 5]))
        tree = LabelTree(indptrs, np.array([4, 0, 3, 1, 2]))
        assert tree.layer_sizes == (2, 3, 5)
        assert tree.offsets.tolist() == [0, 2, 5, 10]
        assert (tree.n_labels, tree.n_layers) == (5, 3)
        assert LabelTree((), np.array([1, 0])).layer_sizes == (2,)

    @pytest.mark.parametrize(
        "indptrs, label_order",
        [
            ((np.array([0, 2, 4]),), np.arange(5)),
            ((np.array([0, 2, 3]), np.array([0, 1, 3, 4, 5])), np.arange(5)),
            ((np.array([], dtype=np.int64),), np.arange(2)),
            ((np.array([1, 2]),), np.arange(2)),
            ((np.array([0, 2, 1, 2]),), np.arange(2)),
            ((), np.array([0, 0, 1])),
        ],
        ids=[
            "last-ends-short-of-the-labels",
            "indptr-covers-another-layer-size",
            "empty-indptr",
            "indptr-not-from-zero",
            "indptr-decreasing",
            "order-not-a-permutation",
        ],
    )
    def test_arrays_that_do_not_chain_rejected(self, indptrs, label_order):
        with pytest.raises(ValueError):
            LabelTree(indptrs, label_order)
