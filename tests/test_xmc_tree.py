"""Label feature aggregation and balanced tree construction."""
import numpy as np
import pytest

from brandlink.core import BrandEntityId
from brandlink.text import FeaturizerConfig, vectorize
from brandlink.xmc.tree import LabelSpace, aggregate_label_features, build_tree

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
        for vec in space.label_features:
            assert np.linalg.norm(vec.values) == pytest.approx(1.0)

    def test_label_without_data_gets_zero_vector(self):
        labels = [BrandEntityId("E0"), BrandEntityId("E1")]
        space = aggregate_label_features(labels, {labels[0]: ["nike"]}, {}, CFG)
        assert space.label_features[1].nnz == 0

    def test_surfaces_and_inputs_both_contribute(self):
        labels = [BrandEntityId("E0"), BrandEntityId("E1")]
        query_vec = vectorize("nike running shoes", CFG)
        space = aggregate_label_features(
            labels,
            {labels[0]: ["nike"], labels[1]: ["nike"]},
            {labels[1]: [query_vec]},
            CFG,
        )
        surface_only, mixed = space.label_features
        assert mixed.nnz > surface_only.nnz

    def test_duplicate_labels_rejected(self):
        labels = [BrandEntityId("E0"), BrandEntityId("E0")]
        with pytest.raises(ValueError):
            aggregate_label_features(labels, {labels[0]: ["a"]}, {}, CFG)

    def test_at_least_two_labels(self):
        with pytest.raises(ValueError):
            aggregate_label_features([BrandEntityId("E0")], {}, {}, CFG)


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
        assert np.array_equal(
            space.label_features[0].indices, space.label_features[1].indices
        )
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
