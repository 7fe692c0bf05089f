"""Pinned bytes of every saved format: ranker and PT artifacts, result lines.

Each artifact is saved from fixed weights over a featurizer whose idf is
fitted on fixed texts, so nothing here trains.  A digest changes only when
what a format records changes; such a change must be explained and the
digest re-pinned.  Both model formats are at version 3, which stores the
weight rows bottom-up (the bias row first); apart from that version number
and the row order, they record what format 2 did.
"""
import hashlib

import numpy as np
import pytest
import scipy.sparse as sp

from brandlink.core import (
    NIL,
    BrandEntityId,
    LinkResult,
    TraceRecord,
    link_result_to_record,
    write_jsonl,
)
from brandlink.linear import stack_layers
from brandlink.ptfilter import LinearPtPredictor, ProductType, save_pt_predictor
from brandlink.text import FeaturizerConfig, featurize_corpus, normalize
from brandlink.xmc import XmcModel, save_model
from brandlink.xmc.tree import LabelTree

TEXTS = ("nike running shoes", "sony tv 55 inch", "耐克 鞋子", "red socks", "nike")
FEATURIZER, _ = featurize_corpus((normalize(t) for t in TEXTS), FeaturizerConfig(dim=2**16))


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def fixed_weights(n_cols: int) -> sp.csr_matrix:
    """A few exact binary fractions, bias row included, in every column,
    as the stored stack both models hold."""
    rows = np.array([0, 17, 4099, 65535, FEATURIZER.dim] * n_cols, dtype=np.int64)
    cols = np.repeat(np.arange(n_cols, dtype=np.int64), 5)
    vals = (np.arange(len(rows), dtype=np.float64) - 7.0) / 8.0
    vals[vals == 0.0] = 0.125
    feature_order = sp.csr_matrix((vals, (rows, cols)), shape=(FEATURIZER.dim + 1, n_cols))
    return stack_layers([feature_order], FEATURIZER.dim + 1)


def test_xmc_model_bytes(tmp_path):
    labels = (NIL, BrandEntityId("E1"), BrandEntityId("E2"), BrandEntityId("E3"))
    tree = LabelTree(
        children_indptr=(np.array([0, 2, 4], dtype=np.int64),),
        label_order=np.array([2, 0, 3, 1], dtype=np.int64),
    )
    model = XmcModel(
        labels=labels, tree=tree, layer_weights=fixed_weights(6), featurizer=FEATURIZER
    )
    path = tmp_path / "m.blaf"
    save_model(model, path)
    assert sha256(path) == "e2ea7b7c103fb001bac9314e037f5618d179d526fa1b2cbaf6f07c5d38310df6"


def test_pt_model_bytes(tmp_path):
    predictor = LinearPtPredictor(
        product_types=(ProductType("shoe"), ProductType("sock"), ProductType("tv")),
        weights=fixed_weights(3),
        featurizer=FEATURIZER,
    )
    path = tmp_path / "pt.blaf"
    save_pt_predictor(predictor, path)
    assert sha256(path) == "e461741ab95e57b98680e1bdf6d985dcab16f861bbfd2452b7ab5d334273c51b"


TRACE = (TraceRecord("detect", "mention 'nike' at (0, 4)"), TraceRecord("filter", "pt=shoe"))


@pytest.mark.parametrize(
    "result, digest",
    [
        (
            LinkResult.single(BrandEntityId("E1"), 0.875, TRACE),
            "caa9f3ffebee2874e58ea807d276723881d042411773a923d549ad82b5d7f769",
        ),
        (
            LinkResult.nil(TRACE),
            "e058eb4e04c1256238d5de26dd12acc0e1445369c5de1d352f95cf6a5f855ad3",
        ),
        (
            LinkResult.no_prediction(TRACE),
            "4e3f62331fc3d636f1c40b8d8a21cca8acd023017ec988cbf3b592b746037046",
        ),
    ],
    ids=["single", "nil", "no_prediction"],
)
def test_result_record_bytes(tmp_path, result, digest):
    path = tmp_path / "results.jsonl"
    write_jsonl(path, [link_result_to_record(result)])
    assert sha256(path) == digest
