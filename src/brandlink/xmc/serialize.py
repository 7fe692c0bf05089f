"""Binary save/load for trained ranker models.

One artifact file holds the featurizer configuration (idf table included),
the tree topology (its indptr and label order arrays, and in the metadata
the layer sizes they imply, which the loader checks against them), and
the model's stacked node weights as the CSR matrix the model holds, in
the row order :mod:`brandlink.linear` writes and in the dtypes the scorer
reads, float32 values among them (``xmc-model`` format version 4).
Loading verifies container magic, version and payload checksum, then
hands the weights to the model as they are stored, and the model checks
their structure before any query reads them: they and the idf table are
read-only views over the artifact's aligned payload buffer, with no
conversion or copy.  Identical models serialize to identical bytes.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from ..binio import ArtifactFormatError, csr_blobs, csr_from_blobs
from ..binio import read_artifact, write_artifact
from ..core import BrandEntityId
from ..text import featurizer_from_meta, featurizer_to_meta
from .model import SCORE_TRANSFORM, XmcModel
from .tree import LabelTree

MODEL_KIND = "xmc-model"
MODEL_VERSION = 4


def save_model(model: XmcModel, path: str | Path) -> None:
    """Serialize a model to one binary artifact file."""
    featurizer, blobs = featurizer_to_meta(model.featurizer)
    meta = {
        "labels": [label.id for label in model.labels],
        "featurizer": featurizer,
        "score_transform": SCORE_TRANSFORM,
        "layer_sizes": list(model.tree.layer_sizes),
    }
    blobs["tree/label_order"] = model.tree.label_order.astype(np.int64)
    for i, indptr in enumerate(model.tree.children_indptr):
        blobs[f"tree/indptr{i}"] = indptr.astype(np.int64)
    blobs.update(csr_blobs(model.weights, "weights"))
    write_artifact(path, MODEL_KIND, MODEL_VERSION, meta, blobs)


def load_model(path: str | Path) -> XmcModel:
    """Load a model written by :func:`save_model`.

    Raises:
        ArtifactFormatError: Wrong file type or artifact kind, or arrays
            whose structure does not describe a model.
        ArtifactVersionError: Unsupported container or model version.
        ArtifactChecksumError: Corrupted payload.
        ArtifactTruncatedError: Incomplete file.
    """
    meta, blobs = read_artifact(path, kind=MODEL_KIND, kind_version=MODEL_VERSION)
    try:
        if meta["score_transform"] != SCORE_TRANSFORM:
            raise ValueError(f"unsupported score transform {meta['score_transform']!r}")
        config = featurizer_from_meta(meta["featurizer"], blobs)
        tree = LabelTree(
            children_indptr=tuple(
                blobs[f"tree/indptr{i}"].astype(np.int64, copy=False)
                for i in range(len(meta["layer_sizes"]) - 1)
            ),
            label_order=blobs["tree/label_order"].astype(np.int64, copy=False),
        )
        if list(tree.layer_sizes) != meta["layer_sizes"]:
            raise ValueError(f"layer sizes {meta['layer_sizes']} disagree with the tree")
        weights = csr_from_blobs(path, blobs, "weights", (config.dim + 1, tree.offsets[-1]))
        return XmcModel(
            labels=tuple(BrandEntityId(raw) for raw in meta["labels"]),
            tree=tree,
            layer_weights=weights,
            featurizer=config,
        )
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise ArtifactFormatError(f"{path}: inconsistent model: {exc}") from exc
