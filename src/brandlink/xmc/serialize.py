"""Binary save/load for trained ranker models.

One artifact file holds the featurizer configuration (idf table included),
the tree topology, and every layer's weights in compressed-sparse-column
layout.  Loading verifies container magic, version, payload checksum and
the structure of every array before reconstructing the model, which holds
its weights row-major; identical models serialize to identical bytes.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from ..binio import ArtifactFormatError, csc_blobs, csr_from_csc_blobs
from ..binio import read_artifact, write_artifact
from ..core import entity_from_id
from ..text import featurizer_from_meta, featurizer_to_meta
from .model import XmcModel
from .tree import LabelTree

MODEL_KIND = "xmc-model"
MODEL_VERSION = 1


def save_model(model: XmcModel, path: str | Path) -> None:
    """Serialize a model to one binary artifact file."""
    featurizer, blobs = featurizer_to_meta(model.featurizer)
    meta = {
        "labels": [label.id for label in model.labels],
        "featurizer": featurizer,
        "score_transform": model.score_transform,
        "layer_sizes": list(model.tree.layer_sizes),
    }
    blobs["tree/label_order"] = model.tree.label_order.astype(np.int64)
    for i, indptr in enumerate(model.tree.children_indptr):
        blobs[f"tree/indptr{i}"] = indptr.astype(np.int64)
    for i, weights in enumerate(model.layer_weights):
        blobs.update(csc_blobs(weights, f"layer{i}"))
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
        config = featurizer_from_meta(meta["featurizer"], blobs)
        layer_sizes = tuple(int(s) for s in meta["layer_sizes"])
        tree = LabelTree(
            n_labels=layer_sizes[-1],
            layer_sizes=layer_sizes,
            children_indptr=tuple(
                blobs[f"tree/indptr{i}"].astype(np.int64) for i in range(len(layer_sizes) - 1)
            ),
            label_order=blobs["tree/label_order"].astype(np.int64),
        )
        layer_weights = [
            csr_from_csc_blobs(path, blobs, f"layer{i}", (config.dim + 1, size))
            for i, size in enumerate(layer_sizes)
        ]
        return XmcModel(
            labels=tuple(entity_from_id(raw) for raw in meta["labels"]),
            tree=tree,
            layer_weights=layer_weights,
            featurizer=config,
            score_transform=meta["score_transform"],
        )
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise ArtifactFormatError(f"{path}: inconsistent model: {exc}") from exc
