"""Extreme multi-class ranking over the brand label space."""
from .model import SCORE_TRANSFORM, BeamParams, XmcModel, beam_predict, m2e_match, q2e_predict
from .serialize import MODEL_KIND, MODEL_VERSION, load_model, save_model
from .train import DEFAULT_PRUNE, train
from .tree import LabelSpace, LabelTree, aggregate_label_features, build_tree

__all__ = [
    "BeamParams",
    "LabelSpace",
    "LabelTree",
    "MODEL_KIND",
    "MODEL_VERSION",
    "SCORE_TRANSFORM",
    "XmcModel",
    "aggregate_label_features",
    "beam_predict",
    "build_tree",
    "load_model",
    "m2e_match",
    "q2e_predict",
    "save_model",
    "train",
    "DEFAULT_PRUNE",
]
