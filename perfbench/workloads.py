"""Workload inputs: the cached corpora and artifacts, and each workload's set-up.

Corpora come from ``gen-corpus`` with the README's fixed corpus seed, so
their models are trained once per checkout and per source tree, through
``brandlink.cli.run``, in a child process (``run.py --prepare``).  The
benchmark's own ``--seed`` draws the query order, the mode rotation and
the warm-up sample from these fixed slices.

Set-up resolves every library entry point through its module at call
time, so the wrappers that ``tracing`` installs see the calls.
"""
from __future__ import annotations

import hashlib
import os
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import brandlink.gazetteer as gazetteer
import brandlink.ptfilter as ptfilter
import brandlink.xmc as xmc
from brandlink.cli import run as cli_run
from brandlink.core import (
    BrandEntityId,
    LabeledQuery,
    labeled_query_from_record,
    labeled_query_to_record,
    read_jsonl,
    write_jsonl,
)
from brandlink.data import augment_b2e
from brandlink.pipeline import LexicalMatcher, LinkerConfig, M2eMatcher
from brandlink.text import FeaturizerConfig

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / ".perfbench"
MODES = ("lexical", "m2e", "q2e", "fused")
# Featurizer width of the README's train-xmc example, used for every ranker.
DIM = 262144
PARAMS = xmc.BeamParams(beam_size=10, top_k=5)


@dataclass(frozen=True)
class CorpusSize:
    entities: int
    branded: int
    nonbranded: int
    pt_types: int

    def gen_args(self, out: Path) -> list[str]:
        return [
            "gen-corpus", "--out", str(out), "--entities", str(self.entities),
            "--variants", "3", "--branded", str(self.branded),
            "--nonbranded", str(self.nonbranded), "--pt-types", str(self.pt_types),
            "--seed", "7",
        ]


# "full" is the README corpus plus a 50,000-entity registry (150k
# surfaces); "smoke" is a tiny stand-in for testing the benchmark itself.
SIZES = {
    "full": {
        "readme": CorpusSize(2000, 8000, 2000, 15),
        "wide": CorpusSize(50000, 3000, 1000, 15),
    },
    "smoke": {
        "readme": CorpusSize(150, 400, 100, 5),
        "wide": CorpusSize(1500, 200, 100, 5),
    },
}

# Queries each run links: a fixed sample of the workload's slices, the same
# for every --seed, so that MIN_PASSES passes fit a run's time budget and
# F1 is comparable across seeds.
QUERIES_PER_RUN = 1100

# Which gold slices each workload links.
SLICES = {
    "head": ("readme", ("test.jsonl", "test_shared.jsonl")),
    "tail": ("readme", ("test_variants.jsonl", "nonbranded.jsonl")),
    "wide": ("wide", ("test.jsonl", "test_variants.jsonl", "nonbranded.jsonl")),
}


def _source_digest(size: str) -> str:
    """Key of the artifact cache: the program source and the corpus sizes."""
    digest = hashlib.sha256(Path(__file__).read_bytes() + size.encode())
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def artifact_dir(size: str) -> Path:
    return CACHE / "artifacts" / f"{size}-{_source_digest(size)}"


def _cli(*argv: str) -> None:
    code = cli_run(list(argv))
    if code != 0:
        raise RuntimeError(f"brandlink {argv[0]} exited with {code}")


def prepare(size: str) -> Path:
    """Generate both corpora and train the README-corpus artifacts.

    Builds into a temporary directory and renames it into place, so an
    interrupted build leaves no half-filled cache behind.
    """
    final = artifact_dir(size)
    if final.is_dir():
        return final
    tmp = final.with_name(f"{final.name}.tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    spec = SIZES[size]
    readme, wide = tmp / "readme", tmp / "wide"
    _cli(*spec["readme"].gen_args(readme))
    _cli(*spec["wide"].gen_args(wide))
    _cli("build-dict", "--b2e", str(readme / "b2e.tsv"), "--out", str(tmp / "dict.blaf"))
    _cli("train-pt", "--train", str(readme / "pt_train.jsonl"), "--out", str(tmp / "pt.blaf"))
    pseudo = tmp / "pseudo_m2e.jsonl"
    write_jsonl(
        pseudo,
        (
            labeled_query_to_record(x)
            for x in augment_b2e(gazetteer.read_b2e_tsv(readme / "b2e.tsv"))
        ),
    )
    _cli(
        "train-xmc", "--train", str(pseudo), "--dict", str(tmp / "dict.blaf"),
        "--target", "m2e", "--dim", str(DIM), "--out", str(tmp / "m2e.blaf"),
    )
    _cli(
        "train-xmc",
        "--train", f"{readme / 'strong_labels.jsonl'},{readme / 'weak_labels.jsonl'}",
        "--dict", str(tmp / "dict.blaf"),
        "--target", "q2e", "--dim", str(DIM), "--out", str(tmp / "q2e.blaf"),
    )
    for stale in final.parent.glob(f"{size}-*"):
        if stale != tmp:
            shutil.rmtree(stale, ignore_errors=True)
    tmp.rename(final)
    return final


def load_slice(artifacts: Path, workload: str) -> list[LabeledQuery]:
    """The workload's fixed query sample, in slice order."""
    corpus, files = SLICES[workload]
    examples = [
        labeled_query_from_record(record)
        for name in files
        for record in read_jsonl(artifacts / corpus / name)
    ]
    keep = random.Random(0).sample(range(len(examples)), min(QUERIES_PER_RUN, len(examples)))
    return [examples[i] for i in sorted(keep)]


def _linkers(dictionary, m2e, q2e, pt_predictor, associations) -> dict[str, LinkerConfig]:
    detector = gazetteer.TrieDetector(dictionary)
    lexical = LexicalMatcher(dictionary)
    shared = {"pt_predictor": pt_predictor, "associations": associations}
    return {
        "lexical": LinkerConfig(detector=detector, matcher=lexical, **shared),
        "m2e": LinkerConfig(
            detector=detector, matcher=M2eMatcher(m2e, PARAMS), **shared
        ),
        "q2e": LinkerConfig(q2e=q2e, q2e_params=PARAMS, **shared),
        "fused": LinkerConfig(
            detector=detector, matcher=lexical, q2e=q2e, q2e_params=PARAMS,
            fusion=True, **shared,
        ),
    }


def setup_readme(artifacts: Path, scratch: Path) -> dict[str, LinkerConfig]:
    """head/tail: load the dictionary, both rankers, the PT model and associations."""
    del scratch
    dictionary = gazetteer.load_dictionary(artifacts / "dict.blaf")
    m2e = xmc.load_model(artifacts / "m2e.blaf")
    q2e = xmc.load_model(artifacts / "q2e.blaf")
    pt_predictor = ptfilter.load_pt_predictor(artifacts / "pt.blaf")
    associations = ptfilter.mine_associations(
        ptfilter.read_associations_tsv(artifacts / "readme" / "pt_associations.tsv")
    )
    return _linkers(dictionary, m2e, q2e, pt_predictor, associations)


def _unit_rows(matrix: sp.csr_matrix) -> sp.csr_matrix:
    norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1)).ravel())
    norms[norms == 0.0] = 1.0
    return (sp.diags(1.0 / norms) @ matrix).tocsr()


def centroid_ranker(space, tree, featurizer: FeaturizerConfig) -> xmc.XmcModel:
    """Untrained ranker whose node weights are unit sums of their labels' features.

    The same stand-in as ``brandlink bench``: inference cost matches a
    trained model of the same tree shape without the training time.
    """
    layers = [space.feature_matrix()[tree.label_order]]
    for indptr in reversed(tree.children_indptr):
        child = layers[0]
        sizes = np.diff(indptr)
        members = sp.csr_matrix(
            (
                np.ones(child.shape[0]),
                (np.repeat(np.arange(len(sizes)), sizes), np.arange(child.shape[0])),
            ),
            shape=(len(sizes), child.shape[0]),
        )
        layers.insert(0, _unit_rows(members @ child))
    weights = []
    for features in layers:
        matrix = sp.vstack(
            [features.T.tocsc(), sp.csc_matrix((1, features.shape[0]))]
        ).tocsc()
        matrix.sort_indices()
        weights.append(matrix)
    return xmc.XmcModel(
        labels=space.labels, tree=tree, layer_weights=weights, featurizer=featurizer
    )


def setup_wide(artifacts: Path, scratch: Path) -> dict[str, LinkerConfig]:
    """wide: build the 50k dictionary and stand-in ranker, save them, serve the loaded copies."""
    built = gazetteer.build_dictionary(
        gazetteer.read_b2e_tsv(artifacts / "wide" / "b2e.tsv")
    )
    surfaces: dict[BrandEntityId, set[str]] = {}
    for key, entities in built.entries.items():
        for entity in entities:
            surfaces.setdefault(entity, set()).add(key.surface)
    labels = sorted(surfaces, key=lambda e: e.id)
    featurizer = FeaturizerConfig(dim=DIM)
    space = xmc.aggregate_label_features(
        labels, {e: sorted(s) for e, s in surfaces.items()}, {}, featurizer
    )
    tree = xmc.build_tree(space, seed=0)
    model = centroid_ranker(space, tree, featurizer)
    gazetteer.save_dictionary(built, scratch / "wide_dict.blaf")
    xmc.save_model(model, scratch / "wide_ranker.blaf")
    del built, space, model
    dictionary = gazetteer.load_dictionary(scratch / "wide_dict.blaf")
    ranker = xmc.load_model(scratch / "wide_ranker.blaf")
    return _linkers(dictionary, ranker, ranker, None, ptfilter.PtAssociations.empty())


SETUPS = {"head": setup_readme, "tail": setup_readme, "wide": setup_wide}
