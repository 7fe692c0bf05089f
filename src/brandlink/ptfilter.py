"""Product-type aware candidate filtering and the PT predictor baseline.

A candidate is dropped when its mined product-type set is known and does
not contain the query's predicted product type; candidates without mined
associations always survive.  Filtering never invents or reorders
candidates, it only narrows the given list and traces what it dropped;
deciding an outcome from the survivors is left to each linker in
:mod:`brandlink.pipeline`.

The PT predictor answers only when its best sigmoid score reaches the
fixed ``PT_CONFIDENCE_THRESHOLD``.  Its weights are one CSR matrix in
the row order and the float32 value dtype :mod:`brandlink.linear`
writes and reads: training stacks ``fit_sparse_ova``'s block through
``stack_layers``, and the predictor checks it with ``check_stack`` and
holds it as it is.  Its artifact (``pt-model`` format version 4)
records the threshold, and a loader refuses any other; it stores the
matrix as held, and a loaded predictor serves it, and its idf table, as
read-only views over the artifact's aligned payload buffer.  Product
type codes are strings, in the artifact as in the association table
the filter compares them with.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Protocol

import numpy as np
import scipy.sparse as sp

from .binio import ArtifactFormatError, csr_blobs, csr_from_blobs
from .binio import read_artifact, write_artifact
from .core import (
    BrandEntityId,
    Query,
    ScoredEntity,
    TraceRecord,
    _record,
    query_from_record,
    read_jsonl,
    read_tsv,
)
from .linear import DEFAULT_REG, check_reg, check_stack, fit_sparse_ova, score_vector
from .linear import stack_layers, stack_rows
from .text import FeaturizerConfig, SparseVector, featurize
from .text import featurizer_from_meta, featurizer_to_meta, normalize

LOGGER = logging.getLogger(__name__)

# A PT prediction below this confidence is treated as no prediction at all.
PT_CONFIDENCE_THRESHOLD = 0.5

_PT_MODEL_KIND = "pt-model"
_PT_MODEL_VERSION = 4

_ASSOC_HEADER = ("entity_id", "pt_code")


@dataclass(frozen=True, slots=True)
class ProductType:
    """Category code of a retail product type."""

    code: str

    def __post_init__(self) -> None:
        if not isinstance(self.code, str):
            raise ValueError(f"product type code must be a string, not {self.code!r}")
        if not self.code:
            raise ValueError("product type code must be non-empty")


@dataclass(frozen=True)
class PtAssociations:
    """Mined entity-to-product-type associations."""

    table: dict[BrandEntityId, frozenset[ProductType]]

    def __post_init__(self) -> None:
        for entity, pts in self.table.items():
            if not pts:
                raise ValueError(f"empty product type set for {entity.id}")

    @classmethod
    def empty(cls) -> PtAssociations:
        return cls(table={})

    def get(self, entity: BrandEntityId) -> frozenset[ProductType] | None:
        """The mined PT set, or nothing for entities never impressed."""
        return self.table.get(entity)

    def __len__(self) -> int:
        return len(self.table)


def mine_associations(
    pairs: Iterable[tuple[BrandEntityId, ProductType]],
) -> PtAssociations:
    """Aggregate (entity, product type) co-impression pairs."""
    table: dict[BrandEntityId, set[ProductType]] = {}
    for entity, pt in pairs:
        if entity.is_nil:
            continue
        table.setdefault(entity, set()).add(pt)
    return PtAssociations({e: frozenset(s) for e, s in table.items()})


def filter_candidates(
    candidates: list[ScoredEntity],
    pt_q: ProductType | None,
    associations: PtAssociations,
) -> tuple[list[ScoredEntity], list[TraceRecord]]:
    """Narrow candidates by product type.

    With a query product type, candidates whose mined PT set is known and
    lacks it are dropped; candidates with no mined set (NIL included) are
    kept.  Without one, the candidate list passes through unfiltered.

    Args:
        candidates: Scored candidates.
        pt_q: Predicted product type of the query, if any.
        associations: Mined PT sets per entity.

    Returns:
        The survivors in input order, and the filter's trace: one record
        per dropped candidate, then one summary record.
    """
    if pt_q is None:
        return list(candidates), [TraceRecord("filter", "no query product type; kept all")]
    survivors: list[ScoredEntity] = []
    trace: list[TraceRecord] = []
    for candidate in candidates:
        known = associations.get(candidate.entity)
        if known is not None and pt_q not in known:
            detail = f"dropped {candidate.entity.id}: {pt_q.code} not in its pt set"
            trace.append(TraceRecord("filter", detail))
        else:
            survivors.append(candidate)
    trace.append(
        TraceRecord("filter", f"pt={pt_q.code}: kept {len(survivors)} of {len(candidates)}")
    )
    return survivors, trace


class PtPredictor(Protocol):
    """Predicts the product type a query shops for, or abstains."""

    def predict(self, query: Query) -> ProductType | None: ...


@dataclass(eq=False)
class LinearPtPredictor:
    """Flat one-vs-all linear classifier over the featurizer space.

    Abstains when its best score is below ``PT_CONFIDENCE_THRESHOLD``.
    ``weights`` is the stored CSR matrix that
    :func:`brandlink.linear.score_vector` reads, one column per product
    type; :func:`brandlink.linear.check_stack` refuses anything else here
    rather than at the first query.
    """

    product_types: tuple[ProductType, ...]
    weights: sp.csr_matrix  # (dim + 1, n_types)
    featurizer: FeaturizerConfig

    def __post_init__(self) -> None:
        try:
            check_stack(self.weights, self.featurizer.dim, len(self.product_types))
        except ValueError as exc:
            raise ValueError(f"pt {exc}") from None

    def predict(self, query: Query) -> ProductType | None:
        x = featurize(normalize(query.text), self.featurizer)
        if x.nnz == 0:
            return None
        margins = score_vector(self.weights, x)
        scores = 1.0 / (1.0 + np.exp(-margins))
        best = int(scores.argmax())  # the lowest index among ties
        if scores[best] < PT_CONFIDENCE_THRESHOLD:
            return None
        return self.product_types[best]


def train_pt_baseline(
    data: Iterable[tuple[SparseVector, ProductType]],
    featurizer: FeaturizerConfig,
    reg: float = DEFAULT_REG,
) -> LinearPtPredictor:
    """Train the flat OVA product-type baseline.

    Args:
        data: (featurized query, gold product type) pairs; must be
            non-empty.  Zero vectors are skipped.
        featurizer: The configuration the queries were featurized with,
            shared with prediction.
        reg: L2 penalty; must be positive and finite.

    Raises:
        ValueError: If ``reg`` is not usable, or no training pair is.
    """
    check_reg(reg)
    vectors: list[SparseVector] = []
    codes: list[str] = []
    for vec, pt in data:
        if vec.nnz == 0:
            continue
        vectors.append(vec)
        codes.append(pt.code)
    if not vectors:
        raise ValueError("no usable product type training pairs")
    types = tuple(ProductType(code) for code in sorted(set(codes)))
    col_of = {pt.code: j for j, pt in enumerate(types)}
    x = stack_rows(vectors, featurizer.dim)
    positive = np.array([col_of[code] for code in codes], dtype=np.int64)
    # Unbalanced on purpose: the confidence threshold compares an absolute
    # sigmoid score, so the bias must keep carrying the class prior.
    block = fit_sparse_ova(x, positive, len(types), featurizer.dim, reg, balanced=False)
    weights = stack_layers([block], featurizer.dim + 1)
    LOGGER.info(
        "trained pt baseline: %d types over %d queries", len(types), len(vectors)
    )
    return LinearPtPredictor(
        product_types=types, weights=weights, featurizer=featurizer
    )


def save_pt_predictor(predictor: LinearPtPredictor, path: str | Path) -> None:
    featurizer, blobs = featurizer_to_meta(predictor.featurizer)
    meta = {
        "product_types": [pt.code for pt in predictor.product_types],
        "threshold": PT_CONFIDENCE_THRESHOLD,
        "featurizer": featurizer,
    }
    blobs.update(csr_blobs(predictor.weights, "weights"))
    write_artifact(path, _PT_MODEL_KIND, _PT_MODEL_VERSION, meta, blobs)


def load_pt_predictor(path: str | Path) -> LinearPtPredictor:
    meta, blobs = read_artifact(path, _PT_MODEL_KIND, _PT_MODEL_VERSION)
    try:
        if meta["threshold"] != PT_CONFIDENCE_THRESHOLD:
            raise ValueError(f"unsupported threshold {meta['threshold']!r}")
        config = featurizer_from_meta(meta["featurizer"], blobs)
        types = tuple(ProductType(code) for code in meta["product_types"])
        return LinearPtPredictor(
            product_types=types,
            weights=csr_from_blobs(path, blobs, "weights", (config.dim + 1, len(types))),
            featurizer=config,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactFormatError(f"{path}: inconsistent pt model: {exc}") from exc


def read_associations_tsv(path: str | Path) -> Iterator[tuple[BrandEntityId, ProductType]]:
    """Read (entity, product type) pairs from a headered TSV file."""
    for _, (entity_id, code) in read_tsv(path, _ASSOC_HEADER):
        yield BrandEntityId(entity_id), ProductType(code)


def write_associations_tsv(associations: PtAssociations, path: str | Path) -> None:
    rows = sorted(
        (entity.id, pt.code)
        for entity, pts in associations.table.items()
        for pt in pts
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\t".join(_ASSOC_HEADER) + "\n")
        for entity_id, code in rows:
            handle.write(f"{entity_id}\t{code}\n")


def read_pt_training_jsonl(
    path: str | Path,
) -> Iterator[tuple[Query, ProductType]]:
    """Read {text, store, pt} records into (query, product type) pairs."""
    for record in read_jsonl(path):
        record = _record(record, "pt")
        yield query_from_record(record), ProductType(record["pt"])
