"""Shared domain types for brand entity linking.

Every stage of the engine speaks in terms of the types defined here:
queries, brand entities, detected mentions, scored candidates, and link
results.  The module also owns the canonical JSON-lines record shapes so
that files written by one tool are readable by every other.  An entity is
its id alone, and the NIL sentinel is the entity whose id is ``NIL_ID``,
so every reader builds entities from stored ids with ``BrandEntityId``.
"""
from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

# Reserved separator between a store code and a surface form in dictionary
# keys.  Store codes and surfaces must never contain it.
KEY_SEPARATOR = "\x1f"

# Reserved identifier of the NIL (non-branded) sentinel entity.
NIL_ID = "<NIL>"


@dataclass(frozen=True, slots=True)
class StoreTag:
    """Marketplace/store identifier, e.g. a country storefront code."""

    code: str

    def __post_init__(self) -> None:
        if not isinstance(self.code, str) or not self.code:
            raise ValueError("store code must be a non-empty string")
        if KEY_SEPARATOR in self.code:
            raise ValueError("store code must not contain the key separator")


@dataclass(frozen=True, slots=True)
class Query:
    """A raw search query as issued against one store.

    Text is kept verbatim, and must be a string, and the store a
    ``StoreTag``; normalization happens downstream.  Text that normalizes
    to nothing flows through the linkers and comes out as NoPrediction,
    so emptiness is not rejected here.
    """

    text: str
    store: StoreTag
    language: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.text, str):
            raise ValueError("query text must be a string")
        if not isinstance(self.store, StoreTag):
            raise ValueError("query store must be a StoreTag")
        if self.language is not None and not isinstance(self.language, str):
            raise ValueError("query language must be a string or None")


@dataclass(frozen=True, slots=True)
class BrandEntityId:
    """Catalog identifier of a brand entity; the id ``NIL_ID`` is NIL's."""

    id: str

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise ValueError("entity id must be a non-empty string")

    @property
    def is_nil(self) -> bool:
        return self.id == NIL_ID


# The NIL value; label spaces hold it at most once, as they hold every id.
NIL = BrandEntityId(NIL_ID)


@dataclass(frozen=True, slots=True)
class BrandMention:
    """A detected brand span inside a normalized query text."""

    surface: str
    span: tuple[int, int]

    def __post_init__(self) -> None:
        # ``type() is`` checks: a mention is built for every detected query.
        if type(self.surface) is not str:
            raise ValueError(f"mention surface must be a string, not {self.surface!r}")
        span = self.span
        if (
            type(span) is not tuple or len(span) != 2
            or type(span[0]) is not int or type(span[1]) is not int
        ):
            raise ValueError(f"mention span must be a pair of ints, not {span!r}")
        start, end = span
        if not (0 <= start < end):
            raise ValueError(f"invalid mention span {self.span}")
        if end - start != len(self.surface):
            raise ValueError("mention span length must match its surface")

    @classmethod
    def from_text(cls, text: str, start: int, end: int) -> BrandMention:
        if not (0 <= start < end <= len(text)):
            raise ValueError(f"span ({start}, {end}) out of range for text")
        return cls(surface=text[start:end], span=(start, end))


@dataclass(frozen=True, slots=True)
class ScoredEntity:
    """A candidate entity with a relevance score in (0, 1]."""

    entity: BrandEntityId
    score: float

    def __post_init__(self) -> None:
        # A bool is not a score, and NaN fails the range check.
        if type(self.score) not in (int, float) or not 0.0 < self.score <= 1.0:
            raise ValueError(f"score must be a number in (0, 1], not {self.score!r}")


class Outcome(str, enum.Enum):
    """What a linker asserted about one query."""

    SINGLE = "single"
    NIL = "nil"
    NO_PREDICTION = "no_prediction"


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One stage record in a link result trace."""

    stage: str
    detail: str


@dataclass(frozen=True, slots=True)
class LinkResult:
    """Terminal decision for one query.

    Single names one brand in ``best``, which is set exactly for it.  Nil
    asserts the query is non-branded, NoPrediction abstains without
    asserting anything; a linker left with several candidates abstains.
    """

    outcome: Outcome
    best: ScoredEntity | None = None
    trace: tuple[TraceRecord, ...] = ()

    def __post_init__(self) -> None:
        # ``type() is`` checks: several results are built for every query.
        if type(self.outcome) is not Outcome:
            raise ValueError(f"result outcome must be an Outcome, not {self.outcome!r}")
        if self.best is not None and type(self.best) is not ScoredEntity:
            raise ValueError(f"result best must be a ScoredEntity or None, not {self.best!r}")
        if type(self.trace) is not tuple:
            raise ValueError(f"result trace must be a tuple, not {type(self.trace).__name__}")
        if (self.best is not None) != (self.outcome is Outcome.SINGLE):
            raise ValueError("best is set exactly for Single outcomes")

    @classmethod
    def single(
        cls,
        entity: BrandEntityId,
        score: float,
        trace: Iterable[TraceRecord] = (),
    ) -> LinkResult:
        """Build a Single result; rejects NIL and out-of-range scores."""
        if entity.is_nil:
            raise ValueError("a Single result cannot carry the NIL entity")
        return cls(
            outcome=Outcome.SINGLE,
            best=ScoredEntity(entity, score),
            trace=tuple(trace),
        )

    @classmethod
    def nil(cls, trace: Iterable[TraceRecord] = ()) -> LinkResult:
        return cls(outcome=Outcome.NIL, trace=tuple(trace))

    @classmethod
    def no_prediction(cls, trace: Iterable[TraceRecord] = ()) -> LinkResult:
        return cls(outcome=Outcome.NO_PREDICTION, trace=tuple(trace))


class Source(str, enum.Enum):
    """Provenance of a labeled query."""

    B2E = "b2e"
    SL = "sl"
    WL = "wl"


@dataclass(frozen=True, slots=True)
class LabeledQuery:
    """A query with gold brand annotations.

    Non-branded examples carry no brand names and the single NIL label.
    Branded examples may carry several entities when the annotation is
    genuinely ambiguous.
    """

    query: Query
    brand_names: tuple[str, ...]
    entities: tuple[BrandEntityId, ...]
    source: Source

    def __post_init__(self) -> None:
        if not isinstance(self.query, Query):
            raise ValueError(f"labeled query's query must be a Query, not {self.query!r}")
        if not isinstance(self.source, Source):
            raise ValueError(f"labeled query's source must be a Source, not {self.source!r}")
        if not isinstance(self.brand_names, tuple) or not all(
            isinstance(name, str) for name in self.brand_names
        ):
            raise ValueError("brand_names must be a tuple of strings")
        if not isinstance(self.entities, tuple) or not all(
            isinstance(entity, BrandEntityId) for entity in self.entities
        ):
            raise ValueError("entities must be a tuple of BrandEntityIds")
        if not self.entities:
            raise ValueError("a labeled query needs at least one entity label")
        has_nil = any(e.is_nil for e in self.entities)
        if self.brand_names:
            if has_nil:
                raise ValueError("branded examples cannot carry the NIL label")
        else:
            if self.entities != (NIL,):
                raise ValueError("non-branded examples must carry exactly [NIL]")

    @property
    def is_branded(self) -> bool:
        return bool(self.brand_names)


# ---------------------------------------------------------------------------
# JSON-lines record shapes.  A reader raises ValueError, naming the field,
# on a record of the wrong shape.
# ---------------------------------------------------------------------------


def _record(value: object, *fields: str) -> dict:
    """``value``, checked to be a JSON object that holds ``fields``."""
    if not isinstance(value, dict):
        raise ValueError(f"expected a JSON object, not {type(value).__name__}")
    missing = [field for field in fields if field not in value]
    if missing:
        raise ValueError(f"record lacks the fields {', '.join(missing)}")
    return value


def _list(record: dict, field: str) -> list:
    if type(record[field]) is not list:
        raise ValueError(f"{field} must be a JSON list, not {type(record[field]).__name__}")
    return record[field]


def query_to_record(query: Query) -> dict:
    record: dict = {"text": query.text, "store": query.store.code}
    if query.language is not None:
        record["language"] = query.language
    return record


def query_from_record(record: dict) -> Query:
    record = _record(record, "text", "store")
    return Query(
        text=record["text"],
        store=StoreTag(record["store"]),
        language=record.get("language"),
    )


def labeled_query_to_record(example: LabeledQuery) -> dict:
    return {
        "query": query_to_record(example.query),
        "brand_names": list(example.brand_names),
        "entities": [e.id for e in example.entities],
        "source": example.source.value,
    }


def labeled_query_from_record(record: dict) -> LabeledQuery:
    record = _record(record, "query", "brand_names", "entities", "source")
    return LabeledQuery(
        query=query_from_record(record["query"]),
        brand_names=tuple(_list(record, "brand_names")),
        entities=tuple(BrandEntityId(e) for e in _list(record, "entities")),
        source=Source(record["source"]),
    )


def _scored_to_record(scored: ScoredEntity) -> dict:
    return {"entity": scored.entity.id, "score": scored.score}


def _scored_from_record(record: dict) -> ScoredEntity:
    record = _record(record, "entity", "score")
    return ScoredEntity(BrandEntityId(record["entity"]), record["score"])


def link_result_to_record(result: LinkResult) -> dict:
    # "candidates" is always empty; the results schema keeps the key.
    return {
        "outcome": result.outcome.value,
        "best": None if result.best is None else _scored_to_record(result.best),
        "candidates": [],
        "trace": [{"stage": t.stage, "detail": t.detail} for t in result.trace],
    }


def link_result_from_record(record: dict) -> LinkResult:
    record = _record(record, "outcome", "candidates", "trace")
    if record["candidates"] != []:
        raise ValueError("a result record's candidates must be empty")
    best = record.get("best")
    trace = [_record(t, "stage", "detail") for t in _list(record, "trace")]
    return LinkResult(
        outcome=Outcome(record["outcome"]),
        best=None if best is None else _scored_from_record(best),
        trace=tuple(TraceRecord(t["stage"], t["detail"]) for t in trace),
    )


def read_jsonl(path: str | Path) -> Iterator[dict]:
    """Yield one parsed record per non-empty line."""
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)


def read_tsv(path: str | Path, header: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, fields) per non-empty line after the header.

    Raises:
        ValueError: On a header other than ``header``, or a row with a
            different field count.
    """
    with open(path, encoding="utf-8") as handle:
        found = handle.readline().rstrip("\n").split("\t")
        if tuple(found) != header:
            raise ValueError(f"{path}: expected header {header}, found {found}")
        for line_no, line in enumerate(handle, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != len(header):
                raise ValueError(f"{path}:{line_no}: expected {len(header)} fields")
            yield line_no, fields


def write_jsonl(path: str | Path, records: Iterable[dict]) -> int:
    """Write records one per line; returns the number written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
            count += 1
    return count
