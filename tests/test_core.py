"""Domain type invariants and JSON-lines round-trips."""
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from brandlink.core import (
    KEY_SEPARATOR,
    NIL,
    NIL_ID,
    BrandEntityId,
    BrandMention,
    LabeledQuery,
    LinkResult,
    Outcome,
    Query,
    ScoredEntity,
    Source,
    StoreTag,
    TraceRecord,
    labeled_query_from_record,
    labeled_query_to_record,
    link_result_from_record,
    link_result_to_record,
    query_from_record,
    query_to_record,
    read_jsonl,
    write_jsonl,
)
from brandlink.data import EngagementRecord, engagement_from_record
from brandlink.ptfilter import read_pt_training_jsonl


def test_store_tag_rejects_empty_and_separator():
    with pytest.raises(ValueError):
        StoreTag("")
    with pytest.raises(ValueError):
        StoreTag(f"us{KEY_SEPARATOR}uk")
    assert StoreTag("us").code == "us"


def test_query_permits_empty_text():
    query = Query(text="", store=StoreTag("us"))
    assert query.text == ""
    assert query.language is None


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: Query(text=b"nike shoes", store=StoreTag("us")), "text"),
        (lambda: Query(text=None, store=StoreTag("us")), "text"),
        (lambda: Query(text="nike", store=StoreTag("us"), language=5), "language"),
        (lambda: StoreTag(5), "store code"),
        (lambda: StoreTag(b"us"), "store code"),
        (lambda: Query(text="nike", store="us"), "store"),
        (
            lambda: LabeledQuery(Query("nike", StoreTag("us")), (5,), (NIL,), Source.SL),
            "brand_names",
        ),
        (lambda: EngagementRecord(Query("nike", StoreTag("us")), 5, 2.0), "product_brand_name"),
    ],
    ids=["bytes-text", "no-text", "int-language", "int-store", "bytes-store", "str-store",
         "int-brand-name", "int-engagement-brand"],
)
def test_non_string_fields_rejected(build, field):
    # A linker given such a query would raise deep inside normalization.
    with pytest.raises(ValueError, match=field):
        build()


E1 = BrandEntityId("E1")


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: BrandMention(5, (0, 1)), "surface"),
        (lambda: BrandMention("ab", [0, 2]), "span"),
        (lambda: BrandMention("ab", (0.0, 2.0)), "span"),
        (lambda: LabeledQuery("q", (), (NIL,), Source.SL), "query"),
        (lambda: LabeledQuery(Query("q", StoreTag("us")), (), (NIL,), "sl"), "source"),
        (lambda: LabeledQuery(Query("q", StoreTag("us")), ("x",), ("E1",), Source.SL), "entities"),
        (lambda: LabeledQuery(Query("q", StoreTag("us")), ("x",), [E1], Source.SL), "entities"),
        (lambda: LabeledQuery(Query("q", StoreTag("us")), ["x"], (E1,), Source.SL), "brand_names"),
        (lambda: LinkResult("nil"), "outcome"),
        (lambda: LinkResult(Outcome.NIL, trace=[TraceRecord("a", "b")]), "trace"),
        (lambda: LinkResult(Outcome.NIL, trace=[1]), "trace"),
        (lambda: LinkResult(Outcome.SINGLE, best=0.5), "best"),
    ],
    ids=["int-surface", "list-span", "float-span", "str-query", "str-source", "str-entity",
         "list-entities", "list-brand-names", "str-outcome", "list-trace", "int-trace",
         "float-best"],
)
def test_constructor_field_of_wrong_type_rejected(build, field):
    # Each value would fail later, far from its cause: when the result's
    # record is written (a string outcome, a float best, a non-record trace
    # entry) or when the frozen value is hashed (a list field).
    with pytest.raises(ValueError, match=field):
        build()


def test_nil_is_the_only_nil():
    assert NIL.is_nil
    assert NIL.id == NIL_ID
    assert BrandEntityId(NIL_ID) == NIL
    assert BrandEntityId(NIL_ID).is_nil
    assert not BrandEntityId("E1").is_nil
    assert len({NIL, BrandEntityId(NIL_ID)}) == 1
    with pytest.raises(ValueError):
        BrandEntityId("")
    with pytest.raises(ValueError):
        BrandEntityId(7)


def test_mention_span_must_match_surface():
    mention = BrandMention.from_text("nike shoes", 0, 4)
    assert mention.surface == "nike"
    assert mention.span == (0, 4)
    with pytest.raises(ValueError):
        BrandMention(surface="nike", span=(0, 5))
    with pytest.raises(ValueError):
        BrandMention.from_text("abc", 2, 2)
    with pytest.raises(ValueError):
        BrandMention.from_text("abc", 1, 9)


def test_scored_entity_range():
    entity = BrandEntityId("E1")
    assert ScoredEntity(entity, 1.0).score == 1.0
    # A bool or a string is not a score at all.
    for bad in (0.0, -0.1, 1.5, math.nan, True, "0.5"):
        with pytest.raises(ValueError):
            ScoredEntity(entity, bad)


class TestLinkResult:
    def test_single_requires_best_and_rejects_nil(self):
        result = LinkResult.single(BrandEntityId("E1"), 0.7)
        assert result.outcome is Outcome.SINGLE
        assert result.best is not None and result.best.entity.id == "E1"
        with pytest.raises(ValueError):
            LinkResult.single(NIL, 0.7)

    def test_three_outcomes(self):
        assert [o.value for o in Outcome] == ["single", "nil", "no_prediction"]

    def test_nil_and_no_prediction_carry_nothing(self):
        for result in (LinkResult.nil(), LinkResult.no_prediction()):
            assert result.best is None
        assert LinkResult.nil().outcome is not LinkResult.no_prediction().outcome

    def test_field_outcome_consistency_enforced(self):
        best = ScoredEntity(BrandEntityId("E1"), 0.5)
        with pytest.raises(ValueError):
            LinkResult(outcome=Outcome.NIL, best=best)
        with pytest.raises(ValueError):
            LinkResult(outcome=Outcome.SINGLE)


class TestLabeledQuery:
    def test_branded_forbids_nil_label(self):
        query = Query("nike shoes", StoreTag("us"))
        with pytest.raises(ValueError):
            LabeledQuery(query, ("nike",), (NIL,), Source.SL)

    def test_non_branded_must_be_exactly_nil(self):
        query = Query("red shoes", StoreTag("us"))
        example = LabeledQuery(query, (), (NIL,), Source.SL)
        assert not example.is_branded
        with pytest.raises(ValueError):
            LabeledQuery(query, (), (BrandEntityId("E1"),), Source.SL)
        with pytest.raises(ValueError):
            LabeledQuery(query, (), (), Source.SL)

    def test_multi_entity_branded_allowed(self):
        query = Query("ab charger", StoreTag("us"))
        example = LabeledQuery(
            query,
            ("ab",),
            (BrandEntityId("E1"), BrandEntityId("E2")),
            Source.WL,
        )
        assert example.is_branded


# Serde round-trips.

_stores = st.text(
    st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=4
)
_texts = st.text(max_size=30)


@st.composite
def queries(draw):
    return Query(
        text=draw(_texts),
        store=StoreTag(draw(_stores)),
        language=draw(st.none() | st.sampled_from(["en", "de", "ja"])),
    )


@st.composite
def labeled_queries(draw):
    query = draw(queries())
    if draw(st.booleans()):
        n = draw(st.integers(min_value=1, max_value=3))
        entities = tuple(BrandEntityId(f"E{i}") for i in range(n))
        return LabeledQuery(query, ("brand x",), entities, draw(st.sampled_from(Source)))
    return LabeledQuery(query, (), (NIL,), draw(st.sampled_from(Source)))


@st.composite
def link_results(draw):
    kind = draw(st.sampled_from(["single", "nil", "none"]))
    trace = [TraceRecord("stage", draw(_texts))]
    if kind == "single":
        return LinkResult.single(BrandEntityId("E1"), draw(st.floats(0.01, 1.0)), trace)
    if kind == "nil":
        return LinkResult.nil(trace)
    return LinkResult.no_prediction(trace)


@given(queries())
def test_query_record_round_trip(query):
    assert query_from_record(query_to_record(query)) == query


@given(labeled_queries())
def test_labeled_query_record_round_trip(example):
    record = labeled_query_to_record(example)
    json.dumps(record)
    assert labeled_query_from_record(record) == example


@given(link_results())
def test_link_result_record_round_trip(result):
    record = link_result_to_record(result)
    json.dumps(record)
    assert link_result_from_record(record) == result


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "rows.jsonl"
    records = [{"a": 1}, {"b": "x"}, {"c": [1, 2]}]
    assert write_jsonl(path, records) == 3
    assert list(read_jsonl(path)) == records


def test_jsonl_skips_blank_lines(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"a": 1}\n\n  \n{"b": 2}\n', encoding="utf-8")
    assert list(read_jsonl(path)) == [{"a": 1}, {"b": 2}]


# Record readers meet hostile JSON.

_QUERY_RECORD = {"text": "nike shoes", "store": "us", "language": "en"}

# One valid record per reader.
_READERS = {
    "query": (query_from_record, _QUERY_RECORD),
    "labeled-query": (
        labeled_query_from_record,
        {"query": _QUERY_RECORD, "brand_names": ["nike"], "entities": ["E1"], "source": "sl"},
    ),
    "link-result": (
        link_result_from_record,
        {
            "outcome": "single",
            "best": {"entity": "E1", "score": 0.5},
            "candidates": [],
            "trace": [{"stage": "detector", "detail": "mention"}],
        },
    ),
    "engagement": (
        engagement_from_record,
        _QUERY_RECORD | {"product_brand_name": "nike", "strength": 2.0},
    ),
}

_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**400, -(10**400), math.nan, math.inf, -math.inf, "\U0001f45f"])
    | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(
        st.sampled_from(["text", "store", "entity", "score", "stage", "detail"])
        | st.text(max_size=4),
        children,
        max_size=3,
    ),
    max_leaves=6,
)


def _paths(value, path=()):
    """The key path of every field and list item inside ``value``."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        items = ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _replaced(value, path, new):
    if not path:
        return new
    copy = list(value) if isinstance(value, list) else dict(value)
    copy[path[0]] = _replaced(value[path[0]], path[1:], new)
    return copy


@pytest.mark.parametrize("reader", sorted(_READERS))
@given(data=st.data())
def test_record_reader_returns_or_raises_value_error(reader, data):
    read, record = _READERS[reader]
    assert read(record) is not None
    path = data.draw(st.sampled_from(list(_paths(record))), label="path")
    value = data.draw(_json_values, label="value")
    try:
        read(_replaced(record, path, value))
    except ValueError:
        pass


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(value=_json_values)
def test_pt_training_reader_returns_or_raises_value_error(tmp_path, value):
    path = tmp_path / "pt.jsonl"
    path.write_text(json.dumps(_QUERY_RECORD | {"pt": value}) + "\n", encoding="utf-8")
    try:
        list(read_pt_training_jsonl(path))
    except ValueError:
        pass


def test_engagement_record_lacking_strength_names_it():
    record = _READERS["engagement"][1]
    with pytest.raises(ValueError, match="strength"):
        engagement_from_record({k: v for k, v in record.items() if k != "strength"})


def test_pt_training_row_lacking_pt_names_it(tmp_path):
    path = tmp_path / "pt.jsonl"
    path.write_text(json.dumps(_QUERY_RECORD) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="pt"):
        list(read_pt_training_jsonl(path))


@pytest.mark.parametrize("field, value", [("entities", "E1"), ("brand_names", "nike")])
def test_labeled_record_labels_must_be_lists(field, value):
    # Read as a sequence, "E1" would be the two entities E and 1.
    record = _READERS["labeled-query"][1] | {field: value}
    with pytest.raises(ValueError, match=field):
        labeled_query_from_record(record)
