"""Domain type invariants and JSON-lines round-trips."""
import json

import pytest
from hypothesis import given
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
    entity_from_id,
    labeled_query_from_record,
    labeled_query_to_record,
    link_result_from_record,
    link_result_to_record,
    query_from_record,
    query_to_record,
    read_jsonl,
    write_jsonl,
)


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


def test_nil_is_the_only_nil():
    assert NIL.is_nil
    assert NIL.id == NIL_ID
    with pytest.raises(ValueError):
        BrandEntityId("E1", is_nil=True)
    with pytest.raises(ValueError):
        BrandEntityId(NIL_ID, is_nil=False)
    with pytest.raises(ValueError):
        BrandEntityId("")
    assert entity_from_id(NIL_ID) is NIL
    assert entity_from_id("E1") == BrandEntityId("E1")


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
    for bad in (0.0, -0.1, 1.5):
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

    def test_trace_prefix_prepends(self):
        result = LinkResult.nil([TraceRecord("filter", "kept 0")])
        out = result.with_trace_prefix([TraceRecord("detector", "none")])
        assert [t.stage for t in out.trace] == ["detector", "filter"]
        assert out.outcome is result.outcome


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
