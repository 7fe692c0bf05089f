"""Scoring counts, metric formulas, false alarms, and sliced reports."""
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from brandlink.core import (
    NIL,
    BrandEntityId,
    LabeledQuery,
    LinkResult,
    Outcome,
    Query,
    Source,
    StoreTag,
)
from brandlink.evaluation import (
    UNDEFINED_MARKER,
    EvalCounts,
    metrics,
    render_text,
    report,
    score,
    write_report_json,
)

US = StoreTag("us")
E1, E2 = BrandEntityId("E1"), BrandEntityId("E2")


def branded(text, gold, language=None):
    return LabeledQuery(
        query=Query(text, US, language=language),
        brand_names=(text.split()[0],),
        entities=(gold,) if isinstance(gold, BrandEntityId) else tuple(gold),
        source=Source.SL,
    )


def nonbranded(text, language=None):
    return LabeledQuery(
        query=Query(text, US, language=language),
        brand_names=(),
        entities=(NIL,),
        source=Source.SL,
    )


def single(entity, score_value=0.9):
    return LinkResult.single(entity, score_value)


NIL_RESULT = LinkResult.nil()
NO_PRED = LinkResult.no_prediction()


class TestEvalCounts:
    def test_merge_is_componentwise(self):
        merged = EvalCounts(4, 3, 2, 1) + EvalCounts(10, 5, 4, 3)
        assert merged == EvalCounts(14, 8, 6, 4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            EvalCounts(t=-1)

    def test_single_counts_bounded_by_total(self):
        with pytest.raises(ValueError):
            EvalCounts(t=2, l_single=3)
        with pytest.raises(ValueError):
            EvalCounts(t=2, p_single=3)

    def test_correct_bounded_by_singles(self):
        with pytest.raises(ValueError):
            EvalCounts(t=5, l_single=2, p_single=4, c=3)
        with pytest.raises(ValueError):
            EvalCounts(t=5, l_single=4, p_single=2, c=3)


class TestScore:
    def test_half_answered_all_correct(self):
        pairs = [
            (branded("nike shoes", E1), single(E1)),
            (branded("sony tv", E2), single(E2)),
            (branded("puma bag", E1), NO_PRED),
            (branded("asics top", E2), NO_PRED),
        ]
        row = metrics(score(pairs))
        assert row.recall == pytest.approx(50.0)
        assert row.precision == pytest.approx(100.0)
        assert row.coverage == pytest.approx(50.0)

    def test_wrong_entity_counts_predicted_not_correct(self):
        counts = score([(branded("nike shoes", E1), single(E2))])
        assert counts == EvalCounts(t=1, l_single=1, p_single=1, c=0)

    def test_nil_and_no_prediction_are_not_single(self):
        counts = score(
            [
                (branded("nike shoes", E1), NIL_RESULT),
                (branded("sony tv", E2), NO_PRED),
            ]
        )
        assert counts.p_single == 0

    def test_nil_gold_never_enters_l_single(self):
        counts = score([(nonbranded("usb cable"), NIL_RESULT)])
        assert counts == EvalCounts(t=1, l_single=0, p_single=0, c=0)

    def test_multi_entity_gold_excluded_from_l_single(self):
        counts = score([(branded("ab charger", (E1, E2)), single(E1))])
        assert counts == EvalCounts(t=1, l_single=0, p_single=1, c=0)

    def test_single_on_nil_gold_is_predicted_not_correct(self):
        counts = score([(nonbranded("usb cable"), single(E1))])
        assert counts == EvalCounts(t=1, l_single=0, p_single=1, c=0)

    @given(st.permutations(range(6)))
    def test_order_invariance(self, order):
        pairs = [
            (branded("nike shoes", E1), single(E1)),
            (branded("sony tv", E2), single(E1)),
            (branded("puma bag", E1), NO_PRED),
            (nonbranded("usb cable"), NIL_RESULT),
            (nonbranded("hdmi lead", None), single(E2)),
            (branded("ab charger", (E1, E2)), single(E2)),
        ]
        shuffled = [pairs[i] for i in order]
        assert score(shuffled) == score(pairs)


# Frozen fixture: 20 examples with every outcome combination represented.
# The expected counts below were tallied by hand, row by row.
FROZEN_PAIRS = [
    (branded("q00", E1), single(E1)),        # L1, P1, C
    (branded("q01", E1), single(E2)),        # L1, P1
    (branded("q02", E2), single(E2)),        # L1, P1, C
    (branded("q03", E2), NO_PRED),           # L1
    (branded("q04", E1), NIL_RESULT),        # L1
    (branded("q05", E2), single(E2)),        # L1, P1, C
    (branded("q06", E1), single(E1)),        # L1, P1, C
    (branded("q07", E2), single(E1)),        # L1, P1
    (branded("q08", E1), NO_PRED),           # L1
    (branded("q09", E2), single(E2)),        # L1, P1, C
    (branded("q10", (E1, E2)), single(E1)),  # P1 only: multi gold
    (branded("q11", (E1, E2)), NO_PRED),     # neither
    (nonbranded("q12"), NIL_RESULT),         # neither
    (nonbranded("q13"), single(E1)),         # P1 only: false alarm
    (nonbranded("q14"), NO_PRED),            # neither
    (branded("q15", E1), single(E1)),        # L1, P1, C
    (branded("q16", E2), NIL_RESULT),        # L1
    (branded("q17", E1), single(E2)),        # L1, P1
    (nonbranded("q18"), NIL_RESULT),         # neither
    (branded("q19", E2), single(E2)),        # L1, P1, C
]
# Tally: T=20.  L_single rows: q00-q09, q15-q17, q19 = 14.
# P_single rows: q00,q01,q02,q05,q06,q07,q09,q10,q13,q15,q17,q19 = 12.
# C rows: q00,q02,q05,q06,q09,q15,q19 = 7.
FROZEN_COUNTS = EvalCounts(t=20, l_single=14, p_single=12, c=7)


class TestFrozenFixture:
    def test_hand_recount_matches_exactly(self):
        assert score(FROZEN_PAIRS) == FROZEN_COUNTS

    def test_metrics_from_hand_counts(self):
        row = metrics(FROZEN_COUNTS)
        assert row.recall == pytest.approx(100.0 * 7 / 14)
        assert row.precision == pytest.approx(100.0 * 7 / 12)
        assert row.coverage == pytest.approx(100.0 * 12 / 20)
        p, r = 100.0 * 7 / 12, 100.0 * 7 / 14
        assert row.f1 == pytest.approx(2 * p * r / (p + r))
        assert not row.undefined


counts_strategy = st.builds(
    lambda t, l, p, c: EvalCounts(
        t=t, l_single=min(l, t), p_single=min(p, t), c=min(c, min(l, t), min(p, t))
    ),
    st.integers(0, 50),
    st.integers(0, 50),
    st.integers(0, 50),
    st.integers(0, 50),
)


class TestMetrics:
    def test_perfect_model_on_partial_coverage(self):
        row = metrics(EvalCounts(t=28439, l_single=24054, p_single=24054, c=24054))
        assert row.recall == pytest.approx(100.0)
        assert row.precision == pytest.approx(100.0)
        assert round(row.coverage, 2) == 84.58

    def test_zero_correct(self):
        row = metrics(EvalCounts(t=4, l_single=4, p_single=2, c=0))
        assert row.recall == 0.0
        assert row.f1 == 0.0
        assert not row.undefined

    def test_zero_predictions_flags_precision(self):
        row = metrics(EvalCounts(t=4, l_single=4, p_single=0, c=0))
        assert row.precision == 0.0
        assert "precision" in row.undefined
        assert "f1" in row.undefined

    def test_empty_counts_flag_everything(self):
        row = metrics(EvalCounts())
        assert row.undefined == {"coverage", "recall", "precision", "f1"}

    @given(counts_strategy)
    def test_coverage_recovers_p_single(self, counts):
        row = metrics(counts)
        if counts.t:
            assert row.coverage * counts.t / 100.0 == pytest.approx(counts.p_single)

    @given(counts_strategy)
    def test_f1_equals_p_when_p_equals_r(self, counts):
        row = metrics(counts)
        if not row.undefined and row.precision == row.recall:
            assert row.f1 == pytest.approx(row.precision)

    @given(counts_strategy)
    def test_recall_bounded_by_coverage_ratio(self, counts):
        row = metrics(counts)
        if counts.l_single and counts.t:
            bound = row.coverage * counts.t / counts.l_single
            assert row.recall <= bound + 1e-9

    def test_all_correct_means_full_precision(self):
        pairs = [
            (branded("nike shoes", E1), single(E1)),
            (branded("sony tv", E2), single(E2)),
            (branded("puma bag", E1), NO_PRED),
        ]
        row = metrics(score(pairs))
        assert row.precision == pytest.approx(100.0)


class TestFalseAlarmRate:
    # On gold that is all non-branded, coverage is the false-alarm rate.

    def test_three_percent(self):
        pairs = [(nonbranded(f"q{i}"), single(E1) if i < 3 else NIL_RESULT) for i in range(100)]
        assert metrics(score(pairs)).coverage == pytest.approx(3.0)

    def test_all_nil_is_zero(self):
        pairs = [(nonbranded(f"q{i}"), NIL_RESULT) for i in range(10)]
        assert metrics(score(pairs)).coverage == 0.0

    def test_no_prediction_is_not_an_alarm(self):
        pairs = [(nonbranded(f"q{i}"), NO_PRED) for i in range(10)]
        assert metrics(score(pairs)).coverage == 0.0


def by_language(example):
    return example.query.language or "unknown"


class TestReport:
    def test_macro_averages_slices(self):
        # en: 5 single-labeled, 2 correct singles → recall 40.
        # de: 5 single-labeled, 3 correct singles → recall 60.
        pairs = []
        for i in range(5):
            pairs.append(
                (branded(f"en{i}", E1, "en"), single(E1) if i < 2 else NO_PRED)
            )
        for i in range(5):
            pairs.append(
                (branded(f"de{i}", E2, "de"), single(E2) if i < 3 else NO_PRED)
            )
        doc = report(by_language, pairs)
        assert doc["macro"]["recall"] == 50.0

    def test_single_slice_macro_equals_slice(self):
        pairs = [
            (branded("nike shoes", E1, "en"), single(E1)),
            (branded("sony tv", E2, "en"), NO_PRED),
        ]
        doc = report(by_language, pairs)
        assert len(doc["slices"]) == 1
        assert doc["macro"] == doc["slices"][0]["metrics"]

    def test_overall_pools_all_slices(self):
        pairs = [
            (branded("nike shoes", E1, "en"), single(E1)),
            (branded("sony tv", E2, "de"), single(E1)),
        ]
        doc = report(by_language, pairs)
        assert doc["overall"]["counts"] == {"t": 2, "l_single": 2, "p_single": 2, "c": 1}

    def test_language_rows_ordered_by_descending_share(self):
        # Language mix with the hundredth-percent resolution of a realistic
        # multilingual test set; shares must come out exact to 2 decimals.
        mix = [
            ("en", 3955),
            ("es", 1197),
            ("de", 1171),
            ("fr", 939),
            ("ja", 654),
            ("it", 545),
            ("ar", 497),
            ("tr", 457),
            ("nl", 257),
            ("pt", 222),
            ("sv", 107),
        ]
        pairs = []
        for lang, n in mix:
            for i in range(n):
                pairs.append((branded(f"{lang}{i}", E1, lang), single(E1)))
        doc = report(by_language, pairs)
        assert doc["overall"]["counts"]["t"] == 10001
        assert [s["key"] for s in doc["slices"]] == [lang for lang, _ in mix]
        assert doc["slices"][0]["share"] == 39.55
        shares = [s["share"] for s in doc["slices"]]
        assert shares == sorted(shares, reverse=True)

    def test_ties_broken_by_key(self):
        pairs = [
            (branded("b0", E1, "fr"), single(E1)),
            (branded("b1", E1, "de"), single(E1)),
        ]
        doc = report(by_language, pairs)
        assert [s["key"] for s in doc["slices"]] == ["de", "fr"]

    def test_macro_skips_undefined_slices(self):
        # "de" slice has no Single predictions: its precision is undefined
        # and must not drag the macro average down.
        pairs = [
            (branded("en0", E1, "en"), single(E1)),
            (branded("de0", E1, "de"), NO_PRED),
        ]
        doc = report(by_language, pairs)
        assert doc["macro"]["precision"] == 100.0


class TestRendering:
    def fixture_report(self):
        pairs = [
            (branded("nike shoes", E1, "en"), single(E1)),
            (branded("sony tv", E2, "en"), NO_PRED),
            (branded("puma bag", E1, "de"), single(E2)),
        ]
        return report(by_language, pairs)

    def test_json_shape_and_rounding(self):
        doc = self.fixture_report()
        assert doc["schema_version"] == 1
        assert doc["overall"]["counts"]["t"] == 3
        en = next(s for s in doc["slices"] if s["key"] == "en")
        assert en["share"] == round(100.0 * 2 / 3, 2)
        assert en["metrics"]["recall"] == 50.0
        for value in doc["macro"].values():
            assert isinstance(value, (int, float, list))

    def test_text_table_layout(self):
        text = render_text(self.fixture_report())
        lines = text.splitlines()
        assert lines[0].startswith("slice")
        assert set(lines[1]) <= {"-", " "}
        assert any(line.startswith("overall") for line in lines)
        assert any(line.startswith("macro") for line in lines)
        # Two-decimal percentages everywhere.
        assert "100.00" in text
        assert text.endswith("\n")

    def test_undefined_marker_rendered(self):
        pairs = [(branded("nike shoes", E1, "en"), NO_PRED)]
        text = render_text(report(by_language, pairs))
        assert "0.00" + UNDEFINED_MARKER in text

    def test_report_file_is_the_document(self, tmp_path):
        doc = self.fixture_report()
        write_report_json(doc, tmp_path / "report.json")
        assert json.loads((tmp_path / "report.json").read_text()) == doc


_SLICED_PAIRS = st.lists(
    st.tuples(
        st.sampled_from(["en", "de", "ja", None]),
        st.sampled_from([E1, E2, (E1, E2), NIL]),
        st.sampled_from([single(E1), single(E2), NIL_RESULT, NO_PRED]),
    ),
    max_size=40,
)


@given(_SLICED_PAIRS)
def test_text_table_prints_the_document(specs):
    pairs = [
        (nonbranded(f"q{i}", lang) if gold == NIL else branded(f"q{i}", gold, lang), result)
        for i, (lang, gold, result) in enumerate(specs)
    ]
    doc = report(by_language, pairs)
    lines = render_text(doc).splitlines()[2:]
    parts = [*doc["slices"], doc["overall"]]
    assert len(lines) == len(parts) + 1

    def cells(values: dict) -> list[str]:
        return [
            f"{values[name]:.2f}" + (UNDEFINED_MARKER if name in values["undefined"] else "")
            for name in ("coverage", "recall", "precision", "f1")
        ]

    for line, part in zip(lines, parts):
        counts = part["counts"]
        assert line.split() == [
            part["key"],
            f"{part['share']:.2f}",
            *(str(counts[k]) for k in ("t", "l_single", "p_single", "c")),
            *cells(part["metrics"]),
        ]
    assert lines[-1].split() == ["macro", *cells(doc["macro"])]
