"""End-to-end linker wiring: two-stage, query-direct, and fusion."""
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brandlink.core import NIL, BrandEntityId, Outcome, Query, StoreTag
from brandlink.gazetteer import TrieDetector, build_dictionary
from brandlink.pipeline import (
    LexicalMatcher,
    LinkerConfig,
    M2eMatcher,
    link_end_to_end,
    link_fused,
    link_two_stage,
)
from brandlink.ptfilter import (
    ProductType,
    load_pt_predictor,
    mine_associations,
    save_pt_predictor,
    train_pt_baseline,
)
from brandlink.text import FeaturizerConfig, vectorize
from brandlink.xmc.model import BeamParams
from brandlink.xmc.serialize import load_model, save_model
from brandlink.xmc.train import train
from brandlink.xmc.tree import aggregate_label_features, build_tree

US = StoreTag("us")
E1, E2 = BrandEntityId("E1"), BrandEntityId("E2")
CFG = FeaturizerConfig(dim=2**16)


def toy_dictionary():
    return build_dictionary(
        [
            (US, "nike", "E1"),
            (US, "sony", "E2"),
            (US, "ab", "E1"),
            (US, "ab", "E2"),
        ]
    )


def toy_q2e():
    data = [
        ("nike shoes", E1),
        ("nike boots", E1),
        ("sony tv", E2),
        ("sony radio", E2),
        ("usb cable", NIL),
        ("hdmi cable", NIL),
    ]
    labels = sorted({l for _, l in data}, key=lambda e: e.id)
    space = aggregate_label_features(
        labels, {E1: ["nike"], E2: ["sony"]}, {}, CFG
    )
    tree = build_tree(space)
    return train(
        [(vectorize(t, CFG), l) for t, l in data], space, tree, reg=1e-3, featurizer=CFG
    )


def toy_m2e():
    data = [("nike", E1), ("sony", E2)]
    space = aggregate_label_features(
        [E1, E2], {E1: ["nike"], E2: ["sony"]}, {}, CFG
    )
    tree = build_tree(space)
    return train(
        [(vectorize(t, CFG), l) for t, l in data], space, tree, reg=1e-3, featurizer=CFG
    )


@pytest.fixture(scope="module")
def dictionary():
    return toy_dictionary()


@pytest.fixture(scope="module")
def q2e_model():
    return toy_q2e()


@pytest.fixture(scope="module")
def m2e_model():
    return toy_m2e()


def lexical_config(dictionary, **kw):
    return LinkerConfig(
        detector=TrieDetector(dictionary),
        matcher=LexicalMatcher(dictionary),
        **kw,
    )


class FixedPt:
    """Predicts one product type for every query."""

    def __init__(self, pt):
        self.pt = pt

    def predict(self, query):
        return self.pt


# "ab" is E1's and E2's surface; only E1 is mined with chargers.
CHARGER = dict(
    pt_predictor=FixedPt(ProductType("charger")),
    associations=mine_associations([(E1, ProductType("charger")), (E2, ProductType("toy"))]),
)


class TestTwoStageLexical:
    def test_unambiguous_surface_links(self, dictionary):
        result = link_two_stage(lexical_config(dictionary), Query("nike shoes", US))
        assert result.outcome is Outcome.SINGLE
        assert result.best.entity == E1
        assert result.best.score == 1.0

    def test_detector_miss_traced(self, dictionary):
        result = link_two_stage(lexical_config(dictionary), Query("red shoes", US))
        assert result.outcome is Outcome.NO_PREDICTION
        assert result.trace[0].stage == "detector"
        assert "none" in result.trace[0].detail

    def test_shared_surface_resolved_by_pt(self, dictionary):
        result = link_two_stage(lexical_config(dictionary, **CHARGER), Query("ab charger", US))
        assert result.outcome is Outcome.SINGLE
        assert result.best.entity == E1

    def test_shared_surface_without_pt_abstains(self, dictionary):
        result = link_two_stage(lexical_config(dictionary), Query("ab charger", US))
        assert result.outcome is Outcome.NO_PREDICTION

    def test_pure_function(self, dictionary):
        config = lexical_config(dictionary)
        query = Query("nike shoes", US)
        first = link_two_stage(config, query)
        second = link_two_stage(config, query)
        assert first == second


class TestTwoStageM2e:
    def test_detected_mention_matched(self, dictionary, m2e_model):
        config = LinkerConfig(
            detector=TrieDetector(dictionary),
            matcher=M2eMatcher(m2e_model, BeamParams(top_k=1)),
        )
        result = link_two_stage(config, Query("nike shoes", US))
        assert result.outcome is Outcome.SINGLE
        assert result.best.entity == E1

    def test_matcher_requires_detector(self, m2e_model):
        with pytest.raises(ValueError):
            LinkerConfig(matcher=M2eMatcher(m2e_model))


class TestEndToEnd:
    def test_branded_query_links(self, q2e_model):
        config = LinkerConfig(q2e=q2e_model)
        result = link_end_to_end(config, Query("nike shoes", US))
        assert result.outcome is Outcome.SINGLE
        assert result.best.entity == E1

    def test_non_branded_query_nils(self, q2e_model):
        config = LinkerConfig(q2e=q2e_model)
        result = link_end_to_end(config, Query("usb cable", US))
        assert result.outcome is Outcome.NIL

    def test_empty_query_gives_no_prediction(self, q2e_model):
        config = LinkerConfig(q2e=q2e_model)
        result = link_end_to_end(config, Query("", US))
        assert result.outcome is Outcome.NO_PREDICTION

    def test_requires_q2e(self, dictionary):
        config = lexical_config(dictionary)
        with pytest.raises(ValueError):
            link_end_to_end(config, Query("nike shoes", US))


class TestFused:
    def fused_config(self, dictionary, q2e_model):
        return LinkerConfig(
            detector=TrieDetector(dictionary),
            matcher=LexicalMatcher(dictionary),
            q2e=q2e_model,
            fusion=True,
        )

    def test_lexical_single_wins_over_q2e(self, q2e_model):
        # Dictionary deliberately disagrees with the model on "nike".
        crooked = build_dictionary([(US, "nike", "E2")])
        config = LinkerConfig(
            detector=TrieDetector(crooked),
            matcher=LexicalMatcher(crooked),
            q2e=q2e_model,
            fusion=True,
        )
        result = link_fused(config, Query("nike shoes", US))
        assert result.outcome is Outcome.SINGLE
        assert result.best.entity == E2
        assert any(t.stage == "fusion" for t in result.trace)

    def test_q2e_fills_lexical_misses(self, dictionary, q2e_model):
        config = self.fused_config(dictionary, q2e_model)
        # No dictionary surface present; q2e still resolves the brand.
        result = link_fused(config, Query("nikee shoes", US))
        assert result.outcome is Outcome.SINGLE
        assert result.best.entity == E1

    def test_q2e_nil_is_a_valid_fallback(self, dictionary, q2e_model):
        config = self.fused_config(dictionary, q2e_model)
        result = link_fused(config, Query("usb cable", US))
        assert result.outcome is Outcome.NIL

    def test_both_branches_traced(self, dictionary, q2e_model):
        config = self.fused_config(dictionary, q2e_model)
        result = link_fused(config, Query("nike shoes", US))
        stages = {t.stage.split("/")[0] for t in result.trace}
        assert "two_stage" in stages
        assert "q2e" in stages

    def test_fusion_agreement_with_lexical_branch(self, dictionary, q2e_model):
        config = self.fused_config(dictionary, q2e_model)
        plain = lexical_config(dictionary)
        for text in ["nike shoes", "sony tv", "nike", "sony"]:
            query = Query(text, US)
            lexical = link_two_stage(plain, query)
            if lexical.outcome is Outcome.SINGLE:
                fused = link_fused(config, query)
                assert fused.outcome is Outcome.SINGLE
                assert fused.best.entity == lexical.best.entity

    def test_coverage_dominance(self, dictionary, q2e_model):
        config = self.fused_config(dictionary, q2e_model)
        plain = lexical_config(dictionary)
        texts = [
            "nike shoes",
            "sony tv",
            "nikee shoes",
            "usb cable",
            "red shoes",
            "ab charger",
        ]
        lexical_singles = {
            t
            for t in texts
            if link_two_stage(plain, Query(t, US)).outcome is Outcome.SINGLE
        }
        fused_singles = {
            t
            for t in texts
            if link_fused(config, Query(t, US)).outcome is Outcome.SINGLE
        }
        assert lexical_singles <= fused_singles

    def test_fusion_requires_matcher_and_q2e(self, dictionary, q2e_model):
        with pytest.raises(ValueError):
            LinkerConfig(q2e=q2e_model, fusion=True)
        with pytest.raises(ValueError):
            LinkerConfig(
                detector=TrieDetector(dictionary),
                matcher=LexicalMatcher(dictionary),
                fusion=True,
            )


@pytest.mark.parametrize(
    "mode, text, outcome, best, trace",
    [
        ("lexical", "red shoes", Outcome.NO_PREDICTION, None, [("detector", "none")]),
        (
            "lexical+pt",
            "ab charger",
            Outcome.SINGLE,
            E1,
            [
                ("detector", "mention 'ab' at (0, 2)"),
                ("match", "lexical: 2 candidates"),
                ("filter", "dropped E2: charger not in its pt set"),
                ("filter", "pt=charger: kept 1 of 2"),
            ],
        ),
        (
            "lexical",
            "ab charger",
            Outcome.NO_PREDICTION,
            None,
            [
                ("detector", "mention 'ab' at (0, 2)"),
                ("match", "lexical: 2 candidates"),
                ("filter", "no query product type; kept all"),
                ("filter", "2 survivors; abstaining"),
            ],
        ),
        (
            "q2e",
            "usb cable",
            Outcome.NIL,
            None,
            [("q2e", "3 candidates"), ("filter", "no query product type; kept all")],
        ),
        (
            "fused",
            "nike shoes",
            Outcome.SINGLE,
            E1,
            [
                ("two_stage/detector", "mention 'nike' at (0, 4)"),
                ("two_stage/match", "lexical: 1 candidates"),
                ("two_stage/filter", "no query product type; kept all"),
                ("q2e/q2e", "3 candidates"),
                ("q2e/filter", "no query product type; kept all"),
                ("fusion", "two-stage branch wins"),
            ],
        ),
        (
            "fused",
            "nikee shoes",
            Outcome.SINGLE,
            E1,
            [
                ("two_stage/detector", "none"),
                ("q2e/q2e", "3 candidates"),
                ("q2e/filter", "no query product type; kept all"),
                ("fusion", "q2e branch answers"),
            ],
        ),
    ],
    ids=[
        "detector-miss",
        "single-after-pt-drop",
        "two-survivors-abstain",
        "q2e-nil",
        "fused-two-stage-resolves",
        "fused-q2e-answers",
    ],
)
def test_trace_and_outcome_pinned(dictionary, q2e_model, mode, text, outcome, best, trace):
    link, config = {
        "lexical": (link_two_stage, lexical_config(dictionary)),
        "lexical+pt": (link_two_stage, lexical_config(dictionary, **CHARGER)),
        "q2e": (link_end_to_end, LinkerConfig(q2e=q2e_model)),
        "fused": (link_fused, lexical_config(dictionary, q2e=q2e_model, fusion=True)),
    }[mode]
    result = link(config, Query(text, US))
    assert [(t.stage, t.detail) for t in result.trace] == trace
    assert result.outcome is outcome
    assert (None if result.best is None else result.best.entity) == best


def test_threads_sharing_loaded_models_match_sequential(dictionary, tmp_path):
    # Every model is loaded from disk and shared, so no first-use state may
    # be built or filled lazily while four threads score through it.
    save_model(toy_q2e(), tmp_path / "q2e.blaf")
    save_model(toy_m2e(), tmp_path / "m2e.blaf")
    pt = train_pt_baseline(
        [(vectorize(t, CFG), ProductType(p)) for t, p in [
            ("nike shoes", "shoe"), ("red shoes", "shoe"),
            ("sony tv", "tv"), ("hdmi tv", "tv"),
        ]],
        CFG,
    )
    save_pt_predictor(pt, tmp_path / "pt.blaf")
    config = LinkerConfig(
        detector=TrieDetector(dictionary),
        matcher=M2eMatcher(load_model(tmp_path / "m2e.blaf")),
        q2e=load_model(tmp_path / "q2e.blaf"),
        pt_predictor=load_pt_predictor(tmp_path / "pt.blaf"),
        associations=mine_associations([(E1, ProductType("shoe")), (E2, ProductType("tv"))]),
        fusion=True,
    )
    texts = ["nike shoes", "sony tv", "nikee shoes", "usb cable", "ab charger", "sony", ""]
    queries = [Query(t, US) for t in texts * 30]

    def run(seed):
        order = list(range(len(queries)))
        random.Random(seed).shuffle(order)
        return {i: link_fused(config, queries[i]) for i in order}

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(run, seed) for seed in range(4)]
            threaded = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(switch)
    sequential = {i: link_fused(config, q) for i, q in enumerate(queries)}
    for results in threaded:
        assert results == sequential


@pytest.fixture(scope="module")
def loaded_linkers(dictionary, tmp_path_factory):
    """The four link modes over toy models served from their artifacts."""
    root = tmp_path_factory.mktemp("fuzz")
    save_model(toy_q2e(), root / "q2e.blaf")
    save_model(toy_m2e(), root / "m2e.blaf")
    pt = train_pt_baseline(
        [(vectorize(t, CFG), ProductType(p)) for t, p in [
            ("nike shoes", "shoe"), ("red shoes", "shoe"),
            ("sony tv", "tv"), ("hdmi tv", "tv"),
        ]],
        CFG,
    )
    save_pt_predictor(pt, root / "pt.blaf")
    shared = dict(
        pt_predictor=load_pt_predictor(root / "pt.blaf"),
        associations=mine_associations([(E1, ProductType("shoe")), (E2, ProductType("tv"))]),
    )
    detector = TrieDetector(dictionary)
    m2e = M2eMatcher(load_model(root / "m2e.blaf"))
    q2e = load_model(root / "q2e.blaf")
    return {
        "lexical": (link_two_stage, lexical_config(dictionary, **shared)),
        "m2e": (link_two_stage, LinkerConfig(detector=detector, matcher=m2e, **shared)),
        "q2e": (link_end_to_end, LinkerConfig(q2e=q2e, **shared)),
        "fused": (
            link_fused,
            LinkerConfig(detector=detector, matcher=m2e, q2e=q2e, fusion=True, **shared),
        ),
    }


# Brand words mixed with CJK, combining marks, controls, format characters
# and separators, plus any code point at all; or one short unit repeated
# out to a 10k-character query.
_HOSTILE_TEXT = st.one_of(
    st.lists(
        st.one_of(
            st.sampled_from(["nike", "sony", "ab", "shoes", "tv", " ", "\t", "\u3000"]),
            st.characters(min_codepoint=0x4E00, max_codepoint=0x4E20),
            st.characters(categories=["Mn", "Me", "Cc", "Cf", "Zs", "Zl", "Zp"]),
            st.characters(),
        ),
        max_size=30,
    ).map("".join),
    st.builds(lambda unit: (unit * 10_000)[:10_000], st.text(min_size=1, max_size=12)),
)


@settings(max_examples=60, deadline=None)
@given(text=_HOSTILE_TEXT)
def test_linkers_never_raise_and_repeat_on_hostile_text(loaded_linkers, text):
    query = Query(text, US)
    for link, config in loaded_linkers.values():
        first = link(config, query)
        assert link(config, query) == first


def test_linkers_accept_lone_surrogates(loaded_linkers):
    # A lone surrogate has no UTF-8 encoding; featurizing it once raised.
    query = Query("\ud800 nike \udfff", US)
    for link, config in loaded_linkers.values():
        assert link(config, query) == link(config, query)
