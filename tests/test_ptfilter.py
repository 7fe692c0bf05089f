"""Association mining, candidate filtering, and the PT baseline model."""
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from brandlink import pipeline
from brandlink.binio import (
    ArtifactFormatError,
    ArtifactVersionError,
    csr_blobs,
    read_artifact,
    write_artifact,
)
from brandlink.core import NIL, BrandEntityId, Outcome, Query, ScoredEntity, StoreTag
from brandlink.gazetteer import TrieDetector, build_dictionary
from brandlink.linear import WEIGHT_DTYPE, score_vector, stack_layers
from brandlink.pipeline import LexicalMatcher, LinkerConfig, link_end_to_end, link_two_stage
from brandlink.ptfilter import (
    PT_CONFIDENCE_THRESHOLD,
    LinearPtPredictor,
    ProductType,
    PtAssociations,
    filter_candidates,
    load_pt_predictor,
    mine_associations,
    read_associations_tsv,
    save_pt_predictor,
    train_pt_baseline,
    write_associations_tsv,
)
from brandlink.text import FeaturizerConfig, normalize, vectorize

US = StoreTag("us")
SHOE = ProductType("shoe")
SOCK = ProductType("sock")
TOY = ProductType("toy")
E1, E2, E3 = (BrandEntityId(f"E{i}") for i in (1, 2, 3))
CFG = FeaturizerConfig(dim=2**16)


class OraclePtPredictor:
    """Replays gold product types keyed by normalized query text."""

    def __init__(self, mapping: dict[str, ProductType]) -> None:
        self._mapping = dict(mapping)

    def predict(self, query: Query) -> ProductType | None:
        return self._mapping.get(normalize(query.text).text)


def cands(*pairs):
    return [ScoredEntity(e, s) for e, s in pairs]


class TestMineAssociations:
    def test_distinct_pts_aggregated(self):
        assoc = mine_associations([(E1, SHOE), (E1, SHOE), (E1, SOCK)])
        assert assoc.get(E1) == {SHOE, SOCK}

    def test_empty_stream(self):
        assert len(mine_associations([])) == 0

    def test_never_impressed_entity_absent(self):
        assoc = mine_associations([(E1, SHOE)])
        assert assoc.get(E2) is None

    def test_nil_impressions_skipped(self):
        assoc = mine_associations([(NIL, SHOE), (E1, SHOE)])
        assert assoc.get(NIL) is None
        assert len(assoc) == 1


class FixedPt:
    """Predicts one product type, or none, for every query."""

    def __init__(self, pt):
        self.pt = pt

    def predict(self, query):
        return self.pt


def two_stage(entities, pt_q, assoc):
    """link_two_stage on a query whose one surface names ``entities``."""
    dictionary = build_dictionary([(US, "ab", e.id) for e in entities])
    config = LinkerConfig(
        detector=TrieDetector(dictionary),
        matcher=LexicalMatcher(dictionary),
        pt_predictor=FixedPt(pt_q),
        associations=assoc,
    )
    return link_two_stage(config, Query("ab", US))


def end_to_end(candidates, pt_q, assoc):
    """link_end_to_end with q2e ranking exactly ``candidates``."""
    config = LinkerConfig(q2e=object(), pt_predictor=FixedPt(pt_q), associations=assoc)
    with mock.patch.object(pipeline, "q2e_predict", lambda *_: list(candidates)):
        return link_end_to_end(config, Query("ab", US))


class TestFilterCandidates:
    def test_drops_known_mismatches_in_input_order(self):
        assoc = mine_associations([(E1, TOY), (E2, SHOE), (E3, SOCK)])
        candidates = cands((E1, 0.9), (NIL, 0.8), (E3, 0.7), (E2, 0.6))
        survivors, trace = filter_candidates(candidates, SHOE, assoc)
        assert survivors == [candidates[1], candidates[3]]
        assert [(t.stage, t.detail) for t in trace] == [
            ("filter", "dropped E1: shoe not in its pt set"),
            ("filter", "dropped E3: shoe not in its pt set"),
            ("filter", "pt=shoe: kept 2 of 4"),
        ]

    def test_order_is_kept_not_restored(self):
        candidates = cands((E1, 0.2), (E2, 0.9))
        survivors, _ = filter_candidates(candidates, SHOE, PtAssociations.empty())
        assert survivors == candidates

    def test_absent_pt_keeps_a_copy_of_all(self):
        candidates = cands((E1, 1.0), (E2, 1.0))
        survivors, trace = filter_candidates(candidates, None, mine_associations([(E1, TOY)]))
        assert survivors == candidates and survivors is not candidates
        assert [(t.stage, t.detail) for t in trace] == [
            ("filter", "no query product type; kept all")
        ]

    def test_no_candidates(self):
        survivors, trace = filter_candidates([], SHOE, PtAssociations.empty())
        assert survivors == []
        assert [t.detail for t in trace] == ["pt=shoe: kept 0 of 0"]


class TestFilterTwoStage:
    def test_pt_narrows_to_single(self):
        assoc = mine_associations([(E1, SHOE), (E2, TOY)])
        result = two_stage([E1, E2], SHOE, assoc)
        assert result.outcome is Outcome.SINGLE
        assert result.best.entity == E1

    def test_both_match_means_no_prediction(self):
        assoc = mine_associations([(E1, SHOE), (E2, SHOE)])
        result = two_stage([E1, E2], SHOE, assoc)
        assert result.outcome is Outcome.NO_PREDICTION
        assert result.trace[-1].detail == "2 survivors; abstaining"

    def test_zero_survivors_means_no_prediction(self):
        assoc = mine_associations([(E1, TOY), (E2, TOY)])
        result = two_stage([E1, E2], SHOE, assoc)
        assert result.outcome is Outcome.NO_PREDICTION
        assert result.trace[-1].detail == "0 survivors; abstaining"

    def test_unknown_pt_set_is_kept(self):
        assoc = mine_associations([(E2, TOY)])
        result = two_stage([E1, E2], SHOE, assoc)
        assert result.outcome is Outcome.SINGLE
        assert result.best.entity == E1

    def test_absent_pt_skips_filtering(self):
        assoc = mine_associations([(E1, SHOE), (E2, TOY)])
        result = two_stage([E1], None, assoc)
        assert result.outcome is Outcome.SINGLE
        two = two_stage([E1, E2], None, assoc)
        assert two.outcome is Outcome.NO_PREDICTION


class TestFilterEndToEnd:
    def test_highest_survivor_wins(self):
        assoc = mine_associations([(E1, SHOE), (E2, SHOE)])
        result = end_to_end(cands((E2, 0.9), (E1, 0.8)), SHOE, assoc)
        assert result.outcome is Outcome.SINGLE
        assert result.best.entity == E2

    def test_nil_on_top_yields_nil(self):
        assoc = mine_associations([(E1, SHOE)])
        result = end_to_end(cands((NIL, 0.9), (E1, 0.8)), SHOE, assoc)
        assert result.outcome is Outcome.NIL

    def test_filter_can_promote_second_candidate(self):
        assoc = mine_associations([(E1, TOY), (E2, SHOE)])
        result = end_to_end(cands((E1, 0.9), (E2, 0.8)), SHOE, assoc)
        assert result.outcome is Outcome.SINGLE
        assert result.best.entity == E2

    def test_zero_survivors_means_no_prediction(self):
        assoc = mine_associations([(E1, TOY)])
        result = end_to_end(cands((E1, 0.9)), SHOE, assoc)
        assert result.outcome is Outcome.NO_PREDICTION


# Properties of both linkers over drawn candidates: they decide as the
# reference rules below, the chosen entity always comes from the input
# candidates, and removing a non-surviving candidate never changes the
# outcome.


def reference_decision(candidates, pt_q, assoc, linker):
    """(outcome, best) by the decision rules the PT filter once applied."""
    survivors = [
        c
        for c in candidates
        if pt_q is None or assoc.get(c.entity) is None or pt_q in assoc.get(c.entity)
    ]
    if linker == "two_stage":
        if len(survivors) != 1:
            return Outcome.NO_PREDICTION, None
        best = survivors[0]
    else:
        if not survivors:
            return Outcome.NO_PREDICTION, None
        best = sorted(survivors, key=lambda s: (-s.score, s.entity.id))[0]
    if best.entity.is_nil:
        return Outcome.NIL, None
    return Outcome.SINGLE, best


def link_case(candidates, pt_q, assoc, linker):
    if linker == "two_stage":
        return two_stage([c.entity for c in candidates], pt_q, assoc)
    return end_to_end(candidates, pt_q, assoc)


_pts = st.sampled_from([SHOE, SOCK, TOY])


@st.composite
def filter_cases(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    chosen = draw(st.permutations([E1, E2, E3, NIL]))[:n]
    linker = draw(st.sampled_from(["two_stage", "end_to_end"]))
    if linker == "two_stage":
        # What the lexical matcher makes of one surface naming ``chosen``.
        entities = sorted((e for e in chosen if not e.is_nil), key=lambda e: e.id)
        candidates = [ScoredEntity(e, 1.0) for e in entities]
    else:
        candidates = [
            ScoredEntity(e, draw(st.floats(0.1, 1.0).map(lambda v: round(v, 3))))
            for e in chosen
        ]
        # As beam search returns them.
        candidates.sort(key=lambda c: (-c.score, c.entity.id))
    table = {}
    for entity in [E1, E2, E3]:
        if draw(st.booleans()):
            table[entity] = frozenset(draw(st.sets(_pts, min_size=1, max_size=2)))
    pt_q = draw(st.none() | _pts)
    return candidates, pt_q, PtAssociations(table), linker


@given(filter_cases())
def test_linkers_decide_as_the_reference_rules(case):
    result = link_case(*case)
    assert (result.outcome, result.best) == reference_decision(*case)


@given(filter_cases())
def test_survivors_are_the_kept_candidates_in_order(case):
    candidates, pt_q, assoc, _ = case
    survivors, trace = filter_candidates(candidates, pt_q, assoc)
    keep = [
        c
        for c in candidates
        if pt_q is None or assoc.get(c.entity) is None or pt_q in assoc.get(c.entity)
    ]
    assert survivors == keep
    n_dropped = len(candidates) - len(keep)
    assert len(trace) == n_dropped + 1
    assert all(t.stage == "filter" for t in trace)


@given(filter_cases())
def test_never_invents_an_entity(case):
    candidates = case[0]
    result = link_case(*case)
    if result.best is not None:
        assert result.best.entity in {c.entity for c in candidates}


@given(filter_cases())
def test_removing_dropped_candidate_is_noop(case):
    candidates, pt_q, assoc, linker = case
    if pt_q is None:
        return
    result = link_case(*case)
    survivors = {
        c.entity
        for c in candidates
        if assoc.get(c.entity) is None or pt_q in assoc.get(c.entity)
    }
    dropped = [c for c in candidates if c.entity not in survivors]
    if not dropped:
        return
    thinned = [c for c in candidates if c.entity != dropped[0].entity]
    again = link_case(thinned, pt_q, assoc, linker)
    assert again.outcome is result.outcome
    if result.best is not None:
        assert again.best.entity == result.best.entity


def train_on(rows, featurizer):
    """train_pt_baseline over (query, product type) rows."""
    return train_pt_baseline([(vectorize(q.text, featurizer), pt) for q, pt in rows], featurizer)


@pytest.fixture(scope="module")
def trained():
    rows = []
    for text in ["running shoes", "leather shoes", "tennis shoes", "red shoes", "shoes sale"]:
        rows.append((Query(text, US), SHOE))
    for text in ["usb cable", "hdmi cable", "power cable", "cable tie", "long cable"]:
        rows.append((Query(text, US), ProductType("cable")))
    for text in ["desk lamp", "floor lamp", "lamp shade", "bright lamp", "lamp bulb"]:
        rows.append((Query(text, US), ProductType("lamp")))
    return rows, train_on(rows, CFG)


class TestPtBaseline:

    def test_toy_generalization(self, trained):
        _, model = trained
        assert model.predict(Query("red running shoes", US)) == SHOE

    def test_empty_query_gives_nothing(self, trained):
        _, model = trained
        assert model.predict(Query("", US)) is None

    def test_label_swap_swaps_predictions(self, trained):
        rows, model = trained
        cable, lamp = ProductType("cable"), ProductType("lamp")
        flip = {SHOE: cable, cable: SHOE, lamp: lamp}
        swapped = train_on([(q, flip[pt]) for q, pt in rows], CFG)
        for q, pt in rows:
            assert model.predict(q) == pt
            assert swapped.predict(q) == flip[pt]

    def test_unrelated_text_below_threshold(self, trained):
        _, model = trained
        assert PT_CONFIDENCE_THRESHOLD == 0.5
        assert model.predict(Query("zzz qqq vvv", US)) is None

    def test_empty_training_data_rejected(self):
        with pytest.raises(ValueError):
            train_pt_baseline([], CFG)

    def test_round_trip(self, trained, tmp_path):
        rows, model = trained
        path = tmp_path / "pt.blaf"
        save_pt_predictor(model, path)
        loaded = load_pt_predictor(path)
        for q, _ in rows:
            assert loaded.predict(q) == model.predict(q)


    def test_margins_equal_dense_matvec(self, trained):
        rows, model = trained
        for q, _ in rows + [(Query("red lamp cable", US), None)]:
            vec = vectorize(q.text, CFG)
            # A float32 matvec adds each column's float32 products in
            # ascending feature order, the bias last, as the scorer does.
            dense = np.zeros(vec.dim + 1, dtype=WEIGHT_DTYPE)
            dense[vec.indices] = vec.values
            dense[vec.dim] = 1.0
            got = score_vector(model.weights, vec)
            assert got.dtype == np.float64
            assert np.array_equal(got, (model.weights[::-1].T @ dense).astype(np.float64))

    def test_tied_types_resolve_to_lowest_index(self):
        # Columns 1 and 2 carry identical weights and beat column 0.
        vec = vectorize("red shoes", CFG)
        weights = np.zeros((CFG.dim + 1, 3))
        weights[vec.indices, 1] = weights[vec.indices, 2] = 1.0
        weights[CFG.dim] = [-1.0, 0.5, 0.5]
        weights = stack_layers([sp.csc_matrix(weights)], CFG.dim + 1)
        model = LinearPtPredictor((SOCK, SHOE, TOY), weights, CFG)
        assert model.predict(Query("red shoes", US)) == SHOE
        swapped = LinearPtPredictor((SOCK, TOY, SHOE), weights, CFG)
        assert swapped.predict(Query("red shoes", US)) == TOY

    @pytest.mark.parametrize(
        "shape, layout",
        [
            ((CFG.dim + 1, 3), "csr"),  # one column more than types
            ((CFG.dim + 1, 1), "csr"),  # one column fewer
            ((CFG.dim, 2), "csr"),  # no bias row
            ((CFG.dim + 2, 2), "csr"),
            ((CFG.dim + 1, 2), "csc"),  # a feature-order matrix, likely
            ((CFG.dim + 1, 2), "csr"),  # float64 values
        ],
    )
    def test_weights_checked_at_construction(self, shape, layout):
        # Each would raise, or mis-score, only at the first query.  The
        # matrices hold float64 values, which only the last case reaches.
        weights = sp.random(*shape, density=1e-3, format=layout, random_state=0)
        with pytest.raises(ValueError, match="pt weights"):
            LinearPtPredictor((SOCK, SHOE), weights, CFG)

    def test_predict_allocates_no_dense_vector(self, trained):
        rows, _ = trained
        wide = FeaturizerConfig(dim=2**20)
        model = train_on(rows, wide)
        tracemalloc.start()
        try:
            assert model.predict(Query("red running shoes", US)) == SHOE
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (wide.dim + 1) * 8 // 16

    @pytest.mark.parametrize(
        "name, edit",
        [
            ("weights/indptr", lambda a, n_cols: a[1:]),
            ("weights/indptr", lambda a, n_cols: a[::-1].copy()),
            (
                "weights/indptr",
                lambda a, n_cols: np.concatenate([[0, a[-1]], a[2:]]).astype(a.dtype),
            ),
            ("weights/indices", lambda a, n_cols: np.append(a[:-1], n_cols).astype(a.dtype)),
            ("weights/indices", lambda a, n_cols: a.astype(np.int64)),
        ],
        ids=[
            "indptr-short",
            "indptr-decreasing",
            "indptr-dips",
            "column-past-last-type",
            "index-dtypes-differ",
        ],
    )
    def test_crafted_structure_rejected(self, trained, tmp_path, name, edit):
        _, model = trained
        path = tmp_path / "pt.blaf"
        save_pt_predictor(model, path)
        meta, blobs = read_artifact(path, "pt-model", 4)
        blobs = dict(blobs)
        blobs[name] = edit(np.array(blobs[name]), len(model.product_types))
        write_artifact(path, "pt-model", 4, meta, blobs)
        with pytest.raises(ArtifactFormatError):
            load_pt_predictor(path)

    def test_format_2_rejected(self, trained, tmp_path):
        # Format 2 stored the rows in feature order; read as bottom-up they
        # would mis-score every query, so the loader refuses the file.
        _, model = trained
        path = tmp_path / "pt.blaf"
        save_pt_predictor(model, path)
        meta, blobs = read_artifact(path, "pt-model", 4)
        blobs = dict(blobs, **csr_blobs(model.weights[::-1], "weights"))
        write_artifact(path, "pt-model", 2, meta, blobs)
        with pytest.raises(ArtifactVersionError):
            load_pt_predictor(path)

    def test_format_3_rejected(self, trained, tmp_path):
        # Format 3 stored float64 values, which the scorer does not read.
        _, model = trained
        path = tmp_path / "pt.blaf"
        save_pt_predictor(model, path)
        meta, blobs = read_artifact(path, "pt-model", 4)
        blobs = dict(blobs, **{"weights/data": blobs["weights/data"].astype(np.float64)})
        write_artifact(path, "pt-model", 3, meta, blobs)
        with pytest.raises(ArtifactVersionError):
            load_pt_predictor(path)

    def test_non_string_product_types_rejected(self, trained, tmp_path):
        # Such codes never equal a mined association's string code, so the
        # filter would drop every candidate with a known product type set.
        _, model = trained
        path = tmp_path / "pt.blaf"
        save_pt_predictor(model, path)
        meta, blobs = read_artifact(path, "pt-model", 4)
        codes = list(range(1, len(model.product_types) + 1))
        write_artifact(path, "pt-model", 4, dict(meta, product_types=codes), blobs)
        with pytest.raises(ArtifactFormatError, match="string"):
            load_pt_predictor(path)

    def test_load_serves_weights_as_views(self, trained, tmp_path):
        rows, model = trained
        path = tmp_path / "pt.blaf"
        save_pt_predictor(model, path)
        loaded = load_pt_predictor(path)
        for array in (loaded.weights.data, loaded.weights.indices, loaded.weights.indptr):
            assert not array.flags.writeable and not array.flags.owndata
            assert array.ctypes.data % 8 == 0
        for q, _ in rows:
            assert loaded.predict(q) == model.predict(q)

    @pytest.mark.parametrize(
        "edit",
        [
            {"threshold": 0.7},
            {"word_ngrams": 3},
            {"char_ngrams": [1, 3]},
            {"hash_name": "md5/v1"},
        ],
        ids=["threshold", "word-ngrams", "char-ngrams", "hash-name"],
    )
    def test_other_fixed_setting_rejected(self, trained, tmp_path, edit):
        # The threshold and the featurizer are constants; an artifact that
        # records another value would be mis-scored, so it must not load.
        _, model = trained
        path = tmp_path / "pt.blaf"
        save_pt_predictor(model, path)
        meta, blobs = read_artifact(path, "pt-model", 4)
        assert meta["threshold"] == 0.5
        if "threshold" in edit:
            crafted = dict(meta, **edit)
        else:
            crafted = dict(meta, featurizer=dict(meta["featurizer"], **edit))
        write_artifact(path, "pt-model", 4, crafted, blobs)
        with pytest.raises(ArtifactFormatError, match="unsupported"):
            load_pt_predictor(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_weights_and_idf_rejected(self, trained, tmp_path, bad):
        # A valid checksum over NaN weights would load and then predict the
        # first product type for every query; an inf idf would raise there.
        _, model = trained
        path = tmp_path / "pt.blaf"
        save_pt_predictor(model, path)
        meta, blobs = read_artifact(path, "pt-model", 4)
        weights = dict(blobs)
        weights["weights/data"] = np.full_like(blobs["weights/data"], bad)
        idf_meta = dict(meta, featurizer=dict(meta["featurizer"], idf_docs=1))
        idf = dict(blobs, **{"featurizer/idf": np.full(CFG.dim, bad, np.float32)})
        for crafted_meta, crafted in ((meta, weights), (idf_meta, idf)):
            write_artifact(path, "pt-model", 4, crafted_meta, crafted)
            with pytest.raises(ArtifactFormatError):
                load_pt_predictor(path)

    @pytest.mark.parametrize(
        "field, value",
        [("dim", "65536"), ("dim", 65536.9), ("idf_docs", "3"), ("idf_docs", 3.5)],
        ids=["dim-string", "dim-fraction", "idf-docs-string", "idf-docs-fraction"],
    )
    def test_featurizer_sizes_must_be_integers(self, trained, tmp_path, field, value):
        # Read with int(), "65536" and 65536.9 would load as dim 65536.
        _, model = trained
        path = tmp_path / "pt.blaf"
        save_pt_predictor(model, path)
        meta, blobs = read_artifact(path, "pt-model", 4)
        assert meta["featurizer"]["dim"] == CFG.dim
        featurizer = dict(meta["featurizer"], idf_docs=3)
        idf = dict(blobs, **{"featurizer/idf": np.ones(CFG.dim, np.float32)})
        write_artifact(path, "pt-model", 4, dict(meta, featurizer=featurizer), idf)
        assert load_pt_predictor(path).featurizer.idf.n_docs == 3
        featurizer[field] = value
        write_artifact(path, "pt-model", 4, dict(meta, featurizer=featurizer), idf)
        with pytest.raises(ArtifactFormatError):
            load_pt_predictor(path)


class TestOraclePredictor:
    def test_replays_known_text(self):
        oracle = OraclePtPredictor({"running shoes": SHOE})
        assert oracle.predict(Query("Running  SHOES", US)) == SHOE
        assert oracle.predict(Query("unknown", US)) is None


class TestAssociationsTsv:
    def test_round_trip(self, tmp_path):
        assoc = mine_associations([(E1, SHOE), (E1, SOCK), (E2, TOY)])
        path = tmp_path / "assoc.tsv"
        write_associations_tsv(assoc, path)
        loaded = mine_associations(read_associations_tsv(path))
        assert loaded.table == assoc.table

    def test_deterministic_bytes(self, tmp_path):
        a = mine_associations([(E1, SHOE), (E1, SOCK), (E2, TOY)])
        b = mine_associations([(E2, TOY), (E1, SOCK), (E1, SHOE)])
        pa, pb = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_associations_tsv(a, pa)
        write_associations_tsv(b, pb)
        assert pa.read_bytes() == pb.read_bytes()


def test_product_type_must_be_non_empty():
    with pytest.raises(ValueError):
        ProductType("")


def test_associations_reject_empty_sets():
    with pytest.raises(ValueError):
        PtAssociations({E1: frozenset()})
