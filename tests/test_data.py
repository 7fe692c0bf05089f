"""Label sourcing and the synthetic corpus generator."""
import hashlib
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from brandlink.core import (
    NIL,
    BrandEntityId,
    Outcome,
    Query,
    Source,
    StoreTag,
    labeled_query_from_record,
    read_jsonl,
)
from brandlink.data import (
    CorpusSpec,
    EngagementRecord,
    augment_b2e,
    gen_synthetic_corpus,
    gen_weak_labels,
)
from brandlink.gazetteer import TrieDetector, build_dictionary, read_b2e_tsv
from brandlink.pipeline import LexicalMatcher, LinkerConfig, link_two_stage
from brandlink.ptfilter import ProductType, mine_associations, read_associations_tsv
from brandlink.text import normalize

US = StoreTag("us")
E1 = BrandEntityId("E1")


class OraclePtPredictor:
    """Replays gold product types keyed by normalized query text."""

    def __init__(self, mapping: dict[str, ProductType]) -> None:
        self._mapping = dict(mapping)

    def predict(self, query: Query) -> ProductType | None:
        return self._mapping.get(normalize(query.text).text)


class TestAugmentB2e:
    def test_surface_becomes_pseudo_query(self):
        out = list(augment_b2e([(US, "nike", "E1")]))
        assert len(out) == 1
        labeled = out[0]
        assert labeled.query.text == "nike"
        assert labeled.query.store == US
        assert labeled.entities == (E1,)
        assert labeled.brand_names == ("nike",)
        assert labeled.source is Source.B2E

    def test_row_count_preserved(self):
        rows = [(US, f"brand{i}", f"E{i}") for i in range(100)]
        assert len(list(augment_b2e(rows))) == 100

    def test_empty_stream(self):
        assert list(augment_b2e([])) == []

    def test_nil_and_blank_ids_skipped(self):
        rows = [(US, "a", "E1"), (US, "b", NIL.id), (US, "c", "")]
        out = list(augment_b2e(rows))
        assert [l.query.text for l in out] == ["a"]


def log(text, brand, strength=5.0):
    return EngagementRecord(
        query=Query(text, US), product_brand_name=brand, association_strength=strength
    )


class TestGenWeakLabels:
    def setup_method(self):
        self.dictionary = build_dictionary([(US, "nike", "E1")])

    def weak(self, records, threshold=1.0):
        return list(gen_weak_labels(records, threshold, self.dictionary))

    def test_token_aligned_brand_emitted(self):
        out = self.weak([log("nike running shoes", "nike")])
        assert len(out) == 1
        assert out[0].entities == (E1,)
        assert out[0].source is Source.WL

    def test_brand_absent_from_query(self):
        assert self.weak([log("running shoes", "nike")]) == []

    def test_mid_token_hit_rejected(self):
        assert self.weak([log("snikers bar", "nike")]) == []

    def test_below_threshold_rejected(self):
        assert self.weak([log("nike shoes", "nike", strength=0.5)]) == []

    def test_at_threshold_kept(self):
        assert len(self.weak([log("nike shoes", "nike", strength=1.0)])) == 1

    def test_brand_outside_dictionary_rejected(self):
        assert self.weak([log("adidas shoes", "adidas")]) == []

    def test_negative_strength_rejected_at_construction(self):
        with pytest.raises(ValueError):
            log("nike shoes", "nike", strength=-1.0)

    @given(
        st.lists(
            st.tuples(
                st.lists(
                    st.sampled_from(["nike", "red", "shoes", "air", "max"]),
                    min_size=1,
                    max_size=4,
                ),
                st.sampled_from(["nike", "adidas", "nike air"]),
                st.floats(min_value=0.0, max_value=10.0),
            ),
            max_size=20,
        )
    )
    def test_emitted_brand_is_token_run_of_query(self, raw):
        dictionary = build_dictionary(
            [(US, "nike", "E1"), (US, "nike air", "E2"), (US, "adidas", "E3")]
        )
        records = [log(" ".join(words), brand, s) for words, brand, s in raw]
        for labeled in gen_weak_labels(records, 1.0, dictionary):
            query_tokens = normalize(labeled.query.text).tokens
            brand_tokens = normalize(labeled.brand_names[0]).tokens
            n = len(brand_tokens)
            assert any(
                query_tokens[i : i + n] == brand_tokens
                for i in range(len(query_tokens) - n + 1)
            )


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    spec = CorpusSpec(
        n_entities=60,
        surface_variants_per_entity=3,
        n_branded_queries=400,
        n_nonbranded_queries=100,
        pt_space_size=10,
        seed=7,
    )
    manifest = gen_synthetic_corpus(spec, out)
    return out, spec, manifest


# sha256 of every file for one small two-language spec.  Changing any of
# them (moving a random draw, reordering a record's keys) changes the
# corpus every trained artifact and results file is built from, so it must
# be deliberate.
PINNED_SPEC = CorpusSpec(
    n_entities=30,
    surface_variants_per_entity=3,
    languages=("en", "de"),
    n_branded_queries=60,
    n_nonbranded_queries=20,
    pt_space_size=5,
    seed=11,
)
PINNED_SHA256 = {
    "b2e.tsv": "d29147acac11e02ac6abd961d4ae6b59f9be5b0bb492570d3554be5358900181",
    "engagement.jsonl": "da31342b058f83fa952b81a9269d2b813bb9ce75a170e191091ea417d273dcd1",
    "manifest.json": "776884948d0118740fcd205232ac0c93e220b23c184eede7a9151a59721d7fda",
    "nonbranded.jsonl": "85c54a88405687dc8d7e1eddcae7a7931e698e5c3fd8d7fee3e258a1e347b95d",
    "pt_associations.tsv": "238f2a111e63f7a0c2632fad792713b8f3aa0ba6a37702a6f84631e6b1b2d20b",
    "pt_train.jsonl": "1d56d4c721c0a549cf2c77ada3228b04bec477a5ba1c081ab7938a8f2a107b55",
    "strong_labels.jsonl": "b29a6da3c8f715910835d0a612413e73ee30d35a1f96719cc422ee3b4d2f1183",
    "test.jsonl": "6f748cf76ff7c75af5d248f687941755b69764a76140551844774129080ae66b",
    "test_shared.jsonl": "3aee77a588004b58d6a2cd5abebe642947ba0c0e113c313c86dd7be19e8f6b15",
    "test_variants.jsonl": "f90b134b54c2404fca58e08f512de6a4ae4be904d037fa47c22364896d164439",
    "weak_labels.jsonl": "98630bcf08e901168bfa4d2232b15a2bff25bf87b4286c1d3ee417e8bee63700",
}


class TestSyntheticCorpus:
    def test_b2e_row_count_matches_spec(self, corpus):
        out, spec, manifest = corpus
        rows = list(read_b2e_tsv(out / "b2e.tsv"))
        assert len(rows) == spec.n_entities * spec.surface_variants_per_entity
        assert manifest["counts"]["b2e_rows"] == len(rows)

    def test_same_seed_is_byte_identical(self, corpus, tmp_path):
        out, spec, _ = corpus
        gen_synthetic_corpus(spec, tmp_path)
        for name in sorted(p.name for p in out.iterdir()):
            assert (tmp_path / name).read_bytes() == (out / name).read_bytes(), name

    def test_pinned_spec_bytes(self, tmp_path):
        gen_synthetic_corpus(PINNED_SPEC, tmp_path)
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in tmp_path.iterdir()
        }
        assert digests == PINNED_SHA256

    def test_different_seed_differs(self, corpus, tmp_path):
        out, spec, _ = corpus
        other = CorpusSpec(
            n_entities=spec.n_entities,
            surface_variants_per_entity=spec.surface_variants_per_entity,
            n_branded_queries=spec.n_branded_queries,
            n_nonbranded_queries=spec.n_nonbranded_queries,
            pt_space_size=spec.pt_space_size,
            seed=spec.seed + 1,
        )
        gen_synthetic_corpus(other, tmp_path)
        assert (tmp_path / "b2e.tsv").read_bytes() != (out / "b2e.tsv").read_bytes()

    def test_manifest_counts_match_files(self, corpus):
        out, _, manifest = corpus
        on_disk = json.loads((out / "manifest.json").read_text())
        assert on_disk == manifest
        for key, name in manifest["files"].items():
            if not name.endswith(".jsonl"):
                continue
            count_key = key if key in manifest["counts"] else None
            if count_key is None:
                continue
            n_lines = sum(1 for _ in read_jsonl(out / name))
            assert n_lines == manifest["counts"][count_key], name

    def test_gold_labels_consistent_with_b2e(self, corpus):
        out, _, _ = corpus
        dictionary = build_dictionary(read_b2e_tsv(out / "b2e.tsv"))
        for name in ("test.jsonl", "test_shared.jsonl", "test_variants.jsonl"):
            for record in read_jsonl(out / name):
                example = labeled_query_from_record(record)
                owners = dictionary.lookup(
                    example.query.store, example.brand_names[0]
                )
                if name == "test_variants.jsonl":
                    # Misspellings are deliberately absent from the registry.
                    assert not owners
                else:
                    assert set(example.entities) <= owners

    def test_branded_test_rows_are_unambiguous(self, corpus):
        out, _, _ = corpus
        dictionary = build_dictionary(read_b2e_tsv(out / "b2e.tsv"))
        for record in read_jsonl(out / "test.jsonl"):
            example = labeled_query_from_record(record)
            owners = dictionary.lookup(example.query.store, example.brand_names[0])
            assert len(owners) == 1

    def test_nonbranded_queries_contain_no_surface(self, corpus):
        out, _, _ = corpus
        dictionary = build_dictionary(read_b2e_tsv(out / "b2e.tsv"))
        detector = TrieDetector(dictionary)
        for record in read_jsonl(out / "nonbranded.jsonl"):
            example = labeled_query_from_record(record)
            assert detector.detect(example.query) is None
            assert example.entities == (NIL,)

    def test_weak_labels_recheckable(self, corpus):
        out, _, manifest = corpus
        records = list(read_jsonl(out / "weak_labels.jsonl"))
        assert 0 < len(records) < manifest["counts"]["engagement_logs"]
        for record in records:
            example = labeled_query_from_record(record)
            query_tokens = normalize(example.query.text).tokens
            brand_tokens = normalize(example.brand_names[0]).tokens
            n = len(brand_tokens)
            assert any(
                query_tokens[i : i + n] == brand_tokens
                for i in range(len(query_tokens) - n + 1)
            )

    def test_shared_slice_resolved_by_pt_filter(self, corpus):
        out, _, manifest = corpus
        assert manifest["counts"]["shared_pairs"] > 0
        assert manifest["counts"]["test_shared"] == 2 * manifest["counts"]["shared_pairs"]
        dictionary = build_dictionary(read_b2e_tsv(out / "b2e.tsv"))
        associations = mine_associations(
            read_associations_tsv(out / "pt_associations.tsv")
        )
        records = list(read_jsonl(out / "test_shared.jsonl"))
        oracle = OraclePtPredictor(
            {
                normalize(r["query"]["text"]).text: ProductType(r["pt"])
                for r in records
            }
        )
        config = LinkerConfig(
            detector=TrieDetector(dictionary),
            matcher=LexicalMatcher(dictionary),
            pt_predictor=oracle,
            associations=associations,
        )
        for record in records:
            example = labeled_query_from_record(record)
            result = link_two_stage(config, example.query)
            assert result.outcome is Outcome.SINGLE, example.query.text
            assert result.best.entity == example.entities[0]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CorpusSpec(n_entities=1)
        with pytest.raises(ValueError):
            CorpusSpec(surface_variants_per_entity=0)
        with pytest.raises(ValueError):
            CorpusSpec(surface_variants_per_entity=5)
        with pytest.raises(ValueError):
            CorpusSpec(languages=())
        with pytest.raises(ValueError):
            CorpusSpec(pt_space_size=1)
        with pytest.raises(ValueError):
            CorpusSpec(seed=-1)
