"""Dictionary build, exact matching, trie detection, artifact round-trip."""
import pytest
from hypothesis import given
from hypothesis import strategies as st

from brandlink.core import (
    NIL_ID,
    BrandEntityId,
    BrandMention,
    Query,
    StoreTag,
)
from brandlink.gazetteer import (
    SurfaceFormKey,
    TrieDetector,
    build_dictionary,
    lexical_match,
    load_dictionary,
    read_b2e_tsv,
    save_dictionary,
    trie_detect,
)

US = StoreTag("us")
DE = StoreTag("de")


def d(*records):
    return build_dictionary(
        [(StoreTag(s), surface, entity) for s, surface, entity in records]
    )


class TestBuildDictionary:
    def test_single_entry(self):
        dictionary = d(("us", "nike", "E1"))
        assert dictionary.lookup(US, "nike") == {BrandEntityId("E1")}

    def test_shared_surface_collects_all_entities(self):
        dictionary = d(("us", "ab", "E1"), ("us", "ab", "E2"))
        assert dictionary.lookup(US, "ab") == {
            BrandEntityId("E1"),
            BrandEntityId("E2"),
        }

    def test_store_isolation(self):
        dictionary = d(("us", "x", "E1"), ("de", "x", "E2"))
        assert dictionary.lookup(US, "x") == {BrandEntityId("E1")}
        assert dictionary.lookup(DE, "x") == {BrandEntityId("E2")}

    def test_surfaces_normalized_and_deduplicated(self):
        dictionary = d(("us", "NIKE", "E1"), ("us", "nike ", "E1"))
        assert len(dictionary) == 1
        assert dictionary.lookup(US, "nike") == {BrandEntityId("E1")}

    def test_bad_records_counted_not_raised(self):
        dictionary = d(
            ("us", "nike", "E1"),
            ("us", "", "E2"),
            ("us", "ok", ""),
            ("us", "nilish", NIL_ID),
        )
        assert dictionary.rejected == 3
        assert len(dictionary) == 1


class TestLexicalMatch:
    def test_hit(self):
        dictionary = d(("us", "nike", "E1"))
        mention = BrandMention.from_text("nike", 0, 4)
        assert lexical_match(dictionary, mention, US) == {BrandEntityId("E1")}

    def test_no_fuzz(self):
        dictionary = d(("us", "nike", "E1"))
        mention = BrandMention.from_text("nikee", 0, 5)
        assert lexical_match(dictionary, mention, US) == frozenset()

    def test_wrong_store_misses(self):
        dictionary = d(("us", "nike", "E1"))
        mention = BrandMention.from_text("nike", 0, 4)
        assert lexical_match(dictionary, mention, StoreTag("jp")) == frozenset()


class TestTrieDetect:
    def test_single_candidate(self):
        dictionary = d(("us", "nike", "E1"))
        mention = trie_detect(dictionary, Query("nike shoes", US))
        assert mention is not None
        assert mention.surface == "nike"
        assert mention.span == (0, 4)

    def test_longest_match_wins(self):
        dictionary = d(("us", "air", "E1"), ("us", "air max", "E2"))
        mention = trie_detect(dictionary, Query("air max shoes", US))
        assert mention is not None
        assert mention.surface == "air max"

    def test_leftmost_breaks_length_ties(self):
        dictionary = d(("us", "alpha", "E1"), ("us", "gamma", "E2"))
        mention = trie_detect(dictionary, Query("alpha then gamma", US))
        assert mention is not None
        assert mention.surface == "alpha"

    def test_absent_surface_gives_none(self):
        dictionary = d(("us", "nike", "E1"))
        assert trie_detect(dictionary, Query("red shoes", US)) is None

    def test_token_aligned_only(self):
        dictionary = d(("us", "son", "E1"))
        assert trie_detect(dictionary, Query("sonic screwdriver", US)) is None

    def test_normalization_applies_to_query(self):
        dictionary = d(("us", "nike", "E1"))
        mention = trie_detect(dictionary, Query("Red  NIKE Shoes", US))
        assert mention is not None
        assert mention.surface == "nike"

    @given(st.permutations([("us", "air", "E1"), ("us", "air max", "E2"), ("us", "max", "E3")]))
    def test_insertion_order_irrelevant(self, records):
        dictionary = d(*records)
        mention = trie_detect(dictionary, Query("air max", US))
        assert mention is not None
        assert mention.surface == "air max"

    def test_round_trip_every_entry(self):
        dictionary = d(("us", "nike", "E1"), ("us", "air max", "E2"), ("de", "puma", "E3"))
        for key, entities in dictionary.entries.items():
            query = Query(key.surface, key.store)
            mention = trie_detect(dictionary, query)
            assert mention is not None
            assert mention.surface == key.surface
            assert lexical_match(dictionary, mention, key.store) == entities


class TestDetectors:
    def test_trie_detector_wraps_trie_detect(self):
        dictionary = d(("us", "nike", "E1"))
        assert TrieDetector(dictionary).detect(Query("nike shoes", US)).surface == "nike"


class TestSerialization:
    def test_save_load_round_trip(self, tmp_path):
        dictionary = d(("us", "nike", "E1"), ("us", "ab", "E1"), ("us", "ab", "E2"))
        path = tmp_path / "dict.blaf"
        save_dictionary(dictionary, path)
        loaded = load_dictionary(path)
        assert loaded.entries == dictionary.entries
        assert trie_detect(loaded, Query("ab shoes", US)).surface == "ab"

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.blaf", tmp_path / "b.blaf"
        save_dictionary(d(("us", "nike", "E1"), ("us", "puma", "E2")), a)
        save_dictionary(d(("us", "puma", "E2"), ("us", "nike", "E1")), b)
        assert a.read_bytes() == b.read_bytes()


class TestB2eTsv:
    def test_reads_rows_with_header(self, tmp_path):
        path = tmp_path / "b2e.tsv"
        path.write_text(
            "store\tbrand_name\tentity_id\nus\tnike\tE1\nde\tpuma\tE2\n",
            encoding="utf-8",
        )
        rows = list(read_b2e_tsv(path))
        assert rows == [(US, "nike", "E1"), (DE, "puma", "E2")]

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "b2e.tsv"
        path.write_text("a\tb\tc\nus\tnike\tE1\n", encoding="utf-8")
        with pytest.raises(ValueError):
            list(read_b2e_tsv(path))


def test_surface_form_key_rejects_separator():
    with pytest.raises(ValueError):
        SurfaceFormKey(US, "a\x1fb")
