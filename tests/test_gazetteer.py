"""Dictionary build, exact matching, trie detection, artifact round-trip."""
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brandlink.binio import ArtifactFormatError, write_artifact
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
)
from brandlink.text import normalize

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
        mention = TrieDetector(dictionary).detect(Query("nike shoes", US))
        assert mention is not None
        assert mention.surface == "nike"
        assert mention.span == (0, 4)

    def test_longest_match_wins(self):
        dictionary = d(("us", "air", "E1"), ("us", "air max", "E2"))
        mention = TrieDetector(dictionary).detect(Query("air max shoes", US))
        assert mention is not None
        assert mention.surface == "air max"

    def test_leftmost_breaks_length_ties(self):
        dictionary = d(("us", "alpha", "E1"), ("us", "gamma", "E2"))
        mention = TrieDetector(dictionary).detect(Query("alpha then gamma", US))
        assert mention is not None
        assert mention.surface == "alpha"

    def test_absent_surface_gives_none(self):
        dictionary = d(("us", "nike", "E1"))
        assert TrieDetector(dictionary).detect(Query("red shoes", US)) is None

    def test_token_aligned_only(self):
        dictionary = d(("us", "son", "E1"))
        assert TrieDetector(dictionary).detect(Query("sonic screwdriver", US)) is None

    def test_normalization_applies_to_query(self):
        dictionary = d(("us", "nike", "E1"))
        mention = TrieDetector(dictionary).detect(Query("Red  NIKE Shoes", US))
        assert mention is not None
        assert mention.surface == "nike"

    @given(st.permutations([("us", "air", "E1"), ("us", "air max", "E2"), ("us", "max", "E3")]))
    def test_insertion_order_irrelevant(self, records):
        dictionary = d(*records)
        mention = TrieDetector(dictionary).detect(Query("air max", US))
        assert mention is not None
        assert mention.surface == "air max"

    def test_round_trip_every_entry(self):
        dictionary = d(("us", "nike", "E1"), ("us", "air max", "E2"), ("de", "puma", "E3"))
        for key, entities in dictionary.entries.items():
            query = Query(key.surface, key.store)
            mention = TrieDetector(dictionary).detect(query)
            assert mention is not None
            assert mention.surface == key.surface
            assert lexical_match(dictionary, mention, key.store) == entities


# Tokens whose normalized forms differ in length from the raw ones ("ß"
# upper-cases to "SS", "ﬁ" folds to "fi"), so a span must count characters
# of the normalized text, and spacing runs that normalize to one space.
TOKENS = ["a", "b", "ab", "ba", "abc", "ü", "ß", "ﬁ"]
SPACES = [" ", "  ", "\t", "\u3000"]


@st.composite
def spaced_text(draw, min_words, max_words):
    """Tokens from TOKENS in random case, with random spacing around them."""
    words = draw(st.lists(st.sampled_from(TOKENS), min_size=min_words, max_size=max_words))
    text = draw(st.sampled_from(["", *SPACES]))
    for k, word in enumerate(words):
        if k:
            text += draw(st.sampled_from(SPACES))
        text += word.upper() if draw(st.booleans()) else word
    return text + draw(st.sampled_from(["", *SPACES]))


def brute_force_detect(dictionary, query):
    """Every token-aligned slice of the normalized query that the store's
    dictionary holds; the longest in characters, the leftmost on ties."""
    text = normalize(query.text).text
    surfaces = {key.surface for key in dictionary.entries if key.store == query.store}
    starts = [i for i in range(len(text)) if i == 0 or text[i - 1] == " "]
    ends = [j for j in range(1, len(text) + 1) if j == len(text) or text[j] == " "]
    best = None
    for i in starts:
        for j in ends:
            if j > i and text[i:j] in surfaces and (best is None or j - i > best[1] - best[0]):
                best = (i, j)
    return None if best is None else BrandMention.from_text(text, *best)


@settings(max_examples=300, deadline=None)
@given(
    records=st.lists(
        st.tuples(st.sampled_from(["us", "de"]), spaced_text(1, 3)), max_size=6
    ),
    store=st.sampled_from(["us", "de", "jp"]),
    text=spaced_text(0, 6),
)
def test_detect_equals_brute_force(records, store, text):
    dictionary = d(*((s, surface, f"E{k}") for k, (s, surface) in enumerate(records)))
    query = Query(text, StoreTag(store))
    mention = TrieDetector(dictionary).detect(query)
    assert mention == brute_force_detect(dictionary, query)
    if mention is not None:
        start, end = mention.span
        assert normalize(text).text[start:end] == mention.surface


class TestSerialization:
    def test_save_load_round_trip(self, tmp_path):
        dictionary = d(("us", "nike", "E1"), ("us", "ab", "E1"), ("us", "ab", "E2"))
        path = tmp_path / "dict.blaf"
        save_dictionary(dictionary, path)
        loaded = load_dictionary(path)
        assert loaded.entries == dictionary.entries
        assert TrieDetector(loaded).detect(Query("ab shoes", US)).surface == "ab"

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.blaf", tmp_path / "b.blaf"
        save_dictionary(d(("us", "nike", "E1"), ("us", "puma", "E2")), a)
        save_dictionary(d(("us", "puma", "E2"), ("us", "nike", "E1")), b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "meta",
        [
            {"n_entries": 1},
            {"entries": [["us", "nike"]]},
            {"entries": [["us", "nike", "E1"]]},
            {"entries": [["us", "nike", [7]]]},
            {"entries": ["usnike"]},
            {"entries": [["us", "", ["E1"]]]},
            {"entries": [["us", "ni\x1fke", ["E1"]]]},
            {"entries": [["", "nike", ["E1"]]]},
            {"entries": [["us", "nike", []]]},
            {"entries": [["us", "nike", [""]]]},
            {"entries": [["us", "nike", ["E1", NIL_ID]]]},
            {"entries": [["us", "nike", ["E1"]], ["us", "nike", ["E2"]]]},
        ],
        ids=[
            "no-entries",
            "row-of-two",
            "ids-not-a-list",
            "id-not-a-string",
            "row-a-string",
            "empty-surface",
            "separator-surface",
            "empty-store",
            "no-ids",
            "empty-id",
            "nil-id",
            "key-twice",
        ],
    )
    def test_crafted_entries_rejected(self, tmp_path, meta):
        # Written through write_artifact, so the checksum is valid and only
        # the loader's entry checks stand between the rows and detection.
        path = tmp_path / "dict.blaf"
        write_artifact(path, "brand-dictionary", 1, meta, {})
        with pytest.raises(ArtifactFormatError):
            load_dictionary(path)

    @pytest.mark.parametrize(
        "surface", ["NIKE", "nike  air", " nike", "nike\tair", "\ufb01la", "ｎｉｋｅ"]
    )
    def test_unnormalized_surface_rejected(self, tmp_path, surface):
        # Detection walks the normalized query, so such a surface could
        # never be found; the error names the key among valid ones.
        path = tmp_path / "dict.blaf"
        entries = [["us", "adidas", ["E2"]], ["us", surface, ["E1"]], ["us", "zara", ["E3"]]]
        write_artifact(path, "brand-dictionary", 1, {"entries": entries}, {})
        with pytest.raises(ArtifactFormatError, match=re.escape(repr(f"us\x1f{surface}"))):
            load_dictionary(path)

    @settings(max_examples=200, deadline=None)
    @given(
        surface=st.text(
            st.one_of(
                st.sampled_from("ab \t\u3000\u00a0\u1680\x1c\x85"),
                st.characters(
                    categories=["Lu", "Mn", "Zs", "Cc", "Cf"], exclude_characters="\x1f"
                ),
                st.characters(exclude_characters="\x1f"),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_loads_exactly_the_normalized_surfaces(self, surface):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "dict.blaf"
            meta = {"entries": [["us", surface, ["E1"]]]}
            try:
                write_artifact(path, "brand-dictionary", 1, meta, {})
            except UnicodeEncodeError:  # a lone surrogate has no UTF-8
                return
            if normalize(surface).text == surface:
                assert len(load_dictionary(path)) == 1
            else:
                with pytest.raises(ArtifactFormatError, match="not normalized"):
                    load_dictionary(path)

    def test_normalized_surfaces_load(self, tmp_path):
        surfaces = ["nike air", "café", "日本", "h&m", "a-b"]
        assert all(normalize(s).text == s for s in surfaces)
        path = tmp_path / "dict.blaf"
        entries = [["us", s, ["E1"]] for s in surfaces]
        write_artifact(path, "brand-dictionary", 1, {"entries": entries}, {})
        assert len(load_dictionary(path)) == len(surfaces)


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
