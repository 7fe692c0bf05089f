"""Normalization and hashed TF-IDF featurization."""
import math
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from brandlink import text as text_module
from brandlink.text import (
    FeaturizerConfig,
    IdfTable,
    NormalizedText,
    SparseVector,
    featurize,
    featurize_corpus,
    hashed_counts,
    normalize,
    vectorize,
)

CFG = FeaturizerConfig(dim=2**16)


# normalize before ASCII took its fast path: every character folded on its
# own, kept as the reference the current one must equal.
def reference_normalize(raw: str) -> NormalizedText:
    tokens = tuple("".join(map(text_module._fold_char, raw)).split())
    return NormalizedText(text=" ".join(tokens), tokens=tokens)


# Every ASCII code point, so the separators str.split treats as whitespace
# (\x0b, \x0c, \x1c-\x1f) and the other controls are drawn.
_ASCII_TEXT = st.text(alphabet=st.sampled_from([chr(cp) for cp in range(128)]), max_size=60)
# Full Unicode, lone surrogates included.
_UNICODE_TEXT = st.text(
    alphabet=st.one_of(
        st.characters(exclude_categories=()),
        st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF, exclude_categories=()),
    ),
    max_size=40,
)


class TestNormalize:
    def test_fold_and_collapse(self):
        out = normalize("Red  NIKE Shoes ")
        assert out.text == "red nike shoes"
        assert out.tokens == ("red", "nike", "shoes")

    @given(raw=st.one_of(_UNICODE_TEXT, _ASCII_TEXT))
    def test_equals_reference(self, raw):
        assert normalize(raw) == reference_normalize(raw)

    def test_ascii_skips_the_per_character_fold(self, monkeypatch):
        calls = []
        fold = text_module._fold_char

        def counted(ch):
            calls.append(ch)
            return fold(ch)

        monkeypatch.setattr(text_module, "_fold_char", counted)
        assert normalize("Nike  Air\tMAX 90").text == "nike air max 90"
        assert calls == []
        assert normalize("Straße ＡＢ").text == "strasse ab"
        assert calls == list("Straße ＡＢ")

    def test_empty(self):
        out = normalize("")
        assert out.text == ""
        assert out.tokens == ()

    def test_fullwidth_compatibility(self):
        assert normalize("ＮＩＫＥ").text == "nike"

    def test_lone_surrogate_becomes_replacement_character(self):
        # A lone surrogate has no UTF-8 encoding, so hashing it would raise.
        out = normalize("ni\ud800ke \udfff")
        assert out.text == "ni\ufffdke \ufffd"
        assert normalize(out.text) == out
        assert vectorize(out.text, CFG).nnz > 0

    @given(st.text(max_size=40))
    def test_idempotent(self, raw):
        once = normalize(raw)
        again = normalize(once.text)
        assert again.text == once.text
        assert again.tokens == once.tokens

    @given(st.text(max_size=40))
    def test_no_double_spaces_or_edge_spaces(self, raw):
        text = normalize(raw).text
        assert "  " not in text
        assert text == text.strip()

    @given(st.text(max_size=40))
    def test_text_is_its_tokens_joined_by_spaces(self, raw):
        out = normalize(raw)
        assert out.text == " ".join(out.tokens)
        assert all(token and " " not in token for token in out.tokens)

    @given(st.text(max_size=30), st.text(max_size=30))
    def test_concatenation_joins_non_empty_parts(self, a, b):
        parts = [normalize(a).text, normalize(b).text]
        joined = normalize(a + " " + b).text
        assert joined == " ".join(part for part in parts if part)


def cosine(a: SparseVector, b: SparseVector) -> float:
    """Reference cosine over dense copies of both vectors."""
    da, db = np.zeros(a.dim), np.zeros(b.dim)
    da[a.indices], db[b.indices] = a.values, b.values
    denom = np.linalg.norm(da) * np.linalg.norm(db)
    return float(da @ db / denom) if denom else 0.0


def char_ngram_set(text: str, lo: int = 2, hi: int = 4) -> set:
    """Exhaustive character n-gram reference, independent of hashing."""
    grams = set()
    for n in range(lo, hi + 1):
        for i in range(len(text) - n + 1):
            grams.add(text[i : i + n])
    return grams


class TestFeaturize:
    def test_deterministic(self):
        a = vectorize("nike", CFG)
        b = vectorize("nike", CFG)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.values, b.values)

    def test_unit_norm(self):
        vec = vectorize("nike shoes", CFG)
        assert np.dot(vec.values, vec.values) == pytest.approx(1.0)

    def test_empty_gives_zero_vector(self):
        vec = vectorize("", CFG)
        assert vec.nnz == 0
        assert np.linalg.norm(vec.values) == 0.0

    def test_misspelling_beats_unrelated_brand(self):
        # Reference check first: the shared-gram count ordering must hold
        # at the raw n-gram level before trusting the hashed version.
        base = char_ngram_set("nike")
        assert len(base & char_ngram_set("nikee")) > len(base & char_ngram_set("sony"))
        nike = vectorize("nike", CFG)
        assert cosine(nike, vectorize("nikee", CFG)) > cosine(nike, vectorize("sony", CFG))

    def test_cjk_text_featurizes_without_word_grams(self):
        vec = vectorize("ナイキ", CFG)
        assert vec.nnz > 0
        assert np.linalg.norm(vec.values) == pytest.approx(1.0)

    @given(st.text(min_size=1, max_size=30))
    def test_norm_is_one_or_zero(self, raw):
        vec = vectorize(raw, CFG)
        assert np.linalg.norm(vec.values) == pytest.approx(1.0) or vec.nnz == 0


# The per-gram implementation of hashed_counts before it was sped up, kept
# as the reference the current one must equal bucket for bucket.
_REFERENCE_CJK_RANGES = (
    (0x3040, 0x30FF),
    (0x3400, 0x4DBF),
    (0x4E00, 0x9FFF),
    (0xAC00, 0xD7AF),
    (0xF900, 0xFAFF),
)


# The fixed featurizer: word 1- and 2-grams, char 2- to 4-grams.
def reference_hashed_counts(text, config) -> dict[int, int]:
    def is_cjk(ch):
        return any(lo <= ord(ch) <= hi for lo, hi in _REFERENCE_CJK_RANGES)

    counts: dict[int, int] = {}
    run: list[str] = []
    runs: list[list[str]] = []
    for token in text.tokens:
        if any(is_cjk(c) for c in token):
            if run:
                runs.append(run)
                run = []
        else:
            run.append(token)
    if run:
        runs.append(run)
    for tokens in runs:
        for n in (1, 2):
            for i in range(len(tokens) - n + 1):
                key = b"w:" + " ".join(tokens[i : i + n]).encode("utf-8")
                idx = zlib.crc32(key) % config.dim
                counts[idx] = counts.get(idx, 0) + 1
    s = text.text
    for n in (2, 3, 4):
        for i in range(len(s) - n + 1):
            key = b"c:" + s[i : i + n].encode("utf-8")
            idx = zlib.crc32(key) % config.dim
            counts[idx] = counts.get(idx, 0) + 1
    return counts


# Latin, CJK (every range edge included), hangul, combining marks, controls
# and whitespace, so word runs break and resume at CJK tokens.
_MIXED_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from("abcxyz019 -'&\t\n\u3000"),
        st.sampled_from(
            [chr(cp) for lo, hi in _REFERENCE_CJK_RANGES for cp in (lo - 1, lo, hi, hi + 1)]
        ),
        st.characters(min_codepoint=0x4E00, max_codepoint=0x4E20),
        st.characters(categories=["Mn", "Cc", "Cf", "Zs"]),
        st.characters(),
    ),
    max_size=60,
)


# featurize before its per-call cost was cut, kept as the reference the
# current one must equal bit for bit.
def reference_featurize(text, config) -> SparseVector:
    counts = hashed_counts(text, config)
    if not counts:
        return SparseVector.zero(config.dim)
    keys = sorted(counts)
    indices = np.array(keys, dtype=np.int64)
    values = np.array([counts[k] for k in keys], dtype=np.float64)
    if config.idf is not None:
        values = values * config.idf.weights[indices].astype(np.float64)
    norm = float(np.sqrt(np.dot(values, values)))
    if norm == 0.0:
        return SparseVector.zero(config.dim)
    return SparseVector(indices, values / norm, config.dim)


_DIMS = [2**16, 2**18, 2**20, 2**16 + 7]
# One idf table per dim, fitted on a few documents so weights vary per bucket.
_IDF_CONFIGS = {
    dim: featurize_corpus(
        (normalize(t) for t in ("nike air", "sony tv 4k", "鞋子 nike", "usb cable", "a")),
        FeaturizerConfig(dim=dim),
    )[0]
    for dim in _DIMS
}


class TestFeaturizeReference:
    @given(
        raw=st.one_of(_MIXED_TEXT, _ASCII_TEXT), dim=st.sampled_from(_DIMS), idf=st.booleans()
    )
    def test_equals_reference(self, raw, dim, idf):
        config = _IDF_CONFIGS[dim] if idf else FeaturizerConfig(dim=dim)
        text = normalize(raw)
        got, want = featurize(text, config), reference_featurize(text, config)
        assert got.dim == want.dim
        assert got.indices.dtype == want.indices.dtype
        assert got.values.dtype == want.values.dtype
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.values, want.values)


class TestHashedCounts:
    @given(raw=st.one_of(_MIXED_TEXT, _ASCII_TEXT), dim=st.sampled_from(_DIMS))
    def test_equals_reference(self, raw, dim):
        config = FeaturizerConfig(dim=dim)
        text = normalize(raw)
        # Insertion order too, not only the buckets.
        got, want = hashed_counts(text, config), reference_hashed_counts(text, config)
        assert list(got.items()) == list(want.items())

    def test_prefix_state_matches_concatenation(self):
        for gram in (b"", b"a", b"nike shoes", "鞋子".encode("utf-8")):
            assert zlib.crc32(gram, zlib.crc32(b"c:")) == zlib.crc32(b"c:" + gram)
            assert zlib.crc32(gram, zlib.crc32(b"w:")) == zlib.crc32(b"w:" + gram)


class TestSparseVector:
    @staticmethod
    def assert_rejected(cases):
        for indices, values in cases:
            with pytest.raises(ValueError):
                SparseVector(np.array(indices, dtype=np.int64), np.array(values), 10)

    def test_rejects_unsorted_indices(self):
        self.assert_rejected([([3, 1], [1.0, 1.0]), ([1, 1], [1.0, 1.0])])

    def test_rejects_out_of_range(self):
        self.assert_rejected([([-1, 2], [1.0, 1.0]), ([10], [1.0])])

    def test_rejects_non_finite(self):
        self.assert_rejected([([1], [np.nan]), ([1], [np.inf]), ([1, 2], [1.0, -np.inf])])

    def test_rejects_shape_mismatch(self):
        self.assert_rejected([([1, 2], [1.0])])

    def test_accepts_the_range_edges(self):
        vec = SparseVector(np.array([0, 9]), np.array([-1.0, 1.0]), 10)
        assert vec.nnz == 2
        assert not vec.indices.flags.writeable and not vec.values.flags.writeable

    def test_zero(self):
        z = SparseVector.zero(16)
        assert z.nnz == 0 and z.dim == 16


class TestConfig:
    def test_minimum_dim_enforced(self):
        with pytest.raises(ValueError):
            FeaturizerConfig(dim=2**15)

    @pytest.mark.parametrize(
        "dim", [65536.5, float(2**16), "65536"], ids=["fraction", "float", "str"]
    )
    def test_dim_must_be_an_int(self, dim):
        with pytest.raises(ValueError, match="dim"):
            FeaturizerConfig(dim=dim)


class TestIdf:
    def test_single_document_weights(self):
        cfg, _ = featurize_corpus([normalize("nike shoes")], CFG)
        buckets = hashed_counts(normalize("nike shoes"), cfg)
        for bucket in buckets:
            assert cfg.idf.weights[bucket] == pytest.approx(math.log(2 / 2) + 1)

    def test_absent_feature_weight(self):
        cfg, _ = featurize_corpus([normalize("nike shoes")], CFG)
        absent = hashed_counts(normalize("zzqqy"), cfg)
        fresh = set(absent) - set(hashed_counts(normalize("nike shoes"), cfg))
        assert fresh
        for bucket in fresh:
            assert cfg.idf.weights[bucket] == pytest.approx(math.log(2 / 1) + 1)

    def test_rarer_feature_weighs_more(self):
        docs = [normalize("nike shoes"), normalize("nike socks")]
        cfg, _ = featurize_corpus(docs, CFG)
        shared = set(hashed_counts(docs[0], cfg)) & set(hashed_counts(docs[1], cfg))
        only_first = set(hashed_counts(docs[0], cfg)) - shared
        assert shared and only_first
        assert max(cfg.idf.weights[b] for b in shared) < min(
            cfg.idf.weights[b] for b in only_first
        )

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            featurize_corpus([], CFG)

    @given(raws=st.lists(_MIXED_TEXT, min_size=1, max_size=6))
    def test_vectors_equal_featurize_under_the_fitted_table(self, raws):
        docs = [normalize(raw) for raw in raws]
        fitted, vectors = featurize_corpus(docs, CFG)
        df = np.zeros(CFG.dim)
        for doc in docs:
            df[list(hashed_counts(doc, CFG))] += 1
        want = (np.log((1.0 + len(docs)) / (1.0 + df)) + 1.0).astype(np.float32)
        assert fitted.idf.n_docs == len(docs)
        assert fitted.idf.weights.tobytes() == want.tobytes()
        assert len(vectors) == len(docs)
        for doc, got in zip(docs, vectors):
            expected = featurize(doc, fitted)
            assert got.indices.tobytes() == expected.indices.tobytes()
            assert got.values.tobytes() == expected.values.tobytes()

    def test_each_document_hashed_once(self, monkeypatch):
        calls = []

        def counted(text, config):
            calls.append(text)
            return hashed_counts(text, config)

        monkeypatch.setattr(text_module, "hashed_counts", counted)
        docs = [normalize(t) for t in ("nike shoes", "red shoes", "nike shoes", "")]
        featurize_corpus(docs, CFG)
        assert calls == docs

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, bad):
        weights = np.ones(CFG.dim, dtype=np.float32)
        weights[7] = bad
        with pytest.raises(ValueError):
            IdfTable(weights=weights, n_docs=1)

    def test_idf_changes_vector_not_norm(self):
        cfg, _ = featurize_corpus([normalize("nike shoes"), normalize("red shoes")], CFG)
        plain = vectorize("nike shoes", CFG)
        weighted = vectorize("nike shoes", cfg)
        assert np.linalg.norm(weighted.values) == pytest.approx(1.0)
        assert not (
            np.array_equal(plain.indices, weighted.indices)
            and np.allclose(plain.values, weighted.values)
        )
