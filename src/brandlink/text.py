"""Query normalization and hashed n-gram featurization.

Normalization applies per-character Unicode compatibility folding plus case
folding and collapses whitespace.  A normalized text is its tokens joined
by single spaces, so every mention span is an offset into that text.

Featurization hashes word 1- and 2-grams and character 2- to 4-grams with
CRC-32 (scheme ``crc32/v1``) into a TF(-IDF) vector of ``dim`` buckets
with unit L2 norm.  The n-gram orders and the hash are fixed; artifacts
record them, so a loader refuses a model featurized any other way.

ASCII text, raw in :func:`normalize` and normalized in
:func:`hashed_counts`, takes a fast path that folds and encodes it whole;
other text is folded and encoded character by character.  Both paths give
the same bytes, as each function's docstring explains.
"""
from __future__ import annotations

import dataclasses
import math
import operator
import re
import unicodedata
import zlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

# The fixed featurizer: word n-gram orders 1..WORD_NGRAMS, the inclusive
# char n-gram order range, and the hashing scheme's name.  Artifacts
# record all three.
WORD_NGRAMS = 2
CHAR_NGRAMS = (2, 4)
HASH_NAME = "crc32/v1"
_FIXED_META = {
    "word_ngrams": WORD_NGRAMS,
    "char_ngrams": list(CHAR_NGRAMS),
    "hash_name": HASH_NAME,
}

_MIN_DIM = 2**16

# Codepoint ranges treated as CJK for the char-n-gram-only fallback.
_CJK_RANGES = (
    (0x3040, 0x30FF),   # hiragana, katakana
    (0x3400, 0x4DBF),   # CJK extension A
    (0x4E00, 0x9FFF),   # CJK unified ideographs
    (0xAC00, 0xD7AF),   # hangul syllables
    (0xF900, 0xFAFF),   # CJK compatibility ideographs
)
_CJK = re.compile("[" + "".join(f"{chr(lo)}-{chr(hi)}" for lo, hi in _CJK_RANGES) + "]")

# CRC-32 state after each n-gram kind's prefix: ``crc32(gram, _WORD_CRC)``
# equals ``crc32(b"w:" + gram)`` without building the concatenation.
_WORD_CRC = zlib.crc32(b"w:")
_CHAR_CRC = zlib.crc32(b"c:")


@lru_cache(maxsize=65536)
def _fold_char(ch: str) -> str:
    """Compatibility-fold one character to a form stable under refolding."""
    if "\ud800" <= ch <= "\udfff":  # a lone surrogate has no UTF-8 to hash
        return "\ufffd"
    out = unicodedata.normalize("NFKC", ch).casefold()
    while True:
        again = "".join(unicodedata.normalize("NFKC", c).casefold() for c in out)
        if again == out:
            return out
        out = again


@dataclass(frozen=True)
class NormalizedText:
    """Normalized text and its tokens: ``text`` is ``" ".join(tokens)``."""

    text: str
    tokens: tuple[str, ...]


def normalize(raw: str) -> NormalizedText:
    """Normalize a raw query string.

    Applies compatibility + case folding per character, collapses any
    whitespace run to a single space, and strips the ends.  Idempotent:
    normalizing the ``text`` of the result reproduces it.  A raw string
    that ``str.isascii`` accepts is folded by one ``str.lower``: NFKC
    leaves ASCII unchanged and case folding an ASCII letter lowers it, so
    that equals the per-character fold.

    Args:
        raw: Raw query text; may be empty.

    Returns:
        The normalized text with its tokens.
    """
    folded = raw.lower() if raw.isascii() else "".join(map(_fold_char, raw))
    tokens = tuple(folded.split())
    return NormalizedText(text=" ".join(tokens), tokens=tokens)


@dataclass(frozen=True, eq=False)
class IdfTable:
    """Dense per-bucket inverse document frequencies."""

    weights: np.ndarray  # float32, shape (dim,)
    n_docs: int

    def __post_init__(self) -> None:
        if self.n_docs < 1:
            raise ValueError("idf table requires at least one document")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("idf weights must be finite")
        self.weights.setflags(write=False)


@dataclass(frozen=True, eq=False)
class FeaturizerConfig:
    """Hashed n-gram featurizer parameters.

    ``dim`` must be at least 2**16 to keep hash collisions rare for catalog
    scale surface forms.  When ``idf`` is present, term frequencies are
    scaled by it.
    """

    dim: int = 2**20
    idf: IdfTable | None = None

    def __post_init__(self) -> None:
        # A bool or a float is not a bucket count.
        if type(self.dim) is not int or self.dim < _MIN_DIM:
            raise ValueError(f"dim must be an int of at least {_MIN_DIM}, not {self.dim!r}")
        if self.idf is not None and self.idf.weights.shape != (self.dim,):
            raise ValueError("idf table shape does not match dim")


def featurizer_to_meta(config: FeaturizerConfig) -> tuple[dict, dict[str, np.ndarray]]:
    """Artifact metadata and blobs that :func:`featurizer_from_meta` reads back."""
    meta = {
        "dim": config.dim,
        **_FIXED_META,
        "idf_docs": None if config.idf is None else config.idf.n_docs,
    }
    blobs = {} if config.idf is None else {"featurizer/idf": config.idf.weights}
    return meta, blobs


def featurizer_from_meta(meta: dict, blobs: dict[str, np.ndarray]) -> FeaturizerConfig:
    """Rebuild the featurizer written by :func:`featurizer_to_meta`.

    The idf table is served as the given blob, a view when it was read
    from an artifact, so it must already be float32.  Raises
    ``ValueError`` on n-gram orders or a hash other than the fixed ones,
    and ``TypeError`` on a ``dim`` or ``idf_docs`` that is not an integer.
    """
    for key, value in _FIXED_META.items():
        if meta[key] != value:
            raise ValueError(f"unsupported {key} {meta[key]!r}")
    idf = None
    if meta["idf_docs"] is not None:
        weights = blobs["featurizer/idf"]
        if weights.dtype != np.float32:
            raise ValueError("idf table must be float32")
        idf = IdfTable(weights=weights, n_docs=operator.index(meta["idf_docs"]))
    return FeaturizerConfig(dim=operator.index(meta["dim"]), idf=idf)


@dataclass(frozen=True, eq=False)
class SparseVector:
    """Immutable sparse vector with strictly increasing indices."""

    indices: np.ndarray  # int64, strictly increasing
    values: np.ndarray   # float64, finite
    dim: int

    def __post_init__(self) -> None:
        indices, values = self.indices, self.values
        if indices.shape != values.shape:
            raise ValueError("indices and values must have equal length")
        if len(indices) > 0:
            if indices[0] < 0 or indices[-1] >= self.dim:
                raise ValueError("indices out of range")
            if not (indices[1:] > indices[:-1]).all():
                raise ValueError("indices must be strictly increasing")
            if not np.isfinite(values).all():
                raise ValueError("values must be finite")
        indices.setflags(write=False)
        values.setflags(write=False)

    @classmethod
    def zero(cls, dim: int) -> SparseVector:
        return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64), dim)

    @property
    def nnz(self) -> int:
        return len(self.indices)


def hashed_counts(text: NormalizedText, config: FeaturizerConfig) -> dict[int, int]:
    """Raw term-frequency counts per hash bucket for one text.

    A word n-gram hashes as ``crc32(b"w:" + utf8) % dim`` and a character
    n-gram as ``crc32(b"c:" + utf8) % dim``.  ASCII text is encoded once
    and its character n-grams hashed as byte slices of that encoding.  One
    byte is one character there, so each slice is the n-gram's own UTF-8
    encoding: the buckets, and their insertion order, are those of the
    per-character path that other text takes.
    """
    counts: dict[int, int] = {}
    crc32, dim = zlib.crc32, config.dim
    s = text.text
    is_ascii = s.isascii()

    # Word n-grams over runs of non-CJK tokens; CJK tokens fall back to the
    # character n-grams alone.  ASCII text has no CJK token: one run.
    runs: list[tuple[str, ...] | list[str]] = []
    if is_ascii:
        runs.append(text.tokens)
    else:
        run: list[str] = []
        for token in text.tokens:
            if _CJK.search(token):
                if run:
                    runs.append(run)
                    run = []
            else:
                run.append(token)
        if run:
            runs.append(run)
    for tokens in runs:
        for n in range(1, WORD_NGRAMS + 1):
            for i in range(len(tokens) - n + 1):
                idx = crc32(" ".join(tokens[i : i + n]).encode("utf-8"), _WORD_CRC) % dim
                counts[idx] = counts.get(idx, 0) + 1

    lo, hi = CHAR_NGRAMS
    if is_ascii:
        b = s.encode("ascii")
        for n in range(lo, hi + 1):
            for i in range(len(b) - n + 1):
                idx = crc32(b[i : i + n], _CHAR_CRC) % dim
                counts[idx] = counts.get(idx, 0) + 1
    else:
        for n in range(lo, hi + 1):
            for i in range(len(s) - n + 1):
                idx = crc32(s[i : i + n].encode("utf-8"), _CHAR_CRC) % dim
                counts[idx] = counts.get(idx, 0) + 1

    return counts


def featurize(text: NormalizedText, config: FeaturizerConfig) -> SparseVector:
    """Featurize normalized text into a unit-norm hashed TF(-IDF) vector.

    Args:
        text: Output of :func:`normalize`.
        config: Featurizer parameters, optionally with a fitted idf table.

    Returns:
        A sparse vector of L2 norm 1, or the zero vector for empty input.
    """
    return _vector(hashed_counts(text, config), config)


def _vector(counts: dict[int, int], config: FeaturizerConfig) -> SparseVector:
    """The featurized vector of one text's :func:`hashed_counts`."""
    if not counts:
        return SparseVector.zero(config.dim)
    n = len(counts)
    keys = np.fromiter(counts, dtype=np.int64, count=n)
    order = keys.argsort()
    indices = keys[order]
    values = np.fromiter(counts.values(), dtype=np.float64, count=n)[order]
    if config.idf is not None:
        # float32 idf widens to float64 exactly.
        values *= config.idf.weights[indices]
    norm = math.sqrt(values @ values)
    if norm == 0.0:
        return SparseVector.zero(config.dim)
    values /= norm
    return SparseVector(indices, values, config.dim)


def vectorize(raw: str, config: FeaturizerConfig) -> SparseVector:
    """Shorthand for ``featurize(normalize(raw), config)``."""
    return featurize(normalize(raw), config)


def featurize_corpus(
    corpus: Iterable[NormalizedText], config: FeaturizerConfig
) -> tuple[FeaturizerConfig, list[SparseVector]]:
    """Fit smoothed inverse document frequencies, then featurize with them.

    For a corpus of N documents a bucket seen in df of them gets weight
    log((1 + N) / (1 + df)) + 1; unseen buckets get the df = 0 weight.
    Each document is hashed once: its counts serve both the fit and its
    vector, which equals :func:`featurize` under the fitted table.

    Args:
        corpus: Normalized documents; must be non-empty.
        config: Base featurizer parameters.

    Returns:
        A copy of ``config`` carrying the fitted idf table, and every
        document's vector under it, in corpus order.

    Raises:
        ValueError: If the corpus is empty.
    """
    counts = [hashed_counts(doc, config) for doc in corpus]
    if not counts:
        raise ValueError("cannot fit idf on an empty corpus")
    df = np.zeros(config.dim, dtype=np.int64)
    for buckets in counts:
        if buckets:
            df[np.fromiter(buckets.keys(), dtype=np.int64)] += 1
    n_docs = len(counts)
    weights = (np.log((1.0 + n_docs) / (1.0 + df)) + 1.0).astype(np.float32)
    fitted = dataclasses.replace(config, idf=IdfTable(weights=weights, n_docs=n_docs))
    return fitted, [_vector(doc_counts, fitted) for doc_counts in counts]
