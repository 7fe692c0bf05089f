"""Brand name dictionary with store-scoped keys and trie-based detection.

Surface forms are keyed by store so stores with disjoint catalogs never see
each other's brands; the same surface is simply duplicated under every store
that carries it.  Detection walks a token-level trie over the normalized
query's tokens and returns the longest token-aligned match.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .binio import ArtifactFormatError, read_artifact, write_artifact
from .core import (
    KEY_SEPARATOR,
    NIL,
    BrandEntityId,
    BrandMention,
    Query,
    StoreTag,
    read_tsv,
)
from .text import _fold_char, normalize

LOGGER = logging.getLogger(__name__)

# Terminal marker inside trie nodes; never a valid token.
_END = None

_B2E_HEADER = ("store", "brand_name", "entity_id")

_DICTIONARY_KIND = "brand-dictionary"
_DICTIONARY_VERSION = 1


@dataclass(frozen=True, slots=True)
class SurfaceFormKey:
    """Store-scoped dictionary key for one surface form."""

    store: StoreTag
    surface: str

    def __post_init__(self) -> None:
        if not self.surface:
            raise ValueError("surface must be non-empty")
        if KEY_SEPARATOR in self.surface:
            raise ValueError("surface must not contain the key separator")

    @property
    def encoded(self) -> str:
        """Flat string form: store code, separator, surface."""
        return f"{self.store.code}{KEY_SEPARATOR}{self.surface}"


class BrandDictionary:
    """Immutable surface-form index over one or more stores."""

    def __init__(
        self,
        entries: dict[SurfaceFormKey, frozenset[BrandEntityId]],
        rejected: int = 0,
    ) -> None:
        for key, entities in entries.items():
            if not entities:
                raise ValueError(f"key {key.encoded!r} maps to no entities")
        self._entries = dict(entries)
        self.rejected = rejected
        self._tries: dict[str, dict] = {}
        for key in self._entries:
            root = self._tries.setdefault(key.store.code, {})
            node = root
            for token in key.surface.split(" "):
                node = node.setdefault(token, {})
            node[_END] = True

    @property
    def entries(self) -> dict[SurfaceFormKey, frozenset[BrandEntityId]]:
        return dict(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, store: StoreTag, surface: str) -> frozenset[BrandEntityId]:
        return self._entries.get(SurfaceFormKey(store, surface), frozenset())

    def store_trie(self, store: StoreTag) -> dict | None:
        return self._tries.get(store.code)


def build_dictionary(
    records: Iterable[tuple[StoreTag, str, str]],
) -> BrandDictionary:
    """Build a dictionary from (store, surface, entity id) records.

    Surfaces are normalized, duplicates are merged, and records that make
    no valid :class:`SurfaceFormKey` or carry an unusable entity id (empty,
    or the NIL sentinel) are rejected and counted rather than raised.

    Args:
        records: Raw dictionary rows, typically from :func:`read_b2e_tsv`.

    Returns:
        The built dictionary; ``rejected`` carries the bad-record count.
    """
    accepted: dict[SurfaceFormKey, set[BrandEntityId]] = {}
    rejected = 0
    for store, surface, entity_id in records:
        try:
            key = SurfaceFormKey(store, normalize(surface).text)
            entity = BrandEntityId(entity_id)
        except ValueError:
            rejected += 1
            continue
        if entity.is_nil:
            rejected += 1
            continue
        accepted.setdefault(key, set()).add(entity)
    if rejected:
        LOGGER.info("dictionary build rejected %d records", rejected)
    return BrandDictionary(
        {key: frozenset(ids) for key, ids in accepted.items()},
        rejected=rejected,
    )


def lexical_match(
    dictionary: BrandDictionary,
    mention: BrandMention,
    store: StoreTag,
) -> frozenset[BrandEntityId]:
    """Exact surface-form lookup; no fuzzy matching of any kind."""
    return dictionary.lookup(store, mention.surface)


class TrieDetector:
    """Finds the longest token-aligned dictionary surface in a query.

    Ties on character length go to the leftmost start.  A mention's span
    is an offset into the normalized query text.
    """

    def __init__(self, dictionary: BrandDictionary) -> None:
        self._dictionary = dictionary

    def detect(self, query: Query) -> BrandMention | None:
        root = self._dictionary.store_trie(query.store)
        if root is None:
            return None
        nt = normalize(query.text)
        best_start = best_end = start = 0
        for i, first in enumerate(nt.tokens):
            node, end = root, start  # walk the surfaces starting at ``first``
            for token in nt.tokens[i:]:
                node = node.get(token)
                if node is None:
                    break
                end += len(token)
                if _END in node and end - start > best_end - best_start:
                    best_start, best_end = start, end
                end += 1
            start += len(first) + 1
        return BrandMention.from_text(nt.text, best_start, best_end) if best_end else None


def read_b2e_tsv(path: str | Path) -> Iterator[tuple[StoreTag, str, str]]:
    """Read dictionary rows from a headered TSV file.

    Yields (store, surface, entity id) triples with surface and id left
    raw; validation happens in :func:`build_dictionary`.

    Raises:
        ValueError: On a missing or wrong header, rows without 3 fields,
            or an empty store code.
    """
    for line_no, (store, surface, entity_id) in read_tsv(path, _B2E_HEADER):
        if not store:
            raise ValueError(f"{path}:{line_no}: empty store code")
        yield StoreTag(store), surface, entity_id


def save_dictionary(dictionary: BrandDictionary, path: str | Path) -> None:
    """Serialize a dictionary snapshot to a binary artifact file."""
    rows = sorted(
        (key.store.code, key.surface, sorted(e.id for e in ids))
        for key, ids in dictionary.entries.items()
    )
    write_artifact(
        path,
        kind=_DICTIONARY_KIND,
        kind_version=_DICTIONARY_VERSION,
        meta={"entries": rows, "n_entries": len(rows)},
        blobs={},
    )


def load_dictionary(path: str | Path) -> BrandDictionary:
    """Load a snapshot written by :func:`save_dictionary`.

    Raises:
        ArtifactFormatError: Wrong file type or artifact kind, or an entry
            that is not a ``[store, surface, [entity ids]]`` row with a
            valid key not stored before, a surface in normalized form
            (which alone can be detected), and at least one id, none NIL.
        ArtifactVersionError: Unsupported container or dictionary version.
        ArtifactChecksumError: Corrupted payload.
        ArtifactTruncatedError: Incomplete file.
    """
    meta, _ = read_artifact(path, kind=_DICTIONARY_KIND, kind_version=_DICTIONARY_VERSION)
    entries: dict[SurfaceFormKey, frozenset[BrandEntityId]] = {}
    try:
        for store, surface, ids in meta["entries"]:
            if not isinstance(ids, list):
                raise ValueError("an entry is not [store, surface, [entity ids]]")
            key = SurfaceFormKey(StoreTag(store), surface)
            if key in entries:
                raise ValueError(f"key {key.encoded!r} is stored twice")
            if " ".join(surface.split()) != surface:
                raise ValueError(f"key {key.encoded!r} is not normalized")
            entities = frozenset(map(BrandEntityId, ids))
            if NIL in entities:
                raise ValueError(f"key {key.encoded!r} maps to the NIL entity")
            entries[key] = entities
        # A surface that passed the spacing check is normalized exactly when
        # each of its characters folds to itself; checking each distinct
        # character once is far cheaper than normalizing every surface.
        chars = set("".join(key.surface for key in entries))
        unfolded = {ch for ch in chars if _fold_char(ch) != ch}
        if unfolded:
            key = next(k for k in entries if not unfolded.isdisjoint(k.surface))
            raise ValueError(f"key {key.encoded!r} is not normalized")
        return BrandDictionary(entries)
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactFormatError(f"{path}: inconsistent dictionary: {exc}") from exc
