"""Dataset construction: label sourcing and the synthetic corpus generator.

Three label sources feed training.  Catalog surface forms become pseudo
queries verbatim.  Annotated queries are strong labels; the generator
resolves each annotated surface to every entity that owns it.  Engagement
logs become weak labels when the association strength reaches the fixed
``STRENGTH_THRESHOLD`` and the product brand name occurs token-aligned
inside the query; nobody reviews those.  A strength is a finite,
non-negative int or float.

The synthetic corpus generator builds a small closed universe with the
same shape as production data: brand names with surface variants, product
type phrases, shared surfaces that only product type can disambiguate,
and held-out test slices.  Brand vocabulary and product-type vocabulary
use disjoint consonant sets, so a non-branded query can never contain a
brand surface.
"""
from __future__ import annotations

import dataclasses
import json
import logging
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .core import (
    NIL,
    BrandEntityId,
    LabeledQuery,
    Query,
    Source,
    StoreTag,
    _record,
    labeled_query_to_record,
    query_from_record,
    read_jsonl,
    write_jsonl,
)
from .gazetteer import BrandDictionary, build_dictionary
from .ptfilter import ProductType, PtAssociations, write_associations_tsv
from .text import normalize

LOGGER = logging.getLogger(__name__)

# Engagement strength at or above this counts as a strong association.
STRENGTH_THRESHOLD = 1.0

MANIFEST_NAME = "manifest.json"

_BRAND_CONSONANTS = "bdgkmnprst"
_PT_CONSONANTS = "cfhjlvwz"
_VOWELS = "aeiou"
_TRANSLIT = str.maketrans("aeiou", "äëïöü")

# Variant builders in fixed order; surface_variants_per_entity picks a prefix.
VARIANT_KINDS = ("full", "abbrev", "vowel_drop", "translit")


@dataclass(frozen=True, slots=True)
class EngagementRecord:
    """One query-product association from search logs."""

    query: Query
    product_brand_name: str
    association_strength: float

    def __post_init__(self) -> None:
        if not isinstance(self.product_brand_name, str):
            raise ValueError(
                f"product_brand_name must be a string, not {self.product_brand_name!r}"
            )
        # A bool is not a strength, and NaN fails both comparisons.
        strength = self.association_strength
        if type(strength) not in (int, float) or not 0 <= strength < math.inf:
            raise ValueError(
                f"association_strength must be a finite number >= 0, not {strength!r}"
            )


def augment_b2e(
    rows: Iterable[tuple[StoreTag, str, str]],
) -> Iterator[LabeledQuery]:
    """Turn catalog surface forms into pseudo queries, one per row.

    Rows whose entity id is empty or the NIL sentinel are skipped with a
    count; a surface cannot annotate itself as non-branded.
    """
    skipped = 0
    for store, surface, entity_id in rows:
        try:
            entity = BrandEntityId(entity_id)
        except ValueError:
            skipped += 1
            continue
        if entity.is_nil:
            skipped += 1
            continue
        yield LabeledQuery(
            query=Query(text=surface, store=store),
            brand_names=(surface,),
            entities=(entity,),
            source=Source.B2E,
        )
    if skipped:
        LOGGER.info("augment_b2e: skipped %d rows without a usable entity", skipped)


def _contains_token_run(haystack: tuple[str, ...], needle: tuple[str, ...]) -> bool:
    if not needle or len(needle) > len(haystack):
        return False
    return any(
        haystack[i : i + len(needle)] == needle
        for i in range(len(haystack) - len(needle) + 1)
    )


def gen_weak_labels(
    logs: Iterable[EngagementRecord], dictionary: BrandDictionary
) -> Iterator[LabeledQuery]:
    """Label queries from engagement logs, without human review.

    A log record becomes a weak label when its association strength
    reaches ``STRENGTH_THRESHOLD``, the product brand name occurs
    token-aligned inside the query text, and the brand name matches the
    dictionary.  Everything emitted is re-checkable: the brand name is
    verifiably a token run of its query.
    """
    emitted = 0
    seen = 0
    for record in logs:
        seen += 1
        if record.association_strength < STRENGTH_THRESHOLD:
            continue
        query_tokens = normalize(record.query.text).tokens
        brand = normalize(record.product_brand_name)
        if not _contains_token_run(query_tokens, brand.tokens):
            continue
        entities = dictionary.lookup(record.query.store, brand.text)
        if not entities:
            continue
        emitted += 1
        yield LabeledQuery(
            query=record.query,
            brand_names=(record.product_brand_name,),
            entities=tuple(sorted(entities, key=lambda e: e.id)),
            source=Source.WL,
        )
    LOGGER.info("gen_weak_labels: emitted %d of %d log records", emitted, seen)


def engagement_to_record(record: EngagementRecord) -> dict:
    out: dict = {
        "text": record.query.text,
        "store": record.query.store.code,
        "product_brand_name": record.product_brand_name,
        "strength": record.association_strength,
    }
    if record.query.language is not None:
        out["language"] = record.query.language
    return out


def engagement_from_record(record: dict) -> EngagementRecord:
    record = _record(record, "product_brand_name", "strength")
    return EngagementRecord(
        query=query_from_record(record),
        product_brand_name=record["product_brand_name"],
        association_strength=record["strength"],
    )


def read_engagement_jsonl(path: str | Path) -> Iterator[EngagementRecord]:
    for record in read_jsonl(path):
        yield engagement_from_record(record)


# ---------------------------------------------------------------------------
# Synthetic corpus.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CorpusSpec:
    """Size and seed of one synthetic universe.

    Branded and non-branded counts budget the training side; test slices
    are derived from them.  Every store is the single "global" store;
    languages only label queries for sliced reporting.
    """

    n_entities: int = 1000
    surface_variants_per_entity: int = 3
    languages: tuple[str, ...] = ("en",)
    n_branded_queries: int = 5000
    n_nonbranded_queries: int = 2000
    pt_space_size: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        # Each count's least value; a bool or a float is not a count.
        least = {"n_entities": 2, "surface_variants_per_entity": 1, "n_branded_queries": 1,
                 "n_nonbranded_queries": 1, "pt_space_size": 2, "seed": 0}
        for name, low in least.items():
            value = getattr(self, name)
            if type(value) is not int or value < low:
                raise ValueError(f"{name} must be an int of at least {low}, not {value!r}")
        if self.surface_variants_per_entity > len(VARIANT_KINDS):
            raise ValueError(f"surface_variants_per_entity must be at most {len(VARIANT_KINDS)}")
        # A string would be read as one language per character.
        langs = self.languages
        if not (type(langs) is tuple and langs and all(type(x) is str and x for x in langs)):
            raise ValueError(
                f"languages must be a non-empty tuple of non-empty strings, not {langs!r}"
            )


_STORE = StoreTag("global")

# Fraction of entities whose full name is deliberately shared with a
# second entity, exercising product-type disambiguation.
_SHARED_FRACTION = 0.15


@dataclass(frozen=True)
class _Entity:
    index: int
    entity_id: str
    syllables: tuple[str, ...]
    surfaces: tuple[str, ...]
    pts: tuple[str, ...]

    @property
    def full(self) -> str:
        return "".join(self.syllables)


def _syllable(rng: random.Random) -> str:
    s = rng.choice(_BRAND_CONSONANTS) + rng.choice(_VOWELS)
    if rng.random() < 0.4:
        s += rng.choice(_BRAND_CONSONANTS)
    return s


def _brand_name(rng: random.Random, used: set[str]) -> tuple[str, ...]:
    for attempt in range(20):
        count = 4 if attempt >= 5 else rng.choice((2, 3, 3, 4))
        syllables = tuple(_syllable(rng) for _ in range(count))
        if "".join(syllables) not in used:
            used.add("".join(syllables))
            return syllables
    raise RuntimeError("brand name space exhausted")


def _variants(syllables: tuple[str, ...], count: int) -> tuple[str, ...]:
    full = "".join(syllables)
    out = [full]
    if count >= 2:
        out.append("".join(s[0] for s in syllables))
    if count >= 3:
        dropped = "".join(c for c in full if c not in _VOWELS)
        out.append(dropped if len(dropped) >= 2 else full + full[0])
    if count >= 4:
        out.append(full.translate(_TRANSLIT))
    return tuple(out)


def _pt_words(rng: random.Random, n_types: int) -> dict[str, tuple[str, ...]]:
    used: set[str] = set()
    table: dict[str, tuple[str, ...]] = {}
    for i in range(n_types):
        words = []
        while len(words) < 3:
            word = "".join(
                rng.choice(_PT_CONSONANTS) + rng.choice(_VOWELS)
                for _ in range(rng.choice((2, 3)))
            )
            if word not in used:
                used.add(word)
                words.append(word)
        table[f"pt{i:03d}"] = tuple(words)
    return table


def _pt_phrase(rng: random.Random, words: tuple[str, ...]) -> str:
    return " ".join(rng.sample(words, rng.choice((1, 2))))


def _misspell(rng: random.Random, name: str, registry: set[str]) -> str | None:
    for _ in range(10):
        if rng.random() < 0.5 and len(name) >= 4:
            i = rng.randrange(len(name) - 1)
            cand = name[:i] + name[i + 1] + name[i] + name[i + 2 :]
        else:
            vowel_positions = [i for i, c in enumerate(name) if c in _VOWELS]
            if not vowel_positions:
                continue
            i = rng.choice(vowel_positions)
            cand = name[:i] + name[i + 1 :]
        if cand != name and cand not in registry and len(cand) >= 3:
            return cand
    return None


def gen_synthetic_corpus(spec: CorpusSpec, out_dir: str | Path) -> dict:
    """Generate one synthetic universe under ``out_dir``.

    The same spec always produces byte-identical files.  Returns the
    manifest, which is also written as manifest.json.

    Files: b2e.tsv, strong_labels.jsonl (with non-branded rows mixed in),
    engagement.jsonl plus its processed weak_labels.jsonl, pt_train.jsonl,
    pt_associations.tsv, and the test slices test.jsonl,
    test_shared.jsonl, test_variants.jsonl, nonbranded.jsonl.  Test rows
    carry an extra "pt" key with the gold product type.
    """
    rng = random.Random(spec.seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    pt_table = _pt_words(rng, spec.pt_space_size)
    pt_codes = tuple(pt_table)

    used_names: set[str] = set()
    entities: list[_Entity] = []
    for i in range(spec.n_entities):
        syllables = _brand_name(rng, used_names)
        pts = tuple(
            sorted(rng.sample(pt_codes, rng.randint(1, min(3, spec.pt_space_size - 1))))
        )
        entities.append(
            _Entity(
                index=i,
                entity_id=f"B{i:06d}",
                syllables=syllables,
                surfaces=_variants(syllables, spec.surface_variants_per_entity),
                pts=pts,
            )
        )

    # Deliberate sharing: entity B adopts A's full name in place of B's
    # last variant slot, and B's product types are re-drawn disjoint from
    # A's so the filter can tell them apart.
    shared_pairs: list[tuple[int, int, str]] = []
    if spec.surface_variants_per_entity >= 2:
        n_pairs = int(spec.n_entities * _SHARED_FRACTION / 2)
        for p in range(n_pairs):
            a, b = entities[2 * p], entities[2 * p + 1]
            remaining = [c for c in pt_codes if c not in a.pts]
            b_pts = tuple(
                sorted(rng.sample(remaining, min(len(remaining), rng.randint(1, 3))))
            )
            entities[2 * p + 1] = dataclasses.replace(
                b, surfaces=b.surfaces[:-1] + (a.full,), pts=b_pts
            )
            shared_pairs.append((a.index, b.index, a.full))

    surface_owners: dict[str, set[str]] = {}
    for entity in entities:
        for surface in entity.surfaces:
            surface_owners.setdefault(surface, set()).add(entity.entity_id)
    unambiguous = {s for s, owners in surface_owners.items() if len(owners) == 1}

    with open(out / "b2e.tsv", "w", encoding="utf-8") as handle:
        handle.write("store\tbrand_name\tentity_id\n")
        for entity in entities:
            for surface in entity.surfaces:
                handle.write(f"{_STORE.code}\t{surface}\t{entity.entity_id}\n")

    write_associations_tsv(
        PtAssociations(
            {
                BrandEntityId(entity.entity_id): frozenset(map(ProductType, entity.pts))
                for entity in entities
            }
        ),
        out / "pt_associations.tsv",
    )

    def language() -> str:
        return rng.choice(spec.languages)

    def labeled(
        text: str,
        brand_names: tuple[str, ...],
        entities: tuple[BrandEntityId, ...],
        pt: str | None = None,
    ) -> dict:
        # Every row draws its language last, after its text and product type.
        example = LabeledQuery(
            query=Query(text=text, store=_STORE, language=language()),
            brand_names=brand_names,
            entities=entities,
            source=Source.SL,
        )
        record = labeled_query_to_record(example)
        return record if pt is None else record | {"pt": pt}

    def branded_text(entity: _Entity) -> tuple[str, str, str]:
        surface = rng.choice(entity.surfaces)
        pt = rng.choice(entity.pts)
        return f"{surface} {_pt_phrase(rng, pt_table[pt])}", surface, pt

    def nonbranded_text() -> tuple[str, str]:
        pt = rng.choice(pt_codes)
        words = rng.sample(pt_table[pt], rng.choice((2, 3)))
        return " ".join(words), pt

    pt_rows: list[dict] = []

    # Strong labels: annotated branded queries resolved through the b2e
    # registry, mixed with annotated non-branded queries.
    n_sl_branded = spec.n_branded_queries // 2
    n_sl_nil = spec.n_nonbranded_queries // 2
    sl_records: list[dict] = []
    for _ in range(n_sl_branded):
        entity = rng.choice(entities)
        text, surface, pt = branded_text(entity)
        gold = tuple(
            BrandEntityId(e) for e in sorted(surface_owners[surface])
        )
        sl_records.append(labeled(text, (surface,), gold))
        pt_rows.append({"text": text, "store": _STORE.code, "pt": pt})
    for _ in range(n_sl_nil):
        text, pt = nonbranded_text()
        sl_records.append(labeled(text, (), (NIL,)))
        pt_rows.append({"text": text, "store": _STORE.code, "pt": pt})
    write_jsonl(out / "strong_labels.jsonl", sl_records)

    # Engagement logs: weak-label source with deliberate rejects, both
    # sub-threshold strengths and brand names absent from the query.
    n_logs = spec.n_branded_queries - n_sl_branded
    log_records: list[dict] = []
    for _ in range(n_logs):
        entity = rng.choice(entities)
        text, surface, pt = branded_text(entity)
        roll = rng.random()
        brand = surface
        strength = round(rng.uniform(1.0, 9.0), 3)
        if roll < 0.15:
            strength = round(rng.uniform(0.0, 0.999), 3)
        elif roll < 0.30:
            brand = rng.choice(entities).full
        record = EngagementRecord(
            query=Query(text=text, store=_STORE, language=language()),
            product_brand_name=brand,
            association_strength=strength,
        )
        log_records.append(engagement_to_record(record))
        pt_rows.append({"text": text, "store": _STORE.code, "pt": pt})
    write_jsonl(out / "engagement.jsonl", log_records)

    dictionary = build_dictionary(
        (_STORE, surface, entity.entity_id)
        for entity in entities
        for surface in entity.surfaces
    )
    weak = gen_weak_labels((engagement_from_record(r) for r in log_records), dictionary)
    n_weak = write_jsonl(
        out / "weak_labels.jsonl", (labeled_query_to_record(w) for w in weak)
    )

    write_jsonl(out / "pt_train.jsonl", pt_rows)

    # Held-out branded tests stick to unambiguous surfaces so each row
    # has one defensible gold entity.
    n_test = max(50, spec.n_branded_queries // 5)
    test_records: list[dict] = []
    for _ in range(n_test):
        while True:
            entity = rng.choice(entities)
            text, surface, pt = branded_text(entity)
            if surface in unambiguous:
                break
        test_records.append(
            labeled(text, (surface,), (BrandEntityId(entity.entity_id),), pt)
        )
    write_jsonl(out / "test.jsonl", test_records)

    # Shared-surface slice: the same surface under each owner's product
    # type; product type is the only disambiguating signal.
    shared_records: list[dict] = []
    all_surfaces = set(surface_owners)
    for a_idx, b_idx, surface in shared_pairs:
        for entity in (entities[a_idx], entities[b_idx]):
            pt = rng.choice(entity.pts)
            text = f"{surface} {_pt_phrase(rng, pt_table[pt])}"
            shared_records.append(
                labeled(text, (surface,), (BrandEntityId(entity.entity_id),), pt)
            )
    write_jsonl(out / "test_shared.jsonl", shared_records)

    # Misspelled variants never present in the registry: lexical matching
    # cannot see them, character n-grams can.
    variant_records: list[dict] = []
    for _ in range(n_test):
        entity = rng.choice(entities)
        cand = _misspell(rng, entity.full, all_surfaces)
        if cand is None:
            continue
        pt = rng.choice(entity.pts)
        text = f"{cand} {_pt_phrase(rng, pt_table[pt])}"
        variant_records.append(
            labeled(text, (cand,), (BrandEntityId(entity.entity_id),), pt)
        )
    write_jsonl(out / "test_variants.jsonl", variant_records)

    nonbranded_records: list[dict] = []
    for _ in range(spec.n_nonbranded_queries):
        text, pt = nonbranded_text()
        nonbranded_records.append(labeled(text, (), (NIL,), pt))
    write_jsonl(out / "nonbranded.jsonl", nonbranded_records)

    manifest = {
        "spec": dataclasses.asdict(spec) | {"languages": list(spec.languages)},
        "store": _STORE.code,
        "strength_threshold": STRENGTH_THRESHOLD,
        "counts": {
            "b2e_rows": spec.n_entities * spec.surface_variants_per_entity,
            "shared_pairs": len(shared_pairs),
            "strong_labels": len(sl_records),
            "engagement_logs": len(log_records),
            "weak_labels": n_weak,
            "pt_train": len(pt_rows),
            "test": len(test_records),
            "test_shared": len(shared_records),
            "test_variants": len(variant_records),
            "nonbranded": len(nonbranded_records),
        },
        "files": {
            "b2e": "b2e.tsv",
            "pt_associations": "pt_associations.tsv",
            "strong_labels": "strong_labels.jsonl",
            "engagement": "engagement.jsonl",
            "weak_labels": "weak_labels.jsonl",
            "pt_train": "pt_train.jsonl",
            "test": "test.jsonl",
            "test_shared": "test_shared.jsonl",
            "test_variants": "test_variants.jsonl",
            "nonbranded": "nonbranded.jsonl",
        },
    }
    with open(out / MANIFEST_NAME, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    LOGGER.info(
        "synthetic corpus at %s: %d entities, %d shared pairs",
        out,
        spec.n_entities,
        len(shared_pairs),
    )
    return manifest
