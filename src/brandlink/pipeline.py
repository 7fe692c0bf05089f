"""The three linkers wired end to end, plus the fusion post-processor.

Two-stage linking detects a brand mention and resolves it with either an
exact dictionary lookup or the mention-to-entity model.  End-to-end
linking maps the whole query straight to a ranked entity list, NIL
included.  Fusion runs both and gives the two-stage branch priority.

Both linkers narrow their candidates with the product-type filter and
then decide here: two-stage answers only when exactly one candidate
survives, end-to-end answers with its best survivor.  Either way a
surviving NIL is the Nil outcome.

Every linker is a pure function of its configuration and query: all
failure modes come back as LinkResult outcomes, never as exceptions, and
repeated calls return identical results.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .core import LinkResult, Outcome, Query, ScoredEntity, TraceRecord
from .gazetteer import BrandDictionary, TrieDetector, lexical_match
from .ptfilter import PtAssociations, PtPredictor, filter_candidates
from .xmc import BeamParams, XmcModel, m2e_match, q2e_predict

# Exact dictionary hits carry full confidence.
LEXICAL_SCORE = 1.0


@dataclass(frozen=True, slots=True)
class LexicalMatcher:
    """Stage-2 resolution by exact surface lookup."""

    dictionary: BrandDictionary


@dataclass(frozen=True, slots=True)
class M2eMatcher:
    """Stage-2 resolution by the mention-to-entity model."""

    model: XmcModel
    params: BeamParams = BeamParams()


@dataclass(frozen=True)
class LinkerConfig:
    """Everything one linker instance needs; all parts are immutable.

    A two-stage linker needs a detector and a matcher.  An end-to-end
    linker needs the q2e model.  Fusion needs both sides.  The product
    type filter is optional: with no predictor, candidates pass through
    unfiltered.
    """

    detector: TrieDetector | None = None
    matcher: LexicalMatcher | M2eMatcher | None = None
    q2e: XmcModel | None = None
    q2e_params: BeamParams = BeamParams()
    pt_predictor: PtPredictor | None = None
    associations: PtAssociations = field(default_factory=PtAssociations.empty)
    fusion: bool = False

    def __post_init__(self) -> None:
        if self.matcher is not None and self.detector is None:
            raise ValueError("a matcher needs a mention detector")
        if self.fusion and (self.matcher is None or self.q2e is None):
            raise ValueError("fusion needs both a matcher path and a q2e model")


def _filter(
    config: LinkerConfig, query: Query, candidates: list[ScoredEntity], trace: list[TraceRecord]
) -> list[ScoredEntity]:
    """The candidates the query's product type keeps; extends ``trace``."""
    pt_q = None if config.pt_predictor is None else config.pt_predictor.predict(query)
    survivors, records = filter_candidates(candidates, pt_q, config.associations)
    trace += records
    return survivors


def _answer(survivor: ScoredEntity, trace: list[TraceRecord]) -> LinkResult:
    """Answer with one survivor: Single, or Nil for the NIL entity."""
    if survivor.entity.is_nil:
        return LinkResult.nil(trace)
    return LinkResult.single(survivor.entity, survivor.score, trace)


def link_two_stage(config: LinkerConfig, query: Query) -> LinkResult:
    """Detect a mention, resolve it to candidates, filter by product type.

    A stage-1 miss (no mention found) short-circuits to NoPrediction; the
    trace names which stage gave up.  Only a lone survivor is an answer:
    none or several abstain.
    """
    if config.matcher is None or config.detector is None:
        raise ValueError("two-stage linking needs a detector and a matcher")
    mention = config.detector.detect(query)
    if mention is None:
        return LinkResult.no_prediction([TraceRecord("detector", "none")])
    trace = [TraceRecord("detector", f"mention {mention.surface!r} at {mention.span}")]

    if isinstance(config.matcher, LexicalMatcher):
        entities = lexical_match(config.matcher.dictionary, mention, query.store)
        candidates = [
            ScoredEntity(e, LEXICAL_SCORE)
            for e in sorted(entities, key=lambda e: e.id)
        ]
        trace.append(TraceRecord("match", f"lexical: {len(candidates)} candidates"))
    else:
        candidates = m2e_match(config.matcher.model, mention, config.matcher.params)
        trace.append(TraceRecord("match", f"m2e: {len(candidates)} candidates"))

    if not candidates:
        trace.append(TraceRecord("match", "no candidates"))
        return LinkResult.no_prediction(trace)
    survivors = _filter(config, query, candidates, trace)
    if len(survivors) == 1:
        return _answer(survivors[0], trace)
    trace.append(TraceRecord("filter", f"{len(survivors)} survivors; abstaining"))
    return LinkResult.no_prediction(trace)


def link_end_to_end(config: LinkerConfig, query: Query) -> LinkResult:
    """Rank entities for the whole query, filter by product type, take the best."""
    if config.q2e is None:
        raise ValueError("end-to-end linking needs a q2e model")
    candidates = q2e_predict(config.q2e, query, config.q2e_params)
    trace = [TraceRecord("q2e", f"{len(candidates)} candidates")]
    if not candidates:
        return LinkResult.no_prediction(trace)
    survivors = _filter(config, query, candidates, trace)
    if not survivors:
        return LinkResult.no_prediction(trace)
    # Candidates arrive by descending score, ties by ascending id.
    return _answer(survivors[0], trace)


def _relabel(prefix: str, result: LinkResult) -> list[TraceRecord]:
    return [TraceRecord(f"{prefix}/{t.stage}", t.detail) for t in result.trace]


def link_fused(config: LinkerConfig, query: Query) -> LinkResult:
    """Fuse the two-stage and end-to-end branches, two-stage first.

    A Single from the two-stage branch always wins.  Otherwise the
    end-to-end branch answers when it reaches Single or Nil; anything
    else is NoPrediction.  Both branch traces are kept, so the reason the
    two-stage branch stood down (detector miss vs. unresolved ambiguity)
    stays visible.
    """
    if not config.fusion:
        raise ValueError("config does not enable fusion")
    primary = link_two_stage(config, query)
    secondary = link_end_to_end(config, query)
    trace = _relabel("two_stage", primary) + _relabel("q2e", secondary)
    if primary.outcome is Outcome.SINGLE:
        trace.append(TraceRecord("fusion", "two-stage branch wins"))
        return LinkResult(
            outcome=primary.outcome, best=primary.best, trace=tuple(trace)
        )
    if secondary.outcome in (Outcome.SINGLE, Outcome.NIL):
        trace.append(TraceRecord("fusion", "q2e branch answers"))
        return LinkResult(
            outcome=secondary.outcome, best=secondary.best, trace=tuple(trace)
        )
    trace.append(TraceRecord("fusion", "neither branch answered"))
    return LinkResult.no_prediction(trace)
