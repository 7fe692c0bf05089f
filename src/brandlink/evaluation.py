"""Scoring and sliced metric reports.

Four counts drive everything: T evaluated queries, L_single of them
labeled with exactly one brand entity, P_single predictions that assert
a single entity, and C correct among both-single pairs.  Recall divides
C by L_single, Precision by P_single, Coverage divides P_single by T,
and F1 combines the pair.  Counts merge associatively, so scoring can be
sharded and folded in any order.  On gold that is all non-branded,
Coverage is the false-alarm rate, ``metrics(score(pairs)).coverage``:
the share of queries answered with a brand entity.

:func:`report` builds one document per evaluation, its shares and
metrics already rounded to two places.  Both of ``eval``'s outputs read
that document: :func:`render_text` prints it as a table, and
:func:`write_report_json` dumps it as it is.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Callable, Iterable

from .core import LabeledQuery, LinkResult, Outcome

REPORT_SCHEMA_VERSION = 1

# Marker appended to a rendered metric whose denominator was zero.
UNDEFINED_MARKER = "*"

_METRIC_NAMES = ("coverage", "recall", "precision", "f1")


@dataclass(frozen=True, slots=True)
class EvalCounts:
    """The four scoring counts; immutable and mergeable."""

    t: int = 0
    l_single: int = 0
    p_single: int = 0
    c: int = 0

    def __post_init__(self) -> None:
        if min(self.t, self.l_single, self.p_single, self.c) < 0:
            raise ValueError("counts must be non-negative")
        if self.l_single > self.t or self.p_single > self.t:
            raise ValueError("single counts cannot exceed the total")
        if self.c > min(self.l_single, self.p_single):
            raise ValueError("correct count exceeds a single count")

    def __add__(self, other: EvalCounts) -> EvalCounts:
        return EvalCounts(
            t=self.t + other.t,
            l_single=self.l_single + other.l_single,
            p_single=self.p_single + other.p_single,
            c=self.c + other.c,
        )


@dataclass(frozen=True, slots=True)
class MetricRow:
    """Percent metrics for one slice, with undefined denominators flagged."""

    coverage: float
    recall: float
    precision: float
    f1: float
    undefined: frozenset[str] = frozenset()


def _is_single_gold(example: LabeledQuery) -> bool:
    return len(example.entities) == 1 and not example.entities[0].is_nil


def score(pairs: Iterable[tuple[LabeledQuery, LinkResult]]) -> EvalCounts:
    """Fold predictions into counts; input order never matters.

    A Single prediction counts toward P_single whatever the gold label
    says; it counts toward C only on a single-brand-entity-labeled query
    whose gold entity it names.  Nil and NoPrediction are not Single.
    Non-branded gold (the NIL label) is not a brand entity label, so it
    never enters L_single.
    """
    t = l_single = p_single = c = 0
    for example, result in pairs:
        t += 1
        gold_single = _is_single_gold(example)
        l_single += gold_single
        if result.outcome is Outcome.SINGLE:
            p_single += 1
            assert result.best is not None
            if gold_single and result.best.entity == example.entities[0]:
                c += 1
    return EvalCounts(t=t, l_single=l_single, p_single=p_single, c=c)


def metrics(counts: EvalCounts) -> MetricRow:
    """Percentages from counts; zero denominators flag the metric."""
    undefined = set()

    def pct(num: int, den: int, name: str) -> float:
        if den == 0:
            undefined.add(name)
            return 0.0
        return 100.0 * num / den

    coverage = pct(counts.p_single, counts.t, "coverage")
    recall = pct(counts.c, counts.l_single, "recall")
    precision = pct(counts.c, counts.p_single, "precision")
    if "recall" in undefined or "precision" in undefined:
        undefined.add("f1")
        f1 = 0.0
    elif precision + recall == 0.0:
        f1 = 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return MetricRow(
        coverage=coverage,
        recall=recall,
        precision=precision,
        f1=f1,
        undefined=frozenset(undefined),
    )


def _metrics_doc(row: MetricRow) -> dict:
    doc: dict = {name: round(getattr(row, name), 2) for name in _METRIC_NAMES}
    doc["undefined"] = sorted(row.undefined)
    return doc


def _slice_doc(key: str, counts: EvalCounts, total: int) -> dict:
    return {
        "key": key,
        "share": round(100.0 * counts.t / total, 2) if total else 0.0,
        "counts": asdict(counts),
        "metrics": _metrics_doc(metrics(counts)),
    }


def report(
    slice_fn: Callable[[LabeledQuery], str],
    pairs: Iterable[tuple[LabeledQuery, LinkResult]],
) -> dict:
    """Score per slice and macro-average across slices, as one document.

    Each pair is scored once, in its slice; the overall counts are the
    sum of the slice counts.  Slices are ordered by descending share of
    the evaluated queries, ties broken by key.  The macro row averages
    each metric over the slices where it is defined; a metric defined
    nowhere is flagged.  Shares and metrics are percentages rounded to
    two places, macro averages taken before rounding.
    """
    by_slice: dict[str, list[tuple[LabeledQuery, LinkResult]]] = {}
    for example, result in pairs:
        by_slice.setdefault(slice_fn(example), []).append((example, result))
    keys = sorted(by_slice, key=lambda k: (-len(by_slice[k]), k))
    counts = {key: score(by_slice[key]) for key in keys}
    total = sum(counts.values(), EvalCounts())

    rows = [metrics(c) for c in counts.values()]
    values: dict[str, float] = {}
    missing = set()
    for name in _METRIC_NAMES:
        defined = [getattr(row, name) for row in rows if name not in row.undefined]
        if defined:
            values[name] = sum(defined) / len(defined)
        else:
            values[name] = 0.0
            missing.add(name)
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "overall": _slice_doc("overall", total, total.t),
        "slices": [_slice_doc(key, c, total.t) for key, c in counts.items()],
        "macro": _metrics_doc(MetricRow(**values, undefined=frozenset(missing))),
    }


def _metric_cells(doc: dict) -> list[str]:
    """Each metric to two places, marked where its denominator was zero."""
    return [
        f"{doc[name]:.2f}" + (UNDEFINED_MARKER if name in doc["undefined"] else "")
        for name in _METRIC_NAMES
    ]


def render_text(doc: dict) -> str:
    """Fixed-width table of a :func:`report`: one row per slice, then overall and macro."""
    header = ["slice", "share%", "T", "L1", "P1", "C", "Cov%", "Rec%", "Prec%", "F1%"]
    rows = [
        [
            s["key"],
            f"{s['share']:.2f}",
            *(str(s["counts"][k]) for k in ("t", "l_single", "p_single", "c")),
            *_metric_cells(s["metrics"]),
        ]
        for s in (*doc["slices"], doc["overall"])
    ]
    rows.append(["macro", "", "", "", "", "", *_metric_cells(doc["macro"])])
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for r in rows:
        cells = [
            v.rjust(widths[i]) if i else v.ljust(widths[0])
            for i, v in enumerate(r)
        ]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"


def write_report_json(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
