"""Scoring, false-alarm measurement, and sliced metric reports.

Four counts drive everything: T evaluated queries, L_single of them
labeled with exactly one brand entity, P_single predictions that assert
a single entity, and C correct among both-single pairs.  Recall divides
C by L_single, Precision by P_single, Coverage divides P_single by T,
and F1 combines the pair.  Counts merge associatively, so scoring can be
sharded and folded in any order.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
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

    def value(self, name: str) -> float:
        if name not in _METRIC_NAMES:
            raise KeyError(name)
        return getattr(self, name)


@dataclass(frozen=True, slots=True)
class SliceReport:
    key: str
    counts: EvalCounts
    metrics: MetricRow


@dataclass(frozen=True, slots=True)
class MetricReport:
    """Per-slice rows ordered by descending share, plus overall and macro."""

    overall: SliceReport
    slices: tuple[SliceReport, ...]
    macro: MetricRow


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


def false_alarm_rate(pairs: Iterable[tuple[LabeledQuery, LinkResult]]) -> float:
    """Percentage of non-branded queries answered with a brand entity.

    Every input must be gold-labeled non-branded.  Nil and NoPrediction
    are correct behavior here; only Single is a false alarm.

    Raises:
        ValueError: On empty input or a branded gold label.
    """
    total = alarms = 0
    for example, result in pairs:
        if example.is_branded:
            raise ValueError("false-alarm input must be non-branded gold")
        total += 1
        alarms += result.outcome is Outcome.SINGLE
    if total == 0:
        raise ValueError("false-alarm rate needs at least one query")
    return 100.0 * alarms / total


def report(
    slice_fn: Callable[[LabeledQuery], str],
    pairs: Iterable[tuple[LabeledQuery, LinkResult]],
) -> MetricReport:
    """Score per slice and macro-average across slices.

    Each pair is scored once, in its slice; the overall counts are the
    sum of the slice counts.  Slices are ordered by descending share of
    the evaluated queries, ties broken by key.  The macro row averages
    each metric over the slices where it is defined; a metric defined
    nowhere is flagged.
    """
    by_slice: dict[str, list[tuple[LabeledQuery, LinkResult]]] = {}
    for example, result in pairs:
        by_slice.setdefault(slice_fn(example), []).append((example, result))

    slices = []
    for key in sorted(by_slice, key=lambda k: (-len(by_slice[k]), k)):
        counts = score(by_slice[key])
        slices.append(SliceReport(key=key, counts=counts, metrics=metrics(counts)))

    overall_counts = sum((s.counts for s in slices), EvalCounts())
    overall = SliceReport(
        key="overall", counts=overall_counts, metrics=metrics(overall_counts)
    )

    values: dict[str, float] = {}
    missing = set()
    for name in _METRIC_NAMES:
        defined = [
            s.metrics.value(name) for s in slices if name not in s.metrics.undefined
        ]
        if defined:
            values[name] = sum(defined) / len(defined)
        else:
            values[name] = 0.0
            missing.add(name)
    macro = MetricRow(
        coverage=values["coverage"],
        recall=values["recall"],
        precision=values["precision"],
        f1=values["f1"],
        undefined=frozenset(missing),
    )
    return MetricReport(overall=overall, slices=tuple(slices), macro=macro)


def _row_to_json(row: MetricRow) -> dict:
    out: dict = {name: round(row.value(name), 2) for name in _METRIC_NAMES}
    out["undefined"] = sorted(row.undefined)
    return out


def share_percent(slice_report: SliceReport, total: int) -> float:
    """The slice's share of all evaluated queries, in percent."""
    if total == 0:
        return 0.0
    return 100.0 * slice_report.counts.t / total


def _slice_to_json(slice_report: SliceReport, total: int) -> dict:
    counts = slice_report.counts
    return {
        "key": slice_report.key,
        "share": round(share_percent(slice_report, total), 2),
        "counts": {
            "t": counts.t,
            "l_single": counts.l_single,
            "p_single": counts.p_single,
            "c": counts.c,
        },
        "metrics": _row_to_json(slice_report.metrics),
    }


def report_to_json(metric_report: MetricReport) -> dict:
    total = metric_report.overall.counts.t
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "overall": _slice_to_json(metric_report.overall, total),
        "slices": [_slice_to_json(s, total) for s in metric_report.slices],
        "macro": _row_to_json(metric_report.macro),
    }


def _fmt(row: MetricRow, name: str) -> str:
    rendered = f"{row.value(name):.2f}"
    if name in row.undefined:
        rendered += UNDEFINED_MARKER
    return rendered


def render_text(metric_report: MetricReport) -> str:
    """Fixed-width table: one row per slice, then overall and macro."""
    header = ["slice", "share%", "T", "L1", "P1", "C", "Cov%", "Rec%", "Prec%", "F1%"]
    total = metric_report.overall.counts.t
    rows = []
    for s in (*metric_report.slices, metric_report.overall):
        rows.append(
            [
                s.key,
                f"{share_percent(s, total):.2f}",
                str(s.counts.t),
                str(s.counts.l_single),
                str(s.counts.p_single),
                str(s.counts.c),
                _fmt(s.metrics, "coverage"),
                _fmt(s.metrics, "recall"),
                _fmt(s.metrics, "precision"),
                _fmt(s.metrics, "f1"),
            ]
        )
    macro = metric_report.macro
    rows.append(
        [
            "macro",
            "",
            "",
            "",
            "",
            "",
            _fmt(macro, "coverage"),
            _fmt(macro, "recall"),
            _fmt(macro, "precision"),
            _fmt(macro, "f1"),
        ]
    )
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


def write_report_json(metric_report: MetricReport, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report_to_json(metric_report), handle, indent=2, sort_keys=True)
        handle.write("\n")
