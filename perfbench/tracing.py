"""Outside-in tracing: spans and counts recorded around the program's public callables.

Each wrap point replaces one attribute where its caller looks it up (a
module global or a class attribute) with a wrapper that records a span:
name, layer, start, end, parent span and the query it served.  Spans
stay in memory; ``layer_metrics`` folds them into per-layer counts and
self times (duration minus the time covered by child spans).

A wrap point that no longer exists fails the install, and a required
point that never fired fails the run, so a rename cannot silently report
zero for a layer.
"""
from __future__ import annotations

import functools
import importlib
import os
import statistics
from dataclasses import dataclass
from time import perf_counter


class TraceError(Exception):
    """A wrap point is missing or a required span never fired."""


@dataclass(frozen=True)
class WrapPoint:
    module: str
    attr: str  # "name" or "Class.method"
    layer: str
    label: str  # span name
    # What the span's last field keeps: "bytes" for the size of the file
    # named by the first argument, "none" for 1 when the call returned None.
    record: str | None = None


def _points() -> list[WrapPoint]:
    points = [
        WrapPoint("brandlink.pipeline", name, "pipeline", name)
        for name in ("link_two_stage", "link_end_to_end", "link_fused")
    ]
    points += [
        WrapPoint("brandlink.pipeline", "lexical_match", "gazetteer", "lexical_match"),
        WrapPoint("brandlink.pipeline", "m2e_match", "xmc", "m2e_match"),
        WrapPoint("brandlink.pipeline", "q2e_predict", "xmc", "q2e_predict"),
        WrapPoint("brandlink.pipeline", "filter_candidates", "ptfilter", "filter_candidates"),
        WrapPoint("brandlink.gazetteer", "TrieDetector.detect", "gazetteer", "detect", "none"),
        WrapPoint(
            "brandlink.ptfilter", "LinearPtPredictor.predict", "ptfilter", "pt_predict", "none"
        ),
        WrapPoint("brandlink.xmc.model", "beam_predict", "xmc", "beam_predict"),
        WrapPoint("brandlink.gazetteer", "normalize", "text", "normalize@gazetteer"),
    ]
    for module in ("brandlink.xmc.model", "brandlink.ptfilter"):
        short = module.rsplit(".", 1)[-1]
        points += [
            WrapPoint(module, "normalize", "text", f"normalize@{short}"),
            WrapPoint(module, "featurize", "text", f"featurize@{short}"),
        ]
    points += [
        WrapPoint("brandlink.xmc.tree", "vectorize", "text", "vectorize@tree"),
        WrapPoint("brandlink.gazetteer", "load_dictionary", "gazetteer", "load_dictionary"),
        WrapPoint("brandlink.gazetteer", "build_dictionary", "gazetteer", "build_dictionary"),
        WrapPoint("brandlink.gazetteer", "save_dictionary", "gazetteer", "save_dictionary"),
        WrapPoint("brandlink.xmc", "load_model", "xmc", "load_model"),
        WrapPoint("brandlink.xmc", "save_model", "xmc", "save_model"),
        WrapPoint("brandlink.xmc", "aggregate_label_features", "xmc", "aggregate_label_features"),
        WrapPoint("brandlink.xmc", "build_tree", "xmc", "build_tree"),
        WrapPoint("brandlink.ptfilter", "load_pt_predictor", "ptfilter", "load_pt_predictor"),
        WrapPoint("brandlink.ptfilter", "mine_associations", "ptfilter", "mine_associations"),
    ]
    for module in ("brandlink.gazetteer", "brandlink.xmc.serialize", "brandlink.ptfilter"):
        short = module.rsplit(".", 1)[-1]
        points += [
            WrapPoint(module, "read_artifact", "binio", f"read_artifact@{short}", "bytes"),
            WrapPoint(module, "write_artifact", "binio", f"write_artifact@{short}", "bytes"),
        ]
    return points


WRAP_POINTS = _points()

# Spans a workload does not exercise; every other point must fire at least once.
_SETUP_BUILD = {
    "build_dictionary", "save_dictionary", "save_model", "aggregate_label_features",
    "build_tree", "vectorize@tree", "write_artifact@gazetteer",
    "write_artifact@serialize",
}
_PT = {
    "pt_predict", "normalize@ptfilter", "featurize@ptfilter", "load_pt_predictor",
    "mine_associations", "read_artifact@ptfilter",
}
OPTIONAL = {
    "head": _SETUP_BUILD | {"write_artifact@ptfilter"},
    "tail": _SETUP_BUILD | {"write_artifact@ptfilter", "lexical_match", "m2e_match"},
    "wide": _PT | {"write_artifact@ptfilter"},
}


class Tracer:
    """Records spans of the wrapped callables while installed."""

    def __init__(self) -> None:
        # Each span: [label, layer, start, end, parent index, query id, record].
        self.spans: list[list] = []
        self.query = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, point: WrapPoint, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [point.label, point.layer, 0.0, 0.0, parent, tracer.query, 0]
            tracer.spans.append(span)
            tracer._stack.append(index)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                tracer._stack.pop()
            if point.record == "bytes":
                span[6] = os.path.getsize(args[0])
            elif point.record == "none":
                span[6] = int(result is None)
            return result

        return traced

    def install(self) -> None:
        missing = []
        targets = []
        for point in WRAP_POINTS:
            owner = importlib.import_module(point.module)
            *path, name = point.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if owner is None or name not in vars(owner):
                missing.append(f"{point.module}.{point.attr}")
            else:
                targets.append((owner, name, point))
        if missing:
            raise TraceError("wrap points no longer exist: " + ", ".join(missing))
        for owner, name, point in targets:
            original = vars(owner)[name]
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(point, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def check_fired(self, workload: str) -> None:
        fired = {span[0] for span in self.spans}
        silent = sorted(
            p.label for p in WRAP_POINTS
            if p.label not in fired and p.label not in OPTIONAL[workload]
        )
        if silent:
            raise TraceError("required spans never fired: " + ", ".join(silent))


def _self_times(spans: list[list]) -> list[float]:
    covered = [0.0] * len(spans)
    for span in spans:
        if span[4] >= 0:
            covered[span[4]] += span[3] - span[2]
    return [span[3] - span[2] - covered[i] for i, span in enumerate(spans)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer, queries_per_mode: dict[str, int], two_stage_wins: set[int]
) -> tuple[dict, dict]:
    """Per-layer metrics from the traced set-up and query pass.

    ``two_stage_wins`` holds the fused queries the two-stage branch
    answered; those whose end-to-end branch also ran wasted that work, and
    ``pipeline.fusion_two_stage_ratio`` is their share of fused queries.

    Returns the metrics, as ``{name: (value, unit)}``, and a detail table
    of span counts and self time per span name and query kind.
    """
    spans = tracer.spans
    self_s = _self_times(spans)
    calls: dict[tuple, int] = {}
    self_by: dict[tuple, float] = {}
    beam_ms: list[float] = []
    setup_bytes = 0
    nones: dict[str, list[int]] = {"detect": [0, 0], "pt_predict": [0, 0]}
    fused_with_q2e: set[int] = set()
    for span, own in zip(spans, self_s):
        kind = span[5] if isinstance(span[5], str) else span[5][0]
        if kind == "warmup":
            continue
        key = (kind, span[0])
        calls[key] = calls.get(key, 0) + 1
        self_by[key] = self_by.get(key, 0.0) + own
        layer_key = (kind, "layer:" + span[1])
        self_by[layer_key] = self_by.get(layer_key, 0.0) + own
        if span[0] == "beam_predict" and kind != "setup":
            beam_ms.append((span[3] - span[2]) * 1000.0)
        if kind == "setup":
            setup_bytes += span[6]
        elif span[0] in nones:
            nones[span[0]][0] += span[6]
            nones[span[0]][1] += 1
        if kind == "fused" and span[0] == "link_end_to_end":
            fused_with_q2e.add(span[5][1])

    def per_query(mode: str, *labels: str) -> float:
        total = sum(calls.get((mode, label), 0) for label in labels)
        return _ratio(total, queries_per_mode[mode])

    def self_ms(mode: str, *labels: str) -> float:
        total = sum(self_by.get((mode, label), 0.0) for label in labels)
        return _ratio(total * 1000.0, queries_per_mode[mode])

    normalizes = [p.label for p in WRAP_POINTS if p.label.startswith("normalize@")]
    featurizes = [p.label for p in WRAP_POINTS if p.label.startswith("featurize@")]
    out: dict[str, tuple[float, str]] = {}
    for mode in queries_per_mode:
        out[f"{mode}.text.normalize_calls_per_query"] = (per_query(mode, *normalizes), "count")
        out[f"{mode}.text.featurize_calls_per_query"] = (per_query(mode, *featurizes), "count")
        out[f"{mode}.ptfilter.pt_calls_per_query"] = (per_query(mode, "pt_predict"), "count")
        out[f"{mode}.xmc.beam_calls_per_query"] = (per_query(mode, "beam_predict"), "count")
    out["fused.text.normalize_ms"] = (self_ms("fused", *normalizes), "ms")
    out["fused.text.featurize_ms"] = (self_ms("fused", *featurizes), "ms")
    for layer in ("gazetteer", "xmc", "ptfilter", "pipeline"):
        out[f"fused.{layer}.self_ms"] = (self_ms("fused", "layer:" + layer), "ms")
    out["lexical.gazetteer.detect_ms"] = (self_ms("lexical", "detect"), "ms")
    out["xmc.beam_p50_ms"] = (statistics.median(beam_ms), "ms")
    out["xmc.beam_p99_ms"] = (statistics.quantiles(beam_ms, n=100)[98], "ms")
    for layer in ("gazetteer", "xmc", "binio"):
        out[f"{layer}.setup_s"] = (self_by.get(("setup", "layer:" + layer), 0.0), "s")
    out["binio.setup_mb"] = (setup_bytes / 2**20, "MB")
    detect_misses, detects = nones["detect"]
    out["gazetteer.detect_hit_ratio"] = (_ratio(detects - detect_misses, detects), "ratio")
    out["ptfilter.pt_abstain_ratio"] = (_ratio(*nones["pt_predict"]), "ratio")
    out["pipeline.fusion_two_stage_ratio"] = (
        _ratio(len(two_stage_wins & fused_with_q2e), queries_per_mode["fused"]), "ratio"
    )
    detail = {
        f"{kind}/{label}": {"calls": calls[(kind, label)], "self_s": self_by[(kind, label)]}
        for kind, label in sorted(calls)
    }
    return out, detail
