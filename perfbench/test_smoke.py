"""Smoke test of the benchmark itself on tiny corpora (a few seconds per run).

    python3 -m pytest -q perfbench/test_smoke.py
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    assert child.returncode == 0, child.stdout[-2000:] + child.stderr[-2000:]
    return json.loads(child.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["head", "tail", "wide"])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted(workload, trace):
    result = _run(workload, trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    names = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names


@pytest.mark.parametrize("workload, counts", [("head", (4, 3, 2)), ("tail", (3, 2, 1))])
def test_fused_analysis_counts(workload, counts):
    metrics = _run(workload, 1)["metrics"]
    seen = tuple(
        metrics[f"fused.{name}"]["value"]
        for name in (
            "text.normalize_calls_per_query",
            "text.featurize_calls_per_query",
            "ptfilter.pt_calls_per_query",
        )
    )
    assert seen == counts


def test_missing_wrap_point_fails_loudly(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import tracing

    monkeypatch.setattr(
        tracing,
        "WRAP_POINTS",
        [*tracing.WRAP_POINTS, tracing.WrapPoint("brandlink.pipeline", "gone", "pipeline", "gone")],
    )
    tracer = tracing.Tracer()
    with pytest.raises(tracing.TraceError, match="brandlink.pipeline.gone"):
        tracer.install()
    assert not tracer._saved


def test_refuses_to_run_without_program_source():
    bare = ROOT / ".perfbench" / "bare"
    bench = bare / "perfbench"
    bench.mkdir(parents=True, exist_ok=True)
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    child = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "head", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120, check=False,
    )
    assert child.returncode != 0
    assert child.stdout == ""
