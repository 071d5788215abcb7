"""Tests of the benchmark harness's own arithmetic: quartile spread, self time,
the tracer's wrapping, and agreement between BENCHMARK.json and the harness."""

import json
import statistics
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from bench_stats import median, quartile_spread  # noqa: E402
from bench_trace import (  # noqa: E402
    LAYER_METRICS,
    Span,
    Tracer,
    covered_seconds,
    layer_metrics,
    summarize,
)
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_quartile_spread_matches_statistics_quantiles():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]
    # Exclusive quartiles of 1..9 are 2.5 and 7.5; the median is 5.
    assert quartile_spread(values) == pytest.approx((7.5 - 2.5) / 5.0)
    values = [10.0, 12.0, 11.0, 13.0, 10.5, 9.5, 12.5, 11.5, 10.0, 14.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))


def test_median_of_nothing_is_zero():
    assert median([]) == 0.0
    assert median([3.0, 1.0, 2.0]) == 2.0


def test_covered_seconds_merges_overlaps_and_clips():
    assert covered_seconds(0.0, 10.0, []) == 0.0
    assert covered_seconds(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0)]) == pytest.approx(3.0)
    assert covered_seconds(0.0, 10.0, [(1.0, 2.0), (5.0, 6.0)]) == pytest.approx(2.0)
    assert covered_seconds(2.0, 5.0, [(0.0, 3.0), (4.0, 9.0)]) == pytest.approx(2.0)
    assert covered_seconds(2.0, 5.0, [(6.0, 7.0)]) == 0.0


def test_self_time_is_span_minus_direct_children():
    spans = [
        Span("root", 0.0, 10.0, -1, "timed"),
        Span("child", 1.0, 3.0, 0, "timed"),
        Span("child", 4.0, 6.0, 0, "timed"),
        Span("grandchild", 4.5, 5.5, 2, "timed"),
        Span("root", 20.0, 21.0, -1, "setup"),
    ]
    stats = summarize(spans, "timed")
    assert stats["root"].calls == 1
    assert stats["root"].total_s == pytest.approx(10.0)
    assert stats["root"].self_s == pytest.approx(6.0)
    assert stats["child"].calls == 2
    assert stats["child"].self_s == pytest.approx(3.0)
    assert stats["grandchild"].self_s == pytest.approx(1.0)
    assert summarize(spans, "setup")["root"].total_s == pytest.approx(1.0)


def test_tracer_wraps_lookup_sites_and_restores_them():
    mod = types.SimpleNamespace()

    class Box:
        def size(self, n):
            return mod.inner(n) * 2

    mod.inner = lambda n: n + 1
    tracer = Tracer([
        ("mod.inner", [(mod, "inner")], lambda a, k, r: {"out": r}),
        ("Box.size", [(Box, "size")], None),
    ])
    original_inner, original_size = mod.inner, Box.__dict__["size"]
    tracer.install()
    tracer.phase = "timed"
    assert Box().size(3) == 8
    tracer.uninstall()
    assert mod.inner is original_inner and Box.__dict__["size"] is original_size
    assert Box().size(3) == 8  # untraced: no new spans
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("Box.size", -1), ("mod.inner", 0)]
    assert tracer.spans[1].info == {"out": 4}
    outer, inner = tracer.spans
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_layer_metrics_are_zero_for_uncalled_layers_and_ratios_otherwise():
    spans = [
        Span("gbdt.train_gbdt", 0.0, 0.5, -1, "timed", {"trees": 10}),
        Span("gbdt.train_gbdt", 1.0, 1.5, -1, "timed", {"trees": 10}),
        Span("match_io.load_match", 0.0, 0.2, -1, "setup", {"bytes": 100}),
        Span("match_io.load_match", 1.0, 1.4, -1, "setup", {"bytes": 100}),
        Span("match_io.load_match", 2.0, 2.3, -1, "setup", {"bytes": 100}),
        Span("explain.shap_values", 3.0, 3.1, -1, "check", {"rows": 10, "leaves": 5, "model_id": 1}),
        Span("explain.shap_values", 4.0, 4.1, -1, "check", {"rows": 10, "leaves": 5, "model_id": 1}),
        Span("explain.shap_values", 5.0, 5.2, -1, "check", {"rows": 10, "leaves": 7, "model_id": 2}),
    ]
    m = layer_metrics(spans, traced_items=30, traced_blocks=1, traced_seconds=1.25, overhead_frac=0.05)
    assert set(m) == set(LAYER_METRICS)
    assert m["gbdt.train_gbdt.calls"] == 2
    assert m["gbdt.trees_fitted"] == 20
    assert m["gbdt.train_gbdt.ms_per_tree"] == pytest.approx(50.0)
    assert m["gbdt.trees_requested_per_fitted"] == pytest.approx(1.5)
    assert m["match_io.load_match.s"] == pytest.approx(0.3)
    assert m["match_io.bytes_read"] == 100
    assert m["explain.shap_values.ms_per_row"] == pytest.approx(400.0 / 30)
    assert m["explain.leaves"] == 12  # each distinct model counted once
    assert m["render_svg.render_frame_svg.ms_per_call"] == 0.0
    assert m["trace.overhead_frac"] == 0.05


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == LAYER_METRICS
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
