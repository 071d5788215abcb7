"""Spans around calls into pitchspace layers, recorded from outside the program.

A `Tracer` swaps a timing wrapper in for a public name at the place its
callers look it up (for example `pitchspace.features.batch_scores_with_deltas`,
which `offball_features` resolves through the `features` module), and puts the
original back on `uninstall`. Spans stay in memory; `summarize` aggregates
them per name, with self time = span duration minus the part of it that child
spans cover.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable

from bench_stats import median


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    phase: str
    info: dict = field(default_factory=dict)


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list = field(default_factory=list)
    info_sum: dict = field(default_factory=dict)
    info_max: dict = field(default_factory=dict)


def covered_seconds(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of `intervals`."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals if b > start and a < end)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def summarize(spans: list[Span], phase: str) -> dict[str, LayerStats]:
    """Per-name call count, total time, self time and summed/maxed span info."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out: dict[str, LayerStats] = {}
    for i, s in enumerate(spans):
        if s.phase != phase:
            continue
        st = out.setdefault(s.name, LayerStats())
        dur = s.end - s.start
        st.calls += 1
        st.total_s += dur
        st.self_s += dur - covered_seconds(s.start, s.end, children.get(i, []))
        st.durations.append(dur)
        for k, v in s.info.items():
            if k.endswith("_id"):
                continue  # an identity, not a count
            st.info_sum[k] = st.info_sum.get(k, 0) + v
            st.info_max[k] = max(st.info_max.get(k, v), v)
    return out


class Tracer:
    """Records a span for every call of each wrapped name while installed."""

    def __init__(self, targets: list[tuple[str, list[tuple[object, str]], Callable | None]]):
        self.targets = targets
        self.spans: list[Span] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._saved:
            return
        for name, sites, info in self.targets:
            for owner, attr in sites:
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, info))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, fn: Callable, info: Callable | None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.phase)
            spans.append(span)
            stack.append(idx)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced


# ---------------------------------------------------------------------------
# What is traced, and the counts taken at each boundary
# ---------------------------------------------------------------------------


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _load_info(args, kwargs, result) -> dict:
    paths = (_arg(args, kwargs, 0, "tracking_path"), _arg(args, kwargs, 1, "events_path"))
    return {"bytes": sum(os.path.getsize(p) for p in paths)}


def _offball_info(args, kwargs, result) -> dict:
    return {"candidates": len(result)}


def _batch_info(args, kwargs, result) -> dict:
    pitch = _arg(args, kwargs, 1, "pitch")
    players = sum(1 for e in result.entries.values() if not e.excluded_offside)
    cands = sum(1 for e in result.entries.values() if e.deltas is not None and not e.excluded_offside)
    cells = pitch.nx * pitch.ny
    return {"cells": (players + 8 * cands) * cells, "stack_bytes": players * cells * 8}


def _grid_info(args, kwargs, result) -> dict:
    return {"stack_bytes": len(result.player_ids) * result.owner.size * 8}


def _train_info(args, kwargs, result) -> dict:
    return {"trees": len(result.trees)}


def _shap_info(args, kwargs, result) -> dict:
    model = _arg(args, kwargs, 0, "model")
    leaves = sum(sum(1 for f in t.feature if f < 0) for t in model.trees)
    return {"rows": len(result[0]), "leaves": leaves, "model_id": id(model)}


def _svg_info(args, kwargs, result) -> dict:
    return {"chars": len(result)}


def pitchspace_targets() -> list[tuple[str, list[tuple[object, str]], Callable | None]]:
    from pitchspace import dominance, explain, features, gbdt, match_io, render_svg, synth

    return [
        ("synth.synthesize_match", [(synth, "synthesize_match")], None),
        ("match_io.save_match", [(match_io, "save_match")], None),
        ("match_io.load_match", [(match_io, "load_match")], _load_info),
        ("features.extract_event_features", [(features, "extract_event_features")], None),
        ("features.orient_frame", [(features, "orient_frame")], None),
        ("features.offball_features", [(features, "offball_features")], _offball_info),
        ("features.passline_interception_time", [(features, "passline_interception_time")], None),
        (
            "dominance.offside_positions",
            [(features, "offside_positions"), (dominance, "offside_positions")],
            None,
        ),
        (
            "dominance.batch_scores_with_deltas",
            [(features, "batch_scores_with_deltas"), (dominance, "batch_scores_with_deltas")],
            _batch_info,
        ),
        ("dominance.compute_dominance_grid", [(dominance, "compute_dominance_grid")], _grid_info),
        ("dominance.space_scores", [(dominance, "space_scores")], None),
        ("features.PassSampleTable.subset", [(features.PassSampleTable, "subset")], None),
        ("gbdt.train_gbdt", [(gbdt, "train_gbdt")], _train_info),
        ("gbdt.GbdtModel.predict_proba_batch", [(gbdt.GbdtModel, "predict_proba_batch")], None),
        ("gbdt.GbdtModel.impute", [(gbdt.GbdtModel, "impute")], None),
        ("explain.shap_values", [(explain, "shap_values")], _shap_info),
        ("render_svg.render_frame_svg", [(render_svg, "render_frame_svg")], _svg_info),
    ]


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# name -> unit, in the order BENCHMARK.json lists them.
LAYER_METRICS = {
    "dominance.batch_scores_with_deltas.ms_per_call": "ms",
    "dominance.batch_scores_with_deltas.share": "fraction",
    "features.offball_features.self_ms_per_call": "ms",
    "features.passline_interception_time.calls": "calls/item",
    "features.passline_interception_time.us_per_call": "us",
    "dominance.offside_positions.ms_per_call": "ms",
    "features.orient_frame.ms_per_call": "ms",
    "features.candidates_per_pass": "count",
    "dominance.cells_evaluated_computed": "cells/pass",
    "dominance.time_stack_mb_computed": "MB",
    "gbdt.train_gbdt.calls": "calls/search",
    "gbdt.train_gbdt.ms_per_tree": "ms",
    "gbdt.trees_fitted": "trees/search",
    "gbdt.trees_requested_per_fitted": "ratio",
    "gbdt.GbdtModel.predict_proba_batch.ms_per_call": "ms",
    "features.PassSampleTable.subset.ms_per_call": "ms",
    "explain.shap_values.ms_per_row": "ms",
    "gbdt.GbdtModel.impute.ms_per_call": "ms",
    "explain.leaves": "count",
    "dominance.compute_dominance_grid.ms_per_call": "ms",
    "dominance.space_scores.ms_per_call": "ms",
    "render_svg.render_frame_svg.ms_per_call": "ms",
    "render_svg.kb_per_frame": "kB",
    "synth.synthesize_match.s": "s",
    "match_io.save_match.s": "s",
    "match_io.load_match.s": "s",
    "match_io.bytes_read": "bytes",
    "features.extract_event_features.s": "s",
    "trace.overhead_frac": "fraction",
}


def _ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when the layer was never called (den == 0)."""
    return num / den if den else 0.0


def layer_metrics(
    spans: list[Span],
    traced_items: int,
    traced_blocks: int,
    traced_seconds: float,
    overhead_frac: float,
) -> dict[str, float]:
    """Every per-layer metric from the spans of one traced run.

    Timed-phase metrics use only the traced blocks; the `.s` and
    `bytes_read` metrics come from the set-up phase, and the `explain.`
    metrics from the output checks (model-search explains its best model
    there). A layer the workload never calls reports 0.
    """
    t = summarize(spans, "timed")
    s = summarize(spans, "setup")
    c = summarize(spans, "check")
    none = LayerStats()

    def ms_per_call(name: str) -> float:
        st = t.get(name, none)
        return 1000.0 * _ratio(st.total_s, st.calls)

    batch = t.get("dominance.batch_scores_with_deltas", none)
    offball = t.get("features.offball_features", none)
    passline = t.get("features.passline_interception_time", none)
    grid = t.get("dominance.compute_dominance_grid", none)
    train = t.get("gbdt.train_gbdt", none)
    shap = c.get("explain.shap_values", none)
    svg = t.get("render_svg.render_frame_svg", none)
    trees = train.info_sum.get("trees", 0)
    load = s.get("match_io.load_match", none)
    # Leaves of every distinct model explained.
    explained = {
        sp.info["model_id"]: sp.info["leaves"]
        for sp in spans
        if sp.phase == "check" and sp.name == "explain.shap_values"
    }
    stack_bytes = max(batch.info_max.get("stack_bytes", 0), grid.info_max.get("stack_bytes", 0))
    return {
        "dominance.batch_scores_with_deltas.ms_per_call": ms_per_call("dominance.batch_scores_with_deltas"),
        "dominance.batch_scores_with_deltas.share": _ratio(batch.total_s, traced_seconds),
        "features.offball_features.self_ms_per_call": 1000.0 * _ratio(offball.self_s, offball.calls),
        "features.passline_interception_time.calls": _ratio(passline.calls, traced_items),
        "features.passline_interception_time.us_per_call": 1e6 * _ratio(passline.total_s, passline.calls),
        "dominance.offside_positions.ms_per_call": ms_per_call("dominance.offside_positions"),
        "features.orient_frame.ms_per_call": ms_per_call("features.orient_frame"),
        "features.candidates_per_pass": _ratio(offball.info_sum.get("candidates", 0), offball.calls),
        "dominance.cells_evaluated_computed": _ratio(batch.info_sum.get("cells", 0), batch.calls),
        "dominance.time_stack_mb_computed": stack_bytes / 1e6,
        "gbdt.train_gbdt.calls": _ratio(train.calls, traced_blocks),
        "gbdt.train_gbdt.ms_per_tree": 1000.0 * _ratio(train.total_s, trees),
        "gbdt.trees_fitted": _ratio(trees, traced_blocks),
        "gbdt.trees_requested_per_fitted": _ratio(traced_items, trees),
        "gbdt.GbdtModel.predict_proba_batch.ms_per_call": ms_per_call("gbdt.GbdtModel.predict_proba_batch"),
        "features.PassSampleTable.subset.ms_per_call": ms_per_call("features.PassSampleTable.subset"),
        "explain.shap_values.ms_per_row": 1000.0 * _ratio(shap.total_s, shap.info_sum.get("rows", 0)),
        "gbdt.GbdtModel.impute.ms_per_call": ms_per_call("gbdt.GbdtModel.impute"),
        "explain.leaves": sum(explained.values()),
        "dominance.compute_dominance_grid.ms_per_call": ms_per_call("dominance.compute_dominance_grid"),
        "dominance.space_scores.ms_per_call": ms_per_call("dominance.space_scores"),
        "render_svg.render_frame_svg.ms_per_call": ms_per_call("render_svg.render_frame_svg"),
        "render_svg.kb_per_frame": _ratio(svg.info_sum.get("chars", 0), svg.calls) / 1000.0,
        "synth.synthesize_match.s": median(s.get("synth.synthesize_match", none).durations),
        "match_io.save_match.s": median(s.get("match_io.save_match", none).durations),
        "match_io.load_match.s": median(load.durations),
        "match_io.bytes_read": _ratio(load.info_sum.get("bytes", 0), load.calls),
        "features.extract_event_features.s": s.get("features.extract_event_features", none).total_s,
        "trace.overhead_frac": overhead_frac,
    }
