"""Per-layer metrics of a traced run, derived from the recorded spans.

Every metric is emitted for every workload; a layer the workload does
not reach reads 0 (its "no change" prediction).  Each value is the
median over the traced iterations of that iteration's figure.  Metrics
in units ``s`` and ``ms`` are measured wall time, calibrated by the
iteration's host slowdown like the end-to-end times (``bench.raw_wall_s``
is the one uncalibrated time); ``sim``-unit metrics are simulated or
modeled quantities and are never added to wall time.
"""

from __future__ import annotations

from typing import Dict, List

from tracer import SpanTable, median_or_zero

#: (name, unit) of every per-layer metric, in report order
LAYER_METRICS = (
    ("data.generate_s", "s"),
    ("sketch.cuts_s", "s"),
    ("sketch.cuts_calls", "count"),
    ("data.apply_cuts_s", "s"),
    ("data.entries_binned", "count"),
    ("systems.session_init_s", "s"),
    ("systems.step_ms_p50", "ms"),
    ("systems.step_ms_max", "ms"),
    ("systems.steps", "count"),
    ("core.histogram.rowstore_s", "s"),
    ("core.histogram.rowstore_calls", "count"),
    ("core.histogram.colstore_s", "s"),
    ("core.histogram.colstore_calls", "count"),
    ("core.histogram.subtract_calls", "count"),
    ("core.histogram.subtract_ratio", "ratio"),
    ("core.histogram.peak_mb", "sim_MB"),
    ("core.split.find_s", "s"),
    ("core.split.find_calls", "count"),
    ("core.placement.placement_s", "s"),
    ("core.loss.gradients_s", "s"),
    ("core.tree.predict_s", "s"),
    ("core.metrics.valid_auc", "auc"),
    ("systems.build_layer_self_s", "s"),
    ("systems.find_splits_self_s", "s"),
    ("systems.apply_splits_self_s", "s"),
    ("cluster.comm.collective_s", "s"),
    ("cluster.comm.collective_calls", "count"),
    ("cluster.network.wire_bytes", "sim_bytes"),
    ("cluster.network.wire_mb_per_tree", "sim_MB"),
    ("cluster.network.transfers", "count"),
    ("cluster.network.modeled_comm_s", "sim_s"),
    ("serve.provision_s", "s"),
    ("serve.scenarios.build_trace_s", "s"),
    ("serve.scenarios.run_self_s", "s"),
    ("serve.scenarios.audit_s", "s"),
    ("serve.batcher.run_self_s", "s"),
    ("serve.batcher.batches", "count"),
    ("serve.batcher.shed", "count"),
    ("serve.batcher.sim_p99_ms", "sim_ms"),
    ("serve.batcher.drop_rate", "ratio"),
    ("serve.replica.dispatch_self_s", "s"),
    ("serve.replica.dispatches", "count"),
    ("serve.compiler.score_s", "s"),
    ("serve.compiler.rows_scored", "count"),
    ("serve.cache.serve_s", "s"),
    ("serve.cache.lookups", "count"),
    ("serve.cache.hit_ratio", "ratio"),
    ("bench.raw_wall_s", "raw-s"),
    ("bench.host_slowdown", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)
_CALIBRATED_UNITS = ("s", "ms")

def _iteration_figures(table: SpanTable, it: int, sample
                       ) -> Dict[str, float]:
    total, own = table.total[it], table.self_time[it]
    calls, steps = table.counters[it], table.durations[it]["systems.step"]
    built = calls["core.histogram.nodes_built"]
    subtracted = calls["core.histogram.subtract.calls"]
    figures = {
        "data.generate_s": total["data.generate"],
        "sketch.cuts_s": total["sketch.cuts"],
        "sketch.cuts_calls": calls["sketch.cuts.calls"],
        "data.apply_cuts_s": total["data.apply_cuts"],
        "data.entries_binned": calls["data.entries_binned"],
        "systems.session_init_s": own["systems.session_init"],
        "systems.step_ms_p50": median_or_zero(steps) * 1e3,
        "systems.step_ms_max": max(steps, default=0.0) * 1e3,
        "systems.steps": float(len(steps)),
        "core.histogram.rowstore_s": total["core.histogram.rowstore"],
        "core.histogram.rowstore_calls":
            calls["core.histogram.rowstore.calls"],
        "core.histogram.colstore_s": total["core.histogram.colstore"],
        "core.histogram.colstore_calls":
            calls["core.histogram.colstore.calls"],
        "core.histogram.subtract_calls": subtracted,
        "core.histogram.subtract_ratio":
            subtracted / (built + subtracted) if built + subtracted else 0.0,
        "core.split.find_s": total["core.split.find"],
        "core.split.find_calls": calls["core.split.find.calls"],
        "core.placement.placement_s": total["core.placement"],
        "core.loss.gradients_s": total["core.loss.gradients"],
        "core.tree.predict_s": total["core.tree.predict"],
        "systems.build_layer_self_s": own["systems.build_layer"],
        "systems.find_splits_self_s": own["systems.find_splits"],
        "systems.apply_splits_self_s": own["systems.apply_splits"],
        "cluster.comm.collective_s": total["cluster.comm.collective"],
        "cluster.comm.collective_calls":
            calls["cluster.comm.collective.calls"],
        "serve.provision_s": total["serve.provision"],
        "serve.scenarios.build_trace_s":
            total["serve.scenarios.build_trace"],
        "serve.scenarios.run_self_s": own["serve.scenarios.run"],
        "serve.scenarios.audit_s": total["serve.scenarios.audit"],
        "serve.batcher.run_self_s": own["serve.batcher.run"],
        "serve.replica.dispatch_self_s": own["serve.replica.dispatch"],
        "serve.replica.dispatches": calls["serve.replica.dispatch.calls"],
        "serve.compiler.score_s": total["serve.compiler.score"],
        "serve.compiler.rows_scored": calls["serve.compiler.rows_scored"],
        "serve.cache.serve_s": total["serve.cache.serve"],
    }
    for name, unit in LAYER_METRICS:
        if unit in _CALIBRATED_UNITS:
            figures[name] /= sample.slowdown
    figures["bench.raw_wall_s"] = sample.wall_s
    figures["bench.host_slowdown"] = sample.slowdown
    figures["trace.coverage"] = table.top_level[it] / sample.wall_s
    for name, _ in LAYER_METRICS:
        figures.setdefault(name, sample.facts.get(name, 0.0))
    return figures


def layer_metrics(traced: List, recorder) -> Dict[str, tuple]:
    """``name -> (value, unit, sample_count)`` over the traced samples;
    ``trace.overhead_ratio`` is added by the caller, which holds the
    untraced samples."""
    table = SpanTable(recorder)
    per_iteration = [_iteration_figures(table, s.iteration, s)
                     for s in traced]
    return {
        name: (median_or_zero(f[name] for f in per_iteration), unit,
               len(per_iteration))
        for name, unit in LAYER_METRICS
        if name != "trace.overhead_ratio"
    }
