"""Turns one traced half-run into the per-layer metrics of the catalog.

Time metrics are self time (span duration minus direct children) unless
the catalog's README entry says inclusive: the training phases, the
serving compute funnel, router scatter/fan-out, store build and fleet
spawn are reported inclusive because they are containers whose children
are reported on their own.
"""

from __future__ import annotations

import threading
from typing import Dict, List

import numpy as np

from perfbench import catalog
from perfbench.spans import Span, layer_totals, self_times

INCLUSIVE = {
    "train.phase.begin",
    "train.phase.microbatch",
    "train.phase.export",
    "train.phase.apply",
    "train.phase.finish",
    "serve.compute",
    "router.scatter",
    "router.fanout",
    "store.build",
    "fleet.spawn",
}

# metric name -> span name, for the plain span-time metrics.
SPAN_TIMES = {
    "graph.sample.s": "graph.sample",
    "graph.mutate.s": "graph.mutate",
    "pack.s": "pack",
    "model.forward.s": "model.forward",
    "model.materialize.s": "model.materialize",
    "model.from_blocks.s": "model.from_blocks",
    "train.downsample.s": "train.downsample",
    "train.phase.begin.s": "train.phase.begin",
    "train.phase.microbatch.s": "train.phase.microbatch",
    "train.phase.export.s": "train.phase.export",
    "train.phase.apply.s": "train.phase.apply",
    "train.phase.finish.s": "train.phase.finish",
    "train.unattributed.s": "train.loop",
    "tensor.backward.s": "tensor.backward",
    "optim.step.s": "optim.step",
    "optim.clip.s": "optim.clip",
    "serve.compute.s": "serve.compute",
    "store.lookup.s": "store.lookup",
    "wire.encode.s": "wire.encode",
    "wire.decode.s": "wire.decode",
    "router.scatter.s": "router.scatter",
    "router.fanout.s": "router.fanout",
    "train.reduce.s": "train.reduce",
    "obs.scrape.s": "obs.scrape",
}
SPAN_CALLS = {
    "graph.sample.calls": "graph.sample",
    "graph.mutate.calls": "graph.mutate",
    "pack.calls": "pack",
    "model.forward.calls": "model.forward",
}
SETUP_SPAN_TIMES = {"store.build.s": "store.build", "fleet.spawn.s": "fleet.spawn"}


def _span_seconds(totals: Dict[str, Dict[str, float]], span: str) -> float:
    entry = totals.get(span)
    if entry is None:
        return 0.0
    return entry["inclusive"] if span in INCLUSIVE else entry["self"]


def unattributed(spans: List[Span], wall_s: float) -> float:
    """Wall time of the traced region that no span on the main thread
    explains (self times of one thread's nested spans sum to their union)."""
    thread = threading.main_thread().ident
    own = self_times(spans)
    covered = sum(own[span.span_id] for span in spans if span.thread == thread)
    return wall_s - covered


class ServeStats:
    """Serving-layer numbers folded out of the program's telemetry.

    Only flat lists of numbers are kept, so holding a run's worth of them
    adds no objects for the garbage collector to walk during a replay.
    """

    RUNGS = ("cache", "store", "overlay", "recompute")

    def __init__(self) -> None:
        self.queue_waits_ms: List[float] = []
        self.batch_sizes: List[int] = []
        self.frontier_sizes: List[int] = []
        self.requests = 0
        self.cache_hits = 0
        self.rungs = dict.fromkeys(self.RUNGS, 0)
        self.store = {"hit": 0, "stale": 0, "absent": 0}

    def add(self, telemetry) -> None:
        for record in telemetry.requests:
            self.queue_waits_ms.append(record.queue_wait * 1e3)
            self.cache_hits += record.cache_hit
            self.rungs[record.rung] = self.rungs.get(record.rung, 0) + 1
        self.requests += len(telemetry.requests)
        self.batch_sizes.extend(telemetry.batch_sizes)
        self.frontier_sizes.extend(
            entry["frontier_size"] for entry in telemetry.invalidation_records
        )
        for lookup in telemetry.store_lookups:
            for key in self.store:
                self.store[key] += lookup[key]

    def metrics(self) -> Dict[str, float]:
        values: Dict[str, float] = {}
        if self.requests:
            values["serve.queue_wait_ms.p50"] = float(np.percentile(self.queue_waits_ms, 50))
            values["serve.queue_wait_ms.p99"] = float(np.percentile(self.queue_waits_ms, 99))
            values["serve.cache.hit_ratio"] = self.cache_hits / self.requests
            for rung in self.RUNGS:
                values[f"serve.rung.{rung}"] = self.rungs[rung] / self.requests
        if self.batch_sizes:
            values["serve.batch.mean_size"] = float(np.mean(self.batch_sizes))
        lookups = sum(self.store.values())
        if lookups:
            values["store.hit_ratio"] = self.store["hit"] / lookups
            values["store.stale_rows"] = float(self.store["stale"])
        if self.frontier_sizes:
            values["serve.invalidated"] = float(np.mean(self.frontier_sizes))
        return values


def layer_metrics(tracing, setup_spans: List[Span], serve: ServeStats, extra: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric of the catalog; 0 where a layer did not run."""
    values = {name: 0.0 for name in catalog.PER_LAYER_NAMES}
    spans = tracing.recorder.spans
    totals = layer_totals(spans)
    for metric, span in SPAN_TIMES.items():
        values[metric] = _span_seconds(totals, span)
    for metric, span in SPAN_CALLS.items():
        values[metric] = totals.get(span, {}).get("calls", 0.0)
    setup_totals = layer_totals(setup_spans)
    for metric, span in SETUP_SPAN_TIMES.items():
        values[metric] = _span_seconds(setup_totals, span)

    counters = tracing.recorder.counters
    if counters.get("pack.allocated_slots"):
        values["pack.fill_ratio"] = counters["pack.valid_slots"] / counters["pack.allocated_slots"]
    for name in ("wire.frames", "wire.bytes_out", "wire.bytes_in"):
        values[name] = counters.get(name, 0.0)
    if counters.get("obs.scrapes"):
        values["obs.exposition_bytes"] = counters["obs.exposition_bytes"] / counters["obs.scrapes"]

    profiled = {row["op"]: row for row in tracing.profiler.summary()}
    for op in catalog.TENSOR_OPS:
        row = profiled.pop(op, None)
        if row is not None:
            values[f"tensor.op.{op}.s"] = row["total_s"]
            values[f"tensor.op.{op}.calls"] = row["calls"]
    values["tensor.op.other.s"] = sum(row["total_s"] for row in profiled.values())
    values["tensor.flops"] = tracing.profiler.total_flops

    values.update(serve.metrics())
    for name in ("train.sync_bytes", "fleet.worker_train.s", "fleet.worker_serve.s"):
        if name in extra:
            values[name] = extra[name]
    values["unattributed.s"] = unattributed(spans, tracing.end - tracing.start)
    values["trace.spans"] = float(len(spans))
    return values
