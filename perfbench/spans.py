"""In-memory spans around the public functions of each ``repro`` layer.

The traced run installs wrappers from here; nothing inside ``src/`` is
changed.  A span records its name, start, end, parent span and the id of
the benchmark operation (request) it belongs to.  A layer's self time is
the span's duration minus the time its direct child spans cover; because
spans on one thread nest, summing self times never counts an interval
twice.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int  # -1 for a root span
    request: int  # id of the benchmark operation that caused it; -1 before the first
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans per thread; counters ride along at the same boundaries."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.request = -1  # the driving workload stamps each operation's id
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> List[Tuple[int, str, float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> None:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        self._stack().append((span_id, name, time.perf_counter()))

    def close(self) -> None:
        end = time.perf_counter()
        stack = self._stack()
        span_id, name, start = stack.pop()
        parent = stack[-1][0] if stack else -1
        span = Span(
            span_id, name, start, end, parent, self.request, threading.get_ident()
        )
        with self._lock:
            self.spans.append(span)

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    child_time: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration
    return {span.span_id: span.duration - child_time[span.span_id] for span in spans}


def layer_totals(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds."""
    own = self_times(spans)
    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0.0, "inclusive": 0.0, "self": 0.0}
    )
    for span in spans:
        entry = totals[span.name]
        entry["calls"] += 1
        entry["inclusive"] += span.duration
        entry["self"] += own[span.span_id]
    return dict(totals)


class Instrumentation:
    """Installs span wrappers; :meth:`remove` puts every original back."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._patches: List[Tuple[object, str, object]] = []

    def _wrapper(self, original: Callable, span_name: str, observe):
        recorder = self.recorder

        def wrapper(*args, **kwargs):
            recorder.open(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close()
            if observe is not None:
                observe(recorder, result, args)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", span_name)
        return wrapper

    def method(self, cls, attr: str, span_name: str, observe=None) -> None:
        """Wrap ``cls.attr`` (looked up per call, so one patch covers all
        callers)."""
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(original, span_name, observe))

    def function(self, module, attr: str, span_name: str, observe=None) -> None:
        """Wrap a module-level function in every ``repro`` module that bound
        it, since ``from x import f`` copies the reference."""
        original = getattr(module, attr)
        wrapped = self._wrapper(original, span_name, observe)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._patches.append((loaded, key, original))
                    setattr(loaded, key, wrapped)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _observe_pack(recorder: SpanRecorder, batch, args) -> None:
    valid = allocated = 0.0
    for grid in (getattr(batch, "wide_valid", None), getattr(batch, "deep_valid", None)):
        if grid is not None:
            valid += float(grid.sum())
            allocated += float(grid.size)
    if allocated == 0.0:
        # CSR batches allocate exactly their valid rows.
        for lengths in (batch.wide_lengths, batch.deep_lengths):
            if lengths is not None:
                valid += float(lengths.sum())
        allocated = valid
    recorder.count("pack.valid_slots", valid)
    recorder.count("pack.allocated_slots", allocated)


def _observe_send_frame(recorder: SpanRecorder, result, args) -> None:
    recorder.count("wire.frames")
    recorder.count("wire.bytes_out", len(args[1]) + 8)


def _observe_recv_frame(recorder: SpanRecorder, result, args) -> None:
    recorder.count("wire.frames")
    recorder.count("wire.bytes_in", len(result) + 8)


def _observe_scrape(recorder: SpanRecorder, text, args) -> None:
    recorder.count("obs.scrapes")
    recorder.count("obs.exposition_bytes", len(text.encode()))


def instrument(recorder: SpanRecorder) -> Instrumentation:
    """Wrap the public entry points of every layer the benchmark reports."""
    from repro.cluster import net
    from repro.cluster.net import LocalWorkerSpawner
    from repro.cluster.router import ClusterRouter
    from repro.core import classifier, packing, relay, train_loop
    from repro.core.model import WidenModel
    from repro.core.trainer import WidenTrainer
    from repro.graph import sampling
    from repro.graph.hetero_graph import HeteroGraph
    from repro.obs.metrics import MetricsRegistry
    from repro.optim import optimizers
    from repro.serve.server import InferenceServer
    from repro.store import builder
    from repro.store.store import AggregateStore
    from repro.tensor import functional
    from repro.tensor.tensor import Tensor

    random_walk = importlib.import_module("repro.graph.random_walk")
    inst = Instrumentation(recorder)
    # repro.graph
    inst.function(sampling, "sample_wide", "graph.sample")
    inst.function(sampling, "sample_deep", "graph.sample")
    inst.function(random_walk, "random_walk", "graph.sample")
    inst.method(HeteroGraph, "add_edges", "graph.mutate")
    inst.method(HeteroGraph, "add_nodes", "graph.mutate")
    # repro.core.packing
    inst.function(packing, "pack_batch", "pack", _observe_pack)
    inst.function(packing, "pack_batch_sparse", "pack", _observe_pack)
    # repro.core.model
    for attr in ("forward", "forward_batch", "forward_batch_sparse"):
        inst.method(WidenModel, attr, "model.forward")
    inst.method(WidenModel, "materialize_rows", "model.materialize")
    inst.method(WidenModel, "forward_from_blocks", "model.from_blocks")
    # repro.core.trainer / relay / train_loop
    inst.function(relay, "shrink_wide", "train.downsample")
    inst.function(relay, "prune_deep", "train.downsample")
    inst.function(functional, "kl_divergence", "train.downsample")
    for attr, phase in (
        ("epoch_begin", "begin"),
        ("run_microbatch", "microbatch"),
        ("export_grads", "export"),
        ("apply_update", "apply"),
        ("epoch_finish", "finish"),
    ):
        inst.method(WidenTrainer, attr, f"train.phase.{phase}")
    inst.method(train_loop.TrainLoop, "run", "train.loop")
    inst.function(train_loop, "reduce_gradients", "train.reduce")
    inst.function(optimizers, "global_grad_norm", "train.reduce")
    # repro.tensor / repro.optim
    inst.method(Tensor, "backward", "tensor.backward")
    inst.method(optimizers.Adam, "step", "optim.step")
    inst.function(optimizers, "clip_grad_norm", "optim.clip")
    # repro.serve (the classifier hooks are the server's compute funnel)
    for attr in (
        "embed_for_serving_batch",
        "materialize_store_rows",
        "embed_from_store_blocks",
    ):
        inst.method(classifier.WidenClassifier, attr, "serve.compute")
    inst.method(InferenceServer, "submit", "serve.submit")
    inst.method(InferenceServer, "drain", "serve.drain")
    # repro.store
    for attr in ("versions_of", "blocks_for", "block_for", "refresh"):
        inst.method(AggregateStore, attr, "store.lookup")
    inst.function(builder, "build_store", "store.build")
    # repro.cluster
    inst.function(net, "send_message", "wire.encode")
    inst.function(net, "send_frame", "wire.frame_out", _observe_send_frame)
    inst.function(net, "recv_message", "wire.decode")
    inst.function(net, "recv_frame", "wire.frame_in", _observe_recv_frame)
    for attr in ("classify", "embed"):
        inst.method(ClusterRouter, attr, "router.scatter")
    for attr in ("add_edges", "add_nodes"):
        inst.method(ClusterRouter, attr, "router.fanout")
    inst.method(LocalWorkerSpawner, "spawn", "fleet.spawn")
    # repro.obs
    inst.method(MetricsRegistry, "render_prometheus", "obs.scrape", _observe_scrape)
    return inst
