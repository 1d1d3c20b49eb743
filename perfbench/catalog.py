"""The benchmark's vocabulary: workloads, metric names, units and bounds.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-manifest``), and a test checks that the
committed file still matches, so the names here are the single source that
later changes cite.
"""

from __future__ import annotations

from typing import Dict, List

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 15

# Why each workload exists; the layer -> metric -> workload map in README.md
# says which numbers each one is expected to move.
WORKLOADS: List[Dict[str, str]] = [
    {
        "name": "train",
        "why": "single-process WidenClassifier.fit on acm x6 with attentive "
        "downsampling: the only workload with backward, optimizer and "
        "downsampling; sampling only on first touch",
    },
    {
        "name": "serve-cold",
        "why": "open-loop uniform Poisson reads on a storeless server with a "
        "tiny cache: every read resamples, packs and runs a forward, so "
        "cache and store are bypassed",
    },
    {
        "name": "serve-mixed",
        "why": "Zipf 1.1 open-loop reads through cache and store beside "
        "streaming add_edges/add_nodes writes and periodic scrapes: reads "
        "and writes contend for the same state",
    },
    {
        "name": "fleet-socket",
        "why": "2-worker loopback socket fleet: data-parallel training, then "
        "closed-loop scatter-gather classify reads with fan-out writes: the "
        "only workload with wire, reduce and mutation log",
    },
]

# Every workload reports every end-to-end metric.  What an "op" and the
# "work" are differs per workload; README.md gives the table.
END_TO_END: List[Dict[str, object]] = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "op_p95_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "scrape_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

# Ops whose OpProfiler self time and call count are reported one by one;
# the rest fold into ``tensor.op.other.s``.
TENSOR_OPS = [
    "matmul",
    "masked_softmax",
    "pad_gather_mul",
    "concat",
    "embedding_lookup",
    "mean",
    "reshape",
    "cross_entropy",
]


def _layer(name: str, unit: str, better: str) -> Dict[str, str]:
    return {"name": name, "unit": unit, "better": better}


PER_LAYER: List[Dict[str, str]] = [
    # repro.graph
    _layer("graph.sample.s", "s", "lower"),
    _layer("graph.sample.calls", "count", "lower"),
    _layer("graph.mutate.s", "s", "lower"),
    _layer("graph.mutate.calls", "count", "lower"),
    # repro.core.packing
    _layer("pack.s", "s", "lower"),
    _layer("pack.calls", "count", "lower"),
    _layer("pack.fill_ratio", "ratio", "higher"),
    # repro.core.model
    _layer("model.forward.s", "s", "lower"),
    _layer("model.forward.calls", "count", "lower"),
    _layer("model.materialize.s", "s", "lower"),
    _layer("model.from_blocks.s", "s", "lower"),
    # repro.core.trainer / relay / train_loop
    _layer("train.downsample.s", "s", "lower"),
    _layer("train.phase.begin.s", "s", "lower"),
    _layer("train.phase.microbatch.s", "s", "lower"),
    _layer("train.phase.export.s", "s", "lower"),
    _layer("train.phase.apply.s", "s", "lower"),
    _layer("train.phase.finish.s", "s", "lower"),
    _layer("train.unattributed.s", "s", "lower"),
    # repro.tensor
    _layer("tensor.backward.s", "s", "lower"),
    *(_layer(f"tensor.op.{op}.s", "s", "lower") for op in TENSOR_OPS),
    *(_layer(f"tensor.op.{op}.calls", "count", "lower") for op in TENSOR_OPS),
    _layer("tensor.op.other.s", "s", "lower"),
    _layer("tensor.flops", "flop", "lower"),
    # repro.optim
    _layer("optim.step.s", "s", "lower"),
    _layer("optim.clip.s", "s", "lower"),
    # repro.serve
    _layer("serve.queue_wait_ms.p50", "ms", "lower"),
    _layer("serve.queue_wait_ms.p99", "ms", "lower"),
    _layer("serve.compute.s", "s", "lower"),
    _layer("serve.batch.mean_size", "count", "higher"),
    _layer("serve.cache.hit_ratio", "ratio", "higher"),
    _layer("serve.rung.cache", "ratio", "higher"),
    _layer("serve.rung.store", "ratio", "higher"),
    _layer("serve.rung.overlay", "ratio", "higher"),
    _layer("serve.rung.recompute", "ratio", "lower"),
    _layer("serve.invalidated", "count", "lower"),
    # repro.store
    _layer("store.lookup.s", "s", "lower"),
    _layer("store.hit_ratio", "ratio", "higher"),
    _layer("store.stale_rows", "count", "lower"),
    _layer("store.build.s", "s", "lower"),
    # repro.cluster
    _layer("wire.encode.s", "s", "lower"),
    _layer("wire.decode.s", "s", "lower"),
    _layer("wire.frames", "count", "lower"),
    _layer("wire.bytes_out", "bytes", "lower"),
    _layer("wire.bytes_in", "bytes", "lower"),
    _layer("router.scatter.s", "s", "lower"),
    _layer("router.fanout.s", "s", "lower"),
    _layer("train.reduce.s", "s", "lower"),
    _layer("train.sync_bytes", "bytes", "lower"),
    _layer("fleet.spawn.s", "s", "lower"),
    _layer("fleet.worker_train.s", "s", "lower"),
    _layer("fleet.worker_serve.s", "s", "lower"),
    # repro.obs
    _layer("obs.scrape.s", "s", "lower"),
    _layer("obs.exposition_bytes", "bytes", "lower"),
    # whole run
    _layer("unattributed.s", "s", "lower"),
    _layer("trace.spans", "count", "lower"),
    _layer("trace.overhead.op_p50_ms", "ms", "lower"),
    _layer("trace.overhead.work_per_s", "1/s", "higher"),
]

END_TO_END_NAMES = [metric["name"] for metric in END_TO_END]
PER_LAYER_NAMES = [metric["name"] for metric in PER_LAYER]
UNITS = {metric["name"]: metric["unit"] for metric in END_TO_END + PER_LAYER}
WORKLOAD_NAMES = [workload["name"] for workload in WORKLOADS]


def manifest() -> Dict[str, object]:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [dict(workload) for workload in WORKLOADS],
        "end_to_end": [dict(metric) for metric in END_TO_END],
        "per_layer": [dict(metric) for metric in PER_LAYER],
    }
