"""The four workloads, driven through the public API of ``repro``.

Each workload gets only generated inputs (graph, read trace, mutation
stream), all derived from ``--seed``.  A run is: set up ``SETUP_REPS``
times (the last set-up is kept), measure, check the outputs outside the
timed region, tear down.  With tracing on, the work is split in halves:
the first is measured untraced, the second traced, and the difference
between the two is the tracing overhead.

The amount of work is a fixed function of ``--seconds`` (units of work per
nominal second, calibrated on a 2-core x86_64 host), never of how fast the
code runs: state that accumulates over a run (registry series, cache and
store contents, applied writes) is then the same on every commit, so a
faster read path cannot make the scrapes that follow it look slower.
Every time is normalised to reference host speed by :mod:`perfbench.pace`.
"""

from __future__ import annotations

import gc
import math
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.cluster import ClusterRouter, DistributedTrainer
from repro.core import LocalTrainClient, WidenClassifier
from repro.datasets import make_acm
from repro.eval import micro_f1
from repro.obs import MetricsRegistry, OpProfiler, get_registry, set_registry
from repro.serve import InferenceServer, Telemetry, make_trace, replay
from repro.store import build_store

from perfbench.layers import ServeStats, layer_metrics
from perfbench.pace import Pace
from perfbench.spans import SpanRecorder, instrument

SETUP_REPS = 3
WINDOW_MIN_OPS = 200

# The determinism configuration under which a socket fleet's training
# matches a single-process run to 1e-10 (see repro.cluster.train).
FLEET_TRAIN_CONFIG = dict(sample_seeding="per_node", dropout=0.0, downsample_mode="off")


@dataclass(frozen=True)
class Size:
    """Input sizes.  ``FULL`` is what the benchmark runs; ``TINY`` keeps the
    benchmark's own tests fast."""

    train_scale: float = 6.0
    train_epochs: int = 4
    scrapes_per_fit: int = 10
    f1_floor: float = 0.6
    serve_scale: float = 3.0
    serve_fit_epochs: int = 1
    # Offered read rates (requests/s on the logical clock), all well below
    # the cold path's capacity (about 1100 rps with the short batching
    # deadline below) so the tail repeats.
    rates: tuple = (250.0, 400.0, 600.0)
    # Op latency is taken at the lowest rate, where queueing is rare and a
    # latency scales with the compute behind it (see perfbench.pace).
    reference_rate: float = 250.0
    p99_limit_ms: float = 25.0
    # The batching deadline is short so read latency is set by the compute
    # under test more than by a fixed logical wait.
    max_wait_s: float = 0.0005
    round_reads: int = 1000
    cold_segment: int = 100
    cold_cache: int = 64
    mixed_cache: int = 256
    reads_per_write: int = 50
    writes_per_add_node: int = 5
    segments_per_scrape: int = 4
    fleet_scale: float = 3.0
    fleet_epochs: int = 4
    fleet_batch: int = 8
    fleet_reads_per_write: int = 10
    fleet_reads_per_scrape: int = 20
    probe_nodes: int = 48
    # Work per nominal second of --seconds.
    train_fits_per_s: float = 1 / 1.5
    serve_cycles_per_s: float = 1 / 3.5
    fleet_fits_per_s: float = 0.67
    fleet_reads_per_s: float = 40.0


FULL = Size()
TINY = Size(
    train_scale=0.5,
    train_epochs=1,
    f1_floor=0.0,
    serve_scale=0.3,
    round_reads=120,
    cold_segment=30,
    reads_per_write=20,
    fleet_scale=0.3,
    fleet_epochs=1,
    probe_nodes=8,
)


def units(seconds: float, per_second: float) -> int:
    return max(1, round(seconds * per_second))


# ----------------------------------------------------------------------
# Bookkeeping
# ----------------------------------------------------------------------


@dataclass
class Tally:
    """Operations attempted and failed, plus the correctness checks."""

    attempted: int = 0
    failed: int = 0
    checks: List[tuple] = field(default_factory=list)

    def check(self, name: str, ok: bool, covers: int, detail: str = "") -> None:
        """Record a check; a failed one counts ``covers`` operations failed."""
        self.checks.append((name, bool(ok), detail))
        if not ok:
            self.failed += max(1, int(covers))

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


@dataclass
class Samples:
    """Normalised measurements of one measured region."""

    rates: List[float] = field(default_factory=list)  # work/s, one per fit
    ops_ms: List[float] = field(default_factory=list)  # in the order run
    # Consecutive windows of ops; empty means equal chunks of ops_ms.
    op_windows: List[List[float]] = field(default_factory=list)
    scrapes_ms: List[float] = field(default_factory=list)
    reads_ms: List[float] = field(default_factory=list)
    writes_ms: List[float] = field(default_factory=list)
    losses: List[List[float]] = field(default_factory=list)
    serve: ServeStats = field(default_factory=ServeStats)
    extra: Dict[str, float] = field(default_factory=dict)

    def end_to_end(self) -> Dict[str, tuple]:
        """``name -> (value, sample count)`` for the timed end-to-end metrics.

        The tail is the median over consecutive windows of each window's
        p95.  A host stall (the vCPU descheduled for tens of ms) or a burst
        of steal time lands in one or two windows and would decide a pooled
        tail on its own; a tail the program causes in every window stays.
        Windows hold at least 200 ops, so each p95 has 10 beyond it.
        """
        if "read_max_rps" in self.extra:
            work = (self.extra["read_max_rps"], 1)
        else:
            work = (pct(self.rates, 50), len(self.rates))
        windows = self.op_windows
        if not windows:
            size = max(WINDOW_MIN_OPS, len(self.ops_ms) // 5)
            windows = [self.ops_ms[i : i + size] for i in range(0, len(self.ops_ms), size)]
            if len(windows) > 1 and len(windows[-1]) < WINDOW_MIN_OPS:
                windows[-2].extend(windows.pop())
        tail = float(np.median([pct(window, 95) for window in windows])) if windows else 0.0
        return {
            "work_per_s": work,
            "op_p50_ms": (pct(self.ops_ms, 50), len(self.ops_ms)),
            "op_p95_ms": (tail, len(self.ops_ms)),
            "scrape_p50_ms": (pct(self.scrapes_ms, 50), len(self.scrapes_ms)),
        }


@dataclass
class RunResult:
    tally: Tally
    setup_s: List[float]
    phases: List[Samples]
    details: Dict[str, object]
    peak_rss_mb: float
    probes: List[float]
    layers: Optional[Dict[str, float]] = None


def pct(values, q: float) -> float:
    if not len(values):
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def timed_ms(fn: Callable, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return (time.perf_counter() - start) * 1e3, result


class Workspace:
    """Scratch files (checkpoints, stores) inside the checkout."""

    def __init__(self, root: Path) -> None:
        root.mkdir(parents=True, exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=root))

    def fresh(self, name: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=f"{name}-", dir=self.path))

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def peak_rss_mb(concurrent_children: int) -> float:
    """Parent peak plus the largest reaped worker's peak times the number of
    workers alive at once (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return own + concurrent_children * child


def rung_total(telemetry: Telemetry) -> int:
    summary = telemetry.summary()
    return int(
        sum(summary.get(f"rung_{rung}", 0) for rung in ("cache", "store", "overlay", "recompute"))
    )


class StepClock:
    """Times each single-process training step (microbatch through clipped
    update) with one clock read at each end, and lets the pace probe run
    between steps."""

    def __init__(self, pace: Pace, recorder: Optional[SpanRecorder]) -> None:
        self.pace = pace
        self.recorder = recorder
        self.steps_ms: List[float] = []
        self._start = 0.0
        self._run = LocalTrainClient.run_microbatch
        self._apply = LocalTrainClient.apply_update

    def __enter__(self) -> "StepClock":
        clock, run, apply = self, self._run, self._apply

        def run_microbatch(client, start):
            if clock.recorder is not None:
                clock.recorder.request += 1
            clock._start = time.perf_counter()
            return run(client, start)

        def apply_update(client, grads, norm):
            result = apply(client, grads, norm)
            clock.pace.ms(clock.steps_ms, (time.perf_counter() - clock._start) * 1e3)
            clock.pace.maybe_cut()
            return result

        LocalTrainClient.run_microbatch = run_microbatch
        LocalTrainClient.apply_update = apply_update
        return self

    def __exit__(self, *exc_info) -> None:
        LocalTrainClient.run_microbatch = self._run
        LocalTrainClient.apply_update = self._apply


class Tracing:
    """Span wrappers (and, for measured regions, the op profiler)."""

    def __init__(self, profile: bool = True) -> None:
        self.recorder = SpanRecorder()
        self.profiler = OpProfiler() if profile else None
        self._instrumentation = None
        self.start = self.end = 0.0

    def __enter__(self) -> "Tracing":
        self._instrumentation = instrument(self.recorder)
        if self.profiler is not None:
            self.profiler.enable()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.end = time.perf_counter()
        if self.profiler is not None:
            self.profiler.disable()
        self._instrumentation.remove()


# ----------------------------------------------------------------------
# The run skeleton shared by every workload
# ----------------------------------------------------------------------


@dataclass
class Workload:
    build: Callable[[], dict]
    teardown: Callable[[dict], None]
    # measure(state, seconds, tally, pace, recorder): the recorder is None
    # untraced; traced, the workload stamps each operation's id on it.
    measure: Callable[[dict, float, Tally, Pace, Optional[SpanRecorder]], Samples]
    check: Callable[[dict, List[Samples], Tally], Dict[str, object]]
    workers: int = 0  # worker processes alive at once


def run_workload(workload: Workload, seconds: float, trace: bool) -> RunResult:
    tally = Tally()
    pace = Pace()
    setup_times: List[float] = []
    setup_trace = None
    state = None
    phases: List[Samples] = []
    tracing = None
    try:
        for rep in range(SETUP_REPS):
            if state is not None:
                workload.teardown(state)
                state = None
            pace.cut()
            mark = pace.scaled_s
            if trace and rep == SETUP_REPS - 1:
                with Tracing(profile=False) as setup_trace:
                    state = workload.build()
            else:
                state = workload.build()
            pace.cut()
            setup_times.append(pace.scaled_s - mark)
        # Move everything set-up allocated (imports, graph, model) out of the
        # collector's reach, as a long-lived server would at start-up: a full
        # collection otherwise walks ~10^5 set-up objects and stalls a
        # replay for 50-80 ms at random points, which no code path under
        # test causes.  Objects allocated while measuring are still
        # collected as usual.
        gc.collect()
        gc.freeze()
        if trace:
            phases.append(workload.measure(state, seconds / 2, tally, pace, None))
            with Tracing() as tracing:
                phases.append(
                    workload.measure(state, seconds / 2, tally, pace, tracing.recorder)
                )
        else:
            phases.append(workload.measure(state, seconds, tally, pace, None))
        details = workload.check(state, phases, tally)
    finally:
        if state is not None:
            workload.teardown(state)
    result = RunResult(
        tally=tally,
        setup_s=setup_times,
        phases=phases,
        details=details,
        peak_rss_mb=peak_rss_mb(workload.workers),
        probes=pace.probes,
    )
    if trace:
        untraced, traced = phases
        layers = layer_metrics(tracing, setup_trace.recorder.spans, traced.serve, traced.extra)
        before, after = untraced.end_to_end(), traced.end_to_end()
        for name in ("op_p50_ms", "work_per_s"):
            layers[f"trace.overhead.{name}"] = after[name][0] - before[name][0]
        result.layers = layers
    return result


def train_serving_checkpoint(dataset, seed: int, epochs: int, path: Path) -> Path:
    classifier = WidenClassifier(seed=seed)
    classifier.fit(dataset.graph, dataset.split.train, epochs=epochs)
    checkpoint = path / "serving.npz"
    classifier.save(checkpoint)
    return checkpoint


class MutationStream:
    """Seeded streaming writes on the ACM schema: paper-author edges, and
    every ``add_every``-th write a new paper linked to two authors."""

    def __init__(self, seed: int, graph, add_every: int) -> None:
        self.rng = np.random.default_rng([seed, 17])
        self.papers = graph.nodes_of_type("paper")
        self.authors = graph.nodes_of_type("author")
        self.feature_dim = graph.features.shape[1]
        self.add_every = add_every
        self.log: List[tuple] = []
        self.new_nodes: List[int] = []

    def write(self, target) -> float:
        """Apply the next write to a server or router; returns its ms."""
        if (len(self.log) + 1) % self.add_every == 0:
            features = self.rng.random((1, self.feature_dim))
            authors = self.rng.choice(self.authors, size=2, replace=False)
            write = ("add_paper", features, [int(a) for a in authors])
        else:
            write = ("add_edge", int(self.rng.choice(self.papers)), int(self.rng.choice(self.authors)))
        self.log.append(write)
        ms, node = timed_ms(self.apply, target, write)
        if node is not None:
            self.new_nodes.append(node)
        return ms

    @staticmethod
    def apply(target, write: tuple) -> Optional[int]:
        if write[0] == "add_edge":
            target.add_edges("paper-author", [write[1]], [write[2]])
            return None
        node = int(target.add_nodes("paper", features=write[1])[0])
        target.add_edges("paper-author", [node, node], write[2])
        return node

    def probe(self, seed: int, num_nodes: int, count: int) -> np.ndarray:
        """Seeded original nodes plus the latest nodes the stream added."""
        rng = np.random.default_rng([seed, 29])
        original = rng.choice(num_nodes, size=count, replace=False)
        return np.concatenate([original, self.new_nodes[-16:]]).astype(np.int64)

    def oracle_embed(self, checkpoint: Path, dataset, seed: int, probe: np.ndarray) -> np.ndarray:
        """A storeless single server that saw the same writes, asked one
        node at a time."""
        oracle = InferenceServer(
            WidenClassifier.load(checkpoint, graph=dataset.graph),
            dataset.graph,
            cache_capacity=1,
            seed=seed,
        )
        try:
            for write in self.log:
                self.apply(oracle, write)
            return np.stack([oracle.embed([node])[0] for node in probe])
        finally:
            oracle.close()


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------


def train_workload(seed: int, size: Size, workspace: Workspace) -> Workload:
    def build() -> dict:
        return {"dataset": make_acm(seed=seed, scale=size.train_scale)}

    def measure(state: dict, seconds: float, tally: Tally, pace: Pace, recorder) -> Samples:
        dataset = state["dataset"]
        train = dataset.split.train
        samples = Samples()
        with StepClock(pace, recorder) as steps:
            steps.steps_ms = samples.ops_ms
            for _ in range(units(seconds, size.train_fits_per_s)):
                # Each fit reports into its own registry, as one training
                # job would; the scrape reads that job's exposition.
                set_registry(MetricsRegistry())
                classifier = WidenClassifier(seed=seed)
                pace.cut()
                mark = pace.scaled_s
                classifier.fit(dataset.graph, train, epochs=size.train_epochs)
                pace.cut()
                samples.rates.append(size.train_epochs * train.size / (pace.scaled_s - mark))
                samples.losses.append(list(classifier.losses))
                for _ in range(size.scrapes_per_fit):
                    ms, _ = timed_ms(get_registry().render_prometheus)
                    pace.ms(samples.scrapes_ms, ms)
                state["classifier"] = classifier
        pace.cut()
        tally.attempted += len(samples.ops_ms) + len(samples.scrapes_ms)
        return samples

    def check(state: dict, phases: List[Samples], tally: Tally) -> Dict[str, object]:
        dataset = state["dataset"]
        curves = [curve for samples in phases for curve in samples.losses]
        steps = sum(len(samples.ops_ms) for samples in phases)
        finite = all(math.isfinite(loss) for curve in curves for loss in curve)
        tally.check("train.loss_finite", finite, steps)
        tally.check(
            "train.fit_deterministic",
            all(curve == curves[0] for curve in curves),
            steps,
            f"{len(curves)} fits of one seed give one loss curve",
        )
        test = dataset.split.test
        f1 = micro_f1(dataset.graph.labels[test], state["classifier"].predict(test))
        tally.check("train.test_micro_f1", f1 > size.f1_floor, steps, f"{f1:.4f} > {size.f1_floor}")
        return {"train_final_loss": curves[0][-1], "test_micro_f1": f1}

    return Workload(build, lambda state: None, measure, check)


# ----------------------------------------------------------------------
# serve-cold / serve-mixed
# ----------------------------------------------------------------------


def serve_workload(seed: int, size: Size, workspace: Workspace, mixed: bool) -> Workload:
    def build() -> dict:
        dataset = make_acm(seed=seed, scale=size.serve_scale)
        files = workspace.fresh("serve")
        checkpoint = train_serving_checkpoint(dataset, seed, size.serve_fit_epochs, files)
        classifier = WidenClassifier.load(checkpoint, graph=dataset.graph)
        store = None
        if mixed:
            store = build_store(classifier, dataset.graph, files / "store", seed=seed)
        server = InferenceServer(
            classifier,
            dataset.graph,
            max_wait=size.max_wait_s,
            cache_capacity=size.mixed_cache if mixed else size.cold_cache,
            seed=seed,
            store=store,
        )
        return {
            "checkpoint": checkpoint,
            "server": server,
            "files": files,
            "writes": MutationStream(seed, dataset.graph, size.writes_per_add_node),
            "round": 0,
        }

    def teardown(state: dict) -> None:
        state["server"].close()
        shutil.rmtree(state["files"], ignore_errors=True)

    def measure(state: dict, seconds: float, tally: Tally, pace: Pace, recorder) -> Samples:
        server = state["server"]
        samples = Samples()
        # One window of read latencies per replayed trace and rate.
        windows = {rate: [] for rate in size.rates}
        spans = {rate: [0, 0.0] for rate in size.rates}
        replays = mismatched = 0
        pool = np.arange(server.graph.num_nodes)
        for _ in range(units(seconds, size.serve_cycles_per_s)):
            for rate in size.rates:
                trace = make_trace(
                    pool,
                    size.round_reads,
                    rate=rate,
                    zipf_exponent=1.1 if mixed else 0.0,
                    rng=[seed, state["round"]],
                )
                state["round"] += 1
                reference = rate == size.reference_rate
                window: List[float] = []
                windows[rate].append(window)
                if reference:
                    samples.op_windows.append([])
                # A write is a barrier: the reads before it drain first.
                segment = size.reads_per_write if mixed else size.cold_segment
                for index, begin in enumerate(range(0, len(trace), segment)):
                    events = trace[begin : begin + segment]
                    if recorder is not None:
                        recorder.request += 1
                    replay(server, events)
                    telemetry = server.telemetry
                    tally.attempted += len(events)
                    replays += 1
                    if rung_total(telemetry) != len(events):
                        mismatched += len(events)
                    latencies = [record.latency * 1e3 for record in telemetry.requests]
                    pace.ms_many(window, latencies)
                    if reference:
                        pace.ms_many(samples.op_windows[-1], latencies)
                    spans[rate][0] += len(events)
                    spans[rate][1] += (
                        max(record.completion for record in telemetry.requests) - events[0].time
                    )
                    if mixed:
                        ms = state["writes"].write(server)
                        pace.ms(samples.writes_ms, ms)
                        if reference:
                            pace.ms(samples.op_windows[-1], ms)
                    if index % size.segments_per_scrape == 0:
                        ms, _ = timed_ms(server.render_prometheus)
                        pace.ms(samples.scrapes_ms, ms)
                    # Folded after the write, so its invalidation record is
                    # kept before the next replay resets the telemetry.
                    samples.serve.add(telemetry)
                    pace.cut()
        tally.check(
            "serve.rungs_sum_to_requests", mismatched == 0, mismatched, f"{replays} replays"
        )
        tally.attempted += len(samples.writes_ms) + len(samples.scrapes_ms)
        # The op windows are the reference rate's traces, writes included.
        for window in samples.op_windows:
            samples.ops_ms.extend(window)
        # read_max_rps: the achieved rate at the highest offered rate whose
        # windows, by the median, keep p99 under the limit and show no
        # growing backlog (median of the last decile under the limit too).
        best = 0.0
        for rate in size.rates:
            reads = [ms for window in windows[rate] for ms in window]
            p99 = float(np.median([pct(window, 99) for window in windows[rate]]))
            backlog = float(np.median([pct(window[-len(window) // 10:], 50) for window in windows[rate]]))
            if p99 <= size.p99_limit_ms and backlog <= size.p99_limit_ms:
                count, span = spans[rate]
                best = count / span
            samples.extra[f"read_p50_ms@{rate:g}"] = pct(reads, 50)
            samples.extra[f"read_p99_ms@{rate:g}"] = p99
            samples.extra[f"reads@{rate:g}"] = len(reads)
        samples.extra["read_max_rps"] = best
        return samples

    def check(state: dict, phases: List[Samples], tally: Tally) -> Dict[str, object]:
        # Probe answers equal a storeless single server's that saw the same
        # writes (serve-cold has none: then it checks that batching and
        # the cache cannot change an answer).
        server = state["server"]
        dataset = make_acm(seed=seed, scale=size.serve_scale)
        writes = state["writes"]
        probe = writes.probe(seed, dataset.graph.num_nodes, size.probe_nodes)
        served = server.embed(probe)
        expected = writes.oracle_embed(state["checkpoint"], dataset, seed, probe)
        tally.check(
            "serve.probe_bit_equal_oracle",
            served.shape == expected.shape and np.array_equal(served, expected),
            probe.size,
            f"{probe.size} probe nodes after {len(writes.log)} writes",
        )
        return {}

    return Workload(build, teardown, measure, check)


# ----------------------------------------------------------------------
# fleet-socket
# ----------------------------------------------------------------------


def fleet_workload(seed: int, size: Size, workspace: Workspace) -> Workload:
    def build() -> dict:
        files = workspace.fresh("fleet")
        train_data = make_acm(seed=seed, scale=size.fleet_scale)
        base = WidenClassifier(seed=seed, **FLEET_TRAIN_CONFIG)
        base.fit(train_data.graph, train_data.split.train, epochs=0)
        trainer = DistributedTrainer.from_classifier(base, train_data.graph, 2, transport="socket")
        state = {"files": files, "train_data": train_data, "trainer": trainer}
        try:
            serve_data = make_acm(seed=seed, scale=size.fleet_scale)
            checkpoint = train_serving_checkpoint(serve_data, seed, size.serve_fit_epochs, files)
            state["router"] = ClusterRouter.from_checkpoint(
                checkpoint,
                serve_data.graph,
                2,
                transport="socket",
                seed=seed,
                cache_capacity=size.mixed_cache,
            )
        except BaseException:
            teardown(state)
            raise
        state.update(
            checkpoint=checkpoint,
            writes=MutationStream(seed, serve_data.graph, size.writes_per_add_node),
            read_rng=np.random.default_rng([seed, 31]),
            num_nodes=serve_data.graph.num_nodes,
        )
        return state

    def teardown(state: dict) -> None:
        if "router" in state:
            state["router"].close()
        state["trainer"].close()
        shutil.rmtree(state["files"], ignore_errors=True)

    def measure(state: dict, seconds: float, tally: Tally, pace: Pace, recorder) -> Samples:
        samples = Samples()
        trainer = state["trainer"]
        train = state["train_data"].split.train
        reduce_hist = trainer.registry.histogram("train_grad_reduce_seconds")
        sync = trainer.registry.counter("train_sync_bytes_total")
        before = (trainer.logical_seconds, reduce_hist.sum, sync.value)
        # Only the first fit of the run starts from cold neighbour states.
        # Fit rates are raw wall time: a fleet step is paced by round trips
        # between three processes, not by this process's CPU speed, and
        # scaling by the probe made consecutive fits spread 2.3k-3.8k
        # nodes/s where raw they spread 2.3k-2.9k.
        fits = units(seconds, size.fleet_fits_per_s)
        for _ in range(fits):
            epochs_before = len(trainer.history.losses)
            fit_start = time.perf_counter()
            trainer.fit(train, size.fleet_epochs)
            elapsed = time.perf_counter() - fit_start
            samples.rates.append(size.fleet_epochs * train.size / elapsed)
            samples.losses.append(list(trainer.history.losses[epochs_before:]))
        # Worker-side compute as the program reports it: the logical span is
        # the slowest shard's stamped seconds per phase plus the reduce.
        samples.extra["fleet.worker_train.s"] = (trainer.logical_seconds - before[0]) - (
            reduce_hist.sum - before[1]
        )
        samples.extra["train.sync_bytes"] = sync.value - before[2]
        tally.attempted += fits * size.fleet_epochs * math.ceil(train.size / trainer.config.batch_size)

        router = state["router"]
        router.reset_telemetry()
        state["nodes_read"] = 0
        dist = router.enable_dist_tracing() if recorder is not None else None
        weights = 1.0 / np.arange(1, state["num_nodes"] + 1) ** 1.1
        weights /= weights.sum()
        for count in range(1, units(seconds, size.fleet_reads_per_s) + 1):
            batch = state["read_rng"].choice(state["num_nodes"], size=size.fleet_batch, p=weights)
            if recorder is not None:
                recorder.request = count
            ms, _ = timed_ms(router.classify, batch)
            pace.ms(samples.reads_ms, ms)
            pace.ms(samples.ops_ms, ms)
            state["nodes_read"] += batch.size
            if count % size.fleet_reads_per_write == 0:
                ms = state["writes"].write(router)
                pace.ms(samples.writes_ms, ms)
                pace.ms(samples.ops_ms, ms)
            if count % size.fleet_reads_per_scrape == 0:
                ms, _ = timed_ms(router.render_prometheus)
                pace.ms(samples.scrapes_ms, ms)
            pace.maybe_cut()
        pace.cut()
        if dist is not None:
            samples.extra["fleet.worker_serve.s"] = sum(
                float(span["duration"])
                for shard_spans in dist.shard_spans.values()
                for span in shard_spans
                if int(span.get("depth", 0)) == 0
            )
        tally.attempted += len(samples.ops_ms) + len(samples.scrapes_ms)
        return samples

    def check(state: dict, phases: List[Samples], tally: Tally) -> Dict[str, object]:
        # Fleet loss == a single-process run of the same config, to 1e-10.
        fleet_curve = phases[0].losses[0]
        train_data = make_acm(seed=seed, scale=size.fleet_scale)
        single = WidenClassifier(seed=seed, **FLEET_TRAIN_CONFIG)
        single.fit(train_data.graph, train_data.split.train, epochs=size.fleet_epochs)
        gap = max(abs(a - b) for a, b in zip(fleet_curve, single.losses))
        tally.check(
            "fleet.loss_matches_single_process",
            all(math.isfinite(loss) for loss in fleet_curve)
            and len(fleet_curve) == len(single.losses)
            and gap <= 1e-10,
            size.fleet_epochs,
            f"max |fleet - single| = {gap:.3g}",
        )
        # Rung counts over every shard sum to the nodes read since the reset.
        router = state["router"]
        shard_telemetry = [
            Telemetry.from_payload(worker.pull_telemetry().result(60.0)["telemetry"])
            for worker in router.workers
        ]
        for telemetry in shard_telemetry:
            phases[-1].serve.add(telemetry)
        rungs = sum(rung_total(telemetry) for telemetry in shard_telemetry)
        tally.check(
            "fleet.rungs_sum_to_nodes",
            rungs == state["nodes_read"],
            len(phases[-1].reads_ms),
            f"{rungs} rungs for {state['nodes_read']} nodes",
        )
        # Probe answers after the writes == a storeless single server's.
        serve_data = make_acm(seed=seed, scale=size.fleet_scale)
        writes = state["writes"]
        probe = writes.probe(seed, serve_data.graph.num_nodes, size.probe_nodes)
        served = router.embed(probe)
        expected = writes.oracle_embed(state["checkpoint"], serve_data, seed, probe)
        tally.check(
            "fleet.probe_bit_equal_oracle",
            served.shape == expected.shape and np.array_equal(served, expected),
            probe.size,
            f"{probe.size} probe nodes after {len(writes.log)} writes",
        )
        return {"train_final_loss": fleet_curve[-1]}

    return Workload(build, teardown, measure, check, workers=4)


def make_workload(name: str, seed: int, size: Size, workspace: Workspace) -> Workload:
    if name == "train":
        return train_workload(seed, size, workspace)
    if name == "serve-cold":
        return serve_workload(seed, size, workspace, mixed=False)
    if name == "serve-mixed":
        return serve_workload(seed, size, workspace, mixed=True)
    if name == "fleet-socket":
        return fleet_workload(seed, size, workspace)
    raise ValueError(f"unknown workload {name!r}")
