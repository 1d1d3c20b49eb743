"""Fast tests for the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import catalog  # noqa: E402
from perfbench.spans import Instrumentation, SpanRecorder, layer_totals, self_times  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def run_bench(*args, cwd=ROOT, timeout=300):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def last_json(completed) -> dict:
    return json.loads(completed.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------


def test_manifest_is_generated_from_the_catalog():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == catalog.manifest()


def test_manifest_schema():
    raw = (ROOT / "BENCHMARK.json").read_bytes()
    assert len(raw) <= 64 * 1024
    manifest = json.loads(raw)
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    command = manifest["command"]
    assert 1 <= len(command) <= 32
    assert all(isinstance(part, str) and len(part) <= 200 for part in command)
    assert not any(part.startswith("/") or ".." in part.split("/") for part in command)
    assert 1 <= len(manifest["paths"]) <= 16
    for path in manifest["paths"]:
        assert PATH.match(path) and not path.startswith("/") and ".." not in path.split("/")
        assert (ROOT / path).is_dir()
    assert isinstance(manifest["run_seconds"], int) and 1 <= manifest["run_seconds"] <= 60
    workloads = manifest["workloads"]
    assert 2 <= len(workloads) <= 8
    for workload in workloads:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    end_to_end = manifest["end_to_end"]
    assert 1 <= len(end_to_end) <= 16
    for metric in end_to_end:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = [metric for metric in end_to_end if metric["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": max(m["bound"] for m in end_to_end)}]
    per_layer = manifest["per_layer"]
    assert 1 <= len(per_layer) <= 128
    for metric in per_layer:
        assert set(metric) == {"name", "unit", "better"}
    names = [entry["name"] for entry in workloads + end_to_end + per_layer]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in end_to_end + per_layer:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


def test_self_times_are_nonnegative_and_children_nest():
    recorder = SpanRecorder()

    class Owner:
        def leaf(self):
            time.sleep(0.002)

        def middle(self):
            self.leaf()
            time.sleep(0.001)
            self.leaf()

    leaf = Owner.__dict__["leaf"]
    instrumentation = Instrumentation(recorder)
    instrumentation.method(Owner, "leaf", "leaf")
    instrumentation.method(Owner, "middle", "middle")
    recorder.open("root")
    Owner().middle()
    recorder.close()
    instrumentation.remove()
    assert Owner.__dict__["leaf"] is leaf

    by_id = {span.span_id: span for span in recorder.spans}
    own = self_times(recorder.spans)
    for span in recorder.spans:
        assert own[span.span_id] >= 0
        if span.parent >= 0:
            parent = by_id[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end
    totals = layer_totals(recorder.spans)
    assert totals["leaf"]["calls"] == 2
    assert totals["middle"]["self"] == pytest.approx(
        totals["middle"]["inclusive"] - totals["leaf"]["inclusive"]
    )


def test_traced_training_spans_nest_and_wrappers_come_off():
    from repro.core import WidenClassifier
    from repro.core.model import WidenModel
    from repro.datasets import make_acm

    from perfbench.workloads import Tracing

    original = WidenModel.__dict__["forward_batch"]
    dataset = make_acm(seed=3, scale=0.3)
    with Tracing() as tracing:
        WidenClassifier(seed=3).fit(dataset.graph, dataset.split.train, epochs=2)
    assert WidenModel.__dict__["forward_batch"] is original

    spans = tracing.recorder.spans
    names = {span.name for span in spans}
    assert {"graph.sample", "pack", "model.forward", "tensor.backward", "optim.step"} <= names
    by_id = {span.span_id: span for span in spans}
    own = self_times(spans)
    for span in spans:
        assert own[span.span_id] >= -1e-9
        if span.parent >= 0:
            parent = by_id[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
            assert parent.thread == span.thread


# ----------------------------------------------------------------------
# Tiny end-to-end runs
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workload", catalog.WORKLOAD_NAMES)
def test_tiny_run(workload):
    completed = run_bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "0", "--size", "tiny")
    assert completed.returncode == 0, completed.stderr[-2000:]
    result = last_json(completed)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == catalog.END_TO_END_NAMES
    for name, metric in result["metrics"].items():
        assert metric["unit"] == catalog.UNITS[name]
        assert metric["value"] > 0, name
    assert "check" in completed.stdout and "n=" in completed.stdout


@pytest.mark.parametrize("workload", ["train", "serve-mixed"])
def test_tiny_traced_run_reports_every_layer(workload):
    completed = run_bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1", "--size", "tiny")
    assert completed.returncode == 0, completed.stderr[-2000:]
    result = last_json(completed)
    assert result["correct"] is True
    assert list(result["metrics"]) == catalog.PER_LAYER_NAMES
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == catalog.UNITS[name]
    assert values["trace.spans"] > 0
    assert values["graph.sample.calls"] > 0 and values["model.forward.s"] + values["model.from_blocks.s"] > 0
    assert values["wire.frames"] == 0  # no fleet on these workloads


def test_same_seed_gives_same_inputs():
    from repro.datasets import make_acm
    from repro.serve import make_trace

    first = make_acm(seed=9, scale=0.3).graph
    second = make_acm(seed=9, scale=0.3).graph
    assert (first.indices == second.indices).all() and (first.features == second.features).all()
    assert make_trace(range(50), 20, rng=[9, 0]) == make_trace(range(50), 20, rng=[9, 0])


def test_without_the_program_it_fails_fast(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_bench("--workload", "train", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path, timeout=60)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def test_pace_scales_times_to_the_reference_speed(monkeypatch):
    from perfbench import pace as pace_module

    monkeypatch.setattr(pace_module, "host_probe", lambda: 2 * pace_module.REFERENCE_PROBE_S)
    pace = pace_module.Pace()
    times: list = []
    pace.ms(times, 10.0)
    pace.ms_many(times, [4.0, 6.0])
    assert times == []  # scaled only once the segment closes
    pace.cut()
    assert times == [5.0, 2.0, 3.0]
    assert pace.probes == [2 * pace_module.REFERENCE_PROBE_S]


def test_a_cached_kernel_table_cannot_change_dispatch(tmp_path):
    table = tmp_path / "repro" / "kernel_table.json"
    table.parent.mkdir()
    table.write_text(json.dumps({"version": 1, "forward": {"sparse_min_waste": 0.0}}))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={**os.environ, "XDG_CACHE_HOME": str(tmp_path)},
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    fingerprint = json.loads(completed.stdout.splitlines()[0])["fingerprint"]
    assert fingerprint["kernel_table_loaded"] is False
    assert fingerprint["env"]["REPRO_SPARSE_MIN_WASTE"] == "0.5"
    assert fingerprint["nproc"] >= 1 and fingerprint["numpy"] and fingerprint["host"]
