"""Benchmark entry point: one workload per run, or all four in turn.

    python3 perfbench/run.py --workload serve-mixed --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 10 --trace 1
    python3 perfbench/run.py --write-manifest      # regenerate BENCHMARK.json

Run it from the root of a checkout; it imports ``repro`` from ``src/`` and
writes scratch files only under ``.perfbench/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the per-layer
ones).  The lines before it repeat every number with its unit and sample
count.  Exit code 0 means the run completed and every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"

# Pinned before numpy or repro is imported: one BLAS thread per process
# (nproc is 2 and fleets run several processes), the kernel-selection
# thresholds at their built-in defaults, and the kernel table pointed at a
# file that never exists, so a table left by ``repro tune-kernels`` in the
# user's cache cannot change dispatch.  Fleet workers inherit all of it.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "REPRO_SCATTER_SPARSE_MIN_ROWS": "64",
    "REPRO_SCATTER_DENSE_MAX_CELLS": "65536",
    "REPRO_SPARSE_MIN_WASTE": "0.5",
    "REPRO_KERNEL_TABLE": str(SCRATCH / "no-kernel-table.json"),
}


def pin_environment() -> Path:
    """Pin the environment; returns this process's temp dir to remove."""
    os.environ.update(PINNED_ENV)
    tmp = SCRATCH / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    # Library temp files (checkpoint hand-offs) stay inside the checkout.
    os.environ["TMPDIR"] = str(tmp)
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = src + os.pathsep + os.environ.get("PYTHONPATH", "")
    sys.path[:0] = [src, str(ROOT)]
    return tmp


def main(args) -> int:
    from perfbench import catalog

    if args.write_manifest:
        write_manifest()
        return 0
    if args.workload not in catalog.WORKLOAD_NAMES + ["all"]:
        print(f"unknown workload {args.workload!r}; choose from {catalog.WORKLOAD_NAMES}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


def fingerprint() -> dict:
    import numpy as np

    from repro.tensor import kernels

    blas = {}
    config = getattr(getattr(np, "__config__", None), "CONFIG", None)
    if isinstance(config, dict):
        blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "host": kernels.host_fingerprint(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version")},
        "kernel_table_loaded": kernels.load_table() is not None,
        "env": {key: os.environ[key] for key in PINNED_ENV},
    }


def write_manifest() -> None:
    from perfbench import catalog

    path = ROOT / "BENCHMARK.json"
    path.write_text(json.dumps(catalog.manifest(), indent=2) + "\n")
    print(f"wrote {path}")


def _line(name: str, value: float, unit: str, samples) -> str:
    return f"  {name:<34} {value:>14.6g} {unit:<8} n={samples}"


def report(workload: str, result, trace: bool) -> dict:
    """Print every number with unit and sample count; return the metrics."""
    from perfbench import catalog
    from perfbench.pace import REFERENCE_PROBE_S
    from perfbench.workloads import pct

    tally = result.tally
    phase = result.phases[0]
    lines = [f"workload {workload}"]
    e2e = {
        "setup_s": (float(sorted(result.setup_s)[len(result.setup_s) // 2]), len(result.setup_s)),
        **phase.end_to_end(),
        "peak_rss_mb": (result.peak_rss_mb, 1),
    }
    lines.append("end-to-end" + (" (untraced half)" if trace else ""))
    for name in catalog.END_TO_END_NAMES:
        value, samples = e2e[name]
        lines.append(_line(name, value, catalog.UNITS[name], samples))
    lines.append("detail")
    detail = []
    if phase.losses:
        detail.append(("train_nodes_per_s", e2e["work_per_s"][0], "1/s", len(phase.rates)))
        detail.append(("train_final_loss", result.details["train_final_loss"], "nats", len(phase.losses)))
    if phase.reads_ms:
        detail.append(("read_p50_ms", pct(phase.reads_ms, 50), "ms", len(phase.reads_ms)))
        detail.append(("read_p99_ms", pct(phase.reads_ms, 99), "ms", len(phase.reads_ms)))
    for key, value in phase.extra.items():
        if key.startswith("read_p"):
            rate = key.split("@")[1]
            detail.append((key, value, "ms", int(phase.extra[f"reads@{rate}"])))
    if "read_max_rps" in phase.extra:
        detail.append(("read_max_rps", phase.extra["read_max_rps"], "1/s", 1))
    if phase.writes_ms:
        detail.append(("write_p50_ms", pct(phase.writes_ms, 50), "ms", len(phase.writes_ms)))
        detail.append(("write_p95_ms", pct(phase.writes_ms, 95), "ms", len(phase.writes_ms)))
    for name, value, unit, samples in detail:
        lines.append(_line(name, value, unit, samples))
    if "read_max_rps" in phase.extra:
        lines.append("  generator lateness: 0 (open-loop reads are timed from their due time on the logical clock)")
    probe_ms = sorted(1e3 * value for value in result.probes)
    lines.append(
        f"  host pace: median probe {probe_ms[len(probe_ms) // 2]:.3f} ms over {len(probe_ms)} probes "
        f"(reference {REFERENCE_PROBE_S * 1e3:.3f} ms; every time above is scaled to it)"
    )
    if trace:
        lines.append("per-layer (traced half)")
        for name in catalog.PER_LAYER_NAMES:
            lines.append(_line(name, result.layers[name], catalog.UNITS[name], "-"))
    share = tally.failed / tally.attempted if tally.attempted else 1.0
    lines.append(f"failed {tally.failed} of {tally.attempted} operations ({share:.2%})")
    for name, ok, info in tally.checks:
        lines.append(f"  check {name}: {'ok' if ok else 'FAILED'} {info}")
    print("\n".join(lines))
    if trace:
        names = catalog.PER_LAYER_NAMES
        values = result.layers
    else:
        names = catalog.END_TO_END_NAMES
        values = {name: value for name, (value, _) in e2e.items()}
    return {name: {"value": float(values[name]), "unit": catalog.UNITS[name]} for name in names}


def run_one(args) -> int:
    from perfbench.workloads import FULL, TINY, Workspace, make_workload, run_workload

    size = TINY if args.size == "tiny" else FULL
    workspace = Workspace(SCRATCH)
    try:
        print(json.dumps({"fingerprint": fingerprint(), "workload": args.workload, "seed": args.seed}))
        workload = make_workload(args.workload, args.seed, size, workspace)
        result = run_workload(workload, float(args.seconds), bool(args.trace))
        metrics = report(args.workload, result, bool(args.trace))
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        workspace.close()
    tally = result.tally
    print(
        json.dumps(
            {
                "correct": tally.correct,
                "attempted": max(1, tally.attempted),
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if tally.correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    from perfbench import catalog

    results = {}
    code = 0
    for name in catalog.WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--size", args.size,
        ]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1]) if lines else None
        code = code or completed.returncode
    print(json.dumps(results))
    return code


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--write-manifest", action="store_true")
    return parser.parse_args(argv)


if __name__ == "__main__":
    args = parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    tmp = pin_environment()
    try:
        code = main(args)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            SCRATCH.rmdir()  # only when no other run is using it
        except OSError:
            pass
    sys.exit(code)
