"""Outside-in benchmark of the ``cge`` command line.

    python3 perfbench/run.py --workload cold-2d --seed 1 --seconds 20 --trace 0

Workloads (``--workload all``, the default, runs each in turn):

``cold-2d``  ``cge coarse`` on 2D N=5 random SPD (contrast 1e4), empty cache.
``cold-3d``  ``cge audit`` on 3D N=3 random SPD and cascade, empty caches.
``warm-2d``  audit, harnack (two- and one-sided), criterion on 2D N=4 Cantor
             and cascade from a filled cache, then an N=5 sharpness sweep.

Each workload runs in its own process with BLAS/OpenMP pinned to one
thread.  Set-up (interpreter start, imports, field generation and writes) is
repeated ``SETUP_REPEATS`` times and its median reported; for ``warm-2d`` the
one cache fill is added.  The timed passes repeat until ``--seconds`` have
passed (at least one).  ``--trace 1`` also runs one pass under the tracer
and reports per-layer metrics instead of the end-to-end ones.

Prints one line per metric, then, as the last line, a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans and the full
result go to ``perfbench/results/``.  Exits non-zero, printing no result,
when the package source or a workload process is missing or fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("cold-2d", "cold-3d", "warm-2d")
SETUP_REPEATS = 3
#: Whole-run limit for one workload, below the 180 s a run may take.
TIME_LIMIT_S = 170.0
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _spread_line(name: str, samples: list[float], unit: str) -> str:
    """Median, and the highest percentile with at least ten samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    text = f"{name} = {statistics.median(ordered):.6g} {unit} (median of n={n}"
    if n >= 11:
        rank = n - 11
        text += f"; p{100 * (rank + 1) / n:.0f} = {ordered[rank]:.6g} {unit}"
    return text + ")"


def environment() -> dict:
    """nproc, cache sizes, code identity and thread pins for the record."""
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "cache": caches, "git_commit": commit,
            "src_sha256": digest.hexdigest(), "threads": dict(THREAD_PINS)}


def _worker(args: list[str], env: dict, deadline: float) -> float:
    """Run one worker process to completion; return its start time."""
    started = time.monotonic()
    remaining = deadline - started
    if remaining <= 0:
        raise BenchError("time limit reached before a workload process started")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              env=env, stdout=sys.stderr, timeout=remaining,
                              check=False)
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process exceeded the time limit: {args[:2]}") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process failed with exit {proc.returncode}: {args[:2]}")
    return started


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Set up and measure one workload in fresh processes; return the summary."""
    deadline = time.monotonic() + TIME_LIMIT_S
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    scratch = HERE / "tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    try:
        setup_json = workdir / "setup.json"
        setup_samples = []
        for rep in range(SETUP_REPEATS):
            fill = workload == "warm-2d" and rep == SETUP_REPEATS - 1
            started = _worker(["setup", workload, str(seed), str(workdir),
                               "1" if fill else "0", str(setup_json)], env, deadline)
            prepared = json.loads(setup_json.read_text(encoding="utf-8"))
            setup_samples.append(prepared["fields_done"] - started)
        result_json = workdir / "result.json"
        _worker(["measure", workload, str(seed), str(workdir), str(seconds),
                 "1" if trace else "0", str(result_json)], env, deadline)
        measured = json.loads(result_json.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    walls = measured["walls"]
    failed = {f"setup:{k}": v for k, v in prepared["failed"].items()}
    failed.update(measured["failed"])
    attempted = prepared["attempted"] + measured["attempted"]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cubes_per_s": (measured["cubes"] / len(walls) / statistics.median(walls), "1/s"),
        "setup_s": (statistics.median(setup_samples) + prepared["fill_s"], "s"),
        "peak_rss_mb": (measured["peak_rss_mb"], "MB"),
    }
    lines = [
        _spread_line("wall_s", walls, "s"),
        f"cubes_per_s = {metrics['cubes_per_s'][0]:.6g} 1/s "
        f"({measured['cubes'] // len(walls)} cubes per pass, solved or read from cache)",
        _spread_line("setup_s (fields)", setup_samples, "s")
        + f" + cache fill {prepared['fill_s']:.6g} s = {metrics['setup_s'][0]:.6g} s",
        f"peak_rss_mb = {metrics['peak_rss_mb'][0]:.6g} MB",
        f"fail_ratio = {len(failed) / attempted:.6g} 1 ({len(failed)} of {attempted} commands)",
        "references: " + ("checked" if measured["reference_checked"]
                          else f"none frozen for seed {seed}; other gates only"),
    ]
    summary = {"workload": workload, "seed": seed, "trace": trace,
               "correct": not failed, "attempted": attempted, "failed": len(failed),
               "failures": failed, "observed": measured["observed"],
               "setup_samples": setup_samples, "fill_s": prepared["fill_s"],
               "walls": walls, "env": {**environment(), **measured["env"]}}
    if trace:
        traced = measured["trace"]
        metrics = {k: (v["value"], v["unit"]) for k, v in traced["metrics"].items()}
        lines = [f"{k} = {v:.6g} {u}" for k, (v, u) in sorted(metrics.items())]
        lines += [f"label {k}: {', '.join(v)}" for k, v in sorted(traced["labels"].items())]
        lines += traced["notes"]
        lines += [f"absent: {name}" for name in traced["absent"]]
        summary["trace_detail"] = traced
    summary["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    summary["lines"] = lines
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cge" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    summaries = []
    try:
        for name in names:
            summary = run_workload(name, args.seed, args.seconds, bool(args.trace))
            stem = f"{name}-seed{args.seed}-trace{args.trace}"
            (results / f"{stem}.json").write_text(json.dumps(summary, indent=1),
                                                  encoding="utf-8")
            print(f"[{name}] seed={args.seed} trace={args.trace} env={json.dumps(summary['env'])}")
            for line in summary["lines"]:
                print(f"[{name}] {line}")
            for op, reasons in summary["failures"].items():
                print(f"[{name}] FAILED op {op}: {'; '.join(reasons)}")
            summaries.append(summary)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}.{k}": v for s in summaries for k, v in s["metrics"].items()}
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
