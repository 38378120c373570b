"""Workload process: the set-up or the measurement of one workload.

    python3 worker.py setup   WORKLOAD SEED WORKDIR FILL RESULT_JSON
    python3 worker.py measure WORKLOAD SEED WORKDIR SECONDS TRACE RESULT_JSON

``run.py`` starts it with the BLAS and OpenMP thread counts pinned to 1 and
the package's ``src`` directory on ``PYTHONPATH``.  ``setup`` generates and
writes the fields (and, with FILL=1, fills the warm cache); ``measure`` times
the workload's passes, traces one more pass when TRACE=1, then checks the
outputs.  Each writes one JSON object to RESULT_JSON.
"""

from __future__ import annotations

import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy
import scipy

import workloads as wl
from tracer import NEUMANN_LEVELS, Tracer, layer_metrics

REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: CG iteration totals of ``cold-2d`` with seed 1, per level, while the level
#: is solved by PCG.  They are deterministic for the ROADMAP baseline field.
BASELINE_ITERS = {0: 12033, -1: 37261}


def _dump(path: str, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def setup(workload: str, seed: int, workdir: Path, fill: bool, result: str) -> None:
    paths = wl.write_fields(wl.make_fields(workload, seed), workdir / "fields")
    fields_done = time.monotonic()
    ledger = wl.Ledger()
    fill_s = 0.0
    if fill:
        t0 = time.perf_counter()
        wl.Run(workload, workdir, paths, ledger).fill()
        fill_s = time.perf_counter() - t0
    _dump(result, {"fields_done": fields_done, "fill_s": fill_s, "paths": paths,
                   "hashes": ledger.hashes, "attempted": ledger.attempted,
                   "failed": ledger.failed})


def _trace_pass(run: wl.Run, workload: str, seed: int, untraced_wall: float) -> dict:
    """One more pass with the tracer installed; per-layer metrics and gates."""
    ledger = run.ledger
    tracer = Tracer()
    tracer.install()
    try:
        wl.write_fields(wl.make_fields(workload, seed), run.workdir / "traced-fields")
        since = time.time_ns()
        first_op, bytes0 = ledger.attempted, ledger.report_bytes
        t0 = time.perf_counter()
        cubes = run.timed_pass()
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    metrics, labels = layer_metrics(tracer.spans)
    files, nbytes = wl.cache_writes(run.caches, since)
    metrics["coarse.cache.files_written"] = (files, "count")
    metrics["coarse.cache.bytes_written"] = (nbytes, "B")
    metrics["cli.report_bytes"] = (ledger.report_bytes - bytes0, "B")
    metrics["trace.overhead_s"] = (wall - untraced_wall, "s")

    def value(name):
        return metrics[name][0]

    ledger.expect(first_op, value("coarse.cubes") == cubes,
                  f"trace: sweeps coarse-grained {value('coarse.cubes')} cubes, expected {cubes}")
    notes = []
    if workload == "cold-2d" and seed == 1:
        for level, expected in BASELINE_ITERS.items():
            key = f"solver.neumann.level{level}"
            if labels.get(key) != ["pcg"]:
                notes.append(f"{key}: method {labels.get(key)}, baseline count not applicable")
                continue
            ledger.expect(first_op, value(f"{key}.iters") == expected,
                          f"{key}.iters = {value(f'{key}.iters')}, baseline {expected}")
            notes.append(f"{key}.iters = {value(f'{key}.iters')} (baseline {expected})")
    if workload == "warm-2d":
        neumann = sum(value(f"solver.neumann.level{k}.cubes") for k in NEUMANN_LEVELS)
        ledger.expect(first_op, neumann == 0 and value("coarse.solves") == 0,
                      f"trace: warm pipeline solved {neumann} Neumann cubes")
        ledger.expect(first_op, value("coarse.cache.hit_ratio") == 1.0,
                      f"trace: cache hit ratio {value('coarse.cache.hit_ratio')}")
    return {"metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "labels": labels, "notes": notes, "absent": tracer.absent,
            "traced_wall_s": wall, "spans": tracer.spans}


def measure(workload: str, seed: int, workdir: Path, seconds: float, trace: bool,
            result: str) -> None:
    prepared = json.loads((workdir / "setup.json").read_text(encoding="utf-8"))
    references = json.loads(REFERENCE.read_text(encoding="utf-8"))
    reference = references.get(workload, {}).get(str(seed))
    ledger = wl.Ledger(reference, prepared["hashes"])
    run = wl.Run(workload, workdir, prepared["paths"], ledger)

    walls: list[float] = []
    cubes = 0
    since = time.time_ns()
    deadline = time.monotonic() + seconds
    while True:
        t0 = time.perf_counter()
        cubes += run.timed_pass()
        walls.append(time.perf_counter() - t0)
        if time.monotonic() >= deadline:
            break
        run.retire_cache()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if workload == "warm-2d":
        files, _ = wl.cache_writes(run.caches, since)
        ledger.expect(0, files == 0, f"warm pipeline wrote {files} cache files")

    traced = None
    if trace:
        run.retire_cache()
        traced = _trace_pass(run, workload, seed, statistics.median(walls))
    run.check()

    _dump(result, {
        "walls": walls, "cubes": cubes, "peak_rss_mb": peak_rss_mb,
        "attempted": ledger.attempted, "failed": ledger.failed,
        "observed": ledger.observed, "reference_checked": reference is not None,
        "trace": traced,
        "env": {"python": platform.python_version(), "numpy": numpy.__version__,
                "scipy": scipy.__version__},
    })


def main(argv: list[str]) -> int:
    mode, workload, seed, workdir = argv[0], argv[1], int(argv[2]), Path(argv[3])
    if mode == "setup":
        setup(workload, seed, workdir, argv[4] == "1", argv[5])
    elif mode == "measure":
        measure(workload, seed, workdir, float(argv[4]), argv[5] == "1", argv[6])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
