"""Benchmark workloads: their fields, timed CLI pipelines and output gates.

Every operation is one ``cge.cli.main(argv)`` call made in-process.  The
:class:`Ledger` runs it, keeps its report and records each gate it fails:
an unexpected exit code, a recorded solve failure, an audit violation, a
FAIL verdict, a value outside its frozen reference, or a ``report_hash``
that differs from an earlier run of the same command line.

Only flags that no planned change removes are passed: no ``--threads``,
``--config`` or solver settings.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
from pathlib import Path

import cge.cli
import cge.fields
import cge.grid

#: Relative tolerance against the frozen references.  CG stops at a relative
#: residual of 1e-10, and solve paths agree to about 3e-11 relative on these
#: fields, so 1e-6 leaves four orders of room; a wrong level, forcing or
#: component moves theta by far more.
REFERENCE_RTOL = 1e-6

#: Grid exponent of the ``warm-2d`` fields.  At N=5 the cache fill alone
#: took 25 s of each run, leaving room in the run budget for one 16 s timed
#: pass whose spread over ten seeds reached the 0.25 bound on a 2-core host;
#: at N=4 the fill takes 4 s and a run times several 4 s passes.
WARM_N = 4


def sweep_cubes(d: int, n: int) -> int:
    """Cubes a sweep coarse-grains by a solve or a cache read (levels 0..1-N)."""
    return sum(3 ** (k * d) for k in range(n))


def make_fields(workload: str, seed: int) -> dict:
    """The workload's coefficient fields, generated from ``seed``."""
    f = cge.fields
    if workload == "cold-2d":
        grid = cge.grid.GridSpec(2, 5)
        return {"random": f.gen_random_spd(grid, seed, 1e-2, 1e2)}
    if workload == "cold-3d":
        grid = cge.grid.GridSpec(3, 3)
        return {"random": f.gen_random_spd(grid, seed, 1e-2, 1e2),
                "cascade": f.gen_cascade_field(grid, f.CascadeParams(0.5, 3, seed))}
    if workload == "warm-2d":
        grid = cge.grid.GridSpec(2, WARM_N)
        return {"cantor": f.gen_cantor_field(grid, f.CantorParams(WARM_N)),
                "cascade": f.gen_cascade_field(grid, f.CascadeParams(0.5, WARM_N, seed))}
    raise ValueError(f"unknown workload {workload!r}")


def write_fields(fields: dict, directory: Path) -> dict[str, str]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, field in fields.items():
        paths[name] = str(directory / f"{name}.cgf")
        cge.grid.write_field(field, paths[name])
    return paths


def cache_writes(root: Path, since_ns: int) -> tuple[int, int]:
    """Files (and their bytes) under ``root`` written at or after ``since_ns``."""
    files = size = 0
    for dirpath, _, names in os.walk(root):
        for name in names:
            st = os.stat(os.path.join(dirpath, name))
            if st.st_mtime_ns >= since_ns:
                files += 1
                size += st.st_size
    return files, size


class Ledger:
    """CLI operations run so far, the gates each failed and values observed."""

    def __init__(self, reference: dict | None = None, hashes: dict | None = None):
        self.reference = reference or {}
        self.hashes = dict(hashes or {})  # command line -> report_hash
        self.attempted = 0
        self.failed: dict[int, list[str]] = {}
        self.observed: dict[str, float] = {}
        self.report_bytes = 0

    def fail(self, op: int, reason: str) -> None:
        self.failed.setdefault(op, []).append(reason)

    def expect(self, op: int, cond: bool, reason: str) -> None:
        if not cond:
            self.fail(op, reason)

    def run(self, argv: list[str], out: Path, expect_rc: int = 0) -> tuple[int, dict]:
        """Run one command; return its operation number and result payload."""
        op = self.attempted
        self.attempted += 1
        out.unlink(missing_ok=True)
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink):
                rc = cge.cli.main([*argv, "--out", str(out)])
        except Exception as err:  # a crash is a failed operation, not a dead run
            self.fail(op, f"{' '.join(argv)}: raised {err!r}")
            return op, {}
        self.expect(op, rc == expect_rc, f"{' '.join(argv)}: exit {rc}, expected {expect_rc}")
        if not out.exists():
            self.fail(op, f"{' '.join(argv)}: no report written")
            return op, {}
        self.report_bytes += out.stat().st_size
        report = json.loads(out.read_text(encoding="utf-8"))
        key = " ".join(argv)
        digest = report.get("report_hash")
        if key in self.hashes:
            self.expect(op, digest == self.hashes[key],
                        f"{key}: report_hash differs from an earlier run")
        self.hashes[key] = digest
        return op, report.get("result", {})

    def observe(self, op: int, key: str, value) -> None:
        """Record a result value and compare it with its frozen reference."""
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            self.fail(op, f"{key}: non-finite or missing value {value!r}")
            return
        self.observed[key] = float(value)
        ref = self.reference.get(key)
        if ref is not None and abs(value - ref) > REFERENCE_RTOL * abs(ref):
            self.fail(op, f"{key}: {value!r} is outside {REFERENCE_RTOL:g} of reference {ref!r}")

    @property
    def n_failed(self) -> int:
        return len(self.failed)


class Run:
    """One workload's fields, working directory and cache directories."""

    def __init__(self, workload: str, workdir: Path, field_paths: dict[str, str],
                 ledger: Ledger):
        self.workload = workload
        self.workdir = workdir
        self.fields = field_paths
        self.ledger = ledger
        self.caches = workdir / "caches"
        self.reports = workdir / "reports"
        self.reports.mkdir(parents=True, exist_ok=True)
        self._fresh = 0
        self.last_cache: Path | None = None

    def fresh_cache(self) -> str:
        """A new, empty cache directory for a cold pass."""
        self._fresh += 1
        self.last_cache = self.caches / f"cold{self._fresh}"
        return str(self.last_cache)

    def retire_cache(self) -> None:
        """Delete the last cold pass's cache (call it outside the timing)."""
        if self.last_cache is not None:
            shutil.rmtree(self.last_cache, ignore_errors=True)
            self.last_cache = None

    @property
    def warm_cache(self) -> str:
        return str(self.caches / "warm")

    def out(self, tag: str) -> Path:
        return self.reports / f"{tag}.json"

    # -- the three workloads ----------------------------------------------

    def fill(self) -> None:
        """Set-up of ``warm-2d``: coarse-grain each field into the warm cache."""
        for name, path in self.fields.items():
            self._audit(name, path, self.warm_cache)

    def timed_pass(self) -> int:
        """Run the workload's timed commands once; return cubes coarse-grained."""
        if self.workload == "cold-2d":
            cache = self.fresh_cache()
            op, res = self.ledger.run(
                ["coarse", "--field", self.fields["random"], "--cache-dir", cache],
                self.out("coarse"))
            self.ledger.expect(op, res.get("failures") == [], "coarse: solve failures")
            self.ledger.expect(op, res.get("cache_hits") == 0, "coarse: cache not empty")
            return sweep_cubes(2, 5)
        if self.workload == "cold-3d":
            cache = self.fresh_cache()
            for name, path in self.fields.items():
                self._audit(name, path, os.path.join(cache, name))
            return len(self.fields) * sweep_cubes(3, 3)
        if self.workload == "warm-2d":
            for name, path in self.fields.items():
                self._warm_field(name, path)
            self._sharpness()
            return 2 * len(self.fields) * sweep_cubes(2, WARM_N)
        raise ValueError(f"unknown workload {self.workload!r}")

    def check(self) -> None:
        """Untimed checks: theta against references, reruns for report_hash."""
        if self.workload == "cold-2d":
            self._theta("random", self.fields["random"], str(self.last_cache))
        elif self.workload == "cold-3d":
            for name, path in self.fields.items():
                self._theta(name, path, os.path.join(str(self.last_cache), name))
        else:
            for name, path in self.fields.items():
                self._one_sided(name, path)
                self._criterion(name, path)
            self._sharpness()

    # -- commands and their gates -------------------------------------------

    def _audit(self, name: str, path: str, cache: str) -> None:
        op, res = self.ledger.run(["audit", "--field", path, "--cache-dir", cache],
                                  self.out(f"{name}-audit"))
        self.ledger.expect(op, res.get("ok") is True and res.get("violations") == [],
                           f"audit {name}: violations {res.get('violations')!r:.200}")

    def _theta(self, name: str, path: str, cache: str) -> None:
        """``ellipticity`` twice on a filled cache: no solves, same report."""
        for _ in range(2):
            op, res = self.ledger.run(
                ["ellipticity", "--field", path, "--cache-dir", cache],
                self.out(f"{name}-ellipticity"))
            self.ledger.expect(op, res.get("solve_count") == 0,
                               f"ellipticity {name}: cached sweep ran solves")
            self.ledger.observe(op, f"{name}.theta", res.get("theta"))

    def _warm_field(self, name: str, path: str) -> None:
        self._audit(name, path, self.warm_cache)
        op, res = self.ledger.run(
            ["harnack", "--field", path, "--cache-dir", self.warm_cache,
             "--with-solves", "--boundary", "affine:2,1,0"],
            self.out(f"{name}-harnack"))
        self.ledger.expect(op, res.get("passed") is True, f"harnack {name}: FAIL")
        self.ledger.observe(op, f"{name}.harnack.theta", res.get("theta"))
        self.ledger.observe(op, f"{name}.harnack.log_ratio", res.get("harnack_log_ratio"))
        self._one_sided(name, path)
        self._criterion(name, path)

    def _one_sided(self, name: str, path: str) -> None:
        op, res = self.ledger.run(
            ["harnack", "--field", path, "--cache-dir", self.warm_cache,
             "--mode", "one-sided", "--boundary", "affine:0,1,1"],
            self.out(f"{name}-one-sided"))
        self.ledger.expect(op, res.get("passed") is True, f"one-sided {name}: FAIL")
        self.ledger.observe(op, f"{name}.one_sided.theta", res.get("theta"))
        self.ledger.observe(op, f"{name}.one_sided.lb_ratio", res.get("lb_ratio"))

    def _criterion(self, name: str, path: str) -> None:
        op, res = self.ledger.run(
            ["criterion", "--field", path, "--cache-dir", self.warm_cache,
             "--p", "4", "--q", "4"],
            self.out(f"{name}-criterion"))
        self.ledger.expect(op, res.get("satisfied") is True, f"criterion {name}: not satisfied")
        self.ledger.observe(op, f"{name}.criterion.theta_upper", res.get("theta_upper"))

    def _sharpness(self) -> None:
        op, res = self.ledger.run(
            ["sweep", "--kind", "sharpness", "--lambda", "1,4,16,64", "--grid-n", "5"],
            self.out("sharpness"))
        self.ledger.expect(op, not res.get("failures"), "sweep: solve failures")
        self.ledger.observe(op, "sharpness.slope", res.get("slope"))
        self.ledger.observe(op, "sharpness.intercept", res.get("intercept"))
