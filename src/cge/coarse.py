"""Cube-wise coarse-grained coefficient pairs and multiscale ellipticity.

For each cube ``Q`` two effective symmetric matrices come from
pure-Neumann variational problems:

* ``astar`` (subadditive from below): the gradient-forcing problems yield the
  quadratic form ``q . astar^{-1} q`` directly as their value Gram matrix;
* the upper matrix: the flux-forcing problem values. That forcing is
  ``B(p . x, v) / vol`` with ``p . x`` in the Q1 trial space, so its
  maximizer is affine and the upper matrix is the cube average ``avg``: no
  solve computes it.

With the harmonic mean ``inv_avg_inv`` they satisfy the ordering
``inv_avg_inv <= astar <= avg`` (as quadratic forms), which the audit
verifies wholesale.

Scale-weighted ellipticity constants aggregate per-scale maxima of the norms
of ``avg`` and ``astar_inv`` over the triadic hierarchy with geometric
weights ``3**(s*k)``; all scales below the grid resolution contribute an
exact closed-form tail because sub-cell cubes see a constant field. One
reduction, :func:`cge.grid.scale_weighted_constant`, forms them for the
constants, the audit and the solve-free surrogates of :mod:`cge.norms`.
"""

from __future__ import annotations

import logging
import math
import os
import tempfile
import time
import zipfile
from dataclasses import dataclass, field as dataclass_field
from typing import ClassVar, Sequence

import numpy as np

from .grid import (
    CoefficientField,
    GridSpec,
    TriadicCube,
    block_reduce,
    scale_weighted_constant,
    sym_component_count,
    sym_eig_bounds,
    sym_inv,
    sym_norm,
    sym_pack,
    sym_unpack,
)
from .solver import SolveStats, level_functionals

__all__ = [
    "CoarseGrainPair",
    "SweepResult",
    "EllipticityReport",
    "AuditReport",
    "sweep",
    "ellipticity_constants",
    "audit",
    "DEFAULT_S_GRID",
]

#: Five-point exponent grid used by the audit's monotonicity checks.
DEFAULT_S_GRID = (0.15, 0.3, 0.5, 0.7, 0.9)

#: Relative size above which the audit counts a broken inequality as a
#: violation rather than rounding.
AUDIT_SLACK_REL = 1e-7

log = logging.getLogger(__name__)


@dataclass
class CoarseGrainPair:
    """Effective matrices of one cube (full symmetric (d, d) arrays), as
    :meth:`SweepResult.pair` reads them from a sweep."""

    cube: TriadicCube
    astar: np.ndarray
    avg: np.ndarray
    inv_avg_inv: np.ndarray
    astar_inv: np.ndarray


# ---------------------------------------------------------------------------
# Sweeps over all levels, with a disk cache of one record per field
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevelData:
    """Packed coarse-grained matrices for every cube of one level.

    Arrays have shape ``(3**-level,)*d + (ncomp,)`` in row-major cube order;
    ``avg`` is the upper matrix. The spectral norms of ``avg`` and
    ``astar_inv`` (shape ``(3**-level,)*d``) are computed once, on
    construction, for the constants and the audit. The level takes the
    arrays it is given and makes them read-only, so the norms cannot go
    stale: to change a level, build a new one (``dataclasses.replace``).
    """

    level: int
    astar: np.ndarray
    avg: np.ndarray
    inv_avg_inv: np.ndarray
    astar_inv: np.ndarray
    avg_norm: np.ndarray = dataclass_field(init=False)
    astar_inv_norm: np.ndarray = dataclass_field(init=False)

    def __post_init__(self) -> None:
        d = self.avg.ndim - 1
        object.__setattr__(self, "avg_norm", sym_norm(self.avg, d))
        object.__setattr__(self, "astar_inv_norm", sym_norm(self.astar_inv, d))
        for arr in (self.astar, self.avg, self.inv_avg_inv, self.astar_inv,
                    self.avg_norm, self.astar_inv_norm):
            arr.flags.writeable = False


@dataclass
class SweepResult:
    """Complete coarse-graining of a field over levels -N..0."""

    grid: GridSpec
    field_hash: str
    levels: dict[int, LevelData]
    solve_count: int
    cache_hits: int
    failures: list[dict]

    def pair(self, cube: TriadicCube) -> CoarseGrainPair:
        ld = self.levels[cube.level]
        d = self.grid.d
        idx = tuple(cube.offset)
        return CoarseGrainPair(
            cube,
            sym_unpack(ld.astar[idx], d),
            sym_unpack(ld.avg[idx], d),
            sym_unpack(ld.inv_avg_inv[idx], d),
            sym_unpack(ld.astar_inv[idx], d),
        )

    def n_cubes(self) -> int:
        return sum(3 ** (-ld.level * self.grid.d) for ld in self.levels.values())


#: Names the Neumann engine (the condensation pass of
#: :func:`~cge.solver.level_functionals`, in every dimension) and the record
#: layout (one ``level_k`` array of ``astar_inv`` per solved level, in one
#: record per field) in every cache record: another solver's record is a
#: miss. A change that moves the stored numbers or the layout bumps it: at
#: ``/11`` a field's levels went from a record each into one.
SOLVER_TAG = "q1-neumann/condensation/11"


def _cache_path(cache_dir, field_hash: str) -> str:
    return os.path.join(cache_dir, f"{field_hash}.npz")


def _cache_store(path: str, levels: dict[int, np.ndarray]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, solver=np.frombuffer(SOLVER_TAG.encode(), dtype=np.uint8),
                     **{f"level_{level}": arr for level, arr in levels.items()})
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cache_load(path: str, shapes: dict[int, tuple[int, ...]]) -> dict[int, np.ndarray] | None:
    """A field's stored ``astar_inv`` of every level of ``shapes``, or
    ``None`` unless the record is well-formed as a whole.

    A missing or unreadable record (garbage, empty or truncated files), a
    record of another solver, and a missing level, a wrong shape or a
    non-finite entry in any level are all cache misses.
    """
    try:
        with open(path, "rb") as fh, np.load(fh) as rec:
            if rec["solver"].tobytes().decode() != SOLVER_TAG:
                return None
            levels = {level: rec[f"level_{level}"] for level in shapes}
    except (OSError, KeyError, ValueError, EOFError, zipfile.BadZipFile):
        return None
    if any(arr.shape != shapes[level] or not np.isfinite(arr).all()
           for level, arr in levels.items()):
        return None
    return levels


def _level_result(level: int, g_all: np.ndarray,
                  stats: SolveStats) -> tuple[np.ndarray, list[dict], float]:
    """Packed ``astar_inv`` of a level's cubes, their failures and the
    symmetry defect of ``g``, from its functionals ``(g_all, stats)``: every
    non-finite cube fails, holds NaN and takes the message of the first
    failed stage at or below it: below level 0 its level -1 cube's
    (``stats.subtree_failures``), at level 0 the pass's (``stats.failure``),
    or else, for a ``g`` that overflowed, "non-finite functional matrix".
    So a cube made non-finite otherwise takes a failed stage's message too.
    The defect is ``max |g - g^T| / max |g|`` over the finite cubes, before
    ``g`` is symmetrized (NaN if none is finite).
    """
    bad = ~np.isfinite(g_all).all(axis=(-2, -1))
    good = g_all[~bad]
    defect = (float(np.abs(good - np.swapaxes(good, -1, -2)).max() / np.abs(good).max())
              if good.size else math.nan)
    g_all[bad] = np.nan
    astar_inv = sym_pack(0.5 * (g_all + np.swapaxes(g_all, -1, -2)))

    def cause(off: tuple) -> str:
        """The failure of the subtree that cube ``off`` lies in, or at
        level 0 the pass's."""
        if not stats.subtree_failures:
            return stats.failure
        subtree = np.ravel_multi_index([z // 3 ** (-level - 1) for z in off], (3,) * len(off))
        return stats.subtree_failures[subtree]

    failures = [{"level": level, "offset": [int(z) for z in off],
                 "message": cause(off) or "non-finite functional matrix"}
                for off in zip(*np.nonzero(bad))]
    return astar_inv, failures, defect


def _log_level(level: int, method: str, cubes: int, stats: SolveStats | None,
               t0: float, defect: float | None = None) -> None:
    """One DEBUG line per sweep level; threads, unknowns, residual, the
    merges condensed and the symmetry defect of ``g`` only for solves."""
    threads = "" if stats is None else f" on {stats.threads} threads"
    log.debug("level %d: %s, %d cubes%s, %s unknowns per cube, residual %s, %.3f s, "
              "%s merges condensed, symmetry defect %s",
              level, method, cubes, threads, "-" if stats is None else stats.unknowns,
              "-" if stats is None else f"{stats.residual:.1e}", time.perf_counter() - t0,
              "-" if stats is None else stats.merges,
              "-" if defect is None else f"{defect:.1e}")


def sweep(field: CoefficientField, cache_dir: str | None = None) -> SweepResult:
    """Coarse-grain every cube of every level, with optional disk caching.

    The sweep is the unit of work and of the cache: one record per field,
    ``<cache_dir>/<content hash>.npz``, holds every solved level beside
    :data:`SOLVER_TAG`, and is read and checked as a whole first. The
    sweep then either reads every level from it, or, on a miss, solves
    every level from one :func:`~cge.solver.level_functionals` pass, which
    solves (and ``solve_count`` counts) d forcings per cube; the levels are
    then built and logged in order, and the record is written once they
    are, if no cube failed. A warm cache re-run performs zero solves. An
    empty ``cache_dir``, which would put the record in the working
    directory, is a ``ValueError``.

    Failures are recorded per cube and surface as NaN matrices rather than
    aborting the sweep: every cube whose functional matrix is not finite
    fails: a failed stage of the pass (a dense solve, or a map to merge
    that is not finite) fails its cubes and every cube containing one; the
    rest of the level keeps its numbers, and a sweep with a failed cube
    writes no record, so its rerun solves again. Each level logs one DEBUG
    line on ``cge.coarse``: method (the solver's, ``cache`` or ``cells``),
    cubes, for a solve the threads it ran on and its unknowns per cube and
    residual, seconds, and for a solve the merges it condensed, one per
    content class below level 0, and the symmetry defect of ``g``
    (:func:`_level_result`). None of it enters a record or a report.
    """
    if cache_dir == "":
        raise ValueError("cache directory '' is an empty path: name a directory")
    grid = field.grid
    d = grid.d
    ncomp = sym_component_count(d)
    path = None if cache_dir is None else _cache_path(cache_dir, field.content_hash)
    records = None if path is None else _cache_load(
        path, {level: (3 ** -level,) * d + (ncomp,) for level in range(0, -grid.N, -1)})
    solved = level_functionals(field) if records is None else {}

    levels: dict[int, LevelData] = {}
    solve_count = 0
    cache_hits = 0
    failures: list[dict] = []

    for level in range(0, -grid.N - 1, -1):
        t0 = time.perf_counter()
        m = 3 ** (grid.N + level)
        n_cubes = 3 ** (-level * d)
        avg = block_reduce(field.data, d, m)
        if level == -grid.N:  # one cell a cube: every matrix is the cell's own
            cells = field.data.copy()
            levels[level] = LevelData(level, cells, avg, cells, field.inv_data.copy())
            _log_level(level, "cells", n_cubes, None, t0)
            continue
        inv_avg_inv = sym_inv(block_reduce(field.inv_data, d, m), d)

        if records is not None:
            astar_inv_arr = records[level]
            cache_hits += n_cubes
            method, stats, defect = "cache", None, None
        else:
            g_all, stats = solved.pop(level)
            astar_inv_arr, level_failures, defect = _level_result(level, g_all, stats)
            t0 -= stats.wall_time  # solved before this loop
            method = stats.method
            failures += level_failures
            solve_count += d * (n_cubes - len(level_failures))

        astar_arr = sym_inv(astar_inv_arr, d)
        levels[level] = LevelData(level, astar_arr, avg, inv_avg_inv, astar_inv_arr)
        _log_level(level, method, n_cubes, stats, t0, defect)

    if path is not None and records is None and not failures:
        _cache_store(path, {level: levels[level].astar_inv for level in range(0, -grid.N, -1)})
    return SweepResult(grid, field.content_hash, levels, solve_count, cache_hits, failures)


# ---------------------------------------------------------------------------
# Multiscale ellipticity constants
# ---------------------------------------------------------------------------

@dataclass
class EllipticityReport:
    """Scale-weighted upper/lower ellipticity constants of one cube."""

    s: float
    t: float
    cube: TriadicCube
    lambda_upper: float  # scale-weighted upper constant
    lambda_lower: float  # scale-weighted lower constant
    theta: float
    per_scale_upper: dict[int, float]  # level -> max sqrt(norm(avg))
    per_scale_lower: dict[int, float]  # level -> max sqrt(norm(astar_inv))
    tail_upper: float
    tail_lower: float
    c_s: float
    c_t: float
    field_hash: str

    def to_dict(self) -> dict:
        return {
            "s": self.s,
            "t": self.t,
            "cube": {"level": self.cube.level, "offset": list(self.cube.offset)},
            "lambda_upper": self.lambda_upper,
            "lambda_lower": self.lambda_lower,
            "theta": self.theta,
            "per_scale_upper": {str(k): v for k, v in self.per_scale_upper.items()},
            "per_scale_lower": {str(k): v for k, v in self.per_scale_lower.items()},
            "tail_upper": self.tail_upper,
            "tail_lower": self.tail_lower,
            "c_s": self.c_s,
            "c_t": self.c_t,
            "field_hash": self.field_hash,
        }


def ellipticity_constants(
    result: SweepResult, s: float, t: float, cube: TriadicCube | None = None
) -> EllipticityReport:
    """Scale-weighted ellipticity constants and their ratio for one cube.

    The upper constant squares the weighted sum of per-scale maxima of
    ``sqrt(norm(avg))`` over all scales at and below the cube; the lower
    constant is the reciprocal square of the same construction applied to
    ``sqrt(norm(astar_inv))``. Scales below the grid resolution are included
    through an exact geometric tail on the cell-level maxima. Both come from
    :func:`~cge.grid.scale_weighted_constant`, squared with ``float_power``
    (``pow``, as the audit squares the same arrays). A cube off the sweep's
    grid (another dimension, or finer than a cell) is a ``ValueError``.
    """
    if not (0.0 < s < 1.0) or not (0.0 < t < 1.0):
        raise ValueError(f"exponents must lie in (0, 1), got s={s}, t={t}")
    grid = result.grid
    if cube is None:
        cube = TriadicCube(0, (0,) * grid.d)
    if cube.d != grid.d or cube.level < -grid.N:
        raise ValueError(f"cube level={cube.level} offset={cube.offset} is not on the "
                         f"sweep's grid (d={grid.d}, N={grid.N})")

    idx = tuple(cube.offset)
    levels = result.levels.items()
    total_u, per_upper, tail_u = scale_weighted_constant(
        {k: ld.avg_norm for k, ld in levels}, s, cube.level)
    total_l, per_lower, tail_l = scale_weighted_constant(
        {k: ld.astar_inv_norm for k, ld in levels}, t, cube.level)
    lambda_upper = float(np.float_power(total_u[idx], 2))
    lambda_lower = float(np.float_power(total_l[idx], -2))
    return EllipticityReport(
        s=s,
        t=t,
        cube=cube,
        lambda_upper=lambda_upper,
        lambda_lower=lambda_lower,
        # an infinite norm of astar_inv (a non-finite sweep) gives a zero lower constant
        theta=lambda_upper / lambda_lower if lambda_lower != 0.0 else math.inf,
        per_scale_upper={k: float(v[idx]) for k, v in per_upper.items()},
        per_scale_lower={k: float(v[idx]) for k, v in per_lower.items()},
        tail_upper=float(tail_u[idx]),
        tail_lower=float(tail_l[idx]),
        c_s=1.0 - 3.0 ** (-s),
        c_t=1.0 - 3.0 ** (-t),
        field_hash=result.field_hash,
    )


# ---------------------------------------------------------------------------
# Audit
# ---------------------------------------------------------------------------

@dataclass
class AuditReport:
    """Wholesale verification of the coarse-graining inequalities.

    Violations are data, not errors: each entry records the check kind, the
    cube, the violation magnitude and the scale it was compared against.
    """

    checked: dict[str, int]
    violations: list[dict]
    max_slack: dict[str, float]
    s_grid: tuple[float, ...]
    slack_rel: ClassVar[float] = AUDIT_SLACK_REL

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "checked": self.checked,
            "violations": self.violations,
            "max_slack": self.max_slack,
            "s_grid": list(self.s_grid),
            "slack_rel": self.slack_rel,
            "ok": self.ok,
        }


def audit(
    result: SweepResult,
    s_grid: Sequence[float] = DEFAULT_S_GRID,
) -> AuditReport:
    """Check every theorem-backed inequality on a completed sweep.

    Per cube: every packed matrix is finite (a NaN or inf entry would pass
    the comparisons below silently), and the quadratic-form chain
    inv_avg_inv <= astar <= avg (``avg`` is the upper matrix). Per
    parent/children: norm subadditivity of avg and matrix subadditivity of
    astar_inv. Globally: monotonicity of the scale-weighted constants over
    the exponent grid, ratio >= 1, and the per-level scaling bound for the
    upper constant, each cube's from the reduction that
    :func:`ellipticity_constants` takes. The subadditivity and scaling checks
    read the norms stored on each :class:`LevelData`, which match its
    read-only arrays. A check is violated when it breaks by more than
    :data:`AUDIT_SLACK_REL` of its scale. An empty exponent grid, which would
    leave the global checks unchecked, is a ``ValueError``.
    """
    if len(s_grid) == 0:
        raise ValueError("the exponent grid s_grid is empty: the scale-weighted checks need "
                         "at least one exponent")
    d = result.grid.d
    checked = {k: 0 for k in
               ("finite", "chain", "subadditivity_norm", "subadditivity_form", "monotone",
                "theta_ge_1", "scaling")}
    max_slack = {k: 0.0 for k in checked}
    violations: list[dict] = []

    def record(kind, magnitude, scale):
        """A violation of a scalar (whole-sweep) check."""
        rel = magnitude / max(scale, 1e-300)
        max_slack[kind] = max(max_slack[kind], rel)
        if rel > AUDIT_SLACK_REL:
            violations.append({"kind": kind, "level": 0, "offset": None,
                               "magnitude": float(magnitude), "scale": float(scale)})

    def check(kind, level, excess, scale):
        """One per-cube check over a level: ``excess`` (how far each cube
        breaks the inequality, <= 0 where it holds) relative to ``scale``."""
        scale = np.broadcast_to(scale, excess.shape)
        checked[kind] += excess.size
        with np.errstate(invalid="ignore"):  # inf / inf on a non-finite level
            rel = excess / np.maximum(scale, 1e-300)
        max_slack[kind] = max(max_slack[kind], float(rel.max()))
        for off in zip(*np.nonzero(rel > AUDIT_SLACK_REL)):
            violations.append({"kind": kind, "level": level, "offset": [int(z) for z in off],
                               "magnitude": float(excess[off]), "scale": float(scale[off])})

    # --- finiteness of every packed matrix ---
    for level, ld in result.levels.items():
        for arr in (ld.astar, ld.avg, ld.inv_avg_inv, ld.astar_inv):
            check("finite", level, np.count_nonzero(~np.isfinite(arr), axis=-1),
                  arr.shape[-1])

    # --- per-cube chain ---
    for level, ld in result.levels.items():
        for lo_arr, hi_arr in ((ld.inv_avg_inv, ld.astar), (ld.astar, ld.avg)):
            w, _ = sym_eig_bounds(hi_arr - lo_arr, d)
            check("chain", level, -np.minimum(w, 0.0), ld.avg_norm)

    # --- parent/children subadditivity ---
    for level in sorted(result.levels, reverse=True):
        child_level = level - 1
        if child_level not in result.levels:
            continue
        parent = result.levels[level]
        child = result.levels[child_level]
        check("subadditivity_norm", level,
              parent.avg_norm - block_reduce(child.avg_norm, d, 3), parent.avg_norm)
        w, _ = sym_eig_bounds(block_reduce(child.astar_inv, d, 3) - parent.astar_inv, d)
        check("subadditivity_form", level, -np.minimum(w, 0), parent.astar_inv_norm)

    # --- monotonicity / ratio over the exponent grid ---
    s_sorted = sorted(s_grid)
    reports = [ellipticity_constants(result, s, s) for s in s_sorted]
    uppers = [r.lambda_upper for r in reports]
    lowers = [r.lambda_lower for r in reports]
    for i in range(len(s_sorted)):
        checked["theta_ge_1"] += 1
        if reports[i].theta < 1.0 - AUDIT_SLACK_REL:
            record("theta_ge_1", 1.0 - reports[i].theta, 1.0)
        if i > 0:
            checked["monotone"] += 2
            if uppers[i] > uppers[i - 1] * (1 + AUDIT_SLACK_REL):
                record("monotone", uppers[i] - uppers[i - 1], uppers[i - 1])
            if lowers[i] < lowers[i - 1] * (1 - AUDIT_SLACK_REL):
                record("monotone", lowers[i - 1] - lowers[i], lowers[i - 1])
        checked["monotone"] += 1
        if lowers[i] > uppers[i] * (1 + AUDIT_SLACK_REL):
            record("monotone", lowers[i] - uppers[i], uppers[i])

    # --- scaling of the upper constant across levels ---
    norms = {k: ld.avg_norm for k, ld in result.levels.items()}
    for s, lam0 in zip(s_sorted, uppers):
        for level in range(-result.grid.N, 0):
            bound = 3.0 ** (-2 * s * level) * lam0
            total, _, _ = scale_weighted_constant(norms, s, level)
            check("scaling", level, np.float_power(total, 2) - bound, bound)

    return AuditReport(
        checked=checked,
        violations=violations,
        max_slack=max_slack,
        s_grid=tuple(s_sorted),
    )
