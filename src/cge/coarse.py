"""Cube-wise coarse-grained coefficient pairs and multiscale ellipticity.

For each cube ``Q`` two effective symmetric matrices are computed from
pure-Neumann variational problems:

* ``astar`` (subadditive from below): the gradient-forcing problems yield the
  quadratic form ``q . astar^{-1} q`` directly as their value Gram matrix;
* ``amax``: the flux-forcing problem values. That forcing is
  ``B(p . x, v) / vol`` with ``p . x`` in the Q1 trial space, so its
  maximizer is affine and ``amax`` is the cube average ``avg`` (the same
  array): no solve computes it.

With the harmonic mean ``inv_avg_inv`` they satisfy the ordering
``inv_avg_inv <= astar <= amax`` (as quadratic forms), which the audit
verifies wholesale.

Scale-weighted ellipticity constants aggregate per-scale maxima of these
matrices over the triadic hierarchy with geometric weights ``3**(s*k)``; all
scales below the grid resolution contribute an exact closed-form tail because
sub-cell cubes see a constant field.
"""

from __future__ import annotations

import logging
import math
import os
import tempfile
import time
import zipfile
from dataclasses import dataclass, field as dataclass_field
from typing import Sequence

import numpy as np

from .grid import (
    CoefficientField,
    GridSpec,
    TriadicCube,
    block_reduce,
    cube_average,
    scale_weighted_sum,
    sym_component_count,
    sym_eig_bounds,
    sym_inv,
    sym_norm,
    sym_pack,
    sym_unpack,
)
from .solver import SolveStats, SolverError, level_functionals, neumann_functionals

__all__ = [
    "CoarseGrainPair",
    "SweepResult",
    "EllipticityReport",
    "AuditReport",
    "coarse_grain_cube",
    "sweep",
    "ellipticity_constants",
    "audit",
    "DEFAULT_S_GRID",
]

#: Five-point exponent grid used by the audit's monotonicity checks.
DEFAULT_S_GRID = (0.15, 0.3, 0.5, 0.7, 0.9)

log = logging.getLogger(__name__)


@dataclass
class CoarseGrainPair:
    """Effective matrices of one cube (full symmetric (d, d) arrays)."""

    cube: TriadicCube
    astar: np.ndarray
    amax: np.ndarray
    avg: np.ndarray
    inv_avg_inv: np.ndarray
    astar_inv: np.ndarray
    stats: SolveStats | None = None


def coarse_grain_cube(field: CoefficientField, cube: TriadicCube) -> CoarseGrainPair:
    """Compute one cube's coarse-grained pair (plus reference averages).

    Single-cell cubes need no solve: every matrix equals the cell value, the
    harmonic mean ``inv_avg_inv`` included (inverting the cell's inverse
    would be off by about ``cond * eps``), and ``astar_inv`` is the cell's
    ``inv_data``, as in :func:`sweep`.
    """
    d = field.d
    avg = cube_average(field, cube)
    if cube.level == -field.grid.N:
        cell = sym_unpack(field.data[tuple(cube.offset)], d)
        return CoarseGrainPair(cube, cell, avg, avg, cell.copy(),
                               sym_unpack(field.inv_data[tuple(cube.offset)], d))
    inv_avg = sym_pack(cube_average(field, cube, inverted=True))
    inv_avg_inv = sym_unpack(sym_inv(inv_avg, d), d)  # the closed form sweep uses
    try:
        g, stats = neumann_functionals(field, cube)
        if not np.isfinite(g).all():
            raise SolverError("non-finite functional matrix", stats)
    except SolverError as err:
        raise SolverError(
            f"cube level={cube.level} offset={cube.offset}: {err}", err.stats
        ) from err
    astar_inv = 0.5 * (g + g.T)
    return CoarseGrainPair(cube, np.linalg.inv(astar_inv), avg, avg, inv_avg_inv, astar_inv,
                           stats)


# ---------------------------------------------------------------------------
# Sweeps over all levels, with a per-level disk cache
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevelData:
    """Packed coarse-grained matrices for every cube of one level.

    Arrays have shape ``(3**-level,)*d + (ncomp,)`` in row-major cube order.
    The spectral norms of ``amax`` and ``astar_inv`` (shape ``(3**-level,)*d``)
    are computed once, on construction, for the constants and the audit. The
    level takes the arrays it is given and makes them read-only, so the norms
    cannot go stale: to change a level, build a new one (``dataclasses.replace``).
    """

    level: int
    astar: np.ndarray
    amax: np.ndarray
    avg: np.ndarray
    inv_avg_inv: np.ndarray
    astar_inv: np.ndarray
    amax_norm: np.ndarray = dataclass_field(init=False)
    astar_inv_norm: np.ndarray = dataclass_field(init=False)

    def __post_init__(self) -> None:
        d = self.amax.ndim - 1
        object.__setattr__(self, "amax_norm", sym_norm(self.amax, d))
        object.__setattr__(self, "astar_inv_norm", sym_norm(self.astar_inv, d))
        for arr in (self.astar, self.amax, self.avg, self.inv_avg_inv, self.astar_inv,
                    self.amax_norm, self.astar_inv_norm):
            arr.flags.writeable = False


@dataclass
class SweepResult:
    """Complete coarse-graining of a field over levels -N..0."""

    grid: GridSpec
    field_hash: str
    levels: dict[int, LevelData]
    cell_inv_norm: np.ndarray
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
            sym_unpack(ld.amax[idx], d),
            sym_unpack(ld.avg[idx], d),
            sym_unpack(ld.inv_avg_inv[idx], d),
            sym_unpack(ld.astar_inv[idx], d),
        )

    def n_cubes(self) -> int:
        return sum(3 ** (-ld.level * self.grid.d) for ld in self.levels.values())


#: Names the Neumann engine (the condensation pass of
#: :func:`~cge.solver.level_functionals`, in every dimension) and the record
#: layout (``astar_inv`` alone) in every cache record: another solver's
#: record is a miss. A change that moves the stored numbers bumps it.
SOLVER_TAG = "q1-neumann/condensation/5"


def _cache_path(cache_dir, field_hash: str, level: int) -> str:
    return os.path.join(cache_dir, field_hash, f"level_{level}.npz")


def _cache_store(path: str, astar_inv: np.ndarray) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, astar_inv=astar_inv,
                     solver=np.frombuffer(SOLVER_TAG.encode(), dtype=np.uint8))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cache_load(path: str, shape: tuple[int, ...]) -> np.ndarray | None:
    """A level's stored ``astar_inv``, or ``None`` unless well-formed.

    Unreadable archives (garbage, empty or truncated files), records of
    another solver, wrong shapes and non-finite entries are all cache misses.
    """
    if not os.path.exists(path):
        return None
    try:
        with np.load(path) as rec:
            if rec["solver"].tobytes().decode() != SOLVER_TAG:
                return None
            astar_inv = rec["astar_inv"].copy()
    except (OSError, KeyError, ValueError, EOFError, zipfile.BadZipFile):
        return None
    if astar_inv.shape != shape or not np.isfinite(astar_inv).all():
        return None
    return astar_inv


def _level_result(
    level: int, out: tuple[np.ndarray, SolveStats] | SolverError
) -> tuple[np.ndarray, list[dict], SolveStats]:
    """Packed ``astar_inv`` of every cube of a level, failures, stats, from
    the level's functionals ``(g_all, stats)`` or the :class:`SolverError`
    that carries them.

    A failed solve fails the cubes it marks; a cube whose functional matrix
    is not finite fails alone. Failed cubes hold NaN.
    """
    if isinstance(out, SolverError):
        g_all, failed, stats, message = out.g, out.failed, out.stats, str(out)
    else:
        (g_all, stats), failed, message = out, None, ""
    bad = ~np.isfinite(g_all).all(axis=(-2, -1))
    g_all[bad] = np.nan
    astar_inv = sym_pack(0.5 * (g_all + np.swapaxes(g_all, -1, -2)))
    failures = [{"level": level, "offset": [int(z) for z in off],
                 "message": message if failed is not None and failed[off]
                 else "non-finite functional matrix"}
                for off in zip(*np.nonzero(bad))]
    return astar_inv, failures, stats


def _log_level(level: int, method: str, cubes: int, stats: SolveStats | None,
               t0: float) -> None:
    """One DEBUG line per sweep level; chunks, threads, unknowns and residual
    only for solves."""
    split = "" if stats is None else f" in {stats.chunks} chunks on {stats.threads} threads"
    log.debug("level %d: %s, %d cubes%s, %s unknowns per cube, residual %s, %.3f s",
              level, method, cubes, split, "-" if stats is None else stats.unknowns,
              "-" if stats is None else f"{stats.residual:.1e}", time.perf_counter() - t0)


def sweep(field: CoefficientField, cache_dir: str | None = None) -> SweepResult:
    """Coarse-grain every cube of every level, with optional disk caching.

    The level is the unit of work and of the cache: every record, keyed by
    field content hash, level and :data:`SOLVER_TAG`, is read first, and each
    level is either read whole from its record or solved whole, which
    solves (and ``solve_count`` counts) d forcings per cube. A warm cache
    re-run performs zero solves.

    Every missed level comes from one :func:`~cge.solver.level_functionals`
    call, one condensation pass up to the coarsest miss; the levels are
    then built, logged and cached in order.

    Failures are recorded per cube and surface as NaN matrices rather than
    aborting the sweep: the cubes that the solver marks failed, or whose
    functional matrix is not finite, fail; the rest of the level keeps its
    numbers, and a level with a failed cube is not cached. Each level logs
    one DEBUG line on ``cge.coarse``: method (the solver's, ``cache`` or
    ``cells``), cubes, for a solve the chunks and threads it ran in and its
    unknowns per cube and residual, and seconds.
    """
    grid = field.grid
    d = grid.d
    ncomp = sym_component_count(d)
    cell_inv_norm = 1.0 / sym_eig_bounds(field.data, d)[0]

    def load(level: int) -> np.ndarray | None:
        if cache_dir is None:
            return None
        return _cache_load(_cache_path(cache_dir, field.content_hash, level),
                           (3 ** (-level),) * d + (ncomp,))

    records = {level: load(level) for level in range(0, -grid.N, -1)}
    solved = level_functionals(field, [level for level, rec in records.items() if rec is None])

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
            levels[level] = LevelData(level, cells, avg, avg, cells, field.inv_data.copy())
            _log_level(level, "cells", n_cubes, None, t0)
            continue
        inv_avg_inv = sym_inv(block_reduce(field.inv_data, d, m), d)

        astar_inv_arr = records[level]
        if astar_inv_arr is not None:
            cache_hits += n_cubes
            method, stats = "cache", None
        else:
            astar_inv_arr, level_failures, stats = _level_result(level, solved.pop(level))
            t0 -= stats.wall_time  # solved before this loop
            method = stats.method
            failures += level_failures
            solve_count += d * (n_cubes - len(level_failures))
            if cache_dir is not None and not level_failures:
                _cache_store(_cache_path(cache_dir, field.content_hash, level), astar_inv_arr)

        astar_arr = sym_pack(np.linalg.inv(sym_unpack(astar_inv_arr, d)))
        levels[level] = LevelData(level, astar_arr, avg, avg, inv_avg_inv, astar_inv_arr)
        _log_level(level, method, n_cubes, stats, t0)

    return SweepResult(grid, field.content_hash, levels, cell_inv_norm, solve_count,
                       cache_hits, failures)


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
    per_scale_upper: dict[int, float]  # level -> max sqrt(norm(amax))
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
    ``sqrt(norm(amax))`` over all scales at and below the cube; the lower
    constant is the reciprocal square of the same construction applied to
    ``sqrt(norm(astar_inv))``. Scales below the grid resolution are included
    through an exact geometric tail on the per-cell extremes.
    """
    if not (0.0 < s < 1.0) or not (0.0 < t < 1.0):
        raise ValueError(f"exponents must lie in (0, 1), got s={s}, t={t}")
    grid = result.grid
    if cube is None:
        cube = TriadicCube(0, (0,) * grid.d)

    idx = tuple(cube.offset)
    per_upper, per_lower = (
        {k: float(v[idx]) for k, v in _scale_maxima(result, norm, cube.level).items()}
        for norm in ("amax_norm", "astar_inv_norm"))
    cell_inv_max = block_reduce(result.cell_inv_norm, grid.d, 3 ** (cube.level + grid.N), np.max)
    c_s = 1.0 - 3.0 ** (-s)
    c_t = 1.0 - 3.0 ** (-t)
    total_u, tail_u = scale_weighted_sum(per_upper, s, cube.level, grid.N, per_upper[-grid.N])
    total_l, tail_l = scale_weighted_sum(per_lower, t, cube.level, grid.N,
                                         math.sqrt(cell_inv_max[idx]))
    lambda_upper = (c_s * total_u) ** 2
    lambda_lower = (c_t * total_l) ** -2
    return EllipticityReport(
        s=s,
        t=t,
        cube=cube,
        lambda_upper=lambda_upper,
        lambda_lower=lambda_lower,
        # an infinite norm of astar_inv (a non-finite sweep) gives a zero lower constant
        theta=lambda_upper / lambda_lower if lambda_lower != 0.0 else math.inf,
        per_scale_upper=per_upper,
        per_scale_lower=per_lower,
        tail_upper=c_s * tail_u,
        tail_lower=c_t * tail_l,
        c_s=c_s,
        c_t=c_t,
        field_hash=result.field_hash,
    )


def _scale_maxima(result: SweepResult, norm: str, level: int) -> dict[int, np.ndarray]:
    """Per scale ``k <= level``: ``sqrt`` of the largest level-``k`` ``norm``
    (a :class:`LevelData` field) inside each level-``level`` cube, as an array
    over those cubes."""
    return {k: np.sqrt(block_reduce(getattr(ld, norm), result.grid.d, 3 ** (level - k), np.max))
            for k, ld in sorted(result.levels.items()) if k <= level}


def _lambda_upper_grid(result: SweepResult, s: float, level: int) -> np.ndarray:
    """Upper ellipticity constant of every level-``level`` cube at once.

    ``float_power`` squares with ``pow``, as ``float ** 2`` does in
    :func:`ellipticity_constants`; an array's ``** 2`` multiplies, which can
    differ in the last bit. So each cube's value is its reported constant.
    """
    maxima = _scale_maxima(result, "amax_norm", level)
    total, _ = scale_weighted_sum(maxima, s, level, result.grid.N, maxima[-result.grid.N])
    return np.float_power((1.0 - 3.0 ** (-s)) * total, 2)


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
    slack_rel: float

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
    slack_rel: float = 1e-7,
) -> AuditReport:
    """Check every theorem-backed inequality on a completed sweep.

    Per cube: every distinct packed matrix is finite (a NaN or inf entry
    would pass the comparisons below silently; ``amax`` is checked only when
    it is not the ``avg`` array), and the quadratic-form chain
    inv_avg_inv <= astar <= amax (``amax`` is ``avg``). Per parent/children:
    norm subadditivity of amax and matrix subadditivity of astar_inv.
    Globally: monotonicity of the scale-weighted constants over the exponent
    grid, ratio >= 1, and the per-level scaling bound for the upper constant. The
    subadditivity and scaling checks read the norms stored on each
    :class:`LevelData`, which match its read-only arrays.
    """
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
        if rel > slack_rel:
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
        for off in zip(*np.nonzero(rel > slack_rel)):
            violations.append({"kind": kind, "level": level, "offset": [int(z) for z in off],
                               "magnitude": float(excess[off]), "scale": float(scale[off])})

    # --- finiteness of every packed matrix ---
    for level, ld in result.levels.items():
        # a sweep's amax is its avg array; a hand-built level may differ
        distinct = [ld.amax] if ld.amax is not ld.avg else []
        for arr in [ld.astar, *distinct, ld.avg, ld.inv_avg_inv, ld.astar_inv]:
            check("finite", level, np.count_nonzero(~np.isfinite(arr), axis=-1),
                  arr.shape[-1])

    # --- per-cube chain ---
    for level, ld in result.levels.items():
        for lo_arr, hi_arr in ((ld.inv_avg_inv, ld.astar), (ld.astar, ld.amax)):
            w, _ = sym_eig_bounds(hi_arr - lo_arr, d)
            check("chain", level, -np.minimum(w, 0.0), ld.amax_norm)

    # --- parent/children subadditivity ---
    for level in sorted(result.levels, reverse=True):
        child_level = level - 1
        if child_level not in result.levels:
            continue
        parent = result.levels[level]
        child = result.levels[child_level]
        check("subadditivity_norm", level,
              parent.amax_norm - block_reduce(child.amax_norm, d, 3), parent.amax_norm)
        w, _ = sym_eig_bounds(block_reduce(child.astar_inv, d, 3) - parent.astar_inv, d)
        check("subadditivity_form", level, -np.minimum(w, 0), parent.astar_inv_norm)

    # --- monotonicity / ratio over the exponent grid ---
    s_sorted = sorted(s_grid)
    reports = [ellipticity_constants(result, s, s) for s in s_sorted]
    uppers = [r.lambda_upper for r in reports]
    lowers = [r.lambda_lower for r in reports]
    for i in range(len(s_sorted)):
        checked["theta_ge_1"] += 1
        if reports[i].theta < 1.0 - slack_rel:
            record("theta_ge_1", 1.0 - reports[i].theta, 1.0)
        if i > 0:
            checked["monotone"] += 2
            if uppers[i] > uppers[i - 1] * (1 + slack_rel):
                record("monotone", uppers[i] - uppers[i - 1], uppers[i - 1])
            if lowers[i] < lowers[i - 1] * (1 - slack_rel):
                record("monotone", lowers[i - 1] - lowers[i], lowers[i - 1])
        checked["monotone"] += 1
        if lowers[i] > uppers[i] * (1 + slack_rel):
            record("monotone", lowers[i] - uppers[i], uppers[i])

    # --- scaling of the upper constant across levels ---
    lam0 = {s: _lambda_upper_grid(result, s, 0).item() for s in s_sorted}
    for s in s_sorted:
        for level in sorted(result.levels):
            if level == 0:
                continue
            bound = 3.0 ** (-2 * s * level) * lam0[s]
            check("scaling", level, _lambda_upper_grid(result, s, level) - bound, bound)

    return AuditReport(
        checked=checked,
        violations=violations,
        max_slack=max_slack,
        s_grid=tuple(s_sorted),
        slack_rel=slack_rel,
    )
