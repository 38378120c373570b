"""Cube-wise coarse-grained coefficient pairs and multiscale ellipticity.

For each cube ``Q`` two effective symmetric matrices are computed from
pure-Neumann variational problems:

* ``astar`` (subadditive from below): the gradient-forcing problems yield the
  quadratic form ``q . astar^{-1} q`` directly as their value Gram matrix;
* ``amax`` (superadditive envelope over the full trial space): the
  flux-forcing problem values.

Together with the plain arithmetic averages of the field and of its cellwise
inverse they satisfy the ordering ``inv_avg_inv <= astar <= amax <= avg`` (as
quadratic forms), which the audit verifies wholesale.

Scale-weighted ellipticity constants aggregate per-scale maxima of these
matrices over the triadic hierarchy with geometric weights ``3**(s*k)``; all
scales below the grid resolution contribute an exact closed-form tail because
sub-cell cubes see a constant field.
"""

from __future__ import annotations

import math
import os
import tempfile
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
    sym_component_count,
    sym_eig_bounds,
    sym_inv,
    sym_norm,
    sym_pack,
    sym_unpack,
)
from .solver import (
    SolveStats,
    SolverError,
    batched_neumann_functionals,
    neumann_functionals,
)

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

    def chain_slack(self) -> float:
        """Worst relative violation of the matrix ordering chain (>= 0)."""
        worst = 0.0
        seq = [self.inv_avg_inv, self.astar, self.amax, self.avg]
        for lo, hi in zip(seq[:-1], seq[1:]):
            scale = max(np.linalg.norm(hi, 2), 1e-300)
            w = np.linalg.eigvalsh(hi - lo)[0]
            worst = max(worst, -w / scale)
        return worst


def _pair_matrices_from_g(g: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(astar_inv, amax) from cross-functional value matrices (..., 2d, 2d)."""
    sym = 0.5 * (g + np.swapaxes(g, -1, -2))
    return sym[..., :d, :d], sym[..., d:, d:]


def coarse_grain_cube(field: CoefficientField, cube: TriadicCube) -> CoarseGrainPair:
    """Compute one cube's coarse-grained pair (plus reference averages).

    Single-cell cubes need no solve: every matrix equals the cell value.
    """
    d = field.d
    avg = cube_average(field, cube)
    inv_avg = sym_pack(cube_average(field, cube, inverted=True))
    inv_avg_inv = sym_unpack(sym_inv(inv_avg, d), d)  # the closed form sweep uses
    if cube.level == -field.grid.N:
        cell = sym_unpack(field.data[tuple(cube.offset)], d)
        return CoarseGrainPair(cube, cell.copy(), cell.copy(), avg, inv_avg_inv,
                               np.linalg.inv(cell))
    try:
        g, stats = neumann_functionals(field, cube)
        if not np.isfinite(g).all():
            raise SolverError("non-finite functional matrix", stats)
    except SolverError as err:
        raise SolverError(
            f"cube level={cube.level} offset={cube.offset}: {err}", err.stats
        ) from err
    astar_inv, amax = _pair_matrices_from_g(g, d)
    astar = np.linalg.inv(astar_inv)
    return CoarseGrainPair(cube, astar, amax, avg, inv_avg_inv, astar_inv, stats)


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


#: Names the Neumann engine in every cache record: a record that another
#: solver wrote is a miss, so its numbers are never served as this one's.
SOLVER_TAG = "q1-neumann/splu-nested-dissection/1"


def _cache_path(cache_dir, field_hash: str, level: int) -> str:
    return os.path.join(cache_dir, field_hash, f"level_{level}.npz")


def _cache_store(path: str, astar_inv: np.ndarray, amax: np.ndarray) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, astar_inv=astar_inv, amax=amax,
                     solver=np.frombuffer(SOLVER_TAG.encode(), dtype=np.uint8))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cache_load(path: str, shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray] | None:
    """A stored level record, or ``None`` for anything but a well-formed match.

    Unreadable archives (garbage, empty or truncated files), records of
    another solver, wrong shapes and non-finite entries are all cache misses.
    """
    if not os.path.exists(path):
        return None
    try:
        with np.load(path) as rec:
            if rec["solver"].tobytes().decode() != SOLVER_TAG:
                return None
            pair = rec["astar_inv"].copy(), rec["amax"].copy()
    except (OSError, KeyError, ValueError, EOFError, zipfile.BadZipFile):
        return None
    if any(arr.shape != shape or not np.isfinite(arr).all() for arr in pair):
        return None
    return pair


def _solve_level(
    field: CoefficientField, level: int
) -> tuple[np.ndarray, np.ndarray, list[dict]]:
    """Packed ``astar_inv`` and ``amax`` of every cube of a level, and failures.

    A failed factorization fails every cube of the level; a cube whose
    functional matrix is not finite fails alone. Failed cubes hold NaN.
    """
    d = field.d
    message = "non-finite functional matrix"
    try:
        g_all, _ = batched_neumann_functionals(field, level)
    except SolverError as err:
        g_all = np.full((3 ** (-level),) * d + (2 * d, 2 * d), np.nan)
        message = str(err)
    bad = ~np.isfinite(g_all).all(axis=(-2, -1))
    g_all[bad] = np.nan
    astar_inv, amax = (sym_pack(mats) for mats in _pair_matrices_from_g(g_all, d))
    failures = [{"level": level, "offset": [int(z) for z in off], "message": message}
                for off in zip(*np.nonzero(bad))]
    return astar_inv, amax, failures


def sweep(field: CoefficientField, cache_dir: str | None = None) -> SweepResult:
    """Coarse-grain every cube of every level, with optional disk caching.

    The level is the unit of work and of the cache: each level is either
    read whole from its record, keyed by field content hash, level and
    :data:`SOLVER_TAG`, or solved whole with one factorization. A warm cache
    re-run performs zero solves. Failures are recorded per cube and surface
    as NaN matrices rather than aborting the sweep; a level with a failed
    cube is not cached.
    """
    grid = field.grid
    d = grid.d
    ncomp = sym_component_count(d)
    cell_inv_norm = 1.0 / sym_eig_bounds(field.data, d)[0]

    levels: dict[int, LevelData] = {}
    solve_count = 0
    cache_hits = 0
    failures: list[dict] = []

    for level in range(0, -grid.N - 1, -1):
        m = 3 ** (grid.N + level)
        avg = block_reduce(field.data, d, m)
        inv_avg_inv = sym_inv(block_reduce(field.inv_data, d, m), d)
        if level == -grid.N:
            astar = field.data.copy()
            amax = field.data.copy()
            astar_inv = field.inv_data.copy()
            levels[level] = LevelData(level, astar, amax, avg, inv_avg_inv, astar_inv)
            continue

        n_cubes = 3 ** (-level * d)
        path = None if cache_dir is None else _cache_path(cache_dir, field.content_hash, level)
        rec = None if path is None else _cache_load(path, (3 ** (-level),) * d + (ncomp,))
        if rec is not None:
            astar_inv_arr, amax_arr = rec
            cache_hits += n_cubes
        else:
            astar_inv_arr, amax_arr, level_failures = _solve_level(field, level)
            failures += level_failures
            solve_count += 2 * d * (n_cubes - len(level_failures))
            if path is not None and not level_failures:
                _cache_store(path, astar_inv_arr, amax_arr)

        astar_arr = sym_pack(np.linalg.inv(sym_unpack(astar_inv_arr, d)))
        levels[level] = LevelData(level, astar_arr, amax_arr, avg, inv_avg_inv, astar_inv_arr)

    return SweepResult(
        grid=grid,
        field_hash=field.content_hash,
        levels=levels,
        cell_inv_norm=cell_inv_norm,
        solve_count=solve_count,
        cache_hits=cache_hits,
        failures=failures,
    )


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


def _weighted_scale_sum(
    terms: dict[int, float], cube_level: int, s: float, tail_base: float, grid_n: int
) -> tuple[float, float]:
    """c_s-weighted sum of per-scale maxima plus the sub-grid tail.

    Returns (total_before_squaring, tail_value).
    """
    c_s = 1.0 - 3.0 ** (-s)
    acc = 0.0
    for k in sorted(terms):  # ascending level: fixed reduction order
        acc += 3.0 ** (-s * (cube_level - k)) * terms[k]
    tail = tail_base * 3.0 ** (-s * (cube_level + grid_n + 1)) / (1.0 - 3.0 ** (-s))
    return c_s * (acc + tail), c_s * tail


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

    per_upper: dict[int, float] = {}
    per_lower: dict[int, float] = {}
    for level in sorted(result.levels):
        if level > cube.level:
            continue
        ld = result.levels[level]
        per_upper[level] = math.sqrt(_restrict_level_grid(ld.amax_norm, level, cube).max())
        per_lower[level] = math.sqrt(_restrict_level_grid(ld.astar_inv_norm, level, cube).max())

    cell_sl = cube.cell_slices(grid)
    max_cell_upper = per_upper[-grid.N]  # level -N cubes are the cells
    max_cell_lower = math.sqrt(float(result.cell_inv_norm[cell_sl].max()))

    total_u, tail_u = _weighted_scale_sum(per_upper, cube.level, s, max_cell_upper, grid.N)
    total_l, tail_l = _weighted_scale_sum(per_lower, cube.level, t, max_cell_lower, grid.N)

    lambda_upper = total_u**2
    lambda_lower = total_l**-2
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
        tail_upper=tail_u,
        tail_lower=tail_l,
        c_s=1.0 - 3.0 ** (-s),
        c_t=1.0 - 3.0 ** (-t),
        field_hash=result.field_hash,
    )


def _restrict_level_grid(grid_arr: np.ndarray, level: int, cube: TriadicCube) -> np.ndarray:
    """Slice a level grid of values to the cubes contained in ``cube``."""
    factor = 3 ** (cube.level - level)
    sl = tuple(slice(z * factor, (z + 1) * factor) for z in cube.offset)
    return grid_arr[sl]


def _lambda_upper_grid(result: SweepResult, s: float, level: int) -> np.ndarray:
    """Upper ellipticity constant of every level-``level`` cube at once."""
    grid = result.grid
    nz = 3 ** (-level)
    acc = np.zeros((nz,) * grid.d)
    for k in sorted(result.levels):
        if k > level:
            continue
        reduced = block_reduce(result.levels[k].amax_norm, grid.d, 3 ** (level - k), np.max)
        acc += 3.0 ** (-s * (level - k)) * np.sqrt(reduced)
    cell_max = np.sqrt(block_reduce(result.levels[-grid.N].amax_norm, grid.d,
                                    3 ** (level + grid.N), np.max))
    acc += cell_max * 3.0 ** (-s * (level + grid.N + 1)) / (1.0 - 3.0 ** (-s))
    c_s = 1.0 - 3.0 ** (-s)
    return (c_s * acc) ** 2


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

    Per cube: every packed matrix is finite (a NaN or inf entry would pass
    the comparisons below silently), and the quadratic-form chain
    inv_avg_inv <= astar <= amax <= avg. Per parent/children: norm
    subadditivity of amax and matrix subadditivity of astar_inv. Globally:
    monotonicity of the scale-weighted constants over the exponent grid,
    ratio >= 1, and the per-level scaling bound for the upper constant. The
    subadditivity and scaling checks read the norms stored on each
    :class:`LevelData`, which match its read-only arrays.
    """
    d = result.grid.d
    checked = {k: 0 for k in
               ("finite", "chain", "subadditivity_norm", "subadditivity_form", "monotone",
                "theta_ge_1", "scaling")}
    max_slack = {k: 0.0 for k in checked}
    violations: list[dict] = []

    def record(kind, level, offset, magnitude, scale):
        rel = magnitude / max(scale, 1e-300)
        max_slack[kind] = max(max_slack[kind], rel)
        if rel > slack_rel:
            violations.append({
                "kind": kind,
                "level": level,
                "offset": None if offset is None else list(offset),
                "magnitude": float(magnitude),
                "scale": float(scale),
            })

    # --- finiteness of every packed matrix ---
    for level, ld in result.levels.items():
        for arr in (ld.astar, ld.amax, ld.avg, ld.inv_avg_inv, ld.astar_inv):
            bad_count = np.count_nonzero(~np.isfinite(arr), axis=-1)
            checked["finite"] += bad_count.size
            for off in zip(*np.nonzero(bad_count)):
                record("finite", level, off, bad_count[off], arr.shape[-1])

    # --- per-cube chain ---
    for level, ld in result.levels.items():
        norm_hi = sym_norm(ld.avg, d)
        seq = [ld.inv_avg_inv, ld.astar, ld.amax, ld.avg]
        for lo_arr, hi_arr in zip(seq[:-1], seq[1:]):
            w, _ = sym_eig_bounds(hi_arr - lo_arr, d)
            checked["chain"] += w.size
            bad = np.minimum(w, 0.0)
            for off in zip(*np.nonzero(-bad > slack_rel * norm_hi)):
                record("chain", level, off, -bad[off], norm_hi[off])
            max_slack["chain"] = max(max_slack["chain"],
                                     float((-bad / np.maximum(norm_hi, 1e-300)).max()))

    # --- parent/children subadditivity ---
    for level in sorted(result.levels, reverse=True):
        child_level = level - 1
        if child_level not in result.levels:
            continue
        parent = result.levels[level]
        child = result.levels[child_level]
        mean_child_norm = block_reduce(child.amax_norm, d, 3)
        parent_norm = parent.amax_norm
        checked["subadditivity_norm"] += parent_norm.size
        gap = parent_norm - mean_child_norm
        for off in zip(*np.nonzero(gap > slack_rel * np.maximum(parent_norm, 1e-300))):
            record("subadditivity_norm", level, off, gap[off], parent_norm[off])
        max_slack["subadditivity_norm"] = max(
            max_slack["subadditivity_norm"],
            float((gap / np.maximum(parent_norm, 1e-300)).max()),
        )

        mean_child_form = block_reduce(child.astar_inv, d, 3)
        w, _ = sym_eig_bounds(mean_child_form - parent.astar_inv, d)
        scale = parent.astar_inv_norm
        checked["subadditivity_form"] += w.size
        for off in zip(*np.nonzero(-np.minimum(w, 0) > slack_rel * scale)):
            record("subadditivity_form", level, off, -w[off], scale[off])
        max_slack["subadditivity_form"] = max(
            max_slack["subadditivity_form"],
            float((-np.minimum(w, 0) / np.maximum(scale, 1e-300)).max()),
        )

    # --- monotonicity / ratio over the exponent grid ---
    s_sorted = sorted(s_grid)
    reports = [ellipticity_constants(result, s, s) for s in s_sorted]
    uppers = [r.lambda_upper for r in reports]
    lowers = [r.lambda_lower for r in reports]
    for i in range(len(s_sorted)):
        checked["theta_ge_1"] += 1
        if reports[i].theta < 1.0 - slack_rel:
            record("theta_ge_1", 0, None, 1.0 - reports[i].theta, 1.0)
        if i > 0:
            checked["monotone"] += 2
            if uppers[i] > uppers[i - 1] * (1 + slack_rel):
                record("monotone", 0, None, uppers[i] - uppers[i - 1], uppers[i - 1])
            if lowers[i] < lowers[i - 1] * (1 - slack_rel):
                record("monotone", 0, None, lowers[i - 1] - lowers[i], lowers[i - 1])
        checked["monotone"] += 1
        if lowers[i] > uppers[i] * (1 + slack_rel):
            record("monotone", 0, None, lowers[i] - uppers[i], uppers[i])

    # --- scaling of the upper constant across levels ---
    lam0 = {s: _lambda_upper_grid(result, s, 0).item() for s in s_sorted}
    for s in s_sorted:
        for level in sorted(result.levels):
            if level == 0:
                continue
            grid_vals = _lambda_upper_grid(result, s, level)
            bound = 3.0 ** (-2 * s * level) * lam0[s]
            checked["scaling"] += grid_vals.size
            gap = grid_vals - bound
            for off in zip(*np.nonzero(gap > slack_rel * bound)):
                record("scaling", level, off, gap[off], bound)
            max_slack["scaling"] = max(max_slack["scaling"], float(gap.max() / bound))

    return AuditReport(
        checked=checked,
        violations=violations,
        max_slack=max_slack,
        s_grid=tuple(s_sorted),
        slack_rel=slack_rel,
    )
