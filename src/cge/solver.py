"""Discrete elliptic solvers on triadic cubes.

Two problem classes back everything else:

* variational maximizations with pure-Neumann (natural) boundary conditions,
  ``sup_u avg(-grad u . a grad u + 2 L(u))`` with linear forcings
  ``L(v) = avg(q . grad v)`` ("gradient" forcing) or ``avg(p . a grad v)``
  ("flux" forcing), discretized with multilinear Q1 elements and exact
  integration of the piecewise-constant coefficient;
* Dirichlet problems ``-div(a grad u) = 0`` with given boundary values,
  discretized cell-centered with harmonic face averaging (a 2d+1-point
  M-matrix stencil that obeys a discrete maximum principle), for
  scalar/diagonal coefficients.

Pure-Neumann systems are singular with constant kernel; small systems are
solved exactly via a rank-one augmentation (which preserves the zero-mean
solution for compatible right-hand sides), large ones with diagonally
preconditioned conjugate gradients projected onto the zero-mean subspace.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import (
    CoefficientField,
    GridSpec,
    ScalarGridFunction,
    TriadicCube,
    block_view,
    sym_index_pairs,
    sym_unpack,
)

__all__ = [
    "SolveConfig",
    "SolveStats",
    "SolverError",
    "CubeFunction",
    "assemble_neumann",
    "solve_linear_forcing",
    "neumann_functionals",
    "batched_neumann_functionals",
    "solve_dirichlet",
    "energy",
    "discrete_gradient",
    "mean_gradient",
    "mean_flux",
    "functional_value",
]

GRADIENT = "gradient"
FLUX = "flux"


@dataclass(frozen=True)
class SolveConfig:
    """Solver knobs; defaults suit fields with condition numbers up to ~1e6."""

    discretization: str = "q1"  # "q1" (full symmetric a) or "fd5" (diagonal a)
    cg_rel_tol: float = 1e-10
    cg_max_iter: int | None = None  # default: 50*sqrt(unknowns) + 10000
    dense_cutoff: int = 1500  # unknown count below which direct solves are used

    def __post_init__(self) -> None:
        if self.discretization not in ("q1", "fd5"):
            raise ValueError(f"unknown discretization {self.discretization!r}")
        if self.cg_rel_tol <= 0:
            raise ValueError("cg_rel_tol must be positive")
        if self.cg_max_iter is not None and self.cg_max_iter <= 0:
            raise ValueError("cg_max_iter must be positive")

    def max_iter(self, unknowns: int) -> int:
        if self.cg_max_iter is not None:
            return self.cg_max_iter
        return int(50 * math.sqrt(unknowns)) + 10_000


@dataclass
class SolveStats:
    iterations: int
    residual: float
    unknowns: int
    wall_time: float
    method: str

    def to_dict(self) -> dict:
        """Plain-JSON form (NumPy scalars cast to ``int``/``float``)."""
        return {
            "iterations": int(self.iterations),
            "residual": float(self.residual),
            "unknowns": int(self.unknowns),
            "wall_time": float(self.wall_time),
            "method": self.method,
        }


class SolverError(RuntimeError):
    """Solver failure (e.g. CG stagnation); carries the partial stats."""

    def __init__(self, message: str, stats: SolveStats | None = None):
        super().__init__(message)
        self.stats = stats


@dataclass
class CubeFunction:
    """Scalar function on one cube's local grid (nodes or cells)."""

    grid: GridSpec
    cube: TriadicCube
    data: np.ndarray
    mode: str  # "node" or "cell"

    def __post_init__(self) -> None:
        m = self.cube.cells_per_side(self.grid)
        expected = (m + 1 if self.mode == "node" else m,) * self.grid.d
        if self.data.shape != expected:
            raise ValueError(f"data shape {self.data.shape} != expected {expected}")

    @property
    def is_full_domain(self) -> bool:
        return self.cube.level == 0

    def to_grid_function(self) -> ScalarGridFunction:
        if not self.is_full_domain:
            raise ValueError("only full-domain cube functions convert to grid functions")
        return ScalarGridFunction(self.grid, self.data, self.mode)


# ---------------------------------------------------------------------------
# Q1 reference element
# ---------------------------------------------------------------------------

def _local_offsets(d: int) -> list[tuple[int, ...]]:
    return list(itertools.product((0, 1), repeat=d))


@lru_cache(maxsize=None)
def reference_matrices(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact reference integrals of the multilinear element on [0,1]^d.

    Returns ``(R_eff, r_hat)`` where ``R_eff[c]`` for packed component c of a
    symmetric matrix sums grad-grad products so that the element stiffness is
    ``h^(d-2) * sum_c a_c * R_eff[c]``, and ``r_hat[a, I]`` is the integral of
    the a-th partial of shape function I (so per-cell gradient loads are
    ``h^(d-1) * r_hat``).

    Two-point Gauss per axis integrates the (at most quadratic per axis)
    integrands exactly.
    """
    offsets = _local_offsets(d)
    nloc = len(offsets)
    gauss = np.array([0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0)])
    pts = list(itertools.product(gauss, repeat=d))
    weight = 1.0 / len(pts)

    def shape_val(off, x, axis_deriv):
        v = 1.0
        for a in range(d):
            if a == axis_deriv:
                v *= 1.0 if off[a] == 1 else -1.0
            else:
                v *= x[a] if off[a] == 1 else 1.0 - x[a]
        return v

    grads = np.zeros((len(pts), d, nloc))
    for ip, x in enumerate(pts):
        for i, off in enumerate(offsets):
            for a in range(d):
                grads[ip, a, i] = shape_val(off, x, a)
    pairs = sym_index_pairs(d)
    r_full = np.einsum("pai,pbj->abij", grads, grads) * weight
    r_eff = np.empty((len(pairs), nloc, nloc))
    for c, (a, b) in enumerate(pairs):
        r_eff[c] = r_full[a, b] + (r_full[b, a] if a != b else 0.0)
    r_hat = grads.sum(axis=0) * weight
    return r_eff, r_hat


@lru_cache(maxsize=8)
def _cell_node_indices(m: int, d: int) -> np.ndarray:
    """(ncells, 2^d) global node indices of each cell, C-order throughout."""
    nodes_per_side = m + 1
    cell_idx = np.stack(
        np.meshgrid(*([np.arange(m)] * d), indexing="ij"), axis=-1
    ).reshape(-1, d)
    out = np.empty((cell_idx.shape[0], 2**d), dtype=np.int64)
    for i, off in enumerate(_local_offsets(d)):
        corner = cell_idx + np.asarray(off)
        flat = corner[:, 0]
        for a in range(1, d):
            flat = flat * nodes_per_side + corner[:, a]
        out[:, i] = flat
    return out


def _cube_cells_packed(field: CoefficientField, cube: TriadicCube) -> np.ndarray:
    """Packed cell data of a cube, flattened C-order: (ncells, ncomp)."""
    block = field.data[cube.cell_slices(field.grid)]
    return block.reshape(-1, field.data.shape[-1])


def _element_matrices(cells_packed: np.ndarray, d: int, h: float) -> np.ndarray:
    """Element stiffness blocks (..., ncells, 2^d, 2^d) for packed cell data."""
    r_eff, _ = reference_matrices(d)
    return h ** (d - 2) * np.einsum("...cp,pij->...cij", cells_packed, r_eff)


def assemble_neumann(field: CoefficientField, cube: TriadicCube) -> sp.csr_matrix:
    """Pure-Neumann Q1 stiffness of a cube (singular, kernel = constants)."""
    d = field.d
    m = cube.cells_per_side(field.grid)
    conn = _cell_node_indices(m, d)
    ke = _element_matrices(_cube_cells_packed(field, cube), d, field.grid.h)
    nloc = conn.shape[1]
    rows = np.repeat(conn, nloc, axis=1).ravel()
    cols = np.tile(conn, (1, nloc)).ravel()
    nn = (m + 1) ** d
    mat = sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(nn, nn))
    return mat.tocsr()


def _forcing_vectors(field: CoefficientField, cube: TriadicCube) -> np.ndarray:
    """RHS columns for all 2d unit forcings: (nn, 2d).

    Columns 0..d-1: gradient forcings L(v) = avg(e_a . grad v).
    Columns d..2d-1: flux forcings L(v) = avg(e_a . a grad v).
    (Un-normalized: the vectors represent vol * L.)
    """
    d = field.d
    m = cube.cells_per_side(field.grid)
    h = field.grid.h
    _, r_hat = reference_matrices(d)
    conn = _cell_node_indices(m, d)
    nn = (m + 1) ** d
    cells = _cube_cells_packed(field, cube)
    full = sym_unpack(cells, d)  # (ncells, d, d)
    out = np.zeros((nn, 2 * d))
    per_cell_grad = h ** (d - 1) * r_hat  # (d, nloc), same for every cell
    per_cell_flux = h ** (d - 1) * np.einsum("cab,bI->caI", full, r_hat)
    for a in range(d):
        np.add.at(out[:, a], conn.ravel(), np.broadcast_to(per_cell_grad[a], conn.shape).ravel())
        np.add.at(out[:, d + a], conn.ravel(), per_cell_flux[:, a, :].ravel())
    return out


# ---------------------------------------------------------------------------
# Pure-Neumann solves
# ---------------------------------------------------------------------------

def _pcg_zero_mean(
    mat: sp.csr_matrix, b: np.ndarray, config: SolveConfig
) -> tuple[np.ndarray, int, float]:
    """Jacobi-preconditioned CG for a singular consistent system, in the
    zero-mean subspace. Returns (solution, iterations, relative residual).

    Raises :class:`SolverError` (with stats) on a non-finite right-hand side
    or residual, on a search direction with ``p.Ap <= 0``, and on reaching
    the iteration cap.
    """
    n = b.shape[0]
    if not np.isfinite(b).all():
        raise SolverError("CG right-hand side is not finite", SolveStats(0, math.nan, n, 0.0, "pcg"))
    b = b - b.mean()
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return np.zeros(n), 0, 0.0
    inv_diag = 1.0 / mat.diagonal()
    x = np.zeros(n)
    r = b.copy()
    z = inv_diag * r
    z -= z.mean()
    p = z.copy()
    rz = r @ z
    max_iter = config.max_iter(n)
    tol = config.cg_rel_tol * norm_b
    res = np.linalg.norm(r)
    it = 0
    while res > tol and it < max_iter:
        ap = mat @ p
        pap = p @ ap
        if not 0.0 < pap < math.inf:
            raise SolverError(
                f"CG breakdown: p.Ap = {pap:.3e} at iteration {it}",
                SolveStats(it, res / norm_b, n, 0.0, "pcg"),
            )
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        res = np.linalg.norm(r)
        if res <= tol:
            it += 1
            break
        z = inv_diag * r
        z -= z.mean()
        rz_new = r @ z
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
        it += 1
    x -= x.mean()
    if not res <= tol:  # also catches a NaN residual
        raise SolverError(
            f"CG failed to converge: residual {res / norm_b:.3e} after {it} iterations",
            SolveStats(it, res / norm_b, n, 0.0, "pcg"),
        )
    return x, it, res / norm_b


def _augmented_dense_solve(kmat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve singular Neumann systems exactly via rank-one augmentation.

    For b orthogonal to constants, (K + c*J/n) x = b has the unique zero-mean
    solution of K x = b (J the all-ones matrix); batched over leading axes.
    """
    n = kmat.shape[-1]
    scale = np.einsum("...ii->...", kmat) / n
    aug = kmat + (scale[..., None, None] / n)
    x = np.linalg.solve(aug, rhs)
    return x - x.mean(axis=-2, keepdims=True)


def neumann_functionals(
    field: CoefficientField, cube: TriadicCube, config: SolveConfig = SolveConfig()
) -> tuple[np.ndarray, SolveStats]:
    """Cross-functional matrix of all 2d unit-forcing variational problems.

    Returns ``(g, stats)`` where ``g[r, s] = L_s(u_r) / vol`` for the 2d
    forcings (d gradient, then d flux) — everything the coarse-graining layer
    needs: ``g[grad, grad]`` is the Gram matrix of the gradient problems,
    ``g[flux, flux]`` the flux-forcing value matrix, and the mixed blocks are
    consistency diagnostics. ``g`` is symmetric up to solver tolerance.
    """
    t0 = time.perf_counter()
    d = field.d
    m = cube.cells_per_side(field.grid)
    nn = (m + 1) ** d
    rhs = _forcing_vectors(field, cube)
    vol = cube.volume
    if nn <= config.dense_cutoff:
        kmat = assemble_neumann(field, cube).toarray()
        sols = _augmented_dense_solve(kmat, rhs)
        stats = SolveStats(0, 0.0, nn, time.perf_counter() - t0, "dense")
    else:
        kmat = assemble_neumann(field, cube)
        sols = np.empty_like(rhs)
        iters, res = 0, 0.0
        for j in range(2 * d):
            x, it, r = _pcg_zero_mean(kmat, rhs[:, j], config)
            sols[:, j] = x
            iters += it
            res = max(res, r)
        stats = SolveStats(iters, res, nn, time.perf_counter() - t0, "pcg")
    g = (sols.T @ rhs) / vol
    return g, stats


def batched_neumann_functionals(
    field: CoefficientField, level: int, config: SolveConfig = SolveConfig()
) -> tuple[np.ndarray, SolveStats]:
    """``neumann_functionals`` for every cube of one level at once.

    Only for levels whose cubes are small enough for the dense direct path;
    returns ``(g_all, stats)`` with ``g_all`` of shape
    ``(3**-level,)*d + (2d, 2d)`` in row-major cube order.
    """
    t0 = time.perf_counter()
    grid = field.grid
    d = grid.d
    m = 3 ** (grid.N + level)
    nn = (m + 1) ** d
    if nn > config.dense_cutoff:
        raise ValueError(f"level {level} cubes have {nn} nodes > dense cutoff")
    ncubes_side = 3 ** (-level)
    ncells = m**d
    blocks = block_view(field.data, d, m).reshape((-1, ncells, field.data.shape[-1]))
    n_cubes = blocks.shape[0]

    conn = _cell_node_indices(m, d)
    nloc = conn.shape[1]
    flat_scatter = (conn[:, :, None] * nn + conn[:, None, :]).ravel()

    _, r_hat = reference_matrices(d)
    h = grid.h
    grad_cols = np.zeros((nn, d))
    for a in range(d):
        np.add.at(grad_cols[:, a], conn.ravel(),
                  np.broadcast_to(h ** (d - 1) * r_hat[a], conn.shape).ravel())

    vol = 3.0 ** (level * d)
    g_all = np.empty((n_cubes, 2 * d, 2 * d))

    # chunk to bound peak memory from the (chunk, nn, nn) dense batches
    chunk = max(1, int(3e7 / (nn * nn)))
    for start in range(0, n_cubes, chunk):
        chunk_blocks = blocks[start : start + chunk]
        bsz = chunk_blocks.shape[0]
        ke = _element_matrices(chunk_blocks, d, h)
        offsets = (np.arange(bsz) * nn * nn)[:, None]
        kmats = np.bincount(
            (offsets + flat_scatter[None, :]).ravel(),
            weights=ke.reshape(bsz, -1).ravel(),
            minlength=bsz * nn * nn,
        ).reshape(bsz, nn, nn)

        full = sym_unpack(chunk_blocks, d)
        per_cell_flux = h ** (d - 1) * np.einsum("bcxy,yI->bcxI", full, r_hat)
        rhs = np.zeros((bsz, nn, 2 * d))
        rhs[:, :, :d] = grad_cols
        node_offsets = (np.arange(bsz) * nn)[:, None]
        flat_nodes = (node_offsets + conn.ravel()[None, :]).ravel()
        for a in range(d):
            acc = np.bincount(
                flat_nodes,
                weights=per_cell_flux[:, :, a, :].reshape(bsz, -1).ravel(),
                minlength=bsz * nn,
            )
            rhs[:, :, d + a] = acc.reshape(bsz, nn)

        sols = _augmented_dense_solve(kmats, rhs)
        g_all[start : start + bsz] = np.einsum("bnr,bns->brs", sols, rhs) / vol

    stats = SolveStats(0, 0.0, nn, time.perf_counter() - t0, "dense-batched")
    return g_all.reshape((ncubes_side,) * d + (2 * d, 2 * d)), stats


def solve_linear_forcing(
    field: CoefficientField,
    cube: TriadicCube,
    direction: Sequence[float],
    rhs_kind: str,
    config: SolveConfig = SolveConfig(),
) -> tuple[CubeFunction, SolveStats, float]:
    """Maximize ``avg(-grad u . a grad u + 2 L(u))`` over the cube.

    ``rhs_kind`` selects the forcing: ``"gradient"`` gives
    ``L(v) = avg(direction . grad v)``, ``"flux"`` gives
    ``L(v) = avg(direction . a grad v)``. Returns the zero-mean maximizer,
    solver stats, and the optimum value ``L(u)/vol`` (at the maximizer the
    functional value equals ``L(u)/vol`` since ``B(u,u) = L(u)``).
    """
    if rhs_kind not in (GRADIENT, FLUX):
        raise ValueError(f"rhs_kind must be 'gradient' or 'flux', got {rhs_kind!r}")
    direction = np.asarray(direction, dtype=float)
    if direction.shape != (field.d,) or not np.linalg.norm(direction) > 0:
        raise ValueError("direction must be a nonzero d-vector")
    t0 = time.perf_counter()
    rhs_all = _forcing_vectors(field, cube)
    cols = slice(0, field.d) if rhs_kind == GRADIENT else slice(field.d, 2 * field.d)
    b = rhs_all[:, cols] @ direction
    m = cube.cells_per_side(field.grid)
    nn = (m + 1) ** field.d
    if nn <= config.dense_cutoff:
        kmat = assemble_neumann(field, cube).toarray()
        x = _augmented_dense_solve(kmat, b[:, None])[:, 0]
        stats = SolveStats(0, 0.0, nn, time.perf_counter() - t0, "dense")
    else:
        kmat = assemble_neumann(field, cube)
        x, it, res = _pcg_zero_mean(kmat, b, config)
        stats = SolveStats(it, res, nn, time.perf_counter() - t0, "pcg")
    value = float(b @ x) / cube.volume
    u = CubeFunction(field.grid, cube, x.reshape((m + 1,) * field.d), "node")
    return u, stats, value


# ---------------------------------------------------------------------------
# Dirichlet problems
# ---------------------------------------------------------------------------

def _diagonal_cells(field: CoefficientField, cube: TriadicCube) -> np.ndarray:
    """Per-cell diagonal entries (m,)*d + (d,); rejects off-diagonal fields."""
    d = field.d
    block = field.data[cube.cell_slices(field.grid)]
    pairs = sym_index_pairs(d)
    off = [c for c, (i, j) in enumerate(pairs) if i != j]
    if off and np.any(block[..., off] != 0.0):
        raise ValueError(
            "the 2d+1-point stencil requires a diagonal coefficient; "
            "use the q1 discretization for full matrices"
        )
    diag = [c for c, (i, j) in enumerate(pairs) if i == j]
    return block[..., diag]


def _shift_view(arr: np.ndarray, axis: int, lo: int, hi: int | None) -> np.ndarray:
    idx = [slice(None)] * arr.ndim
    idx[axis] = slice(lo, hi)
    return arr[tuple(idx)]


def solve_dirichlet(
    field: CoefficientField,
    cube: TriadicCube,
    boundary: Callable[..., np.ndarray],
    config: SolveConfig = SolveConfig(),
    boundary_descriptor: str = "",
) -> tuple[CubeFunction, SolveStats]:
    """Solve ``-div(a grad u) = 0`` on a cube with given boundary values.

    ``boundary`` is evaluated at boundary face centers (cell-centered path,
    default) or boundary nodes (``q1``), in centered physical coordinates,
    called as ``boundary(X1, ..., Xd)``.

    The cell-centered path requires a diagonal coefficient and returns a
    cell-mode function satisfying a discrete maximum principle; the ``q1``
    path accepts full symmetric coefficients and returns a node-mode function
    that matches the boundary data exactly at boundary nodes.
    """
    if config.discretization == "fd5":
        return _solve_dirichlet_fv(field, cube, boundary, config)
    return _solve_dirichlet_q1(field, cube, boundary, config)


def _solve_dirichlet_fv(field, cube, boundary, config):
    t0 = time.perf_counter()
    grid = field.grid
    d = grid.d
    h = grid.h
    m = cube.cells_per_side(grid)
    n = m**d
    diag_cells = _diagonal_cells(field, cube)
    shape = (m,) * d
    flat = np.arange(n).reshape(shape)
    lo_phys, _ = cube.physical_bounds()

    rows, cols, vals = [], [], []
    diag_acc = np.zeros(shape)
    rhs = np.zeros(shape)
    scale = h ** (d - 2)
    local_axes = [lo_phys[a] + (np.arange(m) + 0.5) * h for a in range(d)]

    for a in range(d):
        ca = diag_cells[..., a]
        left = _shift_view(ca, a, 0, -1)
        right = _shift_view(ca, a, 1, None)
        trans = scale * 2.0 * left * right / (left + right)
        il = _shift_view(flat, a, 0, -1).ravel()
        ir = _shift_view(flat, a, 1, None).ravel()
        tv = trans.ravel()
        rows += [il, ir]
        cols += [ir, il]
        vals += [-tv, -tv]
        np.add.at(diag_acc, np.unravel_index(il, shape), tv)
        np.add.at(diag_acc, np.unravel_index(ir, shape), tv)

        # boundary faces at half-cell distance
        for side, face_cells in ((0, _shift_view(flat, a, 0, 1)),
                                 (1, _shift_view(flat, a, -1, None))):
            cell_vals = _shift_view(ca, a, 0, 1) if side == 0 else _shift_view(ca, a, -1, None)
            tb = scale * 2.0 * cell_vals
            mesh_axes = [
                np.asarray([lo_phys[a] if side == 0 else lo_phys[a] + m * h])
                if b_ax == a else local_axes[b_ax]
                for b_ax in range(d)
            ]
            mesh = np.meshgrid(*mesh_axes, indexing="ij")
            g = np.asarray(boundary(*mesh), dtype=float)
            np.add.at(diag_acc, np.unravel_index(face_cells.ravel(), shape), tb.ravel())
            np.add.at(rhs, np.unravel_index(face_cells.ravel(), shape), (tb * g).ravel())

    rows.append(np.arange(n))
    cols.append(np.arange(n))
    vals.append(diag_acc.ravel())
    amat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsc()
    lu = spla.splu(amat)
    x = lu.solve(rhs.ravel())
    res = np.linalg.norm(amat @ x - rhs.ravel()) / max(np.linalg.norm(rhs), 1e-300)
    stats = SolveStats(0, float(res), n, time.perf_counter() - t0, "fv-splu")
    return CubeFunction(grid, cube, x.reshape(shape), "cell"), stats


def _solve_dirichlet_q1(field, cube, boundary, config):
    t0 = time.perf_counter()
    grid = field.grid
    d = grid.d
    m = cube.cells_per_side(grid)
    nn = (m + 1) ** d
    kmat = assemble_neumann(field, cube)
    lo_phys, _ = cube.physical_bounds()
    axes = [lo_phys[a] + np.arange(m + 1) * grid.h for a in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    is_boundary = np.zeros((m + 1,) * d, dtype=bool)
    for a in range(d):
        _shift_view(is_boundary, a, 0, 1)[...] = True
        _shift_view(is_boundary, a, m, None)[...] = True
    gvals = np.asarray(boundary(*mesh), dtype=float)
    bmask = is_boundary.ravel()
    u = np.where(bmask, gvals.ravel(), 0.0)
    interior = ~bmask
    k_ii = kmat[interior][:, interior].tocsc()
    rhs = -(kmat[interior][:, bmask] @ gvals.ravel()[bmask])
    ni = int(interior.sum())
    if ni > 0:
        if ni <= config.dense_cutoff:
            ui = np.linalg.solve(k_ii.toarray(), rhs)
            method = "q1-dense"
        else:
            lu = spla.splu(k_ii)
            ui = lu.solve(rhs)
            method = "q1-splu"
        u[interior] = ui
        res = np.linalg.norm(k_ii @ ui - rhs) / max(np.linalg.norm(rhs), 1e-300)
    else:
        res, method = 0.0, "q1-dense"
    stats = SolveStats(0, float(res), ni, time.perf_counter() - t0, method)
    return CubeFunction(grid, cube, u.reshape((m + 1,) * d), "node"), stats


# ---------------------------------------------------------------------------
# Energies, gradients, functional values
# ---------------------------------------------------------------------------

def _resolve_function(u) -> tuple[np.ndarray, str]:
    if isinstance(u, (CubeFunction, ScalarGridFunction)):
        return u.data, u.mode
    raise TypeError(f"expected CubeFunction or ScalarGridFunction, got {type(u)}")


def energy(
    field: CoefficientField,
    u,
    region: tuple[slice, ...] | None = None,
) -> float:
    """Volume-normalized Dirichlet energy ``avg(grad u . a grad u)``.

    Node-mode input uses the multilinear element form (exact for the
    piecewise-constant coefficient). Cell-mode input uses the conservative
    face form with harmonic averaging, normalized per axis by face count
    (requires a diagonal coefficient). ``region`` restricts to a box of cells
    (slices into the function's own cell array).
    """
    data, mode = _resolve_function(u)
    d = field.d
    h = field.grid.h
    if isinstance(u, CubeFunction):
        cell_block = field.data[u.cube.cell_slices(field.grid)]
    else:
        cell_block = field.data

    if mode == "node":
        if region is not None:
            if any(s.start is None or s.stop is None for s in region):
                raise ValueError("region slices must have explicit start and stop")
            cell_block = cell_block[region]
            node_data = data[tuple(slice(s.start, s.stop + 1) for s in region)]
        else:
            node_data = data
        return _q1_energy(cell_block, node_data, d, h)
    if region is not None:
        cell_block = cell_block[region]
        data = data[region]
    return _fv_energy(cell_block, data, d, h)


def _q1_energy(cell_block: np.ndarray, node_data: np.ndarray, d: int, h: float) -> float:
    m_shape = cell_block.shape[:-1]
    ncells = int(np.prod(m_shape))
    packed = cell_block.reshape(ncells, -1)
    # gather local corner values
    corners = np.empty((ncells,) + (2,) * d)
    for i, off in enumerate(_local_offsets(d)):
        sl = tuple(slice(o, o + s) for o, s in zip(off, m_shape))
        corners.reshape(ncells, -1)[:, i] = node_data[sl].reshape(ncells)
    uloc = corners.reshape(ncells, 2**d)
    r_eff, _ = reference_matrices(d)
    ke = h ** (d - 2) * np.einsum("cp,pij->cij", packed, r_eff)
    total = float(np.einsum("ci,cij,cj->", uloc, ke, uloc))
    vol = ncells * h**d
    return total / vol


def _fv_energy(cell_block: np.ndarray, data: np.ndarray, d: int, h: float) -> float:
    pairs = sym_index_pairs(d)
    off = [c for c, (i, j) in enumerate(pairs) if i != j]
    if off and np.any(cell_block[..., off] != 0.0):
        raise ValueError("cell-mode energy requires a diagonal coefficient")
    diag = [c for c, (i, j) in enumerate(pairs) if i == j]
    total = 0.0
    for a in range(d):
        ca = cell_block[..., diag[a]]
        left = _shift_view(ca, a, 0, -1)
        right = _shift_view(ca, a, 1, None)
        if left.size == 0:
            continue
        a_face = 2.0 * left * right / (left + right)
        du = (_shift_view(data, a, 1, None) - _shift_view(data, a, 0, -1)) / h
        total += float((a_face * du * du).mean())
    return total


def discrete_gradient(u) -> np.ndarray:
    """Per-cell average gradient of a node-mode function: (..., d)."""
    data, mode = _resolve_function(u)
    if mode != "node":
        raise ValueError("discrete_gradient requires a node-mode function")
    h = u.grid.h
    d = data.ndim
    m_shape = tuple(s - 1 for s in data.shape)
    ncells = int(np.prod(m_shape))
    corners = np.empty((ncells, 2**d))
    for i, off in enumerate(_local_offsets(d)):
        sl = tuple(slice(o, o + s) for o, s in zip(off, m_shape))
        corners[:, i] = data[sl].reshape(ncells)
    _, r_hat = reference_matrices(d)
    grads = corners @ r_hat.T / h
    return grads.reshape(m_shape + (d,))


def mean_gradient(u) -> np.ndarray:
    """Volume average of the gradient over the function's domain."""
    g = discrete_gradient(u)
    return g.reshape(-1, g.shape[-1]).mean(axis=0)


def mean_flux(field: CoefficientField, u) -> np.ndarray:
    """Volume average of a grad u over the function's domain."""
    g = discrete_gradient(u)
    if isinstance(u, CubeFunction):
        block = field.data[u.cube.cell_slices(field.grid)]
    else:
        block = field.data
    full = sym_unpack(block.reshape(-1, block.shape[-1]), field.d)
    flux = np.einsum("cab,cb->ca", full, g.reshape(-1, field.d))
    return flux.mean(axis=0)


def functional_value(
    field: CoefficientField,
    cube: TriadicCube,
    u: CubeFunction,
    direction: Sequence[float],
    rhs_kind: str,
) -> float:
    """Evaluate ``avg(-grad v . a grad v + 2 L(v))`` at a test function.

    One-sided oracle: the solver's optimum is an upper bound for this value
    at any test function on the same cube.
    """
    direction = np.asarray(direction, dtype=float)
    e = energy(field, u)
    g = mean_gradient(u) if rhs_kind == GRADIENT else mean_flux(field, u)
    return float(-e + 2.0 * direction @ g)
