"""Discrete elliptic solvers on triadic cubes.

Two problem classes back everything else:

* variational maximizations with pure-Neumann (natural) boundary conditions,
  ``sup_u avg(-grad u . a grad u + 2 L(u))`` with linear forcings
  ``L(v) = avg(q . grad v)`` ("gradient" forcing) or ``avg(p . a grad v)``
  ("flux" forcing), discretized with multilinear Q1 elements and exact
  integration of the piecewise-constant coefficient;
* Dirichlet problems ``-div(a grad u) = 0`` with given boundary values,
  cell-centered with harmonic face averaging (a 2d+1-point M-matrix stencil
  that obeys a discrete maximum principle) for scalar/diagonal
  coefficients. The solve and the harness read the boundary data at the
  same face centers, from :func:`boundary_face_values`.

Every pure-Neumann solve goes through one engine. It assembles equal cubes
(all cubes of a triadic level, or a single cube) into one block-diagonal
sparse matrix; each block pins one node, which removes the constant kernel
and leaves an SPD system, and lists its nodes in geometric nested-dissection
order. A level's cubes are cut into chunks of whole cubes whose predicted
factor fits :data:`CHUNK_NNZ`; SuperLU factors each chunk's matrix once,
keeping that order, and all 2d forcings are back-solved together; each
cube's solution is then re-centred to zero mean. The chunks of a level run
on one thread per core this process may use, the calling thread among them
(SuperLU releases the GIL); with one chunk or one core the caller runs them
alone. A 3D sweep also hands level 0, one cube whose factor outweighs all
other levels together, to a pool thread while the caller solves the other
levels; a helper that finds its pool thread still busy when the caller has
taken a level's last chunk is cancelled. Every block is factored alone, so
the numbers do not depend on the split or the schedule. The Dirichlet
system is SPD as well (an M-matrix with the boundary terms on its
diagonal); it lists its unknowns in the same nested-dissection order and
takes one step of iterative refinement with the same factor. Every solve's
sparse factorization goes through :func:`_factor`.

``scipy.sparse`` and ``scipy.sparse.linalg`` are not imported with this
module: the functions that assemble or factor a sparse matrix import them,
so importing ``cge`` (and ``cge gen``, which never solves) loads no SciPy
sparse code. ``cge.cli`` loads them before a solving command reads its
field. Likewise ``concurrent.futures`` and the chunk threads load and start
with the first level that has more than one chunk to run on more than one
core, or with the first overlapped 3D level 0.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .grid import (
    CoefficientField,
    GridSpec,
    ScalarGridFunction,
    TriadicCube,
    block_view,
    sym_index_pairs,
    sym_pack,
    sym_unpack,
)

if TYPE_CHECKING:
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

__all__ = [
    "SolveStats",
    "SolverError",
    "CubeFunction",
    "assemble_neumann",
    "solve_linear_forcing",
    "neumann_functionals",
    "batched_neumann_functionals",
    "solve_dirichlet",
    "boundary_face_values",
    "energy",
    "discrete_gradient",
    "mean_gradient",
    "mean_flux",
    "functional_value",
]

GRADIENT = "gradient"
FLUX = "flux"

#: Largest predicted factor, in SuperLU nonzeros, of one chunk of a sweep
#: level. Small chunks bound the memory of every level of more than one cube
#: and let the threads share a level; a cube whose factor alone is larger is
#: a chunk of its own.
CHUNK_NNZ = 72_000

#: Every factorization keeps the given (nested-dissection) order and pivots
#: on the diagonal: the pinned systems are SPD, so no pivoting is needed.
_SPLU_OPTIONS = {"permc_spec": "NATURAL", "diag_pivot_thresh": 0.0}

_POOL = None  # the chunk threads; see _chunk_pool


@dataclass
class SolveStats:
    iterations: int
    residual: float
    unknowns: int
    wall_time: float
    method: str
    chunks: int = 1  # how a sweep level was split and run, for its log line
    threads: int = 1

    def to_dict(self) -> dict:
        """Plain-JSON form (NumPy scalars cast to ``int``/``float``). The
        chunk and thread counts are left out: they depend on the host's
        cores, and a report must not."""
        return {
            "iterations": int(self.iterations),
            "residual": float(self.residual),
            "unknowns": int(self.unknowns),
            "wall_time": float(self.wall_time),
            "method": self.method,
        }


class SolverError(RuntimeError):
    """Solver failure (e.g. a failed factorization); carries the partial stats.

    From :func:`batched_neumann_functionals` it also carries the partial
    level: ``g`` holds every cube's functional matrix, NaN for the cubes of
    the chunks that failed, and ``failed`` marks those cubes.
    """

    def __init__(self, message: str, stats: SolveStats | None = None,
                 g: np.ndarray | None = None, failed: np.ndarray | None = None):
        super().__init__(message)
        self.stats = stats
        self.g = g
        self.failed = failed


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
    """Packed cell data of one cube as a batch of one: (1, ncells, ncomp)."""
    block = field.data[cube.cell_slices(field.grid)]
    return block.reshape(1, -1, field.data.shape[-1])


def _element_matrices(cells_packed: np.ndarray, d: int, h: float) -> np.ndarray:
    """Element stiffness blocks (..., ncells, 2^d, 2^d) for packed cell data."""
    r_eff, _ = reference_matrices(d)
    return h ** (d - 2) * np.einsum("...cp,pij->...cij", cells_packed, r_eff)


@lru_cache(maxsize=8)
def _nested_dissection(m: int, d: int) -> np.ndarray:
    """The nodes of an ``(m+1)**d`` grid in geometric nested-dissection order.

    Each box is cut across its longest axis by a plane one node thick; the
    two halves come first (recursively) and the plane last, so eliminating
    in this order confines fill to the separators. Boxes at most four nodes
    on a side keep their C order.
    """
    order: list[np.ndarray] = []

    def dissect(block: np.ndarray) -> None:
        axis = int(np.argmax(block.shape))
        side = block.shape[axis]
        if side <= 4:
            order.append(block.ravel())
            return
        lo, plane, hi = np.split(block, [side // 2, side // 2 + 1], axis=axis)
        dissect(lo)
        dissect(hi)
        order.append(plane.ravel())

    dissect(np.arange((m + 1) ** d).reshape((m + 1,) * d))
    out = np.concatenate(order)
    out.flags.writeable = False  # shared by every caller through the cache
    return out


@lru_cache(maxsize=8)
def _block_pattern(m: int, d: int, pinned: bool):
    """CSC pattern of one cube's stiffness and where each element entry goes.

    With ``pinned`` the nodes are in nested-dissection order and the last one
    (on the first separator) is dropped; otherwise all nodes keep their C
    order. Returns ``(indptr, indices, keep, slot)``: ``keep`` selects the
    entries of the flattened ``(ncells, 2^d, 2^d)`` element matrices that
    land in the matrix, and ``slot`` is each kept entry's index in the CSC
    data array.
    """
    nn = (m + 1) ** d
    conn = _cell_node_indices(m, d)
    pos = np.arange(nn)
    n = nn
    if pinned:
        pos[_nested_dissection(m, d)] = np.arange(nn)
        n = nn - 1
    local = pos[conn]
    rows = np.broadcast_to(local[:, :, None], local.shape + local.shape[1:]).ravel()
    cols = np.broadcast_to(local[:, None, :], local.shape + local.shape[1:]).ravel()
    keep = (rows < n) & (cols < n)
    keys, slot = np.unique(cols[keep] * n + rows[keep], return_inverse=True)
    # int32 halves what the cache holds; the assembly widens them again
    pattern = (np.searchsorted(keys, np.arange(n + 1) * n), (keys % n).astype(np.int32),
               keep, slot.ravel().astype(np.int32))
    for arr in pattern:  # shared by every caller through the cache
        arr.flags.writeable = False
    return pattern


def _assemble_blocks(cells: np.ndarray, m: int, d: int, h: float, pinned: bool) -> sp.csc_matrix:
    """Block-diagonal Q1 stiffness of equal cubes, one block per cube.

    ``cells`` is ``(ncubes, m**d, ncomp)``: each cube's packed coefficient,
    cells in C order. The blocks follow :func:`_block_pattern`.
    """
    import scipy.sparse as sp

    ncubes = cells.shape[0]
    indptr, indices, keep, slot = _block_pattern(m, d, pinned)
    nnz = indices.size
    n = indptr.size - 1
    ke = _element_matrices(cells, d, h).reshape(ncubes, -1)[:, keep]
    first = np.arange(ncubes)[:, None]
    data = np.bincount((first * nnz + slot).ravel(), weights=ke.ravel(),
                       minlength=ncubes * nnz)
    all_indptr = np.append((first * nnz + indptr[:-1]).ravel(), ncubes * nnz)
    all_indices = (first * n + indices).ravel()
    return sp.csc_matrix((data, all_indices, all_indptr), shape=(ncubes * n,) * 2)


def _forcings(cells: np.ndarray, m: int, d: int, h: float) -> np.ndarray:
    """RHS columns of all 2d unit forcings, ``(ncubes, nn, 2d)`` in C node order.

    Columns 0..d-1: gradient forcings L(v) = avg(e_a . grad v).
    Columns d..2d-1: flux forcings L(v) = avg(e_a . a grad v).
    (Un-normalized: the vectors represent vol * L.)
    """
    ncubes = cells.shape[0]
    nn = (m + 1) ** d
    conn = _cell_node_indices(m, d)
    _, r_hat = reference_matrices(d)
    per_cell_grad = h ** (d - 1) * r_hat  # (d, 2^d), the same in every cell
    per_cell_flux = h ** (d - 1) * np.einsum("bcxy,yI->bcxI", sym_unpack(cells, d), r_hat)
    flat_nodes = (np.arange(ncubes)[:, None] * nn + conn.ravel()).ravel()
    rhs = np.empty((ncubes, nn, 2 * d))
    for a in range(d):
        rhs[:, :, a] = np.bincount(conn.ravel(), minlength=nn,
                                   weights=np.broadcast_to(per_cell_grad[a], conn.shape).ravel())
        rhs[:, :, d + a] = np.bincount(
            flat_nodes, weights=per_cell_flux[:, :, a, :].ravel(), minlength=ncubes * nn
        ).reshape(ncubes, nn)
    return rhs


def assemble_neumann(field: CoefficientField, cube: TriadicCube) -> sp.csr_matrix:
    """Pure-Neumann Q1 stiffness of a cube (singular, kernel = constants)."""
    m = cube.cells_per_side(field.grid)
    cells = _cube_cells_packed(field, cube)
    return _assemble_blocks(cells, m, field.d, field.grid.h, pinned=False).tocsr()


# ---------------------------------------------------------------------------
# Pure-Neumann solves
# ---------------------------------------------------------------------------

def _factor(mat: sp.csc_matrix) -> spla.SuperLU:
    """SuperLU factorization with :data:`_SPLU_OPTIONS`; every solve factors
    through here."""
    import scipy.sparse.linalg as spla

    return spla.splu(mat, **_SPLU_OPTIONS)


@lru_cache(maxsize=8)
def _factor_nnz(m: int, d: int) -> int:
    """Nonzeros of the factor of one pinned cube of ``m`` cells a side, the
    same for every coefficient: a sizing probe on the identity, which calls
    SuperLU directly since it is not a solve."""
    import scipy.sparse.linalg as spla

    identity = np.broadcast_to(sym_pack(np.eye(d)), (1, m**d, len(sym_index_pairs(d))))
    return spla.splu(_assemble_blocks(identity, m, d, 1.0, pinned=True), **_SPLU_OPTIONS).nnz


def _chunk_cubes(m: int, d: int) -> int:
    """Cubes of ``m`` cells a side per chunk: as many as fit :data:`CHUNK_NNZ`,
    at least one. A factor holds at least its matrix's entries, so a cube
    whose matrix alone fills the budget needs no probe."""
    matrix_nnz = _block_pattern(m, d, True)[1].size
    if matrix_nnz >= CHUNK_NNZ:
        return 1
    return max(1, CHUNK_NNZ // _factor_nnz(m, d))


def _chunk_pool():
    """The threads that take chunks alongside the calling thread (and, in a
    3D sweep, solve level 0): one per core this process may use, less the
    caller's. Started on first use and kept for the life of the process."""
    global _POOL
    if _POOL is None:
        from concurrent.futures import ThreadPoolExecutor

        _POOL = ThreadPoolExecutor(len(os.sched_getaffinity(0)) - 1,
                                   thread_name_prefix="cge-chunk")
    return _POOL


def _solve_cubes(
    cells: np.ndarray, m: int, d: int, h: float
) -> tuple[np.ndarray, np.ndarray, SolveStats]:
    """Zero-mean solutions of all 2d unit forcings on equal cubes at once.

    ``cells`` is ``(ncubes, m**d, ncomp)``, as for :func:`_assemble_blocks`.
    One factorization covers every cube. Returns ``(sols, rhs, stats)``, the
    first two ``(ncubes, nn, 2d)`` in C node order; ``stats.residual`` is the
    largest per-cube ``|Kx - b| / |b|`` of the factored (pinned) systems.
    Raises :class:`SolverError` if the factorization fails.
    """
    t0 = time.perf_counter()
    ncubes = cells.shape[0]
    nn = (m + 1) ** d
    free = _nested_dissection(m, d)[:-1]  # the last node is pinned to zero
    kmat = _assemble_blocks(cells, m, d, h, pinned=True)
    rhs = _forcings(cells, m, d, h)
    b = rhs[:, free].reshape(-1, 2 * d)
    try:
        lu = _factor(kmat)
    except RuntimeError as err:
        raise SolverError(f"sparse factorization failed: {err}",
                          SolveStats(0, math.nan, nn, time.perf_counter() - t0, "splu")) from err
    x = lu.solve(b)
    per_cube = (ncubes, nn - 1, 2 * d)
    res = (np.linalg.norm((kmat @ x - b).reshape(per_cube), axis=1)
           / np.maximum(np.linalg.norm(b.reshape(per_cube), axis=1), 1e-300))
    sols = np.zeros_like(rhs)
    sols[:, free] = x.reshape(per_cube)
    sols -= sols.mean(axis=1, keepdims=True)
    return sols, rhs, SolveStats(0, float(res.max()), nn, time.perf_counter() - t0, "splu")


def neumann_functionals(
    field: CoefficientField, cube: TriadicCube
) -> tuple[np.ndarray, SolveStats]:
    """Cross-functional matrix of all 2d unit-forcing variational problems.

    Returns ``(g, stats)`` where ``g[r, s] = L_s(u_r) / vol`` for the 2d
    forcings (d gradient, then d flux) — everything the coarse-graining layer
    needs: ``g[grad, grad]`` is the Gram matrix of the gradient problems,
    ``g[flux, flux]`` the flux-forcing value matrix, and the mixed blocks are
    consistency diagnostics. ``g`` is symmetric up to roundoff.
    """
    m = cube.cells_per_side(field.grid)
    sols, rhs, stats = _solve_cubes(_cube_cells_packed(field, cube), m, field.d, field.grid.h)
    return (sols[0].T @ rhs[0]) / cube.volume, stats


def _chunk_functionals(
    cells: np.ndarray, m: int, d: int, h: float, volume: float
) -> tuple[np.ndarray, SolveStats] | SolverError:
    """``(g, stats)`` of one chunk, ``g`` of shape ``(ncubes, 2d, 2d)``, or
    its :class:`SolverError`, returned so that it fails this chunk alone.
    The solutions are reduced here, so they do not outlive the chunk."""
    try:
        sols, rhs, stats = _solve_cubes(cells, m, d, h)
    except SolverError as err:
        return err
    return np.einsum("bnr,bns->brs", sols, rhs) / volume, stats


def batched_neumann_functionals(
    field: CoefficientField, level: int
) -> tuple[np.ndarray, SolveStats]:
    """``neumann_functionals`` for every cube of one level.

    The cubes, in row-major order, are cut into chunks of
    :func:`_chunk_cubes` whole cubes; each chunk is one factorization. The
    calling thread and, with more than one chunk and more than one core,
    the threads of :func:`_chunk_pool` take the chunks one at a time. The
    caller takes chunks too, so they reuse the memory that level 0 freed
    in the caller's heap; each helper thread allocates from a heap of its
    own, which stays with the process. Once the caller has taken the last
    chunk, a helper that has not started (its pool thread is busy, as with
    3D level 0 in :func:`~cge.coarse.sweep`) is cancelled, not waited for.
    Returns ``(g_all, stats)`` with ``g_all`` of shape
    ``(3**-level,)*d + (2d, 2d)`` in row-major cube order;
    ``stats.residual`` is the largest over the chunks, ``stats.chunks`` the
    number of chunks and ``stats.threads`` the threads that took at least
    one of them. A failed factorization raises :class:`SolverError` after
    every chunk has run, carrying the level with the failed chunks' cubes
    NaN.
    """
    t0 = time.perf_counter()
    grid = field.grid
    d = grid.d
    m = 3 ** (grid.N + level)
    cells = block_view(field.data, d, m).reshape((-1, m**d, field.data.shape[-1]))
    ncubes = cells.shape[0]
    size = _chunk_cubes(m, d) if ncubes > 1 else 1
    starts = range(0, ncubes, size)
    threads = min(len(starts), len(os.sched_getaffinity(0)))
    volume = 3.0 ** (level * d)

    # shared: a thread takes the next chunk when it is free (next() on a
    # range iterator is one step, atomic under the GIL)
    jobs = iter(starts)

    def drain() -> list:
        return [(lo, _chunk_functionals(cells[lo:lo + size], m, d, grid.h, volume))
                for lo in jobs]

    helpers = [_chunk_pool().submit(drain) for _ in range(threads - 1)]
    takes = [drain()] + [helper.result() for helper in helpers if not helper.cancel()]
    done = [pair for take in takes for pair in take]
    g_all = np.full((ncubes, 2 * d, 2 * d), np.nan)
    failed = np.zeros(ncubes, dtype=bool)
    errors, residuals = [], []
    for lo, out in sorted(done, key=lambda pair: pair[0]):
        if isinstance(out, SolverError):
            failed[lo:lo + size] = True
            errors.append(out)
        else:
            g_all[lo:lo + size] = out[0]
            residuals.append(out[1].residual)
    stats = SolveStats(0, float(np.max(residuals)) if residuals else math.nan, (m + 1) ** d,
                       time.perf_counter() - t0, "splu", len(starts),
                       sum(1 for take in takes if take))
    shape = (3 ** (-level),) * d
    g_all = g_all.reshape(shape + (2 * d, 2 * d))
    if errors:
        raise SolverError(str(errors[0]), stats, g_all, failed.reshape(shape))
    return g_all, stats


def solve_linear_forcing(
    field: CoefficientField,
    cube: TriadicCube,
    direction: Sequence[float],
    rhs_kind: str,
) -> tuple[CubeFunction, SolveStats, float]:
    """Maximize ``avg(-grad u . a grad u + 2 L(u))`` over the cube.

    ``rhs_kind`` selects the forcing: ``"gradient"`` gives
    ``L(v) = avg(direction . grad v)``, ``"flux"`` gives
    ``L(v) = avg(direction . a grad v)``. Returns the zero-mean maximizer,
    solver stats, and the optimum value ``L(u)/vol`` (at the maximizer the
    functional value equals ``L(u)/vol`` since ``B(u,u) = L(u)``). The
    maximizer combines the unit-forcing solutions by linearity.
    """
    if rhs_kind not in (GRADIENT, FLUX):
        raise ValueError(f"rhs_kind must be 'gradient' or 'flux', got {rhs_kind!r}")
    direction = np.asarray(direction, dtype=float)
    if direction.shape != (field.d,) or not np.linalg.norm(direction) > 0:
        raise ValueError("direction must be a nonzero d-vector")
    m = cube.cells_per_side(field.grid)
    sols, rhs, stats = _solve_cubes(_cube_cells_packed(field, cube), m, field.d, field.grid.h)
    cols = slice(0, field.d) if rhs_kind == GRADIENT else slice(field.d, 2 * field.d)
    x = sols[0, :, cols] @ direction
    value = float(rhs[0, :, cols] @ direction @ x) / cube.volume
    u = CubeFunction(field.grid, cube, x.reshape((m + 1,) * field.d), "node")
    return u, stats, value


# ---------------------------------------------------------------------------
# Dirichlet problems
# ---------------------------------------------------------------------------

def _diagonal_cells(block: np.ndarray, d: int) -> np.ndarray:
    """Per-cell diagonal entries ``(..., d)`` of a packed cell block; rejects
    off-diagonal fields."""
    pairs = sym_index_pairs(d)
    off = [c for c, (i, j) in enumerate(pairs) if i != j]
    if off and np.any(block[..., off] != 0.0):
        raise ValueError("the cell-centered scheme requires a diagonal coefficient")
    return block[..., [c for c, (i, j) in enumerate(pairs) if i == j]]


def _shift_view(arr: np.ndarray, axis: int, lo: int, hi: int | None) -> np.ndarray:
    idx = [slice(None)] * arr.ndim
    idx[axis] = slice(lo, hi)
    return arr[tuple(idx)]


def solve_dirichlet(
    field: CoefficientField,
    cube: TriadicCube,
    boundary: Callable[..., np.ndarray],
) -> tuple[CubeFunction, SolveStats]:
    """Solve ``-div(a grad u) = 0`` on a cube with given boundary values.

    Cell-centered, with harmonic face averaging: a 2d+1-point M-matrix
    stencil, which requires a diagonal coefficient and gives a cell-mode
    solution satisfying a discrete maximum principle. ``boundary`` is called
    as ``boundary(X1, ..., Xd)`` in centered physical coordinates, at the
    face centers of :func:`boundary_face_values`, half a cell from the
    centers of the boundary cells.

    The unknowns are listed in nested-dissection order of the cells; the
    system is factored once by :func:`_factor` and takes one refinement step
    ``x += solve(b - A x)`` with the same factor. Without it, constant
    boundary data on a 2D ``N=5`` grid comes back with an oscillation near
    1e-12, which the constant-solution checks of the harness diagnostics
    read as non-constant. Raises :class:`SolverError` if the factorization
    fails.
    """
    t0 = time.perf_counter()
    grid = field.grid
    d = grid.d
    h = grid.h
    m = cube.cells_per_side(grid)
    n = m**d
    diag_cells = _diagonal_cells(field.data[cube.cell_slices(grid)], d)
    shape = (m,) * d
    order = _nested_dissection(m - 1, d)  # the cells of the cube as an m**d grid
    flat = np.argsort(order).reshape(shape)  # each cell's row in that order
    faces = boundary_face_values(grid, cube, boundary)

    rows, cols, vals = [], [], []
    diag_acc = np.zeros(shape)
    rhs = np.zeros(shape)
    scale = h ** (d - 2)

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
        _shift_view(diag_acc, a, 0, -1)[...] += trans
        _shift_view(diag_acc, a, 1, None)[...] += trans

        # boundary faces at half-cell distance
        for side, (lo, hi) in enumerate(((0, 1), (-1, None))):
            tb = scale * 2.0 * _shift_view(ca, a, lo, hi)
            _shift_view(diag_acc, a, lo, hi)[...] += tb
            _shift_view(rhs, a, lo, hi)[...] += tb * faces[2 * a + side]

    rows.append(flat.ravel())
    cols.append(flat.ravel())
    vals.append(diag_acc.ravel())
    import scipy.sparse as sp

    amat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsc()
    b = rhs.ravel()[order]
    try:
        lu = _factor(amat)
    except RuntimeError as err:
        raise SolverError(f"sparse factorization failed: {err}",
                          SolveStats(0, math.nan, n, time.perf_counter() - t0, "fv-splu")) from err
    x = lu.solve(b)
    x += lu.solve(b - amat @ x)
    res = np.linalg.norm(amat @ x - b) / max(np.linalg.norm(b), 1e-300)
    stats = SolveStats(0, float(res), n, time.perf_counter() - t0, "fv-splu")
    return CubeFunction(grid, cube, x[flat], "cell"), stats


def boundary_face_values(
    grid: GridSpec, cube: TriadicCube, boundary: Callable[..., np.ndarray]
) -> list[np.ndarray]:
    """``boundary`` at the centers of a cube's boundary faces, as
    :func:`solve_dirichlet` evaluates it.

    One array per axis and side (lower side first), each shaped like the
    layer of cells next to that side. Callers that check the data (sign,
    finiteness, constancy) sample it here, so they check exactly the values
    the solve uses.
    """
    m = cube.cells_per_side(grid)
    lo_phys, _ = cube.physical_bounds()
    centers = [lo_phys[a] + (np.arange(m) + 0.5) * grid.h for a in range(grid.d)]
    values = []
    for a in range(grid.d):
        for plane in (lo_phys[a], lo_phys[a] + m * grid.h):
            axes = [np.asarray([plane]) if b == a else centers[b] for b in range(grid.d)]
            values.append(np.asarray(boundary(*np.meshgrid(*axes, indexing="ij")), dtype=float))
    return values


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
    diag_cells = _diagonal_cells(cell_block, d)
    total = 0.0
    for a in range(d):
        ca = diag_cells[..., a]
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
