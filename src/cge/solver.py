"""Discrete elliptic solvers on triadic cubes.

Two problem classes back everything else:

* variational maximizations with pure-Neumann (natural) boundary conditions,
  ``sup_u avg(-grad u . a grad u + 2 L(u))`` with linear forcings
  ``L(v) = avg(q . grad v)`` ("gradient" forcing) or ``avg(p . a grad v)``
  ("flux" forcing), discretized with multilinear Q1 elements and exact
  integration of the piecewise-constant coefficient. The flux forcing is
  ``B(p . x, v) / vol`` with ``p . x`` a Q1 function, which is therefore its
  maximizer: only the gradient forcings are solved;
* Dirichlet problems ``-div(a grad u) = 0`` with given boundary values,
  cell-centered with harmonic face averaging (a 2d+1-point M-matrix stencil
  that obeys a discrete maximum principle) for scalar/diagonal
  coefficients. The solve and the harness read the boundary data at the
  same face centers, from :func:`boundary_face_values`.

The pure-Neumann solves have one engine, :func:`level_functionals`: one
bottom-up pass of nested static condensation over the triadic tree, in
every dimension. The forcings live on a cube's boundary, so ``g`` needs
only the Schur complement of the cube's stiffness onto its boundary (its
boundary map), and a parent's map is the dense condensation of its
children's. Every level runs the stages of one plan (:func:`_plan`)
through one merge kernel (:func:`_condense`). Each stage merges 3 boxes
along one axis, so small separators are eliminated first, as in nested
dissection (George, "Nested dissection of a regular finite element mesh",
SIAM J. Numer. Anal. 1973), and a merge keeps the boundary of the box it
makes. Level 0 forms no map: its boxes keep only the nodes that another box
shares, its children first eliminating alone the nodes no other child has,
and its last merge is one pinned solve. A single cube
(:func:`neumann_functionals`) is level 0 of a pass over its own cells.

A merge sums its boxes' maps onto its skeleton through a flat index and
eliminates by Cholesky (:func:`_eliminate`), whose forward substitution
(:func:`_lower_solve`) and Schur update are matmuls. The pinned solve is an
LU solve.

The merges of a stage run in chunks of whole merges, on one thread per core
this process may use, the calling thread among them (NumPy's factorizations
and matmul release the GIL), through :func:`_run_chunks`; with one chunk or
one core the caller runs them alone. Every merge is eliminated alone, so
the numbers do not depend on the split or the schedule.

The Dirichlet system is SPD (an M-matrix with the boundary terms on its
diagonal); it lists its unknowns in nested-dissection order, is factored
once by :func:`_factor` (SuperLU) and takes one step of iterative
refinement with the same factor.

``scipy.sparse`` and ``scipy.sparse.linalg`` are not imported with this
module but by the Dirichlet solve (:func:`solve_dirichlet`,
:func:`_factor`): importing ``cge``, ``cge gen`` and every sweep (NumPy's
dense solves alone) load no SciPy sparse code. Likewise
``concurrent.futures`` and the chunk threads load and start with the first
stage that has more than one chunk to run on more than one core.
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
    sym_index_pairs,
    sym_unpack,
)

if TYPE_CHECKING:
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

__all__ = [
    "SolveStats",
    "SolverError",
    "CubeFunction",
    "neumann_functionals",
    "level_functionals",
    "solve_dirichlet",
    "boundary_face_values",
    "energy",
    "discrete_gradient",
    "mean_gradient",
    "mean_flux",
]

#: The Dirichlet factorization keeps the given (nested-dissection) order and
#: pivots on the diagonal: the system is SPD, so no pivoting is needed.
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
    failure: str = ""  # the pass's first failed dense solve, "" if none

    def to_dict(self) -> dict:
        """Plain-JSON form (NumPy scalars cast to ``int``/``float``), without
        the chunk and thread counts, which depend on the host's cores (a
        report must not), and ``failure``, which a sweep records per cube."""
        return {
            "iterations": int(self.iterations),
            "residual": float(self.residual),
            "unknowns": int(self.unknowns),
            "wall_time": float(self.wall_time),
            "method": self.method,
        }


class SolverError(RuntimeError):
    """Solver failure (a failed factorization, or a cube whose functional
    matrix is not finite); carries the partial stats.

    The condensation pass does not raise it: a failed dense solve leaves its
    cubes' ``g`` NaN and names itself in ``stats.failure``.
    """

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


def _cell_corners(node_data: np.ndarray) -> np.ndarray:
    """Each cell's corner values of a node array, ``(ncells, 2^d)``: cells
    in C order, corners in the order of the element matrices."""
    d = node_data.ndim
    m_shape = tuple(s - 1 for s in node_data.shape)
    ncells = math.prod(m_shape)
    corners = np.empty((ncells, 2**d))
    for i, off in enumerate(_local_offsets(d)):
        sl = tuple(slice(o, o + s) for o, s in zip(off, m_shape))
        corners[:, i] = node_data[sl].reshape(ncells)
    return corners


def _element_matrices(cells_packed: np.ndarray, d: int, h: float) -> np.ndarray:
    """Element stiffness blocks (..., ncells, 2^d, 2^d) for packed cell data."""
    r_eff, _ = reference_matrices(d)
    return h ** (d - 2) * np.einsum("...cp,pij->...cij", cells_packed, r_eff)


@lru_cache(maxsize=8)
def _forcings(shape: tuple[int, ...], h: float) -> np.ndarray:
    """RHS columns of the d gradient forcings ``L(v) = avg(e_a . grad v)`` on
    a box of ``shape`` cells, ``(nn, d)`` in C node order: the same for
    every coefficient, so cached and read-only. (Un-normalized: the vectors
    represent vol * L.) A node off the box's boundary gets
    ``h**(d-1) * sum(r_hat)`` over its 2**d cells, which is zero: the
    forcings live on the boundary.
    """
    d = len(shape)
    _, r_hat = reference_matrices(d)
    per_cell = h ** (d - 1) * r_hat  # (d, 2^d), the same in every cell
    rhs = np.zeros(tuple(s + 1 for s in shape) + (d,))
    # last corner first: each node then adds its cells in C order
    for i, off in reversed(list(enumerate(_local_offsets(d)))):
        rhs[tuple(slice(o, o + s) for o, s in zip(off, shape))] += per_cell[:, i]
    rhs = rhs.reshape(-1, d)
    rhs.flags.writeable = False  # shared by every caller through the cache
    return rhs


# ---------------------------------------------------------------------------
# Pure-Neumann solves: nested static condensation over the triadic tree
# ---------------------------------------------------------------------------

def _chunk_pool():
    """The threads that take chunks alongside the calling thread: one per
    core this process may use, less the caller's. Started on first use and
    kept for the life of the process."""
    global _POOL
    if _POOL is None:
        from concurrent.futures import ThreadPoolExecutor

        _POOL = ThreadPoolExecutor(len(os.sched_getaffinity(0)) - 1,
                                   thread_name_prefix="cge-chunk")
    return _POOL


def _run_chunks(starts: range, work: Callable[[int], object]) -> tuple[list, int]:
    """``work(lo)`` for every chunk start, on the calling thread and, with
    more than one chunk and more than one core, the threads of
    :func:`_chunk_pool`; each thread takes the next chunk when it is free.

    The caller takes chunks too, so they reuse the memory that an earlier
    level freed in the caller's heap; each helper thread allocates from a
    heap of its own, which stays with the process. Once the caller has
    taken the last chunk, a helper that has not started yet is cancelled,
    not waited for. Returns the ``(lo, work(lo))`` pairs in chunk order and
    the number of threads that took at least one chunk.
    """
    threads = min(len(starts), len(os.sched_getaffinity(0)))
    # shared: next() on a range iterator is one step, atomic under the GIL
    jobs = iter(starts)

    def drain() -> list:
        return [(lo, work(lo)) for lo in jobs]

    helpers = [_chunk_pool().submit(drain) for _ in range(threads - 1)]
    takes = [drain()] + [helper.result() for helper in helpers if not helper.cancel()]
    done = sorted((pair for take in takes for pair in take), key=lambda pair: pair[0])
    return done, sum(1 for take in takes if take)


def _level_outcome(shape: tuple[int, ...], done: list, size: int, stats: SolveStats,
                   order: np.ndarray) -> np.ndarray:
    """A level's ``g_all`` from its chunks' ``(lo, result)`` pairs.

    The chunks hold the level's cubes in tree order, and ``order`` is each
    cube's row-major index (:func:`_tree_order`). A result is ``(g,
    residual)`` for the ``size`` cubes from ``lo`` (``g`` divided by the
    volume, or ``None`` if not wanted), or ``None`` for a failed chunk,
    whose cubes stay NaN. ``stats`` holds the level's start as its
    ``wall_time`` and takes the wall time and the largest finite residual.
    """
    d = len(shape)
    g_all = np.full((math.prod(shape), d, d), np.nan)
    residuals = []
    for lo, res in done:
        if res is not None and res[0] is not None:
            g_all[lo:lo + size] = res[0]
            if not math.isnan(res[1]):
                residuals.append(res[1])
    stats.residual = max(residuals, default=math.nan)
    stats.wall_time = time.perf_counter() - stats.wall_time
    g_all[order] = g_all.copy()
    return g_all.reshape(shape + (d, d))


@lru_cache(maxsize=16)
def _boundary_nodes(shape: tuple[int, ...]) -> np.ndarray:
    """C-order indices of the boundary nodes of a box of ``shape`` cells:
    the rows and columns of its boundary map. For a box of one cell every
    node is on the boundary, in the order of the element matrices."""
    coords = np.indices(tuple(s + 1 for s in shape)).reshape(len(shape), -1)
    out = np.flatnonzero(((coords == 0) | (coords == np.array(shape)[:, None])).any(axis=0))
    out.flags.writeable = False  # shared by every caller through the cache
    return out


@lru_cache(maxsize=16)
def _plan(shape: tuple[int, ...], top: bool) -> tuple[tuple, ...]:
    """How a level condenses each of its cubes from the maps of the cube's
    ``3**d`` children of ``shape`` cells: its stages, each the tuple of one
    cube's merges.

    A merge sums the maps of consecutive boxes onto its *skeleton*, the
    union of their nodes, and eliminates the nodes it does not keep: it
    keeps the boundary of the box it makes, and at level 0 (``top``), whose
    map no level needs, only the part inside the cube, which another box of
    the next stage shares. So level 0's last merge keeps no node, and its
    first stage merges each child alone, to eliminate the nodes no other
    child has. Every other stage merges 3 boxes consecutive along one axis,
    last axis first, as :func:`_tree_order` lists them.

    A merge is ``(size, k, ranks)``: the skeleton's size, the ``k`` nodes
    it eliminates, and for each of its boxes the skeleton index of every
    node of the box's map. The skeleton lists the eliminated nodes first,
    then the kept ones, and a map its nodes, each in C order of the cube's
    node grid (a child's as :func:`_boundary_nodes` does). Below level 0
    the merges of a stage are translates of one another: the pass condenses
    them all by the first.
    """
    d = len(shape)
    nodes = tuple(3 * s + 1 for s in shape)  # the cube's node grid
    local = np.indices(tuple(s + 1 for s in shape)).reshape(d, -1)[:, _boundary_nodes(shape)]
    span = np.array(shape)[:, None]
    boxes = []  # (nodes of the box's map, lowest corner, highest corner)
    for offset in np.ndindex((3,) * d):
        lo = np.array(offset)[:, None] * span
        boxes.append((np.ravel_multi_index(tuple(local + lo), nodes), lo, lo + span))
    stages = []
    for width in ([1] if top else []) + [3] * d:
        merges, parents = [], []
        for j in range(0, len(boxes), width):
            group = [box for box, _, _ in boxes[j:j + width]]
            lo, hi = boxes[j][1], boxes[j + width - 1][2]
            union = np.unique(np.concatenate(group))  # sorted: C order
            coords = np.array(np.unravel_index(union, nodes))
            face = (coords == lo) | (coords == hi)
            if top:
                face &= (0 < coords) & (coords < 3 * span)
            keep = face.any(axis=0)
            position = np.empty(union.size, dtype=np.int64)
            position[np.concatenate([np.flatnonzero(~keep), np.flatnonzero(keep)])] = \
                np.arange(union.size)
            ranks = tuple(position[np.searchsorted(union, box)] for box in group)
            for r in ranks:
                r.flags.writeable = False  # shared by every caller through the cache
            merges.append((union.size, union.size - int(np.count_nonzero(keep)), ranks))
            parents.append((union[keep], lo, hi))
        stages.append(tuple(merges))
        boxes = parents
    return tuple(stages)


@lru_cache(maxsize=8)
def _tree_order(j: int, d: int) -> np.ndarray:
    """Row-major indices of the cubes of a ``(3**j)**d`` lattice in triadic
    tree order: every ``3**d`` consecutive cubes are the children of one
    cube of the lattice a level up, in C order of their offsets, and those
    parents are in tree order themselves. So every 3 consecutive cubes lie
    along the last axis, and so on up to the first."""
    digits = np.arange(3 ** (j * d)).reshape((3,) * (j * d))  # axis a's digits first
    out = digits.transpose([a * j + t for t in range(j) for a in range(d)]).ravel()
    out.flags.writeable = False  # shared by every caller through the cache
    return out


#: Largest dense matrices, in entries, of one chunk of the condensation
#: pass: a chunk assembles and eliminates this many entries of merges at
#: once. One whose matrix alone is larger is a chunk of its own.
CHUNK_ENTRIES = 250_000


#: Rows the merge kernel takes at a time: a diagonal block of
#: :func:`_lower_solve`, and a band of a box's map summed onto the skeleton
#: by :func:`_condense`. A smaller block inverts less by ``np.linalg.inv``,
#: which runs at a few GFLOP/s; a larger one makes larger matmuls. On one
#: BLAS thread of a 2-core x86-64 host, merges of 300 to 3,000 nodes
#: eliminated fastest at 32 to 64.
_BLOCK = 64


def _lower_solve(low: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Overwrite ``rhs`` with ``L^-1 rhs`` for a stack of lower-triangular
    ``L``, by blocked forward substitution, and return it: a block of
    :data:`_BLOCK` rows takes the rows above it off its right-hand side with
    one matmul and is then multiplied by its diagonal block's inverse. A
    many-column triangular solve runs at a fraction of matmul's rate; this
    runs at matmul's."""
    for lo in range(0, low.shape[-1], _BLOCK):
        part = rhs[:, lo:lo + _BLOCK]
        if lo:
            part -= low[:, lo:lo + _BLOCK, :lo] @ rhs[:, :lo]
        part[...] = np.linalg.inv(low[:, lo:lo + _BLOCK, lo:lo + _BLOCK]) @ part
    return rhs


def _eliminate(mat: np.ndarray, k: int, forcing: np.ndarray | None = None):
    """Eliminate the first ``k`` nodes of a stack of symmetric matrices whose
    rows sum to zero: the Schur complement ``S = A_bb - A_bk A_kk^-1 A_kb``
    onto the other nodes, written over ``mat``'s trailing block and returned
    as a view of it. ``mat``'s other blocks are overwritten too.

    ``A_kk = L L^T`` is factored by Cholesky and ``W = L^-1 [A_kb | f_k]``
    formed in place by :func:`_lower_solve`, so ``S = A_bb - W_b^T W_b``:
    the work is matmul, and the update, a matrix times its own transpose,
    is exactly symmetric. ``S``'s rows sum to zero too (constants are in
    the stiffness's kernel). At high contrast its diagonal, subtracted
    directly, loses digits to cancellation, so it is taken from the other
    entries of its row: in 1D at contrast 1e6 this brings g's error from
    2.7e-8 to 7e-12. With ``k = 0`` nothing is eliminated and the diagonal
    is kept. With a ``forcing`` (the ``(n, d)`` forcing of every matrix's
    nodes) carried along, returns ``(S, f_b - W_b^T W_f, W_f^T W_f)``, the
    last ``f_k^T A_kk^-1 f_k``, exactly symmetric too. Raises
    ``numpy.linalg.LinAlgError`` if an ``A_kk`` of the stack is not
    positive definite.
    """
    head, tail = slice(None, k), slice(k, None)
    coupling = mat[:, head, tail]
    if forcing is not None:
        coupling = np.concatenate(
            [coupling, np.broadcast_to(forcing[head], (mat.shape[0],) + forcing[head].shape)],
            axis=-1)
    w = _lower_solve(np.linalg.cholesky(mat[:, head, head]), coupling)
    schur = mat[:, tail, tail]
    n = schur.shape[-1]
    w_b, w_f = w[..., :n], w[..., n:]
    schur -= np.swapaxes(w_b, -1, -2) @ w_b
    if k:
        diag = np.arange(n)
        schur[:, diag, diag] = 0.0
        schur[:, diag, diag] = -schur.sum(axis=-1)
    if forcing is None:
        return schur
    return (schur, forcing[tail] - np.swapaxes(w_b, -1, -2) @ w_f,
            np.swapaxes(w_f, -1, -2) @ w_f)


def _condense(maps: Sequence[np.ndarray], plan: tuple, out: np.ndarray | None = None,
              forcing: np.ndarray | None = None, carried: Sequence = ()) -> tuple:
    """The merge kernel: ``n`` merges that share one skeleton ``plan``, a
    ``(size, k, ranks)`` of :func:`_plan`.

    ``maps[c]`` is the ``(n, nb, nb)`` stack of box ``c``'s maps. They are
    summed onto the skeleton through a flat index into the stack, built
    per call for a band of :data:`_BLOCK` rows of a box at a time: an index
    as large as the maps, whole or cached, raises the peak memory. Box 0 is
    assigned, the others added. The skeleton's first ``k`` nodes are
    eliminated (:func:`_eliminate`), and the kept nodes' maps are written
    to ``out`` (a new array if it is None). A merge with a non-finite map
    is not condensed: its map and ``g`` are NaN.

    At level 0, a stack of one, ``carried`` holds each box's forcing on its
    nodes and the ``g`` of the nodes it has eliminated: they are summed,
    and the elimination carries the forcing along and adds its ``f^T A^-1
    f`` to ``g``. Given the kept nodes' ``forcing`` (below level 0), or
    when the merge keeps no node (level 0's last, which forms no map), the
    last node is pinned and ``S y = f`` solved: ``g`` gains ``y^T f``, and
    the residual is ``|S y - f| / |f|``.

    Returns ``(out, forcing, g, residual)``: the maps (``None`` if none is
    kept), the kept nodes' forcing, the ``(n, d, d)`` matrices ``g`` (not
    divided by the volume; ``0.0`` if none is wanted) and the largest
    residual (NaN if none). Raises ``numpy.linalg.LinAlgError`` if an
    elimination meets a block that is not positive definite, or the pinned
    solve (LU) a singular one.
    """
    size, k, ranks = plan
    n = maps[0].shape[0]
    pin = forcing is not None or k == size  # a forcing given, not carried
    skel = np.zeros((n, size, size))
    flat, base = skel.reshape(-1), np.arange(0, skel.size, size * size)[:, None, None]
    for c, (mat, r) in enumerate(zip(maps, ranks)):
        for lo in range(0, r.size, _BLOCK):
            at = (base + (r[lo:lo + _BLOCK, None] * size + r)).ravel()
            band = mat[:, lo:lo + _BLOCK].ravel()
            flat[at] = flat.take(at) + band if c else band
    g = 0.0
    if carried:
        forcing = np.zeros((size, carried[0][0].shape[-1]))
        for (part, part_g), r in zip(carried, ranks):
            forcing[r] += part
            g = g + part_g
    finite = np.isfinite(skel).all(axis=(1, 2))
    if not finite.any():  # nothing to condense: all NaN
        if out is not None:
            out[...] = np.nan
        elif k < size:
            out = np.full((n, size - k, size - k), np.nan)
        if forcing is not None:
            d = forcing.shape[-1]
            forcing, g = np.full((size - k, d), np.nan), np.full((n, d, d), np.nan)
        return out, forcing, g, math.nan
    if not finite.all():
        skel = skel[finite]
    if carried and 0 < k < size:
        skel, rest, own = _eliminate(skel, k, forcing)
        forcing, g = rest[0], g + own
    elif 0 < k < size:
        skel = _eliminate(skel, k)
    if out is None and k < size:  # a copy off the skeleton, made once it is reduced
        out = np.empty((n, size - k, size - k))
    if out is not None and finite.all():
        out[...] = skel
    elif out is not None:
        out[finite] = skel
        out[~finite] = np.nan
    if not pin:
        return out, forcing, g, math.nan
    s, f = skel[:, :-1, :-1], forcing[:-1]
    # LU, not Cholesky: on one big matrix np.linalg.cholesky runs at half
    # the rate of np.linalg.solve, so it takes as long for half the flops
    y = np.linalg.solve(s, np.broadcast_to(f, (s.shape[0],) + f.shape))
    res = (np.linalg.norm(s @ y - f, axis=1)
           / np.maximum(np.linalg.norm(f, axis=0), 1e-300))
    g_all = np.full((n, f.shape[1], f.shape[1]), np.nan)
    g_all[finite] = g + np.swapaxes(y, -1, -2) @ f
    return out, forcing, g_all, float(res.max())


def _run_stage(count: int, entries: int, work: Callable[[int, int], object],
               stats: SolveStats, out: np.ndarray | None = None) -> tuple[list, int]:
    """``work(lo, hi)`` over ``count`` merges in chunks of at most
    :data:`CHUNK_ENTRIES` dense entries (``entries`` for one merge, at least
    one merge a chunk), through :func:`_run_chunks`. A chunk whose dense
    solve fails gives ``None``, its rows of ``out`` are NaN, and an empty
    ``stats.failure`` takes the first such chunk's message. Adds the chunks
    to ``stats.chunks`` and keeps the most threads in ``stats.threads``.
    Returns the ``(lo, result or None)`` pairs and the merges per chunk."""
    per_chunk = max(1, CHUNK_ENTRIES // entries)
    errors = []  # (lo, message) of each failed chunk, in the order they fail

    def chunk(lo: int):
        hi = min(lo + per_chunk, count)
        try:
            return work(lo, hi)
        except np.linalg.LinAlgError as err:
            if out is not None:
                out[lo:hi] = np.nan
            errors.append((lo, f"dense condensation failed: {err}"))
            return None

    starts = range(0, count, per_chunk)
    done, threads = _run_chunks(starts, chunk)
    stats.chunks += len(starts)
    stats.threads = max(stats.threads, threads)
    stats.failure = stats.failure or min(errors, default=(0, ""))[1]
    return done, per_chunk


def _checked_levels(grid: GridSpec, levels: Sequence[int]) -> list[int]:
    """The solvable levels asked for, coarsest first, each once; a
    :class:`ValueError` names any level outside ``1-N..0`` (level ``-N``,
    the cells, needs no solve)."""
    wanted = sorted(set(levels), reverse=True)
    bad = [level for level in wanted if not 1 - grid.N <= level <= 0]
    if bad:
        raise ValueError(f"levels {bad} outside {1 - grid.N}..0 of an N={grid.N} grid")
    return wanted


def level_functionals(
    field: CoefficientField, levels: Sequence[int]
) -> dict[int, tuple[np.ndarray, SolveStats]]:
    """Each given level's ``(g_all, stats)``, in one bottom-up pass of
    nested static condensation (``{}`` for no level): the entry point of a
    sweep. ``g_all`` has shape ``(3**-level,)*d + (d, d)``, every cube's
    :func:`neumann_functionals` matrix in row-major cube order. A
    :class:`ValueError` names any level outside ``1-N..0``.

    The d gradient forcings live on a box's boundary (:func:`_forcings`), so
    ``g = b^T S^+ b / vol`` needs only the box's *boundary map* ``S``: the
    Schur complement of its Neumann stiffness onto its boundary nodes. A
    box's stiffness is the sum of its children's, so its boundary map is
    the condensation of theirs on the skeleton. The pass starts from the
    element matrices of the cells, in :func:`_tree_order`, and goes up to
    the coarsest level asked for. Every level runs the stages of one plan
    (:func:`_plan`) through one merge kernel (:func:`_condense`): below
    level 0 each stage condenses all its merges at once and forms their
    maps, and the last stage's pinned solves give ``g`` where the level is
    asked for; level 0, one cube whose map no level needs, condenses its
    merges one at a time, each box's forcing carried along, and its last
    merge is one pinned solve. Small separators are eliminated first, as in
    nested dissection. A level's numbers do not depend on the other levels
    asked for.

    Each stage's merges are cut into chunks of :data:`CHUNK_ENTRIES` dense
    entries that :func:`_run_chunks` runs, so level 0, one cube, uses every
    core too. Every merge is eliminated alone, so the numbers do not depend
    on the split or the threads.

    ``stats.unknowns`` is the largest skeleton of a merge of the level,
    ``stats.chunks`` the chunks of all its stages, and ``stats.residual``
    the largest ``|S y - b| / |b|`` of the pinned solves. A failed dense
    solve leaves the cubes of its chunk, and every cube that contains one,
    NaN; ``stats.failure`` names the pass's first failed solve at or below
    the level (``""`` if none).
    """
    grid = field.grid
    d = grid.d
    wanted = _checked_levels(grid, levels)
    if not wanted:
        return {}
    cells = field.data.reshape(-1, field.data.shape[-1])[_tree_order(grid.N, d)]
    kids = _element_matrices(cells, d, grid.h)
    shape = (1,) * d
    failure = ""
    out: dict[int, tuple[np.ndarray, SolveStats]] = {}
    for level in range(1 - grid.N, wanted[0] + 1):
        stats = SolveStats(0, math.nan, 0, time.perf_counter(), "condensation", 0, 0, failure)
        volume = 3.0 ** (level * d)
        top = level == 0
        cube = tuple(3 * s for s in shape)
        stages = _plan(shape, top)
        if top:  # its boxes' (map, forcing, g); the children are released once reduced
            child = _forcings(shape, grid.h)[_boundary_nodes(shape)]
            boxes, kids = [(kids[c:c + 1], child, 0.0) for c in range(3**d)], None
        for stage, merges in enumerate(stages):
            largest = max(size for size, _, _ in merges)
            stats.unknowns = max(stats.unknowns, largest)
            if top:
                maps, width = None, len(merges[0][2])  # boxes a merge: 1 for the children, else 3

                def work(lo: int, hi: int) -> list:
                    merged = []
                    for j in range(lo, hi):
                        parts = boxes[width * j:width * (j + 1)]
                        merged.append(_condense([m for m, _, _ in parts], merges[j],
                                                carried=[(f, g) for _, f, g in parts]))
                    return merged
            else:
                size, k, _ = merges[0]
                maps = np.empty((kids.shape[0] // 3, size - k, size - k))
                forcing = (_forcings(cube, grid.h)[_boundary_nodes(cube)]
                           if stage == len(stages) - 1 and level in wanted else None)

                def work(lo: int, hi: int) -> tuple:
                    _, _, g, res = _condense([kids[3 * lo + c:3 * hi:3] for c in range(3)],
                                             merges[0], maps[lo:hi], forcing)
                    return (None if forcing is None else g / volume), res

            done, per_chunk = _run_stage(len(merges) if top else maps.shape[0], largest**2,
                                         work, stats, maps)
            if not top:
                kids = maps
            elif any(res is None for _, res in done):
                done = []
                break
            else:
                boxes = [merged[:3] for _, res in done for merged in res]
        if top and done:  # the last merge's pinned solve
            _, _, g, res = done[0][1][0]
            done = [(0, (g / volume, res))]
        shape, failure = cube, stats.failure
        g_all = _level_outcome((3 ** (-level),) * d, done, per_chunk, stats,
                               _tree_order(-level, d))
        if level in wanted:
            out[level] = g_all, stats
    return out


def neumann_functionals(
    field: CoefficientField, cube: TriadicCube
) -> tuple[np.ndarray, SolveStats]:
    """Gram matrix of the d gradient-forcing variational problems of a cube
    of more than one cell.

    Returns ``(g, stats)`` where ``g[r, s] = L_s(u_r) / vol`` for the unit
    gradient forcings ``L_s(v) = avg(e_s . grad v)``: the quadratic form
    ``q . astar^{-1} q`` of the coarse-graining layer. ``g`` is symmetric
    up to roundoff. It is level 0 of a :func:`level_functionals` pass over
    the cube's own cells, as a grid of its own (``g`` does not depend on
    the scale). A failed solve leaves ``g`` NaN, named in ``stats.failure``.
    """
    grid = field.grid
    own = CoefficientField(GridSpec(grid.d, grid.N + cube.level),
                           field.data[cube.cell_slices(grid)])
    g_all, stats = level_functionals(own, [0])[0]
    return g_all.reshape(grid.d, grid.d), stats


# ---------------------------------------------------------------------------
# Dirichlet problems
# ---------------------------------------------------------------------------

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


def _factor(mat: sp.csc_matrix) -> spla.SuperLU:
    """SuperLU factorization with :data:`_SPLU_OPTIONS`: the Dirichlet
    solve factors through here."""
    import scipy.sparse.linalg as spla

    return spla.splu(mat, **_SPLU_OPTIONS)


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


def _cells_under(field: CoefficientField, u) -> np.ndarray:
    """The packed cells of ``field`` under a function: its cube's, or all."""
    return field.data[u.cube.cell_slices(field.grid)] if isinstance(u, CubeFunction) else field.data


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
    cell_block = _cells_under(field, u)

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
    uloc = _cell_corners(node_data)
    ncells = uloc.shape[0]
    ke = _element_matrices(cell_block.reshape(ncells, -1), d, h)
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
    _, r_hat = reference_matrices(data.ndim)
    grads = _cell_corners(data) @ r_hat.T / u.grid.h
    return grads.reshape(tuple(s - 1 for s in data.shape) + (data.ndim,))


def mean_gradient(u) -> np.ndarray:
    """Volume average of the gradient over the function's domain."""
    g = discrete_gradient(u)
    return g.reshape(-1, g.shape[-1]).mean(axis=0)


def mean_flux(field: CoefficientField, u) -> np.ndarray:
    """Volume average of a grad u over the function's domain."""
    g = discrete_gradient(u)
    block = _cells_under(field, u)
    full = sym_unpack(block.reshape(-1, block.shape[-1]), field.d)
    flux = np.einsum("cab,cb->ca", full, g.reshape(-1, field.d))
    return flux.mean(axis=0)
