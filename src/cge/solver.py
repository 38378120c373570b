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
and its last merge is one pinned solve. A cube's ``g`` is its entry of
its level's array; no other path solves a cube alone.

A merge sums its boxes' maps onto its skeleton through a flat index and
eliminates in place (:func:`_eliminate`): a left-looking Cholesky
(:func:`_cholesky`), a forward substitution (:func:`_lower_solve`) and a
Schur update, all matmuls and no copy of the skeleton. Below level 0 a
pinned solve is an LU solve of a copy of the cube's map, which its parent
needs. Level 0's last merge factors its pinned skeleton in place and takes
``g`` from the forward substitution alone.

The pass runs depth first, one subtree per level -1 cube: a subtree runs
its levels below 0 from its cells' element matrices, and its cube's first
level-0 merge, so only one subtree's maps a thread and level 0's reduced
boxes are alive at once (the postorder bound on a multifrontal working
store; Liu, ACM TOMS 12(3), 1986). The subtrees are the jobs of
:func:`_run_chunks`, on one thread per core this process may use, the
calling thread among them (NumPy's factorizations and matmul release the
GIL); a subtree cuts each of its stages into chunks of whole merges and
runs them itself. Level 0's later merges then run one at a time on the
calling thread, in postorder, so one merge's working store is alive at a
time, and each gives the bands of rows of its assembly, factorization and
update to :func:`_run_chunks`; with one core the caller runs them alone.
Every merge is eliminated alone, and a band's rows are fixed by module
constants, so the numbers do not depend on the split, the schedule or the
cores.

The Dirichlet system is SPD (an M-matrix with the boundary terms on its
diagonal); it lists its unknowns in nested-dissection order, is factored
once by :func:`_factor` (SuperLU) and takes one step of iterative
refinement with the same factor.

``scipy.sparse`` and ``scipy.sparse.linalg`` are not imported with this
module but by the Dirichlet solve (:func:`solve_dirichlet`,
:func:`_factor`): importing ``cge``, ``cge gen`` and every sweep (NumPy's
dense solves alone) load no SciPy sparse code. Likewise
``concurrent.futures`` and the chunk threads load and start with the first
pass that runs on more than one core.
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
)

if TYPE_CHECKING:
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

__all__ = [
    "SolveStats",
    "SolverError",
    "CubeFunction",
    "level_functionals",
    "solve_dirichlet",
    "boundary_face_values",
    "energy",
]

#: The Dirichlet factorization keeps the given (nested-dissection) order and
#: pivots on the diagonal: the system is SPD, so no pivoting is needed.
_SPLU_OPTIONS = {"permc_spec": "NATURAL", "diag_pivot_thresh": 0.0}

_POOL = None  # the chunk threads; see _chunk_pool


@dataclass
class SolveStats:
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
            "residual": float(self.residual),
            "unknowns": int(self.unknowns),
            "wall_time": float(self.wall_time),
            "method": self.method,
        }


class SolverError(RuntimeError):
    """A failed Dirichlet factorization (:func:`solve_dirichlet`); carries
    the partial stats.

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
    """The threads that take jobs alongside the calling thread: one per
    core this process may use, less the caller's. Started on first use and
    kept for the life of the process."""
    global _POOL
    if _POOL is None:
        from concurrent.futures import ThreadPoolExecutor

        _POOL = ThreadPoolExecutor(len(os.sched_getaffinity(0)) - 1,
                                   thread_name_prefix="cge-chunk")
    return _POOL


def _run_chunks(starts: range, work: Callable[[int], object]) -> tuple[list, int]:
    """``work(lo)`` for every job start (a subtree of the pass, or a band
    of one of level 0's later merges), on the calling thread and, with more
    than one job and more than one core, the threads of
    :func:`_chunk_pool`; each thread takes the next job when it is free.

    The caller takes jobs too, so they reuse the memory that an earlier job
    freed in the caller's heap; each helper thread allocates from a heap of
    its own, which stays with the process. Once the caller has taken the
    last job, a helper that has not started yet is cancelled, not waited
    for. Returns the ``(lo, work(lo))`` pairs in job order and the number
    of threads that took at least one job.
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
#: :func:`_cholesky` and its substitutions, and a band of a box's map
#: summed onto the skeleton by :func:`_condense`. A smaller block inverts
#: less by ``np.linalg.inv``, which runs at a few GFLOP/s; a larger one makes
#: larger matmuls. On one BLAS thread of a 2-core x86-64 host, merges of 300
#: to 3,000 nodes eliminated fastest at 32 to 64.
_BLOCK = 64

#: Rows of a band: the job :func:`_cholesky`'s panel update, the Schur
#: update of :func:`_eliminate` and the columns of :func:`_lower_solve` are
#: cut into, each run by the kernel's ``run``. A band's temporary is at most
#: this many rows of its matrix, and level 0's merges of 500 to 17,000
#: nodes make 2 to 70 bands, enough to keep a few threads busy. The edges
#: are fixed, not drawn from the cores, so every number is the same on any
#: core count.
_BAND = 256


def _serial(starts: range, work: Callable[[int], object]) -> tuple[list, int]:
    """:func:`_run_chunks` on the calling thread alone: how a subtree runs
    its stages on the thread that took it, and a merge below level 0 its
    bands."""
    return [(lo, work(lo)) for lo in starts], 1


def _cholesky(a: np.ndarray, run=_serial) -> list:
    """Overwrite the lower triangle of a stack of symmetric positive-definite
    ``a`` with its Cholesky factor ``L``, ``a = L L^T``, and return the
    inverses of ``L``'s diagonal blocks, which the substitutions
    (:func:`_lower_solve`, :func:`_back_solve`) take.

    Left-looking, by block columns of :data:`_BLOCK`: a block column first
    takes the columns left of it off its diagonal block, which
    ``np.linalg.cholesky`` factors, zeroing its strict upper triangle. The
    rows below it then take the columns to the left off themselves and are
    multiplied by the diagonal factor's inverse transpose, in bands of
    :data:`_BAND` rows, each a job of ``run``. The strict upper triangle
    outside the diagonal blocks is never read or written. Raises
    ``numpy.linalg.LinAlgError`` if a matrix of the stack is not positive
    definite.
    """
    k, invs = a.shape[-1], []
    for lo in range(0, k, _BLOCK):
        hi = min(lo + _BLOCK, k)
        diag, left_t = a[:, lo:hi, lo:hi], np.swapaxes(a[:, lo:hi, :lo], -1, -2)
        if lo:
            diag -= np.swapaxes(left_t, -1, -2) @ left_t
        diag[...] = np.linalg.cholesky(diag)
        invs.append(np.linalg.inv(diag))
        inv_t = np.swapaxes(invs[-1], -1, -2)

        def band(top: int) -> None:
            panel = a[:, top:top + _BAND, lo:hi]
            if lo:
                panel -= a[:, top:top + _BAND, :lo] @ left_t
            panel[...] = panel @ inv_t

        run(range(hi, k, _BAND), band)
    return invs


def _lower_solve(low: np.ndarray, invs: list, rhs: np.ndarray, run=_serial) -> np.ndarray:
    """Overwrite ``rhs`` with ``L^-1 rhs`` for a stack of lower-triangular
    ``L`` (``low``'s lower triangle, as :func:`_cholesky` leaves it, and
    ``invs``, the inverses of its diagonal blocks), by blocked forward
    substitution, and return it: a block of :data:`_BLOCK` rows takes the
    rows above it off its right-hand side with one matmul and is then
    multiplied by its diagonal block's inverse. A many-column triangular
    solve runs at a fraction of matmul's rate; this runs at matmul's. The
    columns are solved in bands of :data:`_BAND`, each a job of ``run``."""
    def band(left: int) -> None:
        cols = rhs[..., left:left + _BAND]
        for lo, inv in zip(range(0, low.shape[-1], _BLOCK), invs):
            part = cols[:, lo:lo + _BLOCK]
            if lo:
                part -= low[:, lo:lo + _BLOCK, :lo] @ cols[:, :lo]
            part[...] = inv @ part

    run(range(0, rhs.shape[-1], _BAND), band)
    return rhs


def _back_solve(low: np.ndarray, invs: list, rhs: np.ndarray) -> np.ndarray:
    """Overwrite ``rhs`` with ``L^-T rhs``, the backward substitution of
    :func:`_lower_solve` by the same blocks, and return it."""
    k = low.shape[-1]
    for lo, inv in reversed(list(zip(range(0, k, _BLOCK), invs))):
        hi = min(lo + _BLOCK, k)
        part = rhs[:, lo:hi]
        if hi < k:
            part -= np.swapaxes(low[:, hi:, lo:hi], -1, -2) @ rhs[:, hi:]
        part[...] = np.swapaxes(inv, -1, -2) @ part
    return rhs


def _upper_times(upper: np.ndarray, blocks: list, y: np.ndarray, run=_serial) -> np.ndarray:
    """``S y`` for a stack of symmetric ``S`` given by ``upper``'s strict
    upper triangle outside its diagonal blocks of :data:`_BLOCK`, and by
    ``blocks``, copies of those diagonal blocks: what :func:`_cholesky`
    leaves of ``S``. Each block of rows is a job of ``run``."""
    out = np.empty_like(y)

    def rows(lo: int) -> None:
        block = blocks[lo // _BLOCK]
        hi = lo + block.shape[-1]
        out[:, lo:hi] = (block @ y[:, lo:hi] + upper[:, lo:hi, hi:] @ y[:, hi:]
                         + np.swapaxes(upper[:, :lo, lo:hi], -1, -2) @ y[:, :lo])

    run(range(0, upper.shape[-1], _BLOCK), rows)
    return out


def _eliminate(mat: np.ndarray, k: int, forcing: np.ndarray | None = None, run=_serial):
    """Eliminate the first ``k`` nodes of a stack of symmetric matrices whose
    rows sum to zero: the Schur complement ``S = A_bb - A_bk A_kk^-1 A_kb``
    onto the other nodes, written over ``mat``'s trailing block and returned
    as a view of it. ``mat``'s other blocks are overwritten too.

    ``A_kk = L L^T`` is factored in place by :func:`_cholesky` and ``W_b =
    L^-1 A_kb`` formed in place by :func:`_lower_solve`, so ``S = A_bb -
    W_b^T W_b``: the work is matmul, and no copy of ``mat`` is made. The
    update runs in bands of :data:`_BAND` rows, each a job of ``run``: a
    band updates the rows' lower triangle, its diagonal block a matrix times
    its own transpose, and mirrors the rest above the diagonal, so ``S`` is
    exactly symmetric. ``S``'s rows sum to zero too (constants are in the
    stiffness's kernel). At high contrast its diagonal, subtracted directly,
    loses digits to cancellation, so it is taken from the other entries of
    its row: in 1D at contrast 1e6 this brings g's error from 2.7e-8 to
    7e-12. With ``k = 0`` nothing is eliminated and the diagonal is kept.
    With a ``forcing`` (the ``(n, d)`` forcing of every matrix's nodes)
    carried along, ``W_f = L^-1 f_k`` is solved alone and the call returns
    ``(S, f_b - W_b^T W_f, W_f^T W_f)``, the last ``f_k^T A_kk^-1 f_k``,
    exactly symmetric too. Raises ``numpy.linalg.LinAlgError`` if an
    ``A_kk`` of the stack is not positive definite.
    """
    head, tail = slice(None, k), slice(k, None)
    low = mat[:, head, head]
    invs = _cholesky(low, run)
    w_b = _lower_solve(low, invs, mat[:, head, tail], run)
    w_bt = np.swapaxes(w_b, -1, -2)
    schur = mat[:, tail, tail]
    n = schur.shape[-1]

    def band(lo: int) -> None:
        hi = min(lo + _BAND, n)
        rows = w_bt[:, lo:hi]
        if lo:
            schur[:, lo:hi, :lo] -= rows @ w_b[:, :, :lo]
            schur[:, :lo, lo:hi] = np.swapaxes(schur[:, lo:hi, :lo], -1, -2)
        schur[:, lo:hi, lo:hi] -= rows @ w_b[:, :, lo:hi]

    def diagonal(lo: int) -> None:  # a band of rows, once every band is mirrored
        rows, at = schur[:, lo:lo + _BAND], np.arange(lo, min(lo + _BAND, n))
        rows[:, at - lo, at] = 0.0
        rows[:, at - lo, at] = -rows.sum(axis=-1)

    run(range((n - 1) // _BAND * _BAND, -1, -_BAND), band)  # the largest band first
    if k:
        run(range(0, n, _BAND), diagonal)
    if forcing is None:
        return schur
    f_k = forcing[head]
    w_f = _lower_solve(low, invs, np.broadcast_to(f_k, (mat.shape[0],) + f_k.shape).copy())
    return schur, forcing[tail] - w_bt @ w_f, np.swapaxes(w_f, -1, -2) @ w_f


def _condense(maps: list, plan: tuple, out: np.ndarray | None = None,
              forcing: np.ndarray | None = None, carried: Sequence = (), run=_serial) -> tuple:
    """The merge kernel: ``n`` merges that share one skeleton ``plan``, a
    ``(size, k, ranks)`` of :func:`_plan`.

    ``maps[c]`` is the ``(n, nb, nb)`` stack of box ``c``'s maps. They are
    summed onto the skeleton through a flat index into the stack, built
    per call for a band of :data:`_BLOCK` rows of a box at a time: an index
    as large as the maps, whole or cached, raises the peak memory. Box 0 is
    assigned, the others added, and each box is dropped from ``maps`` once
    it is summed, so a box the caller holds nowhere else is freed then. The
    skeleton's first ``k`` nodes are eliminated (:func:`_eliminate`), and
    the kept nodes' maps are written to ``out`` (a new array if it is None).
    A merge with a non-finite map is not condensed: its map and ``g`` are
    NaN. ``run`` takes the bands of the assembly, the elimination and the
    copy to ``out``: :func:`_serial`, or at level 0 :func:`_run_chunks`.

    At level 0, a stack of one, ``carried`` holds each box's forcing on its
    nodes and the ``g`` of the nodes it has eliminated: they are summed,
    and the elimination carries the forcing along and adds its ``f^T A^-1
    f`` to ``g``. Given the kept nodes' ``forcing`` (below level 0), or
    when the merge keeps no node (level 0's last, which forms no map), the
    last node is pinned and ``S y = f`` solved: ``g`` gains ``y^T f``, and
    the residual is ``|S y - f| / |f|``. Below level 0 that is an LU solve
    of a copy of ``S``, which the cube's map still needs. Level 0's last
    merge factors ``S = L L^T`` in place (:func:`_cholesky`): ``g`` gains
    ``W^T W`` for ``W = L^-1 f``, and ``y = L^-T W`` is checked against the
    ``S`` that the strict upper triangle and copies of the diagonal blocks
    keep.

    Returns ``(out, forcing, g, residual)``: the maps (``None`` if none is
    kept), the kept nodes' forcing, the ``(n, d, d)`` matrices ``g`` (not
    divided by the volume; ``0.0`` if none is wanted) and the largest
    residual (NaN if none). Raises ``numpy.linalg.LinAlgError`` if an
    elimination or the last merge meets a block that is not positive
    definite, or an LU pinned solve a singular one.
    """
    size, k, ranks = plan
    n = maps[0].shape[0]
    pin = forcing is not None or k == size  # a forcing given, not carried
    skel = np.zeros((n, size, size))
    flat, base = skel.reshape(-1), np.arange(0, skel.size, size * size)[:, None, None]
    for c, r in enumerate(ranks):
        mat, maps[c] = maps[c], None

        def rows(lo: int, mat=mat, r=r, c=c) -> None:  # a band of the box's rows
            at = (base + (r[lo:lo + _BLOCK, None] * size + r)).ravel()
            band = mat[:, lo:lo + _BLOCK].ravel()
            flat[at] = flat.take(at) + band if c else band

        run(range(0, r.size, _BLOCK), rows)
        del mat, rows
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
    schur = skel
    if carried and 0 < k < size:
        schur, rest, own = _eliminate(skel, k, forcing, run)
        forcing, g = rest[0], g + own
    elif 0 < k < size:
        schur = _eliminate(skel, k, None, run)
    if out is None and k < size:  # a copy off the skeleton, made once it is reduced
        out = np.empty((n, size - k, size - k))
    if out is not None and finite.all():
        run(range(0, size - k, _BAND),
            lambda lo: np.copyto(out[:, lo:lo + _BAND], schur[:, lo:lo + _BAND]))
    elif out is not None:
        out[finite] = schur
        out[~finite] = np.nan
    if not pin:
        return out, forcing, g, math.nan
    s, f = schur[:, :-1, :-1], forcing[:-1]
    rhs = np.broadcast_to(f, (s.shape[0],) + f.shape)
    if k < size:
        # LU below level 0, on a copy the cube's map needs anyway: NumPy has
        # no triangular solve, and the Cholesky factor and two substitutions
        # invert each diagonal block, which costs more than the stacked LU
        # (27 maps of 55 nodes, one BLAS thread: 2.95 ms against 0.84 ms)
        y = np.linalg.solve(s, rhs)
        product, gain = s @ y, np.swapaxes(y, -1, -2) @ f
    else:
        blocks = [s[:, lo:lo + _BLOCK, lo:lo + _BLOCK].copy()
                  for lo in range(0, s.shape[-1], _BLOCK)]
        invs = _cholesky(s, run)
        w = _lower_solve(s, invs, rhs.copy())
        gain = np.swapaxes(w, -1, -2) @ w
        product = _upper_times(s, blocks, _back_solve(s, invs, w.copy()), run)
    res = (np.linalg.norm(product - f, axis=1)
           / np.maximum(np.linalg.norm(f, axis=0), 1e-300))
    g_all = np.full((n, f.shape[1], f.shape[1]), np.nan)
    g_all[finite] = g + gain
    return out, forcing, g_all, float(res.max())


def _run_stage(count: int, entries: int, work: Callable[[int, int], object],
               stats: SolveStats, out: np.ndarray | None = None, run=_run_chunks) -> list:
    """``work(lo, hi)`` over ``count`` merges in chunks of at most
    :data:`CHUNK_ENTRIES` dense entries (``entries`` for one merge, at least
    one merge a chunk), through ``run``: :func:`_run_chunks`, or
    :func:`_serial` inside a subtree. A chunk whose dense solve fails gives
    ``None``, its rows of ``out`` are NaN, and an empty ``stats.failure``
    takes the first such chunk's message. Adds the chunks to
    ``stats.chunks`` and keeps the most threads in ``stats.threads``.
    Returns the ``(lo, result or None)`` pairs in chunk order."""
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
    done, threads = run(starts, chunk)
    stats.chunks += len(starts)
    stats.threads = max(stats.threads, threads)
    stats.failure = stats.failure or min(errors, default=(0, ""))[1]
    return done


def _subtree_level(kids: np.ndarray, shape: tuple[int, ...], h: float,
                   volume: float | None) -> tuple[np.ndarray, np.ndarray | None, SolveStats]:
    """One level below 0 of a subtree, on the calling thread: the maps of
    its cubes, condensed stage by stage (:func:`_plan`) from ``kids``, the
    maps of their children of ``shape`` cells in tree order. Given the
    cubes' ``volume`` (the level is asked for), the last stage's pinned
    solves give each cube's ``g`` divided by it, NaN where a chunk failed.
    Returns ``(maps, g or None, stats)``; ``stats.wall_time`` is the
    seconds the level took."""
    d = len(shape)
    cube = tuple(3 * s for s in shape)
    stats = SolveStats(math.nan, 0, time.perf_counter(), "condensation", 0, 0)
    stages = _plan(shape, False)
    g_all = None if volume is None else np.full((kids.shape[0] // 3**d, d, d), np.nan)
    residuals = []
    for stage, merges in enumerate(stages):
        merge = merges[0]  # the merges of a stage are translates of the first
        size, k, _ = merge
        stats.unknowns = max(stats.unknowns, size)
        maps = np.empty((kids.shape[0] // 3, size - k, size - k))
        forcing = (_forcings(cube, h)[_boundary_nodes(cube)]
                   if g_all is not None and stage == len(stages) - 1 else None)

        def work(lo: int, hi: int) -> None:
            _, _, g, res = _condense([kids[3 * lo + c:3 * hi:3] for c in range(3)], merge,
                                     maps[lo:hi], forcing)
            if forcing is not None:
                g_all[lo:hi] = g / volume
                residuals.append(res)

        _run_stage(maps.shape[0], size**2, work, stats, maps, _serial)
        kids = maps
    stats.residual = max((r for r in residuals if not math.isnan(r)), default=math.nan)
    stats.wall_time = time.perf_counter() - stats.wall_time
    return kids, g_all, stats


def _level_zero(boxes: list, stages: tuple, d: int) -> tuple[np.ndarray, SolveStats]:
    """Level 0 after each child's first merge: the strips, the slabs and the
    last merge (``stages``, those of :func:`_plan` after the first) on the
    children's reduced ``boxes``, each a ``(map, forcing, g)``, or ``None``
    for a child whose merge failed.

    The merges run one at a time on the calling thread, in postorder: a box
    is merged into its parent before the next box is made, so besides one
    merge's working store only the boxes it waits for are alive (Liu's
    bound, ACM TOMS 12(3), 1986, on level 0's own merges). Each merge is a
    chunk of :func:`_run_stage` and gives the bands of its elimination, or
    of the last merge's factorization, to :func:`_run_chunks`, so it runs
    on every core. A merge drops its boxes from ``boxes`` (the caller's list
    too) as it takes them, and each box once it is summed onto the
    skeleton. Returns the cube's ``(1, d, d)`` ``g``, NaN if a merge failed,
    and the stats of these stages; ``stats.threads`` counts the threads
    that took a band."""
    stats = SolveStats(math.nan, max(size for merges in stages for size, _, _ in merges),
                       time.perf_counter(), "condensation", 0, 0)
    g = np.full((1, d, d), np.nan)

    def bands(starts: range, work: Callable[[int], object]) -> tuple[list, int]:
        done, threads = _run_chunks(starts, work)
        stats.threads = max(stats.threads, threads)
        return done, threads

    def make(stage: int, j: int) -> tuple | None:
        """Merge ``j`` of ``stages[stage]``, its boxes made first: its
        ``(map, forcing, g, residual)``, or None if a merge failed."""
        parts = []
        for box in range(3 * j, 3 * j + 3):
            if stage:
                parts.append(make(stage - 1, box))
                if parts[-1] is None:
                    return None
            else:
                parts.append(boxes[box])
                boxes[box] = None
        maps, carried = [m for m, *_ in parts], [(f, pg) for _, f, pg, *_ in parts]
        del parts  # maps holds the boxes alone, and drops each once summed
        merge = stages[stage][j]
        [(_, made)] = _run_stage(
            1, merge[0] ** 2,
            lambda lo, hi: _condense(maps, merge, carried=carried, run=bands), stats, run=_serial)
        return made

    if all(box is not None for box in boxes):
        made = make(len(stages) - 1, 0)
        if made is not None:
            _, _, g, stats.residual = made
    stats.wall_time = time.perf_counter() - stats.wall_time
    return g, stats


def _level_outcome(level: int, parts: list, threads: int,
                   failure: str) -> tuple[np.ndarray, SolveStats]:
    """A level's ``(g_all, stats)`` from its ``parts``, each a ``(g,
    stats)`` in tree order: every subtree's, and at level 0 the last
    stages' after them (:func:`_level_zero`). ``g_all`` lists the cubes in
    row-major order (:func:`_tree_order`). The stats sum the parts' chunks
    and seconds, keep the largest skeleton and finite residual, and take the
    most ``threads`` and the pass's first ``failure`` at or below the
    level."""
    g = np.concatenate([g for g, _ in parts])
    d = g.shape[-1]
    g_all = np.empty_like(g)
    g_all[_tree_order(-level, d)] = g
    stats = [st for _, st in parts]
    residual = max((st.residual for st in stats if not math.isnan(st.residual)),
                   default=math.nan)
    return g_all.reshape((3 ** -level,) * d + (d, d)), SolveStats(
        residual, max(st.unknowns for st in stats), sum(st.wall_time for st in stats),
        "condensation", sum(st.chunks for st in stats),
        max([threads] + [st.threads for st in stats]), failure)


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
    sweep. ``g_all`` has shape ``(3**-level,)*d + (d, d)``: in row-major cube
    order, each cube's Gram matrix ``g[r, s] = L_s(u_r) / vol`` of the unit
    gradient forcings ``L_s(v) = avg(e_s . grad v)``, the quadratic form
    ``q . astar^{-1} q`` of the coarse-graining layer, symmetric up to
    roundoff. A :class:`ValueError` names any level outside ``1-N..0``.

    The d gradient forcings live on a box's boundary (:func:`_forcings`), so
    ``g = b^T S^+ b / vol`` needs only the box's *boundary map* ``S``: the
    Schur complement of its Neumann stiffness onto its boundary nodes. A
    box's stiffness is the sum of its children's, so its boundary map is
    the condensation of theirs on the skeleton. Every level runs the stages
    of one plan (:func:`_plan`) through one merge kernel
    (:func:`_condense`), small separators first, as in nested dissection.

    The pass runs depth first. Each level -1 cube's subtree is one job: from
    the element matrices of its cells, in :func:`_tree_order`, it runs each
    level below 0 up to the coarsest asked for, all of the level's cubes of
    the subtree at once, stage by stage (:func:`_subtree_level`); the last
    stage's pinned solves give ``g`` where the level is asked for. When
    level 0 is asked for, the job then runs its cube's first level-0
    merge, which eliminates the nodes no other child has, and keeps only
    the reduced box, its forcing carried along. Level 0, one cube whose map
    no level needs, then merges the boxes into strips, slabs and a last
    merge, which factors its pinned skeleton in place (:func:`_level_zero`).
    Every merge works in place on its skeleton and drops each box once it
    is summed; only one subtree's maps per thread, level 0's boxes and one
    level-0 merge's working store are alive at once, and a level's numbers
    do not depend on the other levels asked for. An ``N=1`` grid's subtrees
    are its cells.

    The 3**d subtrees are the jobs of :func:`_run_chunks`, on one thread per
    core, the caller among them; a job cuts each of its stages into chunks
    of :data:`CHUNK_ENTRIES` dense entries and runs them itself. The caller
    then runs level 0's later merges one at a time, each a chunk, and each
    on every core: the bands of :data:`_BAND` rows of its elimination are
    the jobs of :func:`_run_chunks`. Every merge is eliminated alone and a
    band's rows do not depend on the cores, so the numbers do not depend on
    the split or the threads.

    ``stats.unknowns`` is the largest skeleton of a merge of the level,
    ``stats.chunks`` the chunks of all its stages in every subtree,
    ``stats.threads`` the most threads that took its jobs, chunks or bands,
    ``stats.wall_time`` the seconds its stages took, summed over the
    subtrees, and ``stats.residual`` the largest ``|S y - b| / |b|`` of the
    pinned solves. A failed dense solve leaves the cubes of its chunk, and
    every cube that contains one, NaN; ``stats.failure`` names the pass's
    first failed solve at or below the level (``""`` if none): the lowest
    level's, and there the first subtree's, whichever thread ran it.
    """
    grid = field.grid
    d = grid.d
    wanted = _checked_levels(grid, levels)
    if not wanted:
        return {}
    below = range(1 - grid.N, min(wanted[0], -1) + 1)  # a subtree's levels: none if N = 1
    order = _tree_order(grid.N, d)
    per = order.size // 3**d  # cells a subtree
    cells = field.data.reshape(-1, field.data.shape[-1])
    stages = _plan((3 ** (grid.N - 1),) * d, True) if 0 in wanted else None

    boxes = [None] * 3**d  # level 0's children, each as its subtree reduced it

    def subtree(s: int) -> list:
        """Subtree ``s``'s ``(g, stats)`` of each level; its reduced box
        goes to ``boxes[s]`` if level 0 is asked for."""
        kids = _element_matrices(cells[order[s * per:(s + 1) * per]], d, grid.h)
        shape, parts = (1,) * d, []
        for level in below:
            kids, g, stats = _subtree_level(kids, shape, grid.h,
                                            3.0 ** (level * d) if level in wanted else None)
            parts.append((g, stats))
            shape = tuple(3 * n for n in shape)
        if 0 not in wanted:
            return parts
        merge = stages[0][s]
        child = _forcings(shape, grid.h)[_boundary_nodes(shape)]
        stats = SolveStats(math.nan, merge[0], time.perf_counter(), "condensation", 0, 0)
        maps, kids = [kids], None  # the cube's map, dropped once summed
        [(_, boxes[s])] = _run_stage(
            1, merge[0] ** 2, lambda lo, hi: _condense(maps, merge, carried=[(child, 0.0)])[:3],
            stats, run=_serial)
        stats.wall_time = time.perf_counter() - stats.wall_time
        parts.append((np.empty((0, d, d)), stats))  # level 0's g comes from its last merge
        return parts

    done, threads = _run_chunks(range(3**d), subtree)
    per_level = [list(parts) for parts in zip(*(parts for _, parts in done))]
    if 0 in wanted:
        per_level[-1].append(_level_zero(boxes, stages[1:], d))
    out: dict[int, tuple[np.ndarray, SolveStats]] = {}
    failure = ""
    for level, parts in zip([*below, 0], per_level):
        failure = failure or next((st.failure for _, st in parts if st.failure), "")
        if level in wanted:
            out[level] = _level_outcome(level, parts, threads, failure)
    return out


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
                          SolveStats(math.nan, n, time.perf_counter() - t0, "fv-splu")) from err
    x = lu.solve(b)
    x += lu.solve(b - amat @ x)
    res = np.linalg.norm(amat @ x - b) / max(np.linalg.norm(b), 1e-300)
    stats = SolveStats(float(res), n, time.perf_counter() - t0, "fv-splu")
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
# Energy
# ---------------------------------------------------------------------------

def energy(
    field: CoefficientField,
    u,
    region: tuple[slice, ...] | None = None,
) -> float:
    """Volume-normalized Dirichlet energy ``avg(grad u . a grad u)`` of a
    cell-mode function, in the conservative face form with harmonic
    averaging, normalized per axis by face count (requires a diagonal
    coefficient). ``region`` restricts to a box of cells (slices into the
    function's own cell array). A node-mode function raises
    :class:`ValueError`.
    """
    if not isinstance(u, (CubeFunction, ScalarGridFunction)):
        raise TypeError(f"expected CubeFunction or ScalarGridFunction, got {type(u)}")
    if u.mode != "cell":
        raise ValueError(f"energy requires a cell-mode function, got mode {u.mode!r}")
    cells = field.data[u.cube.cell_slices(field.grid)] if isinstance(u, CubeFunction) else field.data
    data = u.data
    if region is not None:
        cells, data = cells[region], data[region]
    h = field.grid.h
    diag_cells = _diagonal_cells(cells, field.d)
    total = 0.0
    for a in range(field.d):
        ca = diag_cells[..., a]
        left = _shift_view(ca, a, 0, -1)
        right = _shift_view(ca, a, 1, None)
        if left.size == 0:
            continue
        a_face = 2.0 * left * right / (left + right)
        du = (_shift_view(data, a, 1, None) - _shift_view(data, a, 0, -1)) / h
        total += float((a_face * du * du).mean())
    return total
