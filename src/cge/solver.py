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

Both classes have one engine, :func:`_condensation`: one bottom-up pass
of nested static condensation over the triadic tree, in every dimension,
and NumPy is the only dependency. It returns each level's ``g`` and stats,
from the cells up, the stats summed over the level's subtrees by one
reduction (:func:`_summed`). The pure-Neumann solves run it as
:func:`level_functionals`, which returns every level's ``g``, and the
Dirichlet solve as :func:`solve_dirichlet`, which takes the same reduction
over every level.
The forcings live on a cube's boundary, so ``g`` needs only the Schur
complement of the cube's stiffness onto its boundary (its
boundary map), and a parent's map is the dense condensation of its
children's. Every level runs the stages of one plan (:func:`_plan`)
through one merge kernel (:func:`_condense`). A cube's cells merge at
once, in one merge onto its ``4**d`` node grid; above the cells each stage
merges 3 boxes along one axis, so small separators are eliminated first, as
in nested dissection (George, "Nested dissection of a regular finite
element mesh", SIAM J. Numer. Anal. 1973). A merge keeps the boundary of
the box it makes, and eliminates at least one node. Level 0 forms no map:
its boxes keep only the nodes that another box shares, and its last merge
is one pinned solve. A cube's ``g`` is its entry
of its level's array; no other path solves a cube alone.

A merge sums its boxes' maps onto its skeleton through a flat index and
eliminates in place (:func:`_eliminate`): a left-looking Cholesky
(:func:`_cholesky`), a forward substitution (:func:`_lower_solve`) and a
Schur update, all matmuls and no copy of the skeleton. A box whose map is
in the skeleton's own order lends it as the skeleton. One elimination
serves levels -1 and 0: level -1's last stage keeps only the nodes another
child of level 0 shares, eliminating the cube's interior and the nodes no
other child has at once, and carries each box's gradient forcing, so the
map it makes is level 0's box, handed over with its carried forcing and
``f^T A^-1 f``. Level -1's ``g`` is that ``f^T A^-1 f`` plus a pinned solve
of the box, by Cholesky on the skeleton once the box is copied off it
(Schur complements compose, so it is the cube's own). Level 0's last merge
runs in place on its middle box's map, factors its pinned skeleton and
takes ``g`` from the forward substitution alone. That Cholesky is the
kernel's one pin; below level -1 a last stage pins its cubes' maps, which
their parents need, by LU on a copy (:func:`_subtree_level`).

One path makes a failure data: the kernel raises ``LinAlgError`` on a map
to merge that is not finite, as on a block that is not positive definite,
and :func:`_run_stage` alone turns a failure into NaN and a message. So a
failed stage is NaN as a whole in its subtree, and so is every cube that
contains one of its cubes; the pass names its first failure, and each
level -1 cube its own subtree's.

The pass runs depth first, one subtree per level -1 cube: a subtree runs
its levels below 0 from its cells' element matrices, so only one subtree's
maps a thread and level 0's reduced boxes are alive at once (the postorder
bound on a multifrontal working store; Liu, ACM TOMS 12(3), 1986). The
subtrees are the jobs of :func:`_run_chunks`, on one thread per core this
process may use, the calling thread among them (NumPy's factorizations and
matmul release the GIL); a subtree runs each of its stages as one call of
the kernel. Level 0's merges then run one at a time on the calling
thread, in postorder, so one merge's working store is alive at a time, and each
gives the bands of rows of its assembly, factorization and update to
:func:`_run_chunks`; with one core the caller runs them alone. Every merge
is eliminated alone, and a band's rows are fixed by module constants, so
the numbers do not depend on how many merges a call holds, the schedule
or the cores.

Inside a subtree, each distinct merge is condensed once: the identical
subproblems of nested dissection are shared exactly. Every cell has a
content class (:func:`_classes`), the bytes of its row: the packed
coefficient for the pure-Neumann pass, and for the Dirichlet solve its
element's diagonal and couplings, right-hand side and row sums. A merge's
class is the row of its boxes' classes, classed by the same routine. A
stage condenses the first merge of each class and hands its map, carried
forcing, ``g`` and kept factor to every merge of the class. Equal bytes,
with no tolerance, make equal numbers, so every ``g`` and ``u`` is the one
the merge would give alone. Constant, laminated and self-similar fields
share most merges: the sharpness sweep's 2D ``N=5`` solves condense 817 of
9,841. A random
field's cells are all distinct. One sort of their mixed keys shows that,
and then every stage condenses each merge on strided views of the boxes, as
does every stage above a stage whose merges are all distinct. Level 0
condenses every merge.

The Dirichlet system is SPD (an M-matrix with the boundary terms on its
diagonal). Its cells become the nodes of the cube's node grid
(:func:`_fv_elements`), so the same plans, kernel and schedule factor it:
every merge carries the right-hand side and the row sums, which set the
diagonal of its Schur complement, keeps its rows of the factor, and level
0's last merge eliminates every node. A back-substitution down the kept
factors (:func:`_back_substitute`) gives the solution.

``concurrent.futures`` and the chunk threads load and start with the
first pass that runs on more than one core. The interpreter lock, held by
the pass's small NumPy calls and scatters, keeps two threads from doing
much more than one, so passes that do not depend on each other, the
solves of :func:`cge.harness.sharpness_sweep`, run in forked worker
processes instead, each pinned to a core of its own and so running the
one-core schedule: the numbers are identical, and a worker holds one
solve's memory. A forked child drops its parent's chunk threads, which
it does not have.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .grid import (
    CoefficientField,
    GridSpec,
    ScalarGridFunction,
    TriadicCube,
    sym_index_pairs,
)

__all__ = [
    "SolveStats",
    "SolverError",
    "CubeFunction",
    "level_functionals",
    "solve_dirichlet",
    "boundary_face_values",
    "energy",
]

_POOL = None  # the chunk threads; see _chunk_pool


@dataclass
class SolveStats:
    residual: float
    unknowns: int
    wall_time: float
    method: str
    merges: int = 0  # merges condensed: one per content class below level 0
    threads: int = 1
    failure: str = ""  # the pass's first failed dense solve, "" if none
    # below level 0: each level -1 cube's own first failure, "" if none, in C
    # order of the cubes (the subtree that made it ran every cube inside it)
    subtree_failures: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        """Plain-JSON form (NumPy scalars cast to ``int``/``float``), without
        the merge and thread counts, which describe how the pass ran,
        not its result (the threads depend on the host's cores, and a report
        must not), and the failures, which a sweep records per cube."""
        return {
            "residual": float(self.residual),
            "unknowns": int(self.unknowns),
            "wall_time": float(self.wall_time),
            "method": self.method,
        }


class SolverError(RuntimeError):
    """A failed Dirichlet solve (:func:`solve_dirichlet`): a stage of its
    pass failed or found no memory. Carries the partial stats.

    :func:`level_functionals` does not raise it: a failed stage leaves the
    ``g`` of every cube of the stage in its subtree NaN, and of every cube
    that contains one, and its first failure is ``stats.failure``.
    """

    def __init__(self, message: str, stats: SolveStats | None = None):
        super().__init__(message)
        self.stats = stats


@dataclass
class CubeFunction:
    """Scalar function on one cube's cells: one value per cell."""

    grid: GridSpec
    cube: TriadicCube
    data: np.ndarray

    def __post_init__(self) -> None:
        expected = (self.cube.cells_per_side(self.grid),) * self.grid.d
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


def _forget_pool() -> None:
    """In a forked child: drop the parent's chunk threads, which the child
    does not have, so a pass there starts threads of its own."""
    global _POOL
    _POOL = None


os.register_at_fork(after_in_child=_forget_pool)


def _run_chunks(starts: range, work: Callable[[int], object]) -> int:
    """``work(lo)`` for every job start (a subtree of the pass, or a band
    of one of level 0's merges), on the calling thread and, with more
    than one job and more than one core, the threads of
    :func:`_chunk_pool`; each thread takes the next job when it is free.

    The caller takes jobs too, so they reuse the memory that an earlier job
    freed in the caller's heap; each helper thread allocates from a heap of
    its own, which stays with the process. Once the caller has taken the
    last job, a helper that has not started yet is cancelled, not waited
    for. A job keeps its result itself; this returns the number of threads
    that took at least one job, which :func:`_condensation` reads.
    """
    threads = min(len(starts), len(os.sched_getaffinity(0)))
    # shared: next() on a range iterator is one step, atomic under the GIL
    jobs = iter(starts)

    def drain() -> bool:
        took = False
        for lo in jobs:
            work(lo)
            took = True
        return took

    helpers = [_chunk_pool().submit(drain) for _ in range(threads - 1)]
    return sum([drain()] + [helper.result() for helper in helpers if not helper.cancel()])


@lru_cache(maxsize=16)
def _boundary_nodes(shape: tuple[int, ...]) -> np.ndarray:
    """C-order indices of the boundary nodes of a box of ``shape`` cells:
    the rows and columns of its boundary map. For a box of one cell every
    node is on the boundary, in the order of the element matrices."""
    coords = np.indices(tuple(s + 1 for s in shape)).reshape(len(shape), -1)
    out = np.flatnonzero(((coords == 0) | (coords == np.array(shape)[:, None])).any(axis=0))
    out.flags.writeable = False  # shared by every caller through the cache
    return out


def _shared(coords: np.ndarray, lo: np.ndarray, hi: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Which nodes, at ``coords`` ``(d, n)`` of a cube's node grid, lie on a
    face of the box ``[lo, hi]`` inside the cube ``[0, bound]``: the nodes
    that the box shares with another box of the cube."""
    return (((coords == lo) & (lo > 0)) | ((coords == hi) & (hi < bound))).any(axis=0)


@lru_cache(maxsize=64)
def _plan(shape: tuple[int, ...], top: bool, child: int | None = None) -> tuple[tuple, ...]:
    """How a level condenses each of its cubes from the maps of the cube's
    ``3**d`` children of ``shape`` cells: its stages, each the tuple of one
    cube's merges.

    A merge sums the maps of its boxes onto its *skeleton*, the union of
    their nodes, and eliminates the nodes it does not keep. Cells merge at
    once: a cube of ``3**d`` cells is one merge, whose skeleton is the
    cube's ``4**d`` node grid. Larger children merge 3 boxes consecutive
    along one axis, the last axis first, as :func:`_tree_order` lists the
    boxes, so the plan has ``d`` stages and small separators are eliminated
    first, as in nested dissection.

    A merge keeps the boundary of the box it makes, except where level 0's
    keep rule holds: only the nodes that another box of level 0's cube
    shares (:func:`_shared`). That rule holds in every stage of level 0
    (``top``), whose map no level needs, so its last merge keeps no node.
    Given ``child``, a level -1 cube's index among level 0's children, it
    holds in the cube's last stage, which so eliminates the interior and
    the nodes no other child has at once: level 0's children list their
    shared nodes alone, but for an ``N=1`` grid's cells, which list all
    ``2**d``. Every merge eliminates a node.

    A merge is ``(size, k, ranks)``: the skeleton's size, the ``k`` nodes
    it eliminates, and for each of its boxes the skeleton index of every
    node of the box's map. The skeleton lists the eliminated nodes first,
    then the kept ones, and a map its nodes, each in C order of the cube's
    node grid. Below level 0 the merges of a stage are translates of one
    another: the pass condenses them all by the first.
    """
    d = len(shape)
    span = np.array(shape)[:, None]
    nodes = tuple(3 * s + 1 for s in shape)  # the cube's node grid
    at = np.array(np.unravel_index(child or 0, (3,) * d))[:, None] * 3 * span  # in level 0's grid
    bound = (3 if top else 9) * span  # level 0's cube
    local = np.indices(tuple(s + 1 for s in shape)).reshape(d, -1)[:, _boundary_nodes(shape)]
    boxes = []  # (nodes of the box's map, lowest corner, highest corner)
    for offset in np.ndindex((3,) * d):
        lo = np.array(offset)[:, None] * span
        coords = local + lo
        if top and max(shape) > 1:  # a level -1 cube: its shared nodes alone
            coords = coords[:, _shared(coords, lo, lo + span, bound)]
        boxes.append((np.ravel_multi_index(tuple(coords), nodes), lo, lo + span))
    width = 3 if max(shape) > 1 else len(boxes)  # the boxes a merge takes
    stages = []
    while len(boxes) > 1:
        shared = top or (child is not None and len(boxes) == width)
        merges, parents = [], []
        for j in range(0, len(boxes), width):
            group = [box for box, _, _ in boxes[j:j + width]]
            lo, hi = boxes[j][1], boxes[j + width - 1][2]
            union = np.unique(np.concatenate(group))  # sorted: C order
            coords = np.array(np.unravel_index(union, nodes))
            kept = (_shared(coords + at, lo + at, hi + at, bound) if shared
                    else ((coords == lo) | (coords == hi)).any(axis=0))
            position = np.empty(union.size, dtype=np.int64)
            position[np.concatenate([np.flatnonzero(~kept), np.flatnonzero(kept)])] = \
                np.arange(union.size)
            ranks = tuple(position[np.searchsorted(union, box)] for box in group)
            for r in ranks:
                r.flags.writeable = False  # shared by every caller through the cache
            merges.append((union.size, union.size - int(np.count_nonzero(kept)), ranks))
            parents.append((union[kept], lo, hi))
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


#: Odd multiplier that mixes a row's words into one key in :func:`_classes`
#: (the golden ratio's 64-bit fraction, as in Fibonacci hashing).
_MIX = np.uint64(0x9E3779B97F4A7C15)


def _classes(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The content classes of ``rows``, an ``(n, w)`` array of 8-byte
    numbers: each cell's element data, or each merge's row of its boxes'
    classes (int64, in :func:`_subtree_level`). Rows whose bytes are equal
    share a class; no tolerance is used. Returns ``(first, inverse)``, the
    first row of each class (classes in an order of their own) and each
    row's class, or None when every row is distinct.

    Each row's words are mixed into one 64-bit key. Distinct keys are
    distinct rows, so one sort of the keys clears an all-distinct input (a
    random field's cells) at a small share of a pass. Otherwise the classes
    are the keys', checked word by word against the rows, and taken from
    the rows' bytes if two contents met in one key.
    """
    words = np.ascontiguousarray(rows).view(np.uint64)
    key = words[:, 0].copy()
    for column in words.T[1:]:
        key *= _MIX
        key ^= column
    ordered = np.sort(key)
    if (ordered[1:] != ordered[:-1]).all():
        return None
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    if not np.array_equal(words[first[inverse]], words):
        flat = words.view(np.dtype((np.void, words.itemsize * words.shape[1]))).ravel()
        _, first, inverse = np.unique(flat, return_index=True, return_inverse=True)
    return first, inverse


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


def _serial(starts: range, work: Callable[[int], object]) -> None:
    """``work(lo)`` for every start, in order, on the calling thread: the
    merge kernel's ``run`` for a subtree's merges, below level 0, which run
    their bands on the thread that took the subtree. Every ``run`` runs
    ``work`` on every start; only :func:`_run_chunks` returns something,
    its thread count."""
    for lo in starts:
        work(lo)


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


def _panels(low: np.ndarray) -> list:
    """Views of the rows of ``L`` (``low``'s lower triangle, as
    :func:`_cholesky` leaves it) below each of its diagonal blocks: with
    the blocks' inverses, all that :func:`_back_solve` reads of ``L``."""
    k = low.shape[-1]
    return [low[:, lo + _BLOCK:, lo:lo + _BLOCK] for lo in range(0, k, _BLOCK)]


def _back_solve(panels: list, invs: list, rhs: np.ndarray) -> np.ndarray:
    """Overwrite ``rhs`` with ``L^-T rhs``, the backward substitution of
    :func:`_lower_solve` by the same blocks, and return it: ``L`` is given
    by its :func:`_panels` and the inverses of its diagonal blocks."""
    for lo, panel, inv in reversed(list(zip(range(0, rhs.shape[1], _BLOCK), panels, invs))):
        hi = lo + inv.shape[-1]
        part = rhs[:, lo:hi]
        if panel.shape[1]:
            part -= np.swapaxes(panel, -1, -2) @ rhs[:, hi:]
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


def _eliminate(mat: np.ndarray, k: int, forcing: np.ndarray | None = None, run=_serial,
               kept: list | None = None):
    """Eliminate the first ``k`` nodes of a stack of symmetric matrices whose
    rows sum to zero: the Schur complement ``S = A_bb - A_bk A_kk^-1 A_kb``
    onto the other nodes, written over ``mat``'s trailing block and returned
    as a view of it. ``mat``'s other blocks are overwritten too.

    ``A_kk = L L^T`` is factored in place by :func:`_cholesky` and ``W_b = L^-1
    A_kb`` formed in place by :func:`_lower_solve`, so ``S = A_bb - W_b^T W_b``:
    the work is matmul, and no copy of ``mat`` is made. The update runs in bands
    of :data:`_BAND` rows, each a job of ``run``: a band updates the rows' lower
    triangle, its diagonal block a matrix times its own transpose, and mirrors
    the rest above the diagonal, so ``S`` is exactly symmetric. ``S``'s rows sum
    to zero too (constants are in the stiffness's kernel). At high contrast its
    diagonal, subtracted directly, loses digits to cancellation, so it is taken
    from the other entries of its row: in 1D at contrast 1e6 this brings g's
    error from 2.7e-8 to 7e-12. With a ``forcing`` (the ``(nodes, c)``
    forcing of every matrix's nodes, or a stack of them) carried along,
    ``W_f = L^-1 f_k`` is solved alone and the call returns ``(S, f_b -
    W_b^T W_f, W_f^T W_f)``, the last ``f_k^T A_kk^-1 f_k``, exactly
    symmetric too. Raises
    ``numpy.linalg.LinAlgError`` if an ``A_kk`` of the stack is not positive
    definite.

    A list ``kept`` (the Dirichlet solve's) takes the factor: copies of ``W_b``
    and of ``L``'s :func:`_panels`, the inverses of ``L``'s diagonal blocks and
    ``W_f`` of the forcing's other columns. The rows then need not sum to zero:
    the forcing's last column is each row's sum, which ``S 1 = r_b - W_b^T L^-1
    r_k`` carries like any forcing, and ``S``'s diagonal is taken from it.
    """
    head, tail = slice(None, k), slice(k, None)
    low = mat[:, head, head]
    invs = _cholesky(low, run)
    w_b = _lower_solve(low, invs, mat[:, head, tail], run)
    w_bt = np.swapaxes(w_b, -1, -2)
    schur = mat[:, tail, tail]
    n = schur.shape[-1]
    if forcing is not None:
        f_k = forcing[..., head, :]
        w_f = _lower_solve(low, invs, np.broadcast_to(f_k, mat.shape[:1] + f_k.shape[-2:]).copy())
        rest = forcing[..., tail, :] - w_bt @ w_f

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
        total = rows.sum(axis=-1)
        rows[:, at - lo, at] = -total if kept is None else rest[:, at, -1] - total

    run(range((n - 1) // _BAND * _BAND, -1, -_BAND), band)  # the largest band first
    run(range(0, n, _BAND), diagonal)
    if forcing is None:
        return schur
    if kept is not None:
        kept.append((mat[:, head, tail].copy(), [p.copy() for p in _panels(low)], invs,
                     w_f[..., :-1]))
        return schur, rest, 0.0
    return schur, rest, np.swapaxes(w_f, -1, -2) @ w_f


def _residual(product: np.ndarray, f: np.ndarray) -> float:
    """The largest ``|S y - f| / |f|`` of a stack of pinned solves, column
    by column, from ``product``, ``S y``, and the right-hand sides ``f``."""
    return float((np.linalg.norm(product - f, axis=-2)
                  / np.maximum(np.linalg.norm(f, axis=-2), 1e-300)).max())


def _condense(maps: list, plan: tuple, out: np.ndarray | None = None, carried: Sequence = (),
              run=_serial, kept: list | None = None, pin: bool = False) -> tuple:
    """The merge kernel: ``n`` merges that share one skeleton ``plan``, a
    ``(size, k, ranks)`` of :func:`_plan`.

    ``maps[c]`` is the ``(n, nb, nb)`` stack of box ``c``'s maps. They are
    summed onto the skeleton through a flat index into the stack, built
    per call for a band of :data:`_BLOCK` rows of a box at a time: an index
    as large as the maps, whole or cached, raises the peak memory. A box
    whose ranks are ``0..size-1``, the skeleton's own order, lends its map
    as the skeleton, which the merge then overwrites: level 0's last merge
    runs in place on its middle box's map. Otherwise box 0 is assigned onto
    a zeroed skeleton; the other boxes are added, and each box is dropped
    from ``maps`` once it is summed, so a box the caller holds nowhere else
    is freed then. The skeleton's first ``k`` nodes are eliminated
    (:func:`_eliminate`), and the kept nodes' maps are written to ``out`` (a
    new array if it is None).
    ``run`` takes the bands of the assembly, the elimination and the copy
    to ``out``: :func:`_serial`, or at level 0 :func:`_run_chunks`.

    ``carried`` holds each box's ``(forcing, g)``: the ``(n, nodes, c)``
    gradient forcings of its nodes and the ``g`` of the nodes it has
    eliminated (level -1's last stage and level 0, a stack of one), or its
    right-hand side and row sums and ``0.0`` (the Dirichlet solve). They are
    summed, and the elimination carries the forcing along and adds its ``f^T
    A^-1 f`` to ``g``. Given ``pin`` (level -1's last stage), or when the
    merge keeps no node (level 0's last, which forms no map), the last node
    is pinned and ``S y = f`` solved in place on the skeleton, once the kept
    map has been copied off it: the pinned ``S = L L^T`` is factored
    (:func:`_cholesky`), the box's pinned ``g`` is ``g`` plus ``y^T f = W^T
    W`` for ``W = L^-1 f``, and ``y = L^-T W`` is checked against the ``S``
    that the strict upper triangle and copies of the diagonal blocks keep
    (:func:`_residual`). A level below -1 pins its cubes' maps itself
    (:func:`_subtree_level`).

    A list ``kept`` takes the merge's factor, as :func:`_eliminate` keeps
    it: the Dirichlet solve's. Its skeleton has no kernel, so its last
    merge eliminates every node, with no pin.

    Returns ``(out, forcing, g, pinned, residual)``: the maps (``None`` if none
    is kept), the kept nodes' forcing, the ``(n, d, d)`` matrices ``g`` (not
    divided by the volume; ``0.0`` if none is carried), the pinned ``g``
    (``None`` without a pin) and the largest residual (NaN without a pin).
    Raises ``numpy.linalg.LinAlgError`` if a map to merge is not finite, or
    if an elimination or the pinned solve meets a block that is not positive
    definite: :func:`_run_stage` makes every failure NaN.
    """
    size, k, ranks = plan
    n = maps[0].shape[0]
    pin = kept is None and (pin or k == size)  # level -1's, or nothing kept but a kernel to pin
    lent = next((c for c, r in enumerate(ranks)
                 if r.size == size and np.array_equal(r, np.arange(size))), None)
    skel = np.zeros((n, size, size)) if lent is None else np.ascontiguousarray(maps[lent])
    flat, base = skel.reshape(-1), np.arange(0, skel.size, size * size)[:, None, None]
    for c, r in enumerate(ranks):
        mat, maps[c] = maps[c], None
        if c == lent:
            continue

        def rows(lo: int, mat=mat, r=r, add=lent is not None or c > 0) -> None:
            at = (base + (r[lo:lo + _BLOCK, None] * size + r)).ravel()  # a band of the box's rows
            band = mat[:, lo:lo + _BLOCK].ravel()
            if add:
                np.add.at(flat, at, band)
            else:
                flat[at] = band

        run(range(0, r.size, _BLOCK), rows)
        del mat, rows
    g, forcing = 0.0, None
    if carried:  # summed through a flat index too: indexing the middle axis is slower
        cols = carried[0][0].shape[-1]
        forcing = np.zeros((n, size, cols))
        flat_f, base_f = forcing.reshape(-1), np.arange(0, forcing.size, size * cols)[:, None, None]
        for (part, part_g), r in zip(carried, ranks):
            at = (base_f + (r[:, None] * cols + np.arange(cols))).ravel()
            np.add.at(flat_f, at, part.ravel())
            g = g + part_g
    if not np.isfinite(skel).all():
        raise np.linalg.LinAlgError("a map to merge is not finite")
    schur = skel
    if carried and (k < size or kept is not None):
        schur, forcing, own = _eliminate(skel, k, forcing, run, kept)
        g = g + own
    elif k < size:
        schur = _eliminate(skel, k, None, run)
    if out is None and k < size:  # a copy off the skeleton, made once it is reduced
        out = np.empty((n, size - k, size - k))
    if out is not None:
        run(range(0, size - k, _BAND),
            lambda lo: np.copyto(out[:, lo:lo + _BAND], schur[:, lo:lo + _BAND]))
    if not pin:
        return out, forcing, g, None, math.nan
    s, f = schur[:, :-1, :-1], forcing[..., :-1, :]  # f carried is a stack of one
    blocks = [s[:, lo:lo + _BLOCK, lo:lo + _BLOCK].copy() for lo in range(0, s.shape[-1], _BLOCK)]
    invs = _cholesky(s, run)
    w = _lower_solve(s, invs, np.broadcast_to(f, s.shape[:1] + f.shape[-2:]).copy())
    product = _upper_times(s, blocks, _back_solve(_panels(s), invs, w.copy()), run)
    return out, forcing, g, g + np.swapaxes(w, -1, -2) @ w, _residual(product, f)


def _run_stage(count: int, work: Callable[[], object], stats: SolveStats,
               out: np.ndarray | None = None):
    """``work()``, one stage of ``count`` merges, on the calling thread, and
    its result: the one place a failure becomes data. If a dense solve
    fails, a map to merge is not finite or memory runs out, it gives
    ``None``, ``out`` is NaN, and an empty ``stats.failure`` takes the
    message. Adds the merges to ``stats.merges``."""
    stats.merges += count
    try:
        return work()
    except (np.linalg.LinAlgError, MemoryError) as err:
        if out is not None:
            out[...] = np.nan
        why = "failed" if isinstance(err, np.linalg.LinAlgError) else "ran out of memory"
        stats.failure = stats.failure or f"dense condensation {why}: {err}"
        return None


def _subtree_level(kids: np.ndarray, cls: np.ndarray | None, shape: tuple[int, ...], h: float,
                   volume: float, sums: np.ndarray | None = None,
                   values: np.ndarray | None = None, tape: list | None = None,
                   child: int | None = None) -> tuple:
    """One level below 0 of a subtree, on the calling thread: the maps of
    its cubes, condensed stage by stage (:func:`_plan`) from ``kids``, the
    maps of their children of ``shape`` cells. ``cls`` gives each child's
    content class in tree order, ``kids`` holding one map per class, or is
    None when every child is distinct and ``kids`` lists them in tree order.

    A stage with classes groups its merges by the rows of their boxes'
    classes (:func:`_classes`, as the cells are grouped), condenses the
    first merge of each class alone and hands its map to every merge of the
    class; its boxes are gathered from ``kids``. A stage whose merges are
    all distinct condenses every merge, and every stage above it does so on
    strided views of ``kids``. Each stage is one call of the kernel (:func:`_run_stage`): a
    failed dense solve, or a box that is not finite, leaves the stage's maps
    NaN. The last stage then pins each map by an LU solve of a copy: each
    cube's ``g`` is ``y^T f / volume``, ``volume`` the cubes', NaN where the
    stage failed.

    At level -1, ``child`` is the subtree's index among level 0's children:
    the last stage keeps only the nodes another child shares, and carries
    each box's gradient forcing (:func:`_forcings`), so the cube's map is
    level 0's box and the kernel pins it by Cholesky for ``g``. Given the
    children's ``sums``, their right-hand sides and row sums by class (the
    Dirichlet solve's), they are carried to the cubes', and each stage's
    factor goes on ``tape`` (:func:`_back_substitute`), which fills
    ``values``, the ``(children, nodes, 1)`` values of each child's nodes in
    tree order; their maps have no kernel, so nothing is pinned.

    Returns ``(maps, cls, sums, own, values, g, stats)``: ``g`` the cubes'
    ``g`` (None, or NaN if the last stage failed, for the Dirichlet solve),
    ``sums`` the cubes' carried forcings (None if none is carried), ``own``
    their carried ``g``, ``f^T A^-1 f`` of the nodes the last stage eliminated
    (``0.0`` if it carries none), or None if that stage failed;
    ``stats.wall_time`` is the seconds the level took."""
    d = len(shape)
    cube = tuple(3 * s for s in shape)
    # a box of level -1's last stage: a cell, or a slab along the first axis
    slab = shape if max(shape) == 1 else (shape[0],) + cube[1:]
    stats = SolveStats(residual=math.nan, unknowns=0, wall_time=time.perf_counter(),
                       method="condensation")
    stages = _plan(shape, False, child)
    g, own = None, 0.0
    for stage, merges in enumerate(stages):
        merge = merges[0]  # the merges of a stage are translates of the first
        size, k, ranks = merge
        width = len(ranks)  # the boxes a merge takes
        stats.unknowns = max(stats.unknowns, size)
        total = (kids.shape[0] if cls is None else cls.size) // width  # the stage's merges
        picks, inverse = None, None  # each condensed merge's rows of kids; each merge's class
        if cls is not None:
            picks = cls.reshape(-1, width)
            which = _classes(picks)
            if which is not None:  # None: all distinct; the stages above take strided views
                first, inverse = which
                picks = picks[first]
        count = total if picks is None else picks.shape[0]
        last = stage == len(stages) - 1
        carry = sums is not None or (last and child is not None)
        maps = np.empty((count, size - k, size - k))
        made = np.empty((count, size - k, d if sums is None else sums.shape[-1])) if carry else None
        made_values = None if values is None else np.empty((total, size - k, 1))

        def box(arr: np.ndarray, c: int) -> np.ndarray:
            """Box ``c`` of every condensed merge, from ``arr``."""
            return arr[c::width] if picks is None else arr[picks[:, c]]

        def work() -> tuple:
            """The stage's carried ``g``, its cubes' ``g`` if it pins
            them, and the pins' largest residual."""
            boxes = [box(kids, c) for c in range(width)]
            if not carry:
                _condense(boxes, merge, maps)
                if not last:
                    return 0.0, None, math.nan
                # LU on the copy LAPACK makes: with no triangular solve in
                # NumPy, Cholesky and two substitutions cost more on stacks
                # of small maps (27 of 55 nodes: 2.95 against 0.84 ms)
                f = _forcings(cube, h)[_boundary_nodes(cube)][:-1]  # last node pinned
                s = maps[:, :-1, :-1]
                y = np.linalg.solve(s, np.broadcast_to(f, s.shape[:1] + f.shape))
                return 0.0, np.swapaxes(y, -1, -2) @ f / volume, _residual(s @ y, f)
            forcing = ([box(sums, c) for c in range(width)] if sums is not None
                       else [_forcings(slab, h)[_boundary_nodes(slab)][None]] * width)
            kept = None if sums is None else []
            _, made[...], own, pinned, residual = _condense(
                boxes, merge, maps, carried=[(f, 0.0) for f in forcing], kept=kept,
                pin=True)
            if kept is not None:  # each merge's row of the factor: its class's
                tape.append((merge, *kept[0], slice(None) if inverse is None else inverse,
                             [values[c::width] for c in range(width)], made_values))
            return own, None if pinned is None else pinned / volume, residual

        done = _run_stage(count, work, stats, maps)
        own = None if done is None else done[0]
        if last:
            g, stats.residual = done[1:] if done else (np.full((count, d, d), np.nan), math.nan)
        kids, cls, sums, values = maps, inverse, made, made_values
    if g is not None and cls is not None:
        g = g[cls]
    stats.wall_time = time.perf_counter() - stats.wall_time
    return kids, cls, sums, own, values, g, stats


def _level_zero(boxes: list, stages: tuple, d: int,
                tape: list | None = None) -> tuple[np.ndarray, SolveStats]:
    """Level 0: the strips, the slabs and the last merge (``stages``, of
    :func:`_plan` with ``top``; for an ``N=1`` grid one merge of its cells)
    on its children's ``boxes``, each the ``(map, forcing, g, values)`` its
    subtree handed over, or ``None`` for a subtree whose stage failed.

    The merges run one at a time on the calling thread, in postorder: a box is
    merged into its parent before the next box is made, so besides one merge's
    working store only the boxes it waits for are alive (Liu's bound, ACM TOMS
    12(3), 1986, on level 0's own merges). Each merge, one call of
    :func:`_run_stage`, gives the bands of its elimination, or of the last
    merge's factorization, to :func:`_run_chunks`, so it runs on every core.
    A merge drops its boxes from ``boxes`` (the caller's list too) as it takes
    them, and each box once it is summed onto the skeleton. With a ``tape``
    (the Dirichlet solve's: a box's forcing is its right-hand side and row
    sums) each merge's factor goes on it, with the values of its boxes' nodes:
    the subtrees' at the strips, and above them the first column of each
    box's forcing. Returns the cube's ``(1, d, d)`` ``g``, NaN if a merge
    failed, and the stats of level 0's merges."""
    stats = SolveStats(residual=math.nan,
                       unknowns=max(size for merges in stages for size, _, _ in merges),
                       wall_time=time.perf_counter(), method="condensation")
    g = np.full((1, d, d), np.nan)

    def make(stage: int, j: int) -> tuple | None:
        """Merge ``j`` of ``stages[stage]``, its boxes made first (the
        merges ``width * j`` on of the stage below, or level 0's children):
        its ``(map, forcing, g, values, pinned, residual)``, or None if a
        merge failed."""
        merge, kept = stages[stage][j], None if tape is None else []
        width, parts = len(merge[2]), []
        for c in range(width * j, width * j + width):
            parts.append(make(stage - 1, c) if stage else boxes[c])
            if not stage:
                boxes[c] = None
            if parts[-1] is None:
                return None
        maps, carried = [part[0] for part in parts], [part[1:3] for part in parts]
        values = [part[3] for part in parts]
        del parts  # maps holds the boxes alone, and drops each once summed
        made = _run_stage(
            1, lambda: _condense(maps, merge, carried=carried, run=_run_chunks, kept=kept), stats)
        if made is None:
            return None
        out, forcing, own, pinned, residual = made
        if kept is not None:  # kept gets the factor before the copy to out
            tape.append((merge, *kept[0], slice(None), values, forcing[..., :1]))
        return out, forcing, own, forcing[..., :1], pinned, residual

    if all(box is not None for box in boxes):
        made = make(len(stages) - 1, 0)
        if made is not None:
            g, stats.residual = made[4:]
    del make  # it calls itself: a reference cycle, which would keep the tape
    stats.wall_time = time.perf_counter() - stats.wall_time
    return g, stats


def _summed(parts: Sequence[SolveStats], threads: int = 1) -> SolveStats:
    """One :class:`SolveStats` of ``parts``: their merges and seconds
    summed, the largest skeleton and finite residual, the most threads
    (``threads`` among them) and the first failure, in order."""
    return SolveStats(
        residual=max((st.residual for st in parts if not math.isnan(st.residual)),
                     default=math.nan),
        unknowns=max(st.unknowns for st in parts), wall_time=sum(st.wall_time for st in parts),
        method="condensation", merges=sum(st.merges for st in parts),
        threads=max([threads] + [st.threads for st in parts]),
        failure=next((st.failure for st in parts if st.failure), ""))


def _condensation(d: int, depth: int, h: float, rows: np.ndarray,
                  elements: Callable[[np.ndarray], tuple], values: np.ndarray | None = None,
                  tape: list | None = None) -> dict[int, tuple[np.ndarray | None, SolveStats]]:
    """The depth-first pass over a cube of ``3**depth`` cells a side, every
    level from the cubes of 3 cells a side up to the cube itself (see
    :func:`level_functionals`). ``rows`` lists the cells in row-major
    order: the ``(cells, w)`` numbers that fix each one's element. Subtree
    ``s`` gathers its cells' rows, the ``s``-th of ``3**d`` equal slices of
    :func:`_tree_order`. Cells with equal rows share a content class
    (:func:`_classes`), and ``elements(rows)`` gives the element matrices
    of the first cell of each class, and ``None`` or their right-hand sides
    and row sums, ``(n, 2**d, 2)``. With a ``tape`` (the Dirichlet solve's)
    the pass keeps every merge's factor on it: each subtree's in its order,
    subtree by subtree, then level 0's in postorder; ``values``, the
    ``(cells, 2**d, 1)`` values of the cells' elements' nodes in tree
    order, is filled by :func:`_back_substitute`, subtree ``s`` taking its
    ``s``-th slice.

    Returns each level's ``(g_all, stats)``, from the cells up. ``g_all``
    lists the level's cubes' ``g`` in row-major order (:func:`_tree_order`),
    shaped ``(3**-level,)*d + (d, d)``; it is None with a ``tape``.
    ``stats`` is :func:`_summed` over the level's subtrees and, at level 0, its merges:
    it takes the most threads that took a subtree and the pass's first
    failure at or below the level, and below level 0 each subtree's first
    failure at or below the level (``stats.subtree_failures``)."""
    per = rows.shape[0] // 3**d  # cells a subtree
    order = _tree_order(depth, d)
    boxes = [None] * 3**d  # level 0's children, each as its subtree reduced it
    tapes = [[] for _ in boxes]
    done = [{} for _ in boxes]  # each subtree's (g, stats) of each level it ran

    def subtree(s: int) -> None:
        """Subtree ``s``: its ``(g, stats)`` of each level it ran go to
        ``done[s]``, and its cube's ``(map, forcing, g, values)`` to
        ``boxes[s]`` if no stage failed."""
        parts, cells = done[s], rows[order[s * per:(s + 1) * per]]
        nodes = None if values is None else values[s * per:(s + 1) * per]
        which = _classes(cells)
        kids, sums = elements(cells if which is None else cells[which[0]])
        cls = None if which is None else which[1]
        del cells, which
        shape, own = (1,) * d, 0.0
        for level in range(1 - depth, 0):  # none if depth 1
            kids, cls, sums, own, nodes, g, stats = _subtree_level(
                kids, cls, shape, h, 3.0 ** (level * d), sums, nodes, tapes[s],
                s if level == -1 else None)
            parts[level] = g, stats
            shape = tuple(3 * n for n in shape)
        if own is not None:  # an N=1 grid's cell carries its own forcing
            boxes[s] = kids, _forcings(shape, h)[None] if sums is None else sums, own, nodes

    threads = _run_chunks(range(3**d), subtree)
    per_level: dict[int, list] = {}
    for parts in done:
        for level, part in parts.items():
            per_level.setdefault(level, []).append(part)
    if tape is not None:
        tape.extend(step for steps in tapes for step in steps)
    per_level[0] = [_level_zero(boxes, _plan((3 ** (depth - 1),) * d, True), d, tape)]
    out, failure, own = {}, "", [""] * 3**d
    for level, parts in per_level.items():  # from the cells up
        stats = _summed([st for _, st in parts], threads)
        failure = stats.failure = failure or stats.failure
        if level < 0:  # parts holds one per subtree, in order
            own = [mine or st.failure for mine, (_, st) in zip(own, parts)]
            stats.subtree_failures = tuple(own)
        g_all = None
        if tape is None:
            g = np.concatenate([g for g, _ in parts])
            g_all = np.empty_like(g)
            g_all[_tree_order(-level, d)] = g
            g_all = g_all.reshape((3 ** -level,) * d + (d, d))
        out[level] = g_all, stats
    return out


def level_functionals(field: CoefficientField) -> dict[int, tuple[np.ndarray, SolveStats]]:
    """Every solved level's ``(g_all, stats)``, levels ``1-N`` to ``0`` from
    the cells up, in one bottom-up pass of nested static condensation
    (:func:`_condensation`): the entry point of a sweep. Level ``-N``, the
    cells, needs no solve. ``g_all`` has shape ``(3**-level,)*d + (d, d)``:
    in row-major cube order, each cube's Gram matrix ``g[r, s] = L_s(u_r) /
    vol`` of the unit gradient forcings ``L_s(v) = avg(e_s . grad v)``, the
    quadratic form ``q . astar^{-1} q`` of the coarse-graining layer,
    symmetric up to roundoff.

    The d gradient forcings live on a box's boundary (:func:`_forcings`), so
    ``g = b^T S^+ b / vol`` needs only the box's *boundary map* ``S``: the
    Schur complement of its Neumann stiffness onto its boundary nodes. A
    box's stiffness is the sum of its children's, so its boundary map is
    the condensation of theirs on the skeleton. Every level runs the stages
    of one plan (:func:`_plan`) through one merge kernel
    (:func:`_condense`), small separators first, as in nested dissection.

    The pass runs depth first. Each level -1 cube's subtree is one job: from
    the element matrices of its cells, in :func:`_tree_order`, it runs each
    level below 0, all of the level's cubes of the subtree at once, stage
    by stage (:func:`_subtree_level`); below level -1 the last stage pins
    the cubes' maps and solves for ``g`` by LU.
    Level -1's last stage eliminates its cube's interior and the nodes no
    other child of level 0 has at once, carrying the gradient forcing
    along, and keeps only the reduced box, which the job hands to level 0
    with its carried forcing and ``f^T A^-1 f``. Level -1's ``g`` is that
    ``f^T A^-1 f`` plus a pinned solve of the box by Cholesky. Level 0, one
    cube whose map no level needs, then merges the boxes into strips, slabs
    and a last merge, which factors its pinned skeleton in place
    (:func:`_level_zero`).
    Every merge works in place on its skeleton and drops each box once it
    is summed; only one subtree's maps per thread, level 0's boxes and one
    level-0 merge's working store are alive at once. An ``N=1`` grid's
    subtrees are its cells, which level 0 merges at once, so its one level
    is 0.

    The 3**d subtrees are the jobs of :func:`_run_chunks`, on one thread per
    core, the caller among them; a job runs each of its stages as one call
    of the kernel. The caller then runs level 0's merges one at a
    time, each on every core: the bands of :data:`_BAND` rows of its
    elimination are the jobs of :func:`_run_chunks`. Every merge is
    eliminated alone and a band's rows do not depend on the cores, so the
    numbers do not depend on the threads.

    Inside a subtree, merges with the same content are condensed once, by
    class (:func:`_classes`, :func:`_subtree_level`); the numbers are those
    of each merge condensed alone.

    ``stats.unknowns`` is the largest skeleton of a merge of the level,
    ``stats.merges`` the merges it condensed (one per content class below
    level 0), ``stats.threads``
    the most threads that took a subtree of the pass, ``stats.wall_time``
    the seconds its stages took, summed over the subtrees, and
    ``stats.residual`` the largest ``|S y - b| / |b|`` of the pinned solves.
    A failed stage, whose merges are one call of the kernel (a level-0
    merge is a stage of its own), makes every cube of the stage in its
    subtree NaN, and every cube that contains one: a failed dense solve,
    or a map to merge that is not finite (``dense condensation failed: a
    map to merge is not finite``). ``stats.failure`` names the pass's first
    failure at or below the level (``""`` if none): the lowest level's, and
    there the first subtree's, whichever thread ran it. Below level 0,
    ``stats.subtree_failures`` names each level -1 cube's own first failure
    at or below the level, so each failed cube of the level has the cause
    of the subtree it lies in.
    """
    grid = field.grid
    d = grid.d
    rows = field.data.reshape(-1, field.data.shape[-1])
    return _condensation(d, grid.N, grid.h, rows,
                         lambda part: (_element_matrices(part, d, grid.h), None))


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


def _back_substitute(tape: list) -> None:
    """Recover the Dirichlet solution from the factors its pass kept on
    ``tape`` (:func:`_condensation`), top down, into the values of the
    boxes' nodes.

    A step of the tape is ``(plan, w_b, panels, invs, w, row, boxes,
    made)``, and stands for every merge of its stage (a level-0 merge is a
    stage of one): its factor, one per content class it condensed (``W_b``,
    ``L``'s panels and inverted diagonal blocks, and ``W_f = L^-1 f_k`` of
    the right-hand side; :func:`_eliminate`); ``row``, each merge's class
    in the factor (a slice where every merge is its own class); the
    ``(merges, nodes, 1)`` values of each of its boxes' nodes, and
    ``made``, those of the boxes it made, which its parent's step fills
    first. Each merge solves ``L^T u_k = W_f - W_b u_b``
    (:func:`_back_solve`) with its class's factor and its own ``u_b``, and
    writes each box its nodes' values. The last merge keeps no node.
    """
    for (size, k, ranks), w_b, panels, invs, w, row, boxes, made in reversed(tape):
        u_k = _back_solve([p[row] for p in panels], [inv[row] for inv in invs],
                          w[row] - w_b[row] @ made)
        skel = np.concatenate([u_k, made], axis=1)
        for box, r in zip(boxes, ranks):
            box[...] = skel[:, r]


def _fv_elements(trans: list, bound: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Dirichlet solve's elements, cell by cell in C order: their
    diagonals ``(m**d, 2**d)``, their couplings ``(m**d, d)`` of local node 0
    to local node ``e_a`` and their exact row sums ``(m**d, 2**d)``.

    Cell ``i`` of the cube's ``m**d`` is node ``i`` of the ``(m+1)**d``
    node grid and its element's local node 0. The element carries the face
    transmissibility ``trans[a]`` to cell ``i + e_a`` (local node ``e_a``)
    and the cell's boundary terms ``bound`` on its diagonal. The nodes with
    a coordinate equal to ``m`` are inert ghosts with a unit diagonal, each
    from the one element that has it at a local node ``o`` with ``i_a = m -
    1`` wherever ``o_a = 1``. The elements then share nodes as Q1 elements
    do, so the pass's plans fit, and they sum to the stencil's matrix, the
    ghosts aside.
    """
    d, m = bound.ndim, bound.shape[0]
    last = [axis.ravel() == m - 1 for axis in np.indices(bound.shape)]
    diag, sums = np.zeros((m**d, 2**d)), np.zeros((m**d, 2**d))
    couple = np.zeros((m**d, d))
    for a, t in enumerate(trans):
        face = np.zeros_like(bound)
        _shift_view(face, a, 0, -1)[...] = t  # 0 where cell i + e_a is a ghost
        couple[:, a] = -face.ravel()
        diag[:, 2 ** (d - 1 - a)] = face.ravel()  # local node e_a
    diag[:, 0] = bound.ravel() - couple.sum(axis=1)
    sums[:, 0] = bound.ravel()
    for o, offset in enumerate(_local_offsets(d)[1:], 1):
        sums[:, o] = np.logical_and.reduce([last[a] for a in range(d) if offset[a]])
    diag[:, 1:] += sums[:, 1:]
    return diag, couple, sums


def solve_dirichlet(
    field: CoefficientField,
    cube: TriadicCube,
    boundary: Callable[..., np.ndarray],
) -> tuple[CubeFunction, SolveStats]:
    """Solve ``-div(a grad u) = 0`` on a cube with given boundary values.

    Cell-centered, with harmonic face averaging: a 2d+1-point M-matrix
    stencil, which requires a diagonal coefficient and gives one value per
    cell, satisfying a discrete maximum principle. ``boundary`` is called as
    ``boundary(X1, ..., Xd)`` in centered physical coordinates, at the face
    centers of :func:`boundary_face_values`, half a cell from the centers of
    the boundary cells; data that is not finite there raises
    :class:`ValueError`.

    The solve is the condensation pass of :func:`level_functionals`
    (:func:`_condensation`): its plans, merge kernel and subtree schedule,
    on the elements of :func:`_fv_elements`, classed by their diagonals,
    couplings, right-hand sides and row sums. The right-hand side and the
    row sums are carried through every merge, the row sums setting the
    diagonal of each Schur complement; each merge keeps its factor, one per
    content class, level 0's last merge eliminates every node, and
    :func:`_back_substitute` recovers ``u`` top down, each merge from its
    class's factor and its own boundary values. ``u`` is solved as the mean ``c`` of the
    boundary data plus the solution for the data less ``c``, so constant
    data comes back exactly. ``stats.residual`` is ``|A u - b| / |b|``, ``A
    u`` a NumPy stencil product. A one-cell cube is its own 1×1 system.
    Raises :class:`SolverError`, with the stats, if a dense solve of the
    pass fails or finds no memory.
    """
    t0 = time.perf_counter()
    grid = field.grid
    d = grid.d
    m = cube.cells_per_side(grid)
    diag_cells = _diagonal_cells(field.data[cube.cell_slices(grid)], d)
    faces = boundary_face_values(grid, cube, boundary)
    center = float(np.concatenate([face.ravel() for face in faces]).mean())
    scale = grid.h ** (d - 2)
    trans, bound = [], np.zeros((m,) * d)
    rhs, load = np.zeros((m,) * d), np.zeros((m,) * d)  # the data's, and less its mean's
    for a in range(d):
        ca = diag_cells[..., a]
        left, right = _shift_view(ca, a, 0, -1), _shift_view(ca, a, 1, None)
        trans.append(scale * 2.0 * left * right / (left + right))
        # boundary faces at half-cell distance
        for side, (lo, hi) in enumerate(((0, 1), (-1, None))):
            tb = scale * 2.0 * _shift_view(ca, a, lo, hi)
            _shift_view(bound, a, lo, hi)[...] += tb
            _shift_view(rhs, a, lo, hi)[...] += tb * faces[2 * a + side]
            _shift_view(load, a, lo, hi)[...] += tb * (faces[2 * a + side] - center)
    if m == 1:
        u = center + load / bound
        stats = SolveStats(residual=math.nan, unknowns=1, wall_time=0.0,
                           method="fv-condensation", threads=0)
    else:
        depth = grid.N + cube.level
        order = _tree_order(depth, d)
        diag, couple, sums = _fv_elements(trans, bound)
        # each cell's row: its element's diagonal and couplings, then its
        # buffer, the right-hand side and row sums of the element's nodes
        buffer = np.zeros((order.size, 2**d, 2))
        buffer[:, 0, 0], buffer[..., 1] = load.ravel(), sums
        rows = np.concatenate([diag, couple, buffer.reshape(order.size, -1)], axis=1)
        del diag, couple, sums, buffer
        values = np.empty((order.size, 2**d, 1))  # each element's nodes' values
        tape: list = []

        def elements(part: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            mats = np.zeros((part.shape[0], 2**d, 2**d))
            mats[:, range(2**d), range(2**d)] = part[:, :2**d]
            for a in range(d):
                mats[:, 0, 2 ** (d - 1 - a)] = mats[:, 2 ** (d - 1 - a), 0] = part[:, 2**d + a]
            return mats, part[:, 2**d + d:].reshape(-1, 2**d, 2)

        levels = _condensation(d, depth, grid.h, rows, elements, values, tape)
        stats = replace(_summed([st for _, st in levels.values()]), residual=math.nan,
                        unknowns=m**d, method="fv-condensation")
        if stats.failure:
            stats.wall_time = time.perf_counter() - t0
            raise SolverError(stats.failure, stats)
        _back_substitute(tape)
        u = np.empty(m**d)
        u[order] = center + values[:, 0, 0]
        u = u.reshape((m,) * d)
    product = bound * u  # A u
    for a, t in enumerate(trans):
        flux = t * (_shift_view(u, a, 1, None) - _shift_view(u, a, 0, -1))
        _shift_view(product, a, 0, -1)[...] -= flux
        _shift_view(product, a, 1, None)[...] += flux
    stats.residual = float(np.linalg.norm(product - rhs) / max(np.linalg.norm(rhs), 1e-300))
    stats.wall_time = time.perf_counter() - t0
    return CubeFunction(grid, cube, u), stats


def boundary_face_values(
    grid: GridSpec, cube: TriadicCube, boundary: Callable[..., np.ndarray]
) -> list[np.ndarray]:
    """``boundary`` at the centers of a cube's boundary faces, as
    :func:`solve_dirichlet` evaluates it.

    One array per axis and side (lower side first), each shaped like the
    layer of cells next to that side. Callers that check the data (sign,
    constancy) sample it here, so they check exactly the values the solve
    uses. Data that is not finite at a face center raises
    :class:`ValueError`.
    """
    m = cube.cells_per_side(grid)
    lo_phys, _ = cube.physical_bounds()
    centers = [lo_phys[a] + (np.arange(m) + 0.5) * grid.h for a in range(grid.d)]
    values = []
    for a in range(grid.d):
        for plane in (lo_phys[a], lo_phys[a] + m * grid.h):
            axes = [np.asarray([plane]) if b == a else centers[b] for b in range(grid.d)]
            values.append(np.asarray(boundary(*np.meshgrid(*axes, indexing="ij")), dtype=float))
    if not all(np.isfinite(face).all() for face in values):
        raise ValueError("boundary data must be finite at all face centers")
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
    cell function, in the conservative face form with harmonic averaging,
    normalized per axis by face count (requires a diagonal coefficient).
    ``region`` restricts to a box of cells (slices into the function's own
    cell array). A node-mode :class:`ScalarGridFunction` raises
    :class:`ValueError`.
    """
    if not isinstance(u, (CubeFunction, ScalarGridFunction)):
        raise TypeError(f"expected CubeFunction or ScalarGridFunction, got {type(u)}")
    if isinstance(u, ScalarGridFunction) and u.mode != "cell":
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
