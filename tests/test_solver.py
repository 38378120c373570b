"""Tests for the discrete solvers: assembly oracles, closed-form solutions,
maximum principle, optimality, and convergence order."""

import inspect
import itertools
import math
import sys
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cge.fields import (
    CantorParams,
    CascadeParams,
    gen_cantor_field,
    gen_cascade_field,
    gen_constant,
    gen_laminate,
    gen_random_spd,
)
import cge.solver
from cge.grid import (
    CoefficientField,
    GridSpec,
    ScalarGridFunction,
    TriadicCube,
    block_reduce,
    cube_average,
    sym_index_pairs,
    sym_unpack,
)
from cge.solver import (
    SolverError,
    _boundary_nodes,
    _element_matrices,
    _forcings,
    _plan,
    energy,
    level_functionals,
    reference_matrices,
    solve_dirichlet,
)
from cge.harness import MAX_PRINCIPLE_RTOL, _max_principle_slack, sharpness_boundary
from fv_oracle import fv_dense_solve, fv_sparse_solve
from q1_oracle import (
    _augmented_dense_solve,
    _cell_nodes,
    _cube_cells,
    _dense_stiffness,
    _forcing_vectors,
)

FULL = TriadicCube(0, (0, 0))


def _dense_functionals(field, cube) -> np.ndarray:
    """``g[r, s] = L_s(u_r) / vol`` of all 2d unit forcings (d gradient, then
    d flux) from the dense reference solve: ``(2d, 2d)``."""
    rhs = _forcing_vectors(field, cube)
    sols = _augmented_dense_solve(_dense_stiffness(field, cube), rhs)
    return sols.T @ rhs / cube.volume


def _cube_functionals(field, cube):
    """One cube's ``(g, stats)``: its entry of its level's pass."""
    g_all, stats = level_functionals(field)[cube.level]
    return g_all[tuple(cube.offset)], stats


def _load(field, cube, direction, kind) -> np.ndarray:
    """The node load of the unit forcings of ``kind`` ("gradient" or
    "flux") combined by ``direction``: ``L(v) = load @ v / vol``."""
    d = field.d
    cols = slice(0, d) if kind == "gradient" else slice(d, 2 * d)
    return _forcing_vectors(field, cube)[:, cols] @ np.asarray(direction, dtype=float)


def _dense_maximizer(field, cube, direction, kind):
    """``(u, value)``: the zero-mean node vector maximizing ``avg(-grad u .
    a grad u + 2 L(u))`` for the unit forcings of ``kind`` combined by
    ``direction``, from the dense reference solve, and the optimum
    ``L(u) / vol`` (at the maximizer ``B(u, u) = L(u)``)."""
    rhs = _load(field, cube, direction, kind)
    x = _augmented_dense_solve(_dense_stiffness(field, cube), rhs[:, None])[:, 0]
    return x, rhs @ x / cube.volume


def _functional_value(field, cube, v, direction, kind) -> float:
    """``avg(-grad v . a grad v + 2 L(v))`` at a node vector ``v`` of the
    cube, from the dense stiffness and load: at most the optimum."""
    load = _load(field, cube, direction, kind)
    return float((2.0 * load - _dense_stiffness(field, cube) @ v) @ v / cube.volume)


def _affine(grid, cube, q) -> np.ndarray:
    """The zero-mean node vector of ``q . x`` on a cube."""
    m = cube.cells_per_side(grid)
    x = grid.h * np.tensordot(q, np.indices((m + 1,) * grid.d), axes=1).ravel()
    return x - x.mean()


def _sparse_functionals(field, cube) -> np.ndarray:
    """``g`` of the d gradient forcings, ``(d, d)``, from a sparse direct
    solve of the cube's stiffness with its last node pinned."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    m, d = cube.cells_per_side(field.grid), field.d
    nn = (m + 1) ** d
    conn = _cell_nodes(m, d)
    ke = _element_matrices(_cube_cells(field, cube), d, field.grid.h)
    rows = np.broadcast_to(conn[:, :, None], ke.shape).ravel()
    cols = np.broadcast_to(conn[:, None, :], ke.shape).ravel()
    kmat = sp.csc_matrix((ke.ravel(), (rows, cols)), shape=(nn, nn))[:-1, :-1]
    rhs = _forcings((m,) * d, field.grid.h)[:-1]
    return spla.spsolve(kmat.tocsc(), rhs).T @ rhs / cube.volume

# Hand-assembled bilinear element matrix for a = I on the unit square,
# local node order (0,0), (0,1), (1,0), (1,1): diagonal 2/3, edge neighbors
# -1/6, diagonal neighbor -1/3.
REFERENCE_ELEMENT_LAPLACIAN = np.array(
    [
        [2 / 3, -1 / 6, -1 / 6, -1 / 3],
        [-1 / 6, 2 / 3, -1 / 3, -1 / 6],
        [-1 / 6, -1 / 3, 2 / 3, -1 / 6],
        [-1 / 3, -1 / 6, -1 / 6, 2 / 3],
    ]
)


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def test_reference_element_matches_hand_assembly():
    r_eff, r_hat = reference_matrices(2)
    np.testing.assert_allclose(r_eff[0] + r_eff[2], REFERENCE_ELEMENT_LAPLACIAN, atol=1e-14)
    # gradient load vector: signed 1/2 per axis
    np.testing.assert_allclose(r_hat[0], [-0.5, -0.5, 0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(r_hat[1], [-0.5, 0.5, -0.5, 0.5], atol=1e-15)


def test_assembled_interior_stencil():
    # 3x3-cell cube, a = I: interior node row is the classical 9-point
    # stencil 8/3 center, -1/3 on all eight neighbors.
    g = GridSpec(2, 1)
    f = gen_constant(g, np.eye(2))
    k = _dense_stiffness(f, FULL)
    center = 1 * 4 + 1  # node (1,1) of the 4x4 node grid
    row = k[center].reshape(4, 4)
    assert row[1, 1] == pytest.approx(8 / 3)
    for i, j in [(0, 0), (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1), (2, 2)]:
        assert row[i, j] == pytest.approx(-1 / 3)
    assert row[3].sum() == pytest.approx(0.0) and row[:, 3].sum() == pytest.approx(0.0)


def test_stiffness_row_sums_vanish_and_symmetry():
    g = GridSpec(2, 2)
    f = gen_random_spd(g, seed=11)
    k = _dense_stiffness(f, TriadicCube(-1, (0, 1)))
    np.testing.assert_allclose(k.sum(axis=1), 0.0, atol=1e-10)
    np.testing.assert_allclose(k, k.T, atol=1e-13)


def test_stiffness_scales_linearly():
    g = GridSpec(2, 1)
    k1 = _dense_stiffness(gen_constant(g, np.eye(2)), FULL)
    k7 = _dense_stiffness(gen_constant(g, 7.0 * np.eye(2)), FULL)
    np.testing.assert_allclose(k7, 7.0 * k1, rtol=1e-14)


@given(st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_bilinear_form_symmetry_on_random_pairs(seed):
    g = GridSpec(2, 1)
    f = gen_random_spd(g, seed=3)
    k = _dense_stiffness(f, FULL)
    rng = np.random.default_rng(seed)
    u, v = rng.standard_normal((2, k.shape[0]))
    assert u @ (k @ v) == pytest.approx(v @ (k @ u), rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# Variational solves
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mat", [np.eye(2), np.diag([1.0, 4.0]),
                                 np.array([[2.0, 0.7], [0.7, 1.0]])])
def test_constant_field_gradient_values(mat):
    g = GridSpec(2, 2)
    f = gen_constant(g, mat)
    inv = np.linalg.inv(mat)
    gmat, _ = _cube_functionals(f, FULL)
    for i, e in enumerate(np.eye(2)):
        _, val = _dense_maximizer(f, FULL, e, "gradient")
        assert val == pytest.approx(inv[i, i], rel=1e-12)
        assert gmat[i, i] == pytest.approx(inv[i, i], rel=1e-12)


def test_constant_field_flux_value_and_affine_maximizer():
    g = GridSpec(2, 2)
    mat = np.array([[2.0, 0.7], [0.7, 1.0]])
    f = gen_constant(g, mat)
    u, val = _dense_maximizer(f, FULL, [1.0, 0.0], "flux")
    assert val == pytest.approx(mat[0, 0], rel=1e-12)
    np.testing.assert_allclose(u, _affine(g, FULL, [1.0, 0.0]), rtol=0, atol=1e-12)


def test_laminate_gradient_and_flux_closed_forms():
    g = GridSpec(2, 2)
    f = gen_laminate(g, 0, [1.0, 9.0, 1.0])
    _, v_grad = _dense_maximizer(f, FULL, [1.0, 0.0], "gradient")
    assert v_grad == pytest.approx((1 + 1 / 9 + 1) / 3, rel=1e-11)
    assert _cube_functionals(f, FULL)[0][0, 0] == pytest.approx((1 + 1 / 9 + 1) / 3, rel=1e-11)
    u, v_flux = _dense_maximizer(f, FULL, [0.0, 1.0], "flux")
    assert v_flux == pytest.approx(11 / 3, rel=1e-11)
    # the flux maximizer across the layering is the affine u = x_2
    np.testing.assert_allclose(u, _affine(g, FULL, [0.0, 1.0]), rtol=0, atol=1e-12)


def test_two_stripe_field_matches_represented_cell_means():
    # 2 stripes straddle one cell column; the solver must still reproduce the
    # represented per-cell field's exact harmonic/arithmetic means.
    g = GridSpec(2, 3)
    f = gen_laminate(g, 0, [1.0, 4.0])
    cells = f.data[:, 0, 0]
    _, v_grad = _dense_maximizer(f, FULL, [1.0, 0.0], "gradient")
    assert v_grad == pytest.approx((1.0 / cells).mean(), rel=1e-10)
    assert _cube_functionals(f, FULL)[0][0, 0] == pytest.approx((1.0 / cells).mean(), rel=1e-10)
    _, v_flux = _dense_maximizer(f, FULL, [0.0, 1.0], "flux")
    assert v_flux == pytest.approx(cells.mean(), rel=1e-10)


def test_gradient_solution_mean_flux_recovers_forcing():
    # At the gradient-forcing maximizer, avg(a grad u) equals the forcing.
    g = GridSpec(2, 2)
    f = gen_random_spd(g, seed=5)
    u, _ = _dense_maximizer(f, FULL, [1.0, 0.0], "gradient")
    mean_flux = _forcing_vectors(f, FULL)[:, 2:].T @ u / FULL.volume
    np.testing.assert_allclose(mean_flux, [1.0, 0.0], atol=1e-9)


def test_engine_matches_dense_oracle():
    # every cube of both solved levels of 2D N=2 and 3D N=2, all from one
    # pass, against each cube's dense solve; a laminate (the random
    # field's contrast, 100) repeats its cells, whose merges share content
    # classes, condensed once
    for d, kind in itertools.product((2, 3), ("random", "laminate")):
        grid = GridSpec(d, 2)
        f = (gen_random_spd(grid, seed=13, eig_low=0.1, eig_high=10.0) if kind == "random"
             else gen_laminate(grid, d - 1, [0.1, 10.0]))
        out = level_functionals(f)
        assert sorted(out) == [-1, 0]
        for level, (g_all, stats) in out.items():
            assert g_all.shape == (3 ** -level,) * d + (d, d)
            assert stats.method == "condensation"
            assert "iterations" not in stats.to_dict() and "merges" not in stats.to_dict()
            for off in np.ndindex((3 ** -level,) * d):
                g_dense = _dense_functionals(f, TriadicCube(level, off))[:d, :d]
                np.testing.assert_allclose(g_all[off], g_dense, rtol=0,
                                           atol=1e-12 * np.abs(g_dense).max())


def _merge_inputs(plan, n, seed, mode):
    """Stacks of ``n`` maps of each box of a merge ``plan``: Laplacians,
    as a merge's are; for a ``pinned`` merge (level -1's last stage and
    level 0's last merge),
    each box's carried forcings of two columns; and for merges that keep
    their factor (the Dirichlet solve's), each box's carried right-hand
    side and row sums: the row sums are a positive diagonal added to the
    maps, which makes them definite."""
    rng = np.random.default_rng(seed)
    maps, carried = [], []
    for c, r in enumerate(plan[2]):
        maps.append(_laplacian_stack(n, r.size, seed=10 * seed + c))
        if mode == "kept":
            extra = rng.uniform(0.1, 1.0, (n, r.size))
            maps[-1][:, range(r.size), range(r.size)] += extra
            carried.append((np.stack([rng.standard_normal((n, r.size)), extra], axis=-1), 0.0))
        elif mode == "pinned":
            carried.append((rng.standard_normal((n, r.size, 2)), 0.0))
    return maps, carried


@pytest.mark.parametrize("shape", [(1, 1), (3, 3), (1, 1, 1), (3, 3, 3)])
@pytest.mark.parametrize("mode", ["plain", "pinned", "kept"])
def test_condense_stack_gives_each_merge_alone(shape, mode):
    # what the stages and the content classes rest on: the merges of a
    # stage condensed in one call give, to the last bit, what each gives
    # condensed alone, a stack of one: its map, the carried forcing, g and
    # the pinned g and residual of the kernel's pin, and the Dirichlet solve's
    # kept factor. A stack with one map that is not finite raises, so its
    # stage fails as a whole (_run_stage)
    n = 4
    for stage, (merge, *_) in enumerate(_plan(shape, False)):
        maps, carried = _merge_inputs(merge, n, stage, mode)

        def condense(at, maps=maps):
            factor = [] if mode == "kept" else None
            made = cge.solver._condense([m[at].copy() for m in maps], merge,
                                        carried=[(f[at], g) for f, g in carried], kept=factor,
                                        pin=mode == "pinned")
            return (*made, *(factor or [None]))

        out, rest, g, pinned, res, factor = condense(slice(None))
        alone = [condense(slice(i, i + 1)) for i in range(n)]
        assert (pinned is None) == (mode != "pinned") and (factor is None) == (mode != "kept")
        if mode == "pinned":
            assert 0.0 < res < 1e-8 and res == max(one[4] for one in alone)
        else:
            assert math.isnan(res)
        for i, (one_out, one_rest, one_g, one_pinned, _, one_factor) in enumerate(alone):
            assert np.array_equal(out[i], one_out[0])
            if mode != "plain":
                assert np.array_equal(rest[i], one_rest[0])
            if mode == "pinned":
                assert np.array_equal(g[i], one_g[0])
                assert np.array_equal(pinned[i], one_pinned[0])
            if mode == "kept":
                w_b, panels, invs, w_f = factor
                one_w_b, one_panels, one_invs, one_w_f = one_factor
                assert np.array_equal(w_b[i], one_w_b[0]) and np.array_equal(w_f[i], one_w_f[0])
                assert len(panels) == len(one_panels) and len(invs) == len(one_invs)
                for x, y in zip(panels + invs, one_panels + one_invs):
                    assert np.array_equal(x[i], y[0])
        for value in (np.nan, np.inf):
            bad = [m.copy() for m in maps]
            bad[stage % 3][1, 0, -1] = value
            with pytest.raises(np.linalg.LinAlgError, match="^a map to merge is not finite$"):
                condense(slice(None), bad)


@pytest.mark.parametrize("shape", [(1, 1), (3, 3), (1, 1, 1), (3, 3, 3)])
def test_level_pins_each_cube_as_alone(monkeypatch, shape):
    # a level below -1 pins its cubes' maps once its last stage
    # has made them, by one stacked LU solve in the stage: each cube's g
    # and the level's residual are, to the last bit, those of the cube
    # condensed and pinned alone, which the content classes rely on. A box
    # that is not finite, or a failed LU solve, fails the whole stage: every
    # map and g of the level is NaN, named by the failure
    d, n, h = len(shape), 4, 1.0 / 27
    volume = (3.0 * shape[0] * h) ** d
    kids = _laplacian_stack(n * 3**d, _boundary_nodes(shape).size, seed=sum(shape))

    def level(kids):
        maps, _, _, _, _, g, stats = cge.solver._subtree_level(kids.copy(), None, shape, h, volume)
        return maps, g, stats

    maps, g, stats = level(kids)
    assert maps.shape[0] == g.shape[0] == n and stats.failure == ""
    alone = [level(kids[i * 3**d:(i + 1) * 3**d]) for i in range(n)]
    assert 0.0 < stats.residual < 1e-8
    assert stats.residual == max(one_stats.residual for _, _, one_stats in alone)
    for i, (one_maps, one_g, _) in enumerate(alone):
        assert np.array_equal(maps[i], one_maps[0]) and np.array_equal(g[i], one_g[0])
    # the oracle: the pinned map's y^T f, f the cube's gradient forcings
    cube = tuple(3 * s for s in shape)
    f = _forcings(cube, h)[_boundary_nodes(cube)][:-1]
    want = np.swapaxes(f, 0, 1) @ np.linalg.solve(maps[:, :-1, :-1], f) / volume
    np.testing.assert_allclose(g, want, rtol=0, atol=1e-12 * np.abs(want).max())
    bad = kids.copy()
    bad[5, 1, 0] = np.nan
    maps, g, stats = level(bad)
    assert np.isnan(maps).all() and np.isnan(g).all() and math.isnan(stats.residual)
    assert stats.failure == "dense condensation failed: a map to merge is not finite"

    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cge.solver.np.linalg, "solve", singular)
    maps, g, stats = level(kids)
    assert np.isnan(maps).all() and np.isnan(g).all()
    assert stats.failure == "dense condensation failed: Singular matrix"


def test_run_contract_runs_each_start_once(monkeypatch):
    # every run runs work on every start and returns nothing, but
    # _run_chunks, which returns the threads that took a job: at most one
    # a start and a core, the caller among them. _serial takes the starts
    # in order on the caller
    starts = range(2, 60, 3)
    seen = []
    assert cge.solver._serial(starts, seen.append) is None
    assert seen == list(starts)
    pool = ThreadPoolExecutor(3)
    monkeypatch.setattr(cge.solver, "_POOL", pool)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cores, jobs in [(1, starts), (4, starts), (4, range(2)), (4, range(0))]:
            monkeypatch.setattr(cge.solver.os, "sched_getaffinity",
                                lambda pid, cores=cores: set(range(cores)))
            taken = []

            def work(lo):
                taken.append((lo, threading.get_ident()))
                time.sleep(1e-4)  # lets the other threads take a job

            threads = cge.solver._run_chunks(jobs, work)
            assert type(threads) is int and threads <= min(len(jobs), cores)
            assert sorted(lo for lo, _ in taken) == list(jobs)
            assert threads == len({ident for _, ident in taken})
            if cores == 1:
                assert taken == [(lo, threading.get_ident()) for lo in jobs]
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown()


def test_more_threads_than_cores_take_each_subtree_once(monkeypatch):
    # the threads share one iterator over the 27 subtrees: a lost take
    # leaves a subtree out, a repeated one condenses its stages twice
    f = gen_random_spd(GridSpec(3, 3), seed=5, eig_low=1e-2, eig_high=1e2)
    whole = level_functionals(f)  # 1 cube of 27**3 cells, 27 of 9**3, 729 of 3**3
    taken, subtrees = [], []
    real_condense, real_elements = cge.solver._condense, cge.solver._element_matrices

    def spy(maps, *args, **kwargs):
        taken.append(maps[0].shape[0])  # the merges of one kernel call
        return real_condense(maps, *args, **kwargs)

    def spy_elements(cells, *args):
        subtrees.append(cells[0].tobytes())  # a subtree's first cell
        return real_elements(cells, *args)

    pool = ThreadPoolExecutor(4)
    monkeypatch.setattr(cge.solver, "_POOL", pool)
    monkeypatch.setattr(cge.solver, "_condense", spy)
    monkeypatch.setattr(cge.solver, "_element_matrices", spy_elements)
    monkeypatch.setattr(cge.solver.os, "sched_getaffinity", lambda pid: set(range(5)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = level_functionals(f)
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown()
    first = f.data.reshape(-1, f.data.shape[-1])[cge.solver._tree_order(3, 3)[::729]]
    assert sorted(subtrees) == sorted(cell.tobytes() for cell in first)
    # a cube of cells is one merge; a cube above it 13: 9, 3 and 1 along
    # the last, middle and first axis. A subtree runs each stage in one
    # call, for its 27 cubes of level -2 and then its cube of level -1;
    # level 0 then runs its 13 merges one a call
    assert [stats.merges for _, stats in out.values()] == [729, 27 * 13, 13]
    assert [stats.threads for _, stats in out.values()] == [5, 5, 5]
    assert sorted(taken) == sorted([27, 9, 3, 1] * 27 + [1] * 13)
    for level, (g_all, _) in out.items():
        assert np.array_equal(g_all, whole[level][0])


@pytest.mark.parametrize("d, n", [(2, 3), (3, 2)])
def test_residual_reported_on_high_contrast_field(d, n):
    f = gen_random_spd(GridSpec(d, n), seed=3, eig_low=1e-2, eig_high=1e2)
    for _, stats in level_functionals(f).values():
        assert 0.0 < stats.residual <= 1e-10


def test_linear_forcing_combines_functional_columns():
    g = GridSpec(2, 2)
    f = gen_random_spd(g, seed=17, eig_low=1e-2, eig_high=1e2)
    cube = TriadicCube(-1, (2, 1))
    gmat, stats = _cube_functionals(f, cube)
    assert stats.method == "condensation"
    q = np.array([0.7, -1.3])
    # the gradient forcing is linear in q: its optimum is q . g q
    _, value = _dense_maximizer(f, cube, q, "gradient")
    np.testing.assert_allclose(value, q @ gmat @ q, rtol=1e-12)
    # the flux maximizer is the affine q . x, which the sweep therefore
    # never solves: its optimum is q . avg(a) q
    u, value = _dense_maximizer(f, cube, q, "flux")
    np.testing.assert_allclose(value, q @ cube_average(f, cube) @ q, rtol=1e-12)
    x = _affine(g, cube, q)
    np.testing.assert_allclose(u, x, rtol=0, atol=1e-12 * np.abs(x).max())


@pytest.mark.parametrize("d, n", [(2, 2), (3, 2)])
def test_cross_functional_matrix_structure(d, n):
    f = gen_random_spd(GridSpec(d, n), seed=29)
    cube = TriadicCube(0, (0,) * d)
    gmat, _ = _cube_functionals(f, cube)
    assert gmat.shape == (d, d)
    np.testing.assert_allclose(gmat, gmat.T, atol=1e-9 * np.abs(gmat).max())
    # gradient Gram matrix is SPD
    assert np.linalg.eigvalsh(gmat).min() > 0
    # the dense solve of all 2d forcings: the flux maximizer is affine, so the
    # flux block is the cube average, the coarse layer's upper matrix, and the
    # flux functional of the gradient solution is avg(e_i . a grad u_j) = delta_ij
    g_dense = _dense_functionals(f, cube)
    avg = cube_average(f, cube)
    np.testing.assert_allclose(g_dense[d:, d:], avg, rtol=0, atol=1e-10 * np.abs(avg).max())
    np.testing.assert_allclose(g_dense[:d, d:], np.eye(d), rtol=0, atol=1e-10)
    np.testing.assert_allclose(g_dense[d:, :d], np.eye(d), rtol=0, atol=1e-10)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("m", [1, 3, 9])
def test_forcings_vanish_off_the_boundary(d, m):
    # the premise of the condensation pass: g needs the boundary map alone
    h = 1.0 / 27
    rhs = _forcings((m,) * d, h)
    assert _forcings((m,) * d, h) is rhs and not rhs.flags.writeable
    interior = np.setdiff1d(np.arange((m + 1) ** d), _boundary_nodes((m,) * d))
    assert interior.size == (m - 1) ** d
    assert np.all(rhs[interior] == 0.0)
    assert np.all(np.abs(rhs[_boundary_nodes((m,) * d)]).sum(axis=1) > 0)


BOXES = [(1,), (3,), (1, 1), (1, 3), (3, 1), (3, 9), (9, 3)]


@pytest.mark.parametrize("shape", BOXES, ids=str)
def test_box_forcings_vanish_off_the_box_boundary(shape):
    # the stages of the condensation pass merge boxes, not only cubes
    rhs = _forcings(shape, 1.0 / 27)
    nodes = np.indices([s + 1 for s in shape]).reshape(len(shape), -1).T
    on_boundary = ((nodes == 0) | (nodes == shape)).any(axis=1)
    assert np.array_equal(np.flatnonzero(on_boundary), _boundary_nodes(shape))
    assert np.all(rhs[~on_boundary] == 0.0)
    assert np.all(np.abs(rhs[on_boundary]).sum(axis=1) > 0)


def _inner(coords, shape):
    """Which nodes, at cube-grid ``coords`` ``(n, d)``, lie on a plane
    between two children of ``shape`` cells: the nodes two children share."""
    return ((coords % shape == 0) & (coords > 0) & (coords < np.multiply(3, shape))).any(axis=1)


def _child_boxes(shape, top):
    """The cube-grid coordinates of the nodes of each child's map, children
    of ``shape`` cells in C order of their offsets: its boundary nodes, in
    C order, and at level 0 (``top``) a level -1 cube's shared nodes alone
    (a cell lists all its nodes)."""
    d = len(shape)
    local = np.indices([s + 1 for s in shape]).reshape(d, -1).T[_boundary_nodes(shape)]
    boxes = [local + np.multiply(offset, shape) for offset in np.ndindex((3,) * d)]
    if top and max(shape) > 1:
        boxes = [box[_inner(box, shape)] for box in boxes]
    return boxes


def _replay(shape, top):
    """Every merge of ``_plan(shape, top)`` with the cube-grid coordinates
    of its boxes' nodes and of its skeleton's, rebuilt from the children's
    boxes (:func:`_child_boxes`) and the ranks alone: ``(stage, (size, k,
    ranks), boxes, skeleton)`` tuples. Every skeleton node is some box's
    node, and only once."""
    d = len(shape)
    boxes = _child_boxes(shape, top)
    out = []
    for stage, merges in enumerate(_plan(shape, top)):
        width, parents = len(merges[0][2]), []
        assert len(merges) * width == len(boxes)
        for j, (size, k, ranks) in enumerate(merges):
            group = boxes[width * j:width * (j + 1)]
            skeleton = np.full((size, d), -1)
            for r, coords in zip(ranks, group):
                seen = (skeleton[r] >= 0).all(axis=1)  # a node two boxes share is one point
                assert np.array_equal(skeleton[r][seen], coords[seen])
                skeleton[r] = coords
            assert np.all(skeleton >= 0)
            assert len({tuple(c) for c in skeleton}) == size
            out.append((stage, (size, k, ranks), group, skeleton))
            parents.append(skeleton[k:])
        boxes = parents
    return out


def _stage(shape, axis):
    """The replayed merges of boxes of ``shape`` cells along ``axis`` below
    level 0, or of cells along every axis at once (``axis`` None): a stage
    of the plan of the cubes they are part of."""
    if axis is None:
        return [merge[1:] for merge in _replay(shape, False)]
    child = tuple(s // 3 if a > axis else s for a, s in enumerate(shape))
    return [merge[1:] for merge in _replay(child, False) if merge[0] == len(shape) - 1 - axis]


#: Merges of 3 boxes along one axis: a cube's cells in 1D, larger boxes in
#: any dimension
MERGES = [((1,), 0), ((3,), 0), ((3, 3), 1), ((3, 9), 0), ((3, 3, 3), 2), ((3, 9, 9), 0)]


@pytest.mark.parametrize("shape, axis", MERGES, ids=str)
def test_merge_puts_every_child_boundary_node_on_the_skeleton(shape, axis):
    # below level 0 every child boundary node lands on its merge's skeleton
    # once (_replay), and a merge keeps the boundary of the box it makes,
    # as that box's map lists it; it eliminates the interface nodes off it
    parent = shape[:axis] + (3 * shape[axis],) + shape[axis + 1:]
    merges = _stage(shape, axis)
    assert len(merges) == 3**axis  # the merges along axis a of one cube
    for (size, k, _), boxes, skeleton in merges:
        assert all(tuple(box.max(axis=0) - box.min(axis=0)) == shape for box in boxes)
        lo = skeleton.min(axis=0)
        assert tuple(skeleton.max(axis=0) - lo) == parent
        flat = np.ravel_multi_index(tuple((skeleton - lo).T), [s + 1 for s in parent])
        assert np.array_equal(flat[k:], _boundary_nodes(parent))
        inner = skeleton[:k] - lo
        assert np.all(np.diff(flat[:k]) > 0)
        assert np.all((inner > 0) & (inner < parent))
        assert set(inner[:, axis]) <= {shape[axis], 2 * shape[axis]}
        assert k == 2 * np.prod([s - 1 for s in np.delete(parent, axis)])


@pytest.mark.parametrize("shape, axis", MERGES + [((1, 1), None), ((1, 1, 1), None)], ids=str)
def test_merged_forcings_sum_to_the_parents(shape, axis):
    # each box's forcing summed onto the skeleton: the eliminated interface
    # rows cancel and the kept rows are the merged box's forcing; cells
    # merge along every axis at once
    h = 1.0 / 27
    parent = tuple(3 * s if axis in (None, a) else s for a, s in enumerate(shape))
    for (size, k, ranks), _, _ in _stage(shape, axis):
        total = np.zeros((size, len(shape)))
        for r in ranks:
            total[r] += _forcings(shape, h)[_boundary_nodes(shape)]
        np.testing.assert_allclose(total[:k], 0.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(total[k:], _forcings(parent, h)[_boundary_nodes(parent)],
                                   rtol=0, atol=1e-15)


@pytest.mark.parametrize("shape", [(1,), (3,), (1, 3), (3, 9), (1, 1, 1)], ids=str)
def test_level_zero_boxes_split_the_skeleton(shape):
    # level 0 keeps only shared nodes, in d stages, or in one for cells:
    # every node of its children's boxes (a cell's every node, a level -1
    # cube's shared nodes) is eliminated once, by the first merge whose
    # boxes of the next stage do not share it, and the last merge, which
    # keeps none, solves for them all
    d = len(shape)
    merges = _replay(shape, True)
    stages = d if max(shape) > 1 else 1
    assert len(_plan(shape, True)) == stages
    assert [stage for stage, *_ in merges] == [
        stage for stage in range(stages) for _ in range(3 ** (stages - 1 - stage))]
    gone = []
    for stage, (size, k, _), _, skeleton in merges:
        # kept: on an interface plane across one of the first `axes` axes
        axes = stages - 1 - stage
        planes = (skeleton % shape == 0) & (skeleton > 0) & (skeleton < np.multiply(3, shape))
        kept = planes[:, :axes].any(axis=1)
        assert not kept[:k].any() and kept[k:].all()
        gone += [tuple(c) for c in skeleton[:k]]
    assert merges[-1][1][1] == merges[-1][1][0]
    every = {tuple(c) for box in _child_boxes(shape, True) for c in box}
    assert len(gone) == len(set(gone)) and set(gone) == every


@pytest.mark.parametrize("shape", [(1,), (3,), (1, 1), (3, 3), (1, 1, 1)], ids=str)
def test_level_minus_one_keeps_the_nodes_level_zero_shares(shape):
    # level -1's last stage, given its cube's index among level 0's
    # children, merges the skeleton of the plan without one and keeps, in
    # C order, only the cube's boundary nodes that another child shares:
    # the nodes of the cube's box in level 0's plan. It eliminates the
    # interior and the nodes no other child has at once; the stages before
    # it are the plan's own, merge for merge
    d = len(shape)
    cube = tuple(3 * s for s in shape)
    base = _plan(shape, False)
    [(_, (size, k, _), boxes, skeleton)] = [
        m for m in _replay(shape, False) if m[0] == len(base) - 1]
    top = _child_boxes(cube, True)
    _replay(cube, True)  # level 0's plan takes those boxes
    for child, offset in enumerate(np.ndindex((3,) * d)):
        *rest, ((size_c, k_c, ranks),) = _plan(shape, False, child)
        assert size_c == size and len(rest) == len(base) - 1
        for stage, other in zip(rest, base):
            assert [merge[:2] for merge in stage] == [merge[:2] for merge in other]
            assert all(np.array_equal(r, o) for merge, twin in zip(stage, other)
                       for r, o in zip(merge[2], twin[2]))
        placed = np.full((size, d), -1)
        for r, coords in zip(ranks, boxes):
            placed[r] = coords
        assert {tuple(c) for c in placed} == {tuple(c) for c in skeleton}
        assert np.array_equal(placed[k_c:] + np.multiply(offset, cube), top[child])
        flat = np.ravel_multi_index(tuple(placed[k_c:].T), [s + 1 for s in cube])
        assert np.all(np.diff(flat) > 0)  # C order
        assert 0 < size - k_c <= size - k  # the centre child keeps the whole boundary


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 3, 9])
def test_every_merge_eliminates_and_cells_merge_at_once(d, m):
    # no merge of any plan, level 0's or below it, for any child of level
    # 0, keeps all its nodes, so the kernel never eliminates nothing. A
    # cube of cells is one merge of its 3**d cells onto its 4**d node grid:
    # below level 0 it eliminates the 2**d interior nodes, listed first,
    # and keeps the rest, each in C order; at level 0 it keeps none
    shape = (m,) * d
    plans = [_plan(shape, True)] + [_plan(shape, False, child)
                                    for child in [None, *range(3**d)]]
    assert all(0 < k for plan in plans for merges in plan for _, k, _ in merges)
    if m > 1:
        return
    for plan in plans:
        [[(size, k, ranks)]] = plan
        assert size == 4**d and len(ranks) == 3**d
    [[(size, k, ranks)]] = _plan(shape, False)
    [[(_, k_top, ranks_top)]] = _plan(shape, True)
    assert k == 2**d and k_top == size
    cell = np.indices((2,) * d).reshape(d, -1).T  # a cell's nodes, as its map lists them
    grid = np.indices((4,) * d).reshape(d, -1).T  # C order
    interior = ((grid > 0) & (grid < 3)).all(axis=1)
    for ranks, want in [(ranks, np.concatenate([grid[interior], grid[~interior]])),
                        (ranks_top, grid)]:
        skeleton = np.full((size, d), -1)
        for r, offset in zip(ranks, np.ndindex((3,) * d)):
            skeleton[r] = cell + offset
        assert np.array_equal(skeleton, want)


def _laplacian_stack(n, size, seed):
    """``n`` weighted graph Laplacians on ``size`` nodes, couplings in
    [0.2, 2]: symmetric, rows summing to zero, every proper principal block
    positive definite, as a merge's skeleton is."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 1.0, (n, size, size))
    w = w + np.swapaxes(w, -1, -2)
    diag = np.arange(size)
    w[:, diag, diag] = 0.0
    w[:, diag, diag] = -w.sum(axis=-1)
    return -w


def _dense_schur(mat, k, forcing):
    """The oracle of ``_eliminate``: ``(S, f_b - A_bk A_kk^-1 f_k, f_k^T
    A_kk^-1 f_k)`` by one dense solve per matrix."""
    a_kb, f_k = mat[:, :k, k:], np.broadcast_to(forcing[:k], (mat.shape[0], k, forcing.shape[1]))
    x = np.linalg.solve(mat[:, :k, :k], np.concatenate([a_kb, f_k], axis=-1))
    n = mat.shape[-1] - k
    a_bk = np.swapaxes(a_kb, -1, -2)
    return (mat[:, k:, k:] - a_bk @ x[..., :n], forcing[k:] - a_bk @ x[..., n:],
            np.swapaxes(f_k, -1, -2) @ x[..., n:])


BLOCK = cge.solver._BLOCK


@pytest.mark.parametrize("k", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 5])
@pytest.mark.parametrize("n", [2, 3])
def test_eliminate_matches_dense_schur_oracle(n, k):
    # around and across the forward substitution's block edges, on stacks:
    # the Schur complement, the carried forcing and f^T A^-1 f to 1e-12 of
    # the oracle's largest entry, with and without a forcing
    mat = _laplacian_stack(n, k + 17, seed=k + n)
    forcing = np.random.default_rng(k).standard_normal((k + 17, 2))
    want = _dense_schur(mat, k, forcing)
    schur, rest, own = cge.solver._eliminate(mat.copy(), k, forcing)
    for got, oracle in zip((schur, rest, own), want):
        assert got.shape == oracle.shape
        np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-12 * np.abs(oracle).max())
    assert np.array_equal(own, np.swapaxes(own, -1, -2))
    assert np.array_equal(schur, np.swapaxes(schur, -1, -2))
    alone = mat.copy()
    np.testing.assert_allclose(cge.solver._eliminate(alone, k), want[0], rtol=0,
                               atol=1e-12 * np.abs(want[0]).max())


def test_eliminate_indefinite_block_raises():
    # a block that is not positive definite fails the whole stack, which
    # the pass turns into a NaN stage
    mat = _laplacian_stack(3, 20, seed=1)
    mat[1, 4, 4] = -1.0
    with pytest.raises(np.linalg.LinAlgError):
        cge.solver._eliminate(mat, 8, np.ones((20, 2)))


BAND = cge.solver._BAND


def _last_first(starts, work):
    """A ``run`` that takes the jobs in reverse order, on the caller."""
    for lo in reversed(starts):
        work(lo)


@pytest.mark.parametrize("k", [1, BLOCK - 1, BLOCK + 1, 2 * BLOCK + 5, BAND - 1, BAND + 1,
                               BAND + BLOCK + 1])
@pytest.mark.parametrize("n", [1, 3])
def test_cholesky_matches_numpy_at_block_and_band_edges(n, k):
    # around the block edges and the panel's band edges, on stacks: the
    # factor in the lower triangle, the diagonal blocks' inverses, the
    # strict upper triangle outside the diagonal blocks untouched, and what
    # the last merge computes from them
    a = _laplacian_stack(n, k + 1, seed=k + n)[:, :-1, :-1].copy()  # pinned: positive definite
    got = a.copy()
    invs = cge.solver._cholesky(got)
    want = np.linalg.cholesky(a)
    np.testing.assert_allclose(np.tril(got), want, rtol=0, atol=1e-12 * np.abs(want).max())
    starts = range(0, k, BLOCK)
    assert len(invs) == len(starts)
    for lo, inv in zip(starts, invs):
        hi = min(lo + BLOCK, k)
        assert np.array_equal(got[:, lo:hi, hi:], a[:, lo:hi, hi:])
        assert not np.triu(got[:, lo:hi, lo:hi], 1).any()
        np.testing.assert_allclose(inv @ got[:, lo:hi, lo:hi], np.broadcast_to(
            np.eye(hi - lo), inv.shape), rtol=0, atol=1e-12)
    # W = L^-1 f, y = L^-T W solves a y = f; a y read from the upper
    # triangle and copies of the diagonal blocks taken before the factoring
    f = np.random.default_rng(k).standard_normal((n, k, 2))
    w = cge.solver._lower_solve(got, invs, f.copy())
    np.testing.assert_allclose(np.swapaxes(w, -1, -2) @ w,
                               np.swapaxes(f, -1, -2) @ np.linalg.solve(a, f), rtol=1e-12)
    y = cge.solver._back_solve(cge.solver._panels(got), invs, w.copy())
    np.testing.assert_allclose(a @ y, f, rtol=0, atol=1e-10 * np.abs(f).max())
    blocks = [a[:, lo:lo + BLOCK, lo:lo + BLOCK].copy() for lo in starts]
    np.testing.assert_allclose(cge.solver._upper_times(got, blocks, y), a @ y, rtol=0,
                               atol=1e-12 * np.abs(a @ y).max())


def test_band_schedule_leaves_the_kernel_bit_identical(monkeypatch):
    # each band is a job of its own, so bands taken in order on the caller,
    # last first, or by two threads give the same factor and the same
    # elimination to the last bit
    k, kept = 2 * BAND + 5, 2 * BAND + 7
    a = _laplacian_stack(3, k + 1, seed=1)[:, :-1, :-1].copy()  # pinned: positive definite
    mat = _laplacian_stack(2, k + kept, seed=2)
    forcing = np.random.default_rng(3).standard_normal((k + kept, 2))
    pool = ThreadPoolExecutor(1)
    monkeypatch.setattr(cge.solver, "_POOL", pool)
    monkeypatch.setattr(cge.solver.os, "sched_getaffinity", lambda pid: {0, 1})
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    runs = []
    try:
        for run in (cge.solver._serial, _last_first, cge.solver._run_chunks):
            factor = a.copy()
            invs = cge.solver._cholesky(factor, run)
            runs.append([factor, *invs, *cge.solver._eliminate(mat.copy(), k, forcing, run)])
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown()
    for other in runs[1:]:
        assert all(np.array_equal(x, y) for x, y in zip(runs[0], other))


@pytest.mark.parametrize("k", [1, BLOCK + 1])
@pytest.mark.parametrize("n", [1, 3])
def test_banded_schur_update_is_symmetric_with_zero_row_sums(n, k):
    # kept nodes across several bands: each band updates its rows' lower
    # triangle and mirrors it, and the diagonal is taken from the rows
    kept = 2 * BAND + 7
    mat = _laplacian_stack(n, k + kept, seed=k + n)
    schur = cge.solver._eliminate(mat.copy(), k)
    want = _dense_schur(mat, k, np.zeros((k + kept, 1)))[0]
    np.testing.assert_allclose(schur, want, rtol=0, atol=1e-12 * np.abs(want).max())
    assert np.array_equal(schur, np.swapaxes(schur, -1, -2))
    assert np.abs(schur.sum(axis=-1)).max() <= 1e-12 * np.abs(schur).max()


@pytest.mark.parametrize("d, n", [(2, 2), (2, 3), (3, 2)])
def test_last_merge_matches_dense_oracle(monkeypatch, d, n):
    # level 0's last merge factors its pinned skeleton in place: g gains
    # W^T W, exactly symmetric, and the residual of y = L^-T W is read
    # against the S that the factorization leaves
    f = gen_random_spd(GridSpec(d, n), seed=13, eig_low=1e-2, eig_high=1e2)
    cube = TriadicCube(0, (0,) * d)
    g_all, stats = level_functionals(f)[0]
    want = _dense_functionals(f, cube)[:d, :d]
    np.testing.assert_allclose(g_all[cube.offset], want, rtol=0, atol=1e-12 * np.abs(want).max())
    assert np.array_equal(g_all, np.swapaxes(g_all, -1, -2))
    assert 0.0 < stats.residual <= 1e-12
    # a y off by 1e-8 of its largest entry shows in the residual
    real = cge.solver._back_solve

    def off(panels, invs, rhs):
        y = real(panels, invs, rhs)
        y[:, 0] += 1e-8 * np.abs(y).max()
        return y

    monkeypatch.setattr(cge.solver, "_back_solve", off)
    _, bad = level_functionals(f)[0]
    assert bad.residual > 1e-10


def test_level_zero_merges_hold_one_working_store(monkeypatch):
    # 3D N=3, one core: the middle slab's merge holds at most its skeleton,
    # its kept block and one band of the skeleton's rows at once, and so
    # does each strip; the last merge, in place on its middle box's map,
    # one band: no update temporary, no copy of A_kb or of the pinned map,
    # and no skeleton that a box lends. No input box outlives its summing:
    # when the last merge factors, its first and third slabs are freed
    f = gen_random_spd(GridSpec(3, 3), seed=1, eig_low=1e-2, eig_high=1e2)
    stages = _plan((9, 9, 9), True)
    middle, last = stages[1][1], stages[2][0]
    real, peaks, strips, slabs = cge.solver._condense, {}, [], []

    def spy(maps, plan, *args, **kwargs):
        strip = any(plan is merge for merge in stages[0])
        if plan is not middle and plan is not last and not strip:
            return real(maps, plan, *args, **kwargs)
        if plan is last:
            slabs.extend(weakref.ref(box) for box in maps)
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = real(maps, plan, *args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - base
        if strip:
            strips.append((plan[0], plan[1], peak))
        else:
            peaks[plan[:2]] = peak
        return out

    solves, real_solve = [], np.linalg.solve
    alive, real_cholesky = [], cge.solver._cholesky

    def spy_solve(a, b):
        solves.append(a.shape)
        return real_solve(a, b)

    def spy_cholesky(a, *args):
        if slabs and a.shape[-1] == last[0] - 1:  # the last merge's pinned skeleton
            alive.append([slab() is not None for slab in slabs])
        return real_cholesky(a, *args)

    monkeypatch.setattr(cge.solver, "_condense", spy)
    monkeypatch.setattr(cge.solver, "_cholesky", spy_cholesky)
    monkeypatch.setattr(np.linalg, "solve", spy_solve)
    monkeypatch.setattr(cge.solver.os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(cge.solver, "_POOL", None)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        level_functionals(f)
    finally:
        if not tracing:
            tracemalloc.stop()
    (size, k), (top, _) = middle[:2], last[:2]
    assert (size, k, top) == (2016, 448, 1568)
    assert peaks[middle[:2]] < 8 * (size**2 + (size - k) ** 2 + BAND * size)
    assert peaks[last[:2]] < 8 * BAND * top
    assert len(strips) == 9
    assert all(peak < 8 * (size**2 + (size - k) ** 2 + BAND * size) for size, k, peak in strips)
    assert alive == [[False, True, False]]  # the middle slab is the skeleton
    # LAPACK's copies are not traced: the pass's LU solves pin level -2's
    # maps of 56 nodes alone, and none copies the last merge's pinned map
    assert {shape[-1] for shape in solves} == {55}


def _condensed_levels(f):
    """Every solved level's ``g_all`` from one condensation pass."""
    out = level_functionals(f)
    assert all(stats.method == "condensation" and stats.residual <= 1e-10
               for _, stats in out.values())
    return {level: g_all for level, (g_all, _) in out.items()}


@pytest.mark.parametrize("f", [
    gen_random_spd(GridSpec(2, 4), seed=1, eig_low=1e-2, eig_high=1e2),
    gen_cantor_field(GridSpec(2, 4), CantorParams(4)),
    gen_cascade_field(GridSpec(2, 4), CascadeParams(0.5, 4, 1)),
], ids=["random", "cantor", "cascade"])
def test_condensation_matches_sparse_engine(f):
    # every cube of every solved level against a sparse direct solve,
    # relative to the cube's largest entry
    for level, g_all in _condensed_levels(f).items():
        for off in np.ndindex(g_all.shape[:2]):
            want = _sparse_functionals(f, TriadicCube(level, off))
            assert np.all(np.abs(g_all[off] - want) <= 1e-10 * np.abs(want).max()), (level, off)


@pytest.mark.parametrize("d, n", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)])
def test_condensation_matches_dense_oracle(d, n):
    f = gen_random_spd(GridSpec(d, n), seed=13, eig_low=0.1, eig_high=10.0)
    for level, g_all in _condensed_levels(f).items():
        assert g_all.shape == (3 ** -level,) * d + (d, d)
        for off in np.ndindex(g_all.shape[:d]):
            g_dense = _dense_functionals(f, TriadicCube(level, off))[:d, :d]
            np.testing.assert_allclose(g_all[off], g_dense, rtol=0,
                                       atol=1e-12 * np.abs(g_dense).max())


@pytest.mark.parametrize("eig_low, rtol", [(1e-2, 2e-12), (1e-3, 1e-10)])
def test_condensation_1d_closed_form(eig_low, rtol):
    # in 1D the minimizer is exact: g is the block mean of 1/a. Measured
    # worst relative errors over seeds 1-3 at N=6: 2.0e-13 at contrast 1e4,
    # 7.3e-12 at contrast 1e6 (each level's diagonal is taken from its row
    # sums; subtracted directly, the latter was 2.7e-8)
    f = gen_random_spd(GridSpec(1, 6), seed=1, eig_low=eig_low, eig_high=1.0 / eig_low)
    for level, g_all in _condensed_levels(f).items():
        want = block_reduce(1.0 / f.data, 1, 3 ** (6 + level))
        np.testing.assert_allclose(g_all[..., 0], want, rtol=rtol, atol=0)


@pytest.mark.parametrize("d, n", [(1, 5), (2, 4), (3, 3), (2, 1), (3, 1)])
def test_condensation_cores_leave_functionals_bit_identical(monkeypatch, d, n):
    # every merge is eliminated alone and a band's rows do not depend on
    # the cores: one core and two agree to the last bit (an N=1 grid's
    # subtrees are its cells)
    f = gen_random_spd(GridSpec(d, n), seed=11, eig_low=1e-2, eig_high=1e2)
    runs = []
    for cores in (1, 2):
        monkeypatch.setattr(cge.solver.os, "sched_getaffinity", lambda pid: set(range(cores)))
        monkeypatch.setattr(cge.solver, "_POOL", None)
        try:
            out = level_functionals(f)
        finally:
            if cge.solver._POOL is not None:
                cge.solver._POOL.shutdown()
        runs.append(out)
    one, two = runs
    assert [stats.threads for _, stats in one.values()] == [1] * n
    for level, (g_all, stats) in two.items():
        assert np.array_equal(g_all, one[level][0])
        assert stats.residual == one[level][1].residual


def test_pass_holds_one_subtree_at_a_time(monkeypatch):
    # depth first, a pass holds the maps of one level -1 subtree a thread
    # and level 0's reduced boxes: on one core a 2D N=5 pass traced a peak
    # of 10.0-11.6 MiB, where holding every level's maps at once took
    # 22.7-24.3 MiB (the lower figures with the plans already cached)
    f = gen_random_spd(GridSpec(2, 5), seed=1, eig_low=1e-2, eig_high=1e2)
    monkeypatch.setattr(cge.solver.os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(cge.solver, "_POOL", None)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = level_functionals(f)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert sorted(out) == [-4, -3, -2, -1, 0]
    assert peak < 16 * 2**20


def test_failed_solve_is_nan_and_named_at_its_level_and_above(monkeypatch):
    # a failed dense solve is data, not an error: its cubes and the cubes
    # that contain them are NaN, and every level from its own up names it
    f = gen_random_spd(GridSpec(2, 3), seed=1, eig_low=1e-2, eig_high=1e2)
    clean = level_functionals(f)
    real = cge.solver._eliminate

    def fail_level_minus_one(mat, *args):
        # level -1's last stage, one merge a subtree: strips of 3x9 cells
        # onto skeletons of 52 nodes
        if mat.shape[-1] == 52:
            raise np.linalg.LinAlgError("Singular matrix")
        return real(mat, *args)

    monkeypatch.setattr(cge.solver, "_eliminate", fail_level_minus_one)
    out = level_functionals(f)
    assert sorted(out) == [-2, -1, 0]
    assert all(isinstance(v, tuple) for v in out.values())
    g_all, stats = out[-2]
    assert stats.failure == ""
    assert np.array_equal(g_all, clean[-2][0])
    for level in (-1, 0):
        g_all, stats = out[level]
        assert np.isnan(g_all).all()
        assert stats.failure == "dense condensation failed: Singular matrix"
        assert "failure" not in stats.to_dict()


@pytest.mark.parametrize("d, n", [(1, 4), (2, 3)])
def test_condensation_top_below_level_zero(d, n):
    # every level below 0 is one of many cubes: the pass forms their maps,
    # whose pinned solves give g, each against the dense reference solve
    f = gen_random_spd(GridSpec(d, n), seed=13, eig_low=0.1, eig_high=10.0)
    out = level_functionals(f)
    for level in range(-1, -n, -1):
        g_all, stats = out[level]
        assert stats.method == "condensation" and stats.residual <= 1e-10
        for off in np.ndindex(g_all.shape[:d]):
            g_dense = _dense_functionals(f, TriadicCube(level, off))[:d, :d]
            np.testing.assert_allclose(g_all[off], g_dense, rtol=0,
                                       atol=1e-12 * np.abs(g_dense).max())


@pytest.mark.parametrize("d, n", [(2, 4), (3, 3)])
@pytest.mark.parametrize("kind", ["random", "cascade"])
def test_level_minus_one_does_not_depend_on_level_zero(monkeypatch, d, n, kind):
    # level -1's g is its last stage's carried W_f^T W_f and the pinned
    # solve of the box it makes, done before level 0 runs: when every one of
    # level 0's eliminations fails, level 0 is NaN and names it, and every
    # level below keeps the bits of a clean pass
    grid = GridSpec(d, n)
    f = (gen_random_spd(grid, seed=1, eig_low=1e-2, eig_high=1e2) if kind == "random"
         else gen_cascade_field(grid, CascadeParams(0.5, n, 1)))
    clean = level_functionals(f)
    real = cge.solver._eliminate

    def fail_level_zero(mat, k, forcing=None, run=cge.solver._serial, kept=None):
        if run is cge.solver._run_chunks:  # level 0's merges alone run on every core
            raise np.linalg.LinAlgError("Singular matrix")
        return real(mat, k, forcing, run, kept)

    monkeypatch.setattr(cge.solver, "_eliminate", fail_level_zero)
    out = level_functionals(f)
    assert sorted(out) == sorted(clean)
    g_all, stats = out[0]
    assert np.isnan(g_all).all()
    assert stats.failure == "dense condensation failed: Singular matrix"
    for level in range(-1, -n, -1):
        g_all, stats = out[level]
        assert np.isfinite(g_all).all() and stats.failure == ""
        assert np.array_equal(g_all, clean[level][0])
        assert stats.residual == clean[level][1].residual <= 1e-10


@pytest.mark.parametrize("d, n, kind", [
    (1, 2, "random"), (1, 3, "random"), (2, 2, "random"), (2, 3, "random"), (3, 2, "random"),
    (2, 3, "laminate"), (3, 2, "laminate")])
def test_level_minus_one_matches_dense_oracle(d, n, kind):
    # every level -1 cube's g, from its last stage, which eliminates the
    # interior and the nodes no other child of level 0 has (none at the
    # centre child) and pins the rest, against the dense reference solve of
    # the cube; a laminate at contrast 1e4 too
    grid = GridSpec(d, n)
    f = (gen_random_spd(grid, seed=5, eig_low=1e-2, eig_high=1e2) if kind == "random"
         else gen_laminate(grid, d - 1, [1.0, 1e4, 3.0]))
    g_all, stats = level_functionals(f)[-1]
    # in 1D a reduced box has one or two nodes, whose pinned solve can be exact
    assert (0.0 < stats.residual or d == 1) and stats.residual <= 1e-12
    for off in np.ndindex(g_all.shape[:d]):
        want = _dense_functionals(f, TriadicCube(-1, off))[:d, :d]
        np.testing.assert_allclose(g_all[off], want, rtol=0, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("error, why", [
    (np.linalg.LinAlgError("Matrix is not positive definite"), "failed"),
    (MemoryError("Unable to allocate 1.5 MiB"), "ran out of memory"),
])
def test_failed_pinned_last_stage_is_nan_at_level_minus_one_and_zero(monkeypatch, error, why):
    # level -1's last stage, with its pinned solve, gives level -1's g and
    # level 0's box: when it fails, or finds no memory, that cube is NaN at
    # level -1, level 0 is NaN, both name it, and the other cubes and
    # levels keep their numbers
    f = gen_random_spd(GridSpec(2, 3), seed=1, eig_low=1e-2, eig_high=1e2)
    clean = level_functionals(f)
    real, calls = cge.solver._condense, []

    def fail_one(maps, plan, *args, **kwargs):
        if kwargs.get("pin") and not calls:  # the first subtree's, on one core
            calls.append(plan)
            raise error
        return real(maps, plan, *args, **kwargs)

    monkeypatch.setattr(cge.solver.os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(cge.solver, "_POOL", None)
    monkeypatch.setattr(cge.solver, "_condense", fail_one)
    out = level_functionals(f)
    assert len(calls) == 1
    assert np.array_equal(out[-2][0], clean[-2][0]) and out[-2][1].failure == ""
    message = f"dense condensation {why}: {error}"
    g_all, stats = out[-1]
    bad = ~np.isfinite(g_all).all(axis=(-2, -1))
    assert [tuple(off) for off in np.argwhere(bad)] == [(0, 0)]  # the first subtree's cube
    assert np.array_equal(g_all[~bad], clean[-1][0][~bad])
    assert stats.failure == message
    assert stats.subtree_failures == (message,) + ("",) * 8
    assert out[-2][1].subtree_failures == ("",) * 9
    g_all, stats = out[0]
    assert np.isnan(g_all).all() and stats.failure == message


def test_nan_level_minus_one_cube_is_nan_at_level_zero_and_named(monkeypatch):
    # a level -1 map made NaN by its last stage's failed merge: the stage
    # hands level 0 no box, so level -1's g of that cube and level 0's are
    # NaN, and both levels name the first failure, the failed merge's
    f = gen_random_spd(GridSpec(3, 2), seed=3, eig_low=1e-2, eig_high=1e2)
    clean = level_functionals(f)
    real, calls = cge.solver._eliminate, []
    last = _plan((1, 1, 1), False)[-1][0][0]  # level -1's last stage: one merge a cube

    def fail_once(mat, *args):
        if mat.shape[-1] == last and not calls:
            calls.append(mat.shape)
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return real(mat, *args)

    monkeypatch.setattr(cge.solver.os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(cge.solver, "_POOL", None)
    monkeypatch.setattr(cge.solver, "_eliminate", fail_once)
    out = level_functionals(f)
    message = "dense condensation failed: Matrix is not positive definite"
    g_all, stats = out[-1]
    bad = ~np.isfinite(g_all).all(axis=(-2, -1))
    assert [tuple(off) for off in np.argwhere(bad)] == [(0, 0, 0)]
    assert np.isnan(g_all[0, 0, 0]).all()
    assert np.array_equal(g_all[~bad], clean[-1][0][~bad])
    assert stats.failure == message
    assert np.isnan(out[0][0]).all() and out[0][1].failure == message


def test_single_cube_failed_solve_is_nan(monkeypatch):
    def fail(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cge.solver, "_eliminate", fail)
    g, stats = level_functionals(gen_random_spd(GridSpec(2, 2), seed=1))[0]
    assert g.shape == (1, 1, 2, 2) and np.isnan(g).all()
    assert stats.failure == "dense condensation failed: Singular matrix"


@pytest.mark.parametrize("d, n", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (2, 3), (3, 2)])
def test_functionals_are_every_solved_level(d, n):
    # levels 1-N..0, from the cells up, and nothing else: level -N, the
    # cells, needs no solve, so an N=1 grid's one level is 0
    out = level_functionals(gen_random_spd(GridSpec(d, n), seed=1))
    assert list(out) == list(range(1 - n, 1))
    for level, (g_all, stats) in out.items():
        assert g_all.shape == (3 ** -level,) * d + (d, d)
        assert np.isfinite(g_all).all() and stats.failure == ""


def test_axis_permutation_permutes_functionals():
    # permuting the field's axes permutes every cube's g the same way: a
    # symmetry identity of the whole pass, each level against its image
    perm = (2, 0, 1)
    f = gen_random_spd(GridSpec(3, 3), seed=1, eig_low=1e-2, eig_high=1e2)
    full = np.transpose(sym_unpack(f.data, 3), perm + (3, 4))[..., perm, :][..., perm]
    image = CoefficientField(f.grid, full[..., [i for i, _ in sym_index_pairs(3)],
                                          [j for _, j in sym_index_pairs(3)]])
    base, moved = (level_functionals(field) for field in (f, image))
    for level, (g_all, _) in base.items():
        want = np.transpose(g_all, perm + (3, 4))[..., perm, :][..., perm]
        scale = np.abs(want).max(axis=(-2, -1), keepdims=True)
        assert np.all(np.abs(moved[level][0] - want) <= 1e-10 * scale), level


def test_3d_laminate_closed_form():
    # across the layers the maximizer is piecewise affine, exact in Q1: g
    # there is the block mean of 1/a, uncoupled from the other directions
    grid, axis = GridSpec(3, 3), 1
    values = np.exp(np.random.default_rng(3).uniform(-3.0, 3.0, 27))  # one layer a cell
    f = gen_laminate(grid, axis, values)
    inv = 1.0 / f.data[..., 0]
    for level, (g_all, _) in level_functionals(f).items():
        want = block_reduce(inv, 3, 3 ** (3 + level))
        np.testing.assert_allclose(g_all[..., axis, axis], want, rtol=1e-11, atol=0)
        others = np.delete(g_all[..., axis, :], axis, axis=-1)
        assert np.all(np.abs(others) <= 1e-11 * g_all[..., axis, axis, None])


def test_galerkin_optimality_one_sided():
    g = GridSpec(2, 2)
    f = gen_random_spd(g, seed=31)
    gmat, _ = _cube_functionals(f, FULL)
    rng = np.random.default_rng(0)
    for kind, direction in (("gradient", [0.3, -1.2]), ("flux", [1.0, 0.4])):
        _, best = _dense_maximizer(f, FULL, direction, kind)
        if kind == "gradient":
            assert best == pytest.approx(np.asarray(direction) @ gmat @ direction, rel=1e-12)
        for _ in range(5):
            trial = rng.standard_normal(g.node_shape).ravel()
            assert _functional_value(f, FULL, trial, direction, kind) <= best + 1e-9 * abs(best)


# ---------------------------------------------------------------------------
# Dirichlet solves
# ---------------------------------------------------------------------------

def test_fv_dirichlet_affine_exact():
    g = GridSpec(2, 2)
    f = gen_constant(g, np.eye(2))
    u, stats = solve_dirichlet(f, FULL, lambda x, y: x)
    xc, _ = np.meshgrid(g.axis_cell_centers(), g.axis_cell_centers(), indexing="ij")
    assert np.abs(u.data - xc).max() < 1e-9
    assert stats.method == "fv-condensation"


def test_fv_dirichlet_constant_boundary():
    g = GridSpec(2, 2)
    f = gen_random_spd(g, seed=37, eig_low=0.5, eig_high=2.0)
    diag = np.zeros(g.cell_shape + (3,))
    diag[..., 0] = f.data[..., 0]
    diag[..., 2] = f.data[..., 2]
    from cge.grid import CoefficientField

    fdiag = CoefficientField(g, diag)
    u, _ = solve_dirichlet(fdiag, FULL, lambda x, y: np.full_like(x, 5.0))
    np.testing.assert_allclose(u.data, 5.0, atol=1e-12)


def test_fv_dirichlet_rejects_full_matrices():
    g = GridSpec(2, 1)
    f = gen_constant(g, np.array([[2.0, 0.5], [0.5, 1.0]]))
    with pytest.raises(ValueError, match="diagonal"):
        solve_dirichlet(f, FULL, lambda x, y: x)


def test_fv_dirichlet_layered_exact_at_centers():
    # 1D-varying diagonal fields are solved exactly at cell centers.
    g = GridSpec(2, 2)
    f = gen_laminate(g, 0, [1.0, 9.0, 1.0])
    breaks = np.array([-0.5, -1 / 6, 1 / 6, 0.5])
    vals = np.array([1.0, 9.0, 1.0])

    def exact(x, y):
        # u' = c / a(x), u(-1/2) = 0, normalized so u(1/2) = 1
        x = np.asarray(x)
        seg_end = np.cumsum((breaks[1:] - breaks[:-1]) / vals)
        total = seg_end[-1]
        out = np.zeros_like(x, dtype=float)
        for i in range(3):
            lo = breaks[i]
            base = 0.0 if i == 0 else seg_end[i - 1]
            inside = (x >= lo) & (x <= breaks[i + 1] + 1e-15)
            out = np.where(inside, base + (x - lo) / vals[i], out)
        return np.broadcast_to((out / total), np.broadcast(x, y).shape)

    u, _ = solve_dirichlet(f, FULL, exact)
    xg, yg = g.cell_center_mesh()
    np.testing.assert_allclose(u.data, exact(xg, yg), atol=1e-11)


def test_fv_maximum_principle_random_fields():
    g = GridSpec(2, 2)
    rng = np.random.default_rng(1)
    for seed in range(3):
        vals = np.exp(rng.uniform(-3, 3, size=g.cell_shape + (2,)))
        data = np.zeros(g.cell_shape + (3,))
        data[..., 0] = vals[..., 0]
        data[..., 2] = vals[..., 1]
        from cge.grid import CoefficientField

        f = CoefficientField(g, data)
        coeffs = rng.standard_normal(5)

        def bdata(x, y, c=coeffs):
            return c[0] + c[1] * x + c[2] * y + c[3] * np.sin(4 * x) + c[4] * x * y

        u, _ = solve_dirichlet(f, FULL, bdata)
        # boundary values live on face centers; bound via a fine sampling
        ts = np.linspace(-0.5, 0.5, 201)
        edge_vals = np.concatenate(
            [bdata(ts, np.full_like(ts, s)) for s in (-0.5, 0.5)]
            + [bdata(np.full_like(ts, s), ts) for s in (-0.5, 0.5)]
        )
        lo, hi = edge_vals.min(), edge_vals.max()
        rng_width = hi - lo
        assert u.data.min() >= lo - 1e-9 * rng_width
        assert u.data.max() <= hi + 1e-9 * rng_width


def test_fv_dirichlet_convergence_order():
    lam = 4.0

    def sol(x, y):
        return np.exp(np.sqrt(lam) * x) * np.cos(y)

    errs = []
    for n_exp in (3, 4):
        g = GridSpec(2, n_exp)
        f = gen_constant(g, np.diag([1.0, lam]))
        u, _ = solve_dirichlet(f, TriadicCube(0, (0, 0)), sol)
        xg, yg = g.cell_center_mesh()
        errs.append(np.abs(u.data - sol(xg, yg)).max())
    order = np.log(errs[0] / errs[1]) / np.log(3.0)
    assert order >= 1.9
    assert errs[0] / errs[1] > 7.0  # roughly 9x error reduction per refinement


# Dense oracle: the Dirichlet solve against np.linalg.solve of the same
# system, assembled independently face by face (tests/fv_oracle.py), so the
# embedding of the cells as nodes, the condensation pass and the
# back-substitution are all under test.

ORACLE_GRIDS = [(2, 2), (2, 3), (3, 1), (3, 2)]


def diagonal_field(grid, seed, contrast=1e4):
    """Random diagonal field, entries log-uniform over ``contrast``."""
    rng = np.random.default_rng(seed)
    d = grid.d
    data = np.zeros(grid.cell_shape + (len(sym_index_pairs(d)),))
    for c, (i, j) in enumerate(sym_index_pairs(d)):
        if i == j:
            data[..., c] = contrast ** rng.uniform(-0.5, 0.5, grid.cell_shape)
    return CoefficientField(grid, data)


def wavy_boundary(*x):
    return np.cos(3.0 * x[0]) + x[-1] * x[0] + 2.0


@pytest.mark.parametrize("d,n", ORACLE_GRIDS)
def test_fv_dirichlet_matches_dense_oracle(d, n):
    field = diagonal_field(GridSpec(d, n), seed=10 * d + n)
    u, stats = solve_dirichlet(field, TriadicCube(0, (0,) * d), wavy_boundary)
    ref = fv_dense_solve(field, TriadicCube(0, (0,) * d), wavy_boundary)
    assert np.abs(u.data - ref).max() <= 1e-12 * np.abs(ref).max()
    assert stats.residual <= 1e-14


@pytest.mark.parametrize("d,n,level,offset,kind", [
    *[(*case, "random") for case in [
        (1, 1, 0, (0,)), (1, 2, 0, (0,)), (1, 4, 0, (0,)), (1, 4, -2, (5,)), (1, 3, -3, (11,)),
        (2, 1, 0, (0, 0)), (2, 3, 0, (0, 0)), (2, 3, -1, (2, 1)), (2, 3, -2, (4, 7)),
        (2, 3, -3, (8, 0)), (3, 1, 0, (0, 0, 0)), (3, 2, 0, (0, 0, 0)), (3, 2, -1, (1, 2, 0)),
        (3, 2, -2, (0, 8, 4))]],
    (1, 4, 0, (0,), "laminate"), (2, 3, 0, (0, 0), "laminate"),
    (2, 3, -1, (1, 2), "laminate"), (3, 2, 0, (0, 0, 0), "laminate"),
    (3, 2, -1, (2, 0, 1), "laminate"), (2, 3, 0, (0, 0), "cantor"),
    (2, 4, -1, (0, 2), "cantor"), (2, 3, -2, (3, 4), "cantor"),
], ids=lambda v: str(v).replace(" ", ""))
def test_fv_dirichlet_matches_dense_oracle_on_any_cube(d, n, level, offset, kind):
    # 1D, 2D N<=3 and 3D N<=2, at contrast 1e4: the whole domain, proper
    # sub-cubes (whose boundary data and coefficients are their own) and
    # one-cell cubes (level -N); a laminate (contrast 1e4, stripes across
    # the last axis) and a Cantor field repeat cells, whose merges share
    # content classes
    grid = GridSpec(d, n)
    field = {"random": lambda: diagonal_field(grid, seed=7 * d + n - level),
             "laminate": lambda: gen_laminate(grid, d - 1, [1.0, 1e4, 10.0]),
             "cantor": lambda: gen_cantor_field(grid, CantorParams(n))}[kind]()
    cube = TriadicCube(level, offset)
    u, stats = solve_dirichlet(field, cube, wavy_boundary)
    ref = fv_dense_solve(field, cube, wavy_boundary)
    assert u.data.shape == ref.shape
    assert np.abs(u.data - ref).max() <= 1e-10 * np.abs(ref).max()
    assert stats.method == "fv-condensation" and stats.unknowns == ref.size
    assert stats.residual <= 1e-13


def test_fv_dirichlet_matches_sparse_direct_solve():
    # 2D N=5 at contrast 1e4, against SciPy's sparse direct solve of the
    # oracle's system (a dense one would not fit): SciPy is a test
    # dependency only
    field = diagonal_field(GridSpec(2, 5), seed=5)
    u, stats = solve_dirichlet(field, FULL, wavy_boundary)
    ref = fv_sparse_solve(field, FULL, wavy_boundary)
    assert np.abs(u.data - ref).max() <= 1e-9 * np.abs(ref).max()
    assert stats.residual <= 1e-14


def test_fv_dirichlet_constant_data_reproduced_at_roundoff():
    # the constant-solution checks of the harness diagnostics rely on this,
    # at unit coefficients and at contrast 1e4
    g = GridSpec(2, 5)
    for field in (gen_constant(g, np.eye(2)), diagonal_field(g, seed=3)):
        u, _ = solve_dirichlet(field, FULL, lambda x, y: np.full_like(x, 2.0))
        assert np.abs(u.data - 2.0).max() <= 1e-14 * 2.0


@pytest.mark.parametrize("d,n", [(2, 4), (3, 3)])
def test_fv_dirichlet_maximum_principle_at_high_contrast(d, n):
    # the harness's check, at contrast 1e4, with data varying on the faces
    field = diagonal_field(GridSpec(d, n), seed=11)
    u, _ = solve_dirichlet(field, TriadicCube(0, (0,) * d), wavy_boundary)
    faces = np.concatenate([f.ravel() for f in
                            cge.solver.boundary_face_values(field.grid, u.cube, wavy_boundary)])
    assert _max_principle_slack(u, faces) >= -MAX_PRINCIPLE_RTOL


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dirichlet_rejects_nonfinite_boundary(bad):
    # the solve samples its data through boundary_face_values, which
    # checks it: no NaN solution, no warning from the load assembly
    field = gen_constant(GridSpec(2, 2), np.eye(2))
    for data in (lambda x, y: np.where(x > 0.4, bad, 1.0), lambda x, y: np.full_like(x, bad)):
        with pytest.raises(ValueError, match="boundary data must be finite at all face centers"):
            solve_dirichlet(field, FULL, data)


def test_dirichlet_factors_once_per_solve(monkeypatch):
    # one condensation pass a solve, whose last merge keeps no node, and
    # one back-substitution down the factors it kept
    passes, tapes = [], []
    real_pass, real_back = cge.solver._condensation, cge.solver._back_substitute

    def spy_pass(d, depth, h, rows, elements, values=None, tape=None):
        # the cells' rows and their nodes' values, in tree order
        passes.append((depth, rows.shape[0], values.shape, tape is not None))
        return real_pass(d, depth, h, rows, elements, values, tape)

    def spy_back(tape):
        tapes.append([(w_b.shape, plan[:2]) for plan, w_b, *_ in tape])
        return real_back(tape)

    monkeypatch.setattr(cge.solver, "_condensation", spy_pass)
    monkeypatch.setattr(cge.solver, "_back_substitute", spy_back)
    field = diagonal_field(GridSpec(2, 3), seed=4)
    for _ in range(2):
        solve_dirichlet(field, FULL, wavy_boundary)
    assert passes == [(3, 729, (729, 4, 1), True)] * 2
    assert len(tapes) == 2 and tapes[0] == tapes[1]
    (size, k) = tapes[0][-1][1]
    assert size == k  # the last merge eliminates every node, with no pin


@pytest.mark.parametrize("error, why", [
    (np.linalg.LinAlgError("Matrix is not positive definite"), "failed"),
    (MemoryError("Unable to allocate 2.34 GiB"), "ran out of memory"),
])
def test_dirichlet_failed_factorization_is_solver_error(monkeypatch, error, why):
    # a dense solve of the pass that fails, or finds no memory, in one stage
    real, calls = cge.solver._condense, []

    def broken(maps, plan, *args, **kwargs):
        calls.append(plan[0])
        if len(calls) == 3:
            raise error
        return real(maps, plan, *args, **kwargs)

    monkeypatch.setattr(cge.solver, "_condense", broken)
    with pytest.raises(SolverError, match=why) as err:
        solve_dirichlet(diagonal_field(GridSpec(2, 2), seed=4), FULL, wavy_boundary)
    stats = err.value.stats
    assert stats.method == "fv-condensation"
    assert stats.failure == f"dense condensation {why}: {error}"
    assert str(err.value) == stats.failure


@pytest.mark.parametrize("stage", [0, 1])  # a strip, on the subtrees' boxes; the last merge
def test_dirichlet_memory_error_after_elimination_is_solver_error(monkeypatch, stage):
    # a level-0 merge has eliminated and kept its factor when the copy of
    # its map finds no memory: the solve still fails as a SolverError
    real, raised = cge.solver._condense, []
    merges = _plan((3, 3), True)[stage]

    def no_memory(maps, plan, out=None, *args, **kwargs):
        made = real(maps, plan, out, *args, **kwargs)
        if out is None and kwargs.get("kept") and plan is merges[0] and not raised:
            raised.append(plan[0])
            raise MemoryError("Unable to allocate 1.2 MiB")
        return made

    monkeypatch.setattr(cge.solver, "_condense", no_memory)
    with pytest.raises(SolverError, match="ran out of memory") as err:
        solve_dirichlet(diagonal_field(GridSpec(2, 2), seed=4), FULL, wavy_boundary)
    assert raised
    assert err.value.stats.failure == "dense condensation ran out of memory: Unable to allocate 1.2 MiB"


def test_failed_allocation_is_nan_and_named(monkeypatch):
    # a MemoryError in one stage of a sweep is recorded like a failed solve:
    # the pass completes, its cubes and their ancestors are NaN
    f = gen_random_spd(GridSpec(2, 3), seed=1, eig_low=1e-2, eig_high=1e2)
    clean = level_functionals(f)
    real = cge.solver._condense

    def no_memory(maps, plan, *args, **kwargs):
        if plan[0] == 52:  # level -1's last stage, one merge a subtree
            raise MemoryError("Unable to allocate 21.1 KiB")
        return real(maps, plan, *args, **kwargs)

    monkeypatch.setattr(cge.solver, "_condense", no_memory)
    out = level_functionals(f)
    assert np.array_equal(out[-2][0], clean[-2][0]) and out[-2][1].failure == ""
    for level in (-1, 0):
        g_all, stats = out[level]
        assert np.isnan(g_all).all()
        assert stats.failure == "dense condensation ran out of memory: Unable to allocate 21.1 KiB"


# ---------------------------------------------------------------------------
# Content classes: each distinct merge of a subtree is condensed once
# ---------------------------------------------------------------------------

def _one_class_per_row(rows):
    """The class function with every row a class of its own, so every
    merge is condensed, through the gathers of a stage with classes."""
    return np.arange(len(rows)), np.arange(len(rows))


#: Stand-ins for ``solver._classes`` that condense every merge: on the
#: strided views of a pass without classes, and through the gathers
CLASS_SEAMS = [lambda rows: None, _one_class_per_row]


def _class_field(d, n, kind):
    grid = GridSpec(d, n)
    if kind == "constant":
        return gen_constant(grid, np.diag(np.arange(1.0, d + 1)))
    if kind == "cantor":
        return gen_cantor_field(grid, CantorParams(n))
    return gen_laminate(grid, int(kind[-1]), [1.0, 100.0])  # "laminate<axis>"


def _merges_per_pass(d, n):
    """The merges a pass over every level of a ``3**n``-cell cube makes:
    one a cube of cells, ``(3**d - 1) / 2`` a cube above, each merge
    making one box of three."""
    return (3 ** ((n - 1) * d + 1) - 1) // 2


def test_classes_are_exact_by_bytes():
    # distinct rows: no classes; equal bytes share a class, while -0.0 and
    # 0.0 do not, and two rows whose mixed keys collide are told apart
    assert cge.solver._classes(np.arange(12.0).reshape(4, 3)) is None
    first, inverse = cge.solver._classes(np.array([[1.0, 0.0], [1.0, -0.0], [1.0, 0.0]]))
    assert list(inverse) == [inverse[0], inverse[1], inverse[0]] and inverse[0] != inverse[1]
    assert np.array_equal(inverse[first], np.arange(len(first)))
    mix = int(cge.solver._MIX)
    rows = np.array([[0, 5], [1, mix ^ 5], [0, 5]], dtype=np.uint64)  # 0*mix^5 = 1*mix^(mix^5)
    first, inverse = cge.solver._classes(rows.view(np.int64))
    assert len(first) == 2 and inverse[0] == inverse[2] != inverse[1]


@pytest.mark.parametrize("d, n, kind", [
    *[(2, 4, kind) for kind in ("constant", "laminate0", "laminate1", "cantor")],
    *[(3, 3, kind) for kind in ("constant", "laminate0", "laminate1")],
])
def test_content_classes_leave_functionals_bit_identical(monkeypatch, d, n, kind):
    # fields whose cells repeat, condensed once a class, against passes
    # that condense every merge: every level's g and residual to the last
    # bit, from fewer merges below level 0 and the same at level 0
    f = _class_field(d, n, kind)
    shared = level_functionals(f)
    # 3D against the strided views alone: the gathers' code is 2D's
    for seam in CLASS_SEAMS if d == 2 else CLASS_SEAMS[:1]:
        monkeypatch.setattr(cge.solver, "_classes", seam)
        alone = level_functionals(f)
        for level, (g_all, stats) in shared.items():
            assert np.array_equal(alone[level][0], g_all)
            assert alone[level][1].residual == stats.residual
            assert alone[level][1].unknowns == stats.unknowns
            if level:
                assert stats.merges < alone[level][1].merges
            else:
                assert stats.merges == alone[level][1].merges == (3**d - 1) // 2


@pytest.mark.parametrize("d, n", [(2, 4), (3, 2)])
def test_condense_sees_each_distinct_merge_once(monkeypatch, d, n):
    # the kernel's merges: every one on random SPD, whose cells are all
    # distinct; on a constant field one a stage of each subtree. Each call
    # of the kernel is one stage of a subtree (one at the level of cubes of
    # cells, d at a level above it) or one of level 0's merges, and a
    # Dirichlet solve's stats count what the kernel saw
    seen = []
    real = cge.solver._condense

    def spy(maps, *args, **kwargs):
        seen.append(maps[0].shape[0])
        return real(maps, *args, **kwargs)

    monkeypatch.setattr(cge.solver, "_condense", spy)
    grid = GridSpec(d, n)
    calls = 3**d * (1 + d * (n - 2)) + (3**d - 1) // 2
    for f, merges in [
        (gen_random_spd(grid, seed=2, eig_low=1e-2, eig_high=1e2), _merges_per_pass(d, n)),
        (gen_constant(grid, np.eye(d)), calls),
    ]:
        seen.clear()
        out = level_functionals(f)
        assert list(out) == list(range(1 - n, 1))  # from the cells up
        assert sum(seen) == sum(stats.merges for _, stats in out.values()) == merges
        assert len(seen) == calls
    cube = TriadicCube(0, (0,) * d)
    for f in (diagonal_field(grid, seed=2), gen_constant(grid, np.eye(d))):
        seen.clear()
        _, stats = solve_dirichlet(f, cube, wavy_boundary)
        assert stats.merges == sum(seen) and len(seen) == calls


@pytest.mark.parametrize("case", ["sharpness", "cantor", "sub-cubes", "laminate-3d"])
def test_content_classes_leave_dirichlet_bit_identical(monkeypatch, case):
    # the solve condensed once a class, cells classed by their element and
    # right-hand side, against solves that condense every merge: u and the
    # residual to the last bit
    grid = GridSpec(2, 4)
    cubes = [FULL]
    if case == "cantor":
        field, boundary = gen_cantor_field(grid, CantorParams(4)), wavy_boundary
    elif case == "laminate-3d":
        field, boundary = gen_laminate(GridSpec(3, 2), 0, [1.0, 100.0]), wavy_boundary
        cubes = [TriadicCube(0, (0, 0, 0))]
    else:
        field, boundary = gen_constant(grid, np.diag([1.0, 16.0])), sharpness_boundary(16.0)[0]
        if case == "sub-cubes":
            cubes = [TriadicCube(-1, (1, 2)), TriadicCube(-2, (4, 5)), TriadicCube(-3, (0, 26))]
    for cube in cubes:
        u, stats = solve_dirichlet(field, cube, boundary)
        with monkeypatch.context() as patch:
            for seam in CLASS_SEAMS:
                patch.setattr(cge.solver, "_classes", seam)
                alone, alone_stats = solve_dirichlet(field, cube, boundary)
                assert np.array_equal(alone.data, u.data)
                assert alone_stats.residual == stats.residual
                # classes are shared inside a subtree: one of a cube of
                # cells, a single merge, at a cube 9 cells a side or less
                assert (stats.merges < alone_stats.merges
                        or stats.merges == alone_stats.merges
                        and field.grid.N + cube.level <= 2)


def test_dirichlet_failed_shared_class_is_solver_error(monkeypatch):
    # a constant field's level -2 squares off the cube's boundary are one
    # content class in each subtree; the first subtree's stage that
    # condenses its classes fails
    real, failed = cge.solver._condense, []

    def fail_once(maps, plan, *args, **kwargs):
        if plan[0] == 16 and not failed:  # 9 cells at once: a 3x3 cube
            failed.append(maps[0].shape[0])
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return real(maps, plan, *args, **kwargs)

    monkeypatch.setattr(cge.solver.os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(cge.solver, "_condense", fail_once)
    field = gen_constant(GridSpec(2, 3), np.diag([1.0, 4.0]))
    with pytest.raises(SolverError) as err:
        solve_dirichlet(field, FULL, sharpness_boundary(4.0)[0])
    assert 0 < failed[0] < 9  # fewer merges than the stage's 9 cubes
    assert str(err.value) == err.value.stats.failure == (
        "dense condensation failed: Matrix is not positive definite")


# ---------------------------------------------------------------------------
# Energy, and the oracle's energy and loads
# ---------------------------------------------------------------------------

def test_energy_constant_is_zero():
    g = GridSpec(2, 2)
    f = gen_constant(g, np.eye(2))
    u = ScalarGridFunction(g, np.full(g.cell_shape, 3.0), "cell")
    assert energy(f, u) == pytest.approx(0.0, abs=1e-15)


def test_energy_affine_node_mode():
    # the dense oracle's Q1 energy v . K v / vol of an affine node function
    g = GridSpec(2, 2)
    u = ScalarGridFunction.from_callable(g, lambda x, y: x, mode="node").data.ravel()
    k = _dense_stiffness(gen_constant(g, np.eye(2)), FULL)
    assert u @ k @ u / FULL.volume == pytest.approx(1.0, rel=1e-12)
    v = ScalarGridFunction.from_callable(g, lambda x, y: y, mode="node").data.ravel()
    k2 = _dense_stiffness(gen_constant(g, np.diag([1.0, 7.0])), FULL)
    assert v @ k2 @ v / FULL.volume == pytest.approx(7.0, rel=1e-12)


def test_energy_rejects_node_mode():
    # the face form reads cell values; a node function's energy is the oracle's
    g = GridSpec(2, 2)
    f = gen_constant(g, np.eye(2))
    with pytest.raises(ValueError, match="cell-mode"):
        energy(f, ScalarGridFunction(g, np.zeros(g.node_shape), "node"))


def test_energy_cell_mode_face_form():
    g = GridSpec(2, 2)
    f = gen_constant(g, np.diag([1.0, 7.0]))
    u = ScalarGridFunction.from_callable(g, lambda x, y: 3.0 * x, mode="cell")
    assert energy(f, u) == pytest.approx(9.0, rel=1e-12)
    with pytest.raises(ValueError, match="diagonal"):
        energy(gen_constant(g, np.array([[2.0, 0.5], [0.5, 1.0]])),
               ScalarGridFunction(g, np.zeros(g.cell_shape), "cell"))


def test_energy_region_restriction():
    g = GridSpec(2, 2)
    f = gen_constant(g, np.eye(2))
    u = ScalarGridFunction.from_callable(g, lambda x, y: x * x, mode="cell")
    region = (slice(3, 6), slice(3, 6))
    e_region = energy(f, u, region=region)
    # on the center third the gradient of x^2 is smaller
    assert 0 < e_region < energy(f, u)


def test_energy_anisotropic_exponential_log_form():
    # log of exp(sqrt(L) x) is linear, so the cell-mode face energy is exact.
    g = GridSpec(2, 3)
    lam = 16.0
    f = gen_constant(g, np.diag([1.0, lam]))
    logu = ScalarGridFunction.from_callable(g, lambda x, y: np.sqrt(lam) * x, mode="cell")
    assert energy(f, logu) == pytest.approx(lam, rel=1e-12)


def test_discrete_gradient_affine():
    # the oracle's gradient load gives each cell's mean gradient, and the
    # whole cube's: the affine function's
    g = GridSpec(2, 2)
    f = gen_constant(g, np.eye(2))
    u = ScalarGridFunction.from_callable(g, lambda x, y: 3 * x + 2 * y - 1, mode="node").data
    for off in np.ndindex(g.cell_shape):
        cell = TriadicCube(-2, off)
        corners = u[tuple(slice(z, z + 2) for z in off)].ravel()
        grad = _forcing_vectors(f, cell)[:, :2].T @ corners / cell.volume
        np.testing.assert_allclose(grad, [3.0, 2.0], rtol=1e-12)
    grad = _forcing_vectors(f, FULL)[:, :2].T @ u.ravel() / FULL.volume
    np.testing.assert_allclose(grad, [3.0, 2.0], rtol=1e-12)


def test_mean_flux_constant_field():
    # the oracle's flux load gives the mean flux a grad u
    g = GridSpec(2, 1)
    mat = np.array([[2.0, 0.5], [0.5, 3.0]])
    f = gen_constant(g, mat)
    u = ScalarGridFunction.from_callable(g, lambda x, y: x - y, mode="node").data.ravel()
    flux = _forcing_vectors(f, FULL)[:, 2:].T @ u / FULL.volume
    np.testing.assert_allclose(flux, mat @ [1.0, -1.0], atol=1e-12)


def test_discretization_validation():
    # one scheme and no knobs: the cell-centered solve takes exactly these
    params = inspect.signature(solve_dirichlet).parameters
    assert list(params) == ["field", "cube", "boundary"]
    assert all(p.default is inspect.Parameter.empty for p in params.values())
