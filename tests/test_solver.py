"""Tests for the discrete solvers: assembly oracles, closed-form solutions,
maximum principle, optimality, and convergence order."""

import inspect
import sys
import tracemalloc
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
    CubeFunction,
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
from cge.harness import MAX_PRINCIPLE_RTOL, _max_principle_slack
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
    g_all, stats = level_functionals(field, [cube.level])[cube.level]
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
    # pass, against each cube's dense solve
    for d in (2, 3):
        grid = GridSpec(d, 2)
        f = gen_random_spd(grid, seed=13, eig_low=0.1, eig_high=10.0)
        out = level_functionals(f, [0, -1])
        assert sorted(out) == [-1, 0]
        for level, (g_all, stats) in out.items():
            assert g_all.shape == (3 ** -level,) * d + (d, d)
            assert stats.method == "condensation" and "iterations" not in stats.to_dict()
            for off in np.ndindex((3 ** -level,) * d):
                g_dense = _dense_functionals(f, TriadicCube(level, off))[:d, :d]
                np.testing.assert_allclose(g_all[off], g_dense, rtol=0,
                                           atol=1e-12 * np.abs(g_dense).max())


@pytest.mark.parametrize("d, n", [(1, 4), (2, 4), (3, 3)])
def test_chunk_split_leaves_functionals_bit_identical(monkeypatch, d, n):
    # every merge is eliminated alone, so one merge per chunk and each
    # stage in one chunk must agree to the last bit
    f = gen_random_spd(GridSpec(d, n), seed=11, eig_low=1e-2, eig_high=1e2)
    runs = []
    for budget in (1, 10**12):
        monkeypatch.setattr(cge.solver, "CHUNK_ENTRIES", budget)
        runs.append(level_functionals(f, range(0, -n, -1)))
    split, whole = runs
    for level, (g_all, stats) in whole.items():
        # a cube takes (3**d - 1) / 2 merges: 3**a along axis a; level 0
        # first reduces each of its 3**d children alone
        top = 3**d if level == 0 else 0
        assert split[level][1].chunks == 3 ** (-level * d) * (3**d - 1) // 2 + top
        # whole: each of the 3**d subtrees runs a stage of a level below 0
        # in one chunk; level 0 takes one chunk a child, then one a merge
        assert stats.chunks == (3**d + (3**d - 1) // 2 if level == 0 else 3**d * d)
        assert np.array_equal(split[level][0], g_all)
        assert split[level][1].residual == stats.residual


def test_more_threads_than_cores_take_each_chunk_once(monkeypatch):
    # the threads share one iterator over the 27 subtrees: a lost take
    # leaves a subtree out, a repeated one condenses its chunks twice
    f = gen_random_spd(GridSpec(3, 3), seed=5, eig_low=1e-2, eig_high=1e2)
    whole = level_functionals(f, [-1, -2])  # 27 cubes of 9**3 cells, 729 of 3**3
    taken, subtrees = [], []
    real_condense, real_elements = cge.solver._condense, cge.solver._element_matrices

    def spy(maps, *args):
        taken.append(maps[0].shape[0])  # the merges of one kernel call
        return real_condense(maps, *args)

    def spy_elements(cells, *args):
        subtrees.append(cells[0].tobytes())  # a subtree's first cell
        return real_elements(cells, *args)

    pool = ThreadPoolExecutor(4)
    monkeypatch.setattr(cge.solver, "_POOL", pool)
    monkeypatch.setattr(cge.solver, "_condense", spy)
    monkeypatch.setattr(cge.solver, "_element_matrices", spy_elements)
    monkeypatch.setattr(cge.solver, "CHUNK_ENTRIES", 1)
    monkeypatch.setattr(cge.solver.os, "sched_getaffinity", lambda pid: set(range(5)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = level_functionals(f, [-1, -2])
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown()
    first = f.data.reshape(-1, f.data.shape[-1])[cge.solver._tree_order(3, 3)[::729]]
    assert sorted(subtrees) == sorted(cell.tobytes() for cell in first)
    # 13 merges a cube, one a chunk: 9, 3 and 1 along the last, middle and
    # first axis
    assert [stats.chunks for _, stats in out.values()] == [729 * 13, 27 * 13]
    assert [stats.threads for _, stats in out.values()] == [5, 5]
    assert taken == [1] * (756 * 13)
    for level, (g_all, _) in out.items():
        assert np.array_equal(g_all, whole[level][0])


@pytest.mark.parametrize("d, n", [(2, 3), (3, 2)])
def test_residual_reported_on_high_contrast_field(d, n):
    f = gen_random_spd(GridSpec(d, n), seed=3, eig_low=1e-2, eig_high=1e2)
    for _, stats in level_functionals(f, range(0, -n, -1)).values():
        assert 0.0 < stats.residual <= 1e-10
    _, stats = level_functionals(f, [0])[0]
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


def _replay(shape, top):
    """Every merge of ``_plan(shape, top)`` with the cube-grid coordinates
    of its boxes' nodes and of its skeleton's, rebuilt from the children's
    boundary nodes, their offsets and the ranks alone: ``(stage, (size, k,
    ranks), boxes, skeleton)`` tuples. Every skeleton node is some box's
    node, and only once."""
    d = len(shape)
    local = np.indices([s + 1 for s in shape]).reshape(d, -1).T[_boundary_nodes(shape)]
    boxes = [local + np.multiply(offset, shape) for offset in np.ndindex((3,) * d)]
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
    level 0: a stage of the plan of the cubes they are part of."""
    child = tuple(s // 3 if a > axis else s for a, s in enumerate(shape))
    return [merge[1:] for merge in _replay(child, False) if merge[0] == len(shape) - 1 - axis]


MERGES = [((1,), 0), ((3,), 0), ((1, 1), 1), ((3, 3), 1), ((1, 3), 0), ((3, 9), 0)]


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


@pytest.mark.parametrize("shape, axis", MERGES, ids=str)
def test_merged_forcings_sum_to_the_parents(shape, axis):
    # each box's forcing summed onto the skeleton: the eliminated interface
    # rows cancel and the kept rows are the merged box's forcing
    h = 1.0 / 27
    parent = shape[:axis] + (3 * shape[axis],) + shape[axis + 1:]
    for (size, k, ranks), _, _ in _stage(shape, axis):
        total = np.zeros((size, len(shape)))
        for r in ranks:
            total[r] += _forcings(shape, h)[_boundary_nodes(shape)]
        np.testing.assert_allclose(total[:k], 0.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(total[k:], _forcings(parent, h)[_boundary_nodes(parent)],
                                   rtol=0, atol=1e-15)


@pytest.mark.parametrize("shape", [(1,), (3,), (1, 3), (3, 9), (1, 1, 1)], ids=str)
def test_level_zero_boxes_split_the_skeleton(shape):
    # level 0 keeps only shared nodes: every node of its children's
    # boundaries is eliminated once, by the one child that has it or by
    # the first merge whose boxes of the next stage do not share it, and
    # the last merge, which keeps none, solves for them all
    d = len(shape)
    merges = _replay(shape, True)
    assert [stage for stage, *_ in merges] == [0] * 3**d + [
        stage for stage in range(1, d + 1) for _ in range(3 ** (d - stage))]
    gone = []
    for stage, (size, k, _), _, skeleton in merges:
        # kept: on an interface plane across one of the first `axes` axes
        axes = d - stage
        planes = (skeleton % shape == 0) & (skeleton > 0) & (skeleton < np.multiply(3, shape))
        kept = planes[:, :axes].any(axis=1)
        assert not kept[:k].any() and kept[k:].all()
        gone += [tuple(c) for c in skeleton[:k]]
    assert merges[-1][1][1] == merges[-1][1][0]
    local = np.indices([s + 1 for s in shape]).reshape(d, -1).T[_boundary_nodes(shape)]
    every = {tuple(c) for offset in np.ndindex((3,) * d) for c in local + np.multiply(offset, shape)}
    assert len(gone) == len(set(gone)) and set(gone) == every


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
    # the pass turns into a NaN chunk
    mat = _laplacian_stack(3, 20, seed=1)
    mat[1, 4, 4] = -1.0
    with pytest.raises(np.linalg.LinAlgError):
        cge.solver._eliminate(mat, 8, np.ones((20, 2)))


BAND = cge.solver._BAND


def _last_first(starts, work):
    """A ``run`` that takes the jobs in reverse order, on the caller."""
    return sorted(((lo, work(lo)) for lo in reversed(starts)), key=lambda pair: pair[0]), 1


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
    g_all, stats = level_functionals(f, [0])[0]
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
    _, bad = level_functionals(f, [0])[0]
    assert bad.residual > 1e-10


def test_level_zero_merges_hold_one_working_store(monkeypatch):
    # 3D N=3, one core: the middle slab's merge holds at most its skeleton,
    # its kept block and one band of the skeleton's rows at once, and the
    # last merge its skeleton and one band: no update temporary, no copy of
    # A_kb or of the pinned map, and no input box once it is summed
    f = gen_random_spd(GridSpec(3, 3), seed=1, eig_low=1e-2, eig_high=1e2)
    stages = _plan((9, 9, 9), True)
    middle, last = stages[2][1], stages[3][0]
    real, peaks = cge.solver._condense, {}

    def spy(maps, plan, *args, **kwargs):
        if plan is not middle and plan is not last:
            return real(maps, plan, *args, **kwargs)
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = real(maps, plan, *args, **kwargs)
        peaks[plan[:2]] = tracemalloc.get_traced_memory()[1] - base
        return out

    solves, real_solve = [], np.linalg.solve

    def spy_solve(a, b):
        solves.append(a.shape)
        return real_solve(a, b)

    monkeypatch.setattr(cge.solver, "_condense", spy)
    monkeypatch.setattr(np.linalg, "solve", spy_solve)
    monkeypatch.setattr(cge.solver.os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(cge.solver, "_POOL", None)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        level_functionals(f, [0])
    finally:
        if not tracing:
            tracemalloc.stop()
    (size, k), (top, _) = middle[:2], last[:2]
    assert (size, k, top) == (2016, 448, 1568)
    assert peaks[middle[:2]] < 8 * (size**2 + (size - k) ** 2 + BAND * size)
    assert peaks[last[:2]] < 8 * (top**2 + BAND * top)
    # LAPACK's copies are not traced: the pass, asked for level 0 alone,
    # makes no LU solve, which would copy the last merge's pinned map
    assert solves == []


def _condensed_levels(f):
    """Every solved level's ``g_all`` from one condensation pass."""
    out = level_functionals(f, range(0, -f.grid.N, -1))
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


@pytest.mark.parametrize("d, n", [(1, 5), (2, 4), (3, 3)])
def test_condensation_split_and_cores_leave_functionals_bit_identical(monkeypatch, d, n):
    # every parent is eliminated alone: one parent a chunk, the default
    # chunks on one core and on two cores agree to the last bit
    f = gen_random_spd(GridSpec(d, n), seed=11, eig_low=1e-2, eig_high=1e2)
    runs = []
    for budget, cores in ((1, 1), (cge.solver.CHUNK_ENTRIES, 1), (cge.solver.CHUNK_ENTRIES, 2)):
        monkeypatch.setattr(cge.solver, "CHUNK_ENTRIES", budget)
        monkeypatch.setattr(cge.solver.os, "sched_getaffinity", lambda pid: set(range(cores)))
        monkeypatch.setattr(cge.solver, "_POOL", None)
        try:
            out = level_functionals(f, range(0, -n, -1))
        finally:
            if cge.solver._POOL is not None:
                cge.solver._POOL.shutdown()
        runs.append(out)
    one_parent, whole = runs[0], runs[1]
    # summed over the stages: the one along axis a merges 3**a boxes a cube;
    # by default each of the 3**d subtrees runs a stage of the cells in one
    # chunk
    assert one_parent[-n + 1][1].chunks == 3 ** ((n - 1) * d) * (3**d - 1) // 2
    assert whole[-n + 1][1].chunks == 3**d * d
    assert [stats.threads for _, stats in whole.values()] == [1] * n
    for out in runs[1:]:
        for level, (g_all, stats) in out.items():
            assert np.array_equal(g_all, one_parent[level][0])
            assert stats.residual == one_parent[level][1].residual


@pytest.mark.parametrize("d, n, levels", [
    (2, 4, [-2]), (3, 3, [-2]), (1, 5, [-2]), (1, 5, [0]), (2, 1, [0]), (3, 1, [0])])
def test_levels_asked_alone_match_a_full_pass(monkeypatch, d, n, levels):
    # the subtrees stop at the coarsest level asked for, below 0 or not:
    # on two cores it gives the numbers of a full pass on one, to the last
    # bit (an N=1 grid's subtrees are its cells)
    f = gen_random_spd(GridSpec(d, n), seed=11, eig_low=1e-2, eig_high=1e2)
    runs = []
    for asked, cores in ((range(0, -n, -1), 1), (levels, 2)):
        monkeypatch.setattr(cge.solver.os, "sched_getaffinity", lambda pid: set(range(cores)))
        monkeypatch.setattr(cge.solver, "_POOL", None)
        try:
            runs.append(level_functionals(f, asked))
        finally:
            if cge.solver._POOL is not None:
                cge.solver._POOL.shutdown()
    full, alone = runs
    assert sorted(alone) == sorted(levels)
    for level, (g_all, stats) in alone.items():
        assert np.isfinite(g_all).all()
        assert np.array_equal(g_all, full[level][0])
        assert stats.residual == full[level][1].residual
        assert stats.chunks == full[level][1].chunks


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
        out = level_functionals(f, range(0, -5, -1))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert sorted(out) == [-4, -3, -2, -1, 0]
    assert peak < 16 * 2**20


@pytest.mark.parametrize("d, n", [(1, 4), (2, 3)])
def test_condensation_top_below_level_zero(d, n):
    # the pass stops at the coarsest level asked for, here one of many
    # cubes: it forms their maps, whose pinned solves give g
    f = gen_random_spd(GridSpec(d, n), seed=13, eig_low=0.1, eig_high=10.0)
    out = level_functionals(f, [-1, -2])
    assert sorted(out) == [-2, -1]
    for level, (g_all, stats) in out.items():
        assert stats.method == "condensation" and stats.residual <= 1e-10
        for off in np.ndindex(g_all.shape[:d]):
            g_dense = _dense_functionals(f, TriadicCube(level, off))[:d, :d]
            np.testing.assert_allclose(g_all[off], g_dense, rtol=0,
                                       atol=1e-12 * np.abs(g_dense).max())


def test_failed_solve_is_nan_and_named_at_its_level_and_above(monkeypatch):
    # a failed dense solve is data, not an error: its cubes and the cubes
    # that contain them are NaN, and every level from its own up names it
    f = gen_random_spd(GridSpec(2, 3), seed=1, eig_low=1e-2, eig_high=1e2)
    clean = level_functionals(f, [0, -1, -2])
    real = cge.solver._eliminate

    def fail_level_minus_one(mat, *args):
        # level -1's last stage, one chunk: strips of 3x9 cells onto
        # skeletons of 52 nodes
        if mat.shape[-1] == 52:
            raise np.linalg.LinAlgError("Singular matrix")
        return real(mat, *args)

    monkeypatch.setattr(cge.solver, "_eliminate", fail_level_minus_one)
    out = level_functionals(f, [0, -1, -2])
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


def test_single_cube_failed_solve_is_nan(monkeypatch):
    def fail(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cge.solver, "_eliminate", fail)
    g, stats = level_functionals(gen_random_spd(GridSpec(2, 2), seed=1), [0])[0]
    assert g.shape == (1, 1, 2, 2) and np.isnan(g).all()
    assert stats.failure == "dense condensation failed: Singular matrix"


@pytest.mark.parametrize("level", [1, -3])
def test_batched_functionals_name_a_level_outside_the_grid(level):
    # above the cube, and below the cells
    with pytest.raises(ValueError, match=rf"levels \[{level}\] outside -1\.\.0"):
        level_functionals(gen_random_spd(GridSpec(2, 2), seed=1), [level])


# The level checks of the pass, on every dimension and on a deeper 2D grid:
# (d, N) of each grid
LEVEL_GRIDS = [(1, 2), (2, 2), (2, 3), (3, 2)]
LEVEL_GRID_IDS = ["condensed-1d", "condensed-2d", "entry-2d", "entry-3d"]


@pytest.mark.parametrize("d, n", LEVEL_GRIDS, ids=LEVEL_GRID_IDS)
def test_no_levels_give_no_functionals(d, n):
    assert level_functionals(gen_random_spd(GridSpec(d, n), seed=1), []) == {}


@pytest.mark.parametrize("d, n", LEVEL_GRIDS, ids=LEVEL_GRID_IDS)
def test_cells_level_is_rejected(d, n):
    # level -N is the cells: no solve, so no functionals to return
    with pytest.raises(ValueError, match=rf"levels \[-{n}\] outside {1 - n}\.\.0"):
        level_functionals(gen_random_spd(GridSpec(d, n), seed=1), [0, -n])


@pytest.mark.parametrize("d, n", LEVEL_GRIDS, ids=LEVEL_GRID_IDS)
def test_level_above_the_grid_is_rejected(d, n):
    with pytest.raises(ValueError, match=rf"levels \[1\] outside {1 - n}\.\.0"):
        level_functionals(gen_random_spd(GridSpec(d, n), seed=1), [1])


def test_axis_permutation_permutes_functionals():
    # permuting the field's axes permutes every cube's g the same way: a
    # symmetry identity of the whole pass, each level against its image
    perm = (2, 0, 1)
    f = gen_random_spd(GridSpec(3, 3), seed=1, eig_low=1e-2, eig_high=1e2)
    full = np.transpose(sym_unpack(f.data, 3), perm + (3, 4))[..., perm, :][..., perm]
    image = CoefficientField(f.grid, full[..., [i for i, _ in sym_index_pairs(3)],
                                          [j for _, j in sym_index_pairs(3)]])
    base, moved = (level_functionals(field, range(0, -3, -1)) for field in (f, image))
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
    for level, (g_all, _) in level_functionals(f, range(0, -3, -1)).items():
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


@pytest.mark.parametrize("d,n,level,offset", [
    (1, 1, 0, (0,)), (1, 2, 0, (0,)), (1, 4, 0, (0,)), (1, 4, -2, (5,)), (1, 3, -3, (11,)),
    (2, 1, 0, (0, 0)), (2, 3, 0, (0, 0)), (2, 3, -1, (2, 1)), (2, 3, -2, (4, 7)),
    (2, 3, -3, (8, 0)), (3, 1, 0, (0, 0, 0)), (3, 2, 0, (0, 0, 0)), (3, 2, -1, (1, 2, 0)),
    (3, 2, -2, (0, 8, 4)),
], ids=lambda v: str(v).replace(" ", ""))
def test_fv_dirichlet_matches_dense_oracle_on_any_cube(d, n, level, offset):
    # 1D, 2D N<=3 and 3D N<=2, at contrast 1e4: the whole domain, proper
    # sub-cubes (whose boundary data and coefficients are their own) and
    # one-cell cubes (level -N)
    field = diagonal_field(GridSpec(d, n), seed=7 * d + n - level)
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


def test_dirichlet_factors_once_per_solve(monkeypatch):
    # one condensation pass a solve, whose last merge keeps no node, and
    # one back-substitution down the factors it kept
    passes, tapes = [], []
    real_pass, real_back = cge.solver._condensation, cge.solver._back_substitute

    def spy_pass(d, depth, h, cells, wanted, tape=None):
        passes.append((depth, list(wanted), tape is not None))
        return real_pass(d, depth, h, cells, wanted, tape)

    def spy_back(tape):
        tapes.append([(w_b.shape, plan[:2]) for plan, w_b, *_ in tape])
        return real_back(tape)

    monkeypatch.setattr(cge.solver, "_condensation", spy_pass)
    monkeypatch.setattr(cge.solver, "_back_substitute", spy_back)
    field = diagonal_field(GridSpec(2, 3), seed=4)
    for _ in range(2):
        solve_dirichlet(field, FULL, wavy_boundary)
    assert passes == [(3, [0], True)] * 2
    assert len(tapes) == 2 and tapes[0] == tapes[1]
    (size, k) = tapes[0][-1][1]
    assert size == k  # the last merge eliminates every node, with no pin


@pytest.mark.parametrize("error, why", [
    (np.linalg.LinAlgError("Matrix is not positive definite"), "failed"),
    (MemoryError("Unable to allocate 2.34 GiB"), "ran out of memory"),
])
def test_dirichlet_failed_factorization_is_solver_error(monkeypatch, error, why):
    # a dense solve of the pass that fails, or finds no memory, in one chunk
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


@pytest.mark.parametrize("boxes", [1, 3])  # a subtree's first level-0 merge, a later one
def test_dirichlet_memory_error_after_elimination_is_solver_error(monkeypatch, boxes):
    # the merge has eliminated and kept its factor when the copy of its map
    # finds no memory: the solve still fails as a SolverError
    real, raised = cge.solver._condense, []

    def no_memory(maps, plan, out=None, *args, **kwargs):
        count = len(kwargs.get("carried", ()))
        made = real(maps, plan, out, *args, **kwargs)
        if out is None and kwargs.get("kept") and count == boxes and not raised:
            raised.append(plan[0])
            raise MemoryError("Unable to allocate 1.2 MiB")
        return made

    monkeypatch.setattr(cge.solver, "_condense", no_memory)
    with pytest.raises(SolverError, match="ran out of memory") as err:
        solve_dirichlet(diagonal_field(GridSpec(2, 2), seed=4), FULL, wavy_boundary)
    assert raised
    assert err.value.stats.failure == "dense condensation ran out of memory: Unable to allocate 1.2 MiB"


def test_failed_allocation_is_nan_and_named(monkeypatch):
    # a MemoryError in one chunk of a sweep is recorded like a failed solve:
    # the pass completes, its cubes and their ancestors are NaN
    f = gen_random_spd(GridSpec(2, 3), seed=1, eig_low=1e-2, eig_high=1e2)
    clean = level_functionals(f, [0, -1, -2])
    real = cge.solver._condense

    def no_memory(maps, plan, *args, **kwargs):
        if plan[0] == 52:  # level -1's last stage, one chunk a subtree
            raise MemoryError("Unable to allocate 21.1 KiB")
        return real(maps, plan, *args, **kwargs)

    monkeypatch.setattr(cge.solver, "_condense", no_memory)
    out = level_functionals(f, [0, -1, -2])
    assert np.array_equal(out[-2][0], clean[-2][0]) and out[-2][1].failure == ""
    for level in (-1, 0):
        g_all, stats = out[level]
        assert np.isnan(g_all).all()
        assert stats.failure == "dense condensation ran out of memory: Unable to allocate 21.1 KiB"


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
    for u in (ScalarGridFunction(g, np.zeros(g.node_shape), "node"),
              CubeFunction(g, FULL, np.zeros(g.node_shape), "node")):
        with pytest.raises(ValueError, match="cell-mode"):
            energy(f, u)


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
