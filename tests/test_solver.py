"""Tests for the discrete solvers: assembly oracles, closed-form solutions,
maximum principle, optimality, and convergence order."""

import inspect
import itertools
import sys
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
    discrete_gradient,
    energy,
    level_functionals,
    mean_flux,
    mean_gradient,
    neumann_functionals,
    reference_matrices,
    solve_dirichlet,
)

FULL = TriadicCube(0, (0, 0))


def _augmented_dense_solve(kmat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve singular Neumann systems exactly via rank-one augmentation.

    The dense reference solve, an oracle independent of the condensation
    pass.
    For b orthogonal to constants, (K + c*J/n) x = b has the unique zero-mean
    solution of K x = b (J the all-ones matrix); batched over leading axes.
    """
    n = kmat.shape[-1]
    scale = np.einsum("...ii->...", kmat) / n
    aug = kmat + (scale[..., None, None] / n)
    x = np.linalg.solve(aug, rhs)
    return x - x.mean(axis=-2, keepdims=True)


def _cell_nodes(m: int, d: int) -> np.ndarray:
    """(ncells, 2^d) C-order indices of each cell's corner nodes in an
    ``(m+1)**d`` node grid: cells in C order, corners in the order of the
    element matrices."""
    cells = np.indices((m,) * d).reshape(d, -1).T
    corners = cells[:, None, :] + np.array(list(itertools.product((0, 1), repeat=d)))
    return np.ravel_multi_index(tuple(np.moveaxis(corners, -1, 0)), (m + 1,) * d)


def _cube_cells(field, cube) -> np.ndarray:
    """A cube's packed cells, ``(ncells, ncomp)`` in C order."""
    return field.data[cube.cell_slices(field.grid)].reshape(-1, field.data.shape[-1])


def _dense_stiffness(field, cube) -> np.ndarray:
    """Pure-Neumann Q1 stiffness of a cube (singular, kernel = constants),
    summed densely from the element matrices, cell by cell."""
    m = cube.cells_per_side(field.grid)
    conn = _cell_nodes(m, field.d)
    kmat = np.zeros(((m + 1) ** field.d,) * 2)
    np.add.at(kmat, (conn[:, :, None], conn[:, None, :]),
              _element_matrices(_cube_cells(field, cube), field.d, field.grid.h))
    return kmat


def _forcing_vectors(field, cube) -> np.ndarray:
    """RHS columns of all 2d unit forcings on one cube, ``(nn, 2d)`` in C node
    order: the engine's d gradient columns, then the d flux columns
    ``L(v) = avg(e_a . a grad v)``, which the engine never solves and which
    are assembled here from the reference element, cell by cell."""
    m = cube.cells_per_side(field.grid)
    d, h = field.d, field.grid.h
    _, r_hat = reference_matrices(d)
    cells = sym_unpack(_cube_cells(field, cube), d)
    per_cell_flux = h ** (d - 1) * np.einsum("cxy,yI->cxI", cells, r_hat)
    conn = _cell_nodes(m, d).ravel()
    flux = [np.bincount(conn, weights=per_cell_flux[:, a].ravel(), minlength=(m + 1) ** d)
            for a in range(d)]
    return np.column_stack([_forcings((m,) * d, h)] + flux)


def _dense_functionals(field, cube) -> np.ndarray:
    """``g[r, s] = L_s(u_r) / vol`` of all 2d unit forcings (d gradient, then
    d flux) from the dense reference solve: ``(2d, 2d)``."""
    rhs = _forcing_vectors(field, cube)
    sols = _augmented_dense_solve(_dense_stiffness(field, cube), rhs)
    return sols.T @ rhs / cube.volume


def _dense_maximizer(field, cube, direction, kind):
    """``(u, value)``: the zero-mean maximizer of ``avg(-grad u . a grad u +
    2 L(u))`` for the unit forcings of ``kind`` ("gradient" or "flux")
    combined by ``direction``, from the dense reference solve, and the
    optimum ``L(u) / vol`` (at the maximizer ``B(u, u) = L(u)``)."""
    d = field.d
    cols = slice(0, d) if kind == "gradient" else slice(d, 2 * d)
    rhs = _forcing_vectors(field, cube)[:, cols] @ np.asarray(direction, dtype=float)
    x = _augmented_dense_solve(_dense_stiffness(field, cube), rhs[:, None])[:, 0]
    m = cube.cells_per_side(field.grid)
    return CubeFunction(field.grid, cube, x.reshape((m + 1,) * d), "node"), rhs @ x / cube.volume


def _functional_value(field, u, direction, kind) -> float:
    """``avg(-grad v . a grad v + 2 L(v))`` at a test function ``v``: at
    most the optimum, on the same cube."""
    g = mean_gradient(u) if kind == "gradient" else mean_flux(field, u)
    return float(-energy(field, u) + 2.0 * np.asarray(direction) @ g)


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
    gmat, _ = neumann_functionals(f, FULL)
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
    grads = discrete_gradient(u).reshape(-1, 2)
    np.testing.assert_allclose(grads, np.broadcast_to([1.0, 0.0], grads.shape), atol=1e-9)


def test_laminate_gradient_and_flux_closed_forms():
    g = GridSpec(2, 2)
    f = gen_laminate(g, 0, [1.0, 9.0, 1.0])
    _, v_grad = _dense_maximizer(f, FULL, [1.0, 0.0], "gradient")
    assert v_grad == pytest.approx((1 + 1 / 9 + 1) / 3, rel=1e-11)
    assert neumann_functionals(f, FULL)[0][0, 0] == pytest.approx((1 + 1 / 9 + 1) / 3, rel=1e-11)
    u, v_flux = _dense_maximizer(f, FULL, [0.0, 1.0], "flux")
    assert v_flux == pytest.approx(11 / 3, rel=1e-11)
    # the flux maximizer across the layering is the affine u = x_2
    grads = discrete_gradient(u).reshape(-1, 2)
    np.testing.assert_allclose(grads, np.broadcast_to([0.0, 1.0], grads.shape), atol=1e-9)


def test_two_stripe_field_matches_represented_cell_means():
    # 2 stripes straddle one cell column; the solver must still reproduce the
    # represented per-cell field's exact harmonic/arithmetic means.
    g = GridSpec(2, 3)
    f = gen_laminate(g, 0, [1.0, 4.0])
    cells = f.data[:, 0, 0]
    _, v_grad = _dense_maximizer(f, FULL, [1.0, 0.0], "gradient")
    assert v_grad == pytest.approx((1.0 / cells).mean(), rel=1e-10)
    assert neumann_functionals(f, FULL)[0][0, 0] == pytest.approx((1.0 / cells).mean(), rel=1e-10)
    _, v_flux = _dense_maximizer(f, FULL, [0.0, 1.0], "flux")
    assert v_flux == pytest.approx(cells.mean(), rel=1e-10)


def test_gradient_solution_mean_flux_recovers_forcing():
    # At the gradient-forcing maximizer, avg(a grad u) equals the forcing.
    g = GridSpec(2, 2)
    f = gen_random_spd(g, seed=5)
    u, _ = _dense_maximizer(f, FULL, [1.0, 0.0], "gradient")
    np.testing.assert_allclose(mean_flux(f, u), [1.0, 0.0], atol=1e-9)


def test_solver_rejects_bad_inputs():
    # one cell is no grid to condense (coarse_grain_cube reads the cell)
    f = gen_constant(GridSpec(2, 1), np.eye(2))
    with pytest.raises(ValueError, match="refinement exponent"):
        neumann_functionals(f, TriadicCube(-1, (0, 1)))


def test_engine_matches_dense_oracle():
    # every cube of every solved level of 2D N=2 and 3D N=2, each solved
    # alone: level 0 of a pass over its own cells
    for d in (2, 3):
        grid = GridSpec(d, 2)
        f = gen_random_spd(grid, seed=13, eig_low=0.1, eig_high=10.0)
        for level in (0, -1):
            for off in np.ndindex((3 ** -level,) * d):
                g, stats = neumann_functionals(f, TriadicCube(level, off))
                assert stats.method == "condensation" and stats.iterations == 0
                g_dense = _dense_functionals(f, TriadicCube(level, off))[:d, :d]
                np.testing.assert_allclose(g, g_dense, rtol=0,
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
        assert stats.chunks == d + (level == 0)
        assert np.array_equal(split[level][0], g_all)
        assert split[level][1].residual == stats.residual


def test_more_threads_than_cores_take_each_chunk_once(monkeypatch):
    # the threads share one iterator over the chunks: a lost take leaves a
    # cube NaN, a repeated one condenses a merge twice
    f = gen_random_spd(GridSpec(3, 3), seed=5, eig_low=1e-2, eig_high=1e2)
    whole = level_functionals(f, [-1, -2])  # 27 cubes of 9**3 cells, 729 of 3**3
    taken = []
    real = cge.solver._condense

    def spy(maps, *args):
        taken.append(maps[0].shape[0])  # the merges of one kernel call
        return real(maps, *args)

    pool = ThreadPoolExecutor(4)
    monkeypatch.setattr(cge.solver, "_POOL", pool)
    monkeypatch.setattr(cge.solver, "_condense", spy)
    monkeypatch.setattr(cge.solver, "CHUNK_ENTRIES", 1)
    monkeypatch.setattr(cge.solver.os, "sched_getaffinity", lambda pid: set(range(5)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = level_functionals(f, [-1, -2])
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown()
    # 13 merges a cube, one a chunk: 9, 3 and 1 along the last, middle and
    # first axis
    assert [stats.chunks for _, stats in out.values()] == [729 * 13, 27 * 13]
    assert out[-2][1].threads == 5
    assert taken == [1] * (756 * 13)
    for level, (g_all, _) in out.items():
        assert np.array_equal(g_all, whole[level][0])


@pytest.mark.parametrize("d, n", [(2, 3), (3, 2)])
def test_residual_reported_on_high_contrast_field(d, n):
    f = gen_random_spd(GridSpec(d, n), seed=3, eig_low=1e-2, eig_high=1e2)
    for _, stats in level_functionals(f, range(0, -n, -1)).values():
        assert 0.0 < stats.residual <= 1e-10
    _, stats = neumann_functionals(f, TriadicCube(0, (0,) * d))
    assert 0.0 < stats.residual <= 1e-10


def test_linear_forcing_combines_functional_columns():
    g = GridSpec(2, 2)
    f = gen_random_spd(g, seed=17, eig_low=1e-2, eig_high=1e2)
    cube = TriadicCube(-1, (2, 1))
    gmat, stats = neumann_functionals(f, cube)
    assert stats.method == "condensation"
    q = np.array([0.7, -1.3])
    # the gradient forcing is linear in q: its optimum is q . g q
    _, value = _dense_maximizer(f, cube, q, "gradient")
    np.testing.assert_allclose(value, q @ gmat @ q, rtol=1e-12)
    # the flux maximizer is the affine q . x, which the sweep therefore
    # never solves: its optimum is q . avg(a) q
    u, value = _dense_maximizer(f, cube, q, "flux")
    np.testing.assert_allclose(value, q @ cube_average(f, cube) @ q, rtol=1e-12)
    m = cube.cells_per_side(g)
    x = g.h * np.tensordot(q, np.indices((m + 1,) * 2), axes=1)
    x -= x.mean()
    np.testing.assert_allclose(u.data, x, rtol=0, atol=1e-12 * np.abs(x).max())


def test_batched_matches_per_cube():
    g = GridSpec(2, 2)
    f = gen_random_spd(g, seed=23)
    g_all, stats = level_functionals(f, [-1])[-1]
    assert g_all.shape == (3, 3, 2, 2)
    for z in [(0, 0), (1, 2), (2, 1)]:
        g_one, _ = neumann_functionals(f, TriadicCube(-1, z))
        np.testing.assert_allclose(g_all[z], g_one, atol=1e-10 * np.abs(g_one).max())


@pytest.mark.parametrize("d, n", [(2, 2), (3, 2)])
def test_cross_functional_matrix_structure(d, n):
    f = gen_random_spd(GridSpec(d, n), seed=29)
    cube = TriadicCube(0, (0,) * d)
    gmat, _ = neumann_functionals(f, cube)
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
    # summed over the stages: the one along axis a merges 3**a boxes a cube
    assert one_parent[-n + 1][1].chunks == 3 ** ((n - 1) * d) * (3**d - 1) // 2
    assert whole[-n + 1][1].chunks < one_parent[-n + 1][1].chunks
    for out in runs[1:]:
        for level, (g_all, stats) in out.items():
            assert np.array_equal(g_all, one_parent[level][0])
            assert stats.residual == one_parent[level][1].residual


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
    g, stats = neumann_functionals(gen_random_spd(GridSpec(2, 2), seed=1), FULL)
    assert g.shape == (2, 2) and np.isnan(g).all()
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
    gmat, _ = neumann_functionals(f, FULL)
    rng = np.random.default_rng(0)
    for kind, direction in (("gradient", [0.3, -1.2]), ("flux", [1.0, 0.4])):
        _, best = _dense_maximizer(f, FULL, direction, kind)
        if kind == "gradient":
            assert best == pytest.approx(np.asarray(direction) @ gmat @ direction, rel=1e-12)
        for _ in range(5):
            trial = CubeFunction(g, FULL, rng.standard_normal(g.node_shape), "node")
            assert _functional_value(f, trial, direction, kind) <= best + 1e-9 * abs(best)


# ---------------------------------------------------------------------------
# Dirichlet solves
# ---------------------------------------------------------------------------

def test_fv_dirichlet_affine_exact():
    g = GridSpec(2, 2)
    f = gen_constant(g, np.eye(2))
    u, stats = solve_dirichlet(f, FULL, lambda x, y: x)
    xc, _ = np.meshgrid(g.axis_cell_centers(), g.axis_cell_centers(), indexing="ij")
    assert np.abs(u.data - xc).max() < 1e-9
    assert stats.method == "fv-splu"


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
# system, assembled independently cell by cell, so the nested-dissection
# ordering, the factorization and the refinement step are all under test.

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


def fv_dense_system(field, boundary):
    """The 2d+1-point system on the full domain, assembled cell by cell."""
    grid = field.grid
    d, h, m = grid.d, grid.h, grid.cells_per_side
    diag = field.data[..., [c for c, (i, j) in enumerate(sym_index_pairs(d)) if i == j]]
    n = m**d
    amat, rhs = np.zeros((n, n)), np.zeros(n)
    for cell in itertools.product(range(m), repeat=d):
        row = np.ravel_multi_index(cell, (m,) * d)
        center = -0.5 + (np.asarray(cell) + 0.5) * h
        for a, step in itertools.product(range(d), (-1, 1)):
            ka = diag[cell + (a,)]
            nb = list(cell)
            nb[a] += step
            if 0 <= nb[a] < m:
                kb = diag[tuple(nb) + (a,)]
                t = h ** (d - 2) * 2.0 * ka * kb / (ka + kb)
                amat[row, row] += t
                amat[row, np.ravel_multi_index(nb, (m,) * d)] -= t
            else:
                face = center.copy()
                face[a] += 0.5 * step * h
                t = h ** (d - 2) * 2.0 * ka
                amat[row, row] += t
                rhs[row] += t * float(boundary(*face))
    return amat, rhs


@pytest.mark.parametrize("d,n", ORACLE_GRIDS)
def test_fv_dirichlet_matches_dense_oracle(d, n):
    field = diagonal_field(GridSpec(d, n), seed=10 * d + n)
    u, stats = solve_dirichlet(field, TriadicCube(0, (0,) * d), wavy_boundary)
    amat, rhs = fv_dense_system(field, wavy_boundary)
    ref = np.linalg.solve(amat, rhs)
    assert np.abs(u.data.ravel() - ref).max() <= 1e-12 * np.abs(ref).max()
    assert stats.residual <= 1e-14


def test_fv_dirichlet_constant_data_reproduced_at_roundoff():
    # the constant-solution checks of the harness diagnostics rely on this
    g = GridSpec(2, 5)
    u, _ = solve_dirichlet(gen_constant(g, np.eye(2)), FULL,
                           lambda x, y: np.full_like(x, 2.0))
    assert np.abs(u.data - 2.0).max() <= 1e-14 * 2.0


def test_dirichlet_factors_once_per_solve(monkeypatch):
    calls = []
    real = cge.solver._factor

    def spy(mat):
        calls.append(mat.shape)
        return real(mat)

    monkeypatch.setattr(cge.solver, "_factor", spy)
    field = diagonal_field(GridSpec(2, 3), seed=4)
    for _ in range(2):
        solve_dirichlet(field, FULL, wavy_boundary)
    assert len(calls) == 2


def test_dirichlet_failed_factorization_is_solver_error(monkeypatch):
    def broken(mat):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(cge.solver, "_factor", broken)
    with pytest.raises(SolverError, match="singular") as err:
        solve_dirichlet(diagonal_field(GridSpec(2, 2), seed=4), FULL, wavy_boundary)
    assert err.value.stats.method == "fv-splu"


# ---------------------------------------------------------------------------
# Energy / gradients
# ---------------------------------------------------------------------------

def test_energy_constant_is_zero():
    g = GridSpec(2, 2)
    f = gen_constant(g, np.eye(2))
    u = ScalarGridFunction(g, np.full(g.node_shape, 3.0), "node")
    assert energy(f, u) == pytest.approx(0.0, abs=1e-15)


def test_energy_affine_node_mode():
    g = GridSpec(2, 2)
    f = gen_constant(g, np.eye(2))
    u = ScalarGridFunction.from_callable(g, lambda x, y: x, mode="node")
    assert energy(f, u) == pytest.approx(1.0, rel=1e-12)
    f2 = gen_constant(g, np.diag([1.0, 7.0]))
    v = ScalarGridFunction.from_callable(g, lambda x, y: y, mode="node")
    assert energy(f2, v) == pytest.approx(7.0, rel=1e-12)


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
    u = ScalarGridFunction.from_callable(g, lambda x, y: x * x, mode="node")
    region = (slice(3, 6), slice(3, 6))
    e_region = energy(f, u, region=region)
    # on the center third, grad of the interpolant of x^2 is smaller
    assert 0 < e_region < energy(f, u)


def test_energy_anisotropic_exponential_log_form():
    # log of exp(sqrt(L) x) is linear, so the cell-mode face energy is exact.
    g = GridSpec(2, 3)
    lam = 16.0
    f = gen_constant(g, np.diag([1.0, lam]))
    logu = ScalarGridFunction.from_callable(g, lambda x, y: np.sqrt(lam) * x, mode="cell")
    assert energy(f, logu) == pytest.approx(lam, rel=1e-12)


def test_discrete_gradient_affine():
    g = GridSpec(2, 2)
    u = ScalarGridFunction.from_callable(g, lambda x, y: 3 * x + 2 * y - 1, mode="node")
    grads = discrete_gradient(u)
    np.testing.assert_allclose(grads, np.broadcast_to([3.0, 2.0], grads.shape), atol=1e-12)
    assert mean_gradient(u) == pytest.approx([3.0, 2.0])


def test_mean_flux_constant_field():
    g = GridSpec(2, 1)
    mat = np.array([[2.0, 0.5], [0.5, 3.0]])
    f = gen_constant(g, mat)
    u = ScalarGridFunction.from_callable(g, lambda x, y: x - y, mode="node")
    np.testing.assert_allclose(mean_flux(f, u), mat @ [1.0, -1.0], atol=1e-12)


def test_discretization_validation():
    # one scheme and no knobs: the cell-centered solve takes exactly these
    params = inspect.signature(solve_dirichlet).parameters
    assert list(params) == ["field", "cube", "boundary"]
    assert all(p.default is inspect.Parameter.empty for p in params.values())
