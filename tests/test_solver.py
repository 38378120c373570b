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
    _cell_node_indices,
    _cube_cells_packed,
    _forcings,
    _interfaces,
    _merge,
    assemble_neumann,
    batched_neumann_functionals,
    condensed_neumann_functionals,
    discrete_gradient,
    energy,
    functional_value,
    level_functionals,
    mean_flux,
    mean_gradient,
    neumann_functionals,
    reference_matrices,
    solve_dirichlet,
    solve_linear_forcing,
)

FULL = TriadicCube(0, (0, 0))


def _augmented_dense_solve(kmat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve singular Neumann systems exactly via rank-one augmentation.

    The dense reference solve, an oracle independent of the sparse engine.
    For b orthogonal to constants, (K + c*J/n) x = b has the unique zero-mean
    solution of K x = b (J the all-ones matrix); batched over leading axes.
    """
    n = kmat.shape[-1]
    scale = np.einsum("...ii->...", kmat) / n
    aug = kmat + (scale[..., None, None] / n)
    x = np.linalg.solve(aug, rhs)
    return x - x.mean(axis=-2, keepdims=True)


def _forcing_vectors(field, cube) -> np.ndarray:
    """RHS columns of all 2d unit forcings on one cube, ``(nn, 2d)`` in C node
    order: the engine's d gradient columns, then the d flux columns
    ``L(v) = avg(e_a . a grad v)``, which the engine never solves and which
    are assembled here from the reference element, cell by cell."""
    m = cube.cells_per_side(field.grid)
    d, h = field.d, field.grid.h
    _, r_hat = reference_matrices(d)
    cells = sym_unpack(_cube_cells_packed(field, cube)[0], d)
    per_cell_flux = h ** (d - 1) * np.einsum("cxy,yI->cxI", cells, r_hat)
    conn = _cell_node_indices(m, d).ravel()
    flux = [np.bincount(conn, weights=per_cell_flux[:, a].ravel(), minlength=(m + 1) ** d)
            for a in range(d)]
    return np.column_stack([_forcings((m,) * d, h)] + flux)


def _dense_functionals(field, cube) -> np.ndarray:
    """``g[r, s] = L_s(u_r) / vol`` of all 2d unit forcings (d gradient, then
    d flux) from the dense reference solve: ``(2d, 2d)``."""
    rhs = _forcing_vectors(field, cube)
    sols = _augmented_dense_solve(assemble_neumann(field, cube).toarray(), rhs)
    return sols.T @ rhs / cube.volume

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
    k = assemble_neumann(f, FULL).toarray()
    center = 1 * 4 + 1  # node (1,1) of the 4x4 node grid
    row = k[center].reshape(4, 4)
    assert row[1, 1] == pytest.approx(8 / 3)
    for i, j in [(0, 0), (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1), (2, 2)]:
        assert row[i, j] == pytest.approx(-1 / 3)
    assert row[3].sum() == pytest.approx(0.0) and row[:, 3].sum() == pytest.approx(0.0)


def test_stiffness_row_sums_vanish_and_symmetry():
    g = GridSpec(2, 2)
    f = gen_random_spd(g, seed=11)
    k = assemble_neumann(f, TriadicCube(-1, (0, 1))).toarray()
    np.testing.assert_allclose(k.sum(axis=1), 0.0, atol=1e-10)
    np.testing.assert_allclose(k, k.T, atol=1e-13)


def test_stiffness_scales_linearly():
    g = GridSpec(2, 1)
    k1 = assemble_neumann(gen_constant(g, np.eye(2)), FULL).toarray()
    k7 = assemble_neumann(gen_constant(g, 7.0 * np.eye(2)), FULL).toarray()
    np.testing.assert_allclose(k7, 7.0 * k1, rtol=1e-14)


@given(st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_bilinear_form_symmetry_on_random_pairs(seed):
    g = GridSpec(2, 1)
    f = gen_random_spd(g, seed=3)
    k = assemble_neumann(f, FULL)
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
    for i, e in enumerate(np.eye(2)):
        _, _, val = solve_linear_forcing(f, FULL, e, "gradient")
        assert val == pytest.approx(inv[i, i], rel=1e-12)


def test_constant_field_flux_value_and_affine_maximizer():
    g = GridSpec(2, 2)
    mat = np.array([[2.0, 0.7], [0.7, 1.0]])
    f = gen_constant(g, mat)
    u, _, val = solve_linear_forcing(f, FULL, [1.0, 0.0], "flux")
    assert val == pytest.approx(mat[0, 0], rel=1e-12)
    grads = discrete_gradient(u).reshape(-1, 2)
    np.testing.assert_allclose(grads, np.broadcast_to([1.0, 0.0], grads.shape), atol=1e-9)


def test_laminate_gradient_and_flux_closed_forms():
    g = GridSpec(2, 2)
    f = gen_laminate(g, 0, [1.0, 9.0, 1.0])
    _, _, v_grad = solve_linear_forcing(f, FULL, [1.0, 0.0], "gradient")
    assert v_grad == pytest.approx((1 + 1 / 9 + 1) / 3, rel=1e-11)
    u, _, v_flux = solve_linear_forcing(f, FULL, [0.0, 1.0], "flux")
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
    _, _, v_grad = solve_linear_forcing(f, FULL, [1.0, 0.0], "gradient")
    assert v_grad == pytest.approx((1.0 / cells).mean(), rel=1e-10)
    _, _, v_flux = solve_linear_forcing(f, FULL, [0.0, 1.0], "flux")
    assert v_flux == pytest.approx(cells.mean(), rel=1e-10)


def test_gradient_solution_mean_flux_recovers_forcing():
    # At the gradient-forcing maximizer, avg(a grad u) equals the forcing.
    g = GridSpec(2, 2)
    f = gen_random_spd(g, seed=5)
    u, _, _ = solve_linear_forcing(f, FULL, [1.0, 0.0], "gradient")
    np.testing.assert_allclose(mean_flux(f, u), [1.0, 0.0], atol=1e-9)


def test_solver_rejects_bad_inputs():
    g = GridSpec(2, 1)
    f = gen_constant(g, np.eye(2))
    with pytest.raises(ValueError, match="rhs_kind"):
        solve_linear_forcing(f, FULL, [1, 0], "sideways")
    with pytest.raises(ValueError, match="direction"):
        solve_linear_forcing(f, FULL, [0, 0], "gradient")


def test_engine_matches_dense_oracle():
    # every cube of every solved level of 2D N=2 and 3D N=2
    for d in (2, 3):
        grid = GridSpec(d, 2)
        f = gen_random_spd(grid, seed=13, eig_low=0.1, eig_high=10.0)
        for level in (0, -1):
            g_all, stats = batched_neumann_functionals(f, level)
            assert stats.method == "splu" and stats.iterations == 0
            assert g_all.shape == (3 ** -level,) * d + (d, d)
            for off in np.ndindex(g_all.shape[:d]):
                g_dense = _dense_functionals(f, TriadicCube(level, off))[:d, :d]
                np.testing.assert_allclose(g_all[off], g_dense, rtol=0,
                                           atol=1e-12 * np.abs(g_dense).max())


@pytest.mark.parametrize("d, n", [(1, 4), (2, 4), (3, 3)])
def test_chunk_split_leaves_functionals_bit_identical(monkeypatch, d, n):
    # every block is factored alone, so one cube per chunk and the whole
    # level in one chunk must agree to the last bit
    f = gen_random_spd(GridSpec(d, n), seed=11, eig_low=1e-2, eig_high=1e2)
    for level in range(-1, -n, -1):
        runs = []
        for budget, chunks in ((1, 3 ** (-level * d)), (10**12, 1)):
            monkeypatch.setattr(cge.solver, "CHUNK_NNZ", budget)
            g_all, stats = batched_neumann_functionals(f, level)
            assert stats.chunks == chunks
            runs.append((g_all, stats.residual))
        (g_split, res_split), (g_whole, res_whole) = runs
        assert np.array_equal(g_split, g_whole)
        assert res_split == res_whole


def test_more_threads_than_cores_take_each_chunk_once(monkeypatch):
    # the threads share one iterator over the chunks: a lost take leaves a
    # cube NaN, a repeated one solves a chunk twice
    f = gen_random_spd(GridSpec(2, 4), seed=5, eig_low=1e-2, eig_high=1e2)
    whole, _ = batched_neumann_functionals(f, -3)  # 729 cubes of 3x3 cells
    taken = []
    real = cge.solver._chunk_functionals

    def spy(cells, *args):
        taken.append(cells.shape[0])
        return real(cells, *args)

    pool = ThreadPoolExecutor(4)
    monkeypatch.setattr(cge.solver, "_POOL", pool)
    monkeypatch.setattr(cge.solver, "_chunk_functionals", spy)
    monkeypatch.setattr(cge.solver, "CHUNK_NNZ", 1)
    monkeypatch.setattr(cge.solver.os, "sched_getaffinity", lambda pid: set(range(5)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        g_all, stats = batched_neumann_functionals(f, -3)
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown()
    assert (stats.chunks, stats.threads) == (729, 5)
    assert taken == [1] * 729
    assert np.array_equal(g_all, whole)


@pytest.mark.parametrize("d, n", [(2, 3), (3, 2)])
def test_residual_reported_on_high_contrast_field(d, n):
    f = gen_random_spd(GridSpec(d, n), seed=3, eig_low=1e-2, eig_high=1e2)
    for level in range(0, -n, -1):
        _, stats = batched_neumann_functionals(f, level)
        assert 0.0 < stats.residual <= 1e-10
    _, stats = neumann_functionals(f, TriadicCube(0, (0,) * d))
    assert 0.0 < stats.residual <= 1e-10


def test_linear_forcing_combines_functional_columns():
    g = GridSpec(2, 2)
    f = gen_random_spd(g, seed=17, eig_low=1e-2, eig_high=1e2)
    cube = TriadicCube(-1, (2, 1))
    gmat, _ = neumann_functionals(f, cube)
    rhs = _forcing_vectors(f, cube)
    kmat = assemble_neumann(f, cube).toarray()
    q = np.array([0.7, -1.3])
    u, stats, value = solve_linear_forcing(f, cube, q, "gradient")
    assert stats.method == "splu"
    np.testing.assert_allclose(value, q @ gmat @ q, rtol=1e-12)
    # both kinds against the dense solve of their forcing column; the flux
    # maximizer is the closed form, which solves nothing
    for kind, cols, method in (("gradient", slice(0, 2), "splu"),
                               ("flux", slice(2, 4), "closed-form")):
        u, stats, value = solve_linear_forcing(f, cube, q, kind)
        assert stats.method == method
        x = _augmented_dense_solve(kmat, rhs[:, cols] @ q[:, None])[:, 0]
        np.testing.assert_allclose(value, rhs[:, cols] @ q @ x / cube.volume, rtol=1e-12)
        np.testing.assert_allclose(u.data.ravel(), x, rtol=0, atol=1e-12 * np.abs(x).max())


def test_batched_matches_per_cube():
    g = GridSpec(2, 2)
    f = gen_random_spd(g, seed=23)
    g_all, stats = batched_neumann_functionals(f, -1)
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
    # flux block is the cube average the coarse layer uses as amax, and the
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


def _skeleton_coords(shape, axis):
    """The parent-grid coordinates of each skeleton node of a merge, from
    the children's boundary nodes and their offsets alone."""
    parent, interior, rank = _merge(shape, axis)
    child = np.indices([s + 1 for s in shape]).reshape(len(shape), -1).T[_boundary_nodes(shape)]
    coords = np.full((interior + _boundary_nodes(parent).size, len(shape)), -1)
    for k, r in enumerate(rank):
        shifted = child.copy()
        shifted[:, axis] += k * shape[axis]
        seen = (coords[r] >= 0).all(axis=1)  # a node two children share is one point
        assert np.array_equal(coords[r][seen], shifted[seen])
        coords[r] = shifted
    return parent, interior, coords


@pytest.mark.parametrize("shape, axis", [((1,), 0), ((3,), 0), ((1, 1), 1), ((3, 3), 1),
                                         ((1, 3), 0), ((3, 9), 0)], ids=str)
def test_merge_puts_every_child_boundary_node_on_the_skeleton(shape, axis):
    parent, interior, coords = _skeleton_coords(shape, axis)
    assert parent == shape[:axis] + (3 * shape[axis],) + shape[axis + 1:]
    # every skeleton node is some child's boundary node, and only once
    assert np.all(coords >= 0)
    assert len({tuple(c) for c in coords}) == coords.shape[0]
    # the interior first: the interface planes off the parent's boundary,
    # in C order; then the parent's boundary in its own order
    nodes = [s + 1 for s in parent]
    flat = np.ravel_multi_index(tuple(coords.T), nodes)
    assert np.array_equal(flat[interior:], _boundary_nodes(parent))
    inner = coords[:interior]
    assert np.all(np.diff(flat[:interior]) > 0)
    assert np.all((inner > 0) & (inner < parent))
    assert set(inner[:, axis]) <= {shape[axis], 2 * shape[axis]}
    plane = np.prod([s - 1 for s in np.delete(parent, axis)])
    assert interior == 2 * plane


@pytest.mark.parametrize("shape, axis", [((1,), 0), ((3,), 0), ((1, 1), 1), ((3, 3), 1),
                                         ((1, 3), 0), ((3, 9), 0)], ids=str)
def test_merged_forcings_sum_to_the_parents(shape, axis):
    # at level 0 each box carries its own forcing: summed, the interface
    # rows cancel and the parent's boundary rows are the parent's forcing
    h = 1.0 / 27
    parent, interior, rank = _merge(shape, axis)
    child = _forcings(shape, h)[_boundary_nodes(shape)]
    total = np.zeros((interior + _boundary_nodes(parent).size, len(shape)))
    for r in rank:
        total[r] += child
    np.testing.assert_allclose(total[:interior], 0.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(total[interior:], _forcings(parent, h)[_boundary_nodes(parent)],
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("shape", [(1,), (3,), (1, 3), (3, 9)], ids=str)
def test_level_zero_boxes_split_the_skeleton(shape):
    # level 0 eliminates each box's own nodes: no two boxes share one, and
    # the interface nodes are the interior and the planes' ends
    _, interior, rank = _merge(shape, 0)
    n, parts = _interfaces(shape)
    own = np.concatenate([r[mine] for r, (mine, _, _) in zip(rank, parts)])
    assert own.size == np.unique(own).size and np.all(own >= interior)
    shared = np.concatenate([r[on] for r, (_, on, _) in zip(rank, parts)])
    nodes = np.unique(shared)
    assert n == nodes.size and np.array_equal(nodes[:interior], np.arange(interior))
    assert np.array_equal(nodes[np.concatenate([slot for _, _, slot in parts])], shared)
    assert own.size + n == rank.max() + 1


def _condensed_levels(f):
    """Every solved level's ``g_all`` from one condensation pass."""
    out = condensed_neumann_functionals(f, range(0, -f.grid.N, -1))
    assert all(stats.method == "condensation" and stats.residual <= 1e-10
               for _, stats in out.values())
    return {level: g_all for level, (g_all, _) in out.items()}


@pytest.mark.parametrize("f", [
    gen_random_spd(GridSpec(2, 4), seed=1, eig_low=1e-2, eig_high=1e2),
    gen_cantor_field(GridSpec(2, 4), CantorParams(4)),
    gen_cascade_field(GridSpec(2, 4), CascadeParams(0.5, 4, 1)),
], ids=["random", "cantor", "cascade"])
def test_condensation_matches_sparse_engine(f):
    # every cube of every solved level, relative to the cube's largest entry
    for level, g_all in _condensed_levels(f).items():
        g_splu, _ = batched_neumann_functionals(f, level)
        scale = np.abs(g_splu).max(axis=(-2, -1), keepdims=True)
        assert np.all(np.abs(g_all - g_splu) <= 1e-10 * scale), level


@pytest.mark.parametrize("d, n", [(1, 2), (1, 3), (2, 2), (2, 3)])
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


@pytest.mark.parametrize("d, n", [(1, 5), (2, 4)])
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
            out = condensed_neumann_functionals(f, range(0, -n, -1))
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
    out = condensed_neumann_functionals(f, [-1, -2])
    assert sorted(out) == [-2, -1]
    for level, (g_all, stats) in out.items():
        assert stats.method == "condensation" and stats.residual <= 1e-10
        g_splu, _ = batched_neumann_functionals(f, level)
        scale = np.abs(g_splu).max(axis=(-2, -1), keepdims=True)
        assert np.all(np.abs(g_all - g_splu) <= 1e-10 * scale), level
        for off in np.ndindex(g_all.shape[:d]):
            g_dense = _dense_functionals(f, TriadicCube(level, off))[:d, :d]
            np.testing.assert_allclose(g_all[off], g_dense, rtol=0,
                                       atol=1e-12 * np.abs(g_dense).max())


@pytest.mark.parametrize("level", [1, -3])
def test_batched_functionals_name_a_level_outside_the_grid(level):
    with pytest.raises(ValueError, match=rf"levels \[{level}\] outside -1\.\.0"):
        batched_neumann_functionals(gen_random_spd(GridSpec(2, 2), seed=1), level)


# The entry point of a sweep: level_functionals picks the engine by d and
# shares the condensation pass's check of the levels asked for.
LEVEL_ENTRIES = [(condensed_neumann_functionals, 1), (condensed_neumann_functionals, 2),
                 (level_functionals, 2), (level_functionals, 3)]
LEVEL_ENTRY_IDS = ["condensed-1d", "condensed-2d", "entry-2d", "entry-3d"]


@pytest.mark.parametrize("entry, d", LEVEL_ENTRIES, ids=LEVEL_ENTRY_IDS)
def test_no_levels_give_no_functionals(entry, d):
    assert entry(gen_random_spd(GridSpec(d, 2), seed=1), []) == {}


@pytest.mark.parametrize("entry, d", LEVEL_ENTRIES, ids=LEVEL_ENTRY_IDS)
def test_cells_level_is_rejected(entry, d):
    # level -N is the cells: no solve, so no functionals to return
    with pytest.raises(ValueError, match=r"levels \[-2\] outside -1\.\.0"):
        entry(gen_random_spd(GridSpec(d, 2), seed=1), [0, -2])


@pytest.mark.parametrize("entry, d", LEVEL_ENTRIES, ids=LEVEL_ENTRY_IDS)
def test_level_above_the_grid_is_rejected(entry, d):
    with pytest.raises(ValueError, match=r"levels \[1\] outside -1\.\.0"):
        entry(gen_random_spd(GridSpec(d, 2), seed=1), [1])


@pytest.mark.parametrize("d, engine", [(1, condensed_neumann_functionals),
                                       (2, condensed_neumann_functionals),
                                       (3, batched_neumann_functionals)])
def test_level_functionals_run_the_engine_of_their_dimension(d, engine):
    f = gen_random_spd(GridSpec(d, 2), seed=5, eig_low=1e-2, eig_high=1e2)
    out = level_functionals(f, [-1, 0])
    assert sorted(out) == [-1, 0]
    want = (engine(f, [-1, 0]) if d < 3
            else {level: engine(f, level) for level in (-1, 0)})
    for level, (g_all, stats) in out.items():
        assert stats.method == want[level][1].method
        assert np.array_equal(g_all, want[level][0])


def test_galerkin_optimality_one_sided():
    g = GridSpec(2, 2)
    f = gen_random_spd(g, seed=31)
    rng = np.random.default_rng(0)
    for kind, direction in (("gradient", [0.3, -1.2]), ("flux", [1.0, 0.4])):
        _, _, best = solve_linear_forcing(f, FULL, direction, kind)
        for _ in range(5):
            trial = CubeFunction(g, FULL, rng.standard_normal(g.node_shape), "node")
            assert functional_value(f, FULL, trial, direction, kind) <= best + 1e-9 * abs(best)


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
