"""References for the cell-centered Dirichlet scheme: the 2d+1-point system
of one cube, assembled face by face with NumPy as COO triplets, solved
densely by ``np.linalg.solve`` or, where a dense matrix would not fit, by
SciPy's sparse direct solver. It shares no code with ``cge.solver``: it
reads the field and the boundary function directly, so the solve's
embedding, its factorization and its back-substitution are all under
test."""

import numpy as np

from cge.grid import sym_index_pairs


def fv_triplets(field, cube, boundary):
    """``(rows, cols, vals, b)`` of ``-div(a grad u) = 0`` on ``cube`` with
    the given boundary values, as COO triplets whose duplicates sum to ``A``:
    harmonic-mean face transmissibilities ``h**(d-2) * 2 a a' / (a + a')``
    between neighbouring cells, and ``h**(d-2) * 2 a`` to a boundary face,
    whose data is ``boundary`` at the face's center. Rows and columns list
    the cube's cells in C order."""
    grid = field.grid
    d, h = grid.d, grid.h
    m = cube.cells_per_side(grid)
    diag = field.data[cube.cell_slices(grid)][
        ..., [c for c, (i, j) in enumerate(sym_index_pairs(d)) if i == j]]
    lo, _ = cube.physical_bounds()
    centers = np.meshgrid(*(lo[a] + (np.arange(m) + 0.5) * h for a in range(d)), indexing="ij")
    index = np.arange(m**d).reshape((m,) * d)
    center, rhs = np.zeros((m,) * d), np.zeros((m,) * d)
    rows, cols, vals = [], [], []
    for a in range(d):
        ka = diag[..., a]
        low, high = [slice(None)] * d, [slice(None)] * d
        low[a], high[a] = slice(0, -1), slice(1, None)
        low, high = tuple(low), tuple(high)
        t = h ** (d - 2) * 2.0 * ka[low] * ka[high] / (ka[low] + ka[high])
        for i, j in ((low, high), (high, low)):
            rows.append(index[i].ravel())
            cols.append(index[j].ravel())
            vals.append(-t.ravel())
            center[i] += t
        for side, step in ((0, -1), (m - 1, 1)):
            at = [slice(None)] * d
            at[a] = side
            at = tuple(at)
            face = [x[at] for x in centers]
            face[a] = face[a] + 0.5 * step * h
            t = h ** (d - 2) * 2.0 * ka[at]
            center[at] += t
            rhs[at] += t * boundary(*face)
    rows.append(index.ravel())
    cols.append(index.ravel())
    vals.append(center.ravel())
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals), rhs.ravel()


def fv_dense_solve(field, cube, boundary):
    """The dense reference solution on ``cube``, shaped like its cells."""
    rows, cols, vals, rhs = fv_triplets(field, cube, boundary)
    amat = np.zeros((rhs.size, rhs.size))
    np.add.at(amat, (rows, cols), vals)
    m = cube.cells_per_side(field.grid)
    return np.linalg.solve(amat, rhs).reshape((m,) * field.d)


def fv_sparse_solve(field, cube, boundary):
    """The reference solution by SciPy's sparse direct solver (a test
    dependency only), shaped like the cube's cells."""
    import scipy.sparse
    import scipy.sparse.linalg

    rows, cols, vals, rhs = fv_triplets(field, cube, boundary)
    amat = scipy.sparse.csc_matrix((vals, (rows, cols)), shape=(rhs.size, rhs.size))
    m = cube.cells_per_side(field.grid)
    return scipy.sparse.linalg.spsolve(amat, rhs).reshape((m,) * field.d)
