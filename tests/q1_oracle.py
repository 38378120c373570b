"""The dense reference solve of the pure-Neumann Q1 problems, shared by the
tests: each cube's stiffness and forcing columns summed densely from the
element matrices, cell by cell, and solved exactly. An oracle independent of
the condensation pass; for a node vector ``v`` of a cube, ``v @ K @ v / vol``
is its energy and ``F.T @ v / vol`` its mean gradient (the first d columns)
and mean flux (the last d), with ``K`` from :func:`_dense_stiffness` and
``F`` from :func:`_forcing_vectors`."""

import itertools

import numpy as np

from cge.grid import sym_unpack
from cge.solver import _element_matrices, _forcings, reference_matrices


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
