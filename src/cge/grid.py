"""Triadic grid primitives.

A computational domain is the unit cube [0, 1)^d split into 3^N cells per side.
Cubes of the triadic hierarchy ("level k" cubes have side 3^k, k <= 0) align
with the cell grid for every k >= -N, so averaging and restriction are exact
block operations on cell arrays.

Coefficient fields store one symmetric d x d matrix per cell, packed as the
d(d+1)/2 upper-triangle components in row-major order; scalar fields are the
d = 1 or one-component special case of the same layout.

Physical coordinates are centered: the domain is [-1/2, 1/2)^d and a cell with
index ``idx`` has center ``(idx + 0.5)*3**-N - 0.5`` per axis.
"""

from __future__ import annotations

import hashlib
import itertools
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

MAGIC = b"CGE1"
HEADER_STRUCT = struct.Struct("<4sBBHII")


class FieldFormatError(ValueError):
    """Raised when a serialized field does not conform to the binary format."""


# ---------------------------------------------------------------------------
# Packed symmetric matrices
# ---------------------------------------------------------------------------

def sym_component_count(d: int) -> int:
    """Number of packed components of a symmetric d x d matrix."""
    return d * (d + 1) // 2


def sym_index_pairs(d: int) -> list[tuple[int, int]]:
    """Upper-triangle (row, col) pairs in row-major packing order."""
    return [(i, j) for i in range(d) for j in range(i, d)]


def sym_pack(mats: np.ndarray) -> np.ndarray:
    """Pack symmetric matrices ``(..., d, d)`` into ``(..., d(d+1)/2)``."""
    mats = np.asarray(mats, dtype=float)
    d = mats.shape[-1]
    pairs = sym_index_pairs(d)
    out = np.empty(mats.shape[:-2] + (len(pairs),), dtype=float)
    for c, (i, j) in enumerate(pairs):
        out[..., c] = mats[..., i, j]
    return out


def sym_unpack(packed: np.ndarray, d: int) -> np.ndarray:
    """Expand packed components ``(..., d(d+1)/2)`` to full ``(..., d, d)``."""
    packed = np.asarray(packed, dtype=float)
    out = np.empty(packed.shape[:-1] + (d, d), dtype=float)
    for c, (i, j) in enumerate(sym_index_pairs(d)):
        out[..., i, j] = packed[..., c]
        out[..., j, i] = packed[..., c]
    return out


def sym_eig_bounds(packed: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Smallest and largest eigenvalue of each packed symmetric matrix.

    Closed forms are used for d <= 2; d = 3 falls back to LAPACK. Both routes
    are cross-checked in the test suite. A matrix with a NaN or inf entry gets
    NaN bounds on every route (LAPACK would raise for the whole batch).
    """
    packed = np.asarray(packed, dtype=float)
    if d == 1:
        v = packed[..., 0]
        return v.copy(), v.copy()
    if d == 2:
        a, b, c = packed[..., 0], packed[..., 1], packed[..., 2]
        mean = 0.5 * (a + c)
        radius = np.hypot(0.5 * (a - c), b)
        with np.errstate(invalid="ignore"):  # inf - inf for an infinite entry
            return mean - radius, mean + radius
    mats = sym_unpack(packed, d)
    finite = np.isfinite(packed).all(axis=-1)
    w = np.full(mats.shape[:-1], np.nan)
    w[finite] = np.linalg.eigvalsh(mats[finite])
    return w[..., 0], w[..., -1]


def sym_norm(packed: np.ndarray, d: int) -> np.ndarray:
    """Spectral norm (largest absolute eigenvalue) of packed matrices."""
    lo, hi = sym_eig_bounds(packed, d)
    return np.maximum(np.abs(lo), np.abs(hi))


def sym_inv(packed: np.ndarray, d: int) -> np.ndarray:
    """Inverse of packed symmetric matrices, returned packed."""
    packed = np.asarray(packed, dtype=float)
    if d == 1:
        return 1.0 / packed
    if d == 2:
        a, b, c = packed[..., 0], packed[..., 1], packed[..., 2]
        det = a * c - b * b
        return np.stack([c, -b, a], axis=-1) / det[..., None]
    return sym_pack(np.linalg.inv(sym_unpack(packed, d)))


# ---------------------------------------------------------------------------
# Grids and triadic cubes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Uniform triadic grid: ``3**N`` cells per side in ``d`` dimensions."""

    d: int
    N: int

    def __post_init__(self) -> None:
        if not (1 <= self.d <= 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.d}")
        if self.N < 1:
            raise ValueError(f"refinement exponent must be >= 1, got {self.N}")

    @property
    def cells_per_side(self) -> int:
        return 3 ** self.N

    @property
    def n_cells(self) -> int:
        return 3 ** (self.d * self.N)

    @property
    def h(self) -> float:
        """Cell width."""
        return 3.0 ** (-self.N)

    @property
    def cell_shape(self) -> tuple[int, ...]:
        return (self.cells_per_side,) * self.d

    @property
    def node_shape(self) -> tuple[int, ...]:
        return (self.cells_per_side + 1,) * self.d

    def axis_cell_centers(self) -> np.ndarray:
        """Centered physical coordinates of cell centers along one axis."""
        return (np.arange(self.cells_per_side) + 0.5) * self.h - 0.5

    def axis_nodes(self) -> np.ndarray:
        """Centered physical coordinates of grid nodes along one axis."""
        return np.arange(self.cells_per_side + 1) * self.h - 0.5

    def cell_center_mesh(self) -> tuple[np.ndarray, ...]:
        return np.meshgrid(*([self.axis_cell_centers()] * self.d), indexing="ij")

    def node_mesh(self) -> tuple[np.ndarray, ...]:
        return np.meshgrid(*([self.axis_nodes()] * self.d), indexing="ij")


@dataclass(frozen=True)
class TriadicCube:
    """A cube of the triadic hierarchy: side ``3**level`` at integer offset.

    ``offset`` indexes the cube on the side-``3**level`` lattice of the unit
    domain, so ``0 <= offset[i] < 3**-level`` and ``level <= 0``; the whole
    domain is ``TriadicCube(0, (0, ..., 0))``.
    """

    level: int
    offset: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.level > 0:
            raise ValueError(f"cube level must be <= 0, got {self.level}")
        n = 3 ** (-self.level)
        for z in self.offset:
            if not (0 <= z < n):
                raise ValueError(f"offset {self.offset} out of range for level {self.level}")

    @property
    def d(self) -> int:
        return len(self.offset)

    @property
    def volume(self) -> float:
        return 3.0 ** (self.level * self.d)

    def cells_per_side(self, grid: GridSpec) -> int:
        if self.level < -grid.N:
            raise ValueError(f"level {self.level} below grid resolution -{grid.N}")
        return 3 ** (grid.N + self.level)

    def cell_slices(self, grid: GridSpec) -> tuple[slice, ...]:
        """Index slices of this cube's cell block in a cell array."""
        m = self.cells_per_side(grid)
        return tuple(slice(z * m, (z + 1) * m) for z in self.offset)

    def children(self) -> list["TriadicCube"]:
        """The 3^d sub-cubes one level down, in row-major order."""
        return [
            TriadicCube(self.level - 1, tuple(3 * z + e for z, e in zip(self.offset, shift)))
            for shift in itertools.product(range(3), repeat=self.d)
        ]

    def physical_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) corners in centered physical coordinates."""
        side = 3.0 ** self.level
        lo = np.array(self.offset, dtype=float) * side - 0.5
        return lo, lo + side


def partition(grid: GridSpec, level: int) -> list[TriadicCube]:
    """All level-``level`` cubes tiling the domain, in row-major offset order."""
    if not (-grid.N <= level <= 0):
        raise ValueError(f"partition level must be in [-{grid.N}, 0], got {level}")
    n = 3 ** (-level)
    return [TriadicCube(level, z) for z in itertools.product(range(n), repeat=grid.d)]


# ---------------------------------------------------------------------------
# Fields on the grid
# ---------------------------------------------------------------------------

@dataclass
class CoefficientField:
    """Symmetric positive definite matrix coefficient, one matrix per cell.

    ``data`` has shape ``grid.cell_shape + (d(d+1)/2,)`` with packed
    upper-triangle components. Construction validates symmetry is implicit
    (packed storage) and positive definiteness cell by cell.
    """

    grid: GridSpec
    data: np.ndarray
    descriptor: str = ""

    def __post_init__(self) -> None:
        self.data = np.ascontiguousarray(self.data, dtype=float)
        expected = self.grid.cell_shape + (sym_component_count(self.grid.d),)
        if self.data.shape != expected:
            raise ValueError(f"field data shape {self.data.shape} != expected {expected}")
        if not np.isfinite(self.data).all():
            bad = np.argwhere(~np.isfinite(self.data))[0]
            raise ValueError(f"non-finite entry at cell index {tuple(bad[:-1])}, component {bad[-1]}")
        lo, _ = sym_eig_bounds(self.data, self.grid.d)
        if lo.min() <= 0.0:
            bad = tuple(int(i) for i in np.unravel_index(int(np.argmin(lo)), lo.shape))
            raise ValueError(
                f"cell {bad} is not positive definite (min eigenvalue {lo.min():.3e})"
            )
        self._inv_data: np.ndarray | None = None
        self._hash: str | None = None

    @property
    def d(self) -> int:
        return self.grid.d

    @property
    def inv_data(self) -> np.ndarray:
        """Packed per-cell matrix inverses (computed once, cached)."""
        if self._inv_data is None:
            self._inv_data = sym_inv(self.data, self.d)
        return self._inv_data

    def cells_full(self) -> np.ndarray:
        """Per-cell matrices expanded to shape ``cell_shape + (d, d)``."""
        return sym_unpack(self.data, self.d)

    @property
    def content_hash(self) -> str:
        """SHA-256 over grid metadata and raw cell data (descriptor excluded)."""
        if self._hash is None:
            digest = hashlib.sha256()
            digest.update(MAGIC)
            digest.update(struct.pack("<BBI", self.d, self.grid.N, self.data.shape[-1]))
            digest.update(self.data.astype("<f8").tobytes(order="C"))
            self._hash = digest.hexdigest()
        return self._hash

    def scaled(self, c: float, descriptor: str | None = None) -> "CoefficientField":
        """The field ``c * a`` (``c > 0``)."""
        if c <= 0:
            raise ValueError("scaling factor must be positive")
        desc = descriptor if descriptor is not None else f"scaled({c!r})*{self.descriptor}"
        return CoefficientField(self.grid, c * self.data, desc)


@dataclass
class ScalarGridFunction:
    """Scalar function sampled on the grid, either per cell or per node."""

    grid: GridSpec
    data: np.ndarray
    mode: str  # "cell" or "node"

    def __post_init__(self) -> None:
        if self.mode not in ("cell", "node"):
            raise ValueError(f"mode must be 'cell' or 'node', got {self.mode!r}")
        self.data = np.asarray(self.data, dtype=float)
        expected = self.grid.cell_shape if self.mode == "cell" else self.grid.node_shape
        if self.data.shape != expected:
            raise ValueError(f"data shape {self.data.shape} != expected {expected}")

    @classmethod
    def from_callable(
        cls, grid: GridSpec, fn: Callable[..., np.ndarray], mode: str = "node"
    ) -> "ScalarGridFunction":
        """Sample ``fn(X1, ..., Xd)`` (centered coordinates) on cells or nodes."""
        mesh = grid.node_mesh() if mode == "node" else grid.cell_center_mesh()
        return cls(grid, np.asarray(fn(*mesh), dtype=float), mode)

    def mean(self) -> float:
        """Volume average over the domain (exact for the implied interpolant)."""
        if self.mode == "cell":
            return float(self.data.mean())
        w = np.ones(self.grid.cells_per_side + 1)
        w[0] = w[-1] = 0.5
        w /= w.sum()
        out = self.data
        for axis in range(self.grid.d):
            out = np.tensordot(w, out, axes=(0, 0))
        return float(out)

    def cell_values(self) -> np.ndarray:
        """Values at cell centers (corner averages for node mode)."""
        if self.mode == "cell":
            return self.data
        out = self.data
        for axis in range(self.grid.d):
            out = 0.5 * (np.take(out, range(out.shape[axis] - 1), axis=axis)
                         + np.take(out, range(1, out.shape[axis]), axis=axis))
        return out


def cube_average(
    field: CoefficientField, cube: TriadicCube, *, inverted: bool = False
) -> np.ndarray:
    """Arithmetic cell average of the field (or its cellwise inverse) over a cube.

    Returns the full symmetric ``(d, d)`` matrix. Exact for piecewise-constant
    data since cubes are unions of whole cells.
    """
    data = field.inv_data if inverted else field.data
    block = data[cube.cell_slices(field.grid)]
    packed = block.reshape(-1, data.shape[-1]).mean(axis=0)
    return sym_unpack(packed, field.d)


def block_view(arr: np.ndarray, d: int, factor: int) -> np.ndarray:
    """View of a ``(n,)*d + trailing`` array cut into blocks of side ``factor``.

    The result has shape ``(nb,)*d + (factor,)*d + trailing`` with
    ``nb = n // factor``: the first ``d`` axes index the block on the coarse
    lattice (row-major, as in :func:`partition`), the next ``d`` the cell
    within it. This is the one triadic block reshape of the package.
    """
    nb = arr.shape[0] // factor
    split = arr.reshape((nb, factor) * d + arr.shape[d:])
    order = tuple(range(0, 2 * d, 2)) + tuple(range(1, 2 * d, 2))
    return split.transpose(order + tuple(range(2 * d, split.ndim)))


def block_reduce(arr: np.ndarray, d: int, factor: int, reduce=np.mean) -> np.ndarray:
    """Reduce every block of :func:`block_view` to one value per component.

    ``reduce`` is any NumPy reduction taking ``axis`` (``np.mean``,
    ``np.max``, ...); the result has shape ``(n // factor,)*d + trailing``.
    """
    return reduce(block_view(arr, d, factor), axis=tuple(range(d, 2 * d)))


def scale_weighted_sum(terms: dict, s: float, level: int, grid_n: int, cell_term):
    """Geometric sum of per-scale terms seen from a level-``level`` cube.

    Returns ``(total, tail)``: ``total`` adds ``3**(-s*(level-k)) * terms[k]``
    over the levels ``k`` of ``terms`` in ascending order (a fixed reduction
    order), then ``tail``, the exact sum over the scales below the grid,
    where every cube is one cell and each term is ``cell_term``. Terms are
    floats or arrays over the level's cubes.
    """
    total = 0.0
    for k in sorted(terms):
        total = total + 3.0 ** (-s * (level - k)) * terms[k]
    tail = cell_term * 3.0 ** (-s * (level + grid_n + 1)) / (1.0 - 3.0 ** (-s))
    return total + tail, tail


def scale_weighted_constant(norms_by_level: dict, s: float, level: int):
    """Scale-weighted constant of every level-``level`` cube, before squaring.

    ``norms_by_level`` maps each level ``k`` from the cell level ``-N`` up to
    at least ``level`` to the norms of one matrix per level-``k`` cube (shape
    ``(3**-k,)*d``). Returns ``(total, maxima, tail)``, arrays over the
    level-``level`` cubes: ``maxima[k]`` is ``sqrt`` of the largest level-``k``
    norm inside each cube, for every ``k <= level``; ``total`` is ``c_s`` times
    their :func:`scale_weighted_sum` and ``tail`` ``c_s`` times its sub-grid
    tail, which repeats the cell-level maxima; ``c_s = 1 - 3**-s``.
    """
    grid_n = -min(norms_by_level)
    maxima = {k: np.sqrt(block_reduce(norms, norms.ndim, 3 ** (level - k), np.max))
              for k, norms in sorted(norms_by_level.items()) if k <= level}
    c_s = 1.0 - 3.0 ** (-s)
    total, tail = scale_weighted_sum(maxima, s, level, grid_n, maxima[-grid_n])
    return c_s * total, maxima, c_s * tail


# ---------------------------------------------------------------------------
# Binary field format
#
# Layout: 16-byte header (magic, u8 dimension, u8 refinement exponent, u16
# reserved, u32 component count, u32 reserved), then 3^(dN) * d(d+1)/2
# little-endian float64 values with cells in row-major order (last coordinate
# fastest) and per-cell components innermost, then a u32 length-prefixed UTF-8
# descriptor string.
# ---------------------------------------------------------------------------

def write_field(field: CoefficientField, path) -> None:
    """Serialize a coefficient field to the binary field format."""
    ncomp = field.data.shape[-1]
    header = HEADER_STRUCT.pack(MAGIC, field.d, field.grid.N, 0, ncomp, 0)
    desc = field.descriptor.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(field.data.astype("<f8").tobytes(order="C"))
        fh.write(struct.pack("<I", len(desc)))
        fh.write(desc)


def read_field(path) -> CoefficientField:
    """Read a coefficient field, validating the format strictly.

    Raises
    ------
    FieldFormatError
        On magic mismatch, truncated payload or descriptor, inconsistent
        component count, or non-finite payload values (the first offending
        offset is named).
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < HEADER_STRUCT.size:
        raise FieldFormatError(f"file too short for header: {len(raw)} bytes")
    magic, d, N, _res0, ncomp, _res1 = HEADER_STRUCT.unpack_from(raw, 0)
    if magic != MAGIC:
        raise FieldFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if not (1 <= d <= 3):
        raise FieldFormatError(f"unsupported dimension {d}")
    if N < 1:
        raise FieldFormatError(f"invalid refinement exponent {N}")
    if ncomp != sym_component_count(d):
        raise FieldFormatError(
            f"component count {ncomp} inconsistent with dimension {d} "
            f"(expected {sym_component_count(d)})"
        )
    grid = GridSpec(d, N)
    n_values = grid.n_cells * ncomp
    payload_end = HEADER_STRUCT.size + 8 * n_values
    if len(raw) < payload_end:
        raise FieldFormatError(
            f"truncated payload: expected {8 * n_values} data bytes, "
            f"got {len(raw) - HEADER_STRUCT.size}"
        )
    data = np.frombuffer(raw, dtype="<f8", count=n_values, offset=HEADER_STRUCT.size)
    bad = ~np.isfinite(data)
    if bad.any():
        offset = int(np.argmax(bad))
        raise FieldFormatError(
            f"non-finite value at flat offset {offset} "
            f"(cell {offset // ncomp}, component {offset % ncomp})"
        )
    if len(raw) < payload_end + 4:
        raise FieldFormatError("truncated descriptor length")
    (desc_len,) = struct.unpack_from("<I", raw, payload_end)
    desc_end = payload_end + 4 + desc_len
    if len(raw) < desc_end:
        raise FieldFormatError(
            f"truncated descriptor: expected {desc_len} bytes, "
            f"got {len(raw) - payload_end - 4}"
        )
    descriptor = raw[payload_end + 4 : desc_end].decode("utf-8")
    data = data.reshape(grid.cell_shape + (ncomp,)).copy()
    return CoefficientField(grid, data, descriptor)


# ---------------------------------------------------------------------------
# Subcube geometry
# ---------------------------------------------------------------------------

def snapped_cell_range(grid: GridSpec, rho) -> tuple[int, int]:
    """Cell index range (inclusive) covering the centered cube of side ``rho``.

    The cube ``[-rho/2, rho/2]^d`` is snapped outward to cell boundaries: a
    cell is included iff it overlaps the cube on a set of positive measure.
    ``rho`` may be a float or ``Fraction``; arithmetic is exact.
    """
    rho = Fraction(rho)
    if not (0 < rho <= 1):
        raise ValueError(f"subcube side must be in (0, 1], got {rho}")
    n = grid.cells_per_side
    lo_raw = (1 - rho) / 2 * n
    hi_raw = (1 + rho) / 2 * n
    i_lo = lo_raw.numerator // lo_raw.denominator  # floor
    i_hi = -((-hi_raw.numerator) // hi_raw.denominator) - 1  # ceil - 1
    return int(i_lo), int(i_hi)


def subcube_cell_slices(grid: GridSpec, rho) -> tuple[slice, ...]:
    """Slices selecting the snapped centered subcube's cells on each axis."""
    i_lo, i_hi = snapped_cell_range(grid, rho)
    return (slice(i_lo, i_hi + 1),) * grid.d
