"""Tests for triadic grid primitives, packed matrices and field I/O."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cge.grid import (
    CoefficientField,
    FieldFormatError,
    GridSpec,
    ScalarGridFunction,
    TriadicCube,
    block_reduce,
    block_view,
    cube_average,
    partition,
    read_field,
    scale_weighted_sum,
    snapped_cell_range,
    sym_eig_bounds,
    sym_index_pairs,
    sym_inv,
    sym_norm,
    sym_pack,
    sym_unpack,
    write_field,
)


def random_spd_packed(rng, d, n):
    """n random SPD matrices, packed."""
    g = rng.standard_normal((n, d, d))
    mats = g @ np.swapaxes(g, -1, -2) + 0.1 * np.eye(d)
    return sym_pack(mats)


# ---------------------------------------------------------------------------
# Packed symmetric matrices
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [1, 2, 3])
def test_sym_pack_roundtrip(d):
    rng = np.random.default_rng(0)
    packed = random_spd_packed(rng, d, 7)
    full = sym_unpack(packed, d)
    np.testing.assert_array_equal(sym_pack(full), packed)
    np.testing.assert_array_equal(full, np.swapaxes(full, -1, -2))


def test_sym_index_pairs_row_major_upper():
    assert sym_index_pairs(2) == [(0, 0), (0, 1), (1, 1)]
    assert sym_index_pairs(3) == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sym_eig_bounds_match_lapack(d):
    rng = np.random.default_rng(1)
    packed = random_spd_packed(rng, d, 50)
    lo, hi = sym_eig_bounds(packed, d)
    w = np.linalg.eigvalsh(sym_unpack(packed, d))
    np.testing.assert_allclose(lo, w[..., 0], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(hi, w[..., -1], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sym_eig_bounds_non_finite_rows_are_nan(d, bad):
    # a failed solve leaves NaN rows; LAPACK (d = 3) would raise for the batch
    rng = np.random.default_rng(1)
    packed = random_spd_packed(rng, d, 6).reshape(2, 3, -1)
    lo_ok, hi_ok = sym_eig_bounds(packed, d)
    packed[1, 2, 0] = bad
    lo, hi = sym_eig_bounds(packed, d)
    assert not np.isfinite(lo[1, 2]) and not np.isfinite(hi[1, 2])
    if d == 3:
        assert np.isnan(lo[1, 2]) and np.isnan(hi[1, 2])
    keep = np.ones((2, 3), dtype=bool)
    keep[1, 2] = False
    np.testing.assert_array_equal(lo[keep], lo_ok[keep])
    np.testing.assert_array_equal(hi[keep], hi_ok[keep])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sym_inv_matches_lapack(d):
    rng = np.random.default_rng(2)
    packed = random_spd_packed(rng, d, 20)
    inv = sym_unpack(sym_inv(packed, d), d)
    np.testing.assert_allclose(inv, np.linalg.inv(sym_unpack(packed, d)), rtol=1e-10)


def _stress_stacks(rng, n=400):
    """3x3 stacks that test an eigenvalue or inverse routine: random
    symmetric (indefinite), random SPD, a degenerate pair with a third
    eigenvalue 1e-9 apart, rotated, and rotated contrast 1e8 (eigenvalues
    1e-4, 1, 1e4), each ``(name, packed)``."""
    q, _ = np.linalg.qr(rng.standard_normal((n, 3, 3)))

    def rotated(eigs):
        mats = q @ (np.asarray(eigs)[:, None] * np.swapaxes(q, -1, -2))
        return sym_pack(0.5 * (mats + np.swapaxes(mats, -1, -2)))

    g = rng.standard_normal((n, 3, 3))
    return [("indefinite", sym_pack(g + np.swapaxes(g, -1, -2))),
            ("spd", random_spd_packed(rng, 3, n)),
            ("degenerate-pair", rotated([1.0, 1.0, 1.0 + 1e-9])),
            ("contrast-1e8", rotated([1e-4, 1.0, 1e4]))]


@pytest.mark.parametrize("case", range(4), ids=["indefinite", "spd", "degenerate-pair",
                                                "contrast-1e8"])
def test_sym_eig_bounds_3d_stress_stacks(case):
    # the vectorized Jacobi sweeps against LAPACK's eigvalsh, to 1e-13 of
    # each matrix's norm, on the stacks that break closed forms
    _, packed = _stress_stacks(np.random.default_rng(7))[case]
    w = np.linalg.eigvalsh(sym_unpack(packed, 3))
    norm = np.abs(w).max(axis=-1)
    lo, hi = sym_eig_bounds(packed, 3)
    assert np.all(np.abs(lo - w[:, 0]) <= 1e-13 * norm)
    assert np.all(np.abs(hi - w[:, -1]) <= 1e-13 * norm)


@pytest.mark.parametrize("case", range(1, 4), ids=["spd", "degenerate-pair", "contrast-1e8"])
def test_sym_inv_3d_residual_near_lapack(case):
    # the closed-form Cholesky inverse: |A X - I| within a small factor of
    # LAPACK's, in the median and at worst, and X to 1e-13 of |A^-1| on
    # well-conditioned stacks
    _, packed = _stress_stacks(np.random.default_rng(8))[case]
    mats = sym_unpack(packed, 3)
    got, want = sym_unpack(sym_inv(packed, 3), 3), np.linalg.inv(mats)
    res_got = np.abs(mats @ got - np.eye(3)).max(axis=(-2, -1))
    res_want = np.abs(mats @ want - np.eye(3)).max(axis=(-2, -1))
    assert np.median(res_got) <= 4 * max(np.median(res_want), 1e-16)
    assert res_got.max() <= 4 * max(res_want.max(), 1e-16)
    if case != 3:
        norm = np.abs(want).max(axis=(-2, -1))[:, None, None]
        assert np.all(np.abs(got - want) <= 1e-13 * norm * np.abs(mats).max())


def test_sym_inv_3d_non_finite_or_indefinite_rows_are_nan():
    rng = np.random.default_rng(3)
    packed = random_spd_packed(rng, 3, 6)
    ok = sym_inv(packed, 3)
    packed[1, 0] = np.nan
    packed[4] = sym_pack(np.diag([1.0, -1.0, 2.0]))
    got = sym_inv(packed, 3)
    assert np.isnan(got[[1, 4]]).all()
    keep = [0, 2, 3, 5]
    np.testing.assert_array_equal(got[keep], ok[keep])


@given(st.integers(1, 3), st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_sym_norm_is_operator_norm(d, seed):
    rng = np.random.default_rng(seed)
    packed = random_spd_packed(rng, d, 5)
    expect = np.abs(np.linalg.eigvalsh(sym_unpack(packed, d))).max(axis=-1)
    np.testing.assert_allclose(sym_norm(packed, d), expect, rtol=1e-12)


# ---------------------------------------------------------------------------
# GridSpec / TriadicCube / partition
# ---------------------------------------------------------------------------

def test_gridspec_basics():
    g = GridSpec(2, 3)
    assert g.cells_per_side == 27
    assert g.n_cells == 27**2
    assert g.h == pytest.approx(1 / 27)
    assert g.cell_shape == (27, 27)
    assert g.node_shape == (28, 28)
    centers = g.axis_cell_centers()
    assert centers[0] == pytest.approx(-0.5 + 0.5 / 27)
    assert centers[-1] == pytest.approx(0.5 - 0.5 / 27)
    nodes = g.axis_nodes()
    assert nodes[0] == -0.5 and nodes[-1] == 0.5


@pytest.mark.parametrize("d,N", [(0, 2), (4, 2), (2, 0)])
def test_gridspec_rejects_bad_shapes(d, N):
    with pytest.raises(ValueError):
        GridSpec(d, N)


def test_partition_counts():
    g2 = GridSpec(2, 2)
    assert len(partition(g2, 0)) == 1
    assert len(partition(g2, -1)) == 9
    g1 = GridSpec(1, 3)
    cubes = partition(g1, -2)
    assert len(cubes) == 9
    assert all(c.cells_per_side(g1) == 3 for c in cubes)


def test_partition_is_disjoint_cover():
    g = GridSpec(2, 2)
    hit = np.zeros(g.cell_shape, dtype=int)
    for cube in partition(g, -1):
        hit[cube.cell_slices(g)] += 1
    np.testing.assert_array_equal(hit, 1)


def test_partition_rejects_out_of_range_level():
    g = GridSpec(2, 2)
    with pytest.raises(ValueError):
        partition(g, -3)
    with pytest.raises(ValueError):
        partition(g, 1)


def test_cube_validation_and_children():
    with pytest.raises(ValueError):
        TriadicCube(1, (0,))
    with pytest.raises(ValueError):
        TriadicCube(-1, (3, 0))
    cube = TriadicCube(-1, (1, 2))
    kids = cube.children()
    assert len(kids) == 9
    assert kids[0].offset == (3, 6)
    assert kids[-1].offset == (5, 8)
    g = GridSpec(2, 2)
    lo, hi = cube.physical_bounds()
    np.testing.assert_allclose(lo, [1 / 3 - 0.5, 2 / 3 - 0.5])
    np.testing.assert_allclose(hi - lo, 1 / 3)
    assert cube.cell_slices(g) == (slice(3, 6), slice(6, 9))


def test_cube_below_resolution_errors():
    g = GridSpec(2, 2)
    with pytest.raises(ValueError):
        TriadicCube(-3, (0, 0)).cells_per_side(g)


# ---------------------------------------------------------------------------
# CoefficientField
# ---------------------------------------------------------------------------

def constant_field(grid, mat, descriptor="const"):
    packed = sym_pack(np.asarray(mat, dtype=float))
    data = np.broadcast_to(packed, grid.cell_shape + packed.shape).copy()
    return CoefficientField(grid, data, descriptor)


def test_field_validation_rejects_non_spd():
    g = GridSpec(2, 1)
    data = np.zeros(g.cell_shape + (3,))
    data[..., 0] = 1.0
    data[..., 2] = 1.0
    data[1, 2, 1] = 2.0  # off-diagonal too large -> indefinite
    with pytest.raises(ValueError, match=r"cell \(1, 2\)"):
        CoefficientField(g, data)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_field_validation_rejects_non_finite(bad):
    # the message names the cell and component in plain ints
    g = GridSpec(2, 1)
    data = np.zeros(g.cell_shape + (3,))
    data[..., 0] = data[..., 2] = 1.0
    data[2, 1, 2] = bad
    with pytest.raises(ValueError,
                       match=r"^non-finite entry at cell index \(2, 1\), component 2$"):
        CoefficientField(g, data)


def test_field_hash_ignores_descriptor_and_detects_content():
    g = GridSpec(2, 1)
    f1 = constant_field(g, np.eye(2), "one")
    f2 = constant_field(g, np.eye(2), "two")
    assert f1.content_hash == f2.content_hash
    f3 = constant_field(g, 2 * np.eye(2))
    assert f3.content_hash != f1.content_hash


def test_field_max_cell_norms():
    g = GridSpec(2, 1)
    f = constant_field(g, np.diag([1.0, 4.0]))
    lo, hi = sym_eig_bounds(f.data, f.d)
    assert np.maximum(np.abs(lo), np.abs(hi)).max() == pytest.approx(4.0)
    assert (1.0 / lo).max() == pytest.approx(1.0)


def test_inv_data_is_cellwise_inverse():
    g = GridSpec(2, 1)
    rng = np.random.default_rng(3)
    data = random_spd_packed(rng, 2, g.n_cells).reshape(g.cell_shape + (3,))
    f = CoefficientField(g, data)
    prod = sym_unpack(f.data, 2) @ sym_unpack(f.inv_data, 2)
    np.testing.assert_allclose(prod, np.broadcast_to(np.eye(2), prod.shape), atol=1e-10)


# ---------------------------------------------------------------------------
# cube_average
# ---------------------------------------------------------------------------

def test_cube_average_two_value_split():
    # d=1 field with cells [1, 1, 1, 4, 4, 4, 4, 4, 4]: thirds {1} and {4, 4}.
    g = GridSpec(1, 2)
    data = np.ones(g.cell_shape + (1,))
    data[3:, 0] = 4.0
    f = CoefficientField(g, data)
    avg = cube_average(f, TriadicCube(0, (0,)))
    np.testing.assert_allclose(avg, [[3.0]])
    inv = cube_average(f, TriadicCube(0, (0,)), inverted=True)
    np.testing.assert_allclose(inv, [[(1 / 1 + 2 / 4) / 3]])


def test_cube_average_matches_half_split_means():
    # Equal-measure {1, 4} split: arithmetic mean 2.5, inverse mean 0.625.
    g = GridSpec(1, 2)
    vals = np.ones(9)
    vals[:4] = 1.0
    vals[5:] = 4.0
    vals[4] = 2.5  # straddling middle cell carries the exact overlap average
    f = CoefficientField(g, vals[:, None])
    np.testing.assert_allclose(cube_average(f, TriadicCube(0, (0,))), [[2.5]])
    # the inverse average of the represented field differs from the ideal 0.625
    # by the straddling-cell substitution only
    ideal = 0.5 * (1 + 0.25)
    got = cube_average(f, TriadicCube(0, (0,)), inverted=True)[0, 0]
    assert got == pytest.approx((4 / 1 + 1 / 2.5 + 4 / 4) / 9)
    assert abs(got - ideal) < 0.03


def test_cube_average_nesting_consistency():
    # Parent average equals the mean of child averages.
    g = GridSpec(2, 2)
    rng = np.random.default_rng(4)
    data = random_spd_packed(rng, 2, g.n_cells).reshape(g.cell_shape + (3,))
    f = CoefficientField(g, data)
    for cube in partition(g, -1)[:3]:
        parent = cube_average(f, cube)
        kids = np.mean([cube_average(f, c) for c in cube.children()], axis=0)
        np.testing.assert_allclose(parent, kids, rtol=1e-13)


# ---------------------------------------------------------------------------
# Binary format
# ---------------------------------------------------------------------------

def test_field_roundtrip_bit_exact(tmp_path):
    g = GridSpec(2, 2)
    rng = np.random.default_rng(5)
    data = random_spd_packed(rng, 2, g.n_cells).reshape(g.cell_shape + (3,))
    f = CoefficientField(g, data, "random field, descriptor with unicode: Θ")
    path = tmp_path / "f.cge"
    write_field(f, path)
    back = read_field(path)
    assert back.grid == g
    assert back.descriptor == f.descriptor
    np.testing.assert_array_equal(back.data, f.data)
    assert back.content_hash == f.content_hash


def test_read_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.cge"
    p.write_bytes(b"NOPE" + bytes(12))
    with pytest.raises(FieldFormatError, match="magic"):
        read_field(p)


def test_read_rejects_truncated_payload(tmp_path):
    g = GridSpec(1, 1)
    f = CoefficientField(g, np.ones(g.cell_shape + (1,)), "x")
    p = tmp_path / "t.cge"
    write_field(f, p)
    raw = p.read_bytes()
    p.write_bytes(raw[: 16 + 8])  # keep one of three cells
    with pytest.raises(FieldFormatError, match="truncated payload"):
        read_field(p)


def test_read_rejects_nan_with_offset(tmp_path):
    g = GridSpec(1, 1)
    f = CoefficientField(g, np.ones(g.cell_shape + (1,)), "x")
    p = tmp_path / "n.cge"
    write_field(f, p)
    raw = bytearray(p.read_bytes())
    raw[16 + 8 : 16 + 16] = np.array([np.nan]).tobytes()
    p.write_bytes(bytes(raw))
    with pytest.raises(FieldFormatError, match="offset 1"):
        read_field(p)


def test_read_rejects_a_descriptor_that_is_not_utf8(tmp_path):
    g = GridSpec(1, 1)
    p = tmp_path / "u.cge"
    write_field(CoefficientField(g, np.ones(g.cell_shape + (1,)), "ab"), p)
    raw = bytearray(p.read_bytes())
    raw[-1] = 0xFF
    p.write_bytes(bytes(raw))
    with pytest.raises(FieldFormatError, match=r"descriptor is not UTF-8 .*b'a\\xff'"):
        read_field(p)


def test_read_rejects_bytes_after_the_descriptor(tmp_path):
    g = GridSpec(1, 1)
    p = tmp_path / "x.cge"
    write_field(CoefficientField(g, np.ones(g.cell_shape + (1,)), "x"), p)
    p.write_bytes(p.read_bytes() + b"\0\0")
    with pytest.raises(FieldFormatError, match="2 unexpected bytes after the descriptor"):
        read_field(p)


def test_read_rejects_inconsistent_components(tmp_path):
    import struct

    p = tmp_path / "c.cge"
    header = struct.pack("<4sBBHII", b"CGE1", 2, 1, 0, 5, 0)
    p.write_bytes(header + bytes(8 * 9 * 5) + struct.pack("<I", 0))
    with pytest.raises(FieldFormatError, match="component count"):
        read_field(p)


def test_payload_layout_last_coordinate_fastest(tmp_path):
    # Cell (i, j) component c sits at flat position (i*n + j)*ncomp + c.
    g = GridSpec(2, 1)
    data = np.zeros(g.cell_shape + (3,))
    data[..., 0] = 1.0
    data[..., 2] = 1.0
    data[1, 2, 0] = 7.0
    f = CoefficientField(g, data)
    p = tmp_path / "l.cge"
    write_field(f, p)
    raw = p.read_bytes()
    flat = np.frombuffer(raw, dtype="<f8", count=27, offset=16)
    assert flat[(1 * 3 + 2) * 3 + 0] == 7.0


# ---------------------------------------------------------------------------
# Subcube snapping
# ---------------------------------------------------------------------------

def test_snapped_cell_range_desk_scale():
    g = GridSpec(2, 5)
    assert snapped_cell_range(g, 0.125) == (106, 136)
    assert snapped_cell_range(g, 0.25) == (91, 151)
    assert snapped_cell_range(g, 0.5) == (60, 182)
    assert snapped_cell_range(g, 1) == (0, 242)


def test_snapped_cell_range_exact_boundaries():
    # side 1/3 lands exactly on grid lines: no outward spill
    g = GridSpec(1, 2)
    from fractions import Fraction

    assert snapped_cell_range(g, Fraction(1, 3)) == (3, 5)
    with pytest.raises(ValueError):
        snapped_cell_range(g, 0)


@given(st.integers(1, 5), st.fractions(min_value="1/100", max_value=1))
@settings(max_examples=60, deadline=None)
def test_snapped_range_covers_and_is_minimal(N, rho):
    g = GridSpec(1, N)
    lo, hi = snapped_cell_range(g, rho)
    n = g.cells_per_side
    a = (1 - rho) / 2 * n
    b = (1 + rho) / 2 * n
    assert lo <= a and b <= hi + 1  # covers
    assert a - lo < 1 and hi + 1 - b < 1  # snaps by less than one cell
    assert 0 <= lo <= hi < n


# ---------------------------------------------------------------------------
# ScalarGridFunction
# ---------------------------------------------------------------------------

def test_scalar_function_means():
    g = GridSpec(2, 2)
    u = ScalarGridFunction.from_callable(g, lambda x, y: x + 2 * y, mode="node")
    assert u.mean() == pytest.approx(0.0, abs=1e-14)
    v = ScalarGridFunction.from_callable(g, lambda x, y: np.full_like(x, 3.0), mode="cell")
    assert v.mean() == pytest.approx(3.0)


def test_scalar_function_cell_values_from_nodes():
    g = GridSpec(1, 1)
    u = ScalarGridFunction.from_callable(g, lambda x: x, mode="node")
    np.testing.assert_allclose(u.cell_values(), g.axis_cell_centers(), atol=1e-15)


def test_scalar_function_shape_validation():
    g = GridSpec(2, 1)
    with pytest.raises(ValueError):
        ScalarGridFunction(g, np.zeros((3, 3)), "node")
    with pytest.raises(ValueError):
        ScalarGridFunction(g, np.zeros((3, 3)), "blah")


# ---------------------------------------------------------------------------
# Triadic block primitive
# ---------------------------------------------------------------------------

def _loop_block_reduce(arr, d, factor, reduce):
    """Reference: reduce each block by explicit loops over block and cell."""
    nb = arr.shape[0] // factor
    out = np.empty((nb,) * d + arr.shape[d:])
    for z in np.ndindex((nb,) * d):
        cells = [arr[tuple(zi * factor + ei for zi, ei in zip(z, e))]
                 for e in np.ndindex((factor,) * d)]
        out[z] = reduce(np.stack(cells), axis=0)
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("packed", [False, True])
@pytest.mark.parametrize("factor", [1, 3, 9])
@pytest.mark.parametrize("reduce", [np.mean, np.max])
def test_block_reduce_matches_explicit_loops(d, packed, factor, reduce):
    rng = np.random.default_rng(10 * d + factor)
    trailing = (d * (d + 1) // 2,) if packed else ()
    arr = rng.standard_normal((9,) * d + trailing)
    got = block_reduce(arr, d, factor, reduce)
    want = _loop_block_reduce(arr, d, factor, reduce)
    assert got.shape == (9 // factor,) * d + trailing
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("packed", [False, True])
def test_block_view_indexes_blocks_then_cells(d, packed):
    trailing = (2,) if packed else ()
    arr = np.arange(9**d * (2 if packed else 1), dtype=float).reshape((9,) * d + trailing)
    view = block_view(arr, d, 3)
    assert view.shape == (3,) * d + (3,) * d + trailing
    assert np.shares_memory(view, arr)
    for z in np.ndindex((3,) * d):
        for e in np.ndindex((3,) * d):
            cell = tuple(3 * zi + ei for zi, ei in zip(z, e))
            np.testing.assert_array_equal(view[z + e], arr[cell])


def test_block_reduce_follows_partition_order():
    # cube offsets index the leading axes, cube cell slices the blocks
    grid = GridSpec(2, 2)
    arr = np.arange(81.0).reshape(9, 9)
    means = block_reduce(arr, 2, 3)
    for cube in partition(grid, -1):
        assert means[cube.offset] == pytest.approx(arr[cube.cell_slices(grid)].mean())


# ---------------------------------------------------------------------------
# Scale-weighted sum
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s", [0.15, 0.45, 0.9])
@pytest.mark.parametrize("level", [0, -2])
@pytest.mark.parametrize("c", [2.5, np.array([[0.3, 1.0, 7.0], [1e-3, 4.0, 1e3]])],
                         ids=["float", "array"])
def test_scale_weighted_sum_of_a_constant_is_geometric(s, level, c):
    # the same term c at every scale, on the grid and below it, sums to
    # c * sum_j 3**(-s*j) = c / (1 - 3**-s)
    grid_n = 4
    terms = {k: c for k in range(-grid_n, level + 1)}
    total, tail = scale_weighted_sum(terms, s, level, grid_n, c)
    np.testing.assert_allclose(total, c / (1.0 - 3.0 ** -s), rtol=1e-15, atol=0)
    # the on-grid scales are the first level + grid_n + 1 terms of that series
    r = 3.0 ** -s
    np.testing.assert_allclose(total - tail, c * (1.0 - r ** (level + grid_n + 1)) / (1.0 - r),
                               rtol=1e-14, atol=0)
