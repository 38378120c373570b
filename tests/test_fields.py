"""Tests for the coefficient field generators."""

import math

import numpy as np
import pytest

from cge.fields import (
    CantorParams,
    CascadeParams,
    LayeredParams,
    cantor_density,
    cascade_density,
    gen_cantor_field,
    gen_cascade_field,
    gen_constant,
    gen_laminate,
    gen_layered_example,
    gen_random_spd,
    layered_profile,
)
from cge.grid import GridSpec, TriadicCube, cube_average, sym_unpack

@pytest.mark.parametrize("make, name", [
    *[(lambda bad=bad: gen_random_spd(GridSpec(2, 1), 1, eig_low=bad), "eig_low")
      for bad in (math.nan, math.inf, 0.0)],
    *[(lambda bad=bad: gen_random_spd(GridSpec(2, 1), 1, eig_high=bad), "eig_high")
      for bad in (math.nan, math.inf, 1e-4)],
    *[(lambda bad=bad: CascadeParams(bad, 2, 1), "gamma") for bad in (math.nan, math.inf, -0.5)],
    *[(lambda bad=bad: gen_laminate(GridSpec(1, 2), 0, [1.0, bad]), "values")
      for bad in (math.nan, math.inf, 0.0)],
])
def test_parameters_that_are_not_finite_are_rejected_by_name(make, name):
    # NaN passes no comparison: each check is one NaN cannot pass
    with pytest.raises(ValueError, match=f"^{name} must "):
        make()


# Captured from the first build of the cascade generator; guards against any
# unintended change to the seeding scheme or the multiplier law.
CASCADE_GOLDEN_HASH = "a164a3c9c058dc1cc82d6feee30ae7809be5b35522d36423fd57f00101d60a5e"


def field_scalar_cells(field):
    """Scalar per-cell values of an isotropic field (asserts isotropy)."""
    full = field.cells_full()
    d = field.d
    vals = full[..., 0, 0]
    for i in range(d):
        for j in range(d):
            expect = vals if i == j else np.zeros_like(vals)
            np.testing.assert_array_equal(full[..., i, j], expect)
    return vals


# ---------------------------------------------------------------------------
# constant / laminate / random SPD
# ---------------------------------------------------------------------------

def test_gen_constant_every_cell():
    g = GridSpec(2, 2)
    m = np.array([[2.0, 0.5], [0.5, 1.0]])
    f = gen_constant(g, m)
    np.testing.assert_array_equal(f.cells_full(), np.broadcast_to(m, g.cell_shape + (2, 2)))
    assert "constant" in f.descriptor


def test_gen_constant_rejects_bad_matrices():
    g = GridSpec(2, 1)
    with pytest.raises(ValueError, match="symmetric"):
        gen_constant(g, np.array([[1.0, 0.3], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="positive definite"):
        gen_constant(g, np.diag([1.0, -1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [(0, 0), (1, 0)])
def test_gen_constant_names_an_entry_that_is_not_finite(bad, entry):
    # checked before symmetry, which a NaN entry also breaks
    matrix = np.eye(2)
    matrix[entry] = bad
    with pytest.raises(ValueError, match=rf"^matrix must be finite, entry \[{entry[0]}, "
                                         rf"{entry[1]}\] is {bad}$"):
        gen_constant(GridSpec(2, 1), matrix)


def test_gen_laminate_single_value_constant():
    g = GridSpec(2, 1)
    f = gen_laminate(g, 0, [3.0])
    np.testing.assert_array_equal(field_scalar_cells(f), 3.0)


def test_gen_laminate_three_stripes_mean():
    g = GridSpec(2, 2)
    f = gen_laminate(g, 0, [1.0, 9.0, 1.0])
    cells = field_scalar_cells(f)
    np.testing.assert_array_equal(cells[:3], 1.0)
    np.testing.assert_array_equal(cells[3:6], 9.0)
    np.testing.assert_array_equal(cells[6:], 1.0)
    avg = cube_average(f, TriadicCube(0, (0, 0)))
    np.testing.assert_allclose(avg, (11.0 / 3.0) * np.eye(2), rtol=1e-14)


def test_gen_laminate_two_stripes_overlap_average():
    # 2 stripes never align with 3^N cells; the middle cell straddles.
    g = GridSpec(2, 2)
    f = gen_laminate(g, 0, [1.0, 4.0])
    cells = field_scalar_cells(f)
    np.testing.assert_allclose(cells[:4, 0], 1.0)
    np.testing.assert_allclose(cells[5:, 0], 4.0)
    assert cells[4, 0] == pytest.approx(2.5)  # half-and-half overlap
    avg = cube_average(f, TriadicCube(0, (0, 0)))
    np.testing.assert_allclose(avg, 2.5 * np.eye(2), rtol=1e-14)
    inv_avg = cube_average(f, TriadicCube(0, (0, 0)), inverted=True)
    ideal = 0.625  # exact half-split value; overlap cell shifts it at O(h)
    assert abs(inv_avg[0, 0] - ideal) < 3.0 ** (-g.N)


def test_gen_laminate_axis_orientation():
    g = GridSpec(2, 1)
    f = gen_laminate(g, 1, [1.0, 9.0, 1.0])
    cells = field_scalar_cells(f)
    assert (cells[:, 0] == 1.0).all() and (cells[:, 1] == 9.0).all()


def test_gen_laminate_rejects_bad_input():
    g = GridSpec(2, 1)
    with pytest.raises(ValueError):
        gen_laminate(g, 0, [])
    with pytest.raises(ValueError):
        gen_laminate(g, 0, [1.0, -2.0])
    with pytest.raises(ValueError):
        gen_laminate(g, 2, [1.0])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gen_random_spd_eigen_range_and_determinism(d):
    g = GridSpec(d, 1)
    f1 = gen_random_spd(g, seed=7)
    f2 = gen_random_spd(g, seed=7)
    assert f1.content_hash == f2.content_hash
    assert gen_random_spd(g, seed=8).content_hash != f1.content_hash
    w = np.linalg.eigvalsh(f1.cells_full())
    assert w.min() >= 1e-3 * (1 - 1e-12)
    assert w.max() <= 1e3 * (1 + 1e-12)


def test_gen_random_spd_rotations_produce_off_diagonals():
    g = GridSpec(2, 2)
    f = gen_random_spd(g, seed=1)
    assert np.abs(f.data[..., 1]).max() > 0.0


# ---------------------------------------------------------------------------
# layered spikes
# ---------------------------------------------------------------------------

def test_layered_zero_layers_trivial():
    g1 = GridSpec(1, 2)
    prof = layered_profile(g1, LayeredParams(alpha=0.5, k_max=0))
    np.testing.assert_array_equal(prof.data, 0.0)
    f = gen_layered_example(GridSpec(2, 2), LayeredParams(alpha=0.5, k_max=0))
    np.testing.assert_array_equal(field_scalar_cells(f), 1.0)


def test_layered_integral_matches_geometric_sum():
    params = LayeredParams(alpha=0.5, k_max=3)
    g = GridSpec(1, 11)  # finest layer has width 3^-10.5
    prof = layered_profile(g, params)
    expect = sum(3.0 ** (-(1 - params.alpha) * k) for k in range(1, 4))
    assert prof.mean() == pytest.approx(expect, rel=1e-12)


def test_layered_moment_mass_grows_with_layer_count():
    g = GridSpec(1, 11)
    masses = []
    for k_max in (1, 2, 3):
        prof = layered_profile(g, LayeredParams(alpha=0.5, k_max=k_max))
        masses.append(float((prof.data**2).mean()))
    assert masses[0] < masses[1] < masses[2]
    # each layer k contributes at least amplitude^2 * length = 3^(k^2 + (alpha-1)k)
    assert masses[2] > 3.0 ** (9 - 1.5) * 0.9


def test_layered_resolution_guard():
    with pytest.raises(ValueError, match="width"):
        layered_profile(GridSpec(1, 5), LayeredParams(alpha=0.5, k_max=3))


def test_layered_field_radially_non_increasing():
    g = GridSpec(2, 4)
    f = gen_layered_example(g, LayeredParams(alpha=0.5, k_max=1))
    profile = field_scalar_cells(f)[:, 0]
    x = g.axis_cell_centers()
    order = np.argsort(np.abs(x), kind="stable")
    radial = profile[order]
    assert (np.diff(radial) <= 1e-12).all()
    assert profile.min() >= 1.0


def test_layered_field_center_carries_all_layers():
    g = GridSpec(2, 5)
    params = LayeredParams(alpha=0.5, k_max=1)
    f = gen_layered_example(g, params)
    profile = field_scalar_cells(f)[:, 0]
    mid = g.cells_per_side // 2
    # the center cell average equals 1 + (mass inside the center cell)/h
    h = g.h
    ell, amp = params.length(1), params.amplitude(1)
    inside = 2 * amp * min(ell, h / 2)
    assert profile[mid] == pytest.approx(1 + inside / h, rel=1e-12)


# ---------------------------------------------------------------------------
# Cantor measure
# ---------------------------------------------------------------------------

def test_cantor_generation_zero_trivial():
    g = GridSpec(2, 2)
    f = gen_cantor_field(g, CantorParams(0))
    np.testing.assert_array_equal(field_scalar_cells(f), 2.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cantor_mass_and_moments_exact(n):
    g = GridSpec(2, max(3, n))
    rho = cantor_density(g, CantorParams(n))
    assert rho.mean() == pytest.approx(1.0, abs=1e-12)
    assert (rho.data**2).mean() == pytest.approx((9.0 / 4.0) ** n, rel=1e-12)
    support = int((rho.data > 0).sum())
    assert support * 9 ** (n - g.N) == pytest.approx(4.0**n)


def test_cantor_density_is_product_structure():
    g = GridSpec(2, 2)
    rho = cantor_density(g, CantorParams(1))
    keep = np.array([True, True, True, False, False, False, True, True, True])
    expect = np.where(np.outer(keep, keep), 2.25, 0.0)
    np.testing.assert_array_equal(rho.data, expect)


def test_cantor_guards():
    with pytest.raises(ValueError, match="generation"):
        cantor_density(GridSpec(2, 2), CantorParams(3))
    with pytest.raises(ValueError, match="planar"):
        cantor_density(GridSpec(1, 2), CantorParams(1))


# ---------------------------------------------------------------------------
# multiplicative cascade
# ---------------------------------------------------------------------------

def test_cascade_gamma_zero_trivial():
    g = GridSpec(2, 2)
    f = gen_cascade_field(g, CascadeParams(gamma=0.0, n=2, seed=1))
    np.testing.assert_array_equal(field_scalar_cells(f), 2.0)


def test_cascade_deterministic_and_seed_sensitive():
    g = GridSpec(2, 3)
    p = CascadeParams(gamma=0.5, n=3, seed=42)
    f1 = gen_cascade_field(g, p)
    f2 = gen_cascade_field(g, p)
    assert f1.content_hash == f2.content_hash
    f3 = gen_cascade_field(g, CascadeParams(gamma=0.5, n=3, seed=43))
    assert f3.content_hash != f1.content_hash


def test_cascade_golden_hash():
    g = GridSpec(2, 3)
    f = gen_cascade_field(g, CascadeParams(gamma=0.5, n=3, seed=42))
    assert f.content_hash == CASCADE_GOLDEN_HASH


def test_cascade_levels_shared_across_generations():
    # With one seed, the generation-(n+1) density refines the generation-n
    # one: block averages relate by the level multipliers, so the ratio
    # density_{n+1} / density_n is constant on level-(n+1) cells and mean-one
    # in expectation. Check it is a valid multiplier pattern (positive,
    # piecewise constant on the finer triadic lattice).
    g = GridSpec(2, 3)
    d2 = cascade_density(g, CascadeParams(gamma=0.6, n=2, seed=9)).data
    d3 = cascade_density(g, CascadeParams(gamma=0.6, n=3, seed=9)).data
    ratio = d3 / d2
    assert ratio.min() > 0
    # constant on each level-3 cell (here: individual cells since N=3)
    # and d2 itself constant on level-2 blocks of 3x3 cells
    blocks = d2.reshape(9, 3, 9, 3)
    assert np.ptp(blocks, axis=(1, 3)).max() == 0.0


def test_cascade_density_mean_is_stochastically_one():
    g = GridSpec(2, 3)
    masses = [
        cascade_density(g, CascadeParams(gamma=0.5, n=3, seed=s)).mean()
        for s in range(40)
    ]
    assert abs(np.mean(masses) - 1.0) < 4 * np.std(masses) / math.sqrt(len(masses))


def test_cascade_resolution_guard():
    with pytest.raises(ValueError, match="generation"):
        cascade_density(GridSpec(2, 2), CascadeParams(gamma=0.5, n=3, seed=1))
