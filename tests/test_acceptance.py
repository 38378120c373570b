"""End-to-end acceptance suite: one test per shipped guarantee.

Each test exercises a complete user-visible pipeline (field construction,
coarse-graining, ellipticity constants, experiments, diagnostics, CLI) and
pins its outcome against an independently computed closed form or a frozen
measured value.  Run with ``pytest tests/test_acceptance.py -v`` for one
pass/fail line per guarantee.
"""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cge.cli import main
from cge.coarse import audit, ellipticity_constants, sweep
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
    gen_random_spd,
    layered_profile,
)
from cge.grid import (
    CoefficientField,
    GridSpec,
    TriadicCube,
    read_field,
    sym_pack,
    write_field,
)
from cge.harness import (
    local_boundedness_experiment,
    log_caccioppoli_diagnostic,
    reverse_holder_diagnostic,
    sharpness_sweep,
    sobolev_poincare_diagnostic,
)
from cge.norms import dual_sum_norm
from cge.solver import solve_dirichlet
from q1_oracle import _dense_stiffness, _forcing_vectors

DESK = GridSpec(d=2, N=5)
CUBE0 = TriadicCube(0, (0, 0))


def random_diagonal_field(grid: GridSpec, seed: int,
                          low: float = 1e-2, high: float = 1e2) -> CoefficientField:
    """Cellwise-independent diagonal field with log-uniform entries."""
    rng = np.random.default_rng(seed)
    shape = grid.cell_shape
    data = np.zeros(shape + (3,))
    data[..., 0] = np.exp(rng.uniform(math.log(low), math.log(high), size=shape))
    data[..., 2] = np.exp(rng.uniform(math.log(low), math.log(high), size=shape))
    return CoefficientField(grid, data, descriptor=f"diag-random(seed={seed})")


def test_c01_constant_fields_reproduce_their_matrix_on_every_cube():
    # Both effective matrices must be fixed points on constant media, and the
    # scale-weighted constants must collapse to the plain matrix norms.
    for mat in (np.eye(2), np.diag([1.0, 4.0])):
        field = gen_constant(DESK, mat)
        result = sweep(field)
        assert not result.failures
        packed = sym_pack(mat)
        scale = np.linalg.norm(mat, 2)
        worst = 0.0
        for level_data in result.levels.values():
            for arr in (level_data.astar, level_data.avg):
                worst = max(worst, float(np.max(np.abs(arr - packed))) / scale)
        assert worst <= 1e-8
        report = ellipticity_constants(result, 0.45, 0.45)
        upper = np.linalg.norm(mat, 2)
        lower = 1.0 / np.linalg.norm(np.linalg.inv(mat), 2)
        assert report.lambda_upper == pytest.approx(upper, rel=1e-8)
        assert report.lambda_lower == pytest.approx(lower, rel=1e-8)
        assert report.theta == pytest.approx(np.linalg.cond(mat), rel=1e-8)


def test_c02_striped_medium_matches_one_dimensional_closed_forms():
    # Stripes of conductivity {1, 4} along the first axis: the flux-side
    # matrix is the arithmetic mean 2.5 in both directions, the gradient-side
    # first component is the harmonic mean 1.6.
    field = gen_laminate(DESK, 0, (1.0, 4.0))
    pair = sweep(field).pair(CUBE0)
    assert_allclose(pair.avg, 2.5 * np.eye(2), rtol=0, atol=2.5e-6)
    assert pair.astar[0, 0] == pytest.approx(1.6, rel=1e-6)


def test_c03_random_media_satisfy_every_ordering_inequality():
    # 100 seeded rough media with nine decades of eigenvalue spread: the
    # ordering chain, both subadditivity laws, exponent monotonicity, the
    # ratio floor, and the per-level scaling bound must all hold.
    grid = GridSpec(d=2, N=3)
    total_violations = 0
    last = None
    for seed in range(100):
        field = gen_random_spd(grid, seed=seed, eig_low=1e-3, eig_high=1e3)
        last = audit(sweep(field))
        total_violations += len(last.violations)
    assert total_violations == 0
    assert all(count > 0 for count in last.checked.values())


def test_c04_sampled_rayleigh_quotients_never_exceed_the_forms():
    # Every discrete test function yields a Rayleigh quotient below the
    # corresponding quadratic form of the computed matrices. Its energy,
    # mean gradient and mean flux come from the dense Q1 stiffness and loads.
    grid = GridSpec(d=2, N=2)
    cube = TriadicCube(0, (0, 0))
    rng = np.random.default_rng(42)
    m = 3**grid.N + 1
    for field_seed in range(20):
        field = gen_random_spd(grid, seed=field_seed, eig_low=1e-2, eig_high=1e2)
        pair = sweep(field).pair(cube)
        kmat, loads = _dense_stiffness(field, cube), _forcing_vectors(field, cube) / cube.volume
        directions = [np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                      rng.normal(size=2)]
        for _ in range(20):
            v = rng.normal(size=m * m)
            en = v @ kmat @ v / cube.volume
            grad, flux = loads[:, :2].T @ v, loads[:, 2:].T @ v
            for q in directions:
                bound = q @ pair.astar_inv @ q
                assert (grad @ q) ** 2 / en <= bound + 1e-7 * (1.0 + bound)
                bound = q @ pair.avg @ q
                assert (flux @ q) ** 2 / en <= bound + 1e-7 * (1.0 + bound)


def test_c05_oscillation_growth_scales_with_square_root_of_contrast():
    # Exact-solution boundary data on diag(1, L) media: the fitted slope of
    # the oscillation log-ratio against sqrt(L) sits in the frozen band
    # around the continuum value 1/8, and each point matches the continuum
    # prediction sqrt(L)/8 + log sec(1/16) within 2%.
    contrasts = (1.0, 4.0, 16.0, 64.0)
    report = sharpness_sweep(list(contrasts))
    assert not report.failures
    assert all(rec.passed for rec in report.records)
    assert 0.11 <= report.slope <= 0.14
    assert report.intercept >= 0.0
    continuum_offset = math.log(1.0 / math.cos(1.0 / 16.0))
    for rec, lam in zip(report.records, contrasts):
        predicted = math.sqrt(lam) / 8.0 + continuum_offset
        assert rec.harnack_log_ratio == pytest.approx(predicted, rel=0.02)


def test_c06_layered_profile_integrates_exactly_and_its_mass_diverges():
    # The layered spike profile integrates to the explicit geometric sum for
    # every depth, its squared mass grows with depth, and the per-scale
    # maxima of the dual sum norm stay below c * 3^k with a stable constant.
    grid = GridSpec(d=1, N=11)
    masses = []
    for k_max in (1, 2, 3):
        profile = layered_profile(grid, LayeredParams(alpha=0.5, k_max=k_max))
        target = sum(3.0 ** (-0.5 * k) for k in range(1, k_max + 1))
        assert profile.data.mean() == pytest.approx(target, rel=1e-12)
        masses.append(float((profile.data ** 2).mean()))
    assert masses[0] < masses[1] < masses[2]

    deepest = layered_profile(grid, LayeredParams(alpha=0.5, k_max=3))
    report = dual_sum_norm(deepest, s=0.5)
    ratios = [report.per_scale[-k] / 3.0**k for k in range(1, grid.N + 1)]
    assert max(ratios) < 1.2
    assert min(ratios) > 0.09
    assert all(a >= b for a, b in zip(ratios, ratios[1:]))


def test_c07_fractal_media_keep_bounded_ellipticity_while_mass_blows_up():
    # Self-similar density: unit-mean diagonal entries and exact (9/4)^n
    # squared mass at every generation, while the ellipticity ratio stays
    # within a factor 2 and one-sided bounds within 3x the first generation.
    thetas = {}
    lb_ratios = {}
    for n in (2, 3, 4):
        grid = GridSpec(d=2, N=n)
        params = CantorParams(n)
        field = gen_cantor_field(grid, params)
        assert field.data[..., 0].mean() == pytest.approx(2.0, abs=1e-10)
        assert field.data[..., 2].mean() == pytest.approx(2.0, abs=1e-10)
        density = cantor_density(grid, params)
        assert (density.data ** 2).mean() == pytest.approx((9.0 / 4.0) ** n,
                                                           rel=1e-10)
        result = sweep(field)
        assert not result.failures
        thetas[n] = ellipticity_constants(result, 0.45, 0.45).theta
        record = local_boundedness_experiment(
            field, lambda x, y: x, 0.45, 0.45, sweep_result=result)
        lb_ratios[n] = record.lb_ratio
    assert max(thetas.values()) < 2.0 * min(thetas.values())
    assert max(lb_ratios.values()) <= 3.0 * lb_ratios[2]


def test_c08_random_cascades_concentrate_mass_faster_than_theta_grows():
    # Multiplicative-cascade media: the density is a mean-one martingale, the
    # median ellipticity ratio is stable across generations, and the median
    # squared mass is claimed to grow by more than 1.5x per generation.
    masses = np.array([
        cascade_density(GridSpec(d=2, N=2),
                        CascadeParams(gamma=0.5, n=2, seed=seed)).data.mean()
        for seed in range(200)
    ])
    stderr = masses.std(ddof=1) / math.sqrt(len(masses))
    assert abs(masses.mean() - 1.0) <= 3.0 * stderr

    median_theta = {}
    median_mass = {}
    for n in (2, 3):
        grid = GridSpec(d=2, N=n)
        thetas = []
        l2 = []
        for seed in range(20):
            params = CascadeParams(gamma=0.5, n=n, seed=seed)
            field = gen_cascade_field(grid, params)
            thetas.append(ellipticity_constants(sweep(field), 0.4, 0.4).theta)
            l2.append(float((cascade_density(grid, params).data ** 2).mean()))
        median_theta[n] = float(np.median(thetas))
        median_mass[n] = float(np.median(l2))
    assert max(median_theta.values()) < 3.0 * min(median_theta.values())
    assert median_mass[3] > 1.5 * median_mass[2]


def test_c09_diagnostics_stay_finite_and_inside_frozen_envelopes():
    # Sweep the whole field zoo through all three solution diagnostics: every
    # ratio is finite, maxima stay within the frozen multiples (50x, 10x,
    # 20x) of their baselines, and the anisotropic closed-form quotient is 1.
    grid = GridSpec(d=2, N=3)
    cube = TriadicCube(0, (0, 0))
    boundary = lambda x, y: 2.0 + x

    suite = [gen_constant(grid, np.eye(2), descriptor="identity"),
             gen_constant(grid, np.diag([1.0, 4.0]), descriptor="diag(1,4)"),
             gen_laminate(grid, 0, (1.0, 4.0)),
             gen_laminate(grid, 1, (1.0, 9.0, 1.0)),
             random_diagonal_field(grid, 0),
             random_diagonal_field(grid, 1),
             random_diagonal_field(grid, 2),
             gen_cantor_field(grid, CantorParams(2)),
             gen_cantor_field(grid, CantorParams(3)),
             gen_cascade_field(grid, CascadeParams(gamma=0.5, n=2, seed=0)),
             gen_cascade_field(grid, CascadeParams(gamma=0.5, n=2, seed=1))]

    rh_power = {}
    rh_trunc = {}
    log_cacc = {}
    sob_poin = {}
    for field in suite:
        u, _ = solve_dirichlet(field, cube, boundary)
        result = sweep(field)
        assert not result.failures
        theta_rh = ellipticity_constants(result, 0.3, 0.3).theta
        report = ellipticity_constants(result, 0.45, 0.45)
        name = field.descriptor
        level = float(np.mean(u.data))
        rh_power[name] = reverse_holder_diagnostic(
            field, u, ("power", 2.0), 0.5, 1.0, 0.3, 0.3, theta_rh)
        rh_trunc[name] = reverse_holder_diagnostic(
            field, u, ("trunc", level), 0.5, 1.0, 0.3, 0.3, theta_rh)
        log_cacc[name] = log_caccioppoli_diagnostic(field, u,
                                                    report.lambda_upper)
        sob_poin[name] = sobolev_poincare_diagnostic(
            field, u, 0.45, report.lambda_lower, boundary=boundary)
        for value in (rh_power[name], rh_trunc[name], log_cacc[name],
                      sob_poin[name]):
            assert math.isfinite(value)

    # The anisotropic medium with its exponential exact solution: the
    # log-gradient energy quotient equals 1 up to discretization error.
    contrast = 16.0
    aniso = gen_constant(grid, np.diag([1.0, contrast]), descriptor="diag(1,16)")
    u, _ = solve_dirichlet(aniso, cube,
                           lambda x, y: np.exp(math.sqrt(contrast) * x))
    closed_form_ratio = log_caccioppoli_diagnostic(aniso, u, contrast)
    assert closed_form_ratio == pytest.approx(1.0, rel=0.02)

    assert max(rh_power.values()) <= 50.0 * rh_power["identity"]
    assert max(rh_trunc.values()) <= 50.0 * rh_trunc["identity"]
    assert max(log_cacc.values()) <= 10.0 * closed_form_ratio
    assert max(sob_poin.values()) <= 20.0 * sob_poin["identity"]


def test_c10_reruns_are_reproducible_and_caches_eliminate_solves(
        tmp_path, monkeypatch):
    # Same config + seed twice: reports agree byte for byte apart from the
    # timestamp and share one content hash; the binary field format round-
    # trips bit-exactly; a warm cache re-run performs zero solves.
    monkeypatch.chdir(tmp_path)
    rc = main(["gen", "--kind", "random", "--seed", "11", "--grid-n", "2",
               "--field-out", "medium.cge"])
    assert rc == 0
    for name in ("first.json", "second.json"):
        rc = main(["ellipticity", "--field", "medium.cge", "--s", "0.4",
                   "--t", "0.4", "--out", name])
        assert rc == 0
    keep = lambda p: [line for line in (tmp_path / p).read_text().splitlines()
                      if '"timestamp"' not in line]
    assert keep("first.json") == keep("second.json")
    first = json.loads((tmp_path / "first.json").read_text())
    second = json.loads((tmp_path / "second.json").read_text())
    assert first["report_hash"] == second["report_hash"]

    field = read_field(tmp_path / "medium.cge")
    write_field(field, tmp_path / "copy.cge")
    assert (tmp_path / "copy.cge").read_bytes() == \
        (tmp_path / "medium.cge").read_bytes()
    reloaded = read_field(tmp_path / "copy.cge")
    assert np.array_equal(reloaded.data, field.data)

    cold = sweep(field, cache_dir=str(tmp_path / "cache"))
    warm = sweep(field, cache_dir=str(tmp_path / "cache"))
    assert cold.solve_count > 0
    assert warm.solve_count == 0
    assert warm.cache_hits > 0
    for level in cold.levels:
        assert_allclose(warm.levels[level].astar, cold.levels[level].astar,
                        rtol=0, atol=0)
        assert_allclose(warm.levels[level].astar_inv, cold.levels[level].astar_inv,
                        rtol=0, atol=0)
