"""Tests for cube-wise coarse-graining, sweeps, ellipticity constants, audit.

Oracles: constant fields (every effective matrix equals the cell matrix and
the scale-weighted constants collapse to spectral norms), grid-aligned
laminates (harmonic/arithmetic closed forms, stripe-constant subcubes), and
refinement consistency (the same piecewise-constant field represented at two
resolutions must give identical constants, which also exercises the sub-grid
tail).
"""

import dataclasses
import json
import math
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose

import cge.coarse
import cge.solver
from cge.coarse import (
    DEFAULT_S_GRID,
    audit,
    coarse_grain_cube,
    ellipticity_constants,
    sweep,
)
from cge.fields import gen_constant, gen_laminate, gen_random_spd
from cge.grid import CoefficientField, GridSpec, TriadicCube, partition
from cge.solver import (
    CubeFunction,
    SolverError,
    energy,
    mean_flux,
    mean_gradient,
)


def cs(s):
    return 1.0 - 3.0 ** (-s)


def weighted_constant(maxima, tail_base, n, s, cube_level=0):
    """Independent implementation of the scale-weighted sum (pre-square)."""
    acc = sum(3.0 ** (-s * (cube_level - k)) * x for k, x in sorted(maxima.items()))
    acc += tail_base * 3.0 ** (-s * (cube_level + n + 1)) / cs(s)
    return cs(s) * acc


# ---------------------------------------------------------------------------
# Constant fields
# ---------------------------------------------------------------------------

class TestConstantField:
    def test_identity_all_pairs_trivial(self):
        grid = GridSpec(d=2, N=2)
        field = gen_constant(grid, np.eye(2))
        result = sweep(field)
        assert result.failures == []
        for level in result.levels:
            for cube in partition(grid, level):
                pair = result.pair(cube)
                for mat in (pair.astar, pair.amax, pair.avg, pair.inv_avg_inv):
                    assert_allclose(mat, np.eye(2), atol=1e-10)

    def test_identity_ellipticity_constants_are_one(self):
        grid = GridSpec(d=2, N=2)
        result = sweep(gen_constant(grid, np.eye(2)))
        for s in (0.2, 0.5, 0.8):
            rep = ellipticity_constants(result, s, s)
            assert_allclose(rep.lambda_upper, 1.0, rtol=1e-12)
            assert_allclose(rep.lambda_lower, 1.0, rtol=1e-12)
            assert_allclose(rep.theta, 1.0, rtol=1e-12)

    def test_anisotropic_constants_are_condition_number(self):
        grid = GridSpec(d=2, N=2)
        result = sweep(gen_constant(grid, np.diag([1.0, 9.0])))
        rep = ellipticity_constants(result, 0.4, 0.6)
        assert_allclose(rep.lambda_upper, 9.0, rtol=1e-10)
        assert_allclose(rep.lambda_lower, 1.0, rtol=1e-10)
        assert_allclose(rep.theta, 9.0, rtol=1e-10)

    def test_subcube_constants_match_whole_cube(self):
        grid = GridSpec(d=2, N=2)
        result = sweep(gen_constant(grid, np.diag([2.0, 5.0])))
        rep = ellipticity_constants(result, 0.3, 0.3, cube=TriadicCube(-1, (1, 2)))
        assert_allclose(rep.lambda_upper, 5.0, rtol=1e-10)
        assert_allclose(rep.lambda_lower, 2.0, rtol=1e-10)

    def test_report_serializes_to_json(self):
        grid = GridSpec(d=2, N=1)
        result = sweep(gen_constant(grid, np.eye(2)))
        rep = ellipticity_constants(result, 0.5, 0.7)
        doc = json.loads(json.dumps(rep.to_dict()))
        assert doc["s"] == 0.5 and doc["t"] == 0.7
        assert set(doc["per_scale_upper"]) == {"0", "-1"}
        assert doc["field_hash"] == result.field_hash
        assert doc["c_s"] == pytest.approx(cs(0.5))

    def test_exponent_range_validation(self):
        grid = GridSpec(d=2, N=1)
        result = sweep(gen_constant(grid, np.eye(2)))
        for s, t in ((0.0, 0.5), (0.5, 1.0), (-0.1, 0.5), (0.5, 1.3)):
            with pytest.raises(ValueError, match="exponents"):
                ellipticity_constants(result, s, t)


# ---------------------------------------------------------------------------
# Laminate closed forms
# ---------------------------------------------------------------------------

LAM_VALUES = (1.0, 9.0, 1.0)
HARM = 1.0 / np.mean([1.0 / v for v in LAM_VALUES])  # 27/19
ARITH = float(np.mean(LAM_VALUES))  # 11/3


class TestLaminate:
    @pytest.fixture()
    def result(self):
        grid = GridSpec(d=2, N=2)
        return sweep(gen_laminate(grid, 0, LAM_VALUES))

    def test_whole_domain_pair_closed_form(self, result):
        pair = result.pair(TriadicCube(0, (0, 0)))
        # stripe-normal direction: the 1d maximizer is exact
        assert_allclose(pair.astar[0, 0], HARM, rtol=1e-9)
        assert abs(pair.astar[0, 1]) < 1e-12
        # stripe-parallel direction: strictly between the harmonic and
        # arithmetic means (the affine trial function is not optimal here)
        assert HARM + 0.5 < pair.astar[1, 1] < ARITH - 0.05
        assert_allclose(pair.amax, np.diag([ARITH, ARITH]), rtol=1e-9, atol=1e-12)
        assert_allclose(pair.avg, np.diag([ARITH, ARITH]), rtol=1e-12, atol=1e-15)
        assert_allclose(pair.inv_avg_inv, np.diag([HARM, HARM]), rtol=1e-12, atol=1e-15)
        assert pair.chain_slack() < 1e-9

    def test_stripe_constant_subcubes(self, result):
        # each level -1 cube sits inside a single stripe
        for cube in partition(result.grid, -1):
            v = LAM_VALUES[cube.offset[0]]
            pair = result.pair(cube)
            assert_allclose(pair.astar, v * np.eye(2), rtol=1e-9, atol=1e-11)
            assert_allclose(pair.amax, v * np.eye(2), rtol=1e-9, atol=1e-11)

    def test_ellipticity_closed_form(self, result):
        s, t = 0.5, 0.35
        up = {0: math.sqrt(ARITH), -1: 3.0, -2: 3.0}
        lo = {0: math.sqrt(19.0 / 27.0), -1: 1.0, -2: 1.0}
        rep = ellipticity_constants(result, s, t)
        assert_allclose(rep.lambda_upper, weighted_constant(up, 3.0, 2, s) ** 2, rtol=1e-8)
        assert_allclose(rep.lambda_lower, weighted_constant(lo, 1.0, 2, t) ** -2, rtol=1e-8)
        assert rep.per_scale_upper[-1] == pytest.approx(3.0, rel=1e-9)
        assert rep.per_scale_lower[0] == pytest.approx(math.sqrt(19.0 / 27.0), rel=1e-8)
        assert rep.theta == pytest.approx(rep.lambda_upper / rep.lambda_lower)

    def test_refinement_leaves_upper_constant_unchanged(self, result):
        # the same laminate represented on a finer grid is the same function;
        # the upper constant is built from exact cube averages, so switching
        # one explicit scale for a tail term must not move it at all
        fine = sweep(gen_laminate(GridSpec(d=2, N=3), 0, LAM_VALUES))
        for s in (0.25, 0.6):
            a = ellipticity_constants(result, s, s)
            b = ellipticity_constants(fine, s, s)
            assert_allclose(b.lambda_upper, a.lambda_upper, rtol=1e-10)
            # the lower constant sees the richer trial space at the finer
            # resolution: it can only decrease, and only slightly
            assert b.lambda_lower <= a.lambda_lower * (1 + 1e-10)
            assert b.lambda_lower > 0.95 * a.lambda_lower

    def test_tail_matches_explicit_series(self, result):
        # below the grid every cube is constant, so the per-scale maxima all
        # equal the cell extreme; the tail must equal that series summed out
        s = 0.4
        rep = ellipticity_constants(result, s, s)
        brute = sum(3.0 ** (s * k) for k in range(-3, -400, -1)) * 3.0 * cs(s)
        assert_allclose(rep.tail_upper, brute, rtol=1e-13)
        explicit = cs(s) * (
            sum(3.0 ** (s * k) * rep.per_scale_upper[k] for k in rep.per_scale_upper)
            + sum(3.0 ** (s * k) for k in range(-3, -400, -1)) * 3.0
        )
        assert_allclose(rep.lambda_upper, explicit**2, rtol=1e-12)


# ---------------------------------------------------------------------------
# Single-cube interface
# ---------------------------------------------------------------------------

class TestCoarseGrainCube:
    def test_single_cell_cube_needs_no_solve(self):
        grid = GridSpec(d=2, N=2)
        field = gen_random_spd(grid, seed=11, eig_low=0.5, eig_high=4.0)
        cube = TriadicCube(-2, (4, 7))
        pair = coarse_grain_cube(field, cube)
        cell = field.cells_full()[4, 7]
        assert_allclose(pair.astar, cell, rtol=0, atol=0)
        assert_allclose(pair.amax, cell, rtol=0, atol=0)
        assert_allclose(pair.avg, cell, rtol=0, atol=0)
        assert pair.stats is None

    def test_matches_sweep(self):
        grid = GridSpec(d=2, N=2)
        field = gen_random_spd(grid, seed=5, eig_low=0.2, eig_high=9.0)
        result = sweep(field)
        cube = TriadicCube(-1, (2, 0))
        pair = coarse_grain_cube(field, cube)
        swept = result.pair(cube)
        assert_allclose(pair.astar, swept.astar, rtol=1e-12)
        assert_allclose(pair.amax, swept.amax, rtol=1e-12)

    def test_d1_laminate(self):
        grid = GridSpec(d=1, N=2)
        field = gen_laminate(grid, 0, LAM_VALUES)
        pair = coarse_grain_cube(field, TriadicCube(0, (0,)))
        assert_allclose(pair.astar, [[HARM]], rtol=1e-10)
        assert_allclose(pair.amax, [[ARITH]], rtol=1e-10)


# ---------------------------------------------------------------------------
# Rayleigh-quotient lower bounds
# ---------------------------------------------------------------------------

class TestRayleighBounds:
    @pytest.mark.parametrize("cube", [TriadicCube(0, (0, 0)), TriadicCube(-1, (1, 2))])
    def test_random_test_functions_lower_bound_forms(self, cube):
        grid = GridSpec(d=2, N=2)
        field = gen_random_spd(grid, seed=23, eig_low=0.1, eig_high=30.0)
        pair = coarse_grain_cube(field, cube)
        rng = np.random.default_rng(7)
        m = 3 ** (grid.N + cube.level) + 1
        directions = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), rng.normal(size=2)]
        for _ in range(8):
            v = CubeFunction(grid, cube, rng.normal(size=(m, m)), "node")
            en = energy(field, v)
            mg = mean_gradient(v)
            mf = mean_flux(field, v)
            for q in directions:
                bound = q @ pair.astar_inv @ q
                assert (mg @ q) ** 2 / en <= bound + 1e-7 * (1 + bound)
                bound = q @ pair.amax @ q
                assert (mf @ q) ** 2 / en <= bound + 1e-7 * (1 + bound)


# ---------------------------------------------------------------------------
# Sweep bookkeeping and the cube count
# ---------------------------------------------------------------------------

class TestSweepStructure:
    def test_level_count_d2_n3(self):
        grid = GridSpec(d=2, N=3)
        result = sweep(gen_constant(grid, np.eye(2)))
        assert sorted(result.levels) == [-3, -2, -1, 0]
        assert result.n_cubes() == 820
        assert result.solve_count == 4 * (1 + 9 + 81)

    def test_finest_level_needs_no_solves(self):
        grid = GridSpec(d=1, N=3)
        result = sweep(gen_laminate(grid, 0, LAM_VALUES))
        assert result.solve_count == 2 * (1 + 3 + 9)
        fine = result.levels[-3]
        assert_allclose(fine.astar, result.levels[-3].avg, rtol=0, atol=0)

    def test_failures_recorded_not_raised(self, failing_factorization, tmp_path):
        grid = GridSpec(d=2, N=1)
        field = gen_random_spd(grid, seed=1, eig_low=0.5, eig_high=2.0)
        result = sweep(field, cache_dir=str(tmp_path))
        assert os.listdir(tmp_path) == []  # a failed level is not cached
        assert len(result.failures) == 1
        entry = result.failures[0]
        assert entry["level"] == 0 and entry["offset"] == [0, 0]
        assert "iterations" in entry["message"] or entry["message"]
        assert result.solve_count == 0
        assert np.isnan(result.pair(TriadicCube(0, (0, 0))).amax).all()

    def test_failures_recorded_not_raised_3d(self, failing_factorization):
        # d = 3 takes eigenvalues through LAPACK, which raises on a NaN matrix
        grid = GridSpec(d=3, N=1)
        field = gen_random_spd(grid, seed=1, eig_low=0.5, eig_high=2.0)
        result = sweep(field)
        assert [(e["level"], e["offset"]) for e in result.failures] == [(0, [0, 0, 0])]
        assert np.isnan(result.pair(TriadicCube(0, (0, 0, 0))).amax).all()
        assert np.isnan(result.levels[0].amax_norm).all()
        assert np.isfinite(result.levels[-1].amax_norm).all()
        report = audit(result)
        assert not report.ok
        assert ("finite", 0, [0, 0, 0]) in [
            (v["kind"], v["level"], v["offset"]) for v in report.violations
        ]

    def test_single_cube_solver_error_names_cube(self, failing_factorization):
        grid = GridSpec(d=2, N=1)
        field = gen_random_spd(grid, seed=1, eig_low=0.5, eig_high=2.0)
        with pytest.raises(SolverError, match=r"level=0"):
            coarse_grain_cube(field, TriadicCube(0, (0, 0)))

    def test_non_finite_cube_recorded_alone(self, monkeypatch, tmp_path):
        grid = GridSpec(d=2, N=2)
        field = gen_random_spd(grid, seed=1, eig_low=0.5, eig_high=2.0)
        real = cge.coarse.batched_neumann_functionals

        def one_nan_cube(field, level):
            g_all, stats = real(field, level)
            if level == -1:
                g_all[1, 2, 0, 0] = np.nan
            return g_all, stats

        monkeypatch.setattr(cge.coarse, "batched_neumann_functionals", one_nan_cube)
        result = sweep(field, cache_dir=str(tmp_path))
        assert [(e["level"], e["offset"]) for e in result.failures] == [(-1, [1, 2])]
        assert "non-finite" in result.failures[0]["message"]
        assert result.solve_count == 4 * (1 + 8)
        amax = result.levels[-1].amax
        assert np.isnan(amax[1, 2]).all()
        assert np.isfinite(np.delete(amax.reshape(9, -1), 5, axis=0)).all()
        # the level with the failed cube is not cached; the clean one is
        assert sorted(os.listdir(tmp_path / field.content_hash)) == ["level_0.npz"]


@pytest.fixture
def failing_factorization(monkeypatch):
    """Every Neumann factorization raises, as SuperLU does on a singular matrix."""
    def fail(mat):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(cge.solver, "_factor", fail)


# ---------------------------------------------------------------------------
# Disk cache
# ---------------------------------------------------------------------------

class TestCache:
    def test_warm_cache_zero_solves_bitwise_equal(self, tmp_path):
        grid = GridSpec(d=2, N=2)
        field = gen_random_spd(grid, seed=9, eig_low=0.5, eig_high=5.0)
        cache = str(tmp_path / "cache")
        cold = sweep(field, cache_dir=cache)
        assert cold.solve_count == 4 * 10 and cold.cache_hits == 0
        warm = sweep(field, cache_dir=cache)
        assert warm.solve_count == 0
        assert warm.cache_hits == 10
        for level in cold.levels:
            assert np.array_equal(cold.levels[level].astar, warm.levels[level].astar)
            assert np.array_equal(cold.levels[level].amax, warm.levels[level].amax)

    def test_cache_layout_one_record_per_level(self, tmp_path):
        grid = GridSpec(d=2, N=2)
        field = gen_random_spd(grid, seed=9, eig_low=0.5, eig_high=5.0)
        cache = str(tmp_path / "cache")
        sweep(field, cache_dir=cache)
        root = os.path.join(cache, field.content_hash)
        assert sorted(os.listdir(root)) == ["level_-1.npz", "level_0.npz"]
        with np.load(os.path.join(root, "level_-1.npz")) as rec:
            assert rec["amax"].shape == rec["astar_inv"].shape == (3, 3, 3)

    def test_config_change_invalidates(self, tmp_path):
        # a level record written by another solver (another tag) is a miss
        grid = GridSpec(d=2, N=1)
        field = gen_random_spd(grid, seed=2, eig_low=0.5, eig_high=2.0)
        cache = str(tmp_path / "cache")
        cold = sweep(field, cache_dir=cache)
        victim = os.path.join(cache, field.content_hash, "level_0.npz")
        self._rewrite_record(victim, solver=np.frombuffer(b"q1-neumann/pcg", dtype=np.uint8))
        redo = sweep(field, cache_dir=cache)
        assert redo.solve_count == 4
        assert redo.cache_hits == 0
        assert np.array_equal(redo.levels[0].amax, cold.levels[0].amax)
        # the re-solved record carries the engine's tag again
        assert sweep(field, cache_dir=cache).cache_hits == 1

    @staticmethod
    def _rewrite_record(path, **arrays):
        with np.load(path) as rec:
            stored = {k: rec[k].copy() for k in rec.files}
        stored.update(arrays)
        with open(path, "wb") as fh:
            np.savez(fh, **stored)

    @pytest.mark.parametrize(
        "damage", ["garbage", "empty", "truncated", "wrong_shape", "non_finite"])
    def test_corrupt_record_treated_as_miss(self, tmp_path, damage):
        grid = GridSpec(d=2, N=1)
        field = gen_random_spd(grid, seed=2, eig_low=0.5, eig_high=2.0)
        cache = str(tmp_path / "cache")
        cold = sweep(field, cache_dir=cache)
        victim = os.path.join(cache, field.content_hash, "level_0.npz")
        if damage == "garbage":
            with open(victim, "wb") as fh:
                fh.write(b"not an archive")
        elif damage == "empty":
            open(victim, "wb").close()
        elif damage == "truncated":
            with open(victim, "rb") as fh:
                raw = fh.read()
            with open(victim, "wb") as fh:
                fh.write(raw[: len(raw) // 2])
        elif damage == "wrong_shape":
            # one cube's packed matrix, not a (1, 1, 3) level record
            self._rewrite_record(victim, amax=np.ones(3))
        else:
            self._rewrite_record(victim, astar_inv=np.array([[[1.0, np.nan, 1.0]]]))
        warm = sweep(field, cache_dir=cache)
        assert warm.solve_count == 4
        assert warm.cache_hits == 0
        assert warm.failures == []
        assert np.array_equal(warm.levels[0].amax, cold.levels[0].amax)
        # the re-solved record replaced the damaged one
        assert sweep(field, cache_dir=cache).cache_hits == 1

    def test_one_factorization_per_solved_level(self, tmp_path, monkeypatch):
        grid = GridSpec(d=2, N=3)
        field = gen_random_spd(grid, seed=9, eig_low=0.5, eig_high=5.0)
        sizes = []
        real = cge.solver._factor

        def spy(mat):
            sizes.append(mat.shape[0])
            return real(mat)

        monkeypatch.setattr(cge.solver, "_factor", spy)
        cache = str(tmp_path / "cache")
        sweep(field, cache_dir=cache)
        # levels 0, -1, -2: one pinned block of (m+1)**2 - 1 nodes per cube
        assert sizes == [28**2 - 1, 9 * (10**2 - 1), 81 * (4**2 - 1)]
        sizes.clear()
        assert sweep(field, cache_dir=cache).solve_count == 0
        assert sizes == []

    def test_different_fields_do_not_collide(self, tmp_path):
        grid = GridSpec(d=2, N=1)
        fa = gen_random_spd(grid, seed=2, eig_low=0.5, eig_high=2.0)
        fb = gen_random_spd(grid, seed=3, eig_low=0.5, eig_high=2.0)
        cache = str(tmp_path / "cache")
        ra = sweep(fa, cache_dir=cache)
        rb = sweep(fb, cache_dir=cache)
        assert rb.cache_hits == 0
        assert not np.array_equal(ra.levels[0].amax, rb.levels[0].amax)


# ---------------------------------------------------------------------------
# Audit
# ---------------------------------------------------------------------------

def _set_entry(result, level, name, index, value):
    """Hand-edit one packed array of a sweep; levels are read-only, so the
    level is rebuilt around an edited copy (which recomputes its norms)."""
    ld = result.levels[level]
    arr = getattr(ld, name).copy()
    arr[index] = value
    result.levels[level] = dataclasses.replace(ld, **{name: arr})


class TestAudit:
    def test_levels_are_read_only(self):
        result = sweep(gen_random_spd(GridSpec(d=2, N=1), seed=0, eig_low=0.5, eig_high=2.0))
        ld = result.levels[0]
        for arr in (ld.astar, ld.amax, ld.avg, ld.inv_avg_inv, ld.astar_inv,
                    ld.amax_norm, ld.astar_inv_norm):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            ld.amax = ld.avg
        old_norm = ld.amax_norm.copy()
        _set_entry(result, 0, "amax", (0, 0, 0), 10.0)
        assert result.levels[0].amax_norm[0, 0] > old_norm[0, 0]
        assert_allclose(ld.amax_norm, old_norm, rtol=0, atol=0)

    def test_constant_field_clean_with_pinned_coverage(self):
        grid = GridSpec(d=2, N=2)
        report = audit(sweep(gen_constant(grid, np.diag([1.0, 4.0]))))
        assert report.ok
        assert report.checked == {
            "finite": 5 * 91,
            "chain": 3 * 91,
            "subadditivity_norm": 10,
            "subadditivity_form": 10,
            "monotone": 13,
            "theta_ge_1": 5,
            "scaling": 5 * 90,
        }
        assert report.s_grid == DEFAULT_S_GRID
        assert max(report.max_slack.values()) < 1e-10
        json.dumps(report.to_dict())

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_fields_clean(self, seed):
        grid = GridSpec(d=2, N=2)
        field = gen_random_spd(grid, seed=seed, eig_low=1e-2, eig_high=1e2)
        report = audit(sweep(field))
        assert report.violations == []

    def test_laminate_clean(self):
        report = audit(sweep(gen_laminate(GridSpec(d=2, N=2), 1, (1.0, 100.0))))
        assert report.ok

    def test_non_finite_matrix_is_a_violation(self):
        grid = GridSpec(d=2, N=2)
        result = sweep(gen_random_spd(grid, seed=3, eig_low=0.5, eig_high=2.0))
        assert audit(result).ok
        _set_entry(result, -1, "amax", (1, 1), np.nan)
        report = audit(result)
        assert not report.ok
        assert report.checked["finite"] == 5 * 91
        assert [(v["kind"], v["level"], v["offset"]) for v in report.violations] == [
            ("finite", -1, [1, 1])
        ]
        assert report.violations[0]["magnitude"] == 3.0
        _set_entry(result, 0, "astar_inv", (0, 0, 1), np.inf)
        kinds = [(v["kind"], v["level"]) for v in audit(result).violations]
        assert kinds.count(("finite", 0)) == 1

    def test_norms_computed_once_per_sweep_not_per_exponent(self, monkeypatch):
        grid = GridSpec(d=3, N=2)
        result = sweep(gen_random_spd(grid, seed=4, eig_low=0.5, eig_high=2.0))
        calls = []
        real = cge.coarse.sym_norm

        def spy(packed, d):
            calls.append(packed.shape)
            return real(packed, d)

        monkeypatch.setattr(cge.coarse, "sym_norm", spy)
        counts = []
        for s_grid in ((0.5,), DEFAULT_S_GRID, tuple(np.linspace(0.1, 0.9, 17))):
            calls.clear()
            assert audit(result, s_grid=s_grid).ok
            counts.append(len(calls))
        assert counts[0] == counts[1] == counts[2]
        assert counts[0] <= len(result.levels)

    def test_violations_are_data(self):
        # cook a sweep whose matrices cannot satisfy the chain by hand-editing
        grid = GridSpec(d=2, N=1)
        result = sweep(gen_constant(grid, np.eye(2)))
        _set_entry(result, 0, "amax", (..., 0), 0.5)  # amax no longer >= astar
        report = audit(result)
        assert not report.ok
        kinds = {v["kind"] for v in report.violations}
        assert "chain" in kinds
        entry = next(v for v in report.violations if v["kind"] == "chain")
        assert entry["level"] == 0 and entry["offset"] == [0, 0]
        assert entry["magnitude"] > 0


# ---------------------------------------------------------------------------
# Solve-path identities: scaling and 2D symmetries
# ---------------------------------------------------------------------------

#: The one Neumann path (the sparse-direct engine, at every level of a 2D
#: N=2 grid) and the relative tolerance its identities hold to (roundoff).
SOLVE_PATHS = {"splu": 1e-12}

#: Symmetries of the square acting on packed (a11, a12, a22) arrays indexed by
#: cell or cube offset; each maps a field and its effective matrices alike.
SYMMETRIES = {
    "axis_swap": lambda arr: arr.transpose(1, 0, 2)[..., ::-1],
    "reflection": lambda arr: arr[::-1] * np.array([1.0, -1.0, 1.0]),
}


@pytest.fixture(scope="module")
def identity_field():
    return gen_random_spd(GridSpec(d=2, N=2), seed=29, eig_low=0.1, eig_high=10.0)


def _assert_levels_close(result, expected, rtol):
    for level, ld in result.levels.items():
        for name in ("astar", "amax"):
            want = expected(level, name)
            assert_allclose(getattr(ld, name), want, rtol=0,
                            atol=rtol * np.abs(want).max(), err_msg=f"{name} level {level}")


class TestSolveIdentities:
    @pytest.mark.parametrize("path", sorted(SOLVE_PATHS))
    @pytest.mark.parametrize("c", [0.1, 7.0])
    def test_scaling_scales_both_matrices(self, identity_field, path, c):
        rtol = SOLVE_PATHS[path]
        base = sweep(identity_field)
        scaled = sweep(identity_field.scaled(c))
        _assert_levels_close(
            scaled, lambda k, name: c * getattr(base.levels[k], name), rtol)

    @pytest.mark.parametrize("path", sorted(SOLVE_PATHS))
    @pytest.mark.parametrize("symmetry", sorted(SYMMETRIES))
    def test_symmetry_transforms_both_matrices(self, identity_field, path, symmetry):
        rtol = SOLVE_PATHS[path]
        act = SYMMETRIES[symmetry]
        image = CoefficientField(identity_field.grid, act(identity_field.data), symmetry)
        base = sweep(identity_field)
        moved = sweep(image)
        assert not np.allclose(moved.levels[-1].amax, base.levels[-1].amax)
        _assert_levels_close(
            moved, lambda k, name: act(getattr(base.levels[k], name)), rtol)

# ---------------------------------------------------------------------------
# Scale/ratio behaviour
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def random_result():
    grid = GridSpec(d=2, N=2)
    return sweep(gen_random_spd(grid, seed=17, eig_low=1e-2, eig_high=1e2))


class TestEllipticityBehaviour:
    def test_monotone_in_exponent(self, random_result):
        reps = [ellipticity_constants(random_result, s, s) for s in (0.2, 0.5, 0.8)]
        assert reps[0].lambda_upper >= reps[1].lambda_upper >= reps[2].lambda_upper
        assert reps[0].lambda_lower <= reps[1].lambda_lower <= reps[2].lambda_lower
        for rep in reps:
            assert rep.theta >= 1.0

    def test_ratio_invariant_under_scaling(self, random_result):
        grid = GridSpec(d=2, N=2)
        field = gen_random_spd(grid, seed=17, eig_low=1e-2, eig_high=1e2)
        base = ellipticity_constants(random_result, 0.45, 0.45)
        for c in (0.1, 10.0):
            scaled = sweep(field.scaled(c))
            rep = ellipticity_constants(scaled, 0.45, 0.45)
            assert_allclose(rep.lambda_upper, c * base.lambda_upper, rtol=1e-8)
            assert_allclose(rep.lambda_lower, c * base.lambda_lower, rtol=1e-8)
            assert_allclose(rep.theta, base.theta, rtol=1e-8)

    def test_subcube_scaling_bound(self, random_result):
        s = 0.5
        whole = ellipticity_constants(random_result, s, s).lambda_upper
        for cube in partition(random_result.grid, -1):
            rep = ellipticity_constants(random_result, s, s, cube=cube)
            assert rep.lambda_upper <= 3.0 ** (2 * s) * whole * (1 + 1e-12)