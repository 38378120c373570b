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
import logging
import math
import os
import threading
import zipfile

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
from cge.grid import CoefficientField, GridSpec, TriadicCube, partition, sym_unpack
from cge.solver import (
    CubeFunction,
    SolverError,
    energy,
    mean_flux,
    mean_gradient,
)


def cs(s):
    return 1.0 - 3.0 ** (-s)


def chain_slack(pair) -> float:
    """Worst relative violation of the chain inv_avg_inv <= astar <= amax <= avg (>= 0)."""
    worst = 0.0
    seq = [pair.inv_avg_inv, pair.astar, pair.amax, pair.avg]
    for lo, hi in zip(seq[:-1], seq[1:]):
        scale = max(np.linalg.norm(hi, 2), 1e-300)
        worst = max(worst, -np.linalg.eigvalsh(hi - lo)[0] / scale)
    return worst


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
        assert chain_slack(pair) < 1e-9

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

    def test_one_debug_line_per_level(self, caplog, tmp_path):
        grid = GridSpec(d=2, N=2)
        field = gen_random_spd(grid, seed=1, eig_low=0.5, eig_high=2.0)
        with caplog.at_level(logging.DEBUG, logger="cge.coarse"):
            sweep(field, cache_dir=str(tmp_path))
            sweep(field, cache_dir=str(tmp_path))
        lines = [r.getMessage() for r in caplog.records if r.name == "cge.coarse"]
        assert len(lines) == 2 * (grid.N + 1)
        assert lines[0].startswith(
            "level 0: splu, 1 cubes in 1 chunks on 1 threads, 100 unknowns per cube, residual ")
        assert lines[1].startswith(
            "level -1: splu, 9 cubes in 1 chunks on 1 threads, 16 unknowns per cube, residual ")
        assert lines[2].startswith("level -2: cells, 81 cubes, - unknowns per cube, residual -, ")
        assert [line.split(",")[0] for line in lines[3:]] == [
            "level 0: cache", "level -1: cache", "level -2: cells"]

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

    def test_failed_chunk_fails_only_its_cubes(self, monkeypatch, caplog, tmp_path):
        grid = GridSpec(d=2, N=2)
        field = gen_random_spd(grid, seed=1, eig_low=0.5, eig_high=2.0)
        clean = sweep(field).levels[-1].amax
        # level -1 holds 9 cubes of 3x3 cells: 4 to a chunk leaves cube (2, 2)
        # alone in the last chunk, the only factor of 15 unknowns
        monkeypatch.setattr(cge.solver, "CHUNK_NNZ", 4 * cge.solver._factor_nnz(3, 2))
        real = cge.solver._factor

        def fail_last_chunk(mat):
            if mat.shape[0] == 4**2 - 1:
                raise RuntimeError("Factor is exactly singular")
            return real(mat)

        monkeypatch.setattr(cge.solver, "_factor", fail_last_chunk)
        with caplog.at_level(logging.DEBUG, logger="cge.coarse"):
            result = sweep(field, cache_dir=str(tmp_path))
        assert caplog.records[1].getMessage().startswith("level -1: splu, 9 cubes in 3 chunks ")
        assert [(e["level"], e["offset"]) for e in result.failures] == [(-1, [2, 2])]
        assert "singular" in result.failures[0]["message"]
        assert result.solve_count == 4 * (1 + 8)
        amax = result.levels[-1].amax
        assert np.isnan(amax[2, 2]).all()
        kept = [off for off in np.ndindex(3, 3) if off != (2, 2)]
        assert all(np.array_equal(amax[off], clean[off]) for off in kept)
        # the level with the failed chunk is not cached; the clean one is
        assert sorted(os.listdir(tmp_path / field.content_hash)) == ["level_0.npz"]


@pytest.fixture
def failing_factorization(monkeypatch):
    """Every Neumann factorization raises, as SuperLU does on a singular matrix."""
    def fail(mat):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(cge.solver, "_factor", fail)


# ---------------------------------------------------------------------------
# 3D level 0 on a pool thread beside the other levels
# ---------------------------------------------------------------------------

@pytest.fixture
def cores(monkeypatch):
    """``cores(n)`` makes the process see ``n`` cores, with a chunk pool
    started afresh for them (and shut down after the test)."""
    def set_cores(n):
        monkeypatch.setattr(cge.solver.os, "sched_getaffinity", lambda pid: set(range(n)))
        monkeypatch.setattr(cge.solver, "_POOL", None)

    yield set_cores
    if cge.solver._POOL is not None:
        cge.solver._POOL.shutdown()


def _cache_members(cache, field_hash):
    """Every cache file's archive members, as bytes."""
    members = {}
    for path in sorted((cache / field_hash).iterdir()):
        with zipfile.ZipFile(path) as archive:
            members[path.name] = {name: archive.read(name) for name in archive.namelist()}
    return members


class TestLevelZeroOverlap:
    FIELD_SEED = 3

    def field(self, n):
        return gen_random_spd(GridSpec(3, n), seed=self.FIELD_SEED, eig_low=1e-2, eig_high=1e2)

    @pytest.mark.parametrize("n", [2, 3])
    def test_two_cores_match_one_core(self, cores, tmp_path, n):
        field = self.field(n)
        runs = []
        for count in (1, 2):
            cores(count)
            cache = tmp_path / f"cores{count}"
            result = sweep(field, cache_dir=str(cache))
            assert result.failures == []
            runs.append((result, _cache_members(cache, field.content_hash)))
        (one, one_files), (two, two_files) = runs
        assert sorted(one_files) == sorted(f"level_{k}.npz" for k in range(0, -n, -1))
        assert two_files == one_files
        assert (two.solve_count, two.cache_hits) == (one.solve_count, one.cache_hits)
        for level, ld in one.levels.items():
            for name in ("astar", "amax", "avg", "inv_avg_inv", "astar_inv"):
                assert getattr(two.levels[level], name).tobytes() == getattr(ld, name).tobytes()

    def test_level_zero_runs_beside_the_other_levels(self, cores, monkeypatch, caplog):
        # level 0 may only go on once level -1 has returned: run in order on
        # one thread, it would be solved first
        cores(2)
        caller = threading.current_thread()
        lower_done = threading.Event()
        ran_on = {}
        real = cge.coarse._solve_level

        def spy(field, level):
            ran_on[level] = threading.current_thread()
            if level == 0 and ran_on[0] is not caller:
                assert lower_done.wait(timeout=60)
            out = real(field, level)
            if level == -1:
                lower_done.set()
            return out

        monkeypatch.setattr(cge.coarse, "_solve_level", spy)
        with caplog.at_level(logging.DEBUG, logger="cge.coarse"):
            result = sweep(self.field(3))
        assert ran_on[0] is not caller
        assert ran_on[0].name.startswith("cge-chunk")
        assert ran_on[-1] is ran_on[-2] is caller
        assert result.failures == []
        # one line per level, in order; level -1's helper waited behind
        # level 0 and was cancelled, so the caller took its 27 chunks alone
        lines = [r.getMessage() for r in caplog.records if r.name == "cge.coarse"]
        assert [line.split(",")[0] for line in lines] == [
            "level 0: splu", "level -1: splu", "level -2: splu", "level -3: cells"]
        assert lines[0].startswith("level 0: splu, 1 cubes in 1 chunks on 1 threads, ")
        assert lines[1].startswith("level -1: splu, 27 cubes in 27 chunks on 1 threads, ")

    def test_failed_level_zero_keeps_the_other_levels(self, cores, monkeypatch, tmp_path):
        cores(2)
        field = self.field(2)
        clean = sweep(field)
        real = cge.solver._factor

        def fail_level_zero(mat):
            if mat.shape[0] == 10**3 - 1:  # the one 9x9x9-cell cube
                raise RuntimeError("Factor is exactly singular")
            return real(mat)

        monkeypatch.setattr(cge.solver, "_factor", fail_level_zero)
        result = sweep(field, cache_dir=str(tmp_path))
        assert [(e["level"], e["offset"]) for e in result.failures] == [(0, [0, 0, 0])]
        assert "singular" in result.failures[0]["message"]
        assert np.isnan(result.levels[0].amax).all()
        assert np.array_equal(result.levels[-1].amax, clean.levels[-1].amax)
        assert sorted(os.listdir(tmp_path / field.content_hash)) == ["level_-1.npz"]

    def test_failed_lower_chunk_keeps_level_zero(self, cores, monkeypatch, tmp_path):
        cores(2)
        field = self.field(2)
        clean = sweep(field)
        # level -1 holds 27 cubes of 3x3x3 cells: 4 to a chunk leaves cubes
        # 24-26 in the last chunk, the only factor of 3 * 63 unknowns
        monkeypatch.setattr(cge.solver, "CHUNK_NNZ", 4 * cge.solver._factor_nnz(3, 3))
        real = cge.solver._factor

        def fail_last_chunk(mat):
            if mat.shape[0] == 3 * (4**3 - 1):
                raise RuntimeError("Factor is exactly singular")
            return real(mat)

        monkeypatch.setattr(cge.solver, "_factor", fail_last_chunk)
        result = sweep(field, cache_dir=str(tmp_path))
        assert [(e["level"], e["offset"]) for e in result.failures] == [
            (-1, [2, 2, k]) for k in range(3)]
        assert np.array_equal(result.levels[0].amax, clean.levels[0].amax)
        assert np.isfinite(result.levels[-1].amax[:2]).all()
        assert sorted(os.listdir(tmp_path / field.content_hash)) == ["level_0.npz"]

    def test_one_core_starts_no_chunk_thread(self, cores):
        cores(1)
        before = set(threading.enumerate())
        sweep(self.field(2))
        assert cge.solver._POOL is None
        assert not [t.name for t in set(threading.enumerate()) - before
                    if t.name.startswith("cge-chunk")]


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
        assert all(type(z) is int for z in report.violations[0]["offset"])
        json.dumps(report.to_dict())
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
        # a per-cube violation is plain JSON: offsets are ints, not NumPy's
        assert all(type(z) is int for v in report.violations for z in v["offset"] or ())
        json.dumps(report.to_dict())

    @pytest.mark.parametrize("d,N", [(1, 3), (2, 2), (3, 2)])
    def test_cell_level_harmonic_mean_is_the_cell(self, d, N):
        # one cell a cube: inverting the cell's inverse would be off by
        # cond * eps, which the chain check read as a violation
        field = gen_random_spd(GridSpec(d=d, N=N), seed=0)
        result = sweep(field)
        assert np.array_equal(result.levels[-N].inv_avg_inv, field.data)
        cell = TriadicCube(-N, (1,) * d)
        pair = coarse_grain_cube(field, cell)
        assert np.array_equal(pair.inv_avg_inv, sym_unpack(field.data[(1,) * d], d))
        assert np.array_equal(pair.inv_avg_inv, result.pair(cell).inv_avg_inv)

    def test_wide_contrast_3d_audits_clean(self):
        # eigenvalues 1e-3..1e3: before, the cell level failed the chain check
        report = audit(sweep(gen_random_spd(GridSpec(d=3, N=2), seed=0)))
        assert report.violations == []
        assert report.max_slack["chain"] < 1e-12


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

    @pytest.mark.parametrize("d, n", [(2, 3), (3, 2)])
    def test_level_grid_matches_per_cube_constants(self, d, n):
        # the audit's scaling check reads every cube's upper constant from
        # the level-wide grid; it must be the per-cube value exactly
        result = sweep(gen_random_spd(GridSpec(d, n), seed=5, eig_low=1e-2, eig_high=1e2))
        for s in (0.15, 0.45, 0.9):
            for level in result.levels:
                grid_vals = cge.coarse._lambda_upper_grid(result, s, level)
                for cube in partition(result.grid, level):
                    rep = ellipticity_constants(result, s, s, cube=cube)
                    assert rep.lambda_upper == grid_vals[cube.offset]

    def test_subcube_scaling_bound(self, random_result):
        s = 0.5
        whole = ellipticity_constants(random_result, s, s).lambda_upper
        for cube in partition(random_result.grid, -1):
            rep = ellipticity_constants(random_result, s, s, cube=cube)
            assert rep.lambda_upper <= 3.0 ** (2 * s) * whole * (1 + 1e-12)