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
import re
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
    ellipticity_constants,
    sweep,
)
from cge.fields import gen_constant, gen_laminate, gen_random_spd
from cge.grid import (
    CoefficientField,
    GridSpec,
    TriadicCube,
    partition,
    scale_weighted_constant,
    sym_unpack,
)
from q1_oracle import _dense_stiffness, _forcing_vectors


def cs(s):
    return 1.0 - 3.0 ** (-s)


def chain_slack(pair) -> float:
    """Worst relative violation of the chain inv_avg_inv <= astar <= avg (>= 0)."""
    worst = 0.0
    seq = [pair.inv_avg_inv, pair.astar, pair.avg]
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
                for mat in (pair.astar, pair.avg, pair.inv_avg_inv):
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

    @pytest.mark.parametrize("cube", [TriadicCube(-3, (0, 0)), TriadicCube(-1, (0, 0, 0)),
                                      TriadicCube(-1, (0,))],
                             ids=["below-the-cells", "3d-cube", "1d-cube"])
    def test_cube_off_the_grid_is_named(self, cube):
        result = sweep(gen_constant(GridSpec(d=2, N=2), np.eye(2)))
        named = re.escape(f"cube level={cube.level} offset={cube.offset}")
        with pytest.raises(ValueError, match=named + r".*\(d=2, N=2\)"):
            ellipticity_constants(result, 0.5, 0.5, cube=cube)


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
        assert_allclose(pair.avg, np.diag([ARITH, ARITH]), rtol=1e-12, atol=1e-15)
        assert_allclose(pair.inv_avg_inv, np.diag([HARM, HARM]), rtol=1e-12, atol=1e-15)
        assert chain_slack(pair) < 1e-9

    def test_stripe_constant_subcubes(self, result):
        # each level -1 cube sits inside a single stripe
        for cube in partition(result.grid, -1):
            v = LAM_VALUES[cube.offset[0]]
            pair = result.pair(cube)
            assert_allclose(pair.astar, v * np.eye(2), rtol=1e-9, atol=1e-11)
            assert_allclose(pair.avg, v * np.eye(2), rtol=1e-9, atol=1e-11)

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
        # the lower tail repeats the cell level's largest inverse norm, 1
        assert rep.per_scale_lower[-2] == 1.0
        assert_allclose(rep.tail_lower, brute / 3.0, rtol=1e-13)


# ---------------------------------------------------------------------------
# One cube's pair, read from a sweep
# ---------------------------------------------------------------------------

class TestCoarseGrainCube:
    def test_single_cell_cube_needs_no_solve(self):
        # the cell level is read from the field, not solved
        grid = GridSpec(d=2, N=2)
        field = gen_random_spd(grid, seed=11, eig_low=0.5, eig_high=4.0)
        result = sweep(field)
        assert result.solve_count == 2 * (1 + 9)
        pair = result.pair(TriadicCube(-2, (4, 7)))
        cell = field.cells_full()[4, 7]
        assert_allclose(pair.astar, cell, rtol=0, atol=0)
        assert_allclose(pair.avg, cell, rtol=0, atol=0)

    def test_d1_laminate(self):
        grid = GridSpec(d=1, N=2)
        field = gen_laminate(grid, 0, LAM_VALUES)
        pair = sweep(field).pair(TriadicCube(0, (0,)))
        assert_allclose(pair.astar, [[HARM]], rtol=1e-10)
        assert_allclose(pair.avg, [[ARITH]], rtol=1e-10)


# ---------------------------------------------------------------------------
# Rayleigh-quotient lower bounds
# ---------------------------------------------------------------------------

class TestRayleighBounds:
    @pytest.mark.parametrize("cube", [TriadicCube(0, (0, 0)), TriadicCube(-1, (1, 2))])
    def test_random_test_functions_lower_bound_forms(self, cube):
        grid = GridSpec(d=2, N=2)
        field = gen_random_spd(grid, seed=23, eig_low=0.1, eig_high=30.0)
        pair = sweep(field).pair(cube)
        # the trial functions' energies and mean gradients and fluxes come
        # from the dense Q1 stiffness and loads
        kmat, loads = _dense_stiffness(field, cube), _forcing_vectors(field, cube) / cube.volume
        rng = np.random.default_rng(7)
        m = 3 ** (grid.N + cube.level) + 1
        directions = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), rng.normal(size=2)]
        for _ in range(8):
            v = rng.normal(size=m * m)
            en = v @ kmat @ v / cube.volume
            mg, mf = loads[:, :2].T @ v, loads[:, 2:].T @ v
            for q in directions:
                bound = q @ pair.astar_inv @ q
                assert (mg @ q) ** 2 / en <= bound + 1e-7 * (1 + bound)
                bound = q @ pair.avg @ q
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
        assert result.solve_count == 2 * (1 + 9 + 81)

    def test_finest_level_needs_no_solves(self):
        grid = GridSpec(d=1, N=3)
        result = sweep(gen_laminate(grid, 0, LAM_VALUES))
        assert result.solve_count == 1 * (1 + 3 + 9)
        fine = result.levels[-3]
        assert_allclose(fine.astar, result.levels[-3].avg, rtol=0, atol=0)

    def test_failures_recorded_not_raised(self, failing_solve, tmp_path):
        # a 3D level 0 of cells; see TestCondensation for 2D
        grid = GridSpec(d=3, N=1)
        field = gen_random_spd(grid, seed=1, eig_low=0.5, eig_high=2.0)
        result = sweep(field, cache_dir=str(tmp_path))
        assert os.listdir(tmp_path) == []  # a failed level is not cached
        assert len(result.failures) == 1
        entry = result.failures[0]
        assert entry["level"] == 0 and entry["offset"] == [0, 0, 0]
        assert "singular" in entry["message"]
        assert result.solve_count == 0
        pair = result.pair(TriadicCube(0, (0, 0, 0)))
        assert np.isnan(pair.astar).all() and np.isnan(pair.astar_inv).all()
        assert np.isnan(result.levels[0].astar_inv_norm).all()
        assert np.isfinite(pair.avg).all()  # the average needs no solve

    def test_failures_recorded_not_raised_3d(self, failing_solve):
        # d = 3 takes eigenvalues through LAPACK, which raises on a NaN matrix
        grid = GridSpec(d=3, N=1)
        field = gen_random_spd(grid, seed=1, eig_low=0.5, eig_high=2.0)
        result = sweep(field)
        assert [(e["level"], e["offset"]) for e in result.failures] == [(0, [0, 0, 0])]
        pair = result.pair(TriadicCube(0, (0, 0, 0)))
        assert np.isnan(pair.astar).all() and np.isnan(pair.astar_inv).all()
        assert np.isnan(result.levels[0].astar_inv_norm).all()
        assert np.isfinite(result.levels[-1].astar_inv_norm).all()
        report = audit(result)
        assert not report.ok
        assert ("finite", 0, [0, 0, 0]) in [
            (v["kind"], v["level"], v["offset"]) for v in report.violations
        ]

    def test_one_debug_line_per_level(self, caplog, cores, tmp_path):
        cores(1)
        grid = GridSpec(d=3, N=2)
        field = gen_random_spd(grid, seed=1, eig_low=0.5, eig_high=2.0)
        with caplog.at_level(logging.DEBUG, logger="cge.coarse"):
            sweep(field, cache_dir=str(tmp_path))
            sweep(field, cache_dir=str(tmp_path))
        lines = [r.getMessage() for r in caplog.records if r.name == "cge.coarse"]
        assert len(lines) == 2 * (grid.N + 1)
        # chunks: each of the 27 subtrees (here the cubes of level -1) runs
        # a stage in one; level 0 takes one a child, then one a merge (9
        # strips, 3 slabs and the last); unknowns: the largest skeleton of
        # a merge, at level 0 the middle slab's, at level -1 a whole cube of
        # 3**3 cells
        assert lines[0].startswith("level 0: condensation, 1 cubes in 40 chunks on 1 threads, "
                                   "240 unknowns per cube, residual ")
        assert lines[1].startswith("level -1: condensation, 27 cubes in 81 chunks on 1 threads, "
                                   "64 unknowns per cube, residual ")
        assert lines[2].startswith("level -2: cells, 729 cubes, - unknowns per cube, residual -, ")
        assert [line.split(",")[0] for line in lines[3:]] == [
            "level 0: cache", "level -1: cache", "level -2: cells"]

    def test_non_finite_cube_recorded_alone(self, monkeypatch, tmp_path):
        grid = GridSpec(d=3, N=2)
        field = gen_random_spd(grid, seed=1, eig_low=0.5, eig_high=2.0)
        real = cge.coarse.level_functionals

        def one_nan_cube(field, levels):
            out = real(field, levels)
            out[-1][0][1, 2, 0, 0, 0] = np.nan
            return out

        monkeypatch.setattr(cge.coarse, "level_functionals", one_nan_cube)
        result = sweep(field, cache_dir=str(tmp_path))
        assert [(e["level"], e["offset"]) for e in result.failures] == [(-1, [1, 2, 0])]
        assert "non-finite" in result.failures[0]["message"]
        assert result.solve_count == 3 * (1 + 26)
        ld = result.levels[-1]
        for arr in (ld.astar, ld.astar_inv, ld.astar_inv_norm[..., None]):
            assert np.isnan(arr[1, 2, 0]).all()
            assert np.isfinite(np.delete(arr.reshape(27, -1), 15, axis=0)).all()
        # the level with the failed cube is not cached; the clean one is
        assert sorted(os.listdir(tmp_path / field.content_hash)) == ["level_0.npz"]


@pytest.fixture
def failing_solve(monkeypatch):
    """Every elimination of the condensation pass raises, as NumPy's dense
    solve does on a singular matrix."""
    def fail(*args):
        raise np.linalg.LinAlgError("Matrix is exactly singular")

    monkeypatch.setattr(cge.solver, "_eliminate", fail)


# ---------------------------------------------------------------------------
# 3D sweeps on one and on two cores
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
    """3D level 0 and the levels below it in one pass: the numbers and the
    cache are the same on one core and on two, a failed level 0 leaves the
    levels below it, and one core starts no chunk thread."""

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
            for name in ("astar", "avg", "inv_avg_inv", "astar_inv"):
                assert getattr(two.levels[level], name).tobytes() == getattr(ld, name).tobytes()

    def test_failed_level_zero_keeps_the_other_levels(self, cores, monkeypatch, tmp_path):
        cores(2)
        field = self.field(2)
        clean = sweep(field)
        real = cge.solver._eliminate
        child = cge.solver._boundary_nodes((3, 3, 3)).size

        def fail_level_zero(mat, *args):
            if mat.shape[-1] == child:  # a child of level 0 eliminates its own nodes
                raise np.linalg.LinAlgError("Matrix is exactly singular")
            return real(mat, *args)

        monkeypatch.setattr(cge.solver, "_eliminate", fail_level_zero)
        result = sweep(field, cache_dir=str(tmp_path))
        assert [(e["level"], e["offset"]) for e in result.failures] == [(0, [0, 0, 0])]
        assert "singular" in result.failures[0]["message"]
        for name in ("astar", "astar_inv", "astar_inv_norm"):
            assert np.isnan(getattr(result.levels[0], name)).all()
            assert np.array_equal(getattr(result.levels[-1], name),
                                  getattr(clean.levels[-1], name))
        assert sorted(os.listdir(tmp_path / field.content_hash)) == ["level_-1.npz"]

    def test_one_core_starts_no_chunk_thread(self, cores):
        cores(1)
        before = set(threading.enumerate())
        sweep(self.field(2))
        assert cge.solver._POOL is None
        assert not [t.name for t in set(threading.enumerate()) - before
                    if t.name.startswith("cge-chunk")]


# ---------------------------------------------------------------------------
# 1D and 2D sweeps: one bottom-up condensation pass
# ---------------------------------------------------------------------------

class TestCondensation:
    def test_failed_chunk_fails_it_and_the_cubes_that_contain_it(
            self, cores, monkeypatch, tmp_path):
        field = gen_random_spd(GridSpec(2, 3), seed=1, eig_low=1e-2, eig_high=1e2)
        clean = sweep(field)
        # one core and one parent a chunk: the caller runs the subtrees of
        # level -1's nine cubes in order, so the eighth is cube (2, 1)
        cores(1)
        monkeypatch.setattr(cge.solver, "CHUNK_ENTRIES", 1)
        calls = []
        real = cge.solver._condense
        # a subtree's merges: level -2's along the last axis, then the
        # first; level -1's the same; the last stage of level -1 merges
        # strips of 3x9 cells onto skeletons of 52 nodes, the 9x9 boundary
        # and 2 lines of 8; then its cube, level 0's child, alone (36 nodes)
        subtree = [8] * 27 + [16] * 9 + [28] * 3 + [52] + [36]

        def fail_one(maps, plan, *args, **kwargs):
            calls.append(plan[0])
            if calls == subtree * 7 + subtree[:-1]:
                raise np.linalg.LinAlgError("Singular matrix")
            return real(maps, plan, *args, **kwargs)

        monkeypatch.setattr(cge.solver, "_condense", fail_one)
        result = sweep(field, cache_dir=str(tmp_path))
        # level 0 then condenses the children's boxes, a NaN one among
        # them, one merge at a time, without forming its own map
        top = [size for merges in cge.solver._plan((9, 9), True) for size, _, _ in merges]
        assert top[:9] == [36] * 9
        assert calls == subtree * 9 + top[9:]
        failed = [(-1, (2, 1)), (0, (0, 0))]
        assert [(e["level"], tuple(e["offset"])) for e in result.failures] == failed[::-1]
        assert all("Singular matrix" in e["message"] for e in result.failures)
        assert result.solve_count == 2 * (81 + 8)
        # every other cube keeps its numbers to the last bit, though the
        # split and the cores differ from the clean run
        for level, ld in result.levels.items():
            for name in ("astar", "astar_inv", "astar_inv_norm"):
                arr, want = getattr(ld, name), getattr(clean.levels[level], name)
                for off in np.ndindex(arr.shape[:2]):
                    if (level, off) in failed:
                        assert np.isnan(arr[off]).all()
                    else:
                        assert np.array_equal(arr[off], want[off])
        # a level with a failed cube is not cached
        assert sorted(os.listdir(tmp_path / field.content_hash)) == ["level_-2.npz"]

    def test_non_finite_cell_fails_the_cubes_that_contain_it(self, monkeypatch, tmp_path):
        field = gen_random_spd(GridSpec(2, 2), seed=1, eig_low=0.5, eig_high=2.0)
        clean = sweep(field)
        real = cge.solver._element_matrices

        def nan_first_cell(cells, d, h):
            out = real(cells, d, h)
            if np.array_equal(cells[0], field.data[0, 0]):  # the first subtree's
                out[0, 0, 0] = np.nan  # its first cell in tree order is cell (0, 0)
            return out

        monkeypatch.setattr(cge.solver, "_element_matrices", nan_first_cell)
        result = sweep(field, cache_dir=str(tmp_path))
        assert [(e["level"], e["offset"], e["message"]) for e in result.failures] == [
            (0, [0, 0], "non-finite functional matrix"),
            (-1, [0, 0], "non-finite functional matrix")]
        assert result.solve_count == 2 * 8
        assert np.isnan(result.levels[0].astar_inv).all()
        ld, want = result.levels[-1], clean.levels[-1]
        assert np.isnan(ld.astar_inv[0, 0]).all()
        assert np.array_equal(ld.astar_inv.reshape(9, -1)[1:], want.astar_inv.reshape(9, -1)[1:])
        assert os.listdir(tmp_path) == []

    def test_failed_solve_names_every_non_finite_cube_of_its_pass(self, cores, monkeypatch):
        # a NaN cell and, in another cube of level -1, a failed dense
        # solve: every non-finite cube at or above the failed solve's level
        # takes its message, the NaN cell's cube too; below it, the NaN
        # cell's cube of level -2 is only non-finite
        field = gen_random_spd(GridSpec(2, 3), seed=1, eig_low=1e-2, eig_high=1e2)
        cores(1)
        monkeypatch.setattr(cge.solver, "CHUNK_ENTRIES", 1)  # one merge a chunk
        real_elements, real_eliminate = cge.solver._element_matrices, cge.solver._eliminate
        strips = []

        def nan_first_cell(cells, d, h):
            out = real_elements(cells, d, h)
            if np.array_equal(cells[0], field.data[0, 0]):  # the first subtree's
                out[0, 0, 0] = np.nan  # cell (0, 0), in level -1's cube (0, 0)
            return out

        def fail_last_strip(mat, *args):
            # level -1's last stage merges onto 52 nodes; cube (0, 0), not
            # finite, eliminates nothing, so the eighth call is cube (2, 2)
            if mat.shape[-1] == 52:
                strips.append(mat.shape[0])
                if len(strips) == 8:
                    raise np.linalg.LinAlgError("Singular matrix")
            return real_eliminate(mat, *args)

        monkeypatch.setattr(cge.solver, "_element_matrices", nan_first_cell)
        monkeypatch.setattr(cge.solver, "_eliminate", fail_last_strip)
        result = sweep(field)
        assert strips[:8] == [1] * 8
        assert [(e["level"], e["offset"], e["message"]) for e in result.failures] == [
            (0, [0, 0], "dense condensation failed: Singular matrix"),
            (-1, [0, 0], "dense condensation failed: Singular matrix"),
            (-1, [2, 2], "dense condensation failed: Singular matrix"),
            (-2, [0, 0], "non-finite functional matrix")]

    def test_one_debug_line_per_level(self, caplog, cores, tmp_path):
        cores(1)
        grid = GridSpec(d=2, N=2)
        field = gen_random_spd(grid, seed=1, eig_low=0.5, eig_high=2.0)
        with caplog.at_level(logging.DEBUG, logger="cge.coarse"):
            sweep(field, cache_dir=str(tmp_path))
            sweep(field, cache_dir=str(tmp_path))
        lines = [r.getMessage() for r in caplog.records if r.name == "cge.coarse"]
        assert len(lines) == 2 * (grid.N + 1)
        # unknowns: the largest skeleton of a merge, at level 0 the middle
        # strip's two interface lines and the 4 nodes between them (8 * 3);
        # chunks: one a stage in each of the 9 subtrees, and at level 0 one
        # a child, then one a merge (3 strips and the last)
        assert lines[0].startswith("level 0: condensation, 1 cubes in 13 chunks on 1 threads, "
                                   "24 unknowns per cube, residual ")
        assert lines[1].startswith("level -1: condensation, 9 cubes in 18 chunks on 1 threads, "
                                   "16 unknowns per cube, residual ")
        assert lines[2].startswith("level -2: cells, 81 cubes, - unknowns per cube, residual -, ")
        assert [line.split(",")[0] for line in lines[3:]] == [
            "level 0: cache", "level -1: cache", "level -2: cells"]

    def test_pass_runs_from_the_cells_to_the_coarsest_miss(self, cores, monkeypatch, tmp_path):
        cores(1)  # the caller runs the subtrees in order
        field = gen_random_spd(GridSpec(2, 3), seed=9, eig_low=0.5, eig_high=5.0)
        passes, calls = [], []
        real_pass = cge.coarse.level_functionals
        real_condense = cge.solver._condense

        def spy_pass(field, levels):
            passes.append(sorted(levels))
            return real_pass(field, levels)

        def spy_condense(maps, plan, out=None, forcing=None, carried=(), **kwargs):
            # a call's box maps and whether it pins: a map's last stage
            # where its level is asked for, or level 0's last merge
            calls.append((maps[0].shape[-1], forcing is not None or plan[1] == plan[0]))
            return real_condense(maps, plan, out, forcing, carried, **kwargs)

        monkeypatch.setattr(cge.coarse, "level_functionals", spy_pass)
        monkeypatch.setattr(cge.solver, "_condense", spy_condense)
        cache = tmp_path / "cache"
        cold = sweep(field, cache_dir=str(cache))
        # each subtree, a cube of level -1, runs its levels: a level's
        # functionals come with its last stage, one kernel call for all its
        # merges in the subtree; then its cube, a child of level 0, alone.
        # Level 0 condenses the children's boxes one merge at a time without
        # a map of its own, the last merge pinned (36: the boundary nodes of
        # a 9x9 child)
        top = [(ranks[0].size, k == size)
               for merges in cge.solver._plan((9, 9), True) for size, k, ranks in merges]
        assert top[:9] == [(36, False)] * 9 and top[-1][1]
        assert passes == [[-2, -1, 0]]
        subtree = [(4, False), (8, True), (12, False), (24, True)]
        assert calls == (subtree + [(36, False)]) * 9 + top[9:]
        assert (cold.solve_count, cold.cache_hits) == (2 * 91, 0)
        # a warm rerun asks the pass for no level and condenses nothing
        passes.clear(), calls.clear()
        assert sweep(field, cache_dir=str(cache)).solve_count == 0
        assert passes == [[]] and calls == []
        passes.clear()
        # with level -1 missed alone, the pass condenses level -2 without
        # solving it, solves level -1 and stops there
        os.remove(cache / field.content_hash / "level_-1.npz")
        redo = sweep(field, cache_dir=str(cache))
        assert passes == [[-1]] and calls == [(4, False), (8, False), (12, False), (24, True)] * 9
        assert (redo.solve_count, redo.cache_hits) == (2 * 9, 1 + 81)
        for level, ld in redo.levels.items():
            assert np.array_equal(ld.astar_inv, cold.levels[level].astar_inv)


# ---------------------------------------------------------------------------
# Disk cache
# ---------------------------------------------------------------------------

class TestCache:
    def test_warm_cache_zero_solves_bitwise_equal(self, tmp_path):
        grid = GridSpec(d=2, N=2)
        field = gen_random_spd(grid, seed=9, eig_low=0.5, eig_high=5.0)
        cache = str(tmp_path / "cache")
        cold = sweep(field, cache_dir=cache)
        assert cold.solve_count == 2 * 10 and cold.cache_hits == 0
        warm = sweep(field, cache_dir=cache)
        assert warm.solve_count == 0
        assert warm.cache_hits == 10
        for level in cold.levels:
            assert np.array_equal(cold.levels[level].astar, warm.levels[level].astar)
            assert np.array_equal(cold.levels[level].astar_inv, warm.levels[level].astar_inv)

    def test_cache_layout_one_record_per_level(self, tmp_path):
        grid = GridSpec(d=2, N=2)
        field = gen_random_spd(grid, seed=9, eig_low=0.5, eig_high=5.0)
        cache = str(tmp_path / "cache")
        sweep(field, cache_dir=cache)
        root = os.path.join(cache, field.content_hash)
        assert sorted(os.listdir(root)) == ["level_-1.npz", "level_0.npz"]
        with np.load(os.path.join(root, "level_-1.npz")) as rec:
            assert set(rec.files) == {"astar_inv", "solver"}
            assert rec["astar_inv"].shape == (3, 3, 3)

    def test_config_change_invalidates(self, tmp_path):
        # a level record written by another solver (another tag) is a miss
        grid = GridSpec(d=2, N=1)
        field = gen_random_spd(grid, seed=2, eig_low=0.5, eig_high=2.0)
        cache = str(tmp_path / "cache")
        cold = sweep(field, cache_dir=cache)
        victim = os.path.join(cache, field.content_hash, "level_0.npz")
        self._rewrite_record(victim, solver=np.frombuffer(b"q1-neumann/pcg", dtype=np.uint8))
        redo = sweep(field, cache_dir=cache)
        assert redo.solve_count == 2
        assert redo.cache_hits == 0
        assert np.array_equal(redo.levels[0].astar_inv, cold.levels[0].astar_inv)
        # the re-solved record carries the engine's tag again
        assert sweep(field, cache_dir=cache).cache_hits == 1

    def test_record_of_the_old_layout_is_a_miss(self, tmp_path):
        # records of the earlier engines: tag /1 also held amax, tag /2 was
        # the sparse engine's 2D record, tag /3 the condensation pass before
        # it went one axis at a time, tag /4 before level 0 kept only shared
        # nodes, tag /5 before the merges eliminated by Cholesky, tag /6
        # before level 0's last merge factored in place. Each is re-solved
        # and rewritten in the current layout, which then hits
        grid = GridSpec(d=2, N=1)
        field = gen_random_spd(grid, seed=2, eig_low=0.5, eig_high=2.0)
        cache = str(tmp_path / "cache")
        cold = sweep(field, cache_dir=cache)
        victim = os.path.join(cache, field.content_hash, "level_0.npz")
        for old_tag, extra in ((b"q1-neumann/splu-nested-dissection/1",
                                {"amax": cold.levels[0].avg}),
                               (b"q1-neumann/splu-nested-dissection/2", {}),
                               (b"q1-neumann/condensation-splu/3", {}),
                               (b"q1-neumann/condensation-splu/4", {}),
                               (b"q1-neumann/condensation/5", {}),
                               (b"q1-neumann/condensation/6", {})):
            self._rewrite_record(victim, solver=np.frombuffer(old_tag, dtype=np.uint8),
                                 **extra)
            redo = sweep(field, cache_dir=cache)
            assert (redo.solve_count, redo.cache_hits) == (2, 0)
            assert np.array_equal(redo.levels[0].astar_inv, cold.levels[0].astar_inv)
            with np.load(victim) as rec:
                assert set(rec.files) == {"astar_inv", "solver"}
                assert rec["solver"].tobytes().decode() == cge.coarse.SOLVER_TAG
            warm = sweep(field, cache_dir=cache)
            assert (warm.solve_count, warm.cache_hits) == (0, 1)

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
            self._rewrite_record(victim, astar_inv=np.ones(3))
        else:
            self._rewrite_record(victim, astar_inv=np.array([[[1.0, np.nan, 1.0]]]))
        warm = sweep(field, cache_dir=cache)
        assert warm.solve_count == 2
        assert warm.cache_hits == 0
        assert warm.failures == []
        assert np.array_equal(warm.levels[0].astar_inv, cold.levels[0].astar_inv)
        # the re-solved record replaced the damaged one
        assert sweep(field, cache_dir=cache).cache_hits == 1

    def test_one_factorization_per_solved_level(self, tmp_path, cores, monkeypatch):
        # one condensation pass takes each solved level once
        cores(1)
        grid = GridSpec(d=3, N=2)
        field = gen_random_spd(grid, seed=9, eig_low=0.5, eig_high=5.0)
        sizes = []
        real = cge.solver._condense

        def spy(maps, plan, *args, **kwargs):
            sizes.append((len(maps), maps[0].shape[-1]))  # boxes a merge, nodes a box
            return real(maps, plan, *args, **kwargs)

        monkeypatch.setattr(cge.solver, "_condense", spy)
        cache = str(tmp_path / "cache")
        sweep(field, cache_dir=cache)
        # one core runs the 27 subtrees in order, each a cube of level -1:
        # 3 stages from the cells, one axis each, each one call, then the
        # cube alone as a child of level 0 (56 boundary nodes); level 0
        # then takes 9, 3 and 1 merges of 3 boxes
        assert sizes[:108] == [(3, 8), (3, 16), (3, 32), (1, 56)] * 27
        assert [boxes for boxes, _ in sizes[108:]] == [3] * 13
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
        assert not np.array_equal(ra.levels[0].astar_inv, rb.levels[0].astar_inv)


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
        for arr in (ld.astar, ld.avg, ld.inv_avg_inv, ld.astar_inv,
                    ld.avg_norm, ld.astar_inv_norm):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            ld.avg = ld.astar
        old_norm = ld.avg_norm.copy()
        _set_entry(result, 0, "avg", (0, 0, 0), 10.0)
        assert result.levels[0].avg_norm[0, 0] > old_norm[0, 0]
        assert_allclose(ld.avg_norm, old_norm, rtol=0, atol=0)

    @pytest.mark.parametrize("s_grid", [(), [], np.array([])])
    def test_empty_exponent_grid_is_an_error(self, s_grid):
        # no exponent would leave monotone, theta_ge_1 and scaling unchecked
        result = sweep(gen_constant(GridSpec(d=2, N=1), np.eye(2)))
        with pytest.raises(ValueError, match="s_grid is empty"):
            audit(result, s_grid=s_grid)

    def test_constant_field_clean_with_pinned_coverage(self):
        grid = GridSpec(d=2, N=2)
        report = audit(sweep(gen_constant(grid, np.diag([1.0, 4.0]))))
        assert report.ok
        assert report.checked == {
            "finite": 4 * 91,  # astar, avg, inv_avg_inv, astar_inv
            "chain": 2 * 91,
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
        # a NaN in the upper matrix passes the chain and norm checks silently:
        # the finiteness check alone names it
        _set_entry(result, -1, "avg", (1, 1), np.nan)
        report = audit(result)
        assert not report.ok
        assert report.checked["finite"] == 4 * 91
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
        _set_entry(result, 0, "avg", (..., 0), 0.5)  # avg no longer >= astar
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
        for offset in np.ndindex((3**N,) * d):
            # every matrix is the cell's to the last bit, astar_inv its inverse's
            pair = result.pair(TriadicCube(-N, offset))
            cell = sym_unpack(field.data[offset], d)
            for name in ("astar", "avg", "inv_avg_inv"):
                assert np.array_equal(getattr(pair, name), cell), name
            assert np.array_equal(pair.astar_inv, sym_unpack(field.inv_data[offset], d))

    def test_wide_contrast_3d_audits_clean(self):
        # eigenvalues 1e-3..1e3: before, the cell level failed the chain check
        report = audit(sweep(gen_random_spd(GridSpec(d=3, N=2), seed=0)))
        assert report.violations == []
        assert report.max_slack["chain"] < 1e-12


# ---------------------------------------------------------------------------
# Solve-path identities: scaling and 2D symmetries
# ---------------------------------------------------------------------------

#: Relative tolerance of the solve-path identities at every level of a 2D
#: N=2 grid (roundoff).
IDENTITY_RTOL = 1e-12

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
        for name in ("astar", "avg"):
            want = expected(level, name)
            assert_allclose(getattr(ld, name), want, rtol=0,
                            atol=rtol * np.abs(want).max(), err_msg=f"{name} level {level}")


class TestSolveIdentities:
    @pytest.mark.parametrize("c", [0.1, 7.0])
    def test_scaling_scales_both_matrices(self, identity_field, c):
        base = sweep(identity_field)
        scaled = sweep(identity_field.scaled(c))
        _assert_levels_close(
            scaled, lambda k, name: c * getattr(base.levels[k], name), IDENTITY_RTOL)

    @pytest.mark.parametrize("symmetry", sorted(SYMMETRIES))
    def test_symmetry_transforms_both_matrices(self, identity_field, symmetry):
        act = SYMMETRIES[symmetry]
        image = CoefficientField(identity_field.grid, act(identity_field.data), symmetry)
        base = sweep(identity_field)
        moved = sweep(image)
        assert not np.allclose(moved.levels[-1].avg, base.levels[-1].avg)
        _assert_levels_close(
            moved, lambda k, name: act(getattr(base.levels[k], name)), IDENTITY_RTOL)

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
        # the audit's scaling check squares every cube's upper constant from
        # the one level-wide reduction; it must be the per-cube value
        # exactly, and so must every part of each cube's report
        result = sweep(gen_random_spd(GridSpec(d, n), seed=5, eig_low=1e-2, eig_high=1e2))
        upper = {k: ld.avg_norm for k, ld in result.levels.items()}
        lower = {k: ld.astar_inv_norm for k, ld in result.levels.items()}
        for s in (0.15, 0.45, 0.9):
            for level in result.levels:
                total_u, per_u, tail_u = scale_weighted_constant(upper, s, level)
                total_l, per_l, tail_l = scale_weighted_constant(lower, s, level)
                for cube in partition(result.grid, level):
                    rep = ellipticity_constants(result, s, s, cube=cube)
                    z = cube.offset
                    assert rep.lambda_upper == np.float_power(total_u, 2)[z]
                    assert rep.lambda_lower == np.float_power(total_l, -2)[z]
                    assert rep.per_scale_upper == {k: v[z] for k, v in per_u.items()}
                    assert rep.per_scale_lower == {k: v[z] for k, v in per_l.items()}
                    assert (rep.tail_upper, rep.tail_lower) == (tail_u[z], tail_l[z])

    def test_subcube_scaling_bound(self, random_result):
        s = 0.5
        whole = ellipticity_constants(random_result, s, s).lambda_upper
        for cube in partition(random_result.grid, -1):
            rep = ellipticity_constants(random_result, s, s, cube=cube)
            assert rep.lambda_upper <= 3.0 ** (2 * s) * whole * (1 + 1e-12)