"""Tests for oscillation experiments and solution diagnostics."""

import faulthandler
import json
import math
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

import cge.harness
import cge.solver
from cge.fields import gen_constant, gen_laminate
from cge.grid import GridSpec, TriadicCube
from cge.harness import (
    HARNACK_CALIBRATION,
    LOCAL_BOUND_CALIBRATION,
    MAX_PRINCIPLE_RTOL,
    SUBCUBE_FRACTIONS,
    ExperimentRecord,
    MaxPrincipleViolation,
    harnack_experiment,
    local_boundedness_experiment,
    log_caccioppoli_diagnostic,
    reverse_holder_diagnostic,
    sharpness_boundary,
    sharpness_sweep,
    sobolev_poincare_diagnostic,
)
from cge.solver import CubeFunction, SolverError, level_functionals, solve_dirichlet
from test_solver import diagonal_field

DESK = GridSpec(2, 5)
CUBE0 = TriadicCube(0, (0, 0))


def identity_field(grid=DESK):
    return gen_constant(grid, np.eye(grid.d), descriptor="identity")


def affine_boundary(x1, x2):
    return x1 + 2.0


def cell_centers(grid):
    m = grid.cells_per_side
    return -0.5 + (np.arange(m) + 0.5) * grid.h


class TestHarnackExperiment:
    def test_affine_solution_closed_form(self):
        rec = harnack_experiment(
            identity_field(), affine_boundary, 0.45, 0.45,
            boundary_descriptor="x1+2",
        )
        # extreme sampled centers on the snapped 1/8, 1/4, 1/2 subcubes
        for frac, extent in ((Fraction(1, 8), Fraction(15, 243)),
                             (Fraction(1, 4), Fraction(30, 243)),
                             (Fraction(1, 2), Fraction(61, 243))):
            assert rec.sup_by_fraction[str(frac)] == pytest.approx(
                2.0 + float(extent), rel=1e-12)
            assert rec.inf_by_fraction[str(frac)] == pytest.approx(
                2.0 - float(extent), rel=1e-12)
        expected = math.log((2.0 + 15.0 / 243.0) / (2.0 - 15.0 / 243.0))
        assert rec.harnack_log_ratio == pytest.approx(expected, rel=1e-12)
        assert rec.theta == pytest.approx(1.0, rel=1e-10)
        assert rec.theta_method == "surrogate"
        assert rec.threshold == pytest.approx(HARNACK_CALIBRATION / 0.45, rel=1e-12)
        assert rec.passed
        assert rec.sigma == pytest.approx(0.1, rel=1e-12)
        assert rec.boundary_descriptor == "x1+2"

    def test_constant_boundary_has_zero_ratio(self):
        rec = harnack_experiment(
            identity_field(), lambda x, y: np.ones_like(x), 0.3, 0.3)
        assert abs(rec.harnack_log_ratio) < 1e-12
        for frac in SUBCUBE_FRACTIONS:
            assert rec.sup_by_fraction[str(frac)] == pytest.approx(1.0, rel=1e-12)
            assert rec.inf_by_fraction[str(frac)] == pytest.approx(1.0, rel=1e-12)

    def test_sup_dominates_inf_everywhere(self):
        field = gen_laminate(DESK, 0, (1.0, 9.0, 1.0))
        rec = harnack_experiment(
            field, lambda x, y: np.exp(x) + 0.5 * y + 1.0, 0.4, 0.4)
        for frac in SUBCUBE_FRACTIONS:
            key = str(frac)
            assert rec.sup_by_fraction[key] >= rec.inf_by_fraction[key]
            assert np.isfinite(rec.sup_by_fraction[key])
        assert np.isfinite(rec.harnack_log_ratio)

    def test_nested_subcube_monotonicity(self):
        rec = harnack_experiment(
            identity_field(), affine_boundary, 0.45, 0.45)
        sups = [rec.sup_by_fraction[str(f)] for f in SUBCUBE_FRACTIONS]
        infs = [rec.inf_by_fraction[str(f)] for f in SUBCUBE_FRACTIONS]
        assert sups == sorted(sups)
        assert infs == sorted(infs, reverse=True)

    @pytest.mark.parametrize("c", [0.1, 10.0])
    def test_field_scaling_invariance(self, c):
        base = harnack_experiment(identity_field(), affine_boundary, 0.45, 0.45)
        scaled_field = gen_constant(DESK, c * np.eye(2), descriptor="scaled")
        rec = harnack_experiment(scaled_field, affine_boundary, 0.45, 0.45)
        assert rec.harnack_log_ratio == pytest.approx(
            base.harnack_log_ratio, rel=1e-9)
        assert rec.theta == pytest.approx(base.theta, rel=1e-8)

    def test_boundary_scaling_invariance(self):
        base = harnack_experiment(identity_field(), affine_boundary, 0.45, 0.45)
        rec = harnack_experiment(
            identity_field(), lambda x, y: 3.0 * (x + 2.0), 0.45, 0.45)
        assert rec.harnack_log_ratio == pytest.approx(
            base.harnack_log_ratio, rel=1e-9)

    def test_explicit_theta_short_circuits(self):
        rec = harnack_experiment(
            identity_field(), affine_boundary, 0.45, 0.45, theta=9.0)
        assert rec.theta == 9.0
        assert rec.theta_method == "given"
        assert rec.threshold == pytest.approx(
            HARNACK_CALIBRATION * 3.0 / 0.45, rel=1e-12)

    def test_moment_diagnostics_reported(self):
        rec = harnack_experiment(identity_field(), affine_boundary, 0.45, 0.45)
        assert rec.p_star == pytest.approx(0.5 * 0.45 / math.sqrt(rec.theta), rel=1e-12)
        diag = rec.diagnostics
        assert diag["moment_plus"] > 0
        assert diag["moment_minus"] > 0
        # exp-moment product dominates 1 by convexity
        assert diag["crossover"] >= 1.0 - 1e-12

    def test_record_serializes_to_json(self):
        rec = harnack_experiment(identity_field(), affine_boundary, 0.45, 0.45)
        blob = json.dumps(rec.to_dict(), sort_keys=True)
        back = json.loads(blob)
        assert back["kind"] == "harnack"
        assert back["field_hash"] == identity_field().content_hash
        assert back["lb_ratio"] is None
        assert set(back["sup_by_fraction"]) == {"1/8", "1/4", "1/2"}
        assert back["solver"]["method"] == "fv-condensation"

    @pytest.mark.parametrize("experiment", [harnack_experiment, local_boundedness_experiment])
    @pytest.mark.parametrize("s, t", [(0.6, 0.5), (0.0, 0.3), (0.3, 1.0)])
    def test_exponent_validation(self, experiment, s, t):
        with pytest.raises(ValueError, match="exponents must"):
            experiment(identity_field(), affine_boundary, s, t)

    def test_rejects_nonpositive_boundary(self):
        with pytest.raises(ValueError, match="strictly positive"):
            harnack_experiment(identity_field(), lambda x, y: x + 0.5, 0.3, 0.3)

    @pytest.mark.parametrize("experiment", [harnack_experiment, local_boundedness_experiment])
    def test_rejects_nonfinite_boundary(self, experiment):
        with pytest.raises(ValueError, match="finite"):
            experiment(
                identity_field(), lambda x, y: np.where(x > 0.4, np.inf, 1.0),
                0.3, 0.3)


class TestMaxPrinciple:
    def test_solution_inside_boundary_range(self):
        field = gen_laminate(DESK, 0, (1.0, 9.0, 1.0))

        def boundary(x, y):
            return np.sin(6.0 * x) + 0.2 * np.cos(9.0 * y)

        u, _ = solve_dirichlet(field, CUBE0, boundary)
        from cge.harness import _boundary_face_values

        bvals = _boundary_face_values(DESK, boundary)
        span = bvals.max() - bvals.min()
        assert u.data.max() <= bvals.max() + 1e-9 * span
        assert u.data.min() >= bvals.min() - 1e-9 * span

    @staticmethod
    def hand_made_solution(monkeypatch, data):
        """Make the experiments' Dirichlet solve return the cell values ``data``."""
        def solve(field, cube, boundary, **kwargs):
            _, stats = solve_dirichlet(field, cube, boundary, **kwargs)
            return CubeFunction(field.grid, cube, data), stats

        monkeypatch.setattr(cge.harness, "solve_dirichlet", solve)

    @pytest.mark.parametrize("experiment", [harnack_experiment, local_boundedness_experiment])
    @pytest.mark.parametrize("index, value", [(0, 2.5 + 1e-8), (-1, 1.5 - 1e-8)],
                             ids=["upper", "lower"])
    def test_solution_outside_the_boundary_range_is_reported(
            self, monkeypatch, experiment, index, value):
        # data 2 + x ranges over [1.5, 2.5] on the faces; the hand-made
        # solution leaves it on one side by 1e-8, 4e-9 of max|b|
        grid = GridSpec(2, 3)
        field = identity_field(grid)
        data = np.full((grid.cells_per_side,) * 2, 2.0)
        data.flat[index] = value
        self.hand_made_solution(monkeypatch, data)
        with pytest.raises(MaxPrincipleViolation, match=r"\[1\.5, 2\.5\] by 4e-09 of max\|b\|"):
            experiment(field, lambda x, y: 2.0 + x, 0.3, 0.3)

    @pytest.mark.parametrize("experiment", [harnack_experiment, local_boundedness_experiment])
    def test_slack_is_recorded(self, experiment):
        rec = experiment(identity_field(), affine_boundary, 0.45, 0.45)
        u, _ = solve_dirichlet(identity_field(), CUBE0, affine_boundary)
        # the extreme cell centres sit 1/486 inside the faces x = -1/2, 1/2
        assert rec.diagnostics["max_principle_slack"] == pytest.approx(
            (1.0 / 486.0) / 2.5, rel=1e-9)
        assert rec.diagnostics["max_principle_slack"] == pytest.approx(
            (2.5 - u.data.max()) / 2.5, rel=1e-12)

    def test_rounding_overshoot_is_tolerated(self, monkeypatch):
        # constant data comes back with rounding of order 1e-15: inside the
        # tolerance, and recorded with its sign
        grid = GridSpec(2, 3)
        data = np.full((grid.cells_per_side,) * 2, 2.0)
        data[0, 0] = 2.0 * (1.0 + 4e-16)
        self.hand_made_solution(monkeypatch, data)
        rec = local_boundedness_experiment(identity_field(grid), lambda x, y: 2.0 + 0 * x,
                                           0.3, 0.3)
        assert -MAX_PRINCIPLE_RTOL < rec.diagnostics["max_principle_slack"] < 0

    def test_checks_read_the_face_values_the_solver_reads(self):
        # at N=6 the upper face lo + m*h is 0.4999999999999999, not 0.5
        points = []

        def boundary(x):
            points.append(x.copy())
            return x + 2.0

        harnack_experiment(gen_constant(GridSpec(1, 6), np.eye(1)), boundary, 0.3, 0.3)
        assert len(points) == 4  # two faces checked by the harness, then solved
        for checked, solved in zip(points[:2], points[2:]):
            np.testing.assert_array_equal(checked, solved)


class TestLocalBoundedness:
    def test_affine_baseline(self):
        rec = local_boundedness_experiment(
            identity_field(), lambda x, y: x, 0.45, 0.45,
            boundary_descriptor="x1")
        x = cell_centers(DESK)
        u_plus = math.sqrt(np.mean(np.maximum(np.tile(x[:, None], (1, 243)), 0.0) ** 2))
        sup_half = 61.0 / 243.0
        assert rec.lb_ratio == pytest.approx(sup_half / u_plus, rel=1e-10)
        # close to the continuum value (1/4) / sqrt(1/24)
        assert rec.lb_ratio == pytest.approx(0.25 / math.sqrt(1.0 / 24.0), rel=0.01)
        assert rec.threshold == pytest.approx(LOCAL_BOUND_CALIBRATION, rel=1e-12)
        assert rec.passed
        assert rec.harnack_log_ratio is None
        assert rec.kind == "local-bound"

    def test_solution_independent_of_constant_diagonal(self):
        base = local_boundedness_experiment(
            identity_field(), lambda x, y: x, 0.45, 0.45)
        aniso = gen_constant(DESK, np.diag([1.0, 4.0]), descriptor="diag(1,4)")
        rec = local_boundedness_experiment(aniso, lambda x, y: x, 0.45, 0.45)
        assert rec.lb_ratio == pytest.approx(base.lb_ratio, rel=1e-9)
        assert rec.theta == pytest.approx(4.0, rel=1e-8)
        # threshold grows with the ellipticity ratio: theta**(d / (4 sigma))
        assert rec.threshold == pytest.approx(
            LOCAL_BOUND_CALIBRATION * 4.0 ** (2.0 / (4.0 * 0.1)), rel=1e-9)

    def test_nonpositive_solution_gives_zero_ratio(self):
        rec = local_boundedness_experiment(
            identity_field(), lambda x, y: -(x + 2.0), 0.4, 0.4)
        assert rec.u_plus_l2 == 0.0
        assert rec.lb_ratio == 0.0
        assert rec.passed

    def test_sign_changing_data_allowed(self):
        rec = local_boundedness_experiment(
            identity_field(), lambda x, y: np.sin(7.0 * x) * np.cos(3.0 * y),
            0.4, 0.4)
        assert np.isfinite(rec.lb_ratio)
        assert rec.u_plus_l2 > 0


@pytest.fixture(scope="module")
def solved_affine():
    u, _ = solve_dirichlet(identity_field(), CUBE0, affine_boundary)
    return u


@pytest.fixture(scope="module")
def sweep():
    return sharpness_sweep([1.0, 4.0, 16.0, 64.0])


class TestReverseHolder:
    def test_golden_power_quotient(self, solved_affine):
        value = reverse_holder_diagnostic(
            identity_field(), solved_affine, ("power", 2.0),
            0.5, 1.0, 0.3, 0.3, 1.0)
        assert value == pytest.approx(0.00108356702201181, rel=1e-9)

    def test_golden_truncation_quotient(self, solved_affine):
        value = reverse_holder_diagnostic(
            identity_field(), solved_affine, ("trunc", 2.0),
            0.5, 1.0, 0.3, 0.3, 1.0)
        assert value == pytest.approx(0.00297223471112545, rel=1e-9)

    def test_power_scale_invariance(self, solved_affine):
        base = reverse_holder_diagnostic(
            identity_field(), solved_affine, ("power", 2.0),
            0.5, 1.0, 0.3, 0.3, 1.0)
        scaled = CubeFunction(DESK, CUBE0, 7.0 * solved_affine.data)
        value = reverse_holder_diagnostic(
            identity_field(), scaled, ("power", 2.0), 0.5, 1.0, 0.3, 0.3, 1.0)
        assert value == pytest.approx(base, rel=1e-12)

    def test_truncation_shift_invariance(self, solved_affine):
        base = reverse_holder_diagnostic(
            identity_field(), solved_affine, ("trunc", 2.0),
            0.5, 1.0, 0.3, 0.3, 1.0)
        shifted = CubeFunction(DESK, CUBE0, solved_affine.data + 5.0)
        value = reverse_holder_diagnostic(
            identity_field(), shifted, ("trunc", 7.0), 0.5, 1.0, 0.3, 0.3, 1.0)
        assert value == pytest.approx(base, rel=1e-12)

    def test_truncation_above_sup_is_zero(self, solved_affine):
        value = reverse_holder_diagnostic(
            identity_field(), solved_affine, ("trunc", 10.0),
            0.5, 1.0, 0.3, 0.3, 1.0)
        assert value == 0.0

    def test_larger_theta_shrinks_quotient(self, solved_affine):
        small = reverse_holder_diagnostic(
            identity_field(), solved_affine, ("power", 2.0),
            0.5, 1.0, 0.3, 0.3, 1.0)
        large = reverse_holder_diagnostic(
            identity_field(), solved_affine, ("power", 2.0),
            0.5, 1.0, 0.3, 0.3, 100.0)
        assert large < small

    @pytest.mark.parametrize("rho1, rho2", [(0.4, 1.0), (0.6, 0.6), (0.5, 1.1)])
    def test_fraction_validation(self, solved_affine, rho1, rho2):
        with pytest.raises(ValueError, match="rho"):
            reverse_holder_diagnostic(
                identity_field(), solved_affine, ("power", 2.0),
                rho1, rho2, 0.3, 0.3, 1.0)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_degenerate_power_rejected(self, solved_affine, p):
        with pytest.raises(ValueError, match="outside"):
            reverse_holder_diagnostic(
                identity_field(), solved_affine, ("power", p),
                0.5, 1.0, 0.3, 0.3, 1.0)

    def test_power_requires_positive_solution(self):
        u, _ = solve_dirichlet(identity_field(), CUBE0, lambda x, y: x)
        with pytest.raises(ValueError, match="positive"):
            reverse_holder_diagnostic(
                identity_field(), u, ("power", 2.0), 0.5, 1.0, 0.3, 0.3, 1.0)

    def test_unknown_transform_rejected(self, solved_affine):
        with pytest.raises(ValueError, match="transform"):
            reverse_holder_diagnostic(
                identity_field(), solved_affine, ("exp", 2.0),
                0.5, 1.0, 0.3, 0.3, 1.0)

    def test_low_integrability_dimension_guard(self):
        grid = GridSpec(1, 3)
        field = gen_constant(grid, np.eye(1), descriptor="id1")
        u, _ = solve_dirichlet(field, TriadicCube(0, (0,)),
                               lambda x: x + 2.0)
        with pytest.raises(ValueError, match="integrability"):
            reverse_holder_diagnostic(
                field, u, ("power", 2.0), 0.5, 1.0, 0.3, 0.3, 1.0)


class TestLogCaccioppoli:
    def test_constant_solution_gives_zero(self):
        u, _ = solve_dirichlet(identity_field(), CUBE0,
                               lambda x, y: np.ones_like(x))
        assert log_caccioppoli_diagnostic(identity_field(), u, 1.0) == pytest.approx(
            0.0, abs=1e-20)

    def test_exact_exponential_identity(self):
        lam = 16.0
        field = gen_constant(DESK, np.diag([1.0, lam]), descriptor="diag(1,16)")
        x = cell_centers(DESK)
        data = np.exp(math.sqrt(lam) * x)[:, None] * np.ones((1, 243))
        u = CubeFunction(DESK, CUBE0, data)
        ratio = log_caccioppoli_diagnostic(field, u, lam)
        assert ratio == pytest.approx(1.0, rel=1e-12)

    def test_solved_exponential_near_identity(self):
        lam = 16.0
        field = gen_constant(DESK, np.diag([1.0, lam]), descriptor="diag(1,16)")
        u, _ = solve_dirichlet(field, CUBE0,
                               lambda x, y: np.exp(math.sqrt(lam) * x))
        ratio = log_caccioppoli_diagnostic(field, u, lam)
        assert ratio == pytest.approx(1.0, rel=0.02)

    def test_requires_positive_on_half_cube(self):
        u, _ = solve_dirichlet(identity_field(), CUBE0, lambda x, y: x)
        with pytest.raises(ValueError, match="positive"):
            log_caccioppoli_diagnostic(identity_field(), u, 1.0)

    def test_rejects_nonpositive_constant(self):
        u, _ = solve_dirichlet(identity_field(), CUBE0, affine_boundary)
        with pytest.raises(ValueError, match="lambda_upper"):
            log_caccioppoli_diagnostic(identity_field(), u, 0.0)


def constant_two(*x):
    return np.full_like(x[0], 2.0)


class TestSobolevPoincare:
    def test_constant_solution_gives_zero(self):
        u, _ = solve_dirichlet(identity_field(), CUBE0, constant_two)
        assert sobolev_poincare_diagnostic(identity_field(), u, 0.45, 1.0,
                                           boundary=constant_two) == 0.0

    @pytest.mark.parametrize("contrast", [1.0, 1e2, 1e4])
    @pytest.mark.parametrize("n", [4, 5])
    def test_constant_data_gives_zero_at_any_contrast(self, contrast, n):
        # At contrast 1e4 the computed u oscillates by up to 9.4e-13 from
        # rounding, which would read as a quotient near 0.006; by the
        # maximum principle u is constant.
        for seed in (1, 2, 3):
            field = diagonal_field(GridSpec(2, n), seed, contrast)
            u, _ = solve_dirichlet(field, CUBE0, constant_two)
            assert sobolev_poincare_diagnostic(field, u, 0.45, 1e-2,
                                               boundary=constant_two) == 0.0

    def test_nearly_constant_solution_is_not_constant(self):
        # The quotient is invariant under u -> 2 + eps * u, so data varying by
        # 1e-6 keeps the quotient of its variation, far above the rounding.
        field = diagonal_field(GridSpec(2, 5), 1)

        def nearly_constant(x, y):
            return 2.0 + 1e-6 * x

        u, _ = solve_dirichlet(field, CUBE0, nearly_constant)
        got = sobolev_poincare_diagnostic(field, u, 0.45, 1e-2,
                                          boundary=nearly_constant)
        v, _ = solve_dirichlet(field, CUBE0, lambda x, y: x)
        expected = sobolev_poincare_diagnostic(field, v, 0.45, 1e-2,
                                               boundary=lambda x, y: x)
        assert got > 0.0
        assert got == pytest.approx(expected, rel=1e-4)

    def test_affine_closed_form(self):
        u, _ = solve_dirichlet(identity_field(), CUBE0, lambda x, y: x)
        s = 0.45
        two_star = 2.0 * 2 / (2 - 2 * (1 - s))
        x = cell_centers(DESK)
        vals = np.tile(x[:, None], (1, 243))
        lhs = np.mean(np.abs(vals - vals.mean()) ** two_star) ** (1 / two_star)
        # the face-form energy of the affine solution is exactly 1
        expected = lhs * s
        got = sobolev_poincare_diagnostic(identity_field(), u, s, 1.0,
                                          boundary=lambda x, y: x)
        assert got == pytest.approx(expected, rel=1e-10)
        assert got == pytest.approx(0.153669009088272, rel=1e-9)

    def test_scaling_with_lower_constant(self):
        u, _ = solve_dirichlet(identity_field(), CUBE0, lambda x, y: x)
        base = sobolev_poincare_diagnostic(identity_field(), u, 0.45, 1.0,
                                           boundary=lambda x, y: x)
        quartered = sobolev_poincare_diagnostic(identity_field(), u, 0.45, 0.25,
                                                boundary=lambda x, y: x)
        assert quartered == pytest.approx(0.5 * base, rel=1e-12)

    def test_dimension_guard(self):
        grid = GridSpec(1, 3)
        field = gen_constant(grid, np.eye(1), descriptor="id1")
        u, _ = solve_dirichlet(field, TriadicCube(0, (0,)), lambda x: x)
        with pytest.raises(ValueError, match="integrability"):
            sobolev_poincare_diagnostic(field, u, 0.3, 1.0, boundary=lambda x: x)
        # d=1 admits exponents above 1/2
        assert np.isfinite(
            sobolev_poincare_diagnostic(field, u, 0.8, 1.0, boundary=lambda x: x))


def exp_boundary(x1, x2):
    return np.exp(x1) + 2.0


DIAGNOSTIC_CONSTANTS = {
    "lambda_upper": lambda field, u, c: log_caccioppoli_diagnostic(field, u, c),
    "lambda_lower": lambda field, u, c: sobolev_poincare_diagnostic(
        field, u, 0.45, c, boundary=exp_boundary),
    "theta": lambda field, u, c: reverse_holder_diagnostic(
        field, u, ("power", 2.0), 0.5, 1.0, 0.3, 0.3, c),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", list(DIAGNOSTIC_CONSTANTS))
def test_diagnostics_reject_a_constant_that_is_not_finite_and_positive(name, value):
    # a NaN or inf constant would pass through as a NaN, 0 or inf quotient
    field = gen_constant(GridSpec(2, 3), np.diag([1.0, 4.0]))
    u, _ = solve_dirichlet(field, CUBE0, exp_boundary)
    with pytest.raises(ValueError, match=f"{name} must be finite and positive, got {value!r}"):
        DIAGNOSTIC_CONSTANTS[name](field, u, value)


class TestSharpnessSweep:
    def test_slope_in_reference_band(self, sweep):
        assert 0.11 <= sweep.slope <= 0.14
        assert sweep.intercept >= 0.0

    def test_per_contrast_log_ratio_matches_exact_solution(self, sweep):
        for lam, ratio in zip(sweep.lambdas, sweep.log_ratios):
            predicted = math.sqrt(lam) / 8.0 + math.log(1.0 / math.cos(1.0 / 16.0))
            assert ratio == pytest.approx(predicted, rel=0.02)

    def test_unit_contrast_value(self, sweep):
        assert sweep.log_ratios[0] == pytest.approx(
            1.0 / 8.0 + math.log(1.0 / math.cos(1.0 / 16.0)), rel=0.02)

    def test_log_ratio_nondecreasing_in_contrast(self, sweep):
        ratios = list(sweep.log_ratios)
        assert ratios == sorted(ratios)

    def test_records_carry_exact_theta(self, sweep):
        assert [r.theta for r in sweep.records] == [1.0, 4.0, 16.0, 64.0]
        assert all(r.theta_method == "given" for r in sweep.records)
        assert all(r.passed for r in sweep.records)

    def test_boundary_positive_on_cube(self):
        boundary, tag = sharpness_boundary(64.0)
        assert "64" in tag
        xs = np.linspace(-0.5, 0.5, 33)
        grid_x, grid_y = np.meshgrid(xs, xs, indexing="ij")
        assert boundary(grid_x, grid_y).min() > 0

    def test_rejects_contrast_below_one(self):
        with pytest.raises(ValueError, match=">= 1"):
            sharpness_sweep([0.5, 4.0])

    def test_partial_sweep_on_solver_failure(self, monkeypatch):
        import cge.harness as harness_mod

        real_solve = harness_mod.solve_dirichlet

        def flaky(field, cube, boundary, **kwargs):
            if field.data[..., -1].max() > 10.0:
                raise SolverError("synthetic factorization failure")
            return real_solve(field, cube, boundary, **kwargs)

        monkeypatch.setattr(harness_mod, "solve_dirichlet", flaky)
        report = sharpness_sweep([1.0, 4.0, 16.0, 64.0], N=3)
        assert [f["contrast"] for f in report.failures] == [16.0, 64.0]
        assert len(report.records) == 2
        assert report.slope is not None

    def test_all_failures_yield_no_fit(self, monkeypatch):
        import cge.harness as harness_mod

        def broken(field, cube, boundary, **kwargs):
            raise SolverError("synthetic failure")

        monkeypatch.setattr(harness_mod, "solve_dirichlet", broken)
        report = sharpness_sweep([1.0, 4.0], N=3)
        assert report.slope is None
        assert report.intercept is None
        assert len(report.failures) == 2

    def test_report_serializes(self, sweep):
        blob = json.dumps(sweep.to_dict(), sort_keys=True)
        back = json.loads(blob)
        assert len(back["records"]) == 4
        assert back["slope"] == pytest.approx(sweep.slope)

    def test_rejects_repeated_contrasts_before_solving(self, monkeypatch):
        # two equal contrasts give one point twice, and a line through one
        # point has no slope
        def unreachable(*args, **kwargs):
            raise AssertionError("solved before the contrasts were checked")

        monkeypatch.setattr(cge.harness, "solve_dirichlet", unreachable)
        with pytest.raises(ValueError, match="distinct, got 4.0 twice"):
            sharpness_sweep([4.0, 16.0, 4.0], N=3)


def _pure(record):
    """A record's dictionary without the solve's wall time."""
    out = record.to_dict()
    del out["solver"]["wall_time"]
    return out


class TestSharpnessWorkers:
    """The contrasts run in forked worker processes, one per core."""

    @pytest.fixture(autouse=True)
    def no_worker_left(self):
        yield
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("failing", [None, 3.0])
    def test_matches_serial_loop(self, monkeypatch, failing):
        # more contrasts than cores, so some worker takes several; a
        # middle contrast that fails keeps its message and its place
        real_solve = cge.harness.solve_dirichlet

        def solve(field, cube, boundary):
            if field.data[0, 0, -1] == failing:
                raise SolverError(f"synthetic failure at {failing:g}")
            return real_solve(field, cube, boundary)

        monkeypatch.setattr(cge.harness, "solve_dirichlet", solve)
        lams = [1.0 + i for i in range(len(os.sched_getaffinity(0)) + 3)]
        records, failures = [], []
        for lam in lams:
            fld = gen_constant(GridSpec(2, 3), np.diag([1.0, lam]), descriptor=f"diag(1,{lam:g})")
            boundary, tag = sharpness_boundary(lam)
            try:
                records.append(harnack_experiment(fld, boundary, 0.45, 0.45, theta=lam,
                                                  boundary_descriptor=tag))
            except SolverError as err:
                failures.append({"contrast": lam, "message": str(err)})
        report = sharpness_sweep(lams, N=3)
        assert [_pure(r) for r in report.records] == [_pure(r) for r in records]
        assert list(report.failures) == failures
        assert failures == ([] if failing is None
                            else [{"contrast": 3.0, "message": "synthetic failure at 3"}])

    def test_worker_that_dies_fails_the_call(self, monkeypatch):
        real_solve, caller = cge.harness.solve_dirichlet, os.getpid()

        def solve(field, cube, boundary):
            if field.data[0, 0, -1] == 4.0 and os.getpid() != caller:
                os._exit(3)
            return real_solve(field, cube, boundary)

        monkeypatch.setattr(cge.harness, "solve_dirichlet", solve)
        faulthandler.dump_traceback_later(120, exit=True)  # a hang fails the run
        try:
            with pytest.raises(BrokenProcessPool):
                sharpness_sweep([1.0, 4.0, 16.0], N=3)
        finally:
            faulthandler.cancel_dump_traceback_later()

    def test_sweep_after_chunk_threads_started(self, monkeypatch):
        # a pass on two threads starts the chunk threads, which a forked
        # worker does not have: it must start its own, not submit to them
        with monkeypatch.context() as patched:
            patched.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
            level_functionals(identity_field(GridSpec(2, 3)))
        assert cge.solver._POOL is not None
        real_solve = cge.harness.solve_dirichlet

        def solve(field, cube, boundary):
            if cge.solver._POOL is not None:
                raise SolverError("the worker has its parent's chunk threads")
            return real_solve(field, cube, boundary)

        monkeypatch.setattr(cge.harness, "solve_dirichlet", solve)
        report = sharpness_sweep([1.0, 4.0, 16.0], N=3)
        assert report.failures == ()
        assert [r.theta for r in report.records] == [1.0, 4.0, 16.0]


class TestThetaConsistency:
    def test_sweep_route_matches_surrogate_on_constant_field(self):
        from cge.coarse import sweep as coarse_sweep

        grid = GridSpec(2, 2)
        field = gen_constant(grid, np.diag([1.0, 4.0]), descriptor="diag(1,4)")
        result = coarse_sweep(field)
        rec_sweep = harnack_experiment(
            field, affine_boundary, 0.45, 0.45, sweep_result=result)
        rec_surr = harnack_experiment(field, affine_boundary, 0.45, 0.45)
        assert rec_sweep.theta_method == "sweep"
        assert rec_surr.theta_method == "surrogate"
        assert rec_sweep.theta == pytest.approx(4.0, rel=1e-8)
        assert rec_surr.theta == pytest.approx(4.0, rel=1e-8)
