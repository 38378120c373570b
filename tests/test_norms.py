"""Tests for the multiscale integrability norms and the exponent criterion.

Oracles: closed forms for constants and linear functions, explicit-loop
re-implementations of the lattice sums at tiny sizes, geometric majorant
series for the fractal families, and the solver-based constants from the
coarse-graining module for the surrogate inequalities.
"""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cge.coarse import ellipticity_constants, sweep
from cge.fields import (
    CantorParams,
    CascadeParams,
    LayeredParams,
    cantor_density,
    gen_cantor_field,
    gen_cascade_field,
    gen_constant,
    gen_laminate,
    gen_random_spd,
    layered_profile,
)
from cge.grid import GridSpec, ScalarGridFunction
from cge.norms import (
    CriterionInput,
    NormParams,
    besov_seminorm,
    dual_sum_norm,
    exponent_margin,
    fractional_seminorm,
    scale_discounted_averages,
    sobolev_criterion_report,
)


def cs(s):
    return 1.0 - 3.0 ** (-s)


# ---------------------------------------------------------------------------
# NormParams
# ---------------------------------------------------------------------------

class TestNormParams:
    def test_conjugates(self):
        assert NormParams(s=0.5, p=2.0).p_conj == 2.0
        assert NormParams(s=0.5, p=4.0).p_conj == pytest.approx(4.0 / 3.0)
        assert NormParams(s=0.5, p=1.0).p_conj == math.inf
        assert NormParams(s=0.5, p=math.inf).p_conj == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"s": 0.0, "p": 2.0},
            {"s": 1.5, "p": 2.0},
            {"s": 0.5, "p": 0.5},
            {"s": 0.5, "p": 2.0, "k_max": 1},
            {"s": 0.5, "p": 2.0, "k_min": 0, "k_max": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            NormParams(**kwargs)


# ---------------------------------------------------------------------------
# Oscillation seminorm
# ---------------------------------------------------------------------------

class TestBesovSeminorm:
    def test_constant_is_zero(self):
        grid = GridSpec(d=2, N=2)
        f = ScalarGridFunction(grid, np.full(grid.cell_shape, 3.7), "cell")
        assert besov_seminorm(f, NormParams(s=0.5, p=2.0)) < 1e-13

    def test_linear_function_closed_form(self):
        # for f = x_1 the whole-domain window dominates at every s, and its
        # oscillation is the variance of the cell-midpoint coordinates
        grid = GridSpec(d=2, N=2)
        f = ScalarGridFunction.from_callable(grid, lambda x, y: x, mode="cell")
        m = grid.cells_per_side
        exact = math.sqrt((m**2 - 1) / 12.0) * grid.h
        values = [besov_seminorm(f, NormParams(s=s, p=2.0)) for s in (0.2, 0.5, 0.8)]
        for v in values:
            assert v == pytest.approx(exact, rel=1e-12)
        # weak monotonicity in s
        assert values[0] >= values[1] >= values[2]

    def test_indicator_brute_force_all_windows(self):
        # independent loop-based evaluation of every window at every scale
        grid = GridSpec(d=2, N=2)
        ind = ScalarGridFunction.from_callable(
            grid, lambda x, y: (x < 0).astype(float), mode="cell"
        )
        vals = ind.data
        s, p = 0.3, 2.0
        brute_terms = {}
        for n in (-1, 0):
            w = 3 ** (grid.N + n)
            stride = 3 ** (grid.N + n - 1)
            sums = []
            for i in range(0, grid.cells_per_side - w + 1, stride):
                for j in range(0, grid.cells_per_side - w + 1, stride):
                    block = vals[i : i + w, j : j + w]
                    sums.append(np.mean(np.abs(block - block.mean()) ** p))
            brute_terms[n] = 3.0 ** (-s * n) * np.mean(sums) ** (1.0 / p)
        for n, expected in brute_terms.items():
            got = besov_seminorm(ind, NormParams(s=s, p=p, k_min=n, k_max=n))
            assert got == pytest.approx(expected, rel=1e-12)
        full = besov_seminorm(ind, NormParams(s=s, p=p))
        assert full == pytest.approx(max(brute_terms.values()), rel=1e-12)
        # the coarsest scale dominates for this jump at moderate s
        assert full == pytest.approx(brute_terms[0], rel=1e-12)

    def test_node_mode_accepted(self):
        grid = GridSpec(d=1, N=2)
        f = ScalarGridFunction.from_callable(grid, lambda x: x**2, mode="node")
        assert besov_seminorm(f, NormParams(s=0.5, p=2.0)) > 0

    def test_infinite_p_rejected(self):
        grid = GridSpec(d=1, N=2)
        f = ScalarGridFunction.from_callable(grid, lambda x: x, mode="cell")
        with pytest.raises(ValueError, match="p < inf"):
            besov_seminorm(f, NormParams(s=0.5, p=math.inf))


# ---------------------------------------------------------------------------
# Partition-lattice dual sum
# ---------------------------------------------------------------------------

class TestDualSumNorm:
    @pytest.mark.parametrize("p_conj", [1.0, 2.0, math.inf])
    def test_constant_closed_form(self, p_conj):
        grid = GridSpec(d=2, N=2)
        f = ScalarGridFunction(grid, np.full(grid.cell_shape, -2.5), "cell")
        for s in (0.3, 0.7, 1.0):
            rep = dual_sum_norm(f, s, p_conj)
            assert rep.total == pytest.approx(2.5 / cs(s), rel=1e-12)

    def test_single_spike_brute_force(self):
        grid = GridSpec(d=1, N=3)
        data = np.zeros(27)
        data[5] = 1.0
        f = ScalarGridFunction(grid, data, "cell")
        s = 0.5
        rep = dual_sum_norm(f, s, math.inf)
        terms = {}
        for level in range(-3, 1):
            w = 3 ** (3 + level)
            terms[level] = max(
                abs(data[i * w : (i + 1) * w].mean()) for i in range(27 // w)
            )
        brute = sum(3.0 ** (s * k) * v for k, v in terms.items())
        brute += terms[-3] * 3.0 ** (-s * 4) / (1 - 3.0 ** (-s))
        assert rep.total == pytest.approx(brute, rel=1e-13)
        assert rep.per_scale == pytest.approx(terms)

    def test_homogeneity_and_triangle(self):
        grid = GridSpec(d=2, N=2)
        rng = np.random.default_rng(3)
        for p_conj in (1.0, 2.0, math.inf):
            for _ in range(5):
                a = ScalarGridFunction(grid, rng.normal(size=grid.cell_shape), "cell")
                b = ScalarGridFunction(grid, rng.normal(size=grid.cell_shape), "cell")
                ab = ScalarGridFunction(grid, a.data + b.data, "cell")
                scaled = ScalarGridFunction(grid, -3.0 * a.data, "cell")
                na, nb = dual_sum_norm(a, 0.4, p_conj), dual_sum_norm(b, 0.4, p_conj)
                assert dual_sum_norm(scaled, 0.4, p_conj).total == pytest.approx(
                    3.0 * na.total, rel=1e-12
                )
                assert dual_sum_norm(ab, 0.4, p_conj).total <= na.total + nb.total + 1e-12

    def test_validation(self):
        grid = GridSpec(d=1, N=1)
        f = ScalarGridFunction(grid, np.ones(3), "cell")
        with pytest.raises(ValueError, match="s must"):
            dual_sum_norm(f, 0.0)
        with pytest.raises(ValueError, match="p_conj"):
            dual_sum_norm(f, 0.5, 0.5)

    @pytest.mark.parametrize("p_conj", [math.nan, -math.inf, 0.5])
    def test_p_conj_outside_its_range_is_rejected(self, p_conj):
        f = ScalarGridFunction(GridSpec(d=1, N=1), np.ones(3), "cell")
        with pytest.raises(ValueError, match=r"^p_conj must lie in \[1, inf\], got "):
            dual_sum_norm(f, 0.5, p_conj)

    def test_layered_per_scale_maxima_geometric_growth(self):
        # per-scale maxima of the spike profile grow at most like 3**k with a
        # constant fitted on the first few scales
        grid = GridSpec(d=1, N=11)
        prof = layered_profile(grid, LayeredParams(alpha=0.5, k_max=3))
        rep = dual_sum_norm(prof, 0.5, math.inf)
        ratios = {-k: rep.per_scale[-k] / 3.0**k for k in range(1, grid.N + 1)}
        c_fit = max(ratios[-k] for k in (1, 2, 3))
        assert c_fit < 1.2
        for level, ratio in ratios.items():
            assert ratio <= c_fit * (1 + 1e-12), f"level {level}"

    def test_cantor_density_bounded_above_exponent_threshold(self):
        # the raw density averages grow like (9/4)**k per scale, so the sum
        # is uniformly bounded in the generation once 3**s beats 9/4
        s = 0.8
        assert 3.0**s > 9.0 / 4.0
        majorant = sum(3.0 ** (-s * m) * (9.0 / 4.0) ** m for m in range(400))
        majorant += 3.0 ** (-s * 400) / (1 - 3.0 ** (-s)) * (9.0 / 4.0) ** 400
        for n in (2, 3, 4):
            grid = GridSpec(d=2, N=n)
            rep = dual_sum_norm(cantor_density(grid, CantorParams(n=n)), s, math.inf)
            assert rep.total <= majorant
            # per-scale maxima follow the self-similar law exactly
            for level in range(-n, 1):
                assert rep.per_scale[level] == pytest.approx(
                    (9.0 / 4.0) ** (-level), rel=1e-12
                )


# ---------------------------------------------------------------------------
# Scale-discounted averages (solve-free surrogates)
# ---------------------------------------------------------------------------

#: The fixed fields at small sizes: random SPD (contrast 1e4) in 2D and 3D,
#: cascade, Cantor and a 1/100 laminate.
FIXED_FIELDS = {
    "random-2d": lambda: gen_random_spd(GridSpec(2, 3), seed=1, eig_low=1e-2, eig_high=1e2),
    "random-3d": lambda: gen_random_spd(GridSpec(3, 2), seed=1, eig_low=1e-2, eig_high=1e2),
    "cascade": lambda: gen_cascade_field(GridSpec(2, 3), CascadeParams(0.5, 3, 1)),
    "cantor": lambda: gen_cantor_field(GridSpec(2, 3), CantorParams(3)),
    "laminate": lambda: gen_laminate(GridSpec(2, 3), 0, (1.0, 100.0)),
}

#: The surrogate fields: five seeded random fields (named by seed) and the
#: fixed fields.
SURROGATE_FIELDS = {
    **{str(seed): (lambda seed=seed: gen_random_spd(GridSpec(2, 2), seed=seed,
                                                    eig_low=1e-2, eig_high=1e2))
       for seed in range(5)},
    **FIXED_FIELDS,
}


@pytest.fixture(scope="module")
def swept():
    """``swept(name)``: a surrogate field and its sweep, made once a module."""
    made = {}

    def get(name):
        if name not in made:
            field = SURROGATE_FIELDS[name]()
            made[name] = field, sweep(field)
        return made[name]

    return get


class TestScaleDiscountedAverages:
    def test_identity(self):
        grid = GridSpec(d=2, N=2)
        field = gen_constant(grid, np.eye(2))
        for s in (0.25, 0.5, 0.75):
            rep = scale_discounted_averages(field, s, "a")
            assert rep.total == pytest.approx(1.0, rel=1e-12)
            assert rep.per_scale == {k: 1.0 for k in range(-2, 1)}

    def test_anisotropic_constant(self):
        grid = GridSpec(d=2, N=1)
        field = gen_constant(grid, np.diag([1.0, 9.0]))
        rep = scale_discounted_averages(field, 0.4, "a")
        assert rep.total == pytest.approx(9.0, rel=1e-12)
        rep_inv = scale_discounted_averages(field, 0.4, "a_inv")
        assert rep_inv.total == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("name", sorted(SURROGATE_FIELDS))
    def test_dominates_solver_constants(self, swept, name):
        field, result = swept(name)
        for s in (0.3, 0.6):
            rep = ellipticity_constants(result, s, s)
            up = scale_discounted_averages(field, s, "a").total
            lo = scale_discounted_averages(field, s, "a_inv").total
            # sharp on the upper side: cube averages are the flux matrices
            assert up == rep.lambda_upper
            assert lo >= 1.0 / rep.lambda_lower - 1e-7
            assert up * lo >= rep.theta * (1 - 1e-7)

    @pytest.mark.parametrize("s", [0.15, 0.45, 0.9])
    @pytest.mark.parametrize("name", sorted(FIXED_FIELDS))
    def test_upper_surrogate_is_the_solved_upper_constant(self, swept, name, s):
        # the sweep's upper matrix is the cube average, and one reduction
        # turns the norms of either into the constant: equal to the last bit
        field, result = swept(name)
        rep = ellipticity_constants(result, s, s)
        surrogate = scale_discounted_averages(field, s, "a")
        assert surrogate.total == rep.lambda_upper
        assert surrogate.per_scale == rep.per_scale_upper
        assert surrogate.tail == rep.tail_upper

    def test_cantor_family_bounded_with_sqrt_threshold(self):
        # the field 1 + density enters through sqrt(norm), which halves the
        # exponent threshold; just above it the family stays below the
        # closed-form majorant series uniformly in the generation
        s = 0.55
        d_minus_alpha = 2.0 - math.log(4.0) / math.log(3.0)
        assert d_minus_alpha / 2 < s < d_minus_alpha
        maj = sum(
            3.0 ** (-s * m) * math.sqrt(1.0 + (9.0 / 4.0) ** m) for m in range(400)
        )
        majorant = (cs(s) * (maj + 3.0 ** (-s * 400) / cs(s))) ** 2 * 1.01
        totals = []
        for n in (2, 3, 4):
            grid = GridSpec(d=2, N=n)
            field = gen_cantor_field(grid, CantorParams(n=n))
            totals.append(scale_discounted_averages(field, s, "a").total)
            assert totals[-1] <= majorant
        # approaching its limit: increments shrink
        assert totals[2] - totals[1] < totals[1] - totals[0]

    def test_validation(self):
        grid = GridSpec(d=2, N=1)
        field = gen_constant(grid, np.eye(2))
        with pytest.raises(ValueError, match="s must"):
            scale_discounted_averages(field, 1.0, "a")
        with pytest.raises(ValueError, match="component"):
            scale_discounted_averages(field, 0.5, "inverse")

    def test_report_serializes(self):
        grid = GridSpec(d=2, N=1)
        rep = scale_discounted_averages(gen_constant(grid, np.eye(2)), 0.5, "a")
        doc = json.loads(json.dumps(rep.to_dict()))
        assert doc["component"] == "a"
        assert set(doc["per_scale"]) == {"-1", "0"}


# ---------------------------------------------------------------------------
# Gagliardo double sum
# ---------------------------------------------------------------------------

class TestFractionalSeminorm:
    def test_constant_zero_and_shift_invariance(self):
        grid = GridSpec(d=1, N=2)
        c = ScalarGridFunction(grid, np.full(9, 4.0), "cell")
        assert fractional_seminorm(c, 0.5, 2.0) == 0.0
        f = ScalarGridFunction.from_callable(grid, lambda x: np.sin(3 * x), mode="cell")
        g = ScalarGridFunction(grid, f.data + 11.0, "cell")
        assert fractional_seminorm(f, 0.5, 2.0) == pytest.approx(
            fractional_seminorm(g, 0.5, 2.0), rel=1e-12
        )

    def test_smooth_function_refinement_consistency(self):
        vals = {}
        for N in (3, 4):
            grid = GridSpec(d=1, N=N)
            f = ScalarGridFunction.from_callable(grid, lambda x: x * x, mode="cell")
            vals[N] = fractional_seminorm(f, 0.4, 2.0)
        assert vals[4] == pytest.approx(vals[3], rel=0.05)

    def test_indicator_divergence_regimes(self):
        # s*p >= 1: the jump is not in the space, the quadrature value keeps
        # climbing under refinement; s*p < 1: increments shrink
        div, conv = [], []
        for N in (2, 3, 4):
            grid = GridSpec(d=1, N=N)
            m = grid.cells_per_side
            ind = ScalarGridFunction(grid, (np.arange(m) < m // 2).astype(float), "cell")
            div.append(fractional_seminorm(ind, 0.6, 2.0))
            conv.append(fractional_seminorm(ind, 0.3, 2.0))
        assert div[1] - div[0] > 0.5 and div[2] - div[1] > 0.5
        assert conv[2] - conv[1] < 0.75 * (conv[1] - conv[0])

    def test_pair_budget_guard(self):
        grid = GridSpec(d=2, N=3)
        f = ScalarGridFunction(grid, np.zeros(grid.cell_shape), "cell")
        fractional_seminorm(f, 0.5, 2.0)  # 729 cells: fine
        big = GridSpec(d=1, N=11)
        g = ScalarGridFunction(big, np.zeros(big.cell_shape), "cell")
        with pytest.raises(ValueError, match="budget"):
            fractional_seminorm(g, 0.5, 2.0)

    def test_validation(self):
        grid = GridSpec(d=1, N=1)
        f = ScalarGridFunction(grid, np.zeros(3), "cell")
        with pytest.raises(ValueError, match="s must"):
            fractional_seminorm(f, 1.0, 2.0)
        with pytest.raises(ValueError, match="p must"):
            fractional_seminorm(f, 0.5, math.inf)


# ---------------------------------------------------------------------------
# Exponent criterion
# ---------------------------------------------------------------------------

class TestCriterion:
    def test_margin_arithmetic(self):
        assert exponent_margin(2, CriterionInput(p=4.0, q=4.0)) == pytest.approx(0.5)
        assert exponent_margin(4, CriterionInput(p=4.0, q=4.0)) == pytest.approx(0.0)
        assert exponent_margin(2, CriterionInput(p=math.inf, q=math.inf)) == 1.0
        assert exponent_margin(
            2, CriterionInput(p=4.0, q=4.0, alpha=0.5, beta=0.25)
        ) == pytest.approx(0.5 - 0.375)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="p must"):
            CriterionInput(p=1.0, q=4.0)
        with pytest.raises(ValueError, match="alpha must lie"):
            CriterionInput(p=4.0, q=4.0, alpha=1.0)
        with pytest.raises(ValueError, match="below 1 - 1/p"):
            CriterionInput(p=2.0, q=4.0, alpha=0.5)
        with pytest.raises(ValueError, match="below 1 - 1/q"):
            CriterionInput(p=4.0, q=2.0, beta=0.6)

    def test_failing_margin_is_result_not_error(self):
        grid = GridSpec(d=2, N=1)
        field = gen_constant(grid, np.eye(2))
        rep = sobolev_criterion_report(field, CriterionInput(p=2.0, q=2.0))
        assert rep.sigma_tilde == pytest.approx(0.0)
        assert not rep.satisfied
        assert rep.s is None and rep.theta_upper is None

    def test_passing_report_structure_and_bounds(self):
        grid = GridSpec(d=2, N=2)
        field = gen_constant(grid, np.diag([1.0, 16.0]))
        inp = CriterionInput(p=4.0, q=4.0)
        result = sweep(field)
        rep = sobolev_criterion_report(field, inp, sweep_result=result)
        assert rep.satisfied and rep.sigma_tilde == pytest.approx(0.5)
        assert rep.s + rep.t == pytest.approx(1.0 - rep.sigma_tilde / 2.0)
        assert rep.sigma1 == rep.sigma2 == pytest.approx(rep.sigma_tilde / 4.0)
        assert rep.surrogate_product == pytest.approx(16.0, rel=1e-10)
        assert rep.theta_solver == pytest.approx(16.0, rel=1e-8)
        assert rep.theta_upper >= rep.surrogate_product >= rep.theta_solver * (1 - 1e-9)
        assert rep.warnings == []

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_fields_bound_chain(self, seed):
        grid = GridSpec(d=2, N=2)
        field = gen_random_spd(grid, seed=seed, eig_low=0.1, eig_high=10.0)
        result = sweep(field)
        rep = sobolev_criterion_report(
            field, CriterionInput(p=6.0, q=6.0), sweep_result=result
        )
        assert rep.theta_upper >= rep.surrogate_product
        assert rep.surrogate_product >= rep.theta_solver * (1 - 1e-7)
        assert rep.theta_solver >= 1.0

    def test_dual_constant_warning_region(self):
        grid = GridSpec(d=2, N=1)
        field = gen_constant(grid, np.eye(2))
        rep = sobolev_criterion_report(field, CriterionInput(p=1.5, q=math.inf))
        assert rep.satisfied
        assert any("s*p'" in w for w in rep.warnings)

    def test_to_dict_json(self):
        grid = GridSpec(d=2, N=1)
        field = gen_constant(grid, np.eye(2))
        rep = sobolev_criterion_report(field, CriterionInput(p=math.inf, q=math.inf))
        doc = json.loads(json.dumps(rep.to_dict()))
        assert doc["p"] is None  # infinity encoded as null
        assert doc["satisfied"] is True
        assert doc["sigma_tilde"] == 1.0