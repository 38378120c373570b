"""Discrete multiscale integrability norms and the exponent-margin criterion.

Three families of reductions over the triadic hierarchy:

* ``besov_seminorm`` — sup over scales of weighted local oscillation means,
  computed over the overlapping half-lattice of window placements;
* ``dual_sum_norm`` / ``scale_discounted_averages`` — weighted sums over the
  partition lattice of local averages (of a scalar field, respectively of the
  norms of a matrix field's cube averages).  These are the computable
  surrogates for negative-regularity dual norms: no supremum over a unit ball
  is ever taken, the sums themselves are what the ellipticity constants
  consume.  Below the grid scale every cube average equals the cell value, so
  the infinite series ends in an exact closed-form tail;
* ``fractional_seminorm`` — brute-force double-sum Gagliardo seminorm at cell
  midpoints, for refinement-trend diagnostics only.

``sobolev_criterion_report`` evaluates the integrability criterion: the
exponent margin must be positive for a field whose norm and inverse-norm are
controlled in the given exponent classes to be effectively elliptic, and the
report carries the resulting bound on the ellipticity ratio next to the
solver-based value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from numpy.lib.stride_tricks import sliding_window_view

import numpy as np

from .grid import CoefficientField, ScalarGridFunction, block_reduce, sym_norm
from .coarse import SweepResult, ellipticity_constants

__all__ = [
    "NormParams",
    "CriterionInput",
    "CriterionReport",
    "DualSumReport",
    "ScaleDiscountReport",
    "besov_seminorm",
    "dual_sum_norm",
    "scale_discounted_averages",
    "fractional_seminorm",
    "exponent_margin",
    "sobolev_criterion_report",
]


def _conjugate(p: float) -> float:
    if p == 1:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


@dataclass(frozen=True)
class NormParams:
    """Exponents and scale range for the oscillation seminorm."""

    s: float
    p: float
    k_min: int | None = None
    k_max: int = 0

    def __post_init__(self) -> None:
        if not (0.0 < self.s <= 1.0):
            raise ValueError(f"s must lie in (0, 1], got {self.s}")
        if not (1.0 <= self.p):
            raise ValueError(f"p must lie in [1, inf], got {self.p}")
        if self.k_max > 0:
            raise ValueError("scales are sub-domain: k_max <= 0")
        if self.k_min is not None and self.k_min > self.k_max:
            raise ValueError("k_min must not exceed k_max")

    @property
    def p_conj(self) -> float:
        return _conjugate(self.p)


def _cell_values(f: ScalarGridFunction) -> np.ndarray:
    return f.data if f.mode == "cell" else f.cell_values()


def besov_seminorm(f: ScalarGridFunction, params: NormParams) -> float:
    """Sup over scales of weighted mean local oscillation.

    For each scale ``n`` the window of side ``3**n`` slides over the
    overlapping half-lattice (stride ``3**(n-1)``, so adjacent windows share
    two thirds of their extent); the ``p``-th power oscillation around the
    window mean is averaged over the window, over all placements, and the
    scale's term is ``3**(-s*n)`` times the ``1/p`` power.  Scales finer than
    the grid step are not representable and are excluded.
    """
    if math.isinf(params.p):
        raise ValueError("the oscillation seminorm requires p < inf")
    grid = f.grid
    vals = _cell_values(f)
    n_lo = 1 - grid.N if params.k_min is None else max(params.k_min, 1 - grid.N)
    best = 0.0
    for n in range(n_lo, params.k_max + 1):
        w = 3 ** (grid.N + n)
        stride = 3 ** (grid.N + n - 1)
        windows = sliding_window_view(vals, (w,) * grid.d)
        windows = windows[(slice(None, None, stride),) * grid.d]
        mean = windows.mean(axis=tuple(range(-grid.d, 0)), keepdims=True)
        osc = np.abs(windows - mean) ** params.p
        term = 3.0 ** (-params.s * n) * float(osc.mean()) ** (1.0 / params.p)
        best = max(best, term)
    return best


@dataclass
class DualSumReport:
    """Weighted sum over partition-lattice averages, with its breakdown."""

    total: float
    per_scale: dict[int, float]
    tail: float
    s: float
    p_conj: float

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "per_scale": {str(k): v for k, v in self.per_scale.items()},
            "tail": self.tail,
            "s": self.s,
            "p_conj": None if math.isinf(self.p_conj) else self.p_conj,
        }


def dual_sum_norm(f: ScalarGridFunction, s: float, p_conj: float = math.inf) -> DualSumReport:
    """Scale-weighted sum of partition-cube average magnitudes.

    ``sum_k 3**(s*k) * T_k`` where ``T_k`` aggregates ``|average over cube|``
    over the level-``k`` partition with the ``p_conj`` mean (maximum when
    ``p_conj`` is infinite).  Below the grid scale every average equals a cell
    value, so those terms repeat the cell-level aggregate and are summed in
    closed form.
    """
    if not (0.0 < s <= 1.0):
        raise ValueError(f"s must lie in (0, 1], got {s}")
    if p_conj < 1.0:
        raise ValueError(f"p_conj must lie in [1, inf], got {p_conj}")
    grid = f.grid
    vals = _cell_values(f)
    per_scale: dict[int, float] = {}
    for level in range(-grid.N, 1):
        means = np.abs(block_reduce(vals, grid.d, 3 ** (grid.N + level)))
        if math.isinf(p_conj):
            per_scale[level] = float(means.max())
        else:
            per_scale[level] = float((means**p_conj).mean()) ** (1.0 / p_conj)
    tail = per_scale[-grid.N] * 3.0 ** (-s * (grid.N + 1)) / (1.0 - 3.0 ** (-s))
    total = sum(3.0 ** (s * k) * per_scale[k] for k in sorted(per_scale)) + tail
    return DualSumReport(total=total, per_scale=per_scale, tail=tail, s=s, p_conj=p_conj)


@dataclass
class ScaleDiscountReport:
    """Solve-free upper surrogate for a scale-weighted ellipticity constant."""

    total: float
    per_scale: dict[int, float]  # level -> max_z sqrt(norm(average matrix))
    tail: float
    s: float
    component: str
    c_s: float

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "per_scale": {str(k): v for k, v in self.per_scale.items()},
            "tail": self.tail,
            "s": self.s,
            "component": self.component,
            "c_s": self.c_s,
        }


def scale_discounted_averages(
    field: CoefficientField, s: float, component: str = "a"
) -> ScaleDiscountReport:
    """Squared weighted sum of per-scale maxima of cube-average norms.

    With ``component="a"`` this upper-bounds the solver-based upper
    ellipticity constant (cube averages dominate the sharp effective
    matrices); with ``component="a_inv"`` it upper-bounds the reciprocal of
    the lower one.  No variational problem is solved.
    """
    if not (0.0 < s < 1.0):
        raise ValueError(f"s must lie in (0, 1), got {s}")
    if component not in ("a", "a_inv"):
        raise ValueError(f"component must be 'a' or 'a_inv', got {component!r}")
    grid = field.grid
    data = field.data if component == "a" else field.inv_data
    per_scale: dict[int, float] = {}
    for level in range(-grid.N, 1):
        means = block_reduce(data, grid.d, 3 ** (grid.N + level))
        per_scale[level] = math.sqrt(float(sym_norm(means, grid.d).max()))
    c_s = 1.0 - 3.0 ** (-s)
    tail_term = per_scale[-grid.N] * 3.0 ** (-s * (grid.N + 1)) / (1.0 - 3.0 ** (-s))
    acc = sum(3.0 ** (s * k) * per_scale[k] for k in sorted(per_scale))
    total = (c_s * (acc + tail_term)) ** 2
    return ScaleDiscountReport(
        total=total,
        per_scale=per_scale,
        tail=c_s * tail_term,
        s=s,
        component=component,
        c_s=c_s,
    )


def fractional_seminorm(f: ScalarGridFunction, s: float, p: float) -> float:
    """Gagliardo seminorm by brute-force double sum at cell midpoints.

    Outer integral volume-normalized, inner plain; the diagonal is excluded.
    Midpoint quadrature of a singular kernel: only refinement trends are
    trustworthy, never absolute values.
    """
    if not (0.0 < s < 1.0):
        raise ValueError(f"s must lie in (0, 1), got {s}")
    if not (1.0 <= p < math.inf):
        raise ValueError(f"p must lie in [1, inf), got {p}")
    grid = f.grid
    if grid.n_cells > 3**10:
        raise ValueError(
            f"pairwise sum over {grid.n_cells} cells exceeds the 3**10 budget"
        )
    vals = _cell_values(f).ravel()
    mesh = grid.cell_center_mesh()
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    n = vals.size
    hvol = grid.h**grid.d
    kernel_pow = grid.d + s * p
    chunk = max(1, int(2**24 // n))
    acc = 0.0
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        diff = pts[start:stop, None, :] - pts[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=-1))
        idx = np.arange(start, stop)
        dist[idx - start, idx] = np.inf  # exclude the diagonal
        acc += float(
            (np.abs(vals[start:stop, None] - vals[None, :]) ** p / dist**kernel_pow).sum()
        )
    return (acc * hvol / n) ** (1.0 / p)


# ---------------------------------------------------------------------------
# Exponent-margin criterion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CriterionInput:
    """Integrability exponents and regularities of the two matrix components.

    ``p`` (with regularity ``alpha``) measures the field itself, ``q`` (with
    ``beta``) its cellwise inverse.  Infinite exponents mean plain uniform
    bounds.
    """

    p: float
    q: float
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self) -> None:
        for name, v in (("p", self.p), ("q", self.q)):
            if not v > 1.0:
                raise ValueError(f"{name} must lie in (1, inf], got {v}")
        for name, v in (("alpha", self.alpha), ("beta", self.beta)):
            if not (0.0 <= v < 1.0):
                raise ValueError(f"{name} must lie in [0, 1), got {v}")
        if self.alpha >= 1.0 - 1.0 / self.p:
            raise ValueError("alpha must be below 1 - 1/p")
        if self.beta >= 1.0 - 1.0 / self.q:
            raise ValueError("beta must be below 1 - 1/q")


def exponent_margin(d: int, inp: CriterionInput) -> float:
    """The criterion margin: positive iff the exponents admit ellipticity."""
    return 1.0 - (d / 2.0) * (1.0 / inp.p + 1.0 / inp.q) - (inp.alpha + inp.beta) / 2.0


@dataclass
class CriterionReport:
    """Outcome of the exponent criterion for one field."""

    d: int
    input: CriterionInput
    sigma_tilde: float
    satisfied: bool
    s: float | None = None
    t: float | None = None
    sigma1: float | None = None
    sigma2: float | None = None
    surrogate_upper: float | None = None
    surrogate_lower: float | None = None
    surrogate_product: float | None = None
    theta_upper: float | None = None
    theta_solver: float | None = None
    warnings: list[str] = dataclass_field(default_factory=list)

    def to_dict(self) -> dict:
        def enc(v):
            if v is None or isinstance(v, (bool, int, str, list)):
                return v
            return None if math.isinf(v) else float(v)

        return {
            "d": self.d,
            "p": enc(self.input.p),
            "q": enc(self.input.q),
            "alpha": self.input.alpha,
            "beta": self.input.beta,
            "sigma_tilde": self.sigma_tilde,
            "satisfied": self.satisfied,
            "s": self.s,
            "t": self.t,
            "sigma1": self.sigma1,
            "sigma2": self.sigma2,
            "surrogate_upper": self.surrogate_upper,
            "surrogate_lower": self.surrogate_lower,
            "surrogate_product": self.surrogate_product,
            "theta_upper": self.theta_upper,
            "theta_solver": self.theta_solver,
            "warnings": list(self.warnings),
        }


def sobolev_criterion_report(
    field: CoefficientField,
    inp: CriterionInput,
    sweep_result: SweepResult | None = None,
) -> CriterionReport:
    """Evaluate the exponent criterion and bound the ellipticity ratio.

    When the margin is positive the exponent budget is split evenly between
    the two components, with half the margin kept as breathing room on each
    side; the scale-discounted averages then give a solve-free upper bound on
    the ellipticity ratio at the split exponents.  A non-positive margin is a
    criterion-fails result, not an error.
    """
    d = field.d
    sigma_tilde = exponent_margin(d, inp)
    if sigma_tilde <= 0.0:
        return CriterionReport(d=d, input=inp, sigma_tilde=sigma_tilde, satisfied=False)

    m = sigma_tilde / 2.0
    s = inp.alpha / 2.0 + d / (2.0 * inp.p) + m / 2.0
    t = inp.beta / 2.0 + d / (2.0 * inp.q) + m / 2.0
    sigma1 = sigma2 = m / 2.0

    warnings = []
    p_conj = _conjugate(inp.p)
    q_conj = _conjugate(inp.q)
    if s * p_conj >= 1.0:
        warnings.append(
            f"s*p' = {s * p_conj:.4g} >= 1: the dual-norm comparison constant "
            "is not finite in this exponent region; the surrogate bound is still valid"
        )
    if t * q_conj >= 1.0:
        warnings.append(
            f"t*q' = {t * q_conj:.4g} >= 1: the dual-norm comparison constant "
            "is not finite in this exponent region; the surrogate bound is still valid"
        )

    upper = scale_discounted_averages(field, s, "a")
    lower = scale_discounted_averages(field, t, "a_inv")
    c_s = 1.0 - 3.0 ** (-s)
    c_t = 1.0 - 3.0 ** (-t)
    c_s1 = 1.0 - 3.0 ** (-sigma1)
    c_s2 = 1.0 - 3.0 ** (-sigma2)
    theta_upper = (c_s**2 * c_t**2) / (c_s1**2 * c_s2**2) * upper.total * lower.total

    theta_solver = None
    if sweep_result is not None:
        theta_solver = ellipticity_constants(sweep_result, s, t).theta

    return CriterionReport(
        d=d,
        input=inp,
        sigma_tilde=sigma_tilde,
        satisfied=True,
        s=s,
        t=t,
        sigma1=sigma1,
        sigma2=sigma2,
        surrogate_upper=upper.total,
        surrogate_lower=lower.total,
        surrogate_product=upper.total * lower.total,
        theta_upper=theta_upper,
        theta_solver=theta_solver,
        warnings=warnings,
    )