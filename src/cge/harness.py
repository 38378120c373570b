"""Oscillation experiments and diagnostics for solved elliptic problems.

Runs controlled numerical experiments measuring how strongly a solution of
``-div(a grad u) = 0`` oscillates relative to the multiscale ellipticity
ratio of its coefficient field:

* :func:`harnack_experiment` — two-sided oscillation of a positive solution
  (sup/inf over centered subcubes) against a calibrated multiple of
  ``t**-1 * theta**0.5``;
* :func:`local_boundedness_experiment` — one-sided bound for sign-changing
  solutions (interior sup against the positive-part L2 norm) against a
  calibrated multiple of ``theta**(d/(4*sigma))``;
* :func:`reverse_holder_diagnostic`, :func:`log_caccioppoli_diagnostic`,
  :func:`sobolev_poincare_diagnostic` — scalar quotients whose finiteness
  and stability the test-suite tracks against frozen baselines;
* :func:`sharpness_sweep` — log-oscillation of exact anisotropic solutions
  as a function of the coefficient contrast, with a least-squares slope.

The experiments solve with :func:`~cge.solver.solve_dirichlet`, the
cell-centered scheme, whose discrete maximum principle (``min b <= u <= max
b`` for boundary data ``b``) makes positivity of solutions a checkable
guarantee rather than an assumption; both oscillation experiments check it
on both sides and record the slack. The scheme takes diagonal coefficients
only, so a full-matrix field is a ``ValueError``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .coarse import SweepResult, ellipticity_constants
from .fields import gen_constant
from .grid import (
    CoefficientField,
    GridSpec,
    TriadicCube,
    subcube_cell_slices,
)
from .norms import scale_discounted_averages
from .solver import CubeFunction, SolverError, boundary_face_values, energy, solve_dirichlet

__all__ = [
    "SUBCUBE_FRACTIONS",
    "HARNACK_CALIBRATION",
    "LOCAL_BOUND_CALIBRATION",
    "MAX_PRINCIPLE_RTOL",
    "MaxPrincipleViolation",
    "ExperimentRecord",
    "SharpnessReport",
    "harnack_experiment",
    "local_boundedness_experiment",
    "reverse_holder_diagnostic",
    "log_caccioppoli_diagnostic",
    "sobolev_poincare_diagnostic",
    "sharpness_boundary",
    "sharpness_sweep",
]

#: Centered subcube side fractions over which sup/inf are recorded.
SUBCUBE_FRACTIONS = (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2))

# Calibration constants fitted once on the uniformly elliptic baseline
# suite (identity coefficient with affine data; diag(1, L) with exact
# exponential-times-cosine solutions, L up to 64) and frozen with ~25%
# headroom.  The baselines are pinned in the test-suite; regenerating
# them yields max ratio/threshold quotients of 0.0565 (two-sided) and
# 1.230 (one-sided).
HARNACK_CALIBRATION = 0.0706
LOCAL_BOUND_CALIBRATION = 1.54


#: How far, relative to ``max|b|``, a solution may leave the range of its
#: boundary data ``b`` before the maximum principle counts as broken. The
#: solutions of the benchmarked experiments sit inside by at least 4.9e-6,
#: and constant data overshoots by rounding only (4.3e-13 at contrast 1e4).
MAX_PRINCIPLE_RTOL = 1e-10


class MaxPrincipleViolation(RuntimeError):
    """A solved field left the range of its boundary data."""


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentRecord:
    """One solved experiment: oscillation statistics and pass/fail verdict.

    ``sup_by_fraction`` / ``inf_by_fraction`` hold extremes of the solution
    over the snapped centered subcubes keyed by the fraction as a string
    (e.g. ``"1/8"``).  ``harnack_log_ratio`` (two-sided runs) is
    ``log(sup/inf)`` on the smallest recorded subcube; ``lb_ratio``
    (one-sided runs) is ``sup over (1/2)-subcube / ||u_+||_L2``; ``ratio``
    is whichever of the two the run measured.  ``p_star``
    and the ``diagnostics`` moments are reported for inspection only and
    never asserted.
    """

    kind: str
    field_descriptor: str
    field_hash: str
    boundary_descriptor: str
    s: float
    t: float
    sigma: float
    theta: float
    theta_method: str
    sup_by_fraction: dict[str, float]
    inf_by_fraction: dict[str, float]
    u_plus_l2: float
    harnack_log_ratio: float | None
    lb_ratio: float | None
    threshold: float
    passed: bool
    p_star: float
    diagnostics: dict[str, float] = dataclass_field(default_factory=dict)
    solver: dict[str, object] = dataclass_field(default_factory=dict)

    @property
    def ratio(self) -> float:
        """The measured ratio that ``threshold`` bounds, of either kind."""
        return self.harnack_log_ratio if self.harnack_log_ratio is not None else self.lb_ratio

    def to_dict(self) -> dict:
        """JSON-ready dictionary (plain floats, string keys)."""
        return {
            "kind": self.kind,
            "field_descriptor": self.field_descriptor,
            "field_hash": self.field_hash,
            "boundary_descriptor": self.boundary_descriptor,
            "s": self.s,
            "t": self.t,
            "sigma": self.sigma,
            "theta": self.theta,
            "theta_method": self.theta_method,
            "sup_by_fraction": dict(self.sup_by_fraction),
            "inf_by_fraction": dict(self.inf_by_fraction),
            "u_plus_l2": self.u_plus_l2,
            "harnack_log_ratio": self.harnack_log_ratio,
            "lb_ratio": self.lb_ratio,
            "threshold": self.threshold,
            "passed": self.passed,
            "p_star": self.p_star,
            "diagnostics": dict(self.diagnostics),
            "solver": dict(self.solver),
        }


@dataclass(frozen=True)
class SharpnessReport:
    """Contrast sweep: per-contrast log-oscillations and their fitted line.

    ``slope``/``intercept`` are the least-squares fit of
    ``harnack_log_ratio`` against ``sqrt(contrast)``; they are ``None``
    when fewer than two contrasts solved successfully.  Failed contrasts
    are recorded in ``failures`` and the sweep is returned partially.
    """

    lambdas: tuple[float, ...]
    log_ratios: tuple[float, ...]
    slope: float | None
    intercept: float | None
    records: tuple[ExperimentRecord, ...]
    failures: tuple[dict, ...]

    def to_dict(self) -> dict:
        return {
            "lambdas": list(self.lambdas),
            "log_ratios": list(self.log_ratios),
            "slope": self.slope,
            "intercept": self.intercept,
            "records": [r.to_dict() for r in self.records],
            "failures": [dict(f) for f in self.failures],
        }


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

def _full_domain(d: int) -> TriadicCube:
    return TriadicCube(0, (0,) * d)


def _check_exponents(s: float, t: float) -> float:
    if not (0 < s < 1 and 0 < t < 1):
        raise ValueError("exponents must lie in (0, 1)")
    sigma = 1.0 - s - t
    if sigma <= 0:
        raise ValueError(f"exponents must satisfy s + t < 1, got s + t = {s + t}")
    return sigma


def _boundary_face_values(grid: GridSpec, boundary: Callable) -> np.ndarray:
    """The full-domain boundary data the cell-centered solve uses, flattened."""
    faces = boundary_face_values(grid, _full_domain(grid.d), boundary)
    return np.concatenate([g.ravel() for g in faces])


def _finite_positive(name: str, value: float) -> float:
    """``value`` as a float; a :class:`ValueError` naming ``name`` unless it
    is finite and positive (NaN included)."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
    return float(value)


def _resolve_theta(
    field: CoefficientField,
    s: float,
    t: float,
    sweep_result: SweepResult | None,
    theta: float | None,
) -> tuple[float, str]:
    """Ellipticity ratio from an explicit value, a sweep, or upper surrogates.

    The surrogate route multiplies the scale-discounted averages of ``a``
    and its inverse. Its upper factor is the solved upper constant on every
    field (both reduce the cube averages' norms the same way), and its lower
    factor bounds the solved one, so it dominates the solved ratio:
    thresholds derived from it are looser, never tighter. A given ratio must
    be finite and positive: the thresholds take its square root and divide
    by it.
    """
    if theta is not None:
        return _finite_positive("theta", theta), "given"
    if sweep_result is not None:
        report = ellipticity_constants(sweep_result, s, t)
        return float(report.theta), "sweep"
    upper = scale_discounted_averages(field, s, "a").total
    lower = scale_discounted_averages(field, t, "a_inv").total
    return float(upper * lower), "surrogate"


def _region_values(u: CubeFunction, rho: Fraction) -> np.ndarray:
    """Cell values of a full-domain cell function on a snapped subcube."""
    if u.cube.level != 0:
        raise ValueError("oscillation statistics require a full-domain solution")
    return u.data[subcube_cell_slices(u.grid, rho)]


def _extremes(u: CubeFunction) -> tuple[dict[str, float], dict[str, float]]:
    sups: dict[str, float] = {}
    infs: dict[str, float] = {}
    for frac in SUBCUBE_FRACTIONS:
        vals = _region_values(u, frac)
        sups[str(frac)] = float(vals.max())
        infs[str(frac)] = float(vals.min())
    return sups, infs


def _max_principle_slack(u: CubeFunction, bvals: np.ndarray) -> float:
    """Signed slack of the discrete maximum principle ``min b <= u <= max b``,
    relative to ``max|b|``: the smaller distance of ``u``'s extremes inside
    the boundary range, negative outside it.

    Raises :class:`MaxPrincipleViolation` when ``u`` leaves the range by
    more than :data:`MAX_PRINCIPLE_RTOL`.
    """
    scale = max(float(np.abs(bvals).max()), np.finfo(float).tiny)
    lo, hi = float(u.data.min()), float(u.data.max())
    slack = float(min(lo - bvals.min(), bvals.max() - hi) / scale)
    if not slack >= -MAX_PRINCIPLE_RTOL:
        raise MaxPrincipleViolation(
            f"solution range [{lo:.6g}, {hi:.6g}] leaves the boundary range "
            f"[{bvals.min():.6g}, {bvals.max():.6g}] by {-slack:.3g} of max|b|"
        )
    return slack


def _u_plus_l2(u: CubeFunction) -> float:
    plus = np.maximum(u.data, 0.0)
    return float(np.sqrt(np.mean(plus * plus)))


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def _oscillation_experiment(
    kind: str,
    field: CoefficientField,
    boundary: Callable,
    s: float,
    t: float,
    sweep_result: SweepResult | None,
    theta: float | None,
    boundary_descriptor: str,
) -> ExperimentRecord:
    """The one pipeline of both experiments; ``kind`` is ``"harnack"``
    (two-sided) or ``"local-bound"`` (one-sided)."""
    two_sided = kind == "harnack"
    sigma = _check_exponents(s, t)
    bvals = _boundary_face_values(field.grid, boundary)
    if two_sided and bvals.min() <= 0.0:
        raise ValueError(
            f"boundary data must be strictly positive; sampled minimum "
            f"{bvals.min():.6g}"
        )

    theta_val, theta_method = _resolve_theta(field, s, t, sweep_result, theta)
    u, stats = solve_dirichlet(field, _full_domain(field.d), boundary)
    diagnostics = {"max_principle_slack": _max_principle_slack(u, bvals)}
    if two_sided and u.data.min() <= 0.0:
        raise MaxPrincipleViolation(
            f"solution minimum {u.data.min():.6g} is not positive although the "
            f"boundary minimum {bvals.min():.6g} is"
        )

    sups, infs = _extremes(u)
    u_plus = _u_plus_l2(u)
    p_star = 0.5 * t / math.sqrt(theta_val)
    if two_sided:
        key = str(SUBCUBE_FRACTIONS[0])
        ratio = float(np.log(sups[key] / infs[key]))
        threshold = HARNACK_CALIBRATION * np.sqrt(theta_val) / t
        w = np.log(_region_values(u, Fraction(1, 2)))
        w = w - w.mean()
        moment_plus = float(np.mean(np.exp(p_star * w)) ** (1.0 / p_star))
        moment_minus = float(np.mean(np.exp(-p_star * w)) ** (1.0 / p_star))
        diagnostics = {"moment_plus": moment_plus, "moment_minus": moment_minus,
                       "crossover": moment_plus * moment_minus, **diagnostics}
    else:
        sup_half = sups[str(Fraction(1, 2))]
        ratio = 0.0 if u_plus == 0.0 else sup_half / u_plus
        threshold = LOCAL_BOUND_CALIBRATION * theta_val ** (field.d / (4.0 * sigma))

    return ExperimentRecord(
        kind=kind,
        field_descriptor=field.descriptor,
        field_hash=field.content_hash,
        boundary_descriptor=boundary_descriptor,
        s=float(s),
        t=float(t),
        sigma=float(sigma),
        theta=theta_val,
        theta_method=theta_method,
        sup_by_fraction=sups,
        inf_by_fraction=infs,
        u_plus_l2=u_plus,
        harnack_log_ratio=ratio if two_sided else None,
        lb_ratio=None if two_sided else ratio,
        threshold=float(threshold),
        passed=bool(ratio <= threshold),
        p_star=float(p_star),
        diagnostics=diagnostics,
        solver=stats.to_dict(),
    )


def harnack_experiment(
    field: CoefficientField,
    boundary: Callable,
    s: float,
    t: float,
    sweep_result: SweepResult | None = None,
    theta: float | None = None,
    boundary_descriptor: str = "",
) -> ExperimentRecord:
    """Two-sided oscillation of the positive solution with given boundary data.

    Solves ``-div(a grad u) = 0`` with strictly positive boundary values,
    records sup/inf of ``u`` over the snapped centered subcubes of sides
    1/8, 1/4 and 1/2, and compares ``log(sup/inf)`` on the 1/8-subcube
    against ``HARNACK_CALIBRATION * t**-1 * theta**0.5``.

    Parameters
    ----------
    field : CoefficientField
        Diagonal coefficient field (cell-centered solver requirement).
    boundary : callable
        ``boundary(X1, ..., Xd)`` evaluated at boundary face centers in
        centered physical coordinates; must be strictly positive there.
    s, t : float
        Scale-discount exponents with ``s + t < 1``.
    sweep_result : SweepResult, optional
        Coarse-graining sweep of ``field``; used for the solved ellipticity
        ratio when given.
    theta : float, optional
        Explicit ellipticity ratio (overrides ``sweep_result``).
    boundary_descriptor : str, optional
        Human-readable tag stored in the record.

    Returns
    -------
    ExperimentRecord

    Raises
    ------
    ValueError
        If the sampled boundary data is not strictly positive or finite.
    MaxPrincipleViolation
        If the solution leaves the range of the boundary data by more than
        :data:`MAX_PRINCIPLE_RTOL` of its largest magnitude, or its minimum
        is not positive. The signed slack is recorded as
        ``diagnostics["max_principle_slack"]``.
    """
    return _oscillation_experiment("harnack", field, boundary, s, t,
                                   sweep_result, theta, boundary_descriptor)


def local_boundedness_experiment(
    field: CoefficientField,
    boundary: Callable,
    s: float,
    t: float,
    sweep_result: SweepResult | None = None,
    theta: float | None = None,
    boundary_descriptor: str = "",
) -> ExperimentRecord:
    """One-sided interior bound for a possibly sign-changing solution.

    Solves the Dirichlet problem (no sign restriction on the data) and
    compares ``lb_ratio = sup over the (1/2)-subcube of u`` divided by the
    positive-part norm ``||u_+||_L2`` over the whole domain against
    ``LOCAL_BOUND_CALIBRATION * theta**(d / (4*sigma))`` with
    ``sigma = 1 - s - t``.

    Parameters and errors are as in :func:`harnack_experiment`, minus the
    positivity requirements; the two-sided maximum principle is checked
    and its slack recorded the same way.  A solution with no positive part
    yields ``lb_ratio = 0``.
    """
    return _oscillation_experiment("local-bound", field, boundary, s, t,
                                   sweep_result, theta, boundary_descriptor)


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

def _mean_lp(values: np.ndarray, p: float) -> float:
    return float(np.mean(np.abs(values) ** p) ** (1.0 / p))


def _gained_exponent(d: int, x: float, name: str) -> float:
    """The gained-integrability exponent ``2*_x = 2d / (d - 2(1-x))`` for the
    exponent ``x`` called ``name``."""
    denom = d - 2.0 * (1.0 - x)
    if denom <= 0:
        raise ValueError(
            f"integrability exponent requires d - 2(1-{name}) > 0, got {denom:.3g}"
        )
    return 2.0 * d / denom


def reverse_holder_diagnostic(
    field: CoefficientField,
    u: CubeFunction,
    kind: tuple[str, float],
    rho1: float,
    rho2: float,
    s: float,
    t: float,
    theta: float,
) -> float:
    """Reverse Hölder quotient of a convex transform of the solution.

    For ``Psi(u)`` given by ``kind`` — ``("power", p)`` maps ``u`` (positive
    on the outer subcube) to ``u**(p/2)`` with ``p`` outside ``{0, 1}``;
    ``("trunc", k)`` maps it to ``max(u - k, 0)`` — returns::

        ||Psi(u)||_{2*_t, rho1} /
            ((rho2 - rho1)**(-d/2)
             * (1 + (pf * theta**0.5 / (sigma * t * (rho2 - rho1)))**((s + sigma) / sigma))
             * ||Psi(u)||_{2, rho2})

    where norms are mean Lebesgue norms over the snapped centered subcubes,
    ``2*_t = 2d / (d - 2(1-t))`` and ``sigma = 1 - s - t``.  The prefactor
    ``pf = |p|/|p-1|`` for power transforms and ``1`` for truncations.
    A transform that vanishes on the outer subcube yields ``0.0``.

    Raises
    ------
    ValueError
        For subcube fractions outside ``1/2 <= rho1 < rho2 <= 1``,
        ``p in {0, 1}``, non-positive ``u`` under a power transform, a
        ``theta`` that is not finite and positive, or exponents outside the
        admissible range.
    """
    sigma = _check_exponents(s, t)
    theta = _finite_positive("theta", theta)
    if not (0.5 <= rho1 < rho2 <= 1.0):
        raise ValueError(
            f"subcube fractions must satisfy 1/2 <= rho1 < rho2 <= 1, "
            f"got rho1={rho1}, rho2={rho2}"
        )
    d = field.d
    two_star_t = _gained_exponent(d, t, "t")

    transform, value = kind
    outer = _region_values(u, Fraction(rho2).limit_denominator(10**9))
    inner = _region_values(u, Fraction(rho1).limit_denominator(10**9))
    if transform == "power":
        p = float(value)
        if p in (0.0, 1.0):
            raise ValueError("power transform requires p outside {0, 1}")
        if outer.min() <= 0.0:
            raise ValueError(
                "power transform requires a strictly positive solution on "
                "the outer subcube"
            )
        psi_outer = outer ** (p / 2.0)
        psi_inner = inner ** (p / 2.0)
        prefactor = abs(p) / abs(p - 1.0)
    elif transform == "trunc":
        level = float(value)
        psi_outer = np.maximum(outer - level, 0.0)
        psi_inner = np.maximum(inner - level, 0.0)
        prefactor = 1.0
    else:
        raise ValueError(f"unknown transform kind {transform!r}")

    den_norm = _mean_lp(psi_outer, 2.0)
    if den_norm == 0.0:
        return 0.0
    num_norm = _mean_lp(psi_inner, two_star_t)
    gap = rho2 - rho1
    growth = (prefactor * math.sqrt(theta) / (sigma * t * gap)) ** ((s + sigma) / sigma)
    factor = gap ** (-d / 2.0) * (1.0 + growth)
    return num_norm / (factor * den_norm)


def log_caccioppoli_diagnostic(
    field: CoefficientField,
    u: CubeFunction,
    lambda_upper: float,
) -> float:
    """Energy of ``log u`` on the central half-cube over the upper constant.

    Returns ``||a^(1/2) grad log u||^2_{L2-mean((1/2)-subcube)} /
    lambda_upper`` for a full-domain solution that is strictly
    positive on the half-cube.  Constant solutions give exactly ``0``; for
    the constant field ``diag(1, L)`` with ``u = exp(sqrt(L) x1)`` the
    quotient equals ``1`` when ``lambda_upper = L``.
    """
    lambda_upper = _finite_positive("lambda_upper", lambda_upper)
    region = subcube_cell_slices(u.grid, Fraction(1, 2))
    vals = _region_values(u, Fraction(1, 2))
    if vals.min() <= 0.0:
        raise ValueError(
            "log-energy requires a strictly positive solution on the half-cube"
        )
    with np.errstate(invalid="ignore", divide="ignore"):
        log_data = np.log(u.data)
    log_u = CubeFunction(u.grid, u.cube, log_data)
    return energy(field, log_u, region=region) / lambda_upper


def sobolev_poincare_diagnostic(
    field: CoefficientField,
    u: CubeFunction,
    s: float,
    lambda_lower: float,
    *,
    boundary: Callable,
) -> float:
    """Oscillation in the gained-integrability norm over the energy bound.

    Returns ``||u - mean(u)||_{L^(2*_s)-mean} / (s**-1 * lambda_lower**-0.5
    * ||a^(1/2) grad u||_{L2-mean})`` over the full domain, with
    ``2*_s = 2d / (d - 2(1-s))``.

    ``u`` solves the full-domain Dirichlet problem with data ``boundary``.
    When that data, sampled at the face centers the cell-centered solver
    uses, is exactly constant, the exact ``u`` is that constant (discrete
    maximum principle) and the quotient is ``0``, whatever rounding
    oscillation the computed ``u`` shows.  Data that is not exactly
    constant goes through the quotient, however small its variation.
    """
    if not (0 < s < 1):
        raise ValueError("exponents must lie in (0, 1)")
    lambda_lower = _finite_positive("lambda_lower", lambda_lower)
    two_star_s = _gained_exponent(field.d, s, "s")
    bvals = _boundary_face_values(field.grid, boundary)
    if np.ptp(bvals) == 0.0:
        return 0.0
    centered = u.data - u.data.mean()
    lhs = _mean_lp(centered, two_star_s)
    en = energy(field, u)
    if en <= 0.0:
        return 0.0
    return lhs * s * math.sqrt(lambda_lower) / math.sqrt(en)


# ---------------------------------------------------------------------------
# Contrast sweep
# ---------------------------------------------------------------------------

def sharpness_boundary(lam: float) -> tuple[Callable, str]:
    """Boundary data of the exact solution ``exp(sqrt(L) x1) cos(x2)``.

    The function is harmonic for ``a = diag(1, L)`` and strictly positive on
    the closed unit cube (``|x2| <= 1/2 < pi/2``).
    """
    root = math.sqrt(lam)

    def boundary(x1, x2):
        return np.exp(root * x1) * np.cos(x2)

    return boundary, f"exp(sqrt({lam:g})*x1)*cos(x2)"


def _sharpness_contrast(lam: float, s: float, t: float, N: int) -> ExperimentRecord | str:
    """One contrast of :func:`sharpness_sweep`, run in its worker: the
    record, or the message of a failed solve."""
    fld = gen_constant(GridSpec(2, N), np.diag([1.0, lam]), descriptor=f"diag(1,{lam:g})")
    boundary, tag = sharpness_boundary(lam)
    try:
        return harnack_experiment(fld, boundary, s, t, theta=lam, boundary_descriptor=tag)
    except (SolverError, MaxPrincipleViolation) as err:
        return str(err)


def _pin_worker(cores) -> None:
    """A sweep worker's start-up: it takes a core of its own from the queue
    ``cores``, so its solves run the one-core schedule."""
    os.sched_setaffinity(0, {cores.get()})


def sharpness_sweep(
    lambda_list: Sequence[float],
    s: float = 0.45,
    t: float = 0.45,
    N: int = 5,
) -> SharpnessReport:
    """Log-oscillation versus contrast for exact anisotropic solutions.

    For each ``L`` in ``lambda_list`` runs :func:`harnack_experiment` on the
    constant field ``diag(1, L)`` (two dimensions, ``3**N`` cells per side)
    with the boundary trace of ``exp(sqrt(L) x1) cos(x2)``, then fits
    ``harnack_log_ratio`` against ``sqrt(L)`` by least squares.  The exact
    ellipticity ratio ``L`` is supplied directly, so no coarse-graining
    solves run.  Solver failures are recorded and the sweep returned
    partially; the fit requires at least two successful contrasts, which
    is why the contrasts must be distinct.

    The contrasts run side by side in forked worker processes, one per core
    this process may use (at most one per contrast), each pinned to its own
    core and so solving on one thread; the interpreter lock keeps threads
    from doing that within one process.  The workers are started and
    joined within the call.  Each solve's numbers do not depend on its
    schedule, and the records come back in contrast order, so the report
    is identical to a run on one core.  Memory is one solve per worker.
    """
    lams = [float(v) for v in lambda_list]
    bad = [v for v in lams if not 1.0 <= v < math.inf]
    if bad:
        raise ValueError(f"contrasts must be finite and >= 1, got {bad[0]!r}")
    repeated = [v for i, v in enumerate(lams) if v in lams[:i]]
    if repeated:
        raise ValueError(f"contrasts must be distinct, got {repeated[0]!r} twice")
    _check_exponents(s, t)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # forked, a worker starts with this process's modules loaded instead of
    # importing them again; the solver drops the chunk threads it inherits
    context = multiprocessing.get_context("fork")
    cores = sorted(os.sched_getaffinity(0))[:len(lams)]
    queue = context.SimpleQueue()
    for core in cores:
        queue.put(core)
    try:
        with ProcessPoolExecutor(max(len(cores), 1), mp_context=context,
                                 initializer=_pin_worker, initargs=(queue,)) as pool:
            outcomes = list(pool.map(partial(_sharpness_contrast, s=s, t=t, N=N), lams))
    finally:
        queue.close()
    records = [rec for rec in outcomes if isinstance(rec, ExperimentRecord)]
    failures = [{"contrast": lam, "message": rec} for lam, rec in zip(lams, outcomes)
                if isinstance(rec, str)]

    fitted = [(math.sqrt(r.theta), r.harnack_log_ratio) for r in records]
    if len(fitted) >= 2:
        xs = np.array([f[0] for f in fitted])
        ys = np.array([f[1] for f in fitted])
        slope, intercept = (float(v) for v in np.polyfit(xs, ys, 1))
    else:
        slope = intercept = None
    return SharpnessReport(
        lambdas=tuple(r.theta for r in records),
        log_ratios=tuple(r.harnack_log_ratio for r in records),
        slope=slope,
        intercept=intercept,
        records=tuple(records),
        failures=tuple(failures),
    )
