"""Coefficient field generators.

Every generator is pure: the output is a deterministic function of its
parameters (and seed, where randomness is involved), and all parameters are
echoed into the field descriptor.

Besides simple constant/striped fields and a seeded random SPD generator,
three structured scalar families probe degenerate ellipticity:

* a layered spike profile whose integral converges while every higher moment
  diverges as more layers are added,
* a mollified product-Cantor measure (dimension log 4 / log 3 in the plane),
* a triadic lognormal multiplicative cascade (mean-one density whose higher
  moments blow up with depth).

Scalar fields are stored as 1x1 blocks of the same packed-matrix layout used
everywhere else (isotropic: value times identity for d > 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    CoefficientField,
    GridSpec,
    ScalarGridFunction,
    sym_component_count,
    sym_index_pairs,
    sym_pack,
)

__all__ = [
    "LayeredParams",
    "CantorParams",
    "CascadeParams",
    "gen_constant",
    "gen_laminate",
    "gen_random_spd",
    "gen_layered_example",
    "layered_profile",
    "gen_cantor_field",
    "cantor_density",
    "gen_cascade_field",
    "cascade_density",
]


def _scalar_to_packed(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Embed a per-cell scalar as packed isotropic matrices value * I."""
    ncomp = sym_component_count(grid.d)
    data = np.zeros(grid.cell_shape + (ncomp,))
    for c, (i, j) in enumerate(sym_index_pairs(grid.d)):
        if i == j:
            data[..., c] = values
    return data


# ---------------------------------------------------------------------------
# Elementary fields
# ---------------------------------------------------------------------------

def gen_constant(grid: GridSpec, matrix: np.ndarray, descriptor: str | None = None) -> CoefficientField:
    """Constant field: every cell equals ``matrix`` (must be finite and SPD;
    a ``ValueError`` names the first entry that is not finite)."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (grid.d, grid.d):
        raise ValueError(f"matrix shape {matrix.shape} != ({grid.d}, {grid.d})")
    bad = np.argwhere(~np.isfinite(matrix))  # before symmetry: NaN is unequal to itself
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"matrix must be finite, entry [{i}, {j}] is {matrix[i, j]}")
    if not np.allclose(matrix, matrix.T, rtol=0, atol=1e-13 * max(1.0, abs(matrix).max())):
        raise ValueError("matrix must be symmetric")
    packed = sym_pack(0.5 * (matrix + matrix.T))
    data = np.broadcast_to(packed, grid.cell_shape + packed.shape).copy()
    if descriptor is None:
        descriptor = f"constant(d={grid.d},N={grid.N},matrix={matrix.tolist()})"
    return CoefficientField(grid, data, descriptor)


def gen_laminate(grid: GridSpec, axis: int, values) -> CoefficientField:
    """Scalar field, piecewise constant on equal-width stripes along one axis.

    When the stripe count divides the cells per side, stripes align with the
    grid and cell values are exact. Otherwise cells straddling a stripe
    boundary get the measure-exact arithmetic overlap average, so arithmetic
    cube averages of the represented field still match the ideal laminate
    exactly (harmonic averages differ at order of one cell width).
    """
    values = [float(v) for v in values]
    if not values or not all(0 < v < math.inf for v in values):  # NaN fails too
        raise ValueError(f"values must be finite, positive and non-empty, got {values}")
    if not (0 <= axis < grid.d):
        raise ValueError(f"axis {axis} out of range for d={grid.d}")
    n = grid.cells_per_side
    k = len(values)
    profile = np.empty(n)
    if n % k == 0:
        profile = np.repeat(values, n // k)
    else:
        edges = np.arange(n + 1) / n  # cell boundaries in [0, 1]
        stripe_edges = np.arange(k + 1) / k
        for i in range(n):
            lo, hi = edges[i], edges[i + 1]
            acc = 0.0
            for j in range(k):
                overlap = min(hi, stripe_edges[j + 1]) - max(lo, stripe_edges[j])
                if overlap > 0:
                    acc += overlap * values[j]
            profile[i] = acc * n
    shape = [1] * grid.d
    shape[axis] = n
    cells = np.broadcast_to(profile.reshape(shape), grid.cell_shape)
    desc = f"laminate(axis={axis},values={values},d={grid.d},N={grid.N})"
    return CoefficientField(grid, _scalar_to_packed(grid, cells), desc)


def gen_random_spd(
    grid: GridSpec, seed: int, eig_low: float = 1e-3, eig_high: float = 1e3
) -> CoefficientField:
    """Seeded random SPD field: per-cell eigenvalues log-uniform in a range,
    eigenvectors an independent random rotation per cell."""
    if not 0 < eig_low < math.inf:  # NaN fails too
        raise ValueError(f"eig_low must lie in (0, inf), got {eig_low}")
    if not eig_low <= eig_high < math.inf:
        raise ValueError(f"eig_high must lie in [eig_low, inf), got {eig_high}")
    rng = np.random.default_rng(seed)
    n = grid.n_cells
    d = grid.d
    eigs = np.exp(rng.uniform(math.log(eig_low), math.log(eig_high), size=(n, d)))
    if d == 1:
        mats = eigs[:, :, None]
    elif d == 2:
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
        c, s = np.cos(theta), np.sin(theta)
        q = np.empty((n, 2, 2))
        q[:, 0, 0], q[:, 0, 1] = c, -s
        q[:, 1, 0], q[:, 1, 1] = s, c
        mats = np.einsum("nij,nj,nkj->nik", q, eigs, q)
    else:
        g = rng.standard_normal((n, 3, 3))
        q, r = np.linalg.qr(g)
        q = q * np.sign(np.einsum("nii->ni", r))[:, None, :]
        mats = np.einsum("nij,nj,nkj->nik", q, eigs, q)
    data = sym_pack(mats).reshape(grid.cell_shape + (-1,))
    desc = f"random_spd(seed={seed},eig=[{eig_low},{eig_high}],d={d},N={grid.N})"
    return CoefficientField(grid, data, desc)


# ---------------------------------------------------------------------------
# Layered spike profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LayeredParams:
    """Nested spike layers on (0, ell_k) with amplitudes ``3**(k*k)``.

    ``alpha`` in (0, 1) tunes the spike widths ``3**(-k) * 3**(alpha*k) /
    amplitude``: layer k contributes exactly ``3**(-(1-alpha)*k)`` to the
    integral, so the profile is integrable with bounded total mass while the
    p-th moments grow without bound in the layer count for every p > 1.
    """

    alpha: float
    k_max: int

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.k_max < 0:
            raise ValueError(f"k_max must be >= 0, got {self.k_max}")

    def amplitude(self, k: int) -> float:
        return 3.0 ** (k * k)

    def length(self, k: int) -> float:
        return 3.0 ** (self.alpha * k - k - k * k)


def _layered_cumulative(params: LayeredParams, x: np.ndarray) -> np.ndarray:
    """Antiderivative F(x) = integral_0^x of the spike profile (x >= 0)."""
    out = np.zeros_like(x, dtype=float)
    for k in range(1, params.k_max + 1):
        out += params.amplitude(k) * np.minimum(x, params.length(k))
    return out


def _check_layered_resolution(grid: GridSpec, params: LayeredParams) -> None:
    if params.k_max >= 1 and params.length(params.k_max) < grid.h:
        raise ValueError(
            f"layer {params.k_max} has width {params.length(params.k_max):.3e} "
            f"below cell width 3^-{grid.N}; reduce k_max or refine the grid"
        )


def layered_profile(grid: GridSpec, params: LayeredParams) -> ScalarGridFunction:
    """Raw spike profile f on [0, 1), exact cell averages (1D grid).

    The profile itself (no unit shift) is what the integrability norms
    analyze; it vanishes away from the spikes so it is not a valid
    coefficient field.
    """
    if grid.d != 1:
        raise ValueError("raw profile is one-dimensional")
    _check_layered_resolution(grid, params)
    edges = np.arange(grid.cells_per_side + 1) * grid.h
    cum = _layered_cumulative(params, edges)
    avgs = np.diff(cum) / grid.h
    return ScalarGridFunction(grid, avgs, "cell")


def gen_layered_example(grid: GridSpec, params: LayeredParams) -> CoefficientField:
    """Coefficient field 1 + f(|x_1|) with exact overlap-weighted cell averages."""
    _check_layered_resolution(grid, params)
    nodes = grid.axis_nodes()
    signed_cum = np.sign(nodes) * _layered_cumulative(params, np.abs(nodes))
    profile = 1.0 + np.diff(signed_cum) / grid.h
    shape = [1] * grid.d
    shape[0] = grid.cells_per_side
    cells = np.broadcast_to(profile.reshape(shape), grid.cell_shape)
    desc = f"layered(alpha={params.alpha},k_max={params.k_max},d={grid.d},N={grid.N})"
    return CoefficientField(grid, _scalar_to_packed(grid, cells), desc)


# ---------------------------------------------------------------------------
# Product Cantor measure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CantorParams:
    """Generation-n box mollification of the planar product Cantor measure.

    Each generation keeps the first and last triadic digit per axis (4 of 9
    squares), giving a set of Hausdorff dimension log 4 / log 3; the
    generation-n density spreads unit mass uniformly over the 4^n surviving
    squares of side 3^-n.
    """

    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"generation must be >= 0, got {self.n}")

    @property
    def dimension(self) -> float:
        return math.log(4.0) / math.log(3.0)


def _cantor_axis_mask(grid: GridSpec, n: int) -> np.ndarray:
    idx = np.arange(grid.cells_per_side)
    ok = np.ones_like(idx, dtype=bool)
    for level in range(1, n + 1):
        digit = (idx // 3 ** (grid.N - level)) % 3
        ok &= digit != 1
    return ok


def cantor_density(grid: GridSpec, params: CantorParams) -> ScalarGridFunction:
    """Per-cell density of the generation-n Cantor surrogate (d = 2)."""
    if grid.d != 2:
        raise ValueError("the product Cantor example is planar (d = 2)")
    if params.n > grid.N:
        raise ValueError(f"generation {params.n} exceeds grid resolution N={grid.N}")
    axis = _cantor_axis_mask(grid, params.n)
    mask = np.outer(axis, axis)
    density = np.where(mask, (9.0 / 4.0) ** params.n, 0.0)
    return ScalarGridFunction(grid, density, "cell")


def gen_cantor_field(grid: GridSpec, params: CantorParams) -> CoefficientField:
    """Coefficient field 1 + density for the Cantor surrogate."""
    density = cantor_density(grid, params)
    desc = f"cantor(n={params.n},d={grid.d},N={grid.N})"
    return CoefficientField(grid, _scalar_to_packed(grid, 1.0 + density.data), desc)


# ---------------------------------------------------------------------------
# Lognormal multiplicative cascade
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CascadeParams:
    """Triadic lognormal cascade: n generations of mean-one multipliers.

    Each level draws one independent multiplier exp(gamma*G - gamma^2*v/2),
    G ~ N(0, v) with v = log 3, per triadic cell of that level; the density
    is the product along the ancestor tree. E[W] = 1 per multiplier, so the
    density has mean one at every generation while its L^p masses grow like
    3^(p(p-1)gamma^2 n / 2).
    """

    gamma: float
    n: int
    seed: int

    def __post_init__(self) -> None:
        if not 0 <= self.gamma < math.inf:  # NaN fails too
            raise ValueError(f"gamma must lie in [0, inf), got {self.gamma}")
        if not 0 <= self.n:
            raise ValueError(f"generation must be >= 0, got {self.n}")


#: Per-level multiplier variance of the underlying Gaussian.
CASCADE_LOG_VARIANCE = math.log(3.0)


def _cascade_level_multipliers(params: CascadeParams, level: int, d: int) -> np.ndarray:
    """Multiplier array of shape (3**level,)*d for one cascade level.

    Each (seed, level) pair keys an independent counter-based stream and the
    whole level is drawn in a single vectorized call, so the result does not
    depend on evaluation order or thread scheduling.
    """
    seq = np.random.SeedSequence(entropy=[int(params.seed), int(level)])
    rng = np.random.Generator(np.random.Philox(seq))
    g = rng.standard_normal((3**level,) * d) * math.sqrt(CASCADE_LOG_VARIANCE)
    return np.exp(params.gamma * g - 0.5 * params.gamma**2 * CASCADE_LOG_VARIANCE)


def cascade_density(grid: GridSpec, params: CascadeParams) -> ScalarGridFunction:
    """Per-cell generation-n cascade density (product of ancestor multipliers)."""
    if params.n > grid.N:
        raise ValueError(f"generation {params.n} exceeds grid resolution N={grid.N}")
    density = np.ones(grid.cell_shape)
    for level in range(1, params.n + 1):
        w = _cascade_level_multipliers(params, level, grid.d)
        reps = 3 ** (grid.N - level)
        for axis in range(grid.d):
            w = np.repeat(w, reps, axis=axis)
        density *= w
    return ScalarGridFunction(grid, density, "cell")


def gen_cascade_field(grid: GridSpec, params: CascadeParams) -> CoefficientField:
    """Coefficient field 1 + density for the cascade surrogate."""
    density = cascade_density(grid, params)
    desc = (
        f"cascade(gamma={params.gamma},n={params.n},seed={params.seed},"
        f"d={grid.d},N={grid.N})"
    )
    return CoefficientField(grid, _scalar_to_packed(grid, 1.0 + density.data), desc)
