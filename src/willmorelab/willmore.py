"""Conformal bending energy, its critical-point residuals, and pinching.

The energy of an n-dimensional submanifold of the round sphere is the
integral of rho^n, where rho^2 = S - n H^2 is the squared norm of the
trace-free second fundamental form. Everything here reduces to dense
quadrature over a chart: energies, threshold-weighted pinching
integrals, and the pointwise Euler-Lagrange residual for surfaces.
Constant-shape (isoparametric) inputs get exact algebraic residuals
instead, and a small classifier names the constant-curvature shapes
that can sit at the pinching threshold.

Threshold conventions: `simons` mode uses n/(2 - 1/p) and `li` mode
uses 2n/3; for hypersurfaces the simons constant is just n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .catalog import IsoparametricSpec
from .grids import QuadratureGrid
from .immersion import (
    ImmersionPatch,
    _grid_laplacian,
    _require_periodic_grid,
    laplace_beltrami,  # re-exported: callers import it from this module
    shape_batch,
)
from .tensors import equality_witness, traceless_part

__all__ = [
    "ELResidual",
    "SurfaceResidual",
    "Classification",
    "TOTALLY_UMBILIC",
    "WILLMORE_TORUS",
    "VERONESE",
    "AT_THRESHOLD_UNRECOGNIZED",
    "OUTSIDE_PINCHING_RANGE",
    "willmore_energy",
    "grid_integral",
    "pinching_threshold",
    "pinching_integral",
    "el_residual_isoparametric",
    "el_residual_surface",
    "classify_willmore",
]

_UMBILIC_GUARD = 1e-10


@dataclass(frozen=True)
class ELResidual:
    """Critical-point defect of a constant-shape submanifold.

    ``values`` holds one residual per normal direction; zero in every
    component is equivalent to the submanifold being a critical point.
    ``scale`` carries the rho^(n-2) factor that multiplies the bracket
    in the full variational equation; it is reported separately so that
    vanishing is judged on the bracket alone.
    """

    values: np.ndarray
    scale: float
    norm: float = field(init=False)

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "norm", float(np.sqrt(vals @ vals)))

    @property
    def is_zero(self) -> bool:
        return self.norm <= 1e-12


@dataclass(frozen=True)
class SurfaceResidual:
    """Pointwise surface residual Delta H + H (S - 2 H^2) on a grid."""

    values: np.ndarray
    max_norm: float


def _integrate(patch: ImmersionPatch, grid: QuadratureGrid, density: np.ndarray) -> float:
    total = float(np.sum(grid.weights() * density))
    return total / patch.cover_multiplicity


def _grid_batch(patch: ImmersionPatch, grid: QuadratureGrid, fd_step: float):
    if not grid.matches_domain(patch.domain):
        raise ValueError("grid does not cover the patch domain")
    return shape_batch(patch, grid.points(), step=fd_step)


def willmore_energy(patch: ImmersionPatch, grid: QuadratureGrid, fd_step: float = 1e-4) -> float:
    """Quadrature value of the bending energy: integral of rho^n.

    Uses exact chart derivatives when the patch provides them and
    divides by the chart's cover multiplicity, so doubled charts report
    the energy of the underlying submanifold.
    """
    batch = _grid_batch(patch, grid, fd_step)
    rho_sq = np.maximum(batch.rho_sq, 0.0)
    return _integrate(patch, grid, rho_sq ** (patch.n / 2.0) * batch.sqrt_g)


def grid_integral(
    patch: ImmersionPatch,
    grid: QuadratureGrid,
    values: np.ndarray,
    fd_step: float = 1e-4,
) -> float:
    """Integral of a grid function against the induced volume element."""
    vals = np.asarray(values, dtype=float)
    if vals.shape != grid.shape:
        raise ValueError(f"grid function has shape {vals.shape}, expected {grid.shape}")
    batch = _grid_batch(patch, grid, fd_step)
    return _integrate(patch, grid, vals.reshape(-1) * batch.sqrt_g)


def pinching_threshold(n: int, p: int, mode: str) -> float:
    if n < 1 or p < 1:
        raise ValueError("need n >= 1 and p >= 1")
    if mode == "simons":
        return n / (2.0 - 1.0 / p)
    if mode == "li":
        return 2.0 * n / 3.0
    raise ValueError(f"unknown threshold mode {mode!r}; expected 'simons' or 'li'")


def pinching_integral(
    patch: ImmersionPatch,
    grid: QuadratureGrid,
    mode: str = "simons",
    fd_step: float = 1e-4,
) -> float:
    """Integral of rho^n (C - rho^2) with C the chosen pinching constant.

    Nonpositive for critical submanifolds whose rho^2 stays within the
    pinching window; exactly zero for the constant-shape examples that
    sit at the threshold.
    """
    threshold = pinching_threshold(patch.n, patch.p, mode)
    batch = _grid_batch(patch, grid, fd_step)
    rho_sq = np.maximum(batch.rho_sq, 0.0)
    density = rho_sq ** (patch.n / 2.0) * (threshold - rho_sq) * batch.sqrt_g
    return _integrate(patch, grid, density)


def el_residual_isoparametric(spec: IsoparametricSpec) -> ELResidual:
    """Algebraic critical-point residual for constant shape operators.

    With every derivative term dead, criticality reduces per normal
    direction alpha to

        S H^a + sum_b H^b tr(h^b h^a)
            - sum_b tr(h^a h^b h^b) - n H^2 H^a = 0.

    Odd n with vanishing rho^2 is rejected: the integrand rho^n is not
    differentiable at umbilic points for odd powers, so the residual is
    meaningless there.
    """
    fam = spec.constant_shape
    rho_sq = spec.rho_sq
    if spec.n % 2 == 1 and rho_sq < _UMBILIC_GUARD:
        raise ValueError(
            "residual undefined: odd dimension with an umbilic (rho^2 = 0) shape"
        )
    h = fam.stacked()
    hvec = fam.mean
    s_total = fam.total_norm_sq
    h_sq = float(hvec @ hvec)
    pair = np.einsum("aij,bji->ab", h, h)
    cubic = np.einsum("aij,bjk,bki->a", h, h, h)
    values = s_total * hvec + pair @ hvec - cubic - spec.n * h_sq * hvec
    scale = math.sqrt(max(rho_sq, 0.0)) ** (spec.n - 2) if spec.n != 2 else 1.0
    return ELResidual(values=values, scale=scale)


def el_residual_surface(
    patch: ImmersionPatch,
    grid: QuadratureGrid,
    fd_step: float = 1e-4,
) -> SurfaceResidual:
    """Pointwise residual Delta H + H (S - 2 H^2) for a surface chart.

    Needs n = 2 and codimension 1 (so the normal Laplacian collapses to
    the scalar Laplace-Beltrami of the signed mean curvature) and a
    fully periodic chart for the discrete Laplacian.
    """
    if patch.n != 2:
        raise ValueError("surface residual needs a 2-dimensional patch")
    if patch.p != 1:
        raise ValueError("surface residual needs codimension 1")
    _require_periodic_grid(patch, grid)
    batch = _grid_batch(patch, grid, fd_step)
    h_signed = batch.mean_vector[:, 0].reshape(grid.shape)
    s_field = batch.S.reshape(grid.shape)
    lap = _grid_laplacian(batch, h_signed, grid)
    values = lap + h_signed * (s_field - 2.0 * h_signed**2)
    return SurfaceResidual(values=values, max_norm=float(np.max(np.abs(values))))


TOTALLY_UMBILIC = "totally-umbilic"
WILLMORE_TORUS = "willmore-torus"
VERONESE = "veronese"
AT_THRESHOLD_UNRECOGNIZED = "at-threshold-unrecognized"
OUTSIDE_PINCHING_RANGE = "outside-pinching-range"


@dataclass(frozen=True)
class Classification:
    """Outcome of the threshold trichotomy for constant-shape data."""

    kind: str
    m: Optional[int] = None
    mirror: Optional[int] = None
    detail: str = ""


def _expanded_curvatures(spec: IsoparametricSpec) -> Optional[np.ndarray]:
    if spec.p != 1:
        return None
    if spec.principal_curvatures is not None:
        values = np.concatenate(
            [np.full(mult, val) for val, mult in spec.principal_curvatures]
        )
    else:
        from .linalg import jacobi_eigen

        values, _ = jacobi_eigen(spec.constant_shape.matrices[0])
    return np.sort(np.asarray(values, dtype=float))


def _torus_pattern(m: int, n: int) -> np.ndarray:
    k1 = math.sqrt(m / (n - m))
    k2 = -math.sqrt((n - m) / m)
    return np.sort(np.concatenate([np.full(m, k1), np.full(n - m, k2)]))


def _match_torus(spec: IsoparametricSpec, tol: float) -> Optional[int]:
    values = _expanded_curvatures(spec)
    if values is None:
        return None
    n = spec.n
    atol = math.sqrt(tol)
    for m in range(1, n):
        pattern = _torus_pattern(m, n)
        if np.allclose(values, pattern, rtol=0.0, atol=atol):
            return m
        if np.allclose(values, np.sort(-pattern), rtol=0.0, atol=atol):
            return n - m
    return None


def _match_veronese(spec: IsoparametricSpec, tol: float) -> bool:
    if spec.n != 2 or spec.p != 2:
        return False
    if spec.mean_norm**2 > tol:
        return False
    family, _ = traceless_part(spec.constant_shape)
    a, b = family.matrices
    norm_a = float(np.sum(a.data * a.data))
    norm_b = float(np.sum(b.data * b.data))
    scale = max(norm_a, norm_b)
    if scale <= tol or abs(norm_a - norm_b) > tol * (1.0 + scale):
        return False
    witness_tol = max(1e-9, math.sqrt(tol))
    try:
        return equality_witness(a, b, tol=witness_tol) is not None
    except ValueError:
        return False


def classify_willmore(
    spec: IsoparametricSpec,
    rho_sq: float,
    tol: float = 1e-8,
) -> Classification:
    """Place constant-shape data within the pinching trichotomy.

    Below tolerance rho^2 means totally umbilic; at the threshold the
    curvature pattern is matched against the balanced torus products
    (codimension 1, reported together with the mirror index from the
    co-normal flip) and against the minimal projective-plane surface
    (n = 2, p = 2, recognized through the commutator equality witness).
    Values strictly between zero and the threshold are flagged: no
    constant-shape critical submanifold exists there.
    """
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    if rho_sq < 0.0:
        raise ValueError("rho_sq must be nonnegative")
    threshold = pinching_threshold(spec.n, spec.p, "simons")
    if rho_sq <= tol:
        return Classification(TOTALLY_UMBILIC)
    if abs(rho_sq - threshold) <= tol:
        m = _match_torus(spec, tol)
        if m is not None:
            return Classification(WILLMORE_TORUS, m=m, mirror=spec.n - m)
        if _match_veronese(spec, tol):
            return Classification(VERONESE)
        return Classification(AT_THRESHOLD_UNRECOGNIZED)
    if rho_sq < threshold:
        return Classification(
            OUTSIDE_PINCHING_RANGE,
            detail=f"rho_sq={rho_sq:.6g} sits strictly inside (0, {threshold:.6g})",
        )
    return Classification(
        OUTSIDE_PINCHING_RANGE,
        detail=f"rho_sq={rho_sq:.6g} exceeds the threshold {threshold:.6g}",
    )
