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
    MobiusMap,
    PoleError,
    RankError,
    _chunk_points,
    _grid_laplacian,
    _integrand_chunks,
    _mobius_integrand_chunks,
    _require_periodic_grid,
    laplace_beltrami,  # re-exported: callers import it from this module
    mobius_apply,
    random_mobius,
    shape_batch,
)
from .tensors import equality_witness, traceless_part, trial_rng

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
    "mobius_energies",
    "conformal_trials",
    "grid_integral",
    "pinching_threshold",
    "pinching_integral",
    "el_residual_isoparametric",
    "el_residual_surface",
    "classify_willmore",
]

_UMBILIC_GUARD = 1e-10
# Density rows a group of conformal images holds at once, one 8-byte
# density per node and map. A grid of more than _GROUP_BYTES / 16 nodes
# takes one map per group and holds what willmore_energy holds.
_GROUP_BYTES = 2**22
# Maps drawn per requested conformal image before conformal_trials gives up.
_DRAWS_PER_MAP = 20


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


def _chunked_integral(patch: ImmersionPatch, grid: QuadratureGrid, integrand) -> float:
    """Quadrature of ``integrand(rho_sq, sqrt_g, chunk)`` = f sqrt g.

    The kernel's fields arrive one chunk at a time, ``chunk`` being the
    slice of flat node indices they belong to; f sqrt g times the
    chunk's weights fills that slice of one node-sized density. One
    ``np.sum`` over it gives the summation order, and so every bit, of a
    whole-array reduction, at 8 bytes per node.
    """
    if not grid.matches_domain(patch.domain):
        raise ValueError("grid does not cover the patch domain")
    density = np.empty(grid.node_total)
    for start, stop, rho_sq, sqrt_g, _ in _integrand_chunks(patch, grid):
        values = integrand(rho_sq, sqrt_g, slice(start, stop))
        np.multiply(values, grid.weights(start, stop), out=density[start:stop])
    return float(np.sum(density)) / patch.cover_multiplicity


def willmore_energy(patch: ImmersionPatch, grid: QuadratureGrid) -> float:
    """Quadrature value of the bending energy: integral of rho^n.

    Uses exact chart derivatives when the patch provides them and
    divides by the chart's cover multiplicity, so doubled charts report
    the energy of the underlying submanifold.
    """
    power = patch.n / 2.0
    return _chunked_integral(patch, grid, lambda rho_sq, sqrt_g, _: rho_sq**power * sqrt_g)


def mobius_energies(
    patch: ImmersionPatch, grid: QuadratureGrid, maps: list[MobiusMap]
) -> list[Optional[float]]:
    """Bending energy of the image of ``patch`` under each conformal map.

    Each entry equals ``willmore_energy(mobius_apply(mob, patch), grid)``
    bit for bit, or is None where that raises :class:`PoleError` from the
    pointwise pole guard at a grid node. The maps are not probed first;
    the coarse clearance check of ``mobius_apply`` is the caller's. The
    maps are walked in groups, each group in one pass over the grid
    (``immersion._mobius_integrand_chunks``) that fills one density row
    per map; each energy is the ``np.sum`` of its own row. A group holds
    as many maps as keep its rows within ``_GROUP_BYTES``, at least one
    and at most one chunk's worth, so memory is bounded by the budget,
    not by the number of maps. Needs a patch with exact jets.
    """
    if not grid.matches_domain(patch.domain):
        raise ValueError("grid does not cover the patch domain")
    if any(mob.ambient_dim != patch.ambient_dim for mob in maps):
        raise ValueError("ambient dimensions do not match")
    power = patch.n / 2.0
    total = grid.node_total
    per_group = max(1, min(_chunk_points(patch), _GROUP_BYTES // (8 * total)))
    energies: list[Optional[float]] = []
    for first in range(0, len(maps), per_group):
        group = maps[first : first + per_group]
        density = np.empty((len(group), total))
        done = ()
        for start, stop, live, rho_sq, sqrt_g in _mobius_integrand_chunks(patch, grid, group):
            density[live, start:stop] = rho_sq**power * sqrt_g * grid.weights(start, stop)
            done = live if stop == total else ()
        finished = {int(k): float(np.sum(density[k])) / patch.cover_multiplicity for k in done}
        energies.extend(finished.get(k) for k in range(len(group)))
    return energies


def conformal_trials(
    patch: ImmersionPatch,
    grid: QuadratureGrid,
    count: int,
    seed: int,
    *,
    trial_rng=trial_rng,
    random_mobius=random_mobius,
    mobius_apply=mobius_apply,
) -> list[tuple[int, float]]:
    """(trial, energy) of the first ``count`` pole-safe conformal images.

    Trial t draws ``random_mobius(ambient_dim, trial_rng(seed, t))``. A
    map whose image ``mobius_apply`` rejects (its coarse pole check) is
    skipped; the others are evaluated together by
    :func:`mobius_energies`, and a map that grazes the pole at a grid
    node is replaced by the next trials' draws. At most
    ``_DRAWS_PER_MAP * count`` trials are drawn, so fewer pairs come back
    when the chart keeps passing the pole. The pairs, in trial order,
    are those of evaluating one trial after another. The three functions
    are parameters so that a caller can pass its own bindings of them
    (the CLI passes the names it imports, which ``perfbench`` wraps).
    """
    results: list[tuple[int, float]] = []
    trial = 0
    cap = _DRAWS_PER_MAP * count
    while len(results) < count and trial < cap:
        drawn = []
        while len(results) + len(drawn) < count and trial < cap:
            mob = random_mobius(patch.ambient_dim, trial_rng(seed, trial))
            try:
                mobius_apply(mob, patch)
            except PoleError:
                pass
            else:
                drawn.append((trial, mob))
            trial += 1
        energies = mobius_energies(patch, grid, [mob for _, mob in drawn])
        results += [(t, e) for (t, _), e in zip(drawn, energies) if e is not None]
    return results


def grid_integral(patch: ImmersionPatch, grid: QuadratureGrid, values: np.ndarray) -> float:
    """Integral of a grid function against the induced volume element."""
    vals = np.asarray(values, dtype=float)
    if vals.shape != grid.shape:
        raise ValueError(f"grid function has shape {vals.shape}, expected {grid.shape}")
    flat = vals.reshape(-1)
    return _chunked_integral(patch, grid, lambda _, sqrt_g, chunk: flat[chunk] * sqrt_g)


def pinching_threshold(n: int, p: int, mode: str) -> float:
    if n < 1 or p < 1:
        raise ValueError("need n >= 1 and p >= 1")
    if mode == "simons":
        return n / (2.0 - 1.0 / p)
    if mode == "li":
        return 2.0 * n / 3.0
    raise ValueError(f"unknown threshold mode {mode!r}; expected 'simons' or 'li'")


def pinching_integral(patch: ImmersionPatch, grid: QuadratureGrid, mode: str = "simons") -> float:
    """Integral of rho^n (C - rho^2) with C the chosen pinching constant.

    Nonpositive for critical submanifolds whose rho^2 stays within the
    pinching window; exactly zero for the constant-shape examples that
    sit at the threshold.
    """
    threshold = pinching_threshold(patch.n, patch.p, mode)
    power = patch.n / 2.0
    return _chunked_integral(
        patch, grid, lambda rho_sq, sqrt_g, _: rho_sq**power * (threshold - rho_sq) * sqrt_g
    )


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


def el_residual_surface(patch: ImmersionPatch, grid: QuadratureGrid) -> SurfaceResidual:
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
    # The signed mean curvature needs the oriented normal of shape_batch,
    # taken in chunks that keep only the fields the residual reads.
    pts = grid.points()
    m = len(pts)
    h_signed, s_field, sqrt_g = np.empty(m), np.empty(m), np.empty(m)
    ginv = np.empty((m, 2, 2))
    size = _chunk_points(patch)
    for start in range(0, m, size):
        chunk = slice(start, start + size)
        try:
            batch = shape_batch(patch, pts[chunk])
        except RankError as exc:
            raise RankError(start + exc.index, exc.smin) from None
        h_signed[chunk] = batch.mean_vector[:, 0]
        s_field[chunk] = batch.S
        sqrt_g[chunk] = batch.sqrt_g
        ginv[chunk] = np.linalg.inv(batch.metric)
    h_signed = h_signed.reshape(grid.shape)
    s_field = s_field.reshape(grid.shape)
    lap = _grid_laplacian(patch, h_signed, ginv, sqrt_g, grid)
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
    tf, _ = traceless_part(spec.constant_shape)
    a, b = tf
    norm_a = float(np.sum(a * a))
    norm_b = float(np.sum(b * b))
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
