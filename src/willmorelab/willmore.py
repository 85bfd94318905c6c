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
from itertools import starmap
from typing import Optional

import numpy as np

from .catalog import IsoparametricSpec
from .grids import QuadratureGrid
from .immersion import (
    FD_STEP,
    ImmersionPatch,
    MobiusMap,
    PoleError,
    RankError,
    _chunk_points,
    _grid_laplacian,
    _integrand_chunks,
    _jets,
    _linear_fraction,
    _oriented_normals,
    _require_periodic_grid,
    _second_form,
    _work_buffers,
    laplace_beltrami,  # re-exported: callers import it from this module
    mobius_apply,
    random_mobius,
    # Not called here: perfbench's tracer patches this willmore name.
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
# Longest run that np.sum adds without splitting it (NumPy's PW_BLOCKSIZE).
_PAIRWISE_LEAF = 128
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


def _pairwise_sums(chunks, rows: int, total: int, block: int) -> np.ndarray:
    """``np.sum`` of each of ``rows`` rows of ``total`` values, streamed.

    ``chunks`` yields (rows, k) arrays, the next k values of every row.
    ``tree`` follows NumPy's pairwise split (the first n // 2 - (n // 2) % 8
    values, then the rest, while n > ``_PAIRWISE_LEAF``) down to leaves of
    at most ``max(block, _PAIRWISE_LEAF)`` values, which ``np.sum`` sums
    bit for bit, so each row's sum is ``np.sum``'s. One leaf is buffered,
    filled from ``chunks`` when reached, plus one sum per level: at most
    log2(total / 112) levels rounded up, 18 for ``GRID_NODE_MAX`` nodes.
    """
    limit = max(block, _PAIRWISE_LEAF)
    buf = np.zeros((rows, min(total, limit)))
    rest = buf[:, :0]  # values taken from the stream and not yet buffered

    def tree(n):
        nonlocal rest
        if n > limit:
            half = n // 2 - n // 2 % 8
            return tree(half) + tree(n - half)
        filled = 0
        while filled < n:
            if not rest.shape[1]:
                rest = next(chunks)
            take = min(n - filled, rest.shape[1])
            buf[:, filled : filled + take] = rest[:, :take]
            rest = rest[:, take:]
            filled += take
        return np.add.reduce(buf[:, :n], axis=-1)  # = np.sum

    sums = tree(total)
    del tree  # a cycle through its closure would hold the walk's buffers until gc
    return sums


def _chunked_integral(
    patch: ImmersionPatch, grid: QuadratureGrid, integrand, fractions=None
) -> list[Optional[float]]:
    """Quadrature of ``integrand(rho_sq, sqrt_g, chunk)`` = f sqrt g, per image.

    One value for the patch itself, or one per linear fraction of
    ``fractions``, walked together (``immersion._integrand_chunks``);
    None for an image the walk flagged at the pole guard. The kernel's
    fields arrive one chunk at a time, one row per image, ``chunk``
    being the slice of flat node indices they belong to; f sqrt g times
    the chunk's weights is streamed into :func:`_pairwise_sums`, which
    gives each image the bits of ``np.sum`` over one node-sized density
    row without holding that row: one chunk's buffer, 18 levels at most.
    """
    if not grid.matches_domain(patch.domain):
        raise ValueError("grid does not cover the patch domain")
    rows = 1 if fractions is None else len(fractions)
    grazed = ()

    def density(start, stop, grazing, rho_sq, sqrt_g, _):
        nonlocal grazed
        grazed = grazing  # the walk's flags only ever turn on, so the last hold them all
        return integrand(rho_sq, sqrt_g, slice(start, stop)) * grid.weights(start, stop)

    # starmap keeps no chunk past its density, unlike a loop variable, so
    # a chunk's fields are freed before the next chunk is taken.
    densities = starmap(density, _integrand_chunks(patch, grid, fractions))
    sums = _pairwise_sums(densities, rows, grid.node_total, _chunk_points(patch) // rows)
    return [None if g else float(s) / patch.cover_multiplicity for s, g in zip(sums, grazed)]


def willmore_energy(patch: ImmersionPatch, grid: QuadratureGrid) -> float:
    """Quadrature value of the bending energy: integral of rho^n.

    Uses exact chart derivatives when the patch provides them and
    divides by the chart's cover multiplicity, so doubled charts report
    the energy of the underlying submanifold.
    """
    power = patch.n / 2.0
    return _chunked_integral(patch, grid, lambda rho_sq, sqrt_g, _: rho_sq**power * sqrt_g)[0]


def mobius_energies(
    patch: ImmersionPatch, grid: QuadratureGrid, maps: list[MobiusMap]
) -> list[Optional[float]]:
    """Bending energy of the image of ``patch`` under each conformal map.

    Each entry equals ``willmore_energy(mobius_apply(mob, patch), grid)``
    bit for bit, or is None where that raises :class:`PoleError` from the
    pointwise pole guard at a grid node. The maps are not probed first;
    the coarse clearance check of ``mobius_apply`` is the caller's. The
    maps are walked in groups, each group in one pass over the grid by
    the reduction of :func:`willmore_energy`, which streams each map's
    densities into its own pairwise sum; a map that grazes the pole is
    walked to the end and dropped there. A group holds at most
    ``_chunk_points(patch)`` maps, so that every map gets at least one
    node per chunk; memory follows the chunk, not the number of maps or
    of nodes. Needs a patch with exact jets.
    """
    if any(mob.ambient_dim != patch.ambient_dim for mob in maps):
        raise ValueError("ambient dimensions do not match")
    power = patch.n / 2.0

    def energy(rho_sq, sqrt_g, _):
        return rho_sq**power * sqrt_g

    per_group = _chunk_points(patch)
    fractions = [_linear_fraction(mob) for mob in maps]
    energies: list[Optional[float]] = []
    for first in range(0, len(maps), per_group):
        energies += _chunked_integral(patch, grid, energy, fractions[first : first + per_group])
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
    return _chunked_integral(patch, grid, lambda _, sqrt_g, chunk: flat[chunk] * sqrt_g)[0]


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

    For critical (Willmore) charts the Simons-type inequality makes it
    nonpositive, with no condition on rho^2, and it is exactly zero on
    the constant-shape examples at the threshold (the Willmore tori and
    the Veronese surface). The window 0 <= rho^2 <= C belongs only to the
    rigidity corollary, where it forces rho = 0 or rho^2 = C. A chart
    that is not critical can read positive: +0.182 for the central
    projection of the ellipsoid with semi-axes (0.5, 0.5, 0.55).
    """
    threshold = pinching_threshold(patch.n, patch.p, mode)
    power = patch.n / 2.0
    return _chunked_integral(
        patch, grid, lambda rho_sq, sqrt_g, _: rho_sq**power * (threshold - rho_sq) * sqrt_g
    )[0]


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


def _surface_fields(patch: ImmersionPatch, pts: np.ndarray, work):
    """Signed H, S, sqrt g and coef of a surface in S^3 at chart points.

    The frame-free kernel :func:`_second_form` (into ``work``) gives h
    as ambient normal vectors in a Gram-Schmidt tangent frame, so
    S = sum_ab |h_ab|^2 and the mean curvature vector is trace(h) / 2;
    the signed H is its dot with the normal of :func:`_oriented_normals`.
    ``coef`` is the kernel's R^{-1}, so g^{-1} = coef^T coef. A rank error
    names the index in ``pts``.
    """
    x, first, second = _jets(patch, pts, FD_STEP)
    tangent, coef, sqrt_g, h = _second_form(x, first, second, work)
    basis = np.concatenate([tangent.transpose(2, 1, 0), x[:, :, None]], axis=2)
    # Freed before the normal is completed, where the sweep peaks.
    del x, first, tangent
    normal = _oriented_normals(patch, pts, basis)[:, :, 0]
    mean = np.einsum("ciiN->cN", h.reshape(len(pts), 2, 2, -1)) / 2.0
    return np.einsum("cj,cj->c", mean, normal), np.einsum("cpj,cpj->c", h, h), sqrt_g, coef


def el_residual_surface(patch: ImmersionPatch, grid: QuadratureGrid) -> SurfaceResidual:
    """Pointwise residual Delta H + H (S - 2 H^2) for a surface chart.

    Needs n = 2 and codimension 1 (so the normal Laplacian collapses to
    the scalar Laplace-Beltrami of the signed mean curvature) and a
    fully periodic chart for the discrete Laplacian. H, S, sqrt g and
    g^{-1} come from :func:`_surface_fields`, run on the rows the
    row-blocked Laplacian asks for, in pieces of at most
    ``_chunk_points(patch)`` nodes sliced from ``grid.points()``, with one
    set of work buffers for the whole sweep; no frame beyond the
    kernel's is built and no metric is inverted. H (S - 2 H^2) is added
    per block, so the fields follow the block and only the result is
    node-sized. A rank error names the node's flat index, also in a halo
    row.
    """
    if patch.n != 2:
        raise ValueError("surface residual needs a 2-dimensional patch")
    if patch.p != 1:
        raise ValueError("surface residual needs codimension 1")
    _require_periodic_grid(patch, grid)
    pts = grid.points()
    row = grid.node_total // grid.counts[0]
    size = _chunk_points(patch)
    work = _work_buffers(size, patch.n, patch.ambient_dim)

    def rows(start, stop):
        lo, hi = start * row, stop * row
        h_signed, s_field, sqrt_g = np.empty(hi - lo), np.empty(hi - lo), np.empty(hi - lo)
        ginv = np.empty((hi - lo, 2, 2))
        for first in range(lo, hi, size):
            last = min(first + size, hi)
            try:
                h, s, sg, coef = _surface_fields(patch, pts[first:last], work)
            except RankError as exc:
                raise RankError(first + exc.index, exc.smin) from None
            piece = slice(first - lo, last - lo)
            h_signed[piece], s_field[piece], sqrt_g[piece] = h, s, sg
            np.matmul(coef.transpose(0, 2, 1), coef, out=ginv[piece])
        shape = (stop - start,) + grid.shape[1:]
        return (h_signed.reshape(shape), sqrt_g.reshape(shape),
                ginv.reshape(shape + (2, 2)), s_field.reshape(shape))

    values = np.empty(grid.shape)
    peaks = []
    for start, stop, lap, (h_signed, _, _, s_field) in _grid_laplacian(patch, rows, grid):
        # lap + H (S - 2 H^2), one operation at a time in place.
        block = values[start:stop]
        np.square(h_signed, out=block)
        block *= 2.0
        np.subtract(s_field, block, out=block)
        block *= h_signed
        block += lap
        peaks.append(np.max(np.abs(block)))
    return SurfaceResidual(values=values, max_norm=float(np.max(peaks)))


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
