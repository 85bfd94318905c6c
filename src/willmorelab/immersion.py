"""Charts into the unit sphere and their pointwise curvature data.

An :class:`ImmersionPatch` wraps an evaluator u -> x(u) whose image lies
on the unit sphere S^{ambient_dim - 1}. From first and second parameter
derivatives (closed-form jets when the patch carries them, second-order
central finite differences otherwise) :func:`shape_data` produces the
chart metric, an orthonormal tangent frame, a completed normal frame,
the shape operators h^a in that frame, and the scalar invariants

    H^a = trace(h^a)/n,   H = |H^a|,   S = sum_a N(h^a),
    rho^2 = S - n H^2.

The normal-frame gauge is not matched between neighboring points; any
quantity compared across points must be gauge invariant (H, S, rho^2,
eigenvalues of sum_a (h^a)^2, the metric). The one exception is
codimension 1, where the unit normal is fixed by orientation and varies
continuously along the chart.

Evaluators and jets must broadcast over leading axes: input (..., n),
output (..., ambient_dim). All catalog charts do.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .grids import AxisInterval, QuadratureGrid
from .linalg import OrthogonalFrame, SymmetricMatrix
from .tensors import ShapeFamily

__all__ = [
    "ImmersionPatch",
    "ShapeData",
    "ShapeBatch",
    "MobiusMap",
    "PoleError",
    "shape_data",
    "shape_batch",
    "scalar_curvature",
    "laplace_beltrami",
    "grid_gradient_pairing",
    "mobius_apply",
    "random_mobius",
    "sample_safe_points",
]

FD_STEP_MIN = 1e-7
FD_STEP_MAX = 1e-2
RANK_TOL = 1e-6
UNIT_TOL = 1e-10
# Minimum spherical distance the patch image must keep from the
# stereographic pole when a conformal map is applied.
POLE_CLEARANCE = 0.1

JetFn = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class ImmersionPatch:
    """A parametrized piece of a submanifold of the unit sphere.

    ``evaluator`` maps parameter points to ambient unit vectors.
    ``exact_jet``, when present, returns (x, first, second) derivatives in
    closed form and is preferred by every consumer. ``fd_safe`` is the
    sub-box of the domain where finite differencing is well conditioned
    (away from chart poles); quadrature nodes are not restricted to it.
    ``cover_multiplicity`` counts how often the chart covers the image.

    ``normal_hint``, for codimension-1 patches that know a smooth
    co-normal field, maps chart points to ambient vectors with positive
    dot against the intended unit normal. It pins the sign of the
    computed normal globally; without it the sign follows the chart
    orientation, which cannot be globally consistent on charts whose
    sheets cover the image with opposite orientations (a torus chart
    doubling a 2-sphere has no orientation-compatible gauge at all).
    """

    n: int
    ambient_dim: int
    domain: tuple[AxisInterval, ...]
    evaluator: Callable[[np.ndarray], np.ndarray]
    cover_multiplicity: int = 1
    exact_jet: Optional[JetFn] = None
    fd_safe: tuple[tuple[float, float], ...] = ()
    name: str = ""
    normal_hint: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("parameter dimension must be >= 1")
        if len(self.domain) != self.n:
            raise ValueError("need one axis interval per parameter")
        if self.ambient_dim < self.n + 2:
            raise ValueError("ambient dimension must exceed n + 1 (codimension >= 1)")
        if self.cover_multiplicity < 1:
            raise ValueError("cover multiplicity must be >= 1")
        if not self.fd_safe:
            margin = [
                (ax.lo + 0.05 * ax.length, ax.hi - 0.05 * ax.length) for ax in self.domain
            ]
            object.__setattr__(self, "fd_safe", tuple(margin))
        if len(self.fd_safe) != self.n:
            raise ValueError("need one fd_safe interval per parameter")

    @property
    def p(self) -> int:
        """Codimension inside the sphere."""
        return self.ambient_dim - self.n - 1

    def safe_center(self) -> np.ndarray:
        return np.array([0.5 * (lo + hi) for lo, hi in self.fd_safe])

    def exact_shape(self, u, step: float = 1e-4) -> "ShapeData":
        """Closed-form shape data; only for patches carrying exact jets."""
        if self.exact_jet is None:
            raise ValueError("patch has no exact jet")
        return shape_data(self, u, step=step, use_exact=True)


@dataclass(frozen=True)
class ShapeData:
    """Second-order data of an immersion at one chart point."""

    position: np.ndarray
    metric: SymmetricMatrix
    tangent_frame: OrthogonalFrame
    normal_frame: OrthogonalFrame
    second_fundamental: ShapeFamily
    mean_vector: np.ndarray
    mean_norm: float
    S: float
    rho_sq: float

    def __post_init__(self) -> None:
        if self.rho_sq < -1e-10:
            raise ValueError(f"rho_sq = {self.rho_sq:.3e} is negative beyond tolerance")
        if abs(self.mean_norm - float(np.linalg.norm(self.mean_vector))) > 1e-12:
            raise ValueError("mean_norm does not match mean_vector")
        t = self.tangent_frame.vectors
        m = self.normal_frame.vectors
        x = self.position
        worst = max(
            float(np.max(np.abs(t @ m.T))),
            float(np.max(np.abs(t @ x))),
            float(np.max(np.abs(m @ x))),
        )
        if worst > 1e-9:
            raise ValueError(f"frames are not orthogonal to the position ({worst:.3e})")

    @property
    def n(self) -> int:
        return self.second_fundamental.n

    @property
    def p(self) -> int:
        return self.second_fundamental.p

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "metric": self.metric.data.tolist(),
            "h": [m.data.tolist() for m in self.second_fundamental.matrices],
            "H_vec": self.mean_vector.tolist(),
            "H": self.mean_norm,
            "S": self.S,
            "rho_sq": self.rho_sq,
        }


@dataclass(frozen=True)
class ShapeBatch:
    """Vectorized shape data over a batch of chart points."""

    points: np.ndarray  # (M, n)
    x: np.ndarray  # (M, N)
    tangent: np.ndarray  # (M, N, n), orthonormal columns
    normal: np.ndarray  # (M, N, p)
    metric: np.ndarray  # (M, n, n)
    sqrt_g: np.ndarray  # (M,)
    h: np.ndarray  # (M, p, n, n)
    mean_vector: np.ndarray  # (M, p)
    mean_norm: np.ndarray  # (M,)
    S: np.ndarray  # (M,)
    rho_sq: np.ndarray  # (M,)


def _fd_jets(evaluator, pts: np.ndarray, step: float):
    """Second-order central differences of the evaluator at each point."""
    m, n = pts.shape
    offsets = [np.zeros(n)]
    for a in range(n):
        e = np.zeros(n)
        e[a] = step
        offsets.append(e)
        offsets.append(-e)
    pair_index = {}
    for a in range(n):
        for b in range(a + 1, n):
            ea = np.zeros(n)
            ea[a] = step
            eb = np.zeros(n)
            eb[b] = step
            pair_index[(a, b)] = len(offsets)
            offsets.extend([ea + eb, ea - eb, -ea + eb, -ea - eb])
    off = np.stack(offsets)  # (K, n)
    stacked = (pts[None, :, :] + off[:, None, :]).reshape(-1, n)
    values = np.asarray(evaluator(stacked), dtype=float)
    values = values.reshape(len(offsets), m, -1)
    x = values[0]
    nd = values.shape[-1]
    first = np.empty((m, n, nd))
    second = np.empty((m, n, n, nd))
    for a in range(n):
        fp, fm = values[1 + 2 * a], values[2 + 2 * a]
        first[:, a] = (fp - fm) / (2.0 * step)
        second[:, a, a] = (fp - 2.0 * x + fm) / (step * step)
    for (a, b), k in pair_index.items():
        mixed = (values[k] - values[k + 1] - values[k + 2] + values[k + 3]) / (
            4.0 * step * step
        )
        second[:, a, b] = mixed
        second[:, b, a] = mixed
    return x, first, second


def _complete_normals(basis: np.ndarray, p: int) -> np.ndarray:
    """Extend orthonormal columns to p more, preferring coordinate axes.

    For each new vector the standard basis vector with the largest
    residual against the current span is selected (ties go to the lowest
    index), projected, and normalized. Deterministic.
    """
    m, nd, _ = basis.shape
    current = basis
    added = []
    for _ in range(p):
        res = 1.0 - np.einsum("mcj,mcj->mc", current, current)
        idx = np.argmax(res, axis=1)
        v = np.zeros((m, nd))
        v[np.arange(m), idx] = 1.0
        for _ in range(2):
            coef = np.einsum("mc,mcj->mj", v, current)
            v = v - np.einsum("mj,mcj->mc", coef, current)
        norms = np.linalg.norm(v, axis=1)
        if np.min(norms) < 1e-8:
            raise ValueError("failed to complete the normal frame")
        v = v / norms[:, None]
        added.append(v)
        current = np.concatenate([current, v[:, :, None]], axis=2)
    return np.stack(added, axis=2)  # (M, N, p)


def _validate_step(step: float) -> None:
    if not (FD_STEP_MIN <= step <= FD_STEP_MAX):
        raise ValueError(
            f"finite-difference step {step:g} outside [{FD_STEP_MIN:g}, {FD_STEP_MAX:g}]"
        )


def shape_batch(
    patch: ImmersionPatch,
    points,
    step: float = 1e-4,
    use_exact: bool = True,
) -> ShapeBatch:
    """Shape data for a batch of chart points; see :func:`shape_data`."""
    _validate_step(step)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != patch.n:
        raise ValueError(f"points must have {patch.n} coordinates")
    exact = use_exact and patch.exact_jet is not None
    for a, ax in enumerate(patch.domain):
        if ax.periodic:
            continue
        margin = 0.0 if exact else step
        lo, hi = ax.lo + margin, ax.hi - margin
        if np.any(pts[:, a] <= lo) or np.any(pts[:, a] >= hi):
            raise ValueError(
                f"axis {a}: points must lie strictly inside [{ax.lo}, {ax.hi}]"
                + ("" if exact else " with a one-step margin for differencing")
            )
    if exact:
        x, first, second = patch.exact_jet(pts)
        x = np.asarray(x, dtype=float)
        first = np.asarray(first, dtype=float)
        second = np.asarray(second, dtype=float)
    else:
        x, first, second = _fd_jets(patch.evaluator, pts, step)
    unit_err = np.max(np.abs(np.einsum("mj,mj->m", x, x) - 1.0))
    if unit_err > UNIT_TOL:
        raise ValueError(f"patch image leaves the unit sphere by {unit_err:.3e}")

    jac = first.transpose(0, 2, 1)  # (M, N, n)
    q, r = np.linalg.qr(jac)
    sign = np.sign(np.diagonal(r, axis1=1, axis2=2))
    sign = np.where(sign == 0.0, 1.0, sign)
    q = q * sign[:, None, :]
    r = r * sign[:, :, None]
    smin = np.linalg.svd(r, compute_uv=False)[:, -1]
    bad = np.nonzero(smin < RANK_TOL)[0]
    if bad.size:
        raise ValueError(
            f"chart differential is rank deficient at point index {bad[0]} "
            f"(smallest singular value {smin[bad[0]]:.3e})"
        )
    metric = np.einsum("mja,mjb->mab", jac, jac)
    sqrt_g = np.prod(np.diagonal(r, axis1=1, axis2=2), axis=1)

    basis = np.concatenate([q, x[:, :, None]], axis=2)
    normal = _complete_normals(basis, patch.p)
    if patch.p == 1:
        # Codimension one: the normal line is unique, only its sign is
        # free. A patch-supplied reference field gives a globally smooth
        # gauge; otherwise fall back to the chart orientation, which is
        # continuous wherever the chart does not fold.
        if patch.normal_hint is not None:
            ref = np.asarray(patch.normal_hint(pts), dtype=float)
            dots = np.einsum("mj,mj->m", normal[:, :, 0], ref)
            if np.any(np.abs(dots) < 1e-8):
                raise ValueError("normal_hint is orthogonal to the normal line")
            flip = np.sign(dots)
        else:
            full = np.concatenate([basis, normal], axis=2)
            flip = np.sign(np.linalg.det(full))
        normal = normal * flip[:, None, None]

    b_coord = np.einsum("mabj,mjp->mpab", second, normal)
    rt = r.transpose(0, 2, 1)[:, None]
    half = np.linalg.solve(rt, b_coord)
    h = np.linalg.solve(rt, half.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2)
    h = 0.5 * (h + h.transpose(0, 1, 3, 2))

    mean_vector = np.einsum("mpii->mp", h) / patch.n
    mean_norm = np.linalg.norm(mean_vector, axis=1)
    s_val = np.einsum("mpij,mpij->m", h, h)
    rho_sq = s_val - patch.n * mean_norm**2
    return ShapeBatch(
        points=pts,
        x=x,
        tangent=q,
        normal=normal,
        metric=metric,
        sqrt_g=sqrt_g,
        h=h,
        mean_vector=mean_vector,
        mean_norm=mean_norm,
        S=s_val,
        rho_sq=rho_sq,
    )


def shape_data(
    patch: ImmersionPatch,
    u,
    step: float = 1e-4,
    use_exact: bool = True,
) -> ShapeData:
    """Full second-order shape data at a single chart point.

    The tangent frame is the Gram-Schmidt orthonormalization of the
    coordinate derivatives (first vector along d_1 x); the normal frame
    completes tangent frame plus position to an ambient orthonormal
    basis. Exact jets are used when the patch has them and ``use_exact``
    is left on; otherwise central differences with the given step.
    """
    sb = shape_batch(patch, np.asarray(u, dtype=float)[None, :], step=step, use_exact=use_exact)
    fam = ShapeFamily(
        patch.n, patch.p, tuple(SymmetricMatrix(sb.h[0, a]) for a in range(patch.p))
    )
    return ShapeData(
        position=sb.x[0],
        metric=SymmetricMatrix(sb.metric[0]),
        tangent_frame=OrthogonalFrame(sb.tangent[0].T),
        normal_frame=OrthogonalFrame(sb.normal[0].T),
        second_fundamental=fam,
        mean_vector=sb.mean_vector[0],
        mean_norm=float(sb.mean_norm[0]),
        S=float(sb.S[0]),
        rho_sq=float(sb.rho_sq[0]),
    )


def scalar_curvature(sd: ShapeData) -> float:
    """Intrinsic scalar curvature, normalized so round S^n(1) gives 1.

    R = 1 + (n^2 H^2 - S) / (n (n - 1)); undefined for curves.
    """
    n = sd.n
    if n < 2:
        raise ValueError("scalar curvature needs n >= 2")
    h2 = sd.mean_norm**2
    return 1.0 + (n * n * h2 - sd.S) / (n * (n - 1.0))


def _periodic_partial(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    return (np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)) / (2.0 * h)


def _metric_fields(sb: ShapeBatch, grid: QuadratureGrid):
    n = grid.ndim
    ginv = np.linalg.inv(sb.metric.reshape(grid.shape + (n, n)))
    return ginv, sb.sqrt_g.reshape(grid.shape)


def _grid_laplacian(sb: ShapeBatch, f: np.ndarray, grid: QuadratureGrid) -> np.ndarray:
    """Laplace-Beltrami of a grid function from the shape batch of the grid's nodes."""
    ginv, sg = _metric_fields(sb, grid)
    n = grid.ndim
    spacings = [grid.spacing(a) for a in range(n)]
    partials = [_periodic_partial(f, a, spacings[a]) for a in range(n)]
    div = np.zeros_like(f)
    for a in range(n):
        flux = sg * sum(ginv[..., a, b] * partials[b] for b in range(n))
        div = div + _periodic_partial(flux, a, spacings[a])
    return div / sg


def _require_periodic_grid(patch: ImmersionPatch, grid: QuadratureGrid) -> None:
    if not grid.matches_domain(patch.domain):
        raise ValueError("grid does not cover the patch domain")
    for a, ax in enumerate(grid.axes):
        if not ax.periodic:
            raise ValueError(f"axis {a} is not periodic; boundary treatment is out of scope")
        if grid.counts[a] < 8:
            raise ValueError("need at least 8 nodes per axis")


def laplace_beltrami(
    patch: ImmersionPatch,
    f: np.ndarray,
    grid: QuadratureGrid,
    step: float = 1e-4,
) -> np.ndarray:
    """Discrete Laplace-Beltrami of a grid function on a periodic chart.

    Divergence form (1/sqrt g) d_a (sqrt g g^{ab} d_b f) with centered
    differences throughout; exact for constants, second-order accurate,
    and skew-consistent with :func:`grid_gradient_pairing` so discrete
    integration by parts holds to roundoff.
    """
    values = np.asarray(f, dtype=float)
    _require_periodic_grid(patch, grid)
    if values.shape != grid.shape:
        raise ValueError(f"grid function has shape {values.shape}, expected {grid.shape}")
    sb = shape_batch(patch, grid.points(), step=step, use_exact=True)
    return _grid_laplacian(sb, values, grid)


def grid_gradient_pairing(
    patch: ImmersionPatch,
    f: np.ndarray,
    g: np.ndarray,
    grid: QuadratureGrid,
    step: float = 1e-4,
) -> float:
    """Discrete Dirichlet pairing: integral of <grad f, grad g> dv."""
    fv = np.asarray(f, dtype=float)
    gv = np.asarray(g, dtype=float)
    _require_periodic_grid(patch, grid)
    if fv.shape != grid.shape or gv.shape != grid.shape:
        raise ValueError("grid functions must match the grid shape")
    sb = shape_batch(patch, grid.points(), step=step, use_exact=True)
    ginv, sg = _metric_fields(sb, grid)
    spacings = [grid.spacing(a) for a in range(grid.ndim)]
    df = [_periodic_partial(fv, a, spacings[a]) for a in range(grid.ndim)]
    dg = [_periodic_partial(gv, a, spacings[a]) for a in range(grid.ndim)]
    density = np.zeros_like(fv)
    for a in range(grid.ndim):
        for b in range(grid.ndim):
            density = density + ginv[..., a, b] * df[a] * dg[b]
    cell = float(np.prod(spacings))
    return float(np.sum(density * sg) * cell) / patch.cover_multiplicity


@dataclass(frozen=True)
class MobiusMap:
    """Conformal transformation of the unit sphere.

    Acts as: rotate, stereographically project from ``pole``, apply the
    affine map w -> dilation * w + translation in the projection plane,
    and project back. ``translation`` must lie in the plane orthogonal
    to the pole.
    """

    rotation: np.ndarray
    dilation: float
    translation: np.ndarray
    pole: np.ndarray

    def __post_init__(self) -> None:
        rot = np.array(self.rotation, dtype=float)
        nd = rot.shape[0]
        if rot.shape != (nd, nd):
            raise ValueError("rotation must be square")
        if np.max(np.abs(rot.T @ rot - np.eye(nd))) > 1e-12:
            raise ValueError("rotation is not orthogonal")
        if not self.dilation > 0.0:
            raise ValueError("dilation must be positive")
        pole = np.array(self.pole, dtype=float)
        if pole.shape != (nd,) or abs(np.linalg.norm(pole) - 1.0) > 1e-12:
            raise ValueError("pole must be an ambient unit vector")
        b = np.array(self.translation, dtype=float)
        if b.shape != (nd,):
            raise ValueError("translation must be an ambient vector")
        if abs(float(b @ pole)) > 1e-10:
            raise ValueError("translation must be orthogonal to the pole")
        for name, arr in (("rotation", rot), ("translation", b), ("pole", pole)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def ambient_dim(self) -> int:
        return self.pole.shape[0]


class PoleError(ValueError):
    """A conformal image passes too close to the stereographic pole."""


def _mobius_point_map(mob: MobiusMap, y: np.ndarray, guard: float) -> np.ndarray:
    align = y @ mob.pole
    closest = np.max(align)
    if closest > 1.0 - guard:
        raise PoleError("patch image passes too close to the stereographic pole")
    denom = 1.0 - align
    w = (y - align[..., None] * mob.pole) / denom[..., None]
    w = mob.dilation * w + mob.translation
    t = np.einsum("...j,...j->...", w, w)
    return (2.0 * w + (t - 1.0)[..., None] * mob.pole) / (t + 1.0)[..., None]


def mobius_apply(mob: MobiusMap, patch: ImmersionPatch, check_samples: int = 6) -> ImmersionPatch:
    """Compose a patch with a conformal map of the ambient sphere.

    The image must keep spherical distance >= 0.1 from the pole; this is
    checked on a coarse sample grid up front and guarded pointwise (at
    half the clearance) inside the returned evaluator. The result keeps
    the domain and cover multiplicity but loses exact jets.
    """
    if mob.ambient_dim != patch.ambient_dim:
        raise ValueError("ambient dimensions do not match")
    axes_samples = [
        np.linspace(lo, hi, check_samples) for (lo, hi) in patch.fd_safe
    ]
    mesh = np.meshgrid(*axes_samples, indexing="ij")
    probe = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    y = np.asarray(patch.evaluator(probe), dtype=float) @ mob.rotation.T
    worst = np.max(y @ mob.pole)
    if worst > np.cos(POLE_CLEARANCE):
        raise PoleError(
            "patch image passes too close to the stereographic pole "
            f"(min spherical distance {np.arccos(min(1.0, worst)):.4f} < {POLE_CLEARANCE})"
        )
    guard = 1.0 - np.cos(0.5 * POLE_CLEARANCE)
    base_eval = patch.evaluator
    rot_t = mob.rotation.T

    def evaluator(u):
        y = np.asarray(base_eval(u), dtype=float) @ rot_t
        return _mobius_point_map(mob, y, guard)

    label = f"mobius({patch.name})" if patch.name else "mobius"
    # The source patch's co-normal reference does not transform with the
    # map, so the image patch falls back to the orientation gauge.
    return replace(patch, evaluator=evaluator, exact_jet=None, name=label, normal_hint=None)


def random_mobius(
    ambient_dim: int,
    rng: np.random.Generator,
    dilation_range: tuple[float, float] = (0.5, 2.0),
    translation_max: float = 0.5,
) -> MobiusMap:
    """Draw a random conformal map (Haar rotation, log-uniform dilation)."""
    g = rng.standard_normal((ambient_dim, ambient_dim))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))
    pole = rng.standard_normal(ambient_dim)
    pole = pole / np.linalg.norm(pole)
    lo, hi = dilation_range
    lam = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
    b = rng.standard_normal(ambient_dim)
    b = b - (b @ pole) * pole
    b = b / np.linalg.norm(b) * rng.uniform(0.0, translation_max)
    return MobiusMap(rotation=q, dilation=lam, translation=b, pole=pole)


def sample_safe_points(patch: ImmersionPatch, rng: np.random.Generator, count: int) -> np.ndarray:
    """Uniform parameter samples inside the finite-difference safe box."""
    lo = np.array([b[0] for b in patch.fd_safe])
    hi = np.array([b[1] for b in patch.fd_safe])
    return rng.uniform(lo, hi, size=(count, patch.n))
