"""Charts into the unit sphere and their pointwise curvature data.

An :class:`ImmersionPatch` wraps an evaluator u -> x(u) whose image lies
on the unit sphere S^{ambient_dim - 1}. From first and second parameter
derivatives :func:`shape_data` produces the chart metric, an orthonormal
tangent frame, a completed normal frame, the shape operators h^a in that
frame, and the scalar invariants

    H^a = trace(h^a)/n,   H = |H^a|,   S = sum_a N(h^a),
    rho^2 = S - n H^2.

The normal-frame gauge is not matched between neighboring points; any
quantity compared across points must be gauge invariant (H, S, rho^2,
eigenvalues of sum_a (h^a)^2, the metric). The one exception is
codimension 1, where the unit normal varies continuously along the
chart: the orientation, turned over past the fold of a doubled chart,
fixes it up to one sign per chart, and the patch's ``normal_hint``
picks that sign.

The patch decides how its derivatives are taken: its closed-form jets
when it carries them, second-order central differences otherwise. No
caller switches between the two. Quadratures difference jet-free patches
at ``FD_STEP``; only :func:`shape_batch` and :func:`shape_data` take a
step, for studies of the finite-difference order.

Three paths share one core, ``_second_form`` (the guards, a
Gram-Schmidt frame, and h_ij as ambient normal vectors):

* :func:`shape_batch` adds the frames above. Only :func:`shape_data`
  uses it (the ``shape`` command and the Veronese reference point).
* The surface residual (``willmore._surface_fields``) takes S and the
  mean curvature vector straight from h, and of the frames only the
  oriented normal of ``_oriented_normals``, the one codimension-1
  gauge, which :func:`shape_batch` uses too.
* ``_integrand_chunks`` is the one grid walk of the frame-free kernel
  ``_rho_sq_chunk`` (h reduced to rho^2). It yields rho^2, sqrt g and
  R^{-1} one chunk at a time, for the patch or for many conformal
  images of it, gathering a grid's nodes chunk by chunk, over the whole
  grid or over a range of its flat node indices (the quadrature walks
  the two halves of its pairwise tree apart). A chunk holds
  the largest power of two of points whose second-derivative jet fits
  ``_CHUNK_BYTES`` (1 MiB), within [``_CHUNK_MIN``, ``_CHUNK_MAX``] =
  [256, 2048], and the large products of ``_second_form`` go to work
  buffers allocated once per walk, or over the spent second jet. The
  energy, pinching, grid and conformal integrals stream each chunk
  into ``np.sum``'s pairwise tree, one per image, so their memory
  follows the chunk, not the nodes or the jets of the grid.

The stencils' row sweep, ``_grid_sweep``, walks blocks of grid rows with
a periodic halo and owns their per-node fields: per chunk of nodes its
caller's kernel (``_metric_kernel``, ``_second_form`` without rho^2, for
:func:`laplace_beltrami` and :func:`grid_gradient_pairing`;
``_surface_fields`` for the surface residual) returns f, sqrt g, R^{-1}
and any further fields, using the sweep's one set of work buffers, and
the sweep forms g^{-1}. ``_grid_laplacian`` and the pairing's density
run per block, so only their result is node-sized (for the pairing, the
weighted density it sums: a traced peak of 2.06, 2.94 and 5.10 MiB at
128^2, 256^2 and 512^2 nodes on the Clifford torus).

Conformal images (:func:`mobius_apply`) keep exact jets whenever the
source patch has them. A Moebius map of the sphere acts linearly on the
light cone, so on the sphere it is one linear fraction
z = (A x + a) / (c . x + d), built once per map; the image jets follow
from the source jets by the quotient rule (``_mobius_jets``, one chunk
of source jets through K maps at once), and conformal energies take the
exact-jet path like any catalog chart. Given K fractions,
``_integrand_chunks`` walks the K images together: per chunk the source
jets are taken once, each map takes one product against them, and
``_rho_sq_chunk`` runs once over the stacked (map, node) points, so
every image gets the bits a walk of its own would give. An image that
passes the pointwise pole guard is flagged and keeps its row to the end,
but streams zeros: later chunks take no jets or kernel for it.

Evaluators and jets must broadcast over leading axes: input (..., n),
output (..., ambient_dim). All catalog charts and their conformal images
do.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .grids import AxisInterval, QuadratureGrid
from .linalg import SymmetricMatrix
from .tensors import ShapeFamily

__all__ = [
    "ImmersionPatch",
    "ShapeData",
    "ShapeBatch",
    "MobiusMap",
    "PoleError",
    "RankError",
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
# Central-difference step for patches without exact jets.
FD_STEP = 1e-4
RANK_TOL = 1e-6
UNIT_TOL = 1e-10
# Minimum spherical distance the patch image must keep from the
# stereographic pole when a conformal map is applied.
POLE_CLEARANCE = 0.1
# Pointwise guard of conformal images: every node keeps spherical
# distance POLE_CLEARANCE / 2 from the pole, 1 - p . R x >= _POLE_GUARD.
_POLE_GUARD = 1.0 - np.cos(0.5 * POLE_CLEARANCE)
# Largest deviation of a ShapeData frame's Gram matrix from the identity.
FRAME_TOL = 1e-12
# Chunks of the frame-free integrand kernel: the largest power of two of
# points whose second-derivative jet fits _CHUNK_BYTES, within
# [_CHUNK_MIN, _CHUNK_MAX], so one chunk's jets and work buffers stay
# about a MiB each whatever the chart's dimensions.
_CHUNK_BYTES = 2**20
_CHUNK_MIN = 256
_CHUNK_MAX = 2048
# Fewest rows in a block of the grid Laplacian, so the halo rows it
# reads twice stay a small share of a block.
_BLOCK_ROWS_MIN = 16

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
    dot against the intended unit normal. Without it the sign follows
    the chart orientation, turned over past the fold of a doubled chart,
    which is consistent too and differs from the hinted normal by one
    sign over the whole chart. The catalog's hints keep its sign
    convention (the first factor carries +b/a), and a dot product costs
    less than the orientation determinant.

    ``fold_axes`` lists periodic axes along which the chart doubles back
    at the middle of the interval (a doubled sphere chart). The chart
    differential is singular on the fold, and an odd node count puts a
    grid node there, so grids for the patch need even counts on them.
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
    fold_axes: tuple[int, ...] = ()

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
        if not all(0 <= a < self.n and self.domain[a].periodic for a in self.fold_axes):
            raise ValueError("fold axes must be periodic chart axes")

    @property
    def p(self) -> int:
        """Codimension inside the sphere."""
        return self.ambient_dim - self.n - 1

    def safe_center(self) -> np.ndarray:
        return np.array([0.5 * (lo + hi) for lo, hi in self.fd_safe])

    def exact_shape(self, u) -> "ShapeData":
        """Closed-form shape data; only for patches carrying exact jets."""
        if self.exact_jet is None:
            raise ValueError("patch has no exact jet")
        return shape_data(self, u)


@dataclass(frozen=True)
class ShapeData:
    """Second-order data of an immersion at one chart point.

    ``tangent_frame`` (n, N) and ``normal_frame`` (p, N) hold orthonormal
    rows, checked to :data:`FRAME_TOL` and stored read-only.
    """

    position: np.ndarray
    metric: SymmetricMatrix
    tangent_frame: np.ndarray
    normal_frame: np.ndarray
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
        for name in ("tangent_frame", "normal_frame"):
            frame = np.array(getattr(self, name), dtype=float)
            if frame.ndim != 2 or np.max(np.abs(frame @ frame.T - np.eye(len(frame)))) > FRAME_TOL:
                raise ValueError(f"{name} rows are not orthonormal")
            frame.flags.writeable = False
            object.__setattr__(self, name, frame)
        t, m, x = self.tangent_frame, self.normal_frame, self.position
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


class RankError(ValueError):
    """The chart differential is rank deficient at a chart point.

    ``index`` is the position of the point in the caller's batch and
    ``smin`` the smallest singular value found there.
    """

    def __init__(self, index: int, smin: float) -> None:
        super().__init__(
            f"chart differential is rank deficient at point index {index} "
            f"(smallest singular value {smin:.3e})"
        )
        self.index = index
        self.smin = smin


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
        if len(added) < p:
            current = np.concatenate([current, v[:, :, None]], axis=2)
    return np.stack(added, axis=2)  # (M, N, p)


def _checked_domain(patch: ImmersionPatch, columns, step: float) -> None:
    """Check the coordinates of points the patch's jets will be taken at.

    ``columns[a]`` holds the coordinates on axis a: the columns of a
    point array, or a grid's 1-d nodes. Non-periodic axes need interior
    points, and a one-step margin from their ends when the patch has no
    exact jets and finite differences are taken.
    """
    if len(columns) != patch.n:
        raise ValueError(f"points must have {patch.n} coordinates")
    exact = patch.exact_jet is not None
    for a, ax in enumerate(patch.domain):
        if ax.periodic:
            continue
        margin = 0.0 if exact else step
        lo, hi = ax.lo + margin, ax.hi - margin
        if np.any(columns[a] <= lo) or np.any(columns[a] >= hi):
            raise ValueError(
                f"axis {a}: points must lie strictly inside [{ax.lo}, {ax.hi}]"
                + ("" if exact else " with a one-step margin for differencing")
            )


def _fold_sign(patch: ImmersionPatch, columns):
    """+1 before the middle of each fold axis and -1 past it, multiplied.

    ``columns`` is indexed like in :func:`_checked_domain`; the result
    broadcasts like its entries, and is the scalar 1.0 on charts without
    fold axes. The orientation of a doubled chart and the sign of its
    sqrt g turn over at the fold; this sign turns them back.
    """
    sign = 1.0
    for a in patch.fold_axes:
        ax = patch.domain[a]
        past = (columns[a] - ax.lo) % ax.length >= 0.5 * ax.length
        sign = sign * np.where(past, -1.0, 1.0)
    return sign


def _tangent_gram_schmidt(first: np.ndarray):
    """Modified Gram-Schmidt on the coordinate derivatives of one chunk.

    ``first`` is (c, n, N). Returns the orthonormal tangent vectors
    (n, N, c), R^{-1} (n, n, c) with column a holding the coefficients of
    tangent vector a in the coordinate derivatives, and sqrt(g) = det R.
    Points are the last axis, so every update is one contiguous row.
    A degenerate column leaves inf or NaN behind for the rank check.
    """
    c, n, nd = first.shape
    tangent = np.empty((n, nd, c))
    r_inv = np.zeros((n, n, c))
    sqrt_g = np.ones(c)
    for a in range(n):
        v = first[:, a].T.copy()
        coef = np.zeros((n, c))
        coef[a] = 1.0
        for b in range(a):
            r = np.einsum("jc,jc->c", tangent[b], v)
            v -= r * tangent[b]
            coef -= r * r_inv[:, b]
        norm = np.sqrt(np.einsum("jc,jc->c", v, v))
        tangent[a] = v / norm
        r_inv[:, a] = coef / norm
        sqrt_g *= norm
    return tangent, r_inv, sqrt_g


def _check_rank(first: np.ndarray, r_inv: np.ndarray) -> None:
    """Raise where the chart differential of a chunk falls below RANK_TOL.

    sigma_min(R) >= 1 / |R^{-1}|_F clears most nodes; the rest (NaN
    included) get an exact SVD of the Jacobian. The error names the
    index in the chunk.
    """
    bound = 1.0 / np.sqrt(np.einsum("ijc,ijc->c", r_inv, r_inv))
    unclear = np.flatnonzero(~(bound >= RANK_TOL))
    if not unclear.size:
        return
    jac = first[unclear]
    smin = np.full(unclear.size, np.nan)
    finite = np.isfinite(jac).all(axis=(1, 2))
    smin[finite] = np.linalg.svd(jac[finite], compute_uv=False)[:, -1]
    bad = np.flatnonzero(~(smin >= RANK_TOL))
    if bad.size:
        raise RankError(int(unclear[bad[0]]), smin[bad[0]])


def _jets(patch: ImmersionPatch, pts: np.ndarray, step: float):
    """(x, first, second) at the points: exact jets, or central differences."""
    if patch.exact_jet is None:
        return _fd_jets(patch.evaluator, pts, step)
    return tuple(np.asarray(j, dtype=float) for j in patch.exact_jet(pts))


def _chunk_points(patch: ImmersionPatch) -> int:
    """Points per chunk of the frame-free kernel for this patch."""
    jet_bytes = patch.n * patch.n * patch.ambient_dim * 8
    fit = max(1, _CHUNK_BYTES // jet_bytes)
    return min(_CHUNK_MAX, max(_CHUNK_MIN, 1 << (fit.bit_length() - 1)))


def _work_buffers(c: int, n: int, nd: int) -> tuple[np.ndarray, ...]:
    """Buffers for the products of :func:`_second_form` on up to c points."""
    return (
        np.empty((c, nd, n + 1)),  # tangent frame plus position, as columns
        np.empty((c, n + 1, nd)),  # the same, as rows
        np.empty((c, n, n * nd)),  # R^{-T} x_kl, then the frame part of h
        np.empty((c, n * n, n + 1)),  # h against the frame
    )


def _second_form(x: np.ndarray, first: np.ndarray, second: np.ndarray, work=None):
    """Unit-sphere and rank guards, Gram-Schmidt and h on a chunk of jets.

    Returns the tangent frame (n, N, c), ``coef`` (c, n, n) with row a
    holding column a of R^{-1}, sqrt g and h (c, n * n, N), whose row
    a n + b is the normal part of sum_kl R^{-1}_ka R^{-1}_lb x_kl: the
    second fundamental form in the tangent frame as ambient vectors.
    A rank error names the index in the chunk. h is written over
    ``second``, which is spent once R^{-T} x_kl is taken. ``work`` holds
    :func:`_work_buffers` for at least c points, which the other
    products are written into, so a walk over many chunks reuses one
    set. Without ``work`` the buffers are allocated here.
    """
    unit_err = np.max(np.abs(np.einsum("mj,mj->m", x, x) - 1.0))
    if not unit_err <= UNIT_TOL:
        raise ValueError(f"patch image leaves the unit sphere by {unit_err:.3e}")
    with np.errstate(divide="ignore", invalid="ignore"):
        tangent, r_inv, sqrt_g = _tangent_gram_schmidt(first)
    _check_rank(first, r_inv)
    # Points first from here: the contractions are batched matmuls
    # over tiny matrices, fastest on contiguous operands.
    c, n, nd = first.shape
    if work is None:
        work = _work_buffers(c, n, nd)
    cols, rows, half, along = (buf[:c] for buf in work)
    coef = np.ascontiguousarray(r_inv.transpose(2, 1, 0))
    np.matmul(coef, second.reshape(c, n, n * nd), out=half)
    h = second.reshape(c, n * n, nd)
    np.matmul(coef[:, None], half.reshape(c, n, n, nd), out=h.reshape(c, n, n, nd))
    cols[:, :, :n] = tangent.transpose(2, 1, 0)
    cols[:, :, n] = x
    rows[...] = cols.transpose(0, 2, 1)
    np.matmul(h, cols, out=along)
    h -= np.matmul(along, rows, out=half.reshape(c, n * n, nd))  # half is spent
    return tangent, coef, sqrt_g, h


def _oriented_normals(patch: ImmersionPatch, pts: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The normal frame (M, N, p) completing ``basis``, gauged in codimension 1.

    ``basis`` (M, N, n + 1) holds a tangent frame and the position as
    columns at the chart points ``pts``. Codimension one: the normal
    line is unique, only its sign is free. A patch-supplied reference
    field gives a globally smooth gauge; otherwise fall back to the
    chart orientation, turned over past the fold of a doubled chart.
    """
    normal = _complete_normals(basis, patch.p)
    if patch.p != 1:
        return normal
    if patch.normal_hint is not None:
        ref = np.asarray(patch.normal_hint(pts), dtype=float)
        dots = np.einsum("mj,mj->m", normal[:, :, 0], ref)
        if np.any(np.abs(dots) < 1e-8):
            raise ValueError("normal_hint is orthogonal to the normal line")
        flip = np.sign(dots)
    else:
        full = np.concatenate([basis, normal], axis=2)
        flip = np.sign(np.linalg.det(full)) * _fold_sign(patch, pts.T)
    return normal * flip[:, None, None]


def shape_batch(patch: ImmersionPatch, points, step: float = FD_STEP) -> ShapeBatch:
    """Shape data for a batch of chart points; see :func:`shape_data`.

    :func:`_second_form`, then the normal frame and h^a_ij = <h_ij, nu_a>.
    """
    if not FD_STEP_MIN <= step <= FD_STEP_MAX:
        raise ValueError(
            f"finite-difference step {step:g} outside [{FD_STEP_MIN:g}, {FD_STEP_MAX:g}]"
        )
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    _checked_domain(patch, pts.T, step)
    x, first, second = _jets(patch, pts, step)
    tangent, _, sqrt_g, h = _second_form(x, first, second)
    n = patch.n
    # One Gram-Schmidt pass is orthonormal only up to the conditioning of
    # the chart; a second pass is enough, and its R^{-1} moves h along.
    tangent, r_inv, _ = _tangent_gram_schmidt(tangent.transpose(2, 0, 1))
    coef = r_inv.transpose(2, 1, 0)[:, None]
    tangent = tangent.transpose(2, 1, 0)  # (M, N, n)
    normal = _oriented_normals(patch, pts, np.concatenate([tangent, x[:, :, None]], axis=2))
    h = np.einsum("mkj,mjp->mpk", h, normal).reshape(len(pts), -1, n, n)
    h = coef @ h @ coef.transpose(0, 1, 3, 2)

    mean_vector = np.einsum("mpii->mp", h) / n
    mean_norm = np.linalg.norm(mean_vector, axis=1)
    s_val = np.einsum("mpij,mpij->m", h, h)
    return ShapeBatch(
        points=pts,
        x=x,
        tangent=tangent,
        normal=normal,
        metric=np.einsum("maj,mbj->mab", first, first),
        sqrt_g=sqrt_g,
        h=h,
        mean_vector=mean_vector,
        mean_norm=mean_norm,
        S=s_val,
        rho_sq=s_val - n * mean_norm**2,
    )


def _rho_sq_chunk(x, first, second, work):
    """rho^2, sqrt g and coef of one chunk of jets: the integrand kernel.

    :func:`_second_form` into ``work``, then rho^2 = |h - (trace h / n) I|^2,
    a sum of squares, never negative. The trace-free part is taken first:
    no cancellation against n H^2 near umbilic points.
    """
    _, coef, sqrt_g, h = _second_form(x, first, second, work)
    c, _, nd = h.shape
    n = first.shape[1]
    h[:, :: n + 1] -= np.einsum("ciiN->cN", h.reshape(c, n, n, nd))[:, None] / n
    return np.einsum("cpj,cpj->c", h, h), sqrt_g, coef


def _integrand_chunks(patch: ImmersionPatch, grid, fractions=None, start=0, stop=None):
    """Yield (start, stop, grazing, rho^2, sqrt g, coef) per chunk, without frames.

    The one grid walk of the kernel :func:`_rho_sq_chunk`, over the flat
    node indices [``start``, ``stop``) of the :class:`QuadratureGrid`
    ``grid`` (all of them by default), whose nodes are gathered one chunk
    at a time and checked on its 1-d nodes. Without ``fractions``
    it walks ``patch``. With K linear fractions (:func:`_linear_fraction`)
    it walks the K images in lockstep: per chunk the source jets are
    taken once and :func:`_mobius_jets` maps them through every fraction
    not yet flagged; an empty list walks nothing. ``grazing`` flags each
    image from the first chunk on in which it passes the pointwise pole
    guard of :func:`mobius_apply`. A flagged image keeps its row, which
    streams zeros from the next chunk on: its jets and kernel are no
    longer taken. The coarse pole check is the caller's. Images need
    exact jets.

    rho^2 and sqrt g hold one row per image, bit for bit those of a
    walk of its own wherever the image is not flagged, and ``coef`` is
    R^{-1} of :func:`_second_form` over the stacked (unflagged image,
    node) points, so g^{-1} = coef^T coef. Chunks hold
    ``_chunk_points(patch) // K`` nodes and start at multiples of that
    count, whatever the range, so a node falls in the same chunk in
    every walk that takes it; only the range's ends cut a chunk short.
    One set of :func:`_work_buffers` serves every chunk, so memory
    follows the chunk. No normal frame or sign gauge is built; the
    guards are those of :func:`shape_batch`, and a rank error names the
    node. Patches without exact jets are differenced with step
    ``FD_STEP``. The yielded arrays are the caller's.
    """
    if fractions is not None and patch.exact_jet is None:
        raise ValueError("conformal images are walked together only on charts with exact jets")
    _checked_domain(patch, grid.nodes_1d, FD_STEP)
    images = 1 if fractions is None else len(fractions)
    stop = grid.node_total if stop is None else stop
    if not images or start >= stop:
        return
    size = _chunk_points(patch)
    step = size // images
    work = _work_buffers(min(size, images * (stop - start)), patch.n, patch.ambient_dim)
    grazing = np.zeros(images, dtype=bool)
    for begin in range(start - start % step, stop, step):
        lo, hi = max(begin, start), min(begin + step, stop)
        c = hi - lo
        live = np.flatnonzero(~grazing)
        if not live.size:  # every image is flagged: nothing left to take
            yield lo, hi, grazing, np.zeros((images, c)), np.zeros((images, c)), None
            continue
        jets = _jets(patch, grid.nodes(lo, hi), FD_STEP)
        if fractions is not None:
            align, *jets = _mobius_jets(*jets, [fractions[k] for k in live])
            grazing = grazing.copy()  # a new array: the caller may keep the last one
            grazing[live] |= np.max(align, axis=1) > 1.0 - _POLE_GUARD
            jets = [j.reshape((-1,) + j.shape[2:]) for j in jets]
        try:
            rho_sq, sqrt_g, coef = _rho_sq_chunk(*jets, work)
        except RankError as exc:
            raise RankError(lo + exc.index % c, exc.smin) from None
        # The chunk's jets are freed before the caller's turn and its
        # fields before the next chunk's jets are taken, so no two chunks'
        # arrays are held here at once.
        del jets
        rho_sq, sqrt_g = rho_sq.reshape(-1, c), sqrt_g.reshape(-1, c)
        if live.size < images:  # flagged rows stream zeros
            rows = np.zeros((2, images, c))
            rows[:, live] = rho_sq, sqrt_g
            rho_sq, sqrt_g = rows
        yield lo, hi, grazing, rho_sq, sqrt_g, coef
        del rho_sq, sqrt_g, coef


def shape_data(patch: ImmersionPatch, u, step: float = FD_STEP) -> ShapeData:
    """Full second-order shape data at a single chart point.

    The tangent frame is the Gram-Schmidt orthonormalization of the
    coordinate derivatives (first vector along d_1 x); the normal frame
    completes tangent frame plus position to an ambient orthonormal
    basis. Exact jets are used when the patch has them; otherwise
    central differences with the given step.
    """
    sb = shape_batch(patch, np.asarray(u, dtype=float)[None, :], step=step)
    fam = ShapeFamily(
        patch.n, patch.p, tuple(SymmetricMatrix(sb.h[0, a]) for a in range(patch.p))
    )
    return ShapeData(
        position=sb.x[0],
        metric=SymmetricMatrix(sb.metric[0]),
        tangent_frame=sb.tangent[0].T,
        normal_frame=sb.normal[0].T,
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


def _block_partial(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """:func:`_periodic_partial` of a row block, without its halo.

    ``values`` carries one halo row on each side of axis 0.
    """
    if axis == 0:
        return (values[2:] - values[:-2]) / (2.0 * h)
    return _periodic_partial(values[1:-1], axis, h)


def _grid_sweep(patch: ImmersionPatch, grid: QuadratureGrid, kernel):
    """Blocks of grid rows with the per-node fields of a stencil, halo included.

    The one owner of the stencils' per-node fields. ``kernel(nodes, work)``
    returns f, sqrt g and coef (R^{-1} of :func:`_second_form`, trailing
    n x n), then any further fields, on a slice of at most
    ``_chunk_points(patch)`` flat node indices, using the sweep's one set
    of :func:`_work_buffers`. The sweep forms g^{-1} = coef^T coef and
    makes a rank error name the node's flat index in the grid.

    Yields (start, stop, window) per block of about ``_chunk_points(patch)``
    nodes and at least ``_BLOCK_ROWS_MIN`` rows: f, sqrt g, g^{-1} and the
    further fields on grid rows start-2..stop+1 modulo the row count, each
    shaped (stop - start + 4,) + grid.shape[1:] + its own trailing axes;
    the caller only reads them. A block keeps the four rows it shares with
    the one before it, so the kernel sees every row once, apart from the
    four rows where the sweep wraps around.
    """
    count = grid.counts[0]
    row = grid.node_total // count
    size = _chunk_points(patch)
    work = _work_buffers(min(size, grid.node_total), patch.n, patch.ambient_dim)

    def fields_of(start, stop):
        lo, hi = start * row, stop * row
        fields = []
        for first in range(lo, hi, size):
            try:
                f, sqrt_g, coef, *extra = kernel(slice(first, min(first + size, hi)), work)
            except RankError as exc:
                raise RankError(first + exc.index, exc.smin) from None
            if not fields:
                fields = [np.empty((hi - lo,) + a.shape[1:]) for a in (f, sqrt_g, coef, *extra)]
            piece = slice(first - lo, first - lo + len(f))
            np.matmul(coef.transpose(0, 2, 1), coef, out=fields[2][piece])
            for whole, a in zip(fields[:2] + fields[3:], (f, sqrt_g, *extra)):
                whole[piece] = a
        return [a.reshape((stop - start,) + grid.shape[1:] + a.shape[1:]) for a in fields]

    block = max(_BLOCK_ROWS_MIN, size * count // grid.node_total)
    window = []
    for start in range(0, count, block):
        stop = min(start + block, count)
        # New rows are asked for in runs that do not wrap.
        rows = np.arange(start + 2 if window else start - 2, stop + 2) % count
        runs = np.split(rows, np.flatnonzero(np.diff(rows) < 0) + 1)
        pieces = [[field[-4:] for field in window]] if window else []
        pieces += [fields_of(run[0], run[-1] + 1) for run in runs]
        window = [np.concatenate(field) for field in zip(*pieces)]
        del pieces
        yield start, stop, window


def _grid_laplacian(patch: ImmersionPatch, grid: QuadratureGrid, kernel):
    """Yield (start, stop, lap, fields) per block of :func:`_grid_sweep` with ``kernel``.

    The Laplacian on grid rows start..stop-1, with f, sqrt g, g^{-1} and
    the further fields there. f is read with its two-row halo and the
    metric with one, in the operations of the whole-array stencil in
    their order, so the bits are the same. sqrt g takes the patch's fold
    sign, so on a doubled chart the flux stays smooth across the fold.
    """
    n = grid.ndim
    count = grid.counts[0]
    spacings = [grid.spacing(a) for a in range(n)]
    for start, stop, window in _grid_sweep(patch, grid, kernel):
        values, sg, ginv = window[0], window[1][1:-1], window[2][1:-1]
        if patch.fold_axes:
            inner = np.arange(start - 1, stop + 1) % count
            sg = sg * _fold_sign(patch, np.ix_(grid.nodes_1d[0][inner], *grid.nodes_1d[1:]))
        partials = [_block_partial(values, a, spacings[a]) for a in range(n)]
        # Every flux before any divergence, so the partials are freed first,
        # each flux summed in place in the order of sg * sum_b g^{ab} d_b f.
        fluxes = []
        for a in range(n):
            flux = np.zeros_like(partials[0])
            for b in range(n):
                flux += ginv[..., a, b] * partials[b]
            flux *= sg
            fluxes.append(flux)
        del partials
        div = np.zeros_like(values[2:-2])
        for a in range(n):
            div = div + _block_partial(fluxes[a], a, spacings[a])
        del fluxes
        div /= sg[1:-1]
        yield start, stop, div, [field[2:-2] for field in window]


def _metric_kernel(patch: ImmersionPatch, grid: QuadratureGrid, *functions):
    """The sweep's kernel for grid functions: :func:`_second_form`, no rho^2.

    On each slice of nodes it returns the first function there, sqrt g
    and coef from the nodes' jets, then the other functions there.
    """
    flats = [fn.reshape(-1) for fn in functions]

    def kernel(nodes, work):
        jets = _jets(patch, grid.nodes(nodes.start, nodes.stop), FD_STEP)
        _, coef, sqrt_g, _ = _second_form(*jets, work)
        return flats[0][nodes], sqrt_g, coef, *(flat[nodes] for flat in flats[1:])

    return kernel


def _require_periodic_grid(patch: ImmersionPatch, grid: QuadratureGrid) -> None:
    if not grid.matches_domain(patch.domain):
        raise ValueError("grid does not cover the patch domain")
    for a, ax in enumerate(grid.axes):
        if not ax.periodic:
            raise ValueError(f"axis {a} is not periodic; boundary treatment is out of scope")
        if grid.counts[a] < 8:
            raise ValueError("need at least 8 nodes per axis")


def laplace_beltrami(patch: ImmersionPatch, f: np.ndarray, grid: QuadratureGrid) -> np.ndarray:
    """Discrete Laplace-Beltrami of a grid function on a periodic chart.

    Divergence form (1/sqrt g) d_a (sqrt g g^{ab} d_b f) with centered
    differences throughout; exact for constants, second-order accurate,
    and skew-consistent with :func:`grid_gradient_pairing` so discrete
    integration by parts holds to roundoff on charts without fold axes.
    On a doubled chart sqrt g takes the fold sign sigma
    (:func:`_grid_laplacian`), and integration by parts holds to
    roundoff against sigma sqrt g: the sums of (Delta f) f sigma sqrt g w
    and |grad f|^2 sigma sqrt g w cancel. Against the |sqrt g| of
    :func:`grid_gradient_pairing` and ``grid_integral`` it holds only to
    O(h^2); on ``round_sphere(2, 1, 0.8)`` with f = x_0 the gap is
    0.076, 0.019 and 0.0048 at 32, 64 and 128 nodes per axis.

    The stencil's kernel is :func:`_metric_kernel`, so only the result is
    node-sized; a rank error names the node's flat index in the grid.
    """
    values = np.asarray(f, dtype=float)
    _require_periodic_grid(patch, grid)
    if values.shape != grid.shape:
        raise ValueError(f"grid function has shape {values.shape}, expected {grid.shape}")
    out = np.empty(grid.shape)
    for start, stop, lap, _ in _grid_laplacian(patch, grid, _metric_kernel(patch, grid, values)):
        out[start:stop] = lap
    return out


def grid_gradient_pairing(
    patch: ImmersionPatch, f: np.ndarray, g: np.ndarray, grid: QuadratureGrid
) -> float:
    """Discrete Dirichlet pairing: integral of <grad f, grad g> dv.

    The volume element is |sqrt g|, also on doubled charts, so this is
    the Dirichlet pairing of the underlying submanifold. There discrete
    integration by parts against :func:`laplace_beltrami`, which uses
    the fold-signed sqrt g, holds only to O(h^2).

    The metric comes from the blocks of :func:`_grid_sweep`, with the
    kernel of :func:`laplace_beltrami` and g as one more field; only the
    weighted density, summed by one ``np.sum``, is node-sized.
    """
    fv = np.asarray(f, dtype=float)
    gv = np.asarray(g, dtype=float)
    _require_periodic_grid(patch, grid)
    if fv.shape != grid.shape or gv.shape != grid.shape:
        raise ValueError("grid functions must match the grid shape")
    n = grid.ndim
    spacings = [grid.spacing(a) for a in range(n)]
    kernel = _metric_kernel(patch, grid, fv, gv)
    weighted = np.empty(grid.shape)
    for start, stop, (fw, sg, ginv, gw) in _grid_sweep(patch, grid, kernel):
        # f and g with a one-row halo, the metric on the block's rows.
        df = [_block_partial(fw[1:-1], a, spacings[a]) for a in range(n)]
        dg = [_block_partial(gw[1:-1], a, spacings[a]) for a in range(n)]
        density = np.zeros_like(df[0])
        for a in range(n):
            for b in range(n):
                density = density + ginv[2:-2, ..., a, b] * df[a] * dg[b]
        np.multiply(density, sg[2:-2], out=weighted[start:stop])
    cell = float(np.prod(spacings))
    return float(np.sum(weighted) * cell) / patch.cover_multiplicity


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


def _linear_fraction(mob: MobiusMap) -> tuple[np.ndarray, np.ndarray]:
    """The map x -> z = (A x + a) / (c . x + d), with the pole row p . R x.

    Returns the (N + 2, N) rows (A; c; p^T R) and the offsets (a; d; 0).
    On the light cone a unit vector y = R x has coordinates
    u = 1 - p.y, v = 1 + p.y and y_perp = y - (p.y) p, with
    |y_perp|^2 = u v and stereographic image w = y_perp / u. The dilation
    maps (u, v) to (u / lambda, lambda v); the translation maps v to
    v + 2 b.y_perp + |b|^2 u and y_perp to y_perp + b u. Back on the
    sphere, z = V / s with s = (u + v) / 2 > 0 and
    V = y_perp + (v - u) p / 2. Each step is affine in y, so the steps
    are applied to the columns of the homogeneous basis of (y, 1).
    """
    nd = mob.ambient_dim
    p, b, lam = mob.pole, mob.translation, mob.dilation
    y = np.hstack([np.eye(nd), np.zeros((nd, 1))])
    one = np.append(np.zeros(nd), 1.0)
    align = p @ y
    u, v = (one - align) / lam, lam * (one + align)
    perp = y - np.outer(p, align)
    v = v + 2.0 * (b @ perp) + (b @ b) * u
    perp = perp + np.outer(b, u)
    rows = np.vstack([perp + 0.5 * np.outer(p, v - u), 0.5 * (u + v), align])
    return rows[:, :nd] @ mob.rotation, rows[:, nd]


def _mobius_jets(x: np.ndarray, first: np.ndarray, second: np.ndarray, fractions):
    """Image jets of one chunk of source jets under K linear fractions.

    ``x`` (m, N), ``first`` (m, n, N) and ``second`` (m, n, n, N) are the
    source jets at m points, and ``fractions`` holds K (rows, offsets)
    pairs of :func:`_linear_fraction`. Returns the pole alignments
    p . R x (K, m) and the image jets points first, stacked as
    :func:`_rho_sq_chunk` takes them: z (K, m, N), z_i (K, m, n, N) and
    z_ij (K, m, n, n, N), by the quotient rule of :func:`mobius_apply`.
    The source rows (x, x_i, x_ij) are gathered once, and each map takes
    one product against them. One product of all maps' rows stacked
    together would round the last bit of z_ij differently whenever m is
    not a multiple of 8; one per map keeps the result equal to K
    single-map calls, bit for bit. The quotient rule runs points last,
    where each update is a contiguous row, and the jets are copied to
    points first at the end.
    """
    m, n, nd = first.shape
    rows = 1 + n + n * n
    source = np.concatenate([
        x[None],
        first.transpose(1, 0, 2),
        second.reshape(m, n * n, nd).transpose(1, 0, 2),
    ]).reshape(-1, nd).T
    k = len(fractions)
    w = np.empty((k, nd + 2, rows, m))
    for wk, (lin, offset) in zip(w, fractions):
        np.matmul(lin, source, out=wk.reshape(nd + 2, rows * m))
        wk[:, 0] += offset[:, None]
    s, ds, dds = w[:, nd, 0], w[:, nd, 1 : 1 + n], w[:, nd, 1 + n :].reshape(k, n, n, m)
    inv_s = 1.0 / s
    z = w[:, :nd, 0] * inv_s[:, None]
    zi = (w[:, :nd, 1 : 1 + n] - ds[:, None] * z[:, :, None]) * inv_s[:, None, None]
    zij = w[:, :nd, 1 + n :].reshape(k, nd, n, n, m)
    zij -= zi[:, :, :, None] * ds[:, None, None] + zi[:, :, None] * ds[:, None, :, None]
    zij -= dds[:, None] * z[:, :, None, None]
    zij *= inv_s[:, None, None, None]
    return (
        w[:, nd + 1, 0],
        np.ascontiguousarray(z.transpose(0, 2, 1)),
        np.ascontiguousarray(zi.transpose(0, 3, 2, 1)),
        np.ascontiguousarray(zij.transpose(0, 4, 2, 3, 1)),
    )


def mobius_apply(mob: MobiusMap, patch: ImmersionPatch) -> ImmersionPatch:
    """Compose a patch with a conformal map of the ambient sphere.

    The map acts linearly on the light cone, so on the sphere it is one
    linear fraction z = (A x + a) / s with s = c . x + d > 0 (see
    :func:`_linear_fraction`), built once per map. The image evaluator
    applies it, and when the source patch has exact jets the image keeps
    exact jets by the quotient rule, with s_i = c . x_i:

        z_i = (A x_i - s_i z) / s,
        z_ij = (A x_ij - s_j z_i - s_i z_j - s_ij z) / s.

    The image must keep spherical distance >= 0.1 from the pole; this is
    checked up front on 6 samples per axis of the ``fd_safe`` box and
    guarded pointwise (at half the clearance) inside the returned
    evaluator and jet. The result keeps the domain, cover multiplicity
    and fold axes.
    """
    if mob.ambient_dim != patch.ambient_dim:
        raise ValueError("ambient dimensions do not match")
    axes_samples = [np.linspace(lo, hi, 6) for (lo, hi) in patch.fd_safe]
    mesh = np.meshgrid(*axes_samples, indexing="ij")
    probe = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    y = np.asarray(patch.evaluator(probe), dtype=float) @ mob.rotation.T
    worst = np.max(y @ mob.pole)
    if worst > np.cos(POLE_CLEARANCE):
        raise PoleError(
            "patch image passes too close to the stereographic pole "
            f"(min spherical distance {np.arccos(min(1.0, worst)):.4f} < {POLE_CLEARANCE})"
        )
    nd = patch.ambient_dim
    fraction = _linear_fraction(mob)
    lin, offset = fraction

    def check_pole(align: np.ndarray) -> None:
        if np.max(align) > 1.0 - _POLE_GUARD:
            raise PoleError("patch image passes too close to the stereographic pole")

    base_eval = patch.evaluator

    def evaluator(u):
        w = np.asarray(base_eval(u), dtype=float) @ lin.T + offset
        check_pole(w[..., nd + 1])
        return w[..., :nd] / w[..., nd, None]

    exact_jet = None
    if patch.exact_jet is not None:
        base_jet = patch.exact_jet

        def exact_jet(t):
            x, first, second = (np.asarray(j, dtype=float) for j in base_jet(t))
            lead, n = x.shape[:-1], first.shape[-2]
            m = x.size // nd
            align, z, zi, zij = _mobius_jets(
                x.reshape(m, nd), first.reshape(m, n, nd), second.reshape(m, n, n, nd), [fraction]
            )
            check_pole(align[0])
            return (
                z[0].reshape(lead + (nd,)),
                zi[0].reshape(lead + (n, nd)),
                zij[0].reshape(lead + (n, n, nd)),
            )

    label = f"mobius({patch.name})" if patch.name else "mobius"
    # The source patch's co-normal reference does not transform with the
    # map, so the image patch falls back to the orientation gauge; the
    # fold axes stay, and with them the fold sign of that gauge.
    return replace(
        patch, evaluator=evaluator, exact_jet=exact_jet, name=label, normal_hint=None
    )


def random_mobius(ambient_dim: int, rng: np.random.Generator) -> MobiusMap:
    """Draw a random conformal map (Haar rotation, uniform pole,
    log-uniform dilation in [1/2, 2], translation length uniform in [0, 1/2])."""
    g = rng.standard_normal((ambient_dim, ambient_dim))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))
    pole = rng.standard_normal(ambient_dim)
    pole = pole / np.linalg.norm(pole)
    lam = float(np.exp(rng.uniform(np.log(0.5), np.log(2.0))))
    b = rng.standard_normal(ambient_dim)
    b = b - (b @ pole) * pole
    b = b / np.linalg.norm(b) * rng.uniform(0.0, 0.5)
    return MobiusMap(rotation=q, dilation=lam, translation=b, pole=pole)


def sample_safe_points(patch: ImmersionPatch, rng: np.random.Generator, count: int) -> np.ndarray:
    """Uniform parameter samples inside the finite-difference safe box."""
    lo = np.array([b[0] for b in patch.fd_safe])
    hi = np.array([b[1] for b in patch.fd_safe])
    return rng.uniform(lo, hi, size=(count, patch.n))
