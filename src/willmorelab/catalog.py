"""Closed-form example submanifolds of the unit sphere.

Every entry ships as an :class:`~willmorelab.immersion.ImmersionPatch`
with exact first and second parameter derivatives, plus (where the shape
operators are constant) an :class:`IsoparametricSpec` recording them in a
fixed gauge. Charts use per-factor angles: circles get one periodic
angle, sphere factors of dimension k >= 2 get k-1 colatitudes on [0, pi]
(non-periodic; quadrature places interior nodes there) and one periodic
azimuth. The finite-difference safe box keeps colatitudes in
[0.2, pi - 0.2], away from the chart poles.

Sign conventions: for one two-sphere product S^m(a) x S^{n-m}(b) the
co-normal is oriented so the first factor carries the positive principal
curvature b/a (multiplicity m) and the second carries -a/b.

Exact jets are closed forms computed with points as the last axis: sin
and cos once per coordinate, the polar-chart factor tables as
(k, k + 1, P) rows, and the leave-one-out and leave-two-out products of
the derivatives from prefix and suffix products over those rows. The
jets keep the contract of :class:`~willmorelab.immersion.ImmersionPatch`
(shapes (..., N), (..., n, N), (..., n, n, N), float64), in two layouts:
x and the first derivatives are transposed views of points-last arrays,
so a consumer that reads one derivative for all points reads one
contiguous row; the second derivatives are a contiguous points-first
array, so the integrand kernel's batched matmul over (n, n N) per point
takes them without a copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grids import AxisInterval
from .immersion import ImmersionPatch, ShapeData
from .linalg import SymmetricMatrix, jacobi_eigen
from .tensors import ShapeFamily, traceless_part

__all__ = [
    "IsoparametricSpec",
    "CatalogEntry",
    "willmore_torus",
    "clifford_torus",
    "veronese",
    "veronese_ambient",
    "product_spheres",
    "round_sphere",
    "round_sphere_spec",
    "torus_family_patch",
    "isoparametric_from_shape",
    "resolve",
    "catalog_ids",
    "UnknownExampleError",
    "AMBIENT_DIM_MAX",
]

_COLATITUDE_SAFE = (0.2, math.pi - 0.2)
# Largest ambient dimension a catalog id may ask for, checked from the id's
# numbers before any array is built: an id's spec holds n x n shape
# matrices (n = 100000 asks for 75 GiB), its residual scale rho^(n - 2)
# overflows a float near n = 262, and 200 sphere factors run for minutes.
# At 64, el-check and shape of any id take well under a second.
AMBIENT_DIM_MAX = 64


@dataclass(frozen=True)
class IsoparametricSpec:
    """Constant shape operators of an isoparametric submanifold.

    ``principal_curvatures`` lists (value, multiplicity) pairs and is
    populated only in codimension one, where the single shape operator
    has a well-defined spectrum up to the co-normal orientation.
    """

    n: int
    p: int
    constant_shape: ShapeFamily
    principal_curvatures: Optional[tuple[tuple[float, int], ...]] = None

    def __post_init__(self) -> None:
        if self.constant_shape.n != self.n or self.constant_shape.p != self.p:
            raise ValueError("constant_shape dimensions disagree with (n, p)")
        if self.principal_curvatures is not None:
            if self.p != 1:
                raise ValueError("principal curvatures only apply to codimension 1")
            total = sum(mult for _, mult in self.principal_curvatures)
            if total != self.n:
                raise ValueError("principal curvature multiplicities must sum to n")

    @property
    def S(self) -> float:
        return self.constant_shape.total_norm_sq

    @property
    def mean_norm(self) -> float:
        return self.constant_shape.mean_norm

    @property
    def rho_sq(self) -> float:
        _, sigma = traceless_part(self.constant_shape)
        return float(np.trace(sigma))


@dataclass(frozen=True)
class CatalogEntry:
    example_id: str
    patch: ImmersionPatch
    spec: IsoparametricSpec


def _points_last(t: np.ndarray) -> np.ndarray:
    """(..., d) chart points as contiguous (d, P) coordinate rows."""
    return np.ascontiguousarray(t.reshape(-1, t.shape[-1]).T)


def _sphere_tables(sin: np.ndarray, cos: np.ndarray):
    """Factor tables of the polar chart of the unit k-sphere, points last.

    ``sin`` and ``cos`` are (k, P) rows of the k coordinates. Component c
    of the chart value is a product over coordinates i of sin(t_i) for
    i < c, cos(t_c) for i == c, and 1 for i > c (component k is the
    all-sines product). The tables are (k, k + 1, P): row (i, c) holds
    that factor, and its first and second derivatives in t_i.
    """
    k, pts = sin.shape
    f = np.ones((k, k + 1, pts))
    f1 = np.zeros((k, k + 1, pts))
    f2 = np.zeros((k, k + 1, pts))
    for i in range(k):
        f[i, i], f[i, i + 1 :] = cos[i], sin[i]
        f1[i, i], f1[i, i + 1 :] = -sin[i], cos[i]
        f2[i, i], f2[i, i + 1 :] = -cos[i], -sin[i]
    return f, f1, f2


def _times(a, b):
    """a * b, where None stands for an empty product."""
    if a is None:
        return b
    return a if b is None else a * b


def _sphere_value(t: np.ndarray, k: int) -> np.ndarray:
    """Polar chart of the unit k-sphere at (..., k) points: (..., k + 1)."""
    tt = _points_last(t)
    f, _, _ = _sphere_tables(np.sin(tt), np.cos(tt))
    return f.prod(axis=0).T.reshape(t.shape[:-1] + (k + 1,))


def _sphere_jet(sin: np.ndarray, cos: np.ndarray):
    """Value and derivatives of the polar k-sphere chart, points last.

    From (k, P) rows of sin and cos, returns y (k + 1, P), the rows
    dy[a] (k + 1, P) of d y / d t_a, and d2y, a dict holding the rows of
    d^2 y / d t_a d t_b for a <= b. The derivative in t_a replaces row a
    of the factor table, so it multiplies that row's derivative by the
    product of the other rows; those leave-one-out and leave-two-out
    products come from prefix and suffix products over the rows. For
    k <= 3 every product keeps the factor order of a left-to-right
    product over the table with the excluded rows deleted.
    """
    f, f1, f2 = _sphere_tables(sin, cos)
    k = len(f)
    pre = [None]  # pre[i]: rows 0 .. i - 1
    for i in range(k):
        pre.append(_times(pre[i], f[i]))
    suf = [None] * (k + 1)  # suf[i]: rows i .. k - 1, for i >= 1
    for i in range(k - 1, 0, -1):
        suf[i] = _times(f[i], suf[i + 1])
    dy, d2y = [], {}
    for a in range(k):
        excl = _times(pre[a], suf[a + 1])
        dy.append(_times(f1[a], excl))
        d2y[a, a] = _times(f2[a], excl)
        mid = pre[a]  # rows 0 .. b - 1 without row a
        for b in range(a + 1, k):
            d2y[a, b] = _times(f1[a] * f1[b], _times(mid, suf[b + 1]))
            mid = _times(mid, f[b])
    return pre[k], dy, d2y


def _factor_axes(k: int, doubled: bool):
    if k == 1:
        return [AxisInterval(0.0, 2.0 * math.pi, periodic=True)], [(0.0, 2.0 * math.pi)]
    if doubled:
        if k != 2:
            raise ValueError("doubled chart only implemented for 2-spheres")
        axes = [
            AxisInterval(0.0, 2.0 * math.pi, periodic=True),
            AxisInterval(0.0, 2.0 * math.pi, periodic=True),
        ]
        safe = [_COLATITUDE_SAFE, (0.0, 2.0 * math.pi)]
        return axes, safe
    axes = [AxisInterval(0.0, math.pi, periodic=False) for _ in range(k - 1)]
    axes.append(AxisInterval(0.0, 2.0 * math.pi, periodic=True))
    safe = [_COLATITUDE_SAFE for _ in range(k - 1)]
    safe.append((0.0, 2.0 * math.pi))
    return axes, safe


def _product_patch(
    dims: tuple[int, ...],
    radii: tuple[float, ...],
    tail: tuple[float, ...] = (),
    doubled: bool = False,
    cover: int = 1,
    name: str = "",
) -> ImmersionPatch:
    """Chart for a product of round spheres, optionally padded by
    constant ambient components.

    The exact jet fills each factor's block from that factor's
    points-last sphere jet: x into an (N, P) array and the first
    derivatives into an (n, N, P) array, both returned as transposed
    views, and the second derivatives block by block into a contiguous
    (P, n, n, N) array. Off-block entries are zero.
    """
    n = sum(dims)
    ambient = sum(k + 1 for k in dims) + len(tail)
    param_slices = []
    ambient_slices = []
    pos = 0
    apos = 0
    for k in dims:
        param_slices.append(slice(pos, pos + k))
        ambient_slices.append(slice(apos, apos + k + 1))
        pos += k
        apos += k + 1
    tail_arr = np.array(tail, dtype=float)

    def evaluator(t):
        t = np.asarray(t, dtype=float)
        base = t.shape[:-1]
        out = np.empty(base + (ambient,))
        for k, r, ps, asl in zip(dims, radii, param_slices, ambient_slices):
            out[..., asl] = r * _sphere_value(t[..., ps], k)
        if tail_arr.size:
            out[..., apos:] = tail_arr
        return out

    def exact_jet(t):
        t = np.asarray(t, dtype=float)
        base = t.shape[:-1]
        tt = _points_last(t)
        pts = tt.shape[1]
        sin, cos = np.sin(tt), np.cos(tt)
        x = np.zeros((ambient, pts))
        first = np.zeros((n, ambient, pts))
        second = np.zeros((pts, n, n, ambient))
        for k, r, ps, asl in zip(dims, radii, param_slices, ambient_slices):
            y, dy, d2y = _sphere_jet(sin[ps], cos[ps])
            x[asl] = r * y
            for a in range(k):
                first[ps.start + a, asl] = r * dy[a]
            for (a, b), rows in d2y.items():
                i, j = ps.start + a, ps.start + b
                second[:, i, j, asl] = second[:, j, i, asl] = (r * rows).T
        if tail_arr.size:
            x[apos:] = tail_arr[:, None]
        return (
            x.T.reshape(base + (ambient,)),
            first.transpose(2, 0, 1).reshape(base + (n, ambient)),
            second.reshape(base + (n, n, ambient)),
        )

    axes = []
    safe = []
    for k in dims:
        fa, fs = _factor_axes(k, doubled and len(dims) == 1)
        axes.extend(fa)
        safe.extend(fs)

    # In codimension one the catalog knows the smooth co-normal field. It
    # keeps the sign convention above, which the orientation gauge meets
    # only up to one sign per chart, and costs a dot product, not a
    # determinant.
    hint = None
    if ambient - n - 1 == 1:
        if not tail and len(dims) == 2:

            def hint(t):
                t = np.asarray(t, dtype=float)
                u1 = _sphere_value(t[..., param_slices[0]], dims[0])
                u2 = _sphere_value(t[..., param_slices[1]], dims[1])
                return np.concatenate([-radii[1] * u1, radii[0] * u2], axis=-1)

        elif len(dims) == 1 and len(tail) == 1:

            def hint(t):
                t = np.asarray(t, dtype=float)
                u = _sphere_value(t[..., param_slices[0]], dims[0])
                col = np.full(t.shape[:-1] + (1,), radii[0])
                return np.concatenate([-tail_arr[0] * u, col], axis=-1)

    return ImmersionPatch(
        n=n,
        ambient_dim=ambient,
        domain=tuple(axes),
        evaluator=evaluator,
        cover_multiplicity=cover,
        exact_jet=exact_jet,
        fd_safe=tuple(safe),
        name=name,
        normal_hint=hint,
        # The doubled 2-sphere chart folds at colatitude pi.
        fold_axes=(0,) if doubled and len(dims) == 1 else (),
    )


def _two_factor_spec(m: int, n: int, k1: float, k2: float) -> IsoparametricSpec:
    diag = np.concatenate([np.full(m, k1), np.full(n - m, k2)])
    fam = ShapeFamily(n, 1, (SymmetricMatrix(np.diag(diag)),))
    return IsoparametricSpec(n, 1, fam, ((k1, m), (k2, n - m)))


def _check_two_factor_args(m, n) -> tuple[int, int]:
    m, n = int(m), int(n)
    if not 1 <= m <= n - 1:
        raise ValueError(f"need 1 <= m <= n - 1, got m={m}, n={n}")
    return m, n


def willmore_torus(m: int, n: int) -> tuple[ImmersionPatch, IsoparametricSpec]:
    """S^m(sqrt((n-m)/n)) x S^{n-m}(sqrt(m/n)) in S^{n+1}.

    Principal curvatures sqrt(m/(n-m)) (multiplicity m) and
    -sqrt((n-m)/m) (multiplicity n-m); rho^2 = n for every (m, n).
    """
    m, n = _check_two_factor_args(m, n)
    a = math.sqrt((n - m) / n)
    b = math.sqrt(m / n)
    patch = _product_patch((m, n - m), (a, b), name=f"willmore-torus:{m},{n}")
    k1 = math.sqrt(m / (n - m))
    k2 = -math.sqrt((n - m) / m)
    return patch, _two_factor_spec(m, n, k1, k2)


def clifford_torus(m: int, n: int) -> tuple[ImmersionPatch, IsoparametricSpec]:
    """Minimal product S^m(sqrt(m/n)) x S^{n-m}(sqrt((n-m)/n)); H = 0, S = n."""
    m, n = _check_two_factor_args(m, n)
    a = math.sqrt(m / n)
    b = math.sqrt((n - m) / n)
    patch = _product_patch((m, n - m), (a, b), name=f"clifford-torus:{m},{n}")
    k1 = math.sqrt((n - m) / m)
    k2 = -math.sqrt(m / (n - m))
    return patch, _two_factor_spec(m, n, k1, k2)


def torus_family_patch(m: int, n: int, r: float) -> tuple[ImmersionPatch, IsoparametricSpec]:
    """S^m(r) x S^{n-m}(sqrt(1-r^2)) in S^{n+1}, the one-parameter family
    swept by the radius of the first factor."""
    m, n = _check_two_factor_args(m, n)
    if not 0.0 < r < 1.0:
        raise ValueError(f"first-factor radius must lie in (0, 1), got {r}")
    s = math.sqrt(1.0 - r * r)
    patch = _product_patch((m, n - m), (r, s), name=f"torus-family:{m},{n}@{r:g}")
    return patch, _two_factor_spec(m, n, s / r, -r / s)


_SQRT3 = math.sqrt(3.0)


def veronese_ambient(v) -> np.ndarray:
    """The quadratic map R^3 -> R^5 behind the Veronese surface.

    Restricted to the sphere x^2 + y^2 + z^2 = 3 it is an isometric
    immersion into the unit 4-sphere identifying antipodal points.
    """
    v = np.moveaxis(np.asarray(v, dtype=float), -1, 0)
    return 0.5 * _veronese_bilinear(v, v, axis=-1)


def _veronese_bilinear(v, w, axis: int) -> np.ndarray:
    """The symmetric bilinear map behind :func:`veronese_ambient`.

    v and w hold their three components along the first axis; the five
    image components are stacked along ``axis``.
    """
    x1, y1, z1 = v
    x2, y2, z2 = w
    return np.stack(
        [
            (y1 * z2 + z1 * y2) / _SQRT3,
            (x1 * z2 + z1 * x2) / _SQRT3,
            (x1 * y2 + y1 * x2) / _SQRT3,
            (x1 * x2 - y1 * y2) / _SQRT3,
            (x1 * x2 + y1 * y2 - 2.0 * z1 * z2) / 3.0,
        ],
        axis=axis,
    )


def veronese() -> ImmersionPatch:
    """Veronese surface in S^4: minimal, rho^2 = 4/3, antipodal double cover."""

    def evaluator(t):
        t = np.asarray(t, dtype=float)
        v = _SQRT3 * _sphere_value(t, 2)
        return veronese_ambient(v)

    def exact_jet(t):
        t = np.asarray(t, dtype=float)
        base = t.shape[:-1]
        tt = _points_last(t)
        y, dy, d2y = _sphere_jet(np.sin(tt), np.cos(tt))
        v = _SQRT3 * y
        dv = [_SQRT3 * row for row in dy]
        x = 0.5 * _veronese_bilinear(v, v, axis=0)
        first = np.stack([_veronese_bilinear(v, w, axis=0) for w in dv])
        second = np.empty((tt.shape[1], 2, 2, 5))
        for (a, b), rows in d2y.items():
            block = _veronese_bilinear(dv[a], dv[b], axis=-1)
            block += _veronese_bilinear(v, _SQRT3 * rows, axis=-1)
            second[:, a, b] = second[:, b, a] = block
        return (
            x.T.reshape(base + (5,)),
            first.transpose(2, 0, 1).reshape(base + (2, 5)),
            second.reshape(base + (2, 2, 5)),
        )

    axes = (
        AxisInterval(0.0, math.pi, periodic=False),
        AxisInterval(0.0, 2.0 * math.pi, periodic=True),
    )
    return ImmersionPatch(
        n=2,
        ambient_dim=5,
        domain=axes,
        evaluator=evaluator,
        cover_multiplicity=2,
        exact_jet=exact_jet,
        fd_safe=(_COLATITUDE_SAFE, (0.0, 2.0 * math.pi)),
        name="veronese",
    )


def product_spheres(multiplicities) -> tuple[ImmersionPatch, IsoparametricSpec]:
    """Product of p+1 round spheres S^{m_1}(a_1) x ... x S^{m_{p+1}}(a_{p+1})
    in S^{n+p}, with the balanced radii a_i = sqrt((n - m_i)/(n p)).

    rho^2 = n p for every choice; the product is minimal exactly when
    all factor dimensions agree.
    """
    ms = tuple(int(m) for m in multiplicities)
    if len(ms) < 2:
        raise ValueError("need at least two sphere factors")
    if any(m < 1 for m in ms):
        raise ValueError("factor dimensions must be positive")
    n = sum(ms)
    p = len(ms) - 1
    a = np.array([math.sqrt((n - m) / (n * p)) for m in ms])
    ident = "product-spheres:" + ",".join(str(m) for m in ms)
    patch = _product_patch(ms, tuple(a), name=ident)

    if p == 1:
        normals = np.array([[-a[1], a[0]]])
    else:
        # Orthonormal basis of the hyperplane orthogonal to the radius
        # vector, picked deterministically (largest-residual coordinate
        # axis first).
        basis = [a]
        normals = []
        for _ in range(p):
            arr = np.stack(basis)
            res = 1.0 - np.sum(arr * arr, axis=0)
            idx = int(np.argmax(res))
            v = np.zeros(p + 1)
            v[idx] = 1.0
            for w in basis:
                v = v - (v @ w) * w
            v = v / np.linalg.norm(v)
            basis.append(v)
            normals.append(v)
        normals = np.stack(normals)

    mats = []
    for alpha in range(p):
        diag = np.concatenate(
            [np.full(m, -normals[alpha, i] / a[i]) for i, m in enumerate(ms)]
        )
        mats.append(SymmetricMatrix(np.diag(diag)))
    fam = ShapeFamily(n, p, tuple(mats))
    curvatures = None
    if p == 1:
        curvatures = ((a[1] / a[0], ms[0]), (-a[0] / a[1], ms[1]))
    return patch, IsoparametricSpec(n, p, fam, curvatures)


def round_sphere(n: int, p: int, r: float) -> ImmersionPatch:
    """Totally umbilic S^n(r) inside a great S^{n+1} of S^{n+p}.

    rho^2 = 0 and H = sqrt(1 - r^2)/r for every radius. The 2-sphere
    uses a doubled periodic chart (both angles full circles, covering
    the sphere twice) so periodic grid operators apply to it.
    """
    n, p = int(n), int(p)
    if n < 1 or p < 1:
        raise ValueError("need n >= 1 and p >= 1")
    if not 0.0 < r <= 1.0:
        raise ValueError(f"radius must lie in (0, 1], got {r}")
    c = math.sqrt(max(0.0, 1.0 - r * r))
    tail = (c,) + (0.0,) * (p - 1)
    doubled = n == 2
    return _product_patch(
        (n,),
        (r,),
        tail=tail,
        doubled=doubled,
        cover=2 if doubled else 1,
        name=f"round-sphere:{n},{p},{r:g}",
    )


def round_sphere_spec(n: int, p: int, r: float) -> IsoparametricSpec:
    """Constant (umbilic) shape operators of :func:`round_sphere`."""
    if n < 1 or p < 1 or not 0.0 < r <= 1.0:
        raise ValueError("invalid round-sphere parameters")
    c = math.sqrt(max(0.0, 1.0 - r * r))
    k = c / r
    mats = [SymmetricMatrix(k * np.eye(n))]
    mats.extend(SymmetricMatrix(np.zeros((n, n))) for _ in range(p - 1))
    curvatures = ((k, n),) if p == 1 else None
    return IsoparametricSpec(n, p, ShapeFamily(n, p, tuple(mats)), curvatures)


def isoparametric_from_shape(sd: ShapeData) -> IsoparametricSpec:
    """Freeze pointwise shape data into an isoparametric record.

    Only meaningful when the source surface actually has constant shape
    operators; the caller owns that judgement.
    """
    curvatures = None
    if sd.p == 1:
        lam, _ = jacobi_eigen(sd.second_fundamental.matrices[0])
        scale = 1e-9 * (1.0 + abs(float(lam[0])))
        groups: list[list[float]] = []
        for value in lam:
            if groups and abs(groups[-1][-1] - value) <= scale:
                groups[-1].append(float(value))
            else:
                groups.append([float(value)])
        curvatures = tuple((float(np.mean(g)), len(g)) for g in groups)
    return IsoparametricSpec(sd.n, sd.p, sd.second_fundamental, curvatures)


class UnknownExampleError(ValueError):
    """Raised for example ids outside the catalog; carries the id list.

    A known form with bad parameters passes ``cause``, the text of the
    error its parser or constructor raised, and the message names it.
    """

    def __init__(self, example_id: str, cause: Optional[str] = None):
        self.example_id = example_id
        if cause is None:
            head = f"unknown example id {example_id!r}"
        else:
            head = f"bad example id {example_id!r}: {cause}"
        super().__init__(f"{head}; known forms: " + ", ".join(catalog_ids()))


def catalog_ids() -> list[str]:
    return [
        "willmore-torus:m,n",
        "clifford-torus:m,n",
        "veronese",
        "product-spheres:m1,m2,...",
        "round-sphere:n,p,r",
    ]


_VERONESE_SPEC_POINT = np.array([1.1, 0.7])


def _fields(name: str, arg: str, form: str) -> list[str]:
    """The comma-separated parameters of an id, as many as ``form`` names."""
    parts = arg.split(",")
    if len(parts) != form.count(",") + 1:
        raise ValueError(f"{name} needs {form}")
    return parts


def _check_ambient_dim(dim: int) -> None:
    if dim > AMBIENT_DIM_MAX:
        raise ValueError(f"ambient dimension {dim} exceeds the cap of {AMBIENT_DIM_MAX}")


def resolve(example_id: str) -> CatalogEntry:
    """Resolve a catalog id string to its patch and isoparametric data."""
    name, _, arg = example_id.partition(":")
    try:
        if name == "willmore-torus":
            m, n = (int(s) for s in _fields(name, arg, "m,n"))
            _check_ambient_dim(n + 2)
            patch, spec = willmore_torus(m, n)
        elif name == "clifford-torus":
            m, n = (int(s) for s in _fields(name, arg, "m,n"))
            _check_ambient_dim(n + 2)
            patch, spec = clifford_torus(m, n)
        elif name == "veronese":
            if arg:
                raise ValueError("veronese takes no arguments")
            patch = veronese()
            spec = isoparametric_from_shape(patch.exact_shape(_VERONESE_SPEC_POINT))
        elif name == "product-spheres":
            ms = tuple(int(s) for s in arg.split(","))
            _check_ambient_dim(sum(ms) + len(ms))
            patch, spec = product_spheres(ms)
        elif name == "round-sphere":
            parts = _fields(name, arg, "n,p,r")
            n, p, r = int(parts[0]), int(parts[1]), float(parts[2])
            _check_ambient_dim(n + p + 1)
            patch = round_sphere(n, p, r)
            spec = round_sphere_spec(n, p, r)
        else:
            raise UnknownExampleError(example_id)
    except UnknownExampleError:
        raise
    except (ValueError, TypeError) as exc:
        raise UnknownExampleError(example_id, str(exc)) from exc
    return CatalogEntry(example_id=example_id, patch=patch, spec=spec)
