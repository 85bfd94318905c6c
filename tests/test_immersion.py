import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from willmorelab import immersion, willmore
from willmorelab.catalog import (
    clifford_torus,
    product_spheres,
    resolve,
    round_sphere,
    torus_family_patch,
    veronese,
    willmore_torus,
)
from willmorelab.grids import AxisInterval, QuadratureGrid
from willmorelab.immersion import (
    _BLOCK_ROWS_MIN,
    _CHUNK_MAX,
    FD_STEP,
    RANK_TOL,
    ImmersionPatch,
    MobiusMap,
    POLE_CLEARANCE,
    PoleError,
    RankError,
    ShapeBatch,
    _complete_normals,
    _fd_jets,
    _chunk_points,
    _fold_sign,
    _integrand_chunks,
    _jets,
    _linear_fraction,
    _mobius_jets,
    _periodic_partial,
    _rho_sq_chunk,
    _second_form,
    _work_buffers,
    grid_gradient_pairing,
    laplace_beltrami,
    mobius_apply,
    random_mobius,
    sample_safe_points,
    scalar_curvature,
    shape_batch,
    shape_data,
)
from willmorelab.tensors import trial_rng
from willmorelab.willmore import (
    _surface_fields,
    el_residual_surface,
    grid_integral,
    willmore_energy,
)


def _flat_patch():
    patch, _ = clifford_torus(1, 2)
    return patch


def test_shape_data_matches_constant_curvature_oracle():
    patch, spec = clifford_torus(1, 2)
    sd = shape_data(patch, np.array([0.4, 1.7]))
    assert abs(sd.S - 2.0) < 1e-12
    assert sd.mean_norm < 1e-12
    assert abs(sd.rho_sq - 2.0) < 1e-12
    assert np.allclose(sd.metric.data, 0.5 * np.eye(2), atol=1e-12)


def test_shape_data_frames_are_orthonormal():
    patch, _ = willmore_torus(1, 3)
    sd = shape_data(patch, patch.safe_center())
    t = sd.tangent_frame
    m = sd.normal_frame
    assert np.allclose(t @ t.T, np.eye(3), atol=1e-12)
    assert np.allclose(m @ m.T, np.eye(1), atol=1e-12)
    assert np.abs(t @ sd.position).max() < 1e-12
    assert np.abs(m @ sd.position).max() < 1e-12


def test_shape_data_validates_frames():
    patch, _ = willmore_torus(1, 3)
    sd = shape_data(patch, patch.safe_center())
    for frame in (sd.tangent_frame, sd.normal_frame):
        with pytest.raises(ValueError):
            frame[0, 0] = 7.0
    # Rows that stay orthogonal to the position but not to each other,
    # or leave unit length, fail the frame check itself.
    skew = sd.tangent_frame.copy()
    skew[1] += 1e-6 * skew[0]
    skew[1] /= np.linalg.norm(skew[1])
    with pytest.raises(ValueError, match="tangent_frame rows are not orthonormal"):
        replace(sd, tangent_frame=skew)
    with pytest.raises(ValueError, match="normal_frame rows are not orthonormal"):
        replace(sd, normal_frame=(1.0 + 1e-9) * sd.normal_frame)
    # A valid frame is copied into read-only storage.
    given = sd.tangent_frame.copy()
    stored = replace(sd, tangent_frame=given).tangent_frame
    assert np.array_equal(stored, given) and not stored.flags.writeable
    given[0, 0] = 7.0
    assert stored[0, 0] != 7.0


def test_shape_json_dict_key_schema():
    patch = veronese()
    sd = patch.exact_shape(np.array([1.1, 0.7]))
    payload = sd.to_json_dict()
    assert set(payload) == {"n", "p", "metric", "h", "H_vec", "H", "S", "rho_sq"}
    assert payload["n"] == 2 and payload["p"] == 2


def test_finite_differences_agree_with_exact_jets():
    rng = np.random.default_rng(31)
    for patch in (_flat_patch(), willmore_torus(1, 3)[0], veronese()):
        pts = sample_safe_points(patch, rng, 6)
        exact = shape_batch(patch, pts)
        fd = shape_batch(replace(patch, exact_jet=None), pts, step=1e-4)
        assert np.abs(exact.S - fd.S).max() < 1e-6
        assert np.abs(exact.rho_sq - fd.rho_sq).max() < 1e-6
        assert np.abs(exact.mean_norm - fd.mean_norm).max() < 1e-6
        assert np.abs(exact.h - fd.h).max() < 1e-5
        assert np.abs(exact.sqrt_g - fd.sqrt_g).max() < 1e-7


def test_richardson_order_two_for_fd_shape_data():
    patch, _ = willmore_torus(2, 3)
    pt = patch.safe_center()[None, :]
    errs = []
    for h in (1e-2, 5e-3, 2.5e-3):
        b = shape_batch(replace(patch, exact_jet=None), pt, step=h)
        errs.append(abs(float(b.rho_sq[0]) - 3.0))
    assert 3.5 < errs[0] / errs[1] < 4.5
    assert 3.5 < errs[1] / errs[2] < 4.5


def test_step_validation():
    patch = _flat_patch()
    pt = patch.safe_center()
    with pytest.raises(ValueError):
        shape_data(patch, pt, step=1.0)
    with pytest.raises(ValueError):
        shape_data(patch, pt, step=1e-9)


def test_boundary_margin_for_finite_differences():
    patch = veronese()
    with pytest.raises(ValueError, match="axis 0"):
        shape_batch(replace(patch, exact_jet=None), np.array([[5e-5, 1.0]]), step=1e-4)
    # the exact path takes the same point without complaint
    shape_batch(patch, np.array([[5e-5, 1.0]]))


def test_unit_sphere_violation_is_caught():
    base = _flat_patch()
    bad = replace(base, evaluator=lambda t: 1.01 * base.evaluator(t), exact_jet=None)
    with pytest.raises(ValueError, match="unit sphere"):
        shape_batch(bad, bad.safe_center()[None, :])


def _flat_circle_patch():
    """A 2-parameter chart that ignores its second parameter."""

    def flat_circle(t):
        t = np.asarray(t, dtype=float)
        th = t[..., 0]
        root = 1.0 / math.sqrt(2.0)
        return np.stack(
            [root * np.cos(th), root * np.sin(th), np.full_like(th, root),
             np.zeros_like(th)],
            axis=-1,
        )

    return ImmersionPatch(
        n=2,
        ambient_dim=4,
        domain=(
            AxisInterval(0.0, 2.0 * math.pi, periodic=True),
            AxisInterval(0.0, 2.0 * math.pi, periodic=True),
        ),
        evaluator=flat_circle,
    )


def test_rank_deficiency_is_reported():
    patch = _flat_circle_patch()
    with pytest.raises(ValueError, match="rank deficient"):
        shape_batch(patch, patch.safe_center()[None, :])


def test_normal_hint_pins_the_sign_on_folded_charts():
    sphere = round_sphere(2, 1, 0.8)
    grid = QuadratureGrid.for_patch(sphere, 32)
    batch = shape_batch(sphere, grid.points())
    signed = batch.mean_vector[:, 0]
    assert signed.min() > 0.74 and signed.max() < 0.76


@pytest.mark.parametrize("ident", [
    "round-sphere:2,1,0.8", "clifford-torus:2,4", "willmore-torus:2,5",
    "clifford-torus:1,2", "clifford-torus:1,3", "willmore-torus:1,2",
    "willmore-torus:1,3", "round-sphere:1,1,0.6", "round-sphere:3,1,0.5",
])
def test_normal_hint_is_one_global_sign_of_the_orientation_gauge(ident):
    # The orientation gauge, turned over past a fold, is consistent too;
    # the hint only picks the catalog's sign (+b/a on the first factor).
    patch = resolve(ident).patch
    points = QuadratureGrid.for_patch(patch, 12 if patch.n <= 3 else 8).points()
    hinted = shape_batch(patch, points).normal
    plain = shape_batch(replace(patch, normal_hint=None), points).normal
    assert np.array_equal(hinted, plain) or np.array_equal(hinted, -plain)


def test_normal_hint_orthogonal_to_normal_is_rejected():
    base = _flat_patch()
    bad = replace(base, normal_hint=base.evaluator)  # position is normal-orthogonal
    with pytest.raises(ValueError, match="normal_hint"):
        shape_batch(bad, bad.safe_center()[None, :])
    with pytest.raises(ValueError, match="normal_hint"):
        el_residual_surface(bad, QuadratureGrid.for_patch(bad, 8))


def test_scalar_curvature_values_and_guard():
    flat = shape_data(_flat_patch(), np.array([0.2, 0.9]))
    assert abs(scalar_curvature(flat)) < 1e-12
    circle = round_sphere(1, 1, 0.8)
    sd = circle.exact_shape(circle.safe_center())
    with pytest.raises(ValueError):
        scalar_curvature(sd)


def test_laplace_beltrami_on_flat_chart():
    patch = _flat_patch()
    errs = []
    for res in (64, 128):
        grid = QuadratureGrid.for_patch(patch, res)
        th = grid.points()[:, 0].reshape(grid.shape)
        lap = laplace_beltrami(patch, np.sin(th), grid)
        # metric is I/2, so the operator doubles the flat laplacian
        errs.append(np.abs(lap + 2.0 * np.sin(th)).max())
    assert errs[0] < 1e-2
    assert errs[0] / errs[1] > 3.0  # second-order stencil
    grid = QuadratureGrid.for_patch(patch, 16)
    assert np.abs(laplace_beltrami(patch, np.ones(grid.shape), grid)).max() < 1e-13


def test_laplace_beltrami_converges_on_a_folded_chart():
    # On a sphere of radius r, Delta x_c = -2 x_c / r^2. |sqrt g| has a
    # kink at the fold of the doubled chart; with it in the divergence
    # the error grew as 1/h (6.5, 12.8, 25.5 at 32, 64, 128 nodes).
    r = 0.8
    sphere = round_sphere(2, 1, r)
    errs = []
    for res in (64, 128):
        grid = QuadratureGrid.for_patch(sphere, res)
        x = sphere.evaluator(grid.points()).reshape(grid.shape + (4,))
        errs.append([
            np.abs(laplace_beltrami(sphere, x[..., c], grid) + 2.0 * x[..., c] / r**2).max()
            for c in range(3)
        ])
    for c in range(3):
        assert errs[1][c] < 0.6 * errs[0][c], (c, errs)
        assert errs[1][c] < 0.1, (c, errs)


def test_laplace_beltrami_requires_periodic_grid():
    patch = veronese()
    grid = QuadratureGrid.for_patch(patch, 16)
    with pytest.raises(ValueError, match="periodic"):
        laplace_beltrami(patch, np.zeros(grid.shape), grid)
    flat = _flat_patch()
    fgrid = QuadratureGrid.for_patch(flat, 16)
    with pytest.raises(ValueError, match="shape"):
        laplace_beltrami(flat, np.zeros((3, 3)), fgrid)


def test_discrete_integration_by_parts_is_exact():
    patch = _flat_patch()
    grid = QuadratureGrid.for_patch(patch, 32)
    pts = grid.points()
    th = pts[:, 0].reshape(grid.shape)
    ph = pts[:, 1].reshape(grid.shape)
    f = np.sin(th) + 0.3 * np.cos(2.0 * ph)
    g = np.cos(th) * np.sin(ph)
    lap = laplace_beltrami(patch, f, grid)
    pairing = grid_gradient_pairing(patch, f, g, grid)
    batch = shape_batch(patch, pts)
    cell = grid.spacing(0) * grid.spacing(1)
    lhs = float(np.sum(lap.reshape(-1) * g.reshape(-1) * batch.sqrt_g) * cell) / patch.cover_multiplicity
    assert abs(lhs + pairing) < 1e-12
    # and the pairing is symmetric
    assert abs(pairing - grid_gradient_pairing(patch, g, f, grid)) < 1e-12


def _node_metric(patch, grid):
    """sqrt g (M,) and g^{-1} (M, n, n) at every node at once.

    From :func:`_second_form` on the jets of the grid's nodes, in chunks
    from the first node, not over the stencil's rows.
    """
    pts = grid.points()
    size = _chunk_points(patch)
    work = _work_buffers(size, patch.n, patch.ambient_dim)
    sqrt_g, ginv = [], []
    for start in range(0, len(pts), size):
        _, coef, s, _ = _second_form(*_jets(patch, pts[start:start + size], FD_STEP), work)
        sqrt_g.append(s)
        ginv.append(coef.transpose(0, 2, 1) @ coef)
    return np.concatenate(sqrt_g), np.concatenate(ginv)


def _fold_signed_sums(patch, f, lap, grid):
    # Sum (Delta f) f sigma sqrt g w and sum |grad f|^2 sigma sqrt g w,
    # with sigma the fold sign that laplace_beltrami puts on sqrt g.
    sqrt_g, ginv = _node_metric(patch, grid)
    sg = sqrt_g.reshape(grid.shape) * _fold_sign(patch, np.ix_(*grid.nodes_1d))
    ginv = ginv.reshape(grid.shape + (2, 2))
    spacings = [grid.spacing(a) for a in range(2)]
    df = [_periodic_partial(f, a, spacings[a]) for a in range(2)]
    grad_sq = sum(ginv[..., a, b] * df[a] * df[b] for a in range(2) for b in range(2))
    weight = spacings[0] * spacings[1] / patch.cover_multiplicity
    return float(np.sum(lap * f * sg) * weight), float(np.sum(grad_sq * sg) * weight)


def test_integration_by_parts_on_a_folded_chart_takes_the_fold_sign():
    # On a doubled chart, laplace_beltrami divides a fold-signed flux by
    # the fold-signed sqrt g. Discrete integration by parts then holds to
    # roundoff against sigma sqrt g, and only to O(h^2) against the |sqrt g|
    # of grid_integral and grid_gradient_pairing.
    sphere = round_sphere(2, 1, 0.8)
    gaps = []
    for res in (32, 64, 128):
        grid = QuadratureGrid.for_patch(sphere, res)
        f = sphere.evaluator(grid.points())[:, 0].reshape(grid.shape)
        lap = laplace_beltrami(sphere, f, grid)
        lap_f, grad_sq = _fold_signed_sums(sphere, f, lap, grid)
        assert abs(lap_f + grad_sq) <= 2.2e-15, res
        gaps.append(grid_integral(sphere, grid, lap * f) + grid_gradient_pairing(sphere, f, f, grid))
    # Measured 0.0764, 0.0193 and 0.00484: second order.
    assert gaps[0] > 0.05
    assert 3.5 < gaps[0] / gaps[1] < 4.5 and 3.5 < gaps[1] / gaps[2] < 4.5, gaps
    # f = x_0 lives on the sphere, and the two sheets of the chart carry
    # opposite orientations, so each fold-signed sum above vanishes by
    # itself. With a chart term added to x_0 the sums are O(1) and still
    # cancel to roundoff.
    grid = QuadratureGrid.for_patch(sphere, 64)
    u = grid.points().reshape(grid.shape + (2,))
    f = sphere.evaluator(grid.points())[:, 0].reshape(grid.shape)
    f = f + np.cos(u[..., 0] + 0.3) * np.sin(u[..., 1] + 0.2) + 0.1 * np.sin(2.0 * u[..., 0])
    lap_f, grad_sq = _fold_signed_sums(sphere, f, laplace_beltrami(sphere, f, grid), grid)
    assert grad_sq > 1.0
    assert abs(lap_f + grad_sq) <= 1e-14 * grad_sq


def _reference_grid_laplacian(patch, f, ginv, sqrt_g, grid):
    """The whole-array stencil, kept as the bit-for-bit reference.

    ``ginv`` is (M, n, n) and ``sqrt_g`` (M,): every node's metric at
    once, with node-sized rolls, partials and fluxes.
    """
    n = grid.ndim
    ginv = ginv.reshape(grid.shape + (n, n))
    sg = sqrt_g.reshape(grid.shape)
    if patch.fold_axes:
        sg = sg * _fold_sign(patch, np.ix_(*grid.nodes_1d))
    spacings = [grid.spacing(a) for a in range(n)]
    partials = [_periodic_partial(f, a, spacings[a]) for a in range(n)]
    fluxes = []
    for a in range(n):
        flux = np.zeros_like(f)
        for b in range(n):
            flux += ginv[..., a, b] * partials[b]
        flux *= sg
        fluxes.append(flux)
    div = np.zeros_like(f)
    for a in range(n):
        div = div + _periodic_partial(fluxes[a], a, spacings[a])
    return div / sg


def _reference_surface_residual(patch, grid):
    """Delta H + H (S - 2 H^2) from whole per-node fields and the whole-array stencil.

    The fields are those of the residual's kernel, taken over the grid's
    nodes in chunks from the first node, not over the stencil's rows.
    """
    pts = grid.points()
    size = _chunk_points(patch)
    work = _work_buffers(size, patch.n, patch.ambient_dim)
    chunks = [_surface_fields(patch, pts[start:start + size], work)
              for start in range(0, len(pts), size)]
    h, sqrt_g, coef, s = (np.concatenate(field) for field in zip(*chunks))
    h, s = h.reshape(grid.shape), s.reshape(grid.shape)
    lap = _reference_grid_laplacian(patch, h, coef.transpose(0, 2, 1) @ coef, sqrt_g, grid)
    return lap + h * (s - 2.0 * h**2)


def _frame_surface_residual(patch, grid):
    """The residual from the frame path: shape_batch's signed H and S, LAPACK's g^{-1}."""
    pts = grid.points()
    size = _chunk_points(patch)
    batches = [shape_batch(patch, pts[start:start + size]) for start in range(0, len(pts), size)]
    h = np.concatenate([b.mean_vector[:, 0] for b in batches]).reshape(grid.shape)
    s = np.concatenate([b.S for b in batches]).reshape(grid.shape)
    sqrt_g = np.concatenate([b.sqrt_g for b in batches])
    ginv = np.concatenate([np.linalg.inv(b.metric) for b in batches])
    lap = _reference_grid_laplacian(patch, h, ginv, sqrt_g, grid)
    return lap + h * (s - 2.0 * h**2)


def _assert_block_layout(patch, grid, layout):
    # The rows per block of the stencil, as _grid_sweep sizes them.
    count = grid.counts[0]
    block = max(_BLOCK_ROWS_MIN, _chunk_points(patch) * count // grid.node_total)
    if layout == "wraps":  # one block, whose halo wraps onto the block itself
        assert count <= block
    elif layout == "ragged":  # the last block is shorter
        assert count > block and count % block
    else:
        assert count > block and not count % block


_BLOCKED_CASES = [
    ("clifford-torus:1,2", 256, "even"),
    ("round-sphere:2,1,0.8", 64, "even"),  # folded: sqrt g takes the fold sign
    ("clifford-torus:1,2", 8, "wraps"),
    ("clifford-torus:1,2", (40, 64), "ragged"),
]


@pytest.mark.parametrize("ident, res, layout", _BLOCKED_CASES + [
    ("product-spheres:1,1,1", 24, "ragged"),
    ("product-spheres:1,1,1", (8, 10, 12), "wraps"),
])
def test_laplace_beltrami_equals_the_whole_array_stencil_bit_for_bit(ident, res, layout):
    patch = resolve(ident).patch
    grid = QuadratureGrid.for_patch(patch, res)
    _assert_block_layout(patch, grid, layout)
    pts = grid.points()
    f = (np.sin(pts[:, 0] + 0.3) * (1.0 + 0.5 * np.cos(2.0 * pts[:, -1]))).reshape(grid.shape)
    sqrt_g, ginv = _node_metric(patch, grid)
    want = _reference_grid_laplacian(patch, f, ginv, sqrt_g, grid)
    got = laplace_beltrami(patch, f, grid)
    assert got.shape == want.shape and np.array_equal(got, want)


def _reference_grid_pairing(patch, f, g, grid):
    """The whole-array Dirichlet pairing, kept as the bit-for-bit reference.

    Every node's metric at once, node-sized rolls and partials, and one
    ``np.sum`` of the density times |sqrt g|.
    """
    n = grid.ndim
    sqrt_g, ginv = _node_metric(patch, grid)
    ginv = ginv.reshape(grid.shape + (n, n))
    sg = sqrt_g.reshape(grid.shape)
    spacings = [grid.spacing(a) for a in range(n)]
    df = [_periodic_partial(f, a, spacings[a]) for a in range(n)]
    dg = [_periodic_partial(g, a, spacings[a]) for a in range(n)]
    density = np.zeros_like(f)
    for a in range(n):
        for b in range(n):
            density = density + ginv[..., a, b] * df[a] * dg[b]
    cell = float(np.prod(spacings))
    return float(np.sum(density * sg) * cell) / patch.cover_multiplicity


@pytest.mark.parametrize("ident, res, layout", _BLOCKED_CASES + [
    ("product-spheres:1,1,1", 24, "ragged"),
    ("product-spheres:1,1,1", (8, 10, 12), "wraps"),
])
def test_gradient_pairing_equals_the_whole_array_pairing_bit_for_bit(ident, res, layout):
    # Off-diagonal pairings of orthogonal functions read at roundoff,
    # where any change in the order of operations shows.
    patch = resolve(ident).patch
    grid = QuadratureGrid.for_patch(patch, res)
    _assert_block_layout(patch, grid, layout)
    pts = grid.points()
    f = (np.sin(pts[:, 0] + 0.3) * (1.0 + 0.5 * np.cos(2.0 * pts[:, -1]))).reshape(grid.shape)
    g = (np.cos(pts[:, -1]) * np.sin(2.0 * pts[:, 0] + 0.1)).reshape(grid.shape)
    for a, b in ((f, g), (f, f), (g, f)):
        got = grid_gradient_pairing(patch, a, b, grid)
        assert got == _reference_grid_pairing(patch, a, b, grid)


@pytest.mark.parametrize("ident, res, layout", _BLOCKED_CASES)
def test_surface_residual_equals_the_whole_array_stencil_bit_for_bit(ident, res, layout):
    patch = resolve(ident).patch
    grid = QuadratureGrid.for_patch(patch, res)
    _assert_block_layout(patch, grid, layout)
    want = _reference_surface_residual(patch, grid)
    got = el_residual_surface(patch, grid)
    assert np.array_equal(got.values, want)
    assert got.max_norm == float(np.max(np.abs(want)))


def _run_blocked(operator, patch, grid):
    """One sweep of the row-blocked stencil by the named operator."""
    f = np.sin(grid.points()[:, 0]).reshape(grid.shape)
    if operator == "surface":
        el_residual_surface(patch, grid)
    elif operator == "pairing":
        grid_gradient_pairing(patch, f, np.cos(grid.points()[:, -1]).reshape(grid.shape), grid)
    else:
        laplace_beltrami(patch, f, grid)


def _counted(monkeypatch, module, name, size=lambda *args: 1):
    """Patch ``module.name`` to record ``size`` of each call's arguments."""
    calls, inner = [], getattr(module, name)

    def counting(*args):
        calls.append(size(*args))
        return inner(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("operator", ["laplace", "pairing", "surface"])
@pytest.mark.parametrize("ident, res, layout", _BLOCKED_CASES)
def test_each_sweep_builds_one_set_of_work_buffers(monkeypatch, operator, ident, res, layout):
    # _grid_sweep holds one set for every chunk of every block; a
    # kernel that left _second_form to allocate its own would count too.
    patch = resolve(ident).patch
    grid = QuadratureGrid.for_patch(patch, res)
    built = _counted(monkeypatch, immersion, "_work_buffers")
    _run_blocked(operator, patch, grid)
    assert len(built) == 1


@pytest.mark.parametrize("operator", ["laplace", "pairing", "surface"])
@pytest.mark.parametrize("ident, res, layout", _BLOCKED_CASES)
def test_the_stencil_reduces_no_rho_sq(monkeypatch, operator, ident, res, layout):
    # The kernels stop at _second_form's h: rho^2 has no use in the stencil.
    patch = resolve(ident).patch
    grid = QuadratureGrid.for_patch(patch, res)
    reduced = _counted(monkeypatch, immersion, "_rho_sq_chunk")
    _run_blocked(operator, patch, grid)
    assert reduced == []


@pytest.mark.parametrize("operator", ["laplace", "pairing", "surface"])
@pytest.mark.parametrize("ident, res, layout", _BLOCKED_CASES)
def test_the_kernel_sees_every_row_once_apart_from_the_wrapped_rows(
    monkeypatch, operator, ident, res, layout
):
    # Jets are taken once per node the kernel is asked for: every grid
    # row once, and the four rows where the sweep wraps around twice.
    patch = resolve(ident).patch
    grid = QuadratureGrid.for_patch(patch, res)
    module = willmore if operator == "surface" else immersion
    seen = _counted(monkeypatch, module, "_jets", lambda patch, pts, step: len(pts))
    _run_blocked(operator, patch, grid)
    row = grid.node_total // grid.counts[0]
    assert sum(seen) == grid.node_total + 4 * row
    assert max(seen) <= _chunk_points(patch)


def _surface_cases():
    sphere = round_sphere(2, 1, 0.8)
    yield torus_family_patch(1, 2, 0.6)[0], 64, 1e-12  # off-critical: the residual is 0.63
    yield resolve("clifford-torus:1,2").patch, 256, 1.5e-11
    yield sphere, 64, 1.5e-10
    for trial in range(6):  # no normal hint: the orientation gauge with its fold sign
        yield mobius_apply(random_mobius(4, trial_rng(0, trial)), sphere), 32, 3e-11


def test_surface_residual_agrees_with_the_frame_path():
    # The frame path (a second Gram-Schmidt pass, h in the normal frame,
    # the metric inverted by LAPACK) is an independent oracle for the
    # kernel's signed H, S and g^{-1} = coef^T coef. Gates are about ten
    # times the differences measured: 8.2e-14 on the distorted torus,
    # 1.2e-12 on the Clifford torus, 1.3e-11 on the doubled sphere and
    # at most 2.4e-12 on its images.
    for patch, res, gate in _surface_cases():
        grid = QuadratureGrid.for_patch(patch, res)
        got = el_residual_surface(patch, grid).values
        assert np.max(np.abs(got - _frame_surface_residual(patch, grid))) < gate, patch.name


def test_shape_batch_metric_is_symmetric_bit_for_bit():
    # The metric is a Gram matrix of the first jet, symmetric bit for bit.
    rng = np.random.default_rng(18)
    for patch in _catalog_patches():
        pts = sample_safe_points(patch, rng, 64)
        images = [moved for _, moved in _pole_safe_images(patch, 700, 2)]
        for chart in [patch] + images:
            metric = shape_batch(chart, pts).metric
            assert np.array_equal(metric, metric.transpose(0, 2, 1)), chart.name


def test_laplace_beltrami_memory_follows_the_block_not_the_grid():
    # Peak allocation grows by the result (one double per node) and by
    # the row block, which is 16 rows at both sizes, so twice as many
    # nodes at 256^2: 2.0 doubles per node measured. sqrt g and g^{-1}
    # are taken per block of rows, as are the stencil's rolls, partials
    # and fluxes. Gathering rho^2, sqrt g and g^{-1} for every node first
    # measured 6.0, and by concatenation with a whole-array stencil 9.7.
    patch = _flat_patch()
    peaks = []
    for res in (128, 256):
        grid = QuadratureGrid.for_patch(patch, res)
        th = grid.points()[:, 0].reshape(grid.shape)
        f = np.sin(th)
        tracemalloc.start()
        try:
            laplace_beltrami(patch, f, grid)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 3 * 8 * (256**2 - 128**2)


def test_gradient_pairing_memory_follows_the_block_not_the_grid():
    # The pairing holds one node-sized array, the weighted density it
    # sums, and the sweep's blocks: a traced peak of 2.06, 2.94 and 5.10
    # MiB at 128^2, 256^2 and 512^2, 1.0 double per node more from 256^2
    # to 512^2. Gathering rho^2, sqrt g and g^{-1} for every node and a
    # whole-array density measured 2.56, 6.01 and 24.01 MiB, 12 doubles
    # per node.
    patch = _flat_patch()
    peaks = []
    for res in (256, 512):
        grid = QuadratureGrid.for_patch(patch, res)
        pts = grid.points()
        f, g = np.sin(pts[:, 0]).reshape(grid.shape), np.cos(pts[:, 1]).reshape(grid.shape)
        tracemalloc.start()
        try:
            grid_gradient_pairing(patch, f, g, grid)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2 * 8 * (512**2 - 256**2)
    assert peaks[1] < 6 * 2**20


@pytest.mark.parametrize("operator", ["laplace", "pairing"])
def test_the_sweep_reports_the_global_point_index(operator):
    # A node in the second block of rows, and a node in the last grid
    # row, which the first block reads as its halo.
    patch, _ = clifford_torus(1, 2)
    grid = QuadratureGrid.for_patch(patch, 64)
    f = np.sin(grid.points()[:, 0]).reshape(grid.shape)
    for bad in (_chunk_points(patch) + 3, grid.node_total - 60):
        theta = grid.points()[bad]

        def poisoned(t):
            x, first, second = patch.exact_jet(t)
            first[np.all(t == theta, axis=-1)] = 0.0
            return x, first, second

        with pytest.raises(RankError, match=f"rank deficient at point index {bad} "):
            _run_blocked(operator, replace(patch, exact_jet=poisoned), grid)


def test_mobius_identity_map_is_exact():
    patch = willmore_torus(2, 4)[0]
    dim = patch.ambient_dim
    pole = np.random.default_rng(4).standard_normal(dim)
    mob = MobiusMap(np.eye(dim), 1.0, np.zeros(dim), pole / np.linalg.norm(pole))
    moved = mobius_apply(mob, patch)
    pts = sample_safe_points(patch, np.random.default_rng(2), 12)
    assert np.abs(moved.evaluator(pts) - patch.evaluator(pts)).max() < 1e-14
    for got, want in zip(moved.exact_jet(pts), patch.exact_jet(pts)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() < 1e-14


def _stereographic_reference(mob, patch):
    """The image evaluator as a stereographic round trip, point by point."""
    limit = 1.0 - (1.0 - np.cos(0.5 * POLE_CLEARANCE))

    def evaluator(u):
        y = patch.evaluator(u) @ mob.rotation.T
        align = y @ mob.pole
        if np.max(align) > limit:
            raise PoleError("patch image passes too close to the stereographic pole")
        w = (y - align[..., None] * mob.pole) / (1.0 - align)[..., None]
        w = mob.dilation * w + mob.translation
        t = np.einsum("...j,...j->...", w, w)
        return (2.0 * w + (t - 1.0)[..., None] * mob.pole) / (t + 1.0)[..., None]

    return evaluator


def _lift_patches():
    return [
        clifford_torus(1, 2)[0],
        veronese(),
        willmore_torus(2, 4)[0],
        product_spheres((1, 1, 1))[0],
    ]


def _pole_safe_images(patch, seed, count):
    images = []
    for trial in range(20 * count):
        mob = random_mobius(patch.ambient_dim, np.random.default_rng(seed + trial))
        try:
            images.append((mob, mobius_apply(mob, patch)))
        except PoleError:
            continue
        if len(images) == count:
            return images
    pytest.fail("no pole-safe conformal map drawn")


def test_mobius_lift_matches_the_stereographic_round_trip():
    rng = np.random.default_rng(12)
    for patch in _lift_patches():
        pts = sample_safe_points(patch, rng, 200)
        for mob, moved in _pole_safe_images(patch, 300, 3):
            reference = _stereographic_reference(mob, patch)
            assert np.abs(moved.evaluator(pts) - reference(pts)).max() <= 1e-14
            # Leading axes broadcast like the source evaluator.
            grid_pts = pts[:12].reshape(3, 4, patch.n)
            assert np.abs(moved.evaluator(grid_pts) - reference(grid_pts)).max() <= 1e-14


def test_mobius_images_keep_exact_jets():
    rng = np.random.default_rng(13)
    for patch in _lift_patches():
        pts = sample_safe_points(patch, rng, 40)
        for _, moved in _pole_safe_images(patch, 700, 3):
            assert moved.exact_jet is not None
            x, first, second = moved.exact_jet(pts)
            fx, ffirst, fsecond = _fd_jets(moved.evaluator, pts, 1e-4)
            assert np.abs(x - fx).max() <= 1e-14
            assert np.abs(first - ffirst).max() <= 1e-7
            assert np.abs(second - fsecond).max() <= 1e-6
            # The jet broadcasts over leading axes as well.
            lead = moved.exact_jet(pts[:12].reshape(3, 4, patch.n))
            for got, want in zip(lead, (x, first, second)):
                assert np.abs(got.reshape(want[:12].shape) - want[:12]).max() <= 1e-15


def test_mobius_images_of_jet_free_patches_use_differences():
    source = clifford_torus(1, 2)[0]
    (mob, moved), = _pole_safe_images(replace(source, exact_jet=None), 40, 1)
    assert moved.exact_jet is None
    pts = sample_safe_points(source, np.random.default_rng(14), 16)
    fd = shape_batch(moved, pts, step=1e-4)
    exact = shape_batch(mobius_apply(mob, source), pts)
    assert np.abs(fd.rho_sq - exact.rho_sq).max() < 1e-6


def test_mobius_map_validation():
    dim = 4
    pole = np.zeros(dim)
    pole[0] = 1.0
    with pytest.raises(ValueError):
        MobiusMap(2.0 * np.eye(dim), 1.0, np.zeros(dim), pole)
    with pytest.raises(ValueError):
        MobiusMap(np.eye(dim), -1.0, np.zeros(dim), pole)
    with pytest.raises(ValueError):
        MobiusMap(np.eye(dim), 1.0, np.zeros(dim), 2.0 * pole)
    with pytest.raises(ValueError):
        MobiusMap(np.eye(dim), 1.0, 0.3 * pole, pole)


def test_mobius_rejects_poles_on_the_surface():
    patch = _flat_patch()
    corner = np.array([lo for lo, _ in patch.fd_safe])
    x0 = patch.evaluator(corner)
    mob = MobiusMap(np.eye(4), 1.0, np.zeros(4), x0 / np.linalg.norm(x0))
    with pytest.raises(ValueError, match="pole"):
        mobius_apply(mob, patch)


def test_mobius_pole_errors_are_typed():
    patch = _flat_patch()
    corner = np.array([lo for lo, _ in patch.fd_safe])
    x0 = patch.evaluator(corner)
    with pytest.raises(PoleError):
        mobius_apply(MobiusMap(np.eye(4), 1.0, np.zeros(4), x0 / np.linalg.norm(x0)), patch)
    # Halfway between the coarse clearance samples the up-front check
    # passes, and the image evaluator's own guard has to fire.
    lo, hi = np.array(patch.fd_safe).T
    mid = lo + (hi - lo) / 10.0
    x1 = patch.evaluator(mid)
    moved = mobius_apply(MobiusMap(np.eye(4), 1.0, np.zeros(4), x1 / np.linalg.norm(x1)), patch)
    with pytest.raises(PoleError):
        moved.evaluator(mid[None, :])
    with pytest.raises(PoleError):
        moved.exact_jet(mid[None, :])


def test_energy_of_a_grazing_image_raises_from_the_exact_path():
    patch = _flat_patch()
    grid = QuadratureGrid.for_patch(patch, 40)
    # A grid node off the coarse clearance samples: the up-front check
    # passes, and the node's own guard fires inside the energy.
    node = grid.points()[4 * 40 + 4]
    x0 = patch.evaluator(node)
    moved = mobius_apply(MobiusMap(np.eye(4), 1.0, np.zeros(4), x0 / np.linalg.norm(x0)), patch)
    assert moved.exact_jet is not None
    with pytest.raises(PoleError, match="stereographic pole"):
        willmore_energy(moved, grid)


def test_mobius_images_stay_conformal():
    patch = _flat_patch()
    rng = np.random.default_rng(77)
    pts = sample_safe_points(patch, rng, 10)
    base = shape_batch(patch, pts)
    for trial in range(4):
        mob = random_mobius(patch.ambient_dim, np.random.default_rng(500 + trial))
        try:
            moved = mobius_apply(mob, patch)
        except ValueError:
            continue
        img = shape_batch(moved, pts, step=1e-4)
        for k in range(len(pts)):
            g0 = base.metric[k]
            g1 = img.metric[k]
            factor = np.trace(g1) / np.trace(g0)
            assert factor > 0
            assert np.abs(g1 - factor * g0).max() < 1e-6 * factor


def test_sample_safe_points_stay_in_box():
    patch = veronese()
    pts = sample_safe_points(patch, np.random.default_rng(1), 64)
    for axis, (lo, hi) in enumerate(patch.fd_safe):
        assert pts[:, axis].min() >= lo
        assert pts[:, axis].max() <= hi


def _catalog_patches():
    return [
        clifford_torus(1, 2)[0],
        willmore_torus(1, 3)[0],
        willmore_torus(2, 4)[0],
        clifford_torus(2, 5)[0],
        veronese(),
        product_spheres((1, 1, 1))[0],
        product_spheres((2, 2, 1))[0],
        round_sphere(2, 1, 0.7),
        round_sphere(3, 2, 0.6),
    ]


def _reference_shape_batch(patch, points, step=1e-4):
    """The QR pipeline that shape_batch once was, kept as an independent check.

    Tangent frame from a QR of the Jacobian with a sign fix, an SVD rank
    check, sqrt g = det R, and h from two triangular solves against the
    normal components of x_ij, then symmetrized. The unit-sphere guard
    is left to the pipeline under test.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    x, first, second = _jets(patch, pts, step)
    jac = first.transpose(0, 2, 1)
    q, r = np.linalg.qr(jac)
    sign = np.sign(np.diagonal(r, axis1=1, axis2=2))
    sign = np.where(sign == 0.0, 1.0, sign)
    q = q * sign[:, None, :]
    r = r * sign[:, :, None]
    smin = np.linalg.svd(r, compute_uv=False)[:, -1]
    bad = np.nonzero(smin < RANK_TOL)[0]
    if bad.size:
        raise RankError(int(bad[0]), smin[bad[0]])
    basis = np.concatenate([q, x[:, :, None]], axis=2)
    normal = _complete_normals(basis, patch.p)
    if patch.p == 1:
        if patch.normal_hint is not None:
            flip = np.sign(np.einsum("mj,mj->m", normal[:, :, 0], patch.normal_hint(pts)))
        else:
            flip = np.sign(np.linalg.det(np.concatenate([basis, normal], axis=2)))
        normal = normal * flip[:, None, None]
    b_coord = np.einsum("mabj,mjp->mpab", second, normal)
    rt = r.transpose(0, 2, 1)[:, None]
    half = np.linalg.solve(rt, b_coord)
    h = np.linalg.solve(rt, half.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2)
    h = 0.5 * (h + h.transpose(0, 1, 3, 2))
    mean_vector = np.einsum("mpii->mp", h) / patch.n
    mean_norm = np.linalg.norm(mean_vector, axis=1)
    s_val = np.einsum("mpij,mpij->m", h, h)
    return ShapeBatch(
        points=pts,
        x=x,
        tangent=q,
        normal=normal,
        metric=np.einsum("mja,mjb->mab", jac, jac),
        sqrt_g=np.prod(np.diagonal(r, axis1=1, axis2=2), axis=1),
        h=h,
        mean_vector=mean_vector,
        mean_norm=mean_norm,
        S=s_val,
        rho_sq=s_val - patch.n * mean_norm**2,
    )


def _assert_fields_match(patch, pts, fields=None):
    # The integrand kernel's fields, by default _rho_sq_chunk on the jets
    # at pts, against the QR pipeline.
    if fields is None:
        fields = _rho_sq_chunk(*_jets(patch, pts, FD_STEP), None)
    rho_sq, sqrt_g, coef = fields
    ginv = coef.transpose(0, 2, 1) @ coef
    ref = _reference_shape_batch(patch, pts)
    for got, want in (
        (rho_sq, ref.rho_sq),
        (sqrt_g, ref.sqrt_g),
        (ginv, np.linalg.inv(ref.metric)),
    ):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())


def test_integrand_kernel_matches_shape_batch_on_the_catalog():
    rng = np.random.default_rng(5)
    for patch in _catalog_patches():
        _assert_fields_match(patch, sample_safe_points(patch, rng, 64))


def test_integrand_kernel_matches_shape_batch_on_mobius_images():
    rng = np.random.default_rng(6)
    for patch in (clifford_torus(1, 2)[0], willmore_torus(1, 3)[0], veronese()):
        pts = sample_safe_points(patch, rng, 64)
        for trial in range(20):
            try:
                mob = random_mobius(patch.ambient_dim, np.random.default_rng(900 + trial))
                _assert_fields_match(replace(mobius_apply(mob, patch), exact_jet=None), pts)
            except PoleError:
                continue
            break
        else:
            pytest.fail("no pole-safe conformal map drawn")


def _assert_batch_matches_the_reference(patch, pts, step=1e-4):
    got = shape_batch(patch, pts, step=step)
    want = _reference_shape_batch(patch, pts, step=step)
    for name in ShapeBatch.__dataclass_fields__:
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape, name
        assert np.abs(a - b).max() <= 1e-13 * max(1.0, np.abs(b).max()), name


def test_shape_batch_matches_the_reference_on_the_catalog():
    rng = np.random.default_rng(15)
    for patch in _catalog_patches():
        _assert_batch_matches_the_reference(patch, sample_safe_points(patch, rng, 64))


def test_shape_batch_matches_the_reference_on_mobius_images():
    rng = np.random.default_rng(16)
    for patch in (clifford_torus(1, 2)[0], willmore_torus(1, 3)[0], veronese()):
        pts = sample_safe_points(patch, rng, 64)
        for _, moved in _pole_safe_images(patch, 900, 2):
            _assert_batch_matches_the_reference(moved, pts)


def test_shape_batch_matches_the_reference_on_the_finite_difference_path():
    rng = np.random.default_rng(17)
    for patch in _catalog_patches():
        pts = sample_safe_points(patch, rng, 32)
        _assert_batch_matches_the_reference(replace(patch, exact_jet=None), pts)
    source = replace(clifford_torus(1, 2)[0], exact_jet=None)
    (_, moved), = _pole_safe_images(source, 40, 1)
    _assert_batch_matches_the_reference(moved, sample_safe_points(source, rng, 32))


def _skewed_clifford_torus(delta):
    """The Clifford torus in coordinates with x_t = x_s + delta X_2.

    x(s, t) = X(s + t, delta t) for the clifford-torus:1,2 chart X, so
    the coordinate derivatives meet at an angle of order delta. X_12 = 0
    and X_11, X_22 live in complementary coordinates, so the jets below
    are exact in floating point.
    """
    base, _ = clifford_torus(1, 2)
    a = np.array([[1.0, 1.0], [0.0, delta]])  # u = a (s, t)

    def jet(t):
        x, first, second = base.exact_jet(t @ a.T)
        return (
            x,
            np.einsum("ki,...kj->...ij", a, first),
            np.einsum("ki,lm,...klj->...imj", a, a, second),
        )

    return replace(base, evaluator=lambda t: base.evaluator(t @ a.T), exact_jet=jet)


@pytest.mark.parametrize("delta", [1e-3, 1e-4, 1e-5, 5e-6])
def test_shape_data_stays_exact_on_a_skewed_chart(delta):
    # The QR-and-solve pipeline lost about eps / delta^2 here (3e-8 in
    # rho^2 at delta = 1e-4). The Gram-Schmidt core keeps rho^2 and H at
    # roundoff, and its second pass keeps the frame orthonormal.
    patch = _skewed_clifford_torus(delta)
    for u in np.random.default_rng(18).uniform(0.0, 2.0 * math.pi, size=(8, 2)):
        sd = shape_data(patch, u)
        t = sd.tangent_frame
        normal = sd.normal_frame
        # Tangent against position is left to ShapeData's own check: the
        # Gram-Schmidt frame inherits the jets' roundoff along x, scaled
        # by 1 / delta.
        assert np.abs(t @ t.T - np.eye(2)).max() <= 1e-13
        frame = np.vstack([t, sd.position])
        assert np.abs(normal @ normal.T - np.eye(1)).max() <= 1e-13
        assert np.abs(normal @ frame.T).max() <= 1e-13
        assert abs(sd.rho_sq - 2.0) <= 1e-13
        assert sd.mean_norm <= 1e-13


def _first_nodes_walk(patch, count):
    """The grid walk over the first ``count`` nodes of a grid with more.

    Returns the walk's (start, stop) spans, those nodes, and rho^2, sqrt g
    and coef over them.
    """
    grid = QuadratureGrid.for_patch(patch, 2 + int(count ** (1 / patch.n)))
    walk = list(_integrand_chunks(patch, grid, stop=count))
    rho_sq, sqrt_g = (np.concatenate([piece[i][0] for piece in walk]) for i in (3, 4))
    coef = np.concatenate([piece[5] for piece in walk])
    return [piece[:2] for piece in walk], grid.points()[:count], (rho_sq, sqrt_g, coef)


@pytest.mark.parametrize("count", [1, _CHUNK_MAX - 1, _CHUNK_MAX, 2 * _CHUNK_MAX + 5])
def test_integrand_kernel_across_chunk_boundaries(count):
    patch, _ = willmore_torus(1, 3)
    spans, pts, fields = _first_nodes_walk(patch, count)
    assert len(spans) == -(-count // _chunk_points(patch)) and spans[-1][1] == count
    _assert_fields_match(patch, pts, fields)


def test_chunks_are_sized_by_the_bytes_of_the_second_jet():
    # n^2 N doubles per point against 1 MiB, as a power of two in [256, 2048].
    sizes = {
        "clifford-torus:1,2": 2048,
        "veronese": 2048,
        "willmore-torus:1,3": 2048,
        "willmore-torus:2,4": 1024,
        "product-spheres:2,2,1": 512,
    }
    assert {ident: _chunk_points(resolve(ident).patch) for ident in sizes} == sizes
    wide = ImmersionPatch(
        n=8, ambient_dim=40, domain=(AxisInterval(0.0, 1.0),) * 8, evaluator=lambda u: u
    )
    assert _chunk_points(wide) == 256  # 20 KiB a point: clamped up to the floor


@pytest.mark.parametrize(
    "ident", ["clifford-torus:1,2", "willmore-torus:2,4", "product-spheres:2,2,1"]
)
@pytest.mark.parametrize("shift", [-1, 0, 1])
def test_integrand_kernel_across_byte_sized_chunk_boundaries(ident, shift):
    # A walk of a grid's first nodes that ends one node short of, exactly
    # at, and one past the chunk of an n = 2, 4 and 5 chart.
    patch = resolve(ident).patch
    chunk = _chunk_points(patch)
    spans, pts, fields = _first_nodes_walk(patch, chunk + shift)
    assert spans == [(0, min(chunk, chunk + shift))] + [(chunk, chunk + shift)] * (shift > 0)
    _assert_fields_match(patch, pts, fields)


def test_integrand_kernel_reports_the_global_point_index():
    # An odd count on the fold axis of the doubled chart puts grid row 32
    # of 65 on the fold, past the walk's first chunk.
    sphere = round_sphere(2, 1, 0.7)
    grid = QuadratureGrid.for_axes(sphere.domain, (65, 70))
    bad = 32 * 70
    assert abs(grid.nodes_1d[0][32] - math.pi) < 1e-15 and bad > _chunk_points(sphere)
    with pytest.raises(ValueError, match=f"rank deficient at point index {bad} "):
        list(_integrand_chunks(sphere, grid))
    # A non-finite differential is not cleared either.
    base, _ = clifford_torus(1, 2)
    grid = QuadratureGrid.for_patch(base, 64)

    def poisoned(t):
        x, first, second = base.exact_jet(t)
        first[t[:, 0] == grid.nodes_1d[0][40]] = np.nan
        return x, first, second

    bad = 40 * 64
    assert bad > _chunk_points(base)
    with pytest.raises(ValueError, match=f"point index {bad} .*nan"):
        list(_integrand_chunks(replace(base, exact_jet=poisoned), grid))


def test_energy_keeps_the_shape_guards():
    flat = _flat_circle_patch()
    with pytest.raises(ValueError, match="rank deficient"):
        willmore_energy(flat, QuadratureGrid.for_patch(flat, 8))
    base = _flat_patch()
    off = replace(base, evaluator=lambda t: 1.01 * base.evaluator(t), exact_jet=None)
    with pytest.raises(ValueError, match="unit sphere"):
        willmore_energy(off, QuadratureGrid.for_patch(off, 8))
    fd = replace(veronese(), exact_jet=None)
    with pytest.raises(ValueError, match="axis 0: .*one-step margin"):
        willmore_energy(fd, QuadratureGrid.for_patch(fd, 256))


def test_mobius_jets_of_k_maps_equal_k_single_map_calls():
    patch = veronese()
    rng = np.random.default_rng(7)
    x, first, second = patch.exact_jet(sample_safe_points(patch, rng, 409))
    fractions = [_linear_fraction(random_mobius(5, rng)) for _ in range(5)]
    together = _mobius_jets(x, first, second, fractions)
    for k, fraction in enumerate(fractions):
        alone = _mobius_jets(x, first, second, [fraction])
        for stacked, single in zip(together, alone):
            assert np.array_equal(stacked[k], single[0])
