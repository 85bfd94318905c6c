import math
from dataclasses import replace

import numpy as np
import pytest

from willmorelab.catalog import clifford_torus, round_sphere, veronese, willmore_torus
from willmorelab.grids import AxisInterval, QuadratureGrid
from willmorelab.immersion import (
    ImmersionPatch,
    MobiusMap,
    PoleError,
    grid_gradient_pairing,
    laplace_beltrami,
    mobius_apply,
    random_mobius,
    sample_safe_points,
    scalar_curvature,
    shape_batch,
    shape_data,
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
    t = sd.tangent_frame.vectors
    m = sd.normal_frame.vectors
    assert np.allclose(t @ t.T, np.eye(3), atol=1e-12)
    assert np.allclose(m @ m.T, np.eye(1), atol=1e-12)
    assert np.abs(t @ sd.position).max() < 1e-12
    assert np.abs(m @ sd.position).max() < 1e-12


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
        exact = shape_batch(patch, pts, use_exact=True)
        fd = shape_batch(patch, pts, step=1e-4, use_exact=False)
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
        b = shape_batch(patch, pt, step=h, use_exact=False)
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
        shape_batch(patch, np.array([[5e-5, 1.0]]), step=1e-4, use_exact=False)
    # the exact path takes the same point without complaint
    shape_batch(patch, np.array([[5e-5, 1.0]]), use_exact=True)


def test_unit_sphere_violation_is_caught():
    base = _flat_patch()
    bad = replace(base, evaluator=lambda t: 1.01 * base.evaluator(t), exact_jet=None)
    with pytest.raises(ValueError, match="unit sphere"):
        shape_batch(bad, bad.safe_center()[None, :])


def test_rank_deficiency_is_reported():
    def flat_circle(t):
        t = np.asarray(t, dtype=float)
        th = t[..., 0]
        root = 1.0 / math.sqrt(2.0)
        return np.stack(
            [root * np.cos(th), root * np.sin(th), np.full_like(th, root),
             np.zeros_like(th)],
            axis=-1,
        )

    patch = ImmersionPatch(
        n=2,
        ambient_dim=4,
        domain=(
            AxisInterval(0.0, 2.0 * math.pi, periodic=True),
            AxisInterval(0.0, 2.0 * math.pi, periodic=True),
        ),
        evaluator=flat_circle,
    )
    with pytest.raises(ValueError, match="rank deficient"):
        shape_batch(patch, patch.safe_center()[None, :])


def test_normal_hint_pins_the_sign_on_folded_charts():
    sphere = round_sphere(2, 1, 0.8)
    grid = QuadratureGrid.for_patch(sphere, 32)
    batch = shape_batch(sphere, grid.points())
    signed = batch.mean_vector[:, 0]
    assert signed.min() > 0.74 and signed.max() < 0.76


def test_normal_hint_orthogonal_to_normal_is_rejected():
    base = _flat_patch()
    bad = replace(base, normal_hint=base.evaluator)  # position is normal-orthogonal
    with pytest.raises(ValueError, match="normal_hint"):
        shape_batch(bad, bad.safe_center()[None, :])


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


def test_mobius_identity_map_is_exact():
    patch = _flat_patch()
    dim = patch.ambient_dim
    pole = np.zeros(dim)
    pole[0] = 1.0
    mob = MobiusMap(np.eye(dim), 1.0, np.zeros(dim), pole)
    moved = mobius_apply(mob, patch)
    pts = sample_safe_points(patch, np.random.default_rng(2), 12)
    assert np.abs(moved.evaluator(pts) - patch.evaluator(pts)).max() < 1e-12


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
