"""End-to-end checks of every headline numerical claim.

Each test covers one contract and prints a single PASS/FAIL line with
the measured worst case, bypassing capture so the verdicts appear in
any pytest run. Tolerances are stated inline next to each assertion.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from willmorelab.catalog import (
    IsoparametricSpec,
    clifford_torus,
    product_spheres,
    resolve,
    round_sphere,
    round_sphere_spec,
    torus_family_patch,
    veronese,
    willmore_torus,
)
from willmorelab.cli import run_suite
from willmorelab.grids import QuadratureGrid
from willmorelab.immersion import (
    PoleError,
    grid_gradient_pairing,
    mobius_apply,
    random_mobius,
    sample_safe_points,
    scalar_curvature,
    shape_batch,
)
from willmorelab.linalg import SymmetricMatrix
from willmorelab.optimize import TorusFamily, family_energy, find_critical_radius
from willmorelab.tensors import (
    ShapeFamily,
    SymTensor3,
    canonical_pair,
    check_chern_inequality,
    check_li_inequality,
    equality_witness,
    f_tensor_decompose,
    trial_rng,
)
from willmorelab.willmore import (
    OUTSIDE_PINCHING_RANGE,
    TOTALLY_UMBILIC,
    VERONESE,
    WILLMORE_TORUS,
    classify_willmore,
    el_residual_isoparametric,
    el_residual_surface,
    grid_integral,
    laplace_beltrami,
    pinching_integral,
    pinching_threshold,
    willmore_energy,
)


@pytest.fixture
def report(capsys):
    def _report(label: str, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"{'PASS' if ok else 'FAIL'}  {label}  [{detail}]")
        assert ok, f"{label}: {detail}"

    return _report


def _compositions(total: int):
    for cuts in range(1, total):
        for marks in itertools.combinations(range(1, total), cuts):
            bounds = (0,) + marks + (total,)
            yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def test_traceless_curvature_scalar_reproduction(report):
    worst_exact = 0.0
    worst_fd = 0.0
    rng = np.random.default_rng(1001)
    for n in range(2, 6):
        for m in range(1, n):
            patch, spec = willmore_torus(m, n)
            worst_exact = max(worst_exact, abs(spec.rho_sq - n))
            sd = patch.exact_shape(patch.safe_center())
            worst_exact = max(worst_exact, abs(sd.rho_sq - n))
            pts = sample_safe_points(patch, rng, 4)
            batch = shape_batch(replace(patch, exact_jet=None), pts, step=1e-4)
            worst_fd = max(worst_fd, np.abs(batch.rho_sq - n).max())

    vp = veronese()
    vb = shape_batch(vp, sample_safe_points(vp, rng, 20))
    worst_veronese = np.abs(vb.rho_sq - 4.0 / 3.0).max()

    worst_prod = 0.0
    count = 0
    for total in range(2, 9):
        for parts in _compositions(total):
            if len(parts) < 2:
                continue
            patch, spec = product_spheres(parts)
            target = spec.n * spec.p
            worst_prod = max(worst_prod, abs(spec.rho_sq - target))
            sd = patch.exact_shape(patch.safe_center())
            worst_prod = max(worst_prod, abs(sd.rho_sq - target))
            count += 1

    ok = (
        worst_exact <= 1e-12
        and worst_fd <= 5e-5
        and worst_veronese <= 1e-6
        and worst_prod <= 1e-9
    )
    report(
        "traceless curvature scalar reproduction",
        ok,
        f"exact {worst_exact:.1e}, fd {worst_fd:.1e}, quadratic-embedding "
        f"{worst_veronese:.1e}, {count} sphere products {worst_prod:.1e}",
    )


def test_critical_point_residuals(report):
    worst_balanced = 0.0
    for n in range(2, 7):
        for m in range(1, n):
            res = el_residual_isoparametric(willmore_torus(m, n)[1])
            worst_balanced = max(worst_balanced, res.norm)

    least_minimal = np.inf
    for n in range(2, 7):
        for m in range(1, n):
            if n == 2 * m:
                continue
            res = el_residual_isoparametric(clifford_torus(m, n)[1])
            least_minimal = min(least_minimal, res.norm)

    worst_surface = 0.0
    for patch in (
        clifford_torus(1, 2)[0],
        round_sphere(2, 1, 0.6),
        round_sphere(2, 1, 0.8),
    ):
        grid = QuadratureGrid.for_patch(patch, 64)
        worst_surface = max(worst_surface, el_residual_surface(patch, grid).max_norm)

    patch, spec = torus_family_patch(1, 2, 0.6)
    grid = QuadratureGrid.for_patch(patch, 64)
    got = el_residual_surface(patch, grid).max_norm
    expect = spec.mean_norm * spec.rho_sq
    off_gap = abs(got - expect)

    ok = (
        worst_balanced <= 1e-12
        and least_minimal >= 0.05
        and worst_surface <= 1e-6
        and off_gap <= 1e-4
    )
    report(
        "critical-point residuals",
        ok,
        f"balanced {worst_balanced:.1e}, unbalanced-minimal floor {least_minimal:.3f}, "
        f"surface {worst_surface:.1e}, off-critical gap {off_gap:.1e}",
    )


def test_bending_energy_oracles(report):
    patch, _ = clifford_torus(1, 2)
    grid = QuadratureGrid.for_patch(patch, 128)
    square = willmore_energy(patch, grid)
    err_square = abs(square - 4.0 * math.pi**2)

    patch3, _ = willmore_torus(1, 3)
    grid3 = QuadratureGrid.for_patch(patch3, 32)
    target = 8.0 * math.sqrt(2.0) * math.pi**2
    quad = willmore_energy(patch3, grid3)
    closed = family_energy(TorusFamily(1, 3), math.sqrt(2.0 / 3.0))
    err_torus = max(abs(quad - target), abs(closed - target))

    ok = err_square <= 1e-6 and err_torus <= 1e-6
    report(
        "bending energy oracles",
        ok,
        f"square torus {err_square:.1e}, balanced 3-torus {err_torus:.1e}",
    )


def _max_conformal_drift(patch, resolution: int, maps: int, seed: int) -> float:
    grid = QuadratureGrid.for_patch(patch, resolution)
    base = willmore_energy(patch, grid)
    drift = 0.0
    applied = 0
    trial = 0
    while applied < maps and trial < 20 * maps:
        rng = trial_rng(seed, trial)
        trial += 1
        try:
            moved = mobius_apply(random_mobius(patch.ambient_dim, rng), patch)
            value = willmore_energy(moved, grid)
        except PoleError:
            continue
        drift = max(drift, abs(value - base) / base)
        applied += 1
    if applied < maps:
        raise RuntimeError("could not draw enough pole-safe maps")
    return drift


def test_conformal_energy_invariance(report):
    drift_torus = _max_conformal_drift(clifford_torus(1, 2)[0], 64, 10, seed=42)
    drift_veronese = _max_conformal_drift(veronese(), 48, 10, seed=43)
    ok = drift_torus <= 1e-12 and drift_veronese <= 1e-12
    report(
        "conformal energy invariance",
        ok,
        f"square torus drift {drift_torus:.1e}, quadratic embedding {drift_veronese:.1e}",
    )


def test_commutator_and_gram_inequalities(report):
    min_pair = run_suite("commutator_bound", 100_000, seed=11)["min_slack"]
    min_family = run_suite("family_bound", 100_000, seed=12)["min_slack"]

    worst_canonical = 0.0
    for dim in range(2, 7):
        a0, b0 = canonical_pair(dim)
        worst_canonical = max(worst_canonical, abs(check_chern_inequality(a0, b0)))
        scaled = np.stack([0.7 * a0.data, 0.7 * b0.data])
        worst_canonical = max(worst_canonical, abs(check_li_inequality(scaled)))

    recovered = 0
    worst_witness = 0.0
    for trial in range(100):
        rng = trial_rng(99, trial)
        dim = int(rng.integers(2, 7))
        a0, b0 = canonical_pair(dim)
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        lam0 = float(rng.uniform(0.5, 2.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        mu0 = float(rng.uniform(0.5, 2.0))
        a = SymmetricMatrix(q @ (lam0 * a0.data) @ q.T)
        b = SymmetricMatrix(q @ (mu0 * b0.data) @ q.T)
        hit = equality_witness(a, b, tol=1e-10)
        if hit is None:
            continue
        t, lam, mu = hit
        res_a = np.linalg.norm(t.T @ a.data @ t - lam * a0.data)
        res_b = np.linalg.norm(t.T @ b.data @ t - mu * b0.data)
        worst_witness = max(worst_witness, res_a, res_b)
        if max(res_a, res_b) <= 1e-10:
            recovered += 1

    ok = (
        min_pair >= -1e-10
        and min_family >= -1e-10
        and worst_canonical <= 1e-12
        and recovered == 100
    )
    report(
        "randomized matrix inequalities",
        ok,
        f"pair slack {min_pair:.1e}, family slack {min_family:.1e}, canonical "
        f"{worst_canonical:.1e}, witnesses {recovered}/100 at {worst_witness:.1e}",
    )


def test_symmetric_tensor_trace_split(report):
    worst_residual = 0.0
    min_margin = np.inf
    for trial in range(10_000):
        rng = trial_rng(13, trial)
        n = int(rng.integers(2, 6))
        p = int(rng.integers(1, 4))
        tens = SymTensor3(n, p, rng.standard_normal((p, n, n, n)))
        _, hvec, residual = f_tensor_decompose(tens)
        worst_residual = max(worst_residual, residual / (1.0 + tens.norm_sq()))
        bound = 3.0 * n * n / (n + 2.0) * float(np.sum(hvec * hvec))
        min_margin = min(min_margin, tens.norm_sq() - bound)
    ok = worst_residual <= 1e-12 and min_margin >= -1e-12
    report(
        "symmetric 3-tensor trace split",
        ok,
        f"identity residual {worst_residual:.1e}, gradient bound margin {min_margin:.1e}",
    )


def test_threshold_pinching_integrals(report):
    worst_zero = 0.0
    for m, n in [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]:
        patch, _ = willmore_torus(m, n)
        res = {2: 64, 3: 16, 4: 8}[n]
        grid = QuadratureGrid.for_patch(patch, res)
        worst_zero = max(worst_zero, abs(pinching_integral(patch, grid)))
    vp = veronese()
    vgrid = QuadratureGrid.for_patch(vp, 32)
    worst_zero = max(worst_zero, abs(pinching_integral(vp, vgrid, mode="simons")))

    off_patch, _ = product_spheres((1, 1, 1))
    off_grid = QuadratureGrid.for_patch(off_patch, 12)
    off_value = pinching_integral(off_patch, off_grid)

    table_ok = all(pinching_threshold(n, 1, "simons") == float(n) for n in range(2, 7))
    table_ok = table_ok and pinching_threshold(2, 2, "simons") == 4.0 / 3.0
    table_ok = table_ok and all(
        pinching_threshold(n, p, "li") == 2.0 * n / 3.0
        for n in range(2, 7)
        for p in range(1, 4)
    )

    ok = worst_zero <= 1e-8 and off_value < 0.0 and table_ok
    report(
        "threshold pinching integrals",
        ok,
        f"at-threshold deviation {worst_zero:.1e}, off-threshold value {off_value:.3g}, "
        f"constant table {'exact' if table_ok else 'WRONG'}",
    )


def test_family_critical_radius(report):
    worst = 0.0
    for m, n in [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]:
        fam = TorusFamily(m, n)
        r_star = find_critical_radius(fam)
        balanced = math.sqrt((n - m) / n)
        worst = max(worst, abs(r_star - balanced) / math.ulp(balanced))
    ok = worst <= 1.0
    report("torus family critical radius", ok, f"worst radius error {worst:g} ulp")


def test_numerical_self_consistency(report):
    patch, _ = clifford_torus(1, 2)
    grid = QuadratureGrid.for_patch(patch, 48)
    pts = grid.points()
    th = pts[:, 0].reshape(grid.shape)
    ph = pts[:, 1].reshape(grid.shape)
    rng = np.random.default_rng(7)
    worst_ibp = 0.0
    for _ in range(20):
        cf = rng.uniform(-1.0, 1.0, size=6)
        f = (
            cf[0] * np.sin(th)
            + cf[1] * np.cos(2.0 * th)
            + cf[2] * np.sin(th + 2.0 * ph)
        )
        g = cf[3] * np.cos(ph) + cf[4] * np.sin(2.0 * th - ph) + cf[5] * np.cos(th)
        lap = laplace_beltrami(patch, f, grid)
        lhs = grid_integral(patch, grid, lap * g)
        rhs = -grid_gradient_pairing(patch, f, g, grid)
        worst_ibp = max(worst_ibp, abs(lhs - rhs))

    patch23, _ = willmore_torus(2, 3)
    pt = patch23.safe_center()[None, :]
    errs = [
        abs(float(shape_batch(replace(patch23, exact_jet=None), pt, step=h).rho_sq[0]) - 3.0)
        for h in (1e-2, 5e-3, 2.5e-3)
    ]
    ratios = (errs[0] / errs[1], errs[1] / errs[2])
    ratios_ok = all(3.5 <= r <= 4.5 for r in ratios)

    flat = willmore_torus(1, 2)[0]
    r_flat = scalar_curvature(flat.exact_shape(flat.safe_center()))
    vp = veronese()
    r_ver = scalar_curvature(vp.exact_shape(np.array([1.2, 0.4])))
    great = round_sphere(2, 1, 1.0)
    r_great = scalar_curvature(great.exact_shape(great.safe_center()))
    worst_r = max(abs(r_flat), abs(r_ver - 1.0 / 3.0), abs(r_great - 1.0))

    ok = worst_ibp <= 1e-6 and ratios_ok and worst_r <= 1e-6
    report(
        "numerical self-consistency",
        ok,
        f"parts-integration {worst_ibp:.1e}, refinement ratios "
        f"({ratios[0]:.2f}, {ratios[1]:.2f}), curvature scalars {worst_r:.1e}",
    )


def test_threshold_classifier(report):
    umbilic = round_sphere_spec(2, 1, 1.0)
    out_umbilic = classify_willmore(umbilic, umbilic.rho_sq)

    torus = willmore_torus(1, 3)[1]
    out_torus = classify_willmore(torus, torus.rho_sq)

    ver = resolve("veronese").spec
    out_ver = classify_willmore(ver, ver.rho_sq)

    a = math.sqrt(0.5)
    gap = ShapeFamily(4, 1, (SymmetricMatrix(np.diag([a, -a, a, -a])),))
    gap_spec = IsoparametricSpec(4, 1, gap)
    assert abs(gap_spec.rho_sq - 2.0) < 1e-12  # rho^2 = n/2
    out_gap = classify_willmore(gap_spec, gap_spec.rho_sq)

    ok = (
        out_umbilic.kind == TOTALLY_UMBILIC
        and out_torus.kind == WILLMORE_TORUS
        and out_torus.m == 1
        and out_ver.kind == VERONESE
        and out_gap.kind == OUTSIDE_PINCHING_RANGE
    )
    report(
        "threshold classifier",
        ok,
        f"{out_umbilic.kind} / {out_torus.kind}(m={out_torus.m}) / "
        f"{out_ver.kind} / {out_gap.kind}",
    )
