import math

import numpy as np
import pytest

from willmorelab.grids import QuadratureGrid
from willmorelab.optimize import (
    TorusFamily,
    energy_derivative,
    family_energy,
    family_profile,
    find_critical_radius,
    second_difference,
    unit_sphere_volume,
)
from willmorelab.willmore import el_residual_isoparametric, willmore_energy


def test_unit_sphere_volume_table():
    assert abs(unit_sphere_volume(0) - 2.0) < 1e-15
    assert abs(unit_sphere_volume(1) - 2.0 * math.pi) < 1e-14
    assert abs(unit_sphere_volume(2) - 4.0 * math.pi) < 1e-14
    assert abs(unit_sphere_volume(3) - 2.0 * math.pi**2) < 1e-13
    assert abs(unit_sphere_volume(4) - 8.0 * math.pi**2 / 3.0) < 1e-13
    with pytest.raises(ValueError):
        unit_sphere_volume(-1)


def _recursive_sphere_volume(k):
    # The former recursive definition, kept as the reference.
    if k == 0:
        return 2.0
    if k == 1:
        return 2.0 * math.pi
    return 2.0 * math.pi / (k - 1) * _recursive_sphere_volume(k - 2)


def test_unit_sphere_volume_loop_matches_the_recursion():
    for k in list(range(41)) + [454, 455, 456, 457, 600, 601]:
        assert unit_sphere_volume(k) == _recursive_sphere_volume(k)
    assert math.isfinite(unit_sphere_volume(5000))


def test_family_validation():
    with pytest.raises(ValueError):
        TorusFamily(0, 2)
    with pytest.raises(ValueError):
        TorusFamily(2, 2)
    with pytest.raises(ValueError):
        TorusFamily(1, 2, r_min=0.5, r_max=0.4)
    fam = TorusFamily(1, 2)
    with pytest.raises(ValueError):
        family_energy(fam, 0.999)
    with pytest.raises(ValueError):
        energy_derivative(fam, 0.999)


def test_default_window_moves_out_only_where_needed():
    # (1, 10) keeps the plain window; the balanced radii of (1, 11) and
    # (1, 12) lie above 0.95, so their upper end moves out.
    assert (TorusFamily(1, 10).r_min, TorusFamily(1, 10).r_max) == (0.05, 0.95)
    for m, n in ((1, 11), (1, 12)):
        fam = TorusFamily(m, n)
        assert fam.r_min == 0.05
        assert fam.balanced_radius < fam.r_max == 0.5 * (1.0 + fam.balanced_radius)
    assert TorusFamily(1, 2, r_min=0.1, r_max=0.3).r_max == 0.3


def test_closed_form_energy_against_quadrature():
    fam = TorusFamily(1, 3)
    for r in (0.45, math.sqrt(2.0 / 3.0), 0.8):
        closed = family_energy(fam, r)
        patch = fam.patch_at(r)
        grid = QuadratureGrid.for_patch(patch, 16)
        assert abs(closed - willmore_energy(patch, grid)) < 1e-8 * (1.0 + closed)


def test_closed_form_energy_oracles():
    assert abs(family_energy(TorusFamily(1, 2), 1.0 / math.sqrt(2.0)) - 4.0 * math.pi**2) < 1e-10
    val = family_energy(TorusFamily(1, 3), math.sqrt(2.0 / 3.0))
    assert abs(val - 8.0 * math.sqrt(2.0) * math.pi**2) < 1e-9


def _centred_difference(fam, r, step=1e-6):
    # The former finite-difference energy_derivative, kept as the reference.
    return (family_energy(fam, r + step) - family_energy(fam, r - step)) / (2.0 * step)


def test_closed_form_derivative_matches_the_centred_difference():
    # Relative to the largest |dW/dr| of each sweep: the derivative itself
    # vanishes at the balanced radius. Measured 1.6e-10 to 1.9e-9.
    rs = [float(r) for r in np.linspace(0.08, 0.92, 400)]
    for n in range(2, 9):
        for m in range(1, n):
            fam = TorusFamily(m, n)
            exact = np.array([energy_derivative(fam, r) for r in rs])
            ref = np.array([_centred_difference(fam, r) for r in rs])
            assert np.abs(exact - ref).max() <= 1e-8 * np.abs(exact).max(), (m, n)


def test_derivative_changes_sign_exactly_once():
    for n in range(2, 7):
        for m in range(1, n):
            fam = TorusFamily(m, n)
            rs = np.linspace(0.08, 0.92, 400)
            signs = np.sign([energy_derivative(fam, float(r)) for r in rs])
            flips = np.nonzero(np.diff(signs) != 0)[0]
            assert len(flips) == 1, (m, n, len(flips))
            lo, hi = rs[flips[0]], rs[flips[0] + 1]
            assert lo < fam.balanced_radius < hi


def test_critical_radius_matches_balanced_value():
    # Every pair 1 <= m < n <= 12; residuals measured up to 1.7e-13.
    for n in range(2, 13):
        for m in range(1, n):
            fam = TorusFamily(m, n)
            r_star = find_critical_radius(fam)
            balanced = math.sqrt((n - m) / n)
            assert abs(r_star - balanced) <= math.ulp(balanced), (m, n)
            res = el_residual_isoparametric(fam.spec_at(r_star))
            assert res.norm < 1e-12, (m, n)


def test_swap_symmetry_of_critical_radii():
    for m, n in [(1, 3), (2, 5), (1, 4)]:
        fam = TorusFamily(m, n)
        dual = TorusFamily(n - m, n)
        r1 = find_critical_radius(fam)
        r2 = find_critical_radius(dual)
        assert abs(r1**2 + r2**2 - 1.0) <= 4.0 * np.finfo(float).eps


def test_critical_point_is_a_minimum():
    fam = TorusFamily(2, 4)
    r_star = find_critical_radius(fam)
    assert second_difference(fam, r_star) > 0.0


def test_no_crossing_window_is_reported():
    fam = TorusFamily(1, 2, r_min=0.1, r_max=0.3)  # minimum sits at 1/sqrt(2)
    with pytest.raises(ValueError, match="sign"):
        find_critical_radius(fam)


def test_family_profile_shape_and_consistency():
    fam = TorusFamily(1, 3)
    prof = family_profile(fam, samples=50)
    assert prof.shape == (50, 3)
    mid = 25
    r = prof[mid, 0]
    assert abs(prof[mid, 1] - family_energy(fam, float(r))) < 1e-12
    assert abs(prof[mid, 2] - energy_derivative(fam, float(r))) < 1e-12
    with pytest.raises(ValueError):
        family_profile(fam, samples=1)
    with pytest.raises(ValueError, match="at most"):
        family_profile(fam, samples=10**12)
