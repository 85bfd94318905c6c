"""Critical points of the bending energy along the product-torus family.

The family S^m(r) x S^{n-m}(sqrt(1-r^2)) in S^{n+1} has constant shape
operators for every radius, so its energy is a smooth closed-form
function of r: no quadrature enters. The balanced radius
r = sqrt((n-m)/n) is the unique interior critical point; this module
locates it by bisecting on the sign of a centered finite-difference
derivative, which is what the contract asks for (criticality, not
minimality: the critical point need not be a minimum, so no descent
method is used).

The returned radius tracks the finite-difference zero crossing, whose
own distance to the exact critical radius is limited by roundoff in the
energy evaluations (around 1e-10 here); tolerances below that only
tighten the bracket, not the physical accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .catalog import IsoparametricSpec, torus_family_patch
from .immersion import ImmersionPatch

__all__ = [
    "TorusFamily",
    "unit_sphere_volume",
    "family_energy",
    "energy_derivative",
    "second_difference",
    "find_critical_radius",
    "family_profile",
]

_DERIV_STEP = 1e-6
_SCAN_SAMPLES = 128
# Default radius window, and how close the balanced radius may come to
# one of its ends before that end moves out.
_WINDOW = (0.05, 0.95)
_WINDOW_MARGIN = 1e-3


def unit_sphere_volume(k: int) -> float:
    """Riemannian volume of the unit k-sphere, from the two-step recursion
    Vol(S^j) = 2 pi / (j - 1) * Vol(S^{j-2}) seeded by Vol(S^0) = 2 and
    Vol(S^1) = 2 pi, run as a loop from the seed up to k."""
    k = int(k)
    if k < 0:
        raise ValueError("sphere dimension must be nonnegative")
    volume = 2.0 * math.pi if k % 2 else 2.0
    for j in range(2 + k % 2, k + 1, 2):
        volume = 2.0 * math.pi / (j - 1) * volume
    return volume


@dataclass(frozen=True)
class TorusFamily:
    """The radius family S^m(r) x S^{n-m}(sqrt(1-r^2)) in S^{n+1}.

    Radii are admissible in (r_min, r_max). By default that window is
    (0.05, 0.95); an end the balanced radius comes within 1e-3 of, or
    passes, moves out to halfway between the balanced radius and the end
    of (0, 1), so the window always brackets the critical point. Of
    1 <= m < n <= 12, only (1, 11) and (1, 12) need this.

    ``volumes`` holds (Vol(S^m), Vol(S^{n-m})), computed once here
    rather than at every energy evaluation.
    """

    m: int
    n: int
    r_min: Optional[float] = None
    r_max: Optional[float] = None
    volumes: tuple[float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 1 <= self.m <= self.n - 1:
            raise ValueError(f"need 1 <= m <= n - 1, got m={self.m}, n={self.n}")
        balanced = self.balanced_radius
        if self.r_min is None:
            lo = _WINDOW[0]
            object.__setattr__(
                self, "r_min", lo if balanced > lo + _WINDOW_MARGIN else 0.5 * balanced
            )
        if self.r_max is None:
            hi = _WINDOW[1]
            object.__setattr__(
                self, "r_max", hi if balanced < hi - _WINDOW_MARGIN else 0.5 * (1.0 + balanced)
            )
        if not 0.0 < self.r_min < self.r_max < 1.0:
            raise ValueError("need 0 < r_min < r_max < 1")
        object.__setattr__(
            self, "volumes", (unit_sphere_volume(self.m), unit_sphere_volume(self.n - self.m))
        )

    def _check_radius(self, r: float) -> None:
        if not self.r_min < r < self.r_max:
            raise ValueError(
                f"radius {r} outside the admissible interval "
                f"({self.r_min}, {self.r_max})"
            )

    def patch_at(self, r: float) -> ImmersionPatch:
        self._check_radius(r)
        patch, _ = torus_family_patch(self.m, self.n, r)
        return patch

    def spec_at(self, r: float) -> IsoparametricSpec:
        self._check_radius(r)
        _, spec = torus_family_patch(self.m, self.n, r)
        return spec

    @property
    def balanced_radius(self) -> float:
        """The radius sqrt((n-m)/n) at which the family is critical."""
        return math.sqrt((self.n - self.m) / self.n)


def family_energy(fam: TorusFamily, r: float) -> float:
    """Closed-form energy W(r) = rho(r)^n Vol(S^m) r^m Vol(S^{n-m}) s^{n-m}.

    Both curvature and volume element are constant over the product, so
    the integral collapses to this product; s = sqrt(1 - r^2).
    """
    fam._check_radius(r)
    m, n = fam.m, fam.n
    s = math.sqrt(1.0 - r * r)
    k1 = s / r
    k2 = -r / s
    mean = (m * k1 + (n - m) * k2) / n
    s_total = m * k1 * k1 + (n - m) * k2 * k2
    rho_sq = s_total - n * mean * mean
    vol_m, vol_rest = fam.volumes
    volume = vol_m * r**m * vol_rest * s ** (n - m)
    try:
        return rho_sq ** (n / 2.0) * volume
    except OverflowError:
        raise ValueError(
            f"energy of the ({m}, {n}) torus family overflows a float at r = {r!r}"
        ) from None


def energy_derivative(fam: TorusFamily, r: float, step: float = _DERIV_STEP) -> float:
    """Centered finite-difference derivative dW/dr."""
    if step <= 0.0:
        raise ValueError("step must be positive")
    fam._check_radius(r - step)
    fam._check_radius(r + step)
    return (family_energy(fam, r + step) - family_energy(fam, r - step)) / (2.0 * step)


def second_difference(fam: TorusFamily, r: float, step: float = 1e-4) -> float:
    """Second centered difference of W at r, reported for curvature
    inspection only; whether the critical point is a minimum or a saddle
    is left to the caller."""
    if step <= 0.0:
        raise ValueError("step must be positive")
    fam._check_radius(r - step)
    fam._check_radius(r + step)
    mid = family_energy(fam, r)
    return (family_energy(fam, r + step) - 2.0 * mid + family_energy(fam, r - step)) / (
        step * step
    )


def _scan_radii(fam: TorusFamily, samples: int) -> np.ndarray:
    margin = 2.0 * _DERIV_STEP
    return np.linspace(fam.r_min + margin, fam.r_max - margin, samples)


def find_critical_radius(fam: TorusFamily, tol: float = 1e-8) -> float:
    """Radius where dW/dr crosses zero, by sign scan plus bisection.

    tol bounds the final bracket width and must lie in [1e-12, 1e-3].
    Raises if the sampled derivative never changes sign over the
    admissible interval, reporting the sign pattern seen.
    """
    if not 1e-12 <= tol <= 1e-3:
        raise ValueError("tol must lie in [1e-12, 1e-3]")
    radii = _scan_radii(fam, _SCAN_SAMPLES)
    derivs = np.array([energy_derivative(fam, float(r)) for r in radii])
    signs = np.sign(derivs)
    crossings = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    exact_zeros = np.nonzero(signs == 0)[0]
    if exact_zeros.size:
        return float(radii[exact_zeros[0]])
    if crossings.size == 0:
        pattern = "".join("+" if s > 0 else "-" for s in signs)
        raise ValueError(
            "derivative has no sign change on "
            f"({fam.r_min}, {fam.r_max}); sampled signs: {pattern}"
        )
    lo = float(radii[crossings[0]])
    hi = float(radii[crossings[0] + 1])
    d_lo = float(derivs[crossings[0]])
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        d_mid = energy_derivative(fam, mid)
        if d_mid == 0.0:
            return mid
        if (d_mid > 0) == (d_lo > 0):
            lo = mid
            d_lo = d_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def family_profile(fam: TorusFamily, samples: int = 200) -> np.ndarray:
    """Table of (r, W(r), dW/dr) rows over the admissible interval."""
    if samples < 2:
        raise ValueError("need at least two samples")
    radii = _scan_radii(fam, samples)
    rows = np.empty((samples, 3))
    for i, r in enumerate(radii):
        rows[i, 0] = r
        rows[i, 1] = family_energy(fam, float(r))
        rows[i, 2] = energy_derivative(fam, float(r))
    return rows
