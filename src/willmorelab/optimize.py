"""Critical points of the bending energy along the product-torus family.

The family S^m(r) x S^{n-m}(sqrt(1-r^2)) in S^{n+1} has constant shape
operators for every radius, so its energy is a smooth closed-form
function of r: no quadrature enters. With s = sqrt(1 - r^2) its
curvature scalar is rho^2 = m (n - m) / (n r^2 s^2), so W(r) is a
constant times r^{m-n} s^{-m} and its log-slope

    L(r) = d ln W / dr = (m - n) / r + m r / (1 - r^2)

is closed form too. L increases strictly on (0, 1) and vanishes only at
the balanced radius r = sqrt((n-m)/n), the unique interior critical
point. Because L is monotone, no sign scan is needed: this module checks
the sign of L at the two ends of the radius window and bisects on it
until the bracket holds adjacent floats, so the returned radius lies
within one ulp of the balanced radius. It looks for criticality, not
minimality: the critical point need not be a minimum, so no descent
method is used.
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

# Default radius window, and how close the balanced radius may come to
# one of its ends before that end moves out.
_WINDOW = (0.05, 0.95)
_WINDOW_MARGIN = 1e-3
# Most rows of a profile; 10**6 rows of 3 floats are a 24 MB array.
PROFILE_SAMPLES_MAX = 10**6


def unit_sphere_volume(k: int) -> float:
    """Riemannian volume of the unit k-sphere, from the two-step recursion
    Vol(S^j) = 2 pi / (j - 1) * Vol(S^{j-2}) seeded by Vol(S^0) = 2 and
    Vol(S^1) = 2 pi, run as a loop from the seed up to k. The volume
    underflows to 0.0 from about k = 500 on and stays there, so the loop
    stops at the first 0.0."""
    k = int(k)
    if k < 0:
        raise ValueError("sphere dimension must be nonnegative")
    volume = 2.0 * math.pi if k % 2 else 2.0
    for j in range(2 + k % 2, k + 1, 2):
        volume = 2.0 * math.pi / (j - 1) * volume
        if volume == 0.0:
            break
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


def _log_slope(fam: TorusFamily, r: float) -> float:
    """L(r) = d ln W / dr, strictly increasing on (0, 1)."""
    m, n = fam.m, fam.n
    return (m - n) / r + m * r / (1.0 - r * r)


def energy_derivative(fam: TorusFamily, r: float) -> float:
    """Closed-form derivative dW/dr = W(r) L(r)."""
    return family_energy(fam, r) * _log_slope(fam, r)


def second_difference(fam: TorusFamily, r: float) -> float:
    """Second centered difference of W at r with step 1e-4, reported for
    curvature inspection only; whether the critical point is a minimum or
    a saddle is left to the caller."""
    step = 1e-4
    fam._check_radius(r - step)
    fam._check_radius(r + step)
    mid = family_energy(fam, r)
    return (family_energy(fam, r + step) - 2.0 * mid + family_energy(fam, r - step)) / (
        step * step
    )


def find_critical_radius(fam: TorusFamily) -> float:
    """Radius where dW/dr vanishes, by bisection on the sign of L.

    The bracket starts at the admissible interval and halves until its
    ends are adjacent floats; the returned midpoint rounds to one of
    them. Raises if L has the same sign at both ends of the interval,
    which then holds no critical point.
    """
    lo, hi = fam.r_min, fam.r_max
    l_lo, l_hi = _log_slope(fam, lo), _log_slope(fam, hi)
    if not l_lo < 0.0 < l_hi:
        raise ValueError(
            f"derivative has no sign change on ({lo}, {hi}): "
            f"d ln W/dr is {l_lo:.3g} and {l_hi:.3g} at its ends"
        )
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if _log_slope(fam, mid) < 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


def _check_samples(samples: int) -> None:
    """Refuse a profile size outside 2 .. PROFILE_SAMPLES_MAX."""
    if samples < 2:
        raise ValueError("need at least two samples")
    if samples > PROFILE_SAMPLES_MAX:
        raise ValueError(f"at most {PROFILE_SAMPLES_MAX} samples")


def family_profile(fam: TorusFamily, samples: int = 200) -> np.ndarray:
    """Table of (r, W(r), dW/dr) rows at the midpoints of ``samples``
    equal cells of the admissible interval, 2 <= samples <= 10**6."""
    _check_samples(samples)
    width = (fam.r_max - fam.r_min) / samples
    rows = np.empty((samples, 3))
    for i in range(samples):
        r = fam.r_min + (i + 0.5) * width
        energy = family_energy(fam, r)
        rows[i] = r, energy, energy * _log_slope(fam, r)
    return rows
