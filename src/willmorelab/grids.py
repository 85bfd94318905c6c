"""Tensor-product quadrature grids over chart domains.

Periodic axes use equal-weight nodes offset by half a cell, which is the
periodic trapezoidal rule (spectrally accurate for smooth periodic
integrands); the half-cell offset keeps nodes off chart poles on doubled
spherical charts. Non-periodic axes use Gauss-Legendre nodes, which are
strictly interior and spectrally accurate for integrands analytic on the
closed interval; a Gauss-Legendre axis takes at most
:data:`GAUSS_LEGENDRE_MAX` nodes, and a grid at most
:data:`GRID_NODE_MAX`. No adaptive rules anywhere, so a grid is a pure
function of (domain, resolution) and results are bit-reproducible.
Nodes and weights are gathered per chunk of flat indices from the 1-d
rules, so a quadrature never needs a node-sized array of either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = ["AxisInterval", "QuadratureGrid", "GAUSS_LEGENDRE_MAX", "GRID_NODE_MAX"]

_WEIGHT_SUM_TOL = 1e-12
# Largest Gauss-Legendre rule: leggauss(count) builds a dense count x
# count companion matrix (128 MiB here, several seconds of eigensolve),
# so a larger count is refused before it is built.
GAUSS_LEGENDRE_MAX = 4096
# Largest grid: points() builds an n-column node array, and a Laplacian
# or surface residual returns a node-sized result (128 MiB per double a
# node here), so a larger product of counts is refused from the counts
# alone. Quadratures follow a chunk, and the metric fields of both
# stencils a block of grid rows.
GRID_NODE_MAX = 2**24


@dataclass(frozen=True)
class AxisInterval:
    """Closed parameter interval for one chart axis."""

    lo: float
    hi: float
    periodic: bool = False

    def __post_init__(self) -> None:
        if not self.hi > self.lo:
            raise ValueError(f"empty axis interval [{self.lo}, {self.hi}]")

    @property
    def length(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class QuadratureGrid:
    """Product quadrature rule; one 1-d rule per chart axis."""

    axes: tuple[AxisInterval, ...]
    counts: tuple[int, ...]
    nodes_1d: tuple[np.ndarray, ...]
    weights_1d: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len({len(self.axes), len(self.counts), len(self.nodes_1d), len(self.weights_1d)}) != 1:
            raise ValueError("inconsistent per-axis data")
        for ax, cnt, nodes, weights in zip(self.axes, self.counts, self.nodes_1d, self.weights_1d):
            if cnt < 2 or len(nodes) != cnt or len(weights) != cnt:
                raise ValueError("per-axis node/weight counts do not match")
            if abs(float(np.sum(weights)) - ax.length) > _WEIGHT_SUM_TOL * max(1.0, ax.length):
                raise ValueError("axis weights do not sum to the interval length")

    @classmethod
    def for_axes(cls, axes, counts) -> "QuadratureGrid":
        axes = tuple(axes)
        if isinstance(counts, int):
            counts = (counts,) * len(axes)
        counts = tuple(int(c) for c in counts)
        if len(counts) != len(axes):
            raise ValueError("need one resolution per axis")
        # Every count is checked before any rule or array is built.
        for a, (ax, cnt) in enumerate(zip(axes, counts)):
            if cnt < 2:
                raise ValueError("resolution must be at least 2 per axis")
            if not ax.periodic and cnt > GAUSS_LEGENDRE_MAX:
                raise ValueError(
                    f"{cnt} nodes on axis {a} exceed the Gauss-Legendre cap of "
                    f"{GAUSS_LEGENDRE_MAX} nodes per bounded axis"
                )
        total = math.prod(counts)
        if total > GRID_NODE_MAX:
            raise ValueError(
                f"{' x '.join(map(str, counts))} = {total} nodes exceed the grid cap "
                f"of {GRID_NODE_MAX} nodes"
            )
        nodes_1d = []
        weights_1d = []
        for ax, cnt in zip(axes, counts):
            if ax.periodic:
                h = ax.length / cnt
                nodes = ax.lo + (np.arange(cnt) + 0.5) * h
                weights = np.full(cnt, h)
            else:
                x, w = leggauss(cnt)
                half = 0.5 * ax.length
                nodes = ax.lo + half * (x + 1.0)
                weights = half * w
            nodes.flags.writeable = False
            weights.flags.writeable = False
            nodes_1d.append(nodes)
            weights_1d.append(weights)
        return cls(axes, counts, tuple(nodes_1d), tuple(weights_1d))

    @classmethod
    def for_patch(cls, patch, resolution) -> "QuadratureGrid":
        """Grid over the patch domain; even counts on the patch's fold axes."""
        grid = cls.for_axes(patch.domain, resolution)
        for a in patch.fold_axes:
            if grid.counts[a] % 2:
                raise ValueError(
                    f"odd node count {grid.counts[a]} on axis {a}: "
                    f"{patch.name or 'the chart'} folds at the midpoint of that axis, "
                    "where an odd count puts a node; use an even resolution"
                )
        return grid

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.counts

    @property
    def node_total(self) -> int:
        return int(np.prod(self.counts))

    def spacing(self, axis: int) -> float:
        """Uniform node spacing; only meaningful for periodic axes."""
        if not self.axes[axis].periodic:
            raise ValueError("spacing is defined only for periodic axes")
        return self.axes[axis].length / self.counts[axis]

    @cached_property
    def _points(self) -> np.ndarray:
        pts = np.empty((self.node_total, self.ndim))
        grid = pts.reshape(self.counts + (self.ndim,))
        for a, nodes in enumerate(self.nodes_1d):
            grid[..., a] = nodes.reshape((-1,) + (1,) * (self.ndim - 1 - a))
        pts.flags.writeable = False
        return pts

    def points(self) -> np.ndarray:
        """All nodes, flattened row-major: shape (prod(counts), ndim)."""
        return self._points

    def nodes(self, start: int, stop: int) -> np.ndarray:
        """Nodes of flat indices [start, stop), shape (stop - start, ndim).

        Equal to ``points()[start:stop]``, but gathered from the 1-d
        rules, so walking a grid in chunks never builds the whole node
        array.
        """
        index = np.unravel_index(np.arange(start, stop), self.counts)
        out = np.empty((len(index[0]), self.ndim))
        for a, (nodes, idx) in enumerate(zip(self.nodes_1d, index)):
            out[:, a] = nodes[idx]
        return out

    def weights(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Product weights of flat indices [start, stop), matching :meth:`nodes`.

        The whole grid by default, matching :meth:`points`. Gathered from
        the 1-d rules and multiplied axis by axis in the order of
        ``np.multiply.outer``, so a chunk's weights equal that slice of
        the outer product bit for bit; nothing is cached on the grid.
        """
        if stop is None:
            stop = self.node_total
        index = np.unravel_index(np.arange(start, stop), self.counts)
        out = self.weights_1d[0][index[0]]
        for weights, idx in zip(self.weights_1d[1:], index[1:]):
            out *= weights[idx]
        return out

    def matches_domain(self, axes, tol: float = 1e-12) -> bool:
        axes = tuple(axes)
        if len(axes) != len(self.axes):
            return False
        for mine, theirs in zip(self.axes, axes):
            if mine.periodic != theirs.periodic:
                return False
            if abs(mine.lo - theirs.lo) > tol or abs(mine.hi - theirs.hi) > tol:
                return False
        return True
