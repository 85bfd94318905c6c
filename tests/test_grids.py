import math

import numpy as np
import pytest

from willmorelab import grids
from willmorelab.grids import AxisInterval, QuadratureGrid
from willmorelab.immersion import _CHUNK_MAX


def test_weights_sum_to_domain_volume():
    axes = (
        AxisInterval(0.0, 2.0 * math.pi, periodic=True),
        AxisInterval(0.0, math.pi, periodic=False),
    )
    grid = QuadratureGrid.for_axes(axes, (16, 9))
    assert abs(grid.weights().sum() - 2.0 * math.pi**2) < 1e-12
    assert grid.shape == (16, 9)
    assert grid.node_total == 16 * 9


def test_periodic_nodes_are_offset_from_endpoints():
    ax = AxisInterval(0.0, 2.0 * math.pi, periodic=True)
    grid = QuadratureGrid.for_axes((ax,), (8,))
    nodes = grid.nodes_1d[0]
    h = 2.0 * math.pi / 8
    assert abs(grid.spacing(0) - h) < 1e-15
    assert abs(nodes[0] - 0.5 * h) < 1e-15
    assert nodes.min() > 0.0 and nodes.max() < 2.0 * math.pi


def test_periodic_rule_integrates_trig_polynomials_exactly():
    ax = AxisInterval(0.0, 2.0 * math.pi, periodic=True)
    grid = QuadratureGrid.for_axes((ax,), (16,))
    t = grid.points()[:, 0]
    w = grid.weights()
    # modes below the node count integrate to machine zero
    for k in range(1, 8):
        assert abs(np.sum(w * np.cos(k * t))) < 1e-12
    assert abs(np.sum(w * np.cos(t) ** 2) - math.pi) < 1e-12


def test_gauss_nodes_integrate_high_degree_polynomials():
    ax = AxisInterval(-1.0, 1.0, periodic=False)
    grid = QuadratureGrid.for_axes((ax,), (6,))
    t = grid.points()[:, 0]
    w = grid.weights()
    for deg in range(0, 12):  # exact through degree 2*6 - 1
        val = np.sum(w * t**deg)
        exact = 0.0 if deg % 2 else 2.0 / (deg + 1)
        assert abs(val - exact) < 1e-13
    assert t.min() > -1.0 and t.max() < 1.0


def test_mixed_grid_point_ordering_is_row_major():
    axes = (
        AxisInterval(0.0, 1.0, periodic=True),
        AxisInterval(0.0, 2.0, periodic=True),
    )
    grid = QuadratureGrid.for_axes(axes, (2, 3))
    pts = grid.points()
    assert pts.shape == (6, 2)
    # the second axis varies fastest
    assert np.allclose(pts[0:3, 0], pts[0, 0])
    assert not np.allclose(pts[0, 1], pts[1, 1])


def test_per_axis_counts_and_validation():
    axes = (
        AxisInterval(0.0, 1.0, periodic=True),
        AxisInterval(0.0, 1.0, periodic=True),
    )
    grid = QuadratureGrid.for_axes(axes, (4, 8))
    assert grid.counts == (4, 8)
    with pytest.raises(ValueError):
        QuadratureGrid.for_axes(axes, (4,))
    with pytest.raises(ValueError):
        QuadratureGrid.for_axes(axes, (0, 8))


def test_spacing_requires_periodic_axis():
    axes = (AxisInterval(0.0, 1.0, periodic=False),)
    grid = QuadratureGrid.for_axes(axes, (8,))
    with pytest.raises(ValueError):
        grid.spacing(0)


def test_matches_domain():
    axes = (AxisInterval(0.0, 2.0 * math.pi, periodic=True),)
    grid = QuadratureGrid.for_axes(axes, (8,))
    assert grid.matches_domain(axes)
    other = (AxisInterval(0.0, math.pi, periodic=True),)
    assert not grid.matches_domain(other)


def test_axis_interval_validation():
    with pytest.raises(ValueError):
        AxisInterval(1.0, 0.0)


def test_chunk_nodes_equal_slices_of_the_node_array():
    axes = (
        AxisInterval(0.0, math.pi, periodic=False),
        AxisInterval(0.0, 2.0 * math.pi, periodic=True),
        AxisInterval(-1.0, 1.0, periodic=False),
    )
    grid = QuadratureGrid.for_axes(axes, (40, 64, 9))
    total = grid.node_total
    ranges = [
        (0, 1),
        (0, _CHUNK_MAX),
        (_CHUNK_MAX - 1, _CHUNK_MAX + 1),
        (2 * _CHUNK_MAX - 5, 3 * _CHUNK_MAX + 7),
        (total - 3, total),
        (0, total),
        (17, 17),
    ]
    for start, stop in ranges:
        nodes = grid.nodes(start, stop)
        assert "_points" not in grid.__dict__
        assert nodes.shape == (stop - start, 3)
    mesh = np.meshgrid(*grid.nodes_1d, indexing="ij")
    reference = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    assert np.array_equal(grid.points(), reference)
    for start, stop in ranges:
        assert np.array_equal(grid.nodes(start, stop), grid.points()[start:stop])
    # Chunk weights are slices of the outer product, bit for bit.
    outer = np.multiply.outer(np.multiply.outer(*grid.weights_1d[:2]), grid.weights_1d[2])
    outer = outer.reshape(-1)
    assert np.array_equal(grid.weights(), outer)
    for start, stop in ranges:
        assert np.array_equal(grid.weights(start, stop), outer[start:stop])
    assert "_weights" not in grid.__dict__


def test_gauss_legendre_count_above_the_cap_is_refused_before_building(monkeypatch):
    def refuse(count):
        raise AssertionError(f"leggauss({count}) was called")

    monkeypatch.setattr(grids, "leggauss", refuse)
    axes = (AxisInterval(0.0, 2.0 * math.pi, periodic=True), AxisInterval(0.0, 1.0))
    cap = grids.GAUSS_LEGENDRE_MAX
    with pytest.raises(ValueError, match=f"{cap + 1} nodes on axis 1"):
        QuadratureGrid.for_axes(axes, (8, cap + 1))
    # Periodic axes build no companion matrix and have no cap.
    assert QuadratureGrid.for_axes(axes[:1], (cap + 1,)).counts == (cap + 1,)


def test_gauss_legendre_cap_itself_builds(monkeypatch):
    # The real rule at the cap takes seconds; the stub only shows the
    # count gets through to it.
    asked = []

    def stub(count):
        asked.append(count)
        return np.zeros(count), np.full(count, 2.0 / count)

    monkeypatch.setattr(grids, "leggauss", stub)
    grid = QuadratureGrid.for_axes((AxisInterval(0.0, 1.0),), (grids.GAUSS_LEGENDRE_MAX,))
    assert asked == [grids.GAUSS_LEGENDRE_MAX] == list(grid.counts)


def test_grid_node_cap_is_checked_from_the_counts_alone(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a rule was built for a grid over the node cap")

    monkeypatch.setattr(grids, "leggauss", refuse)
    monkeypatch.setattr(grids.np, "arange", refuse)
    monkeypatch.setattr(grids.np, "full", refuse)
    cap = grids.GRID_NODE_MAX
    bounded = (AxisInterval(0.0, 1.0),) * 4
    with pytest.raises(ValueError, match=f"250 x 250 x 250 x 250 = 3906250000 nodes .* {cap}"):
        QuadratureGrid.for_axes(bounded, 250)
    periodic = (AxisInterval(0.0, 1.0, periodic=True),) * 2
    with pytest.raises(ValueError, match=f"= {cap + 4096} nodes exceed the grid cap"):
        QuadratureGrid.for_axes(periodic, (4096, 4097))
    with pytest.raises(ValueError, match="nodes exceed the grid cap"):
        QuadratureGrid.for_axes(periodic * 3, 10**6)


def test_grid_node_cap_itself_builds():
    # Periodic axes at the cap build two 4096-node rules and no node array.
    axes = (AxisInterval(0.0, 1.0, periodic=True),) * 2
    grid = QuadratureGrid.for_axes(axes, (4096, 4096))
    assert grid.node_total == grids.GRID_NODE_MAX
    assert "_points" not in grid.__dict__
