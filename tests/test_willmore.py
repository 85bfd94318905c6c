import math
import tracemalloc
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
from willmorelab.grids import QuadratureGrid
from willmorelab import willmore
from willmorelab.immersion import (
    FD_STEP,
    PoleError,
    RankError,
    _chunk_points,
    _jets,
    _mobius_integrand_chunks,
    _tangent_gram_schmidt,
    mobius_apply,
    random_mobius,
)
from willmorelab.linalg import SymmetricMatrix
from willmorelab.tensors import ShapeFamily, trial_rng
from willmorelab.willmore import (
    AT_THRESHOLD_UNRECOGNIZED,
    OUTSIDE_PINCHING_RANGE,
    TOTALLY_UMBILIC,
    VERONESE,
    WILLMORE_TORUS,
    classify_willmore,
    el_residual_isoparametric,
    el_residual_surface,
    conformal_trials,
    grid_integral,
    mobius_energies,
    pinching_integral,
    pinching_threshold,
    willmore_energy,
)


def _spec_from_diagonal(diag, p=1):
    diag = np.asarray(diag, dtype=float)
    mats = tuple(SymmetricMatrix(np.diag(diag)) for _ in range(p))
    return IsoparametricSpec(len(diag), p, ShapeFamily(len(diag), p, mats))


def test_energy_of_balanced_square_torus():
    patch, _ = clifford_torus(1, 2)
    grid = QuadratureGrid.for_patch(patch, 64)
    val = willmore_energy(patch, grid)
    assert abs(val - 4.0 * math.pi**2) < 1e-9


def test_energy_of_great_sphere_vanishes():
    patch = round_sphere(2, 1, 1.0)
    grid = QuadratureGrid.for_patch(patch, 32)
    assert abs(willmore_energy(patch, grid)) < 1e-12


def test_energy_of_projective_plane_surface():
    patch = veronese()
    grid = QuadratureGrid.for_patch(patch, 32)
    assert abs(willmore_energy(patch, grid) - 8.0 * math.pi) < 1e-9


def test_energy_grid_domain_mismatch():
    patch, _ = clifford_torus(1, 2)
    other = QuadratureGrid.for_patch(veronese(), 16)
    with pytest.raises(ValueError, match="domain"):
        willmore_energy(patch, other)


def test_grid_integral_flat_area_and_shape_check():
    patch, _ = clifford_torus(1, 2)
    grid = QuadratureGrid.for_patch(patch, 32)
    area = grid_integral(patch, grid, np.ones(grid.shape))
    assert abs(area - 2.0 * math.pi**2) < 1e-10
    with pytest.raises(ValueError, match="shape"):
        grid_integral(patch, grid, np.ones((3, 3)))


def test_pinching_threshold_table():
    assert pinching_threshold(2, 1, "simons") == 2.0
    assert pinching_threshold(3, 1, "simons") == 3.0
    assert pinching_threshold(2, 2, "simons") == 4.0 / 3.0
    assert pinching_threshold(4, 3, "simons") == 4.0 / (2.0 - 1.0 / 3.0)
    assert pinching_threshold(3, 2, "li") == 2.0
    with pytest.raises(ValueError, match="mode"):
        pinching_threshold(2, 1, "strict")
    with pytest.raises(ValueError):
        pinching_threshold(0, 1, "simons")


def test_pinching_integral_vanishes_at_threshold():
    patch, _ = willmore_torus(1, 2)
    grid = QuadratureGrid.for_patch(patch, 48)
    assert abs(pinching_integral(patch, grid)) < 1e-10
    vpatch = veronese()
    vgrid = QuadratureGrid.for_patch(vpatch, 32)
    assert abs(pinching_integral(vpatch, vgrid, mode="simons")) < 1e-10


def test_pinching_integral_negative_off_threshold():
    patch, _ = product_spheres((1, 1, 1))
    grid = QuadratureGrid.for_patch(patch, 12)
    assert pinching_integral(patch, grid) < -1.0


def test_isoparametric_residual_vanishes_for_balanced_tori():
    for m, n in [(1, 2), (1, 3), (2, 3), (2, 4), (3, 5)]:
        res = el_residual_isoparametric(willmore_torus(m, n)[1])
        assert res.is_zero, (m, n, res.norm)
        assert abs(res.scale - math.sqrt(n) ** (n - 2)) < 1e-12 or n == 2


def test_isoparametric_residual_detects_unbalanced_minimal_tori():
    res = el_residual_isoparametric(clifford_torus(1, 3)[1])
    assert abs(res.values[0] + 3.0 / math.sqrt(2.0)) < 1e-12
    assert not res.is_zero
    balanced = el_residual_isoparametric(clifford_torus(1, 2)[1])
    assert balanced.is_zero


def test_isoparametric_residual_odd_umbilic_guard():
    with pytest.raises(ValueError, match="odd"):
        el_residual_isoparametric(round_sphere_spec(3, 1, 0.9))
    res = el_residual_isoparametric(round_sphere_spec(2, 1, 0.9))
    assert res.is_zero and res.scale == 1.0


def test_surface_residual_dimension_guards():
    patch3, _ = willmore_torus(1, 3)
    with pytest.raises(ValueError, match="2-dimensional"):
        el_residual_surface(patch3, QuadratureGrid.for_patch(patch3, 8))
    vp = veronese()
    with pytest.raises(ValueError, match="codimension"):
        el_residual_surface(vp, QuadratureGrid.for_patch(vp, 8))


def test_surface_residual_vanishes_on_critical_surfaces():
    patch, _ = clifford_torus(1, 2)
    grid = QuadratureGrid.for_patch(patch, 32)
    assert el_residual_surface(patch, grid).max_norm < 1e-10
    sphere = round_sphere(2, 1, 0.8)
    sgrid = QuadratureGrid.for_patch(sphere, 32)
    assert el_residual_surface(sphere, sgrid).max_norm < 1e-6


def test_surface_residual_vanishes_on_conformal_images_of_a_folded_chart():
    # Images of the doubled sphere chart are round spheres again, but
    # mobius_apply drops the co-normal hint: the orientation gauge has to
    # turn over at the fold, or H flips sign there and the residual grew
    # with the resolution (2.3 to 48 at 32^2, 8.8 to 189 at 64^2).
    sphere = round_sphere(2, 1, 0.8)
    grid = QuadratureGrid.for_patch(sphere, 32)
    for trial in range(6):
        moved = mobius_apply(random_mobius(4, trial_rng(0, trial)), sphere)
        assert moved.normal_hint is None and moved.fold_axes == (0,)
        assert el_residual_surface(moved, grid).max_norm < 1e-9, trial


def test_surface_residual_magnitude_on_distorted_torus():
    patch, spec = torus_family_patch(1, 2, 0.6)
    grid = QuadratureGrid.for_patch(patch, 64)
    res = el_residual_surface(patch, grid)
    expect = spec.mean_norm * spec.rho_sq
    assert abs(expect - (7.0 / 24.0) * (625.0 / 288.0)) < 1e-12
    assert abs(res.max_norm - expect) < 1e-4


def test_classifier_umbilic_branch():
    spec = round_sphere_spec(2, 1, 1.0)
    out = classify_willmore(spec, spec.rho_sq)
    assert out.kind == TOTALLY_UMBILIC


def test_classifier_torus_branch_with_mirror_index():
    spec = willmore_torus(2, 5)[1]
    out = classify_willmore(spec, spec.rho_sq)
    assert out.kind == WILLMORE_TORUS
    assert out.m == 2 and out.mirror == 3
    flipped = IsoparametricSpec(
        5,
        1,
        ShapeFamily(5, 1, (SymmetricMatrix(-spec.constant_shape.matrices[0].data),)),
        tuple((-k, mult) for k, mult in spec.principal_curvatures),
    )
    out2 = classify_willmore(flipped, flipped.rho_sq)
    assert out2.kind == WILLMORE_TORUS
    assert out2.m == 3 and out2.mirror == 2


def test_classifier_projective_plane_branch():
    spec = resolve("veronese").spec
    out = classify_willmore(spec, spec.rho_sq)
    assert out.kind == VERONESE


def test_classifier_rejects_threshold_impostors():
    spec = _spec_from_diagonal([1.5, -0.5])
    assert abs(spec.rho_sq - 2.0) < 1e-12
    out = classify_willmore(spec, spec.rho_sq)
    assert out.kind == AT_THRESHOLD_UNRECOGNIZED


def test_classifier_flags_the_forbidden_gap():
    a = math.sqrt(0.5)
    spec = _spec_from_diagonal([a, -a, a, -a])
    out = classify_willmore(spec, spec.rho_sq)
    assert out.kind == OUTSIDE_PINCHING_RANGE
    assert "inside" in out.detail
    out_hi = classify_willmore(spec, 8.0)
    assert out_hi.kind == OUTSIDE_PINCHING_RANGE
    assert "exceeds" in out_hi.detail


def test_classifier_input_guards():
    spec = round_sphere_spec(2, 1, 1.0)
    with pytest.raises(ValueError):
        classify_willmore(spec, 1.0, tol=0.0)
    with pytest.raises(ValueError):
        classify_willmore(spec, -0.5)


def _traced_peaks(integral, patch, resolutions, prebuild=False):
    """tracemalloc peak of one integral per grid resolution."""
    peaks = []
    for res in resolutions:
        grid = QuadratureGrid.for_patch(patch, res)
        if prebuild:
            grid.points()  # the grid's own arrays are not the integral's
        tracemalloc.start()
        try:
            integral(patch, grid)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert ("_points" in grid.__dict__) == prebuild
        assert "_weights" not in grid.__dict__
    return peaks


def test_energy_memory_follows_the_chunk_not_the_grid():
    # Peak allocation during the energy grows by the per-node scalars
    # only (here < 64 bytes per node), not by the O(M n^2 N) jet, which
    # is 768 bytes per node for this chart.
    patch, _ = willmore_torus(2, 4)
    peaks = _traced_peaks(willmore_energy, patch, (12, 24), prebuild=True)
    assert peaks[1] - peaks[0] < 4 * 16 * 24**4


def test_energy_memory_holds_no_node_array():
    # The kernel gathers nodes and weights per chunk, so with no grid
    # array built beforehand the peak grows by the one 8-byte density
    # per node alone (8.06 bytes measured), not by rho^2, sqrt g, the
    # weights or an M x n node array (16 bytes with two of them).
    patch, _ = willmore_torus(2, 4)
    peaks = _traced_peaks(willmore_energy, patch, (12, 24))
    assert peaks[1] - peaks[0] < 10 * (24**4 - 12**4)


def test_pinching_memory_holds_no_node_array():
    # As for the energy: 8.06 bytes per node measured.
    patch, _ = willmore_torus(2, 4)
    peaks = _traced_peaks(pinching_integral, patch, (12, 24))
    assert peaks[1] - peaks[0] < 10 * (24**4 - 12**4)


def test_energy_chunk_working_set_stays_small():
    # product-spheres:2,2,1 has the largest jet per point of the
    # benchmark charts (1600 bytes); at 512-point chunks with reused work
    # buffers one 8^5 energy peaks at 5.1 MiB, of which the density is
    # 0.25 MiB. 2048-point chunks with fresh temporaries read 20.2 MiB.
    patch = resolve("product-spheres:2,2,1").patch
    (peak,) = _traced_peaks(willmore_energy, patch, (8,))
    assert peak < 6 * 2**20


def test_surface_residual_memory_follows_the_chunk_not_the_grid():
    # Peak allocation grows by a few scalars and one 2 x 2 metric per
    # node (about 11 doubles here), not by the frames and jets of one
    # shape batch over the whole grid (about 94 doubles per node).
    patch, _ = clifford_torus(1, 2)
    peaks = []
    for res in (128, 256):
        grid = QuadratureGrid.for_patch(patch, res)
        grid.points(), grid.weights()  # the grid's own arrays are not the residual's
        tracemalloc.start()
        try:
            el_residual_surface(patch, grid)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 20 * 8 * (256**2 - 128**2)


def test_surface_residual_reports_the_global_point_index():
    patch, _ = clifford_torus(1, 2)
    grid = QuadratureGrid.for_patch(patch, 64)
    bad = _chunk_points(patch) + 3
    theta = grid.points()[bad]

    def degenerate(t):
        x, first, second = patch.exact_jet(t)
        first[np.all(t == theta, axis=-1)] = 0.0
        return x, first, second

    with pytest.raises(RankError, match=f"rank deficient at point index {bad} "):
        el_residual_surface(replace(patch, exact_jet=degenerate), grid)


def _reference_integral(patch, grid, density_of):
    """The whole-array quadrature, kept as the bit-for-bit reference.

    One Gram-Schmidt pass and h over every node at once, rho^2 and
    sqrt g as whole arrays, the weights as the outer product of the 1-d
    rules, and one np.sum.
    """
    x, first, second = _jets(patch, grid.points(), FD_STEP)
    with np.errstate(divide="ignore", invalid="ignore"):
        tangent, r_inv, sqrt_g = _tangent_gram_schmidt(first)
    m, n, nd = first.shape
    coef = np.ascontiguousarray(r_inv.transpose(2, 1, 0))
    h = (coef @ second.reshape(m, n, n * nd)).reshape(m, n, n, nd)
    h = (coef[:, None] @ h).reshape(m, n * n, nd)
    frame = np.concatenate([tangent, x.T[None]])
    cols = np.ascontiguousarray(frame.transpose(2, 1, 0))
    rows = np.ascontiguousarray(frame.transpose(2, 0, 1))
    h -= (h @ cols) @ rows
    h[:, :: n + 1] -= np.einsum("ciiN->cN", h.reshape(m, n, n, nd))[:, None] / n
    rho_sq = np.einsum("cpj,cpj->c", h, h)
    weights = grid.weights_1d[0]
    for axis_weights in grid.weights_1d[1:]:
        weights = np.multiply.outer(weights, axis_weights)
    density = density_of(rho_sq, sqrt_g) * weights.reshape(-1)
    return float(np.sum(density)) / patch.cover_multiplicity


@pytest.mark.parametrize(
    "ident, res",
    [
        ("clifford-torus:1,2", 70),
        ("round-sphere:2,1,0.8", 66),  # doubled chart with a fold
        ("mobius(round-sphere:2,1,0.8)", 50),
        ("veronese", 70),  # Gauss-Legendre axis, cover multiplicity 2
        ("willmore-torus:1,3", 17),  # 4913 nodes: odd, no chunk divides it
        ("willmore-torus:2,4", 10),
        ("product-spheres:2,2,1", 6),
    ],
)
def test_chunked_quadratures_equal_the_whole_array_reduction_bit_for_bit(ident, res):
    if ident.startswith("mobius("):
        source = resolve(ident[len("mobius(") : -1]).patch
        patch = mobius_apply(random_mobius(source.ambient_dim, trial_rng(0, 0)), source)
    else:
        patch = resolve(ident).patch
    grid = QuadratureGrid.for_patch(patch, res)
    assert grid.node_total > _chunk_points(patch)
    power = patch.n / 2.0
    got = willmore_energy(patch, grid)
    assert got == _reference_integral(patch, grid, lambda r, s: r**power * s)
    for mode in ("simons", "li"):
        c = pinching_threshold(patch.n, patch.p, mode)
        got = pinching_integral(patch, grid, mode)
        assert got == _reference_integral(patch, grid, lambda r, s: r**power * (c - r) * s)
    f = patch.evaluator(grid.points())[:, 0]
    got = grid_integral(patch, grid, f.reshape(grid.shape))
    assert got == _reference_integral(patch, grid, lambda r, s: f * s)


def _probed(patch, seed, trials):
    """The maps of these trials whose images pass the coarse pole check."""
    maps = []
    for trial in trials:
        mob = random_mobius(patch.ambient_dim, trial_rng(seed, trial))
        try:
            mobius_apply(mob, patch)
        except PoleError:
            continue
        maps.append(mob)
    return maps


def _one_walk(mob, patch, grid):
    """The energy of one conformal image in a walk of its own, or None."""
    try:
        return willmore_energy(mobius_apply(mob, patch), grid)
    except PoleError:
        return None


@pytest.mark.parametrize(
    "ident, res",
    [
        ("round-sphere:2,1,0.8", 48),  # roundoff energies show any per-node bit
        ("clifford-torus:1,2", 48),
        ("veronese", 40),
        ("willmore-torus:1,3", 12),
    ],
)
@pytest.mark.parametrize("count", [5, 11])  # 409 and 186 nodes per chunk
def test_mobius_energies_equal_one_walk_per_map_bit_for_bit(ident, res, count):
    patch = resolve(ident).patch
    grid = QuadratureGrid.for_patch(patch, res)
    maps = _probed(patch, 1, range(40))[:count]
    assert len(maps) == count and (_chunk_points(patch) // count) % 8
    assert grid.node_total > _chunk_points(patch) // count
    assert mobius_energies(patch, grid, maps) == [_one_walk(m, patch, grid) for m in maps]


def test_a_map_grazing_the_pole_partway_leaves_its_group():
    patch, _ = clifford_torus(1, 2)
    grid = QuadratureGrid.for_patch(patch, 48)
    # Trial 45 passes the coarse pole check, but its image passes within
    # the pointwise guard near node 1921 of 2304.
    maps = _probed(patch, 0, [45, 0, 1, 2, 3])
    assert len(maps) == 5
    walk = list(_mobius_integrand_chunks(patch, grid, maps))
    assert 0 in walk[0][2] and 0 not in walk[-1][2]
    assert walk[-1][1] == grid.node_total
    expected = [_one_walk(m, patch, grid) for m in maps]
    assert expected[0] is None and None not in expected[1:]
    assert mobius_energies(patch, grid, maps) == expected


def test_mobius_groups_split_at_the_byte_budget(monkeypatch):
    patch, _ = clifford_torus(1, 2)
    grid = QuadratureGrid.for_patch(patch, 32)
    maps = _probed(patch, 2, range(30))[:7]
    monkeypatch.setattr(willmore, "_GROUP_BYTES", 3 * 8 * grid.node_total)
    walked = []

    def walk(patch, grid, group):
        walked.append(len(group))
        return _mobius_integrand_chunks(patch, grid, group)

    monkeypatch.setattr(willmore, "_mobius_integrand_chunks", walk)
    assert mobius_energies(patch, grid, maps) == [_one_walk(m, patch, grid) for m in maps]
    assert walked == [3, 3, 1]


def test_mobius_energy_memory_follows_the_budget_not_the_map_count(monkeypatch):
    patch, _ = clifford_torus(1, 2)
    grid = QuadratureGrid.for_patch(patch, 128)
    row = 8 * grid.node_total
    maps = _probed(patch, 3, range(40))[:12]

    def peak(count):
        tracemalloc.start()
        try:
            mobius_energies(patch, grid, maps[:count])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(willmore, "_GROUP_BYTES", 2 * row)
    two, twelve = peak(2), peak(12)
    assert twelve < two + row // 4
    # Without the budget's bound twelve density rows are held at once.
    monkeypatch.setattr(willmore, "_GROUP_BYTES", 12 * row)
    assert peak(12) > two + 8 * row


def test_a_rank_error_in_a_group_names_the_node():
    patch, _ = clifford_torus(1, 2)
    grid = QuadratureGrid.for_patch(patch, 64)
    maps = _probed(patch, 4, range(20))[:3]
    bad = _chunk_points(patch) // 3 + 5  # in the second chunk of the walk
    theta = grid.points()[bad]

    def degenerate(t):
        x, first, second = patch.exact_jet(t)
        first[np.all(t == theta, axis=-1)] = 0.0
        return x, first, second

    with pytest.raises(RankError, match=f"rank deficient at point index {bad} "):
        mobius_energies(replace(patch, exact_jet=degenerate), grid, maps)


def test_conformal_trials_replace_maps_that_fail_in_trial_order():
    patch, _ = clifford_torus(1, 2)
    grid = QuadratureGrid.for_patch(patch, 48)
    # Trial 45 of seed 0 passes the coarse pole check and fails partway
    # through the walk; the reference evaluates one trial after another.
    expected = []
    trial = 0
    while len(expected) < 45:
        mob = random_mobius(4, trial_rng(0, trial))
        try:
            expected.append((trial, willmore_energy(mobius_apply(mob, patch), grid)))
        except PoleError:
            pass
        trial += 1
    got = conformal_trials(patch, grid, 45, 0)
    assert got == expected
    assert 45 not in [t for t, _ in got] and got[-1][0] > 45
    assert conformal_trials(patch, grid, 0, 0) == []


def test_conformal_trials_stop_at_twenty_draws_per_map():
    patch, _ = clifford_torus(1, 2)
    grid = QuadratureGrid.for_patch(patch, 16)
    drawn = []

    def refuse(mob, patch):
        drawn.append(mob)
        raise PoleError("refused")

    assert conformal_trials(patch, grid, 3, 0, mobius_apply=refuse) == []
    assert len(drawn) == 60
