import gc
import math
import tracemalloc
import weakref
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
from willmorelab import immersion, willmore
from willmorelab.immersion import (
    FD_STEP,
    PoleError,
    RankError,
    _chunk_points,
    _integrand_chunks,
    _jets,
    _linear_fraction,
    _tangent_gram_schmidt,
    laplace_beltrami,
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


def test_jet_free_charts_match_exact_jets_through_every_walk():
    # Charts without exact jets are differenced with FD_STEP in the grid
    # walk, the Laplacian's row sweep and the surface residual. Gates are
    # about ten times the differences measured: energy 1.2e-8 relative,
    # pinching 1.2e-6, residual 4.1e-6, Laplacian 6.6e-9 at 64^2.
    patch, _ = clifford_torus(1, 2)
    fd = replace(patch, exact_jet=None)
    grid = QuadratureGrid.for_patch(patch, 64)
    energy = willmore_energy(patch, grid)
    assert abs(willmore_energy(fd, grid) - energy) < 1.2e-7 * energy
    assert abs(pinching_integral(fd, grid) - pinching_integral(patch, grid)) < 1.2e-5
    assert el_residual_surface(patch, grid).max_norm < 4e-13
    assert el_residual_surface(fd, grid).max_norm < 4e-5
    f = np.sin(grid.points()[:, 0]).reshape(grid.shape)
    lap = laplace_beltrami(patch, f, grid)
    assert np.max(np.abs(laplace_beltrami(fd, f, grid) - lap)) < 7e-8
    # Off the critical radius the residual is 0.633, not zero.
    family, _ = torus_family_patch(1, 2, 0.6)
    exact = el_residual_surface(family, grid).values
    differenced = el_residual_surface(replace(family, exact_jet=None), grid).values
    assert np.max(np.abs(exact)) > 0.6
    assert np.max(np.abs(differenced - exact)) < 5e-5
    torus = willmore_torus(1, 3)[0]
    grid = QuadratureGrid.for_patch(torus, 16)
    energy = willmore_energy(torus, grid)
    assert abs(willmore_energy(replace(torus, exact_jet=None), grid) - energy) < 3e-9 * energy


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
    """tracemalloc peak of one integral per grid resolution.

    Its callers walk in one process (``one_process``): a forked child's
    half of the walk would not be traced here.
    """
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


@pytest.mark.usefixtures("one_process")
def test_energy_memory_follows_the_chunk_not_the_grid():
    # Peak allocation during the energy grows by less than 64 bytes per
    # node (0.06 measured), not by the O(M n^2 N) jet, which is 768
    # bytes per node for this chart.
    patch, _ = willmore_torus(2, 4)
    peaks = _traced_peaks(willmore_energy, patch, (12, 24), prebuild=True)
    assert peaks[1] - peaks[0] < 4 * 16 * 24**4


@pytest.mark.usefixtures("one_process")
def test_energy_memory_holds_no_node_array():
    # The kernel gathers nodes and weights per chunk and the reduction
    # streams them into np.sum's pairwise tree, so with no grid array
    # built beforehand the peak grows by 0.06 bytes per node (measured),
    # not by a node-sized density (8 bytes), rho^2, sqrt g, the weights
    # or an M x n node array.
    patch, _ = willmore_torus(2, 4)
    peaks = _traced_peaks(willmore_energy, patch, (12, 24))
    assert peaks[1] - peaks[0] < (24**4 - 12**4) // 8


@pytest.mark.usefixtures("one_process")
def test_pinching_memory_holds_no_node_array():
    # As for the energy: 0.06 bytes per node measured.
    patch, _ = willmore_torus(2, 4)
    peaks = _traced_peaks(pinching_integral, patch, (12, 24))
    assert peaks[1] - peaks[0] < (24**4 - 12**4) // 8


def test_energy_frees_each_chunk_before_the_next_jets(monkeypatch):
    # Neither the walk nor the reduction keeps a chunk's rho^2, sqrt g or
    # R^{-1} while the next chunk's jets are taken: 0.17 MiB less at the
    # peak of a 2048-point willmore-torus:1,3 chunk.
    yielded = []
    walk, jets = willmore._integrand_chunks, immersion._jets

    def recording_walk(*args):
        for chunk in walk(*args):
            yielded.extend(weakref.ref(field) for field in chunk[3:])
            yield chunk
            del chunk

    def checked_jets(*args):
        assert all(ref() is None for ref in yielded)
        return jets(*args)

    monkeypatch.setattr(willmore, "_integrand_chunks", recording_walk)
    monkeypatch.setattr(immersion, "_jets", checked_jets)
    patch, _ = willmore_torus(1, 3)
    willmore_energy(patch, QuadratureGrid.for_patch(patch, 20))
    assert len(yielded) == 3 * 4


def test_energy_frees_its_walk_on_return(monkeypatch):
    # The reduction's recursion refers to itself through its closure. That
    # cycle once kept the walk, and with it the walk's work buffers, alive
    # until the next garbage collection: 3.7 MiB more peak RSS over the
    # three levels of energy willmore-torus:2,4 --resolution 28.
    walks = []
    walk = willmore._integrand_chunks

    def recording_walk(*args):
        chunks = walk(*args)
        walks.append(weakref.ref(chunks))
        return chunks

    monkeypatch.setattr(willmore, "_integrand_chunks", recording_walk)
    patch, _ = willmore_torus(1, 3)
    gc.disable()
    try:
        willmore_energy(patch, QuadratureGrid.for_patch(patch, 20))
    finally:
        gc.enable()
    assert len(walks) == 1 and walks[0]() is None


@pytest.mark.usefixtures("one_process")
def test_energy_chunk_working_set_stays_small():
    # product-spheres:2,2,1 has the largest jet per point of the
    # benchmark charts (1600 bytes); at 512-point chunks with reused work
    # buffers one 8^5 energy peaks at 3.2 MiB (3.5 MiB with a node-sized
    # density row). 2048-point chunks with fresh temporaries read 20.2 MiB.
    patch = resolve("product-spheres:2,2,1").patch
    (peak,) = _traced_peaks(willmore_energy, patch, (8,))
    assert peak < 6 * 2**20


def test_surface_residual_memory_follows_the_chunk_not_the_grid():
    # Peak allocation grows by the result (one double per node) and by
    # the row block, which is 16 rows at both sizes, so twice as many
    # nodes at 256^2: 2.04 doubles per node measured (1.74 through
    # shape_batch, whose peak was higher at both sizes), not by the frames
    # and jets of one shape batch over the whole grid (about 94 doubles
    # per node). H, S, sqrt g and g^{-1} are taken per block of rows;
    # gathering H, S, sqrt g and the metric's upper triangle for every
    # node first measured 6.0, and a whole-array stencil 9.6.
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
    assert peaks[1] - peaks[0] < 4 * 8 * (256**2 - 128**2)


def test_surface_residual_reports_the_global_point_index():
    # A node past the first shape batch, and a node in the last grid
    # row, which the first block of the Laplacian reads as its halo.
    patch, _ = clifford_torus(1, 2)
    grid = QuadratureGrid.for_patch(patch, 64)
    for bad in (_chunk_points(patch) + 3, grid.node_total - 60):
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


def _density_stream(values, segment):
    """Density chunks as the grid walk yields them: ``segment`` nodes of
    every row per chunk."""
    total = values.shape[1]
    for start in range(0, total, segment):
        yield values[:, start : start + segment]


def _spread_values(rows, total, seed):
    """Values over ten orders of magnitude, of both signs: any change of
    summation order shows in the last bits."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, total)) * 10.0 ** rng.integers(-5, 6, (rows, total))


@pytest.mark.parametrize(
    "total",
    [1, 7, 8, 127, 128, 129, 1000, 8**5, 9**5, 40**3, 28**4, 2**16 + 2**15 + 7],
)
def test_pairwise_sums_equal_np_sum_bit_for_bit(total):
    # The reduction relies on NumPy's pairwise order (PW_BLOCKSIZE 128,
    # halves rounded down to multiples of 8). If a NumPy release changes
    # it, this fails before any golden does, and says why.
    for rows in (1, 3, 10) if total <= 2**17 else (1, 3):
        values = _spread_values(rows, total, total + rows)
        expected = [float(np.sum(row)) for row in values]
        for segment in (1, 37, 204, 1024, 2048):
            if total // segment > 4000:
                continue
            got = willmore._pairwise_sums(
                _density_stream(values, segment), rows, total, segment
            )
            assert got.tolist() == expected, (rows, segment)
    if total > 2**16:
        assert float(np.cumsum(values[0])[-1]) != expected[0]  # the data tell orders apart


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
    # the pointwise guard near node 1921 of 2304, in the fifth chunk of
    # 409 nodes. The walk keeps all five images to the last node and
    # flags map 0 from that chunk on; the reduction drops it at the end.
    maps = _probed(patch, 0, [45, 0, 1, 2, 3])
    assert len(maps) == 5
    walk = list(_integrand_chunks(patch, grid, [_linear_fraction(m) for m in maps]))
    assert [stop for _, stop, *_ in walk] == [409, 818, 1227, 1636, 2045, 2304]
    assert all(rho_sq.shape[0] == sqrt_g.shape[0] == 5 for *_, rho_sq, sqrt_g, _ in walk)
    assert [grazing.tolist() for _, _, grazing, *_ in walk] == (
        [[False] * 5] * 4 + [[True] + [False] * 4] * 2
    )
    expected = [_one_walk(m, patch, grid) for m in maps]
    assert expected[0] is None and None not in expected[1:]
    assert mobius_energies(patch, grid, maps) == expected
    assert list(_integrand_chunks(patch, grid, [])) == []  # no image, no walk


def test_a_flagged_map_streams_zeros_without_its_kernel(monkeypatch):
    # The map flagged in the fifth chunk (see above) takes no jets or
    # kernel in the sixth: four maps go through the quotient rule and
    # 4 x 259 points through the kernel, and its row reads zero there.
    patch, _ = clifford_torus(1, 2)
    grid = QuadratureGrid.for_patch(patch, 48)
    maps = _probed(patch, 0, [45, 0, 1, 2, 3])
    mapped, kernel_points = [], []
    mobius_jets, rho_sq_chunk = immersion._mobius_jets, immersion._rho_sq_chunk

    def counted_jets(*args):
        mapped.append(len(args[-1]))
        return mobius_jets(*args)

    def counted_kernel(x, *args):
        kernel_points.append(len(x))
        return rho_sq_chunk(x, *args)

    monkeypatch.setattr(immersion, "_mobius_jets", counted_jets)
    monkeypatch.setattr(immersion, "_rho_sq_chunk", counted_kernel)
    walk = list(_integrand_chunks(patch, grid, [_linear_fraction(m) for m in maps]))
    assert mapped == [5] * 5 + [4]
    assert kernel_points == [5 * 409] * 5 + [4 * 259]
    *_, (_, _, grazing, rho_sq, sqrt_g, coef) = walk
    assert grazing.tolist() == [True] + [False] * 4
    assert not rho_sq[0].any() and not sqrt_g[0].any() and len(coef) == 4 * 259
    assert rho_sq[1:].all() and sqrt_g[1:].all()
    assert mobius_energies(patch, grid, maps) == [_one_walk(m, patch, grid) for m in maps]
    # Alone, the flagged map leaves no row to take: its last chunk is zeros.
    *_, (_, _, grazing, rho_sq, sqrt_g, coef) = _integrand_chunks(
        patch, grid, [_linear_fraction(maps[0])]
    )
    assert grazing.tolist() == [True] and coef is None
    assert not rho_sq.any() and not sqrt_g.any()
    assert mobius_energies(patch, grid, maps[:1]) == [None]


def test_mobius_groups_split_at_the_chunk_size(monkeypatch):
    patch, _ = clifford_torus(1, 2)
    grid = QuadratureGrid.for_patch(patch, 32)
    maps = _probed(patch, 2, range(30))[:7]
    # A walk takes at most one chunk's worth of maps; patched, three.
    monkeypatch.setattr(willmore, "_chunk_points", lambda patch: 3)
    walked = []

    def walk(patch, grid, fractions=None, *span):
        if fractions is not None:  # the reference walks have none
            walked.append(len(fractions))
        return _integrand_chunks(patch, grid, fractions, *span)

    monkeypatch.setattr(willmore, "_integrand_chunks", walk)
    assert mobius_energies(patch, grid, maps) == [_one_walk(m, patch, grid) for m in maps]
    assert walked == [3, 3, 1]


def test_mobius_energies_refuse_a_chart_without_exact_jets():
    patch, _ = clifford_torus(1, 2)
    grid = QuadratureGrid.for_patch(patch, 16)
    maps = _probed(patch, 0, range(10))[:2]
    assert mobius_energies(replace(patch, exact_jet=None), grid, []) == []
    with pytest.raises(ValueError, match="only on charts with exact jets"):
        mobius_energies(replace(patch, exact_jet=None), grid, maps)


@pytest.mark.usefixtures("one_process")
def test_mobius_energy_memory_does_not_follow_the_map_count():
    # Each map streams its densities into its own pairwise sum, so twelve
    # maps hold no more than two: a node-sized row per map would add
    # 10 x 128 KiB here.
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

    assert len(maps) == 12
    assert peak(12) < peak(2) + row // 4


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
    # These trials pass the coarse pole check and graze the pole partway
    # through a walk: trials 18, 16 and 19 of seed 0 in the 13th, 16th
    # and 29th of the first group's 52 chunks, and trial 45 in a group
    # of redraws; on willmore-torus:1,3, trial 2 of seed 30 in the
    # seventh of nine chunks. The reference evaluates one trial after
    # another.
    for ident, res, seed, count, grazers in (
        ("clifford-torus:1,2", 48, 0, 45, [16, 18, 19, 45]),
        ("willmore-torus:1,3", 12, 30, 10, [2]),
    ):
        patch = resolve(ident).patch
        grid = QuadratureGrid.for_patch(patch, res)
        assert len(_probed(patch, seed, grazers)) == len(grazers)
        expected = []
        trial = 0
        while len(expected) < count:
            mob = random_mobius(patch.ambient_dim, trial_rng(seed, trial))
            try:
                expected.append((trial, willmore_energy(mobius_apply(mob, patch), grid)))
            except PoleError:
                pass
            trial += 1
        got = conformal_trials(patch, grid, count, seed)
        assert got == expected
        assert not set(grazers) & {t for t, _ in got} and got[-1][0] > grazers[-1]
        assert conformal_trials(patch, grid, 0, seed) == []


def test_conformal_trials_stop_at_twenty_draws_per_map():
    patch, _ = clifford_torus(1, 2)
    grid = QuadratureGrid.for_patch(patch, 16)
    drawn = []

    def refuse(mob, patch):
        drawn.append(mob)
        raise PoleError("refused")

    assert conformal_trials(patch, grid, 3, 0, mobius_apply=refuse) == []
    assert len(drawn) == 60
