import math

import numpy as np
import pytest

from willmorelab.catalog import (
    IsoparametricSpec,
    _sphere_jet,
    _sphere_value,
    UnknownExampleError,
    catalog_ids,
    clifford_torus,
    isoparametric_from_shape,
    product_spheres,
    resolve,
    round_sphere,
    round_sphere_spec,
    torus_family_patch,
    veronese,
    veronese_ambient,
    willmore_torus,
)
from willmorelab.grids import QuadratureGrid
from willmorelab.immersion import _fd_jets, sample_safe_points, shape_batch
from willmorelab.linalg import SymmetricMatrix
from willmorelab.tensors import ShapeFamily


def test_balanced_torus_invariants():
    for m, n in [(1, 2), (1, 3), (2, 3), (2, 5), (4, 5)]:
        patch, spec = willmore_torus(m, n)
        assert spec.n == n and spec.p == 1
        assert abs(spec.rho_sq - n) < 1e-12
        sd = patch.exact_shape(patch.safe_center())
        assert abs(sd.rho_sq - n) < 1e-12
        # curvature pattern sqrt(m/(n-m)) with multiplicity m, and its
        # negative reciprocal on the complementary block
        kv = dict(spec.principal_curvatures)
        assert kv[min(kv)] + kv[max(kv)] == n
        assert abs(min(kv) * max(kv) + 1.0) < 1e-12


def test_minimal_torus_invariants():
    for m, n in [(1, 2), (1, 3), (2, 4)]:
        patch, spec = clifford_torus(m, n)
        assert spec.mean_norm < 1e-12
        assert abs(spec.S - n) < 1e-12
        sd = patch.exact_shape(patch.safe_center())
        assert sd.mean_norm < 1e-12
        assert abs(sd.S - n) < 1e-12


def test_torus_flavors_coincide_only_when_balanced():
    wp, ws = willmore_torus(1, 2)
    cp, cs = clifford_torus(1, 2)
    assert np.allclose(
        wp.evaluator(wp.safe_center()), cp.evaluator(cp.safe_center()), atol=1e-12
    )
    ws3 = willmore_torus(1, 3)[1]
    cs3 = clifford_torus(1, 3)[1]
    assert abs(ws3.mean_norm) > 0.1
    assert cs3.mean_norm < 1e-12


def test_torus_argument_validation():
    for bad in [(0, 2), (2, 2), (3, 2), (-1, 4)]:
        with pytest.raises(ValueError):
            willmore_torus(*bad)
        with pytest.raises(ValueError):
            clifford_torus(*bad)
    with pytest.raises(ValueError):
        torus_family_patch(1, 2, 0.0)
    with pytest.raises(ValueError):
        torus_family_patch(1, 2, 1.0)


def test_torus_family_interpolates_both_flavors():
    m, n = 1, 3
    balanced = math.sqrt((n - m) / n)
    patch, spec = torus_family_patch(m, n, balanced)
    ref = willmore_torus(m, n)[1]
    assert np.allclose(
        sorted(k for k, _ in spec.principal_curvatures),
        sorted(k for k, _ in ref.principal_curvatures),
        atol=1e-12,
    )
    minimal = math.sqrt(m / n)
    spec_min = torus_family_patch(m, n, minimal)[1]
    assert spec_min.mean_norm < 1e-12


def test_veronese_patch_values():
    patch = veronese()
    assert patch.n == 2 and patch.p == 2 and patch.cover_multiplicity == 2
    pts = sample_safe_points(patch, np.random.default_rng(5), 20)
    batch = shape_batch(patch, pts)
    assert np.abs(np.einsum("mj,mj->m", batch.x, batch.x) - 1.0).max() < 1e-12
    assert np.abs(batch.rho_sq - 4.0 / 3.0).max() < 1e-12
    assert batch.mean_norm.max() < 1e-12


def test_veronese_ambient_oracle_point():
    out = veronese_ambient(np.array([math.sqrt(3.0), 0.0, 0.0]))
    expect = np.array([0.0, 0.0, 0.0, math.sqrt(3.0) / 2.0, 0.5])
    assert np.allclose(out, expect, atol=1e-15)


def test_veronese_identifies_antipodes():
    patch = veronese()
    rng = np.random.default_rng(11)
    pts = sample_safe_points(patch, rng, 10)
    flipped = np.stack([math.pi - pts[:, 0], pts[:, 1] + math.pi], axis=-1)
    assert np.abs(patch.evaluator(pts) - patch.evaluator(flipped)).max() < 1e-12


def test_doubled_sphere_chart_identifies_sheets():
    patch = round_sphere(2, 1, 0.8)
    rng = np.random.default_rng(3)
    pts = sample_safe_points(patch, rng, 10)
    folded = np.stack([2.0 * math.pi - pts[:, 0], pts[:, 1] + math.pi], axis=-1)
    assert np.abs(patch.evaluator(pts) - patch.evaluator(folded)).max() < 1e-12
    assert patch.cover_multiplicity == 2


def test_round_sphere_family():
    great = round_sphere(2, 1, 1.0)
    sd = great.exact_shape(great.safe_center())
    assert sd.rho_sq < 1e-12 and sd.mean_norm < 1e-12
    small = round_sphere(3, 2, 0.6)
    assert small.n == 3 and small.p == 2
    sd3 = small.exact_shape(small.safe_center())
    spec3 = round_sphere_spec(3, 2, 0.6)
    assert abs(sd3.mean_norm - spec3.mean_norm) < 1e-10
    assert sd3.rho_sq < 1e-10  # umbilic
    circle = round_sphere(1, 1, 0.5)
    sd1 = circle.exact_shape(circle.safe_center())
    assert abs(sd1.mean_norm - math.sqrt(3.0)) < 1e-12
    with pytest.raises(ValueError):
        round_sphere(0, 1, 0.5)
    with pytest.raises(ValueError):
        round_sphere(2, 1, 1.5)


def test_product_spheres_matches_two_factor_tori():
    patch, spec = product_spheres((1, 2))
    ref = willmore_torus(1, 3)[1]
    assert abs(spec.rho_sq - ref.rho_sq) < 1e-12
    got = sorted(spec.principal_curvatures)
    want = sorted(ref.principal_curvatures)
    for (ka, ma), (kb, mb) in zip(got, want):
        assert ma == mb and abs(ka - kb) < 1e-12


def test_product_spheres_higher_codimension():
    patch, spec = product_spheres((1, 1, 2))
    n = 4
    assert spec.n == n and spec.p == 2
    assert abs(spec.rho_sq - n * spec.p) < 1e-10
    sd = patch.exact_shape(patch.safe_center())
    assert abs(sd.rho_sq - n * spec.p) < 1e-10
    with pytest.raises(ValueError):
        product_spheres((3,))
    with pytest.raises(ValueError):
        product_spheres((0, 2))


def test_isoparametric_spec_validation():
    shape = ShapeFamily(2, 1, (SymmetricMatrix(np.diag([2.0, -0.5])),))
    with pytest.raises(ValueError, match="sum"):
        IsoparametricSpec(2, 1, shape, ((1.0, 1), (-1.0, 2)))
    two_normals = ShapeFamily(2, 2, (SymmetricMatrix(np.eye(2)),) * 2)
    with pytest.raises(ValueError, match="codimension"):
        IsoparametricSpec(2, 2, two_normals, ((1.0, 2),))
    spec = IsoparametricSpec(2, 1, shape, ((2.0, 1), (-0.5, 1)))
    assert abs(spec.S - 4.25) < 1e-12
    assert abs(spec.mean_norm - 0.75) < 1e-12
    assert abs(spec.rho_sq - (4.25 - 2 * 0.75**2)) < 1e-12


def test_shape_to_spec_grouping():
    patch, spec = willmore_torus(2, 5)
    sd = patch.exact_shape(patch.safe_center())
    rebuilt = isoparametric_from_shape(sd)
    got = sorted(rebuilt.principal_curvatures)
    want = sorted(spec.principal_curvatures)
    assert len(got) == len(want) == 2
    for (ka, ma), (kb, mb) in zip(got, want):
        assert ma == mb and abs(ka - kb) < 1e-9


def test_resolve_round_trips():
    for example_id in [
        "willmore-torus:1,3",
        "clifford-torus:2,4",
        "veronese",
        "product-spheres:1,1,1",
        "round-sphere:2,1,0.8",
    ]:
        entry = resolve(example_id)
        assert entry.example_id == example_id
        assert entry.patch.n == entry.spec.n
        assert entry.patch.p == entry.spec.p


def test_resolve_veronese_spec_from_exact_shape():
    entry = resolve("veronese")
    assert abs(entry.spec.rho_sq - 4.0 / 3.0) < 1e-10
    assert entry.spec.mean_norm < 1e-10


def test_resolve_rejects_unknown_and_malformed_ids():
    # A known form with bad parameters names the error behind the refusal.
    for bad, cause in [
        ("nonsense", None),
        ("willmore-torus:banana", "willmore-torus needs m,n"),
        ("willmore-torus:1,banana", "invalid literal for int() with base 10: 'banana'"),
        ("willmore-torus:1", "willmore-torus needs m,n"),
        ("clifford-torus:1,2,3", "clifford-torus needs m,n"),
        ("willmore-torus:2,2", "need 1 <= m <= n - 1, got m=2, n=2"),
        ("veronese:3", "veronese takes no arguments"),
        ("round-sphere:2,1", "round-sphere needs n,p,r"),
        ("round-sphere:2,1,1.5", "radius must lie in (0, 1], got 1.5"),
        ("product-spheres:", "invalid literal for int() with base 10: ''"),
    ]:
        with pytest.raises(UnknownExampleError) as err:
            resolve(bad)
        message = str(err.value)
        assert "known forms" in message
        if cause is None:
            assert err.value.__cause__ is None
            assert message.startswith(f"unknown example id {bad!r};")
        else:
            assert str(err.value.__cause__) == cause
            assert message.startswith(f"bad example id {bad!r}: {cause}; known forms: ")
    assert any(form.startswith("veronese") for form in catalog_ids())


def test_even_resolution_grids_avoid_chart_poles():
    patch = round_sphere(2, 1, 0.8)
    grid = QuadratureGrid.for_patch(patch, 32)
    shape_batch(patch, grid.points())  # would raise on a pole hit


def _reference_sphere_jet(t, k):
    # The former points-first jet: per-element factor tables, and the
    # leave-one-out and leave-two-out products rebuilt with np.delete.
    sin, cos = np.sin(t), np.cos(t)
    base = t.shape[:-1]
    f = np.ones(base + (k, k + 1))
    f1 = np.zeros(base + (k, k + 1))
    f2 = np.zeros(base + (k, k + 1))
    for i in range(k):
        for c in range(k + 1):
            if i < c:
                f[..., i, c] = sin[..., i]
                f1[..., i, c] = cos[..., i]
                f2[..., i, c] = -sin[..., i]
            elif i == c:
                f[..., i, c] = cos[..., i]
                f1[..., i, c] = -sin[..., i]
                f2[..., i, c] = -cos[..., i]
    y = f.prod(axis=-2)
    dy = np.zeros(base + (k, k + 1))
    d2y = np.zeros(base + (k, k, k + 1))
    for a in range(k):
        excl = np.delete(f, a, axis=-2).prod(axis=-2)
        dy[..., a, :] = f1[..., a, :] * excl
        d2y[..., a, a, :] = f2[..., a, :] * excl
        for b in range(a + 1, k):
            excl_ab = np.delete(np.delete(f, b, axis=-2), a, axis=-2).prod(axis=-2)
            mixed = f1[..., a, :] * f1[..., b, :] * excl_ab
            d2y[..., a, b, :] = mixed
            d2y[..., b, a, :] = mixed
    return y, dy, d2y


def _points_first_sphere_jet(t, k):
    rows = np.ascontiguousarray(t.reshape(-1, k).T)
    y, dy, d2y = _sphere_jet(np.sin(rows), np.cos(rows))
    full = np.empty((k, k, k + 1, rows.shape[1]))
    for (a, b), block in d2y.items():
        full[a, b] = full[b, a] = block
    base = t.shape[:-1]
    return (
        y.T.reshape(base + (k + 1,)),
        np.stack(dy).transpose(2, 0, 1).reshape(base + (k, k + 1)),
        full.transpose(3, 0, 1, 2).reshape(base + (k, k, k + 1)),
    )


def _same_bits(got, want):
    return got.shape == want.shape and np.ascontiguousarray(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("k", range(1, 7))
def test_sphere_jet_matches_the_delete_reference(k):
    # Prefix and suffix products keep the factor order up to k = 3;
    # from k = 4 on they reassociate, which moves the last bit at most.
    t = np.random.default_rng(40 + k).uniform(0.0, 2.0 * math.pi, size=(3, 5, k))
    want = _reference_sphere_jet(t, k)
    assert _same_bits(_sphere_value(t, k), want[0])
    for got, ref in zip(_points_first_sphere_jet(t, k), want):
        if k <= 3:
            assert _same_bits(got, ref)
        else:
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 4e-16


@pytest.mark.parametrize("k", [1, 2, 3])
def test_product_chart_jet_is_the_reference_jet_scaled(k):
    # Through the patch: the points-last rows land in the points-first
    # contract bit for bit, with the constant tail and zero blocks.
    r = 0.6
    patch = round_sphere(k, 1, r)
    t = np.random.default_rng(50 + k).uniform(0.3, 2.8, size=(4, 3, k))
    y, dy, d2y = _reference_sphere_jet(t, k)
    x, first, second = patch.exact_jet(t)
    assert _same_bits(x[..., : k + 1], r * y) and np.all(x[..., k + 1] == 0.8)
    assert _same_bits(first[..., : k + 1], r * dy) and not first[..., k + 1].any()
    assert _same_bits(second[..., : k + 1], r * d2y) and not second[..., k + 1].any()


def _jet_families():
    return [
        willmore_torus(2, 4)[0],
        willmore_torus(1, 3)[0],
        clifford_torus(1, 2)[0],
        torus_family_patch(2, 5, 0.4)[0],
        veronese(),
        product_spheres((2, 2, 1))[0],
        product_spheres((1, 1, 1))[0],
        product_spheres((4, 1))[0],
        round_sphere(2, 1, 0.7),
        round_sphere(3, 2, 0.6),
    ]


def test_catalog_jets_keep_the_contract_and_match_differences():
    rng = np.random.default_rng(19)
    for patch in _jet_families():
        n, nd = patch.n, patch.ambient_dim
        pts = sample_safe_points(patch, rng, 24)
        jet = patch.exact_jet(pts)
        assert [a.shape for a in jet] == [(24, nd), (24, n, nd), (24, n, n, nd)]
        assert all(a.dtype == np.float64 for a in jet)
        x, first, second = jet
        fx, ffirst, fsecond = _fd_jets(patch.evaluator, pts, 1e-4)
        assert np.abs(x - fx).max() <= 1e-15
        assert np.abs(first - ffirst).max() <= 1e-7
        assert np.abs(second - fsecond).max() <= 1e-6
        # Leading batch axes are kept, with the same values.
        lead = patch.exact_jet(pts.reshape(4, 6, n))
        for got, want in zip(lead, jet):
            assert got.shape == (4, 6) + want.shape[1:]
            assert np.array_equal(got.reshape(want.shape), want)
