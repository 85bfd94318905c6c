import numpy as np
import pytest

from willmorelab.linalg import SymmetricMatrix, frob_norm_sq
from willmorelab.tensors import (
    ShapeFamily,
    SymTensor3,
    TraceFreeFamily,
    canonical_pair,
    check_chern_inequality,
    check_li_inequality,
    equality_witness,
    f_tensor_decompose,
    random_shape_family,
    random_symmetric,
    random_trace_free_family,
    traceless_part,
    trial_rng,
)

TRIALS = 300


def test_shape_family_mean_and_norms():
    h1 = SymmetricMatrix(np.diag([1.0, 3.0]))
    h2 = SymmetricMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    fam = ShapeFamily(2, 2, (h1, h2))
    assert np.allclose(fam.mean, [2.0, 0.0])
    assert fam.total_norm_sq == 12.0
    assert fam.mean_norm == 2.0


def test_traceless_part_invariants():
    for trial in range(60):
        rng = trial_rng(21, trial)
        n = int(rng.integers(2, 6))
        p = int(rng.integers(1, 4))
        fam = random_shape_family(n, p, rng)
        tf, sigma = traceless_part(fam)
        for mat in tf.matrices:
            assert abs(np.trace(mat.data)) < 1e-12 * (1 + np.abs(mat.data).max())
        expected = fam.total_norm_sq - n * fam.mean_norm**2
        assert abs(sigma.rho_sq - expected) < 1e-10 * (1 + abs(expected))
        lam = np.linalg.eigvalsh(sigma.matrix)
        assert lam.min() > -1e-10 * (1 + lam.max())


def test_trace_free_family_rejects_traceful_input():
    with pytest.raises(ValueError):
        TraceFreeFamily(2, 1, (SymmetricMatrix(np.eye(2)),))


def test_commutator_bound_on_random_pairs():
    worst = np.inf
    for trial in range(TRIALS):
        rng = trial_rng(42, trial)
        n = int(rng.integers(2, 7))
        slack = check_chern_inequality(random_symmetric(n, rng), random_symmetric(n, rng))
        worst = min(worst, slack)
    assert worst >= -1e-10


def test_commutator_bound_equality_cases():
    for n in range(2, 7):
        a, b = canonical_pair(n)
        assert check_chern_inequality(a, b) == 0.0
    # scaling both matrices keeps the slack at zero
    a, b = canonical_pair(4)
    a2 = SymmetricMatrix(1.7 * a.data)
    b2 = SymmetricMatrix(-0.3 * b.data)
    assert abs(check_chern_inequality(a2, b2)) < 1e-12


def test_family_bound_on_random_families():
    worst = np.inf
    for trial in range(TRIALS):
        rng = trial_rng(43, trial)
        n = int(rng.integers(2, 6))
        p = int(rng.integers(1, 4))
        slack = check_li_inequality(random_trace_free_family(n, p, rng))
        worst = min(worst, slack)
    assert worst >= -1e-10


def test_family_bound_canonical_equality_and_unbalanced_gap():
    a, b = canonical_pair(3)
    fam = TraceFreeFamily(3, 2, (a, b))
    assert abs(check_li_inequality(fam)) < 1e-12
    # scaling the two members differently opens a gap of 2 (lam^2 - mu^2)^2
    for lam, mu in [(1.0, 0.5), (2.0, 1.0), (0.7, 1.3)]:
        fam2 = TraceFreeFamily(
            3, 2, (SymmetricMatrix(lam * a.data), SymmetricMatrix(mu * b.data))
        )
        gap = 2.0 * (lam**2 - mu**2) ** 2
        assert abs(check_li_inequality(fam2) - gap) < 1e-10 * (1 + gap)


def test_family_bound_invariant_under_orthogonal_mixing():
    for trial in range(40):
        rng = trial_rng(44, trial)
        n = int(rng.integers(2, 5))
        p = int(rng.integers(2, 4))
        stacked = random_trace_free_family(n, p, rng)
        base = check_li_inequality(stacked)
        # mix the family members by a random orthogonal matrix
        g = rng.standard_normal((p, p))
        q, r = np.linalg.qr(g)
        q = q * np.sign(np.diag(r))
        mixed = np.einsum("ab,bij->aij", q, stacked)
        fam_mixed = TraceFreeFamily(n, p, tuple(SymmetricMatrix(m) for m in mixed))
        assert abs(check_li_inequality(fam_mixed) - base) < 1e-9 * (1 + abs(base))
        # conjugate every member by one random tangent rotation
        gt = rng.standard_normal((n, n))
        qt, rt = np.linalg.qr(gt)
        qt = qt * np.sign(np.diag(rt))
        conj = np.einsum("ki,akl,lj->aij", qt, stacked, qt)
        fam_conj = TraceFreeFamily(n, p, tuple(SymmetricMatrix(m) for m in conj))
        assert abs(check_li_inequality(fam_conj) - base) < 1e-9 * (1 + abs(base))


def test_mean_gram_pairing_is_dominated():
    # sum_ab H^a H^b sigma_ab <= |H|^2 rho^2 for every shape family
    for trial in range(200):
        rng = trial_rng(45, trial)
        n = int(rng.integers(2, 6))
        p = int(rng.integers(1, 4))
        fam = random_shape_family(n, p, rng)
        _, sigma = traceless_part(fam)
        lhs = float(fam.mean @ sigma.matrix @ fam.mean)
        rhs = fam.mean_norm**2 * sigma.rho_sq
        assert lhs <= rhs + 1e-12 * (1 + abs(rhs))


def test_equality_witness_recovers_conjugated_pairs():
    for trial in range(50):
        rng = trial_rng(46, trial)
        n = int(rng.integers(2, 7))
        lam = float(rng.uniform(0.2, 2.0))
        mu = float(rng.uniform(0.2, 2.0))
        a0, b0 = canonical_pair(n)
        g = rng.standard_normal((n, n))
        q, r = np.linalg.qr(g)
        q = q * np.sign(np.diag(r))
        a = SymmetricMatrix(q @ (lam * a0.data) @ q.T)
        b = SymmetricMatrix(q @ (mu * b0.data) @ q.T)
        found = equality_witness(a, b, tol=1e-8)
        assert found is not None
        t, wl, wm = found
        assert np.allclose(t.T @ t, np.eye(n), atol=1e-10)
        assert np.linalg.norm(t.T @ a.data @ t - wl * a0.data) < 1e-10
        assert np.linalg.norm(t.T @ b.data @ t - wm * b0.data) < 1e-10


def test_equality_witness_rejects_generic_pairs():
    hits = 0
    for trial in range(50):
        rng = trial_rng(47, trial)
        n = int(rng.integers(3, 6))
        a = random_symmetric(n, rng)
        b = random_symmetric(n, rng)
        if check_chern_inequality(a, b) > 1e-6 and equality_witness(a, b) is not None:
            hits += 1
    assert hits == 0


def test_stacked_kernels_match_per_trial_calls():
    rng = np.random.default_rng(49)
    a = np.stack([random_symmetric(4, rng) for _ in range(30)])
    b = np.stack([random_symmetric(4, rng) for _ in range(30)])
    pairs = [check_chern_inequality(SymmetricMatrix(x), SymmetricMatrix(y)) for x, y in zip(a, b)]
    assert np.array_equal(check_chern_inequality(a, b), pairs)

    fams = np.stack([random_trace_free_family(3, 2, rng) for _ in range(30)])
    per_family = [
        check_li_inequality(TraceFreeFamily(3, 2, tuple(SymmetricMatrix(m) for m in f)))
        for f in fams
    ]
    assert np.array_equal(check_li_inequality(fams), per_family)

    a0, b0 = canonical_pair(4)
    q = np.stack([np.linalg.qr(rng.standard_normal((4, 4)))[0] for _ in range(30)])
    qt = np.swapaxes(q, -1, -2)
    t, lam, mu, residual = equality_witness(q @ (0.8 * a0.data) @ qt, q @ (1.3 * b0.data) @ qt)
    assert t.shape == (30, 4, 4) and residual.max() < 1e-13
    assert np.allclose(np.abs(lam), 0.8) and np.allclose(mu, 1.3)


def test_equality_witness_error_paths():
    a, b = canonical_pair(2)
    with pytest.raises(ValueError):
        equality_witness(a, SymmetricMatrix(np.eye(3)))
    with pytest.raises(ValueError):
        equality_witness(SymmetricMatrix(np.zeros((2, 2))), b)


def test_sym_tensor_symmetrizes_entries():
    rng = np.random.default_rng(3)
    raw = rng.uniform(-1, 1, size=(2, 3, 3, 3))
    t = SymTensor3(3, 2, raw)
    e = t.entries
    assert np.allclose(e, e.transpose(0, 2, 1, 3))
    assert np.allclose(e, e.transpose(0, 1, 3, 2))
    assert np.allclose(e, e.transpose(0, 3, 2, 1))


def test_f_tensor_split_identity_and_nonnegativity():
    for trial in range(200):
        rng = trial_rng(48, trial)
        n = int(rng.integers(2, 6))
        p = int(rng.integers(1, 4))
        t = SymTensor3(n, p, rng.uniform(-1, 1, size=(p, n, n, n)))
        f, hvec, residual = f_tensor_decompose(t)
        assert residual <= 1e-12 * (1 + t.norm_sq())
        bound = 3.0 * n * n / (n + 2.0) * float(np.sum(hvec * hvec))
        assert t.norm_sq() >= bound - 1e-12 * (1 + t.norm_sq())
        # the trace-free part has vanishing contractions
        contr = np.einsum("akki->ai", f.entries)
        assert np.abs(contr).max() < 1e-12 * (1 + np.abs(t.entries).max())


def test_f_tensor_pure_trace_input_maps_to_zero():
    rng = np.random.default_rng(9)
    n, p = 4, 2
    hvec = rng.standard_normal((p, n))
    eye = np.eye(n)
    pure = (
        np.einsum("ai,jk->aijk", hvec, eye)
        + np.einsum("aj,ik->aijk", hvec, eye)
        + np.einsum("ak,ij->aijk", hvec, eye)
    ) * (n / (n + 2.0))
    f, hout, _ = f_tensor_decompose(SymTensor3(n, p, pure))
    assert np.abs(f.entries).max() < 1e-12
    assert np.allclose(hout, hvec, atol=1e-12)


def test_trial_rng_reproducibility():
    a = trial_rng(5, 17).standard_normal(4)
    b = trial_rng(5, 17).standard_normal(4)
    c = trial_rng(5, 18).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
