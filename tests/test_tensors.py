import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from willmorelab.linalg import SymmetricMatrix, frob_norm_sq
from willmorelab.tensors import (
    _HASH_BLOCK,
    ShapeFamily,
    SymTensor3,
    _item_sums,
    _trial_states,
    _unit_box,
    canonical_pair,
    check_chern_inequality,
    check_li_inequality,
    equality_witness,
    f_tensor_decompose,
    random_symmetric,
    random_trace_free_family,
    traceless_part,
    trial_rng,
    trial_rngs,
)

TRIALS = 300


def _random_shape_family(n, p, rng):
    return ShapeFamily(n, p, tuple(SymmetricMatrix(random_symmetric(n, rng)) for _ in range(p)))


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
        fam = _random_shape_family(n, p, rng)
        tf, sigma = traceless_part(fam)
        assert tf.shape == (p, n, n) and sigma.shape == (p, p)
        for mat in tf:
            assert np.array_equal(mat, mat.T)
            assert abs(np.trace(mat)) < 1e-12 * (1 + np.abs(mat).max())
        expected = fam.total_norm_sq - n * fam.mean_norm**2
        assert abs(np.trace(sigma) - expected) < 1e-10 * (1 + abs(expected))
        lam = np.linalg.eigvalsh(sigma)
        assert lam.min() > -1e-10 * (1 + lam.max())


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
    fam = np.stack([a.data, b.data])
    assert abs(check_li_inequality(fam)) < 1e-12
    # scaling the two members differently opens a gap of 2 (lam^2 - mu^2)^2
    for lam, mu in [(1.0, 0.5), (2.0, 1.0), (0.7, 1.3)]:
        fam2 = np.stack([lam * a.data, mu * b.data])
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
        assert abs(check_li_inequality(mixed) - base) < 1e-9 * (1 + abs(base))
        # conjugate every member by one random tangent rotation
        gt = rng.standard_normal((n, n))
        qt, rt = np.linalg.qr(gt)
        qt = qt * np.sign(np.diag(rt))
        conj = np.einsum("ki,akl,lj->aij", qt, stacked, qt)
        assert abs(check_li_inequality(conj) - base) < 1e-9 * (1 + abs(base))


def test_mean_gram_pairing_is_dominated():
    # sum_ab H^a H^b sigma_ab <= |H|^2 rho^2 for every shape family
    for trial in range(200):
        rng = trial_rng(45, trial)
        n = int(rng.integers(2, 6))
        p = int(rng.integers(1, 4))
        fam = _random_shape_family(n, p, rng)
        _, sigma = traceless_part(fam)
        lhs = float(fam.mean @ sigma @ fam.mean)
        rhs = fam.mean_norm**2 * np.trace(sigma)
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
    per_family = [check_li_inequality(f) for f in fams]
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


def test_unit_box_draws_equal_uniform_draws():
    # The random draws call Generator.random and map onto [-1, 1): the
    # bits and the stream position of uniform(-1, 1).
    for trial in range(50):
        rng, ref = trial_rng(53, trial), trial_rng(53, trial)
        shape = tuple(int(k) for k in rng.integers(1, 6, size=3))
        ref.integers(1, 6, size=3)
        assert np.array_equal(_unit_box(rng.random(shape)), ref.uniform(-1.0, 1.0, size=shape))
        assert _unit_box(rng.random()) == ref.uniform(-1.0, 1.0)
        assert rng.normal() == ref.normal()


HASH_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)


def _seed_sequence_state(seed, trial):
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(int(trial),))
    return seq.generate_state(4, np.uint64)


def _same_draws(rng, ref):
    return (
        np.array_equal(rng.integers(0, 2**40, size=3), ref.integers(0, 2**40, size=3))
        and np.array_equal(rng.uniform(-1.0, 1.0, size=5), ref.uniform(-1.0, 1.0, size=5))
        and np.array_equal(rng.normal(size=4), ref.normal(size=4))
    )


@pytest.mark.parametrize("seed", HASH_SEEDS)
def test_trial_states_match_seed_sequence(seed):
    states = _trial_states(seed, range(100_001))
    assert states.shape == (100_001, 4) and states.dtype == np.uint64
    sample = np.random.default_rng(seed % 2**32).choice(100_001, size=200, replace=False)
    for trial in np.r_[0:16, sample, 100_000]:
        assert np.array_equal(states[trial], _seed_sequence_state(seed, trial)), trial
    top = _trial_states(seed, [2**32 - 1])
    assert np.array_equal(top[0], _seed_sequence_state(seed, 2**32 - 1))


@pytest.mark.parametrize("seed", HASH_SEEDS)
def test_trial_rngs_draw_like_trial_rng(seed):
    for trials in (range(0, 40), range(_HASH_BLOCK - 2, 2 * _HASH_BLOCK + 3, 7),
                   range(99_990, 100_001, 3), range(2**32 - 3, 2**32 + 3)):
        rngs = list(trial_rngs(seed, trials))
        assert len(rngs) == len(trials)
        for trial, rng in zip(trials, rngs):
            assert _same_draws(rng, trial_rng(seed, trial)), trial


def test_trial_states_reject_a_negative_seed_like_seed_sequence():
    with pytest.raises(ValueError):
        trial_rng(-1, 0)
    with pytest.raises(ValueError):
        _trial_states(-1, range(3))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), trial=st.integers(0, 2**32 - 1))
def test_trial_states_match_seed_sequence_property(seed, trial):
    assert np.array_equal(_trial_states(seed, [trial])[0], _seed_sequence_state(seed, trial))
    (rng,) = trial_rngs(seed, range(trial, trial + 1))
    assert _same_draws(rng, trial_rng(seed, trial))


def _per_item(stack, lead):
    """The (p, n, n, n) items of a stack with ``lead`` leading axes."""
    return stack.reshape((-1,) + stack.shape[len(lead):])


def test_stacked_sym_tensor_and_trace_split_match_per_item_calls():
    rng = np.random.default_rng(50)
    lead = (3, 4)
    for n in range(2, 6):
        for p in range(1, 4):
            raw = rng.uniform(-1.0, 1.0, size=lead + (p, n, n, n))
            stacked = SymTensor3(n, p, raw)
            f, hvec, residual = f_tensor_decompose(stacked)
            norm = stacked.norm_sq()
            assert stacked.entries.shape == raw.shape
            assert residual.shape == norm.shape == lead
            items = [SymTensor3(n, p, item) for item in _per_item(raw, lead)]
            for k, item in enumerate(items):
                f1, h1, r1 = f_tensor_decompose(item)
                assert np.array_equal(_per_item(stacked.entries, lead)[k], item.entries)
                assert np.array_equal(_per_item(f.entries, lead)[k], f1.entries)
                assert np.array_equal(hvec.reshape((-1, p, n))[k], h1)
                assert residual.reshape(-1)[k] == r1
                assert norm.reshape(-1)[k] == item.norm_sq()
                assert f.norm_sq().reshape(-1)[k] == f1.norm_sq()


def _lone_sums(arr, item_ndim):
    """One ``np.add.reduce`` per item, each item a view in the stack's layout."""
    lead = arr.shape[: arr.ndim - item_ndim]
    return np.array([np.add.reduce(arr[idx], axis=None) for idx in np.ndindex(*lead)])


def test_item_sums_equal_one_reduction_per_item():
    # The layouts the trace split reduces: C-contiguous draws, and the
    # stack-interleaved entries that SymTensor3's index gather produces.
    # Rows in C index order instead of each item's memory order fail here.
    rng = np.random.default_rng(52)
    for lead in ((1,), (7,), (250,), (3, 4)):
        for n in range(2, 6):
            for p in range(1, 4):
                raw = rng.uniform(-1.0, 1.0, size=lead + (p, n, n, n))
                t = SymTensor3(n, p, raw)
                f, hvec, _ = f_tensor_decompose(t)
                if lead != (1,):
                    assert not t.entries.flags.c_contiguous
                for arr, k in ((raw, 4), (t.entries * t.entries, 4),
                               (f.entries * f.entries, 4), (hvec * hvec, 2)):
                    sums = _item_sums(arr, k)
                    assert sums.shape == lead
                    assert np.array_equal(sums.reshape(-1), _lone_sums(arr, k))
                item = t.entries[(0,) * len(lead)]
                assert _item_sums(item, 4) == np.add.reduce(item, axis=None)


def test_sym_tensor_rejects_a_mismatched_shape():
    with pytest.raises(ValueError):
        SymTensor3(3, 2, np.zeros((2, 3, 3, 2)))

