import numpy as np
import pytest

from willmorelab.linalg import (
    OrthogonalFrame,
    SymmetricMatrix,
    commutator,
    frob_norm_sq,
    jacobi_eigen,
)


def test_symmetric_matrix_mirrors_upper_triangle():
    m = SymmetricMatrix(np.array([[1.0, 5.0], [0.0, 2.0]]))
    assert m.data[1, 0] == 5.0
    assert m.data[0, 1] == 5.0
    assert m.dim == 2


def test_symmetric_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        SymmetricMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        SymmetricMatrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        SymmetricMatrix(np.zeros((0, 0)))


def test_symmetric_matrix_is_immutable():
    m = SymmetricMatrix(np.eye(3))
    with pytest.raises(ValueError):
        m.data[0, 0] = 7.0


def test_frob_norm_and_commutator():
    a = SymmetricMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    b = SymmetricMatrix(np.diag([1.0, -1.0]))
    assert frob_norm_sq(a) == 2.0
    c = commutator(a, b)
    assert np.array_equal(c, np.array([[0.0, -2.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        commutator(a, SymmetricMatrix(np.eye(3)))


def test_commutator_is_antisymmetric_on_random_pairs():
    rng = np.random.default_rng(123)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        a = SymmetricMatrix(rng.standard_normal((n, n)))
        b = SymmetricMatrix(rng.standard_normal((n, n)))
        c = commutator(a, b)
        assert np.allclose(c, -c.T, atol=1e-13)


def test_orthogonal_frame_validates():
    with pytest.raises(ValueError):
        OrthogonalFrame(np.array([[1.0, 1.0]]))
    with pytest.raises(ValueError):
        OrthogonalFrame(np.array([[0.6, 0.8], [0.8, 0.6]]))


def test_jacobi_matches_numpy_eigh():
    rng = np.random.default_rng(202)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        m = rng.standard_normal((n, n))
        sym = SymmetricMatrix(m + m.T)
        lam, q = jacobi_eigen(sym)
        ref = np.sort(np.linalg.eigvalsh(sym.data))[::-1]
        assert np.allclose(lam, ref, atol=1e-10 * (1 + np.abs(ref).max()))
        assert np.allclose(q.T @ q, np.eye(n), atol=1e-12)
        assert np.allclose(sym.data @ q, q @ np.diag(lam), atol=1e-9 * (1 + np.abs(ref).max()))


def test_jacobi_takes_stacks():
    rng = np.random.default_rng(203)
    m = rng.standard_normal((10, 4, 4))
    stack = m + np.swapaxes(m, -1, -2)
    lam, q = jacobi_eigen(stack)
    for k in range(10):
        lam_k, q_k = jacobi_eigen(SymmetricMatrix(stack[k]))
        assert np.allclose(lam[k], lam_k, atol=1e-12)
        assert np.allclose(stack[k] @ q[k], q[k] * lam[k], atol=1e-12)
    assert np.all(np.diff(lam, axis=-1) <= 0.0)


def test_jacobi_eigenvalues_sorted_descending():
    lam, _ = jacobi_eigen(SymmetricMatrix(np.diag([1.0, 3.0, -2.0])))
    assert np.array_equal(lam, np.array([3.0, 1.0, -2.0]))


def test_jacobi_handles_tiny_off_diagonal():
    # regression: near-diagonal input with a denormal pivot used to spin
    a = np.diag([2.0, 1.0, -1.0])
    a[0, 1] = a[1, 0] = 1e-200
    lam, _ = jacobi_eigen(SymmetricMatrix(a))
    assert np.allclose(lam, [2.0, 1.0, -1.0])


def test_jacobi_handles_wide_scale_spread():
    rng = np.random.default_rng(11)
    base = rng.standard_normal((5, 5))
    sym = SymmetricMatrix(1e-8 * (base + base.T) + np.diag([1e6, 1.0, 1.0, 1.0, 1e-6]))
    lam, q = jacobi_eigen(sym)
    assert np.allclose(sym.data @ q, q @ np.diag(lam), atol=1e-7)
