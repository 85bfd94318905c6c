"""Dense kernels for the small symmetric matrices used everywhere else.

Shape operators, normal-space Gram matrices and chart frames all sit in
dimension <= ~10, so everything here is a plain dense computation on top
of numpy. Values are frozen after construction and every function is
pure, which keeps the randomized property suites trivially parallel.
The kernels accept a :class:`SymmetricMatrix` or a plain array, and a
plain array may stack matrices along leading axes, shape (..., n, n);
they then return one result per matrix of the stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SymmetricMatrix",
    "frob_norm_sq",
    "commutator",
    "jacobi_eigen",
]


@dataclass(frozen=True)
class SymmetricMatrix:
    """Square symmetric matrix; the upper triangle is the source of truth.

    The strict lower triangle of the input is ignored and replaced by the
    mirrored upper triangle, so ``data[i, j] == data[j, i]`` holds exactly
    by construction. The backing array is read-only.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.data, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("matrix dimension must be at least 1")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must be finite")
        sym = np.triu(arr) + np.triu(arr, 1).T
        sym.flags.writeable = False
        object.__setattr__(self, "data", sym)

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def __array__(self, dtype=None, copy=None):
        if copy:
            return np.array(self.data, dtype=dtype)
        return np.asarray(self.data, dtype=dtype)


def frob_norm_sq(a):
    """N(A) = trace(A A^t), the squared Frobenius norm.

    A float for one matrix, an array of norms for a stack.
    """
    x = np.asarray(a, dtype=float)
    sq = np.sum(x * x, axis=(-2, -1))
    return float(sq) if sq.ndim == 0 else sq


def commutator(a, b) -> np.ndarray:
    """AB - BA. The result is antisymmetric, returned as a plain array."""
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.shape[-1] != y.shape[-1]:
        raise ValueError(f"dimension mismatch: {x.shape[-1]} vs {y.shape[-1]}")
    return x @ y - y @ x


def jacobi_eigen(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix or a stack of them.

    LAPACK ``eigh`` reads the upper triangle, the source of truth of
    :class:`SymmetricMatrix`. Returns ``(eigenvalues, Q)`` with the
    eigenvalues sorted descending along the last axis (a stable sort, so
    ties keep LAPACK's order) and the columns of Q the matching
    eigenvectors.
    """
    lam, q = np.linalg.eigh(np.asarray(a, dtype=float), UPLO="U")
    order = np.argsort(-lam, axis=-1, kind="stable")
    return np.take_along_axis(lam, order, -1), np.take_along_axis(q, order[..., None, :], -1)
