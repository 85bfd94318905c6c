"""Trace-free shape families, commutator-norm inequalities, and the
trace decomposition of symmetric 3-tensors.

The two inequalities checked here control the pinching constants used by
the classifier in :mod:`willmorelab.willmore`:

* pairwise bound: N(AB - BA) <= 2 N(A) N(B) for symmetric A, B, with a
  rigid equality case recovered by :func:`equality_witness`;
* family bound: for trace-free families in dimension n >= 2,
  sum_{a,b} N([A_a, A_b]) + sum_{a,b} sigma_ab^2 <= (3/2) rho^4,
  where sigma_ab = <A_a, A_b> and rho^2 = trace(sigma). Both double sums
  run over ordered index pairs.

The inequality kernels take the validating containers below or plain
arrays, and plain arrays may stack many trials along leading axes, so a
property suite checks a whole group of same-shaped trials in one call.
The random draws return plain arrays: they are symmetric and trace-free
by construction.

Randomness used by the property suites flows through :func:`trial_rng`
so that every trial is reproducible from (seed, trial index) alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import SymmetricMatrix, commutator, frob_norm_sq, jacobi_eigen

__all__ = [
    "ShapeFamily",
    "TraceFreeFamily",
    "SigmaMatrix",
    "SymTensor3",
    "traceless_part",
    "check_chern_inequality",
    "equality_witness",
    "check_li_inequality",
    "f_tensor_decompose",
    "canonical_pair",
    "trial_rng",
    "random_symmetric",
    "random_shape_family",
    "random_trace_free_family",
]

TRACE_TOL = 1e-13
PSD_FLOOR = -1e-12


def _stack(matrices: tuple[SymmetricMatrix, ...]) -> np.ndarray:
    return np.stack([m.data for m in matrices])


def _validate_family(n: int, p: int, matrices) -> tuple[SymmetricMatrix, ...]:
    mats = tuple(matrices)
    if p < 1:
        raise ValueError("family needs at least one matrix")
    if len(mats) != p:
        raise ValueError(f"expected {p} matrices, got {len(mats)}")
    for a, m in enumerate(mats):
        if not isinstance(m, SymmetricMatrix):
            raise TypeError(f"family entry {a} is not a SymmetricMatrix")
        if m.dim != n:
            raise ValueError(f"family entry {a} has dimension {m.dim}, expected {n}")
    return mats


@dataclass(frozen=True)
class ShapeFamily:
    """The p shape operators h^a of an immersion, in a fixed normal gauge.

    ``mean`` holds the normal mean-curvature components
    H^a = trace(h^a) / n and is recomputed on construction.
    """

    n: int
    p: int
    matrices: tuple[SymmetricMatrix, ...]
    mean: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        mats = _validate_family(self.n, self.p, self.matrices)
        object.__setattr__(self, "matrices", mats)
        mean = np.array([np.trace(m.data) / self.n for m in mats])
        mean.flags.writeable = False
        object.__setattr__(self, "mean", mean)

    def stacked(self) -> np.ndarray:
        """(p, n, n) array of the family."""
        return _stack(self.matrices)

    @property
    def mean_norm(self) -> float:
        return float(np.linalg.norm(self.mean))

    @property
    def total_norm_sq(self) -> float:
        """S = sum_a N(h^a)."""
        return float(sum(frob_norm_sq(m) for m in self.matrices))


@dataclass(frozen=True)
class TraceFreeFamily:
    """Family of trace-free symmetric matrices (trace zero to 1e-13)."""

    n: int
    p: int
    matrices: tuple[SymmetricMatrix, ...]

    def __post_init__(self) -> None:
        mats = _validate_family(self.n, self.p, self.matrices)
        for a, m in enumerate(mats):
            tr = abs(float(np.trace(m.data)))
            if tr > TRACE_TOL * max(1.0, float(np.max(np.abs(m.data))) * self.n):
                raise ValueError(f"matrix {a} has trace {tr:.3e}, not trace-free")
        object.__setattr__(self, "matrices", mats)

    def stacked(self) -> np.ndarray:
        return _stack(self.matrices)


@dataclass(frozen=True)
class SigmaMatrix:
    """Gram matrix sigma_ab = <A_a, A_b> of a trace-free family.

    Positive semidefinite by construction; ``rho_sq`` is its trace.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        sym = SymmetricMatrix(self.matrix)
        lam, _ = jacobi_eigen(sym)
        if lam[-1] < PSD_FLOOR * max(1.0, abs(lam[0])):
            raise ValueError(f"sigma matrix has negative eigenvalue {lam[-1]:.3e}")
        object.__setattr__(self, "matrix", sym.data)

    @property
    def p(self) -> int:
        return self.matrix.shape[0]

    @property
    def rho_sq(self) -> float:
        return float(np.trace(self.matrix))


@dataclass(frozen=True)
class SymTensor3:
    """Fully symmetric 3-tensor t^a_{ijk} for each of p normal slots.

    Symmetry is enforced by storage: the constructor reads each entry
    from the sorted index triple of the input, so permuted indices agree
    exactly.
    """

    n: int
    p: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=float)
        if arr.shape != (self.p, self.n, self.n, self.n):
            raise ValueError(
                f"expected shape {(self.p, self.n, self.n, self.n)}, got {arr.shape}"
            )
        i, j, k = np.indices((self.n, self.n, self.n))
        idx = np.sort(np.stack([i, j, k]), axis=0)
        canon = arr[:, idx[0], idx[1], idx[2]]
        canon.flags.writeable = False
        object.__setattr__(self, "entries", canon)

    def norm_sq(self) -> float:
        return float(np.sum(self.entries * self.entries))


def traceless_part(family: ShapeFamily) -> tuple[TraceFreeFamily, SigmaMatrix]:
    """Split off the mean: A_a = h^a - H^a I, with its Gram matrix.

    The returned SigmaMatrix satisfies rho_sq = S - n |H|^2.
    """
    h = family.stacked()
    eye = np.eye(family.n)
    tf = h - family.mean[:, None, None] * eye
    sigma = np.einsum("aij,bij->ab", tf, tf)
    mats = tuple(SymmetricMatrix(m) for m in tf)
    return TraceFreeFamily(family.n, family.p, mats), SigmaMatrix(sigma)


def check_chern_inequality(a, b):
    """Slack 2 N(A) N(B) - N(AB - BA); nonnegative for symmetric inputs.

    A float for one pair, an array of slacks for stacks of pairs.
    """
    return 2.0 * frob_norm_sq(a) * frob_norm_sq(b) - frob_norm_sq(commutator(a, b))


def canonical_pair(dim: int) -> tuple[SymmetricMatrix, SymmetricMatrix]:
    """The rigid equality pair, padded with zeros to the given dimension.

    First matrix: off-diagonal 1s in the leading 2x2 block. Second:
    diag(1, -1) in the leading block. Any equality case of the pairwise
    bound is simultaneously orthogonally conjugate to scalar multiples
    of these two.
    """
    if dim < 2:
        raise ValueError("canonical pair needs dimension >= 2")
    a = np.zeros((dim, dim))
    a[0, 1] = a[1, 0] = 1.0
    b = np.zeros((dim, dim))
    b[0, 0] = 1.0
    b[1, 1] = -1.0
    return SymmetricMatrix(a), SymmetricMatrix(b)


def equality_witness(a, b, tol: float = 1e-9):
    """Try to exhibit the rigid form of an equality pair.

    For a pair saturating the pairwise commutator bound there is an
    orthogonal T with T^t A T = lam * A0 and T^t B T = mu * B0, where
    (A0, B0) is :func:`canonical_pair`. T is built from the
    eigendecomposition of B (the two extreme eigenvectors lead), the
    scalars are read off the conjugated matrices, and the residual is
    the larger of the two reconstruction errors in Frobenius norm.

    For one pair, returns ``(T, lam, mu)`` if the residual is <= tol and
    ``None`` otherwise. For stacks of pairs (leading trial axes) nothing
    is filtered: returns the arrays ``(T, lam, mu, residual)``.
    """
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    n = x.shape[-1]
    if n < 2:
        raise ValueError("witness search needs dimension >= 2")
    if np.any(frob_norm_sq(x) == 0.0) or np.any(frob_norm_sq(y) == 0.0):
        raise ValueError("witness search needs nonzero matrices")
    _, q = jacobi_eigen(y)
    t = q[..., [0, n - 1] + list(range(1, n - 1))]
    tt = np.swapaxes(t, -1, -2)
    at = tt @ x @ t
    bt = tt @ y @ t
    lam = at[..., 0, 1]
    mu = bt[..., 0, 0]
    a0, b0 = canonical_pair(n)
    res_a = np.linalg.norm(at - lam[..., None, None] * a0.data, axis=(-2, -1))
    res_b = np.linalg.norm(bt - mu[..., None, None] * b0.data, axis=(-2, -1))
    residual = np.maximum(res_a, res_b)
    if x.ndim > 2:
        return t, lam, mu, residual
    if residual <= tol:
        return t, float(lam), float(mu)
    return None


def check_li_inequality(family):
    """Slack of the family bound (3/2) rho^4 - (commutator sum + Gram sum).

    Both sums run over ordered pairs (a, b), so off-diagonal terms count
    twice. Nonnegative for every trace-free family with n >= 2. Takes a
    :class:`TraceFreeFamily` or a (p, n, n) array, and returns a float;
    a (..., p, n, n) stack of families gives an array of slacks.
    """
    if isinstance(family, TraceFreeFamily):
        family = family.stacked()
    tf = np.asarray(family, dtype=float)
    if tf.shape[-1] < 2:
        raise ValueError("family bound needs dimension >= 2")
    sigma = np.einsum("...aij,...bij->...ab", tf, tf)
    rho_sq = np.trace(sigma, axis1=-2, axis2=-1)
    prod = np.einsum("...aij,...bjk->...abik", tf, tf)
    comm = prod - np.swapaxes(prod, -4, -3)
    comm_sum = np.sum(comm * comm, axis=(-4, -3, -2, -1))
    gram_sum = np.sum(sigma * sigma, axis=(-2, -1))
    slack = 1.5 * rho_sq * rho_sq - comm_sum - gram_sum
    return float(slack) if slack.ndim == 0 else slack


def f_tensor_decompose(t: SymTensor3) -> tuple[SymTensor3, np.ndarray, float]:
    """Remove the trace part of a symmetric 3-tensor.

    With H^a_i = (1/n) sum_k t^a_{kki}, the trace-free part is

        F^a_{ijk} = t^a_{ijk} - n/(n+2) * (H^a_i d_jk + H^a_j d_ik + H^a_k d_ij)

    and the split is orthogonal:
    |F|^2 = |t|^2 - 3 n^2/(n+2) * sum |H^a_i|^2. Returns
    ``(F, H, identity_residual)`` where the residual measures how far the
    computed norms are from that identity (roundoff only).
    """
    n, p = t.n, t.p
    arr = t.entries
    hvec = np.einsum("akki->ai", arr) / n
    eye = np.eye(n)
    trace_part = (
        np.einsum("ai,jk->aijk", hvec, eye)
        + np.einsum("aj,ik->aijk", hvec, eye)
        + np.einsum("ak,ij->aijk", hvec, eye)
    )
    f = arr - (n / (n + 2.0)) * trace_part
    f_tensor = SymTensor3(n, p, f)
    t_norm = t.norm_sq()
    f_norm = f_tensor.norm_sq()
    h_norm = float(np.sum(hvec * hvec))
    residual = abs(f_norm - (t_norm - 3.0 * n * n / (n + 2.0) * h_norm))
    return f_tensor, hvec, residual


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent, reproducible stream for one trial of a property suite."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))


def random_symmetric(n: int, rng: np.random.Generator) -> np.ndarray:
    """(n, n) array: entries i.i.d. uniform on [-1, 1], then symmetrized."""
    m = rng.uniform(-1.0, 1.0, size=(n, n))
    return 0.5 * (m + m.T)


def random_shape_family(n: int, p: int, rng: np.random.Generator) -> ShapeFamily:
    return ShapeFamily(n, p, tuple(SymmetricMatrix(random_symmetric(n, rng)) for _ in range(p)))


def random_trace_free_family(n: int, p: int, rng: np.random.Generator) -> np.ndarray:
    """(p, n, n) array: symmetrized uniform entries with the trace projected out."""
    eye = np.eye(n)
    mats = [random_symmetric(n, rng) for _ in range(p)]
    return np.stack([m - (np.trace(m) / n) * eye for m in mats])
