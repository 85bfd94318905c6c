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

The trace-free family A_a and its Gram matrix sigma are plain arrays;
only :class:`ShapeFamily` and :class:`SymTensor3`, the types handed in
from outside, validate on construction. The inequality kernels take
arrays that may stack many trials along leading axes, so a property
suite checks a whole group of same-shaped trials in one call.
:class:`SymTensor3` and :func:`f_tensor_decompose` stack the same way.
The random draws return plain arrays: they are symmetric and trace-free
by construction.

Randomness used by the property suites is reproducible from (seed,
trial index) alone. :func:`trial_rng` is the one-trial reference: a
generator seeded by ``SeedSequence(entropy=seed, spawn_key=(trial,))``.
:func:`trial_rngs` yields the same generators for a block of trials,
hashing the seeds of up to ``_HASH_BLOCK`` trials at once instead of
running one SeedSequence per trial.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import SymmetricMatrix, commutator, frob_norm_sq, jacobi_eigen

__all__ = [
    "ShapeFamily",
    "SymTensor3",
    "traceless_part",
    "check_chern_inequality",
    "equality_witness",
    "check_li_inequality",
    "f_tensor_decompose",
    "canonical_pair",
    "trial_rng",
    "trial_rngs",
    "random_symmetric",
    "random_trace_free_family",
]

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
        mats = tuple(self.matrices)
        if self.p < 1:
            raise ValueError("family needs at least one matrix")
        if len(mats) != self.p:
            raise ValueError(f"expected {self.p} matrices, got {len(mats)}")
        for a, m in enumerate(mats):
            if not isinstance(m, SymmetricMatrix):
                raise TypeError(f"family entry {a} is not a SymmetricMatrix")
            if m.dim != self.n:
                raise ValueError(f"family entry {a} has dimension {m.dim}, expected {self.n}")
        object.__setattr__(self, "matrices", mats)
        mean = np.array([np.trace(m.data) / self.n for m in mats])
        mean.flags.writeable = False
        object.__setattr__(self, "mean", mean)

    def stacked(self) -> np.ndarray:
        """(p, n, n) array of the family."""
        return np.stack([m.data for m in self.matrices])

    @property
    def mean_norm(self) -> float:
        return float(np.linalg.norm(self.mean))

    @property
    def total_norm_sq(self) -> float:
        """S = sum_a N(h^a)."""
        return float(sum(frob_norm_sq(m) for m in self.matrices))


@dataclass(frozen=True)
class SymTensor3:
    """Fully symmetric 3-tensor t^a_{ijk} for each of p normal slots.

    ``entries`` has shape (..., p, n, n, n): leading axes stack many
    tensors of one shape, so a property suite builds a whole group of
    trials at once. Symmetry is enforced by storage: the constructor
    reads each entry from the sorted index triple of the input, so
    permuted indices agree exactly.
    """

    n: int
    p: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.entries, dtype=float)
        shape = (self.p, self.n, self.n, self.n)
        if arr.shape[-4:] != shape:
            raise ValueError(f"expected shape (..., {', '.join(map(str, shape))}), "
                             f"got {arr.shape}")
        i, j, k = np.indices((self.n, self.n, self.n))
        idx = np.sort(np.stack([i, j, k]), axis=0)
        canon = arr[..., idx[0], idx[1], idx[2]]
        canon.flags.writeable = False
        object.__setattr__(self, "entries", canon)

    def norm_sq(self):
        """|t|^2: a float, or an array over the leading axes."""
        return _item_sums(self.entries * self.entries, 4)


def _item_sums(arr: np.ndarray, item_ndim: int):
    """Sum over the trailing ``item_ndim`` axes, bit for bit one
    ``np.sum`` per item, in one reduction.

    ``np.sum`` of one item walks its elements in memory order (NumPy's
    'K' order) along one pairwise tree, so the tree depends on the
    layout, not only on the values. Each item is therefore copied into
    a row in its own memory order, and one reduction over the rows gives
    every item its own tree. The layout differs from C order here: a
    stacked :class:`SymTensor3` gathers its entries by index arrays, so
    the stack axes are interleaved innermost (strides like
    (24, 8, 2112, 1056, 528)). Rows in C index order sum those entries
    in another order and move a trace-split residual in its last bits.
    """
    if arr.ndim == item_ndim:
        return float(np.sum(arr))
    lead = arr.ndim - item_ndim
    # Item axes from the largest stride to the smallest: the items' memory order.
    item_axes = sorted(range(lead, arr.ndim), key=lambda a: -abs(arr.strides[a]))
    rows = np.ascontiguousarray(arr.transpose(tuple(range(lead)) + tuple(item_axes)))
    return np.add.reduce(rows.reshape(arr.shape[:lead] + (-1,)), axis=-1)


def traceless_part(family: ShapeFamily) -> tuple[np.ndarray, np.ndarray]:
    """Split off the mean: A_a = h^a - H^a I, with its Gram matrix.

    Returns ``(tf, sigma)``: the (p, n, n) array of the A_a and the
    (p, p) array sigma_ab = <A_a, A_b>, whose trace is
    rho^2 = S - n |H|^2.
    """
    tf = family.stacked() - family.mean[:, None, None] * np.eye(family.n)
    return tf, np.einsum("aij,bij->ab", tf, tf)


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
    (p, n, n) array and returns a float; a (..., p, n, n) stack of
    families gives an array of slacks.
    """
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


def f_tensor_decompose(t: SymTensor3):
    """Remove the trace part of a symmetric 3-tensor.

    With H^a_i = (1/n) sum_k t^a_{kki}, the trace-free part is

        F^a_{ijk} = t^a_{ijk} - n/(n+2) * (H^a_i d_jk + H^a_j d_ik + H^a_k d_ij)

    and the split is orthogonal:
    |F|^2 = |t|^2 - 3 n^2/(n+2) * sum |H^a_i|^2. Returns
    ``(F, H, identity_residual)`` where the residual measures how far the
    computed norms are from that identity (roundoff only). A stacked
    tensor is split in one pass: F and H keep its leading axes and the
    residual is an array over them, equal bit for bit to splitting each
    tensor alone.
    """
    n, p = t.n, t.p
    arr = t.entries
    hvec = np.einsum("...akki->...ai", arr) / n
    eye = np.eye(n)
    trace_part = (
        np.einsum("...ai,jk->...aijk", hvec, eye)
        + np.einsum("...aj,ik->...aijk", hvec, eye)
        + np.einsum("...ak,ij->...aijk", hvec, eye)
    )
    f = arr - (n / (n + 2.0)) * trace_part
    f_tensor = SymTensor3(n, p, f)
    t_norm = t.norm_sq()
    f_norm = f_tensor.norm_sq()
    h_norm = _item_sums(hvec * hvec, 2)
    residual = abs(f_norm - (t_norm - 3.0 * n * n / (n + 2.0) * h_norm))
    return f_tensor, hvec, residual


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent, reproducible stream for one trial of a property suite."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))


# Constants of NumPy's SeedSequence hash (a 4-word uint32 pool).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_TRIAL_WORD_END = 2**32
# Trials hashed at once: enough to spread the ~40 array operations of the
# hash thinly, small enough that its temporaries stay a few KiB.
_HASH_BLOCK = 512


def _hashmix(value: np.ndarray, const: list, mult: int = _MULT_A) -> np.ndarray:
    """SeedSequence's hashmix; ``const`` holds the evolving hash constant.

    With ``mult = _MULT_B`` it is the output hash of ``generate_state``.
    """
    value = value ^ np.uint32(const[0])
    const[0] = const[0] * mult & _MASK32
    value = value * np.uint32(const[0])
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


def _trial_states(seed: int, trials) -> np.ndarray:
    """(k, 4) uint64 PCG64 seeds, row i equal to
    ``SeedSequence(entropy=seed, spawn_key=(trials[i],)).generate_state(4, np.uint64)``.

    Every trial index must lie below 2**32, so that it is one entropy
    word. The entropy is then the seed's little-endian uint32 words,
    zero-padded to the pool size, followed by the trial word: the hash
    constants evolve the same way for every trial, and one pass of
    uint32 arithmetic hashes the whole block. Trial-independent words
    are (1,)-arrays that broadcast against the block.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [np.array([seed >> shift & _MASK32], dtype=np.uint32)
             for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [np.zeros(1, dtype=np.uint32)] * (_POOL_SIZE - len(words))
    words.append(np.asarray(trials, dtype=np.uint32))

    const = [_INIT_A]
    pool = [_hashmix(word, const) for word in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], const))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, const))

    const = [_INIT_B]
    state = np.empty((len(words[-1]), 2 * _POOL_SIZE), dtype="<u4")
    for i in range(2 * _POOL_SIZE):
        state[:, i] = _hashmix(pool[i % _POOL_SIZE], const, _MULT_B)
    # Word pairs read as little-endian uint64, as SeedSequence reads them;
    # a copy only on big-endian hosts.
    return state.view("<u8").astype(np.uint64, copy=False)


class _PresetSeed:
    """Seed sequence whose only state is one precomputed PCG64 seed row.

    PCG64 asks its seed sequence for exactly that: 4 uint64 words.
    """

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def trial_rngs(seed: int, trials: range):
    """Yield one generator per trial of the ascending range ``trials``,
    each equal to ``trial_rng(seed, t)``: it draws the same values.

    The SeedSequence hash is computed :data:`_HASH_BLOCK` trials at a
    time by :func:`_trial_states`, which keeps only their (block, 4)
    uint64 seeds; each ``Generator(PCG64(...))`` is built from its row as
    it is yielded. Trials at or above 2**32 fall back to
    :func:`trial_rng`. ``numpy.random`` is imported here, on first use,
    so importing the package does not load it.
    """
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_PresetSeed)
    hashed = range(trials.start, min(trials.stop, _TRIAL_WORD_END), trials.step)
    for start in range(0, len(hashed), _HASH_BLOCK):
        for state in _trial_states(seed, hashed[start:start + _HASH_BLOCK]):
            yield Generator(PCG64(_PresetSeed(state)))
    for trial in trials[len(hashed):]:
        yield trial_rng(seed, trial)


def _unit_box(u: np.ndarray) -> np.ndarray:
    """Draws of ``Generator.random`` on [0, 1), mapped onto [-1, 1).

    ``uniform(-1.0, 1.0)`` returns -1 + 2u for the same doubles u, and
    both steps are exact, so the bits agree; ``random`` costs about half
    as much a call.
    """
    return -1.0 + 2.0 * u


def _symmetric_from_unit(u: np.ndarray) -> np.ndarray:
    """Symmetric matrices from draws u on [0, 1) over the last two axes.

    One matrix or a stack: m = :func:`_unit_box` of u, then 0.5 (m + m^t).
    """
    m = _unit_box(u)
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def _trace_free_from_unit(u: np.ndarray) -> np.ndarray:
    """Trace-free families from (..., p, n, n) draws on [0, 1).

    One family or a stack: :func:`_symmetric_from_unit`, then each
    matrix minus (trace / n) I.
    """
    sym = _symmetric_from_unit(u)
    n = sym.shape[-1]
    trace = np.trace(sym, axis1=-2, axis2=-1)
    return sym - (trace / n)[..., None, None] * np.eye(n)


def random_symmetric(n: int, rng: np.random.Generator) -> np.ndarray:
    """(n, n) array: entries i.i.d. uniform on [-1, 1], then symmetrized."""
    return _symmetric_from_unit(rng.random((n, n)))


def random_trace_free_family(n: int, p: int, rng: np.random.Generator) -> np.ndarray:
    """(p, n, n) array: symmetrized uniform entries with the trace projected out.

    One (p, n, n) draw takes the same stream as p draws of
    :func:`random_symmetric`, and gives the same family. The property
    suites draw the raw (p, n, n) entries per trial and apply the same
    steps to a whole group of trials at once.
    """
    return _trace_free_from_unit(rng.random((p, n, n)))
