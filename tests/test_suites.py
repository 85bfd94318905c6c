"""``run_suite`` against the per-trial loop it replaced.

The reference below draws and checks one trial at a time, building one
``SymTensor3``, one ``canonical_pair`` and one QR per trial, and each
trace-free family from p separate symmetric draws. The stacked suites
must return the same dict, to the last bit.
"""

import numpy as np
import pytest

from willmorelab import cli
from willmorelab.cli import run_suite
from willmorelab.tensors import (
    SymTensor3,
    canonical_pair,
    check_chern_inequality,
    check_li_inequality,
    equality_witness,
    f_tensor_decompose,
    random_symmetric,
    random_trace_free_family,
    trial_rng,
)

SUITES = ("commutator_bound", "family_bound", "trace_split", "witness_recovery")


def _trace_free_family_reference(n, p, rng):
    eye = np.eye(n)
    mats = [random_symmetric(n, rng) for _ in range(p)]
    return np.stack([m - (np.trace(m) / n) * eye for m in mats])


def test_trace_free_family_matches_the_per_matrix_draws():
    for trial in range(20):
        for n in range(2, 6):
            for p in range(1, 4):
                rng, ref = trial_rng(51, trial), trial_rng(51, trial)
                want = _trace_free_family_reference(n, p, ref)
                assert np.array_equal(random_trace_free_family(n, p, rng), want)
                # Both leave the stream at the same position.
                assert np.array_equal(rng.uniform(size=3), ref.uniform(size=3))


def _trial_reference(name, rng):
    if name == "commutator_bound":
        n = int(rng.integers(2, 7))
        return check_chern_inequality(random_symmetric(n, rng), random_symmetric(n, rng))
    if name == "witness_recovery":
        n = int(rng.integers(2, 7))
        lam = float(rng.uniform(0.2, 2.0))
        mu = float(rng.uniform(0.2, 2.0))
        a0, b0 = canonical_pair(n)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        a = q @ (lam * a0.data) @ q.T
        b = q @ (mu * b0.data) @ q.T
        return equality_witness(a[None], b[None])[3][0]
    n = int(rng.integers(2, 6))
    p = int(rng.integers(1, 4))
    if name == "family_bound":
        return check_li_inequality(_trace_free_family_reference(n, p, rng))
    tensor = SymTensor3(n, p, rng.uniform(-1.0, 1.0, size=(p, n, n, n)))
    _, _, residual = f_tensor_decompose(tensor)
    return residual / (1.0 + tensor.norm_sq())


def _suite_reference(name, trials, seed):
    values = np.array([_trial_reference(name, trial_rng(seed, t)) for t in range(trials)])
    if name in cli._RESIDUAL_TOL:
        key, worst = "max_residual", float(values.max())
        violations = np.count_nonzero(values > cli._RESIDUAL_TOL[name])
    else:
        key, worst = "min_slack", float(values.min())
        violations = np.count_nonzero(values < cli._SLACK_FLOOR)
    return {"name": name, "trials": trials, key: worst, "violations": int(violations)}


@pytest.mark.parametrize("seed", range(10))
def test_stacked_suites_match_the_per_trial_loop(seed):
    for name in SUITES:
        assert run_suite(name, 1000, seed) == _suite_reference(name, 1000, seed), name


def test_stacked_suites_match_across_chunk_boundaries():
    trials = cli._SUITE_CHUNK + 4
    for name in SUITES:
        assert run_suite(name, trials, 20) == _suite_reference(name, trials, 20), name
