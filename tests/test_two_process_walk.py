"""The quadrature's two-process walk against the one-process walk.

Where the gate allows, ``willmore._chunked_integral`` walks the first half
of the pairwise tree's nodes in a forked child. These tests force the
gate both ways by substituting its reads of the CPU and thread counts,
and bound every wait with an interval timer, so a child that hangs
fails the test instead of stalling the run.
"""

import os
import signal
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from willmorelab import willmore
from willmorelab.catalog import clifford_torus, resolve
from willmorelab.grids import QuadratureGrid
from willmorelab.immersion import (
    PoleError,
    RankError,
    _chunk_points,
    mobius_apply,
    random_mobius,
)
from willmorelab.tensors import trial_rng
from willmorelab.willmore import grid_integral, mobius_energies, pinching_integral, willmore_energy

WAIT_SECONDS = 120


@pytest.fixture(autouse=True)
def bounded_wait():
    def expire(signum, frame):
        raise TimeoutError(f"the walk took over {WAIT_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, WAIT_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def forks(monkeypatch):
    """Force the gate: a walk forks wherever it is long enough. Counts forks."""
    count = []
    fork = os.fork

    def counted_fork():
        count.append(1)
        return fork()

    monkeypatch.setattr(willmore, "_cpu_count", lambda: 2)
    monkeypatch.setattr(willmore, "_thread_count", lambda: 1)
    monkeypatch.setattr(os, "fork", counted_fork)
    return count


def _both_ways(monkeypatch, forks, compute):
    """compute() forked, then in one process: (forked, in-process)."""
    forked = compute()
    assert forks, "the walk did not fork"
    monkeypatch.setattr(willmore, "_cpu_count", lambda: 1)
    del forks[:]
    alone = compute()
    assert not forks
    return forked, alone


def _state():
    """Open file descriptors, and whether a child is left unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return len(os.listdir("/proc/self/fd")), "no child"
    return len(os.listdir("/proc/self/fd")), "a child is left"


def _probed(patch, seed, trials):
    maps = []
    for trial in trials:
        mob = random_mobius(patch.ambient_dim, trial_rng(seed, trial))
        try:
            mobius_apply(mob, patch)
        except PoleError:
            continue
        maps.append(mob)
    return maps


def _split(patch, grid, rows=1):
    """(chunks, half, whether half falls inside a chunk) of this walk."""
    block = _chunk_points(patch) // rows
    half = willmore._pairwise_half(grid.node_total)
    return -(-grid.node_total // block), half, half % block != 0


@pytest.mark.parametrize(
    "ident, res, inside",
    [
        ("clifford-torus:1,2", 200, True),  # 20 chunks, half at node 20000
        ("clifford-torus:1,2", 192, False),  # 18 chunks, half at a chunk's start
        ("round-sphere:2,1,0.8", 200, True),  # doubled chart with a fold
        ("willmore-torus:1,3", 34, True),  # 39304 nodes in 20 chunks
    ],
)
def test_the_forked_walk_gives_the_one_process_bits(monkeypatch, forks, ident, res, inside):
    patch = resolve(ident).patch
    grid = QuadratureGrid.for_patch(patch, res)
    chunks, _, split_chunk = _split(patch, grid)
    assert chunks >= willmore._FORK_MIN_CHUNKS and split_chunk == inside
    f = patch.evaluator(grid.points())[:, 0].reshape(grid.shape)

    def compute():
        return (
            willmore_energy(patch, grid),
            pinching_integral(patch, grid),
            pinching_integral(patch, grid, "li"),
            grid_integral(patch, grid, f),
        )

    forked, alone = _both_ways(monkeypatch, forks, compute)
    assert forked == alone


def test_a_forked_group_with_grazing_maps_gives_the_one_process_bits(monkeypatch, forks):
    # Seed 0's trials 0-20 all pass the coarse pole check on 48^2. Trials
    # 18 and 16 graze the pole in the first half's chunks (from nodes 485
    # and 679), trial 19 in the second half's (from node 1261); the
    # tree's first split, at node 1152, falls inside a 97-node chunk.
    patch, _ = clifford_torus(1, 2)
    grid = QuadratureGrid.for_patch(patch, 48)
    maps = _probed(patch, 0, range(21))
    chunks, half, inside = _split(patch, grid, len(maps))
    assert len(maps) == 21 and chunks >= willmore._FORK_MIN_CHUNKS and inside and half == 1152
    forked, alone = _both_ways(monkeypatch, forks, lambda: mobius_energies(patch, grid, maps))
    assert forked == alone
    assert [t for t, e in enumerate(forked) if e is None] == [16, 18, 19]
    for mob, energy in zip(maps[15:20], forked[15:20]):
        try:
            assert energy == willmore_energy(mobius_apply(mob, patch), grid)
        except PoleError:
            assert energy is None


def _degenerate(patch, grid, bad):
    """``patch`` with a rank-deficient chart differential at the nodes ``bad``."""
    thetas = grid.points()[list(bad)]

    def jet(t):
        x, first, second = patch.exact_jet(t)
        for theta in thetas:
            first[np.all(t == theta, axis=-1)] = 0.0
        return x, first, second

    return replace(patch, exact_jet=jet)


@pytest.mark.parametrize(
    "bad, named",
    [
        ((5003,), 5003),  # the first half only: the child fails, the caller's half does not
        ((30011,), 30011),  # the second half only
        ((5003, 30011), 5003),  # both: the first in node order
        ((20001, 5003), 5003),  # the second half's first chunk starts at node 20000
    ],
)
def test_a_rank_error_names_the_node_the_one_process_walk_names(monkeypatch, forks, bad, named):
    patch, _ = clifford_torus(1, 2)
    grid = QuadratureGrid.for_patch(patch, 200)
    patch = _degenerate(patch, grid, bad)
    before = _state()
    messages = []

    def compute():
        with pytest.raises(RankError) as info:
            willmore_energy(patch, grid)
        messages.append(str(info.value))
        return info.value.index

    forked, alone = _both_ways(monkeypatch, forks, compute)
    assert forked == alone == named
    assert messages[0] == messages[1] and f"point index {named} " in messages[0]
    assert _state() == before


@pytest.mark.parametrize("bad", [(3001,), (10007,), (3001, 10007)])
def test_a_rank_error_in_a_forked_group_names_the_node(monkeypatch, forks, bad):
    patch, _ = clifford_torus(1, 2)
    grid = QuadratureGrid.for_patch(patch, 120)
    maps = _probed(patch, 4, range(20))[:3]
    chunks, half, _ = _split(patch, grid, 3)
    assert chunks >= willmore._FORK_MIN_CHUNKS and half == 7200
    degenerate = _degenerate(patch, grid, bad)

    def compute():
        with pytest.raises(RankError, match=f"point index {bad[0]} "):
            mobius_energies(degenerate, grid, maps)

    _both_ways(monkeypatch, forks, compute)


def _failing_child(monkeypatch, failure):
    """Make the walk of the first half fail in the forked child only."""
    parent = os.getpid()
    walk = willmore._integrand_chunks

    def child_walk(patch, grid, fractions=None, start=0, stop=None):
        if os.getpid() != parent:
            failure()
        return walk(patch, grid, fractions, start, stop)

    monkeypatch.setattr(willmore, "_integrand_chunks", child_walk)


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def _exit_quietly():
    os._exit(0)  # a clean exit that writes nothing: a short read


def _raise():
    raise RuntimeError("the child's walk failed")


@pytest.mark.parametrize("failure", [_kill_self, _exit_quietly, _raise])
def test_the_caller_walks_a_failed_childs_half_again(monkeypatch, forks, failure):
    patch, _ = clifford_torus(1, 2)
    grid = QuadratureGrid.for_patch(patch, 200)
    monkeypatch.setattr(willmore, "_cpu_count", lambda: 1)
    expected = willmore_energy(patch, grid), pinching_integral(patch, grid)
    monkeypatch.setattr(willmore, "_cpu_count", lambda: 2)
    before = _state()
    _failing_child(monkeypatch, failure)
    assert (willmore_energy(patch, grid), pinching_integral(patch, grid)) == expected
    assert len(forks) == 2
    assert _state() == before


def test_an_interrupt_kills_and_reaps_the_child(monkeypatch, forks):
    # The child sleeps for half the test's time bound; the caller's half
    # is interrupted, and the caller must kill the child, not wait for it.
    patch, _ = clifford_torus(1, 2)
    grid = QuadratureGrid.for_patch(patch, 200)
    parent = os.getpid()
    walk = willmore._integrand_chunks

    def stalled_walk(patch, grid, fractions=None, start=0, stop=None):
        if os.getpid() != parent:
            time.sleep(WAIT_SECONDS / 2)
        elif start:
            raise KeyboardInterrupt
        return walk(patch, grid, fractions, start, stop)

    monkeypatch.setattr(willmore, "_integrand_chunks", stalled_walk)
    before = _state()
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        willmore_energy(patch, grid)
    assert time.monotonic() - started < WAIT_SECONDS / 4
    assert forks and _state() == before


def test_no_child_or_descriptor_outlives_a_forked_walk(monkeypatch, forks):
    patch, _ = clifford_torus(1, 2)
    grid = QuadratureGrid.for_patch(patch, 200)
    maps = _probed(patch, 1, range(10))
    before = _state()
    assert before[1] == "no child"
    for _ in range(3):
        willmore_energy(patch, grid)
        mobius_energies(patch, grid, maps)
    assert len(forks) == 6
    assert _state() == before


def test_the_gate_reads_the_walk_and_the_process(monkeypatch):
    monkeypatch.setattr(willmore, "_cpu_count", lambda: 2)
    monkeypatch.setattr(willmore, "_thread_count", lambda: 1)
    least = willmore._FORK_MIN_CHUNKS
    assert willmore._forks(least * 2048, 2048)
    assert not willmore._forks((least - 1) * 2048, 2048)  # too few chunks
    assert not willmore._forks(100, 4)  # no split: the tree adds 100 values in one leaf
    monkeypatch.setattr(willmore, "_thread_count", lambda: 2)
    assert not willmore._forks(least * 2048, 2048)
    monkeypatch.setattr(willmore, "_thread_count", lambda: 1)
    monkeypatch.setattr(willmore, "_cpu_count", lambda: 1)
    assert not willmore._forks(least * 2048, 2048)


def test_a_second_thread_closes_the_gate(monkeypatch):
    monkeypatch.setattr(willmore, "_cpu_count", lambda: 2)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert willmore._thread_count() >= 2
        assert not willmore._forks(willmore._FORK_MIN_CHUNKS * 2048, 2048)
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
