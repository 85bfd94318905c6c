"""Run one workload in this (fresh) interpreter and print one JSON line.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src`` and BLAS threads pinned. Every command goes through the public
entry point ``willmorelab.cli.main(argv)`` in-process; its output is
captured and scored by :class:`oracle.Checker`.

Every run starts with an untimed, unscored warm-up: each command once
at a small size. Without tracing, timed passes follow until the time
budget is spent, with reference units run from a timer to measure the
host's speed. With tracing, untraced and traced passes alternate.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import willmorelab
from willmorelab import cli

from hostspeed import HostClock, reference_unit
from oracle import Checker
from tracer import LAYER_METRICS, Tracer, install, layer_metrics
from workloads import WORKLOADS, warmup

MIN_PASSES = 3


def run_command(main, argv: list[str]):
    """Run one CLI command; returns (exit code, stdout text, exception, seconds)."""
    out = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    except SystemExit as exc:  # argparse rejecting the arguments
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a traceback counts as a failed command
        code, error = 1, exc
    return code, out.getvalue(), error, time.perf_counter() - start


def run_pass(main, commands: list[list[str]], checker: Checker,
             clock: HostClock | None = None) -> float:
    """Run every command once and score it; returns the time spent in ``main``.

    Reference units that ``clock`` ran inside a command are not counted.
    """
    total = 0.0
    for index, argv in enumerate(commands):
        before = clock.seconds if clock else 0.0
        code, text, error, seconds = run_command(main, argv)
        if clock:
            seconds -= clock.seconds - before
        checker.record(index, argv, code, text, error)
        total += seconds
    return total


def timed_passes(main, commands, checker, budget: float, at_least: int):
    """Run passes while the next one is expected to end within ``budget``.

    Each pass runs under its own :class:`HostClock`. Returns each pass's
    measured seconds and its seconds normalized to the reference host
    speed (see ``hostspeed.py``).
    """
    measured: list[float] = []
    normalized: list[float] = []
    walls: list[float] = []
    start = time.perf_counter()
    while len(measured) < at_least or (
        time.perf_counter() - start + statistics.median(walls) <= budget
    ):
        pass_start = time.perf_counter()
        with HostClock() as clock:
            seconds = run_pass(main, commands, checker, clock)
        walls.append(time.perf_counter() - pass_start)
        measured.append(seconds)
        normalized.append(clock.normalize(seconds))
    return measured, normalized


def traced_run(commands, checker, budget: float):
    """Alternate untraced and traced passes while the budget lasts.

    Each traced pass follows an untraced one, so drift in host speed
    largely cancels in the tracing overhead. Returns (untraced times,
    traced times, per-pass layer metrics, span table).
    """
    tracer = Tracer()
    traced_main = tracer.wrap("cli", cli.main)
    untraced: list[float] = []
    traced: list[float] = []
    per_pass: list[dict] = []
    table: dict[tuple[str, str], list] = {}
    start = time.perf_counter()
    while not traced or (
        time.perf_counter() - start + statistics.median(untraced + traced) <= budget
    ):
        if len(untraced) == len(traced):
            untraced.append(run_pass(cli.main, commands, checker))
            continue
        install(tracer)
        try:
            traced.append(run_pass(traced_main, commands, checker))
        finally:
            tracer.uninstall()
        spans, counts, peaks = tracer.drain()
        per_pass.append(layer_metrics(spans, counts, peaks))
        for key, record in spans.items():
            row = table.setdefault(key, [0, 0.0, 0.0])
            for i, value in enumerate(record):
                row[i] += value
    span_table = [
        {"parent": parent, "span": name, "calls": row[0],
         "total_s": row[1], "self_s": row[2]}
        for (parent, name), row in sorted(table.items(), key=lambda kv: -kv[1][2])
    ]
    return untraced, traced, per_pass, span_table


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError, AttributeError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    source = Path("src").resolve()
    if source not in Path(willmorelab.__file__).resolve().parents:
        print(f"willmorelab was imported from {willmorelab.__file__}, not {source}",
              file=sys.stderr)
        return 2

    commands = WORKLOADS[args.workload](args.seed)
    checker = Checker()
    start = time.perf_counter()
    for argv in warmup(commands):
        run_command(cli.main, argv)
    reference_unit()
    result = {"warmup_s": time.perf_counter() - start}
    if args.trace:
        untraced, traced, per_pass, spans = traced_run(commands, checker, args.seconds)
        result.update(untraced_s=untraced, traced_s=traced, layers=per_pass,
                      units=LAYER_METRICS, spans=spans)
    else:
        result["measured_pass_s"], result["pass_s"] = timed_passes(
            cli.main, commands, checker, args.seconds, MIN_PASSES)
    result.update(
        commands=len(commands),
        attempted=checker.attempted,
        failed=checker.failed,
        failures=checker.failures,
        digits=checker.digits,
        worst_check=checker.worst,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        python=platform.python_version(),
        numpy=np.__version__,
        blas=_blas(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
