"""Minor page faults and seconds per pass of one benchmark workload.

Runs the commands of ``perfbench/workloads.py`` in this process through
``willmorelab.cli.main``, as ``perfbench/worker.py`` does: an untimed
warm-up of every command at a small size, then ``--passes`` passes over
the command list. Prints one JSON line with, per pass, its wall
seconds, its minor page faults (the ``ru_minflt`` delta over the pass),
``ru_maxrss`` after it, in MiB, and each command that raised
``ru_maxrss`` with the rise in MiB (``maxrss_steps``), so a climb of the
high-water mark names its command. After the timed passes one more pass
runs under ``tracemalloc`` and records each command's traced peak in
MiB (``traced``, ``traced_peak_mb``): what the command itself
allocates, which ``ru_maxrss`` mixes with the heap layout it inherits.
Pin BLAS threads as perfbench does.
From the root of a checkout, with its ``src`` on ``PYTHONPATH``:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 bench/faults.py \\
        --workload quadrature --seed 1 --passes 12

``bench/record.py --fault-passes N`` runs it on both sides of a pair.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import WORKLOADS, warmup  # noqa: E402


def maxrss_mb() -> float:
    """This process's ``ru_maxrss`` so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(main, commands: list[list[str]]) -> list[dict]:
    """Run the commands with their output discarded.

    Returns the commands that raised ``ru_maxrss``, in order, each with
    its rise in MiB.
    """
    steps = []
    for argv in commands:
        before = maxrss_mb()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            main(argv)
        rise = maxrss_mb() - before
        if rise > 0:
            steps.append({"command": " ".join(argv), "rise_mb": rise})
    return steps


def traced_pass(main, commands: list[list[str]]) -> list[dict]:
    """Run the commands with their output discarded, each under ``tracemalloc``.

    Returns every command with its traced peak in MiB, in order.
    """
    peaks = []
    for argv in commands:
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        peaks.append({"command": " ".join(argv), "traced_peak_mb": peak / 2**20})
    return peaks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, default=12)
    args = parser.parse_args(argv)
    from willmorelab import cli

    commands = WORKLOADS[args.workload](args.seed)
    run_pass(cli.main, warmup(commands))
    passes = []
    for _ in range(args.passes):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        steps = run_pass(cli.main, commands)
        seconds = time.perf_counter() - start
        usage = resource.getrusage(resource.RUSAGE_SELF)
        passes.append({"s": seconds, "minflt": usage.ru_minflt - before,
                       "maxrss_mb": usage.ru_maxrss / 1024.0, "maxrss_steps": steps})
    traced = traced_pass(cli.main, commands)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "passes": passes,
                      "traced": traced}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
