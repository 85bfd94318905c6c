"""willmorelab benchmark: CLI workloads with closed-form checks.

Run from the root of a checkout:

    python3 perfbench/run.py --workload quadrature --seed 1 --seconds 56 --trace 0

Workloads are defined in ``workloads.py``. Each run starts a fresh
interpreter (``worker.py``) for the workload alone, with BLAS threads
pinned to one, and drives ``willmorelab.cli.main(argv)`` in-process.

With ``--trace 0`` the last line of stdout reports the end-to-end
metrics, measured with tracing off:

* ``pass_s``: median wall time of one pass over the command list,
  after a warm-up pass, in seconds at the reference host speed;
* ``setup_s``: median over several fresh interpreters of the time until
  ``willmorelab.cli`` is imported, in seconds at the reference host
  speed;
* ``peak_rss_mb``: peak resident memory of the workload's process;
* ``digits``: worst agreement of any check with its closed-form
  reference, -log10(error / scale), capped at 16;
* ``ok_frac``: passed commands over attempted ones, 1 - failed_frac.
  A command fails when it raises, exits nonzero, misses its documented
  tolerance, or prints JSON that differs from its first run.

Both times are measured and then normalized to a reference host speed,
measured by units of a fixed reference kernel run during the passes
and after each set-up sample (see ``hostspeed.py``): on a shared host
the speed of a core drifts by up to ~40% over minutes, and the
normalization keeps that drift out of a comparison of two commits. The
measured times are reported too, in the lines before the result.

With ``--trace 1`` it reports per-layer self times and exact counts per
traced pass (see ``tracer.py``) and ``trace_overhead_s``, the traced
minus the untraced median pass time. The lines before the last one
hold the run's report: environment, stated input size, pass-time
quartiles, failures and, when traced, the span table.

Exits nonzero without a result line when the checkout holds no
willmorelab sources or the workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import HostClock
from workloads import WORKLOADS, input_size

SETUP_SAMPLES = 11
SETUP_CLOCK_DUTY = 0.5
BLAS_THREADS = "1"
TIME_LIMIT_S = 170.0
HERE = Path(__file__).resolve().parent


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"n": len(values), "median": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": median, "q3": q3}


def _read_first(path: Path, prefix: str = "") -> str:
    try:
        with path.open(encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line[len(prefix):].strip(" :\t\n")
    except OSError:
        pass
    return "unknown"


def _l3_size() -> str:
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        if _read_first(index / "level") == "3":
            return _read_first(index / "size")
    return "unknown"


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read from its .git directory if it has one."""
    git = root / ".git"
    head = _read_first(git / "HEAD")
    if not head.startswith("ref:"):
        return head
    ref = head[4:].strip()
    loose = _read_first(git / ref)
    if loose != "unknown":
        return loose
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _read_first(Path("/proc/cpuinfo"), "model name"),
        "l3": _l3_size(),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "commit": _git_commit(root),
    }


def setup_times(env: dict, root: Path) -> tuple[list[float], list[float]]:
    """Wall time of fresh interpreters that only import willmorelab.cli.

    Returns the measured seconds and the seconds normalized to the
    reference host speed, measured by reference units after each sample.
    """
    measured, normalized = [], []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import willmorelab.cli"],
                       env=env, cwd=root, check=True, timeout=60)
        seconds = time.perf_counter() - start
        clock = HostClock()
        clock.run_units(SETUP_CLOCK_DUTY * seconds)
        measured.append(seconds)
        normalized.append(clock.normalize(seconds))
    return measured, normalized


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("need --seed >= 0 and --seconds >= 1")

    root = Path.cwd()
    source = root / "src"
    if not (source / "willmorelab" / "cli.py").is_file():
        print(f"error: no willmorelab sources under {source}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(source), OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)

    try:
        measured_setup, setup = ([], []) if args.trace else setup_times(env, root)
        worker = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            env=env, cwd=root, capture_output=True, text=True,
            timeout=TIME_LIMIT_S - (time.perf_counter() - started),
        )
    except (subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if worker.returncode != 0 or not worker.stdout.strip():
        print(worker.stderr, file=sys.stderr)
        print(f"error: workload process exited with code {worker.returncode}", file=sys.stderr)
        return 1
    data = json.loads(worker.stdout.strip().splitlines()[-1])

    report = {
        "workload": args.workload,
        "environment": dict(environment(root, args.seed), python=data["python"],
                            numpy=data["numpy"], blas=data["blas"]),
        "input_size": input_size(args.workload),
        "commands_per_pass": data["commands"],
        "warmup_s": data["warmup_s"],
        "worst_check": data["worst_check"],
        "failures": data["failures"],
    }
    if args.trace:
        untraced = statistics.median(data["untraced_s"])
        traced = statistics.median(data["traced_s"])
        layers, units = data["layers"], data["units"]
        metrics = {}
        for name, unit in units.items():
            value = statistics.median(p[name] for p in layers)
            metrics[name] = {"value": int(value) if unit == "count" else value, "unit": unit}
        metrics["trace_overhead_s"] = {"value": traced - untraced, "unit": "s"}
        counts = [{k: p[k] for k, unit in units.items() if unit == "count"} for p in layers]
        report.update(untraced_pass_s=_quartiles(data["untraced_s"]),
                      traced_pass_s=_quartiles(data["traced_s"]),
                      counts_repeat_across_passes=all(c == counts[0] for c in counts),
                      spans=data["spans"])
    else:
        metrics = {
            "pass_s": {"value": statistics.median(data["pass_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": data["peak_rss_mb"], "unit": "MiB"},
            "digits": {"value": data["digits"], "unit": "digits"},
            "ok_frac": {"value": 1.0 - data["failed"] / data["attempted"], "unit": "ratio"},
        }
        report.update(pass_s=_quartiles(data["pass_s"]),
                      measured_pass_s=_quartiles(data["measured_pass_s"]),
                      setup_s=_quartiles(setup),
                      measured_setup_s=_quartiles(measured_setup))
    print(json.dumps(report, indent=1))
    print(json.dumps({
        "correct": data["failed"] == 0,
        "attempted": data["attempted"],
        "failed": data["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
