"""Record before/after benchmark pairs in a BENCH file.

Runs ``perfbench/run.py --trace 0`` from a parent checkout and from a
change checkout, alternately, once per seed and workload; the parent
runs first on odd seeds. Each side runs its own copy of perfbench, so
compare checkouts whose ``perfbench/`` is identical. From the root of a
checkout:

    python3 bench/record.py --parent ../parent --change ../change \\
        --workload conformal-suites --seeds 1-10 --out BENCH_12.json

Each run lasts ``run_seconds`` of ``BENCHMARK.json``, the length the
benchmark itself uses. Use git clones as checkouts: perfbench reads
each side's commit from its ``.git``.

For each workload and end-to-end metric the file records, per side, the
min, quartiles and median of the runs and the number of pairs that side
won (ties count for neither), with the direction each metric improves
in taken from ``BENCHMARK.json``. It also keeps every pair's metrics,
both commits and the environment lines perfbench printed. Optional
traced runs (``--traced-runs``, seeds after the untraced ones) add the
per-layer medians of each side. ``--fault-passes N`` adds one
``bench/faults.py`` run of N passes per side and workload: the minor
page faults and seconds of each pass, summarized the same way, and each
command's traced peak from the run's final traced pass.

``--cli "ARGS"`` times whole CLI runs, ``python3 -m willmorelab.cli
ARGS`` with one BLAS thread, ``--repeats`` alternating pairs of them:
wall time and peak RSS per side, summarized the same way, and whether
both sides printed the same bytes with the same exit code. These times
are not normalized to a reference host speed.

An existing ``--out`` file is updated: its other workloads and CLI runs
stay.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def parse_run(stdout: str) -> tuple[dict, dict]:
    """The report and the result of one ``perfbench/run.py`` run.

    The last line of stdout is the result; the lines before it hold the
    report, one JSON document.
    """
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("perfbench printed nothing")
    result = json.loads(lines[-1])
    report = json.loads("\n".join(lines[:-1]))
    return report, result


def summary(values: list[float]) -> dict:
    """Min, quartiles and median, with perfbench's quartile method."""
    if len(values) < 2:
        return {"n": len(values), "min": values[0], "median": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "min": min(values), "q1": q1, "median": median, "q3": q3}


def compare(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per-metric summary of both sides over paired runs.

    ``pairs`` holds ``{"parent": {metric: value}, "change": {...}}``;
    ``better`` maps each metric to ``"lower"`` or ``"higher"``.
    """
    out = {}
    for name, direction in better.items():
        if not all(name in pair[side] for pair in pairs for side in SIDES):
            continue
        sign = 1.0 if direction == "lower" else -1.0
        wins = {side: 0 for side in SIDES}
        for pair in pairs:
            delta = sign * (pair["change"][name] - pair["parent"][name])
            if delta < 0:
                wins["change"] += 1
            elif delta > 0:
                wins["parent"] += 1
        out[name] = {"better": direction}
        for side in SIDES:
            out[name][side] = dict(summary([pair[side][name] for pair in pairs]),
                                   pairs_won=wins[side])
    return out


def _run(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv[1:])} in {checkout} exited "
                         f"{done.returncode}:\n{done.stderr}")
    return parse_run(done.stdout)


def _one_thread_env(checkout: Path) -> dict:
    """The environment with the checkout's ``src`` on the path and one BLAS thread."""
    return dict(os.environ, PYTHONPATH=str(checkout / "src"), OPENBLAS_NUM_THREADS="1",
                OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def _faults(checkout: Path, workload: str, seed: int, passes: int) -> dict:
    """The report of one in-process ``bench/faults.py`` run."""
    argv = [sys.executable, str(ROOT / "bench" / "faults.py"), "--workload", workload,
            "--seed", str(seed), "--passes", str(passes)]
    done = subprocess.run(argv, cwd=checkout, env=_one_thread_env(checkout),
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv[1:])} in {checkout} exited "
                         f"{done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout)


def _values(result: dict) -> dict:
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def record_workload(checkouts: dict, workload: str, seeds: list[int], seconds: int,
                    traced_runs: int, better: dict[str, str]) -> dict:
    pairs, environments, commits = [], {side: [] for side in SIDES}, {}
    for seed in seeds:
        order = SIDES if seed % 2 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            report, result = _run(checkouts[side], workload, seed, seconds, 0)
            env = dict(report["environment"])
            env.pop("seed")
            commits.setdefault(side, env.pop("commit"))
            if env not in environments[side]:
                environments[side].append(env)
            pair[side] = _values(result)
            print(f"{workload} seed {seed} {side}: "
                  f"{json.dumps(pair[side], sort_keys=True)}", file=sys.stderr)
        pairs.append(pair)
    entry = {"seeds": seeds, "commits": commits, "environments": environments,
             "metrics": compare(pairs, better), "pairs": pairs}
    if traced_runs:
        traced_seeds = range(seeds[-1] + 1, seeds[-1] + 1 + traced_runs)
        runs = {side: [_values(_run(checkouts[side], workload, seed, seconds, 1)[1])
                       for seed in traced_seeds] for side in SIDES}
        entry["traced"] = {
            "seeds": list(traced_seeds),
            "medians": {side: {name: statistics.median(run[name] for run in runs[side])
                               for name in runs[side][0]} for side in SIDES},
        }
    return entry


def record_faults(checkouts: dict, workload: str, seed: int, passes: int) -> dict:
    """One ``bench/faults.py`` run per side.

    Per-pass minor faults and seconds, and each command's traced peak.
    """
    entry = {"seed": seed, "passes": passes}
    for side in SIDES:
        report = _faults(checkouts[side], workload, seed, passes)
        runs = report["passes"]
        entry[side] = {"minflt": summary([run["minflt"] for run in runs]),
                       "s": summary([run["s"] for run in runs]), "runs": runs,
                       "traced": report["traced"]}
    return entry


def _time_cli(checkout: Path, argv: list[str]) -> tuple[dict, int, bytes]:
    """Wall time and peak RSS of one fresh CLI process, its exit code and stdout."""
    env = _one_thread_env(checkout)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "willmorelab.cli", *argv], cwd=checkout,
                            env=env, stdout=subprocess.PIPE)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0}, proc.returncode, out


def record_cli(checkouts: dict, args: str, repeats: int) -> dict:
    argv = shlex.split(args)
    pairs, outputs = [], set()
    for repeat in range(1, repeats + 1):
        order = SIDES if repeat % 2 else SIDES[::-1]
        pair = {"first": order[0]}
        for side in order:
            pair[side], code, out = _time_cli(checkouts[side], argv)
            outputs.add((code, out))
            print(f"{args} {side}: {json.dumps(pair[side])}", file=sys.stderr)
        pairs.append(pair)
    return {"metrics": compare(pairs, {"wall_s": "lower", "peak_rss_mb": "lower"}),
            "same_output": len(outputs) == 1,
            "exit_codes": sorted({code for code, _ in outputs}), "pairs": pairs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--seeds", type=_seeds, default="1-10", help="N or FIRST-LAST")
    parser.add_argument("--traced-runs", type=int, default=0)
    parser.add_argument("--fault-passes", type=int, default=0,
                        help="passes of one bench/faults.py run per side and workload")
    parser.add_argument("--cli", action="append", default=[], help="CLI arguments to time")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    checkouts = {"parent": args.parent, "change": args.change}
    record = json.loads(args.out.read_text()) if args.out.exists() else {
        "command": (f"python3 perfbench/run.py --workload W --seed N "
                    f"--seconds {seconds} --trace 0"),
        "order": "one pair per seed; the parent runs first on odd seeds",
    }
    for name in args.workload:
        record.setdefault("workloads", {})[name] = record_workload(
            checkouts, name, args.seeds, seconds, args.traced_runs, better)
        if args.fault_passes:
            record["workloads"][name]["faults"] = record_faults(
                checkouts, name, args.seeds[0], args.fault_passes)
    for cli_args in args.cli:
        record.setdefault("cli", {})[cli_args] = record_cli(checkouts, cli_args, args.repeats)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
