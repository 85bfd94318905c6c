"""Tests of the benchmark itself: its checker, its tracer and its contract.

Run from the repository root with
``python -m pytest perfbench/tests -q``. Nothing here asserts on a
timing.
"""

import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from willmorelab import cli

import hostspeed
import oracle
import tracer
import workloads
from hostspeed import HostClock
from oracle import Checker
from worker import run_command, traced_run

BENCH = Path(__file__).resolve().parents[1]

# One small command per layer the traced run wraps.
SMALL = [
    ["energy", "willmore-torus:1,3", "--resolution", "16", "--assert"],
    ["pinch", "veronese", "--resolution", "32", "--assert"],
    ["conformal-test", "clifford-torus:1,2", "--maps", "2", "--resolution", "32",
     "--seed", "5", "--assert"],
    ["el-check", "clifford-torus:1,2", "--surface", "--resolution", "32", "--assert"],
    ["el-check", "willmore-torus:1,3", "--assert"],
    ["matrix-props", "--trials", "20", "--seed", "5"],
    ["optimize", "1", "3", "--assert"],
]


def _energy_text() -> tuple[list[str], str]:
    argv = SMALL[0]
    code, text, error, _ = run_command(cli.main, argv)
    assert code == 0 and error is None
    return argv, text


def test_checker_accepts_the_cli_output():
    checker = Checker()
    for index, argv in enumerate(SMALL):
        code, text, error, _ = run_command(cli.main, argv)
        checker.record(index, argv, code, text, error)
    assert checker.failures == []
    assert checker.attempted == len(SMALL)
    assert 6.0 < checker.digits <= oracle.MAX_DIGITS


def test_checker_counts_a_perturbed_value_as_failed():
    argv, text = _energy_text()
    payload = json.loads(text)
    payload["value"] *= 1.0 + 1e-5
    checker = Checker()
    assert not checker.record(0, argv, 0, json.dumps(payload))
    assert checker.failed == 1
    assert checker.digits == pytest.approx(5.0, abs=0.1)


def test_checker_counts_a_nonzero_exit_and_a_raise_as_failed():
    argv, text = _energy_text()
    checker = Checker()
    assert not checker.record(0, argv, 1, text)
    assert not checker.record(1, argv, 0, "", error=RuntimeError("boom"))
    assert (checker.attempted, checker.failed) == (2, 2)


def test_checker_counts_output_differing_from_the_first_run_as_failed():
    argv, text = _energy_text()
    checker = Checker()
    assert checker.record(0, argv, 0, text)
    assert not checker.record(0, argv, 0, text.replace("\n", "\n "))
    assert checker.failed == 1


def test_run_command_reports_argument_errors_as_exit_codes():
    code, _, error, _ = run_command(cli.main, ["energy"])
    assert code == 2 and error is None


def test_references_match_known_closed_forms():
    assert oracle.reference("veronese")[3] == pytest.approx(8.0 * math.pi)
    # Clifford torus S^1(1/sqrt2) x S^1(1/sqrt2): rho^2 = 2, area 2 pi^2.
    assert oracle.reference("clifford-torus:1,2")[3] == pytest.approx(4.0 * math.pi**2)
    # A torus is a product of two spheres; both formulas must agree.
    assert oracle.reference("product-spheres:1,2")[3] == pytest.approx(
        oracle.reference("willmore-torus:2,3")[3]
    )


def _counts(per_pass):
    return [{k: v for k, v in p.items() if tracer.LAYER_METRICS[k] == "count"}
            for p in per_pass]


def test_traced_counts_repeat_exactly_and_originals_come_back():
    originals = (cli.resolve, cli.willmore_energy, cli.SymTensor3)
    runs = []
    for _ in range(2):
        checker = Checker()
        _, _, per_pass, spans = traced_run(SMALL, checker, budget=0.0)
        assert checker.failures == []
        runs.append(_counts(per_pass)[0])
        assert spans
    assert runs[0] == runs[1]
    assert all(value > 0 for value in runs[0].values()), runs[0]
    assert (cli.resolve, cli.willmore_energy, cli.SymTensor3) == originals


def test_workload_commands_parse():
    parser = cli.build_parser()
    for make in workloads.WORKLOADS.values():
        for argv in make(7) + workloads.warmup(make(7)):
            parser.parse_args(argv)


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    expected = dict(tracer.LAYER_METRICS, trace_overhead_s="s")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == expected


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quadrature", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_host_clock_runs_units_and_scales_linearly():
    clock = HostClock()
    clock.run_units(0.02)
    assert clock.units >= 1 and clock.seconds >= 0.02
    assert clock.normalize(1.0) == pytest.approx(
        hostspeed.REFERENCE_UNIT_S * clock.units / clock.seconds)
    assert clock.normalize(3.0) == pytest.approx(3.0 * clock.normalize(1.0))


def test_host_clock_ticks_during_a_block_and_then_stops():
    with HostClock() as clock:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    units = clock.units
    assert units >= 2
    time.sleep(0.1)
    assert clock.units == units
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
