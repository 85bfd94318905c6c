import importlib.util
import json
import statistics
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "bench" / "record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record)


def _stdout(pass_s, digits, commit="abc123"):
    report = {"workload": "conformal-suites",
              "environment": {"nproc": 2, "cpu": "Xeon", "l3": "32 MiB", "blas_threads": "1",
                              "seed": 3, "commit": commit, "python": "3.11", "numpy": "2.4",
                              "blas": "openblas"}}
    result = {"correct": True, "attempted": 104, "failed": 0,
              "metrics": {"pass_s": {"value": pass_s, "unit": "s"},
                          "digits": {"value": digits, "unit": "digits"}}}
    return json.dumps(report, indent=1) + "\n" + json.dumps(result) + "\n"


def test_parse_run_splits_the_report_from_the_result_line():
    report, result = record.parse_run(_stdout(0.8, 11.92))
    assert report["environment"]["commit"] == "abc123"
    assert result["metrics"]["pass_s"] == {"value": 0.8, "unit": "s"}
    assert record._values(result) == {"pass_s": 0.8, "digits": 11.92}
    with pytest.raises(ValueError):
        record.parse_run("\n")


def test_summary_uses_perfbench_quartiles():
    values = [0.81, 0.76, 0.84, 0.80, 0.79]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert record.summary(values) == {"n": 5, "min": 0.76, "q1": q1, "median": median, "q3": q3}
    assert record.summary([0.5]) == {"n": 1, "min": 0.5, "median": 0.5}


def test_compare_counts_pairs_won_in_each_metric_direction():
    pairs = [
        {"parent": {"pass_s": 0.80, "digits": 11.9}, "change": {"pass_s": 0.72, "digits": 11.9}},
        {"parent": {"pass_s": 0.78, "digits": 11.9}, "change": {"pass_s": 0.79, "digits": 12.0}},
        {"parent": {"pass_s": 0.84, "digits": 12.0}, "change": {"pass_s": 0.74, "digits": 11.0}},
    ]
    out = record.compare(pairs, {"pass_s": "lower", "digits": "higher", "setup_s": "lower"})
    assert set(out) == {"pass_s", "digits"}
    assert out["pass_s"]["better"] == "lower"
    assert (out["pass_s"]["change"]["pairs_won"], out["pass_s"]["parent"]["pairs_won"]) == (2, 1)
    assert (out["digits"]["change"]["pairs_won"], out["digits"]["parent"]["pairs_won"]) == (1, 1)
    assert out["pass_s"]["parent"]["min"] == 0.78
    assert out["pass_s"]["change"]["median"] == 0.74


def test_seed_ranges():
    assert record._seeds("4") == [4]
    assert record._seeds("1-10") == list(range(1, 11))


def test_record_workload_alternates_sides_on_canned_runs(monkeypatch):
    calls = []

    def fake_run(argv, cwd, capture_output, text):
        seed = int(argv[argv.index("--seed") + 1])
        calls.append((cwd.name, seed))
        pass_s = 0.8 if cwd.name == "parent" else 0.7
        return type("Done", (), {"returncode": 0, "stderr": "",
                                 "stdout": _stdout(pass_s + seed / 1000, 11.92, cwd.name)})

    monkeypatch.setattr(record.subprocess, "run", fake_run)
    checkouts = {"parent": Path("parent"), "change": Path("change")}
    entry = record.record_workload(checkouts, "conformal-suites", [1, 2, 3], 56, 0,
                                   {"pass_s": "lower", "digits": "higher"})
    assert calls == [("parent", 1), ("change", 1), ("change", 2), ("parent", 2),
                     ("parent", 3), ("change", 3)]
    assert entry["commits"] == {"parent": "parent", "change": "change"}
    assert len(entry["environments"]["parent"]) == 1
    assert "seed" not in entry["environments"]["parent"][0]
    assert [pair["first"] for pair in entry["pairs"]] == ["parent", "change", "parent"]
    assert entry["metrics"]["pass_s"]["change"]["pairs_won"] == 3
    assert entry["metrics"]["digits"]["change"]["pairs_won"] == 0


def test_record_faults_runs_each_side_once(monkeypatch):
    calls = []

    def fake_faults(checkout, workload, seed, passes):
        calls.append((checkout.name, workload, seed, passes))
        faults = 0 if checkout.name == "parent" else 4000
        runs = [{"s": 2.0 + i / 100, "minflt": faults + i, "maxrss_mb": 40.0}
                for i in range(passes)]
        traced = [{"command": "catalog", "traced_peak_mb": 0.5 + faults / 1000}]
        return {"workload": workload, "seed": seed, "passes": runs, "traced": traced}

    monkeypatch.setattr(record, "_faults", fake_faults)
    checkouts = {"parent": Path("parent"), "change": Path("change")}
    entry = record.record_faults(checkouts, "quadrature", 1, 3)
    assert calls == [("parent", "quadrature", 1, 3), ("change", "quadrature", 1, 3)]
    assert entry["seed"] == 1 and entry["passes"] == 3
    assert entry["parent"]["minflt"]["median"] == 1
    assert entry["change"]["minflt"]["median"] == 4001
    assert len(entry["change"]["runs"]) == 3
    assert entry["parent"]["traced"] == [{"command": "catalog", "traced_peak_mb": 0.5}]
    assert entry["change"]["traced"] == [{"command": "catalog", "traced_peak_mb": 4.5}]


def test_time_cli_reports_wall_time_peak_rss_and_output():
    metrics, code, out = record._time_cli(_PATH.parents[1], ["catalog"])
    assert code == 0 and "veronese" in json.loads(out)["ids"]
    assert metrics["wall_s"] > 0 and metrics["peak_rss_mb"] > 1


def test_record_cli_alternates_sides_and_compares_outputs(monkeypatch):
    calls = []

    def fake_time_cli(checkout, argv):
        calls.append(checkout.name)
        wall = 1.0 if checkout.name == "parent" else 0.5
        return {"wall_s": wall, "peak_rss_mb": 50.0}, 0, b"{}\n"

    monkeypatch.setattr(record, "_time_cli", fake_time_cli)
    checkouts = {"parent": Path("parent"), "change": Path("change")}
    entry = record.record_cli(checkouts, "matrix-props --trials 10", 3)
    assert calls == ["parent", "change", "change", "parent", "parent", "change"]
    assert entry["same_output"] and entry["exit_codes"] == [0]
    assert entry["metrics"]["wall_s"]["change"]["pairs_won"] == 3
    assert entry["metrics"]["peak_rss_mb"]["change"]["pairs_won"] == 0
    assert entry["metrics"]["peak_rss_mb"]["parent"]["pairs_won"] == 0


def test_main_updates_an_existing_file(monkeypatch, tmp_path):
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"workloads": {"quadrature": {"seeds": [1]}}, "cli": {}}))
    monkeypatch.setattr(record, "record_cli", lambda checkouts, args, repeats: {"n": repeats})
    argv = ["--parent", "p", "--change", "c", "--cli", "catalog", "--repeats", "2",
            "--out", str(out)]
    assert record.main(argv) == 0
    assert json.loads(out.read_text()) == {"workloads": {"quadrature": {"seeds": [1]}},
                                           "cli": {"catalog": {"n": 2}}}


def test_main_runs_for_the_benchmark_run_seconds(monkeypatch, tmp_path):
    spec = json.loads((_PATH.parents[1] / "BENCHMARK.json").read_text())
    lengths = []

    def fake_record_workload(checkouts, workload, seeds, seconds, traced_runs, better):
        lengths.append(seconds)
        return {"seeds": seeds}

    monkeypatch.setattr(record, "record_workload", fake_record_workload)
    out = tmp_path / "BENCH.json"
    argv = ["--parent", "p", "--change", "c", "--workload", "quadrature", "--seeds", "3",
            "--out", str(out)]
    assert record.main(argv) == 0
    assert lengths == [spec["run_seconds"]]
    assert f"--seconds {spec['run_seconds']} " in json.loads(out.read_text())["command"]
    with pytest.raises(SystemExit):
        record.main(argv + ["--seconds", "20"])
