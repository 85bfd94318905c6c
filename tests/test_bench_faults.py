import importlib.util
import json
import tracemalloc
from pathlib import Path

import numpy as np

_PATH = Path(__file__).resolve().parents[1] / "bench" / "faults.py"
_SPEC = importlib.util.spec_from_file_location("bench_faults", _PATH)
faults = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(faults)


def test_run_pass_names_each_command_that_raised_maxrss(monkeypatch):
    # ru_maxrss as the fake commands leave it: "b" raises it by 2.5 MiB
    # and "d" by 0.25 MiB; "a" and "c" leave it where it was.
    after = {"a": 40.0, "b": 42.5, "c": 42.5, "d": 42.75}
    state = {"maxrss": 40.0}
    ran = []

    def fake_main(argv):
        ran.append(argv)
        print("output that the pass discards")
        state["maxrss"] = after[argv[0]]

    monkeypatch.setattr(faults, "maxrss_mb", lambda: state["maxrss"])
    steps = faults.run_pass(fake_main, [["a"], ["b", "--x", "1"], ["c"], ["d"]])
    assert ran == [["a"], ["b", "--x", "1"], ["c"], ["d"]]
    assert steps == [{"command": "b --x 1", "rise_mb": 2.5}, {"command": "d", "rise_mb": 0.25}]


def test_main_reports_the_maxrss_steps_of_every_pass(monkeypatch, capsys):
    monkeypatch.setitem(faults.WORKLOADS, "tiny", lambda seed: [["catalog"], ["catalog"]])
    monkeypatch.setattr(faults, "warmup", lambda commands: [])
    readings = iter([10.0, 11.0, 11.0, 11.0, 11.0, 11.5, 11.5, 11.5])
    monkeypatch.setattr(faults, "maxrss_mb", lambda: next(readings))
    assert faults.main(["--workload", "tiny", "--seed", "1", "--passes", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["workload"] == "tiny" and report["seed"] == 1
    assert [run["maxrss_steps"] for run in report["passes"]] == [
        [{"command": "catalog", "rise_mb": 1.0}],
        [{"command": "catalog", "rise_mb": 0.5}],
    ]
    assert all(run["minflt"] >= 0 and run["s"] > 0 for run in report["passes"])
    assert [peak["command"] for peak in report["traced"]] == ["catalog", "catalog"]
    assert all(peak["traced_peak_mb"] > 0 for peak in report["traced"])


def test_traced_pass_reports_the_traced_peak_of_each_command():
    # "big" holds a 3 MiB array while it runs and "small" a 64 KiB one;
    # each peak is that command's own, not the larger one before it.
    ran = []

    def fake_main(argv):
        ran.append(argv)
        print("output that the pass discards")
        size = {"big": 3 * 2**20, "small": 2**16}[argv[0]]
        np.ones(size // 8).sum()

    peaks = faults.traced_pass(fake_main, [["big", "--x", "1"], ["small"]])
    assert ran == [["big", "--x", "1"], ["small"]]
    assert [peak["command"] for peak in peaks] == ["big --x 1", "small"]
    assert 3.0 <= peaks[0]["traced_peak_mb"] < 3.1
    assert 2**16 / 2**20 <= peaks[1]["traced_peak_mb"] < 0.1
    assert not tracemalloc.is_tracing()
