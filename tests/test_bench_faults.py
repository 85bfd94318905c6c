import importlib.util
import json
from pathlib import Path

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
