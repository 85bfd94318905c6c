import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from willmorelab import cli
from willmorelab.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_lists_ids(capsys):
    code, out, err = run(capsys, ["catalog"])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert "willmore-torus:m,n" in payload["ids"]
    assert "veronese" in payload["ids"]


def test_catalog_csv(capsys):
    code, out, _ = run(capsys, ["catalog", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "id"
    assert "veronese" in lines


def test_shape_json_payload(capsys):
    code, out, _ = run(capsys, ["shape", "clifford-torus:1,2"])
    assert code == 0
    payload = json.loads(out)
    for key in ("id", "point", "n", "p", "metric", "h", "H_vec", "H", "S", "rho_sq"):
        assert key in payload
    assert payload["n"] == 2 and payload["p"] == 1
    assert abs(payload["S"] - 2.0) < 1e-12
    assert abs(payload["H"]) < 1e-12


def test_shape_point_parsing_errors(capsys):
    code, _, err = run(capsys, ["shape", "clifford-torus:1,2", "--point", "a,b"])
    assert code == 2 and "cannot parse point" in err
    code, _, err = run(capsys, ["shape", "clifford-torus:1,2", "--point", "0.5"])
    assert code == 2 and "coordinates" in err


@pytest.mark.parametrize("point", ["nan,1", "inf,1"])
def test_shape_point_must_be_finite(capsys, point):
    # Once "patch image leaves the unit sphere by nan", and for inf a
    # NumPy RuntimeWarning on stderr as well.
    code, out, err = run(capsys, ["shape", "clifford-torus:1,2", "--point", point])
    assert (code, out) == (2, "")
    assert err == f"error: point coordinates must be finite, got {point!r}\n"


_TOLERANCE_COMMANDS = [
    ["energy", "willmore-torus:1,3", "--resolution", "12"],
    ["pinch", "veronese", "--resolution", "16"],
    ["conformal-test", "veronese", "--maps", "2", "--resolution", "16"],
    ["el-check", "willmore-torus:1,3"],
    ["optimize", "1", "3"],
]


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "0"])
@pytest.mark.parametrize("argv", _TOLERANCE_COMMANDS, ids=[a[0] for a in _TOLERANCE_COMMANDS])
def test_tolerance_must_be_positive_and_finite(capsys, argv, tolerance):
    # A NaN tolerance once let every --assert pass: no drift compares
    # greater than NaN.
    code, out, err = run(capsys, argv + ["--assert", f"--tolerance={tolerance}"])
    assert (code, out) == (2, "")
    assert err == "error: tolerance must be positive and finite\n"


def test_unknown_example_id(capsys):
    code, _, err = run(capsys, ["energy", "mystery-manifold"])
    assert code == 2
    assert "known forms" in err


def test_config_validation_exit_codes(capsys):
    code, _, err = run(capsys, ["energy", "clifford-torus:1,2", "--resolution", "4"])
    assert code == 2 and "resolution" in err
    # --fd-step is no longer an option: argparse refuses it as usage.
    with pytest.raises(SystemExit) as exc:
        main(["shape", "clifford-torus:1,2", "--fd-step", "1.0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --fd-step" in capsys.readouterr().err


def test_assert_refuses_empty_evidence(capsys):
    # One convergence level gives nothing to compare.
    code, out, err = run(capsys, ["energy", "clifford-torus:1,2", "--resolution", "8", "--assert"])
    assert code == 2 and out == "" and "--resolution 9" in err
    code, out, err = run(
        capsys,
        ["conformal-test", "clifford-torus:1,2", "--maps", "0", "--resolution", "16", "--assert"],
    )
    assert code == 2 and out == "" and "--maps 1" in err
    code, _, err = run(capsys, ["conformal-test", "clifford-torus:1,2", "--maps", "-1"])
    assert code == 2 and "nonnegative" in err


def test_odd_resolution_on_a_folded_chart_is_a_usage_error(capsys):
    for argv in (
        ["energy", "round-sphere:2,1,0.7", "--resolution", "17"],
        ["energy", "round-sphere:2,1,0.7", "--resolution", "36"],  # quarter level 9
        ["pinch", "round-sphere:2,2,0.5", "--resolution", "17"],
        ["el-check", "round-sphere:2,1,0.7", "--surface", "--resolution", "17"],
    ):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "", argv
        assert "odd node count" in err and "rank deficient" not in err
    code, out, _ = run(capsys, ["energy", "round-sphere:2,1,0.7", "--resolution", "32"])
    assert code == 0 and abs(json.loads(out)["value"]) < 1e-12


def test_energy_payload_and_convergence(capsys):
    code, out, _ = run(capsys, ["energy", "clifford-torus:1,2", "--resolution", "32", "--assert"])
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "energy"
    assert payload["grid"] == [32, 32]
    levels = [row["resolution"] for row in payload["convergence"]]
    assert levels == [8, 16, 32]
    assert abs(payload["value"] - 4.0 * math.pi**2) < 1e-9


def test_energy_output_is_deterministic(capsys):
    _, first, _ = run(capsys, ["energy", "willmore-torus:1,2", "--resolution", "16"])
    _, second, _ = run(capsys, ["energy", "willmore-torus:1,2", "--resolution", "16"])
    assert first == second


def test_el_check_assert_pass_and_fail(capsys):
    code, out, _ = run(capsys, ["el-check", "willmore-torus:1,3", "--assert"])
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "isoparametric"
    assert payload["willmore"] is True
    assert payload["norm"] < 1e-12

    code, out, err = run(capsys, ["el-check", "clifford-torus:1,3", "--assert"])
    assert code == 1
    assert "assertion failed" in err
    payload = json.loads(out)
    assert payload["willmore"] is False
    assert abs(payload["values"][0] + 3.0 / math.sqrt(2.0)) < 1e-12


def test_el_check_surface_mode(capsys):
    code, out, _ = run(
        capsys,
        ["el-check", "clifford-torus:1,2", "--surface", "--resolution", "16",
         "--assert", "--tolerance", "1e-8"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "surface"
    assert payload["max_residual"] < 1e-10


def test_pinch_payload(capsys):
    code, out, _ = run(
        capsys, ["pinch", "willmore-torus:1,2", "--resolution", "32", "--assert"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "simons"
    assert payload["threshold"] == 2.0
    assert abs(payload["value"]) < 1e-10


def test_pinch_li_mode(capsys):
    code, out, _ = run(capsys, ["pinch", "veronese", "--mode", "li", "--resolution", "16"])
    assert code == 0
    payload = json.loads(out)
    assert payload["threshold"] == 4.0 / 3.0


def test_matrix_props_small_run(capsys):
    code, out, _ = run(capsys, ["matrix-props", "--trials", "40", "--seed", "7"])
    assert code == 0
    payload = json.loads(out)
    assert payload["violations"] == 0
    assert len(payload["suites"]) == 4
    names = {s["name"] for s in payload["suites"]}
    assert len(names) == 4


def test_optimize_reports_balanced_radius(capsys):
    code, out, _ = run(capsys, ["optimize", "1", "2", "--assert"])
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["critical_radius"] - 1.0 / math.sqrt(2.0)) < 1e-6
    assert payload["difference"] < 1e-6
    assert payload["second_difference"] > 0.0


def test_optimize_asserts_on_every_pair_up_to_twelve(capsys):
    for n in range(2, 13):
        for m in range(1, n):
            code, out, err = run(capsys, ["optimize", str(m), str(n), "--assert"])
            assert code == 0, (m, n, err)
            assert json.loads(out)["difference"] < 1e-6


def test_optimize_tolerance_is_the_assert_gate(capsys):
    # --tolerance once set the bisection bracket (clamped to [1e-12,
    # 1e-3]) while --assert gated at a fixed 1e-6, so a loose tolerance
    # failed and an impossible one passed. The radius of (1, 2) is one
    # ulp, 1.1e-16, from the balanced radius.
    code, out, err = run(capsys, ["optimize", "1", "3", "--tolerance", "0.5", "--assert"])
    assert (code, err) == (0, "")
    assert json.loads(out)["difference"] < 1e-6
    code, out, err = run(capsys, ["optimize", "1", "2", "--tolerance", "1e-17", "--assert"])
    assert code == 1
    assert err.startswith("assertion failed: critical radius ")
    assert err.endswith("by more than 1.0e-17\n")


def test_optimize_csv_profile(capsys):
    code, out, _ = run(
        capsys, ["optimize", "1", "3", "--format", "csv", "--samples", "10"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "r,energy,derivative"
    assert len(lines) == 11


def test_out_file_always_gets_csv(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run(
        capsys,
        ["energy", "clifford-torus:1,2", "--resolution", "16", "--out", str(target)],
    )
    assert code == 0
    json.loads(out)  # stdout stays json
    text = target.read_text()
    assert text.splitlines()[0] == "resolution,value"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_unwritable_out_path_is_one_error_line(tmp_path, capsys, fmt):
    for target in (tmp_path / "missing" / "x.csv", tmp_path):
        code, out, err = run(capsys, ["catalog", "--format", fmt, "--out", str(target)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write --out {target}: ")
        assert err.count("\n") == 1


def test_conformal_test_structure(capsys):
    code, out, _ = run(
        capsys,
        ["conformal-test", "clifford-torus:1,2", "--maps", "2", "--resolution", "16"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "conformal"
    assert len(payload["maps"]) == 2
    assert payload["max_drift"] < 1e-2
    assert abs(payload["base"] - 4.0 * math.pi**2) < 1e-9


def test_conformal_assert_passes_on_an_umbilic_chart(capsys):
    # The energies of a great sphere are roundoff (about 1e-29), so their
    # drift is measured against max(1, |base|), as `energy --assert` does.
    code, out, err = run(
        capsys,
        ["conformal-test", "round-sphere:2,1,0.8", "--maps", "3", "--resolution", "32",
         "--assert"],
    )
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert abs(payload["base"]) < 1e-20 and len(payload["maps"]) == 3
    for report in payload["maps"]:
        assert report["drift"] == abs(report["value"] - payload["base"])
    assert payload["max_drift"] < 1e-20


def test_a_closed_stdout_pipe_ends_quietly():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    argv = ["energy", "round-sphere:2,1,0.8", "--resolution", "32", "--assert"]
    with subprocess.Popen(
        [sys.executable, "-c", "import sys; from willmorelab.cli import main; sys.exit(main())"]
        + argv,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        proc.stdout.close()  # the reader is gone before anything is printed
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err) == (141, b"")


def test_matrix_props_golden_values(capsys):
    # Pinned outputs of seed 0; the witness residual may only shrink.
    code, out, _ = run(capsys, ["matrix-props", "--trials", "1000", "--seed", "0"])
    assert code == 0
    suites = {s["name"]: s for s in json.loads(out)["suites"]}
    assert suites["commutator_bound"]["min_slack"] == 0.011433455929823363
    assert suites["family_bound"]["min_slack"] == 3.1412552158122016e-07
    assert suites["trace_split"]["max_residual"] == 5.196013278962955e-16
    assert suites["witness_recovery"]["max_residual"] <= 7.449317513716771e-14
    assert all(s["trials"] == 1000 and s["violations"] == 0 for s in suites.values())


def test_grids_over_the_node_cap_are_usage_errors(capsys):
    # Refused from the counts before any rule or array is built; the
    # energy at 1000 ended in a MemoryError traceback (29.1 GiB for the
    # quarter level's rho^2) under a 3 GB address-space limit.
    for argv in (
        ["energy", "willmore-torus:2,4", "--resolution", "1000"],
        ["pinch", "clifford-torus:1,2", "--resolution", "5000"],
        ["el-check", "clifford-torus:1,2", "--surface", "--resolution", "5000"],
        ["conformal-test", "clifford-torus:1,2", "--maps", "1", "--resolution", "5000"],
    ):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv
        assert f"nodes exceed the grid cap of {2**24} nodes" in err, argv


def test_optimize_overflow_is_an_error_line(capsys):
    for m, n in ((1, 400), (399, 400)):
        code, out, err = run(capsys, ["optimize", str(m), str(n), "--assert"])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "overflows" in err


def test_optimize_in_huge_dimension_is_an_error_line_not_a_hang():
    # Vol(S^k) once looped over all k/2 steps long after it had
    # underflowed to 0.0, for hours at k = 1e12, before the overflow was
    # reported. A fresh process with a timeout fails instead of hanging.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    argv = ["optimize", "1", "1000000000000", "--assert"]
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from willmorelab.cli import main; sys.exit(main())"]
        + argv,
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "overflows" in done.stderr


def test_importing_the_cli_does_not_load_numpy_random():
    # numpy.random costs about 15 ms to import; the randomized suites
    # import it on first use, so start-up of every other command skips it.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    code = "import sys, willmorelab.cli; print('numpy.random' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env)
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


_OPTIONS = {
    "catalog": [],
    "shape": ["--point"],
    "energy": ["--assert", "--resolution", "--tolerance"],
    "el-check": ["--assert", "--resolution", "--surface", "--tolerance"],
    "pinch": ["--assert", "--mode", "--resolution", "--tolerance"],
    "matrix-props": ["--seed", "--trials"],
    "conformal-test": ["--assert", "--maps", "--resolution", "--seed", "--tolerance"],
    "optimize": ["--assert", "--samples", "--tolerance"],
}


def test_every_subcommand_has_exactly_its_pinned_options():
    # A new knob is a deliberate edit here; every subcommand also takes
    # -h/--help, --format and --out.
    subparsers = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    got = {
        name: sorted(opt for action in sub._actions for opt in action.option_strings)
        for name, sub in subparsers.choices.items()
    }
    want = {
        name: sorted(opts + ["-h", "--help", "--format", "--out"])
        for name, opts in _OPTIONS.items()
    }
    assert got == want


def test_reused_parser_matches_fresh_parsers(capsys):
    calls = [
        ["catalog", "--format", "csv"],
        ["optimize", "1", "3", "--samples", "5"],
        ["el-check", "willmore-torus:1,3", "--format", "csv"],
        ["pinch", "veronese", "--resolution", "16", "--mode", "li"],
        ["optimize", "2", "5", "--format", "csv", "--samples", "3"],
        ["energy", "clifford-torus:1,2", "--resolution", "16", "--tolerance", "1e-3"],
        ["catalog"],
    ]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(capsys, argv))
    for argv, want in zip(calls, fresh):
        assert run(capsys, argv) == want
        # A refused command leaves the shared parser as it was.
        with pytest.raises(SystemExit):
            main(argv[:1] + ["--no-such-flag"])
        capsys.readouterr()


def _maps(value, drifts):
    return [{"trial": t, "value": value, "drift": d} for t, d in enumerate(drifts)]


_GOLDEN = [
    (
        ["energy", "willmore-torus:2,4", "--resolution", "12"],
        {
            "id": "willmore-torus:2,4",
            "grid": [12, 12, 12, 12],
            "value": 631.6546816697185,
            "mode": "energy",
            "convergence": [
                {"resolution": 8, "value": 631.654681669715},
                {"resolution": 12, "value": 631.6546816697185},
            ],
        },
    ),
    (
        ["energy", "product-spheres:2,2,1", "--resolution", "8"],
        {
            "id": "product-spheres:2,2,1",
            "grid": [8, 8, 8, 8, 8],
            "value": 17859.615367852573,
            "mode": "energy",
            "convergence": [{"resolution": 8, "value": 17859.615367852573}],
        },
    ),
    (
        ["energy", "round-sphere:3,1,0.6", "--resolution", "8"],
        {
            "id": "round-sphere:3,1,0.6",
            "grid": [8, 8, 8],
            "value": 1.345464540173208e-43,
            "mode": "energy",
            "convergence": [{"resolution": 8, "value": 1.345464540173208e-43}],
        },
    ),
    (
        ["pinch", "veronese", "--resolution", "64"],
        {
            "id": "veronese",
            "grid": [64, 64],
            "value": -8.130376863758112e-15,
            "mode": "simons",
            "threshold": 1.3333333333333333,
        },
    ),
    (
        ["conformal-test", "clifford-torus:1,2", "--maps", "3", "--resolution", "32", "--seed", "0"],
        {
            "id": "clifford-torus:1,2",
            "grid": [32, 32],
            "base": 39.47841760435743,
            "maps": _maps(39.47841760435743, [0.0, 0.0, 0.0]),
            "max_drift": 0.0,
            "mode": "conformal",
        },
    ),
    (
        ["optimize", "1", "2"],
        {
            "m": 1,
            "n": 2,
            "critical_radius": 0.7071067811865475,
            "balanced_radius": 0.7071067811865476,
            "difference": 1.1102230246251565e-16,
            "energy": 39.47841760435744,
            "second_difference": 315.82736070845385,
            "mode": "optimize",
        },
    ),
    (
        ["optimize", "1", "3"],
        {
            "m": 1,
            "n": 3,
            "critical_radius": 0.816496580927726,
            "balanced_radius": 0.816496580927726,
            "difference": 0.0,
            "energy": 111.66182719422203,
            "second_difference": 2009.9132356676819,
            "mode": "optimize",
        },
    ),
    (
        ["el-check", "clifford-torus:1,2", "--surface", "--resolution", "64"],
        {
            "id": "clifford-torus:1,2",
            "mode": "surface",
            "grid": [64, 64],
            "max_residual": 6.844717596027597e-14,
            "willmore": True,
        },
    ),
]


@pytest.mark.parametrize("argv, payload", _GOLDEN, ids=[" ".join(a[:2]) for a, _ in _GOLDEN])
def test_small_commands_print_their_golden_output(capsys, argv, payload):
    # Byte-for-byte stdout of small quadrature commands, pinned so that a
    # rewrite of the jets or the node layout cannot move a digit.
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert out == json.dumps(payload, indent=2) + "\n"


def test_optimize_in_high_dimension_is_an_error_line(capsys):
    # Vol(S^1999) once recursed about a thousand frames deep and ended
    # in a RecursionError traceback; now the energy's overflow is named.
    code, out, err = run(capsys, ["optimize", "1", "2000", "--assert"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


_SEED_ONE = {
    "command": "matrix-props",
    "seed": 1,
    "trials": 1000,
    "suites": [
        {"name": "commutator_bound", "trials": 1000,
         "min_slack": 0.0037515334620669906, "violations": 0},
        {"name": "family_bound", "trials": 1000,
         "min_slack": 3.2500180412116294e-06, "violations": 0},
        {"name": "trace_split", "trials": 1000,
         "max_residual": 5.246321863953811e-16, "violations": 0},
        {"name": "witness_recovery", "trials": 1000,
         "max_residual": 3.1134041164728314e-15, "violations": 0},
    ],
    "violations": 0,
}


def test_matrix_props_seed_one_prints_its_golden_output(capsys):
    code, out, err = run(capsys, ["matrix-props", "--trials", "1000", "--seed", "1"])
    assert (code, err) == (0, "")
    assert out == json.dumps(_SEED_ONE, indent=2) + "\n"


GOLDEN_DIR = Path(__file__).parent / "golden"

# CSV tables pinned byte for byte: tests/golden/<name>.csv.
_CSV_GOLDEN = {
    "catalog": ["catalog"],
    "shape": ["shape", "clifford-torus:1,2"],
    "energy": ["energy", "clifford-torus:1,2", "--resolution", "16"],
    "el_check_surface": ["el-check", "clifford-torus:1,2", "--surface", "--resolution", "16"],
    "el_check_iso": ["el-check", "willmore-torus:1,3"],
    "pinch": ["pinch", "veronese", "--resolution", "16"],
    "conformal_test": ["conformal-test", "clifford-torus:1,2", "--maps", "2",
                       "--resolution", "16"],
    "matrix_props": ["matrix-props", "--trials", "20", "--seed", "3"],
    "optimize": ["optimize", "1", "3", "--samples", "5"],
}


@pytest.mark.parametrize("name", sorted(_CSV_GOLDEN))
def test_csv_tables_print_and_write_their_golden_bytes(tmp_path, capsys, name):
    want = (GOLDEN_DIR / f"{name}.csv").read_bytes()
    argv = _CSV_GOLDEN[name]
    code, out, err = run(capsys, argv + ["--format", "csv"])
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == want
    target = tmp_path / "table.csv"
    code, out, err = run(capsys, argv + ["--out", str(target)])
    assert (code, err) == (0, "")
    json.loads(out)
    assert target.read_bytes() == want


def test_json_output_builds_no_table(monkeypatch, capsys):
    commands = (
        ["optimize", "1", "3"],
        ["el-check", "clifford-torus:1,2", "--surface", "--resolution", "32"],
    )
    want = [run(capsys, argv) for argv in commands]

    def refuse(*args, **kwargs):
        raise AssertionError("a CSV table was built for JSON output")

    monkeypatch.setattr(cli, "family_profile", refuse)
    monkeypatch.setattr(cli, "_csv_text", refuse)
    for argv, expected in zip(commands, want):
        assert run(capsys, argv) == expected


def test_optimize_refuses_one_sample_in_both_formats(capsys):
    # Counts above the cap are refused before anything is allocated.
    refusals = {"1": "need at least two samples", "1000001": "at most 1000000 samples",
                "1000000000000": "at most 1000000 samples"}
    for samples, message in refusals.items():
        for fmt in ("json", "csv"):
            argv = ["optimize", "1", "3", "--samples", samples, "--format", fmt]
            assert run(capsys, argv) == (2, "", f"error: {message}\n")


def test_gauss_legendre_count_above_the_cap_is_an_error_line(capsys):
    # Once a 728 TiB allocation traceback from the companion matrix.
    code, out, err = run(capsys, ["pinch", "veronese", "--resolution", "10000000"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "10000000" in err and "axis" in err
