import json
import math

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


def test_unknown_example_id(capsys):
    code, _, err = run(capsys, ["energy", "mystery-manifold"])
    assert code == 2
    assert "known forms" in err


def test_config_validation_exit_codes(capsys):
    code, _, err = run(capsys, ["energy", "clifford-torus:1,2", "--resolution", "4"])
    assert code == 2 and "resolution" in err
    code, _, err = run(capsys, ["shape", "clifford-torus:1,2", "--fd-step", "1.0"])
    assert code == 2 and "fd" in err.lower()


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
