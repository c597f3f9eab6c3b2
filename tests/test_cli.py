"""End-to-end command-line interface: exit codes, JSON reports, determinism."""

import json

import numpy as np
import pytest

from fslab._seeding import rng_for
from fslab.cli import main
from fslab.crossratios import random_generic_tuple
from fslab.forms import make_space


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def tuple_payload(eps, d, r, k, seed):
    space = make_space(eps, d, r)
    t = random_generic_tuple(space, k, np.random.default_rng(seed))
    return {
        "epsilon": eps,
        "d": d,
        "r": r,
        "points": [[[float(z.real), float(z.imag)] for z in t.vector(i)]
                   for i in range(k)],
    }


def write_payload(tmp_path, payload, name="tuple.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def strip_time(report_text):
    data = json.loads(report_text)
    data.pop("wall_time_s", None)
    return data


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def test_verify_constants_passes(capsys):
    code, out, err = run_cli(["verify", "--suite", "constants"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["command"] == "verify"
    assert data["passed"] is True
    assert data["seed"] == 0
    assert data["config"]["suite"] == "constants"
    names = [c["name"] for c in data["checks"]]
    assert "constants.tetrahedron-volume" in names
    for check in data["checks"]:
        assert set(check) == {"name", "samples", "max_residual", "threshold", "passed"}
        assert check["passed"] is True
    assert "PASS" in err
    assert "FAIL" not in err.replace("0 FAILED", "")


def test_verify_suite_choice_and_params(capsys):
    code, out, _ = run_cli(
        ["verify", "--suite", "cross-ratios", "--eps", "-1", "--d", "0",
         "--r", "2", "--trials", "50", "--seed", "7"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["config"] == {"suite": "cross-ratios", "eps": -1, "d": 0,
                              "r": 2, "trials": 50, "tol": {}}
    assert data["seed"] == 7
    assert all(c["samples"] == 50 for c in data["checks"])


def test_verify_deterministic_modulo_wall_time(capsys):
    argv = ["verify", "--suite", "dilog", "--trials", "300", "--seed", "3"]
    code1, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert code1 == code2 == 0
    assert strip_time(out1) == strip_time(out2)
    assert "wall_time_s" in json.loads(out1)


def assert_reductions_pass_without_numerical_failure(params, capsys):
    code, out, _ = run_cli(["verify", "--suite", "reductions", *params], capsys)
    assert code == 0
    data = json.loads(out)
    numerical = [c for c in data["checks"] if c["name"] == "reductions.numerical"]
    assert len(numerical) == 1
    assert numerical[0]["max_residual"] == 0
    assert numerical[0]["passed"] is True


def test_verify_reductions_at_rank_six_has_no_numerical_failure(capsys):
    # Two of these trials once failed in Witt completion (reductions.numerical = 2).
    assert_reductions_pass_without_numerical_failure(
        ["--eps", "1", "--d", "1", "--r", "6", "--trials", "100"], capsys)


@pytest.mark.parametrize("params", [
    ["--eps", "1", "--d", "0", "--r", "16", "--trials", "20"],
    ["--eps", "1", "--d", "1", "--r", "12", "--trials", "30"],
], ids=["eps1-d0-r16", "eps1-d1-r12"])
def test_verify_reductions_at_high_rank_has_no_numerical_failure(params, capsys):
    # Each Witt completion here fills 10 to 15 slots from one complement
    # basis, deflated by every completed pair in turn.
    assert_reductions_pass_without_numerical_failure(params, capsys)


def test_verify_rejects_inadmissible_signature(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "hats", "--eps", "-1", "--d", "1"])
    assert exc.value.code == 2


def test_verify_rejects_low_rank(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--r", "1"])
    assert exc.value.code == 2


def test_verify_rejects_zero_trials(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--trials", "0"])
    assert exc.value.code == 2


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2


def test_tol_override_can_force_failure(capsys):
    code, out, err = run_cli(
        ["verify", "--suite", "constants", "--tol",
         "constants.tetrahedron-volume=1e-40"], capsys)
    assert code == 1
    data = json.loads(out)
    assert data["passed"] is False
    failing = [c for c in data["checks"] if not c["passed"]]
    assert [c["name"] for c in failing] == ["constants.tetrahedron-volume"]
    assert "FIRST FAILURE: constants.tetrahedron-volume" in err


def test_malformed_tol_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "constants", "--tol", "oops"])
    assert exc.value.code == 2


def test_out_file_redirects_report(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, err = run_cli(
        ["verify", "--suite", "constants", "--out", str(out_path)], capsys)
    assert code == 0
    assert out == ""
    assert "PASS" in err
    data = json.loads(out_path.read_text(encoding="utf-8"))
    assert data["command"] == "verify"


# ----------------------------------------------------------------------
# reduce
# ----------------------------------------------------------------------

@pytest.mark.parametrize("k", [3, 4, 5])
def test_reduce_tuple_files(k, tmp_path, capsys):
    payload = tuple_payload(1, 0, 3, k, seed=5 + k)
    path = write_payload(tmp_path, payload)
    code, out, err = run_cli(["reduce", "--in", path], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["command"] == "reduce"
    assert data["config"]["k"] == k
    assert data["residual"] <= 1e-8
    assert data["ill_conditioned"] is False
    assert data["genericity_level"] == ("general-position" if k == 3 else "cr-generic")
    # g is an n x n matrix of [re, im] pairs.
    g = data["g"]
    assert len(g) == 6 and len(g[0]) == 6 and len(g[0][0]) == 2
    names = [c["name"] for c in data["checks"]]
    assert names == ["reduce.residual"]


def test_reduce_branch_flag(tmp_path, capsys):
    payload = tuple_payload(1, 1, 2, 4, seed=11)
    path = write_payload(tmp_path, payload)
    code_p, out_p, _ = run_cli(["reduce", "--in", path, "--branch", "1"], capsys)
    code_m, out_m, _ = run_cli(["reduce", "--in", path, "--branch", "-1"], capsys)
    assert code_p == code_m == 0
    g_p = json.loads(out_p)["g"]
    g_m = json.loads(out_m)["g"]
    assert g_p != g_m  # different group elements
    assert json.loads(out_p)["canonical"] == json.loads(out_m)["canonical"]


def test_reduce_degenerate_rejection(tmp_path, capsys):
    # A quadruple on the discriminant locus: Gamma = 1 - z1 - z2 = 0.
    space = make_space(-1, 0, 3)
    v2 = space.e(3) + space.e(2) - space.f(2) + space.f(3)
    v3 = (0.4 * space.e(3) + 0.5 * space.e(2) + 0.3 * space.e(1)
          - 0.5 * space.f(2) + 0.7 * space.f(3))
    payload = {
        "epsilon": -1, "d": 0, "r": 3,
        "points": [[[float(z.real), float(z.imag)] for z in v]
                   for v in (space.e(3), space.f(3), v2, v3)],
    }
    path = write_payload(tmp_path, payload)
    code, out, err = run_cli(["reduce", "--in", path], capsys)
    assert code == 1
    data = json.loads(out)
    assert data["passed"] is False
    assert data["failing"] == "delta"
    assert data["checks"][0]["name"] == "reduce.generic.delta"
    assert "FIRST FAILURE" in err


def test_reduce_numerical_failure_is_reported(tmp_path, capsys, monkeypatch):
    # A cr-generic quadruple on which Witt completion is made to fail
    # numerically: the failure is a report with the check reduce.numerical,
    # not a traceback.  No known input makes it fail by itself any more.
    def failing_completion(*args, **kwargs):
        raise ValueError("pairs are not adapted")

    monkeypatch.setattr("fslab.reduction.witt_complete", failing_completion)
    space = make_space(1, 1, 6)
    t = random_generic_tuple(space, 5, rng_for(0, "x", 52))
    payload = {
        "epsilon": 1, "d": 1, "r": 6,
        "points": [[[float(z.real), float(z.imag)] for z in t.vector(i)]
                   for i in range(4)],
    }
    path = write_payload(tmp_path, payload)
    code, out, err = run_cli(["reduce", "--in", path], capsys)
    assert code == 1
    data = json.loads(out)
    assert data["passed"] is False
    assert [c["name"] for c in data["checks"]] == ["reduce.numerical"]
    assert data["error"]
    assert "FIRST FAILURE: reduce.numerical" in err


def test_reduce_missing_field_is_usage_error(tmp_path, capsys):
    payload = tuple_payload(1, 0, 2, 3, seed=0)
    del payload["points"]
    path = write_payload(tmp_path, payload)
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "--in", path])
    assert exc.value.code == 2


def test_reduce_malformed_entry_names_location(tmp_path, capsys):
    payload = tuple_payload(1, 0, 2, 3, seed=0)
    payload["points"][1][2] = [0.5]  # not an [re, im] pair
    path = write_payload(tmp_path, payload)
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "--in", path])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "points[1][2]" in err


def test_reduce_unreadable_file_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "--in", str(tmp_path / "missing.json")])
    assert exc.value.code == 2


def test_reduce_inadmissible_signature(tmp_path, capsys):
    payload = tuple_payload(1, 0, 2, 3, seed=0)
    payload["epsilon"] = -1
    payload["d"] = 1
    path = write_payload(tmp_path, payload)
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "--in", path])
    assert exc.value.code == 2


# ----------------------------------------------------------------------
# estimate-norm
# ----------------------------------------------------------------------

def test_estimate_norm_vol_p1(capsys):
    code, out, _ = run_cli(
        ["estimate-norm", "--cocycle", "vol-p1", "--trials", "1000"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["command"] == "estimate-norm"
    assert data["config"]["trials"] == 1000
    names = {c["name"] for c in data["checks"]}
    assert names == {"sup.upper", "sup.lower"}
    assert abs(data["estimate"] - data["target"]) <= 5e-3
    assert len(data["argmax"]) == 4 and len(data["argmax"][0]) == 2
    assert data["ambient_norm"] is None


def test_estimate_norm_b4_so4_reports_ratio(capsys):
    code, out, _ = run_cli(
        ["estimate-norm", "--cocycle", "b4-so4", "--trials", "2000",
         "--seed", "1"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["config"]["n"] is None
    assert data["ratio"] == data["estimate"] / data["target"]
    assert abs(data["ambient_norm"] - 10 * 1.0149416064096536) < 1e-6


def test_estimate_norm_bn_upper_bound_only(capsys):
    code, out, _ = run_cli(
        ["estimate-norm", "--cocycle", "b-n", "--n", "2", "--trials", "40"],
        capsys)
    assert code == 0
    data = json.loads(out)
    names = [c["name"] for c in data["checks"]]
    assert names == ["sup.upper"]  # the target is only an upper bound
    assert data["estimate"] < data["target"]


def test_estimate_norm_deterministic(capsys):
    argv = ["estimate-norm", "--cocycle", "b4-so4", "--trials", "500"]
    _, out1, _ = run_cli(argv, capsys)
    _, out2, _ = run_cli(argv, capsys)
    assert strip_time(out1) == strip_time(out2)


def test_estimate_norm_requires_cocycle(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate-norm"])
    assert exc.value.code == 2


def test_estimate_norm_rejects_zero_trials(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate-norm", "--cocycle", "vol-p1", "--trials", "0"])
    assert exc.value.code == 2


def test_estimate_norm_rejects_bad_n(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate-norm", "--cocycle", "b-n", "--n", "1"])
    assert exc.value.code == 2


# ----------------------------------------------------------------------
# usage
# ----------------------------------------------------------------------

def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
