"""End-to-end command-line checks driven through main(argv)."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import plus_density, random_unitary, trine_povm, x_basis_povm, z_basis_povm
from povmcoh import DensityMatrix, Ensemble, NumericError, Povm, PureState, ValidationError, fileio
from povmcoh import projective_povm, random_povm
from povmcoh import cli, haar, lsm


def write_obj(tmp_path, name, obj):
    path = tmp_path / name
    fileio.dump(str(path), obj)
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(out):
    rows = list(csv.reader(io.StringIO(out)))
    return rows[0], rows[1:]


@pytest.fixture
def plus_path(tmp_path):
    return write_obj(tmp_path, "plus.json", PureState(np.array([1.0, 1.0]) / np.sqrt(2.0)))


@pytest.fixture
def z_path(tmp_path):
    return write_obj(tmp_path, "z.json", z_basis_povm())


@pytest.fixture
def x_path(tmp_path):
    return write_obj(tmp_path, "x.json", x_basis_povm())


# --------------------------------------------------------------------------
# compute


def test_compute_relative_entropy_plus_state(capsys, plus_path, z_path):
    code, out, err = run(capsys, ["compute", "--state", plus_path, "--povm", z_path,
                                  "--measure", "r"])
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["value"] - 1.0) < 1e-10
    assert doc["measure"] == "relative_entropy"
    assert doc["incoherent"] is False
    assert abs(doc["incoherence_defect"] - 0.5) < 1e-12


def test_compute_tsallis_requires_alpha(capsys, plus_path, z_path):
    code, out, err = run(capsys, ["compute", "--state", plus_path, "--povm", z_path,
                                  "--measure", "tsallis"])
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ValidationError"


@pytest.mark.parametrize("command, measure", [("compute", "r"), ("compute", "l1"),
                                              ("haar", "r"), ("haar", "l1bound")])
def test_alpha_is_only_for_tsallis(capsys, plus_path, z_path, command, measure):
    state = ["--state", plus_path] if command == "compute" else []
    code, out, err = run(capsys, [command, *state, "--povm", z_path, "--measure", measure,
                                  "--alpha", "0.5"])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "ValidationError"


def test_compute_rejects_alpha_one(capsys, plus_path, z_path):
    code, out, err = run(capsys, ["compute", "--state", plus_path, "--povm", z_path,
                                  "--measure", "tsallis", "--alpha", "1.0"])
    assert code == 2


def test_compute_dimension_mismatch_exit_code(capsys, tmp_path, z_path):
    rho3 = DensityMatrix(np.eye(3, dtype=complex) / 3.0)
    state3 = write_obj(tmp_path, "rho3.json", rho3)
    code, out, err = run(capsys, ["compute", "--state", state3, "--povm", z_path,
                                  "--measure", "l1"])
    assert code == 3
    assert json.loads(err)["error"]["type"] == "DimensionMismatchError"


def test_compute_unreadable_file(capsys, z_path):
    code, out, err = run(capsys, ["compute", "--state", "/no/such/file.json",
                                  "--povm", z_path, "--measure", "r"])
    assert code == 2
    assert "error" in json.loads(err)


def test_compute_rejects_deeply_nested_file(capsys, tmp_path, z_path):
    depth = 100_000
    path = tmp_path / "deep.json"
    path.write_text('{"kind": "state", "dim": 2, "payload": ' + "[" * depth + "]" * depth + "}")
    code, out, err = run(capsys, ["compute", "--state", str(path), "--povm", z_path, "--measure", "r"])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "ValidationError"


# --------------------------------------------------------------------------
# bounds


def test_bounds_figure1_sweep(capsys):
    code, out, err = run(capsys, ["bounds", "--figure", "1"])
    assert code == 0
    header, rows = parse_csv(out)
    assert len(rows) == 81
    assert header[:2] == ["parameter", "c_l1"]
    for name in ("thm1_p2q2", "thm2_ordered", "b1", "b2", "b3", "b1_ref", "b2_ref", "b3_ref"):
        assert name in header
    at = {float(r[0]): r for r in rows}
    row = at[0.5]
    col = {name: i for i, name in enumerate(header)}
    c_l1 = float(row[col["c_l1"]])
    assert abs(c_l1 - 0.5) < 1e-10
    # operator bounds agree with the closed-form reference curves here
    for op, ref in (("b1", "b1_ref"), ("b2", "b2_ref"), ("b3", "b3_ref")):
        assert abs(float(row[col[op]]) - float(row[col[ref]])) < 1e-9
    assert c_l1 <= float(row[col["b1"]]) + 1e-9
    assert c_l1 <= float(row[col["b2"]]) + 1e-9
    assert c_l1 <= float(row[col["b3"]]) + 1e-9


def test_bounds_figure2_sweep(capsys):
    code, out, err = run(capsys, ["bounds", "--figure", "2"])
    assert code == 0
    header, rows = parse_csv(out)
    assert len(rows) == 97
    col = {name: i for i, name in enumerate(header)}
    at = {round(float(r[0]), 6): r for r in rows}
    row = at[0.21]
    b1r = float(row[col["b1_ref"]])
    b2r = float(row[col["b2_ref"]])
    b3r = float(row[col["b3_ref"]])
    # reference-curve ordering at x = 0.21: B2 < B3 < B1
    assert b2r < b3r < b1r
    assert abs(b1r - 2.52) < 1e-9
    # the measure itself coincides with B2 for a pure state in this basis
    assert abs(float(row[col["c_l1"]]) - b2r) < 1e-9


def test_bounds_figure_rejects_state(capsys, plus_path):
    code, out, err = run(capsys, ["bounds", "--figure", "1", "--state", plus_path])
    assert code == 2


def test_bounds_pair_mode(capsys, plus_path, z_path):
    code, out, err = run(capsys, ["bounds", "--state", plus_path, "--povm", z_path])
    assert code == 0
    header, rows = parse_csv(out)
    assert len(rows) == 1
    col = {name: i for i, name in enumerate(header)}
    row = rows[0]
    c_l1 = float(row[col["c_l1"]])
    assert abs(c_l1 - 1.0) < 1e-10
    assert abs(float(row[col["thm1_p2q2"]]) - np.sqrt(2.0)) < 1e-10
    for name in ("thm1_p2_q2", "thm2_ordered", "thm2_uniform", "b1", "b2", "b3"):
        assert float(row[col[name]]) >= c_l1 - 1e-9


def test_bounds_pair_mode_custom_pq(capsys, plus_path, z_path):
    code, out, err = run(capsys, ["bounds", "--state", plus_path, "--povm", z_path,
                                  "--pq", "3,1.5"])
    assert code == 0
    header, rows = parse_csv(out)
    assert "thm1_p3_q1.5" in header


def test_bounds_blank_basis_columns_for_non_projective(capsys, tmp_path, plus_path):
    trivial = write_obj(tmp_path, "trivial.json",
                        __import__("povmcoh").Povm([np.eye(2, dtype=complex)]))
    code, out, err = run(capsys, ["bounds", "--state", plus_path, "--povm", trivial])
    assert code == 0
    header, rows = parse_csv(out)
    col = {name: i for i, name in enumerate(header)}
    assert rows[0][col["b1"]] == ""
    assert rows[0][col["b2"]] == ""
    assert rows[0][col["b3"]] == ""


def test_bounds_rejects_bad_pq(capsys, plus_path, z_path):
    code, out, err = run(capsys, ["bounds", "--state", plus_path, "--povm", z_path,
                                  "--pq", "3,2"])
    assert code == 2


def test_bounds_pair_mode_error_prints_no_header(capsys, tmp_path, z_path):
    state3 = write_obj(tmp_path, "rho3.json", DensityMatrix(np.eye(3) / 3.0))
    code, out, err = run(capsys, ["bounds", "--state", state3, "--povm", z_path])
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"]["type"] == "DimensionMismatchError"


@pytest.mark.parametrize("figure, grid", [("1", "0.7:1:0.1"), ("2", "0.2:0.3:0.05")])
def test_bounds_figure_outside_the_family_prints_no_row(capsys, figure, grid):
    code, out, err = run(capsys, ["bounds", "--figure", figure, "--range", grid])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] in ("ZOutOfRangeError", "XOutOfRangeError")


def test_bounds_rejects_bad_range(capsys):
    code, out, err = run(capsys, ["bounds", "--figure", "1", "--range", "0:0.8:-0.1"])
    assert code == 2


@pytest.mark.parametrize("grid", ["0:0.8:1e-300", "0:0.8:1e-9", "0:inf:0.1", "0:nan:0.1"])
def test_bounds_rejects_oversized_range(capsys, grid):
    # rejected before any grid is allocated: 8e299 and 8e8 points, or no finite count
    code, out, err = run(capsys, ["bounds", "--figure", "1", "--range", grid])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "ValidationError"


def test_range_grid_size_limit():
    assert cli._parse_range("0:0.999999:1e-6", None).size == cli.MAX_RANGE_POINTS
    with pytest.raises(ValidationError):
        cli._parse_range("0:1:1e-6", None)  # one point more


# --------------------------------------------------------------------------
# lsm


def test_lsm_steering_mode(capsys, plus_path, z_path):
    code, out, err = run(capsys, ["lsm", "--state", plus_path, "--povm", z_path])
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["identity"]["tsallis_half"] - 1.0) < 1e-10
    assert abs(doc["identity"]["twice_error"] - 1.0) < 1e-10
    assert doc["identity"]["defect"] <= 1e-10
    assert doc["member_count"] == 2
    assert abs(doc["error_probability"] - 0.5) < 1e-10
    assert doc["support_restricted"] is True  # |+> has rank-1 support


def test_lsm_ensemble_mode(capsys, tmp_path):
    proj0 = np.diag([1.0, 0.0]).astype(complex)
    proj1 = np.diag([0.0, 1.0]).astype(complex)
    ens = Ensemble([proj0, proj1], [0.5, 0.5])
    path = write_obj(tmp_path, "ens.json", ens)
    code, out, err = run(capsys, ["lsm", "--ensemble", path])
    assert code == 0
    doc = json.loads(out)
    assert "identity" not in doc
    assert abs(doc["error_probability"]) < 1e-12
    assert doc["support_rank"] == 2
    assert doc["support_restricted"] is False


def test_exact_zero_values_print_unsigned(capsys, tmp_path, z_path):
    # an incoherent pair: C_T(1/2) is (1 - 1) / (1/2 - 1), an exact -0.0 before the clamp
    zero = write_obj(tmp_path, "zero.json", PureState(np.array([1.0, 0.0])))
    code, out, err = run(capsys, ["compute", "--state", zero, "--povm", z_path,
                                  "--measure", "tsallis", "--alpha", "0.5"])
    assert code == 0
    assert '"value": 0.0' in out and "-0.0" not in out
    code, out, err = run(capsys, ["lsm", "--state", zero, "--povm", z_path])
    assert code == 0
    assert '"tsallis_half": 0.0' in out and "-0.0" not in out


def test_lsm_steering_mode_builds_ensemble_and_lsm_once(capsys, plus_path, z_path, monkeypatch):
    calls = {"ensemble_from_measurement": 0, "build_lsm": 0}

    def counted(name):
        original = getattr(lsm, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    want = run(capsys, ["lsm", "--state", plus_path, "--povm", z_path])
    for name in calls:
        monkeypatch.setattr(lsm, name, counted(name))
    assert run(capsys, ["lsm", "--state", plus_path, "--povm", z_path]) == want
    assert calls == {"ensemble_from_measurement": 1, "build_lsm": 1}


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_lsm_rejects_non_finite_ensemble_weights(capsys, tmp_path, bad):
    # JSON NaN / Infinity literals parse; the ensemble must reject them, not fail later
    doc = json.loads(fileio.dumps(Ensemble([np.eye(2, dtype=complex) / 2.0] * 2, [0.5, 0.5])))
    doc["weights"] = [bad, 1.0]
    path = tmp_path / "bad_weights.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["lsm", "--ensemble", str(path)])
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ValidationError"
    assert [v["invariant"] for v in error["violations"]] == ["weights_finite"]


def test_lsm_names_the_ensemble_member_that_fails(capsys, tmp_path):
    doc = json.loads(fileio.dumps(Ensemble([np.eye(2, dtype=complex) / 2.0] * 2, [0.5, 0.5])))
    doc["payload"][1] = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]  # trace 2
    path = tmp_path / "bad_member.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["lsm", "--ensemble", str(path)])
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["message"].startswith("invalid ensemble: ")
    assert error["violations"][0]["invariant"] == "member_1_unit_trace"


def test_lsm_rejects_ensemble_plus_state(capsys, tmp_path, plus_path):
    ens = Ensemble([np.eye(2, dtype=complex) / 2.0], [1.0])
    path = write_obj(tmp_path, "ens1.json", ens)
    code, out, err = run(capsys, ["lsm", "--ensemble", path, "--state", plus_path])
    assert code == 2


# --------------------------------------------------------------------------
# uncertainty


def test_uncertainty_basis_state(capsys, tmp_path, z_path, x_path):
    zero = write_obj(tmp_path, "zero.json", PureState(np.array([1.0, 0.0])))
    code, out, err = run(capsys, ["uncertainty", "--state", zero, "--povm", z_path,
                                  "--povm2", x_path])
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["lhs"] - 1.0) < 1e-10
    assert abs(doc["c"] - 1.0 / np.sqrt(2.0)) < 1e-12
    assert abs(doc["c_prime"] - 0.5) < 1e-12
    assert abs(doc["bound_c"] - 1.0) < 1e-10
    assert abs(doc["bound_c_prime"] - 1.0) < 1e-10
    assert abs(doc["pure_state_bound"] - 0.5) < 1e-12
    assert doc["satisfied_c"] is True
    assert doc["satisfied_c_prime"] is True
    assert doc["state_is_pure"] is True


def test_uncertainty_same_measurement(capsys, plus_path, z_path):
    code, out, err = run(capsys, ["uncertainty", "--state", plus_path, "--povm", z_path,
                                  "--povm2", z_path])
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["c"] - 1.0) < 1e-12
    assert doc["satisfied_c"] is True


@pytest.mark.parametrize("d", [2, 4, 8])
def test_uncertainty_json_keeps_c_and_the_entropy_in_range(capsys, tmp_path, d):
    # a pure state against (E, E), E a projective basis, and against (F, I): c and c'
    # are 1 up to roundoff, and S(rho) is 0
    rng = np.random.default_rng(180 + d)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    objs = {"rho": PureState(v / np.linalg.norm(v)), "i": Povm([np.eye(d)]),
            "e": projective_povm(random_unitary(rng, d)), "f": random_povm(d, 3, rng)}
    path = {name: write_obj(tmp_path, f"{name}.json", obj) for name, obj in objs.items()}
    for povm, povm2 in (("e", "e"), ("f", "i")):
        code, out, err = run(capsys, ["uncertainty", "--state", path["rho"], "--povm", path[povm],
                                      "--povm2", path[povm2]])
        assert code == 0, err
        doc = json.loads(out)
        assert doc["c"] <= 1.0 and doc["c_prime"] <= 1.0
        assert 0.0 <= doc["entropy_rho"] <= 1e-15 and math.copysign(1.0, doc["entropy_rho"]) == 1.0


# --------------------------------------------------------------------------
# haar


def test_haar_relative_entropy(capsys, z_path):
    code, out, err = run(capsys, ["haar", "--povm", z_path, "--measure", "r"])
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["analytic"] - 1.0 / (2.0 * np.log(2.0))) < 1e-12
    assert "mc_estimate" not in doc


def test_haar_tsallis_half(capsys, z_path):
    code, out, err = run(capsys, ["haar", "--povm", z_path, "--measure", "tsallis",
                                  "--alpha", "0.5"])
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["analytic"] - 2.0 / 3.0) < 1e-12


@pytest.mark.parametrize("argv", [["--measure", "r"], ["--measure", "tsallis", "--alpha", "0.5"]],
                         ids=["r", "tsallis"])
def test_haar_trivial_povm_prints_unsigned_zero(capsys, tmp_path, argv):
    # on {I} every outcome is certain: the averages are exact zeros up to roundoff
    path = write_obj(tmp_path, "identity.json", Povm([np.eye(3, dtype=complex)]))
    code, out, err = run(capsys, ["haar", "--povm", path, *argv])
    assert code == 0
    assert '"analytic": 0.0' in out and "-0.0" not in out


def test_haar_tsallis_below_smallest_alpha_is_invalid_input(capsys, z_path):
    code, out, err = run(capsys, ["haar", "--povm", z_path, "--measure", "tsallis",
                                  "--alpha", "1e-6"])
    assert code == 2 and out == ""
    assert "moment order" in json.loads(err)["error"]["message"]


def test_haar_l1bound(capsys, z_path):
    code, out, err = run(capsys, ["haar", "--povm", z_path, "--measure", "l1bound"])
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["bound"] - 1.0) < 1e-12
    assert abs(doc["universal_bound"] - 1.0) < 1e-12


def test_haar_mc_deterministic_for_seed(capsys, z_path):
    argv = ["haar", "--povm", z_path, "--measure", "r", "--mc", "20000", "--seed", "11"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv + ["--workers", "4"])
    assert code1 == code2 == 0
    a, b = json.loads(out1), json.loads(out2)
    assert a["mc_estimate"] == b["mc_estimate"]
    assert a["sigma_distance"] <= 4.0
    assert a["seed"] == 11


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_haar_rejects_fewer_than_one_worker(capsys, z_path, workers):
    code, out, err = run(capsys, ["haar", "--povm", z_path, "--measure", "r", "--mc", "100",
                                  "--workers", workers])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "ValidationError"


def test_haar_rejects_mc_above_the_limit(capsys, z_path):
    code, out, err = run(capsys, ["haar", "--povm", z_path, "--measure", "r",
                                  "--mc", str(haar.MAX_MC_SAMPLES + 1)])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "ValidationError"


def test_haar_seed_from_environment(capsys, z_path, monkeypatch):
    monkeypatch.setenv("COH_SEED", "123")
    code, out, err = run(capsys, ["haar", "--povm", z_path, "--measure", "r",
                                  "--mc", "10000"])
    assert code == 0
    assert json.loads(out)["seed"] == 123


def test_haar_seed_default_zero(capsys, z_path, monkeypatch):
    monkeypatch.delenv("COH_SEED", raising=False)
    code, out, err = run(capsys, ["haar", "--povm", z_path, "--measure", "r",
                                  "--mc", "10000"])
    assert code == 0
    assert json.loads(out)["seed"] == 0


def test_haar_rejects_bad_env_seed(capsys, z_path, monkeypatch):
    monkeypatch.setenv("COH_SEED", "not-a-number")
    code, out, err = run(capsys, ["haar", "--povm", z_path, "--measure", "r",
                                  "--mc", "10000"])
    assert code == 2


def test_haar_rejects_negative_seed(capsys, z_path, monkeypatch):
    monkeypatch.delenv("COH_SEED", raising=False)
    argv = ["haar", "--povm", z_path, "--measure", "r", "--mc", "10000"]
    code, out, err = run(capsys, argv + ["--seed", "-1"])
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ValidationError"
    monkeypatch.setenv("COH_SEED", "-1")
    code, out, err = run(capsys, argv)
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ValidationError"


# --------------------------------------------------------------------------
# exit codes


@pytest.mark.parametrize("argv", [
    ["haar", "--measure", "r"],
    ["haar", "--povm", "p.json", "--measure", "q"],
    ["haar", "--povm", "p.json", "--measure", "r", "--seed", "abc"],
    [],
])
def test_usage_errors_are_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "usage:" not in err
    assert json.loads(err)["error"]["type"] == "ValidationError"


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_numeric_error_exit_code(capsys, plus_path, z_path, monkeypatch):
    def boom(args):
        raise NumericError("synthetic numeric failure")

    monkeypatch.setattr(cli, "cmd_compute", boom)
    code, out, err = run(capsys, ["compute", "--state", plus_path, "--povm", z_path,
                                  "--measure", "r"])
    assert code == 4
    assert json.loads(err)["error"]["type"] == "NumericError"


# --------------------------------------------------------------------------
# any argv over any file


def _entries(mat):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat, dtype=complex)]


HUGE = np.array([[0.5, 1.7e308 * (1 + 1j)], [1.7e308 * (1 - 1j), 0.5]])  # Hermitian, trace 1
FILE_TEXTS = {
    "state": fileio.dumps(plus_density()),
    "pure_state": fileio.dumps(PureState(np.array([0.6, 0.8j]))),
    "state_3": fileio.dumps(DensityMatrix(np.eye(3) / 3.0)),
    "povm_z": fileio.dumps(z_basis_povm()),
    "povm_x": fileio.dumps(x_basis_povm()),
    "povm_trine": fileio.dumps(trine_povm()),
    "ensemble": fileio.dumps(Ensemble([np.diag([1.0, 0.0]), np.eye(2) / 2.0], [0.25, 0.75])),
    "ragged_povm": '{"kind": "povm", "dim": 2, "payload": [[[[1, 0], [0, 0]], [[0, 0]]]]}',
    "ragged_ensemble": json.dumps({"kind": "ensemble", "dim": 2, "payload": [_entries(np.eye(2) / 2)],
                                   "weights": [0.5, 0.5]}),
    "nan_state": '{"kind": "state", "dim": 2, "payload": [[[NaN, 0], [0, 0]], [[0, 0], [0.5, 0]]]}',
    "infinity_povm": '{"kind": "povm", "dim": 2, "payload": [[[[Infinity, 0], [0, 0]], [[0, 0], [0, 0]]]]}',
    "huge_state": json.dumps({"kind": "state", "dim": 2, "payload": _entries(HUGE)}),
    "huge_diagonal": json.dumps({"kind": "state", "dim": 2, "payload": _entries(np.diag([1e308, -1e308]))}),
    "huge_povm": json.dumps({"kind": "povm", "dim": 2, "payload": [_entries(HUGE), _entries(np.eye(2) - HUGE)]}),
    "huge_pure_state": json.dumps({"kind": "pure_state", "dim": 2, "payload": [[1e308, 1e308], [1e308, 0]]}),
    "huge_weights": json.dumps({"kind": "ensemble", "dim": 2, "payload": [_entries(np.eye(2) / 2)] * 2,
                                "weights": [1e308, 1e308]}),
    "wrong_kind": '{"kind": "operator", "dim": 2, "payload": []}',
    "not_json": '{"kind": "state", "dim": 2, "payload": [[',
}
VALID_FILES = {"state": ["state", "pure_state", "state_3"], "povm": ["povm_z", "povm_x", "povm_trine"],
               "ensemble": ["ensemble"]}
NUMBERS = ["nan", "inf", "1e308", "-1", "x", "0.5", "2"]
FLAGS = {
    "compute": {"--state": "state", "--povm": "povm", "--measure": ["r", "l1", "tsallis", "q"],
                "--alpha": NUMBERS},
    "bounds": {"--state": "state", "--povm": "povm", "--figure": ["1", "2", "3", "x"],
               "--range": ["0:0.1:0.05", "0.2:0.24:0.02", "0.7:1:0.1", "nan:1:0.1", "0:inf:1", "1:0:0.1",
                           "0:0.1:0", "0:0.1:-1", "x"],
               "--pq": ["3,1.5", "2,2", "nan,nan", "inf,1", "1e308,1", "-1,2", "x", "1,1,1"]},
    "lsm": {"--ensemble": "ensemble", "--state": "state", "--povm": "povm"},
    "uncertainty": {"--state": "state", "--povm": "povm", "--povm2": "povm"},
    "haar": {"--povm": "povm", "--measure": ["r", "tsallis", "l1bound", "l1"], "--alpha": NUMBERS,
             "--mc": ["100", "300", *NUMBERS], "--seed": ["0", "7", *NUMBERS],
             "--workers": ["1", "2", *NUMBERS]},
}


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_files")
    for name, text in FILE_TEXTS.items():
        (root / f"{name}.json").write_text(text)
    return lambda name: str(root / f"{name}.json")


@st.composite
def cli_argv(draw):
    """A subcommand with any of its flags, each with a valid or any value; a file flag
    names a valid file of its kind, any file, or a missing one."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    for flag, values in FLAGS[command].items():
        if draw(st.integers(0, 3)) == 3:  # each flag in three draws of four
            continue
        if isinstance(values, str):
            pool = st.sampled_from([*FILE_TEXTS, "missing"])
            values = st.one_of(st.sampled_from(VALID_FILES[values]), pool)
        else:
            values = st.sampled_from(values)
        argv += [flag, draw(values)]
    return argv + draw(st.sampled_from([[], [], [], ["--bogus"], ["extra"]]))


@settings(max_examples=250, deadline=None)
@given(argv=cli_argv())
def test_every_argv_exits_with_a_contract_code(cli_files, argv):
    # files are named by key in the drawn argv, and by path in the one run
    argv = [cli_files(a) if a in FILE_TEXTS or a == "missing" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # a warning would print to stderr
        code = cli.main(argv)
    assert [str(w.message) for w in caught] == []
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert out.getvalue() and err.getvalue() == ""
        return
    assert out.getvalue() == ""
    text = err.getvalue()
    assert text.endswith("\n") and text.count("\n") == 1
    assert set(json.loads(text)) == {"error"}


# --------------------------------------------------------------------------
# import path


def test_cli_import_path_stays_light():
    """A fresh `import povmcoh.cli` loads every layer module but none of the
    modules only a rare branch needs. It runs in a subprocess: pytest itself
    imports logging."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = "import json, sys; import povmcoh.cli; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    loaded = set(json.loads(proc.stdout))
    assert {"numpy.random", "logging", "concurrent.futures"}.isdisjoint(loaded)
    layers = ("linalg", "objects", "measures", "bounds", "lsm", "uncertainty", "haar", "fileio", "cli")
    assert {f"povmcoh.{layer}" for layer in layers} <= loaded
