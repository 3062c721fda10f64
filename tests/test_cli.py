"""End-to-end command-line checks driven through main(argv)."""

import csv
import io
import json

import numpy as np
import pytest

from helpers import plus_density, x_basis_povm, z_basis_povm
from povmcoh import DensityMatrix, Ensemble, NumericError, PureState, fileio
from povmcoh import cli


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


def test_bounds_rejects_bad_range(capsys):
    code, out, err = run(capsys, ["bounds", "--figure", "1", "--range", "0:0.8:-0.1"])
    assert code == 2


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


def test_numeric_error_exit_code(capsys, plus_path, z_path, monkeypatch):
    def boom(args):
        raise NumericError("synthetic numeric failure")

    monkeypatch.setattr(cli, "cmd_compute", boom)
    code, out, err = run(capsys, ["compute", "--state", plus_path, "--povm", z_path,
                                  "--measure", "r"])
    assert code == 4
    assert json.loads(err)["error"]["type"] == "NumericError"
