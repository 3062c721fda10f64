"""JSON matrix-file serialization: bit-exact roundtrips and rejection of
malformed documents."""

import json

import numpy as np
import pytest

from helpers import random_density, random_ensemble, trine_povm
from povmcoh import (
    DensityMatrix,
    Ensemble,
    Povm,
    PureState,
    ValidationError,
    random_povm,
)
from povmcoh import fileio


def test_state_roundtrip_bit_exact():
    rng = np.random.default_rng(70)
    rho = random_density(rng, 4)
    back = fileio.loads(fileio.dumps(rho))
    assert isinstance(back, DensityMatrix)
    assert np.array_equal(back.mat, rho.mat)


def test_pure_state_roundtrip_bit_exact():
    # deliberately awkward doubles: irrational phases, subnormal-adjacent mags
    vec = np.array([
        np.exp(1j * np.pi / 7) * np.sqrt(1.0 / 3.0),
        np.exp(1j * np.sqrt(2.0)) * np.sqrt(2.0 / 3.0),
    ])
    psi = PureState(vec)
    back = fileio.loads(fileio.dumps(psi))
    assert isinstance(back, PureState)
    assert np.array_equal(back.vec, psi.vec)


def test_povm_roundtrip_bit_exact():
    povm = trine_povm()
    back = fileio.loads(fileio.dumps(povm))
    assert isinstance(back, Povm)
    assert back.outcomes == 3
    for got, want in zip(back.elements, povm.elements):
        assert np.array_equal(got, want)


def test_random_povm_roundtrip_bit_exact():
    povm = random_povm(5, 4, np.random.default_rng(71))
    back = fileio.loads(fileio.dumps(povm))
    for got, want in zip(back.elements, povm.elements):
        assert np.array_equal(got, want)


def test_ensemble_roundtrip_bit_exact():
    ens = random_ensemble(np.random.default_rng(72), 3, 4)
    back = fileio.loads(fileio.dumps(ens))
    assert isinstance(back, Ensemble)
    assert np.array_equal(back.weights, ens.weights)
    for got, want in zip(back.states, ens.states):
        assert np.array_equal(got.mat, want.mat)


def test_dump_and_load_files(tmp_path):
    path = tmp_path / "state.json"
    rho = random_density(np.random.default_rng(73), 3)
    fileio.dump(str(path), rho)
    back = fileio.load(str(path))
    assert np.array_equal(back.mat, rho.mat)
    # file is a single JSON object with a trailing newline
    text = path.read_text()
    assert text.endswith("\n")
    json.loads(text)


def test_load_missing_file():
    with pytest.raises(ValidationError):
        fileio.load("/nonexistent/definitely/missing.json")


def test_loads_rejects_invalid_json():
    with pytest.raises(ValidationError):
        fileio.loads("{not json")


def test_loads_rejects_deeply_nested_json():
    depth = 100_000
    text = '{"kind": "state", "dim": 2, "payload": ' + "[" * depth + "]" * depth + "}"
    with pytest.raises(ValidationError, match="nested"):
        fileio.loads(text)


def test_loads_rejects_non_object():
    with pytest.raises(ValidationError):
        fileio.loads("[1, 2, 3]")


def test_loads_rejects_unknown_kind():
    with pytest.raises(ValidationError):
        fileio.loads('{"kind": "matrix", "dim": 2, "payload": []}')


def test_loads_rejects_bad_dim():
    # the payload is a valid 1x1 state, so only the dim can be at fault
    for dim in ("2", 0, -1, 2.5, None, True):
        doc = {"kind": "state", "dim": dim, "payload": [[[1.0, 0.0]]]}
        with pytest.raises(ValidationError):
            fileio.loads(json.dumps(doc))


def test_loads_rejects_empty_element_list():
    with pytest.raises(ValidationError, match="nonempty list of matrices"):
        fileio.loads('{"kind": "povm", "dim": 2, "payload": []}')


def test_loads_rejects_missing_payload():
    with pytest.raises(ValidationError):
        fileio.loads('{"kind": "state", "dim": 2}')


def test_loads_rejects_wrong_matrix_shape():
    # 2x2 dim declared, 1 row given
    doc = {"kind": "state", "dim": 2, "payload": [[[0.5, 0.0], [0.0, 0.0]]]}
    with pytest.raises(ValidationError):
        fileio.loads(json.dumps(doc))


def test_loads_rejects_bad_entry_encoding():
    # entries must be [re, im] pairs, not bare floats, of JSON numbers in the double range
    for text in ("[[1.0]]", "[[[true, 0]]]", '[[["1", 0]]]', "[[[1%s, 0]]]" % ("0" * 400)):
        with pytest.raises(ValidationError):
            fileio.loads('{"kind": "state", "dim": 1, "payload": %s}' % text)


def test_loads_rejects_pure_state_wrong_length():
    doc = {"kind": "pure_state", "dim": 3, "payload": [[1.0, 0.0], [0.0, 0.0]]}
    with pytest.raises(ValidationError):
        fileio.loads(json.dumps(doc))


# one object of each matrix-file kind
SAMPLES = {
    "state": lambda: random_density(np.random.default_rng(77), 3),
    "pure_state": lambda: PureState(np.array([0.6, 0.8j])),
    "povm": trine_povm,
    "ensemble": lambda: random_ensemble(np.random.default_rng(78), 2, 3),
}


@pytest.mark.parametrize("kind", ["state", "pure_state", "povm"])
def test_loads_rejects_weights_on_povm(kind):
    # only an ensemble takes weights, whatever they hold
    doc = json.loads(fileio.dumps(SAMPLES[kind]()))
    doc["weights"] = [0.5, 0.25, 0.25] if kind == "povm" else "junk"
    with pytest.raises(ValidationError, match="weights are only valid for ensembles"):
        fileio.loads(json.dumps(doc))


def test_every_kind_roundtrips_with_the_same_bytes():
    assert tuple(SAMPLES) == fileio.KINDS
    for kind, make in SAMPLES.items():
        text = fileio.dumps(make())
        doc = json.loads(text)
        assert list(doc) == ["kind", "dim", "payload"] + ["weights"] * (kind == "ensemble")
        assert doc["kind"] == kind
        assert fileio.dumps(fileio.loads(text)) == text


def test_loads_rejects_ensemble_without_weights():
    ens_doc = json.loads(fileio.dumps(random_ensemble(np.random.default_rng(74), 2, 2)))
    del ens_doc["weights"]
    with pytest.raises(ValidationError):
        fileio.loads(json.dumps(ens_doc))


def test_loads_rejects_weights_length_mismatch():
    ens_doc = json.loads(fileio.dumps(random_ensemble(np.random.default_rng(75), 2, 3)))
    ens_doc["weights"] = ens_doc["weights"][:2]
    with pytest.raises(ValidationError):
        fileio.loads(json.dumps(ens_doc))


def test_loads_rejects_non_numeric_weights():
    ens_doc = json.loads(fileio.dumps(random_ensemble(np.random.default_rng(76), 2, 2)))
    ens_doc["weights"] = ["0.5", 0.5]
    with pytest.raises(ValidationError):
        fileio.loads(json.dumps(ens_doc))


def test_loads_validates_decoded_object():
    # well-formed JSON whose matrix is not a density matrix still fails
    bad = np.array([[0.9, 0.0], [0.0, 0.9]], dtype=complex)  # trace 1.8
    doc = {"kind": "state", "dim": 2, "payload": fileio._encode(bad)}
    with pytest.raises(ValidationError):
        fileio.loads(json.dumps(doc))


def test_dumps_rejects_foreign_type():
    with pytest.raises(ValidationError):
        fileio.dumps(np.eye(2))
