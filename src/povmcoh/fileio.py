"""JSON matrix files.

One object per file:

    {"kind": "state",      "dim": d, "payload": [[[re, im], ...], ...]}
    {"kind": "pure_state", "dim": d, "payload": [[re, im], ...]}
    {"kind": "povm",       "dim": d, "payload": [matrix, ...]}
    {"kind": "ensemble",   "dim": d, "payload": [matrix, ...], "weights": [w, ...]}

Every complex entry is an [re, im] pair.  Serialization uses Python's repr
floats, so a dump/load cycle reproduces finite doubles bit-exactly.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ValidationError
from .objects import DensityMatrix, Ensemble, Povm, PureState

KINDS = ("state", "pure_state", "povm", "ensemble")


def _decode_pair(value, where: str) -> complex:
    if not (isinstance(value, (list, tuple)) and len(value) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)):
        raise ValidationError(f"{where}: expected an [re, im] pair, got {value!r}")
    return complex(value[0], value[1])


def _decode_matrix(rows, dim: int, where: str) -> np.ndarray:
    if not isinstance(rows, list) or len(rows) != dim:
        raise ValidationError(f"{where}: expected {dim} rows")
    out = np.empty((dim, dim), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise ValidationError(f"{where}: row {i} must have {dim} entries")
        for j, pair in enumerate(row):
            out[i, j] = _decode_pair(pair, f"{where}[{i}][{j}]")
    return out


def _encode_matrix(mat: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(mat, dtype=complex)]


def loads(text: str):
    """Parse a matrix-file JSON string into the matching validated object."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValidationError("JSON nested too deeply") from exc
    if not isinstance(doc, dict):
        raise ValidationError("top level must be a JSON object")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ValidationError(f"kind must be one of {KINDS}, got {kind!r}")
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ValidationError(f"dim must be a positive integer, got {dim!r}")
    payload = doc.get("payload")
    if payload is None:
        raise ValidationError("missing payload")

    if kind == "state":
        return DensityMatrix(_decode_matrix(payload, dim, "payload"))
    if kind == "pure_state":
        if not isinstance(payload, list) or len(payload) != dim:
            raise ValidationError(f"payload: expected {dim} amplitude pairs")
        vec = np.array([_decode_pair(p, f"payload[{i}]") for i, p in enumerate(payload)])
        return PureState(vec)
    if not isinstance(payload, list) or not payload:
        raise ValidationError("payload: expected a nonempty list of matrices")
    mats = [_decode_matrix(m, dim, f"payload[{i}]") for i, m in enumerate(payload)]
    if kind == "povm":
        if "weights" in doc:
            raise ValidationError("weights are only valid for ensembles")
        return Povm(mats)
    weights = doc.get("weights")
    if not isinstance(weights, list) or len(weights) != len(mats):
        raise ValidationError("ensemble needs a weights list matching payload length")
    if not all(isinstance(w, (int, float)) and not isinstance(w, bool) for w in weights):
        raise ValidationError("weights must be numbers")
    return Ensemble(mats, weights)


def load(path: str):
    """Read and parse one matrix file."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    return loads(text)


def dumps(obj) -> str:
    """Serialize a DensityMatrix / PureState / Povm / Ensemble to matrix-file JSON."""
    if isinstance(obj, DensityMatrix):
        doc = {"kind": "state", "dim": obj.dim, "payload": _encode_matrix(obj.mat)}
    elif isinstance(obj, PureState):
        doc = {"kind": "pure_state", "dim": obj.dim,
               "payload": [[float(v.real), float(v.imag)] for v in obj.vec]}
    elif isinstance(obj, Povm):
        doc = {"kind": "povm", "dim": obj.dim,
               "payload": [_encode_matrix(e) for e in obj.elements]}
    elif isinstance(obj, Ensemble):
        doc = {"kind": "ensemble", "dim": obj.dim,
               "payload": [_encode_matrix(m) for m in obj.stack],
               "weights": [float(w) for w in obj.weights]}
    else:
        raise ValidationError(f"cannot serialize object of type {type(obj).__name__}")
    return json.dumps(doc)


def dump(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))
        fh.write("\n")
