"""JSON matrix files.

One object per file:

    {"kind": "state",      "dim": d, "payload": [[[re, im], ...], ...]}
    {"kind": "pure_state", "dim": d, "payload": [[re, im], ...]}
    {"kind": "povm",       "dim": d, "payload": [matrix, ...]}
    {"kind": "ensemble",   "dim": d, "payload": [matrix, ...], "weights": [w, ...]}

Every complex entry is an [re, im] pair of JSON numbers.  Serialization uses
Python's repr floats, so a dump/load cycle reproduces finite doubles bit-exactly.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ValidationError, as_array
from .objects import DensityMatrix, Ensemble, Povm, PureState

KINDS = ("state", "pure_state", "povm", "ensemble")


def _decode(payload, shape: tuple) -> np.ndarray:
    """The complex array of the given shape that a payload of [re, im] pairs holds:
    nested lists of shape (*shape, 2) whose entries are JSON numbers, converted
    exactly (a negative zero stays negative)."""
    parts = np.array(payload, dtype=object)
    if parts.shape != (*shape, 2):
        raise ValidationError(f"payload: expected [re, im] pairs in nested lists of shape "
                              f"{(*shape, 2)}, got shape {parts.shape}")
    numbers = [type(x) in (int, float) for x in parts.flat]  # bool is not a JSON number
    if not all(numbers):
        at = np.unravel_index(numbers.index(False), parts.shape)
        where = "".join(f"[{i}]" for i in at)
        raise ValidationError(f"payload{where}: expected a JSON number, got {parts[at]!r}")
    return as_array(parts, ValidationError, "payload", float).view(complex)[..., 0]


def _encode(a: np.ndarray) -> list:
    return np.stack((a.real, a.imag), -1).tolist()


def loads(text: str):
    """Parse a matrix-file JSON string into the matching validated object."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit of int()
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

    if kind in ("povm", "ensemble"):
        if not isinstance(payload, list) or not payload:
            raise ValidationError("payload: expected a nonempty list of matrices")
        shape = (len(payload), dim, dim)
    else:
        shape = (dim, dim) if kind == "state" else (dim,)
    array = _decode(payload, shape)
    if kind == "state":
        return DensityMatrix(array)
    if kind == "pure_state":
        return PureState(array)
    if kind == "povm":
        if "weights" in doc:
            raise ValidationError("weights are only valid for ensembles")
        return Povm(array)
    weights = doc.get("weights")
    if not isinstance(weights, list) or len(weights) != len(array):
        raise ValidationError("ensemble needs a weights list matching payload length")
    if not all(type(w) in (int, float) for w in weights):
        raise ValidationError("weights must be numbers")
    return Ensemble(array, weights)


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
        doc = {"kind": "state", "dim": obj.dim, "payload": _encode(obj.mat)}
    elif isinstance(obj, PureState):
        doc = {"kind": "pure_state", "dim": obj.dim, "payload": _encode(obj.vec)}
    elif isinstance(obj, Povm):
        doc = {"kind": "povm", "dim": obj.dim, "payload": _encode(obj.elements)}
    elif isinstance(obj, Ensemble):
        doc = {"kind": "ensemble", "dim": obj.dim, "payload": _encode(obj.stack),
               "weights": [float(w) for w in obj.weights]}
    else:
        raise ValidationError(f"cannot serialize object of type {type(obj).__name__}")
    return json.dumps(doc)


def dump(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))
        fh.write("\n")
