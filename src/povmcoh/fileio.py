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

# kind -> (class, attribute holding the payload, payload axes: a d x d matrix, a length-d
# vector or a nonempty list of d x d matrices) of each matrix file; only an ensemble has weights
_KINDS = {"state": (DensityMatrix, "mat", 2), "pure_state": (PureState, "vec", 1),
          "povm": (Povm, "elements", 3), "ensemble": (Ensemble, "stack", 3)}
KINDS = tuple(_KINDS)


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

    cls, _, axes = _KINDS[kind]
    if axes == 3 and not (isinstance(payload, list) and payload):
        raise ValidationError("payload: expected a nonempty list of matrices")
    array = _decode(payload, (len(payload), dim, dim) if axes == 3 else (dim,) * axes)
    if kind != "ensemble":
        if "weights" in doc:
            raise ValidationError("weights are only valid for ensembles")
        return cls(array)
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
    kind = next((kind for kind, (cls, *_) in _KINDS.items() if isinstance(obj, cls)), None)
    if kind is None:
        raise ValidationError(f"cannot serialize object of type {type(obj).__name__}")
    doc = {"kind": kind, "dim": obj.dim, "payload": _encode(getattr(obj, _KINDS[kind][1]))}
    if kind == "ensemble":
        doc["weights"] = [float(w) for w in obj.weights]
    return json.dumps(doc)


def dump(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj) + "\n")
