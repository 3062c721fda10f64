"""Coherence of quantum states relative to general measurements: measure
values, certified upper bounds, discrimination identities, uncertainty
relations, and exact-vs-sampled Haar averages.

Importing the package runs none of its layers.  Each layer, errors through
fileio, is registered in sys.modules as a module whose code has not run; the
first access to any of its attributes runs it, so a process compiles and runs
only the layers it uses.  The public names below resolve on first use.  cli is
never registered: `python -m povmcoh.cli` runs it as __main__, and runpy warns
about a module that is already in sys.modules.
"""

import importlib.util
import sys
import threading
import types

__version__ = "0.1.0"

# layer -> the public names it defines; linalg defines none, and fileio, read by the
# CLI, is no public name
_EXPORTS = {
    "errors": (
        "AlphaOutOfRangeError", "BetaNonPositiveError", "ConvergenceFailureError",
        "DegenerateEnsembleError", "DimensionMismatchError", "EmptyEnsembleError",
        "InvalidExponentsError", "NegativeEigenvalueError", "NotHermitianError",
        "NotSquareError", "NotUnitaryError", "NumericError", "PovmcohError",
        "SingularSumError", "ValidationError", "XOutOfRangeError", "ZOutOfRangeError",
    ),
    "linalg": (),
    "objects": (
        "DensityMatrix", "Ensemble", "Povm", "PureState", "Violation", "haar_random_pure",
        "projective_povm", "random_povm", "validate",
    ),
    "measures": (
        "CoherenceResult", "IncoherenceReport", "is_povm_incoherent", "l1_coherence",
        "relative_entropy_coherence", "tsallis_coherence",
    ),
    "bounds": (
        "BoundReport", "bound_b1", "bound_b2", "bound_b3", "figure1_reference_bounds",
        "figure1_state", "figure2_reference_bounds", "figure2_state", "holder_bound",
        "holder_bound_22", "pair_bounds",
    ),
    "lsm": (
        "IdentityCheck", "LsmInstance", "StatePovmResult", "build_lsm",
        "discrimination_identity_check", "ensemble_from_measurement", "measurement_from_ensemble",
    ),
    "uncertainty": (
        "UncertaintyReport", "overlap_constant", "pure_state_bound", "refined_overlap_constant",
        "uncertainty_report",
    ),
    "haar": (
        "HaarAverageResult", "McEstimate", "haar_average", "haar_average_l1_bound",
        "haar_average_relative_entropy", "haar_average_tsallis", "haar_moment",
        "monte_carlo_average", "tsallis_half_trace_formula",
    ),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}
__all__ = sorted([*_EXPORTS, *_LAYER_OF])

# Runs the layers: one lock for all of them, re-entrant because a layer's imports run
# the layers it needs on the same thread.  _running holds the layer whose code runs.
_LOCK = threading.RLock()
_running = set()


class _Layer(types.ModuleType):
    """A registered layer whose code has not run.  Any access to one of its attributes,
    a read, a write or a delete, first runs it (_run), so a value set before the first
    read is not overwritten by the layer's own code."""

    def __getattribute__(self, name):
        _run(self)
        return types.ModuleType.__getattribute__(self, name)

    def __setattr__(self, name, value):
        _run(self)
        types.ModuleType.__setattr__(self, name, value)

    def __delattr__(self, name):
        _run(self)
        types.ModuleType.__delattr__(self, name)


def _run(layer):
    """Run a registered layer's code once, under _LOCK, and make it a plain module.
    Other threads wait on the lock until it has run; the running thread's own accesses,
    from the imports of the layers it needs, see it as far as it has run, as an import
    would.  A layer whose code raises stays registered, and the next access runs it."""
    with _LOCK:
        if type(layer) is not _Layer or layer in _running:
            return
        _running.add(layer)
        try:
            layer.__spec__.loader.exec_module(layer)
        finally:
            _running.discard(layer)
        types.ModuleType.__setattr__(layer, "__class__", types.ModuleType)


for _name in (*_EXPORTS, "fileio"):
    _module = importlib.util.module_from_spec(importlib.util.find_spec(f"{__name__}.{_name}"))
    _module.__class__ = _Layer
    sys.modules[f"{__name__}.{_name}"] = globals()[_name] = _module
del _name, _module


def __getattr__(name):
    """A public name, from its layer, kept here once resolved."""
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_LAYER_OF[name]], name)
    return value


def __dir__():
    return sorted({*__all__, *(name for name in globals() if name.startswith("__"))})
