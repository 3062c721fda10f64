"""The semantics of the public result records and validated objects: frozen,
field-ordered constructors with keyword arguments, a field-based repr, equality
and hashing by value for the records and by identity for the objects."""

import inspect

import numpy as np
import pytest

from helpers import plus_density, x_basis_povm
from povmcoh import (
    BoundReport,
    CoherenceResult,
    DensityMatrix,
    Ensemble,
    HaarAverageResult,
    IdentityCheck,
    IncoherenceReport,
    LsmInstance,
    McEstimate,
    NumericError,
    Povm,
    PureState,
    StatePovmResult,
    UncertaintyReport,
    ValidationError,
    Violation,
    discrimination_identity_check,
    measurement_from_ensemble,
)
from povmcoh.bounds import BOUND_SLACK

# class -> (its fields in order, with their defaults, as the constructor takes them);
# a field without a default maps to inspect.Parameter.empty
REQUIRED = inspect.Parameter.empty
VALUE_RECORDS = {
    Violation: {"invariant": REQUIRED, "defect": REQUIRED},
    CoherenceResult: {"value": REQUIRED, "measure_id": REQUIRED, "alpha": None},
    IncoherenceReport: {"incoherent": REQUIRED, "max_defect": REQUIRED, "tol": REQUIRED},
    BoundReport: {"c_l1_value": REQUIRED, "bound_value": REQUIRED, "bound_id": REQUIRED, "parameters": None},
    McEstimate: {"mean": REQUIRED, "std_error": REQUIRED, "samples": REQUIRED},
    HaarAverageResult: {"analytic": REQUIRED, "measure_id": REQUIRED, "alpha": None, "mc_estimate": None,
                        "mc_std_error": None, "sample_count": None},
    IdentityCheck: {"lhs": REQUIRED, "rhs": REQUIRED, "defect": REQUIRED, "instance": REQUIRED},
    UncertaintyReport: {"lhs": REQUIRED, "c": REQUIRED, "c_prime": REQUIRED, "bound_c": REQUIRED,
                        "bound_c_prime": REQUIRED, "entropy_rho": REQUIRED},
}
IDENTITY_RECORDS = {
    LsmInstance: {"ensemble": REQUIRED, "operators": REQUIRED, "error_probability": REQUIRED,
                  "support_rank": REQUIRED, "support_projector": REQUIRED, "support_restricted": REQUIRED,
                  "completeness_defect": REQUIRED},
    StatePovmResult: {"state": REQUIRED, "povm": REQUIRED, "support_restricted": REQUIRED, "support_basis": None},
}
# the validated objects: constructor parameters, then the fields their repr shows
OBJECTS = {
    DensityMatrix: ({"mat": REQUIRED}, ("mat",)),
    PureState: ({"vec": REQUIRED}, ("vec",)),
    Povm: ({"elements": REQUIRED}, ("elements",)),
    Ensemble: ({"states": REQUIRED, "weights": REQUIRED}, ("stack", "weights")),
}


def _identity_check():
    return discrimination_identity_check(plus_density(), x_basis_povm())


def _value_args(cls) -> dict:
    """Keyword arguments for one instance of a value record, every field set."""
    return {
        Violation: dict(invariant="unit_trace", defect=0.25),
        CoherenceResult: dict(value=0.5, measure_id="tsallis", alpha=0.5),
        IncoherenceReport: dict(incoherent=False, max_defect=0.5, tol=1e-9),
        BoundReport: dict(c_l1_value=1.0, bound_value=1.5, bound_id="thm1", parameters=(3.0, 1.5)),
        McEstimate: dict(mean=0.25, std_error=0.01, samples=1000),
        HaarAverageResult: dict(analytic=0.5, measure_id="tsallis", alpha=2.0, mc_estimate=0.49,
                                mc_std_error=0.01, sample_count=1000),
        IdentityCheck: dict(lhs=0.0, rhs=0.0, defect=0.0, instance=_identity_check().instance),
        UncertaintyReport: dict(lhs=1.0, c=0.5, c_prime=0.25, bound_c=2.0, bound_c_prime=2.0, entropy_rho=0.0),
    }[cls]


def _identity_record(cls):
    if cls is LsmInstance:
        return _identity_check().instance
    return measurement_from_ensemble(_identity_check().instance.ensemble)


def _object(cls):
    return {
        DensityMatrix: plus_density,
        PureState: lambda: PureState(np.array([0.6, 0.8j])),
        Povm: x_basis_povm,
        Ensemble: lambda: Ensemble([np.diag([1.0, 0.0]), np.eye(2) / 2.0], [0.25, 0.75]),
    }[cls]()


def _parameters(cls) -> dict:
    return {name: p.default for name, p in inspect.signature(cls).parameters.items()}


def _assert_frozen(obj, name: str):
    with pytest.raises(AttributeError):
        setattr(obj, name, 0)
    with pytest.raises(AttributeError):
        delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.not_a_field = 0


@pytest.mark.parametrize("cls", list(VALUE_RECORDS), ids=lambda c: c.__name__)
def test_value_records(cls):
    fields = VALUE_RECORDS[cls]
    assert _parameters(cls) == fields
    args = _value_args(cls)
    assert list(args) == list(fields)
    record = cls(**args)
    assert [getattr(record, name) for name in fields] == list(args.values())
    twin = cls(*args.values())  # positional and keyword construction agree
    assert record == twin and hash(record) == hash(twin) and record is not twin
    first = next(iter(fields))
    other = cls(**{**args, first: args[first] - 1 if cls is not Violation else "positive"})
    assert record != other
    assert record != tuple(args.values())
    shown = [name for name in fields if name != "instance"]
    assert repr(record) == f"{cls.__name__}({', '.join(f'{n}={args[n]!r}' for n in shown)})"
    _assert_frozen(record, first)


@pytest.mark.parametrize("cls", [CoherenceResult, HaarAverageResult, BoundReport], ids=lambda c: c.__name__)
def test_value_records_take_their_defaults(cls):
    required = [name for name, default in VALUE_RECORDS[cls].items() if default is REQUIRED]
    args = {name: _value_args(cls)[name] for name in required}
    record = cls(**args)
    assert record == cls(*args.values())
    assert all(getattr(record, name) is None for name in VALUE_RECORDS[cls] if name not in required)


def test_identity_checks_ignore_their_instance():
    check, again = _identity_check(), _identity_check()
    assert check.instance is not again.instance
    assert check == again and hash(check) == hash(again)
    assert "instance" not in repr(check)


def _assert_identity_semantics(obj, twin):
    cls = type(obj)
    assert obj == obj and obj != twin and not obj == twin
    assert hash(obj) == object.__hash__(obj)
    # object's own C-level slots, which the weak measure memo relies on for speed
    assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
    assert {obj: 1}[obj] == 1


@pytest.mark.parametrize("cls", list(IDENTITY_RECORDS), ids=lambda c: c.__name__)
def test_identity_records(cls):
    fields = IDENTITY_RECORDS[cls]
    assert _parameters(cls) == fields
    record = _identity_record(cls)
    twin = cls(**{name: getattr(record, name) for name in fields})
    _assert_identity_semantics(record, twin)
    assert repr(record) == f"{cls.__name__}({', '.join(f'{n}={getattr(record, n)!r}' for n in fields)})"
    _assert_frozen(record, next(iter(fields)))


@pytest.mark.parametrize("cls", list(OBJECTS), ids=lambda c: c.__name__)
def test_validated_objects(cls):
    parameters, shown = OBJECTS[cls]
    assert _parameters(cls) == parameters
    obj = _object(cls)
    twin = cls(**{name: getattr(obj, name) for name in parameters} if cls is not Ensemble
               else {"states": obj.stack, "weights": obj.weights})
    _assert_identity_semantics(obj, twin)
    assert repr(obj) == f"{cls.__name__}({', '.join(f'{n}={getattr(obj, n)!r}' for n in shown)})"
    _assert_frozen(obj, shown[0])


def test_cached_properties_still_cache_on_the_frozen_objects():
    povm, ensemble = x_basis_povm(), _object(Ensemble)
    assert povm.sqrt_elements is povm.sqrt_elements
    assert ensemble.states is ensemble.states


def test_constructors_check_their_invariants():
    c_l1 = 1.0
    assert BoundReport(c_l1, c_l1 - BOUND_SLACK / 2, "thm1").bound_value == c_l1 - BOUND_SLACK / 2
    with pytest.raises(NumericError):
        BoundReport(c_l1, c_l1 - 2 * BOUND_SLACK, "thm1")
    with pytest.raises(NumericError):
        BoundReport(c_l1_value=c_l1, bound_value=np.nan, bound_id="thm1")
    with pytest.raises(ValidationError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(ValidationError):
        DensityMatrix(mat=np.eye(2))
    with pytest.raises(ValidationError):
        PureState(vec=np.array([1.0, 1.0]))
