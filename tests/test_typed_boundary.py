"""The typed boundary of the public API: every function in povmcoh.__all__ and the
four object constructors, called with any arguments from a fixed pool, return or
raise a PovmcohError, never a bare Python or numpy exception."""

import inspect
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import povmcoh
from helpers import plus_density, trine_povm, x_basis_povm
from povmcoh import DensityMatrix, Ensemble, Povm, PovmcohError, PureState

CALLABLES = sorted((getattr(povmcoh, name) for name in povmcoh.__all__
                    if inspect.isfunction(getattr(povmcoh, name))), key=lambda f: f.__name__)
CALLABLES += [DensityMatrix, PureState, Povm, Ensemble]

# No count in the pool is a sample count or size that runs: Monte Carlo takes at
# least 100 samples, and 10**400 is past every cap on a draw.  10**5000 is past
# Python's digit limit for str(), so no error message may print it.
POOL = [
    DensityMatrix(np.eye(2) / 2.0), plus_density(), PureState(np.array([0.6, 0.8j])),
    x_basis_povm(), trine_povm(), Ensemble([np.diag([1.0, 0.0]), np.eye(2) / 2.0], [0.25, 0.75]),
    None, "x", "r", "tsallis", True, False,
    math.nan, math.inf, -math.inf, 10**400, -10**400, 1e308,
    10**5000, -10**5000, [10**5000],
    -1, 0, 1, 2, 3,
    np.eye(2), np.eye(2) / 2.0, np.zeros((0, 0)), np.ones((2, 3)),
]
ARGUMENT = st.one_of(st.sampled_from(POOL), st.builds(np.random.default_rng, st.just(0)))


@st.composite
def calls(draw):
    """A callable with as many pool arguments as its signature takes: at least the
    required ones and at most all of them."""
    func = draw(st.sampled_from(CALLABLES))
    params = inspect.signature(func).parameters.values()
    required = sum(p.default is inspect.Parameter.empty for p in params)
    arity = draw(st.integers(required, len(params)))
    return func, [draw(ARGUMENT) for _ in range(arity)]


@settings(max_examples=300, deadline=None)
@given(call=calls())
def test_every_public_callable_returns_or_raises_a_povmcoh_error(call):
    func, args = call
    try:
        func(*args)
    except PovmcohError:
        pass
