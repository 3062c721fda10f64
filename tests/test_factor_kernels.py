"""The support-factor kernels against dense per-block evaluation.

Every measure and trace-norm bound works from rho's support eigenpairs and r x r
or d x r cores; these tests rebuild each value block by block from the full d x d
state and check agreement on low-rank, full-rank and wide-spread spectra.
"""

import numpy as np
import pytest

from helpers import (
    dense_holder,
    dense_holder_22,
    dense_incoherence_defect,
    dense_l1,
    dense_pair_bounds,
    dense_relative_entropy,
    dense_tsallis,
    random_density,
    random_rank_density,
    random_unitary,
    spread_density,
)
from povmcoh import (
    holder_bound,
    holder_bound_22,
    is_povm_incoherent,
    l1_coherence,
    pair_bounds,
    projective_povm,
    random_povm,
    relative_entropy_coherence,
    tsallis_coherence,
)
from povmcoh.measures import (
    pure_l1_coherence,
    pure_relative_entropy_coherence,
    pure_state_probabilities,
    pure_tsallis_coherence,
)

ATOL = 1e-11
D = 6


def _state(kind, rng):
    if kind == "rank1":
        return random_rank_density(rng, D, 1)
    if kind == "rank2":
        return random_rank_density(rng, D, 2)
    if kind == "full":
        return random_density(rng, D)
    return spread_density(rng, D)


def _povms(rng):
    return [random_povm(D, 4, rng), random_povm(D, 9, rng), projective_povm(random_unitary(rng, D))]


STATES = ["rank1", "rank2", "full", "spread"]


@pytest.mark.parametrize("kind", STATES)
def test_measures_match_dense_blocks(kind):
    rng = np.random.default_rng(STATES.index(kind) + 40)
    for povm in _povms(rng):
        rho = _state(kind, rng)
        assert abs(l1_coherence(rho, povm).value - dense_l1(rho, povm)) < ATOL
        assert abs(relative_entropy_coherence(rho, povm).value - dense_relative_entropy(rho, povm)) < ATOL
        for alpha in (0.5, 2.0):
            assert abs(tsallis_coherence(rho, povm, alpha).value - dense_tsallis(rho, povm, alpha)) < ATOL


@pytest.mark.parametrize("kind", STATES)
def test_bounds_and_incoherence_defect_match_dense_blocks(kind):
    rng = np.random.default_rng(STATES.index(kind) + 50)
    for povm in _povms(rng):
        rho = _state(kind, rng)
        ordered, uniform = pair_bounds(rho, povm)
        want_ordered, want_uniform = dense_pair_bounds(rho, povm)
        assert abs(ordered.bound_value - want_ordered) < ATOL
        assert abs(uniform.bound_value - want_uniform) < ATOL
        assert abs(holder_bound(rho, povm, 3.0, 1.5).bound_value - dense_holder(rho, povm, 3.0, 1.5)) < ATOL
        assert abs(holder_bound_22(rho, povm).bound_value - dense_holder_22(rho, povm)) < ATOL
        assert abs(is_povm_incoherent(rho, povm).max_defect - dense_incoherence_defect(rho, povm)) < ATOL


def test_spread_spectrum_straddles_the_support_cut():
    rho = spread_density(np.random.default_rng(7), D)
    w, _ = rho.support
    assert 1 < w.size < D  # some eigenvalues fall below 1e-13 * max and are dropped


def test_rank_one_states_reproduce_the_pure_state_forms():
    rng = np.random.default_rng(60)
    for povm in _povms(rng):
        rho = random_rank_density(rng, D, 1)
        w, v = rho.support
        assert w.size == 1
        p = pure_state_probabilities(v[:, 0], povm)
        assert abs(l1_coherence(rho, povm).value - pure_l1_coherence(p)) < ATOL
        assert abs(relative_entropy_coherence(rho, povm).value - pure_relative_entropy_coherence(p)) < ATOL
        for alpha in (0.5, 2.0):
            assert abs(tsallis_coherence(rho, povm, alpha).value - pure_tsallis_coherence(p, alpha)) < ATOL
