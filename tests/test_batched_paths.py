"""The batched paths against their per-member and per-outcome definitions.

Each object is decomposed once when it is built; the LSM operators, the
overlap constants c and c' and C_l1 are formed over whole stacks; measure
values are memoised per (rho, POVM) pair.  These tests check the values
against the dense oracles in helpers.py and count the LAPACK calls.
"""

import gc
import math
import weakref

import numpy as np
import pytest

from helpers import (
    dense_l1,
    dense_lsm_error,
    dense_overlap_c,
    dense_overlap_c_prime,
    mixed_rank_povm,
    raised_violations,
    random_density,
    random_rank_density,
    random_unitary,
)
from povmcoh import (
    DensityMatrix,
    Ensemble,
    Povm,
    ValidationError,
    build_lsm,
    discrimination_identity_check,
    ensemble_from_measurement,
    l1_coherence,
    measurement_from_ensemble,
    overlap_constant,
    projective_povm,
    random_povm,
    refined_overlap_constant,
    relative_entropy_coherence,
    tsallis_coherence,
)
from povmcoh import linalg, measures
from povmcoh.objects import Violation

D = 5
TOL = 1e-12
POVMS = ["random4", "random7", "projective", "mixed_rank"]
STATES = ["full", "rank2", "pure"]


def _povm(kind, rng):
    if kind == "projective":
        return projective_povm(random_unitary(rng, D))
    if kind == "mixed_rank":
        return mixed_rank_povm(rng, D)
    return random_povm(D, int(kind[len("random"):]), rng)


def _state(kind, rng):
    if kind == "full":
        return random_density(rng, D)
    return random_rank_density(rng, D, 2 if kind == "rank2" else 1)


def _cases():
    return [(p, s) for p in POVMS for s in STATES]


def _lsm_matches_dense(ensemble):
    instance = build_lsm(ensemble)
    operators, error = dense_lsm_error(ensemble)
    assert isinstance(instance.operators, np.ndarray) and not instance.operators.flags.writeable
    assert instance.operators.shape == (ensemble.size, ensemble.dim, ensemble.dim)
    assert max(np.max(np.abs(got - want)) for got, want in zip(instance.operators, operators)) < TOL
    assert abs(instance.error_probability - error) < TOL
    # the inverse steering map is the same sandwich, restricted to the mixture's support
    result = measurement_from_ensemble(ensemble)
    basis = result.support_basis if result.support_restricted else np.eye(ensemble.dim)
    for got, want in zip(result.povm.elements, operators):
        assert np.max(np.abs(got - basis.conj().T @ want @ basis)) < 1e-10
    mixture = sum(eta * s.mat for eta, s in zip(ensemble.weights, ensemble.states))
    assert np.max(np.abs(ensemble.average_state() - mixture)) < TOL
    return instance


@pytest.mark.parametrize("povm_kind, state_kind", _cases())
def test_steered_lsm_matches_the_per_member_definition(povm_kind, state_kind):
    rng = np.random.default_rng(POVMS.index(povm_kind) * 10 + STATES.index(state_kind) + 900)
    povm, rho = _povm(povm_kind, rng), _state(state_kind, rng)
    ensemble = ensemble_from_measurement(rho, povm)
    instance = _lsm_matches_dense(ensemble)
    # the mixture of the steered members is rho: rank-deficient for rank2 and pure
    assert instance.support_rank == rho.support[0].size
    check = discrimination_identity_check(rho, povm)
    assert abs(check.lhs - 2.0 * dense_lsm_error(ensemble)[1]) < 1e-10


def test_rank_deficient_mixture_matches_the_per_member_definition():
    rng = np.random.default_rng(950)
    basis = random_unitary(rng, D)[:, :3]  # every member lives on a 3-dimensional subspace
    members = []
    for rank in (1, 2, 3, 1):
        a = basis @ (rng.standard_normal((3, rank)) + 1j * rng.standard_normal((3, rank)))
        m = a @ a.conj().T
        members.append(m / np.real(np.trace(m)))
    weights = rng.random(len(members)) + 0.2
    ensemble = Ensemble(np.array(members), weights / weights.sum())
    instance = _lsm_matches_dense(ensemble)
    assert instance.support_rank == 3 and instance.support_restricted


@pytest.mark.parametrize("povm_kind", POVMS)
def test_overlap_constants_match_per_outcome_norms(povm_kind):
    rng = np.random.default_rng(POVMS.index(povm_kind) + 960)
    for f in (random_povm(D, 6, rng), projective_povm(random_unitary(rng, D)), mixed_rank_povm(rng, D)):
        e = _povm(povm_kind, rng)
        assert abs(overlap_constant(e, f) - dense_overlap_c(e, f)) < TOL
        assert abs(refined_overlap_constant(e, f) - dense_overlap_c_prime(e, f)) < TOL


# one outcome or pair per block; four of C_l1's 15 pairs (D x D cores) per block, the
# last block short; or all 15 pairs in one block
@pytest.mark.parametrize("entries", [1, 4 * D * D, 4 * 6 * D * D])
def test_blocked_products_give_the_unblocked_values(monkeypatch, entries):
    rng = np.random.default_rng(970)
    e, f = random_povm(D, 6, rng), mixed_rank_povm(rng, D)
    rho = random_density(rng, D)
    want = overlap_constant(e, f), refined_overlap_constant(e, f), l1_coherence(rho, e).value
    monkeypatch.setattr(linalg, "BLOCK_ENTRIES", entries)
    got = overlap_constant(e, f), refined_overlap_constant(e, f), l1_coherence(DensityMatrix(rho.mat), e).value
    assert np.max(np.abs(np.array(got) - np.array(want))) < TOL
    assert abs(got[2] - dense_l1(rho, e)) < 1e-11


# --------------------------------------------------------------------------
# LAPACK calls


@pytest.fixture
def lapack_calls(monkeypatch):
    """Names of the numpy.linalg decompositions called, in order."""
    calls = []
    for name in ("eigh", "eigvalsh", "svd", "qr"):
        original = getattr(np.linalg, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


def test_objects_are_decomposed_once(lapack_calls):
    rng = np.random.default_rng(980)
    elements, mat = random_povm(D, 4, rng).elements, random_density(rng, D).mat
    lapack_calls.clear()
    povm = Povm(elements)
    povm.root_factors
    povm.sqrt_elements
    assert lapack_calls == ["eigh"]  # one batched call for all four elements
    lapack_calls.clear()
    rho = DensityMatrix(mat)
    rho.support
    assert lapack_calls == ["eigh"]


def test_measure_values_are_memoised_per_pair(lapack_calls):
    rng = np.random.default_rng(981)
    rho, povm = random_density(rng, D), random_povm(D, 4, rng)
    first = [relative_entropy_coherence(rho, povm).value, tsallis_coherence(rho, povm, 0.5).value,
             tsallis_coherence(rho, povm, 2.0).value, l1_coherence(rho, povm).value]
    assert lapack_calls
    lapack_calls.clear()
    again = [relative_entropy_coherence(rho, povm).value, tsallis_coherence(rho, povm, 0.5).value,
             tsallis_coherence(rho, povm, 2.0).value, l1_coherence(rho, povm).value]
    assert again == first
    assert lapack_calls == []
    tsallis_coherence(rho, povm, 1.5)  # another order is another value
    assert lapack_calls == ["svd"]


def test_memo_entries_die_with_their_objects():
    rng = np.random.default_rng(982)
    rho, povm = random_density(rng, D), random_povm(D, 3, rng)
    relative_entropy_coherence(rho, povm)
    tsallis_coherence(rho, povm, 0.5)
    assert rho in measures._MEMO
    rho_ref, povm_ref = weakref.ref(rho), weakref.ref(povm)
    entries = len(measures._MEMO)
    del rho, povm
    gc.collect()
    assert rho_ref() is None and povm_ref() is None
    assert len(measures._MEMO) <= entries - 1  # other dead states may leave with it


# --------------------------------------------------------------------------
# edges of the one-pass validation


def test_exact_zero_values_report_unsigned():
    assert math.copysign(1.0, measures._clamp_value(-0.0, "x")) == 1.0
    rho = DensityMatrix(np.diag([1.0, 0.0]))
    z = projective_povm(np.eye(2))
    for value in (tsallis_coherence(rho, z, 0.5).value, tsallis_coherence(rho, z, 0.3).value,
                  discrimination_identity_check(rho, z).lhs):
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_empty_matrix_is_not_a_state():
    assert raised_violations(DensityMatrix, np.zeros((0, 0))) == [Violation("square", 2.0)]


def test_batched_members_report_every_failing_member():
    good, bad_trace, bad_psd = np.eye(2) / 2.0, np.eye(2), np.diag([1.5, -0.5])
    # members checked in one pass report every failing member; members of two sizes
    # are never built one at a time
    trace, psd = Violation("unit_trace", 1.0), Violation("positive_semidefinite", 0.5)
    for members, weights, expected in (
            ([good, bad_trace, bad_psd], [0.3, 0.3, 0.4], {1: trace, 2: psd}),
            ([good, bad_psd, bad_trace], [0.3, 0.3, 0.4], {1: psd, 2: trace}),
            ([good, np.eye(3) / 3.0], [0.5, 0.5], {1: Violation("dimension", 1.0)})):
        with pytest.raises(ValidationError, match="invalid ensemble") as raised:
            Ensemble(members, weights)
        assert raised.value.violations == [Violation(f"member_{i}_{v.invariant}", v.defect)
                                           for i, v in expected.items()]
