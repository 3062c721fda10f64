"""Least-square measurement, its error probability, and the two-way
state/measurement <-> ensemble correspondence."""

import numpy as np
import pytest

import mp_oracle
from helpers import (
    plus_density,
    random_density,
    random_ensemble,
    random_rank_density,
    random_unitary,
    z_basis_povm,
)
from povmcoh import (
    DensityMatrix,
    Ensemble,
    NumericError,
    Povm,
    PureState,
    build_lsm,
    discrimination_identity_check,
    ensemble_from_measurement,
    measurement_from_ensemble,
    projective_povm,
    random_povm,
    tsallis_coherence,
    validate,
)
from povmcoh import linalg


def two_state_ensemble(v1, v2, w=(0.5, 0.5)):
    s1 = PureState(np.asarray(v1, dtype=complex)).density()
    s2 = PureState(np.asarray(v2, dtype=complex)).density()
    return Ensemble([s1, s2], np.asarray(w))


@pytest.mark.parametrize("excess, clamped", [(5e-10, True), (1e-8, False)])
def test_lsm_success_sum_past_one_is_roundoff_or_refused(monkeypatch, excess, clamped):
    # orthogonal states: the operators are the projectors and the error is 0; scaling
    # them by 1 + excess puts the success sum past 1 by excess.  Roundoff reads 0, as
    # for a measure value (measures._clamp_value); a larger excess is a kernel bug
    ens = two_state_ensemble([1.0, 0.0], [0.0, 1.0])
    sandwich = linalg.support_sandwich
    monkeypatch.setattr(linalg, "support_sandwich", lambda *args: (1.0 + excess) * sandwich(*args))
    if clamped:
        assert build_lsm(ens).error_probability == 0.0
    else:
        with pytest.raises(NumericError, match="LSM error probability"):
            build_lsm(ens)


def test_lsm_orthogonal_states_zero_error():
    ens = two_state_ensemble([1.0, 0.0], [0.0, 1.0])
    instance = build_lsm(ens)
    assert abs(instance.error_probability) < 1e-12
    assert not instance.support_restricted


def test_lsm_identical_states_half_error():
    plus = [1.0 / np.sqrt(2.0)] * 2
    ens = two_state_ensemble(plus, plus)
    instance = build_lsm(ens)
    assert abs(instance.error_probability - 0.5) < 1e-12
    # the mixture is rank one, so everything lives on a 1d support
    assert instance.support_rank == 1
    assert instance.support_restricted


def test_lsm_single_member_zero_error():
    rng = np.random.default_rng(30)
    ens = Ensemble([random_density(rng, 3)], [1.0])
    instance = build_lsm(ens)
    assert abs(instance.error_probability) < 1e-12
    assert instance.support_rank == 3


def test_lsm_operators_resolve_support():
    # two pure states spanning 2 of 3 dimensions: operators complete on the
    # support projector, flagged restricted
    ens = two_state_ensemble([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    instance = build_lsm(ens)
    assert instance.support_rank == 2
    assert instance.support_restricted
    total = sum(instance.operators)
    assert np.max(np.abs(total - instance.support_projector)) < 1e-8
    assert instance.completeness_defect < 1e-8


def test_lsm_and_inversion_flag_a_nearly_singular_average_alike():
    # the average diag(1 - 5e-11, 5e-11) keeps rank 2 under KERNEL_RTOL, but its least
    # eigenvalue is below FULL_RANK_TOL: both directions call the support restricted
    ens = Ensemble([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], np.array([1.0 - 5e-11, 5e-11]))
    instance = build_lsm(ens)
    assert instance.support_rank == 2 and instance.support_restricted
    assert measurement_from_ensemble(ens).support_restricted
    # the support cut is the same: the operators resolve the identity, the error is 0
    assert np.max(np.abs(instance.operators.sum(axis=0) - np.eye(2))) < 1e-8
    assert abs(instance.error_probability) < 1e-12


def test_lsm_error_probability_in_unit_interval():
    rng = np.random.default_rng(31)
    for _ in range(25):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(1, 6))
        instance = build_lsm(random_ensemble(rng, d, n))
        assert -1e-12 <= instance.error_probability <= 1.0 + 1e-12


def test_ensemble_from_measurement_maximally_mixed():
    rng = np.random.default_rng(32)
    d = 3
    rho = DensityMatrix(np.eye(d, dtype=complex) / d)
    basis = random_unitary(rng, d)
    ens = ensemble_from_measurement(rho, projective_povm(basis))
    assert np.allclose(ens.weights, np.full(d, 1.0 / d), atol=1e-12)
    for j, state in enumerate(ens.states):
        proj = np.outer(basis[:, j], basis[:, j].conj())
        assert np.max(np.abs(state.mat - proj)) < 1e-10


def test_ensemble_from_measurement_plus_state():
    ens = ensemble_from_measurement(plus_density(), z_basis_povm())
    assert np.allclose(ens.weights, [0.5, 0.5], atol=1e-12)
    for state in ens.states:
        assert np.max(np.abs(state.mat - plus_density().mat)) < 1e-10


def test_ensemble_from_measurement_mixture_property():
    rng = np.random.default_rng(33)
    for _ in range(20):
        d = int(rng.integers(2, 7))
        rho = random_density(rng, d)
        povm = random_povm(d, int(rng.integers(2, 9)), rng)
        ens = ensemble_from_measurement(rho, povm)
        mix = sum(w * s.mat for w, s in zip(ens.weights, ens.states))
        assert np.max(np.abs(mix - rho.mat)) < 1e-9


def test_ensemble_from_measurement_drops_zero_weight_outcomes():
    # a POVM element orthogonal to the support of rho yields weight 0 and is
    # dropped; the discrimination identity is unaffected
    rho_mat = np.zeros((3, 3), dtype=complex)
    rho_mat[0, 0] = rho_mat[1, 1] = 0.5
    rho_mat[0, 1] = rho_mat[1, 0] = 0.25
    rho = DensityMatrix(rho_mat)
    povm = Povm([
        np.diag([1.0, 0.0, 0.0]).astype(complex),
        np.diag([0.0, 1.0, 0.0]).astype(complex),
        np.diag([0.0, 0.0, 1.0]).astype(complex),
    ])
    ens = ensemble_from_measurement(rho, povm)
    assert ens.size == 2
    assert abs(float(np.sum(ens.weights)) - 1.0) < 1e-12
    check = discrimination_identity_check(rho, povm)
    assert check.defect <= 1e-9


def test_measurement_from_ensemble_roundtrip():
    rng = np.random.default_rng(34)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        rho = random_density(rng, d)
        povm = random_povm(d, int(rng.integers(2, 7)), rng)
        ens = ensemble_from_measurement(rho, povm)
        result = measurement_from_ensemble(ens)
        assert not result.support_restricted
        assert np.max(np.abs(result.state.mat - rho.mat)) < 1e-9
        assert result.povm.outcomes == povm.outcomes
        for got, want in zip(result.povm.elements, povm.elements):
            assert np.max(np.abs(got - want)) < 1e-9


def test_measurement_from_ensemble_orthogonal_pair():
    ens = two_state_ensemble([1.0, 0.0], [0.0, 1.0])
    result = measurement_from_ensemble(ens)
    assert np.max(np.abs(result.povm.elements[0] - np.diag([1.0, 0.0]))) < 1e-10
    assert np.max(np.abs(result.povm.elements[1] - np.diag([0.0, 1.0]))) < 1e-10


def test_measurement_from_ensemble_single_full_rank_member():
    rng = np.random.default_rng(35)
    ens = Ensemble([random_density(rng, 3)], [1.0])
    result = measurement_from_ensemble(ens)
    assert result.povm.outcomes == 1
    assert np.max(np.abs(result.povm.elements[0] - np.eye(3))) < 1e-9


def test_measurement_from_ensemble_support_restricted():
    # rank-deficient mixture: POVM lives on the 2d support, flag raised
    ens = two_state_ensemble([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    result = measurement_from_ensemble(ens)
    assert result.support_restricted
    assert result.povm.dim == 2
    assert validate(result.povm) == []
    assert result.support_basis.shape == (3, 2)


def test_ensemble_reconstruction_from_restricted_measurement():
    # the restricted (state, POVM) pair still reproduces the ensemble weights
    ens = two_state_ensemble([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], w=(0.3, 0.7))
    result = measurement_from_ensemble(ens)
    back = ensemble_from_measurement(result.state, result.povm)
    assert np.allclose(back.weights, [0.3, 0.7], atol=1e-10)


def test_identity_plus_state():
    check = discrimination_identity_check(plus_density(), z_basis_povm())
    assert abs(check.lhs - 1.0) < 1e-10
    assert abs(check.rhs - 1.0) < 1e-10
    assert check.defect <= 1e-12


def test_identity_incoherent_state_both_sides_zero():
    rho = DensityMatrix(np.diag([0.3, 0.7]).astype(complex))
    check = discrimination_identity_check(rho, z_basis_povm())
    assert abs(check.lhs) < 1e-10
    assert abs(check.rhs) < 1e-10


def test_identity_random_sweep():
    rng = np.random.default_rng(36)
    for _ in range(50):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(2, 9))
        rho = random_density(rng, d)
        povm = random_povm(d, n, rng)
        assert discrimination_identity_check(rho, povm).defect <= 1e-9


def test_reverse_identity_random_ensembles():
    # build (rho, E) from an ensemble; twice the LSM error equals the
    # half-order Tsallis coherence of the constructed pair
    rng = np.random.default_rng(37)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(1, 7))
        ens = random_ensemble(rng, d, n)
        result = measurement_from_ensemble(ens)
        error = build_lsm(ens).error_probability
        lhs = tsallis_coherence(result.state, result.povm, 0.5).value
        assert abs(lhs - 2.0 * error) <= 1e-9


@pytest.mark.parametrize("d, m", [(6, 4), (3, 5), (4, 2)])
def test_lsm_error_matches_the_50_digit_oracle(d, m):
    ensemble = random_ensemble(np.random.default_rng(100 * d + m), d, m)
    want = mp_oracle.lsm_error(ensemble.stack, ensemble.weights)
    assert abs(build_lsm(ensemble).error_probability - want) <= 1e-14


@pytest.mark.parametrize("rank", [1, 3])
def test_lsm_error_on_a_rank_deficient_mixture_matches_the_oracle(rank):
    # members on one 3-dim subspace of d = 5: W is the inverse root on that support
    rng = np.random.default_rng(510 + rank)
    basis = random_unitary(rng, 5)[:, :3]
    members = [basis @ random_rank_density(rng, 3, rank).mat @ basis.conj().T for _ in range(4)]
    weights = 1.0 + rng.random(4)
    ensemble = Ensemble(members, weights / weights.sum())
    instance = build_lsm(ensemble)
    assert instance.support_rank == 3
    want = mp_oracle.lsm_error(ensemble.stack, ensemble.weights)
    assert abs(instance.error_probability - want) <= 1e-14
