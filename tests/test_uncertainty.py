"""Uncertainty relation over two measurements: overlap constants and the
entropy-corrected lower bounds."""

import math

import numpy as np
import pytest

import mp_oracle
from helpers import (
    dense_entropy,
    mixed_rank_povm,
    random_density,
    random_pure_density,
    random_unitary,
    x_basis_povm,
    z_basis_povm,
)
from povmcoh import (
    DensityMatrix,
    NumericError,
    Povm,
    ValidationError,
    overlap_constant,
    projective_povm,
    pure_state_bound,
    random_povm,
    refined_overlap_constant,
    relative_entropy_coherence,
    uncertainty_report,
)
from povmcoh import linalg


def test_a_negative_state_entropy_is_refused(monkeypatch):
    # C_r of both pairs is memoised first, so only S(rho) reads the patched entropy:
    # one clamp rule with the measures, roundoff reads 0 and -1e-6 is a kernel bug
    rho = random_density(np.random.default_rng(4), 2)
    e, f = z_basis_povm(), x_basis_povm()
    relative_entropy_coherence(rho, e), relative_entropy_coherence(rho, f)
    monkeypatch.setattr(linalg, "spectrum_entropy", lambda w: -1e-12)
    assert uncertainty_report(rho, e, f).entropy_rho == 0.0
    monkeypatch.setattr(linalg, "spectrum_entropy", lambda w: -1e-6)
    with pytest.raises(NumericError, match="S\\(rho\\)"):
        uncertainty_report(rho, e, f)


def test_overlap_same_projective_basis_is_one():
    e = z_basis_povm()
    assert abs(overlap_constant(e, e) - 1.0) < 1e-12


def test_overlap_mutually_unbiased_bases():
    c = overlap_constant(z_basis_povm(), x_basis_povm())
    assert abs(c - 1.0 / np.sqrt(2.0)) < 1e-12


def test_overlap_with_trivial_povm():
    # sqrt(I) sqrt(E_k) has norm sqrt(||E_k||) <= 1; equality for projectors
    e = Povm([np.eye(2, dtype=complex)])
    assert abs(overlap_constant(e, z_basis_povm()) - 1.0) < 1e-12


def test_refined_overlap_mutually_unbiased_bases():
    cp = refined_overlap_constant(z_basis_povm(), x_basis_povm())
    assert abs(cp - 0.5) < 1e-12


def test_refined_overlap_same_projective_basis():
    e = z_basis_povm()
    assert abs(refined_overlap_constant(e, e) - 1.0) < 1e-12


def test_refined_never_exceeds_squared_overlap():
    rng = np.random.default_rng(40)
    for _ in range(40):
        d = int(rng.integers(2, 6))
        e = random_povm(d, int(rng.integers(2, 7)), rng)
        f = random_povm(d, int(rng.integers(2, 7)), rng)
        c = overlap_constant(e, f)
        cp = refined_overlap_constant(e, f)
        assert cp <= c * c + 1e-10
        assert c * c <= c + 1e-10  # c <= 1


@pytest.mark.parametrize("d", [2, 3, 4])
def test_overlap_constants_match_the_50_digit_definitions(d):
    # random pairs, a projective POVM against a random one, and elements of rank 1, 2
    # and d (two projectors at d = 2) against a projective POVM
    rng = np.random.default_rng(41)
    rand = lambda: random_povm(d, 3, rng)
    proj = lambda: projective_povm(random_unitary(rng, d))
    deficient = (lambda: mixed_rank_povm(rng, d)) if d > 2 else proj
    for e, f in ((rand(), rand()), (proj(), rand()), (deficient(), proj())):
        for got, want in ((overlap_constant(e, f), mp_oracle.overlap_constant(e.elements, f.elements)),
                          (refined_overlap_constant(e, f),
                           mp_oracle.refined_overlap_constant(e.elements, f.elements))):
            assert abs(got - want) <= 1e-13 * want, (got, want)


def test_report_maximally_mixed_qubit():
    rho = DensityMatrix(np.eye(2, dtype=complex) / 2.0)
    report = uncertainty_report(rho, z_basis_povm(), x_basis_povm())
    assert abs(report.lhs) < 1e-10
    assert abs(report.entropy_rho - 1.0) < 1e-12
    # 2(log2(sqrt 2) - 1) = -1: bound is negative hence trivially satisfied
    assert abs(report.bound_c - (-1.0)) < 1e-10
    assert report.lhs >= report.bound_c
    assert report.lhs >= report.bound_c_prime


def test_report_computational_basis_state_is_tight():
    rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
    report = uncertainty_report(rho, z_basis_povm(), x_basis_povm())
    # C_r vanishes for Z and equals 1 for X; both bounds equal 1 exactly
    assert abs(report.lhs - 1.0) < 1e-10
    assert abs(report.bound_c - 1.0) < 1e-10
    assert abs(report.bound_c_prime - 1.0) < 1e-10
    assert abs(pure_state_bound(report.c) - 0.5) < 1e-12


def test_report_equal_povms_bound_nonpositive():
    rng = np.random.default_rng(41)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        rho = random_density(rng, d)
        e = random_povm(d, int(rng.integers(2, 6)), rng)
        report = uncertainty_report(rho, e, e)
        # c >= some overlap of an element with itself; for projective E it is 1
        assert report.lhs >= report.bound_c - 1e-9
        assert report.lhs >= report.bound_c_prime - 1e-9


def test_bounds_hold_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(100):
        d = int(rng.integers(2, 6))
        rho = random_density(rng, d)
        e = random_povm(d, int(rng.integers(2, 7)), rng)
        f = random_povm(d, int(rng.integers(2, 7)), rng)
        report = uncertainty_report(rho, e, f)
        assert report.lhs >= report.bound_c - 1e-9
        assert report.lhs >= report.bound_c_prime - 1e-9
        # refined bound never weaker than the plain one
        assert report.bound_c_prime >= report.bound_c - 1e-9


def test_pure_state_floor():
    rng = np.random.default_rng(43)
    for _ in range(60):
        d = int(rng.integers(2, 6))
        rho = random_pure_density(rng, d)
        e = projective_povm(random_unitary(rng, d))
        f = projective_povm(random_unitary(rng, d))
        report = uncertainty_report(rho, e, f)
        assert report.entropy_rho < 1e-9
        assert report.lhs >= pure_state_bound(report.c) - 1e-9


def test_entropy_decomposition_identity():
    # C_r(rho, E) = H(p) + sum_j p_j S(block_j / p_j) - S(rho) with
    # block_j = sqrt(E_j) rho sqrt(E_j) and p_j its trace
    rng = np.random.default_rng(44)
    for _ in range(40):
        d = int(rng.integers(2, 6))
        rho = random_density(rng, d)
        povm = random_povm(d, int(rng.integers(2, 7)), rng)
        total = 0.0
        probs = []
        for root in povm.sqrt_elements:
            block = root @ rho.mat @ root
            p = float(np.trace(block).real)
            probs.append(p)
            if p > 1e-14:
                total += p * dense_entropy(block / p)
        probs = np.asarray(probs)
        shannon = float(-np.sum(probs[probs > 1e-14] * np.log2(probs[probs > 1e-14])))
        direct = relative_entropy_coherence(rho, povm).value
        combined = shannon + total - dense_entropy(rho.mat)
        assert abs(direct - combined) < 1e-9


@pytest.mark.parametrize("c", [0, -1, math.inf, math.nan, 2.0, "x", None, 1j])
def test_pure_state_bound_rejects_c_outside_zero_to_one(c):
    with pytest.raises(ValidationError):
        pure_state_bound(c)


def test_pure_state_bound_takes_c_one_with_roundoff():
    e = projective_povm(random_unitary(np.random.default_rng(5), 4))
    assert pure_state_bound(overlap_constant(e, e)) == 0.0
    assert pure_state_bound(1.0 + 2e-15) == 0.0
    assert pure_state_bound(np.float64(0.5)) == 1.0


@pytest.mark.parametrize("d", range(2, 9))
def test_overlap_constants_and_pure_state_entropy_stay_in_range(d):
    # E a projective basis, F a random POVM: c and c' of (E, E), (F, I) and (I, F) are 1
    # up to roundoff, and a pure state's S(rho) is 0
    rng = np.random.default_rng(170 + d)
    trivial = Povm([np.eye(d)])
    for _ in range(10):
        e = projective_povm(random_unitary(rng, d))
        f = random_povm(d, int(rng.integers(2, 6)), rng)
        for a, b in ((e, e), (f, trivial), (trivial, f)):
            assert overlap_constant(a, b) <= 1.0
            assert refined_overlap_constant(a, b) <= 1.0
        entropy = uncertainty_report(random_pure_density(rng, d), e, f).entropy_rho
        assert 0.0 <= entropy <= 1e-15 and math.copysign(1.0, entropy) == 1.0, entropy
