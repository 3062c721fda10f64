"""The three coherence measures and the incoherence membership test."""

import logging
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    block_projective_povm,
    dense_power,
    mixed_rank_povm,
    plus_density,
    random_density,
    random_rank_density,
    random_unitary,
    z_basis_povm,
)
from povmcoh import (
    AlphaOutOfRangeError,
    DensityMatrix,
    DimensionMismatchError,
    NumericError,
    Povm,
    ValidationError,
    haar_random_pure,
    is_povm_incoherent,
    l1_coherence,
    projective_povm,
    random_povm,
    relative_entropy_coherence,
    tsallis_coherence,
)
from povmcoh import haar, linalg, measures, objects
from povmcoh.bounds import figure1_state
from povmcoh.measures import (
    compute,
    pure_l1_coherence,
    pure_relative_entropy_coherence,
    pure_state_probabilities,
    pure_tsallis_coherence,
)

IDENTITY_POVM_3 = Povm([np.eye(3, dtype=complex)])


def diagonal_density(diag):
    return DensityMatrix(np.diag(np.asarray(diag, dtype=complex)))


def test_relative_entropy_examples():
    rho = diagonal_density([0.3, 0.7])
    assert abs(relative_entropy_coherence(rho, z_basis_povm()).value) < 1e-12
    assert abs(relative_entropy_coherence(plus_density(), z_basis_povm()).value - 1.0) < 1e-12
    rng = np.random.default_rng(0)
    assert abs(relative_entropy_coherence(random_density(rng, 3), IDENTITY_POVM_3).value) < 1e-12


def test_l1_examples():
    # the 2x2 family with constant off-diagonal entries 1/4: two blocks of 1/4 each
    for z in (0.0, 0.3, 0.8):
        assert abs(l1_coherence(figure1_state(z), z_basis_povm()).value - 0.5) < 1e-12
    assert abs(l1_coherence(plus_density(), z_basis_povm()).value - 1.0) < 1e-12
    rng = np.random.default_rng(1)
    assert abs(l1_coherence(random_density(rng, 3), IDENTITY_POVM_3).value) < 1e-12


def test_tsallis_examples():
    assert abs(tsallis_coherence(plus_density(), z_basis_povm(), 0.5).value - 1.0) < 1e-12
    rng = np.random.default_rng(2)
    for alpha in (0.5, 1.5, 2.0):
        assert abs(tsallis_coherence(random_density(rng, 3), IDENTITY_POVM_3, alpha).value) < 1e-10
    rho = diagonal_density([0.2, 0.3, 0.5])
    basis = Povm([np.diag([1.0, 0.0, 0.0]).astype(complex),
                  np.diag([0.0, 1.0, 0.0]).astype(complex),
                  np.diag([0.0, 0.0, 1.0]).astype(complex)])
    assert abs(tsallis_coherence(rho, basis, 1.5).value) < 1e-10


def test_tsallis_alpha_domain():
    rho = plus_density()
    for alpha in (0.0, -0.5, 1.0, 2.5):
        with pytest.raises(AlphaOutOfRangeError):
            tsallis_coherence(rho, z_basis_povm(), alpha)
    # boundary alpha = 2 is admissible
    tsallis_coherence(rho, z_basis_povm(), 2.0)
    for alpha in (None, "x", 1j):
        with pytest.raises(AlphaOutOfRangeError, match="number"):
            tsallis_coherence(rho, z_basis_povm(), alpha)


_TSALLIS_ENTRIES = {
    "tsallis_coherence": lambda alpha: tsallis_coherence(plus_density(), z_basis_povm(), alpha),
    "compute": lambda alpha: compute(plus_density(), z_basis_povm(), "tsallis", alpha),
    "pure_tsallis_coherence": lambda alpha: pure_tsallis_coherence(np.array([0.5, 0.5]), alpha),
    "haar_average_tsallis": lambda alpha: haar.haar_average_tsallis(z_basis_povm(), alpha),
    "haar_average": lambda alpha: haar.haar_average(z_basis_povm(), "tsallis", alpha=alpha),
    "monte_carlo_average": lambda alpha: haar.monte_carlo_average(
        z_basis_povm(), "tsallis", 300, np.random.default_rng(1), alpha=alpha),
}


@pytest.mark.parametrize("entry", sorted(_TSALLIS_ENTRIES))
@pytest.mark.parametrize("alpha", [
    1e-14, 1e-6, np.nextafter(1e-4, 0.0),  # below the floor, where the values drift
    np.nextafter(0.9999, 1.0), 1.0 - 1e-8, 1.0 - 1e-12,  # (total - 1) / (alpha - 1) cancels
    1.0 + 1e-12, 1.0 + 1e-8, np.nextafter(1.0001, 1.0),
], ids=["1e-14", "1e-6", "below-1e-4", "above-0.9999", "1-1e-8", "1-1e-12", "1+1e-12", "1+1e-8",
        "below-1.0001"])
def test_tsallis_orders_that_lose_digits_are_refused_at_every_entry_point(entry, alpha):
    with pytest.raises(AlphaOutOfRangeError, match=r"alpha must lie in \[0.0001, 0.9999\] or \[1.0001, 2\]"):
        _TSALLIS_ENTRIES[entry](float(alpha))


@pytest.mark.parametrize("entry", sorted(_TSALLIS_ENTRIES))
@pytest.mark.parametrize("alpha", [1e-4, 0.9999, 1.0001, 2.0])
def test_tsallis_edge_orders_are_admitted_at_every_entry_point(entry, alpha):
    _TSALLIS_ENTRIES[entry](alpha)


def test_compute_dispatch():
    rho = plus_density()
    povm = z_basis_povm()
    assert compute(rho, povm, "relative_entropy").measure_id == "relative_entropy"
    assert compute(rho, povm, "l1").value == l1_coherence(rho, povm).value
    assert compute(rho, povm, "tsallis", 2.0).alpha == 2.0
    with pytest.raises(AlphaOutOfRangeError):
        compute(rho, povm, "tsallis")


def test_compute_rejects_unknown_measure_id():
    # a bad id is an input error, not an out-of-range alpha
    with pytest.raises(ValidationError, match="unknown measure id") as info:
        compute(plus_density(), z_basis_povm(), "bogus")
    assert not isinstance(info.value, AlphaOutOfRangeError)


@pytest.mark.parametrize("entry", ["compute", "haar_average", "monte_carlo_average"])
@pytest.mark.parametrize("measure_id", [np.zeros(2), np.array(["l1", "l1"]), np.array("l1"),
                                        np.array("relative_entropy"), None, 1, b"l1"])
def test_measure_ids_are_checked_alike_at_every_entry_point(entry, measure_id):
    # an id is a str: an array, even a 0-d one, is refused by name, not compared
    call = {"compute": lambda: compute(plus_density(), z_basis_povm(), measure_id, 0.5),
            "haar_average": lambda: haar.haar_average(z_basis_povm(), measure_id, alpha=0.5),
            "monte_carlo_average": lambda: haar.monte_carlo_average(
                z_basis_povm(), measure_id, 300, np.random.default_rng(1), alpha=0.5)}[entry]
    with pytest.raises(ValidationError, match="unknown measure id"):
        call()


@pytest.mark.parametrize("entry", ["compute", "haar_average", "monte_carlo_average"])
@pytest.mark.parametrize("measure_id", ["relative_entropy", "l1"])
@pytest.mark.parametrize("alpha", [0.5, 7.0, "junk"])
def test_an_alpha_given_to_a_measure_without_one_is_refused(entry, measure_id, alpha):
    # only tsallis has an order; an alpha given to another measure is an input error
    call = {"compute": lambda: compute(plus_density(), z_basis_povm(), measure_id, alpha),
            "haar_average": lambda: haar.haar_average(z_basis_povm(), measure_id, alpha=alpha),
            "monte_carlo_average": lambda: haar.monte_carlo_average(
                z_basis_povm(), measure_id, 300, np.random.default_rng(1), alpha=alpha)}[entry]
    with pytest.raises(ValidationError, match="takes no alpha") as info:
        call()
    assert type(info.value) is ValidationError


def test_roundoff_clamp_is_logged_and_larger_negatives_raise(caplog):
    with caplog.at_level(logging.DEBUG, logger="povmcoh.measures"):
        assert measures._clamp_value(-1e-12, "x") == 0.0
    [record] = caplog.records
    assert record.levelno == logging.DEBUG
    assert record.getMessage() == "x value -1.000e-12 clamped to 0 (roundoff)"
    with pytest.raises(NumericError):
        measures._clamp_value(-1e-6, "x")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_clamp_refuses_non_finite_values(bad):
    # the one fault check of every measure value, the LSM error, S(rho) and the Haar averages
    with pytest.raises(NumericError, match=f"x evaluated to {bad}, which is not finite"):
        measures._clamp_value(bad, "x")


def test_roundoff_clamp_loads_no_logging_module():
    # unimported, logging has no handler or level that could take the debug record
    child = ("import sys; from povmcoh import measures; assert measures._clamp_value(-1e-12, 'x') == 0.0; "
             "sys.exit('logging' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_least_eigenvalue_at_the_psd_floor_builds_and_measures():
    """A state and a POVM element with least eigenvalue -PSD_TOL pass the member rule,
    so the support kernels behind every measure must accept them too."""
    floor = -objects.PSD_TOL  # 1e-10
    state = diagonal_density([1.0 - floor, floor])
    povm = Povm([np.diag([1.0 - floor, floor]), np.diag([floor, 1.0 - floor])])
    for rho in (state, plus_density()):
        for measure_id, alpha in (("relative_entropy", None), ("l1", None), ("tsallis", 0.5)):
            assert np.isfinite(compute(rho, povm, measure_id, alpha).value)


def test_dimension_mismatch():
    rng = np.random.default_rng(3)
    with pytest.raises(DimensionMismatchError):
        l1_coherence(random_density(rng, 3), z_basis_povm())


def test_is_povm_incoherent_examples():
    report = is_povm_incoherent(diagonal_density([0.3, 0.7]), z_basis_povm())
    assert report.incoherent and report.max_defect < 1e-14
    report = is_povm_incoherent(plus_density(), z_basis_povm())
    assert not report.incoherent
    # the blocking operators are rank-one projectors, so the defect is the
    # off-diagonal entry magnitude of rho itself: 1/2 for |+><+|
    assert abs(report.max_defect - 0.5) < 1e-12
    rng = np.random.default_rng(4)
    report = is_povm_incoherent(random_density(rng, 3), IDENTITY_POVM_3)
    assert report.incoherent and report.max_defect == 0.0
    # one outcome: no pair j < k, so nothing can be coherent
    report = is_povm_incoherent(plus_density(), Povm([np.eye(2)]))
    assert report.incoherent and report.max_defect == 0.0


def test_faithfulness_on_incoherent_states():
    # block-diagonal states are incoherent for block-projective measurements,
    # and all three measures must vanish there
    rng = np.random.default_rng(5)
    povm = block_projective_povm(4, [(0, 1), (2, 3)])
    for _ in range(10):
        a = random_density(rng, 2).mat
        b = random_density(rng, 2).mat
        t = rng.random()
        mat = np.zeros((4, 4), dtype=complex)
        mat[:2, :2] = t * a
        mat[2:, 2:] = (1.0 - t) * b
        rho = DensityMatrix(mat)
        assert is_povm_incoherent(rho, povm).incoherent
        assert relative_entropy_coherence(rho, povm).value <= 1e-8
        assert l1_coherence(rho, povm).value <= 1e-8
        assert tsallis_coherence(rho, povm, 1.5).value <= 1e-8


def test_faithfulness_converse_small_measure_small_defect():
    rng = np.random.default_rng(6)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        rho = random_density(rng, d)
        povm = random_povm(d, int(rng.integers(2, 6)), rng)
        values = [
            relative_entropy_coherence(rho, povm).value,
            l1_coherence(rho, povm).value,
            tsallis_coherence(rho, povm, 0.5).value,
        ]
        if max(values) <= 1e-8:
            assert is_povm_incoherent(rho, povm).max_defect <= 1e-6
        else:
            assert not is_povm_incoherent(rho, povm).incoherent


def test_convexity_all_measures():
    rng = np.random.default_rng(7)
    for _ in range(5):
        d = int(rng.integers(2, 5))
        povm = random_povm(d, int(rng.integers(2, 6)), rng)
        rho1 = random_density(rng, d)
        rho2 = random_density(rng, d)
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            mix = DensityMatrix(t * rho1.mat + (1.0 - t) * rho2.mat)
            for measure, alpha in (("relative_entropy", None), ("l1", None),
                                   ("tsallis", 0.5), ("tsallis", 2.0)):
                lhs = compute(mix, povm, measure, alpha).value
                rhs = (t * compute(rho1, povm, measure, alpha).value
                       + (1.0 - t) * compute(rho2, povm, measure, alpha).value)
                assert lhs <= rhs + 1e-9


def test_permutation_covariance():
    rng = np.random.default_rng(8)
    rho = random_density(rng, 3)
    povm = random_povm(3, 4, rng)
    shuffled = Povm([povm.elements[i] for i in (2, 0, 3, 1)])
    for measure, alpha in (("relative_entropy", None), ("l1", None), ("tsallis", 1.7)):
        a = compute(rho, povm, measure, alpha).value
        b = compute(rho, shuffled, measure, alpha).value
        assert abs(a - b) < 1e-10


def _rank_povm(rng, d, n, rank):
    """n elements of rank `rank`: Wishart blocks A_j A_j^dag, A_j d x rank, normalised
    by their sum S as S^(-1/2) A_j A_j^dag S^(-1/2); n rank >= d keeps S full rank."""
    a = rng.standard_normal((n, d, rank)) + 1j * rng.standard_normal((n, d, rank))
    blocks = a @ a.conj().swapaxes(-1, -2)
    root = dense_power(blocks.sum(axis=0), -0.5)
    return Povm(root @ blocks @ root)


def test_coarse_graining_never_increases_any_measure():
    # merging outcomes j and k into E_j + E_k is a post-processing of the measurement:
    # C_r and C_T,alpha fall by data processing on their Naimark-dilation definitions,
    # C_l1 by the polar decomposition sqrt(E_j + E_k) = V^dag [sqrt(E_j); sqrt(E_k)]
    # and the triangle inequality.  Random merges at d = 2..5 decreased every measure
    # by at least 1e-3, so the 1e-12 allowance is roundoff only
    rng = np.random.default_rng(2610)
    measures_ = (("relative_entropy", None), ("l1", None), ("tsallis", 0.3), ("tsallis", 0.5),
                 ("tsallis", 1.5), ("tsallis", 2.0))
    for _ in range(100):
        d = int(rng.integers(2, 6))
        rank = min(int(rng.choice([1, 2, d])), d)
        n = int(rng.integers(max(3, -(-d // rank)), 7))
        povm = _rank_povm(rng, d, n, rank)
        rho = random_rank_density(rng, d, min(int(rng.choice([1, 2, d])), d))
        j, k = sorted(rng.choice(n, size=2, replace=False))
        rest = [e for i, e in enumerate(povm.elements) if i not in (j, k)]
        merged = Povm([povm.elements[j] + povm.elements[k], *rest])
        for measure, alpha in measures_:
            before = compute(rho, povm, measure, alpha).value
            assert compute(rho, merged, measure, alpha).value <= before + 1e-12, (measure, alpha)


def test_pure_state_formulas_match_general_path():
    # rank-one rho makes all three measures functions of the outcome
    # probabilities alone; the closed forms cross-check the matrix path
    rng = np.random.default_rng(9)
    for _ in range(10):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(2, 7))
        povm = random_povm(d, n, rng)
        psi = haar_random_pure(d, rng)
        rho = psi.density()
        p = pure_state_probabilities(psi.vec, povm)
        assert abs(p.sum() - 1.0) < 1e-10
        assert abs(l1_coherence(rho, povm).value - pure_l1_coherence(p)) < 1e-9
        assert abs(relative_entropy_coherence(rho, povm).value
                   - pure_relative_entropy_coherence(p)) < 1e-9
        for alpha in (0.5, 1.5, 2.0):
            assert abs(tsallis_coherence(rho, povm, alpha).value
                       - pure_tsallis_coherence(p, alpha)) < 1e-9


def test_pure_forms_reduce_over_last_axis():
    rng = np.random.default_rng(12)
    povm = random_povm(4, 5, rng)
    psi = np.array([haar_random_pure(4, rng).vec for _ in range(6)])
    p = pure_state_probabilities(psi, povm)
    assert p.shape == (6, 5)
    for row, vec in zip(p, psi):
        np.testing.assert_allclose(row, pure_state_probabilities(vec, povm), rtol=1e-14, atol=1e-16)
    # a zero outcome probability in one row
    p = np.vstack([p, [0.5, 0.0, 0.25, 0.25, 0.0]])
    forms = (pure_l1_coherence, pure_relative_entropy_coherence,
             lambda q: pure_tsallis_coherence(q, 0.5), lambda q: pure_tsallis_coherence(q, 2.0))
    for form in forms:
        batch = form(p)
        assert batch.shape == (7,)
        np.testing.assert_allclose(batch, [form(row) for row in p], rtol=1e-14, atol=1e-16)


def probability_povms():
    rng = np.random.default_rng(13)
    return {
        "rank_one": projective_povm(random_unitary(rng, 5)),  # k = 1
        "mixed_rank": mixed_rank_povm(rng, 5),                 # zero-padded factor rows
        "wishart": random_povm(5, 4, rng),                     # full-rank elements
    }


@pytest.mark.parametrize("kind", ["rank_one", "mixed_rank", "wishart"])
@pytest.mark.parametrize("rows_per_block", [1, 5])
def test_blocked_probabilities_match_unblocked(monkeypatch, kind, rows_per_block):
    povm = probability_povms()[kind]
    n, k, d = povm.root_factors[1].shape
    rng = np.random.default_rng(14)
    g = rng.standard_normal((37, d)) + 1j * rng.standard_normal((37, d))
    dense = np.einsum("bi,kij,bj->bk", g.conj(), povm.elements, g).real
    unblocked = pure_state_probabilities(g, povm)
    np.testing.assert_allclose(unblocked, dense, rtol=1e-13, atol=0.0)
    # one row per block, or 5 rows per block with a short last block of 2
    monkeypatch.setattr(linalg, "BLOCK_ENTRIES", 1 if rows_per_block == 1 else rows_per_block * n * k)
    blocked = pure_state_probabilities(g, povm)
    # a one-row block is a matrix-vector product: its sums may round apart by a few
    # ulps of ||g||^2, the scale of every term
    scale = np.sum(np.abs(g) ** 2, axis=1, keepdims=True)
    assert np.all(np.abs(blocked - unblocked) <= d * 1e-15 * scale)
    assert np.all(blocked >= 0.0)


def test_pure_forms_keep_the_shape_of_the_stack():
    # reductions by a product with a ones vector against np.sum over the last axis
    povm = probability_povms()["mixed_rank"]
    rng = np.random.default_rng(15)
    g = rng.standard_normal((3, 4, povm.dim)) + 1j * rng.standard_normal((3, 4, povm.dim))
    g /= np.linalg.norm(g, axis=-1, keepdims=True)
    p3 = pure_state_probabilities(g, povm)
    assert p3.shape == (3, 4, povm.outcomes)
    p3[0, 0, 1] = 0.0  # a zero outcome probability
    def entropy_terms(q):
        return q * np.log2(q, out=np.zeros(q.shape), where=q > 0.0)

    forms = {
        pure_l1_coherence: lambda q: np.sum(np.sqrt(q), axis=-1) ** 2 - np.sum(q, axis=-1),
        pure_relative_entropy_coherence: lambda q: -np.sum(entropy_terms(q), axis=-1),
        lambda q: pure_tsallis_coherence(q, 0.5): lambda q: (np.sum(q ** 2.0, axis=-1) - 1.0) / -0.5,
        lambda q: pure_tsallis_coherence(q, 2.0): lambda q: np.sum(np.sqrt(q), axis=-1) - 1.0,
    }
    for p in (p3[0, 0], p3[0], p3):
        for form, reference in forms.items():
            got, want = form(p), reference(p)
            assert np.shape(got) == p.shape[:-1]
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)


def test_unitary_covariance_of_measures():
    # rotating both the state and the measurement leaves every value unchanged
    rng = np.random.default_rng(10)
    rho = random_density(rng, 3)
    povm = random_povm(3, 3, rng)
    u = random_unitary(rng, 3)
    rho_u = DensityMatrix(u @ rho.mat @ u.conj().T)
    povm_u = Povm([u @ e @ u.conj().T for e in povm.elements])
    for measure, alpha in (("relative_entropy", None), ("l1", None), ("tsallis", 0.7)):
        assert abs(compute(rho, povm, measure, alpha).value
                   - compute(rho_u, povm_u, measure, alpha).value) < 1e-9


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=8))
def test_pure_formulas_from_any_distribution(raw):
    # scalar reductions are nonnegative and respect the n-1 ceiling for any
    # outcome distribution
    p = np.asarray(raw) / np.sum(raw)
    n = p.size
    l1 = pure_l1_coherence(p)
    assert -1e-12 <= l1 <= n - 1 + 1e-9
    assert pure_relative_entropy_coherence(p) >= -1e-12
    for alpha in (0.5, 2.0):
        assert pure_tsallis_coherence(p, alpha) >= -1e-12
