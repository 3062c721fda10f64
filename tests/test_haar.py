"""Haar averages of the coherence measures: divided differences, exact moment
formulas, the l1 pair bound, and the Monte Carlo cross-check."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    block_projective_povm,
    ddiff_reference,
    perturbed_avg_relative_entropy,
    perturbed_avg_tsallis,
    richardson,
    trine_povm,
    z_basis_povm,
)
from povmcoh import (
    BetaNonPositiveError,
    DerivativeUnavailableError,
    Povm,
    PowerFunction,
    PowerLogFunction,
    ValidationError,
    divided_difference,
    haar_average,
    haar_average_l1_bound,
    haar_average_relative_entropy,
    haar_average_tsallis,
    haar_moment,
    haar_random_pure,
    monte_carlo_average,
    projective_povm,
    random_povm,
    tsallis_half_trace_formula,
)
from povmcoh.haar import MC_CHUNK
from povmcoh.measures import pure_l1_coherence


# --------------------------------------------------------------------------
# divided differences


def test_ddiff_two_distinct_nodes_square():
    # f[a, b] of w^2 is a + b
    assert abs(divided_difference([0.25, 0.75], PowerFunction(2.0)) - 1.0) < 1e-12


def test_ddiff_repeated_node_square():
    # confluent limit: f[a, a] = f'(a) = 2a
    assert abs(divided_difference([0.3, 0.3], PowerFunction(2.0)) - 0.6) < 1e-12


def test_ddiff_matches_explicit_kernel_power():
    rng = np.random.default_rng(50)
    for _ in range(30):
        d = int(rng.integers(2, 7))
        nodes = np.sort(rng.random(d)) + rng.random(d) * 0  # distinct whp
        nodes = nodes + np.arange(d) * 0.05  # force separation
        fn = PowerFunction(d + 0.5)
        got = divided_difference(nodes, fn)
        want = ddiff_reference(nodes, nodes ** (d + 0.5))
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_ddiff_matches_explicit_kernel_power_log():
    rng = np.random.default_rng(51)
    for _ in range(30):
        d = int(rng.integers(2, 7))
        nodes = 0.1 + rng.random(d) + np.arange(d) * 0.05
        shift = 0.37
        fn = PowerLogFunction(d, shift)
        got = divided_difference(nodes, fn)
        want = ddiff_reference(nodes, nodes**d * (np.log(nodes) - shift))
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.0, 3.0), min_size=2, max_size=6))
def test_ddiff_permutation_invariant(nodes):
    fn = PowerFunction(float(len(nodes)))
    base = divided_difference(nodes, fn)
    rng = np.random.default_rng(7)
    shuffled = list(nodes)
    rng.shuffle(shuffled)
    assert divided_difference(shuffled, fn) == pytest.approx(base, abs=1e-9, rel=1e-9)


def test_ddiff_cluster_snapping():
    # nodes within 1e-8 are treated as one confluent cluster
    fn = PowerFunction(3.0)
    tight = divided_difference([0.5, 0.5 + 1e-12], fn)
    exact = divided_difference([0.5, 0.5], fn)
    assert abs(tight - exact) < 1e-10


def test_power_function_zero_limits():
    fn = PowerFunction(2.5)
    assert fn.eval(0.0, 0) == 0.0
    assert fn.eval(0.0, 2) == 0.0
    with pytest.raises(DerivativeUnavailableError):
        fn.eval(0.0, 3)  # w^(-0.5) diverges


def test_power_log_zero_limits():
    fn = PowerLogFunction(3, 0.0)
    assert fn.eval(0.0, 0) == 0.0
    assert fn.eval(0.0, 2) == 0.0
    with pytest.raises(DerivativeUnavailableError):
        fn.eval(0.0, 3)


def test_haar_moment_rejects_nonpositive_beta():
    with pytest.raises(BetaNonPositiveError):
        haar_moment(np.eye(2, dtype=complex), 0.0)
    with pytest.raises(BetaNonPositiveError):
        haar_moment(np.eye(2, dtype=complex), -1.0)


# --------------------------------------------------------------------------
# moments


def test_haar_moment_identity_element():
    # <psi|I|psi> = 1 so every moment is 1
    for d in (2, 4, 8):
        for beta in (0.5, 1.0, 1.7):
            assert abs(haar_moment(np.eye(d, dtype=complex), beta) - 1.0) < 1e-10


def test_haar_moment_qubit_projector_first_moment():
    # E[<psi|0><0|psi>] = 1/d
    proj = np.diag([1.0, 0.0]).astype(complex)
    assert abs(haar_moment(proj, 1.0) - 0.5) < 1e-12


def test_haar_moment_against_monte_carlo():
    rng = np.random.default_rng(52)
    d = 3
    e = random_povm(d, 3, rng).elements[0]
    beta = 0.8
    exact = haar_moment(e, beta)
    vals = []
    for _ in range(20000):
        psi = haar_random_pure(d, rng).vec
        vals.append(float(np.real(psi.conj() @ e @ psi)) ** beta)
    vals = np.asarray(vals)
    err = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - exact) <= 3.0 * err


# --------------------------------------------------------------------------
# exact averages


def test_average_relative_entropy_projective_reduction():
    # rank-one projective: (1 / ln 2) * sum_{m=2..d} 1/m
    for d in range(2, 9):
        povm = projective_povm(np.eye(d, dtype=complex))
        want = sum(1.0 / m for m in range(2, d + 1)) / np.log(2.0)
        assert abs(haar_average_relative_entropy(povm) - want) < 1e-12


def test_average_relative_entropy_trivial_povm():
    for d in (2, 5):
        povm = Povm([np.eye(d, dtype=complex)])
        assert abs(haar_average_relative_entropy(povm)) < 1e-12


def test_average_tsallis_projective_reduction():
    # rank-one projective at alpha = 1/2: 2 (d-1) / (d+1)
    for d in range(2, 9):
        povm = projective_povm(np.eye(d, dtype=complex))
        want = 2.0 * (d - 1.0) / (d + 1.0)
        assert abs(haar_average_tsallis(povm, 0.5) - want) < 1e-12


def test_average_tsallis_trine():
    assert abs(haar_average_tsallis(trine_povm(), 0.5) - 10.0 / 9.0) < 1e-12


def test_average_tsallis_trivial_povm():
    for alpha in (0.5, 1.5, 2.0):
        povm = Povm([np.eye(3, dtype=complex)])
        assert abs(haar_average_tsallis(povm, alpha)) < 1e-12


def test_trace_formula_matches_moment_route():
    rng = np.random.default_rng(53)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        povm = random_povm(d, int(rng.integers(2, 7)), rng)
        assert abs(
            tsallis_half_trace_formula(povm) - haar_average_tsallis(povm, 0.5)
        ) < 1e-10


def test_degenerate_spectra_via_perturbation():
    # POVMs built from rank-2 projectors have confluent nodes; compare the
    # confluent table against Richardson-extrapolated perturbed evaluations
    povm = block_projective_povm(4, [(0, 1), (2, 3)])
    exact_r = haar_average_relative_entropy(povm)
    approx_r = richardson(
        perturbed_avg_relative_entropy(povm, 1e-4),
        perturbed_avg_relative_entropy(povm, 1e-5),
    )
    assert abs(exact_r - approx_r) < 1e-6

    for alpha in (0.5, 1.5):
        exact_t = haar_average_tsallis(povm, alpha)
        approx_t = richardson(
            perturbed_avg_tsallis(povm, alpha, 1e-4),
            perturbed_avg_tsallis(povm, alpha, 1e-5),
        )
        assert abs(exact_t - approx_t) < 1e-6


# --------------------------------------------------------------------------
# l1 bound


def test_l1_bound_trivial_povm():
    povm = Povm([np.eye(3, dtype=complex)])
    assert abs(haar_average_l1_bound(povm)) < 1e-12


def test_l1_bound_default_exponents_collapse():
    # at p = q = 2 each ordered pair contributes 1/2 + 1/2 = ... total n - 1
    rng = np.random.default_rng(54)
    for _ in range(15):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(2, 8))
        povm = random_povm(d, n, rng)
        assert abs(haar_average_l1_bound(povm) - (n - 1.0)) < 1e-12


def test_l1_bound_custom_exponents():
    povm = z_basis_povm()
    exps = {(0, 1): (3.0, 1.5), (1, 0): (3.0, 1.5)}
    val = haar_average_l1_bound(povm, exponents=exps)
    assert np.isfinite(val)
    moment = lambda j, b: haar_moment(povm.elements[j], b)
    want = (
        moment(0, 1.5) / 3.0 + moment(1, 0.75) / 1.5
        + moment(1, 1.5) / 3.0 + moment(0, 0.75) / 1.5
    )
    assert abs(val - want) < 1e-12


def test_l1_bound_rejects_bad_exponents():
    povm = z_basis_povm()
    with pytest.raises(ValidationError):
        haar_average_l1_bound(povm, exponents={(0, 1): (3.0, 2.0), (1, 0): (2.0, 2.0)})


def test_l1_bound_dominates_monte_carlo():
    rng = np.random.default_rng(55)
    povm = random_povm(3, 4, rng)
    bound = haar_average_l1_bound(povm)
    est = monte_carlo_average(povm, "l1", 20000, rng)
    assert est.mean <= bound + 3.0 * est.std_error


def test_pointwise_l1_never_exceeds_universal_bound():
    rng = np.random.default_rng(56)
    povm = random_povm(3, 5, rng)
    stack = np.array(povm.elements)
    for _ in range(10000):
        psi = haar_random_pure(3, rng).vec
        probs = np.real(np.einsum("i,kij,j->k", psi.conj(), stack, psi))
        val = pure_l1_coherence(np.clip(probs, 0.0, None))
        assert val <= (povm.outcomes - 1.0) + 1e-9


# --------------------------------------------------------------------------
# Monte Carlo oracle


def test_mc_deterministic_across_worker_counts():
    povm = random_povm(3, 3, np.random.default_rng(57))
    a = monte_carlo_average(povm, "relative_entropy", 30000, np.random.default_rng(99))
    b = monte_carlo_average(
        povm, "relative_entropy", 30000, np.random.default_rng(99), workers=4
    )
    assert a.mean == b.mean
    assert a.std_error == b.std_error


def test_mc_std_error_matches_two_pass_variance():
    # {I/2 + eps D, I/2 - eps D}: the spread of C_r is far below its mean, where
    # a one-pass variance sum(x^2) - N mean^2 loses every digit
    d, eps = 6, 1e-5
    shift = eps * np.diag(np.arange(d) / d)
    povm = Povm([0.5 * np.eye(d) + shift, 0.5 * np.eye(d) - shift])
    counts = [MC_CHUNK, MC_CHUNK, 100]
    est = monte_carlo_average(povm, "relative_entropy", sum(counts), np.random.default_rng(3))
    vals = []
    for count, gen in zip(counts, np.random.default_rng(3).spawn(len(counts))):
        psi = gen.standard_normal((count, d)) + 1j * gen.standard_normal((count, d))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        probs = np.einsum("bi,kij,bj->bk", psi.conj(), np.array(povm.elements), psi).real
        vals.append(-np.sum(probs * np.log2(probs), axis=1))
    vals = np.concatenate(vals)
    assert abs(est.mean - vals.mean()) < 1e-12
    expected = np.std(vals, ddof=1) / np.sqrt(vals.size)
    assert abs(est.std_error - expected) <= 1e-6 * expected


def test_mc_rejects_tiny_sample_counts():
    povm = z_basis_povm()
    with pytest.raises(ValidationError):
        monte_carlo_average(povm, "l1", 50, np.random.default_rng(0))


def test_mc_agrees_with_exact_relative_entropy():
    # projective qubit: exact value 1 / (2 ln 2) ~ 0.72135
    povm = z_basis_povm()
    exact = haar_average_relative_entropy(povm)
    assert abs(exact - 1.0 / (2.0 * np.log(2.0))) < 1e-12
    est = monte_carlo_average(povm, "relative_entropy", 100000, np.random.default_rng(58))
    assert abs(est.mean - exact) <= 3.0 * est.std_error


def test_mc_agrees_with_exact_tsallis():
    povm = z_basis_povm()
    exact = haar_average_tsallis(povm, 0.5)
    assert abs(exact - 2.0 / 3.0) < 1e-12
    est = monte_carlo_average(povm, "tsallis", 100000, np.random.default_rng(59), alpha=0.5)
    assert abs(est.mean - exact) <= 3.0 * est.std_error


def test_mc_l1_projective_qubit_quarter_pi():
    # E[ (sqrt p + sqrt(1-p))^2 - 1 ] = 2 E[ sqrt(p(1-p)) ] = pi/4 for
    # uniform p on [0, 1]
    povm = z_basis_povm()
    est = monte_carlo_average(povm, "l1", 100000, np.random.default_rng(60))
    assert abs(est.mean - np.pi / 4.0) <= 4.0 * est.std_error
    assert est.mean <= 1.0


# --------------------------------------------------------------------------
# dispatcher


def test_haar_average_dispatch_relative_entropy():
    res = haar_average(z_basis_povm(), "relative_entropy")
    assert abs(res.analytic - 1.0 / (2.0 * np.log(2.0))) < 1e-12
    assert res.mc_estimate is None
    assert res.sigma_distance is None


def test_haar_average_dispatch_with_mc():
    res = haar_average(
        z_basis_povm(),
        "tsallis",
        alpha=0.5,
        mc_samples=50000,
        rng=np.random.default_rng(61),
    )
    assert res.mc_estimate is not None
    assert res.sigma_distance <= 4.0


def test_haar_average_rejects_l1_id():
    with pytest.raises(ValidationError):
        haar_average(z_basis_povm(), "l1")


def test_haar_average_mc_requires_rng():
    with pytest.raises(ValidationError):
        haar_average(z_basis_povm(), "relative_entropy", mc_samples=1000)
