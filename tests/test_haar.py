"""Haar averages of the coherence measures: the Laplace-transform kernel against a
high-precision oracle, exact moment formulas, the l1 pair bound, and the Monte
Carlo cross-check."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from itertools import combinations_with_replacement

import numpy as np
import pytest

import mp_oracle
from helpers import (
    block_projective_povm,
    perturbed_avg_relative_entropy,
    perturbed_avg_tsallis,
    record_hand_offs,
    record_thread_starts,
    richardson,
    trine_povm,
    z_basis_povm,
)
from povmcoh import (
    AlphaOutOfRangeError,
    BetaNonPositiveError,
    HaarAverageResult,
    InvalidExponentsError,
    Povm,
    ValidationError,
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
from povmcoh import linalg
from povmcoh.haar import MAX_BETA, MAX_MC_SAMPLES, MC_CHUNK, MC_ROUNDOFF_FLOOR
from povmcoh.measures import pure_l1_coherence
from povmcoh.objects import MAX_DRAWN_ENTRIES


# --------------------------------------------------------------------------
# the kernel against a high-precision oracle


def _assert_matches_oracle(spectra):
    """avg C_r and avg C_{T,alpha} of the POVM of diagonal elements with these
    spectra, within 1e-10 relative of the oracle."""
    povm = Povm([np.diag(lam).astype(complex) for lam in spectra])
    got = haar_average_relative_entropy(povm)
    want = mp_oracle.avg_relative_entropy(spectra)
    assert abs(got - want) <= 1e-10 * abs(want), ("C_r", got, want)
    for alpha in (0.7, 1.01, 1.3, 2.0):
        got = haar_average_tsallis(povm, alpha)
        want = mp_oracle.avg_tsallis(spectra, alpha)
        assert abs(got - want) <= 1e-10 * abs(want), (alpha, got, want)


@pytest.mark.parametrize("alpha", [1e-4, 0.9999, 1.0001])  # the edges of measures.check_alpha
def test_tsallis_average_at_the_edge_orders_matches_oracle(alpha):
    # worst seen 1.4e-11 relative, at 0.9999; rank-deficient elements included
    for spectra in ([[0.7, 0.2], [0.3, 0.8]], [[0.6, 0.3, 0.05], [0.4, 0.7, 0.95]],
                    [[1.0, 0.5, 0.0], [0.0, 0.5, 1.0]], [[0.9, 0.5, 0.25, 0.0], [0.1, 0.5, 0.75, 1.0]]):
        povm = Povm([np.diag(lam).astype(complex) for lam in spectra])
        got, want = haar_average_tsallis(povm, alpha), mp_oracle.avg_tsallis(spectra, alpha)
        assert abs(got - want) <= 1e-10 * abs(want), (spectra, got, want)


@pytest.mark.parametrize("eps", [10.0**-k for k in range(2, 10)])
def test_averages_match_oracle_on_near_degenerate_pairs(eps):
    # {I/2 + eps D, I/2 - eps D}, D = diag(0..d-1)/d: each element's nodes sit eps/d
    # apart, where a Newton divided-difference table loses every digit
    for d in range(2, 9):
        lam = 0.5 + eps * np.arange(d) / d
        _assert_matches_oracle([lam, 1.0 - lam])


@pytest.mark.parametrize("d", [4, 8, 16, 24, 32])
@pytest.mark.parametrize("spectrum", ["wishart", "dirichlet"])
def test_averages_match_oracle_on_binary_povms(spectrum, d):
    # {E, I - E} with E of trace one: a spread spectrum and its reflection 1 - lam,
    # clustered near 1
    rng = np.random.default_rng(1000 + d)
    if spectrum == "wishart":
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        lam = np.linalg.eigvalsh(a @ a.conj().T)
        lam /= lam.sum()
    else:
        lam = rng.dirichlet(np.ones(d))
    _assert_matches_oracle([lam, 1.0 - lam])


@pytest.mark.parametrize("d", [4, 8, 16])
def test_averages_match_oracle_on_spread_spectra(d):
    # {E, I - E} with E's eigenvalues log-spaced over 1e-12..1 (then normalised): the
    # integrand turns over once per decade of s
    lam = np.logspace(-12.0, 0.0, d)
    lam /= lam.sum()
    _assert_matches_oracle([lam, 1.0 - lam])


@pytest.mark.parametrize("beta", [0.999, 1.999, 300.5, 2000.5])
def test_haar_moment_matches_oracle(beta):
    # just below an integer, the kernel's k = floor(beta) + 2 keeps the integrand
    # decaying like s^(k - beta) at s -> 0; for large beta it peaks narrowly near
    # s = (k - beta) / k
    lam = np.array([0.9, 0.6, 0.35, 0.2, 0.05])
    u = np.linalg.qr(np.random.default_rng(62).standard_normal((5, 5)))[0]
    want = mp_oracle.haar_moment(lam, beta)
    assert abs(haar_moment((u * lam) @ u.T, beta) - want) <= 1e-10 * want


@pytest.mark.parametrize("beta", [9999.5, MAX_BETA])
def test_haar_moment_matches_oracle_at_largest_order(beta):
    # a top eigenvalue of 1 keeps the moment from underflowing at beta = 1e4
    lam = np.array([1.0, 0.9999, 0.9998, 0.2, 0.0])
    u = np.linalg.qr(np.random.default_rng(63).standard_normal((5, 5)))[0]
    want = mp_oracle.haar_moment(lam, beta)
    assert abs(haar_moment((u * lam) @ u.T, beta) - want) <= 1e-10 * want


def _conjugate_pairs(p):
    pair = (p, p / (p - 1.0))
    return {(0, 1): pair, (1, 0): pair}


@pytest.mark.parametrize("call, message", [
    (lambda: haar_moment(np.eye(2, dtype=complex), 1e9), "moment order"),
    (lambda: haar_moment(np.eye(2, dtype=complex), 10000.5), "moment order"),
    # measures.check_alpha's floor, 1 / MAX_BETA, refuses the order before the kernel
    (lambda: haar_average_tsallis(z_basis_povm(), 1e-6), "alpha must lie in"),
    (lambda: haar_average_l1_bound(z_basis_povm(), exponents=_conjugate_pairs(1.0 + 1e-6)), "moment order"),
], ids=["moment-1e9", "moment-10000.5", "tsallis-1e-6", "l1bound-p-1+1e-6"])
def test_moment_orders_above_the_largest_are_rejected(call, message):
    # the kernel's cost grows with the order, so it refuses orders above MAX_BETA
    # before doing any work
    with pytest.raises(ValidationError, match=message):
        call()


def test_tsallis_at_the_smallest_alpha():
    # alpha = 1 / MAX_BETA is the exact integer moment of order 1e4
    assert abs(haar_average_tsallis(Povm([np.eye(3, dtype=complex)]), 1.0 / MAX_BETA)) == 0.0
    # C_T = (sum_j E Y_j^beta - 1) / (alpha - 1) lies in [0, 1 / (1 - alpha)]
    povm = random_povm(3, 3, np.random.default_rng(64))
    assert 0.0 < haar_average_tsallis(povm, 1.0 / MAX_BETA) <= 1.0 / (1.0 - 1.0 / MAX_BETA)


def test_haar_moment_rejects_nonpositive_beta():
    with pytest.raises(BetaNonPositiveError):
        haar_moment(np.eye(2, dtype=complex), 0.0)
    with pytest.raises(BetaNonPositiveError):
        haar_moment(np.eye(2, dtype=complex), -1.0)
    for beta in (np.inf, np.nan):  # NaN fails every comparison, so it is checked apart
        with pytest.raises(BetaNonPositiveError):
            haar_moment(np.eye(2, dtype=complex), beta)


@pytest.mark.parametrize("beta", [None, "x", 1j])
def test_haar_moment_rejects_non_numeric_beta(beta):
    with pytest.raises(BetaNonPositiveError, match="number"):
        haar_moment(np.eye(2, dtype=complex), beta)


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


def test_integer_moments_match_exact_rational_values():
    # for integer beta = m the moment is (d-1)! / prod_{i<d} (m+i) times h_m(lam), the
    # complete homogeneous symmetric polynomial; dyadic spectra (repeats and zeros
    # included) are exact in binary, so Fractions give the exact value
    rng = np.random.default_rng(58)
    for _ in range(25):
        d = int(rng.integers(2, 8))
        lam = [Fraction(int(k), 64) for k in rng.integers(0, 65, size=d)]
        lam[int(rng.integers(d))] = lam[0]
        element = np.diag([float(x) for x in lam]).astype(complex)
        for m in range(1, d + 1):
            h = sum((math.prod(c) for c in combinations_with_replacement(lam, m)), Fraction(0))
            exact = h * math.factorial(d - 1) / math.prod(m + i for i in range(1, d))
            assert abs(haar_moment(element, m) - float(exact)) <= 1e-14 * float(exact)


@pytest.mark.parametrize("eps", [10.0**-k for k in range(3, 10)])
def test_integer_moments_exact_on_near_degenerate_pairs(eps):
    # {I/2 + eps D, I/2 - eps D}: the nodes of each element sit eps/d apart; the
    # alpha = 1/2 average and the p = q = 2 l1 bound need only integer moments, h_m
    d = 6
    shift = eps * np.diag(np.arange(d) / d)
    povm = Povm([0.5 * np.eye(d) + shift, 0.5 * np.eye(d) - shift])
    assert abs(haar_average_tsallis(povm, 0.5) - tsallis_half_trace_formula(povm)) < 1e-12
    assert abs(haar_average_l1_bound(povm) - 1.0) < 1e-12


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


def test_trivial_povm_averages_are_never_negative():
    # on {I} the averages vanish; negative roundoff is clamped like a measure value, so
    # a zero is unsigned (the alpha = 1/2 form is (1 - 1) / (1/2 - 1) = -0.0 unclamped)
    for d in range(1, 17):
        povm = Povm([np.eye(d, dtype=complex)])
        for value in (haar_average_relative_entropy(povm), haar_average_tsallis(povm, 0.5),
                      haar_average_tsallis(povm, 1.3)):
            assert 0.0 <= value < 1e-14 and math.copysign(1.0, value) == 1.0


def test_trace_formula_matches_moment_route():
    rng = np.random.default_rng(53)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        povm = random_povm(d, int(rng.integers(2, 7)), rng)
        assert abs(
            tsallis_half_trace_formula(povm) - haar_average_tsallis(povm, 0.5)
        ) < 1e-10


def test_degenerate_spectra_via_perturbation():
    # POVMs built from rank-2 projectors have repeated eigenvalues; compare the
    # exact averages against Richardson-extrapolated perturbed evaluations
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
    assert haar_average_l1_bound(povm) == 0.0


def test_l1_bound_default_exponents_collapse():
    # at p = q = 2 the pair (j, k) contributes E Y_j / 2 + E Y_k / 2, and the pairs sum
    # to (n - 1) sum_j E Y_j = n - 1: the default is that closed form, exactly, and the
    # moment sum at explicit p = q = 2 meets it to roundoff
    rng = np.random.default_rng(54)
    for _ in range(15):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(2, 8))
        povm = random_povm(d, n, rng)
        assert haar_average_l1_bound(povm) == n - 1.0
        pairs = {(j, k): (2.0, 2.0) for j in range(n) for k in range(n) if j != k}
        assert abs(haar_average_l1_bound(povm, exponents=pairs) - (n - 1.0)) < 1e-12


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


@pytest.mark.parametrize("exponents", [
    {(0, 1): (3.0, 2.0), (1, 0): (2.0, 2.0)},
    np.array(3.0),  # not a mapping of pairs
    [(2.0, 2.0), (2.0, 2.0)],
])
def test_l1_bound_rejects_bad_exponents(exponents):
    with pytest.raises(InvalidExponentsError):
        haar_average_l1_bound(z_basis_povm(), exponents=exponents)


@pytest.mark.parametrize("exponents", [
    {(0, 1): (2.0, 2.0)},                     # (1, 0) missing
    {(0, 1): (2.0, 2.0), (1, 0): 2.0},        # not a pair
    {(0, 1): (2.0, 2.0), (1, 0): (2.0, 2.0, 2.0)},
    {(0, 1): (2.0, 2.0), (1, 0): ("x", "y")},
])
def test_l1_bound_names_the_bad_exponent_pair(exponents):
    with pytest.raises(InvalidExponentsError, match=r"\(1, 0\)"):
        haar_average_l1_bound(z_basis_povm(), exponents=exponents)


def test_l1_bound_keeps_the_exponent_message():
    with pytest.raises(InvalidExponentsError, match=r"exponents\[\(1, 0\)\]: 1/p \+ 1/q = .* != 1"):
        haar_average_l1_bound(z_basis_povm(), exponents={(0, 1): (2.0, 2.0), (1, 0): (3.0, 2.0)})


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


def test_mc_two_threads_equal_the_one_cpu_estimate(monkeypatch):
    povm = random_povm(3, 3, np.random.default_rng(57))
    hand_offs = record_hand_offs(monkeypatch)
    monkeypatch.setattr(linalg, "_cpus", lambda: 2)
    two = monte_carlo_average(povm, "relative_entropy", 30000, np.random.default_rng(99))
    assert len(hand_offs) == 1
    monkeypatch.setattr(linalg, "_cpus", lambda: 1)
    hand_offs.clear()
    starts = record_thread_starts(monkeypatch)
    one = monte_carlo_average(povm, "relative_entropy", 30000, np.random.default_rng(99))
    assert starts == [] and hand_offs == []
    assert (two.mean, two.std_error) == (one.mean, one.std_error)


def test_mc_builds_no_pool_for_one_chunk(monkeypatch):
    povm = random_povm(3, 3, np.random.default_rng(57))
    want = monte_carlo_average(povm, "l1", MC_CHUNK, np.random.default_rng(98))
    hand_offs = record_hand_offs(monkeypatch)
    # two chunks take the one helper thread on two CPUs
    monte_carlo_average(povm, "l1", MC_CHUNK + 100, np.random.default_rng(98))
    assert len(hand_offs) == (1 if linalg._cpus() >= 2 else 0)
    hand_offs.clear()
    starts = record_thread_starts(monkeypatch)
    got = monte_carlo_average(povm, "l1", MC_CHUNK, np.random.default_rng(98))
    assert starts == [] and hand_offs == []
    assert (got.mean, got.std_error) == (want.mean, want.std_error)


@pytest.mark.parametrize("call", [
    lambda rng: monte_carlo_average(z_basis_povm(), "l1", math.inf, rng),
    lambda rng: monte_carlo_average(z_basis_povm(), "l1", math.nan, rng),
    lambda rng: monte_carlo_average(z_basis_povm(), "l1", "x", rng),
    lambda rng: monte_carlo_average(z_basis_povm(), "l1", 150.7, rng),
    lambda rng: monte_carlo_average(z_basis_povm(), "l1", "300", rng),
    lambda rng: haar_random_pure(None, rng),
    lambda rng: haar_random_pure(2.5, rng),
    lambda rng: random_povm(math.nan, 2, rng),
    lambda rng: random_povm(2.5, 2, rng),
])
def test_counts_must_be_integers(call):
    with pytest.raises(ValidationError, match="must be an integer"):
        call(np.random.default_rng(2))


def test_counts_accept_numpy_integers():
    rng = np.random.default_rng(3)
    assert monte_carlo_average(z_basis_povm(), "l1", np.int64(300), rng).samples == 300
    assert haar_random_pure(np.int64(3), rng).dim == 3
    assert random_povm(np.int32(2), np.uint8(3), rng).outcomes == 3


def two_pass_mc(povm, counts, seed, value_of):
    """(mean, std error) from the same chunked draws as monte_carlo_average, with
    normalised states, probabilities by einsum over the elements and a two-pass
    variance."""
    d, vals = povm.dim, []
    for count, gen in zip(counts, np.random.default_rng(seed).spawn(len(counts))):
        psi = gen.standard_normal((count, d)) + 1j * gen.standard_normal((count, d))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        probs = np.einsum("bi,kij,bj->bk", psi.conj(), np.array(povm.elements), psi).real
        vals.append(value_of(probs))
    vals = np.concatenate(vals)
    return vals.mean(), np.std(vals, ddof=1) / np.sqrt(vals.size)


def test_mc_std_error_matches_two_pass_variance():
    # {I/2 + eps D, I/2 - eps D}: the spread of C_r is far below its mean, where
    # a one-pass variance sum(x^2) - N mean^2 loses every digit
    d, eps = 6, 1e-5
    shift = eps * np.diag(np.arange(d) / d)
    povm = Povm([0.5 * np.eye(d) + shift, 0.5 * np.eye(d) - shift])
    counts = [MC_CHUNK, MC_CHUNK, 100]
    est = monte_carlo_average(povm, "relative_entropy", sum(counts), np.random.default_rng(3))
    mean, std_error = two_pass_mc(povm, counts, 3, lambda p: -np.sum(p * np.log2(p), axis=1))
    assert abs(est.mean - mean) < 1e-12
    assert abs(est.std_error - std_error) <= 1e-6 * std_error


@pytest.mark.parametrize("measure_id, alpha, value_of", [
    ("relative_entropy", None, lambda p: -np.sum(p * np.log2(p), axis=1)),
    ("l1", None, lambda p: np.sum(np.sqrt(p), axis=1) ** 2 - np.sum(p, axis=1)),
    ("tsallis", 2.0, lambda p: (np.sum(np.sqrt(p), axis=1) - 1.0) / (2.0 - 1.0)),
])
def test_mc_mixed_rank_matches_two_pass_reference(measure_id, alpha, value_of):
    # element ranks 1, 2 and d: the stacked factor is k = d rows per element, the
    # lower-rank elements padded with zero rows
    d = 5
    q = np.linalg.qr(np.random.default_rng(59).standard_normal((d, d)))[0].astype(complex)
    e1 = 0.5 * np.outer(q[:, 0], q[:, 0])
    e2 = 0.5 * q[:, 1:3] @ q[:, 1:3].T
    povm = Povm([e1, e2, np.eye(d) - e1 - e2])
    assert povm.root_factors[1].shape == (3, d, d)
    counts = [MC_CHUNK, 1000]
    est = monte_carlo_average(povm, measure_id, sum(counts), np.random.default_rng(4), alpha=alpha)
    mean, std_error = two_pass_mc(povm, counts, 4, value_of)
    assert abs(est.mean - mean) < 1e-12
    assert abs(est.std_error - std_error) <= 1e-6 * std_error


def test_mc_rejects_tiny_sample_counts():
    povm = z_basis_povm()
    with pytest.raises(ValidationError):
        monte_carlo_average(povm, "l1", 50, np.random.default_rng(0))


def test_mc_rejects_sample_counts_above_the_limit():
    class Unsampled:
        def spawn(self, n):
            raise AssertionError("the sample count is checked before any generator exists")

    with pytest.raises(ValidationError, match="at most"):
        monte_carlo_average(z_basis_povm(), "l1", MAX_MC_SAMPLES + 1, Unsampled())


class _Undrawn(np.random.Generator):
    def standard_normal(self, *args, **kwargs):
        raise AssertionError("the size is checked before any draw")


@pytest.mark.parametrize("call", [
    lambda rng: haar_random_pure(10**30, rng),
    lambda rng: haar_random_pure(MAX_DRAWN_ENTRIES + 1, rng),
    lambda rng: random_povm(10**30, 2, rng),
    lambda rng: random_povm(2, 10**30, rng),
    lambda rng: random_povm(2, MAX_DRAWN_ENTRIES // 4 + 1, rng),
])
def test_random_sizes_are_capped_before_any_draw(call):
    with pytest.raises(ValidationError, match="at most"):
        call(_Undrawn(np.random.PCG64(0)))


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


def test_sigma_distance_of_a_measure_the_same_for_every_state_is_roundoff():
    # every element a multiple of I: C_r is 1 for every state, the sampled standard
    # error is roundoff, and the exact average is a few ulp below 1
    povm = Povm([np.eye(2) / 2, np.eye(2) / 2])
    res = haar_average(povm, "relative_entropy", mc_samples=1000, rng=np.random.default_rng(3))
    assert res.mc_std_error < 1e-15 and res.analytic != res.mc_estimate
    assert res.sigma_distance < 1.0


@pytest.mark.parametrize("analytic, mc, std_error, want", [
    (1.0, 1.0, 0.0, 0.0),
    (1.0, 1.0 + MC_ROUNDOFF_FLOOR, 0.0, 1.0),
    (4.0, 4.0 + 2.0 * MC_ROUNDOFF_FLOOR, 1e-18, 0.5),
    (0.5, 0.49, 0.01, 1.0),
], ids=["equal", "floor", "relative-floor", "sampled"])
def test_sigma_distance_floors_the_standard_error_at_roundoff(analytic, mc, std_error, want):
    res = HaarAverageResult(analytic, "relative_entropy", None, mc, std_error, 1000)
    assert res.sigma_distance == pytest.approx(want, rel=1e-12)


def test_sigma_distance_needs_both_the_estimate_and_its_standard_error():
    assert HaarAverageResult(1.0, "relative_entropy", mc_estimate=1.0).sigma_distance is None
    assert HaarAverageResult(1.0, "relative_entropy", mc_std_error=0.1).sigma_distance is None


def test_haar_vs_mc_script_passes_a_measure_the_same_for_every_state():
    # on d = 1 every measure takes one value: no formula is off by tens of sigma
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), *sys.path]))
    done = subprocess.run([sys.executable, str(root / "scripts" / "haar_vs_mc.py"), "--povms", "1",
                           "--samples", "2000", "--dim", "1", "--outcomes", "3"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr
    worst = float(done.stdout.rsplit("distance:", 1)[1].split()[0])
    assert worst < 1.0


def test_haar_average_rejects_l1_id():
    with pytest.raises(ValidationError):
        haar_average(z_basis_povm(), "l1")


@pytest.mark.parametrize("entry", [
    lambda povm, alpha: monte_carlo_average(povm, "tsallis", 1000, np.random.default_rng(0), alpha=alpha),
    lambda povm, alpha: haar_average(povm, "tsallis", alpha),
    lambda povm, alpha: haar_average_tsallis(povm, alpha),
], ids=["monte_carlo_average", "haar_average", "haar_average_tsallis"])
@pytest.mark.parametrize("alpha", [None, "x", 1j])
def test_haar_entry_points_reject_non_numeric_alpha(entry, alpha):
    with pytest.raises(AlphaOutOfRangeError, match="number"):
        entry(z_basis_povm(), alpha)


def test_haar_average_mc_requires_rng():
    with pytest.raises(ValidationError):
        haar_average(z_basis_povm(), "relative_entropy", mc_samples=1000)


@pytest.mark.parametrize("mc_samples", [np.zeros((2, 2)), "", 0.0, 150.7],
                         ids=["ndarray", "empty_string", "zero_float", "fraction"])
def test_haar_average_rejects_a_non_integral_sample_count(mc_samples):
    with pytest.raises(ValidationError, match="mc_samples"):
        haar_average(z_basis_povm(), "relative_entropy", mc_samples=mc_samples,
                     rng=np.random.default_rng(0))


@pytest.mark.parametrize("mc_samples", [None, 0, np.int64(0)], ids=["none", "zero", "numpy_zero"])
def test_haar_average_without_samples_is_analytic_only(mc_samples):
    res = haar_average(z_basis_povm(), "relative_entropy", mc_samples=mc_samples,
                       rng=np.random.default_rng(0))
    assert res.analytic == haar_average_relative_entropy(z_basis_povm())
    assert res.mc_estimate is None and res.sample_count is None
