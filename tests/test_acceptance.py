"""Acceptance gate: one test per release criterion.

Each test times its own body, prints a single PASS/FAIL line (run with
`pytest tests/test_acceptance.py -v -s` to see them), and enforces both the
numeric tolerance and the runtime budget.
"""

import time
from contextlib import contextmanager

import numpy as np

from helpers import (
    block_projective_povm,
    perturbed_avg_relative_entropy,
    perturbed_avg_tsallis,
    plus_density,
    random_density,
    random_ensemble,
    random_pure_density,
    random_unitary,
    richardson,
    x_basis_povm,
    z_basis_povm,
)
from povmcoh import (
    DensityMatrix,
    PureState,
    bounds,
    build_lsm,
    discrimination_identity_check,
    ensemble_from_measurement,
    haar_average_relative_entropy,
    haar_average_tsallis,
    haar_moment,
    l1_coherence,
    measurement_from_ensemble,
    monte_carlo_average,
    overlap_constant,
    projective_povm,
    pure_state_bound,
    random_povm,
    tsallis_half_trace_formula,
    uncertainty_report,
    validate,
)
from povmcoh import linalg
from povmcoh.measures import pure_l1_coherence


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    start = time.perf_counter()
    failure = None
    try:
        yield
    except BaseException as exc:  # report, then re-raise
        failure = exc
    elapsed = time.perf_counter() - start
    status = "PASS" if failure is None and elapsed < budget_s else "FAIL"
    print(f"criterion {number:02d} {status} ({elapsed:.2f}s) - {description}")
    if failure is not None:
        raise failure
    assert elapsed < budget_s, f"runtime {elapsed:.2f}s over the {budget_s}s budget"


def test_criterion_01():
    with criterion(1, "qubit family: bounds match closed forms and orderings", 1.0):
        basis = np.eye(2)
        for z in (0.1, 0.5):
            rho = bounds.figure1_state(z)
            b1 = bounds.bound_b1(rho, basis).bound_value
            b2 = bounds.bound_b2(rho, basis).bound_value
            b3 = bounds.bound_b3(rho, basis).bound_value
            assert abs(b1 - np.sqrt(0.25 + (1.0 - z) ** 2)) < 1e-12
            assert abs(b2 - np.sqrt(1.0 - z * z)) < 1e-12
            assert abs(b3 - 0.5) < 1e-12
            if z == 0.5:
                assert b2 > b1 > b3
            else:
                assert b1 > b2 > b3


def test_criterion_02():
    with criterion(2, "qutrit family: reference bounds and orderings", 1.0):
        basis = np.eye(3)
        for x in (0.1, 0.21):
            b1, b2, b3 = bounds.figure2_reference_bounds(x)
            tail = np.sqrt(1.0 - 17.0 * x * x)
            assert abs(b1 - 12.0 * x) < 1e-12
            assert abs(b2 - ((5.0 * x + tail) ** 2 - 1.0)) < 1e-12
            assert abs(b3 - np.sqrt(6.0 * (1.0 - 17.0 * x**4 - tail**4))) < 1e-12
            if x == 0.1:
                assert b2 < b1 < b3
            else:
                assert b2 < b3 < b1
            # the second bound is definitional, so the operator route agrees
            rho = bounds.figure2_state(x)
            assert abs(bounds.bound_b2(rho, basis).bound_value - b2) < 1e-12
        # below the amplitude crossover the first bound is definitional too
        rho = bounds.figure2_state(0.1)
        assert abs(bounds.bound_b1(rho, basis).bound_value - 1.2) < 1e-12


def test_criterion_03():
    with criterion(3, "half-order Tsallis equals twice the LSM error (1e3 cases)", 30.0):
        rng = np.random.default_rng(303)
        for _ in range(1000):
            d = int(rng.integers(2, 7))
            n = int(rng.integers(2, 9))
            rho = random_density(rng, d)
            povm = random_povm(d, n, rng)
            assert discrimination_identity_check(rho, povm).defect <= 1e-9


def test_criterion_04():
    with criterion(4, "ensemble -> (state, POVM) -> ensemble roundtrip (200 cases)", 20.0):
        rng = np.random.default_rng(304)
        from povmcoh import tsallis_coherence

        for _ in range(200):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(1, 7))
            ens = random_ensemble(rng, d, n)
            result = measurement_from_ensemble(ens)
            assert validate(result.povm) == []
            lhs = tsallis_coherence(result.state, result.povm, 0.5).value
            rhs = 2.0 * build_lsm(ens).error_probability
            assert abs(lhs - rhs) <= 1e-9
            back = ensemble_from_measurement(result.state, result.povm)
            assert back.size == ens.size
            assert np.max(np.abs(back.weights - ens.weights)) <= 1e-8
            for got, want in zip(back.states, ens.states):
                assert np.max(np.abs(got.mat - want.mat)) <= 1e-8


def test_criterion_05():
    with criterion(5, "l1 upper bounds sound; ordered bound matches basis form (1e3 cases)", 60.0):
        rng = np.random.default_rng(305)
        grid = [(2.0, 2.0), (3.0, 1.5), (4.0, 4.0 / 3.0)]
        for i in range(1000):
            d = int(rng.integers(2, 7))
            projective = i % 4 == 0
            if projective:
                basis = random_unitary(rng, d)
                povm = projective_povm(basis)
            else:
                povm = random_povm(d, int(rng.integers(2, 9)), rng)
            rho = random_pure_density(rng, d) if i % 3 == 0 else random_density(rng, d)
            c = l1_coherence(rho, povm).value
            for p, q in grid:
                assert c <= bounds.holder_bound(rho, povm, p, q).bound_value + 1e-8
            ordered, uniform = bounds.pair_bounds(rho, povm)
            assert c <= ordered.bound_value + 1e-8
            assert ordered.bound_value <= uniform.bound_value + 1e-10
            if projective:
                b1 = bounds.bound_b1(rho, basis).bound_value
                assert abs(ordered.bound_value - b1) <= 1e-10


def test_criterion_06():
    with criterion(6, "two-measurement uncertainty relation (1e3 cases)", 30.0):
        rng = np.random.default_rng(306)
        for i in range(1000):
            d = int(rng.integers(2, 6))
            rho = random_pure_density(rng, d) if i % 4 == 0 else random_density(rng, d)
            e = random_povm(d, int(rng.integers(2, 7)), rng)
            f = random_povm(d, int(rng.integers(2, 7)), rng)
            report = uncertainty_report(rho, e, f)
            assert report.lhs >= report.bound_c - 1e-9
            assert report.lhs >= report.bound_c_prime - 1e-9
            assert report.c_prime <= report.c + 1e-12
        c = overlap_constant(z_basis_povm(), x_basis_povm())
        assert abs(c - 1.0 / np.sqrt(2.0)) < 1e-12
        assert abs(pure_state_bound(c) - 0.5) < 1e-12
        zero = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        report = uncertainty_report(zero, z_basis_povm(), x_basis_povm())
        assert abs(report.lhs - 1.0) < 1e-10
        assert report.lhs >= pure_state_bound(c)


def test_criterion_07():
    with criterion(7, "exact Haar reductions for projective measurements", 10.0):
        for d in range(2, 9):
            povm = projective_povm(np.eye(d, dtype=complex))
            want_r = sum(1.0 / m for m in range(2, d + 1)) / np.log(2.0)
            assert abs(haar_average_relative_entropy(povm) - want_r) < 1e-12
            want_t = 2.0 * (d - 1.0) / (d + 1.0)
            assert abs(haar_average_tsallis(povm, 0.5) - want_t) < 1e-12
        rng = np.random.default_rng(307)
        for _ in range(50):
            d = int(rng.integers(2, 7))
            povm = random_povm(d, int(rng.integers(2, 8)), rng)
            assert abs(
                tsallis_half_trace_formula(povm) - haar_average_tsallis(povm, 0.5)
            ) < 1e-10


def test_criterion_08():
    with criterion(8, "Haar averages vs Monte Carlo within 4 sigma (20 POVMs)", 300.0):
        rng = np.random.default_rng(308)
        jobs = [("relative_entropy", None), ("tsallis", 0.5),
                ("tsallis", 1.5), ("tsallis", 2.0)]
        for _ in range(20):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(2, 7))
            povm = random_povm(d, n, rng)
            for measure_id, alpha in jobs:
                if measure_id == "relative_entropy":
                    analytic = haar_average_relative_entropy(povm)
                else:
                    analytic = haar_average_tsallis(povm, alpha)
                est = monte_carlo_average(povm, measure_id, 100000, rng, alpha=alpha)
                assert abs(analytic - est.mean) <= 4.0 * est.std_error
            # the l1 measure never exceeds n - 1 on any sampled pure state
            psi = rng.standard_normal((100000, d)) + 1j * rng.standard_normal((100000, d))
            psi /= np.linalg.norm(psi, axis=1, keepdims=True)
            stack = np.array(povm.elements)
            probs = np.einsum("bi,kij,bj->bk", psi.conj(), stack, psi).real
            np.clip(probs, 0.0, None, out=probs)
            vals = np.sum(np.sqrt(probs), axis=1) ** 2 - np.sum(probs, axis=1)
            assert float(vals.max()) <= (n - 1.0) + 1e-9


def test_criterion_09():
    with criterion(9, "degenerate spectra: exact averages match perturbation", 10.0):
        cases = [
            (block_projective_povm(4, [(0, 1), (2, 3)]), (1e-4, 1e-5)),
            (block_projective_povm(6, [(0, 1), (2, 3), (4, 5)]), (1e-4, 1e-5)),
            # a rank-3 projector clusters three nodes; larger eps controls
            # the kernel-oracle roundoff there
            (block_projective_povm(5, [(0, 1, 2), (3, 4)]), (3e-4, 3e-5)),
        ]
        for povm, (eps, eps_tenth) in cases:
            exact = haar_average_relative_entropy(povm)
            approx = richardson(
                perturbed_avg_relative_entropy(povm, eps),
                perturbed_avg_relative_entropy(povm, eps_tenth),
            )
            assert abs(exact - approx) < 1e-6
            for alpha in (0.5, 1.5, 2.0):
                exact_t = haar_average_tsallis(povm, alpha)
                approx_t = richardson(
                    perturbed_avg_tsallis(povm, alpha, eps),
                    perturbed_avg_tsallis(povm, alpha, eps_tenth),
                )
                assert abs(exact_t - approx_t) < 1e-6
        for d in (2, 4, 8):
            eye = np.eye(d, dtype=complex)
            for beta in (0.5, 1.0, 1.7):
                assert abs(haar_moment(eye, beta) - 1.0) < 1e-10


def test_criterion_10():
    with criterion(10, "kernel accuracy: eig, square root, trace norm (1e3 cases)", 60.0):
        rng = np.random.default_rng(310)
        for _ in range(1000):
            d = int(rng.integers(1, 17))
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            h = (g + g.conj().T) / 2.0
            w, v = linalg.eig_hermitian(h)
            recon = (v * w) @ v.conj().T
            assert np.max(np.abs(recon - h)) <= 1e-10

            a = g @ g.conj().T
            root = linalg.sqrt_psd(a)
            assert np.max(np.abs(root @ root - a)) <= 1e-9

            u = random_unitary(rng, d)
            w2 = random_unitary(rng, d)
            tn = linalg.trace_norm(g)
            assert abs(linalg.trace_norm(u @ g @ w2.conj().T) - tn) <= 1e-9
            assert abs(linalg.trace_norm(u @ g @ u.conj().T) - tn) <= 1e-9
