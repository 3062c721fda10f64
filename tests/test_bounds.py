"""Certified upper bounds on the l1 measure and the two worked state families."""

import math

import numpy as np
import pytest

import mp_oracle
from helpers import random_density, random_pure_density, random_unitary, trine_povm, z_basis_povm
from povmcoh import (
    DensityMatrix,
    DimensionMismatchError,
    InvalidExponentsError,
    NotUnitaryError,
    NumericError,
    Povm,
    XOutOfRangeError,
    ZOutOfRangeError,
    bound_b1,
    bound_b2,
    bound_b3,
    figure1_reference_bounds,
    figure1_state,
    figure2_reference_bounds,
    figure2_state,
    holder_bound,
    holder_bound_22,
    l1_coherence,
    pair_bounds,
    projective_povm,
    random_povm,
)
from povmcoh.bounds import BoundReport, basis_bounds, check_exponents

IDENTITY_POVM_2 = Povm([np.eye(2, dtype=complex)])


def test_check_exponents():
    assert check_exponents(2, 2) == (2.0, 2.0)
    assert check_exponents(3, 1.5) == (3.0, 1.5)
    with pytest.raises(InvalidExponentsError):
        check_exponents(1.0, 2.0)
    with pytest.raises(InvalidExponentsError):
        check_exponents(3.0, 1.4999)
    # 1/inf + 1/q is within EXPONENT_TOL of 1 here, but the factors ||.||^(1/p) are NaN
    for p, q in ((math.inf, 1.0000000000001), (1.0000000000001, math.inf)):
        with pytest.raises(InvalidExponentsError, match="exponents must be finite"):
            check_exponents(p, q)


@pytest.mark.parametrize("bad", ["x", None, 1j])
@pytest.mark.parametrize("call, error", [
    (lambda bad: holder_bound(figure1_state(0.5), projective_povm(np.eye(2)), bad, 2), InvalidExponentsError),
    (lambda bad: holder_bound(figure1_state(0.5), projective_povm(np.eye(2)), 2, bad), InvalidExponentsError),
    (figure1_state, ZOutOfRangeError),
    (figure1_reference_bounds, ZOutOfRangeError),
    (figure2_state, XOutOfRangeError),
    (figure2_reference_bounds, XOutOfRangeError),
], ids=["holder_p", "holder_q", "figure1_state", "figure1_reference_bounds",
        "figure2_state", "figure2_reference_bounds"])
def test_non_numeric_parameters_raise_typed_errors(call, error, bad):
    with pytest.raises(error, match="must be a number"):
        call(bad)


def test_bound_report_rejects_unsound_values():
    with pytest.raises(NumericError):
        BoundReport(c_l1_value=1.0, bound_value=0.5, bound_id="thm1")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_bound_report_rejects_non_finite_values(bad):
    for c_l1, bound in ((bad, 1.0), (0.5, bad), (bad, bad)):
        with pytest.raises(NumericError, match="is not finite"):
            BoundReport(c_l1_value=c_l1, bound_value=bound, bound_id="b1")


@pytest.mark.parametrize("bound", [bound_b1, bound_b2, bound_b3])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_basis_bounds_reject_a_non_finite_basis(bound, bad):
    rho = DensityMatrix(np.eye(2) / 2.0)
    one_entry = np.eye(2, dtype=complex)
    one_entry[1, 0] = bad
    for basis in (np.full((2, 2), bad), one_entry):
        with pytest.raises(NotUnitaryError):
            bound(rho, basis)


def test_holder_bound_matches_22_closed_form():
    rng = np.random.default_rng(20)
    for _ in range(10):
        d = int(rng.integers(2, 6))
        rho = random_density(rng, d)
        povm = random_povm(d, int(rng.integers(2, 7)), rng)
        a = holder_bound(rho, povm, 2.0, 2.0).bound_value
        b = holder_bound_22(rho, povm).bound_value
        assert a == b


def test_holder_bound_identity_povm_is_zero():
    rng = np.random.default_rng(21)
    rho = random_density(rng, 2)
    report = holder_bound(rho, IDENTITY_POVM_2, 2.0, 2.0)
    assert report.bound_value == 0.0 and report.c_l1_value == 0.0


def test_holder_bound_trine_exponents():
    rng = np.random.default_rng(22)
    povm = trine_povm()
    for _ in range(10):
        rho = random_density(rng, 2)
        report = holder_bound(rho, povm, 3.0, 1.5)
        assert report.bound_value >= report.c_l1_value - 1e-8


def test_holder_22_single_element_and_projective_plus():
    rng = np.random.default_rng(23)
    rho = random_density(rng, 2)
    assert abs(holder_bound_22(rho, IDENTITY_POVM_2).bound_value) < 1e-12
    # |+><+| against the computational basis: ||E_j rho|| = 1/sqrt(2) each,
    # so the bound is (2 (1/sqrt2)^(1/2))^2 - 2/sqrt(2) = sqrt(2)
    plus = figure2_state  # noqa: F841  (avoid accidental reuse below)
    from helpers import plus_density

    report = holder_bound_22(plus_density(), z_basis_povm())
    assert abs(report.bound_value - math.sqrt(2.0)) < 1e-12
    assert report.c_l1_value <= report.bound_value


def test_pair_bounds_single_element():
    rng = np.random.default_rng(24)
    ordered, uniform = pair_bounds(random_density(rng, 2), IDENTITY_POVM_2)
    assert ordered.bound_value == 0.0 and uniform.bound_value == 0.0


def test_pair_bounds_example_family_matches_b1():
    # ordered pair bound at z=0.5 coincides with the sorted basis bound sqrt(0.5)
    rho = figure1_state(0.5)
    ordered, uniform = pair_bounds(rho, z_basis_povm())
    assert abs(ordered.bound_value - math.sqrt(0.5)) < 1e-10
    assert ordered.bound_value <= uniform.bound_value + 1e-12


def test_pair_bounds_soundness_and_monotonicity():
    rng = np.random.default_rng(25)
    for _ in range(50):
        d = int(rng.integers(2, 7))
        rho = random_density(rng, d)
        povm = random_povm(d, int(rng.integers(2, 9)), rng)
        ordered, uniform = pair_bounds(rho, povm)
        assert ordered.c_l1_value <= ordered.bound_value + 1e-8
        assert ordered.bound_value <= uniform.bound_value + 1e-10


def test_ordered_pair_bound_equals_b1_for_projective():
    rng = np.random.default_rng(26)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        rho = random_density(rng, d)
        basis = random_unitary(rng, d)
        ordered, _ = pair_bounds(rho, projective_povm(basis))
        assert abs(ordered.bound_value - bound_b1(rho, basis).bound_value) < 1e-10


def test_basis_bounds_reject_bad_basis():
    rho = figure2_state(0.1)
    skew = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    for bound in (bound_b1, bound_b2, bound_b3):
        with pytest.raises(NotUnitaryError):
            bound(rho, skew)
        with pytest.raises(DimensionMismatchError):
            bound(rho, np.eye(2))


def test_basis_bounds_certify_the_l1_value():
    # each report carries C_l1 of the basis measurement, from B^dag rho B
    rng = np.random.default_rng(29)
    for d in range(2, 9):
        basis = random_unitary(rng, d)
        povm = projective_povm(basis)
        states = (random_pure_density(rng, d), random_density(rng, d), random_density(rng, d, cols=d - 1))
        for rho in states:
            expected = l1_coherence(rho, povm).value
            for bound in (bound_b1, bound_b2, bound_b3):
                assert abs(bound(rho, basis).c_l1_value - expected) < 1e-12
            # one frame gives all three reports, each as its lone call does
            lone = tuple(bound(rho, basis) for bound in (bound_b1, bound_b2, bound_b3))
            assert basis_bounds(rho, basis) == lone


@pytest.mark.parametrize("d", [2, 3, 4])
def test_basis_bounds_match_the_50_digit_definitions(d):
    # random, rank-2 and pure states in the computational basis and a random one
    rng = np.random.default_rng(31)
    for basis in (np.eye(d, dtype=complex), random_unitary(rng, d)):
        for rho in (random_density(rng, d), random_density(rng, d, cols=2), random_pure_density(rng, d)):
            got = [report.bound_value for report in basis_bounds(rho, basis)]
            want = mp_oracle.basis_bounds(rho.mat, basis)
            for name, g, w in zip(("b1", "b2", "b3"), got, want):
                assert abs(g - w) <= 1e-13 * w, (name, g, w)


def test_b1_examples():
    for z in (0.0, 0.1, 0.5, 0.8):
        expected = math.sqrt(0.25 + (1.0 - z) ** 2)
        assert abs(bound_b1(figure1_state(z), np.eye(2)).bound_value - expected) < 1e-12
    assert abs(bound_b1(figure2_state(0.1), np.eye(3)).bound_value - 1.2) < 1e-12
    # pure diagonal state: sorted column norms (0,1) pair the zero with the
    # weight-1 coefficient, so the bound is 0 = C_l1
    rho = np.diag([1.0, 0.0]).astype(complex)
    from povmcoh import DensityMatrix

    assert abs(bound_b1(DensityMatrix(rho), np.eye(2)).bound_value) < 1e-14


def test_b2_examples():
    for z in (0.0, 0.1, 0.5, 0.8):
        assert abs(bound_b2(figure1_state(z), np.eye(2)).bound_value
                   - math.sqrt(1.0 - z * z)) < 1e-12
    x = 0.1
    expected = (5.0 * x + math.sqrt(1.0 - 17.0 * x * x)) ** 2 - 1.0
    got = bound_b2(figure2_state(x), np.eye(3)).bound_value
    assert abs(got - expected) < 1e-12
    assert abs(expected - 0.99104) < 5e-6
    from povmcoh import DensityMatrix

    mixed = DensityMatrix(np.eye(2, dtype=complex) / 2.0)
    assert abs(bound_b2(mixed, np.eye(2)).bound_value - 1.0) < 1e-12


def test_b3_examples():
    for z in (0.0, 0.1, 0.5, 0.8):
        assert abs(bound_b3(figure1_state(z), np.eye(2)).bound_value - 0.5) < 1e-12
    # on thequtrit pure family the definition gives sum(c^4) = 257 x^4
    x = 0.1
    expected = math.sqrt(6.0 * (1.0 - 257.0 * x**4 - (1.0 - 17.0 * x * x) ** 2))
    got = bound_b3(figure2_state(x), np.eye(3)).bound_value
    assert abs(got - expected) < 1e-12
    from povmcoh import DensityMatrix

    pure_diag = DensityMatrix(np.diag([1.0, 0.0, 0.0]).astype(complex))
    assert abs(bound_b3(pure_diag, np.eye(3)).bound_value) < 1e-12


def test_b3_reference_curve_form():
    # the published curve uses a quartic coefficient 17; it overshoots the
    # definitional b3 for every x > 0 but still dominates the l1 measure
    x = 0.1
    curve = figure2_reference_bounds(x)[2]
    assert abs(curve - math.sqrt(6.0 * (1.0 - 17.0 * x**4 - (1.0 - 17.0 * x * x) ** 2))) < 1e-15
    assert abs(curve - 1.3625) < 5e-5
    op = bound_b3(figure2_state(x), np.eye(3)).bound_value
    assert op < curve
    c_l1 = l1_coherence(figure2_state(x), projective_povm(np.eye(3))).value
    assert c_l1 <= op + 1e-10
    assert abs(figure2_reference_bounds(0.0)[2] - bound_b3(figure2_state(0.0), np.eye(3)).bound_value) < 1e-12


@pytest.mark.parametrize("x", [1e-9, 1e-6, 0.0025, 0.1, 0.24])
def test_b3_reference_curve_keeps_its_digits_near_zero(x):
    # the printed form sqrt(6 (1 - 17x^4 - (1 - 17x^2)^2)), a difference of nearly
    # equal numbers near x = 0, taken at 50 digits
    import mpmath

    with mpmath.workdps(50):
        xm = mpmath.mpf(x)
        exact = mpmath.sqrt(6 * (1 - 17 * xm**4 - (1 - 17 * xm**2) ** 2))
        assert abs(figure2_reference_bounds(x)[2] - exact) <= 1e-15 * exact


def test_family1_states():
    rho = figure1_state(0.0)
    w = np.linalg.eigvalsh(rho.mat)
    assert np.allclose(np.sort(w), [0.25, 0.75])
    figure1_state(0.8)  # still a valid state at the range edge
    for z in (0.0, 0.4, 0.8):
        assert abs(np.trace(figure1_state(z).mat).real - 1.0) < 1e-12
    with pytest.raises(ZOutOfRangeError):
        figure1_state(0.81)
    with pytest.raises(ZOutOfRangeError):
        figure1_state(-0.01)


def test_family2_states():
    rho = figure2_state(0.0)
    expected = np.zeros((3, 3), dtype=complex)
    expected[2, 2] = 1.0
    assert np.max(np.abs(rho.mat - expected)) < 1e-12
    for x in (0.05, 0.2, 1.0 / math.sqrt(17.0)):
        r = figure2_state(x)
        assert abs(np.trace(r.mat).real - 1.0) < 1e-12
        assert r.is_pure()
    with pytest.raises(XOutOfRangeError):
        figure2_state(0.25)
    with pytest.raises(XOutOfRangeError):
        figure2_state(-0.01)


def test_family1_orderings():
    b1, b2, b3 = figure1_reference_bounds(0.5)
    assert b2 > b1 > b3
    b1, b2, b3 = figure1_reference_bounds(0.1)
    assert b1 > b2 > b3
    # the operation values agree with the reference curves across the z range
    for z in np.linspace(0.0, 0.8, 17):
        ref = figure1_reference_bounds(float(z))
        rho = figure1_state(float(z))
        ops = (bound_b1(rho, np.eye(2)).bound_value,
               bound_b2(rho, np.eye(2)).bound_value,
               bound_b3(rho, np.eye(2)).bound_value)
        assert np.allclose(ops, ref, atol=1e-12)


def test_family2_orderings():
    b1, b2, b3 = figure2_reference_bounds(0.1)
    assert b2 < b1 < b3
    b1, b2, b3 = figure2_reference_bounds(0.21)
    assert b2 < b3 < b1


def test_family2_reference_vs_sorted_divergence():
    # the literature closed form for the first curve is the unsorted pairing
    # 12x, which agrees with the sorted (tighter, always-valid) operation only
    # while x <= 1/sqrt(33); past the crossover they split and the operation
    # stays sound while the reference curve overshoots
    crossover = 1.0 / math.sqrt(33.0)
    x_before, x_after = 0.1, 0.21
    assert abs(bound_b1(figure2_state(x_before), np.eye(3)).bound_value
               - figure2_reference_bounds(x_before)[0]) < 1e-12
    op = bound_b1(figure2_state(x_after), np.eye(3)).bound_value
    ref = figure2_reference_bounds(x_after)[0]
    assert x_before < crossover < x_after
    assert abs(ref - 12.0 * x_after) < 1e-12
    sorted_value = 2.0 * (2.0 * x_after + math.sqrt(1.0 - 17.0 * x_after**2))
    assert abs(op - sorted_value) < 1e-12
    assert op < ref
    # soundness of the operation value: for this pure state the l1 measure in
    # the computational basis equals b2 exactly
    c_l1 = l1_coherence(figure2_state(x_after), projective_povm(np.eye(3))).value
    assert abs(c_l1 - figure2_reference_bounds(x_after)[1]) < 1e-10
    assert c_l1 <= op + 1e-10


def test_soundness_sweep_with_exponent_grid():
    rng = np.random.default_rng(27)
    grid = [(2.0, 2.0), (3.0, 1.5), (4.0, 4.0 / 3.0)]
    for _ in range(100):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(2, 9))
        rho = random_pure_density(rng, d) if rng.random() < 0.3 else random_density(rng, d)
        povm = random_povm(d, n, rng)
        value = l1_coherence(rho, povm).value
        for p, q in grid:
            assert value <= holder_bound(rho, povm, p, q).bound_value + 1e-8
        ordered, uniform = pair_bounds(rho, povm)
        assert value <= ordered.bound_value + 1e-8
        assert ordered.bound_value <= uniform.bound_value + 1e-10
