"""Validated quantum data types and the random samplers behind the test suite."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import raised_violations, random_density, random_unitary, x_basis_povm
from povmcoh import (
    AlphaOutOfRangeError,
    BetaNonPositiveError,
    DensityMatrix,
    EmptyEnsembleError,
    Ensemble,
    InvalidExponentsError,
    NotSquareError,
    NotUnitaryError,
    Povm,
    PureState,
    SingularSumError,
    ValidationError,
    XOutOfRangeError,
    ZOutOfRangeError,
    bound_b1,
    bound_b2,
    bound_b3,
    build_lsm,
    ensemble_from_measurement,
    figure1_reference_bounds,
    figure1_state,
    figure2_reference_bounds,
    figure2_state,
    haar_average,
    haar_average_l1_bound,
    haar_average_tsallis,
    haar_moment,
    haar_random_pure,
    holder_bound,
    is_povm_incoherent,
    l1_coherence,
    measurement_from_ensemble,
    monte_carlo_average,
    overlap_constant,
    projective_povm,
    pure_state_bound,
    random_povm,
    tsallis_coherence,
    uncertainty_report,
    validate,
)
from povmcoh import objects
from povmcoh.objects import Violation


def test_density_accepts_maximally_mixed():
    assert raised_violations(DensityMatrix, np.eye(2, dtype=complex) / 2.0) == []


def test_density_reports_trace_defect():
    violations = raised_violations(DensityMatrix, 1.1 * np.eye(2, dtype=complex) / 2.0)
    assert any("trace" in v.invariant for v in violations)
    defect = [v.defect for v in violations if "trace" in v.invariant][0]
    assert abs(defect - 0.1) < 1e-12


def test_density_reports_hermiticity_and_psd():
    bad = np.array([[0.5, 0.4], [0.0, 0.5]], dtype=complex)
    assert any("hermit" in v.invariant.lower() for v in raised_violations(DensityMatrix, bad))
    neg = np.diag([1.5, -0.5]).astype(complex)
    assert any("positive" in v.invariant.lower() for v in raised_violations(DensityMatrix, neg))


def test_pure_state_norm():
    assert raised_violations(PureState, np.array([1.0, 0.0], dtype=complex)) == []
    assert raised_violations(PureState, np.array([1.0, 1.0], dtype=complex)) == [Violation("unit_norm", 1.0)]


def test_non_finite_pure_state_and_negative_weight_are_named():
    assert raised_violations(PureState, np.array([np.nan, 1.0])) == [Violation("finite", np.inf)]
    # the weights sum to 1, so only the sign is at fault
    assert raised_violations(Ensemble, [np.eye(2) / 2.0] * 2, [1.5, -0.5]) == [
        Violation("weights_nonnegative", 0.5)]


def test_entries_near_the_largest_double_are_reported():
    # hermitian_part must not overflow before eigh, and an overflowing norm, trace or
    # spectrum (inf or NaN) is a violation, never a pass
    assert [v.invariant for v in raised_violations(DensityMatrix, np.diag([1e308, -1e308]))] == [
        "positive_semidefinite", "unit_trace"]
    big = 1.7e308 * (1 + 1j)  # Hermitian with unit trace: its eigenvalues overflow to NaN
    huge = np.array([[0.5, big], [np.conj(big), 0.5]])
    assert [v.invariant for v in raised_violations(DensityMatrix, huge)] == ["positive_semidefinite"]
    assert [v.invariant for v in raised_violations(Povm, [huge, np.eye(2) - huge])] == [
        "element_0_positive", "element_1_positive"]
    assert raised_violations(Povm, [1e308 * np.eye(2)] * 2) == [Violation("completeness", np.inf)]
    anti = np.array([[0.5, 1e308], [-1e308, 0.5]])
    assert raised_violations(DensityMatrix, anti) == [Violation("hermitian", np.inf)]
    assert raised_violations(Ensemble, [np.eye(2) / 2.0] * 2, [1e308, 1e308]) == [
        Violation("weights_sum", np.inf)]
    assert [v.invariant for v in raised_violations(PureState, np.array([big, big]))] == ["unit_norm"]


def test_povm_completeness():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    violations = raised_violations(Povm, [p0])  # missing the other projector
    assert any("complete" in v.invariant.lower() for v in violations)


@pytest.mark.parametrize("elements, expected", [
    ([np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [0.0, 1.0]]), np.diag([0.5, -0.2]),
      np.diag([-0.5, 1.2])],
     [("element_1_hermitian", 1.0), ("element_2_positive", 0.2), ("element_3_positive", 0.5)]),
    ([np.eye(2), np.eye(3)], [("element_1_dimension", 1.0)]),
    ([np.eye(2), np.full((2, 2), np.nan)], [("element_1_finite", np.inf)]),
    # the member rule Ensemble applies: a non-finite element does not end the check,
    # a non-square one is reported and the elements after it are still checked
    ([np.full((2, 2), np.nan), np.eye(3)], [("element_0_finite", np.inf), ("element_1_dimension", 1.0)]),
    ([0.5 * np.eye(2), np.ones((2, 3)), -0.5 * np.eye(2)],
     [("element_1_square", 2.0), ("element_2_positive", 0.5)]),
    ([0.5 * np.eye(2), 0.4 * np.eye(2)], [("completeness", 0.1)]),
    # only the last element fails: the whole-stack verdict must still name it
    ([np.diag([0.5, 0.0]), np.diag([0.0, 0.5]), np.diag([0.3, 0.3]), np.diag([0.2, -0.3])],
     [("element_3_positive", 0.3)]),
])
def test_povm_violation_list(elements, expected):
    got = raised_violations(Povm, elements)
    assert [v.invariant for v in got] == [name for name, _ in expected]
    assert [v.defect for v in got] == pytest.approx([defect for _, defect in expected], abs=1e-12)


def test_povm_accepts_an_array_stack():
    stack = projective_povm(np.eye(2)).elements
    assert isinstance(stack, np.ndarray) and stack.shape == (2, 2, 2)
    assert raised_violations(Povm, np.array(stack)) == raised_violations(Povm, list(stack)) == []
    bad = np.array([np.diag([1.0, 0.0]), np.diag([0.5, -0.2]), np.diag([-0.5, 1.2])])
    assert raised_violations(Povm, bad) == raised_violations(Povm, list(bad))
    assert [v.invariant for v in raised_violations(Povm, bad)] == ["element_1_positive", "element_2_positive"]
    assert raised_violations(Povm, np.zeros((0, 2, 2))) == [Violation("nonempty", 0.0)]
    assert raised_violations(Povm, [np.zeros((0, 0))]) == [Violation("element_0_square", 2.0)]
    for form in (tuple(stack), np.array(stack)):
        assert np.array_equal(Povm(form).elements, stack)


@pytest.mark.parametrize("members, weights, expected", [
    ([np.diag([1.0, 0.0]), np.eye(2) / 2.0, np.diag([0.0, 1.0])], [0.2, 0.3, 0.5], []),
    ([np.eye(2) / 2.0, np.diag([1.5, -0.5])], [0.5, 0.5], [("member_1_positive_semidefinite", 0.5)]),
    ([np.eye(2), np.eye(2) / 2.0], [0.5, 0.5], [("member_0_unit_trace", 1.0)]),
    ([np.eye(2) / 2.0, np.full((2, 2), np.inf)], [0.5, 0.5], [("member_1_finite", np.inf)]),
])
def test_ensemble_accepts_an_array_stack(members, weights, expected):
    # an (m, d, d) array goes to the member rule whole: the same stack and violations
    # as the same members given one by one
    stack = np.array(members)
    got = raised_violations(Ensemble, stack, weights)
    assert got == raised_violations(Ensemble, list(stack), weights) == [Violation(*v) for v in expected]
    if not expected:
        assert np.array_equal(Ensemble(stack, weights).stack, Ensemble(list(stack), weights).stack)
        assert np.array_equal(Ensemble(stack, weights).stack, stack)


def test_ensemble_validates_each_member_once(monkeypatch):
    # every member check runs on one list of members; count the members it sees
    checked = objects._check_members
    calls = []

    def counting(mats, prefix, states):
        calls.append(len(mats))
        return checked(mats, prefix, states)

    monkeypatch.setattr(objects, "_check_members", counting)
    members = [np.diag([1.0, 0.0]), np.eye(2) / 2.0, np.diag([0.0, 1.0])]
    Ensemble(members, [0.2, 0.3, 0.5])
    assert calls == [len(members)]  # all members in one pass
    povm = projective_povm(np.eye(3))
    calls.clear()
    steered = ensemble_from_measurement(DensityMatrix(np.eye(3) / 3.0), povm)
    assert calls == [1, steered.size]  # the state, then all members in one pass
    calls.clear()
    Ensemble(np.array(members), [0.2, 0.3, 0.5])
    assert calls == [len(members)]  # an array stack: one pass too
    # raw-array members are still checked and reported by index
    violations = raised_violations(Ensemble, [members[0], np.eye(2)], [0.5, 0.5])
    assert [v.invariant for v in violations] == ["member_1_unit_trace"]


def test_ensemble_weight_sum():
    rho = np.eye(2, dtype=complex) / 2.0
    violations = raised_violations(Ensemble, [DensityMatrix(rho)], np.array([0.7]))
    assert violations != []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ensemble_rejects_non_finite_weights(bad):
    rho = np.eye(2, dtype=complex) / 2.0
    assert raised_violations(Ensemble, [rho, rho], [bad, 1.0]) == [Violation("weights_finite", np.inf)]
    with pytest.raises(ValidationError, match="weights_finite"):
        Ensemble([rho, rho], [bad, 1.0])


def test_ensemble_reports_non_matrix_member():
    assert raised_violations(Ensemble, [np.float64(1.0)], [1.0]) == [Violation("member_0_square", 0.0)]
    rho = np.eye(2) / 2.0
    assert raised_violations(Ensemble, [rho, np.ones(2) / 2.0], [0.5, 0.5]) == [
        Violation("member_1_square", 1.0)
    ]


@pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
def test_ensemble_blames_the_non_square_member(shape):
    rho = np.eye(3) / 3.0
    bad = np.ones(shape)
    # the first square member sets the dimension, whichever order they come in
    assert raised_violations(Ensemble, [bad, rho], [0.5, 0.5]) == [Violation("member_0_square", 2.0)]
    assert raised_violations(Ensemble, [rho, bad], [0.5, 0.5]) == [Violation("member_1_square", 2.0)]


def test_ensemble_dimension_mismatch_keeps_earlier_violations():
    assert raised_violations(Ensemble, [np.eye(2) / 2.0, np.eye(3) / 3.0], [0.5, 0.5]) == [
        Violation("member_1_dimension", 1.0)
    ]
    assert raised_violations(Ensemble, [np.eye(2), np.eye(3) / 3.0], [0.5, 0.5]) == [
        Violation("member_0_unit_trace", 1.0),
        Violation("member_1_dimension", 1.0),
    ]


# members and elements: valid states (as matrices and as DensityMatrix objects) and
# projectors, then each way a matrix can fail
VALID_MEMBERS = [np.array([[0.7, 0.2j], [-0.2j, 0.3]]), np.eye(2) / 2.0, np.diag([1.0, 0.0]),
                 np.diag([0.0, 1.0]), DensityMatrix(np.diag([0.25, 0.75]))]
BAD_MEMBERS = [np.eye(2), np.diag([1.5, -0.5]), np.array([[0.5, 1.0], [0.0, 0.5]]),
               np.array([[np.nan, 0.0], [0.0, 1.0]]), np.zeros((0, 0)), np.ones((2, 3)),
               np.ones(2) / 2.0, np.eye(3) / 3.0, DensityMatrix(np.eye(3) / 3.0), "x"]
MEMBER_LISTS = st.one_of(st.lists(st.sampled_from(VALID_MEMBERS), max_size=4),
                         st.lists(st.sampled_from(VALID_MEMBERS + BAD_MEMBERS), max_size=4))


def _weights(kind, m):
    return {"uniform": np.full(m, 1.0 / max(m, 1)), "nan": [np.nan] * m,
            "length": np.full(m + 1, 1.0 / (m + 1)), "none": None}[kind]


@settings(max_examples=250, deadline=None)
@given(members=MEMBER_LISTS, weights=st.sampled_from(["uniform", "nan", "length", "none"]))
def test_constructors_build_valid_objects_or_raise(members, weights):
    # raised_violations checks that each call builds an object that validates or
    # raises a ValidationError; None marks one raised without violations
    found = raised_violations(Ensemble, members, _weights(weights, len(members)))
    elements = [m.mat if isinstance(m, DensityMatrix) else m for m in members]
    raised_violations(Povm, elements)
    square = [e for e in elements if np.shape(e) == (2, 2)]
    raised_violations(Povm, [*elements, np.eye(2) - sum(square)])  # completed
    own = [raised_violations(DensityMatrix, element) for element in elements]
    shapes = {np.shape(e) for e in elements}
    shape = shapes.pop() if len(shapes) == 1 else ()
    if weights in ("uniform", "nan") and len(shape) == 2 and shape[0] == shape[1]:
        # the one member rule: square members of one dimension are reported as the
        # states they are, renamed, ahead of the weights
        renamed = [Violation(f"member_{i}_{v.invariant}", v.defect) for i, vs in enumerate(own) for v in vs]
        assert found == renamed + [Violation("weights_finite", np.inf)] * (weights == "nan")


def test_constructors_reject_invalid():
    with pytest.raises(ValidationError):
        DensityMatrix(np.eye(2, dtype=complex))  # trace 2
    with pytest.raises(ValidationError):
        PureState(np.array([1.0, 1.0], dtype=complex))
    with pytest.raises(ValidationError):
        Povm([np.diag([1.0, 0.0]).astype(complex)])
    with pytest.raises(EmptyEnsembleError):
        Ensemble([], [])
    with pytest.raises(EmptyEnsembleError) as info:
        Ensemble(np.zeros((0, 2, 2)), np.zeros(0))  # an empty array stack
    assert info.value.violations == [Violation("nonempty", 0.0)]


def test_objects_are_immutable():
    rho = DensityMatrix(np.eye(2, dtype=complex) / 2.0)
    with pytest.raises(ValueError):
        rho.mat[0, 0] = 9.0
    povm = projective_povm(np.eye(2))
    with pytest.raises(ValueError):
        povm.elements[0][0, 0] = 9.0


def test_povm_sqrt_elements_is_a_read_only_stack():
    povm = random_povm(3, 4, np.random.default_rng(5))
    roots = povm.sqrt_elements
    assert isinstance(roots, np.ndarray) and roots.shape == (4, 3, 3)
    assert povm.sqrt_elements is roots
    assert len(roots) == 4 and all(np.allclose(r @ r, e) for r, e in zip(roots, povm.elements))
    with pytest.raises(ValueError):
        roots[0, 0, 0] = 9.0


def test_density_support_is_cached_and_read_only():
    rho = random_density(np.random.default_rng(6), 3)
    support = rho.support
    assert rho.support is support
    w, v = support
    assert np.allclose((v * w) @ v.conj().T, rho.mat)
    for array in (w, v):
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_density_support_drops_the_kernel():
    plus = DensityMatrix(np.full((2, 2), 0.5, dtype=complex))
    w, v = plus.support
    assert w.shape == (1,) and v.shape == (2, 1)
    assert abs(w[0] - 1.0) < 1e-12


def test_density_purity_and_is_pure():
    mixed = DensityMatrix(np.eye(2, dtype=complex) / 2.0)
    assert abs(mixed.purity() - 0.5) < 1e-12
    assert not mixed.is_pure()
    pure = PureState(np.array([1.0, 0.0], dtype=complex)).density()
    assert pure.is_pure()


def test_validate_dispatcher_roundtrip():
    rng = np.random.default_rng(11)
    assert validate(random_density(rng, 3)) == []
    assert validate(haar_random_pure(4, rng)) == []
    assert validate(random_povm(3, 4, rng)) == []


def test_haar_random_pure_d1_has_unit_modulus():
    psi = haar_random_pure(1, np.random.default_rng(0))
    assert abs(abs(psi.vec[0]) - 1.0) < 1e-12


def test_haar_random_pure_deterministic():
    a = haar_random_pure(5, np.random.default_rng(123)).vec
    b = haar_random_pure(5, np.random.default_rng(123)).vec
    assert np.array_equal(a, b)


def test_haar_marginal_mean_quarter():
    # E |<0|psi>|^2 = 1/d for Haar states; d=4 over 1e5 samples within 3 sigma
    rng = np.random.default_rng(2024)
    n = 100_000
    z = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
    p = np.abs(z[:, 0]) ** 2 / np.sum(np.abs(z) ** 2, axis=1)
    stderr = p.std(ddof=1) / np.sqrt(n)
    assert abs(p.mean() - 0.25) < 3.0 * stderr


def test_haar_overlap_uniform_kolmogorov_smirnov():
    # for d=2 the overlap p = |<0|psi>|^2 is uniform on [0,1];
    # KS statistic must clear the 1% critical value 1.628 / sqrt(N)
    rng = np.random.default_rng(77)
    n = 100_000
    p = np.sort([abs(haar_random_pure(2, rng).vec[0]) ** 2 for _ in range(n)])
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    ks = max(np.max(grid_hi - p), np.max(p - grid_lo))
    assert ks < 1.628 / np.sqrt(n)


def test_random_povm_single_element_is_identity():
    povm = random_povm(3, 1, np.random.default_rng(5))
    assert np.max(np.abs(povm.elements[0] - np.eye(3))) < 1e-10


def test_random_povm_completeness_and_validity():
    rng = np.random.default_rng(6)
    povm = random_povm(2, 3, rng)
    total = sum(povm.elements)
    assert np.max(np.abs(total - np.eye(2))) < 1e-10
    for d in (2, 4, 6):
        for n in (2, 5, 8):
            assert validate(random_povm(d, n, rng)) == []


def test_random_povm_gives_up_after_ten_singular_sums(monkeypatch):
    draws = []

    def singular(m, kernel_rtol):
        draws.append(m)
        return np.ones(1), np.eye(len(m), 1)  # rank 1 < d

    monkeypatch.setattr(objects.linalg, "support_eigenpairs", singular)
    with pytest.raises(SingularSumError, match="after 10 draws"):
        random_povm(2, 2, np.random.default_rng(1))
    assert len(draws) == 10


def test_random_povm_deterministic():
    a = random_povm(4, 3, np.random.default_rng(9))
    b = random_povm(4, 3, np.random.default_rng(9))
    for x, y in zip(a.elements, b.elements):
        assert np.array_equal(x, y)


def test_projective_povm_identity_basis():
    povm = projective_povm(np.eye(2))
    assert np.allclose(povm.elements[0], np.diag([1.0, 0.0]))
    assert np.allclose(povm.elements[1], np.diag([0.0, 1.0]))
    assert povm.is_rank_one_projective()


def test_rank_one_projective_needs_unit_traces():
    # n == d, but the traces are 3/2 and 1/2: refused by the trace check
    assert not Povm([np.diag([1.0, 0.5]), np.diag([0.0, 0.5])]).is_rank_one_projective()


def test_projective_povm_hadamard_basis():
    povm = x_basis_povm()
    plus = np.full((2, 2), 0.5)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
    assert np.max(np.abs(povm.elements[0] - plus)) < 1e-12
    assert np.max(np.abs(povm.elements[1] - minus)) < 1e-12


def test_projective_povm_rejects_nonunitary():
    with pytest.raises(NotUnitaryError):
        projective_povm(np.array([[1.0, 0.0], [1.0, 0.0]]))


HUGE_INT = 10**400  # past the largest double
LONG_INT = 10**5000  # past Python's 4300-digit limit for str()


# (id, call, error type): a case keeps its id wherever cases are added
HOSTILE_CALLS = [
    ("density-str", lambda: DensityMatrix("x"), ValidationError),
    ("pure-str", lambda: PureState("x"), ValidationError),
    ("povm-none", lambda: Povm(None), ValidationError),
    ("povm-int", lambda: Povm(0), ValidationError),
    ("ensemble-states-none", lambda: Ensemble(None, [1.0]), ValidationError),
    ("projective-str", lambda: projective_povm("x"), NotUnitaryError),
    ("b1-basis-str", lambda: bound_b1(DensityMatrix(np.eye(2) / 2.0), "x"), NotUnitaryError),
    ("haar_moment-str", lambda: haar_moment("x", 1), NotSquareError),
    ("ensemble-weights-none", lambda: Ensemble([np.eye(2) / 2.0], None), ValidationError),
    ("ensemble-weights-str", lambda: Ensemble([np.eye(2) / 2.0], "x"), ValidationError),
    # validate() re-checks constructed objects only, never a raw array
    ("validate-str", lambda: validate("x"), ValidationError),
    ("validate-array", lambda: validate(np.eye(2) / 2.0), ValidationError),
    # an empty basis or matrix
    ("projective-empty", lambda: projective_povm(np.zeros((0, 0))), NotUnitaryError),
    ("b1-basis-empty", lambda: bound_b1(DensityMatrix(np.eye(2) / 2.0), np.zeros((0, 0))), NotUnitaryError),
    ("b2-basis-empty", lambda: bound_b2(DensityMatrix(np.eye(2) / 2.0), np.zeros((0, 0))), NotUnitaryError),
    ("b3-basis-empty", lambda: bound_b3(DensityMatrix(np.eye(2) / 2.0), np.zeros((0, 0))), NotUnitaryError),
    ("haar_moment-empty", lambda: haar_moment(np.zeros((0, 0)), 0.5), NotSquareError),
    ("is_pure-tol-str", lambda: DensityMatrix(np.eye(2) / 2.0).is_pure(tol="x"), ValidationError),
    ("incoherent-tol-str", lambda: is_povm_incoherent(DensityMatrix(np.eye(2) / 2.0), x_basis_povm(), tol="x"),
     ValidationError),
    # an argument of the wrong object type; a state argument takes no raw matrix
    ("l1-state-none", lambda: l1_coherence(None, x_basis_povm()), ValidationError),
    ("l1-povm-none", lambda: l1_coherence(DensityMatrix(np.eye(2) / 2.0), None), ValidationError),
    ("uncertainty-povm2-none",
     lambda: uncertainty_report(DensityMatrix(np.eye(2) / 2.0), x_basis_povm(), None), ValidationError),
    ("overlap-povm2-none", lambda: overlap_constant(x_basis_povm(), None), ValidationError),
    ("steer-state-none", lambda: ensemble_from_measurement(None, x_basis_povm()), ValidationError),
    ("build_lsm-none", lambda: build_lsm(None), ValidationError),
    ("measurement_from_ensemble-none", lambda: measurement_from_ensemble(None), ValidationError),
    ("monte_carlo-rng-none", lambda: monte_carlo_average(x_basis_povm(), "l1", 300, None), ValidationError),
    ("random_povm-rng-none", lambda: random_povm(2, 2, None), ValidationError),
    ("haar_random_pure-rng-none", lambda: haar_random_pure(2, None), ValidationError),
    # an integer past the largest double, which float() and numpy cannot convert
    ("density-huge-int", lambda: DensityMatrix([[HUGE_INT, 0], [0, 0]]), ValidationError),
    ("pure-huge-int", lambda: PureState([HUGE_INT, 0]), ValidationError),
    ("povm-huge-int", lambda: Povm([[[HUGE_INT, 0], [0, 0]]]), ValidationError),
    ("ensemble-weights-huge-int", lambda: Ensemble([np.eye(2) / 2.0], [HUGE_INT]), ValidationError),
    ("holder-p-huge-int",
     lambda: holder_bound(DensityMatrix(np.eye(2) / 2.0), x_basis_povm(), HUGE_INT, 2), InvalidExponentsError),
    ("tsallis-alpha-huge-int",
     lambda: tsallis_coherence(DensityMatrix(np.eye(2) / 2.0), x_basis_povm(), -HUGE_INT), AlphaOutOfRangeError),
    ("haar_tsallis-alpha-huge-int", lambda: haar_average_tsallis(x_basis_povm(), HUGE_INT), AlphaOutOfRangeError),
    ("haar_moment-beta-huge-int", lambda: haar_moment(np.eye(2) / 2.0, HUGE_INT), BetaNonPositiveError),
    ("incoherent-tol-huge-int",
     lambda: is_povm_incoherent(DensityMatrix(np.eye(2) / 2.0), x_basis_povm(), tol=HUGE_INT), ValidationError),
    ("pure_state_bound-huge-int", lambda: pure_state_bound(HUGE_INT), ValidationError),
    ("figure1_state-huge-int", lambda: figure1_state(HUGE_INT), ZOutOfRangeError),
    ("figure2_state-huge-int", lambda: figure2_state(-HUGE_INT), XOutOfRangeError),
    ("figure1_bounds-huge-int", lambda: figure1_reference_bounds(HUGE_INT), ZOutOfRangeError),
    ("figure2_bounds-huge-int", lambda: figure2_reference_bounds(HUGE_INT), XOutOfRangeError),
    ("b1-basis-huge-int", lambda: bound_b1(DensityMatrix(np.eye(2) / 2.0), [[HUGE_INT, 0], [0, 1]]), NotUnitaryError),
    ("b2-basis-huge-int", lambda: bound_b2(DensityMatrix(np.eye(2) / 2.0), [[HUGE_INT, 0], [0, 1]]), NotUnitaryError),
    ("b3-basis-huge-int", lambda: bound_b3(DensityMatrix(np.eye(2) / 2.0), [[HUGE_INT, 0], [0, 1]]), NotUnitaryError),
    ("projective-huge-int", lambda: projective_povm([[HUGE_INT, 0], [0, 1]]), NotUnitaryError),
    ("haar_moment-huge-int", lambda: haar_moment([[HUGE_INT, 0], [0, 0]], 0.5), NotSquareError),
    ("is_pure-tol-huge-int", lambda: DensityMatrix(np.eye(2) / 2.0).is_pure(tol=HUGE_INT), ValidationError),
    # an integer, or a list holding one, too long for str(): the message shows its type
    ("haar_random_pure-long-int", lambda: haar_random_pure(LONG_INT, np.random.default_rng(0)), ValidationError),
    ("haar_random_pure-minus-long-int", lambda: haar_random_pure(-LONG_INT, np.random.default_rng(0)), ValidationError),
    ("random_povm-d-long-int", lambda: random_povm(LONG_INT, 1, np.random.default_rng(0)), ValidationError),
    ("random_povm-d-minus-long-int", lambda: random_povm(-LONG_INT, 1, np.random.default_rng(0)), ValidationError),
    ("random_povm-n-long-int", lambda: random_povm(1, LONG_INT, np.random.default_rng(0)), ValidationError),
    ("random_povm-n-list-long-int", lambda: random_povm(2, [LONG_INT], np.random.default_rng(0)), ValidationError),
    ("monte_carlo-samples-long-int",
     lambda: monte_carlo_average(x_basis_povm(), "relative_entropy", LONG_INT, np.random.default_rng(0)),
     ValidationError),
    ("monte_carlo-samples-minus-long-int",
     lambda: monte_carlo_average(x_basis_povm(), "relative_entropy", -LONG_INT, np.random.default_rng(0)),
     ValidationError),
    ("haar_average-samples-long-int",
     lambda: haar_average(x_basis_povm(), "relative_entropy", mc_samples=LONG_INT, rng=np.random.default_rng(0)),
     ValidationError),
    ("haar_average-samples-minus-long-int",
     lambda: haar_average(x_basis_povm(), "relative_entropy", mc_samples=-LONG_INT, rng=np.random.default_rng(0)),
     ValidationError),
    ("haar_average-measure-long-int", lambda: haar_average(x_basis_povm(), LONG_INT), ValidationError),
    ("haar_average-alpha-long-int", lambda: haar_average(x_basis_povm(), "l1", alpha=LONG_INT), ValidationError),
    ("haar_l1_bound-long-int", lambda: haar_average_l1_bound(x_basis_povm(), LONG_INT), InvalidExponentsError),
    ("povm-long-int", lambda: Povm(LONG_INT), ValidationError),
    ("ensemble-states-long-int", lambda: Ensemble(LONG_INT, [1.0]), ValidationError),
    ("holder-p-list-long-int",
     lambda: holder_bound(DensityMatrix(np.eye(2) / 2.0), x_basis_povm(), [LONG_INT], 2), InvalidExponentsError),
    ("tsallis-alpha-list-long-int",
     lambda: tsallis_coherence(DensityMatrix(np.eye(2) / 2.0), x_basis_povm(), [LONG_INT]), AlphaOutOfRangeError),
    # is_rank_one_projective reads tol as is_pure and is_povm_incoherent do, also
    # where n != d settles the answer without it
    ("rank_one-tol-str", lambda: projective_povm(np.eye(2)).is_rank_one_projective(tol="x"), ValidationError),
    ("rank_one-tol-huge-int", lambda: projective_povm(np.eye(2)).is_rank_one_projective(tol=HUGE_INT), ValidationError),
    ("rank_one-tol-complex", lambda: projective_povm(np.eye(2)).is_rank_one_projective(tol=1j), ValidationError),
    ("rank_one-tol-none-n-ne-d", lambda: Povm([np.eye(2)]).is_rank_one_projective(tol=None), ValidationError),
    # a tolerance must be a finite number >= 0: NaN and a negative tol would fail every
    # check, inf would pass every one
    ("is_pure-tol-nan", lambda: DensityMatrix(np.eye(2) / 2.0).is_pure(tol=np.nan), ValidationError),
    ("is_pure-tol-negative", lambda: DensityMatrix(np.eye(2) / 2.0).is_pure(tol=-1.0), ValidationError),
    ("is_pure-tol-inf", lambda: DensityMatrix(np.eye(2) / 2.0).is_pure(tol=np.inf), ValidationError),
    ("incoherent-tol-nan", lambda: is_povm_incoherent(DensityMatrix(np.eye(2) / 2.0), x_basis_povm(), tol=np.nan),
     ValidationError),
    ("incoherent-tol-negative", lambda: is_povm_incoherent(DensityMatrix(np.eye(2) / 2.0), x_basis_povm(), tol=-1.0),
     ValidationError),
    ("incoherent-tol-inf", lambda: is_povm_incoherent(DensityMatrix(np.eye(2) / 2.0), x_basis_povm(), tol=np.inf),
     ValidationError),
    ("rank_one-tol-nan", lambda: projective_povm(np.eye(2)).is_rank_one_projective(tol=np.nan), ValidationError),
    ("rank_one-tol-negative", lambda: projective_povm(np.eye(2)).is_rank_one_projective(tol=-1.0), ValidationError),
    # unit traces, but not idempotent: only tol=inf would call it projective
    ("rank_one-tol-inf", lambda: Povm([np.array([[0.5, s], [s, 0.5]]) for s in (0.25, -0.25)]).is_rank_one_projective(
        tol=np.inf), ValidationError),
]


@pytest.mark.parametrize("call, error", [case[1:] for case in HOSTILE_CALLS], ids=[case[0] for case in HOSTILE_CALLS])
def test_non_numeric_and_non_iterable_inputs_raise_the_entry_point_error(call, error):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error


def test_random_unitary_helper_is_unitary():
    u = random_unitary(np.random.default_rng(3), 5)
    assert np.max(np.abs(u.conj().T @ u - np.eye(5))) < 1e-10
