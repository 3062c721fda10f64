"""The factor kernels against dense per-block evaluation.

Every measure and trace-norm bound works from rho's support eigenpairs and each
element's factor on its own support, with cores of size min(k, r); these tests
rebuild each value block by block from the full d x d state and elements and
check agreement on low-rank, full-rank, wide-spread and mixed-rank inputs.
"""

import gc
import threading
import weakref

import mpmath
import numpy as np
import pytest

import mp_oracle
from helpers import (
    dense_holder,
    dense_holder_22,
    dense_incoherence_defect,
    dense_l1,
    dense_pair_bounds,
    dense_relative_entropy,
    dense_tsallis,
    mixed_rank_povm,
    random_density,
    random_rank_density,
    random_unitary,
    record_hand_offs,
    record_thread_starts,
    spread_density,
)
from povmcoh import (
    ConvergenceFailureError,
    DensityMatrix,
    Povm,
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
from povmcoh import bounds, linalg
from povmcoh.linalg import stacked_singular_values
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


# --------------------------------------------------------------------------
# the element factor C_j = sqrt(s_j) u_j^dag of Povm.root_factors


@pytest.mark.parametrize("rank", [1, 2, D])
def test_mixed_element_ranks_match_dense_blocks(rank):
    rng = np.random.default_rng(70 + rank)
    povm = mixed_rank_povm(rng, D)
    s, c = povm.root_factors
    assert c.shape == (4, D, D)
    assert list(np.count_nonzero(s, axis=1)) == [1, 2, D, D]
    rho = random_rank_density(rng, D, rank) if rank < D else random_density(rng, D)
    assert abs(l1_coherence(rho, povm).value - dense_l1(rho, povm)) < ATOL
    assert abs(relative_entropy_coherence(rho, povm).value - dense_relative_entropy(rho, povm)) < ATOL
    for alpha in (0.5, 2.0):
        assert abs(tsallis_coherence(rho, povm, alpha).value - dense_tsallis(rho, povm, alpha)) < ATOL
    ordered, uniform = pair_bounds(rho, povm)
    want_ordered, want_uniform = dense_pair_bounds(rho, povm)
    assert abs(ordered.bound_value - want_ordered) < ATOL
    assert abs(uniform.bound_value - want_uniform) < ATOL
    assert abs(holder_bound(rho, povm, 3.0, 1.5).bound_value - dense_holder(rho, povm, 3.0, 1.5)) < ATOL
    assert abs(holder_bound_22(rho, povm).bound_value - dense_holder_22(rho, povm)) < ATOL


def test_rank_one_projective_l1_is_the_off_diagonal_sum():
    rng = np.random.default_rng(80)
    d = 32
    basis = random_unitary(rng, d)
    povm = projective_povm(basis)
    rho = random_density(rng, d)
    assert povm.root_factors[1].shape == (d, 1, d)  # 1 x 1 cores
    r = basis.conj().T @ rho.mat @ basis
    want = float(np.sum(np.abs(r)) - np.sum(np.abs(np.diagonal(r))))
    assert abs(l1_coherence(rho, povm).value - want) < 1e-12


def test_l1_value_is_computed_once_per_pair(monkeypatch):
    rng = np.random.default_rng(81)
    povm = random_povm(D, 5, rng)
    rho = random_density(rng, D)
    calls = []

    def counting(m):
        calls.append(m.shape)
        return stacked_singular_values(m)

    monkeypatch.setattr(linalg, "stacked_singular_values", counting)
    value = l1_coherence(rho, povm).value
    assert calls == [(povm.outcomes * (povm.outcomes - 1) // 2, D, D)]  # every pair j < k at once
    calls.clear()
    assert l1_coherence(rho, povm).value == value
    assert calls == []
    for report in (*pair_bounds(rho, povm), holder_bound_22(rho, povm)):
        assert report.c_l1_value == value
    assert len(calls) == 2  # the two bounds' own trace norms, no C_l1 rows
    calls.clear()
    other = Povm(povm.elements)  # the memo is keyed on the object
    assert abs(l1_coherence(rho, other).value - value) < 1e-14
    assert len(calls) == 1


@pytest.mark.parametrize("bound", [
    lambda rho, povm: holder_bound(rho, povm, 3.0, 1.5),
    holder_bound_22,
    pair_bounds,
])
def test_each_bound_takes_its_trace_norms_in_one_stacked_svd(monkeypatch, bound):
    rng = np.random.default_rng(84)
    povm = random_povm(D, 5, rng)
    rho = random_density(rng, D)
    l1_coherence(rho, povm)  # memoised, so the bound's C_l1 makes no call
    calls = []

    def counting(m):
        calls.append(m.shape)
        return stacked_singular_values(m)

    monkeypatch.setattr(linalg, "stacked_singular_values", counting)
    bound(rho, povm)
    assert len(calls) == 1


def test_equal_hoelder_exponents_take_one_svd_layer(monkeypatch):
    rng = np.random.default_rng(87)
    povm = random_povm(D, 5, rng)
    rho = random_density(rng, D)
    l1_coherence(rho, povm)
    calls = []

    def counting(m):
        calls.append(m.shape)
        return stacked_singular_values(m)

    monkeypatch.setattr(linalg, "stacked_singular_values", counting)
    report = holder_bound(rho, povm, 2.0, 2.0)
    assert [shape[0] for shape in calls] == [1]  # one layer for p/2 = q/2 = 1
    assert holder_bound_22(rho, povm).bound_value == report.bound_value


def test_l1_memo_holds_no_strong_reference():
    rng = np.random.default_rng(82)
    povm = random_povm(D, 3, rng)
    rho = random_density(rng, D)
    l1_coherence(rho, povm)
    rho_ref, povm_ref = weakref.ref(rho), weakref.ref(povm)
    del rho, povm
    gc.collect()
    assert rho_ref() is None
    assert povm_ref() is None


def test_root_factors_are_cached_read_only_and_give_the_roots():
    povm = mixed_rank_povm(np.random.default_rng(83), D)
    factors = povm.root_factors
    assert povm.root_factors is factors
    s, c = factors
    for array in (s, c):
        with pytest.raises(ValueError):
            array[0, 0] = 1.0
    for e, root, cj in zip(povm.elements, povm.sqrt_elements, c):
        assert np.max(np.abs(root - linalg.sqrt_psd(e))) < 1e-14
        assert np.max(np.abs(cj.conj().T @ cj - e)) < 1e-14


# --------------------------------------------------------------------------
# C_l1 over blocks of pairs on two threads (linalg.map_blocks)


def _one_cpu(monkeypatch):
    monkeypatch.setattr(linalg.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(linalg.os, "cpu_count", lambda: 1)


def test_two_thread_l1_equals_the_one_cpu_value(monkeypatch):
    rng = np.random.default_rng(85)
    d = 16
    povm = random_povm(d, d, rng)
    rho = random_density(rng, d)
    assert len(list(linalg.blocks(d * (d - 1) // 2, d * d))) >= 2
    hand_offs = record_hand_offs(monkeypatch)
    two = l1_coherence(rho, povm).value
    assert len(hand_offs) == (1 if linalg._cpus() >= 2 else 0)
    _one_cpu(monkeypatch)
    hand_offs.clear()
    starts = record_thread_starts(monkeypatch)
    one = l1_coherence(DensityMatrix(rho.mat), povm).value
    assert starts == [] and hand_offs == []
    assert two == one
    assert abs(two - dense_l1(rho, povm)) < ATOL


def test_a_failure_on_the_helper_thread_reaches_the_caller(monkeypatch):
    rng = np.random.default_rng(86)
    povm = random_povm(D, 4, rng)
    rho = random_density(rng, D)
    monkeypatch.setattr(linalg, "BLOCK_ENTRIES", 1)  # one pair per block
    monkeypatch.setattr(linalg.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    failed = []

    def failing_off_the_main_thread(m):
        if threading.current_thread() is not threading.main_thread():
            failed.append(m.shape)
            raise ConvergenceFailureError("SVD did not converge")
        return stacked_singular_values(m)

    monkeypatch.setattr(linalg, "stacked_singular_values", failing_off_the_main_thread)
    with pytest.raises(ConvergenceFailureError):
        l1_coherence(rho, povm)
    assert failed


def test_one_block_starts_no_thread(monkeypatch):
    rng = np.random.default_rng(87)
    povm = random_povm(D, 5, rng)
    rho = random_density(rng, D)

    def no_thread(*args, **kwargs):
        raise AssertionError("a single block of pairs needs no thread")

    monkeypatch.setattr(threading, "Thread", no_thread)
    assert abs(l1_coherence(rho, povm).value - dense_l1(rho, povm)) < ATOL


def _near_degenerate(rng):
    v = random_unitary(rng, D)[:, :2]
    return DensityMatrix((v * np.array([0.5 + 1e-9, 0.5 - 1e-9])) @ v.conj().T)


FIFTY_DIGIT_STATES = pytest.mark.parametrize("state", [
    _near_degenerate,
    lambda rng: random_rank_density(rng, D, 2),
    lambda rng: random_density(rng, D),
], ids=["near_degenerate", "rank2", "full"])


@FIFTY_DIGIT_STATES
def test_l1_matches_the_50_digit_definition(monkeypatch, state):
    rng = np.random.default_rng(88)
    povm = random_povm(D, 4, rng)
    rho = state(rng)
    monkeypatch.setattr(linalg, "BLOCK_ENTRIES", 1)  # one pair per block, on two threads
    got = l1_coherence(rho, povm).value
    assert abs(got - mp_oracle.l1_coherence(rho.mat, povm.elements)) < 1e-14


@FIFTY_DIGIT_STATES
def test_relative_entropy_matches_the_50_digit_definition(state):
    rng = np.random.default_rng(88)
    povm = random_povm(D, 4, rng)
    rho = state(rng)
    got = relative_entropy_coherence(rho, povm).value
    want = mp_oracle.relative_entropy_coherence(rho.mat, povm.elements)
    assert abs(got - want) <= 1e-14 * abs(want)


@FIFTY_DIGIT_STATES
@pytest.mark.parametrize("alpha", [0.5, 0.3, 2.0])  # the Gram sum at 1/2, singular values else
def test_tsallis_matches_the_50_digit_definition(state, alpha):
    rng = np.random.default_rng(88)
    povm = random_povm(D, 4, rng)
    rho = state(rng)
    got = tsallis_coherence(rho, povm, alpha).value
    want = mp_oracle.tsallis_coherence(rho.mat, povm.elements, alpha)
    assert abs(got - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("alpha", [1e-4, 0.9999, 1.0001])  # the edges of measures.check_alpha
def test_tsallis_at_the_edge_orders_matches_the_50_digit_definition(alpha):
    # near 1, (total - 1) / (alpha - 1) keeps about eps / |alpha - 1| of total; near 0
    # the rank-one projective values drift.  At the edges the worst seen was 1.1e-10
    # relative, at 0.9999 on a projective POVM and a full-rank state with C_T = 0.048
    rng = np.random.default_rng(89)
    for d in (2, 3, 4):
        for povm in (random_povm(d, d + 1, rng), projective_povm(random_unitary(rng, d))):
            for rho in (random_density(rng, d), random_rank_density(rng, d, 1)):
                got = tsallis_coherence(rho, povm, alpha).value
                want = mp_oracle.tsallis_coherence(rho.mat, povm.elements, alpha)
                assert abs(got - want) <= 1e-9 * abs(want), (d, got, want)


@FIFTY_DIGIT_STATES
def test_trace_norm_bounds_match_the_50_digit_definition(state):
    rng = np.random.default_rng(88)
    povm = random_povm(D, 4, rng)
    rho = state(rng)
    with mpmath.workdps(50):
        norms = mp_oracle.element_trace_norms(rho.mat, povm.elements, (1.5, 0.75, 1.0, 0.5))
        a = [t ** (mpmath.mpf(1) / 3) for t in norms[1.5]]  # p = 3: ||E_j^(3/2) rho||^(1/3)
        b = [t ** (mpmath.mpf(2) / 3) for t in norms[0.75]]  # q = 3/2: ||E_k^(3/4) rho||^(2/3)
        t, n = sorted(norms[0.5]), len(norms[0.5])
        want = [sum(a) * sum(b) - sum(x * y for x, y in zip(a, b)),
                sum(mpmath.sqrt(x) for x in norms[1.0]) ** 2 - sum(norms[1.0]),
                2 * sum((n - 1 - j) * x for j, x in enumerate(t)), (n - 1) * sum(t)]
    ordered, uniform = pair_bounds(rho, povm)
    got = [holder_bound(rho, povm, 3.0, 1.5).bound_value, holder_bound_22(rho, povm).bound_value,
           ordered.bound_value, uniform.bound_value]
    for value, exact in zip(got, want):
        assert abs(value - float(exact)) <= 1e-14 * abs(float(exact))


# E = (diag(0.9, 0.5), diag(0.1, 0.5)): at p = 1400 ||E_2^700 |+><+| ||_tr is 1.3e-211,
# which squared underflows, and |1><1| has no weight on E_1's top eigenvector
DIAGONAL_PAIR = (np.diag([0.9, 0.5]), np.diag([0.1, 0.5]))


def _holder_cases():
    rng = np.random.default_rng(95)
    diagonal = Povm(DIAGONAL_PAIR)
    yield DensityMatrix(np.full((2, 2), 0.5)), diagonal
    yield DensityMatrix(np.diag([0.0, 1.0])), diagonal
    for d in (2, 3, 4):
        povm = random_povm(d, d + 1, rng)
        yield random_density(rng, d), povm
        yield random_rank_density(rng, d, 1), povm


@pytest.mark.parametrize("p", [1.5, 3.0, 50.0, 1400.0, 1e5])
def test_holder_factors_keep_a_weight_below_the_smallest_square(p):
    # a pure state with weight 1e-170 on E_2's top eigenvector: that row of the scaled
    # stack is about 1e-170, whose square underflows, and the other falls below it by
    # (0.1/0.5)^(p/2 - 1/2) (a density matrix cannot carry the weight: its eigensolver
    # drops it).  ||E_j^(p/2) psi||^(1/p) = (sum_i e_ji^p |psi_i|^2)^(1/(2p))
    support = (np.ones(1), np.array([[1.0], [1e-170]], dtype=complex))
    got = bounds._element_norm_roots(support, Povm(DIAGONAL_PAIR), p / 2.0)[0]
    with mpmath.workdps(50):
        weights = (1, mpmath.mpf(1e-170) ** 2)
        want = [float(mpmath.fsum(w * mpmath.mpf(e) ** p for w, e in zip(weights, np.diag(element)))
                      ** (1 / (2 * mpmath.mpf(p))))
                for element in DIAGONAL_PAIR]
    assert np.allclose(got, want, rtol=1e-13, atol=0.0), (got, want)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 50.0, 1400.0, 5000.0, 1e5])
def test_holder_bound_matches_the_50_digit_value_at_any_exponent(p):
    # the Hölder factors ||E_j^(p/2) rho||_tr^(1/p) keep their digits when the norm
    # itself is below the smallest double; both orders of each conjugate pair
    q = p / (p - 1.0)
    for rho, povm in _holder_cases():
        with mpmath.workdps(50):
            norms = mp_oracle.element_trace_norms(rho.mat, povm.elements, {p / 2.0, q / 2.0})
            roots = {x: [t ** (1 / mpmath.mpf(x)) for t in norms[x / 2.0]] for x in (p, q)}
        for first, second in ((p, q), (q, p)):
            a, b = roots[first], roots[second]
            want = float(sum(a) * sum(b) - sum(x * y for x, y in zip(a, b)))
            got = holder_bound(rho, povm, first, second).bound_value
            assert abs(got - want) <= 1e-12 * want, (first, second, got, want)
