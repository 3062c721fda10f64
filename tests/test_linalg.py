"""Hermitian/spectral kernel: decompositions, matrix functions, norms, entropy."""

import sys
import threading

import numpy as np
import pytest

from helpers import random_density, random_unitary, record_thread_starts
from povmcoh import (
    DomainError,
    NegativeEigenvalueError,
    NotHermitianError,
    ValidationError,
)
from povmcoh import linalg
from povmcoh.linalg import (
    clamp_psd_eigenvalues,
    eig_hermitian,
    entropy_psd,
    hermitian_part,
    hermiticity_defect,
    map_blocks,
    mat_func_hermitian,
    operator_norm,
    power_psd,
    singular_values,
    sqrt_psd,
    stacked_eigh,
    stacked_psd_eigenvalues,
    stacked_singular_values,
    support_eigenpairs,
    trace_norm,
)


def random_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2.0


def test_hermitian_part_and_defect():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = hermitian_part(a)
    assert np.allclose(h, h.conj().T)
    assert hermiticity_defect(h) < 1e-15
    assert hermiticity_defect(a) > 0.1


def test_eig_hermitian_reconstruction_and_order():
    rng = np.random.default_rng(2)
    for d in (1, 2, 3, 5, 8, 16):
        m = random_hermitian(rng, d)
        w, v = eig_hermitian(m)
        assert np.all(np.diff(w) <= 0)  # descending
        assert np.max(np.abs((v * w) @ v.conj().T - m)) < 1e-10
        assert np.max(np.abs(v.conj().T @ v - np.eye(d))) < 1e-10


def test_stacked_eigh_matches_eig_hermitian():
    rng = np.random.default_rng(3)
    stack = np.array([random_density(rng, 5).mat for _ in range(4)])
    w, v = stacked_eigh(stack)
    assert w.shape == (4, 5) and v.shape == (4, 5, 5)
    for m, wj, vj in zip(stack, w, v):
        want, _ = eig_hermitian(m)
        assert np.all(np.diff(wj) >= 0)  # ascending
        assert np.max(np.abs(wj[::-1] - want)) < 1e-14
        assert np.max(np.abs((vj * wj) @ vj.conj().T - m)) < 1e-14


def test_stacked_eigh_leaves_the_spectrum_to_the_psd_clamp():
    # validation reads the raw eigenvalues; the clamp then zeroes roundoff only
    w, _ = stacked_eigh(np.array([np.diag([1.0, -1e-12]), np.diag([1.0, -1e-3])]))
    assert w[0, 0] == -1e-12 and w[1, 0] == -1e-3
    assert clamp_psd_eigenvalues(w[0]).min() == 0.0
    with pytest.raises(NegativeEigenvalueError):
        clamp_psd_eigenvalues(w[1])


def test_eig_hermitian_rejects_nonhermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(NotHermitianError):
        eig_hermitian(m)


def test_eig_hermitian_rejects_nonsquare_and_nonfinite():
    with pytest.raises(ValidationError):
        eig_hermitian(np.zeros((2, 3)))
    bad = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValidationError):
        eig_hermitian(bad)


def test_clamp_psd_eigenvalues():
    w = np.array([1.0, -5e-11, 0.0])
    out = clamp_psd_eigenvalues(w)
    assert np.all(out >= 0.0)
    assert out[0] == 1.0
    with pytest.raises(NegativeEigenvalueError):
        clamp_psd_eigenvalues(np.array([1.0, -1e-9]))


def test_mat_func_hermitian_exp():
    rng = np.random.default_rng(3)
    m = random_hermitian(rng, 4)
    w, v = np.linalg.eigh(m)
    expected = (v * np.exp(w)) @ v.conj().T
    assert np.max(np.abs(mat_func_hermitian(m, np.exp) - expected)) < 1e-10


def test_mat_func_hermitian_domain_error():
    m = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(DomainError):
        mat_func_hermitian(m, np.log, clamp_psd=True)


def test_sqrt_psd_squares_back():
    rng = np.random.default_rng(4)
    for d in (2, 3, 6):
        rho = random_density(rng, d).mat
        r = sqrt_psd(rho)
        assert np.max(np.abs(r @ r - rho)) < 1e-9
        assert np.allclose(r, r.conj().T)


def test_sqrt_psd_rejects_truly_negative():
    with pytest.raises(NegativeEigenvalueError):
        sqrt_psd(np.diag([1.0, -1e-6]).astype(complex))


def test_power_psd_spectral():
    m = np.diag([4.0, 0.0, 0.25]).astype(complex)
    out = power_psd(m, 0.5)
    assert np.allclose(np.diagonal(out), [2.0, 0.0, 0.5])
    rng = np.random.default_rng(5)
    rho = random_density(rng, 3).mat
    assert np.max(np.abs(power_psd(rho, 1.0) - rho)) < 1e-12
    # a^(2/3) cubed equals a squared
    cube = np.linalg.matrix_power(power_psd(rho, 2.0 / 3.0), 3)
    assert np.max(np.abs(cube - rho @ rho)) < 1e-9


def test_support_eigenpairs_inverse_root_full_rank():
    rng = np.random.default_rng(6)
    rho = random_density(rng, 4).mat
    w, v = support_eigenpairs(rho)
    assert w.size == 4
    s = (v / np.sqrt(w)) @ v.conj().T
    assert np.max(np.abs(s @ rho @ s - np.eye(4))) < 1e-8


def test_support_eigenpairs_pseudo_inverse_on_support():
    # rank-one projector: pseudo inverse square root is the projector itself
    p = np.diag([1.0, 0.0]).astype(complex)
    w, v = support_eigenpairs(p, kernel_rtol=1e-12)
    assert w.size == 1
    s = (v / np.sqrt(w)) @ v.conj().T
    assert np.max(np.abs(s - p)) < 1e-12


def test_singular_values_and_trace_norm_examples():
    assert abs(trace_norm(np.diag([3.0, -4.0])) - 7.0) < 1e-12
    assert trace_norm(np.zeros((3, 3))) == 0.0
    block = np.array([[0.0, 0.25], [0.0, 0.0]])  # 0.25 |0><1|
    assert abs(trace_norm(block) - 0.25) < 1e-14
    sv = singular_values(np.diag([3.0, -4.0]))
    assert np.allclose(sv, [4.0, 3.0])


def test_operator_norm_examples():
    assert abs(operator_norm(np.eye(3)) - 1.0) < 1e-14
    assert abs(operator_norm(np.diag([0.2, 0.9])) - 0.9) < 1e-14
    # product of square roots of Z-basis and X-basis projectors
    p0 = np.diag([1.0, 0.0]).astype(complex)
    plus = np.full((2, 2), 0.5, dtype=complex)
    assert abs(operator_norm(p0 @ plus) - 1.0 / np.sqrt(2.0)) < 1e-12


def test_norms_on_rectangular_input():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    sv = singular_values(m)
    assert abs(trace_norm(m) - sv.sum()) < 1e-10
    assert abs(operator_norm(m) - sv.max()) < 1e-12


def test_operator_norm_below_trace_norm():
    rng = np.random.default_rng(8)
    for _ in range(25):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert operator_norm(m) <= trace_norm(m) + 1e-12


def test_trace_norm_unitary_invariance():
    rng = np.random.default_rng(9)
    for _ in range(10):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u = random_unitary(rng, 4)
        w = random_unitary(rng, 4)
        assert abs(trace_norm(u @ m @ w) - trace_norm(m)) < 1e-9


def test_entropy_examples():
    assert abs(entropy_psd(np.eye(2) / 2.0) - 1.0) < 1e-12
    plus = np.full((2, 2), 0.5, dtype=complex)
    assert abs(entropy_psd(plus)) < 1e-12
    # subnormalized block: -(1/2) log2 (1/2) = 1/2
    assert abs(entropy_psd(np.diag([0.5, 0.0])) - 0.5) < 1e-12


def test_entropy_unitary_invariance():
    rng = np.random.default_rng(10)
    for _ in range(10):
        rho = random_density(rng, 4).mat
        u = random_unitary(rng, 4)
        assert abs(entropy_psd(u @ rho @ u.conj().T) - entropy_psd(rho)) < 1e-9


def test_entropy_rejects_negative():
    with pytest.raises(NegativeEigenvalueError):
        entropy_psd(np.diag([1.0, -1e-6]))


# --------------------------------------------------------------------------
# map_blocks: items on up to `threads` threads, results in item order


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(linalg.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(linalg.os, "cpu_count", lambda: 2)


@pytest.mark.parametrize("threads", [2, 3, 8])
def test_map_blocks_keeps_item_order_under_fast_switching(two_cpus, threads):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = map_blocks(lambda i: (i, threading.current_thread().name), range(300), threads)
    finally:
        sys.setswitchinterval(interval)
    assert [i for i, _ in got] == list(range(300))
    assert len({name for _, name in got}) == threads
    assert threading.active_count() == 1  # every helper has ended


def test_map_blocks_raises_what_a_loop_over_the_items_would(two_cpus):
    def fail_at_three_and_six(i):
        if i in (3, 6):
            raise ValueError(f"item {i}")
        return i

    # item 3 runs on the helper thread, item 6 on the calling thread
    with pytest.raises(ValueError, match="item 3"):
        map_blocks(fail_at_three_and_six, range(8))


# --------------------------------------------------------------------------
# the stacked kernels: a stack of more than BLOCK_ENTRIES entries runs in blocks on
# two threads, joined in order


STACKED_KERNELS = pytest.mark.parametrize("kernel", [
    stacked_eigh, stacked_psd_eigenvalues, stacked_singular_values,
], ids=["eigh", "psd_eigenvalues", "singular_values"])


def _psd_stack(shape):
    a = np.random.default_rng(12).standard_normal(shape + (2,)).view(complex)[..., 0]
    return a @ a.conj().swapaxes(-1, -2)


def _outputs(result) -> tuple:
    return result if isinstance(result, tuple) else (result,)


@STACKED_KERNELS
@pytest.mark.parametrize("shape", [(32, 32, 32), (4, 8, 32, 32)])
def test_a_large_stack_on_two_threads_equals_the_one_cpu_result(monkeypatch, kernel, shape):
    m = _psd_stack(shape)
    assert m.size > linalg.BLOCK_ENTRIES
    starts = record_thread_starts(monkeypatch)
    two = _outputs(kernel(m))
    assert len(starts) == (1 if linalg._cpus() >= 2 else 0)
    monkeypatch.setattr(linalg.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(linalg.os, "cpu_count", lambda: 1)
    starts.clear()
    one = _outputs(kernel(m))
    assert starts == []
    monkeypatch.setattr(linalg, "BLOCK_ENTRIES", m.size)
    whole = _outputs(kernel(m))  # one batched LAPACK call
    for result in (two, one):
        assert [a.shape for a in result] == [b.shape for b in whole]
        assert all(np.array_equal(a, b) for a, b in zip(result, whole))


@STACKED_KERNELS
def test_a_stack_of_one_block_starts_no_thread(monkeypatch, two_cpus, kernel):
    m = _psd_stack((linalg.BLOCK_ENTRIES // (32 * 32), 32, 32))
    assert m.size == linalg.BLOCK_ENTRIES
    starts = record_thread_starts(monkeypatch)
    kernel(m)
    assert starts == []
