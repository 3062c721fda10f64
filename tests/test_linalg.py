"""Hermitian/spectral kernel: decompositions, the support rule, norms, and the
two-thread map over blocks."""

import gc
import os
import subprocess
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from helpers import random_density, random_unitary, record_hand_offs, record_thread_starts
from povmcoh import (
    DensityMatrix,
    NegativeEigenvalueError,
    NotHermitianError,
    NotSquareError,
    Povm,
    ValidationError,
)
from povmcoh import linalg
from povmcoh.linalg import (
    clamp_psd_eigenvalues,
    eig_hermitian,
    hermitian_part,
    map_blocks,
    psd_support,
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


def test_hermitian_part():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = hermitian_part(a)
    assert np.allclose(h, h.conj().T)
    assert np.max(np.abs(h - h.conj().T)) < 1e-15


def test_hermitian_part_is_halved_before_the_sum():
    # bit-identical to halving the sum wherever that is finite, and finite where it is not
    rng = np.random.default_rng(4)
    for scale in 10.0 ** np.arange(-300, 301, 25):
        m = scale * (rng.standard_normal((8, 5, 5)) + 1j * rng.standard_normal((8, 5, 5)))
        assert np.array_equal(hermitian_part(m), 0.5 * (m + m.conj().swapaxes(-1, -2)))
    huge = np.array([[1e308, 1.7e308], [1.7e308, -1e308]])
    assert np.array_equal(hermitian_part(huge), huge)
    real = rng.standard_normal((3, 4, 4))  # conj() of a real array is the array itself
    assert np.array_equal(hermitian_part(real), 0.5 * (real + real.swapaxes(-1, -2)))


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


def test_support_eigenpairs_inverse_root_full_rank():
    rng = np.random.default_rng(6)
    rho = random_density(rng, 4).mat
    w, v = support_eigenpairs(rho, linalg.SUPPORT_RTOL)
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


def test_psd_support_cuts_each_member_of_a_stack_as_it_cuts_one_matrix():
    w = np.array([[3.0, 1e-14, -1e-12], [1.0, 0.5, 0.0]])
    clamped, ranks = psd_support(w, 1e-13)
    assert ranks.tolist() == [1, 2] and clamped[0, 2] == 0.0
    for row, rank in zip(w, ranks):
        assert psd_support(row, 1e-13)[1] == rank
    assert psd_support(w, 0.0)[1].tolist() == [2, 2]


def test_states_elements_and_support_eigenpairs_share_the_support_rule():
    # a rank-2 matrix whose kernel holds only roundoff, as a state and as an element
    u = random_unitary(np.random.default_rng(11), 5)
    m = (u[:, :2] * np.array([0.75, 0.25])) @ u[:, :2].conj().T
    w, _ = support_eigenpairs(m, linalg.SUPPORT_RTOL)
    assert w.size == 2
    assert np.max(np.abs(DensityMatrix(m).support[0] - w)) < 1e-15
    s = Povm([m, np.eye(5) - m]).root_factors[0]
    assert np.count_nonzero(s[0]) == 2 and np.max(np.abs(s[0, :2] - w)) < 1e-15


def test_trace_norm_examples():
    assert abs(trace_norm(np.diag([3.0, -4.0])) - 7.0) < 1e-12
    assert trace_norm(np.zeros((3, 3))) == 0.0
    block = np.array([[0.0, 0.25], [0.0, 0.0]])  # 0.25 |0><1|
    assert abs(trace_norm(block) - 0.25) < 1e-14


def test_trace_norm_on_rectangular_input():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    assert abs(trace_norm(m) - np.linalg.svd(m, compute_uv=False).sum()) < 1e-10


def test_trace_norm_unitary_invariance():
    rng = np.random.default_rng(9)
    for _ in range(10):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u = random_unitary(rng, 4)
        w = random_unitary(rng, 4)
        assert abs(trace_norm(u @ m @ w) - trace_norm(m)) < 1e-9


# --------------------------------------------------------------------------
# map_blocks: items on the calling thread and one parked helper, results in item order


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(linalg.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(linalg.os, "cpu_count", lambda: 2)


def _helper_threads() -> list:
    return [t for t in threading.enumerate() if t.name == "povmcoh-map_blocks"]


def _within(seconds, call):
    """call() on a daemon thread, so that a call that never returns fails the test;
    what it raises is raised here."""
    out = {}

    def target():
        try:
            out["value"] = call()
        except Exception as exc:  # noqa: BLE001 - re-raised below
            out["error"] = exc

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), f"no result within {seconds} s"
    if "error" in out:
        raise out["error"]
    return out["value"]


def test_map_blocks_keeps_item_order_under_fast_switching(two_cpus):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = map_blocks(lambda i: (i, threading.get_ident()), range(300))
        again = map_blocks(lambda i: (i, threading.get_ident()), range(300))
    finally:
        sys.setswitchinterval(interval)
    assert [i for i, _ in got] == list(range(300))
    _, helper = linalg._helper
    assert {ident for _, ident in got} == {threading.get_ident(), helper.ident}
    assert again == got  # the same helper thread, parked between the calls
    assert _helper_threads() == [helper]


def test_the_parked_helper_keeps_no_item_alive(two_cpus):
    class Item:
        pass

    items = [Item(), Item()]
    refs = [weakref.ref(item) for item in items]
    map_blocks(lambda item: None, items)
    del items
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_no_helper_on_one_cpu_or_for_one_item(monkeypatch, two_cpus):
    monkeypatch.setattr(linalg, "_helper", None)  # as in a process that has not started one
    starts = record_thread_starts(monkeypatch)
    assert map_blocks(abs, [-1]) == [1]
    monkeypatch.setattr(linalg.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert map_blocks(abs, range(-3, 3)) == [3, 2, 1, 0, 1, 2]
    assert starts == [] and linalg._helper is None


def test_a_failure_on_the_helper_leaves_it_working(two_cpus):
    def fail_at_one(i):
        if i == 1:
            raise ValueError("item 1")
        return i

    with pytest.raises(ValueError, match="item 1"):
        _within(10, lambda: map_blocks(fail_at_one, range(4)))
    assert _within(10, lambda: map_blocks(lambda i: i * i, range(5))) == [0, 1, 4, 9, 16]


def test_an_interrupted_caller_waits_for_the_helpers_share(two_cpus):
    # item 0 is interrupted on the calling thread while item 1 still runs on the
    # helper: the interrupt reaches the caller only once the helper's share is done
    finished = threading.Event()

    def item(i):
        if i == 0:
            raise KeyboardInterrupt
        time.sleep(0.2)
        finished.set()
        return i

    def call():
        try:
            map_blocks(item, range(2))
        except KeyboardInterrupt:
            return finished.is_set()
        return "no interrupt"

    assert _within(10, call) is True
    assert _within(10, lambda: map_blocks(lambda i: i * i, range(5))) == [0, 1, 4, 9, 16]


def test_a_nested_call_completes(two_cpus):
    # even items nest on the calling thread, which waits for the helper's share of
    # the outer call; odd ones nest on the helper, which runs them in a loop
    got = _within(10, lambda: map_blocks(lambda i: map_blocks(lambda j: (i, j), range(3)),
                                         range(4)))
    assert got == [[(i, j) for j in range(3)] for i in range(4)]


def test_callers_on_several_threads_each_get_their_results(two_cpus):
    results = {}

    def call(k):
        results[k] = [map_blocks(lambda i: (k, i), range(50)) for _ in range(20)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(k,), daemon=True) for k in range(4)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert results == {k: [[(k, i) for i in range(50)]] * 20 for k in range(4)}
    assert len(_helper_threads()) == 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_child_gets_a_working_helper():
    child = """
import os, signal, sys
from povmcoh import linalg
linalg._cpus = lambda: 2
want = [3, 2, 1, 0, 1, 2]
assert linalg.map_blocks(abs, range(-3, 3)) == want
parent = linalg._helper
pid = os.fork()
if pid == 0:
    signal.alarm(10)  # a child waiting on its parent's helper ends here
    ok = linalg.map_blocks(abs, range(-3, 3)) == want and linalg._helper is not parent
    os._exit(0 if ok else 1)
_, status = os.waitpid(pid, 0)
assert linalg.map_blocks(abs, range(-3, 3)) == want and linalg._helper is parent
sys.exit(os.waitstatus_to_exitcode(status))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-W", "ignore::DeprecationWarning", "-c", child],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_a_call_from_an_atexit_handler_works():
    # the helper starts before exit; atexit handlers run after threading's own
    # shutdown hooks, where a pool that refuses new work would fail the call
    child = """
import atexit
from povmcoh import linalg
linalg._cpus = lambda: 2
want = [3, 2, 1, 0, 1, 2]
assert linalg.map_blocks(abs, range(-3, 3)) == want

def at_exit():
    print("ok" if linalg.map_blocks(abs, range(-3, 3)) == want else "wrong")

atexit.register(at_exit)
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "ok\n", "")


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
    hand_offs = record_hand_offs(monkeypatch)
    two = _outputs(kernel(m))
    assert len(hand_offs) == (1 if linalg._cpus() >= 2 else 0)
    monkeypatch.setattr(linalg.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(linalg.os, "cpu_count", lambda: 1)
    hand_offs.clear()
    starts = record_thread_starts(monkeypatch)
    one = _outputs(kernel(m))
    assert starts == [] and hand_offs == []
    monkeypatch.setattr(linalg, "BLOCK_ENTRIES", m.size)
    whole = _outputs(kernel(m))  # one batched LAPACK call
    for result in (two, one):
        assert [a.shape for a in result] == [b.shape for b in whole]
        assert all(np.array_equal(a, b) for a, b in zip(result, whole))


@STACKED_KERNELS
def test_stacked_kernels_refuse_a_stack_of_non_matrices(kernel):
    with pytest.raises(NotSquareError):
        kernel(np.ones(3))
    if kernel is not stacked_singular_values:  # the eigen kernels need square matrices
        with pytest.raises(NotSquareError):
            kernel(np.ones((2, 3)))


def test_vector_norms_keep_their_digits_below_the_smallest_square():
    # the no-LAPACK branch: squares of 1e-170 are below the smallest double
    rows = stacked_singular_values(np.array([[[1e-170, 1e-170j]], [[0.0, 0.0]], [[0.3, 0.4j]]]))
    assert rows.shape == (3, 1) and rows[1, 0] == 0.0
    assert rows[2, 0] == np.sqrt(0.3 ** 2 + 0.4 ** 2)  # a stack taken again keeps the others' bits
    assert abs(rows[0, 0] - np.sqrt(2.0) * 1e-170) <= 4e-16 * np.sqrt(2.0) * 1e-170
    assert stacked_singular_values(np.zeros((0, 1, 3))).shape == (0, 1)
    column = stacked_singular_values(np.array([[3e-300], [4e-300]]))
    assert abs(column[0] - 5e-300) <= 4e-16 * 5e-300
    # away from underflow the scaling by a power of two keeps every bit
    m = np.random.default_rng(3).standard_normal((5, 1, 7, 2)).view(complex)[..., 0]
    for vectors in (m, m.swapaxes(-1, -2)):
        want = np.sqrt(np.square(np.abs(vectors)).sum(axis=(-2, -1)))[..., None]
        assert np.array_equal(stacked_singular_values(vectors), want)


@STACKED_KERNELS
def test_a_stack_of_one_block_starts_no_thread(monkeypatch, two_cpus, kernel):
    m = _psd_stack((linalg.BLOCK_ENTRIES // (32 * 32), 32, 32))
    assert m.size == linalg.BLOCK_ENTRIES
    starts = record_thread_starts(monkeypatch)
    kernel(m)
    assert starts == []
