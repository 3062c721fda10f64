"""Hermitian linear algebra kernel: stacked eigendecompositions, singular values and
trace norms, the one support rule for PSD spectra, and entropy.  Everything
downstream funnels through these few routines."""

from __future__ import annotations

import os
import threading

import numpy as np
import numpy.linalg as npl

from .errors import (
    ConvergenceFailureError,
    NegativeEigenvalueError,
    NotHermitianError,
    NotSquareError,
    as_array,
)

# Inputs are accepted as Hermitian when max|M - M^dag| is below this.
HERMITICITY_TOL = 1e-9
# Eigenvalues of nominally-PSD operators in [-PSD_CLAMP_TOL, 0) clamp to 0;
# anything more negative is a real bug upstream.
PSD_CLAMP_TOL = 1e-10
# Relative floor of a state's and an element's support, and of sqrt_psd's:
# eigenvalues at or below this fraction of the largest count as kernel (psd_support).
SUPPORT_RTOL = 1e-13
# Batched products over many pairs of matrices run in blocks of at most this many
# entries per product stack (or one pair's worth), so their transients stay bounded.
# numpy's batched SVD and eigvalsh overlap on two threads only from about 8192
# complex entries per call, so a block this size is also worth a thread: the
# stacked kernels run any larger stack in blocks of this size on two threads.
BLOCK_ENTRIES = 1 << 14
# A vector's sum of squares at or above this (2^54 times the smallest normal double)
# lost under 2^-107 of itself per entry to squares below the normal range; a smaller
# one, or zero, is taken again from the vector scaled by a power of two.
TINY_SQUARES = 2.0 ** -968
# Entries up to this (2^480) have squares, and sums of squares, well below the largest
# double; a stack of vectors with a larger entry is taken scaled, as for TINY_SQUARES.
HUGE_ENTRY = 2.0 ** 480
_SMALLEST_NORMAL = np.finfo(float).tiny


def blocks(count: int, entries_each: int):
    """Slices of range(count) with at most BLOCK_ENTRIES // entries_each items, and
    at least one, in each."""
    step = max(1, BLOCK_ENTRIES // max(entries_each, 1))
    return (slice(start, start + step) for start in range(0, count, step))


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


_helper = None  # the process's helper, once started: (the queue it serves, its thread)
_helper_start = threading.Lock()


def _serve(jobs):
    """The helper thread: a daemon, parked between map_blocks calls, that runs the share
    of each (share, done) pair on its first-in, first-out queue, then releases done, a lock
    made per call, so a caller interrupted while it waits leaves nothing for the next one."""
    while True:
        share, done = jobs.get()
        try:
            share()
        finally:  # share catches what its items raise; this is for anything else
            share = None  # a parked helper keeps nothing of a finished call alive
            done.release()


def _forget_helper():
    """A forked child has no copy of the parent's threads: it starts its own helper."""
    global _helper, _helper_start
    _helper, _helper_start = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # not on Windows, which has no fork
    os.register_at_fork(after_in_child=_forget_helper)


def map_blocks(func, items) -> list:
    """[func(item) for item in items], in order, on at most two threads.

    With two or more items and two or more CPUs to run on, the calling thread
    takes items 0, 2, 4, ... and the process's one helper thread (_serve) the
    items 1, 3, 5, ...; the helper starts at the first such call.  A call made
    while the helper is busy, from another thread or from an item on the calling
    thread, waits for the helper's share of the running call.  Otherwise, and in a
    call made on the helper itself, the items run in a plain loop.  After both
    threads are done, the exception func raised on the first failing item, on
    whichever thread, is re-raised here: the one a loop over the items would raise.
    Two threads is the only count measured so far (on a 2-CPU host).  An empty
    two-item call takes 0.03 ms there; a thread started per call took 0.06-0.16 ms.
    """
    global _helper
    items = list(items)
    if len(items) < 2 or _cpus() < 2:
        return [func(item) for item in items]
    with _helper_start:
        if _helper is None:
            import queue  # only a process that splits work loads it

            jobs = queue.SimpleQueue()
            helper = threading.Thread(target=_serve, args=(jobs,), name="povmcoh-map_blocks", daemon=True)
            helper.start()
            _helper = jobs, helper
        jobs, helper = _helper
    if threading.get_ident() == helper.ident:
        return [func(item) for item in items]
    results = [None] * len(items)
    failures = []

    def run(first):
        for i in range(first, len(items), 2):
            try:
                results[i] = func(items[i])
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                failures.append((i, exc))
                return

    done = threading.Lock()
    done.acquire()
    jobs.put((lambda: run(1), done))
    try:
        run(0)
    finally:
        done.acquire()
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return results


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(M + M^dag)/2, of one matrix or of each matrix in a stack (..., d, d), halved
    before the sum so that no finite input overflows."""
    half = 0.5 * m
    half += half.conj().swapaxes(-1, -2)
    return half


def eig_hermitian(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectral decomposition of a Hermitian matrix.

    Returns (w, v) with eigenvalues w real and sorted descending, columns of v
    the matching orthonormal eigenvectors.  Inputs are symmetrized first; an empty,
    non-square or non-finite matrix, or a Hermiticity defect max|M - M^dag| above
    HERMITICITY_TOL, is rejected.
    """
    m = as_array(m, NotSquareError, "matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise NotSquareError(f"expected a nonempty square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NotSquareError("matrix has non-finite entries")
    defect = float(np.max(np.abs(m - m.conj().T)))
    if defect > HERMITICITY_TOL:
        raise NotHermitianError(f"Hermiticity defect {defect:.3e} exceeds {HERMITICITY_TOL:.1e}")
    w, v = stacked_eigh(m)
    return w[::-1], v[:, ::-1]


def clamp_psd_eigenvalues(w: np.ndarray) -> np.ndarray:
    """Zero out negative roundoff in eigenvalues of a PSD operator; reject real negatives.
    The result is C-contiguous: w itself when w is a C-contiguous float array with
    nothing negative."""
    w = np.asarray(w, dtype=float)
    low = float(w.min()) if w.size else 0.0
    if low < -PSD_CLAMP_TOL:
        raise NegativeEigenvalueError(f"eigenvalue {low:.3e} below -{PSD_CLAMP_TOL:.1e}; operator is not PSD")
    return np.where(w < 0.0, 0.0, w) if low < 0.0 else np.ascontiguousarray(w)


def psd_support(w: np.ndarray, rtol: float) -> tuple[np.ndarray, np.ndarray]:
    """The one support rule, for the descending eigenvalues w of a PSD matrix, or of
    each matrix in a stack along the last axis: w after the PSD roundoff clamp, and
    the rank of each support, the count of eigenvalues above rtol times the largest
    (a prefix of w)."""
    w = clamp_psd_eigenvalues(w)
    return w, (w > rtol * w[..., :1]).sum(axis=-1)


def support_eigenpairs(m: np.ndarray, kernel_rtol: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (w, v) of a PSD Hermitian M on its support (psd_support), w
    descending, so (v / sqrt(w)) @ v^dag is the pseudo-inverse square root of M."""
    w, v = eig_hermitian(m)
    w, rank = psd_support(w, kernel_rtol)
    return w[:rank], v[:, :rank]


def sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix on its support: the floor
    SUPPORT_RTOL keeps eigenvalue roundoff (eps, whose root is 1e-8) from sprouting
    junk directions in rank-deficient inputs such as projectors.  No package code
    calls it; the tests' kernel accuracy criterion checks support_eigenpairs through it."""
    w, v = support_eigenpairs(m, SUPPORT_RTOL)
    return (v * np.sqrt(w)) @ v.conj().T


def support_sandwich(w: np.ndarray, v: np.ndarray, stack: np.ndarray, power: float,
                       weights: np.ndarray | None = None) -> np.ndarray:
    """The Hermitian part of eta_j R A_j R for each A_j of a stack (n, d, d), with
    R = v diag(w^power) v^dag from the support eigenpairs (w, v) of a PSD matrix: power
    1/2 (its square root) or -1/2 (its inverse square root on the support), eta_j 1 by default."""
    root = (v * np.sqrt(w) if power > 0 else v / np.sqrt(w)) @ v.conj().T
    sandwiches = root @ stack @ root
    return hermitian_part(sandwiches if weights is None else weights[:, None, None] * sandwiches)


def stacked_singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values of each matrix in a stack (..., rows, cols), descending
    along the last axis.  Batched LAPACK calls instead of a Python loop; a
    stack of row or column vectors has one singular value each, its norm, and
    needs no LAPACK call.  The result is C-contiguous (_by_blocks)."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2:
        raise NotSquareError(f"expected a stack of matrices, got shape {m.shape}")
    if min(m.shape[-2:]) == 1:
        entries = np.abs(m)
        if entries.max(initial=0.0) <= HUGE_ENTRY:
            squares = np.square(entries).sum(axis=(-2, -1), keepdims=True)
            if squares.min(initial=TINY_SQUARES) >= TINY_SQUARES:
                return np.ascontiguousarray(np.sqrt(squares)[..., 0])
        # a zero vector, or squares below or above the normal range
        scale = np.frexp(entries.max(axis=(-2, -1), keepdims=True))[1]  # 0 for a zero vector
        squares = np.square(np.ldexp(entries, -scale)).sum(axis=(-2, -1), keepdims=True)
        return np.ascontiguousarray(np.ldexp(np.sqrt(squares), scale)[..., 0])
    return _by_blocks(lambda piece: npl.svd(piece, compute_uv=False), m)


def smaller_gram(m: np.ndarray) -> np.ndarray:
    """M M^dag or M^dag M for each matrix M in a stack (..., k, r), whichever is smaller (k x k
    when k <= r): either has the squared singular values of M as its nonzero spectrum."""
    mh = m.conj().swapaxes(-1, -2)
    return m @ mh if m.shape[-2] <= m.shape[-1] else mh @ m


def stacked_psd_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of each Hermitian PSD matrix in a stack (..., r, r), after the
    PSD roundoff clamp.  Only the lower triangle of each matrix is read."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise NotSquareError(f"expected a stack of square matrices, got shape {m.shape}")
    if m.shape[-1] == 1:  # each 1 x 1 matrix is its own eigenvalue
        return clamp_psd_eigenvalues(m[..., 0].real)
    return clamp_psd_eigenvalues(_by_blocks(npl.eigvalsh, m))


def stacked_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (w, v) of the Hermitian part of each matrix in a stack (..., d, d),
    w ascending along the last axis and unclamped."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise NotSquareError(f"expected a stack of square matrices, got shape {m.shape}")
    return _by_blocks(lambda piece: tuple(npl.eigh(hermitian_part(piece))), m)


def _by_blocks(func, m: np.ndarray):
    """func(m) for a batched LAPACK call func on a stack (..., rows, cols), returning
    an array or a tuple of arrays per matrix.  A stack of more than BLOCK_ENTRIES
    entries is cut into blocks of matrices (linalg.blocks) that run on two threads
    (map_blocks) and are joined in order: LAPACK treats each matrix alone, so the
    result is bit-identical to one call.  A smaller stack is one call, with no
    thread.  Either way the result is C-contiguous, so a sum over its last axes adds
    each matrix's values in one order, however many matrices the stack holds."""
    try:
        if m.size <= BLOCK_ENTRIES:
            out = func(m)
            return tuple(map(np.ascontiguousarray, out)) if isinstance(out, tuple) else np.ascontiguousarray(out)
        rows, cols = m.shape[-2:]
        flat = m.reshape(-1, rows, cols)
        parts = map_blocks(lambda piece: func(flat[piece]), blocks(len(flat), rows * cols))
    except npl.LinAlgError as exc:  # pragma: no cover - LAPACK essentially never fails here
        raise ConvergenceFailureError(str(exc)) from exc

    def join(outputs):
        return np.concatenate(outputs).reshape(m.shape[:-2] + outputs[0].shape[1:])

    return tuple(map(join, zip(*parts))) if isinstance(parts[0], tuple) else join(parts)


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot products of a and b along the last axis, broadcast over the others.
    Each is the BLAS dot of a 1-D np.dot, so a row has np.dot's bits."""
    if a.ndim == b.ndim == 1:
        return a @ b
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def stacked_trace_norms(m: np.ndarray) -> np.ndarray:
    """The trace norm, the sum of the singular values, of each matrix in a stack
    (..., rows, cols), by the width min(rows, cols) of its matrices: a row or column
    vector's norm (width 1, stacked_singular_values without LAPACK), the closed form
    of _two_wide_trace_norms (width 2), and the sum of the LAPACK singular values
    (width 3 or more).  The result is C-contiguous."""
    m = np.asarray(m, dtype=complex)
    width = min(m.shape[-2:]) if m.ndim >= 2 else None
    if width == 2:
        return _two_wide_trace_norms(m)
    values = stacked_singular_values(m)
    return values[..., 0] if width == 1 else values.sum(axis=-1)


def _two_wide_trace_norms(m: np.ndarray) -> np.ndarray:
    """sigma_1 + sigma_2 of each matrix in a stack (..., 2, cols) or (..., rows, 2).

    With a and b its two rows (or columns), (sigma_1 + sigma_2)^2 = |a|^2 + |b|^2 +
    2 sigma_1 sigma_2, and sigma_1 sigma_2 = |a| |b - (a^dag b / |a|^2) a|, the area the
    two span, after one Gram-Schmidt step: no difference of nearly equal totals, so the
    sum keeps its last digits even when sigma_2 / sigma_1 is 1e-16 or 0.  When a
    matrix's largest real or imaginary part lies outside [2^-200, 2^200], the stack is
    taken scaled, each matrix by the power of two that brings that part into [1/2, 1)
    (by 2^1020 at most); inside that range no square or product that can move a last
    digit leaves the normal range, so the scaling, which is exact, changes no bit.
    """
    pair = np.ascontiguousarray(m if m.shape[-2] == 2 else m.swapaxes(-1, -2))
    top = np.abs(pair.view(float)).max(axis=(-2, -1))
    exponent = None
    if top.min(initial=1.0) < 2.0 ** -200 or top.max(initial=1.0) > 2.0 ** 200:
        exponent = np.maximum(np.frexp(top)[1], -1020)
        pair = pair * np.ldexp(1.0, -exponent)[..., None, None]
    gram = pair @ pair.conj().swapaxes(-1, -2)
    aa = gram[..., 0, 0].real
    # an a whose squares fall below the normal range is too small against b to matter
    coefficient = gram[..., 1, 0] / np.maximum(aa, _SMALLEST_NORMAL)
    rest = np.subtract(pair[..., 1, :], coefficient[..., None] * pair[..., 0, :], order="C")
    area = np.sqrt(aa * np.square(rest.view(float)).sum(axis=-1))
    norms = np.sqrt(aa + gram[..., 1, 1].real + 2.0 * area)
    return norms if exponent is None else np.ldexp(norms, exponent)


def trace_norm(m: np.ndarray) -> float:
    """Sum of the singular values of a matrix: the one-matrix case of stacked_trace_norms."""
    return float(stacked_trace_norms(m))


def spectrum_entropy(w: np.ndarray) -> np.ndarray:
    """-sum w log2 w over the last axis of nonnegative values, with 0 log 0 = 0.

    The last axis is short (a spectrum or the outcomes of a POVM): a product with
    a ones vector reduces it in a fraction of the time np.sum takes."""
    return -((w * np.log2(w, out=np.zeros(w.shape), where=w > 0.0)) @ np.ones(w.shape[-1]))
