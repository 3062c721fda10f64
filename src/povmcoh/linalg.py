"""Dense Hermitian linear algebra kernel: eigendecompositions, matrix functions,
norms and entropy. Everything downstream funnels through these few routines."""

from __future__ import annotations

import os
import threading

import numpy as np
import numpy.linalg as npl

from .errors import (
    ConvergenceFailureError,
    DomainError,
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
# Default relative floor for square roots and a state's support: eigenvalues at or
# below this fraction of the largest count as kernel (see sqrt_psd).
SUPPORT_RTOL = 1e-13
# Batched products over many pairs of matrices run in blocks of at most this many
# entries per product stack (or one pair's worth), so their transients stay bounded.
# numpy's batched SVD and eigvalsh overlap on two threads only from about 8192
# complex entries per call, so a block this size is also worth a thread: the
# stacked kernels run any larger stack in blocks of this size on two threads.
BLOCK_ENTRIES = 1 << 14


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


def map_blocks(func, items, threads: int = 2) -> list:
    """[func(item) for item in items], in order, on up to `threads` threads.

    With t = min(threads, len(items)) of two or more and two or more CPUs to run
    on, the calling thread takes items 0, t, 2t, ... and helper thread r the items
    r, r + t, ...; otherwise no thread is started.  After every thread has ended,
    the exception func raised on the first failing item, on whichever thread, is
    re-raised here: the one a loop over the items would raise.  The default of
    two threads is the only count measured so far (on a 2-CPU host).
    """
    items = list(items)
    threads = min(threads, len(items))
    if threads < 2 or _cpus() < 2:
        return [func(item) for item in items]
    results = [None] * len(items)
    failures = []

    def run(first):
        for i in range(first, len(items), threads):
            try:
                results[i] = func(items[i])
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                failures.append((i, exc))
                return

    helpers = [threading.Thread(target=run, args=(first,)) for first in range(1, threads)]
    for helper in helpers:
        helper.start()
    run(0)
    for helper in helpers:
        helper.join()
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return results


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(M + M^dag)/2, of one matrix or of each matrix in a stack (..., d, d)."""
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def hermiticity_defect(m: np.ndarray) -> float:
    """max|M - M^dag|."""
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def _require_square(m: np.ndarray) -> np.ndarray:
    m = as_array(m, NotSquareError, "matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquareError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NotSquareError("matrix has non-finite entries")
    return m


def eig_hermitian(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectral decomposition of a Hermitian matrix.

    Returns (w, v) with eigenvalues w real and sorted descending, columns of v
    the matching orthonormal eigenvectors.  Inputs are symmetrized first; a
    Hermiticity defect above HERMITICITY_TOL is rejected.
    """
    m = _require_square(m)
    defect = hermiticity_defect(m)
    if defect > HERMITICITY_TOL:
        raise NotHermitianError(f"Hermiticity defect {defect:.3e} exceeds {HERMITICITY_TOL:.1e}")
    w, v = stacked_eigh(m)
    return w[::-1], v[:, ::-1]


def clamp_psd_eigenvalues(w: np.ndarray, tol: float = PSD_CLAMP_TOL) -> np.ndarray:
    """Zero out negative roundoff in eigenvalues of a PSD operator; reject real negatives."""
    w = np.asarray(w, dtype=float)
    low = float(w.min()) if w.size else 0.0
    if low < -tol:
        raise NegativeEigenvalueError(f"eigenvalue {low:.3e} below -{tol:.1e}; operator is not PSD")
    return np.where(w < 0.0, 0.0, w)


def mat_func_hermitian(m: np.ndarray, f, clamp_psd: bool = False) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its eigenvalues.

    With clamp_psd=True, negative eigenvalues within roundoff of zero are
    clamped to 0 before applying f (for functions defined on [0, inf) only).
    """
    w, v = eig_hermitian(m)
    if clamp_psd:
        w = clamp_psd_eigenvalues(w)
    with np.errstate(all="ignore"):  # out-of-domain spectra are caught just below
        fw = np.asarray(f(w), dtype=float)
    if not np.all(np.isfinite(fw)):
        raise DomainError("matrix function produced non-finite values on the spectrum")
    return (v * fw) @ v.conj().T


def sqrt_psd(m: np.ndarray, kernel_rtol: float = SUPPORT_RTOL) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix.

    Eigenvalues at or below kernel_rtol * max(eigenvalue) are treated as exact
    zeros: the square root doubles the relative size of eigenvalue roundoff
    (eps becomes sqrt(eps) = 1e-8), so rank-deficient inputs such as projectors
    would otherwise sprout junk directions large enough to pollute trace norms.
    """
    return power_psd(m, 0.5, kernel_rtol=kernel_rtol)


def power_psd(m: np.ndarray, a: float, kernel_rtol: float = 0.0) -> np.ndarray:
    """M**a for PSD Hermitian M, a > 0, with 0**a = 0.

    Eigenvalues at or below kernel_rtol * max(eigenvalue) are zeroed first.
    Fractional powers amplify eigenvalue roundoff near zero (eps**a can be
    many orders above eps), so callers powering rank-deficient matrices
    should pass a small relative floor.
    """

    def f(w):
        floor = max(kernel_rtol * float(np.max(w, initial=0.0)), 0.0)
        return np.where(w > floor, w, 0.0) ** a

    return mat_func_hermitian(m, f, clamp_psd=True)


def support_eigenpairs(m: np.ndarray, kernel_rtol: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (w, v) of a PSD Hermitian M on its support, w descending.

    Eigenvalues pass the PSD roundoff clamp; those at or below
    kernel_rtol * max(eigenvalue) count as kernel and are dropped, so
    (v / sqrt(w)) @ v^dag is the pseudo-inverse square root of M.
    """
    w, v = eig_hermitian(m)
    w = clamp_psd_eigenvalues(w)
    keep = w > kernel_rtol * (float(w[0]) if w.size else 0.0)
    return w[keep], v[:, keep]


def singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values, descending. Rectangular inputs allowed."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise NotSquareError(f"expected a matrix, got shape {m.shape}")
    try:
        return npl.svd(m, compute_uv=False)
    except npl.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceFailureError(str(exc)) from exc


def stacked_singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values of each matrix in a stack (..., rows, cols), descending
    along the last axis.  Batched LAPACK calls instead of a Python loop; a
    stack of row or column vectors has one singular value each, its norm, and
    needs no LAPACK call."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2:
        raise NotSquareError(f"expected a stack of matrices, got shape {m.shape}")
    if min(m.shape[-2:]) == 1:
        return np.sqrt(np.square(np.abs(m)).sum(axis=(-2, -1)))[..., None]
    return _by_blocks(lambda piece: npl.svd(piece, compute_uv=False), m)


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
    thread."""
    try:
        if m.size <= BLOCK_ENTRIES:
            return func(m)
        rows, cols = m.shape[-2:]
        flat = m.reshape(-1, rows, cols)
        parts = map_blocks(lambda piece: func(flat[piece]), blocks(len(flat), rows * cols))
    except npl.LinAlgError as exc:  # pragma: no cover - LAPACK essentially never fails here
        raise ConvergenceFailureError(str(exc)) from exc

    def join(outputs):
        return np.concatenate(outputs).reshape(m.shape[:-2] + outputs[0].shape[1:])

    return tuple(map(join, zip(*parts))) if isinstance(parts[0], tuple) else join(parts)


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values."""
    return float(np.sum(singular_values(m)))


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value."""
    s = singular_values(m)
    return float(s[0]) if s.size else 0.0


def spectrum_entropy(w: np.ndarray) -> np.ndarray:
    """-sum w log2 w over the last axis of nonnegative values, with 0 log 0 = 0.

    The last axis is short (a spectrum or the outcomes of a POVM): a product with
    a ones vector reduces it in a fraction of the time np.sum takes."""
    return -((w * np.log2(w, out=np.zeros(w.shape), where=w > 0.0)) @ np.ones(w.shape[-1]))


def entropy_psd(m: np.ndarray) -> float:
    """von Neumann entropy -tr(M log2 M) of a PSD matrix, with 0 log 0 = 0.

    The input need not be normalized; eigenvalues are used as-is after the
    PSD roundoff clamp.
    """
    w, _ = support_eigenpairs(m)
    return float(spectrum_entropy(w))
