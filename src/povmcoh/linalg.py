"""Dense Hermitian linear algebra kernel: eigendecompositions, matrix functions,
norms and entropy. Everything downstream funnels through these few routines."""

import numpy as np
import numpy.linalg as npl

from .errors import (
    ConvergenceFailureError,
    DomainError,
    NegativeEigenvalueError,
    NotHermitianError,
    NotSquareError,
)

# Inputs are accepted as Hermitian when max|M - M^dag| is below this.
HERMITICITY_TOL = 1e-9
# Eigenvalues of nominally-PSD operators in [-PSD_CLAMP_TOL, 0) clamp to 0;
# anything more negative is a real bug upstream.
PSD_CLAMP_TOL = 1e-10


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(M + M^dag)/2."""
    return 0.5 * (m + m.conj().T)


def hermiticity_defect(m: np.ndarray) -> float:
    """max|M - M^dag|."""
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def _require_square(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
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
    try:
        w, v = npl.eigh(hermitian_part(m))
    except npl.LinAlgError as exc:  # pragma: no cover - LAPACK essentially never fails here
        raise ConvergenceFailureError(str(exc)) from exc
    order = np.argsort(w)[::-1]
    return w[order], v[:, order]


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


def sqrt_psd(m: np.ndarray, kernel_rtol: float = 1e-13) -> np.ndarray:
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


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values."""
    return float(np.sum(singular_values(m)))


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value."""
    s = singular_values(m)
    return float(s[0]) if s.size else 0.0


def entropy_psd(m: np.ndarray) -> float:
    """von Neumann entropy -tr(M log2 M) of a PSD matrix, with 0 log 0 = 0.

    The input need not be normalized; eigenvalues are used as-is after the
    PSD roundoff clamp.
    """
    w, _ = support_eigenpairs(m)
    return float(-np.sum(w * np.log2(w)))
