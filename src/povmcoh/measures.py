"""Coherence of a state with respect to a general measurement.

Three measures over (rho, POVM):

* relative entropy:  sum_j S(sqrt(E_j) rho sqrt(E_j)) - S(rho), base-2 logs
* l1:                sum_{j != k} || sqrt(E_j) rho sqrt(E_k) ||_tr
* Tsallis (order alpha in (0,1) U (1,2]):
                     [ sum_j tr (sqrt(E_j) rho^alpha sqrt(E_j))^(1/alpha) - 1 ] / (alpha - 1)

All three vanish exactly on measurement-incoherent states (E_j rho E_k = 0 for
all j != k) and are invariant under relabeling of outcomes.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import AlphaOutOfRangeError, NumericError, ValidationError, as_float
from .objects import DensityMatrix, Povm, require_same_dim, require_type

# Measure values in [-NEGATIVE_VALUE_TOL, 0) are roundoff and report as 0;
# anything lower means a kernel bug.
NEGATIVE_VALUE_TOL = 1e-9

RELATIVE_ENTROPY = "relative_entropy"
L1 = "l1"
TSALLIS = "tsallis"
MEASURE_IDS = (RELATIVE_ENTROPY, L1, TSALLIS)


@dataclass(frozen=True)
class CoherenceResult:
    value: float
    measure_id: str
    alpha: float | None = None


@dataclass(frozen=True)
class IncoherenceReport:
    incoherent: bool
    max_defect: float
    tol: float


def _clamp_value(value: float, measure_id: str) -> float:
    if value < -NEGATIVE_VALUE_TOL:
        raise NumericError(f"{measure_id} evaluated to {value:.3e}, below -{NEGATIVE_VALUE_TOL:.1e}")
    if value < 0.0:
        import logging  # kept off the import path: only a clamp needs it

        logging.getLogger(__name__).debug("%s value %.3e clamped to 0 (roundoff)", measure_id, value)
        return 0.0
    return value + 0.0  # -0.0 + 0.0 is +0.0: an exact zero reports unsigned


# Measure values per (rho, POVM) pair, keyed weakly on rho and then on the POVM (both
# immutable), then on (measure id, alpha): the bounds certify themselves against
# C_l1, and the LSM identity and the uncertainty relation reuse C_T and C_r.
_MEMO = weakref.WeakKeyDictionary()


def _check_pair(rho: DensityMatrix, povm: Povm) -> None:
    require_type(rho, DensityMatrix, "rho")
    require_type(povm, Povm, "povm")
    require_same_dim(rho.dim, povm.dim)


def _memoised(rho: DensityMatrix, povm: Povm, key: tuple, evaluate) -> float:
    """The clamped value of evaluate(), computed once per (rho, povm, key)."""
    _check_pair(rho, povm)
    by_povm = _MEMO.get(rho)
    if by_povm is None:
        by_povm = _MEMO[rho] = weakref.WeakKeyDictionary()
    values = by_povm.setdefault(povm, {})
    if key not in values:
        values[key] = _clamp_value(evaluate(), key[0])
    return values[key]


def _factor(rho: DensityMatrix, povm: Povm, a: float) -> np.ndarray:
    """The (n, k, r) stack C_j v w^a from rho's support eigenpairs (w, v) and the element
    factors C_j = sqrt(s_j) u_j^dag of Povm.root_factors.  The orthonormal columns of v
    and u_j drop out of the norms and spectra taken from it: with Y = _factor(rho, povm,
    1/2), sqrt(E_j) rho sqrt(E_k) = u_j Y_j Y_k^dag u_k^dag."""
    _check_pair(rho, povm)
    w, v = rho.support
    return povm.root_factors[1] @ (v * w**a)


def relative_entropy_coherence(rho: DensityMatrix, povm: Povm) -> CoherenceResult:
    """Entropy gained by the unrecorded measurement transition.

    sqrt(E_j) rho sqrt(E_j) has the nonzero spectrum of Y_j Y_j^dag (k x k) and of
    Y_j^dag Y_j (r x r), whichever is smaller; S(rho) is the entropy of the support
    spectrum.
    """
    return CoherenceResult(_memoised(rho, povm, (RELATIVE_ENTROPY, None),
                                     lambda: _block_entropies(rho, povm)), RELATIVE_ENTROPY)


def _block_entropies(rho: DensityMatrix, povm: Povm) -> float:
    y = _factor(rho, povm, 0.5)
    yh = y.conj().swapaxes(-1, -2)
    blocks = linalg.stacked_psd_eigenvalues(y @ yh if y.shape[-2] <= y.shape[-1] else yh @ y)
    return float(np.sum(linalg.spectrum_entropy(blocks)) - linalg.spectrum_entropy(rho.support[0]))


def l1_coherence(rho: DensityMatrix, povm: Povm) -> CoherenceResult:
    """Total trace norm of the cross blocks sqrt(E_j) rho sqrt(E_k), j != k.

    ||sqrt(E_j) rho sqrt(E_k)||_tr = ||Y_j Y_k^dag||_tr, with Y_j k x r.  When r < k,
    the thin QR Y_j = Q_j R_j gives ||R_j R_k^dag||_tr instead, so every core is
    min(k, r) square: 1 x 1 for rank-one elements or a pure state.
    """
    return CoherenceResult(_memoised(rho, povm, (L1, None), lambda: _cross_block_trace_norms(rho, povm)), L1)


def _cross_block_trace_norms(rho: DensityMatrix, povm: Povm) -> float:
    y = _factor(rho, povm, 0.5)
    cores = np.linalg.qr(y, mode="r") if y.shape[-1] < y.shape[-2] else y
    n, a, b = cores.shape
    # the (k, j) block is the adjoint of the (j, k) block: same trace norm, so only
    # the pairs j < k are taken, in blocks of pairs (linalg.blocks) of one batched
    # SVD each.  numpy's SVD overlaps on two threads only from about 8192 complex
    # entries per call, so the blocks are as large as BLOCK_ENTRIES allows and run
    # on two threads (linalg.map_blocks); a single block starts no thread
    outcome = np.arange(n)
    j, k = np.nonzero(outcome[:, None] < outcome)

    def trace_norms(pairs: slice) -> float:
        products = cores[j[pairs]].conj() @ cores[k[pairs]].swapaxes(-1, -2)
        return float(linalg.stacked_singular_values(products).sum())

    return 2.0 * sum(linalg.map_blocks(trace_norms, linalg.blocks(len(j), a * a)))


def check_measure_id(measure_id: str, alpha=None) -> None:
    """ValidationError unless measure_id is a str among MEASURE_IDS, and when an alpha
    is given to a measure other than tsallis, which alone takes one."""
    if not isinstance(measure_id, str) or measure_id not in MEASURE_IDS:
        raise ValidationError(f"unknown measure id: {measure_id!r}")
    if alpha is not None and measure_id != TSALLIS:
        raise ValidationError(f"the {measure_id} measure takes no alpha, got {alpha!r}")


def check_alpha(alpha: float) -> float:
    alpha = as_float(alpha, AlphaOutOfRangeError, "alpha")
    if not (0.0 < alpha <= 2.0) or alpha == 1.0:
        raise AlphaOutOfRangeError(f"alpha must lie in (0,1) or (1,2], got {alpha}")
    return alpha


def tsallis_coherence(rho: DensityMatrix, povm: Povm, alpha: float) -> CoherenceResult:
    """Tsallis-type coherence of order alpha.

    Each block trace tr[(sqrt(E_j) rho^alpha sqrt(E_j))^(1/alpha)] is evaluated
    through the singular values of M_j = rho^(alpha/2) sqrt(E_j): the block is
    M_j^dagger M_j, so its 1/alpha power has trace sum_i sigma_i(M_j)^(2/alpha).
    Working on M_j instead of the formed block keeps eigenvalue roundoff from
    being amplified by the fractional outer power on rank-deficient states.
    At alpha = 1/2 the sum of sigma^4 is taken from Gram matrices, with no spectrum.
    """
    alpha = check_alpha(alpha)
    return CoherenceResult(_memoised(rho, povm, (TSALLIS, alpha),
                                     lambda: _tsallis_value(rho, povm, alpha)), TSALLIS, alpha)


def _tsallis_value(rho: DensityMatrix, povm: Povm, alpha: float) -> float:
    """sum_j sum_i sigma_i(M_j)^(2/alpha), with sigma(M_j) = sigma(C_j v w^(alpha/2)),
    k x r each: rho^(alpha/2) = v w^(alpha/2) v^dag.

    At alpha = 1/2 the sum is sum_j ||G_j||_F^2 of the smaller Gram matrix G_j of M_j,
    k x k C_j sqrt(rho) C_j^dag or r x r: the LSM success sum sum_j tr(sqrt(rho) E_j
    sqrt(rho) E_j), from one batched product and one dot of non-negative terms, with
    no spectrum.  Every other alpha takes the singular values.
    """
    m = _factor(rho, povm, alpha / 2.0)
    if alpha == 0.5:
        mh = m.conj().swapaxes(-1, -2)
        gram = (m @ mh if m.shape[-2] <= m.shape[-1] else mh @ m).reshape(-1).view(float)
        total = float(gram @ gram)
    else:
        total = float(np.sum(linalg.stacked_singular_values(m) ** (2.0 / alpha)))
    return (total - 1.0) / (alpha - 1.0)


def compute(rho: DensityMatrix, povm: Povm, measure_id: str, alpha: float | None = None) -> CoherenceResult:
    """Dispatch by measure id ('relative_entropy' | 'l1' | 'tsallis'); only tsallis takes alpha."""
    check_measure_id(measure_id, alpha)
    if measure_id == RELATIVE_ENTROPY:
        return relative_entropy_coherence(rho, povm)
    if measure_id == L1:
        return l1_coherence(rho, povm)
    if alpha is None:
        raise AlphaOutOfRangeError("tsallis measure requires alpha")
    return tsallis_coherence(rho, povm, alpha)


def is_povm_incoherent(rho: DensityMatrix, povm: Povm, tol: float = 1e-9) -> IncoherenceReport:
    """Check E_j rho E_k = 0 for all j != k; defect is the largest entry magnitude."""
    tol = as_float(tol, ValidationError, "tol")
    _check_pair(rho, povm)
    w, v = rho.support
    # E_j rho E_k = Y_j Y_k^dag with Y_j = E_j v sqrt(w), d x r
    y = povm.elements @ (v * np.sqrt(w))
    defect = 0.0
    for j in range(len(y) - 1):
        # E_k rho E_j is the adjoint of E_j rho E_k, and conj(Y_j) Y_k^T its conjugate:
        # all three have the same largest entry
        defect = max(defect, float(np.max(np.abs(y[j].conj() @ y[j + 1:].swapaxes(-1, -2)))))
    return IncoherenceReport(defect <= tol, defect, tol)


# The pure-state functions below act on the last axis: a (batch, d) stack of states
# gives (batch, n) probabilities, and those give one measure value per row.
def pure_state_probabilities(vec: np.ndarray, povm: Povm) -> np.ndarray:
    """Outcome weights <psi|E_j|psi> = ||C_j psi||^2, nonnegative by construction.

    For unit vectors these are the outcome probabilities; an unnormalised row g
    gives ||g||^2 times those of g / ||g||.
    """
    vec = np.asarray(vec, dtype=complex)
    require_same_dim(vec.shape[-1], povm.dim)
    n, k, d = povm.root_factors[1].shape
    # one (rows, d) x (d, n k) product per block of rows against the stacked factor
    # (linalg.blocks); its entries, read as real pairs, are squared in place and
    # summed in groups of 2k per outcome by one product with a 0/1 grouping matrix
    stacked = povm.root_factors[1].reshape(n * k, d).T
    group = np.repeat(np.eye(n), 2 * k, axis=0)
    p = np.empty(vec.shape[:-1] + (n,))
    rows, out = vec.reshape(-1, d), p.reshape(-1, n)
    for block in linalg.blocks(len(rows), n * k):
        y = (rows[block] @ stacked).view(float)
        np.matmul(np.square(y, out=y), group, out=out[block])
    return p


def pure_l1_coherence(p: np.ndarray) -> np.ndarray:
    """l1 measure of a pure state from its outcome probabilities: (sum sqrt p)^2 - sum p."""
    ones = np.ones(np.shape(p)[-1])
    return (np.sqrt(p) @ ones) ** 2 - p @ ones


def pure_relative_entropy_coherence(p: np.ndarray) -> np.ndarray:
    """Relative-entropy measure of a pure state: Shannon entropy of the outcome distribution."""
    return linalg.spectrum_entropy(p)


def pure_tsallis_coherence(p: np.ndarray, alpha: float) -> np.ndarray:
    """Tsallis measure of a pure state: [sum_j p_j^(1/alpha) - 1] / (alpha - 1)."""
    alpha = check_alpha(alpha)
    return (p ** (1.0 / alpha) @ np.ones(np.shape(p)[-1]) - 1.0) / (alpha - 1.0)
