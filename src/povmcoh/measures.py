"""Coherence of a state with respect to a general measurement.

Three measures over (rho, POVM):

* relative entropy:  sum_j S(sqrt(E_j) rho sqrt(E_j)) - S(rho), base-2 logs
* l1:                sum_{j != k} || sqrt(E_j) rho sqrt(E_k) ||_tr
* Tsallis (order alpha in [1e-4, 0.9999] U [1.0001, 2], see check_alpha):
                     [ sum_j tr (sqrt(E_j) rho^alpha sqrt(E_j))^(1/alpha) - 1 ] / (alpha - 1)

All three vanish exactly on measurement-incoherent states (E_j rho E_k = 0 for
all j != k) and are invariant under relabeling of outcomes.
"""

from __future__ import annotations

import math
import sys
import weakref

import numpy as np

from . import linalg
from .errors import AlphaOutOfRangeError, NumericError, ValidationError, as_float, as_tolerance, shown
from .objects import DensityMatrix, Povm, _Record, _set, require_same_dim, require_type

# Measure values in [-NEGATIVE_VALUE_TOL, 0) are roundoff and report as 0;
# anything lower means a kernel bug.
NEGATIVE_VALUE_TOL = 1e-9

# Tsallis orders nearer 1 than ALPHA_GAP lose digits in (total - 1) / (alpha - 1), about
# 1e-2 relative at |alpha - 1| = 1e-12, and below ALPHA_MIN the values of rank-one
# projective POVMs drift, by half at 1e-14; at the edges the worst error seen against
# the 50-digit definition is 1.1e-10.  ALPHA_MIN is also the exact Haar averages'
# floor: haar.MAX_BETA = 1 / ALPHA_MIN.
ALPHA_MIN = 1e-4
ALPHA_GAP = 1e-4

RELATIVE_ENTROPY = "relative_entropy"
L1 = "l1"
TSALLIS = "tsallis"
MEASURE_IDS = (RELATIVE_ENTROPY, L1, TSALLIS)


class CoherenceResult(_Record):
    _fields = ("value", "measure_id", "alpha")

    def __init__(self, value: float, measure_id: str, alpha: float | None = None):
        _set(self, "value", value)
        _set(self, "measure_id", measure_id)
        _set(self, "alpha", alpha)


class IncoherenceReport(_Record):
    _fields = ("incoherent", "max_defect", "tol")

    def __init__(self, incoherent: bool, max_defect: float, tol: float):
        _set(self, "incoherent", incoherent)
        _set(self, "max_defect", max_defect)
        _set(self, "tol", tol)


def _clamp_value(value: float, measure_id: str) -> float:
    if not math.isfinite(value):  # NaN or inf out of a kernel is a fault, and not a JSON number
        raise NumericError(f"{measure_id} evaluated to {value}, which is not finite")
    if value < -NEGATIVE_VALUE_TOL:
        raise NumericError(f"{measure_id} evaluated to {value:.3e}, below -{NEGATIVE_VALUE_TOL:.1e}")
    if value < 0.0:
        # until a caller imports logging, no handler or level exists that takes a debug
        # record, so the module is not loaded for one: a pure state's S(rho) clamps often
        logging = sys.modules.get("logging")
        if logging is not None:
            logging.getLogger(__name__).debug("%s value %.3e clamped to 0 (roundoff)", measure_id, value)
        return 0.0
    return value + 0.0  # -0.0 + 0.0 is +0.0: an exact zero reports unsigned


# Measure values per (rho, POVM) pair, keyed weakly on rho and then on the POVM (both
# immutable), then on (measure id, *its extra arguments), by compute: the bounds certify
# themselves against C_l1, and the LSM identity and the uncertainty relation reuse C_T and C_r.
_MEMO = weakref.WeakKeyDictionary()


# The kernels below take the support eigenpairs (w, v) of states against one POVM and
# return one value per state: of one state, w (r,) and v (d, r), or of a stack of m states
# along a leading axis, w (m, r) and v (m, d, r), padded to one rank r with zero
# eigenvalues and zero columns (objects._check_states).  The single-state functions
# call them on rho.support (_one_state): the case m = 1 without the axis, which spares
# one state the per-call cost of numpy on a length-1 axis (about 3% of a pair-report
# op).  A state's row in a stack of one rank has the bits of its single-state value.
def _one_state(rho: DensityMatrix, povm: Povm) -> tuple[np.ndarray, np.ndarray]:
    """rho.support, the kernels' argument for one state, after the pair check."""
    require_type(rho, DensityMatrix, "rho")
    require_type(povm, Povm, "povm")
    require_same_dim(rho.dim, povm.dim)
    return rho.support


def _outcome_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (j, k) of the outcome pairs j < k in row-major order."""
    index = np.arange(n)
    return np.nonzero(index[:, None] < index)


def _factor(support: tuple, povm: Povm, a: float) -> np.ndarray:
    """The (..., n, k, r) stack C_j v w^a from each state's support eigenpairs (w, v) and
    the element factors C_j = sqrt(s_j) u_j^dag of Povm.root_factors.  The orthonormal
    columns of v and u_j drop out of the norms and spectra taken from it: with
    Y = _factor(support, povm, 1/2), sqrt(E_j) rho sqrt(E_k) = u_j Y_j Y_k^dag u_k^dag."""
    w, v = support
    x = v * w[..., None, :] ** a
    return povm.root_factors[1] @ (x if x.ndim == 2 else x[:, None])  # a stack: one axis for the outcomes


def relative_entropy_coherence(rho: DensityMatrix, povm: Povm) -> CoherenceResult:
    """Entropy gained by the unrecorded measurement transition.

    sqrt(E_j) rho sqrt(E_j) has the nonzero spectrum of Y_j Y_j^dag (k x k) and of
    Y_j^dag Y_j (r x r), whichever is smaller; S(rho) is the entropy of the support
    spectrum.
    """
    return compute(rho, povm, RELATIVE_ENTROPY)


def _block_entropies(support: tuple, povm: Povm) -> np.ndarray:
    blocks = linalg.stacked_psd_eigenvalues(linalg.smaller_gram(_factor(support, povm, 0.5)))
    return np.sum(linalg.spectrum_entropy(blocks), axis=-1) - linalg.spectrum_entropy(support[0])


def l1_coherence(rho: DensityMatrix, povm: Povm) -> CoherenceResult:
    """Total trace norm of the cross blocks sqrt(E_j) rho sqrt(E_k), j != k.

    ||sqrt(E_j) rho sqrt(E_k)||_tr = ||Y_j Y_k^dag||_tr, with Y_j k x r.  A pure state
    (r = 1) gives t_j t_k with t_j = ||Y_j||, and rank-one elements (k = 1) give |G_jk|,
    an entry of the Gram matrix of the rows Y_j.  Otherwise, when r < k, the thin QR
    Y_j = Q_j R_j gives ||R_j R_k^dag||_tr instead, so every core is min(k, r) square,
    and a 2 x 2 core takes the closed form of linalg.stacked_trace_norms, no SVD.
    """
    return compute(rho, povm, L1)


def _cross_block_trace_norms(support: tuple, povm: Povm) -> np.ndarray:
    y = _factor(support, povm, 0.5)
    *states, n, rank, r = y.shape  # rank: the largest element rank, k
    # the (k, j) block is the adjoint of the (j, k) block: same trace norm, so only
    # the pairs j < k are taken, each as a positive term: no total less its diagonal
    if r == 1:  # 2 sum_k t_k sum_{j<k} t_j, from prefix sums
        t = linalg.stacked_trace_norms(y)
        return 2.0 * linalg.row_dots(t[..., 1:], np.cumsum(t, axis=-1)[..., :-1])
    j, k = _outcome_pairs(n)
    if rank == 1:  # the entries j < k of the Gram matrix of the rows, gathered C-contiguous
        # so that a sum adds each state's entries in one order, alone or in a stack
        rows = y[..., 0, :]
        gram = (rows.conj() @ rows.swapaxes(-1, -2)).reshape(*states, n * n)
        return 2.0 * np.abs(np.take(gram, j * n + k, axis=-1)).sum(axis=-1)
    cores = np.linalg.qr(y, mode="r") if r < rank else y
    a = cores.shape[-2]
    # min(k, r) square products, in blocks of pairs (linalg.blocks, sized for two
    # threads) of one batched product each, on two threads (linalg.map_blocks); a
    # 2 x 2 product takes the closed form, a wider one the SVD

    def trace_norms(pairs: slice) -> np.ndarray:
        products = np.take(cores, j[pairs], axis=-3).conj() @ np.take(cores, k[pairs], axis=-3).swapaxes(-1, -2)
        return linalg.stacked_trace_norms(products).sum(axis=-1)

    parts = linalg.map_blocks(trace_norms, linalg.blocks(len(j), math.prod(states) * a * a))
    return 2.0 * sum(parts) if parts else np.zeros(states)


def check_measure_id(measure_id: str, alpha=None) -> tuple:
    """The measure's extra arguments to its kernels: (alpha,), checked, for tsallis,
    which alone takes one, and () for the others.  ValidationError unless measure_id
    is a str among MEASURE_IDS, and when an alpha is given to another measure."""
    if not isinstance(measure_id, str) or measure_id not in MEASURE_IDS:
        raise ValidationError(f"unknown measure id: {shown(measure_id)}")
    if measure_id == TSALLIS:
        return (check_alpha(alpha),)
    if alpha is not None:
        raise ValidationError(f"the {measure_id} measure takes no alpha, got {shown(alpha)}")
    return ()


def check_alpha(alpha: float) -> float:
    """alpha as a float, in [ALPHA_MIN, 1 - ALPHA_GAP] or [1 + ALPHA_GAP, 2]: the one
    order rule of every Tsallis entry point."""
    alpha = as_float(alpha, AlphaOutOfRangeError, "alpha")
    if not (ALPHA_MIN <= alpha <= 2.0) or 1.0 - ALPHA_GAP < alpha < 1.0 + ALPHA_GAP:
        raise AlphaOutOfRangeError(
            f"alpha must lie in [{ALPHA_MIN:g}, {1.0 - ALPHA_GAP:g}] or [{1.0 + ALPHA_GAP:g}, 2], got {alpha}")
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
    return compute(rho, povm, TSALLIS, alpha)


def _tsallis_value(support: tuple, povm: Povm, alpha: float) -> np.ndarray:
    """sum_j sum_i sigma_i(M_j)^(2/alpha), with sigma(M_j) = sigma(C_j v w^(alpha/2)),
    k x r each: rho^(alpha/2) = v w^(alpha/2) v^dag.

    At alpha = 1/2 the sum is sum_j ||G_j||_F^2 of the smaller Gram matrix G_j of M_j,
    k x k C_j sqrt(rho) C_j^dag or r x r: the LSM success sum sum_j tr(sqrt(rho) E_j
    sqrt(rho) E_j), from one batched product and one dot of non-negative terms per
    state, with no spectrum.  At alpha = 2 the power 2/alpha is 1, so the sum is
    sum_j ||M_j||_tr (linalg.stacked_trace_norms: no SVD for min(k, r) <= 2).  Every
    other alpha takes the singular values.  Returns the Tsallis value of each state,
    unclamped.
    """
    m = _factor(support, povm, alpha / 2.0)
    if alpha == 0.5:
        gram = linalg.smaller_gram(m).reshape(m.shape[:-3] + (-1,)).view(float)
        total = linalg.row_dots(gram, gram)
    elif alpha == 2.0:
        total = np.sum(linalg.stacked_trace_norms(m), axis=-1)
    else:
        total = np.sum(linalg.stacked_singular_values(m) ** (2.0 / alpha), axis=(-2, -1))
    return (total - 1.0) / (alpha - 1.0)


def compute(rho: DensityMatrix, povm: Povm, measure_id: str, alpha: float | None = None) -> CoherenceResult:
    """A measure's value by id ('relative_entropy' | 'l1' | 'tsallis'); only tsallis takes alpha.
    Its kernel in _MEASURES runs once per (rho, povm, id, alpha), clamped; then _MEMO has it."""
    args = check_measure_id(measure_id, alpha)
    support = _one_state(rho, povm)
    by_povm = _MEMO.get(rho)
    if by_povm is None:
        by_povm = _MEMO[rho] = weakref.WeakKeyDictionary()
    values = by_povm.setdefault(povm, {})
    key = (measure_id, *args)
    if key not in values:
        values[key] = _clamp_value(float(_MEASURES[measure_id][0](support, povm, *args)), measure_id)
    return CoherenceResult(values[key], measure_id, *args)


def is_povm_incoherent(rho: DensityMatrix, povm: Povm, tol: float = 1e-9) -> IncoherenceReport:
    """Check E_j rho E_k = 0 for all j != k; defect is the largest entry magnitude."""
    tol = as_tolerance(tol)
    w, v = _one_state(rho, povm)
    # E_j rho E_k = Y_j Y_k^dag with Y_j = E_j v sqrt(w), d x r.  E_k rho E_j is the
    # adjoint of E_j rho E_k, and conj(Y_j) Y_k^T its conjugate: all three have the
    # same largest entry, so only the pairs j < k are taken, in blocks of pairs
    # (linalg.blocks) of one batched product each
    y = povm.elements @ (v * np.sqrt(w))
    j, k = _outcome_pairs(len(y))
    defect = max((float(np.max(np.abs(y[j[pairs]].conj() @ y[k[pairs]].swapaxes(-1, -2))))
                  for pairs in linalg.blocks(len(j), povm.dim ** 2)), default=0.0)
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


# measure id -> (kernel on supports, pure-state form), called with check_measure_id's extra arguments
_MEASURES = {
    RELATIVE_ENTROPY: (_block_entropies, pure_relative_entropy_coherence),
    L1: (_cross_block_trace_norms, pure_l1_coherence),
    TSALLIS: (_tsallis_value, pure_tsallis_coherence),
}
