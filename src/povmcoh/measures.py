"""Coherence of a state with respect to a general measurement.

Three measures over (rho, POVM):

* relative entropy:  sum_j S(sqrt(E_j) rho sqrt(E_j)) - S(rho), base-2 logs
* l1:                sum_{j != k} || sqrt(E_j) rho sqrt(E_k) ||_tr
* Tsallis (order alpha in (0,1) U (1,2]):
                     [ sum_j tr (sqrt(E_j) rho^alpha sqrt(E_j))^(1/alpha) - 1 ] / (alpha - 1)

All three vanish exactly on measurement-incoherent states (E_j rho E_k = 0 for
all j != k) and are invariant under relabeling of outcomes.
"""

import logging
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import AlphaOutOfRangeError, NumericError
from .objects import DensityMatrix, Povm, require_same_dim

logger = logging.getLogger(__name__)

# Measure values in [-NEGATIVE_VALUE_TOL, 0) are roundoff and report as 0;
# anything lower means a kernel bug.
NEGATIVE_VALUE_TOL = 1e-9

RELATIVE_ENTROPY = "relative_entropy"
L1 = "l1"
TSALLIS = "tsallis"


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
        logger.debug("%s value %.3e clamped to 0 (roundoff)", measure_id, value)
        return 0.0
    return value


def relative_entropy_coherence(rho: DensityMatrix, povm: Povm) -> CoherenceResult:
    """Entropy gained by the unrecorded measurement transition."""
    require_same_dim(rho.dim, povm.dim)
    total = 0.0
    for root in povm.sqrt_elements:
        total += linalg.entropy_psd(root @ rho.mat @ root)
    value = total - linalg.entropy_psd(rho.mat)
    return CoherenceResult(_clamp_value(value, RELATIVE_ENTROPY), RELATIVE_ENTROPY)


def l1_coherence(rho: DensityMatrix, povm: Povm) -> CoherenceResult:
    """Total trace norm of the cross blocks sqrt(E_j) rho sqrt(E_k), j != k."""
    require_same_dim(rho.dim, povm.dim)
    roots = povm.sqrt_elements
    total = 0.0
    for j in range(len(roots)):
        left = roots[j] @ rho.mat
        for k in range(j + 1, len(roots)):
            # the (k, j) block is the adjoint of the (j, k) block: same trace norm
            total += 2.0 * linalg.trace_norm(left @ roots[k])
    return CoherenceResult(_clamp_value(total, L1), L1)


def check_alpha(alpha: float) -> float:
    alpha = float(alpha)
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
    """
    alpha = check_alpha(alpha)
    require_same_dim(rho.dim, povm.dim)
    rho_half_a = linalg.power_psd(rho.mat, alpha / 2.0, kernel_rtol=1e-13)
    total = 0.0
    for root in povm.sqrt_elements:
        sigma = linalg.singular_values(rho_half_a @ root)
        total += float(np.sum(sigma ** (2.0 / alpha)))
    value = (total - 1.0) / (alpha - 1.0)
    return CoherenceResult(_clamp_value(value, TSALLIS), TSALLIS, alpha)


def compute(rho: DensityMatrix, povm: Povm, measure_id: str, alpha: float | None = None) -> CoherenceResult:
    """Dispatch by measure id ('relative_entropy' | 'l1' | 'tsallis')."""
    if measure_id == RELATIVE_ENTROPY:
        return relative_entropy_coherence(rho, povm)
    if measure_id == L1:
        return l1_coherence(rho, povm)
    if measure_id == TSALLIS:
        if alpha is None:
            raise AlphaOutOfRangeError("tsallis measure requires alpha")
        return tsallis_coherence(rho, povm, alpha)
    raise AlphaOutOfRangeError(f"unknown measure id: {measure_id!r}")


def is_povm_incoherent(rho: DensityMatrix, povm: Povm, tol: float = 1e-9) -> IncoherenceReport:
    """Check E_j rho E_k = 0 for all j != k; defect is the largest entry magnitude."""
    require_same_dim(rho.dim, povm.dim)
    defect = 0.0
    n = povm.outcomes
    for j in range(n):
        left = povm.elements[j] @ rho.mat
        for k in range(n):
            if j == k:
                continue
            defect = max(defect, float(np.max(np.abs(left @ povm.elements[k]))))
    return IncoherenceReport(defect <= tol, defect, tol)


# The pure-state functions below act on the last axis: a (batch, d) stack of states
# gives (batch, n) probabilities, and those give one measure value per row.
def pure_state_probabilities(vec: np.ndarray, povm: Povm) -> np.ndarray:
    """Outcome probabilities <psi|E_j|psi> of a pure state, clipped at 0."""
    vec = np.asarray(vec, dtype=complex)
    require_same_dim(vec.shape[-1], povm.dim)
    p = np.einsum("...i,kij,...j->...k", vec.conj(), np.array(povm.elements), vec).real
    return np.clip(p, 0.0, None)


def pure_l1_coherence(p: np.ndarray) -> float:
    """l1 measure of a pure state from its outcome probabilities: (sum sqrt p)^2 - sum p."""
    r = np.sqrt(p)
    return np.sum(r, axis=-1) ** 2 - np.sum(p, axis=-1)


def pure_relative_entropy_coherence(p: np.ndarray) -> float:
    """Relative-entropy measure of a pure state: Shannon entropy of the outcome distribution."""
    pos = p > 0.0
    return -np.sum(np.where(pos, p * np.log2(np.where(pos, p, 1.0)), 0.0), axis=-1)


def pure_tsallis_coherence(p: np.ndarray, alpha: float) -> float:
    """Tsallis measure of a pure state: [sum_j p_j^(1/alpha) - 1] / (alpha - 1)."""
    alpha = check_alpha(alpha)
    return (np.sum(p ** (1.0 / alpha), axis=-1) - 1.0) / (alpha - 1.0)
