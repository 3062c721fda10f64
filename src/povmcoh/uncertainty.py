"""Entropic-style uncertainty relation for coherence over two measurements.

For POVMs E, F with overlap constant c = max_{jk} ||sqrt(E_j) sqrt(F_k)||
(operator norm) and refined constant
c' = min( max_k ||sum_j E_j F_k E_j||, max_j ||sum_k F_k E_j F_k|| ):

    C_r(rho, E) + C_r(rho, F) >= 2 [ log2(1/c)  - S(rho) ]   (bound_c)
    C_r(rho, E) + C_r(rho, F) >=   log2(1/c') - 2 S(rho)     (bound_c_prime)

c' <= c^2 <= c, so the refined bound is never weaker.  For pure states the
left side is at least log2(1/c) with no entropy correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, measures
from .errors import ValidationError, as_float
from .objects import COMPLETENESS_TOL, DensityMatrix, Povm, require_same_dim, require_type


@dataclass(frozen=True)
class UncertaintyReport:
    lhs: float
    c: float
    c_prime: float
    bound_c: float
    bound_c_prime: float
    entropy_rho: float


def _check_povms(e: Povm, f: Povm) -> None:
    require_type(e, Povm, "e")
    require_type(f, Povm, "f")
    require_same_dim(e.dim, f.dim)


def overlap_constant(e: Povm, f: Povm) -> float:
    """c = max_{jk} ||sqrt(E_j) sqrt(F_k)||.

    sqrt(E_j) sqrt(F_k) = u_j C_j D_k^dag u'_k^dag with C, D the element factors of
    E and F, so each norm is that of the small core M = C_j D_k^dag: the square root
    of the largest eigenvalue of the smaller Gram matrix, M M^dag or M^dag M.  All
    n_e n_f Gram matrices take one batched eigenvalue call per block of E's outcomes
    (linalg.blocks).  c <= 1 for any POVMs, so roundoff above 1 reports as 1.
    """
    _check_povms(e, f)
    c, d_h = e.root_factors[1], f.root_factors[1].conj().swapaxes(-1, -2)
    n_f, _, k_f = d_h.shape
    largest = 0.0
    for rows in linalg.blocks(len(c), n_f * c.shape[1] * k_f):
        cores = c[rows, None] @ d_h
        cores_h = cores.conj().swapaxes(-1, -2)
        gram = cores @ cores_h if c.shape[1] <= k_f else cores_h @ cores
        largest = max(largest, float(np.max(linalg.stacked_psd_eigenvalues(gram)[..., -1])))
    return min(math.sqrt(largest), 1.0)


def refined_overlap_constant(e: Povm, f: Povm) -> float:
    """c' = min over the two sandwich directions of the largest sum norm, and 1."""
    _check_povms(e, f)
    return min(_largest_sandwich_norm(e.elements, f.elements),
               _largest_sandwich_norm(f.elements, e.elements), 1.0)


def _largest_sandwich_norm(outer: np.ndarray, inner: np.ndarray) -> float:
    """max_k ||sum_j A_j B_k A_j|| for element stacks A (outer) and B (inner).

    Each sum is Hermitian PSD, so its norm is its largest eigenvalue.  With
    tall = [A_1; ...; A_n], tall @ B_k stacks the A_j B_k, and laying those side
    by side, [A_1 B_k | ... | A_n B_k] @ tall is the whole sum in one product.
    """
    n, d = outer.shape[:2]
    tall = outer.reshape(n * d, d)
    largest = 0.0
    for ks in linalg.blocks(len(inner), n * d * d):
        wide = (tall @ inner[ks]).reshape(-1, n, d, d).swapaxes(1, 2).reshape(-1, d, n * d)
        sums = wide @ tall
        largest = max(largest, float(np.max(linalg.stacked_psd_eigenvalues(sums)[:, -1])))
    return largest


def uncertainty_report(rho: DensityMatrix, e: Povm, f: Povm) -> UncertaintyReport:
    """Evaluate both sides of the uncertainty relation for (rho, E, F)."""
    require_type(rho, DensityMatrix, "rho")
    require_type(e, Povm, "e")
    require_type(f, Povm, "f")
    require_same_dim(rho.dim, e.dim, f.dim)
    lhs = (
        measures.relative_entropy_coherence(rho, e).value
        + measures.relative_entropy_coherence(rho, f).value
    )
    c = overlap_constant(e, f)
    c_prime = refined_overlap_constant(e, f)
    # a pure state's S(rho) can read -6e-16 or -0.0 in roundoff: both report as +0.0
    entropy = max(0.0, float(linalg.spectrum_entropy(rho.support[0])))
    bound_c = 2.0 * (math.log2(1.0 / c) - entropy)
    bound_c_prime = math.log2(1.0 / c_prime) - 2.0 * entropy
    return UncertaintyReport(lhs, c, c_prime, bound_c, bound_c_prime, entropy)


def pure_state_bound(c: float) -> float:
    """State-independent floor log2(1/c) valid whenever rho is pure, for an overlap
    constant 0 < c <= 1.  A c computed elsewhere can exceed 1 by completeness
    roundoff: up to 1 + COMPLETENESS_TOL it counts as c = 1."""
    c = as_float(c, ValidationError, "c")
    if not 0.0 < c <= 1.0 + COMPLETENESS_TOL:
        raise ValidationError(f"overlap constant c must lie in (0, 1], got {c}")
    return math.log2(1.0 / min(c, 1.0))
