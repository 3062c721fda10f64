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
from .objects import DensityMatrix, Povm, require_same_dim


@dataclass(frozen=True)
class UncertaintyReport:
    lhs: float
    c: float
    c_prime: float
    bound_c: float
    bound_c_prime: float
    entropy_rho: float


def overlap_constant(e: Povm, f: Povm) -> float:
    """c = max_{jk} ||sqrt(E_j) sqrt(F_k)||.

    sqrt(E_j) sqrt(F_k) = u_j C_j D_k^dag u'_k^dag with C, D the element factors of
    E and F, so each norm is that of the small core C_j D_k^dag.
    """
    require_same_dim(e.dim, f.dim)
    d_h = f.root_factors[1].conj().swapaxes(-1, -2)
    return max(
        float(np.max(linalg.stacked_singular_values(c @ d_h)[:, 0]))
        for c in e.root_factors[1]
    )


def refined_overlap_constant(e: Povm, f: Povm) -> float:
    """c' = min over the two sandwich directions of the largest sum norm."""
    require_same_dim(e.dim, f.dim)
    es, fs = e.elements, f.elements
    first = max(linalg.operator_norm(np.sum(es @ fk @ es, axis=0)) for fk in fs)
    second = max(linalg.operator_norm(np.sum(fs @ ej @ fs, axis=0)) for ej in es)
    return min(first, second)


def uncertainty_report(rho: DensityMatrix, e: Povm, f: Povm) -> UncertaintyReport:
    """Evaluate both sides of the uncertainty relation for (rho, E, F)."""
    require_same_dim(rho.dim, e.dim, f.dim)
    lhs = (
        measures.relative_entropy_coherence(rho, e).value
        + measures.relative_entropy_coherence(rho, f).value
    )
    c = overlap_constant(e, f)
    c_prime = refined_overlap_constant(e, f)
    entropy = float(linalg.spectrum_entropy(rho.support[0]))
    bound_c = 2.0 * (math.log2(1.0 / c) - entropy)
    bound_c_prime = math.log2(1.0 / c_prime) - 2.0 * entropy
    return UncertaintyReport(lhs, c, c_prime, bound_c, bound_c_prime, entropy)


def pure_state_bound(c: float) -> float:
    """State-independent floor log2(1/c) valid whenever rho is pure."""
    return math.log2(1.0 / c)
