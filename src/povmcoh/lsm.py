"""Least-squares measurement (pretty-good measurement) and its coherence link.

A state/POVM pair induces an ensemble via steering (eta_j = tr(rho E_j),
rho_j = sqrt(rho) E_j sqrt(rho) / eta_j); conversely a full-rank ensemble
induces a state/POVM pair.  The LSM discrimination error of the induced
ensemble equals half the Tsallis(1/2) coherence of the pair — checked by
`discrimination_identity_check` and exercised heavily in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg, measures
from .errors import DegenerateEnsembleError
from .objects import DensityMatrix, Ensemble, Povm, require_type

# Members steered with weight at or below this are dropped.
WEIGHT_DROP_TOL = 1e-14
# Relative eigenvalue threshold below which rho_out directions count as kernel.
KERNEL_RTOL = 1e-12
# Absolute floor: rho_out with no eigenvalue above this is unusable.
DEGENERATE_TOL = 1e-14
# Full-rank gate for the ensemble -> (state, POVM) direction.
FULL_RANK_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class LsmInstance:
    """LSM operators for an ensemble, with the discrimination error.

    The operators, one read-only (m, d, d) array, form a POVM on the support of
    the average state; when that support is the whole space (support_restricted
    False) they are a genuine POVM.  completeness_defect measures
    max|sum_j M_j - P_support|.
    """

    ensemble: Ensemble
    operators: np.ndarray
    error_probability: float
    support_rank: int
    support_projector: np.ndarray
    support_restricted: bool
    completeness_defect: float


@dataclass(frozen=True, eq=False)
class StatePovmResult:
    """Ensemble converted back to a (state, POVM) pair.

    When the mixture is rank-deficient everything is restricted to its support
    (support_restricted True); support_basis holds the d x r isometry mapping
    the restricted space back into the original one.
    """

    state: DensityMatrix
    povm: Povm
    support_restricted: bool
    support_basis: np.ndarray | None = None


@dataclass(frozen=True)
class IdentityCheck:
    """C_{T,1/2}(rho, E) = lhs against rhs = 2 P_err, with the LSM instance of the
    steered ensemble that gave P_err."""

    lhs: float
    rhs: float
    defect: float
    instance: LsmInstance = field(repr=False, compare=False)


def ensemble_from_measurement(rho: DensityMatrix, povm: Povm) -> Ensemble:
    """Steered ensemble of a state/POVM pair.

    Outcomes with weight <= WEIGHT_DROP_TOL never occur and are dropped; the
    remaining weights are renormalized (total dropped mass <= n * 1e-14).
    """
    measures._check_pair(rho, povm)
    w, v = rho.support
    root = (v * np.sqrt(w)) @ v.conj().T
    blocks = linalg.hermitian_part(root @ povm.elements @ root)
    etas = np.real(np.trace(blocks, axis1=1, axis2=2))
    keep = etas > WEIGHT_DROP_TOL
    weights = etas[keep]
    return Ensemble(blocks[keep] / weights[:, None, None], weights / weights.sum())


def _mixture_support(rho_out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Support eigenpairs of an ensemble's average state; rejects a zero mixture."""
    w, v = linalg.support_eigenpairs(rho_out, KERNEL_RTOL)
    if w.size == 0 or float(w[0]) <= DEGENERATE_TOL:
        raise DegenerateEnsembleError("ensemble average state is numerically zero")
    return w, v


def _sandwiches(weights: np.ndarray, stack: np.ndarray, inv_root: np.ndarray) -> np.ndarray:
    """eta_j inv_root rho_j inv_root for every member of an (m, d, d) stack, symmetrized."""
    return linalg.hermitian_part(weights[:, None, None] * (inv_root @ stack @ inv_root))


def build_lsm(ensemble: Ensemble) -> LsmInstance:
    """LSM operators M_j = eta_j W rho_j W, W the inverse square root of the
    average state on its support, and the discrimination error probability."""
    eta, stack = require_type(ensemble, Ensemble, "ensemble").weights, ensemble.stack
    w, v = _mixture_support(ensemble.average_state())
    rank = w.size
    projector = v @ v.conj().T
    operators = _sandwiches(eta, stack, (v / np.sqrt(w)) @ v.conj().T)
    # success = sum_j eta_j tr(M_j rho_j), each trace as an elementwise product sum
    success = float(eta @ np.einsum("jab,jba->j", operators, stack).real)
    error = 1.0 - success
    if -1e-10 <= error < 0.0:
        error = 0.0
    defect = float(np.max(np.abs(operators.sum(axis=0) - projector)))
    operators.flags.writeable = False
    return LsmInstance(
        ensemble=ensemble,
        operators=operators,
        error_probability=error,
        support_rank=rank,
        support_projector=projector,
        support_restricted=rank < ensemble.dim,
        completeness_defect=defect,
    )


def measurement_from_ensemble(ensemble: Ensemble) -> StatePovmResult:
    """Invert the steering map: E_j = eta_j rho^(-1/2) rho_j rho^(-1/2).

    With a full-rank mixture (min eigenvalue > FULL_RANK_TOL) this returns the
    pair on the original space; otherwise all operators are restricted to the
    support of the mixture and the result is flagged.
    """
    rho_out = require_type(ensemble, Ensemble, "ensemble").average_state()
    w, v = _mixture_support(rho_out)
    stack = ensemble.stack
    if w.size == ensemble.dim and float(w[-1]) > FULL_RANK_TOL:
        basis, inv_root = None, (v / np.sqrt(w)) @ v.conj().T
    else:
        # restricted to the support, written in the eigenbasis of the mixture
        basis, inv_root = v, np.diag(1.0 / np.sqrt(w))
        rho_out = linalg.hermitian_part(basis.conj().T @ rho_out @ basis)
        stack = basis.conj().T @ stack @ basis
    return StatePovmResult(
        state=DensityMatrix(rho_out),
        povm=Povm(_sandwiches(ensemble.weights, stack, inv_root)),
        support_restricted=basis is not None,
        support_basis=basis,
    )


def discrimination_identity_check(rho: DensityMatrix, povm: Povm) -> IdentityCheck:
    """Tsallis(1/2) coherence against twice the LSM error of the steered ensemble."""
    lhs = measures.tsallis_coherence(rho, povm, 0.5).value
    instance = build_lsm(ensemble_from_measurement(rho, povm))
    rhs = 2.0 * instance.error_probability
    return IdentityCheck(lhs, rhs, abs(lhs - rhs), instance)
