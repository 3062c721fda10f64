"""Least-squares measurement (pretty-good measurement) and its coherence link.

A state/POVM pair induces an ensemble via steering (eta_j = tr(rho E_j),
rho_j = sqrt(rho) E_j sqrt(rho) / eta_j); conversely a full-rank ensemble
induces a state/POVM pair.  The LSM discrimination error of the induced
ensemble equals half the Tsallis(1/2) coherence of the pair — checked by
`discrimination_identity_check` and exercised heavily in the test suite.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg, measures
from .errors import DegenerateEnsembleError
from .objects import DensityMatrix, Ensemble, Povm, require_same_dim

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

    The operators form a POVM on the support of the average state; when that
    support is the whole space (support_restricted False) they are a genuine
    POVM.  completeness_defect measures max|sum_j M_j - P_support|.
    """

    ensemble: Ensemble
    operators: tuple
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
    lhs: float
    rhs: float
    defect: float


def ensemble_from_measurement(rho: DensityMatrix, povm: Povm) -> Ensemble:
    """Steered ensemble of a state/POVM pair.

    Outcomes with weight <= WEIGHT_DROP_TOL never occur and are dropped; the
    remaining weights are renormalized (total dropped mass <= n * 1e-14).
    """
    require_same_dim(rho.dim, povm.dim)
    root = linalg.sqrt_psd(rho.mat)
    states, weights = [], []
    for e in povm.elements:
        block = linalg.hermitian_part(root @ e @ root)
        eta = float(np.real(np.trace(block)))
        if eta <= WEIGHT_DROP_TOL:
            continue
        states.append(DensityMatrix(block / eta))
        weights.append(eta)
    weights = np.asarray(weights, dtype=float)
    return Ensemble(states, weights / weights.sum())


def _mixture_support(rho_out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Support eigenpairs of an ensemble's average state; rejects a zero mixture."""
    w, v = linalg.support_eigenpairs(rho_out, KERNEL_RTOL)
    if w.size == 0 or float(w[0]) <= DEGENERATE_TOL:
        raise DegenerateEnsembleError("ensemble average state is numerically zero")
    return w, v


def build_lsm(ensemble: Ensemble) -> LsmInstance:
    """LSM operators M_j = eta_j W rho_j W, W the inverse square root of the
    average state on its support, and the discrimination error probability."""
    rho_out = ensemble.average_state()
    w, v = _mixture_support(rho_out)
    rank = w.size
    w_inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    projector = v @ v.conj().T

    operators = []
    success = 0.0
    for eta, member in zip(ensemble.weights, ensemble.states):
        m = linalg.hermitian_part(eta * (w_inv_sqrt @ member.mat @ w_inv_sqrt))
        operators.append(m)
        success += float(eta) * float(np.real(np.trace(m @ member.mat)))
    error = 1.0 - success
    if -1e-10 <= error < 0.0:
        error = 0.0
    defect = float(np.max(np.abs(sum(operators) - projector)))
    return LsmInstance(
        ensemble=ensemble,
        operators=tuple(operators),
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
    rho_out = ensemble.average_state()
    w, v = _mixture_support(rho_out)
    if w.size == ensemble.dim and float(w[-1]) > FULL_RANK_TOL:
        basis, inv_root = None, (v / np.sqrt(w)) @ v.conj().T
    else:
        # restricted to the support, written in the eigenbasis of the mixture
        basis, inv_root = v, np.diag(1.0 / np.sqrt(w))
        rho_out = linalg.hermitian_part(basis.conj().T @ rho_out @ basis)
    elements = []
    for eta, member in zip(ensemble.weights, ensemble.states):
        mat = member.mat if basis is None else basis.conj().T @ member.mat @ basis
        elements.append(linalg.hermitian_part(eta * (inv_root @ mat @ inv_root)))
    return StatePovmResult(
        state=DensityMatrix(rho_out),
        povm=Povm(elements),
        support_restricted=basis is not None,
        support_basis=basis,
    )


def discrimination_identity_check(rho: DensityMatrix, povm: Povm) -> IdentityCheck:
    """Tsallis(1/2) coherence against twice the LSM error of the steered ensemble."""
    lhs = measures.tsallis_coherence(rho, povm, 0.5).value
    instance = build_lsm(ensemble_from_measurement(rho, povm))
    rhs = 2.0 * instance.error_probability
    return IdentityCheck(lhs, rhs, abs(lhs - rhs))
