"""Least-squares measurement (pretty-good measurement) and its coherence link.

A state/POVM pair induces an ensemble via steering (eta_j = tr(rho E_j),
rho_j = sqrt(rho) E_j sqrt(rho) / eta_j); conversely a full-rank ensemble
induces a state/POVM pair.  The LSM discrimination error of the induced
ensemble equals half the Tsallis(1/2) coherence of the pair — checked by
`discrimination_identity_check` and exercised heavily in the test suite.
"""

from __future__ import annotations

import numpy as np

from . import linalg, measures
from .errors import DegenerateEnsembleError
from .objects import DensityMatrix, Ensemble, Povm, _Frozen, _Record, _set, require_type

# Members steered with weight at or below this are dropped.
WEIGHT_DROP_TOL = 1e-14
# Relative eigenvalue threshold below which rho_out directions count as kernel.
KERNEL_RTOL = 1e-12
# Absolute floor: rho_out with no eigenvalue above this is unusable.
DEGENERATE_TOL = 1e-14
# Full-rank gate for the ensemble -> (state, POVM) direction.
FULL_RANK_TOL = 1e-10


class LsmInstance(_Frozen):
    """LSM operators for an ensemble, with the discrimination error.

    The operators, one read-only (m, d, d) array, form a POVM on the support of
    the average state; when that support is the whole space they are a genuine
    POVM.  support_restricted is _average_support's flag, the one that
    measurement_from_ensemble reports.  completeness_defect measures
    max|sum_j M_j - P_support|.
    """

    _fields = ("ensemble", "operators", "error_probability", "support_rank", "support_projector",
               "support_restricted", "completeness_defect")

    def __init__(self, ensemble: Ensemble, operators: np.ndarray, error_probability: float,
                 support_rank: int, support_projector: np.ndarray, support_restricted: bool,
                 completeness_defect: float):
        _set(self, "ensemble", ensemble)
        _set(self, "operators", operators)
        _set(self, "error_probability", error_probability)
        _set(self, "support_rank", support_rank)
        _set(self, "support_projector", support_projector)
        _set(self, "support_restricted", support_restricted)
        _set(self, "completeness_defect", completeness_defect)


class StatePovmResult(_Frozen):
    """Ensemble converted back to a (state, POVM) pair.

    When the mixture is rank-deficient everything is restricted to its support
    (support_restricted True); support_basis holds the d x r isometry mapping
    the restricted space back into the original one.
    """

    _fields = ("state", "povm", "support_restricted", "support_basis")

    def __init__(self, state: DensityMatrix, povm: Povm, support_restricted: bool,
                 support_basis: np.ndarray | None = None):
        _set(self, "state", state)
        _set(self, "povm", povm)
        _set(self, "support_restricted", support_restricted)
        _set(self, "support_basis", support_basis)


class IdentityCheck(_Record):
    """C_{T,1/2}(rho, E) = lhs against rhs = 2 P_err, with the LSM instance of the
    steered ensemble that gave P_err, which repr and equality leave out."""

    _fields = ("lhs", "rhs", "defect")

    def __init__(self, lhs: float, rhs: float, defect: float, instance: LsmInstance):
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)
        _set(self, "defect", defect)
        _set(self, "instance", instance)


def ensemble_from_measurement(rho: DensityMatrix, povm: Povm) -> Ensemble:
    """Steered ensemble of a state/POVM pair.

    Outcomes with weight <= WEIGHT_DROP_TOL never occur and are dropped; the
    remaining weights are renormalized (total dropped mass <= n * 1e-14).
    """
    blocks = linalg.support_sandwich(*measures._one_state(rho, povm), povm.elements, 0.5)
    etas = np.real(np.trace(blocks, axis1=1, axis2=2))
    keep = etas > WEIGHT_DROP_TOL
    weights = etas[keep]
    return Ensemble(blocks[keep] / weights[:, None, None], weights / weights.sum())


def _average_support(ensemble: Ensemble) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """The average state of an ensemble, its support eigenpairs (w, v) and whether that
    support is restricted: of rank below d, or with its least kept eigenvalue at or
    below FULL_RANK_TOL.  Refuses a zero average."""
    rho_out = require_type(ensemble, Ensemble, "ensemble").average_state()
    w, v = linalg.support_eigenpairs(rho_out, KERNEL_RTOL)
    if w.size == 0 or float(w[0]) <= DEGENERATE_TOL:
        raise DegenerateEnsembleError("ensemble average state is numerically zero")
    return rho_out, w, v, w.size < ensemble.dim or float(w[-1]) <= FULL_RANK_TOL


def build_lsm(ensemble: Ensemble) -> LsmInstance:
    """LSM operators M_j = eta_j W rho_j W, W the inverse square root of the
    average state on its support, and the discrimination error probability."""
    _, w, v, restricted = _average_support(ensemble)
    rank = w.size
    projector = v @ v.conj().T
    operators = linalg.support_sandwich(w, v, ensemble.stack, -0.5, ensemble.weights)
    # success = sum_j eta_j tr(M_j rho_j), each trace as an elementwise product sum
    success = float(ensemble.weights @ np.einsum("jab,jba->j", operators, ensemble.stack).real)
    error = measures._clamp_value(1.0 - success, "LSM error probability")
    defect = float(np.max(np.abs(operators.sum(axis=0) - projector)))
    operators.flags.writeable = False
    return LsmInstance(
        ensemble=ensemble,
        operators=operators,
        error_probability=error,
        support_rank=rank,
        support_projector=projector,
        support_restricted=restricted,
        completeness_defect=defect,
    )


def measurement_from_ensemble(ensemble: Ensemble) -> StatePovmResult:
    """Invert the steering map: E_j = eta_j rho^(-1/2) rho_j rho^(-1/2).

    With a full-rank mixture (min eigenvalue > FULL_RANK_TOL) this returns the
    pair on the original space; otherwise all operators are restricted to the
    support of the mixture and the result is flagged.
    """
    rho_out, w, v, restricted = _average_support(ensemble)
    basis, stack = None, ensemble.stack
    if restricted:
        # restricted to the support, written in the eigenbasis of the mixture: there
        # the mixture is diag(w), with the identity for eigenvectors
        basis, v = v, np.eye(w.size)
        rho_out = linalg.hermitian_part(basis.conj().T @ rho_out @ basis)
        stack = basis.conj().T @ stack @ basis
    return StatePovmResult(
        state=DensityMatrix(rho_out),
        povm=Povm(linalg.support_sandwich(w, v, stack, -0.5, ensemble.weights)),
        support_restricted=basis is not None,
        support_basis=basis,
    )


def discrimination_identity_check(rho: DensityMatrix, povm: Povm) -> IdentityCheck:
    """Tsallis(1/2) coherence against twice the LSM error of the steered ensemble."""
    lhs = measures.tsallis_coherence(rho, povm, 0.5).value
    instance = build_lsm(ensemble_from_measurement(rho, povm))
    rhs = 2.0 * instance.error_probability
    return IdentityCheck(lhs, rhs, abs(lhs - rhs), instance)
