"""Quantum objects: density matrices, pure states, POVMs, ensembles.

Construction validates; `validate_*` helpers report violations on raw arrays
so callers (and the CLI) can surface measured defects instead of a bare error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    EmptyEnsembleError,
    NotUnitaryError,
    SingularSumError,
    ValidationError,
)

HERMITICITY_TOL = linalg.HERMITICITY_TOL  # 1e-9
PSD_TOL = 1e-10
TRACE_TOL = 1e-10
COMPLETENESS_TOL = 1e-8
NORM_TOL = 1e-12
WEIGHT_SUM_TOL = 1e-10


@dataclass(frozen=True)
class Violation:
    """One broken invariant, with the measured defect."""

    invariant: str
    defect: float

    def __str__(self):
        return f"{self.invariant} (defect {self.defect:.3e})"


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.flags.writeable = False
    return out


def _finite(a: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(a)))


def validate_density(mat: np.ndarray) -> list[Violation]:
    """Violations of: square, finite, Hermitian, PSD, unit trace."""
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        return [Violation("square", float(mat.ndim))]
    if not _finite(mat):
        return [Violation("finite", np.inf)]
    out = []
    herm = linalg.hermiticity_defect(mat)
    if herm > HERMITICITY_TOL:
        out.append(Violation("hermitian", herm))
        return out
    w = np.linalg.eigvalsh(linalg.hermitian_part(mat))
    if w.min() < -PSD_TOL:
        out.append(Violation("positive_semidefinite", float(-w.min())))
    tr = abs(float(np.real(np.trace(mat))) - 1.0)
    if tr > TRACE_TOL:
        out.append(Violation("unit_trace", tr))
    return out


def validate_pure(vec: np.ndarray) -> list[Violation]:
    """Violations of: 1-D, finite, unit norm."""
    vec = np.asarray(vec, dtype=complex)
    if vec.ndim != 1 or vec.size == 0:
        return [Violation("vector", float(vec.ndim))]
    if not _finite(vec):
        return [Violation("finite", np.inf)]
    defect = abs(float(np.real(np.vdot(vec, vec))) - 1.0)
    return [Violation("unit_norm", defect)] if defect > NORM_TOL else []


def validate_povm(elements) -> list[Violation]:
    """Violations of: per-element Hermitian PSD, common dimension, completeness.
    Any sequence of matrices and an (n, d, d) array give the same list."""
    mats = [np.asarray(e, dtype=complex) for e in elements]
    if not mats:
        return [Violation("nonempty", 0.0)]
    d = mats[0].shape[0] if mats[0].ndim == 2 else -1
    # one element at a time until the stack exists: a ragged input cannot be stacked
    for i, e in enumerate(mats):
        if e.ndim != 2 or e.shape != (d, d) or d == 0:
            return [Violation(f"element_{i}_shape", float(e.ndim))]
        if not _finite(e):
            return [Violation(f"element_{i}_finite", np.inf)]
    stack = np.array(mats)
    herm = np.max(np.abs(stack - stack.conj().swapaxes(-1, -2)), axis=(1, 2))
    low = np.linalg.eigvalsh(linalg.hermitian_part(stack))[:, 0]
    out = []
    for i in np.flatnonzero((herm > HERMITICITY_TOL) | (low < -PSD_TOL)):
        if herm[i] > HERMITICITY_TOL:  # a non-Hermitian element skips the PSD check
            out.append(Violation(f"element_{i}_hermitian", float(herm[i])))
        else:
            out.append(Violation(f"element_{i}_positive", float(-low[i])))
    if not out:
        comp = float(np.max(np.abs(stack.sum(axis=0) - np.eye(d))))
        if comp > COMPLETENESS_TOL:
            out.append(Violation("completeness", comp))
    return out


def validate_ensemble(states, weights) -> list[Violation]:
    """Violations of: nonempty, matching lengths/dims, valid members, finite weights
    >= 0 summing to 1."""
    if len(states) == 0:
        return [Violation("nonempty", 0.0)]
    if len(states) != len(weights):
        return [Violation("weights_length", float(len(states) - len(weights)))]
    out = []
    d = None
    for i, s in enumerate(states):
        mat = s.mat if isinstance(s, DensityMatrix) else np.asarray(s, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            # a non-square member has no dimension to compare: the first square
            # member sets the reference
            out.append(Violation(f"member_{i}_square", float(mat.ndim)))
            continue
        if d is None:
            d = mat.shape[0]
        elif mat.shape[0] != d:
            out.append(Violation(f"member_{i}_dimension", float(mat.shape[0] - d)))
            return out
        if isinstance(s, DensityMatrix):
            continue  # validated when built, and immutable
        for v in validate_density(mat):
            out.append(Violation(f"member_{i}_{v.invariant}", v.defect))
    weights = np.asarray(weights, dtype=float)
    if not _finite(weights):  # NaN slips through every comparison below
        out.append(Violation("weights_finite", np.inf))
        return out
    if weights.min() < -WEIGHT_SUM_TOL:
        out.append(Violation("weights_nonnegative", float(-weights.min())))
    sum_defect = abs(float(weights.sum()) - 1.0)
    if sum_defect > WEIGHT_SUM_TOL:
        out.append(Violation("weights_sum", sum_defect))
    return out


def _raise_if(violations, what):
    if violations:
        msg = "; ".join(str(v) for v in violations)
        raise ValidationError(f"invalid {what}: {msg}", violations)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian PSD matrix with unit trace."""

    mat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mat", _frozen(self.mat))
        _raise_if(validate_density(self.mat), "density matrix")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @cached_property
    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only eigenpairs (w, v) on the numerical support, w descending.

        rho = (v * w) @ v^dag once eigenvalues at or below linalg.SUPPORT_RTOL * max(w)
        are dropped, so X_j = sqrt(E_j) @ (v * sqrt(w)) factors every block
        sqrt(E_j) rho sqrt(E_k) = X_j X_k^dag through r = len(w) columns.
        Computed once per state and shared by every measure and bound.
        """
        w, v = linalg.support_eigenpairs(self.mat, linalg.SUPPORT_RTOL)
        w.flags.writeable = False
        v.flags.writeable = False
        return w, v

    def purity(self) -> float:
        return float(np.real(np.trace(self.mat @ self.mat)))

    def is_pure(self, tol: float = 1e-9) -> bool:
        return self.purity() >= 1.0 - tol


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit vector; `density()` gives the rank-one projector."""

    vec: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vec", _frozen(self.vec))
        _raise_if(validate_pure(self.vec), "pure state")

    @property
    def dim(self) -> int:
        return self.vec.size

    def density(self) -> DensityMatrix:
        return DensityMatrix(np.outer(self.vec, self.vec.conj()))


@dataclass(frozen=True, eq=False)
class Povm:
    """Measurement: PSD elements summing to the identity, one read-only (n, d, d) stack."""

    elements: np.ndarray

    def __init__(self, elements):
        elements = [np.asarray(e, dtype=complex) for e in elements]
        _raise_if(validate_povm(elements), "POVM")
        object.__setattr__(self, "elements", _frozen(elements))

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    @property
    def outcomes(self) -> int:
        return self.elements.shape[0]

    @cached_property
    def root_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (s, C): each element factored once on its support.

        E_j = u_j diag(s_j) u_j^dag keeps the eigenvalues above
        linalg.SUPPORT_RTOL * max(s_j); s is (n, k) and C is (n, k, d) with
        C_j = sqrt(s_j) u_j^dag, k the largest element rank (lower ranks get zero
        rows).  Then sqrt(E_j) = u_j C_j and E_j = C_j^dag C_j, so every block
        sqrt(E_j) rho sqrt(E_k) has the trace norm and spectrum of C_j rho C_k^dag.
        Computed from one batched eigendecomposition of the element stack.
        """
        s, u = linalg.stacked_psd_eigh(self.elements)
        keep = s > linalg.SUPPORT_RTOL * s[:, :1]  # s descending: a prefix of each row
        k = int(keep.sum(axis=1).max())
        s = np.where(keep, s, 0.0)[:, :k]
        c = np.sqrt(s)[:, :, None] * u[:, :, :k].conj().swapaxes(-1, -2)
        s.flags.writeable = False
        c.flags.writeable = False
        return s, c

    @cached_property
    def sqrt_elements(self) -> np.ndarray:
        """Principal square roots of the elements as one read-only (n, d, d) stack,
        sqrt(E_j) = C_j^dag diag(s_j^(-1/2)) C_j from root_factors."""
        s, c = self.root_factors
        inv_root = np.divide(1.0, np.sqrt(s), out=np.zeros_like(s), where=s > 0.0)
        roots = (c.conj().swapaxes(-1, -2) * inv_root[:, None, :]) @ c
        roots.flags.writeable = False
        return roots

    def is_rank_one_projective(self, tol: float = 1e-9) -> bool:
        """n == d and every element is idempotent with unit trace."""
        if self.outcomes != self.dim:
            return False
        e = self.elements
        if float(np.max(np.abs(np.real(np.trace(e, axis1=1, axis2=2)) - 1.0))) > 1e-8:
            return False
        return float(np.max(np.abs(e @ e - e))) <= tol


@dataclass(frozen=True, eq=False)
class Ensemble:
    """States with prior weights; weights sum to one."""

    states: tuple
    weights: np.ndarray

    def __init__(self, states, weights):
        states = tuple(s if isinstance(s, DensityMatrix) else DensityMatrix(s) for s in states)
        weights = np.array(weights, dtype=float)
        weights.flags.writeable = False
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "weights", weights)
        if len(states) == 0:
            raise EmptyEnsembleError("ensemble has no members")
        _raise_if(validate_ensemble(self.states, self.weights), "ensemble")

    @property
    def dim(self) -> int:
        return self.states[0].dim

    @property
    def size(self) -> int:
        return len(self.states)

    def average_state(self) -> np.ndarray:
        """Weighted mixture (raw matrix; may be rank-deficient)."""
        return sum(w * s.mat for w, s in zip(self.weights, self.states))


def validate(obj) -> list[Violation]:
    """Re-check any constructed object; empty list means all invariants hold."""
    if isinstance(obj, DensityMatrix):
        return validate_density(obj.mat)
    if isinstance(obj, PureState):
        return validate_pure(obj.vec)
    if isinstance(obj, Povm):
        return validate_povm(obj.elements)
    if isinstance(obj, Ensemble):
        return validate_ensemble(obj.states, obj.weights)
    raise ValidationError(f"cannot validate object of type {type(obj).__name__}")


def require_same_dim(*dims):
    if len(set(dims)) > 1:
        raise DimensionMismatchError(f"dimension mismatch: {dims}")


# --------------------------------------------------------------------------
# sampling


def haar_random_pure(d: int, rng: np.random.Generator) -> PureState:
    """Haar-distributed pure state: normalized vector of iid complex Gaussians."""
    if d < 1:
        raise ValidationError(f"dimension must be >= 1, got {d}")
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(v / np.linalg.norm(v))


def random_povm(d: int, n: int, rng: np.random.Generator, max_attempts: int = 10) -> Povm:
    """Random n-outcome POVM on dimension d.

    Wishart blocks G_j = A_j A_j^dag are normalized by S = sum_j G_j via
    E_j = S^{-1/2} G_j S^{-1/2}; a numerically singular S triggers a resample.
    """
    if d < 1 or n < 1:
        raise ValidationError(f"need d >= 1 and n >= 1, got d={d}, n={n}")
    for _ in range(max_attempts):
        blocks = []
        for _ in range(n):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            blocks.append(a @ a.conj().T)
        s = sum(blocks)
        w, v = linalg.support_eigenpairs(s, kernel_rtol=1e-12)
        if w.size < d:
            continue
        s_inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
        elements = [linalg.hermitian_part(s_inv_sqrt @ g @ s_inv_sqrt) for g in blocks]
        return Povm(elements)
    raise SingularSumError(f"POVM normalization sum stayed singular after {max_attempts} draws")


def require_unitary(basis: np.ndarray) -> np.ndarray:
    """The basis as a complex array, after checking it is a square unitary matrix."""
    basis = np.asarray(basis, dtype=complex)
    if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
        raise NotUnitaryError(f"basis must be a square matrix, got shape {basis.shape}")
    d = basis.shape[0]
    defect = float(np.max(np.abs(basis.conj().T @ basis - np.eye(d))))
    if defect > HERMITICITY_TOL:
        raise NotUnitaryError(f"basis unitarity defect {defect:.3e} exceeds {HERMITICITY_TOL:.1e}")
    return basis


def projective_povm(basis: np.ndarray) -> Povm:
    """Rank-one projective POVM from the columns of a unitary basis matrix."""
    basis = require_unitary(basis)
    return Povm([np.outer(basis[:, j], basis[:, j].conj()) for j in range(basis.shape[0])])
