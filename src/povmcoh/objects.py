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
    as_array,
    as_count,
    as_float,
)

HERMITICITY_TOL = linalg.HERMITICITY_TOL  # 1e-9
PSD_TOL = 1e-10
TRACE_TOL = 1e-10
COMPLETENESS_TOL = 1e-8
NORM_TOL = 1e-12
WEIGHT_SUM_TOL = 1e-10
# Largest number of complex Gaussian entries haar_random_pure (d) or random_povm
# (n d^2) may draw, 64 MiB of them; checked before any draw.
MAX_DRAWN_ENTRIES = 1 << 22


@dataclass(frozen=True)
class Violation:
    """One broken invariant, with the measured defect."""

    invariant: str
    defect: float

    def __str__(self):
        return f"{self.invariant} (defect {self.defect:.3e})"


def _frozen(a: np.ndarray, what: str) -> np.ndarray:
    out = np.array(as_array(a, ValidationError, what))
    out.flags.writeable = False
    return out


def _finite(a: np.ndarray) -> bool:
    return bool(np.isfinite(a).all())


def validate_density(mat: np.ndarray) -> list[Violation]:
    """Violations of: square, finite, Hermitian, PSD, unit trace."""
    return _check_density(mat)[0]


def _check_density(mat) -> tuple[list[Violation], tuple | None]:
    """validate_density's list and the state's eigenpairs as a one-member stack."""
    mat = as_array(mat, ValidationError, "density matrix")
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] == 0:
        return [Violation("square", float(mat.ndim))], None
    if not _finite(mat):
        return [Violation("finite", np.inf)], None
    violations, w, v = _check_density_stack(mat[None])
    return violations.get(0, []), (w, v)


def _check_density_stack(stack: np.ndarray) -> tuple[dict, np.ndarray, np.ndarray]:
    """Hermitian, PSD and unit-trace checks of every member of a finite (m, d, d) stack."""
    trace = np.abs(stack.trace(axis1=1, axis2=2).real - 1.0)
    return _check_stack(stack, "positive_semidefinite", ("unit_trace", trace, TRACE_TOL))


def _check_stack(stack: np.ndarray, psd_name: str, *extra) -> tuple[dict, np.ndarray, np.ndarray]:
    """Checks of every member of a finite (m, d, d) stack from one batched
    eigendecomposition: {member: violations} for the members that fail, and the
    eigenpairs (w, v) of each member, w ascending.

    A non-Hermitian member is reported as "hermitian" alone; the others are checked
    for a least eigenvalue below -PSD_TOL (reported as psd_name) and then for each
    extra (name, defects, tol).
    """
    herm = np.abs(stack - stack.conj().swapaxes(-1, -2)).max(axis=(1, 2))
    w, v = linalg.stacked_eigh(stack)
    checks = [("hermitian", herm, HERMITICITY_TOL), (psd_name, -w[:, 0], PSD_TOL), *extra]
    failing = herm > HERMITICITY_TOL
    for _, defects, tol in checks[1:]:
        failing |= defects > tol
    violations = {}
    for i in np.flatnonzero(failing).tolist() if failing.any() else ():
        found = [Violation(name, float(defects[i])) for name, defects, tol in checks if defects[i] > tol]
        violations[i] = found[:1] if herm[i] > HERMITICITY_TOL else found
    return violations, w, v


def _supports(w: np.ndarray, v: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """DensityMatrix.support of each member of a valid stack, from its eigenpairs
    (w ascending): read-only views of one descending copy of the stack's pairs."""
    w, v = linalg.clamp_psd_eigenvalues(w[:, ::-1]), v[:, :, ::-1].copy()
    w.flags.writeable = False
    v.flags.writeable = False
    ranks = np.count_nonzero(w > linalg.SUPPORT_RTOL * w[:, :1], axis=1)  # a prefix of each row
    return [(w[i, :r], v[i, :, :r]) for i, r in enumerate(ranks.tolist())]


def validate_pure(vec: np.ndarray) -> list[Violation]:
    """Violations of: 1-D, finite, unit norm."""
    vec = as_array(vec, ValidationError, "pure state")
    if vec.ndim != 1 or vec.size == 0:
        return [Violation("vector", float(vec.ndim))]
    if not _finite(vec):
        return [Violation("finite", np.inf)]
    defect = abs(float(np.real(np.vdot(vec, vec))) - 1.0)
    return [Violation("unit_norm", defect)] if defect > NORM_TOL else []


def validate_povm(elements) -> list[Violation]:
    """Violations of: per-element Hermitian PSD, common dimension, completeness.
    Any sequence of matrices and an (n, d, d) array give the same list."""
    return _check_povm(elements)[0]


def _check_povm(elements) -> tuple[list[Violation], tuple | None]:
    """validate_povm's list and, when it is empty, the element stack with its
    eigenpairs (w, u), w ascending: one batched eigendecomposition."""
    mats = [as_array(e, ValidationError, "POVM element") for e in _members(elements, "POVM elements")]
    if not mats:
        return [Violation("nonempty", 0.0)], None
    d = mats[0].shape[0] if mats[0].ndim == 2 else -1
    # a ragged input cannot be stacked: the elements before the first misshapen one
    # are, and the first element that is misshapen or non-finite is reported
    shaped = next((i for i, e in enumerate(mats) if e.ndim != 2 or e.shape != (d, d) or d == 0), len(mats))
    stack = np.array(mats[:shaped]) if shaped else np.empty((0, 0, 0), dtype=complex)
    finite = np.isfinite(stack).all(axis=(1, 2))
    if not finite.all():
        return [Violation(f"element_{int(np.argmin(finite))}_finite", np.inf)], None
    if shaped < len(mats):
        return [Violation(f"element_{shaped}_shape", float(mats[shaped].ndim))], None
    violations, w, u = _check_stack(stack, "positive")
    out = [Violation(f"element_{i}_{v.invariant}", v.defect) for i, found in violations.items() for v in found]
    if not out:
        total = stack.sum(axis=0)
        total.flat[:: d + 1] -= 1.0  # sum_j E_j - I
        comp = float(np.abs(total).max())
        if comp > COMPLETENESS_TOL:
            out.append(Violation("completeness", comp))
    return out, None if out else (stack, w, u)


def validate_ensemble(states, weights) -> list[Violation]:
    """Violations of: nonempty, matching lengths/dims, valid members, finite weights
    >= 0 summing to 1."""
    if len(states) == 0:
        return [Violation("nonempty", 0.0)]
    weights = as_array(weights, ValidationError, "ensemble weights", float)
    if weights.ndim != 1:
        return [Violation("weights_shape", float(weights.ndim))]
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
    if not _finite(weights):  # NaN slips through every comparison below
        out.append(Violation("weights_finite", np.inf))
        return out
    if weights.min() < -WEIGHT_SUM_TOL:
        out.append(Violation("weights_nonnegative", float(-weights.min())))
    sum_defect = abs(float(weights.sum()) - 1.0)
    if sum_defect > WEIGHT_SUM_TOL:
        out.append(Violation("weights_sum", sum_defect))
    return out


def _density_stack(states) -> tuple[np.ndarray | None, tuple[DensityMatrix, ...]]:
    """Ensemble members as states, and their matrices as one read-only (m, d, d) stack.

    When the matrices stack to a finite (m, d, d) array, the members given as
    matrices are validated in one batched pass.  Each gets every check of
    DensityMatrix, and the first failing one raises the error its own DensityMatrix
    would.  Otherwise the stack is None, each matrix member is built on its own, and
    the members are invalid or of different sizes.
    """
    try:
        stack = np.array([s.mat if isinstance(s, DensityMatrix) else s for s in states], dtype=complex)
    except ValueError:  # ragged
        stack = None
    if stack is None or stack.ndim != 3 or stack.shape[1] != stack.shape[2] or 0 in stack.shape or not _finite(stack):
        return None, tuple(s if isinstance(s, DensityMatrix) else DensityMatrix(s) for s in states)
    stack.flags.writeable = False
    members = list(states)
    raw = [i for i, s in enumerate(states) if not isinstance(s, DensityMatrix)]
    if raw:  # DensityMatrix members were validated when built
        violations, w, v = _check_density_stack(stack[raw])
        if violations:
            _raise_if(violations[min(violations)], "density matrix")
        for i, support in zip(raw, _supports(w, v)):
            members[i] = DensityMatrix._checked(stack[i], support)
    return stack, tuple(members)


def _members(items, what: str) -> tuple:
    """tuple(items), or ValidationError when items cannot be iterated."""
    try:
        return tuple(items)
    except TypeError:
        raise ValidationError(f"{what} must be a sequence, got {items!r}") from None


def _raise_if(violations, what):
    if violations:
        msg = "; ".join(str(v) for v in violations)
        raise ValidationError(f"invalid {what}: {msg}", violations)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian PSD matrix with unit trace."""

    mat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mat", _frozen(self.mat, "density matrix"))
        violations, eigenpairs = _check_density(self.mat)
        _raise_if(violations, "density matrix")
        object.__setattr__(self, "_support", _supports(*eigenpairs)[0])

    @classmethod
    def _checked(cls, mat: np.ndarray, support: tuple) -> DensityMatrix:
        """A state from a read-only matrix already validated, with its support."""
        state = object.__new__(cls)
        object.__setattr__(state, "mat", mat)
        object.__setattr__(state, "_support", support)
        return state

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only eigenpairs (w, v) on the numerical support, w descending.

        rho = (v * w) @ v^dag once eigenvalues at or below linalg.SUPPORT_RTOL * max(w)
        are dropped, so X_j = sqrt(E_j) @ (v * sqrt(w)) factors every block
        sqrt(E_j) rho sqrt(E_k) = X_j X_k^dag through r = len(w) columns.
        Taken from the eigendecomposition that validated the state, and shared by
        every measure and bound.
        """
        return self._support

    def purity(self) -> float:
        return float(np.real(np.trace(self.mat @ self.mat)))

    def is_pure(self, tol: float = 1e-9) -> bool:
        return self.purity() >= 1.0 - as_float(tol, ValidationError, "tol")


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit vector; `density()` gives the rank-one projector."""

    vec: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vec", _frozen(self.vec, "pure state"))
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
        violations, checked = _check_povm(elements)
        _raise_if(violations, "POVM")
        stack, w, u = checked  # a new array, owned here
        stack.flags.writeable = False
        object.__setattr__(self, "elements", stack)
        object.__setattr__(self, "_root_factors", _root_factors(w, u))

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    @property
    def outcomes(self) -> int:
        return self.elements.shape[0]

    @property
    def root_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (s, C): each element factored once on its support.

        E_j = u_j diag(s_j) u_j^dag keeps the eigenvalues above
        linalg.SUPPORT_RTOL * max(s_j); s is (n, k) and C is (n, k, d) with
        C_j = sqrt(s_j) u_j^dag, k the largest element rank (lower ranks get zero
        rows).  Then sqrt(E_j) = u_j C_j and E_j = C_j^dag C_j, so every block
        sqrt(E_j) rho sqrt(E_k) has the trace norm and spectrum of C_j rho C_k^dag.
        Taken from the batched eigendecomposition that validated the elements.
        """
        return self._root_factors

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
    """States with prior weights; weights sum to one.

    Members given as matrices (a sequence or an (m, d, d) array) are validated in one
    batched pass; DensityMatrix members were validated when built.  `stack` holds
    the member matrices as one read-only (m, d, d) array.
    """

    states: tuple
    weights: np.ndarray

    def __init__(self, states, weights):
        stack, states = _density_stack(_members(states, "ensemble states"))
        weights = as_array(weights, ValidationError, "ensemble weights", float).copy()
        weights.flags.writeable = False
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "weights", weights)
        if len(states) == 0:
            raise EmptyEnsembleError("ensemble has no members")
        _raise_if(validate_ensemble(self.states, self.weights), "ensemble")
        object.__setattr__(self, "stack", stack)  # members that pass always stack

    @property
    def dim(self) -> int:
        return self.states[0].dim

    @property
    def size(self) -> int:
        return len(self.states)

    def average_state(self) -> np.ndarray:
        """Weighted mixture (raw matrix; may be rank-deficient): one product of the
        weights with the read-only (m, d, d) member stack `stack`."""
        m, d, _ = self.stack.shape
        return (self.weights @ self.stack.reshape(m, d * d)).reshape(d, d)


def _root_factors(w: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Povm.root_factors from the ascending eigenpairs of a valid element stack."""
    s, u = linalg.clamp_psd_eigenvalues(w[:, ::-1]), u[:, :, ::-1]
    keep = s > linalg.SUPPORT_RTOL * s[:, :1]  # s descending: a prefix of each row
    k = int(keep.sum(axis=1).max())
    s = np.where(keep, s, 0.0)[:, :k]
    c = np.sqrt(s)[:, :, None] * u[:, :, :k].conj().swapaxes(-1, -2)
    s.flags.writeable = False
    c.flags.writeable = False
    return s, c


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


def require_type(value, kind: type, name: str):
    """value, or ValidationError naming the argument when it is not a `kind`.  A
    state argument takes a DensityMatrix, not a raw matrix."""
    if not isinstance(value, kind):
        raise ValidationError(f"{name} must be of type {kind.__name__}, not {type(value).__name__}")
    return value


def require_same_dim(*dims):
    if len(set(dims)) > 1:
        raise DimensionMismatchError(f"dimension mismatch: {dims}")


# --------------------------------------------------------------------------
# sampling


def _check_drawn_entries(entries: int) -> None:
    if entries > MAX_DRAWN_ENTRIES:
        raise ValidationError(
            f"at most {MAX_DRAWN_ENTRIES} random entries per draw, got {entries}")


def haar_random_pure(d: int, rng: np.random.Generator) -> PureState:
    """Haar-distributed pure state: normalized vector of iid complex Gaussians."""
    d = as_count(d, ValidationError, "dimension")
    if d < 1:
        raise ValidationError(f"dimension must be >= 1, got {d}")
    _check_drawn_entries(d)
    require_type(rng, np.random.Generator, "rng")
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(v / np.linalg.norm(v))


def random_povm(d: int, n: int, rng: np.random.Generator, max_attempts: int = 10) -> Povm:
    """Random n-outcome POVM on dimension d.

    Wishart blocks G_j = A_j A_j^dag are normalized by S = sum_j G_j via
    E_j = S^{-1/2} G_j S^{-1/2}; a numerically singular S triggers a resample.
    """
    d, n = as_count(d, ValidationError, "d"), as_count(n, ValidationError, "n")
    max_attempts = as_count(max_attempts, ValidationError, "max_attempts")
    if d < 1 or n < 1:
        raise ValidationError(f"need d >= 1 and n >= 1, got d={d}, n={n}")
    _check_drawn_entries(n * d * d)
    require_type(rng, np.random.Generator, "rng")
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
    basis = as_array(basis, NotUnitaryError, "basis")
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
