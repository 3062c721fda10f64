"""Quantum objects: density matrices, pure states, POVMs, ensembles.

Construction validates: each constructor raises a ValidationError whose
`violations` list the broken invariants with their measured defects, so callers
(and the CLI) can surface them instead of a bare error; validate(obj) re-checks
a constructed object by the same rule.
"""

from __future__ import annotations

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
    as_tolerance,
    shown,
)

HERMITICITY_TOL = linalg.HERMITICITY_TOL  # 1e-9
PSD_TOL = linalg.PSD_CLAMP_TOL  # 1e-10
TRACE_TOL = 1e-10
COMPLETENESS_TOL = 1e-8
NORM_TOL = 1e-12
WEIGHT_SUM_TOL = 1e-10
# Largest number of complex Gaussian entries haar_random_pure (d) or random_povm
# (n d^2) may draw, 64 MiB of them; checked before any draw.
MAX_DRAWN_ENTRIES = 1 << 22


# How a _Frozen class's own __init__ sets each field, once.  object.__setattr__ keeps
# the attributes in the instance's inline values, where reads are fastest; writing
# them through self.__dict__ would turn it into a real dict, which reads about 4x
# slower on CPython 3.11.
_set = object.__setattr__


class _Frozen:
    """Attributes set once, by each class's own __init__ (through _set): assigning
    or deleting one raises AttributeError.  repr shows the _fields in order.
    Equality and hashing stay object's own C-level ones, by identity, which the
    weakly keyed measure memo looks up on every call."""

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


class _Record(_Frozen):
    """A _Frozen value: equal, and hash-equal, to a record of its own class with
    equal _fields."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())


class Violation(_Record):
    """One broken invariant, with the measured defect."""

    _fields = ("invariant", "defect")

    def __init__(self, invariant: str, defect: float):
        _set(self, "invariant", invariant)
        _set(self, "defect", defect)

    def __str__(self):
        return f"{self.invariant} (defect {self.defect:.3e})"


def _finite(a: np.ndarray) -> bool:
    return bool(np.isfinite(a).all())


def _check_states(mats, prefix: str) -> tuple[list[Violation], tuple | None]:
    """The member rule of _check_members over states.  With no violation, also the
    read-only member stack, a new array, and the supports (w, v) of every member
    from the eigenpairs that validated it: w (m, r) descending and v (m, d, r), r
    the largest rank (linalg.psd_support), a member of lower rank padded with zero
    eigenvalues and zero columns.  The padding adds only zero singular values and
    0 log 0 terms to the kernels that take the supports."""
    violations, _, checked = _check_members(mats, prefix, True)
    if violations:
        return violations, None
    stack, w, v = checked
    w, ranks = linalg.psd_support(w, linalg.SUPPORT_RTOL)
    counts = ranks.tolist()
    r = max(counts)
    w, v = w[:, :r], np.ascontiguousarray(v[:, :, :r])
    if min(counts) < r:
        kept = np.arange(r) < ranks[:, None]
        w, v = np.where(kept, w, 0.0), np.where(kept[:, None, :], v, 0.0)
    for a in (stack, w, v):
        a.flags.writeable = False
    return [], (stack, (w, v))


def _check_members(mats, prefix: str, states: bool) -> tuple[list[Violation], bool, tuple | None]:
    """The one member rule of a lone state (prefix "", names bare), POVM elements
    ("element_") and ensemble members ("member_"): the violations, named
    {prefix}{i}_{invariant}; whether a member of another dimension ended the check;
    and, with no violation, the member stack, a new array, and its eigenpairs (w, v),
    w descending.

    The first square member sets d.  A member that is not a nonempty square matrix is
    "square" (defect: ndim), one of another size "dimension" (defect: size - d), which
    ends the check, and a non-finite one "finite".  The rest are checked from one
    batched eigendecomposition: "hermitian" alone for a non-Hermitian member, else a
    least eigenvalue below -PSD_TOL ("positive_semidefinite" for states, "positive"
    for elements) and, for states, the trace.  Members that stack into one (m, d, d)
    array of m >= 1 skip the per-member shape loop.  Each invariant is decided by one
    reduction over the whole stack, which NaN fails; only a failed verdict looks for
    the members at fault.
    """
    found, d, end = {}, None, len(mats)  # {member: violations}
    try:
        stack = np.array(mats)  # a new array
    except ValueError:  # members of different shapes
        stack = None
    if stack is not None and stack.ndim == 3 and stack.shape[1] == stack.shape[2] > 0:
        shaped = range(end)  # every member square, of one size
    else:
        for i, mat in enumerate(mats):
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                found[i] = [Violation("square", float(mat.ndim))]
                continue
            d = mat.shape[0] if d is None else d
            if mat.shape[0] != d:
                found[i], end = [Violation("dimension", float(mat.shape[0] - d))], i
                break
            if d == 0:
                found[i] = [Violation("square", float(mat.ndim))]  # 0x0
        shaped = [i for i in range(end) if i not in found]
        stack = np.array([mats[i] for i in shaped]) if shaped else None
    w = v = None
    if shaped and not np.isfinite(stack).all():
        finite = np.isfinite(stack).all(axis=(1, 2))
        found.update((shaped[k], [Violation("finite", np.inf)]) for k in np.flatnonzero(~finite).tolist())
        shaped, stack = [i for i, ok in zip(shaped, finite.tolist()) if ok], stack[finite]
    if shaped:
        w, v = linalg.stacked_eigh(stack)
        w, v = w[:, ::-1], v[:, :, ::-1]  # descending, the order linalg.psd_support takes
        with np.errstate(over="ignore"):  # entries near 1e308: inf or NaN defects, which fail
            herm = np.abs(stack - stack.conj().swapaxes(-1, -2))
            checks = [("positive_semidefinite" if states else "positive", -w[:, -1], PSD_TOL)]
            if states:
                checks.append(("unit_trace", np.abs(stack.trace(axis1=1, axis2=2).real - 1.0), TRACE_TOL))
        if not (herm.max() <= HERMITICITY_TOL and all(defects.max() <= tol for _, defects, tol in checks)):
            herm = herm.max(axis=(1, 2))
            failing = herm > HERMITICITY_TOL
            for _, defects, tol in checks:
                failing |= ~(defects <= tol)
            for k in np.flatnonzero(failing).tolist():
                bad = [Violation(name, float(defects[k])) for name, defects, tol in checks if not defects[k] <= tol]
                found[shaped[k]] = [Violation("hermitian", float(herm[k]))] if herm[k] > HERMITICITY_TOL else bad
    out = [Violation(f"{prefix}{i}_{viol.invariant}" if prefix else viol.invariant, viol.defect)
           for i in sorted(found) for viol in found[i]]
    return out, end < len(mats), None if out else (stack, w, v)


def _check_pure(vec: np.ndarray) -> list[Violation]:
    """Violations of: 1-D, finite, unit norm."""
    if vec.ndim != 1 or vec.size == 0:
        return [Violation("vector", float(vec.ndim))]
    if not _finite(vec):
        return [Violation("finite", np.inf)]
    defect = abs(float(np.real(np.vdot(vec, vec))) - 1.0)
    return [] if defect <= NORM_TOL else [Violation("unit_norm", defect)]  # NaN (overflow) fails


def _check_povm(elements) -> tuple[list[Violation], tuple | None]:
    """Violations of: nonempty, the member rule per element, completeness, which is
    checked only when every element is valid.  Any sequence of matrices and an
    (n, d, d) array give the same list.  With none, also the element stack, a new
    array, with its eigenpairs (w, u), w descending: one batched eigendecomposition."""
    mats = _members(elements, "POVM elements")
    if isinstance(mats, tuple):
        mats = [as_array(e, ValidationError, "POVM element") for e in mats]
    if len(mats) == 0:
        return [Violation("nonempty", 0.0)], None
    out, _, checked = _check_members(mats, "element_", False)
    if out:
        return out, None
    with np.errstate(over="ignore"):  # a sum past the largest double is inf, and incomplete
        total = checked[0].sum(axis=0)
    total.flat[:: len(total) + 1] -= 1.0  # sum_j E_j - I
    comp = float(np.abs(total).max())
    return ([Violation("completeness", comp)], None) if comp > COMPLETENESS_TOL else ([], checked)


def _check_ensemble(states, weights) -> tuple[list[Violation], tuple | None]:
    """Violations of: nonempty, one 1-D weight per member, the member rule per member,
    finite weights >= 0 summing to 1; a member of another dimension ends the check
    before the weights.  With none, also the (m, d, d) member stack, a new array,
    and the weights."""
    states = _members(states, "ensemble states")
    if len(states) == 0:
        return [Violation("nonempty", 0.0)], None
    weights = as_array(weights, ValidationError, "ensemble weights", float)
    if weights.ndim != 1:
        return [Violation("weights_shape", float(weights.ndim))], None
    if len(states) != len(weights):
        return [Violation("weights_length", float(len(states) - len(weights)))], None
    mats = states if isinstance(states, np.ndarray) else [
        s.mat if isinstance(s, DensityMatrix) else as_array(s, ValidationError, "ensemble member") for s in states]
    out, ended, checked = _check_members(mats, "member_", True)
    if ended:
        return out, None
    if not _finite(weights):  # NaN slips through every comparison below
        return [*out, Violation("weights_finite", np.inf)], None
    if weights.min() < -WEIGHT_SUM_TOL:
        out.append(Violation("weights_nonnegative", float(-weights.min())))
    with np.errstate(over="ignore"):  # a sum past the largest double is inf, and fails
        sum_defect = abs(float(weights.sum()) - 1.0)
    if sum_defect > WEIGHT_SUM_TOL:
        out.append(Violation("weights_sum", sum_defect))
    return out, None if out else (checked[0], weights)


def _members(items, what: str):
    """items as one complex array when it is a numeric array of three axes, which the
    member rule takes whole; else tuple(items), or ValidationError when items cannot
    be iterated."""
    if isinstance(items, np.ndarray) and items.ndim == 3 and items.dtype.kind in "biufc":
        return items.astype(complex, copy=False)
    try:
        return tuple(items)
    except TypeError:
        raise ValidationError(f"{what} must be a sequence, got {shown(items)}") from None


def _raise_if(violations, what):
    if violations:
        msg = "; ".join(str(v) for v in violations)
        raise ValidationError(f"invalid {what}: {msg}", violations)


class DensityMatrix(_Frozen):
    """Hermitian PSD matrix with unit trace."""

    _fields = ("mat",)

    def __init__(self, mat: np.ndarray):
        # square, finite, Hermitian, PSD, unit trace: the one-member case of _check_states
        violations, checked = _check_states([as_array(mat, ValidationError, "density matrix")], "")
        _raise_if(violations, "density matrix")
        stack, (w, v) = checked
        _set(self, "mat", stack[0])
        _set(self, "_support", (w[0], v[0]))

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
        return self.purity() >= 1.0 - as_tolerance(tol)


class PureState(_Frozen):
    """Unit vector; `density()` gives the rank-one projector."""

    _fields = ("vec",)

    def __init__(self, vec: np.ndarray):
        vec = np.array(as_array(vec, ValidationError, "pure state"))
        _raise_if(_check_pure(vec), "pure state")
        vec.flags.writeable = False
        _set(self, "vec", vec)

    @property
    def dim(self) -> int:
        return self.vec.size

    def density(self) -> DensityMatrix:
        return DensityMatrix(np.outer(self.vec, self.vec.conj()))


class Povm(_Frozen):
    """Measurement: PSD elements summing to the identity, one read-only (n, d, d) stack."""

    _fields = ("elements",)

    def __init__(self, elements):
        violations, checked = _check_povm(elements)
        _raise_if(violations, "POVM")
        stack, w, u = checked  # a new array, owned here
        stack.flags.writeable = False
        _set(self, "elements", stack)
        _set(self, "_root_factors", _root_factors(w, u))

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
        tol = as_tolerance(tol)
        if self.outcomes != self.dim:
            return False
        e = self.elements
        if float(np.max(np.abs(np.real(np.trace(e, axis1=1, axis2=2)) - 1.0))) > 1e-8:
            return False
        return float(np.max(np.abs(e @ e - e))) <= tol


class Ensemble(_Frozen):
    """States with prior weights; weights sum to one.

    The members, given as DensityMatrix objects, matrices or an (m, d, d) array, are
    held as one read-only (m, d, d) array `stack`.
    """

    _fields = ("stack", "weights")

    def __init__(self, states, weights):
        violations, checked = _check_ensemble(states, weights)
        if violations[:1] == [Violation("nonempty", 0.0)]:
            raise EmptyEnsembleError("ensemble has no members", violations)
        _raise_if(violations, "ensemble")
        stack, weights = checked[0], checked[1].copy()  # the stack is a new array, owned here
        stack.flags.writeable = False
        weights.flags.writeable = False
        _set(self, "stack", stack)
        _set(self, "weights", weights)

    @cached_property
    def states(self) -> tuple[DensityMatrix, ...]:
        """The members as DensityMatrix objects, built from `stack` on first use."""
        return tuple(DensityMatrix(m) for m in self.stack)

    @property
    def dim(self) -> int:
        return self.stack.shape[1]

    @property
    def size(self) -> int:
        return self.stack.shape[0]

    def average_state(self) -> np.ndarray:
        """Weighted mixture (raw matrix; may be rank-deficient): one product of the
        weights with the read-only (m, d, d) member stack `stack`."""
        m, d, _ = self.stack.shape
        return (self.weights @ self.stack.reshape(m, d * d)).reshape(d, d)


def _root_factors(w: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Povm.root_factors from the descending eigenpairs of a valid element stack."""
    s, ranks = linalg.psd_support(w, linalg.SUPPORT_RTOL)
    k = int(ranks.max())
    s = (np.where(np.arange(k) < ranks[:, None], s[:, :k], 0.0) if ranks.min() < k
         else np.ascontiguousarray(s[:, :k]))  # no rank mask when every rank is k
    c = np.sqrt(s)[:, :, None] * u[:, :, :k].conj().swapaxes(-1, -2)
    s.flags.writeable = False
    c.flags.writeable = False
    return s, c


def validate(obj) -> list[Violation]:
    """Re-check any constructed object; empty list means all invariants hold."""
    if isinstance(obj, DensityMatrix):
        return _check_states([obj.mat], "")[0]
    if isinstance(obj, PureState):
        return _check_pure(obj.vec)
    if isinstance(obj, Povm):
        return _check_povm(obj.elements)[0]
    if isinstance(obj, Ensemble):
        return _check_ensemble(obj.stack, obj.weights)[0]
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
            f"at most {MAX_DRAWN_ENTRIES} random entries per draw, got {shown(entries)}")


def haar_random_pure(d: int, rng: np.random.Generator) -> PureState:
    """Haar-distributed pure state: normalized vector of iid complex Gaussians."""
    d = as_count(d, ValidationError, "dimension")
    if d < 1:
        raise ValidationError(f"dimension must be >= 1, got {shown(d)}")
    _check_drawn_entries(d)
    require_type(rng, np.random.Generator, "rng")
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(v / np.linalg.norm(v))


def random_povm(d: int, n: int, rng: np.random.Generator) -> Povm:
    """Random n-outcome POVM on dimension d.

    Wishart blocks G_j = A_j A_j^dag are normalized by S = sum_j G_j via
    E_j = S^{-1/2} G_j S^{-1/2}; a numerically singular S triggers a resample,
    up to ten draws in all.
    """
    d, n = as_count(d, ValidationError, "d"), as_count(n, ValidationError, "n")
    if d < 1 or n < 1:
        raise ValidationError(f"need d >= 1 and n >= 1, got d={shown(d)}, n={shown(n)}")
    _check_drawn_entries(n * d * d)
    require_type(rng, np.random.Generator, "rng")
    for _ in range(10):
        blocks = []
        for _ in range(n):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            blocks.append(a @ a.conj().T)
        w, v = linalg.support_eigenpairs(sum(blocks), kernel_rtol=1e-12)
        if w.size < d:
            continue
        return Povm(linalg.support_sandwich(w, v, np.array(blocks), -0.5))
    raise SingularSumError("POVM normalization sum stayed singular after 10 draws")


def require_unitary(basis: np.ndarray) -> np.ndarray:
    """The basis as a complex array, after checking it is a nonempty square unitary matrix."""
    basis = as_array(basis, NotUnitaryError, "basis")
    if basis.ndim != 2 or basis.shape[0] != basis.shape[1] or basis.size == 0:
        raise NotUnitaryError(f"basis must be a nonempty square matrix, got shape {basis.shape}")
    if not _finite(basis):  # its unitarity defect would be NaN, which passes the check below
        raise NotUnitaryError("basis has non-finite entries")
    d = basis.shape[0]
    defect = float(np.max(np.abs(basis.conj().T @ basis - np.eye(d))))
    if defect > HERMITICITY_TOL:
        raise NotUnitaryError(f"basis unitarity defect {defect:.3e} exceeds {HERMITICITY_TOL:.1e}")
    return basis


def projective_povm(basis: np.ndarray) -> Povm:
    """Rank-one projective POVM from the columns of a unitary basis matrix."""
    basis = require_unitary(basis)
    return Povm([np.outer(basis[:, j], basis[:, j].conj()) for j in range(basis.shape[0])])
