"""Upper bounds on the l1 coherence measure.

Two factorized Hölder-pair bounds over general POVMs, a sorted/uniform pair of
trace-norm bounds, and three basis-specific bounds for rank-one projective
measurements.  Every report carries the measure value it certifies, and
construction rejects a "bound" below the value it is supposed to dominate.

The two single-parameter state families behind the CLI's figure replays are
also defined here, together with the literature closed forms for their bound
curves.  Note the b1 reference curve for family 2 is the unsorted evaluation
12x, which stops agreeing with the (sorted, tighter) b1 operation past
x = 1/sqrt(33); see README.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import linalg, measures
from .errors import InvalidExponentsError, NumericError, XOutOfRangeError, ZOutOfRangeError, as_float
from .objects import DensityMatrix, Povm, require_same_dim, require_type, require_unitary

EXPONENT_TOL = 1e-12
BOUND_SLACK = 1e-8

X_MAX = 1.0 / math.sqrt(17.0)


@dataclass(frozen=True)
class BoundReport:
    """A certified upper bound on the l1 measure."""

    c_l1_value: float
    bound_value: float
    bound_id: str
    parameters: tuple | None = None

    def __post_init__(self):
        finite = math.isfinite(self.c_l1_value) and math.isfinite(self.bound_value)
        if not (finite and self.bound_value >= self.c_l1_value - BOUND_SLACK):
            raise NumericError(
                f"{self.bound_id} bound {self.bound_value:.12e} is not finite or fell below "
                f"the l1 value {self.c_l1_value:.12e}"
            )


def check_exponents(p: float, q: float) -> tuple[float, float]:
    """Conjugate Hölder pair: p, q > 1 with 1/p + 1/q = 1."""
    p, q = as_float(p, InvalidExponentsError, "p"), as_float(q, InvalidExponentsError, "q")
    if not (p > 1.0 and q > 1.0):
        raise InvalidExponentsError(f"exponents must exceed 1, got p={p}, q={q}")
    if abs(1.0 / p + 1.0 / q - 1.0) > EXPONENT_TOL:
        raise InvalidExponentsError(f"1/p + 1/q = {1.0 / p + 1.0 / q} != 1")
    return p, q


def _element_trace_norms(rho: DensityMatrix, povm: Povm, *powers: float) -> list[np.ndarray]:
    """||E_j^a rho||_tr over the outcomes j, one array per power a, in one stacked SVD
    with one layer per distinct power.

    For E_j = u_j diag(s_j) u_j^dag and C_j = sqrt(s_j) u_j^dag, E_j^a = u_j s_j^(a - 1/2) C_j,
    and the orthonormal columns of u_j and v drop out: ||E_j^a rho||_tr =
    ||s_j^(a - 1/2) C_j v w||_tr, a row scaling of one measures._factor stack.
    """
    cvw = measures._factor(rho, povm, 1.0)
    s = povm.root_factors[0][:, :, None]
    distinct = dict.fromkeys(powers)
    stack = np.array([s ** (a - 0.5) * cvw for a in distinct])
    norms = dict(zip(distinct, np.sum(linalg.stacked_singular_values(stack), axis=-1)))
    return [norms[a] for a in powers]


def holder_bound(rho: DensityMatrix, povm: Povm, p: float, q: float) -> BoundReport:
    """Factorized bound sum_{j!=k} ||E_j^(p/2) rho||^(1/p) ||E_k^(q/2) rho||^(1/q)."""
    p, q = check_exponents(p, q)
    a, b = _element_trace_norms(rho, povm, p / 2.0, q / 2.0)
    a, b = a ** (1.0 / p), b ** (1.0 / q)
    value = float(a.sum() * b.sum() - np.dot(a, b))
    c_l1 = measures.l1_coherence(rho, povm).value
    return BoundReport(c_l1, value, "thm1", (p, q))


def holder_bound_22(rho: DensityMatrix, povm: Povm) -> BoundReport:
    """holder_bound at p = q = 2, (sum_j ||E_j rho||^(1/2))^2 - sum_j ||E_j rho||, under
    its own id."""
    return replace(holder_bound(rho, povm, 2.0, 2.0), bound_id="thm1_p2q2")


def pair_bounds(rho: DensityMatrix, povm: Povm) -> tuple[BoundReport, BoundReport]:
    """Sorted and uniform pair bounds from t_j = ||sqrt(E_j) rho||_tr = ||C_j v w||_tr.

    sorted:  2 sum_j (n - j) t_(j)  with t_(1) <= ... <= t_(n)
    uniform: (n - 1) sum_j t_j
    """
    (t,) = _element_trace_norms(rho, povm, 0.5)
    n = t.size
    t_sorted = np.sort(t)
    coeff = n - 1.0 - np.arange(n)
    ordered_value = float(2.0 * np.dot(coeff, t_sorted))
    uniform_value = float((n - 1.0) * t.sum())
    c_l1 = measures.l1_coherence(rho, povm).value
    return (
        BoundReport(c_l1, ordered_value, "thm2_ordered"),
        BoundReport(c_l1, uniform_value, "thm2_uniform"),
    )


def basis_bounds(rho: DensityMatrix, basis: np.ndarray) -> tuple[BoundReport, BoundReport, BoundReport]:
    """(b1, b2, b3) for a unitary basis B of rho's dimension, from one frame r = B^dag rho B.

    Every cross block of the rank-one projectors |b_j><b_j| is r_jk |b_j><b_k|,
    so the l1 value of the basis measurement is sum_{j!=k} |r_jk|.
    """
    basis = require_unitary(basis)
    require_same_dim(require_type(rho, DensityMatrix, "rho").dim, basis.shape[0])
    r = basis.conj().T @ rho.mat @ basis
    off = np.abs(r)
    np.fill_diagonal(off, 0.0)
    c_l1 = float(off.sum())
    # <j|rho^2|j> = (r r^dag)_jj, the squared norm of row j of r
    s = np.linalg.norm(r, axis=1)
    coeff = rho.dim - 1.0 - np.arange(rho.dim)
    b1 = float(2.0 * np.dot(coeff, np.sort(s)))
    diag = np.clip(np.real(np.diagonal(r)), 0.0, None)
    b2 = float(np.sum(np.sqrt(diag)) ** 2 - 1.0)
    # tr rho^2 = sum_jk |r_jk|^2, so the gap is the off-diagonal weight
    gap = float(np.sum(off**2))
    b3 = float(math.sqrt(rho.dim * (rho.dim - 1.0) * gap))
    return BoundReport(c_l1, b1, "b1"), BoundReport(c_l1, b2, "b2"), BoundReport(c_l1, b3, "b3")


def bound_b1(rho: DensityMatrix, basis: np.ndarray) -> BoundReport:
    """Sorted second-moment bound 2 sum_j (d - j) s_(j), s_j = sqrt(<j|rho^2|j>) nondecreasing."""
    return basis_bounds(rho, basis)[0]


def bound_b2(rho: DensityMatrix, basis: np.ndarray) -> BoundReport:
    """Diagonal-weight bound (sum_j sqrt(<j|rho|j>))^2 - 1."""
    return basis_bounds(rho, basis)[1]


def bound_b3(rho: DensityMatrix, basis: np.ndarray) -> BoundReport:
    """Purity-gap bound sqrt( d (d-1) (tr rho^2 - sum_j <j|rho|j>^2) )."""
    return basis_bounds(rho, basis)[2]


# --------------------------------------------------------------------------
# single-parameter state families behind the figure replays


def _check_z(z) -> float:
    z = as_float(z, ZOutOfRangeError, "z")
    if not (0.0 <= z <= 0.8):
        raise ZOutOfRangeError(f"z must lie in [0, 0.8], got {z}")
    return z


def _check_x(x) -> float:
    x = as_float(x, XOutOfRangeError, "x")
    if not (0.0 <= x <= X_MAX):
        raise XOutOfRangeError(f"x must lie in [0, {X_MAX!r}], got {x}")
    return x


def figure1_state(z: float) -> DensityMatrix:
    """Qubit family (1/2) [[1-z, 1/2], [1/2, 1+z]] for z in [0, 4/5]."""
    z = _check_z(z)
    return DensityMatrix(0.5 * np.array([[1.0 - z, 0.5], [0.5, 1.0 + z]], dtype=complex))


def figure2_state(x: float) -> DensityMatrix:
    """Qutrit pure family x|1> + 4x|2> + sqrt(1-17x^2)|3> for x in [0, 1/sqrt(17)]."""
    x = _check_x(x)
    vec = np.array([x, 4.0 * x, math.sqrt(max(1.0 - 17.0 * x * x, 0.0))], dtype=complex)
    return DensityMatrix(np.outer(vec, vec.conj()))


def figure1_reference_bounds(z: float) -> tuple[float, float, float]:
    """Closed-form (b1, b2, b3) reference curves for the qubit family."""
    z = _check_z(z)
    b1 = math.sqrt(0.25 + (1.0 - z) ** 2)
    b2 = math.sqrt(1.0 - z * z)
    b3 = 0.5
    return b1, b2, b3


def figure2_reference_bounds(x: float) -> tuple[float, float, float]:
    """Closed-form (b1, b2, b3) reference curves for the qutrit family.

    These are the literature's printed curves, which differ from the bound
    operations on two counts: b1 here is the unsorted evaluation 12x, which
    exceeds the sorted bound_b1 value past x = 1/sqrt(33); and the b3 curve's
    quartic coefficient is 17 where the definitional value of bound_b3 on this
    family has sum(c_i^4) = 1 + 256 = 257, so the curve overshoots for x > 0.
    All three still dominate the l1 measure on the family's range.
    """
    x = _check_x(x)
    tail = math.sqrt(max(1.0 - 17.0 * x * x, 0.0))
    b1 = 12.0 * x
    b2 = (5.0 * x + tail) ** 2 - 1.0
    b3 = math.sqrt(6.0 * max(1.0 - 17.0 * x**4 - (1.0 - 17.0 * x * x) ** 2, 0.0))
    return b1, b2, b3
