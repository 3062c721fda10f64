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

import numpy as np

from . import linalg, measures
from .errors import InvalidExponentsError, NumericError, XOutOfRangeError, ZOutOfRangeError, as_float
from .objects import (
    DensityMatrix,
    Povm,
    _check_states,
    _Record,
    _raise_if,
    _set,
    projective_povm,
    require_same_dim,
    require_type,
    require_unitary,
)

EXPONENT_TOL = 1e-12
BOUND_SLACK = 1e-8

X_MAX = 1.0 / math.sqrt(17.0)


class BoundReport(_Record):
    """A certified upper bound on the l1 measure."""

    _fields = ("c_l1_value", "bound_value", "bound_id", "parameters")

    def __init__(self, c_l1_value: float, bound_value: float, bound_id: str, parameters: tuple | None = None):
        _certify(bound_id, c_l1_value, bound_value)
        _set(self, "c_l1_value", c_l1_value)
        _set(self, "bound_value", bound_value)
        _set(self, "bound_id", bound_id)
        _set(self, "parameters", parameters)


def _certify(bound_id: str, c_l1, bound) -> None:
    """NumericError unless the bound is finite and at least the finite l1 value less
    BOUND_SLACK: for one report, or row by row over the columns of a state stack, where
    the message names the first failing row."""
    sound = (abs(c_l1) < math.inf) & (abs(bound) < math.inf) & (bound >= c_l1 - BOUND_SLACK)  # NaN fails
    if sound is not True and not np.all(sound):  # a report's floats give a bool, with no numpy call
        c_l1, bound = (np.ravel(x)[np.argmin(sound)] for x in np.broadcast_arrays(c_l1, bound))
        raise NumericError(
            f"{bound_id} bound {bound:.12e} is not finite or fell below the l1 value {c_l1:.12e}"
        )


def check_exponents(p: float, q: float) -> tuple[float, float]:
    """Conjugate Hölder pair: p, q > 1 with 1/p + 1/q = 1."""
    p, q = as_float(p, InvalidExponentsError, "p"), as_float(q, InvalidExponentsError, "q")
    if not (p > 1.0 and q > 1.0):
        raise InvalidExponentsError(f"exponents must exceed 1, got p={p}, q={q}")
    if max(p, q) == math.inf:  # p = inf passes the sum test with q within EXPONENT_TOL of 1
        raise InvalidExponentsError(f"exponents must be finite, got p={p}, q={q}")
    if abs(1.0 / p + 1.0 / q - 1.0) > EXPONENT_TOL:
        raise InvalidExponentsError(f"1/p + 1/q = {1.0 / p + 1.0 / q} != 1")
    return p, q


# The kernels below take one state or a stack of states as measures' kernels do, and
# return one value per state; the public functions are the case of one state.
def _element_norm_roots(support: tuple, povm: Povm, *powers: float) -> list[np.ndarray]:
    """||E_j^a rho||_tr^(1/(2a)) over the outcomes j, an (..., n) array per power a, in one
    linalg.stacked_trace_norms call with one layer per distinct power (an SVD only for
    min(k, r) >= 3): the Hölder factors (a = p/2, the 1/p-th root) and the pair bounds'
    t_j (a = 1/2, the norm itself).

    For E_j = u_j diag(s_j) u_j^dag and C_j = sqrt(s_j) u_j^dag, E_j^a = u_j s_j^(a - 1/2) C_j,
    and the orthonormal columns of u_j and v drop out: ||E_j^a rho||_tr =
    ||s_j^(a - 1/2) C_j v w||_tr, a row scaling of one measures._factor stack.  At large a
    that norm underflows (1e-211 at p = 1400) while its root does not, so the rows are
    scaled by (s_j / top)^(a - 1/2), top the largest eigenvalue of E_j on which the state
    has weight (1 for none), and top^((a - 1/2) / (2a)) is multiplied back after the
    root.  At a = 1/2 both factors are exactly 1, so the pair bounds keep their bits.
    """
    cvw = measures._factor(support, povm, 1.0)
    distinct = dict.fromkeys(powers)
    top = np.where((cvw != 0.0).any(axis=-1), povm.root_factors[0], 0.0).max(axis=-1)
    top[top == 0.0] = 1.0
    s = np.minimum(povm.root_factors[0] / top[..., None], 1.0)  # the rows above top are zero rows
    stack = np.array([s[..., None] ** (a - 0.5) * cvw for a in distinct])
    norms = linalg.stacked_trace_norms(stack)
    roots = {a: norm ** (0.5 / a) * top ** ((a - 0.5) / (2.0 * a)) for a, norm in zip(distinct, norms)}
    return [roots[a] for a in powers]


def _holder_values(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_{j!=k} a_j b_k per state, from a_j = ||E_j^(p/2) rho||_tr^(1/p) and
    b_k = ||E_k^(q/2) rho||_tr^(1/q)."""
    return a.sum(axis=-1) * b.sum(axis=-1) - linalg.row_dots(a, b)


def _pair_values(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ordered and uniform pair bounds per state from t_j = ||sqrt(E_j) rho||_tr."""
    n = t.shape[-1]
    coeff = n - 1.0 - np.arange(n)
    return 2.0 * linalg.row_dots(coeff, np.sort(t)), (n - 1.0) * t.sum(axis=-1)


def _basis_values(mats: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, ...]:
    """(C_l1, b1, b2, b3) per state of a (..., d, d) stack, for a checked unitary basis B,
    from one frame r = B^dag rho B per state.

    Every cross block of the rank-one projectors |b_j><b_j| is r_jk |b_j><b_k|,
    so the l1 value of the basis measurement is sum_{j!=k} |r_jk|.
    """
    d = basis.shape[0]
    r = basis.conj().T @ mats @ basis
    off = np.abs(r)
    off.reshape(off.shape[:-2] + (-1,))[..., :: d + 1] = 0.0  # the diagonals
    c_l1 = off.sum(axis=(-2, -1))
    # <j|rho^2|j> = (r r^dag)_jj, the squared norm of row j of r
    s = np.linalg.norm(r, axis=-1)
    b1 = 2.0 * linalg.row_dots(d - 1.0 - np.arange(d), np.sort(s))
    diag = np.maximum(r.reshape(r.shape[:-2] + (-1,))[..., :: d + 1].real, 0.0)
    b2 = np.sqrt(diag).sum(axis=-1) ** 2 - 1.0
    # tr rho^2 = sum_jk |r_jk|^2, so the gap is the off-diagonal weight
    b3 = np.sqrt(d * (d - 1.0) * (off * off).sum(axis=(-2, -1)))
    return c_l1, b1, b2, b3


def _bound_columns(mats: np.ndarray, support: tuple, povm: Povm, pq_list, basis) -> np.ndarray:
    """The bound columns of the CLI, (m, columns) for a stack of m states and (1, columns)
    for one: C_l1, the Hölder bound per (p, q) of pq_list and at p = q = 2, the ordered
    and uniform pair bounds and, given the checked basis of a rank-one projective POVM,
    b1, b2 and b3.  Each bound column is certified as its BoundReport would be."""
    c_l1 = measures._cross_block_trace_norms(support, povm)
    pairs = [*pq_list, (2.0, 2.0)]
    t, *roots = _element_norm_roots(support, povm, 0.5, *(a for p, q in pairs for a in (p / 2.0, q / 2.0)))
    columns = [_holder_values(a, b) for a, b in zip(roots[::2], roots[1::2])]
    columns += _pair_values(t)
    for bound_id, column in zip(["thm1"] * len(pq_list) + ["thm1_p2q2", "thm2_ordered", "thm2_uniform"], columns):
        _certify(bound_id, c_l1, column)
    if basis is not None:
        frame_l1, *frame_bounds = _basis_values(mats, basis)
        for bound_id, column in zip(("b1", "b2", "b3"), frame_bounds):
            _certify(bound_id, frame_l1, column)
        columns += frame_bounds
    return np.column_stack([c_l1, *columns])


def holder_bound(rho: DensityMatrix, povm: Povm, p: float, q: float) -> BoundReport:
    """Factorized bound sum_{j!=k} ||E_j^(p/2) rho||^(1/p) ||E_k^(q/2) rho||^(1/q)."""
    p, q = check_exponents(p, q)
    value = _holder_values(*_element_norm_roots(measures._one_state(rho, povm), povm, p / 2.0, q / 2.0))
    c_l1 = measures.l1_coherence(rho, povm).value
    return BoundReport(c_l1, float(value), "thm1", (p, q))


def holder_bound_22(rho: DensityMatrix, povm: Povm) -> BoundReport:
    """holder_bound at p = q = 2, (sum_j ||E_j rho||^(1/2))^2 - sum_j ||E_j rho||, under
    its own id."""
    report = holder_bound(rho, povm, 2.0, 2.0)
    return BoundReport(report.c_l1_value, report.bound_value, "thm1_p2q2", report.parameters)


def pair_bounds(rho: DensityMatrix, povm: Povm) -> tuple[BoundReport, BoundReport]:
    """Sorted and uniform pair bounds from t_j = ||sqrt(E_j) rho||_tr = ||C_j v w||_tr.

    sorted:  2 sum_j (n - j) t_(j)  with t_(1) <= ... <= t_(n)
    uniform: (n - 1) sum_j t_j
    """
    (t,) = _element_norm_roots(measures._one_state(rho, povm), povm, 0.5)
    ordered, uniform = map(float, _pair_values(t))
    c_l1 = measures.l1_coherence(rho, povm).value
    return BoundReport(c_l1, ordered, "thm2_ordered"), BoundReport(c_l1, uniform, "thm2_uniform")


def basis_bounds(rho: DensityMatrix, basis: np.ndarray) -> tuple[BoundReport, BoundReport, BoundReport]:
    """(b1, b2, b3) for a unitary basis B of rho's dimension, from one frame r = B^dag rho B."""
    basis = require_unitary(basis)
    require_same_dim(require_type(rho, DensityMatrix, "rho").dim, basis.shape[0])
    c_l1, *values = map(float, _basis_values(rho.mat, basis))
    return tuple(BoundReport(c_l1, value, bound_id) for value, bound_id in zip(values, ("b1", "b2", "b3")))


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


def _check_parameters(values: np.ndarray, figure: int) -> np.ndarray:
    """values, or the family's range error for the first one outside [0, end]."""
    name, end, error, *_ = _FAMILIES[figure]
    outside = ~((values >= 0.0) & (values <= end))  # NaN is outside
    if outside.any():
        raise error(f"{name} must lie in [0, {end!r}], got {float(values[outside][0])}")
    return values


def _parameter(value, figure: int) -> np.ndarray:
    """One checked parameter as the one-row array of the family stacks."""
    name, _, error, *_ = _FAMILIES[figure]
    return _check_parameters(np.array([as_float(value, error, name)]), figure)


def _figure1_rows(z: np.ndarray) -> np.ndarray:
    """The (m, 2, 2) stack (1/2) [[1-z, 1/2], [1/2, 1+z]] over the z values."""
    rows = np.empty((len(z), 2, 2), dtype=complex)
    rows[:, 0, 0], rows[:, 1, 1] = 1.0 - z, 1.0 + z
    rows[:, 0, 1] = rows[:, 1, 0] = 0.5
    return 0.5 * rows


def _figure2_rows(x: np.ndarray) -> np.ndarray:
    """The (m, 3, 3) stack |c><c| of c = (x, 4x, sqrt(1 - 17x^2)) over the x values."""
    c = np.stack([x, 4.0 * x, np.sqrt(np.maximum(1.0 - 17.0 * x * x, 0.0))], axis=-1).astype(complex)
    return c[:, :, None] * c.conj()[:, None, :]


def _figure1_references(z: np.ndarray) -> np.ndarray:
    """The (m, 3) closed-form (b1, b2, b3) curves of the qubit family."""
    return np.column_stack([np.sqrt(0.25 + (1.0 - z) ** 2), np.sqrt(1.0 - z * z), np.full(len(z), 0.5)])


def _figure2_references(x: np.ndarray) -> np.ndarray:
    """The (m, 3) closed-form (b1, b2, b3) curves of the qutrit family."""
    tail = np.sqrt(np.maximum(1.0 - 17.0 * x * x, 0.0))
    # sqrt(6 (1 - 17x^4 - (1 - 17x^2)^2)) = x sqrt(204 - 1836x^2) for x >= 0, without
    # the cancellation of the printed form near x = 0
    b3 = x * np.sqrt(204.0 - 1836.0 * x * x)
    return np.column_stack([12.0 * x, (5.0 * x + tail) ** 2 - 1.0, b3])


# figure -> (parameter name, interval end, range error, dimension, state stack, reference curves)
_FAMILIES = {1: ("z", 0.8, ZOutOfRangeError, 2, _figure1_rows, _figure1_references),
             2: ("x", X_MAX, XOutOfRangeError, 3, _figure2_rows, _figure2_references)}


def figure1_state(z: float) -> DensityMatrix:
    """Qubit family (1/2) [[1-z, 1/2], [1/2, 1+z]] for z in [0, 4/5]."""
    return DensityMatrix(_figure1_rows(_parameter(z, 1))[0])


def figure2_state(x: float) -> DensityMatrix:
    """Qutrit pure family x|1> + 4x|2> + sqrt(1-17x^2)|3> for x in [0, 1/sqrt(17)]."""
    return DensityMatrix(_figure2_rows(_parameter(x, 2))[0])


def figure1_reference_bounds(z: float) -> tuple[float, float, float]:
    """Closed-form (b1, b2, b3) reference curves for the qubit family."""
    return tuple(_figure1_references(_parameter(z, 1))[0].tolist())


def figure2_reference_bounds(x: float) -> tuple[float, float, float]:
    """Closed-form (b1, b2, b3) reference curves for the qutrit family.

    These are the literature's printed curves, which differ from the bound
    operations on two counts: b1 here is the unsorted evaluation 12x, which
    exceeds the sorted bound_b1 value past x = 1/sqrt(33); and the b3 curve's
    quartic coefficient is 17 where the definitional value of bound_b3 on this
    family has sum(c_i^4) = 1 + 256 = 257, so the curve overshoots for x > 0.
    All three still dominate the l1 measure on the family's range.
    """
    return tuple(_figure2_references(_parameter(x, 2))[0].tolist())


def _figure_sweep(figure: int, grid: np.ndarray, pq_list):
    """The CSV rows of a figure replay over a grid of the family's parameter, as (rows,
    columns) arrays, one per block of rows (linalg.blocks): the parameter, the
    _bound_columns of its states in the figure's basis and the three reference curves.

    The grid and the basis are checked once, before the first block is made; each
    block's states are validated in one pass (objects._check_states)."""
    _check_parameters(grid, figure)
    *_, d, states, references = _FAMILIES[figure]
    basis = require_unitary(np.eye(d))
    povm = projective_povm(basis)

    def block(values: np.ndarray) -> np.ndarray:
        violations, checked = _check_states(states(values), "row_")
        _raise_if(violations, "state family")
        mats, support = checked
        return np.column_stack([values, _bound_columns(mats, support, povm, pq_list, basis), references(values)])

    return (block(grid[rows]) for rows in linalg.blocks(grid.size, d * d))
