"""The stacked kernels: one call for a stack of states against one POVM.

The measure and bound kernels take the supports of m states, padded to one rank
(objects._check_states), and the single-state functions are their m = 1 case.
A figure sweep evaluates its rows through them in blocks of rows.
"""

import contextlib
import io
import json

import numpy as np
import pytest

from helpers import random_rank_density, random_unitary
from povmcoh import (
    NumericError,
    figure1_reference_bounds,
    figure1_state,
    figure2_reference_bounds,
    figure2_state,
    holder_bound,
    holder_bound_22,
    l1_coherence,
    pair_bounds,
    projective_povm,
    random_povm,
    relative_entropy_coherence,
    tsallis_coherence,
)
from povmcoh import bounds, cli, linalg, measures, objects
from povmcoh.bounds import basis_bounds

PQ = [(3.0, 1.5)]


def _family(rng, d):
    """Rows of rank 1, 2 and d, twice over, as one (6, d, d) stack."""
    return np.array([random_rank_density(rng, d, rank).mat for rank in (1, 2, d, d, 2, 1)])


def _povm(kind, rng, d):
    if kind == "projective":
        basis = random_unitary(rng, d)
        return projective_povm(basis), basis
    return random_povm(d, d + 1, rng), None


def _single_columns(rho, povm, basis):
    """The bound columns of one state from the public single-state functions."""
    ordered, uniform = pair_bounds(rho, povm)
    row = [l1_coherence(rho, povm).value, *(holder_bound(rho, povm, p, q).bound_value for p, q in PQ),
           holder_bound_22(rho, povm).bound_value, ordered.bound_value, uniform.bound_value]
    return row + ([report.bound_value for report in basis_bounds(rho, basis)] if basis is not None else [])


def _stack(mats):
    violations, (stack, support) = objects._check_states(mats, "row_")
    assert violations == []
    return stack, support


@pytest.mark.parametrize("d", [4, 6])
@pytest.mark.parametrize("kind", ["random", "projective"])
def test_stacked_rows_equal_the_single_state_functions(d, kind):
    rng = np.random.default_rng(2500 + d)
    povm, basis = _povm(kind, rng, d)
    stack, support = _stack(_family(rng, d))
    assert support[0].shape == (6, d)  # padded to the largest rank
    table = bounds._bound_columns(stack, support, povm, PQ, basis)
    states = [objects.DensityMatrix(m) for m in stack]
    for row, rho in zip(table, states):
        want = np.array(_single_columns(rho, povm, basis))
        np.testing.assert_allclose(row, want, rtol=1e-15, atol=0.0)
    # the measures: C_r and C_T subtract, so they are held to an absolute tolerance
    entropies = measures._block_entropies(support, povm)
    for alpha in (0.5, 2.0, 0.3):
        values = measures._tsallis_value(support, povm, alpha)
        want = [tsallis_coherence(rho, povm, alpha).value for rho in states]
        np.testing.assert_allclose(np.maximum(values, 0.0), want, rtol=0.0, atol=1e-14)
    want = [relative_entropy_coherence(rho, povm).value for rho in states]
    np.testing.assert_allclose(np.maximum(entropies, 0.0), want, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("kind", ["random", "projective"])
def test_a_stack_of_one_rank_has_the_bits_of_the_single_state_path(kind):
    rng = np.random.default_rng(2510)
    povm, basis = _povm(kind, rng, 5)
    stack, support = _stack(np.array([random_rank_density(rng, 5, 3).mat for _ in range(4)]))
    table = bounds._bound_columns(stack, support, povm, PQ, basis)
    for row, m in zip(table, stack):
        rho = objects.DensityMatrix(m)
        assert row.tolist() == _single_columns(rho, povm, basis)
        one = bounds._bound_columns(rho.mat, measures._one_state(rho, povm), povm, PQ, basis)
        assert one[0].tolist() == row.tolist()


def test_the_family_states_are_the_rows_of_the_sweep_stacks():
    z = np.linspace(0.0, 0.8, 9)
    x = np.linspace(0.0, bounds.X_MAX, 9)
    for value, row, ref in zip(z, bounds._figure1_rows(z), bounds._figure1_references(z)):
        assert np.array_equal(figure1_state(value).mat, row)
        assert figure1_reference_bounds(value) == tuple(ref.tolist())
    for value, row, ref in zip(x, bounds._figure2_rows(x), bounds._figure2_references(x)):
        assert np.array_equal(figure2_state(value).mat, row)
        assert figure2_reference_bounds(value) == tuple(ref.tolist())


def _sweep(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("figure", ["1", "2"])
def test_a_sweep_in_blocks_of_rows_prints_the_bytes_of_one_block(monkeypatch, figure):
    argv = ["bounds", "--figure", figure, "--pq", "3,1.5"]
    monkeypatch.setattr(linalg, "BLOCK_ENTRIES", 1 << 30)
    whole = _sweep(argv)
    blocks = []
    original = bounds._bound_columns
    monkeypatch.setattr(bounds, "_bound_columns",
                        lambda mats, *rest: blocks.append(len(mats)) or original(mats, *rest))
    monkeypatch.setattr(linalg, "BLOCK_ENTRIES", 64)  # 16 rows of 2 x 2 states, 7 of 3 x 3
    assert _sweep(argv) == whole
    assert whole[0] == 0 and len(blocks) > 5 and sum(blocks) == len(whole[1].splitlines()) - 1


def test_a_bound_below_c_l1_fails_its_row(monkeypatch, capsys):
    original = bounds._pair_values

    def low_on_one_row(t):
        ordered, uniform = original(t)
        uniform = uniform.copy()
        uniform[-1] = 0.0  # the last row of each block: the true C_l1 is 0.5
        return ordered, uniform

    monkeypatch.setattr(bounds, "_pair_values", low_on_one_row)
    with pytest.raises(NumericError, match="thm2_uniform bound 0.000000000000e"):
        next(bounds._figure_sweep(1, np.array([0.1, 0.2, 0.3]), PQ))
    code = cli.main(["bounds", "--figure", "1"])
    captured = capsys.readouterr()
    assert code == 4
    assert json.loads(captured.err)["error"]["type"] == "NumericError"
    assert captured.out.count("\n") == 1  # the header; the block with the row prints nothing


def test_the_soundness_check_names_the_first_failing_row():
    c_l1 = np.array([1.0, 2.0, 3.0, 4.0])
    bounds._certify("b1", c_l1, c_l1 - 0.5 * bounds.BOUND_SLACK)  # within the slack
    with pytest.raises(NumericError, match=r"b2 bound 1.500000000000e\+00 is not finite or fell below "
                                           r"the l1 value 2.000000000000e\+00"):
        bounds._certify("b2", c_l1, np.array([1.0, 1.5, np.nan, 0.0]))
    with pytest.raises(NumericError, match="inf"):
        bounds._certify("b3", c_l1, np.array([1.0, 2.0, np.inf, 4.0]))
