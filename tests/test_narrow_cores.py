"""Trace norms of cores one or two wide, with no LAPACK SVD.

linalg.stacked_trace_norms takes a row or column vector's norm and the closed form
sqrt(||M||_F^2 + 2 sigma_1 sigma_2) of a two-wide matrix; C_l1 takes the prefix
sums of a pure state's t_j and the Gram entries of rank-one elements.  These are
checked against 50-digit values, also near incoherence, where a total less its
diagonal reads up to 6e-7 relative off.
"""

import mpmath
import numpy as np
import pytest

import mp_oracle
from helpers import random_rank_density, random_unitary
from povmcoh import (
    DensityMatrix,
    Povm,
    holder_bound,
    l1_coherence,
    pair_bounds,
    projective_povm,
    random_povm,
    tsallis_coherence,
)
from povmcoh.linalg import stacked_trace_norms, trace_norm

RATIOS = (1.0, 1.0 - 1e-12, 1e-4, 1e-8, 1e-16, 0.0)
# powers of two, so that a scaled float matrix is the exact multiple of the unscaled one:
# 2^-997 = 7.5e-301 to 2^997 = 1.3e300
SCALES = tuple(2.0 ** e for e in (-997, -498, -60, 0, 60, 498, 997))


def _with_ratio(rng, rows, ratio):
    """A rows x 2 matrix with singular values 1 and ratio, up to its float rounding."""
    u = np.linalg.qr(rng.standard_normal((rows, 2)) + 1j * rng.standard_normal((rows, 2)))[0]
    return (u * [1.0, ratio]) @ random_unitary(rng, 2)


def _mp_trace_norm(m) -> float:
    with mpmath.workdps(50):
        return float(sum(mpmath.svd_c(mpmath.matrix(m.tolist()), compute_uv=False)))


@pytest.mark.parametrize("rows", [2, 3, 8, 32])
@pytest.mark.parametrize("adjoint", [False, True])
def test_two_wide_trace_norms_match_50_digits_at_every_scale(rows, adjoint):
    rng = np.random.default_rng(3200 + rows)
    stack = np.array([_with_ratio(rng, rows, ratio) for ratio in RATIOS])
    if adjoint:
        stack = stack.conj().swapaxes(-1, -2)
    want = np.array([_mp_trace_norm(m) for m in stack])
    for scale in SCALES:
        got = stacked_trace_norms(scale * stack) / scale
        assert np.all(np.abs(got - want) <= 1e-15 * want), (scale, got, want)
        # a zero matrix reads 0, and the scaling it calls for changes no other row's bits
        with_zero = stacked_trace_norms(np.concatenate([scale * stack, np.zeros((1,) + stack.shape[1:])]))
        assert with_zero[-1] == 0.0
        assert np.array_equal(with_zero[:-1], got * scale)
        assert trace_norm(scale * stack[2]) == got[2] * scale  # one matrix: the same bits


@pytest.mark.parametrize("shape", [(3, 1), (1, 8), (32, 1)])
def test_one_wide_trace_norms_match_50_digits_at_every_scale(shape):
    rng = np.random.default_rng(3300 + max(shape))
    stack = rng.standard_normal((4,) + shape) + 1j * rng.standard_normal((4,) + shape)
    want = np.array([_mp_trace_norm(m) for m in stack])
    for scale in SCALES:
        got = stacked_trace_norms(scale * stack) / scale
        assert np.all(np.abs(got - want) <= 1e-15 * want), (scale, got, want)
    assert stacked_trace_norms(np.zeros((2,) + shape)).tolist() == [0.0, 0.0]


def test_narrow_cores_take_no_svd(monkeypatch):
    rng = np.random.default_rng(3400)
    d = 4
    povm = random_povm(d, 3, rng)  # full-rank elements: cores min(k, r) = r wide
    # rank-one elements, 1 wide; exact float projectors, which the 50-digit oracles need
    projective = projective_povm(np.eye(d))
    cases = [(random_rank_density(rng, d, 1), povm), (random_rank_density(rng, d, 2), povm),
             (random_rank_density(rng, d, d), projective)]

    def no_svd(*args, **kwargs):
        raise AssertionError("a core one or two wide needs no SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for rho, e in cases:
        c_l1 = l1_coherence(rho, e).value
        assert abs(c_l1 - mp_oracle.l1_coherence(rho.mat, e.elements)) <= 1e-13 * c_l1
        ordered, uniform = pair_bounds(rho, e)
        assert ordered.bound_value >= c_l1 and uniform.bound_value >= c_l1
        assert holder_bound(rho, e, 3.0, 1.5).bound_value >= c_l1
        c_t = tsallis_coherence(rho, e, 2.0).value
        assert abs(c_t - mp_oracle.tsallis_coherence(rho.mat, e.elements, 2.0)) <= 1e-13


def test_l1_near_incoherence_keeps_its_digits():
    rng = np.random.default_rng(3500)
    d = 4
    # a random pure state against {(1 - delta) I, delta diag(1, 0, ...), delta diag(0, 1, ..., 1)},
    # every element exactly representable: t = (1, ~1e-10, ~1e-10)
    delta = 1e-20
    first = np.zeros((d, d))
    first[0, 0] = delta
    povm = Povm([(1.0 - delta) * np.eye(d), first, delta * np.diag([0.0] + [1.0] * (d - 1))])
    for _ in range(3):
        rho = random_rank_density(rng, d, 1)
        want = mp_oracle.l1_coherence(rho.mat, povm.elements)
        assert abs(l1_coherence(rho, povm).value - want) <= 1e-14 * want
    # a tridiagonal state 1e-10 off its diagonal against the diagonal rank-one projectors,
    # whose eigendecomposition keeps the small entries' digits
    diagonal = projective_povm(np.eye(d))
    for _ in range(3):
        mat = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        off = 1e-10 * (rng.standard_normal(d - 1) + 1j * rng.standard_normal(d - 1))
        mat[np.arange(d - 1), np.arange(1, d)] = off
        mat[np.arange(1, d), np.arange(d - 1)] = off.conj()
        rho = DensityMatrix(mat)
        want = mp_oracle.l1_coherence(rho.mat, diagonal.elements)
        assert abs(l1_coherence(rho, diagonal).value - want) <= 1e-14 * want
