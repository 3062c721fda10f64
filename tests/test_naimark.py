"""Definition-level oracle for the three measures: the canonical Naimark dilation
(Bischof, Kampermann & Bruss, PRL 122, 110402 (2019)).

V = sum_j |j> (x) sqrt(E_j) maps C^d isometrically into C^n (x) C^d, sigma = V rho V^dag,
and P_j = |j><j| (x) I is the projective measurement that V dilates the POVM to:
- C_r = S(sum_j P_j sigma P_j) - S(sigma);
- C_l1 = sum_{j != k} ||P_j sigma P_k||_tr;
- C_T,alpha = (sum_j tr[(P_j sigma^alpha P_j)^(1/alpha)] - 1) / (alpha - 1).

The oracle side is plain numpy on the nd x nd matrices (nd <= 36): one eigh or SVD
per matrix, with none of the package's factor forms, support rule or batched kernels.
"""

import numpy as np
import pytest

from helpers import block_projective_povm, random_rank_density, random_unitary
from povmcoh import (
    Povm,
    l1_coherence,
    projective_povm,
    random_povm,
    relative_entropy_coherence,
    tsallis_coherence,
)

TOL = 1e-10
# eigenvalues at or below this are roundoff of a zero: the dilated matrices have
# norm at most 1 and, here, no true eigenvalue this small
ZERO = 1e-12


def _random_povm(d, n):
    return lambda rng: random_povm(d, n, rng)


def _rank_one_projective(d):
    return lambda rng: projective_povm(random_unitary(rng, d))


def _rotated_blocks(d, blocks):
    def build(rng):
        u = random_unitary(rng, d)
        return Povm([u @ e @ u.conj().T for e in block_projective_povm(d, blocks).elements])
    return build


POVMS = {
    **{f"random-d{d}-n{n}": (d, _random_povm(d, n))
       for d, n in [(2, 2), (2, 5), (3, 3), (3, 6), (4, 2), (4, 4), (5, 3), (6, 2), (6, 6)]},
    **{f"projective-d{d}": (d, _rank_one_projective(d)) for d in range(2, 7)},
    "blocks-d4-n2": (4, _rotated_blocks(4, [(0, 1), (2, 3)])),
    "blocks-d6-n3": (6, _rotated_blocks(6, [(0, 1, 2), (3, 4), (5,)])),
}
CASES = [pytest.param(name, rank, id=f"{name}-rank{rank}")
         for name, (d, _) in POVMS.items() for rank in sorted({1, 2, d})]


def _case(name, rank):
    """The (rho, povm) pair of a case, drawn from a generator seeded by its position."""
    d, build = POVMS[name]
    rng = np.random.default_rng([list(POVMS).index(name), rank])
    povm = build(rng)
    return random_rank_density(rng, d, rank), povm


def _eigh(m):
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    return np.where(w > ZERO, w, 0.0), v


def _power(m, a):
    w, v = _eigh(m)
    return (v * w**a) @ v.conj().T


def _entropy(m):
    w, _ = _eigh(m)
    w = w[w > 0.0]
    return float(-np.sum(w * np.log2(w)))


def _dilation(rho, povm):
    """(sigma, [P_j]) for the state and its POVM: sigma = V rho V^dag, nd x nd."""
    n, d = povm.outcomes, povm.dim
    v = np.vstack([_power(e, 0.5) for e in povm.elements])
    projectors = [np.kron(np.diag(np.eye(n)[j]), np.eye(d)) for j in range(n)]
    return v @ rho.mat @ v.conj().T, projectors


@pytest.mark.parametrize("name, rank", CASES)
def test_relative_entropy_is_the_entropy_gained_by_the_dilated_measurement(name, rank):
    rho, povm = _case(name, rank)
    sigma, projectors = _dilation(rho, povm)
    dephased = sum(p @ sigma @ p for p in projectors)
    want = _entropy(dephased) - _entropy(sigma)
    assert abs(relative_entropy_coherence(rho, povm).value - want) <= TOL


@pytest.mark.parametrize("name, rank", CASES)
def test_l1_is_the_trace_norm_of_the_dilated_off_diagonal_blocks(name, rank):
    rho, povm = _case(name, rank)
    sigma, projectors = _dilation(rho, povm)
    want = sum(np.linalg.svd(pj @ sigma @ pk, compute_uv=False).sum()
               for j, pj in enumerate(projectors) for k, pk in enumerate(projectors) if j != k)
    assert abs(l1_coherence(rho, povm).value - want) <= TOL


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.5, 2.0])
@pytest.mark.parametrize("name, rank", CASES)
def test_tsallis_is_the_dilated_block_power_sum(name, rank, alpha):
    rho, povm = _case(name, rank)
    sigma, projectors = _dilation(rho, povm)
    sigma_alpha = _power(sigma, alpha)
    total = sum(np.sum(_eigh(p @ sigma_alpha @ p)[0] ** (1.0 / alpha)) for p in projectors)
    want = (total - 1.0) / (alpha - 1.0)
    assert abs(tsallis_coherence(rho, povm, alpha).value - want) <= TOL
