"""Reference values from the definitions, computed apart from povmcoh.

States enter as a generating factor A (rho = A A^dag with tr = 1, A of shape
d x r) and measurements as factors K_j (E_j = K_j K_j^dag).  Every spectral
quantity is then a singular value of a product of factors, so rank-deficient
states need no eigenvalue clamping.  Exact Haar averages are divided
differences evaluated in mpmath at HAAR_DPS digits, and the projective cases
use the Beta-distribution closed forms.

This module never imports povmcoh.
"""

import math

import mpmath
import numpy as np

HAAR_DPS = 120


def _sv(m: np.ndarray) -> np.ndarray:
    return np.linalg.svd(m, compute_uv=False)


def _shannon_bits(p: np.ndarray) -> float:
    p = p[p > 0.0]
    return float(-np.sum(p * np.log2(p)))


def _power_from_factor(k: np.ndarray, a: float) -> np.ndarray:
    """E^a for E = K K^dag: with K = U S V^dag, E^a = U S^(2a) U^dag."""
    u, s, _ = np.linalg.svd(k, full_matrices=False)
    return (u * s ** (2.0 * a)) @ u.conj().T


def roots(ks) -> list[np.ndarray]:
    return [_power_from_factor(k, 0.5) for k in ks]


def _rho(a: np.ndarray) -> np.ndarray:
    return a @ a.conj().T


# --------------------------------------------------------------------------
# the three measures


def relative_entropy(a: np.ndarray, ks) -> float:
    """sum_j S(sqrt(E_j) rho sqrt(E_j)) - S(rho); the block spectrum is that of K_j^dag A."""
    total = sum(_shannon_bits(_sv(k.conj().T @ a) ** 2) for k in ks)
    return total - _shannon_bits(_sv(a) ** 2)


def l1(a: np.ndarray, ks, sqrt_e=None) -> float:
    """sum_{j != k} ||sqrt(E_j) rho sqrt(E_k)||_tr = sum ||R_j R_k^dag||_tr, R_j = sqrt(E_j) A.

    For r < d each R_j is reduced to its r x r triangular core by a thin QR,
    which leaves every trace norm unchanged.
    """
    sqrt_e = roots(ks) if sqrt_e is None else sqrt_e
    d, r = a.shape
    cores = [root @ a for root in sqrt_e]
    if r < d:
        cores = [np.linalg.qr(c)[1] for c in cores]
    total = 0.0
    for j in range(len(cores)):
        for k in range(j + 1, len(cores)):
            total += 2.0 * float(np.sum(_sv(cores[j] @ cores[k].conj().T)))
    return total


def tsallis(a: np.ndarray, ks, alpha: float, sqrt_e=None) -> float:
    """[sum_j tr(sqrt(E_j) rho^alpha sqrt(E_j))^(1/alpha) - 1] / (alpha - 1).

    With A = U s V^dag, rho^(alpha/2) = U s^alpha U^dag, so the j-th trace is
    sum sigma^(2/alpha) over the singular values of sqrt(E_j) U s^alpha.
    """
    sqrt_e = roots(ks) if sqrt_e is None else sqrt_e
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    half = u * s**alpha
    total = sum(float(np.sum(_sv(root @ half) ** (2.0 / alpha))) for root in sqrt_e)
    return (total - 1.0) / (alpha - 1.0)


def probabilities(psi: np.ndarray, ks) -> np.ndarray:
    """p_j = <psi|E_j|psi> = ||K_j^dag psi||^2."""
    return np.array([float(np.sum(np.abs(k.conj().T @ psi) ** 2)) for k in ks])


def pure_relative_entropy(p: np.ndarray) -> float:
    return _shannon_bits(p)


def pure_l1(p: np.ndarray) -> float:
    return float(np.sum(np.sqrt(p)) ** 2 - np.sum(p))


def pure_tsallis(p: np.ndarray, alpha: float) -> float:
    return float((np.sum(p ** (1.0 / alpha)) - 1.0) / (alpha - 1.0))


def incoherence_defect(rho: np.ndarray, elements) -> float:
    """max_{j != k} max|E_j rho E_k|."""
    return max(float(np.max(np.abs(ej @ rho @ ek)))
               for j, ej in enumerate(elements) for k, ek in enumerate(elements) if j != k)


# --------------------------------------------------------------------------
# bounds on the l1 measure


def holder(rho: np.ndarray, ks, p: float, q: float) -> float:
    """sum_{j != k} ||E_j^(p/2) rho||_tr^(1/p) ||E_k^(q/2) rho||_tr^(1/q)."""
    x = np.array([float(np.sum(_sv(_power_from_factor(k, p / 2.0) @ rho))) ** (1.0 / p) for k in ks])
    y = np.array([float(np.sum(_sv(_power_from_factor(k, q / 2.0) @ rho))) ** (1.0 / q) for k in ks])
    return float(x.sum() * y.sum() - np.dot(x, y))


def holder_22(rho: np.ndarray, ks) -> float:
    """(sum_j ||E_j rho||_tr^(1/2))^2 - sum_j ||E_j rho||_tr."""
    t = np.array([float(np.sum(_sv(k @ (k.conj().T @ rho)))) for k in ks])
    return float(np.sum(np.sqrt(t)) ** 2 - np.sum(t))


def pair_bounds(rho: np.ndarray, ks, sqrt_e=None) -> tuple[float, float]:
    """Sorted 2 sum_j (n-1-j) t_(j) (t ascending) and uniform (n-1) sum_j t_j,
    with t_j = ||sqrt(E_j) rho||_tr."""
    sqrt_e = roots(ks) if sqrt_e is None else sqrt_e
    t = np.array([float(np.sum(_sv(root @ rho))) for root in sqrt_e])
    n = t.size
    return float(2.0 * np.dot(n - 1.0 - np.arange(n), np.sort(t))), float((n - 1.0) * t.sum())


def basis_bounds(rho: np.ndarray, basis: np.ndarray) -> tuple[float, float, float]:
    """b1, b2, b3 for the rank-one projective measurement onto the columns of basis."""
    d = rho.shape[0]
    diag = np.real(np.einsum("ij,ik,kj->j", basis.conj(), rho, basis))
    second = np.real(np.einsum("ij,ik,kj->j", basis.conj(), rho @ rho, basis))
    b1 = float(2.0 * np.dot(d - 1.0 - np.arange(d), np.sort(np.sqrt(np.clip(second, 0.0, None)))))
    b2 = float(np.sum(np.sqrt(np.clip(diag, 0.0, None))) ** 2 - 1.0)
    purity = float(np.real(np.trace(rho @ rho)))
    b3 = math.sqrt(max(d * (d - 1.0) * (purity - float(np.sum(diag**2))), 0.0))
    return b1, b2, b3


# --------------------------------------------------------------------------
# least-square measurement and the uncertainty relation


def _lsm_error(members, weights, avg_factor) -> float:
    """1 - sum_i w_i tr(M_i rho_i), M_i = w_i W rho_i W, W = rho_avg^(-1/2) on its support."""
    u, s, _ = np.linalg.svd(avg_factor, full_matrices=False)
    keep = s > 1e-7 * s[0]
    w_inv = (u[:, keep] / s[keep]) @ u[:, keep].conj().T
    success = 0.0
    for wi, rho_i in zip(weights, members):
        m = wi * (w_inv @ rho_i @ w_inv)
        success += wi * float(np.real(np.trace(m @ rho_i)))
    return 1.0 - success


def steered_ensemble(a: np.ndarray, ks) -> tuple[list, np.ndarray]:
    """eta_j = tr(rho E_j), rho_j = sqrt(rho) E_j sqrt(rho) / eta_j."""
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    root = (u * s) @ u.conj().T
    blocks = [root @ k @ k.conj().T @ root for k in ks]
    eta = np.array([float(np.real(np.trace(b))) for b in blocks])
    return [b / e for b, e in zip(blocks, eta)], eta


def lsm_error_steered(a: np.ndarray, ks) -> float:
    """LSM error of the ensemble steered by (rho, E); its average state is rho."""
    members, eta = steered_ensemble(a, ks)
    return _lsm_error(members, eta, a)


def lsm_error_ensemble(factors, weights) -> float:
    members = [_rho(f) for f in factors]
    stacked = np.hstack([math.sqrt(w) * f for w, f in zip(weights, factors)])
    return _lsm_error(members, weights, stacked)


def overlap_c(e_ks, f_ks) -> float:
    """c = max_{jk} ||sqrt(E_j) sqrt(F_k)||_op."""
    re, rf = roots(e_ks), roots(f_ks)
    return max(float(_sv(x @ y)[0]) for x in re for y in rf)


def overlap_c_prime(e_elements, f_elements) -> float:
    """c' = min(max_k ||sum_j E_j F_k E_j||, max_j ||sum_k F_k E_j F_k||)."""
    first = max(float(_sv(sum(ej @ fk @ ej for ej in e_elements))[0]) for fk in f_elements)
    second = max(float(_sv(sum(fk @ ej @ fk for fk in f_elements))[0]) for ej in e_elements)
    return min(first, second)


def entropy(a: np.ndarray) -> float:
    return _shannon_bits(_sv(a) ** 2)


# --------------------------------------------------------------------------
# exact Haar averages


def divided_difference(nodes, f) -> mpmath.mpf:
    """f[x_1..x_m] = sum_i f(x_i) / prod_{k != i} (x_i - x_k), distinct nodes, in mpmath."""
    xs = [mpmath.mpf(float(x)) for x in nodes]
    if len(set(xs)) != len(xs):
        raise ValueError("the explicit divided difference needs distinct nodes")
    total = mpmath.mpf(0)
    for i, xi in enumerate(xs):
        den = mpmath.mpf(1)
        for k, xk in enumerate(xs):
            if k != i:
                den *= xi - xk
        total += f(xi) / den
    return total


def haar_relative_entropy(spectra) -> float:
    """avg C_r = -sum_j g[lambda^(j)] / (d ln 2), g(w) = w^d (ln w - (H_d - 1)).

    g is the (d-1)-fold primitive of w ln w up to the factor (d-1)!/d!, and by
    Hermite-Genocchi E f(<psi|E|psi>) = (d-1)! F[lambda], F^(d-1) = f.
    """
    with mpmath.workdps(HAAR_DPS):
        d = len(spectra[0])
        shift = mpmath.harmonic(d) - 1

        def g(w):
            return w**d * (mpmath.log(w) - shift)

        total = sum(divided_difference(lam, g) for lam in spectra)
        return float(-total / (d * mpmath.log(2)))


def haar_moment(spectrum, beta: float) -> mpmath.mpf:
    """E <psi|E|psi>^beta = (d-1)! Gamma(beta+1)/Gamma(beta+d) (w^(beta+d-1))[lambda]."""
    d = len(spectrum)
    beta = mpmath.mpf(beta)
    pre = mpmath.factorial(d - 1) * mpmath.gamma(beta + 1) / mpmath.gamma(beta + d)
    return pre * divided_difference(spectrum, lambda w: w ** (beta + d - 1))


def haar_tsallis(spectra, alpha: float) -> float:
    with mpmath.workdps(HAAR_DPS):
        total = sum(haar_moment(lam, 1.0 / alpha) for lam in spectra)
        return float((total - 1) / (mpmath.mpf(alpha) - 1))


def haar_projective_relative_entropy(d: int) -> float:
    """Rank-one projective, n = d: p ~ Beta(1, d-1), E[-p ln p] = (H_d - 1)/d."""
    return float((mpmath.harmonic(d) - 1) / mpmath.log(2))


def haar_projective_tsallis(d: int, alpha: float) -> float:
    """E[p^beta] = Gamma(1+beta) Gamma(d) / Gamma(d+beta) for p ~ Beta(1, d-1)."""
    beta = 1.0 / alpha
    moment = mpmath.gamma(1 + beta) * mpmath.gamma(d) / mpmath.gamma(d + beta)
    return float((d * moment - 1) / (alpha - 1.0))


def haar_l1_bound(n: int) -> float:
    """The p = q = 2 bound sum_{j != k} (E p_j + E p_k)/2 = (n - 1) sum_j tr(E_j)/d = n - 1."""
    return float(n - 1)
