"""Exact Haar averages of the coherence measures, and a Monte Carlo cross-check.

For a Haar-random pure state psi in dimension d and an element E with clamped
spectrum lam, Y = <psi|E|psi> has the law of X / S, where X = lam . g for g_i iid
Exp(1) and S = sum_i g_i ~ Gamma(d) is independent of Y.  So every average needed
here is a moment of X, whose Laplace transform is L(s) = prod_i (1 + s lam_i)^-1:

* E Y^beta   = G(d) E X^beta / G(d + beta)
* E Y ln Y   = (E X ln X - (H_d - gamma) sum(lam)) / d

An integer moment is exact: E X^m = m! h_m(lam), the complete homogeneous
symmetric polynomial.  Otherwise, with mu_i = lam_i / (1 + s lam_i) and
k = floor(beta) + 2 (the k-th derivative of L is (-1)^k k! L h_k(mu)),

* E X^beta  = k! / G(k - beta) int_0^inf s^(k-1-beta) L(s) h_k(mu) ds
* E X ln X  = 2 int_0^inf (-gamma - ln s) L(s) h_2(mu) ds

taken by one exp-sinh trapezoid rule.  L, mu and h_k(mu) are sums and products
of positive terms, with no divided difference, but the rule's error grows with a
cluster of small eigenvalues: see _V.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

import numpy as np

from . import bounds, linalg, measures
from .errors import BetaNonPositiveError, InvalidExponentsError, ValidationError, as_count, as_float, shown
from .objects import Povm, _Record, _set, require_type

# Samples per Monte Carlo chunk; fixed so results don't depend on the thread count.
# A chunk this size takes about 0.7 ms at d = 2 and 3-4 ms at d = 8 (2-CPU Xeon,
# one BLAS thread), against 0.03 ms to hand work to linalg.map_blocks' parked
# helper, so two chunks on two threads beat one chunk twice the size.  Chunks of
# 2048 samples ran slower on two threads than chunks of 4096 at d = 2..8.
MC_CHUNK = 4096
# Largest Monte Carlo sample count; checked before any chunk list or generator exists.
MAX_MC_SAMPLES = 10**8
# Smallest standard error sigma_distance divides by, relative to max(1, |values|):
# 16 ulp.  A measure that is the same for every state (each element a multiple of I,
# or d = 1) samples with a standard error of roundoff, about 1e-18, and the 1-3 ulp
# between its exact average and the sample mean would read as tens of sigma.
MC_ROUNDOFF_FLOOR = 16 * np.finfo(float).eps
# Largest moment order: an order-beta moment costs about beta cumulative sums, so
# the exact averages take alpha >= 1e-4 and Hölder exponents up to 2e4.
MAX_BETA = 1e4
LN2 = math.log(2.0)
EULER_GAMMA = 0.5772156649015329

# Exp-sinh rule on v in [-5, 5], s = exp(pi/2 sinh v) / max(lam) in about
# 1e-50..1e50: weights ds/dv times the trapezoid step.  81 nodes on [-6, 6]
# missed by 1.6e-10 on a spectrum spread over 1e-12..1; these 121 keep 1e-12 there.
# On one eigenvalue 1 and d - 1 clustered at c + 1e-7 linspace(0, 1), the order-1/2
# moment is off the 50-digit value by 1.1e-12 (d = 16, c = 1e-3), 1.1e-11 (d = 16,
# c = 1e-6) and 2.2e-11 (d = 32, c = 1e-3), relative.
_V, _STEP = np.linspace(-5.0, 5.0, 121, retstep=True)
_S = np.exp(0.5 * math.pi * np.sinh(_V))
_W = _S * (0.5 * math.pi * np.cosh(_V)) * _STEP


def _complete_homogeneous(x: np.ndarray, m: int) -> np.ndarray:
    """h_m (m >= 1) of the variables along x's first axis, elementwise over the rest.

    h_j(x_1..x_i) = h_j(x_1..x_(i-1)) + x_i h_(j-1)(x_1..x_i): so with
    g_j[i] = x_i h_(j-1)(x_1..x_i), g_1 = x, g_(j+1) = x cumsum(g_j) and
    h_m = sum(g_m), all sums of positive terms.
    """
    g = x
    for _ in range(m - 1):
        g = np.cumsum(g, axis=0)
        g *= x
    return g.sum(axis=0)


def _laplace_integral(lam: np.ndarray, k: int, weight) -> tuple[np.ndarray, np.ndarray]:
    """(top, int_0^inf weight(s) L(s) h_k(mu) ds) for each row of the (n, k) spectra
    lam, taken on the rescaled spectra lam / top (top = max lam, or 1 for a zero row).

    The densest nodes sit at s = 1, where L turns over.  For k > 8 the integrand
    peaks near s = (k - beta) / k instead, and the nodes move down with it.
    """
    top = lam.max(axis=1)
    top = np.where(top > 0.0, top, 1.0)
    shift = min(1.0, 8.0 / k)
    s = shift * _S
    x = (lam / top[:, None]).T[:, :, None]  # (d, n, 1)
    sx = x * s
    laplace = np.exp(-np.log1p(sx).sum(axis=0))
    return top, (laplace * _complete_homogeneous(x / (1.0 + sx), k)) @ (shift * _W * weight(s))


def _spectra_moments(lam: np.ndarray, d: int, beta: float) -> np.ndarray:
    """E <psi|E_j|psi>^beta in dimension d for each row of the (n, k) clamped
    spectra lam (k <= d: the zero eigenvalues may be left out), beta > 0."""
    if beta > MAX_BETA:
        raise ValidationError(
            f"moment order must be at most {MAX_BETA:g} (alpha >= {1.0 / MAX_BETA:g}, "
            f"Hölder exponents up to {2.0 * MAX_BETA:g}), got {beta:g}")
    # G(d) G(1 + beta) / G(d + beta), as d - 1 factors below 1; times E X^beta / G(1 + beta)
    prefactor = math.prod(i / (beta + i) for i in range(1, d))
    if beta.is_integer():
        return prefactor * _complete_homogeneous(lam.T, int(beta))
    k = math.floor(beta) + 2
    top, integral = _laplace_integral(lam, k, lambda s: s ** (k - 1 - beta))
    log_ratio = math.lgamma(k + 1) - math.lgamma(k - beta) - math.lgamma(beta + 1)
    return prefactor * math.exp(log_ratio) * integral * top**beta


def haar_moment(element: np.ndarray, beta: float) -> float:
    """Average of <psi|E|psi>**beta over Haar-random pure states."""
    beta = as_float(beta, BetaNonPositiveError, "beta")
    if not (0.0 < beta < math.inf):
        raise BetaNonPositiveError(f"beta must be positive and finite, got {beta}")
    w, _ = linalg.eig_hermitian(element)
    return float(_spectra_moments(linalg.clamp_psd_eigenvalues(w)[None, :], w.size, beta)[0])


def haar_average_relative_entropy(povm: Povm) -> float:
    """Exact Haar average of the relative-entropy coherence measure,
    -sum_j E Y_j log2 Y_j."""
    lam, d = require_type(povm, Povm, "povm").root_factors[0], povm.dim
    top, integral = _laplace_integral(lam, 2, lambda s: -EULER_GAMMA - np.log(s))
    # X = top X' gives E X ln X = top E X' ln X' + ln(top) sum(lam)
    harmonic = sum(1.0 / m for m in range(1, d + 1))
    x_ln_x = 2.0 * top * integral + np.log(top) * lam.sum(axis=1)
    y_ln_y = (x_ln_x - (harmonic - EULER_GAMMA) * lam.sum(axis=1)) / d
    return measures._clamp_value(-float(y_ln_y.sum()) / LN2, measures.RELATIVE_ENTROPY)


def haar_average_tsallis(povm: Povm, alpha: float) -> float:
    """Exact Haar average of the Tsallis coherence measure of order alpha."""
    alpha = measures.check_alpha(alpha)
    require_type(povm, Povm, "povm")
    total = float(_spectra_moments(povm.root_factors[0], povm.dim, 1.0 / alpha).sum())
    return measures._clamp_value((total - 1.0) / (alpha - 1.0), measures.TSALLIS)


# measure id -> exact Haar average, called with check_measure_id's extra arguments; l1 has a bound
_EXACT_AVERAGES = {measures.RELATIVE_ENTROPY: haar_average_relative_entropy,
                   measures.TSALLIS: haar_average_tsallis}


def tsallis_half_trace_formula(povm: Povm) -> float:
    """Trace-only closed form of the alpha = 1/2 Haar average:
    2 [ 1 - sum_j ( (tr E_j)^2 + tr E_j^2 ) / (d (d+1)) ]."""
    d, e = require_type(povm, Povm, "povm").dim, povm.elements
    tr = np.real(np.trace(e, axis1=1, axis2=2))
    tr_sq = np.real(np.einsum("jab,jba->j", e, e))
    return 2.0 * (1.0 - float(np.sum(tr * tr + tr_sq)) / (d * (d + 1.0)))


def haar_average_l1_bound(povm: Povm, exponents=None) -> float:
    """Upper bound on the Haar-averaged l1 measure.

    exponents maps ordered pairs (j, k), j != k, to conjugate Hölder pairs
    (p, q).  The default, p = q = 2 everywhere, is the closed form n - 1: each
    pair's terms E Y_j / 2 + E Y_k / 2 sum to (n - 1) sum_j E Y_j = n - 1.
    """
    n = require_type(povm, Povm, "povm").outcomes
    if exponents is None:
        return float(n - 1)
    if not isinstance(exponents, Mapping):
        raise InvalidExponentsError(
            f"exponents must map pairs (j, k) to Hölder pairs (p, q), got {shown(exponents)}")
    moments: dict[float, np.ndarray] = {}

    def moment(j: int, beta: float) -> float:
        if beta not in moments:
            moments[beta] = _spectra_moments(povm.root_factors[0], povm.dim, beta)
        return float(moments[beta][j])

    total = 0.0
    for j in range(n):
        for k in range(n):
            if j == k:
                continue
            try:  # a missing pair or a value that is not a pair
                p, q = bounds.check_exponents(*exponents[(j, k)])
            except (KeyError, TypeError):
                raise InvalidExponentsError(
                    f"exponents[({j}, {k})] must be a Hölder pair (p, q)"
                ) from None
            except InvalidExponentsError as exc:
                raise InvalidExponentsError(f"exponents[({j}, {k})]: {exc}") from None
            total += moment(j, p / 2.0) / p + moment(k, q / 2.0) / q
    return total


# --------------------------------------------------------------------------
# Monte Carlo oracle


class McEstimate(_Record):
    _fields = ("mean", "std_error", "samples")

    def __init__(self, mean: float, std_error: float, samples: int):
        _set(self, "mean", mean)
        _set(self, "std_error", std_error)
        _set(self, "samples", samples)


def _chunk_stats(povm: Povm, count: int, gen: np.random.Generator,
                 value_of, args: tuple) -> tuple[int, float, float]:
    """(count, mean, sum of squared deviations) of value_of(p, *args) over one chunk."""
    # the same two draws as A + 1j B, written straight into one complex array
    g = np.empty((count, povm.dim), dtype=complex)
    g.real = gen.standard_normal((count, povm.dim))
    g.imag = gen.standard_normal((count, povm.dim))
    # the Haar state is g / ||g||: divide the (count, n) weights by ||g||^2, not g
    p = measures.pure_state_probabilities(g, povm)
    gr = g.view(float)
    p /= np.einsum("ij,ij->i", gr, gr)[:, None]
    vals = value_of(p, *args)
    mean = float(vals.mean())
    dev = vals - mean
    return count, mean, float(dev @ dev)


def monte_carlo_average(povm: Povm, measure_id: str, samples: int,
                        rng: np.random.Generator, alpha: float | None = None) -> McEstimate:
    """Monte Carlo Haar average of a measure over pure states.

    The sample budget is split into chunks of MC_CHUNK samples, each driven by
    its own spawned child generator; per-chunk means and squared deviations are
    merged in chunk order (Chan et al.), so the estimate is identical for a given
    rng state whichever thread runs a chunk.  The chunks run through
    linalg.map_blocks: one chunk or one CPU runs on the calling thread, anything
    more shares the work with its one helper thread.
    """
    samples = as_count(samples, ValidationError, "samples")
    if samples < 100:
        raise ValidationError(f"need at least 100 samples, got {shown(samples)}")
    if samples > MAX_MC_SAMPLES:
        raise ValidationError(f"at most {MAX_MC_SAMPLES} samples, got {shown(samples)}")
    require_type(povm, Povm, "povm")
    require_type(rng, np.random.Generator, "rng")
    args = measures.check_measure_id(measure_id, alpha)
    value_of = measures._MEASURES[measure_id][1]
    counts = [MC_CHUNK] * (samples // MC_CHUNK)
    if samples % MC_CHUNK:
        counts.append(samples % MC_CHUNK)
    gens = rng.spawn(len(counts))

    def stats(idx):
        return _chunk_stats(povm, counts[idx], gens[idx], value_of, args)

    parts = linalg.map_blocks(stats, range(len(counts)))

    total, mean, m2 = parts[0]
    for count, chunk_mean, chunk_m2 in parts[1:]:
        delta = chunk_mean - mean
        merged = total + count
        mean += delta * count / merged
        m2 += chunk_m2 + delta * delta * total * count / merged
        total = merged
    return McEstimate(mean, math.sqrt(m2 / (samples - 1) / samples), samples)


class HaarAverageResult(_Record):
    """Analytic Haar average, optionally with an attached MC estimate."""

    _fields = ("analytic", "measure_id", "alpha", "mc_estimate", "mc_std_error", "sample_count")

    def __init__(self, analytic: float, measure_id: str, alpha: float | None = None,
                 mc_estimate: float | None = None, mc_std_error: float | None = None,
                 sample_count: int | None = None):
        _set(self, "analytic", analytic)
        _set(self, "measure_id", measure_id)
        _set(self, "alpha", alpha)
        _set(self, "mc_estimate", mc_estimate)
        _set(self, "mc_std_error", mc_std_error)
        _set(self, "sample_count", sample_count)

    @property
    def sigma_distance(self) -> float | None:
        """|analytic - mc| in standard errors (None unless mc_estimate and mc_std_error are both
        set), the standard error taken as at least MC_ROUNDOFF_FLOOR times max(1, |analytic|, |mc|)."""
        if self.mc_estimate is None or self.mc_std_error is None:
            return None
        floor = MC_ROUNDOFF_FLOOR * max(1.0, abs(self.analytic), abs(self.mc_estimate))
        return abs(self.analytic - self.mc_estimate) / max(self.mc_std_error, floor)


def haar_average(povm: Povm, measure_id: str, alpha: float | None = None,
                 mc_samples: int | None = None,
                 rng: np.random.Generator | None = None) -> HaarAverageResult:
    """Analytic Haar average by measure id; a Monte Carlo cross-check unless mc_samples is 0."""
    args = measures.check_measure_id(measure_id, alpha)
    if measure_id not in _EXACT_AVERAGES:
        raise ValidationError(
            f"no exact Haar average for measure {measure_id!r}; "
            "use haar_average_l1_bound for the l1 bound"
        )
    analytic = _EXACT_AVERAGES[measure_id](povm, *args)
    if mc_samples is None or as_count(mc_samples, ValidationError, "mc_samples") == 0:
        return HaarAverageResult(analytic, measure_id, alpha)
    if rng is None:
        raise ValidationError("mc_samples given without an rng")
    est = monte_carlo_average(povm, measure_id, mc_samples, rng, alpha=alpha)
    return HaarAverageResult(analytic, measure_id, alpha, est.mean, est.std_error, est.samples)
