"""Exact Haar averages of the coherence measures, and a Monte Carlo cross-check.

For a Haar-random pure state the average of f(<psi|A|psi>) over the unit
sphere reduces to a divided difference of a primitive of f over the spectrum
of A.  Two function families cover every average used here:

* power:      w^c                       (moments of the measured weight)
* power_log:  w^d (ln w - s)            (the entropy kernel; s a harmonic shift)

Repeated eigenvalues are handled confluently: nodes within an absolute
tolerance are snapped to their cluster mean and the divided-difference table
uses analytic derivatives, f[x,...,x] (m+1 nodes) = f^(m)(x) / m!.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import linalg, measures
from .errors import (
    BetaNonPositiveError,
    DerivativeUnavailableError,
    DomainError,
    ValidationError,
)
from .objects import Povm

# Nodes closer than this (absolute, chained) merge into one confluent cluster.
CLUSTER_TOL = 1e-8
# Samples per Monte Carlo chunk; fixed so results don't depend on worker count.
MC_CHUNK = 8192
LN2 = math.log(2.0)


@dataclass(frozen=True)
class PowerFunction:
    """w -> w**exponent on [0, inf), with derivatives of every order."""

    exponent: float

    def eval(self, w: float, order: int = 0) -> float:
        c = self.exponent
        coeff = 1.0
        for i in range(order):
            coeff *= c - i
        if coeff == 0.0:
            return 0.0
        power = c - order
        if w == 0.0:
            if power > 0.0:
                return 0.0
            if power == 0.0:
                return coeff
            raise DerivativeUnavailableError(
                f"derivative of order {order} of w^{c} diverges at w = 0"
            )
        if w < 0.0:
            raise DomainError(f"power function evaluated at negative node {w}")
        return coeff * w**power


@dataclass(frozen=True)
class PowerLogFunction:
    """w -> w**degree (ln w - shift), extended by continuity to 0.

    The first degree-1 derivatives vanish at w = 0, which is exactly what the
    confluent table needs for PSD spectra.
    """

    degree: int
    shift: float

    def eval(self, w: float, order: int = 0) -> float:
        d = self.degree
        if w < 0.0:
            raise DomainError(f"power-log function evaluated at negative node {w}")
        if w == 0.0:
            if order < d:
                return 0.0
            raise DerivativeUnavailableError(
                f"derivative of order {order} of w^{d} ln w diverges at w = 0"
            )
        # h = w^d ln w:  h^(m) = P_m w^(d-m) ln w + Q_m w^(d-m)
        # with P_0 = 1, Q_0 = 0, P_(m+1) = (d-m) P_m, Q_(m+1) = P_m + (d-m) Q_m.
        p, q = 1.0, 0.0
        for m in range(order):
            p, q = (d - m) * p, p + (d - m) * q
        return w ** (d - order) * (p * (math.log(w) - self.shift) + q)


def _cluster_nodes(nodes, cluster_tol: float) -> np.ndarray:
    """Sort, chain-cluster within cluster_tol, snap each cluster to its mean."""
    xs = np.sort(np.asarray(nodes, dtype=float))
    if xs.size == 0:
        raise ValidationError("divided difference needs at least one node")
    if not np.all(np.isfinite(xs)):
        raise ValidationError("divided difference nodes must be finite")
    snapped = np.empty_like(xs)
    start = 0
    for i in range(1, xs.size + 1):
        if i == xs.size or xs[i] - xs[i - 1] > cluster_tol:
            snapped[start:i] = xs[start:i].mean()
            start = i
    return snapped


def divided_difference(nodes, fn, cluster_tol: float = CLUSTER_TOL) -> float:
    """Newton divided difference f[x_1, ..., x_n] with confluent repeated nodes."""
    xs = _cluster_nodes(nodes, cluster_tol)
    n = xs.size
    col = [fn.eval(x, 0) for x in xs]
    for j in range(1, n):
        nxt = []
        for i in range(n - j):
            if xs[i + j] == xs[i]:
                nxt.append(fn.eval(xs[i], j) / math.factorial(j))
            else:
                nxt.append((col[i + 1] - col[i]) / (xs[i + j] - xs[i]))
        col = nxt
    return float(col[0])


def _clamped_spectrum(element: np.ndarray) -> np.ndarray:
    w, _ = linalg.eig_hermitian(element)
    return linalg.clamp_psd_eigenvalues(w)


def haar_moment(element: np.ndarray, beta: float) -> float:
    """Average of <psi|E|psi>**beta over Haar-random pure states.

    Equals G(d) G(1+beta) / G(d+beta) times the divided difference of
    w^(d+beta-1) over the spectrum of E; the Gamma prefactor telescopes to the
    exact product (d-1)! / prod_{i=1..d-1} (beta + i).
    """
    beta = float(beta)
    if beta <= 0.0:
        raise BetaNonPositiveError(f"beta must be positive, got {beta}")
    lam = _clamped_spectrum(element)
    d = lam.size
    prefactor = float(math.factorial(d - 1))
    for i in range(1, d):
        prefactor /= beta + i
    return prefactor * divided_difference(lam, PowerFunction(d + beta - 1.0))


def harmonic_shift(d: int) -> float:
    """sum_{m=2..d} 1/m (zero for d = 1)."""
    return sum(1.0 / m for m in range(2, d + 1))


def haar_average_relative_entropy(povm: Povm) -> float:
    """Exact Haar average of the relative-entropy coherence measure."""
    d = povm.dim
    g = PowerLogFunction(d, harmonic_shift(d))
    total = sum(divided_difference(_clamped_spectrum(e), g) for e in povm.elements)
    return -total / (d * LN2)


def haar_average_tsallis(povm: Povm, alpha: float) -> float:
    """Exact Haar average of the Tsallis coherence measure of order alpha."""
    alpha = measures.check_alpha(alpha)
    total = sum(haar_moment(e, 1.0 / alpha) for e in povm.elements)
    return (total - 1.0) / (alpha - 1.0)


def tsallis_half_trace_formula(povm: Povm) -> float:
    """Trace-only closed form of the alpha = 1/2 Haar average:
    2 [ 1 - sum_j ( (tr E_j)^2 + tr E_j^2 ) / (d (d+1)) ]."""
    d = povm.dim
    total = 0.0
    for e in povm.elements:
        tr = float(np.real(np.trace(e)))
        tr_sq = float(np.real(np.trace(e @ e)))
        total += tr * tr + tr_sq
    return 2.0 * (1.0 - total / (d * (d + 1.0)))


def haar_average_l1_bound(povm: Povm, exponents=None) -> float:
    """Upper bound on the Haar-averaged l1 measure.

    exponents maps ordered pairs (j, k), j != k, to conjugate Hölder pairs
    (p, q); the default uses p = q = 2 everywhere, where the bound collapses
    to exactly n - 1.
    """
    from .bounds import check_exponents  # local import; bounds pulls measures

    n = povm.outcomes
    moments: dict[tuple[int, float], float] = {}

    def moment(j: int, beta: float) -> float:
        key = (j, beta)
        if key not in moments:
            moments[key] = haar_moment(povm.elements[j], beta)
        return moments[key]

    total = 0.0
    for j in range(n):
        for k in range(n):
            if j == k:
                continue
            p, q = (2.0, 2.0) if exponents is None else exponents[(j, k)]
            p, q = check_exponents(p, q)
            total += moment(j, p / 2.0) / p + moment(k, q / 2.0) / q
    return total


# --------------------------------------------------------------------------
# Monte Carlo oracle


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    samples: int


def _chunk_stats(povm: Povm, count: int, gen: np.random.Generator,
                 value_of) -> tuple[int, float, float]:
    """(count, mean, sum of squared deviations) of one chunk of samples."""
    psi = gen.standard_normal((count, povm.dim)) + 1j * gen.standard_normal((count, povm.dim))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    vals = value_of(measures.pure_state_probabilities(psi, povm))
    mean = float(vals.mean())
    return count, mean, float(np.sum((vals - mean) ** 2))


def monte_carlo_average(povm: Povm, measure_id: str, samples: int,
                        rng: np.random.Generator, alpha: float | None = None,
                        workers: int = 1) -> McEstimate:
    """Monte Carlo Haar average of a measure over pure states.

    The sample budget is split into fixed-size chunks, each driven by its own
    spawned child generator; per-chunk means and squared deviations are merged
    in chunk order (Chan et al.), so the estimate is identical for a given rng
    state regardless of `workers`.
    """
    samples = int(samples)
    if samples < 100:
        raise ValidationError(f"need at least 100 samples, got {samples}")
    if measure_id == measures.RELATIVE_ENTROPY:
        value_of = measures.pure_relative_entropy_coherence
    elif measure_id == measures.L1:
        value_of = measures.pure_l1_coherence
    elif measure_id == measures.TSALLIS:
        alpha = measures.check_alpha(alpha)
        value_of = partial(measures.pure_tsallis_coherence, alpha=alpha)
    else:
        raise ValidationError(f"unknown measure id: {measure_id!r}")
    counts = [MC_CHUNK] * (samples // MC_CHUNK)
    if samples % MC_CHUNK:
        counts.append(samples % MC_CHUNK)
    gens = rng.spawn(len(counts))

    def run(idx: int) -> tuple[int, float, float]:
        return _chunk_stats(povm, counts[idx], gens[idx], value_of)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, range(len(counts))))
    else:
        parts = [run(i) for i in range(len(counts))]

    total, mean, m2 = parts[0]
    for count, chunk_mean, chunk_m2 in parts[1:]:
        delta = chunk_mean - mean
        merged = total + count
        mean += delta * count / merged
        m2 += chunk_m2 + delta * delta * total * count / merged
        total = merged
    return McEstimate(mean, math.sqrt(m2 / (samples - 1) / samples), samples)


@dataclass(frozen=True)
class HaarAverageResult:
    """Analytic Haar average, optionally with an attached MC estimate."""

    analytic: float
    measure_id: str
    alpha: float | None = None
    mc_estimate: float | None = None
    mc_std_error: float | None = None
    sample_count: int | None = None

    @property
    def sigma_distance(self) -> float | None:
        """|analytic - mc| in standard errors (None without an MC run)."""
        if self.mc_estimate is None:
            return None
        if self.mc_std_error == 0.0:
            return 0.0 if self.analytic == self.mc_estimate else math.inf
        return abs(self.analytic - self.mc_estimate) / self.mc_std_error


def haar_average(povm: Povm, measure_id: str, alpha: float | None = None,
                 mc_samples: int | None = None,
                 rng: np.random.Generator | None = None,
                 workers: int = 1) -> HaarAverageResult:
    """Analytic Haar average by measure id, with an optional MC cross-check."""
    if measure_id == measures.RELATIVE_ENTROPY:
        analytic = haar_average_relative_entropy(povm)
    elif measure_id == measures.TSALLIS:
        analytic = haar_average_tsallis(povm, alpha)
    else:
        raise ValidationError(
            f"no exact Haar average for measure {measure_id!r}; "
            "use haar_average_l1_bound for the l1 bound"
        )
    if not mc_samples:
        return HaarAverageResult(analytic, measure_id, alpha)
    if rng is None:
        raise ValidationError("mc_samples given without an rng")
    est = monte_carlo_average(povm, measure_id, mc_samples, rng, alpha=alpha, workers=workers)
    return HaarAverageResult(analytic, measure_id, alpha, est.mean, est.std_error, est.samples)
