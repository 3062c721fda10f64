"""Shared random-instance generators and independent reference oracles."""

import math
import threading

import numpy as np

from povmcoh import DensityMatrix, Povm, ValidationError, projective_povm, linalg, validate


def raised_violations(construct, *args) -> list | None:
    """The violations of the ValidationError construct(*args) raises; [] only when it
    builds an object that validate() passes, and None when it raises no violations
    (input that is not an array of numbers)."""
    try:
        built = construct(*args)
    except ValidationError as error:
        return error.violations or None
    assert validate(built) == []
    return []


def random_unitary(rng, d):
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def random_density(rng, d, cols=None):
    """Random full-rank density matrix (Wishart with `cols` columns, default 2d).

    The extra columns keep the smallest eigenvalue comfortably away from zero,
    so full-rank code paths stay full rank at fixed seeds.
    """
    cols = 2 * d if cols is None else cols
    a = rng.standard_normal((d, cols)) + 1j * rng.standard_normal((d, cols))
    w = a @ a.conj().T
    return DensityMatrix(w / np.real(np.trace(w)))


def random_pure_density(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v = v / np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()))


def random_ensemble(rng, d, n, cols=None):
    """Ensemble of full-rank states with weights bounded away from zero."""
    weights = 1.0 + rng.random(n)
    weights /= weights.sum()
    states = [random_density(rng, d, cols) for _ in range(n)]
    from povmcoh import Ensemble

    return Ensemble(states, weights)


def z_basis_povm():
    return projective_povm(np.eye(2, dtype=complex))


def x_basis_povm():
    h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    return projective_povm(h)


def plus_density():
    return DensityMatrix(np.full((2, 2), 0.5, dtype=complex))


def trine_povm():
    """Three qubit elements (2/3)|phi_j><phi_j| with Bloch vectors 120 degrees apart."""
    elements = []
    for j in range(3):
        t = math.pi * j / 3.0
        v = np.array([math.cos(t), math.sin(t)], dtype=complex)
        elements.append((2.0 / 3.0) * np.outer(v, v.conj()))
    return Povm(elements)


def block_projective_povm(d, blocks):
    """Projectors onto index blocks, e.g. blocks=[(0,1),(2,3)] for d=4."""
    elements = []
    for idx in blocks:
        e = np.zeros((d, d), dtype=complex)
        for i in idx:
            e[i, i] = 1.0
        elements.append(e)
    return Povm(elements)


def ddiff_reference(nodes, values):
    """Divided difference by the explicit kernel sum_k f(x_k) / prod_{l!=k}(x_k - x_l).

    Valid only for pairwise-distinct nodes: the perturbed averages below shift
    repeated eigenvalues apart before using it.
    """
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    total = 0.0
    for k in range(nodes.size):
        denom = 1.0
        for l in range(nodes.size):
            if l != k:
                denom *= nodes[k] - nodes[l]
        total += values[k] / denom
    return total


def clamped_spectrum(element):
    w = np.linalg.eigvalsh((element + element.conj().T) / 2.0)
    return np.clip(w, 0.0, None)


def perturbed_avg_relative_entropy(povm, eps):
    """Haar average of the relative-entropy measure via distinct-node perturbation.

    Each element's spectrum is shifted by eps*(1..d) so all nodes are distinct,
    then evaluated with the explicit kernel; the eps -> 0 limit recovers the
    confluent value (Richardson-extrapolate two eps values to check that).
    """
    d = povm.dim
    shift = sum(1.0 / m for m in range(2, d + 1))
    total = 0.0
    for element in povm.elements:
        nodes = clamped_spectrum(element) + eps * np.arange(1, d + 1)
        values = nodes**d * (np.log(nodes) - shift)
        total += ddiff_reference(nodes, values)
    return -total / (d * math.log(2.0))


def perturbed_avg_tsallis(povm, alpha, eps):
    """Haar average of the Tsallis measure via distinct-node perturbation."""
    d = povm.dim
    beta = 1.0 / alpha
    prefactor = math.factorial(d - 1)
    for i in range(1, d):
        prefactor /= beta + i
    total = 0.0
    for element in povm.elements:
        nodes = clamped_spectrum(element) + eps * np.arange(1, d + 1)
        values = nodes ** (d + beta - 1.0)
        total += prefactor * ddiff_reference(nodes, values)
    return (total - 1.0) / (alpha - 1.0)


def richardson(value_eps, value_eps_tenth):
    """Extrapolate an O(eps) family to eps = 0 from values at eps and eps/10."""
    return (10.0 * value_eps_tenth - value_eps) / 9.0


# --------------------------------------------------------------------------
# dense per-block oracles: every block sqrt(E_j) rho sqrt(E_k) formed as a d x d
# matrix from the full state, one LAPACK call per block


def random_rank_density(rng, d, rank):
    """rho = A A^dag / tr with A a complex Gaussian d x rank matrix: rank `rank`."""
    a = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    w = a @ a.conj().T
    return DensityMatrix(w / np.real(np.trace(w)))


def spread_density(rng, d, low=-16.0):
    """Random eigenbasis with eigenvalues log-spaced over 10^low..1, normalized."""
    w = np.logspace(low, 0.0, d)
    u = random_unitary(rng, d)
    return DensityMatrix((u * (w / w.sum())) @ u.conj().T)


def dense_power(m, a, rtol=0.0):
    """M^a of a PSD matrix by np.linalg.eigh; eigenvalues at or below rtol times the
    largest, and negative roundoff, count as zero.  The pairs are summed largest
    first: tests that hold values of mixed_rank_povm's instances to a few ulps
    (test_measures.py's pure forms) were written against the bits this order gives."""
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    w, v = w[::-1], v[:, ::-1]
    w = np.where(w > max(rtol * w.max(), 0.0), w, 0.0)
    return (v * w**a) @ v.conj().T


def dense_entropy(m):
    """-tr(M log2 M) of a PSD matrix over its positive eigenvalues (np.linalg.eigvalsh)."""
    w = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    w = w[w > 0.0]
    return float(-np.sum(w * np.log2(w)))


def dense_trace_norm(m):
    return float(np.linalg.norm(m, "nuc"))


def dense_roots(povm):
    return [dense_power(e, 0.5, rtol=1e-13) for e in povm.elements]


def dense_l1(rho, povm):
    roots = dense_roots(povm)
    return sum(dense_trace_norm(roots[j] @ rho.mat @ roots[k])
               for j in range(len(roots)) for k in range(len(roots)) if j != k)


def dense_relative_entropy(rho, povm):
    total = sum(dense_entropy(root @ rho.mat @ root) for root in dense_roots(povm))
    return total - dense_entropy(rho.mat)


def dense_tsallis(rho, povm, alpha):
    rho_half_a = dense_power(rho.mat, alpha / 2.0, rtol=1e-13)
    total = sum(np.sum(np.linalg.svd(rho_half_a @ root, compute_uv=False) ** (2.0 / alpha))
                for root in dense_roots(povm))
    return (total - 1.0) / (alpha - 1.0)


def dense_pair_bounds(rho, povm):
    t = np.array([dense_trace_norm(root @ rho.mat) for root in dense_roots(povm)])
    n = t.size
    return 2.0 * np.dot(n - 1.0 - np.arange(n), np.sort(t)), (n - 1.0) * t.sum()


def dense_holder(rho, povm, p, q):
    a = np.array([dense_trace_norm(dense_power(e, p / 2.0) @ rho.mat) ** (1.0 / p)
                  for e in povm.elements])
    b = np.array([dense_trace_norm(dense_power(e, q / 2.0) @ rho.mat) ** (1.0 / q)
                  for e in povm.elements])
    return a.sum() * b.sum() - np.dot(a, b)


def dense_holder_22(rho, povm):
    t = np.array([dense_trace_norm(e @ rho.mat) for e in povm.elements])
    return np.sum(np.sqrt(t)) ** 2 - np.sum(t)


def dense_incoherence_defect(rho, povm):
    es = povm.elements
    return max((float(np.max(np.abs(es[j] @ rho.mat @ es[k])))
                for j in range(len(es)) for k in range(len(es)) if j != k), default=0.0)


def mixed_rank_povm(rng, d):
    """Elements of rank 1, 2, d and d: half of a projective split, with the full-rank
    remainder I - E_1 - E_2 shared out by a Wishart matrix W, 0 < W < I."""
    u = random_unitary(rng, d)
    e1 = 0.5 * np.outer(u[:, 0], u[:, 0].conj())
    e2 = 0.5 * u[:, 1:3] @ u[:, 1:3].conj().T
    root = dense_power(np.eye(d) - e1 - e2, 0.5, rtol=1e-13)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    g = a @ a.conj().T
    w = g / (np.linalg.norm(g, 2) + 1.0)
    return Povm([e1, e2, root @ w @ root, root @ (np.eye(d) - w) @ root])


def dense_lsm_error(ensemble, kernel_rtol=1e-12):
    """LSM operators and error by the per-member definition: M_j = eta_j W rho_j W,
    W the inverse square root of the mixture on its support, one member at a time,
    and P_err = 1 - sum_j eta_j tr(M_j rho_j)."""
    mixture = sum(eta * state.mat for eta, state in zip(ensemble.weights, ensemble.states))
    w, v = np.linalg.eigh((mixture + mixture.conj().T) / 2.0)
    keep = w > kernel_rtol * w.max()
    w_inv_sqrt = (v[:, keep] / np.sqrt(w[keep])) @ v[:, keep].conj().T
    operators = [eta * (w_inv_sqrt @ state.mat @ w_inv_sqrt)
                 for eta, state in zip(ensemble.weights, ensemble.states)]
    success = sum(eta * np.real(np.trace(m @ state.mat))
                  for eta, m, state in zip(ensemble.weights, operators, ensemble.states))
    return operators, 1.0 - success


def dense_overlap_c(e, f):
    """c = max_jk ||sqrt(E_j) sqrt(F_k)||, one 2-norm per pair of dense roots."""
    return max(np.linalg.norm(a @ b, 2) for a in dense_roots(e) for b in dense_roots(f))


def dense_overlap_c_prime(e, f):
    """c' = min(max_k ||sum_j E_j F_k E_j||, max_j ||sum_k F_k E_j F_k||), one
    operator norm per outcome."""
    def largest(outer, inner):
        return max(np.linalg.norm(sum(a @ b @ a for a in outer), 2) for b in inner)

    return min(largest(e.elements, f.elements), largest(f.elements, e.elements))


def record_thread_starts(monkeypatch) -> list:
    """The threads started from now on, as a list that fills as they start."""
    starts = []

    class RecordingThread(threading.Thread):
        def start(self):
            starts.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", RecordingThread)
    return starts


def record_hand_offs(monkeypatch) -> list:
    """The ident of the helper thread each map_blocks call hands items to from now
    on, as a list that fills as the calls run.  The helper is started first, if no
    call has started it yet, so that its queue can be wrapped."""
    if linalg._helper is None:
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "_cpus", lambda: 2)
            linalg.map_blocks(abs, range(2))
    jobs, helper = linalg._helper
    hand_offs = []

    class RecordingQueue:
        def put(self, job):
            hand_offs.append(helper.ident)
            jobs.put(job)

    monkeypatch.setattr(linalg, "_helper", (RecordingQueue(), helper))
    return hand_offs
