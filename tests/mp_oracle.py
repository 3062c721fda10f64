"""High-precision oracles for the exact Haar averages, for C_r, C_l1 and C_T, for the
pair, Hölder and basis bounds, for the overlap constants c and c' and for the
least-square measurement's error.

Over a Haar-random pure state, E f(<psi|E|psi>) = (d-1)! F[lam_1, ..., lam_d]
(Hermite-Genocchi), a divided difference over the spectrum of E of any F with
F^(d-1) = f.  Here the divided difference is the explicit sum
sum_i F(x_i) / prod_{k != i} (x_i - x_k) over distinct nodes in [0, 1], in mpmath.
Its terms can reach gap^-(d-1) for the smallest node gap, so the working
precision is 40 digits plus (d-1) log10(1/gap): the sum keeps about 40 correct
digits however close the nodes sit.
"""

import math

import mpmath


def _digits(nodes) -> int:
    xs = sorted(nodes)
    gap = min(b - a for a, b in zip(xs, xs[1:]))
    if gap <= 0.0:
        raise ValueError("the explicit divided difference needs distinct nodes")
    return 40 + math.ceil((len(xs) - 1) * max(0.0, math.log10(1.0 / gap)))


def divided_difference(nodes, f) -> mpmath.mpf:
    """f[x_1, ..., x_d] by the explicit sum, at the working precision."""
    xs = [mpmath.mpf(float(x)) for x in nodes]
    total = mpmath.mpf(0)
    for i, xi in enumerate(xs):
        den = mpmath.mpf(1)
        for k, xk in enumerate(xs):
            if k != i:
                den *= xi - xk
        total += f(xi) / den
    return total


def _moment(lam, beta) -> mpmath.mpf:
    """E Y^beta = (d-1)! G(1+beta) / G(d+beta) (w^(beta+d-1))[lam]."""
    d, beta = len(lam), mpmath.mpf(beta)
    pre = mpmath.factorial(d - 1) * mpmath.gamma(beta + 1) / mpmath.gamma(beta + d)
    return pre * divided_difference(lam, lambda w: w ** (beta + d - 1))


def _y_log_y(lam) -> mpmath.mpf:
    """E Y ln Y = (g[lam]) / d with g(w) = w^d (ln w - (H_d - 1)), the (d-1)-fold
    primitive of w ln w times d! / d."""
    d = len(lam)
    shift = mpmath.harmonic(d) - 1
    return divided_difference(lam, lambda w: w**d * (mpmath.log(w) - shift)) / d


def haar_moment(lam, beta: float) -> float:
    """E <psi|E|psi>^beta for an element with spectrum lam."""
    with mpmath.workdps(_digits(lam)):
        return float(_moment(lam, beta))


def avg_relative_entropy(spectra) -> float:
    """Haar average of C_r, -sum_j E Y_j log2 Y_j, over the element spectra."""
    with mpmath.workdps(max(_digits(lam) for lam in spectra)):
        return float(-sum(_y_log_y(lam) for lam in spectra) / mpmath.log(2))


def avg_tsallis(spectra, alpha: float) -> float:
    """Haar average of C_{T,alpha}, (sum_j E Y_j^(1/alpha) - 1) / (alpha - 1)."""
    with mpmath.workdps(max(_digits(lam) for lam in spectra)):
        alpha = mpmath.mpf(alpha)
        total = sum(_moment(lam, 1 / alpha) for lam in spectra)
        return float((total - 1) / (alpha - 1))


def _power_psd(m: mpmath.matrix, a, floor: float = 0.0) -> mpmath.matrix:
    """M^a of a Hermitian PSD matrix from its eigenpairs; eigenvalues at or below
    floor times the largest count as zero."""
    w, q = mpmath.eighe(m)
    cut = floor * max(w)
    return q * mpmath.diag([x**a if x > max(cut, 0) else 0 for x in w]) * q.H


def _sqrt_psd(m: mpmath.matrix) -> mpmath.matrix:
    """The principal square root of a Hermitian PSD matrix."""
    return _power_psd(m, mpmath.mpf(1) / 2)


def l1_coherence(rho, elements) -> float:
    """C_l1 = sum_{j != k} ||sqrt(E_j) rho sqrt(E_k)||_tr from its definition, at 50
    digits, for a float density matrix and float elements taken as exact."""
    with mpmath.workdps(50):
        state = mpmath.matrix(rho.tolist())
        roots = [_sqrt_psd(mpmath.matrix(e.tolist())) for e in elements]
        return float(sum(sum(mpmath.svd_c(rj * state * rk, compute_uv=False))
                         for j, rj in enumerate(roots)
                         for k, rk in enumerate(roots) if j != k))


def element_trace_norms(rho, elements, exponents) -> dict:
    """{a: [||E_j^a rho||_tr for every element j]} for each exponent a, at 50 digits, for
    a float density matrix and float elements taken as exact: the 50-digit values (mpf)
    from which the pair and Hölder bounds are composed.  With E_j = Q diag(w) Q^dag,
    ||E_j^a rho||_tr = ||diag(w^a) Q^dag rho||_tr: one eigendecomposition per element."""
    with mpmath.workdps(50):
        state = mpmath.matrix(rho.tolist())
        norms = {a: [] for a in exponents}
        for e in elements:
            w, q = mpmath.eighe(mpmath.matrix(e.tolist()))
            frame = q.H * state
            for a in exponents:
                power = mpmath.diag([x ** mpmath.mpf(a) if x > 0 else 0 for x in w])
                norms[a].append(sum(mpmath.svd_c(power * frame, compute_uv=False)))
        return norms


def tsallis_coherence(rho, elements, alpha: float) -> float:
    """C_{T,alpha} = [sum_j tr (sqrt(E_j) rho^alpha sqrt(E_j))^(1/alpha) - 1] / (alpha - 1)
    from its definition, at 50 digits, for a float density matrix and float elements
    taken as exact.  The eigenvalues of rho at or below 1e-13 of the largest count
    as zero: in a float matrix of rank r < d they are the roundoff of exact zeros,
    which rho^alpha would lift to about (1e-16)^alpha."""
    with mpmath.workdps(50):
        alpha = mpmath.mpf(alpha)
        state = _power_psd(mpmath.matrix(rho.tolist()), alpha, floor=1e-13)
        total = 0
        for e in elements:
            root = _sqrt_psd(mpmath.matrix(e.tolist()))
            w, _ = mpmath.eighe(root * state * root)
            total += sum(max(x, 0) ** (1 / alpha) for x in w)
        return float((total - 1) / (alpha - 1))


def _entropy(m: mpmath.matrix) -> mpmath.mpf:
    """-tr(M log2 M) over the positive eigenvalues of a Hermitian PSD matrix."""
    return -sum(x * mpmath.log(x, 2) for x in mpmath.eighe(m, eigvals_only=True) if x > 0)


def relative_entropy_coherence(rho, elements) -> float:
    """C_r = sum_j S(sqrt(E_j) rho sqrt(E_j)) - S(rho) from its definition, at 50 digits,
    for a float density matrix and float elements taken as exact."""
    with mpmath.workdps(50):
        state = mpmath.matrix(rho.tolist())
        roots = [_sqrt_psd(mpmath.matrix(e.tolist())) for e in elements]
        return float(sum(_entropy(root * state * root) for root in roots) - _entropy(state))


def lsm_error(members, weights) -> float:
    """P_err = 1 - sum_j eta_j tr(eta_j W rho_j W rho_j) of the least-square measurement
    from its definition, at 50 digits, for float members and weights taken as exact.
    W is the mixture's inverse square root on its support: the mixture's eigenvalues
    at or below 1e-12 of the largest count as zero."""
    with mpmath.workdps(50):
        etas = [mpmath.mpf(float(eta)) for eta in weights]
        states = [mpmath.matrix(m.tolist()) for m in members]
        mixture = sum((eta * s for eta, s in zip(etas, states)), mpmath.zeros(states[0].rows))
        root = _power_psd(mixture, -mpmath.mpf(1) / 2, floor=1e-12)
        success = 0
        for eta, s in zip(etas, states):
            block = root * s * root * s
            success += eta * eta * sum(block[i, i] for i in range(block.rows))
        return float(mpmath.re(1 - success))


def basis_bounds(rho, basis) -> tuple[float, float, float]:
    """(b1, b2, b3) of a state in the basis of basis's columns b_j from their definitions,
    at 50 digits, for a float density matrix and a float basis taken as exact.  With
    p_j = <b_j|rho|b_j> and s_j = sqrt(<b_j|rho^2|b_j>) in nondecreasing order:
    b1 = 2 sum_j (d - j) s_(j) (j = 1..d), b2 = (sum_j sqrt(p_j))^2 - 1 and
    b3 = sqrt(d (d - 1) (tr rho^2 - sum_j p_j^2))."""
    with mpmath.workdps(50):
        state = mpmath.matrix(rho.tolist())
        square = state * state
        cols = [mpmath.matrix(basis.tolist())[:, j] for j in range(state.rows)]
        d = len(cols)
        p = [mpmath.re((col.H * state * col)[0, 0]) for col in cols]
        s = sorted(mpmath.sqrt(mpmath.re((col.H * square * col)[0, 0])) for col in cols)
        b1 = 2 * sum((d - 1 - j) * x for j, x in enumerate(s))
        b2 = sum(mpmath.sqrt(x) for x in p) ** 2 - 1
        purity = mpmath.re(sum(square[i, i] for i in range(d)))
        b3 = mpmath.sqrt(d * (d - 1) * (purity - sum(x * x for x in p)))
        return float(b1), float(b2), float(b3)


def overlap_constant(e_elements, f_elements) -> float:
    """c = max_jk ||sqrt(E_j) sqrt(F_k)||, the largest singular value, from its definition
    at 50 digits, for float elements taken as exact.  The eigenvalues of an element at
    or below 1e-13 of its largest count as zero: in a float element of rank r < d they
    are the roundoff of exact zeros, whose roots would be about 1e-8."""
    with mpmath.workdps(50):
        roots_e = [_power_psd(mpmath.matrix(e.tolist()), mpmath.mpf(1) / 2, floor=1e-13) for e in e_elements]
        roots_f = [_power_psd(mpmath.matrix(f.tolist()), mpmath.mpf(1) / 2, floor=1e-13) for f in f_elements]
        return float(max(max(mpmath.svd_c(a * b, compute_uv=False)) for a in roots_e for b in roots_f))


def refined_overlap_constant(e_elements, f_elements) -> float:
    """c' = min(max_k ||sum_j E_j F_k E_j||, max_j ||sum_k F_k E_j F_k||) from its
    definition at 50 digits, for float elements taken as exact: each sum is Hermitian
    PSD, and its norm is its largest eigenvalue."""
    with mpmath.workdps(50):
        e = [mpmath.matrix(x.tolist()) for x in e_elements]
        f = [mpmath.matrix(x.tolist()) for x in f_elements]

        def largest(outer, inner):
            zero = mpmath.zeros(outer[0].rows)
            return max(max(mpmath.eighe(sum((a * b * a for a in outer), zero), eigvals_only=True))
                       for b in inner)

        return float(min(largest(e, f), largest(f, e)))
