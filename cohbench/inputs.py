"""Seeded raw inputs for every workload, made with numpy alone.

Nothing here imports povmcoh, so a change to the program cannot change what
the benchmark feeds it.  Every operator is kept together with a factor that
generates it (rho = A A^dag / tr A A^dag, E_j = K_j K_j^dag), which the
oracles use in place of the formed matrices.

Round r of a workload is drawn from np.random.default_rng([seed, tag, r]), so
a set-up probe can rebuild round 0 without replaying the timed loop.
"""

import json
from dataclasses import dataclass

import numpy as np

PAIR_DIMS = (2, 3, 4)
PAIR_OUTCOMES = (2, 3, 4, 5, 6)
SWEEP_DIMS = (16, 24, 32)
HAAR_DIMS = (2, 3, 4, 5, 6, 7, 8)
# {I/2 + eps D, I/2 - eps D}, D = diag(0..d-1)/d: fixed, seed-independent inputs
NEAR_DEGENERATE_DIM = 6
NEAR_DEGENERATE_EPS = (1e-3, 1e-4, 1e-5)
MC_SAMPLES = 8192
CLI_DIM = 3

_TAGS = {"pair-report": 1, "sweep-large": 2, "haar": 3, "cli": 4}


@dataclass(frozen=True)
class State:
    """rho = A A^dag / tr(A A^dag); `mat` is that product formed in double."""

    factor: np.ndarray
    mat: np.ndarray

    @property
    def rank(self) -> int:
        return self.factor.shape[1]


@dataclass(frozen=True)
class Measurement:
    """E_j = K_j K_j^dag; `basis` holds the columns when it is rank-one projective."""

    factors: tuple
    elements: tuple
    basis: np.ndarray | None = None


def rng_for(seed: int, workload: str, round_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, _TAGS[workload], round_index])


def _ginibre(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _herm(m):
    return 0.5 * (m + m.conj().T)


def make_state(rng, d: int, rank: int) -> State:
    a = _ginibre(rng, d, rank)
    a /= np.sqrt(np.sum(np.abs(a) ** 2))
    return State(a, _herm(a @ a.conj().T))


def random_unitary(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(_ginibre(rng, d, d))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def make_projective(rng, d: int) -> Measurement:
    u = random_unitary(rng, d)
    cols = tuple(u[:, [j]] for j in range(d))
    return Measurement(cols, tuple(_herm(c @ c.conj().T) for c in cols), u)


def make_random_povm(rng, d: int, n: int) -> Measurement:
    """Wishart blocks B_j B_j^dag normalised by S^(-1/2): K_j = S^(-1/2) B_j."""
    blocks = [_ginibre(rng, d, d) for _ in range(n)]
    s = sum(b @ b.conj().T for b in blocks)
    w, v = np.linalg.eigh(_herm(s))
    s_inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    factors = tuple(s_inv_sqrt @ b for b in blocks)
    return Measurement(factors, tuple(_herm(k @ k.conj().T) for k in factors))


def near_degenerate_povm(eps: float, d: int = NEAR_DEGENERATE_DIM) -> Measurement:
    diag = eps * np.arange(d) / d
    factors = tuple(np.diag(np.sqrt(0.5 + sign * diag)).astype(complex) for sign in (1.0, -1.0))
    return Measurement(factors, tuple(np.diag(0.5 + sign * diag).astype(complex) for sign in (1.0, -1.0)))


# --------------------------------------------------------------------------
# one round of each workload


@dataclass(frozen=True)
class PairCase:
    state: State
    e: Measurement
    f: Measurement
    label: str


def pair_round(seed: int, r: int) -> list[PairCase]:
    """Pure and full-rank states against random POVMs for every (d, n), then
    pure and full-rank states against a rank-one projective E (n = d)."""
    rng = rng_for(seed, "pair-report", r)
    cases = []
    for d in PAIR_DIMS:
        for n in PAIR_OUTCOMES:
            for rank in (1, d):
                cases.append(PairCase(make_state(rng, d, rank), make_random_povm(rng, d, n),
                                      make_random_povm(rng, d, n), f"d{d}n{n}r{rank}"))
        for rank in (1, d):
            cases.append(PairCase(make_state(rng, d, rank), make_projective(rng, d),
                                  make_random_povm(rng, d, d), f"d{d}proj_r{rank}"))
    return cases


@dataclass(frozen=True)
class Sweep:
    povm: Measurement
    states: tuple
    label: str


def sweep_round(seed: int, r: int) -> list[Sweep]:
    """For each d, a random and a rank-one projective POVM (n = d), each swept
    by states of rank 1, 2 and d."""
    rng = rng_for(seed, "sweep-large", r)
    sweeps = []
    for d in SWEEP_DIMS:
        for kind in ("random", "projective"):
            povm = make_random_povm(rng, d, d) if kind == "random" else make_projective(rng, d)
            states = tuple(make_state(rng, d, rank) for rank in (1, 2, d))
            sweeps.append(Sweep(povm, states, f"d{d}{kind}"))
    return sweeps


@dataclass(frozen=True)
class HaarCase:
    povm: Measurement
    kind: str  # "projective" | "random" | "near-degenerate"
    mc_seed: int
    label: str


def haar_round(seed: int, r: int) -> list[HaarCase]:
    rng = rng_for(seed, "haar", r)
    cases = []
    for d in HAAR_DIMS:
        cases.append(HaarCase(make_projective(rng, d), "projective", int(rng.integers(2**31)), f"d{d}proj"))
        cases.append(HaarCase(make_random_povm(rng, d, d), "random", int(rng.integers(2**31)), f"d{d}random"))
    for eps in NEAR_DEGENERATE_EPS:
        cases.append(HaarCase(near_degenerate_povm(eps), "near-degenerate", 0, f"neardeg{eps:g}"))
    return cases


@dataclass(frozen=True)
class CliInputs:
    state: State
    e: Measurement
    f: Measurement
    p: Measurement
    members: tuple
    weights: np.ndarray
    mc_seed: int


def cli_inputs(seed: int) -> CliInputs:
    rng = rng_for(seed, "cli", 0)
    d = CLI_DIM
    members = tuple(make_state(rng, d, d) for _ in range(3))
    weights = 1.0 + rng.random(3)
    return CliInputs(
        state=make_state(rng, d, d),
        e=make_random_povm(rng, d, 4),
        f=make_random_povm(rng, d, 3),
        p=make_projective(rng, d),
        members=members,
        weights=weights / weights.sum(),
        mc_seed=int(rng.integers(2**31)),
    )


def _encode(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def write_cli_files(inp: CliInputs, directory) -> dict:
    """Matrix files in the CLI's JSON format; returns {name: path}."""
    docs = {
        "state": {"kind": "state", "dim": CLI_DIM, "payload": _encode(inp.state.mat)},
        "e": {"kind": "povm", "dim": CLI_DIM, "payload": [_encode(m) for m in inp.e.elements]},
        "f": {"kind": "povm", "dim": CLI_DIM, "payload": [_encode(m) for m in inp.f.elements]},
        "p": {"kind": "povm", "dim": CLI_DIM, "payload": [_encode(m) for m in inp.p.elements]},
        "ens": {"kind": "ensemble", "dim": CLI_DIM, "payload": [_encode(s.mat) for s in inp.members],
                "weights": [float(w) for w in inp.weights]},
    }
    paths = {}
    for name, doc in docs.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        paths[name] = str(path)
    return paths
