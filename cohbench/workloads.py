"""The four workloads: their operations, output checks and gauge kernels.

An operation is an `Op`: `run()` does what a library user does and returns
the program's outputs; `check(outputs)` compares them, outside the op's time,
against the oracles and the properties the paper proves, and returns a list of
problems (empty when the output is right).  `fault` names the known program
fault an op is expected to hit, if any.

The in-process ops call povmcoh through attribute lookups on the package
(`pc.l1_coherence(...)`), so the traced run's rebound wrappers see them.
"""

import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import inputs
import oracles

REL_TOL = 1e-9
ABS_TOL = 1e-10
BOUND_SLACK = 1e-8
MC_SIGMAS = 5.0
NEAR_DEGENERATE = "haar-near-degenerate"


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    fault: str | None = None


class Checker:
    """Collects the problems found in one op's outputs."""

    def __init__(self):
        self.problems = []

    def close(self, name, got, want, rtol=REL_TOL, atol=ABS_TOL):
        got, want = float(got), float(want)
        if not (math.isfinite(got) and abs(got - want) <= atol + rtol * abs(want)):
            self.problems.append(f"{name}: got {got!r}, want {want!r}")

    def that(self, name, ok):
        if not ok:
            self.problems.append(name)

    def bounds_dominate(self, c_l1, values: dict):
        for name, value in values.items():
            self.that(f"{name} = {value!r} below c_l1 = {c_l1!r}", float(value) >= c_l1 - BOUND_SLACK)


def check_mc(ck: Checker, mean, std_error, samples, want, expected_samples):
    ck.that(f"mc std_error {std_error!r} is not positive", std_error is not None and std_error > 0.0)
    ck.that(f"mc sample count {samples} != {expected_samples}", samples == expected_samples)
    if std_error:
        ck.that(f"mc mean {mean!r} is {abs(mean - want) / std_error:.1f} sigma from {want!r}",
                abs(mean - want) <= MC_SIGMAS * std_error)


def check_uncertainty(ck: Checker, rep: dict, state, e, f):
    want_lhs = oracles.relative_entropy(state.factor, e.factors) + oracles.relative_entropy(state.factor, f.factors)
    ck.close("uncertainty lhs", rep["lhs"], want_lhs)
    ck.close("c", rep["c"], oracles.overlap_c(e.factors, f.factors))
    ck.close("c_prime", rep["c_prime"], oracles.overlap_c_prime(e.elements, f.elements))
    ck.close("entropy_rho", rep["entropy_rho"], oracles.entropy(state.factor))
    ck.that("lhs < bound_c'", rep["lhs"] >= rep["bound_c_prime"] - BOUND_SLACK)
    ck.that("bound_c' < bound_c", rep["bound_c_prime"] >= rep["bound_c"] - BOUND_SLACK)


def measure_oracles(state, e, sqrt_e=None) -> dict:
    """C_r, C_l1 and C_T(1/2, 2): closed forms in the outcome probabilities for
    pure states, the definitions otherwise."""
    a, ks = state.factor, e.factors
    if state.rank == 1:
        p = oracles.probabilities(a[:, 0], ks)
        return {"c_r": oracles.pure_relative_entropy(p), "c_l1": oracles.pure_l1(p),
                "c_t_half": oracles.pure_tsallis(p, 0.5), "c_t_2": oracles.pure_tsallis(p, 2.0)}
    sqrt_e = oracles.roots(ks) if sqrt_e is None else sqrt_e
    return {
        "c_r": oracles.relative_entropy(a, ks),
        "c_l1": oracles.l1(a, ks, sqrt_e),
        "c_t_half": oracles.tsallis(a, ks, 0.5, sqrt_e),
        "c_t_2": oracles.tsallis(a, ks, 2.0, sqrt_e),
    }


# --------------------------------------------------------------------------
# pair-report


def pair_op(pc, case: inputs.PairCase) -> Op:
    def run():
        rho = pc.DensityMatrix(case.state.mat)
        e = pc.Povm(case.e.elements)
        f = pc.Povm(case.f.elements)
        out = {
            "c_r": pc.relative_entropy_coherence(rho, e).value,
            "c_l1": pc.l1_coherence(rho, e).value,
            "c_t_half": pc.tsallis_coherence(rho, e, 0.5).value,
            "c_t_2": pc.tsallis_coherence(rho, e, 2.0).value,
            "incoherent": pc.is_povm_incoherent(rho, e).incoherent,
            "holder": pc.holder_bound(rho, e, 3.0, 1.5).bound_value,
            "holder_22": pc.holder_bound_22(rho, e).bound_value,
        }
        ordered, uniform = pc.pair_bounds(rho, e)
        out["pair_sorted"], out["pair_uniform"] = ordered.bound_value, uniform.bound_value
        if case.e.basis is not None:
            out["b1"] = pc.bound_b1(rho, case.e.basis).bound_value
            out["b2"] = pc.bound_b2(rho, case.e.basis).bound_value
            out["b3"] = pc.bound_b3(rho, case.e.basis).bound_value
        check = pc.discrimination_identity_check(rho, e)
        out["identity"] = (check.lhs, check.rhs)
        rep = pc.uncertainty_report(rho, e, f)
        out["uncertainty"] = {k: getattr(rep, k) for k in ("lhs", "c", "c_prime", "bound_c", "bound_c_prime", "entropy_rho")}
        return out

    def check(out):
        ck = Checker()
        a, ks = case.state.factor, case.e.factors
        sqrt_e = oracles.roots(ks)
        want = measure_oracles(case.state, case.e, sqrt_e)
        for key, value in want.items():
            ck.close(key, out[key], value)
        ck.that("incoherent flag wrong",
                out["incoherent"] == (oracles.incoherence_defect(case.state.mat, case.e.elements) <= 1e-9))
        rho = case.state.mat
        ck.close("holder(3,1.5)", out["holder"], oracles.holder(rho, ks, 3.0, 1.5))
        ck.close("holder_22", out["holder_22"], oracles.holder_22(rho, ks))
        want_sorted, want_uniform = oracles.pair_bounds(rho, ks, sqrt_e)
        ck.close("pair sorted", out["pair_sorted"], want_sorted)
        ck.close("pair uniform", out["pair_uniform"], want_uniform)
        row = {k: out[k] for k in ("holder", "holder_22", "pair_sorted", "pair_uniform")}
        if case.e.basis is not None:
            for name, value in zip(("b1", "b2", "b3"), oracles.basis_bounds(rho, case.e.basis)):
                ck.close(name, out[name], value)
                row[name] = out[name]
        ck.bounds_dominate(want["c_l1"], row)
        lhs, rhs = out["identity"]
        ck.close("identity C_T(1/2)", lhs, want["c_t_half"])
        ck.close("identity 2 P_err", rhs, 2.0 * oracles.lsm_error_steered(a, ks))
        ck.close("C_T(1/2) = 2 P_err", lhs, rhs)
        check_uncertainty(ck, out["uncertainty"], case.state, case.e, case.f)
        return ck.problems

    return Op(case.label, run, check)


def pair_round(pc, seed: int, r: int) -> list[Op]:
    return [pair_op(pc, case) for case in inputs.pair_round(seed, r)]


# --------------------------------------------------------------------------
# sweep-large


def sweep_round(pc, seed: int, r: int) -> list[Op]:
    ops = []
    for sweep in inputs.sweep_round(seed, r):
        box = {}  # the sweep's Povm, built by its first op and shared by the rest
        sqrt_e = oracles.roots(sweep.povm.factors)
        for state in sweep.states:
            ops.append(_sweep_op(pc, sweep, state, box, sqrt_e))
    return ops


def _sweep_op(pc, sweep: inputs.Sweep, state: inputs.State, box: dict, sqrt_e) -> Op:
    def run():
        if "povm" not in box:
            box["povm"] = pc.Povm(sweep.povm.elements)
        e = box["povm"]
        rho = pc.DensityMatrix(state.mat)
        ordered, uniform = pc.pair_bounds(rho, e)
        return {
            "c_l1": pc.l1_coherence(rho, e).value,
            "c_r": pc.relative_entropy_coherence(rho, e).value,
            "c_t_half": pc.tsallis_coherence(rho, e, 0.5).value,
            "pair_sorted": ordered.bound_value,
            "pair_uniform": uniform.bound_value,
            "holder_22": pc.holder_bound_22(rho, e).bound_value,
        }

    def check(out):
        ck = Checker()
        a, ks = state.factor, sweep.povm.factors
        c_l1 = oracles.l1(a, ks, sqrt_e)
        ck.close("c_l1", out["c_l1"], c_l1)
        ck.close("c_r", out["c_r"], oracles.relative_entropy(a, ks))
        ck.close("c_t_half", out["c_t_half"], oracles.tsallis(a, ks, 0.5, sqrt_e))
        want_sorted, want_uniform = oracles.pair_bounds(state.mat, ks, sqrt_e)
        ck.close("pair sorted", out["pair_sorted"], want_sorted)
        ck.close("pair uniform", out["pair_uniform"], want_uniform)
        ck.close("holder_22", out["holder_22"], oracles.holder_22(state.mat, ks))
        ck.bounds_dominate(c_l1, {k: out[k] for k in ("pair_sorted", "pair_uniform", "holder_22")})
        return ck.problems

    return Op(f"{sweep.label}r{state.rank}", run, check)


# --------------------------------------------------------------------------
# haar


def haar_oracle(case: inputs.HaarCase) -> dict:
    d = case.povm.elements[0].shape[0]
    if case.kind == "projective":
        return {"c_r": oracles.haar_projective_relative_entropy(d),
                "c_t_half": oracles.haar_projective_tsallis(d, 0.5),
                "c_t_2": oracles.haar_projective_tsallis(d, 2.0)}
    if case.kind == "near-degenerate":  # diagonal elements: the spectrum is the diagonal, exactly
        spectra = [np.real(np.diagonal(e)) for e in case.povm.elements]
    else:
        spectra = [np.linalg.eigvalsh(e) for e in case.povm.elements]
    return {"c_r": oracles.haar_relative_entropy(spectra),
            "c_t_half": oracles.haar_tsallis(spectra, 0.5),
            "c_t_2": oracles.haar_tsallis(spectra, 2.0)}


def haar_op(pc, case: inputs.HaarCase) -> Op:
    def run():
        e = pc.Povm(case.povm.elements)
        res = pc.haar_average(e, "relative_entropy", mc_samples=inputs.MC_SAMPLES,
                              rng=np.random.default_rng(case.mc_seed))
        return {
            "c_r": res.analytic,
            "mc": (res.mc_estimate, res.mc_std_error, res.sample_count),
            "c_t_half": pc.haar_average_tsallis(e, 0.5),
            "c_t_2": pc.haar_average_tsallis(e, 2.0),
            "l1_bound": pc.haar_average_l1_bound(e),
        }

    def check(out):
        ck = Checker()
        want = haar_oracle(case)
        for key, value in want.items():
            ck.close(f"haar {key}", out[key], value)
        ck.close("haar l1 bound", out["l1_bound"], oracles.haar_l1_bound(len(case.povm.elements)))
        check_mc(ck, *out["mc"], want["c_r"], inputs.MC_SAMPLES)
        return ck.problems

    fault = NEAR_DEGENERATE if case.kind == "near-degenerate" else None
    return Op(case.label, run, check, fault)


def haar_round(pc, seed: int, r: int) -> list[Op]:
    return [haar_op(pc, case) for case in inputs.haar_round(seed, r)]


# --------------------------------------------------------------------------
# cli: one fresh interpreter per op


def _figure_states(figure: int, grid):
    """The CLI's built-in families, written out from their definitions."""
    for x in grid:
        if figure == 1:
            rho = 0.5 * np.array([[1.0 - x, 0.5], [0.5, 1.0 + x]], dtype=complex)
            yield x, rho, 0.5  # c_l1 = sum of |off-diagonal| entries
        else:
            c = np.array([x, 4.0 * x, math.sqrt(max(1.0 - 17.0 * x * x, 0.0))], dtype=complex)
            yield x, np.outer(c, c.conj()), float(np.sum(np.abs(c))) ** 2 - 1.0


def _parse_csv(text) -> list[dict]:
    rows = list(csv.reader(io.StringIO(text)))
    return [dict(zip(rows[0], r)) for r in rows[1:]]


def check_bounds_row(ck: Checker, row: dict, rho: np.ndarray, ks, basis, pq):
    c_l1 = float(row["c_l1"])
    values = {k: float(v) for k, v in row.items() if k not in ("parameter", "c_l1") and v != ""}
    p, q = pq
    ck.close(f"thm1_p{p:g}_q{q:g}", values[f"thm1_p{p:g}_q{q:g}"], oracles.holder(rho, ks, p, q))
    ck.close("thm1_p2q2", values["thm1_p2q2"], oracles.holder_22(rho, ks))
    ordered, uniform = oracles.pair_bounds(rho, ks)
    ck.close("thm2_ordered", values["thm2_ordered"], ordered)
    ck.close("thm2_uniform", values["thm2_uniform"], uniform)
    if basis is not None:
        for name, value in zip(("b1", "b2", "b3"), oracles.basis_bounds(rho, basis)):
            ck.close(name, values[name], value)
    ck.bounds_dominate(c_l1, values)


def _check_figure(figure: int, text: str, ck: Checker):
    rows = _parse_csv(text)
    grid = np.arange(81) * 0.01 if figure == 1 else np.arange(97) * 0.0025
    ck.that(f"figure {figure}: {len(rows)} rows, want {grid.size}", len(rows) == grid.size)
    basis = np.eye(2 if figure == 1 else 3, dtype=complex)
    ks = [basis[:, [j]] for j in range(basis.shape[0])]
    for row, (x, rho, c_l1) in zip(rows, _figure_states(figure, grid)):
        ck.close("parameter", row["parameter"], x, atol=1e-12)
        ck.close(f"figure {figure} c_l1 at {x:g}", row["c_l1"], c_l1)
        check_bounds_row(ck, row, rho, ks, basis, pq=(2.0, 2.0))


@dataclass
class CliRun:
    code: int
    stdout: str
    stderr: str
    maxrss_kb: int
    spawned_at: float
    trace: dict | None = None


def spawn(argv, env, cwd=None, trace_path=None) -> CliRun:
    """Run one child to completion and read its own peak RSS with wait4."""
    spawned_at = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=cwd)
    try:
        out = proc.stdout.read()  # stderr stays far below a pipe buffer, so it can wait
        err = proc.stderr.read()
    finally:
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    trace = None
    if trace_path is not None and proc.returncode == 0:
        with open(trace_path, encoding="utf-8") as fh:
            trace = json.load(fh)
    return CliRun(proc.returncode, out.decode(), err.decode(), usage.ru_maxrss, spawned_at, trace)


def cli_ops(files: dict, inp: inputs.CliInputs, child) -> list[Op]:
    """One round of CLI invocations; `child(args)` runs one and returns a CliRun."""
    s, e, p, f, ens = files["state"], files["e"], files["p"], files["f"], files["ens"]
    state = inp.state
    mc = 20000

    def compute(flag, measure_id, key, extra=()):
        def check(run):
            ck = Checker()
            doc = json.loads(run.stdout)
            ck.that(f"measure {doc['measure']!r}", doc["measure"] == measure_id)
            ck.close(f"compute {flag}", doc["value"], measure_oracles(state, inp.e)[key])
            ck.that("incoherent flag wrong", doc["incoherent"] is False)
            return ck.problems
        return (f"compute-{flag}", ["compute", "--state", s, "--povm", e, "--measure", flag, *extra], check)

    def bounds_pair(run):
        ck = Checker()
        rows = _parse_csv(run.stdout)
        ck.that("bounds: want one row", len(rows) == 1)
        row = rows[0]
        ck.close("bounds c_l1", row["c_l1"], oracles.l1(state.factor, inp.p.factors))
        check_bounds_row(ck, row, state.mat, inp.p.factors, inp.p.basis, pq=(3.0, 1.5))
        return ck.problems

    def figure(n):
        def check(run):
            ck = Checker()
            _check_figure(n, run.stdout, ck)
            return ck.problems
        return check

    def lsm_pair(run):
        ck = Checker()
        doc = json.loads(run.stdout)
        t_half = oracles.tsallis(state.factor, inp.e.factors, 0.5)
        p_err = oracles.lsm_error_steered(state.factor, inp.e.factors)
        ck.close("identity tsallis_half", doc["identity"]["tsallis_half"], t_half)
        ck.close("identity twice_error", doc["identity"]["twice_error"], 2.0 * p_err)
        ck.close("error_probability", doc["error_probability"], p_err)
        _, eta = oracles.steered_ensemble(state.factor, inp.e.factors)
        ck.that("member_count", doc["member_count"] == len(inp.e.factors))
        for got, want in zip(doc["weights"], eta):
            ck.close("steered weight", got, want)
        ck.that("support_rank", doc["support_rank"] == state.rank)
        return ck.problems

    def lsm_ensemble(run):
        ck = Checker()
        doc = json.loads(run.stdout)
        ck.close("ensemble error_probability", doc["error_probability"],
                 oracles.lsm_error_ensemble([m.factor for m in inp.members], inp.weights))
        ck.that("member_count", doc["member_count"] == len(inp.members))
        ck.that("support_rank", doc["support_rank"] == inputs.CLI_DIM)
        return ck.problems

    def uncertainty(run):
        ck = Checker()
        doc = json.loads(run.stdout)
        check_uncertainty(ck, doc, state, inp.e, inp.f)
        ck.that("satisfied flags", doc["satisfied_c"] is True and doc["satisfied_c_prime"] is True)
        return ck.problems

    def haar_r(run):
        ck = Checker()
        doc = json.loads(run.stdout)
        want = oracles.haar_relative_entropy([np.linalg.eigvalsh(m) for m in inp.e.elements])
        ck.close("haar analytic", doc["analytic"], want)
        check_mc(ck, doc["mc_estimate"], doc["mc_std_error"], doc["sample_count"], want, mc)
        return ck.problems

    def haar_l1(run):
        ck = Checker()
        doc = json.loads(run.stdout)
        ck.close("haar l1 bound", doc["bound"], oracles.haar_l1_bound(len(inp.e.factors)))
        return ck.problems

    specs = [
        compute("r", "relative_entropy", "c_r"),
        compute("l1", "l1", "c_l1"),
        compute("tsallis", "tsallis", "c_t_half", ("--alpha", "0.5")),
        ("bounds-pair", ["bounds", "--state", s, "--povm", p, "--pq", "3,1.5"], bounds_pair),
        ("bounds-figure1", ["bounds", "--figure", "1"], figure(1)),
        ("bounds-figure2", ["bounds", "--figure", "2"], figure(2)),
        ("lsm-pair", ["lsm", "--state", s, "--povm", e], lsm_pair),
        ("lsm-ensemble", ["lsm", "--ensemble", ens], lsm_ensemble),
        ("uncertainty", ["uncertainty", "--state", s, "--povm", e, "--povm2", f], uncertainty),
        ("haar-r-mc", ["haar", "--povm", e, "--measure", "r", "--mc", str(mc), "--seed", str(inp.mc_seed)], haar_r),
        ("haar-l1bound", ["haar", "--povm", e, "--measure", "l1bound"], haar_l1),
    ]

    def make(label, args, check):
        def checked(run):
            if run.code != 0:
                return [f"exit code {run.code}: {run.stderr.strip()[-300:]}"]
            return check(run)
        return Op(label, lambda: child(args), checked)

    return [make(*spec) for spec in specs]


# --------------------------------------------------------------------------
# gauge kernels: fixed numpy work that never touches povmcoh


def _fixed(seed, d, n, rank):
    rng = np.random.default_rng(seed)
    return inputs.make_state(rng, d, rank), inputs.make_random_povm(rng, d, n)


def pair_kernel():
    state, e = _fixed(101, 4, 6, 4)

    def kernel():
        sqrt_e = oracles.roots(e.factors)
        oracles.relative_entropy(state.factor, e.factors)
        oracles.l1(state.factor, e.factors, sqrt_e)
        oracles.tsallis(state.factor, e.factors, 0.5, sqrt_e)
        oracles.pair_bounds(state.mat, e.factors, sqrt_e)
    return kernel


def sweep_kernel():
    state, e = _fixed(102, 16, 16, 16)

    def kernel():
        sqrt_e = oracles.roots(e.factors)
        oracles.l1(state.factor, e.factors, sqrt_e)
        oracles.relative_entropy(state.factor, e.factors)
    return kernel


def haar_kernel():
    """Pure-state probabilities and entropies for a fixed batch, plus small spectra."""
    rng = np.random.default_rng(103)
    e = inputs.make_random_povm(rng, 5, 5)
    stack = np.array(e.elements)
    psi = rng.standard_normal((4096, 5)) + 1j * rng.standard_normal((4096, 5))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)

    def kernel():
        probs = np.einsum("bi,kij,bj->bk", psi.conj(), stack, psi).real
        np.clip(probs, 1e-300, None, out=probs)
        float(np.sum(-probs * np.log2(probs)))
        for m in e.elements:
            np.linalg.eigvalsh(m)
    return kernel


def cli_kernel(env):
    """A fresh interpreter that imports numpy and nothing else."""
    argv = [sys.executable, "-c", "import numpy"]

    def kernel():
        subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
    return kernel
