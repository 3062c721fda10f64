"""Command-line interface.

Subcommands: compute, bounds, lsm, uncertainty, haar.  Results go to stdout
(JSON, or CSV for bound sweeps), diagnostics to stderr.  Exit codes: 0 on
success, 2 for input or validation problems, 3 for dimension mismatches,
4 for numeric failures.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys

import numpy as np

from . import bounds, fileio, haar, lsm, measures, uncertainty
from .errors import (
    DimensionMismatchError,
    PovmcohError,
    ValidationError,
)
from .objects import DensityMatrix, Ensemble, Povm, PureState, require_unitary

# Largest --range grid a figure sweep accepts.
MAX_RANGE_POINTS = 10**6

MEASURE_BY_FLAG = {
    "r": measures.RELATIVE_ENTROPY,
    "l1": measures.L1,
    "tsallis": measures.TSALLIS,
}


_KINDS = {"state": ((DensityMatrix, PureState), "a state or pure_state"),
          "povm": (Povm, "a povm"), "ensemble": (Ensemble, "an ensemble")}


def _load(path: str, kind: str):
    """The object in a matrix file of the given _KINDS key; a pure state loads as its density matrix."""
    obj = fileio.load(path)
    types, name = _KINDS[kind]
    if not isinstance(obj, types):
        raise ValidationError(f"{path}: expected {name} file")
    return obj.density() if isinstance(obj, PureState) else obj


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("COH_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ValidationError(f"COH_SEED must be an integer, got {env!r}") from exc
    return 0


def _emit(doc: dict) -> None:
    json.dump(doc, sys.stdout)
    sys.stdout.write("\n")


def cmd_compute(args) -> int:
    rho = _load(args.state, "state")
    povm = _load(args.povm, "povm")
    measure_id = MEASURE_BY_FLAG[args.measure]
    if (args.alpha is None) == (measure_id == measures.TSALLIS):
        raise ValidationError("--alpha is required for the tsallis measure, and only for it")
    result = measures.compute(rho, povm, measure_id, args.alpha)
    report = measures.is_povm_incoherent(rho, povm)
    _emit({
        "measure": result.measure_id,
        "alpha": result.alpha,
        "value": result.value,
        "incoherent": report.incoherent,
        "incoherence_defect": report.max_defect,
    })
    return 0


def _parse_pq(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValidationError(f"--pq expects 'p,q', got {text!r}")
    try:
        p, q = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ValidationError(f"--pq expects numbers, got {text!r}") from exc
    return bounds.check_exponents(p, q)


def _parse_range(text: str, default: tuple[float, float, float]) -> np.ndarray:
    if text is None:
        lo, hi, step = default
    else:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError(f"--range expects 'start:stop:step', got {text!r}")
        try:
            lo, hi, step = (float(p) for p in parts)
        except ValueError as exc:
            raise ValidationError(f"--range expects numbers, got {text!r}") from exc
    if step <= 0 or hi < lo:
        raise ValidationError(f"--range needs step > 0 and stop >= start, got {text!r}")
    steps = (hi - lo) / step
    count = int(math.floor(steps + 1e-9)) + 1 if math.isfinite(steps) else math.inf
    if count > MAX_RANGE_POINTS:
        raise ValidationError(f"--range gives more than {MAX_RANGE_POINTS} points, got {text!r}")
    return np.minimum(lo + step * np.arange(count), hi)  # roundoff must not pass the stop


def cmd_bounds(args) -> int:
    pq_list = [_parse_pq(t) for t in args.pq] if args.pq else [(2.0, 2.0)]
    header = ["parameter", "c_l1"]
    header += [f"thm1_p{p:g}_q{q:g}" for p, q in pq_list]
    header += ["thm1_p2q2", "thm2_ordered", "thm2_uniform", "b1", "b2", "b3"]
    # no cell needs CSV quoting: the names hold no comma, quote or line break, and each
    # number is its repr, as the csv module writes it

    if args.figure is not None:
        if args.state or args.povm:
            raise ValidationError("--figure replaces --state/--povm")
        grid = _parse_range(args.range, (0.0, 0.8, 0.01) if args.figure == 1 else (0.0, 0.24, 0.0025))
        blocks = bounds._figure_sweep(args.figure, grid, pq_list)  # checks the grid: fails before any row
        sys.stdout.write(",".join(header + ["b1_ref", "b2_ref", "b3_ref"]) + "\n")
        for rows in blocks:
            sys.stdout.write("".join(",".join(map(repr, row)) + "\n" for row in rows.tolist()))
        return 0

    if not (args.state and args.povm):
        raise ValidationError("need --state and --povm (or --figure)")
    if args.range is not None:
        raise ValidationError("--range applies only with --figure")
    rho = _load(args.state, "state")
    povm = _load(args.povm, "povm")
    basis = None
    if povm.is_rank_one_projective():
        # each element is a rank-one projector; the top row of its factor, sqrt(s) u^dag
        # with s = 1, is the conjugated basis column
        basis = require_unitary(povm.root_factors[1][:, 0, :].conj().T)
    [row] = bounds._bound_columns(rho.mat, measures._one_state(rho, povm), povm, pq_list, basis).tolist()
    cells = ["", *map(repr, row), *([] if basis is not None else ["", "", ""])]  # no basis: empty b1-b3
    sys.stdout.write(",".join(header) + "\n" + ",".join(cells) + "\n")  # no header on error
    return 0


def cmd_lsm(args) -> int:
    if args.ensemble and (args.state or args.povm):
        raise ValidationError("--ensemble replaces --state/--povm")
    doc = {}
    if args.ensemble:
        instance = lsm.build_lsm(_load(args.ensemble, "ensemble"))
    else:
        if not (args.state and args.povm):
            raise ValidationError("need --ensemble, or --state and --povm")
        # the identity check steers the ensemble and builds its LSM: reuse both
        check = lsm.discrimination_identity_check(_load(args.state, "state"), _load(args.povm, "povm"))
        instance = check.instance
        doc["identity"] = {"tsallis_half": check.lhs, "twice_error": check.rhs,
                           "defect": check.defect}
    ensemble = instance.ensemble
    doc.update({
        "member_count": ensemble.size,
        "weights": [float(w) for w in ensemble.weights],
        "error_probability": instance.error_probability,
        "support_rank": instance.support_rank,
        "support_restricted": instance.support_restricted,
        "completeness_defect": instance.completeness_defect,
    })
    _emit(doc)
    return 0


def cmd_uncertainty(args) -> int:
    rho = _load(args.state, "state")
    e = _load(args.povm, "povm")
    f = _load(args.povm2, "povm")
    report = uncertainty.uncertainty_report(rho, e, f)
    _emit({
        "lhs": report.lhs,
        "c": report.c,
        "c_prime": report.c_prime,
        "bound_c": report.bound_c,
        "bound_c_prime": report.bound_c_prime,
        "entropy_rho": report.entropy_rho,
        "satisfied_c": report.lhs >= report.bound_c - 1e-8,
        "satisfied_c_prime": report.lhs >= report.bound_c_prime - 1e-8,
        "state_is_pure": rho.is_pure(),
        "pure_state_bound": uncertainty.pure_state_bound(report.c),
    })
    return 0


def cmd_haar(args) -> int:
    if (args.alpha is None) == (args.measure == "tsallis"):
        raise ValidationError("--alpha is required for the tsallis measure, and only for it")
    if args.measure == "l1bound" and args.mc is not None:
        raise ValidationError("--mc does not apply to the l1bound measure")
    if not args.mc and args.seed is not None:
        raise ValidationError("--seed applies only with a nonzero --mc")
    povm = _load(args.povm, "povm")
    if args.measure == "l1bound":
        value = haar.haar_average_l1_bound(povm)
        _emit({
            "measure": "l1_bound",
            "exponents": "p=q=2",
            "bound": value,
            "universal_bound": float(povm.outcomes - 1),
        })
        return 0
    measure_id = MEASURE_BY_FLAG[args.measure]
    rng = None
    if args.mc:
        seed = _resolve_seed(args)
        if seed < 0:
            raise ValidationError(f"seed must be non-negative, got {seed}")
        rng = np.random.default_rng(seed)
    result = haar.haar_average(povm, measure_id, alpha=args.alpha, mc_samples=args.mc, rng=rng)
    doc = {
        "measure": result.measure_id,
        "alpha": result.alpha,
        "analytic": result.analytic,
    }
    if args.mc:
        doc.update({
            "mc_estimate": result.mc_estimate,
            "mc_std_error": result.mc_std_error,
            "sample_count": result.sample_count,
            "sigma_distance": result.sigma_distance,
            "seed": seed,
        })
    _emit(doc)
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValidationError, so they exit 2 with JSON on stderr like
    every other error; the subcommand parsers share this class."""

    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="povmcoh",
        description="Coherence measures over general quantum measurements",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="measure value for a (state, POVM) pair")
    p.add_argument("--state", required=True)
    p.add_argument("--povm", required=True)
    p.add_argument("--measure", required=True, choices=sorted(MEASURE_BY_FLAG))
    p.add_argument("--alpha", type=float)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("bounds", help="l1 upper bounds as CSV (pair mode or figure sweep)")
    p.add_argument("--state")
    p.add_argument("--povm")
    p.add_argument("--figure", type=int, choices=(1, 2))
    p.add_argument("--range", help="sweep grid start:stop:step (figure mode)")
    p.add_argument("--pq", action="append", help="Hölder exponent pair 'p,q'; repeatable")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("lsm", help="least-squares measurement report")
    p.add_argument("--ensemble")
    p.add_argument("--state")
    p.add_argument("--povm")
    p.set_defaults(func=cmd_lsm)

    p = sub.add_parser("uncertainty", help="two-measurement uncertainty report")
    p.add_argument("--state", required=True)
    p.add_argument("--povm", required=True)
    p.add_argument("--povm2", required=True)
    p.set_defaults(func=cmd_uncertainty)

    p = sub.add_parser("haar", help="exact Haar averages, optional MC cross-check")
    p.add_argument("--povm", required=True)
    p.add_argument("--measure", required=True, choices=("r", "tsallis", "l1bound"))
    p.add_argument("--alpha", type=float)
    p.add_argument("--mc", type=int, help="Monte Carlo sample count")
    p.add_argument("--seed", type=int, help="MC seed (fallback: COH_SEED, then 0)")
    p.set_defaults(func=cmd_haar)

    return parser


def _json_number(x: float):
    """x, or its name "inf", "-inf" or "nan" where RFC 8259 JSON has no number."""
    return x if math.isfinite(x) else str(x)


def _fail(exc: PovmcohError, code: int) -> int:
    detail = {"type": type(exc).__name__, "message": str(exc)}
    violations = getattr(exc, "violations", None)
    if violations:
        detail["violations"] = [{"invariant": v.invariant, "defect": _json_number(v.defect)}
                                for v in violations]
    json.dump({"error": detail}, sys.stderr, allow_nan=False)
    sys.stderr.write("\n")
    return code


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        return _fail(exc, 2)
    except DimensionMismatchError as exc:
        return _fail(exc, 3)
    except PovmcohError as exc:  # numeric failures and anything else from the library
        return _fail(exc, 4)


def run() -> int:
    """The process entry point of `python -m povmcoh`, `python -m povmcoh.cli` and the
    `povmcoh` script: main(), then gc.freeze() before the interpreter exits.

    Shutdown runs several full garbage collections over every tracked object, some
    22 000 after `import povmcoh.cli`; the frozen ones sit in the permanent generation,
    which those collections skip.  main() itself leaves the collector alone, for the
    tests and library callers that run it in process."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
