"""Set-up probe: a fresh interpreter that imports povmcoh from the checkout's
src/ and builds and validates one round of a workload's inputs.

    python3 probe.py WORKLOAD SEED SRC WORKDIR

Prints {"start", "import_s", "build_s"}; `start` is CLOCK_MONOTONIC when the
script began, which the parent compares with its spawn time.
"""

import time

START = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def build(pc, workload: str, seed: int, workdir: Path) -> None:
    import inputs

    if workload == "pair-report":
        for case in inputs.pair_round(seed, 0):
            pc.DensityMatrix(case.state.mat)
            pc.Povm(case.e.elements)
            pc.Povm(case.f.elements)
    elif workload == "sweep-large":
        for sweep in inputs.sweep_round(seed, 0):
            pc.Povm(sweep.povm.elements)
            for state in sweep.states:
                pc.DensityMatrix(state.mat)
    elif workload == "haar":
        for case in inputs.haar_round(seed, 0):
            pc.Povm(case.povm.elements)
    else:
        inp = inputs.cli_inputs(seed)
        inputs.write_cli_files(inp, workdir)
        pc.DensityMatrix(inp.state.mat)
        for m in (inp.e, inp.f, inp.p):
            pc.Povm(m.elements)
        pc.Ensemble([s.mat for s in inp.members], inp.weights)


def main() -> int:
    workload, seed, src, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]), Path(sys.argv[4])
    sys.path.insert(0, str(src))
    t0 = time.monotonic()
    import povmcoh.cli

    import_s = time.monotonic() - t0
    if not Path(povmcoh.__file__).resolve().is_relative_to(src.resolve()):
        print(f"povmcoh imported from {povmcoh.__file__}, not {src}", file=sys.stderr)
        return 2
    t1 = time.monotonic()
    build(povmcoh, workload, seed, workdir)
    print(json.dumps({"start": START, "import_s": import_s, "build_s": time.monotonic() - t1}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
