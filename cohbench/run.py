#!/usr/bin/env python3
"""Gauge-normalised benchmark of povmcoh.

    python3 cohbench/run.py --workload pair-report --seed 1 --seconds 15 --trace 0

Drives one workload as a single-process closed loop: each op starts when the
previous one returns.  Every op is bracketed by a fixed gauge kernel that
never imports povmcoh, and its time is rescaled to the kernel's nominal speed
using the mean of the kernel times on either side of it, which cancels the
host's own drift.  Every op's output is checked, outside its time, against
oracles computed apart from the program.

The last line of stdout is the result: with --trace 0 the end-to-end metrics,
with --trace 1 the per-layer metrics from a traced run (its first half runs
untraced, to measure the tracing overhead).  The line before it holds the
failure accounting, sample counts and machine facts.
"""

import os

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)  # before numpy loads its BLAS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("pair-report", "sweep-large", "haar", "cli")
# Gauge kernel times on the reference host (README), in seconds; an op's time
# is reported as if the kernel beside it had taken exactly this long.
NOMINAL_S = {"pair-report": 1.5e-3, "sweep-large": 12.5e-3, "haar": 3.75e-3, "cli": 0.22}
SETUP_PROBES = 3  # before the timed loop, and again after it
TRACE_SETUP_PROBES = 1


def fail(message: str) -> None:
    print(f"cohbench: {message}", file=sys.stderr)
    sys.exit(2)


def guard_source() -> None:
    """Refuse to run unless povmcoh resolves to this checkout's src/."""
    if not (SRC / "povmcoh" / "__init__.py").is_file():
        fail(f"no povmcoh package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    spec = importlib.util.find_spec("povmcoh")
    origin = Path(spec.origin).resolve() if spec and spec.origin else None
    if origin is None or not origin.is_relative_to(SRC.resolve()):
        fail(f"povmcoh would be imported from {origin}, not from {SRC}")


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if it can be found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


class Gauge:
    """Times the fixed kernel beside each op and turns op times into gauged times."""

    def __init__(self, kernel, nominal_s: float):
        self.kernel = kernel
        self.nominal_s = nominal_s
        self.times = []
        self.last = self._time()

    def _time(self) -> float:
        t0 = time.perf_counter()
        self.kernel()
        dt = time.perf_counter() - t0
        self.times.append(dt)
        return dt

    def factor(self) -> float:
        """Run the kernel after an op; nominal over the mean of the kernels around it."""
        after = self._time()
        factor = self.nominal_s / (0.5 * (self.last + after))
        self.last = after
        return factor


class Tally:
    """Gauged op times, failure accounting and per-layer sums of one phase."""

    def __init__(self):
        self.times = []
        self.attempted = 0
        self.failed = 0
        self.by_fault = Counter()
        self.unexplained = []
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.counts = Counter()
        self.child = defaultdict(list)
        self.max_child_rss_kb = 0

    def record(self, op, gauged_s: float, problems: list, factor: float, op_spans=None):
        self.attempted += 1
        self.times.append(gauged_s)
        if problems:
            self.failed += 1
            if op.fault:
                self.by_fault[op.fault] += 1
            else:
                self.unexplained.append(f"{op.label}: {'; '.join(map(str, problems[:3]))}")
        if op_spans:
            for layer, s in op_spans["self_s"].items():
                self.self_s[layer] += s * factor
            for name, s in op_spans["incl_s"].items():
                self.incl_s[name] += s * factor
            self.counts.update(op_spans["counts"])


def drive(ops_for_round, gauge: Gauge, seconds: float, start_round: int, tally: Tally,
          tracer=None) -> int:
    """Run whole rounds until `seconds` have passed; returns the next round index."""
    t_end = time.perf_counter() + seconds
    r = start_round
    while True:
        for op in ops_for_round(r):
            if tracer is not None:
                tracer.take()
            t0 = time.perf_counter()
            try:
                out, problems = op.run(), None
            except Exception as exc:  # a raising op is a failed op; the run goes on
                out, problems = None, [f"raised {type(exc).__name__}: {exc}"]
            dt = time.perf_counter() - t0
            op_spans = tracer.take() if tracer is not None else None
            factor = gauge.factor()
            if problems is None:
                try:
                    problems = op.check(out)
                except Exception as exc:  # output the checker cannot read is wrong output
                    problems = [f"unreadable output ({type(exc).__name__}: {exc})"]
            if isinstance(out, workloads.CliRun):
                if out.trace is not None:
                    op_spans = out.trace
                    tally.child["interpreter_s"].append((out.trace["start"] - out.spawned_at) * factor)
                    tally.child["import_s"].append(out.trace["import_s"] * factor)
                else:
                    tally.max_child_rss_kb = max(tally.max_child_rss_kb, out.maxrss_kb)
            tally.record(op, dt * factor, problems, factor, op_spans)
        r += 1
        if time.perf_counter() >= t_end:
            return r


# --------------------------------------------------------------------------
# set-up probes


def setup_probes(workload: str, seed: int, count: int, gauge: Gauge, workdir: Path) -> list[dict]:
    """Fresh interpreters that import povmcoh and build the workload's inputs."""
    probes = []
    for _ in range(count):
        argv = [sys.executable, str(BENCH / "probe.py"), workload, str(seed), str(SRC), str(workdir)]
        t0 = time.perf_counter()
        run = workloads.spawn(argv, child_env(), cwd=ROOT)
        dt = time.perf_counter() - t0
        factor = gauge.factor()
        if run.code != 0:
            fail(f"set-up probe failed ({run.code}): {run.stderr.strip()[-500:]}")
        info = json.loads(run.stdout)
        probes.append({"setup_s": dt * factor, "interpreter_s": (info["start"] - run.spawned_at) * factor,
                       "import_s": info["import_s"] * factor})
    return probes


# --------------------------------------------------------------------------
# workloads


class CliLauncher:
    """Runs `python -m povmcoh.cli ARGS`, or the traced wrapper once `traced` is set."""

    def __init__(self, workdir: Path):
        self.env = child_env()
        self.trace_path = workdir / "trace.json"
        self.traced = False

    def __call__(self, args) -> workloads.CliRun:
        if self.traced:
            argv = [sys.executable, str(BENCH / "cli_child.py"), str(SRC), str(self.trace_path), *args]
            return workloads.spawn(argv, self.env, cwd=ROOT, trace_path=self.trace_path)
        return workloads.spawn([sys.executable, "-m", "povmcoh.cli", *args], self.env, cwd=ROOT)


def make_workload(name: str, seed: int, launcher: CliLauncher):
    """(ops_for_round, gauge kernel) for a workload."""
    if name == "cli":
        inp = inputs.cli_inputs(seed)
        files = inputs.write_cli_files(inp, launcher.trace_path.parent)
        ops = workloads.cli_ops(files, inp, launcher)
        return (lambda r: ops), workloads.cli_kernel(launcher.env)

    import povmcoh as pc

    makers = {"pair-report": (workloads.pair_round, workloads.pair_kernel),
              "sweep-large": (workloads.sweep_round, workloads.sweep_kernel),
              "haar": (workloads.haar_round, workloads.haar_kernel)}
    round_maker, kernel_maker = makers[name]
    return (lambda r: round_maker(pc, seed, r)), kernel_maker()


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(tally: Tally, probes: list, workload: str) -> dict:
    if workload == "cli":
        rss_mb = tally.max_child_rss_kb / 1024.0
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": _metric(statistics.median(p["setup_s"] for p in probes), "s"),
        "ops_per_ref_s": _metric(tally.attempted / sum(tally.times), "ops/s"),
        "op_ref_ms_p50": _metric(1e3 * statistics.median(tally.times), "ms"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }


def per_layer(traced: Tally, untraced: Tally, probes: list, workload: str) -> dict:
    n = traced.attempted
    ms = {layer: 1e3 * traced.self_s.get(layer, 0.0) / n
          for layer in ("linalg", "objects", "measures", "bounds", "lsm", "uncertainty", "haar")}
    c = traced.counts
    linalg_s = traced.self_s.get("linalg", 0.0)
    mc_s = traced.incl_s.get("haar.monte_carlo_average", 0.0)
    if workload == "cli":
        interpreter_s = statistics.median(traced.child["interpreter_s"])
        import_s = statistics.median(traced.child["import_s"])
    else:
        interpreter_s = statistics.median(p["interpreter_s"] for p in probes)
        import_s = statistics.median(p["import_s"] for p in probes)
    mean = statistics.fmean
    return {
        "linalg.eig_calls": _metric(c["eig_calls"] / n, "calls/op"),
        "linalg.svd_calls": _metric(c["svd_calls"] / n, "calls/op"),
        "linalg.self_ms": _metric(ms["linalg"], "ms/op"),
        "linalg.gflop_computed": _metric(c["flops"] / n / 1e9, "GFLOP/op"),
        "linalg.gflops": _metric(c["flops"] / 1e9 / linalg_s if linalg_s else 0.0, "GFLOP/s"),
        "objects.validations": _metric(c["validations"] / n, "calls/op"),
        "objects.self_ms": _metric(ms["objects"], "ms/op"),
        "measures.self_ms": _metric(ms["measures"], "ms/op"),
        "measures.l1_evals_per_pair": _metric(c["l1_calls"] / c["l1_pairs"] if c["l1_pairs"] else 0.0,
                                              "calls/pair"),
        "bounds.self_ms": _metric(ms["bounds"], "ms/op"),
        "bounds.povm_rebuilds": _metric(c["povm_rebuilds"] / n, "calls/op"),
        "lsm.self_ms": _metric(ms["lsm"], "ms/op"),
        "uncertainty.self_ms": _metric(ms["uncertainty"], "ms/op"),
        "haar.self_ms": _metric(ms["haar"], "ms/op"),
        "haar.dd_calls": _metric(c["dd_calls"] / n, "calls/op"),
        "haar.dd_nodes": _metric(c["dd_nodes"] / n, "nodes/op"),
        "haar.mc_msamples_per_s": _metric(c["mc_samples"] / 1e6 / mc_s if mc_s else 0.0, "Msamples/s"),
        "fileio.load_ms": _metric(1e3 * traced.incl_s.get("fileio.load", 0.0) / n, "ms/op"),
        "cli.interpreter_ms": _metric(1e3 * interpreter_s, "ms"),
        "cli.import_ms": _metric(1e3 * import_s, "ms"),
        "cli.main_ms": _metric(1e3 * traced.incl_s.get("cli.main", 0.0) / n, "ms/op"),
        "trace.overhead_pct": _metric(100.0 * (mean(traced.times) / mean(untraced.times) - 1.0), "%"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    guard_source()
    import povmcoh  # noqa: F401  (the guard above fixed where it comes from)
    import povmcoh.cli  # noqa: F401
    import povmcoh.fileio  # noqa: F401

    workdir = BENCH / "_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: Path) -> int:
    launcher = CliLauncher(workdir)
    ops_for_round, kernel = make_workload(args.workload, args.seed, launcher)
    probe_gauge = Gauge(workloads.cli_kernel(child_env()), NOMINAL_S["cli"])
    n_probes = TRACE_SETUP_PROBES if args.trace else SETUP_PROBES
    probes = setup_probes(args.workload, args.seed, n_probes, probe_gauge, workdir)

    gauge = Gauge(kernel, NOMINAL_S[args.workload])
    untraced = Tally()
    if args.trace:
        next_round = drive(ops_for_round, gauge, args.seconds / 2.0, 0, untraced)
        traced = Tally()
        tracer = None
        if args.workload == "cli":
            launcher.traced = True
        else:
            import povmcoh

            tracer = spans.install(povmcoh)
        drive(ops_for_round, gauge, args.seconds / 2.0, next_round, traced, tracer)
        tallies = [untraced, traced]
    else:
        drive(ops_for_round, gauge, args.seconds, 0, untraced)
        tallies = [untraced]

    probes += setup_probes(args.workload, args.seed, n_probes, probe_gauge, workdir)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    by_fault = sum((t.by_fault for t in tallies), Counter())
    unexplained = [u for t in tallies for u in t.unexplained]
    if args.trace:
        metrics = per_layer(tallies[1], untraced, probes, args.workload)
    else:
        metrics = end_to_end(untraced, probes, args.workload)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "attempted": attempted, "failed": failed, "failed_by_fault": dict(by_fault),
        "unexplained_count": len(unexplained), "unexplained": unexplained[:10],
        "timed_samples": len(untraced.times),
        "setup_probes_s": [round(p["setup_s"], 4) for p in probes],
        "gauge": {"nominal_ms": 1e3 * gauge.nominal_s, "kernel_ms_median": 1e3 * statistics.median(gauge.times),
                  "probe_kernel_ms_median": 1e3 * statistics.median(probe_gauge.times)},
        "machine": machine_facts(),
    }
    print(json.dumps(detail))
    print(json.dumps({"correct": not unexplained, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
