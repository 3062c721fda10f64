#!/usr/bin/env python3
"""Reference cells: single-call times of the library's main entry points.

    python3 cohbench/cells.py

Times C_r, C_l1, holder_bound (p = q = 2) and uncertainty_report at
(d, n) = (2, 2), (8, 8) and (32, 32) on one full-rank state, with the POVM's
square roots already cached, and the Monte Carlo sampler's Msamples/s at
workers 1 and 2.  Times are wall-clock medians, not gauged: they describe the
host they were taken on.  BLAS runs on one thread.
"""

import statistics
import sys
import time

import numpy as np

import inputs
import run


def median_ms(fn, budget_s: float = 1.0, max_repeats: int = 200) -> float:
    times = []
    start = time.perf_counter()
    while len(times) < 3 or (time.perf_counter() - start < budget_s and len(times) < max_repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def main() -> int:
    run.guard_source()
    import povmcoh as pc

    print("| (d, n) | C_r ms | C_l1 ms | holder_bound ms | uncertainty_report ms |")
    print("|---|---|---|---|---|")
    for d, n in ((2, 2), (8, 8), (32, 32)):
        rng = np.random.default_rng([d, n])
        state = inputs.make_state(rng, d, d)
        rho = pc.DensityMatrix(state.mat)
        e = pc.Povm(inputs.make_random_povm(rng, d, n).elements)
        f = pc.Povm(inputs.make_random_povm(rng, d, n).elements)
        e.sqrt_elements, f.sqrt_elements  # noqa: B018  (fill the per-POVM cache first)
        cells = [median_ms(lambda: pc.relative_entropy_coherence(rho, e)),
                 median_ms(lambda: pc.l1_coherence(rho, e)),
                 median_ms(lambda: pc.holder_bound(rho, e, 2.0, 2.0)),
                 median_ms(lambda: pc.uncertainty_report(rho, e, f))]
        print(f"| ({d}, {n}) | " + " | ".join(f"{c:.3g}" for c in cells) + " |")

    print()
    print("| MC (d, n) | workers | Msamples/s |")
    print("|---|---|---|")
    samples = 1 << 17
    for d, n in ((3, 4), (8, 8)):
        e = pc.Povm(inputs.make_random_povm(np.random.default_rng([d, n, 1]), d, n).elements)
        for workers in (1, 2):
            ms = median_ms(lambda: pc.monte_carlo_average(e, "relative_entropy", samples,
                                                          np.random.default_rng(0), workers=workers),
                           budget_s=2.0, max_repeats=5)
            print(f"| ({d}, {n}) | {workers} | {samples / ms / 1e3:.3g} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
