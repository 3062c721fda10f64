#!/usr/bin/env python3
"""Cross-check the exact Haar-average formulas against Monte Carlo sampling.

Draws random POVMs, evaluates the analytic average of each measure, runs the
vectorized pure-state sampler, and prints the disagreement in standard
errors.  Anything beyond a few sigma would point at a formula bug.
"""

import argparse
import sys

import numpy as np

from povmcoh import haar_average, haar_average_l1_bound, monte_carlo_average, random_povm


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--povms", type=int, default=5, help="number of random POVMs")
    parser.add_argument("--dim", type=int, default=3)
    parser.add_argument("--outcomes", type=int, default=4)
    parser.add_argument("--samples", type=int, default=200000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--alphas", type=float, nargs="*", default=[0.5, 1.5, 2.0])
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    jobs = [("relative_entropy", None, "r")]
    jobs += [("tsallis", a, f"tsallis({a:g})") for a in args.alphas]
    worst = 0.0
    print(f"{'povm':>4} {'measure':>12} {'analytic':>12} {'mc':>12} "
          f"{'stderr':>10} {'sigma':>7}")
    for i in range(args.povms):
        povm = random_povm(args.dim, args.outcomes, rng)
        for measure_id, alpha, label in jobs:
            res = haar_average(povm, measure_id, alpha=alpha, mc_samples=args.samples, rng=rng)
            worst = max(worst, res.sigma_distance)
            print(f"{i:>4} {label:>12} {res.analytic:>12.8f} {res.mc_estimate:>12.8f} "
                  f"{res.mc_std_error:>10.2e} {res.sigma_distance:>7.2f}")
        # the l1 measure has no closed-form average; report its pair bound
        # next to a sampled mean instead
        bound = haar_average_l1_bound(povm)
        est = monte_carlo_average(povm, "l1", args.samples, rng)
        gap = bound - est.mean
        print(f"{i:>4} {'l1 (bound)':>12} {bound:>12.8f} {est.mean:>12.8f} "
              f"{est.std_error:>10.2e} {'gap=' + format(gap, '.4f'):>12}")
    print(f"\nworst analytic-vs-MC distance: {worst:.2f} sigma")
    return 0 if worst <= 5.0 else 1


if __name__ == "__main__":
    sys.exit(main())
