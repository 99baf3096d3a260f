#!/usr/bin/env python3
"""Print certified envelope constants for both step schedules.

For each (schedule, sigma) pair this reports the certified brackets for the
weight sum gamma1 and the weight product gamma2, plus the derived envelope
constants C1 and C2.  Brackets are rigorous: an fsum partial sum over
N = 2^12 terms plus a Hermite-Hadamard tail bracket with closed-form
integrals (exponential integrals in u = ln(x+2)), each end widened by an
explicit bound on its rounding; N doubles only while the width exceeds the
requested tolerance.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from stoplab.lyapunov import envelope_constants
from stoplab.sgdm import ScheduleVariant, Variant


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--L", type=float, default=1.0)
    parser.add_argument("--E0", type=float, default=1.0)
    parser.add_argument("--tol", type=float, default=1e-6)
    parser.add_argument("--sigmas", type=float, nargs="+",
                        default=[0.5, 1.0, 2.0])
    parser.add_argument("--epsilons", type=float, nargs="+",
                        default=[0.1, 0.3, 0.49])
    args = parser.parse_args()

    scheds = [("log^2", ScheduleVariant(Variant.THEOREM_MAIN, L=args.L))]
    for eps in args.epsilons:
        scheds.append((f"log^{1 + eps:g}",
                       ScheduleVariant(Variant.PROPOSITION_EPS, L=args.L,
                                       epsilon=eps)))

    header = (f"{'schedule':>10} {'sigma':>6} {'gamma1':>12} {'gamma2':>12} "
              f"{'C1':>12} {'C2':>12}")
    print(header)
    for name, sched in scheds:
        for sigma in args.sigmas:
            env = envelope_constants(sched, sigma, args.E0, args.tol)
            print(f"{name:>10} {sigma:6.2f} {env.gamma1:12.6f} "
                  f"{env.gamma2:12.6f} {env.C1:12.6f} {env.C2:12.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
