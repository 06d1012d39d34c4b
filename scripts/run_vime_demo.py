#!/usr/bin/env python3
"""Sweep the two-ramp family and print where its near-minimizers live.

For each eps in the sweep the demo reports whether the eps-argmin blocks
stay out of the middle third (so no continuous selection of
near-minimizers can exist), plus the value function at the ends.
"""

import argparse

import numpy as np

from wellpose.objectives import argmin_set
from wellpose.parametric import no_continuous_selection_demo, value_function, vime_family


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=999)
    ap.add_argument("--eps", type=float, nargs="*", default=[0.05, 0.1, 0.2, 0.3, 0.4, 0.49])
    args = ap.parse_args()

    fam = vime_family(args.steps, args.steps)
    V = value_function(fam)
    print(f"family: {args.steps} steps, V(0) = {V[0]:+.6f}, V(1) = {V[-1]:+.6f}")
    print(f"{'eps':>6}  {'gap ok':>6}  {'left block width':>16}  {'right block width':>17}")
    for eps in args.eps:
        rep = no_continuous_selection_demo(fam, eps)
        xs = np.arange(args.steps + 1) / args.steps
        omega0 = argmin_set(fam.objective(0), eps).indices
        omega1 = argmin_set(fam.objective(args.steps), eps).indices
        left_w = xs[omega0[-1]] - xs[omega0[0]]
        right_w = xs[omega1[-1]] - xs[omega1[0]]
        print(f"{eps:>6.2f}  {str(rep.ok):>6}  {left_w:>16.4f}  {right_w:>17.4f}")
    print("near-minimizers never enter (1/3, 2/3): any selection jumps the gap")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
