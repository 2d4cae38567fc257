#!/usr/bin/env python3
"""Print the epsilon/delta uniformity table for two mappings.

frechet_test takes every D(h) from its own linearity battery's estimates,
never from a family's analytic derivative, so each residual margin carries
the estimate's error bound.  The first case is the smooth plane-to-space
family.  The affine case is the yardstick: with the square modulus at
constant one the residual is t*k up to the estimate's rounding, its
functional value is t*sqrt(3), and delta(eps) must be the largest scheduled
step below eps/sqrt(3).  Agreement here pins down the schedule bookkeeping,
not the analysis.
"""

import argparse
import csv
import dataclasses
import math
import sys

from paracone import Box, affine_mapping, frechet_test, smooth_r2_r3, square_modulus


def affine_case():
    f = affine_mapping(
        [[1.0, 2.0], [0.5, -1.0], [3.0, 0.0]],
        [0.1, -0.2, 0.3],
        Box(lo=[-1.0, -1.0], hi=[1.0, 1.0]),
    )
    # claimed modulus is zero; pay a square allowance instead so delta is finite
    spec = dataclasses.replace(f.claimed, modulus=square_modulus(), C=1.0, C1=2.0)
    return f, spec, [0.0, 0.0]


def closed_form_delta(eps: float, top: float = 0.1, halvings: int = 20) -> float:
    t = top
    best = float("nan")
    for _ in range(halvings + 1):
        if t * math.sqrt(3.0) <= eps:
            best = t
            break
        t /= 2.0
    return best


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--epsilons", type=float, nargs="+", default=[1e-2, 1e-3])
    ap.add_argument("--n-directions", type=int, default=16)
    ap.add_argument("--seed", type=int, default=31)
    ap.add_argument("--out", default=None, help="optional CSV path")
    args = ap.parse_args(argv)

    cases = []
    f_smooth = smooth_r2_r3()
    cases.append(("smooth", f_smooth, f_smooth.claimed, [0.1, -0.2], None))
    f_aff, spec_aff, x0_aff = affine_case()
    cases.append(("affine", f_aff, spec_aff, x0_aff, closed_form_delta))

    rows = []
    for name, f, spec, x0, oracle in cases:
        rep = frechet_test(
            f, spec, x0,
            epsilons=tuple(args.epsilons),
            n_directions=args.n_directions, seed=args.seed,
        )
        print(f"{name}: passed={rep.passed} residual_margin={rep.residual_margin:.3e} "
              f"max_base_norm={rep.max_base_norm:.6f} (radius {rep.base_radius:.6f})")
        for row in rep.table:
            line = (f"  eps={row['epsilon']:.0e}  delta={row['delta']:.6g}  "
                    f"max_lambda={row['max_lambda']:.3e}")
            expected = None
            if oracle is not None:
                expected = oracle(row["epsilon"])
                line += f"  closed form delta={expected:.6g}"
            print(line)
            rows.append({"case": name, **row, "closed_form_delta": expected})

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.out}", file=sys.stderr)

    return 0


if __name__ == "__main__":
    raise SystemExit(main())
