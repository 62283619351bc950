#!/usr/bin/env python3
"""Profile the l^p operator norm of a random acyclic element across p.

Prints the norm (exact at p=1, singular value at p=2, certified lower bound
elsewhere) for a grid of exponents, together with the interpolation envelope
max(column-sum, row-sum norms).

Usage:
    python scripts/norm_profile.py [--edges 4] [--seed 0] [--terms 5]
"""

import argparse
import random
from collections import defaultdict

from leavitt_lab.matricial import acyclic_expansion
from leavitt_lab.pnorm import element_norm_estimate
from leavitt_lab.sample import random_element
from leavitt_lab.zoo import line


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--edges", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--terms", type=int, default=5)
    args = parser.parse_args()

    g = line(args.edges)
    x = random_element(g, random.Random(args.seed), max_terms=args.terms, max_len=3)
    print(f"element over a {args.edges}-edge line, {len(x)} normal-form terms")

    # each expanded term a·b* is the entry (a, b) of its sink block
    cols, rows = defaultdict(float), defaultdict(float)
    for m, c in acyclic_expansion(x).items():
        cols[m.beta] += abs(complex(c))
        rows[m.alpha] += abs(complex(c))
    colsum = max(cols.values(), default=0.0)
    rowsum = max(rows.values(), default=0.0)
    print(f"interpolation envelope: max(colsum={colsum:.6f}, rowsum={rowsum:.6f})")

    for p in (1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0, 8.0):
        est = element_norm_estimate(x, p, seed=args.seed)
        kind = "exact" if est.exact else ("svd" if p == 2.0 else "lower bound")
        flag = "" if est.converged in (None, True) else "  [not converged]"
        print(f"  p={p:<4}  {est.value:.9f}  ({kind}){flag}")


if __name__ == "__main__":
    main()
