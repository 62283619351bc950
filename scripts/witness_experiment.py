#!/usr/bin/env python3
"""Random witness soundness experiment.

Samples seeded random nonzero elements over an SPI fixture, runs the witness
construction, re-checks x·a·y = v exactly and that x and y have one term each
(a scalar times a path's adjoint, and a path), and reports timing and
trace-shape statistics.

Usage:
    python scripts/witness_experiment.py [--graph r2] [--count 100] [--seed 0]
"""

import argparse
import random
import time
from collections import Counter

from leavitt_lab.lpa import multiply, vertex_element
from leavitt_lab.sample import random_element
from leavitt_lab.spi import spi_witness
from leavitt_lab.zoo import spi_fixtures


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--graph", default="r2", choices=sorted(spi_fixtures()))
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-terms", type=int, default=6)
    parser.add_argument("--max-len", type=int, default=4)
    args = parser.parse_args()

    g = spi_fixtures()[args.graph]
    rng = random.Random(args.seed)
    shapes = Counter()
    start = time.perf_counter()
    for i in range(args.count):
        a = random_element(g, rng, max_terms=args.max_terms, max_len=args.max_len)
        w = spi_witness(a)
        assert multiply(multiply(w.x, a), w.y) == vertex_element(g, w.v), i
        assert len(w.x) == len(w.y) == 1, i
        shapes[tuple(step["step"] for step in w.trace)] += 1
    elapsed = time.perf_counter() - start

    print(f"{args.count} witnesses over {args.graph}: all exact, x and y one term each, "
          f"{elapsed:.2f}s ({1000 * elapsed / args.count:.1f} ms each)")
    for shape, n in shapes.most_common():
        print(f"  {n:>5}  {' -> '.join(shape)}")


if __name__ == "__main__":
    main()
