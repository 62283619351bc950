"""Seeded random elements for property suites and experiments."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from .graph import Graph, paths_by_range
from .lpa import Element, GaussianRational, Monomial, add_term, gauss, normalize_terms


def random_coefficient(rng: random.Random, component: Optional[str] = None) -> GaussianRational:
    """A small nonzero Gaussian rational.

    ``component`` = "re" or "im" restricts to exact-float dyadics on that one
    component (so magnitudes stay rational, for the norm oracles); None draws
    a general Gaussian rational.
    """
    if component is not None:
        num = rng.choice([n for n in range(-8, 9) if n])
        den = rng.choice([1, 2, 4, 8])
        value = Fraction(num, den)
        return gauss(value, 0) if component == "re" else gauss(0, value)
    while True:
        c = gauss(
            Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
            Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
        )
        if c:
            return c


def random_element(
    g: Graph,
    rng: random.Random,
    max_terms: int = 6,
    max_len: int = 4,
    degree_zero: bool = False,
    vertex_commuting: bool = False,
    corner: Optional[str] = None,
    stage: Optional[int] = None,
    nonzero: bool = True,
    dyadic_real: bool = False,
) -> Element:
    """A random normal-form element.

    degree_zero forces |alpha| = |beta| per term; stage additionally bounds the
    common length (an element of the degree-zero filtration at that stage);
    vertex_commuting forces s(alpha) = s(beta); corner forces both sources to
    the given vertex.  dyadic_real draws the whole element with dyadic
    coefficients on a single component (all real or all imaginary), so every
    coefficient magnitude is an exact rational even after terms collide.
    """
    if stage is not None:
        degree_zero = True
        max_len = stage
    pool = paths_by_range(g, max_len)
    flat = [p for ps in pool.values() for p in ps]
    for _ in range(200):
        component = rng.choice(["re", "im"]) if dyadic_real else None
        raw: dict[Monomial, GaussianRational] = {}
        n_terms = rng.randint(1, max_terms)
        for _ in range(n_terms):
            for _ in range(200):
                alpha = rng.choice(flat)
                candidates = pool[g.range_of(alpha)]
                if degree_zero:
                    candidates = [b for b in candidates if b.length == alpha.length]
                if vertex_commuting:
                    candidates = [b for b in candidates if b.source == alpha.source]
                if corner is not None:
                    if alpha.source != corner:
                        continue
                    candidates = [b for b in candidates if b.source == corner]
                if candidates:
                    beta = rng.choice(candidates)
                    break
            else:
                continue
            add_term(raw, Monomial(alpha, beta), random_coefficient(rng, component=component))
        x = normalize_terms(g, raw)
        if not nonzero or not x.is_zero:
            return x
    raise RuntimeError("could not sample a nonzero element with the requested shape")
