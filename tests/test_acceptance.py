"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime and asserting the stated budget.  Run with ``pytest -s`` to see
the lines as they complete.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from leavitt_lab import zoo
from leavitt_lab.graph import Graph, Verdict, classify_graph, enumerate_paths
from leavitt_lab.lpa import (
    Monomial,
    gauss,
    involute,
    multiply,
    normalize_terms,
    path_conjugate_sum,
    path_element,
    vertex_element,
    zero,
)
from leavitt_lab.matricial import acyclic_decompose, blockwise_product, filtration_decompose
from leavitt_lab.pnorm import (
    degree_component_quadrature_error,
    element_norm_acyclic,
    power_iteration_lower_bound,
    spatial_rep_acyclic,
)
from leavitt_lab.sample import random_element
from leavitt_lab.spi import cohn_embedding, equal_length_closed_paths, spi_witness
from leavitt_lab.transforms import reachable_subgraph

from oracles import oracle_column_sum_norm, oracle_cycles, oracle_is_simple, oracle_normalize


@contextmanager
def budget(number: int, name: str, seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s / budget {seconds:.0f}s)")
    assert elapsed < seconds, f"criterion {number} exceeded its {seconds}s budget"


# 1 -------------------------------------------------------------------------


def test_acceptance_1_trichotomy_fidelity():
    expected = {
        "r1": Verdict.NOT_SIMPLE,
        "r2": Verdict.SIMPLE_PURELY_INFINITE,
        "r3": Verdict.SIMPLE_PURELY_INFINITE,
        "a2": Verdict.SIMPLE_ACYCLIC,
        "a3": Verdict.SIMPLE_ACYCLIC,
        "two_isolated": Verdict.NOT_SIMPLE,
        "two_roses": Verdict.NOT_SIMPLE,
        "spi3": Verdict.SIMPLE_PURELY_INFINITE,
        "loop_with_sink": Verdict.NOT_SIMPLE,
        "omega_spi": Verdict.SIMPLE_PURELY_INFINITE,
        "rand4a": Verdict.NOT_SIMPLE,
        "rand4b": Verdict.SIMPLE_PURELY_INFINITE,
    }
    graphs = zoo.standard_graphs()
    assert len(graphs) == 12
    with budget(1, "trichotomy fidelity", 1.0):
        for name, g in graphs.items():
            verdict = classify_graph(g).verdict
            assert verdict is expected[name], name
            assert (verdict is not Verdict.NOT_SIMPLE) == oracle_is_simple(g), name
            has_cycle = bool(oracle_cycles(g))
            if verdict is Verdict.SIMPLE_PURELY_INFINITE:
                assert has_cycle
            if verdict is Verdict.SIMPLE_ACYCLIC:
                assert not has_cycle


# 2 -------------------------------------------------------------------------


def test_acceptance_2_witness_soundness():
    fixtures = {
        "r2": zoo.r2(),
        "r3": zoo.r3(),
        "spi3": zoo.spi3(),
        "spi4": zoo.spi4(),
    }
    with budget(2, "witness soundness (400 random elements)", 60.0):
        for name, g in fixtures.items():
            rng = random.Random(20260808)
            for i in range(100):
                a = random_element(g, rng, max_terms=6, max_len=4)
                w = spi_witness(a)
                assert multiply(multiply(w.x, a), w.y) == vertex_element(g, w.v), (
                    name,
                    i,
                )


# 3 -------------------------------------------------------------------------


def test_acceptance_3_equal_length_families():
    g = zoo.r2()
    v = vertex_element(g, "v")
    with budget(3, "equal-length closed-path families", 1.0):
        for m in (1, 2, 3, 5):
            fam = equal_length_closed_paths(g, ["v"], m)
            paths = fam.paths["v"]
            assert len(paths) == len(set(paths)) == m
            assert all(p.length == fam.common_length for p in paths)
            for i, p in enumerate(paths):
                for j, q in enumerate(paths):
                    prod = multiply(involute(path_element(g, p)), path_element(g, q))
                    assert prod == (v if i == j else zero(g))


# 4 -------------------------------------------------------------------------


def test_acceptance_4_conjugation_sum_laws():
    with budget(4, "path conjugation sum laws", 10.0):
        for g in (zoo.r2(), zoo.spi3()):
            rng = random.Random(17)
            for r in (1, 2, 3):
                for _ in range(50 // 3 + 1):
                    a = random_element(g, rng, max_terms=3, max_len=2, nonzero=False)
                    x = random_element(g, rng, max_terms=3, stage=r, nonzero=False)
                    sa = path_conjugate_sum(a, r)
                    assert multiply(sa, x) == multiply(x, sa)
                for _ in range(50 // 3 + 1):
                    a = random_element(
                        g, rng, max_terms=3, max_len=2, vertex_commuting=True, nonzero=False
                    )
                    b = random_element(g, rng, max_terms=3, max_len=2, nonzero=False)
                    assert path_conjugate_sum(multiply(a, b), r) == multiply(
                        path_conjugate_sum(a, r), path_conjugate_sum(b, r)
                    )


# 5 -------------------------------------------------------------------------


def test_acceptance_5_filtration_homomorphism():
    fixtures = (zoo.r2(), zoo.a3(), zoo.spi3(), zoo.spi4())
    with budget(5, "filtration decomposition homomorphism", 30.0):
        for g in fixtures:
            rng = random.Random(99)
            for n in (1, 2, 3):
                for _ in range(100):
                    x = random_element(g, rng, max_terms=3, stage=n, nonzero=False)
                    y = random_element(g, rng, max_terms=3, stage=n, nonzero=False)
                    dx = filtration_decompose(x, n)
                    dy = filtration_decompose(y, n)
                    dxy = filtration_decompose(multiply(x, y), n)
                    prod = blockwise_product(dx, dy)
                    assert prod.blocks == dxy.blocks
                    assert dx.recompose() == x
                    assert dy.recompose() == y


# 6 -------------------------------------------------------------------------


def test_acceptance_6_norm_formula():
    fixtures = (zoo.a2(), zoo.a3(), zoo.line(6))
    with budget(6, "acyclic norm formula (p=1 exact, p=2 vs svd)", 30.0):
        for g in fixtures:
            rng = random.Random(31337)
            for _ in range(200):
                x = random_element(
                    g, rng, max_terms=4, max_len=3, nonzero=False, dyadic_real=True
                )
                # exact rational oracle: column sums of entry magnitudes
                decomp = acyclic_decompose(g, x)
                best = Fraction(0)
                for matrix in decomp.blocks.values():
                    entries = [
                        [abs(c.re) + abs(c.im) for c in row] for row in matrix
                    ]
                    if entries and entries[0]:
                        best = max(best, oracle_column_sum_norm(entries))
                assert element_norm_acyclic(g, x, 1.0) == float(best)
                # p = 2: power iteration within 1e-6 relative of singular values
                rep = spatial_rep_acyclic(g, x, 2.0)
                for M in rep.blocks.values():
                    if not M.size:
                        continue
                    svd = float(np.linalg.norm(M, 2))
                    est = power_iteration_lower_bound(M, 2.0, seed=7).value
                    if svd == 0.0:
                        assert est == 0.0
                    else:
                        assert abs(est - svd) <= 1e-6 * svd


# 7 -------------------------------------------------------------------------


def test_acceptance_7_quadrature():
    with budget(7, "degree projection quadrature", 10.0):
        for g in (zoo.a3(), zoo.line(4)):
            rng = random.Random(4242)
            for _ in range(25):
                x = random_element(g, rng, max_terms=5, max_len=3, nonzero=False)
                maxdeg = max((abs(d) for d in x.degrees()), default=0)
                for n in range(-(maxdeg + 1), maxdeg + 2):
                    assert degree_component_quadrature_error(g, x, n, 1.5) <= 1e-9


# 8 -------------------------------------------------------------------------


def _corner_monomials(g: Graph, w: str, max_len: int) -> set:
    from leavitt_lab.lpa import _is_excluded

    outgoing = []
    for r in range(max_len + 1):
        outgoing.extend(p for p in enumerate_paths(g, r) if p.source == w)
    pairs = set()
    for a in outgoing:
        for b in outgoing:
            if g.range_of(a) == g.range_of(b) and not _is_excluded(g, Monomial(a, b)):
                pairs.add((a.edges, b.edges))
    return pairs


def test_acceptance_8_corner_identity():
    cases = [
        (zoo.source_into_rose(), "v"),
        (zoo.source_into_rose(), "u"),
        (zoo.spi3(), "b"),
        (zoo.spi4(), "c"),
        (zoo.a3(), "v"),
    ]
    with budget(8, "corner monomials agree with reachable subgraph", 5.0):
        for g, w in cases:
            h = reachable_subgraph(g, w)
            for n in range(5):
                assert _corner_monomials(g, w, n) == _corner_monomials(h, w, n)


# 9 -------------------------------------------------------------------------


def test_acceptance_9_cohn_relations():
    fixtures = dict(zoo.spi_fixtures())
    fixtures["omega_spi"] = zoo.omega_spi()
    with budget(9, "Cohn relations on every SPI fixture", 1.0):
        for name, g in fixtures.items():
            for v in g.vertices:
                q = cohn_embedding(g, v)
                unit = vertex_element(g, v)
                for i, t in enumerate((q.t1, q.t2)):
                    for j, s in enumerate((q.s1, q.s2)):
                        want = unit if i == j else zero(g)
                        assert multiply(t, s) == want, (name, v)


# 10 ------------------------------------------------------------------------


def test_acceptance_10_rewriting_confluence():
    graphs = [zoo.r2(), zoo.spi3(), zoo.a3(), zoo.spi4()]
    with budget(10, "rewriting confluence against a random-order oracle", 10.0):
        rng = random.Random(271828)
        for i in range(200):
            g = graphs[i % len(graphs)]
            pool = [p for n in range(4) for p in enumerate_paths(g, n)]
            raw = {}
            for _ in range(rng.randint(1, 6)):
                alpha = rng.choice(pool)
                betas = [b for b in pool if g.range_of(b) == g.range_of(alpha)]
                beta = rng.choice(betas)
                raw[Monomial(alpha, beta)] = gauss(
                    Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
                )
            assert normalize_terms(g, raw) == oracle_normalize(g, raw, random.Random(i))
