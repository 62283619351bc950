import importlib.util
import json
import os
import random
import sys
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from leavitt_lab import zoo
from leavitt_lab.errors import FormatError, GraphMismatch, OmegaUnsupported
from leavitt_lab.graph import Graph, Path, canonical_json, enumerate_paths, graph_from_json, paths_by_range
from leavitt_lab.lpa import (
    Element,
    GR_ONE,
    GaussianRational,
    Monomial,
    add_term,
    corner,
    degree_component,
    element_from_json,
    element_from_json_obj,
    element_to_json,
    element_to_json_obj,
    gauss,
    involute,
    monomial_element,
    multiply,
    normalize_terms,
    path_conjugate_sum,
    path_element,
    vertex_element,
    vertex_sum,
    zero,
)
from leavitt_lab.sample import random_element

from oracles import (
    OracleGaussianRational,
    oracle_coefficient,
    oracle_counted_normalize,
    oracle_element_from_json,
    oracle_element_terms,
    oracle_frac_str,
    oracle_monomial_product,
    oracle_multiply,
    oracle_normalize,
    oracle_redexes,
)
from test_spi import spi_graphs


def elem(g, alpha_edges, beta_edges, coeff=1, alpha_src=None, beta_src=None):
    if alpha_edges:
        alpha = g.path(g.edge_endpoints(alpha_edges[0])[0], alpha_edges)
    else:
        alpha = g.path(alpha_src)
    if beta_edges:
        beta = g.path(g.edge_endpoints(beta_edges[0])[0], beta_edges)
    else:
        beta = g.path(beta_src)
    if not isinstance(coeff, GaussianRational):
        coeff = gauss(coeff)
    return monomial_element(g, alpha, beta, coeff)


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------


def test_gaussian_rational_field_ops():
    a = gauss(Fraction(2, 3), Fraction(-1, 2))
    b = gauss(Fraction(1, 5), Fraction(3))
    assert a + b == gauss(Fraction(13, 15), Fraction(5, 2))
    assert a * b == gauss(
        Fraction(2, 3) * Fraction(1, 5) + Fraction(1, 2) * 3,
        Fraction(2, 3) * 3 - Fraction(1, 2) * Fraction(1, 5),
    )
    assert a * a.reciprocal() == gauss(1)
    assert a.conjugate().conjugate() == a
    assert not gauss(0, 0)
    with pytest.raises(ZeroDivisionError):
        gauss(0).reciprocal()


def test_gaussian_rational_arguments_and_parts():
    # fractions is imported lazily, but every argument type still works
    c = GaussianRational(Fraction(3, 4), "-2/6")
    assert (c.a, c.b, c.d) == (9, -4, 12)
    assert GaussianRational(0.5, 2) == GaussianRational(Fraction(1, 2), 2)
    assert GaussianRational(True) == GaussianRational(1) == GR_ONE
    for re_, im in [(c.re, c.im), (GR_ONE.re, GR_ONE.im)]:
        assert type(re_) is Fraction and type(im) is Fraction
    assert (c.re, c.im) == (Fraction(3, 4), Fraction(-1, 3))
    assert repr(c) == "3/4-1/3i"


BIG = 10**30
rationals = st.one_of(
    st.just(Fraction(0)), st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG))
)
gaussian_parts = st.tuples(rationals, rationals)
POINT = Graph(("v",))


def assert_matches_oracle(c, o):
    """c and the Fraction oracle o are the same number, reduced, and print alike."""
    assert (c.re, c.im) == (o.re, o.im)
    assert c.d > 0 and gcd(c.a, c.b, c.d) == 1
    assert bool(c) == bool(o)
    assert repr(c) == repr(o)
    assert repr(complex(c)) == repr(complex(o))
    [term] = element_to_json_obj(Element(POINT, {Monomial(Path("v"), Path("v")): c}))
    assert (term["re"], term["im"]) == (oracle_frac_str(o.re), oracle_frac_str(o.im))


@given(gaussian_parts, gaussian_parts)
@settings(deadline=None, max_examples=300)
def test_gaussian_rational_matches_fraction_oracle(x, y):
    c1, c2 = GaussianRational(*x), GaussianRational(*y)
    o1, o2 = OracleGaussianRational(*x), OracleGaussianRational(*y)
    for c, o in [
        (c1, o1),
        (c2, o2),
        (c1 + c2, o1 + o2),
        (c1 - c2, o1 - o2),
        (c1 * c2, o1 * o2),
        (-c1, -o1),
        (c1.conjugate(), o1.conjugate()),
        # equal denominators: the fast path of +
        (c1 + c1.conjugate(), o1 + o1.conjugate()),
        (c1 - c1, o1 - o1),
    ]:
        assert_matches_oracle(c, o)
    if o1:
        assert_matches_oracle(c1.reciprocal(), o1.reciprocal())
    else:
        with pytest.raises(ZeroDivisionError):
            c1.reciprocal()
    assert (c1 == c2) == (o1 == o2)
    # one number reached by different routes: equal fields, equal hashes
    for c, again in [(c1, (c1 + c2) - c2), (c1, GaussianRational(o1.re, o1.im)), (c1 * c2, c2 * c1)]:
        assert c == again and hash(c) == hash(again)


# ---------------------------------------------------------------------------
# multiplication examples
# ---------------------------------------------------------------------------


def test_mul_r2_examples(r2):
    ee = elem(r2, ["e"], ["e"])  # ee*
    ef = elem(r2, ["e"], ["f"])  # ef*
    fe = elem(r2, ["f"], ["e"])  # fe*
    assert multiply(ee, ef) == ef
    assert multiply(ee, fe).is_zero
    # cross-check against the raw monomial product rule
    assert oracle_monomial_product(r2, (("e",), ("e",)), (("e",), ("f",))) == (("e",), ("f",))
    assert oracle_monomial_product(r2, (("e",), ("e",)), (("f",), ("e",))) is None


def test_mul_a2_projection_idempotent(a2):
    e = path_element(a2, ("e",))
    ee = multiply(e, involute(e))
    assert multiply(ee, ee) == ee
    # brute-force check of the monomial rule on the normal-form-free product
    assert oracle_monomial_product(a2, (("e",), ("e",)), (("e",), ("e",))) == (("e",), ("e",))
    # and ee* is the vertex u after normalization
    assert ee == vertex_element(a2, "u")


def test_mul_graph_mismatch(r2, a2):
    with pytest.raises(GraphMismatch):
        multiply(vertex_element(r2, "v"), vertex_element(a2, "u"))


# ---------------------------------------------------------------------------
# normalization examples
# ---------------------------------------------------------------------------


def test_normalize_ck2_sum_is_vertex(r2):
    ee = elem(r2, ["e"], ["e"])
    ff = elem(r2, ["f"], ["f"])
    assert ee + ff == vertex_element(r2, "v")


def test_normalize_ee_star(r2):
    ee = elem(r2, ["e"], ["e"])
    assert ee == vertex_element(r2, "v") - elem(r2, ["f"], ["f"])
    # stored form has no monomial ending in the designated edge e on both sides
    for m, _ in ee.terms():
        assert not (
            m.alpha.edges
            and m.beta.edges
            and m.alpha.edges[-1] == m.beta.edges[-1] == "e"
        )


def test_normalize_a2(a2):
    assert elem(a2, ["e"], ["e"]) == vertex_element(a2, "u")


def test_ck2_soundness_all_fixtures():
    for g in list(zoo.standard_graphs().values()) + [zoo.spi4(), zoo.line(3)]:
        for v in g.vertices:
            if not g.is_regular(v):
                continue
            acc = zero(g)
            for e in g.out_edges[v]:
                p = path_element(g, (e.id,))
                acc = acc + multiply(p, involute(p))
            assert acc == vertex_element(g, v), (g, v)


def test_monomial_is_a_named_tuple_value():
    a, b = Path("v", ("e", "f")), Path("v", ("e",))
    m = Monomial(a, b)
    assert m == Monomial(Path("v", ("e", "f")), Path("v", ("e",))) == (a, b)
    assert hash(m) == hash((a, b)) and {m: 1}[(a, b)] == 1
    assert m != Monomial(b, a) and m.star() == Monomial(b, a) and m.star().star() == m
    assert (m.degree, m.star().degree, Monomial(a, a).degree) == (1, -1, 0)
    assert repr(m) == "e·f(e)*"
    assert repr(Monomial(a, Path("v"))) == "e·f" and repr(Monomial(Path("v"), Path("v"))) == "v"
    with pytest.raises(AttributeError):
        m.alpha = b
    with pytest.raises(AttributeError):
        m.extra = 1


def test_monomial_element_refuses_bad_paths(a2):
    assert monomial_element(a2, Path("u", ("e",)), Path("v")) == elem(a2, ["e"], [], beta_src="v")
    with pytest.raises(ValueError, match="^monomial paths must share their range$"):
        monomial_element(a2, Path("u", ("e",)), Path("u"))
    with pytest.raises(ValueError, match="does not depart"):
        monomial_element(a2, Path("v", ("e",)), Path("v"))


@pytest.mark.parametrize("k, r", [(2, 5), (2, 6), (2, 7), (2, 8), (3, 5), (3, 6), (3, 7)])
def test_normalize_rose_conjugation_sum_matches_oracle(k, r):
    # the sum of p·p* over the paths of length r collapses to the vertex
    g = zoo.rose(k)
    raw = {Monomial(p, p): GR_ONE for p in enumerate_paths(g, r)}
    x = normalize_terms(g, raw)
    assert x == vertex_element(g, "v")
    assert x == oracle_normalize(g, raw, random.Random(r))


@pytest.mark.parametrize("seed", range(4))
def test_normalize_long_monomial_sum_matches_oracle(spi4, seed):
    # 60 monomials with paths of length 6..12: the normal form stays large
    rng = random.Random(seed)
    raw = {}
    for _ in range(60):
        start = at = rng.choice(spi4.vertices)
        alpha = []
        for _ in range(rng.randint(6, 12)):
            e = rng.choice(spi4.out_edges[at])
            alpha.append(e.id)
            at = e.dst
        beta_src, beta = at, []
        for _ in range(rng.randint(6, 12)):
            e = rng.choice(spi4.in_edges[beta_src])
            beta_src, beta = e.src, [e.id, *beta]
        coeff = gauss(rng.randint(-3, 3), rng.randint(-3, 3))
        add_term(raw, Monomial(spi4.path(start, alpha), spi4.path(beta_src, beta)), coeff)
    x = normalize_terms(spi4, raw)
    assert len(x) > 30
    assert x == oracle_normalize(spi4, raw, random.Random(seed))


def test_normalize_confluence_two_strategies():
    rng = random.Random(991)
    graphs = [zoo.r2(), zoo.spi3(), zoo.a3(), zoo.spi4()]
    for i in range(200):
        g = graphs[i % len(graphs)]
        pool = []
        for n in range(4):
            pool.extend(enumerate_paths(g, n))
        raw = {}
        for _ in range(rng.randint(1, 6)):
            alpha = rng.choice(pool)
            betas = [b for b in pool if g.range_of(b) == g.range_of(alpha)]
            beta = rng.choice(betas)
            m = Monomial(alpha, beta)
            raw[m] = gauss(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
        assert normalize_terms(g, raw) == oracle_normalize(g, raw, random.Random(i))


ZOO = [*zoo.standard_graphs().values(), zoo.spi4(), zoo.line(3), zoo.source_into_rose()]
ROSES = [zoo.r1(), zoo.r2(), zoo.r3()]


@st.composite
def raw_sums(draw):
    """A zoo graph and a raw term map: random monomials with paths of length <= 6,
    plus, on a rose, a conjugation sum k·(sum of p·p* over |p| = r) - k·v that cancels."""
    g = draw(st.sampled_from(ZOO))
    forward = g.out_alphabet(2)
    raw = {}

    def add(m, c):
        raw[m] = raw.get(m, gauss(0)) + c

    for _ in range(draw(st.integers(1, 8))):
        start = at = draw(st.sampled_from(g.vertices))
        alpha = []
        for _ in range(draw(st.integers(0, 6))):
            if not forward[at]:
                break
            eid, at = draw(st.sampled_from(forward[at]))
            alpha.append(eid)
        beta_src, beta = at, []
        for _ in range(draw(st.integers(0, 6))):
            if not g.in_edges[beta_src]:
                break
            e = draw(st.sampled_from(g.in_edges[beta_src]))
            beta_src, beta = e.src, [e.id, *beta]
        coeff = gauss(draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
        add(Monomial(g.path(start, alpha), g.path(beta_src, beta)), coeff)
    if g in ROSES and draw(st.booleans()):
        k = gauss(draw(st.sampled_from([-2, -1, 1, 3])))
        for p in enumerate_paths(g, draw(st.integers(1, 6))):
            add(Monomial(p, p), k)
        add(Monomial(g.path("v"), g.path("v")), -k)
    return g, raw


@given(raw_sums(), st.integers(0, 2**16))
@settings(deadline=None, max_examples=80)
def test_normalize_matches_random_order_oracle(sample, seed):
    g, raw = sample
    x = normalize_terms(g, raw)
    assert x == oracle_normalize(g, raw, random.Random(seed))
    assert oracle_redexes(g, dict(x.terms())) == []


def oracle_coefficients(terms: dict) -> dict:
    return {m: OracleGaussianRational(c.re, c.im) for m, c in terms.items()}


def coefficient_table(x: Element) -> dict:
    return {m: (c.re, c.im) for m, c in x.terms()}


@given(raw_sums(), gaussian_parts, st.integers(0, 2**16))
@settings(deadline=None, max_examples=60)
def test_normalize_coefficients_match_fraction_oracle(sample, scale, seed):
    g, raw = sample
    s, so = GaussianRational(*scale), OracleGaussianRational(*scale)
    x = normalize_terms(g, {m: c * s for m, c in raw.items()})
    scaled = {m: c * so for m, c in oracle_coefficients(raw).items()}
    assert coefficient_table(x) == coefficient_table(oracle_normalize(g, scaled, random.Random(seed)))


@given(
    st.sampled_from([g for g in ZOO if g.is_row_finite]),
    st.integers(0, 2**16),
    gaussian_parts,
    gaussian_parts,
)
@settings(deadline=None, max_examples=60)
def test_multiply_coefficients_match_fraction_oracle(g, seed, sx, sy):
    rng = random.Random(seed)
    x, y = random_element(g, rng), random_element(g, rng)
    product = multiply(x.scale(GaussianRational(*sx)), y.scale(GaussianRational(*sy)))
    ox = {m: c * OracleGaussianRational(*sx) for m, c in oracle_coefficients(dict(x.terms())).items()}
    oy = {m: c * OracleGaussianRational(*sy) for m, c in oracle_coefficients(dict(y.terms())).items()}
    assert coefficient_table(product) == coefficient_table(oracle_multiply(g, ox, oy, rng))


def test_path_conjugate_sum_depth_8_within_budget(r3):
    v = vertex_element(r3, "v")
    start = time.perf_counter()
    x = path_conjugate_sum(v, 8)
    elapsed = time.perf_counter() - start
    assert x == v
    assert elapsed < 2.0


# ---------------------------------------------------------------------------
# involution
# ---------------------------------------------------------------------------


def test_corner_examples(r2):
    e, f, ee = Path("v", ("e",)), Path("v", ("f",)), Path("v", ("e", "e"))
    a = path_element(r2, ("e", "f")) + path_element(r2, ("f",))
    assert corner(a, None, None) == a
    # e*·(e·f + f) = f: the term f, incomparable with e, drops out
    assert corner(a, e, None) == path_element(r2, ("f",))
    assert corner(a, ee, None).is_zero  # e·e is comparable with neither term
    # μ longer than α extends β: e*·v = (e)*, and (e·f*)·(f·e) = e·e
    v = vertex_element(r2, "v")
    assert corner(v, e, None) == involute(path_element(r2, ("e",)))
    ef_star = multiply(path_element(r2, ("e",)), involute(path_element(r2, ("f",))))
    assert corner(ef_star, None, Path("v", ("f", "e"))) == path_element(r2, ("e", "e"))
    assert corner(a, f, e) == path_element(r2, ("e",))  # f*·(e·f + f)·e = v·e


@given(spi_graphs(), st.integers(0, 2**32 - 1), st.data())
@settings(deadline=None, max_examples=200)
def test_corner_is_the_two_sided_product(g, seed, data):
    # μ*·a·ν in one pass against two multiplies, over paths of length up to
    # 3, most of them incomparable with most terms; either side may be absent
    a = random_element(g, random.Random(seed), max_terms=5, max_len=3, nonzero=False)
    paths = [p for ps in paths_by_range(g, 3).values() for p in ps]
    mu, nu = (data.draw(st.none() | st.sampled_from(paths)) for _ in range(2))
    expected = a
    if mu is not None:
        expected = multiply(involute(path_element(g, mu)), expected)
    if nu is not None:
        expected = multiply(expected, path_element(g, nu))
    assert corner(a, mu, nu) == expected


def test_involute_examples(r2):
    x = elem(r2, ["e"], ["f"], coeff=gauss(2, 1))
    assert involute(x) == elem(r2, ["f"], ["e"], coeff=gauss(2, -1))
    v = vertex_element(r2, "v")
    assert involute(v) == v


@given(st.integers(0, 100), st.integers(0, 100))
@settings(deadline=None, max_examples=30)
def test_involution_laws(seed_x, seed_y):
    g = zoo.spi3()
    x = random_element(g, random.Random(seed_x), max_terms=4, max_len=3, nonzero=False)
    y = random_element(g, random.Random(seed_y + 1000), max_terms=4, max_len=3, nonzero=False)
    assert involute(involute(x)) == x
    assert involute(multiply(x, y)) == multiply(involute(y), involute(x))
    c = gauss(Fraction(3, 2), Fraction(-1, 3))
    assert involute(x.scale(c)) == involute(x).scale(c.conjugate())


# ---------------------------------------------------------------------------
# grading
# ---------------------------------------------------------------------------


def test_degree_component_examples(r2):
    e = path_element(r2, ("e",))
    ef = elem(r2, ["e"], ["f"])
    x = e + ef
    assert degree_component(x, 1) == e
    assert degree_component(x, 0) == ef
    assert degree_component(x, -1).is_zero
    assert sum((degree_component(x, n) for n in x.degrees()), zero(r2)) == x


def test_phi_projection_law(r2):
    rng = random.Random(5)
    for _ in range(20):
        x = random_element(r2, rng, max_terms=5, max_len=3)
        for n in x.degrees():
            comp = degree_component(x, n)
            assert degree_component(comp, n) == comp
            for m in comp.degrees():
                assert m == n


def test_phi_commutes_with_homogeneous_right_factor(r2, spi3):
    # degree shift law checked exactly on random homogeneous right factors
    for g in (r2, spi3):
        rng = random.Random(17)
        for _ in range(25):
            a = random_element(g, rng, max_terms=4, max_len=3)
            b_full = random_element(g, rng, max_terms=3, max_len=2)
            degs = b_full.degrees()
            if not degs:
                continue
            m = degs[0]
            b = degree_component(b_full, m)
            for n in (-2, -1, 0, 1, 2):
                lhs = degree_component(multiply(a, b), n)
                rhs = multiply(degree_component(a, n - m), b)
                assert lhs == rhs
                lhs2 = degree_component(multiply(b, a), n)
                rhs2 = multiply(b, degree_component(a, n - m))
                assert lhs2 == rhs2


def test_grading_of_products(spi3):
    rng = random.Random(23)
    for _ in range(20):
        x = random_element(spi3, rng, max_terms=3, max_len=3)
        y = random_element(spi3, rng, max_terms=3, max_len=3)
        for mdeg in x.degrees():
            for ndeg in y.degrees():
                prod = multiply(degree_component(x, mdeg), degree_component(y, ndeg))
                assert all(d == mdeg + ndeg for d in prod.degrees())


# ---------------------------------------------------------------------------
# ring axioms
# ---------------------------------------------------------------------------


@given(st.integers(0, 10_000))
@settings(deadline=None, max_examples=40)
def test_ring_axioms(seed):
    rng = random.Random(seed)
    g = zoo.r2() if seed % 2 else zoo.spi3()
    x = random_element(g, rng, max_terms=6, max_len=4, nonzero=False)
    y = random_element(g, rng, max_terms=6, max_len=4, nonzero=False)
    z = random_element(g, rng, max_terms=6, max_len=4, nonzero=False)
    assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))
    assert multiply(x, y + z) == multiply(x, y) + multiply(x, z)
    assert multiply(x + y, z) == multiply(x, z) + multiply(y, z)


def test_elements_over_omega_graphs(omega_spi):
    # parallel omega edges are first-class generators: distinct parallels are
    # orthogonal, and elements through them serialize and round-trip
    g = omega_spi
    e1 = path_element(g, ("v~w^1",))
    e2 = path_element(g, ("v~w^2",))
    w = vertex_element(g, "w")
    assert multiply(involute(e1), e1) == w
    assert multiply(involute(e1), e2).is_zero
    loop = path_element(g, ("v~w^1", "f"))
    assert multiply(involute(loop), loop) == vertex_element(g, "v")
    assert element_from_json(g, element_to_json(loop)) == loop


# ---------------------------------------------------------------------------
# path conjugation sums
# ---------------------------------------------------------------------------


def test_path_conjugate_sum_vertex(r2):
    v = vertex_element(r2, "v")
    assert path_conjugate_sum(v, 1) == v


def test_path_conjugate_sum_edge(r2):
    e = path_element(r2, ("e",))
    expect = elem(r2, ["e", "e"], ["e"]) + elem(r2, ["f", "e"], ["f"])
    assert path_conjugate_sum(e, 1) == expect


def test_path_conjugate_sum_preserves_degree(spi3):
    rng = random.Random(3)
    for _ in range(10):
        x = random_element(spi3, rng, max_terms=4, max_len=2)
        for r in (1, 2):
            sx = path_conjugate_sum(x, r)
            assert set(sx.degrees()) <= set(x.degrees())


def test_path_conjugate_sum_commutes_with_filtration(r2, spi3):
    # conjugation sums commute with degree-zero elements of stage <= r
    for g in (r2, spi3):
        rng = random.Random(29)
        for _ in range(15):
            a = random_element(g, rng, max_terms=3, max_len=2)
            for r in (1, 2):
                x = random_element(g, rng, max_terms=3, stage=r)
                sa = path_conjugate_sum(a, r)
                assert multiply(sa, x) == multiply(x, sa)


def test_path_conjugate_sum_multiplicative_on_vertex_commuting(r2, spi3):
    for g in (r2, spi3):
        rng = random.Random(31)
        for _ in range(15):
            a = random_element(g, rng, max_terms=3, max_len=2, vertex_commuting=True)
            b = random_element(g, rng, max_terms=3, max_len=2)
            # va = av for all vertices v suffices on one side
            for v in g.vertices:
                vv = vertex_element(g, v)
                assert multiply(vv, a) == multiply(a, vv)
            for r in (1, 2):
                assert path_conjugate_sum(multiply(a, b), r) == multiply(
                    path_conjugate_sum(a, r), path_conjugate_sum(b, r)
                )


def test_path_conjugate_sum_multiplicative_homogeneous(r2, spi3):
    for g in (r2, spi3):
        rng = random.Random(37)
        for _ in range(10):
            a_full = random_element(g, rng, max_terms=3, max_len=2, vertex_commuting=True)
            b_full = random_element(g, rng, max_terms=3, max_len=2)
            for da in a_full.degrees():
                a = degree_component(a_full, da)
                for db in b_full.degrees():
                    b = degree_component(b_full, db)
                    for r in (1, 2):
                        assert path_conjugate_sum(multiply(a, b), r) == multiply(
                            path_conjugate_sum(a, r), path_conjugate_sum(b, r)
                        )


def test_path_conjugate_sum_vertex_any_depth(r2):
    v = vertex_element(r2, "v")
    for r in (1, 2, 3):
        assert path_conjugate_sum(v, r) == v


def test_path_conjugate_sum_rejects_omega(omega_spi):
    with pytest.raises(OmegaUnsupported):
        path_conjugate_sum(vertex_element(omega_spi, "v"), 1)


# ---------------------------------------------------------------------------
# vertex sums
# ---------------------------------------------------------------------------


def test_vertex_sum_examples(r2, a2):
    assert vertex_sum(r2, ["v"]) == vertex_element(r2, "v")
    e = path_element(a2, ("e",))
    vf = vertex_sum(a2, ["u", "v"])
    assert multiply(multiply(vf, e), vf) == e
    vf_v = vertex_sum(a2, ["v"])
    assert multiply(multiply(vf_v, e), vf_v).is_zero


def test_vertex_sum_is_idempotent(spi4):
    vf = vertex_sum(spi4, ["a", "c"])
    assert multiply(vf, vf) == vf


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_element_json_roundtrip(spi3):
    rng = random.Random(8)
    for _ in range(10):
        x = random_element(spi3, rng, max_terms=5, max_len=3, nonzero=False)
        assert element_from_json(spi3, element_to_json(x)) == x


def test_element_json_bit_exact(r2):
    x = elem(r2, ["e"], ["f"], coeff=gauss(Fraction(1, 2), Fraction(-2)))
    assert element_to_json(x) == (
        '[{"alpha":["e"],"alpha_src":"v","beta":["f"],"beta_src":"v",'
        '"re":"1/2","im":"-2/1"}]'
    )


def test_element_json_normalizes_on_load(r2):
    raw = (
        '[{"alpha":["e"],"alpha_src":"v","beta":["e"],"beta_src":"v","re":"1/1","im":"0/1"},'
        '{"alpha":["f"],"alpha_src":"v","beta":["f"],"beta_src":"v","re":"1/1","im":"0/1"}]'
    )
    assert element_from_json(r2, raw) == vertex_element(r2, "v")


def test_element_json_rejects_garbage(r2):
    with pytest.raises(FormatError):
        element_from_json(r2, '[{"alpha":["zzz"],"alpha_src":"v","beta":[],"beta_src":"v","re":"1","im":"0"}]')
    with pytest.raises(FormatError):
        element_from_json(r2, '{"not":"a list"}')
    # paths are lists of edge-id strings and coefficients exact rational strings;
    # a string path is not split into edges, a JSON number is not converted
    term = '"alpha":["e"],"alpha_src":"v","beta":["f"],"beta_src":"v","re":"1/2","im":"0"'
    for field, loose in [
        ('"alpha":["e"]', '"alpha":"ef"'),
        ('"beta":["f"]', '"beta":["f",1]'),
        ('"re":"1/2"', '"re":0.1'),
        ('"im":"0"', '"im":1'),
    ]:
        with pytest.raises(FormatError, match="must be"):
            element_from_json(r2, "[{" + term.replace(field, loose) + "}]")


# any id: lone surrogates, control characters, quotes and backslashes included
ANY_ID = st.text(st.characters(exclude_categories=()), max_size=4)


@st.composite
def elements_with_any_ids(draw) -> Element:
    """A normal-form element on a random graph whose ids are any strings, some
    edges generated by omega pairs, with coefficients that have numerators of
    up to 60 digits and zero real or imaginary parts."""
    vertices = draw(st.lists(ANY_ID, min_size=1, max_size=4, unique=True))
    vertex = st.sampled_from(vertices)
    edges = draw(st.lists(st.tuples(ANY_ID, vertex, vertex), max_size=6, unique_by=lambda e: e[0]))
    omega = draw(st.lists(st.tuples(vertex, vertex), max_size=2))
    try:
        g = Graph(vertices, edges, omega)
    except ValueError:  # an edge id or omega prefix that collides with a generated one
        assume(False)
    out = g.out_alphabet(2)

    def walk(src: str) -> Path:
        edges, at = [], src
        for _ in range(draw(st.integers(0, 3))):
            if not out[at]:
                break
            eid, at = draw(st.sampled_from(out[at]))
            edges.append(eid)
        return Path(src, tuple(edges))

    part = st.just(0) | st.integers(-(10**60), 10**60)
    raw: dict[Monomial, GaussianRational] = {}
    for _ in range(draw(st.integers(0, 5))):
        alpha = walk(draw(vertex))
        beta = walk(draw(vertex))
        if g.range_of(alpha) != g.range_of(beta):
            beta = alpha
        c = gauss(Fraction(draw(part), draw(st.integers(1, 10**6))), Fraction(draw(part), draw(st.integers(1, 10**6))))
        add_term(raw, Monomial(alpha, beta), c)
    return normalize_terms(g, raw)


@given(elements_with_any_ids())
@settings(deadline=None, max_examples=300)
def test_element_writer_matches_the_dict_encoding(x):
    assert element_to_json(x) == canonical_json(element_to_json_obj(x))


def coefficient_error(re="1/2", im="0") -> str:
    term = {"alpha": ["e"], "alpha_src": "v", "beta": ["f"], "beta_src": "v", "re": re, "im": im}
    with pytest.raises(FormatError) as info:
        element_from_json_obj(zoo.r2(), [term])
    return str(info.value)


def test_element_parser_coefficient_errors():
    # re is read, and refused, before im; a missing im is reported once re is read
    assert coefficient_error(re="1/0", im="x") == "bad element term: Fraction(1, 0)"
    assert coefficient_error(im="2/0") == "bad element term: Fraction(2, 0)"
    assert coefficient_error(im="1.2.3") == "bad element term: Invalid literal for Fraction: '1.2.3'"
    missing_im = {"alpha": ["e"], "alpha_src": "v", "beta": ["f"], "beta_src": "v"}
    for re, message in (("q", "Invalid literal for Fraction: 'q'"), ("1/2", "'im'")):
        with pytest.raises(FormatError) as info:
            element_from_json_obj(zoo.r2(), [{**missing_im, "re": re}])
        assert str(info.value) == "bad element term: " + message
    must = ' must be an exact rational string such as "1/2"'
    assert coefficient_error(re=1) == "bad element term: 're'" + must
    assert coefficient_error(im=None) == "bad element term: 'im'" + must
    assert coefficient_error(re=["1"], im=["x"]) == "bad element term: 're'" + must
    assert coefficient_error(im=["1"]) == "bad element term: 'im'" + must


def test_element_parser_converts_each_string_once_whatever_its_partner(r2):
    # each string is read once per call, in either part, next to any partner
    terms = [
        {"alpha": ["e"], "alpha_src": "v", "beta": ["f"], "beta_src": "v", "re": "1/2", "im": "3"},
        {"alpha": ["f"], "alpha_src": "v", "beta": ["e"], "beta_src": "v", "re": "3", "im": "1/2"},
        {"alpha": [], "alpha_src": "v", "beta": [], "beta_src": "v", "re": "1/2", "im": "1/2"},
    ]
    x = element_from_json_obj(r2, terms)
    assert [(m.alpha.edges, m.beta.edges, c) for m, c in x.terms()] == [
        ((), (), gauss(Fraction(1, 2), Fraction(1, 2))),
        (("e",), ("f",), gauss(Fraction(1, 2), 3)),
        (("f",), ("e",), gauss(3, Fraction(1, 2))),
    ]
    # a string already read is refused where the other part goes wrong
    with pytest.raises(FormatError, match=r"^bad element term: Fraction\(1, 0\)$"):
        element_from_json_obj(r2, [terms[0], {**terms[1], "im": "1/0"}])


# Pieces of coefficient strings: ASCII digits, non-ASCII decimal digits (an
# Arabic-Indic three, a fullwidth five, a mathematical bold nine), a
# superscript two (a digit to str.isdigit, not to int), signs, separators,
# decimal points, exponents, underscores and spaces.
COEFFICIENT_PIECES = [
    "0", "1", "7", "00", "12", "\u0663", "\uff15", "\U0001d7d7", "\u00b2",
    "-", "+", "/", ".", "e", "E", "_", " ", "\t",
]

coefficient_values = st.one_of(
    # [sign][leading zeros]digits[/digits], zero denominators included
    st.builds(
        lambda sign, zeros, n, d: f"{sign}{'0' * zeros}{n}" + ("" if d is None else f"/{d}"),
        st.sampled_from(["", "-", "+", "--"]),
        st.integers(0, 2),
        st.integers(0, 10**30),
        st.none() | st.integers(0, 10**6),
    ),
    st.lists(st.sampled_from(COEFFICIENT_PIECES), max_size=7).map("".join),
    # either side of the 4,300-digit limit of int(str), above and below the bar
    st.builds(
        lambda sign, k, above, rest: sign + ("7" * k + rest if above else "3/" + "7" * k),
        st.sampled_from(["", "-"]),
        st.integers(4299, 4302),
        st.booleans(),
        st.sampled_from(["", "/3", "/0"]),
    ),
    st.none() | st.integers(-2, 2) | st.floats(-2, 2) | st.booleans() | st.lists(st.just("1"), max_size=1),
)


@given(coefficient_values, coefficient_values)
@settings(deadline=None, max_examples=400)
def test_coefficient_parsing_matches_fraction_oracle(re, im):
    r2 = zoo.r2()
    term = {"alpha": ["e"], "alpha_src": "v", "beta": ["f"], "beta_src": "v", "re": re, "im": im}
    try:
        c = oracle_coefficient(term)
    except FormatError as exc:
        expected = str(exc)
    except (ValueError, ZeroDivisionError) as exc:
        expected = f"bad element term: {exc}"
    else:
        x = element_from_json_obj(r2, [term])
        assert [(k.a, k.b, k.d) for _, k in x.terms()] == ([(c.a, c.b, c.d)] if c else [])
        return
    with pytest.raises(FormatError) as info:
        element_from_json_obj(r2, [term])
    assert str(info.value) == expected


# ---------------------------------------------------------------------------
# the element parser against a per-term oracle
# ---------------------------------------------------------------------------

# u is regular (e designated), v emits g, h and the omega pair v -> u, w is a sink
PARSE_GRAPH = Graph(
    ("u", "v", "w"),
    (("e", "u", "u"), ("f", "u", "v"), ("g", "v", "u"), ("h", "v", "w")),
    (("v", "u"),),
)
PARSE_OUT = PARSE_GRAPH.out_alphabet(3)  # explicit edges and the omega ids v~u^1 .. v~u^3
PARSE_IN = {v: [(eid, src) for src in PARSE_GRAPH.vertices for eid, dst in PARSE_OUT[src] if dst == v]
            for v in PARSE_GRAPH.vertices}
PARSE_COEFFICIENTS = ["1", "-1", "0", "1/2", "-2/4", "3", "0.5", "-1e1", " 2 "]


def negated(text: str) -> str:
    text = text.strip()
    return text[1:] if text.startswith("-") else "-" + text


def random_parse_term(rng: random.Random) -> dict:
    src = at = rng.choice(PARSE_GRAPH.vertices)
    alpha = []
    for _ in range(rng.randint(0, 4)):
        if not PARSE_OUT[at]:
            break
        eid, at = rng.choice(PARSE_OUT[at])
        alpha.append(eid)
    beta_src, beta = at, []
    for _ in range(rng.randint(0, 4)):
        eid, beta_src = rng.choice(PARSE_IN[beta_src])
        beta.insert(0, eid)
    return {"alpha": alpha, "alpha_src": src, "beta": beta, "beta_src": beta_src,
            "re": rng.choice(PARSE_COEFFICIENTS), "im": rng.choice(PARSE_COEFFICIENTS)}


# each makes one term malformed
BAD_TERMS = {
    "unknown-edge": lambda t: {**t, "alpha": [*t["alpha"], "zz"]},
    "non-composable-edge": lambda t: {**t, "alpha_src": "w", "alpha": ["e"]},
    "unknown-omega-id": lambda t: {**t, "beta_src": "v", "beta": ["v~u^0"]},
    "unhashable-edge-id": lambda t: {**t, "alpha": [["e"]]},
    "unhashable-source": lambda t: {**t, "beta_src": ["u"]},
    "unknown-vertex": lambda t: {**t, "alpha_src": "zz", "alpha": []},
    "edges-not-a-list": lambda t: {**t, "beta": "e"},
    "non-string-re": lambda t: {**t, "re": 1},
    "non-string-im": lambda t: {**t, "im": None},
    "unhashable-im": lambda t: {**t, "im": ["1"]},
    "bad-rational": lambda t: {**t, "re": "1/0"},
    "missing-im": lambda t: {k: v for k, v in t.items() if k != "im"},
    "seventh-key": lambda t: {**t, "gamma": []},
    "ranges-differ": lambda t: {**t, "alpha_src": "u", "alpha": ["f"], "beta_src": "u", "beta": []},
}


@given(st.integers(0, 2**32 - 1), st.sampled_from([None, *BAD_TERMS]))
@settings(deadline=None, max_examples=300)
def test_element_parser_matches_per_term_oracle(seed, bad):
    rng = random.Random(seed)
    terms = [random_parse_term(rng) for _ in range(rng.randint(0, 12))]
    # repeats of a term, with the same coefficient or its negation, so that
    # coefficient strings repeat and monomials cancel
    for t in rng.sample(terms, rng.randint(0, len(terms))):
        terms.append(dict(t) if rng.random() < 0.3 else {**t, "re": negated(t["re"]), "im": negated(t["im"])})
    rng.shuffle(terms)
    if bad is not None:
        terms.insert(rng.randint(0, len(terms)), BAD_TERMS[bad](random_parse_term(rng)))
    try:
        expected = oracle_element_from_json(PARSE_GRAPH, terms)
    except FormatError as exc:
        with pytest.raises(FormatError) as info:
            element_from_json_obj(PARSE_GRAPH, terms)
        assert str(info.value) == str(exc)
    else:
        assert element_from_json_obj(PARSE_GRAPH, terms) == expected


# ---------------------------------------------------------------------------
# normalize_terms: its argument, and its rewrite count on the benchmark
# ---------------------------------------------------------------------------


@given(raw_sums())
@settings(deadline=None, max_examples=60)
def test_normalize_terms_leaves_its_argument_untouched(sample):
    # callers read the map afterwards: the benchmark's tracer counts len(raw)
    # as terms in, and multiply passes a map of its own
    g, raw = sample
    raw[Monomial(Path(g.vertices[0]), Path(g.vertices[0]))] = 0  # a zero that is not a GaussianRational
    before = list(raw.items())
    normalize_terms(g, raw)
    after = list(raw.items())
    assert after == before
    assert all(m1 is m2 and c1 is c2 for (m1, c1), (m2, c2) in zip(after, before))


PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_normalize_rewrites_of_a_seed_1_benchmark_batch(monkeypatch):
    # one seed-1 batch of the benchmark's normalize workload takes 13,127
    # rewrites in the longest-first worklist (its NamedTuple form, counted)
    monkeypatch.syspath_prepend(PERFBENCH)  # workloads.py imports refgraph.py beside it
    spec = importlib.util.spec_from_file_location("perfbench_workloads", os.path.join(PERFBENCH, "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    w = workloads.build("normalize", 1)
    assert len(w.calls) == 105
    steps = 0
    for call in w.calls:
        graph_file, element_file = call.argv[2], call.argv[4]
        g = graph_from_json(w.files[graph_file])
        raw = oracle_element_terms(g, json.loads(w.files[element_file]))
        x, n = oracle_counted_normalize(g, raw)
        assert normalize_terms(g, raw) == x
        steps += n
    assert steps == 13127
