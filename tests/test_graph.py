import json
import random
import re
import time
import tracemalloc
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leavitt_lab import graph as graph_module
from leavitt_lab import zoo
from leavitt_lab.errors import (
    EmptyGraph,
    FormatError,
    FrontierPresent,
    NotAcyclic,
    NotCycleBase,
    OmegaUnsupported,
    UnknownVertex,
)
from leavitt_lab.graph import (
    Edge,
    Graph,
    Path,
    Verdict,
    classify_graph,
    enumerate_paths,
    find_cycles,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    hereditary_saturated_closure,
    least_cycle_at,
    omega_edge_id,
    omega_exit_marker,
    path_counts,
    path_levels,
    paths_by_range,
    reachable_from,
    tail_counts,
)
from leavitt_lab.lpa import multiply, vertex_element
from leavitt_lab.spi import spi_witness
from leavitt_lab.transforms import desingularize

from conftest import random_relabel, source_tail_into_rose
from oracles import (
    all_hereditary_saturated_sets,
    is_cycle_cofinal,
    oracle_classify,
    oracle_cycles,
    oracle_is_simple,
    oracle_least_cycle_at,
    oracle_out_alphabet,
    oracle_path,
    oracle_path_counts,
    oracle_paths,
    oracle_paths_by_range,
    oracle_reachable,
    oracle_tail_counts,
    oracle_vertex_tables,
)


# ---------------------------------------------------------------------------
# enumerate_paths
# ---------------------------------------------------------------------------


def test_paths_single_vertex_length_zero():
    g = Graph(("v",))
    assert enumerate_paths(g, 0) == [Path("v")]


def test_paths_r2_length_two_matches_exhaustive_oracle(r2):
    got = enumerate_paths(r2, 2)
    expect = [Path(src, edges) for src, edges in oracle_paths(r2, 2)]
    assert got == expect
    assert [p.edges for p in got] == [("e", "e"), ("e", "f"), ("f", "e"), ("f", "f")]


def test_paths_a2_end_filter(a2):
    assert enumerate_paths(a2, 1, end="v") == [Path("u", ("e",))]
    assert enumerate_paths(a2, 1, end="u") == []


def test_paths_no_duplicates_and_sorted(spi4):
    for n in range(5):
        ps = enumerate_paths(spi4, n)
        assert len(ps) == len(set(ps))
        assert ps == sorted(ps, key=lambda p: p.edges)
        assert ps == [Path(s, e) for s, e in oracle_paths(spi4, n)]


def test_path_levels_are_the_enumerations_of_one_walk(spi4):
    rng = random.Random(10)
    for g in (spi4, zoo.rand4a(), zoo.rand4b(), random_relabel(spi4, rng)[0]):
        levels = path_levels(g, 4)
        assert [[(p.source, p.edges) for p in level] for level in levels] == [
            oracle_paths(g, n) for n in range(5)
        ]
    assert path_levels(spi4, 0) == [[Path(v) for v in spi4.vertices]]
    assert path_levels(spi4, -1) == []


def test_paths_reject_omega(omega_spi):
    with pytest.raises(OmegaUnsupported):
        enumerate_paths(omega_spi, 1)
    assert [p.source for p in enumerate_paths(omega_spi, 0)] == ["v", "w"]


def test_path_rejects_non_string_edge_id(omega_spi):
    with pytest.raises(ValueError, match="must be a string"):
        omega_spi.path("v", [7])


def test_path_is_a_named_tuple_value():
    p = Path("v", ("e", "f", "e"))
    assert p == Path("v", ("e", "f", "e")) == ("v", ("e", "f", "e"))
    assert hash(p) == hash(("v", ("e", "f", "e"))) and {p: 1}[("v", ("e", "f", "e"))] == 1
    assert p != Path("v", ("e", "f")) and Path("v") == ("v", ())
    # a path is a pair: its edge count is its length, not its len
    assert (len(p), p.length, Path("v").length) == (2, 3, 0)
    assert (repr(p), repr(Path("v"))) == ("<e·f·e>", "<v>")
    with pytest.raises(AttributeError):
        p.edges = ()
    with pytest.raises(AttributeError):
        p.extra = 1


def test_graph_is_an_immutable_value():
    text = graph_to_json(zoo.omega_spi())
    g, h = graph_from_json(text), graph_from_json(text)
    assert g == h and hash(g) == hash(h) and {g: 1}[h] == 1
    other = Graph(g.vertices, g.edges, g.omega_pairs, {"v"})
    assert other != g and g != (g.vertices, g.edges, g.omega_pairs, g.frontier)
    with pytest.raises(AttributeError):
        g.vertices = ()
    with pytest.raises(AttributeError):
        del g.edges
    assert g.analysis is g.analysis and g.vertices == h.vertices


def test_graph_repr_and_edge_value():
    assert repr(zoo.rose(2)) == (
        "Graph(vertices=('v',), edges=(Edge(id='e', src='v', dst='v'), "
        "Edge(id='f', src='v', dst='v')), omega_pairs=(), frontier=frozenset())"
    )
    assert Edge("e", "v", "v") == ("e", "v", "v")
    assert Graph(("v",), (("e", "v", "v"),)).edges == (Edge("e", "v", "v"),)


# ---------------------------------------------------------------------------
# vertex partition
# ---------------------------------------------------------------------------


def of_kind(g, kind):
    return tuple(v for v in g.vertices if getattr(g, kind)(v))


def test_vertex_classes_r2(r2):
    assert of_kind(r2, "is_regular") == ("v",)
    assert of_kind(r2, "is_sink") == ()
    assert of_kind(r2, "is_infinite_emitter") == ()


def test_vertex_classes_a2(a2):
    assert of_kind(a2, "is_regular") == ("u",)
    assert of_kind(a2, "is_sink") == ("v",)


def test_vertex_classes_omega():
    g = Graph(("v", "w"), (), (("v", "w"),))
    assert of_kind(g, "is_infinite_emitter") == ("v",)
    assert of_kind(g, "is_sink") == ("w",)
    assert of_kind(g, "is_regular") == ()


@pytest.mark.parametrize("gname", ["r2", "a2", "omega_spi"])
@pytest.mark.parametrize("kind", ["is_infinite_emitter", "is_sink", "is_regular", "is_source"])
def test_vertex_kinds_refuse_an_unknown_vertex(gname, kind, request):
    g = request.getfixturevalue(gname)
    with pytest.raises(UnknownVertex, match=r"^vertex 'nope' is not in the graph$"):
        getattr(g, kind)("nope")


# ---------------------------------------------------------------------------
# cycles
# ---------------------------------------------------------------------------


def test_cycles_r1(r1):
    assert find_cycles(r1) == [(Path("v", ("e",)), ())]


def test_cycles_r2(r2):
    assert find_cycles(r2) == [
        (Path("v", ("e",)), ("f",)),
        (Path("v", ("f",)), ("e",)),
    ]


def test_cycles_a2(a2):
    assert find_cycles(a2) == []


def test_cycles_canonical_rotation(spi3):
    cycles = [c.edges for c, _ in find_cycles(spi3)]
    assert cycles == [("e1", "e2", "e3"), ("e1", "f")]
    for edges in cycles:
        assert edges == min(edges[i:] + edges[:i] for i in range(len(edges)))


def test_cycles_omega_marker(omega_spi):
    cycles = find_cycles(omega_spi)
    assert len(cycles) == 1
    cycle, exits = cycles[0]
    assert cycle.edges == ("f", "v~w^1")
    assert omega_exit_marker("v", "w") in exits


# ---------------------------------------------------------------------------
# hereditary saturated closure
# ---------------------------------------------------------------------------


def test_closure_sink(a2):
    assert hereditary_saturated_closure(a2, ["v"]) == frozenset({"u", "v"})


def test_closure_source(a2):
    assert hereditary_saturated_closure(a2, ["u"]) == frozenset({"u", "v"})


def test_closure_rose(r2):
    assert hereditary_saturated_closure(r2, ["v"]) == frozenset({"v"})


def test_closure_sink_only_stays():
    g = zoo.loop_with_sink()
    assert hereditary_saturated_closure(g, ["w"]) == frozenset({"w"})


def test_closure_unknown_vertex(r2):
    with pytest.raises(UnknownVertex):
        hereditary_saturated_closure(r2, ["nope"])


@given(st.data())
@settings(deadline=None, max_examples=60)
def test_closure_monotone_idempotent(data):
    g = data.draw(st.sampled_from([zoo.r2(), zoo.spi3(), zoo.rand4a(), zoo.a3()]))
    seed = data.draw(st.sets(st.sampled_from(list(g.vertices))))
    closure = hereditary_saturated_closure(g, seed)
    assert seed <= closure
    assert hereditary_saturated_closure(g, closure) == closure
    extra = data.draw(st.sets(st.sampled_from(list(g.vertices))))
    bigger = hereditary_saturated_closure(g, seed | extra)
    assert closure <= bigger


# ---------------------------------------------------------------------------
# classifier
# ---------------------------------------------------------------------------


def test_classify_r2_spi(r2):
    c = classify_graph(r2)
    assert c.verdict is Verdict.SIMPLE_PURELY_INFINITE
    assert c.witness == Path("v", ("e",))


def test_classify_r1_cycle_without_exit(r1):
    c = classify_graph(r1)
    assert c.verdict is Verdict.NOT_SIMPLE
    assert c.witness == Path("v", ("e",))
    cycles = dict(find_cycles(r1))
    assert cycles[c.witness] == ()


def test_classify_a2_acyclic_cross_checked(a2):
    # brute force: the only hereditary saturated sets of u -> v are trivial
    from oracles import all_hereditary_saturated_sets

    assert set(all_hereditary_saturated_sets(a2)) == {
        frozenset(),
        frozenset({"u", "v"}),
    }
    c = classify_graph(a2)
    assert c.verdict is Verdict.SIMPLE_ACYCLIC
    assert c.witness == "acyclic"
    # cross-check that the algebra is the 2x2 matrix algebra
    from leavitt_lab.matricial import acyclic_decompose, paths_into_by_sink
    from leavitt_lab.lpa import vertex_element

    sinks = paths_into_by_sink(a2)
    assert set(sinks) == {"v"} and len(sinks["v"]) == 2
    unit = acyclic_decompose(vertex_element(a2, "u") + vertex_element(a2, "v"))
    matrix = unit.blocks[list(unit.blocks)[0]]
    assert [[str(c) for c in row] for row in matrix] == [["1", "0"], ["0", "1"]]


def test_classify_empty_graph():
    with pytest.raises(EmptyGraph):
        classify_graph(Graph(()))


def test_classify_hs_witness():
    g = zoo.two_isolated()
    c = classify_graph(g)
    assert c.verdict is Verdict.NOT_SIMPLE
    assert isinstance(c.witness, frozenset)
    assert c.witness == hereditary_saturated_closure(g, c.witness)
    assert frozenset() < c.witness < frozenset(g.vertices)


def test_classify_frontier_modes():
    from leavitt_lab.transforms import desingularize

    truncated = desingularize(zoo.omega_spi(), 2)
    with pytest.raises(FrontierPresent):
        classify_graph(truncated)
    c = classify_graph(truncated, frontier="sink")
    assert c.verdict is Verdict.SIMPLE_PURELY_INFINITE


def test_classify_refuses_an_unknown_frontier_mode_on_every_graph():
    # checked before the graph is looked at, so also with no frontier vertex
    for g in (desingularize(zoo.omega_spi(), 2), zoo.rose(2), zoo.a2(), Graph((), ())):
        with pytest.raises(ValueError, match="frontier must be 'refuse' or 'sink'"):
            classify_graph(g, frontier="bogus")


def test_standard_zoo_verdicts():
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
    for name, g in zoo.standard_graphs().items():
        assert classify_graph(g).verdict is expected[name], name


# ---------------------------------------------------------------------------
# path order and concatenation
# ---------------------------------------------------------------------------


def test_path_order_law(spi4):
    pool = [p for n in range(4) for p in enumerate_paths(spi4, n)]
    for p in pool:
        for q in pool:
            ge = spi4.path_ge(p, q)
            witnesses = [
                t
                for t in pool
                if spi4.range_of(p) == t.source and spi4.concat(p, t) == q
            ]
            assert ge == bool(witnesses)


def test_concat_associative(spi4):
    pool = [p for n in range(3) for p in enumerate_paths(spi4, n)]
    for p in pool:
        for q in pool:
            pq = spi4.concat(p, q)
            if pq is None:
                continue
            for t in pool:
                qt = spi4.concat(q, t)
                if qt is None:
                    assert spi4.concat(pq, t) is None
                    continue
                assert spi4.concat(pq, t) == spi4.concat(p, qt)


@pytest.mark.parametrize("gname", ["r2", "a3", "spi3", "spi4"])
def test_concat_bijection(gname):
    g = getattr(zoo, gname)()
    for total in range(6):
        for m in range(total + 1):
            n = total - m
            pairs = [
                g.concat(p, q)
                for p in enumerate_paths(g, m)
                for q in enumerate_paths(g, n)
                if g.concat(p, q) is not None
            ]
            assert sorted(pairs, key=lambda p: (p.source, p.edges)) == sorted(
                enumerate_paths(g, total), key=lambda p: (p.source, p.edges)
            )
            assert len(pairs) == len(set(pairs)) * 1  # no composable pair collides


# ---------------------------------------------------------------------------
# relabeling invariance
# ---------------------------------------------------------------------------


def test_classify_relabel_invariant():
    rng = random.Random(20260808)
    for g in zoo.standard_graphs().values():
        base = classify_graph(g).verdict
        for _ in range(4):
            h, _, _ = random_relabel(g, rng)
            assert classify_graph(h).verdict is base


# ---------------------------------------------------------------------------
# exhaustive oracle agreement on small graphs
# ---------------------------------------------------------------------------


def _all_small_graphs(max_vertices=4, max_edges=5):
    for k in range(1, max_vertices + 1):
        verts = tuple(f"v{i}" for i in range(k))
        slots = [(a, b) for a in verts for b in verts]
        for m in range(max_edges + 1):
            for combo in combinations_with_replacement(range(len(slots)), m):
                edges = tuple(
                    (f"e{j}", slots[i][0], slots[i][1]) for j, i in enumerate(combo)
                )
                yield Graph(verts, edges)


def test_exhaustive_simplicity_oracle_agreement():
    from oracles import oracle_cycles

    count = 0
    for g in _all_small_graphs():
        verdict = classify_graph(g).verdict
        simple = oracle_is_simple(g)
        assert (verdict is not Verdict.NOT_SIMPLE) == simple
        if simple:
            has_cycle = bool(oracle_cycles(g))
            expected = (
                Verdict.SIMPLE_PURELY_INFINITE if has_cycle else Verdict.SIMPLE_ACYCLIC
            )
            assert verdict is expected
        count += 1
    assert count > 20000


# ---------------------------------------------------------------------------
# witness re-validation
# ---------------------------------------------------------------------------


def test_witnesses_revalidate():
    for g in zoo.standard_graphs().values():
        c = classify_graph(g)
        if c.verdict is Verdict.NOT_SIMPLE:
            if isinstance(c.witness, Path):
                cycles = dict(find_cycles(g))
                assert cycles[c.witness] == ()
            else:
                assert c.witness == hereditary_saturated_closure(g, c.witness)
                assert frozenset() < c.witness < frozenset(g.vertices)
        elif c.verdict is Verdict.SIMPLE_PURELY_INFINITE:
            assert c.witness in dict(find_cycles(g))
        else:
            assert c.witness == "acyclic"


# ---------------------------------------------------------------------------
# cofinality as a separate predicate
# ---------------------------------------------------------------------------


def test_cycle_cofinality_is_vacuous_on_acyclic_graphs():
    g = zoo.two_isolated()
    # vacuously cofinal with respect to cycles, yet not simple: this is why
    # the classifier uses the hereditary saturated criterion instead
    assert is_cycle_cofinal(g)
    assert classify_graph(g).verdict is Verdict.NOT_SIMPLE


def test_cycle_cofinality_detects_unreachable_cycle():
    assert not is_cycle_cofinal(zoo.two_roses())
    assert is_cycle_cofinal(zoo.r2())
    assert is_cycle_cofinal(zoo.spi3())


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_graph_json_bit_exact(r2):
    assert graph_to_json(r2) == (
        '{"vertices":["v"],"edges":['
        '{"id":"e","src":"v","dst":"v"},{"id":"f","src":"v","dst":"v"}]}'
    )


def test_graph_json_bit_exact_omega(omega_spi):
    assert graph_to_json(omega_spi) == (
        '{"vertices":["v","w"],"edges":[{"id":"f","src":"w","dst":"v"}],'
        '"omega":[{"src":"v","dst":"w"}]}'
    )


def test_graph_json_roundtrip():
    for g in zoo.standard_graphs().values():
        assert graph_from_json(graph_to_json(g)) == g
    from leavitt_lab.transforms import desingularize

    truncated = desingularize(zoo.omega_spi(), 2)
    assert graph_from_json(graph_to_json(truncated)) == truncated


def test_graph_json_rejects_unknown_fields():
    from leavitt_lab.errors import FormatError

    with pytest.raises(FormatError):
        graph_from_json('{"vertices":["v"],"edges":[],"bogus":1}')
    with pytest.raises(FormatError):
        graph_from_json("not json")


@pytest.mark.parametrize(
    "text", ["[" * 200_000 + "]" * 200_000, "9" * 5001], ids=["nested-past-the-limit", "5001-digits"]
)
def test_json_readers_raise_format_error_on_hostile_json(r2, text):
    from leavitt_lab.lpa import element_from_json

    with pytest.raises(FormatError, match="^invalid JSON: "):
        graph_from_json(text)
    with pytest.raises(FormatError, match="^invalid JSON: "):
        element_from_json(r2, text)


@pytest.mark.parametrize(
    "obj",
    [
        {"vertices": ["v", "w"], "edges": [{"id": 5, "src": "v", "dst": "v"}], "omega": [{"src": "v", "dst": "w"}]},
        {"vertices": [{"id": 1}], "edges": []},
        {"vertices": ["v"], "edges": [{"id": "e", "src": ["v"], "dst": "v"}]},
        {"vertices": ["v"], "edges": [{"id": "e", "src": "v", "dst": None}]},
        {"vertices": ["v", "w"], "omega": [{"src": "v", "dst": 2}]},
        {"vertices": ["v", "w"], "omega": [{"src": {"id": "v"}, "dst": "w"}]},
    ],
    ids=["edge-id", "vertex-id", "edge-src", "edge-dst", "omega-dst", "omega-src"],
)
def test_graph_json_rejects_non_string_ids(obj):
    from leavitt_lab.errors import FormatError

    with pytest.raises(FormatError, match="must be a string"):
        graph_from_json(json.dumps(obj))


def test_dot_export(omega_spi):
    assert graph_to_dot(omega_spi) == (
        'digraph G {\n  "v";\n  "w";\n  "w" -> "v" [label="f"];\n'
        '  "v" -> "w" [label="ω", style=dashed];\n}\n'
    )


def test_dot_escapes_hostile_ids():
    vertices = ('a"b', "c\\", "n\nl", "plain")
    edge = ('e"];x[label="', 'a"b', "c\\")
    g = Graph(vertices, (edge, ("e\\\n", "n\nl", "plain")), (("plain", 'a"b'),), {"c\\", "n\nl"})
    lines = graph_to_dot(g).splitlines()
    assert lines[0] == "digraph G {" and lines[-1] == "}"
    assert len(lines) == 2 + len(vertices) + 3  # one statement per line
    quoted = re.compile(r'"((?:[^"\\\n]|\\.)*)"')
    unescape = {"\\\\": "\\", '\\"': '"', "\\n": "\n"}

    def fields(line):
        return [re.sub(r"\\.", lambda m: unescape[m.group()], f) for f in quoted.findall(line)]

    # every quoted field is an id, and every node statement is a listed vertex
    assert [fields(line) for line in lines[1:5]] == [[v] for v in vertices]
    assert [fields(line) for line in lines[5:8]] == [
        ['a"b', "c\\", edge[0]], ["n\nl", "plain", "e\\\n"], ["plain", 'a"b', "ω"]
    ]
    assert [line.endswith("[peripheries=2];") for line in lines[1:5]] == [False, True, True, False]
    # what is left outside the quotes is the fixed DOT syntax: no injected node
    assert [quoted.sub("Q", line) for line in lines[5:8]] == [
        "  Q -> Q [label=Q];", "  Q -> Q [label=Q];", "  Q -> Q [label=Q, style=dashed];"
    ]


def test_duplicate_ids_rejected():
    with pytest.raises(ValueError):
        Graph(("v", "v"))
    with pytest.raises(ValueError):
        Graph(("v",), (("e", "v", "v"), ("e", "v", "v")))
    with pytest.raises(ValueError):
        Graph(("v",), (("e", "v", "w"),))


def test_explicit_edge_colliding_with_omega_id_rejected():
    with pytest.raises(ValueError):
        Graph(("v", "w"), (("v~w^1", "v", "w"),), (("v", "w"),))
    # the same id is fine when no such omega pair is declared
    g = Graph(("v", "w"), (("v~w^1", "v", "w"),))
    assert g.edge_endpoints("v~w^1") == ("v", "w")


def test_omega_pairs_deduplicate_preserving_order():
    g = Graph(("v", "w"), (), (("v", "w"), ("w", "v"), ("v", "w")))
    assert g.omega_pairs == (("v", "w"), ("w", "v"))


def test_closure_traverses_omega_pairs():
    g = zoo.omega_to_sink()
    assert hereditary_saturated_closure(g, ["v"]) == frozenset({"v", "w"})
    assert hereditary_saturated_closure(g, ["w"]) == frozenset({"w"})
    c = classify_graph(g)
    assert c.verdict is Verdict.NOT_SIMPLE
    assert c.witness == frozenset({"w"})


def test_colliding_omega_prefixes_rejected():
    # (a, b~c) and (a~b, c) would both generate the edge ids a~b~c^k
    vertices = ("a", "b~c", "a~b", "c")
    with pytest.raises(ValueError, match="both generate"):
        Graph(vertices, (), (("a", "b~c"), ("a~b", "c")))
    text = json.dumps(
        {
            "vertices": list(vertices),
            "edges": [],
            "omega": [{"src": "a", "dst": "b~c"}, {"src": "a~b", "dst": "c"}],
        }
    )
    with pytest.raises(FormatError):
        graph_from_json(text)
    # either pair alone owns its generated ids
    g = Graph(vertices, (), (("a~b", "c"),))
    assert g.path("a~b", ["a~b~c^1"]).edges == ("a~b~c^1",)
    assert g.edge_endpoints("a~b~c^7") == ("a~b", "c")


def test_omega_ids_with_carets_in_vertex_ids():
    # the pairs (s, a) and (s, a^1) generate s~a^k and s~a^1^k
    g = Graph(("s", "a", "a^1"), (), (("s", "a"), ("s", "a^1")))
    assert g.edge_endpoints("s~a^1^2") == ("s", "a^1")
    assert g.edge_endpoints("s~a^1^1") == ("s", "a^1")
    assert g.edge_endpoints("s~a^1") == ("s", "a")
    for eid in ("s~a^1^02", "s~a^0", "s~a^", "s~a^1^"):
        with pytest.raises(ValueError, match="unknown edge id"):
            g.edge_endpoints(eid)
    for eid in ("s~a^1^02", "s~a^01"):
        Graph(g.vertices, ((eid, "s", "s"),), g.omega_pairs)
    with pytest.raises(ValueError, match="collides"):
        Graph(g.vertices, (("s~a^1^2", "s", "s"),), g.omega_pairs)


def test_omega_ids_take_only_ascii_digits():
    # a superscript two and an Arabic-Indic one are digits to str.isdigit
    pairs = (("s", "a"),)
    for eid in ("s~a^\u00b2", "s~a^\u0661"):
        g = Graph(("s", "a"), ((eid, "s", "a"),), pairs)
        assert g.edge_endpoints(eid) == ("s", "a")
    g = Graph(("s", "a"), (), pairs)
    with pytest.raises(ValueError, match="unknown edge id"):
        g.edge_endpoints("s~a^\u0661")
    with pytest.raises(ValueError, match="unknown edge id"):
        g.path("s", ["s~a^\u0661"])


def test_graph_with_many_omega_pairs_and_edges_within_budget():
    # each explicit edge id was checked against every omega pair: 4.75 s at 4,000 of each
    n = 10**4
    text = json.dumps(
        {
            "vertices": [f"v{i}" for i in range(n)],
            "edges": [{"id": f"e{i}", "src": f"v{i}", "dst": f"v{i}"} for i in range(n)],
            "omega": [{"src": f"v{i}", "dst": f"v{(i + 1) % n}"} for i in range(n)],
        }
    )
    start = time.perf_counter()
    g = graph_from_json(text)
    elapsed = time.perf_counter() - start
    assert len(g.omega_pairs) == len(g.edges) == n
    assert g.edge_endpoints(f"v{n - 1}~v0^3") == (f"v{n - 1}", "v0")
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# the SCC analysis on deep graphs and against the exhaustive oracles
# ---------------------------------------------------------------------------


def _ring_with_loop(n: int) -> Graph:
    verts = tuple(f"v{i}" for i in range(n))
    ring = tuple((f"e{i}", verts[i], verts[(i + 1) % n]) for i in range(n))
    return Graph(verts, ring + (("f", "v0", "v0"),))


def test_classify_deep_ring_within_budget():
    n = 2000
    g = _ring_with_loop(n)
    start = time.perf_counter()
    c = classify_graph(g)
    elapsed = time.perf_counter() - start
    assert c.verdict is Verdict.SIMPLE_PURELY_INFINITE
    assert c.witness == Path("v0", tuple(f"e{i}" for i in range(n)))
    assert elapsed < 2.0


def _skip_ring(n: int) -> Graph:
    """The ring v0 -> v1 -> ... -> v0 by edges a_i, with a skip edge b_i from
    each v_i to v_(i+2); the a ids sort first."""
    verts = tuple(f"v{i}" for i in range(n))
    ring = tuple((f"a{i}", verts[i], verts[(i + 1) % n]) for i in range(n))
    return Graph(verts, ring + tuple((f"b{i}", verts[i], verts[(i + 2) % n]) for i in range(n)))


def test_classify_skip_ring_within_budget():
    # a step-by-step walk with a backward search at each choice took 0.50 s at n = 2,000
    n = 8000
    g = _skip_ring(n)
    start = time.perf_counter()
    c = classify_graph(g)
    elapsed = time.perf_counter() - start
    assert c.verdict is Verdict.SIMPLE_PURELY_INFINITE
    assert c.witness == Path("v0", tuple(f"a{i}" for i in range(n)))
    assert elapsed < 0.5


def test_witness_on_skip_ring_within_budget():
    # the same walk took 0.73 s at n = 2,000
    g = _skip_ring(8000)
    a = vertex_element(g, "v0")
    start = time.perf_counter()
    w = spi_witness(a)
    elapsed = time.perf_counter() - start
    assert multiply(multiply(w.x, a), w.y) == vertex_element(g, w.v)
    assert elapsed < 0.5


def _line(n: int) -> Graph:
    verts = tuple(f"v{i}" for i in range(n))
    return Graph(verts, tuple((f"e{i}", verts[i], verts[i + 1]) for i in range(n - 1)))


def _binary_tree(n: int) -> Graph:
    verts = tuple(f"v{i}" for i in range(n))
    return Graph(verts, tuple((f"e{i}", verts[(i - 1) // 2], verts[i]) for i in range(1, n)))


def _comb(n: int) -> Graph:
    """A spine s0 -> s1 -> ... of n/2 vertices, each with a tooth t_i, spine first."""
    spine, teeth = [f"s{i}" for i in range(n // 2)], [f"t{i}" for i in range(n // 2)]
    edges = [(f"a{i}", s, t) for i, (s, t) in enumerate(zip(spine, spine[1:]))]
    edges += [(f"b{i}", s, t) for i, (s, t) in enumerate(zip(spine, teeth))]
    return Graph((*spine, *teeth), edges)


# one closure per SCC took 1.57-2.95 s on the 2,000-vertex line
@pytest.mark.parametrize(
    "build, verdict",
    [
        (lambda: _line(2000), Verdict.SIMPLE_ACYCLIC),
        (lambda: _binary_tree(2000), Verdict.NOT_SIMPLE),
        (lambda: _comb(2000), Verdict.NOT_SIMPLE),
        (lambda: source_tail_into_rose(1500), Verdict.SIMPLE_PURELY_INFINITE),
    ],
    ids=["line", "binary_tree", "comb", "tail_into_rose"],
)
def test_classify_many_sccs_within_budget(build, verdict):
    g = build()
    start = time.perf_counter()
    c = classify_graph(g)
    elapsed = time.perf_counter() - start
    assert c.verdict is verdict
    assert elapsed < 0.5


def test_classify_runs_one_closure_for_the_witness_alone(monkeypatch):
    calls = []

    def counted(g, seed):
        calls.append(tuple(seed))
        return hereditary_saturated_closure(g, seed)

    monkeypatch.setattr(graph_module, "hereditary_saturated_closure", counted)
    assert classify_graph(_ring_with_loop(50)).verdict is Verdict.SIMPLE_PURELY_INFINITE
    assert classify_graph(_line(50)).verdict is Verdict.SIMPLE_ACYCLIC
    assert calls == []
    # v0 reaches both sinks; the closure of v1 misses the sink v3
    g = Graph(("v0", "v1", "v2", "v3"), (("a", "v0", "v1"), ("b", "v1", "v2"), ("c", "v0", "v3")))
    c = classify_graph(g)
    assert c == (Verdict.NOT_SIMPLE, frozenset({"v1", "v2"}))
    assert calls == [("v1",)]


def test_classify_decides_each_scc_once_with_two_tops(monkeypatch):
    # a line v0 -> ... -> v1999 -> {s1, s2}, listed head first, ran one
    # search per line vertex: 0.34-0.51 s.  Now the line is a chain of
    # one-successor SCCs that takes the answer of v1999's one search, s1
    # fails as a top, and the second call is the witness closure.
    calls = []

    def counted(g, starts):
        calls.append(tuple(starts))
        return reachable_from(g, starts)

    monkeypatch.setattr(graph_module, "reachable_from", counted)
    n = 2000
    verts = [f"v{i}" for i in range(n)]
    edges = [(f"e{i}", verts[i], verts[i + 1]) for i in range(n - 1)]
    edges += [("x", verts[-1], "s1"), ("y", verts[-1], "s2")]
    start = time.perf_counter()
    c = classify_graph(Graph((*verts, "s1", "s2"), edges))
    elapsed = time.perf_counter() - start
    assert c == (Verdict.NOT_SIMPLE, frozenset({"s1"}))
    assert len(calls) <= 2
    assert elapsed < 0.5
    # listed tail first, with a tooth from each line vertex into s1: each has
    # two successor SCCs and passes because the next one along the line did
    calls.clear()
    teeth = [(f"t{i}", verts[i], "s1") for i in range(n - 1)]
    c = classify_graph(Graph((*reversed(verts), "s1", "s2"), edges + teeth))
    assert c == (Verdict.NOT_SIMPLE, frozenset({"s1"}))
    assert len(calls) <= 2


def test_classify_finds_the_top_through_a_vertex_off_the_cycles():
    # the loop at v0 reaches the loop at v2 only through v1, which is no
    # anchor; v2 is still no top, so v0 passes and v1 is the first to fail
    edges = (("a", "v0", "v0"), ("b", "v0", "v1"), ("c", "v1", "v2"), ("d", "v2", "v2"), ("e", "v2", "v3"))
    g = Graph(("v0", "v1", "v2", "v3"), edges)
    assert classify_graph(g) == (Verdict.NOT_SIMPLE, frozenset({"v1", "v2", "v3"}))


def test_classify_wide_star_memory_within_budget():
    # an anchor bitset per SCC took about 110 MB on this star
    n = 40_000
    leaves = tuple(f"l{i}" for i in range(n))
    g = Graph(("c", *leaves), tuple((f"e{i}", "c", leaf) for i, leaf in enumerate(leaves)))
    tracemalloc.start()
    try:
        c = classify_graph(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c == (Verdict.NOT_SIMPLE, frozenset({"l0"}))
    assert peak < 40 * 2**20


def test_find_cycles_on_deep_ring():
    n = 2000
    g = _ring_with_loop(n)
    cycles = find_cycles(g)
    assert [c for c, _ in cycles] == [
        Path("v0", tuple(f"e{i}" for i in range(n))),
        Path("v0", ("f",)),
    ]
    assert cycles[0][1] == ("f",)
    assert cycles[1][1] == ("e0",)


@st.composite
def random_graphs(draw, max_vertices=9, min_omega=0, max_omega=2, frontier=False, edges_per_vertex=(0, 2)):
    """Multigraphs with loops, shuffled vertex order and edge ids, and omega
    pairs; with ``frontier``, any subset of the vertices is frontier.  Over
    n vertices there are low·n to high·n edges, ``edges_per_vertex`` being
    (low, high)."""
    n = draw(st.integers(1, max_vertices))
    verts = tuple(draw(st.permutations([f"v{i}" for i in range(n)])))
    pair = st.tuples(st.sampled_from(verts), st.sampled_from(verts))
    low, high = edges_per_vertex
    ends = draw(st.lists(pair, min_size=low * n, max_size=high * n))
    ids = draw(st.permutations([f"e{i}" for i in range(len(ends))]))
    omega = draw(st.lists(pair, min_size=min_omega, max_size=max_omega))
    marked = draw(st.sets(st.sampled_from(verts))) if frontier else ()
    return Graph(verts, tuple((eid, s, d) for eid, (s, d) in zip(ids, ends)), tuple(omega), marked)


@st.composite
def desingularized_graphs(draw):
    g = draw(random_graphs(max_vertices=5, min_omega=1, max_omega=2))
    return desingularize(g, draw(st.integers(1, 2)))


@given(st.one_of(random_graphs(frontier=True), desingularized_graphs()))
@settings(deadline=None, max_examples=250)
def test_classify_matches_exhaustive_oracle(g):
    c = classify_graph(g, frontier="sink")
    assert (c.verdict.value, c.witness) == oracle_classify(g)


@given(st.one_of(random_graphs(), desingularized_graphs()))
@settings(deadline=None, max_examples=150)
def test_find_cycles_matches_oracle(g):
    assert [c.edges for c, _ in find_cycles(g)] == sorted(oracle_cycles(g))


@given(st.one_of(random_graphs(), desingularized_graphs(), random_graphs(max_vertices=6, edges_per_vertex=(2, 3))))
@settings(deadline=None, max_examples=150)
def test_least_cycle_matches_oracle_rotation(g):
    for v in g.vertices:
        expected = oracle_least_cycle_at(g, v)
        if expected is None:
            with pytest.raises(NotCycleBase):
                least_cycle_at(g, v)
        else:
            assert least_cycle_at(g, v) == Path(v, expected)


@given(random_graphs(), st.data())
@settings(deadline=None, max_examples=150)
def test_closure_is_least_hereditary_saturated_superset(g, data):
    seed = data.draw(st.sets(st.sampled_from(g.vertices)))
    supersets = [s for s in all_hereditary_saturated_sets(g) if seed <= s]
    least = frozenset.intersection(*supersets)
    assert least in supersets
    assert hereditary_saturated_closure(g, seed) == least


@st.composite
def path_requests(draw):
    """A graph with omega pairs, a source and a list of edge ids: mostly a
    walk, with ints, lists, dicts, unknown ids and generated ids mixed in."""
    g = draw(random_graphs(max_vertices=5, min_omega=1))
    alphabet = g.out_alphabet(3)
    source = at = "nowhere" if draw(st.sampled_from(range(10))) == 5 else draw(st.sampled_from(g.vertices))
    ids = [*(e.id for e in g.edges), "nowhere"]
    for s, d in g.omega_pairs:
        ids += [omega_edge_id(s, d, k) for k in (1, 2, 10)]
        ids += [f"{s}~{d}^{k}" for k in ("0", "01", "\u0661", "")]
    stray = st.one_of(
        st.sampled_from(ids),
        st.integers(-1, 2),
        st.lists(st.sampled_from(ids), max_size=2),
        st.dictionaries(st.sampled_from(ids), st.integers(0, 1), max_size=1),
    )
    edges = []
    for _ in range(draw(st.integers(0, 6))):
        if at in alphabet and alphabet[at] and draw(st.integers(0, 4)):
            eid, at = draw(st.sampled_from(alphabet[at]))
            edges.append(eid)
        else:
            edges.append(draw(stray))
    return g, source, edges


@given(path_requests())
@settings(deadline=None, max_examples=400)
def test_path_matches_edge_by_edge_oracle(request):
    g, source, edges = request
    try:
        expected = oracle_path(g, source, edges)
    except (ValueError, UnknownVertex) as exc:
        with pytest.raises((ValueError, UnknownVertex)) as info:
            g.path(source, edges)
        assert (type(info.value), str(info.value)) == (type(exc), str(exc))
    else:
        assert g.path(source, edges) == expected


# ---------------------------------------------------------------------------
# per-vertex tables and walks, against their definitions
# ---------------------------------------------------------------------------


def items(table: dict) -> list:
    """A table's keys, their order and their values."""
    return list(table.items())


@given(st.one_of(random_graphs(), desingularized_graphs()))
@settings(deadline=None, max_examples=150)
def test_vertex_tables_and_reachability_match_their_definitions(g):
    for name, table in oracle_vertex_tables(g).items():
        assert items(getattr(g, name)) == items(table), name
    for k in range(4):
        assert items(g.out_alphabet(k)) == items(oracle_out_alphabet(g, k)), k
    if g.is_row_finite:  # every count of copies gives the one cached table
        assert g.out_alphabet(3) is g.out_alphabet(0) is g.out_alphabet()
    if g.is_row_finite:
        for n in range(4):
            assert items(paths_by_range(g, n)) == items(oracle_paths_by_range(g, n)), n
    for v in g.vertices:
        assert reachable_from(g, [v]) == oracle_reachable(g, [v])
    assert reachable_from(g, g.vertices[::2]) == oracle_reachable(g, g.vertices[::2])


@st.composite
def random_dags(draw, cyclic=False):
    """Multigraphs acyclic in a hidden vertex order, listed shuffled, with
    isolated vertices, parallel edges and omega pairs anywhere (the counts
    never read them).  ``cyclic`` adds one edge against the order or a loop."""
    n = draw(st.integers(1, 7))
    order = [f"v{i}" for i in range(n)]
    index = st.integers(0, n - 1)
    ends = [(order[i], order[j]) for i, j in draw(st.lists(st.tuples(index, index), max_size=2 * n)) if i < j]
    if cyclic:
        i, j = draw(st.tuples(index, index))
        for arrow in dict.fromkeys([(order[i], order[j]), (order[j], order[i])]):
            ends.insert(draw(st.integers(0, len(ends))), arrow)
    ids = draw(st.permutations([f"e{i}" for i in range(len(ends))]))
    omega = draw(st.lists(st.tuples(st.sampled_from(order), st.sampled_from(order)), max_size=2))
    edges = tuple((eid, s, d) for eid, (s, d) in zip(ids, ends))
    return Graph(draw(st.permutations(order)), edges, omega)


@given(random_dags())
@settings(deadline=None, max_examples=200)
def test_counts_are_the_numbers_of_paths_on_dags(g):
    assert items(path_counts(g)) == items(oracle_path_counts(g))
    assert items(tail_counts(g)) == items(oracle_tail_counts(g))


@given(random_dags(cyclic=True))
@settings(deadline=None, max_examples=100)
def test_counts_refuse_every_cycle(g):
    for count in (path_counts, tail_counts):
        with pytest.raises(NotAcyclic, match="^the graph has a cycle$"):
            count(g)
