"""The four benchmark workloads: seeded inputs, CLI calls and output checks.

A workload is a fixed set of input files plus a list of ``leavitt-lab``
invocations.  Every call carries a check whose reference comes from
``refgraph`` or from the construction of the input, never from the program.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from refgraph import (
    Shape,
    complete,
    complete_digraph,
    desingularize,
    expected_classification,
    l1_norm,
    line,
    make_graph,
    normal_form_problem,
    random_dag,
    random_digraph,
    random_element,
    paths_into,
    reachable_subgraph,
    remove_sources,
    ring_loop,
    rose,
    spi_fixtures,
    star,
    term,
    vertex_ids,
    witness_problem,
)

Check = Callable[[str], Optional[str]]


@dataclass
class Call:
    key: str
    family: str
    argv: list[str]
    check: Check


@dataclass
class Workload:
    files: dict[str, str] = field(default_factory=dict)
    calls: list[Call] = field(default_factory=list)

    def add_file(self, name: str, obj) -> str:
        self.files[name] = json.dumps(obj, separators=(",", ":")) + "\n"
        return name

    def add(self, key, family, argv, check) -> None:
        self.calls.append(Call(key, family, argv, check))

    def digest(self) -> str:
        blob = json.dumps([sorted(self.files.items()), [c.argv for c in self.calls]])
        return hashlib.sha256(blob.encode()).hexdigest()

    def input_size(self, call: Call) -> int:
        return sum(len(self.files[a]) for a in call.argv if a in self.files)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def classification_check(g: dict, expected: tuple[str, str] | None = None) -> Check:
    """Verdict and witness kind from ``expected`` (known by construction) or the brute-force checker."""
    verdict, kind = expected or expected_classification(g)

    def check(out):
        obj = json.loads(out)
        if obj["verdict"] != verdict:
            return f"verdict {obj['verdict']}, expected {verdict}"
        if obj["witness"]["kind"] != kind:
            return f"witness kind {obj['witness']['kind']}, expected {kind}"
        return witness_problem(g, verdict, obj["witness"])

    return check


def graph_check(expected: dict) -> Check:
    return lambda out: None if json.loads(out) == expected else "graph differs from the reference"


def embedding_check(ambient: dict, expected: dict, emb_file: str) -> Check:
    def check(out):
        if json.loads(out) != expected:
            return "completed graph differs from the reference"
        with open(emb_file, encoding="utf-8") as fh:
            emb = json.load(fh)
        if emb["domain"] != expected or emb["codomain"] != ambient:
            return "embedding file names the wrong graphs"
        if sorted(emb["vertex_images"]) != sorted(vertex_ids(expected)):
            return "embedding lacks a vertex image"
        if sorted(emb["edge_images"]) != sorted(e["id"] for e in expected["edges"]):
            return "embedding lacks an edge image"
        return None

    return check


def witness_check(g: dict) -> Check:
    vertices = set(vertex_ids(g))

    def check(out):
        obj = json.loads(out)
        if obj.get("verified") is not True:
            return "witness not verified"
        if obj["v"] not in vertices:
            return f"witness vertex {obj['v']!r} is not in the graph"
        return None

    return check


UNIT_VERTEX = [term("v", [], "v", [])]


def normal_form_check(g: dict, expected=None) -> Check:
    def check(out):
        obj = json.loads(out)
        if expected is not None and obj != expected:
            return "normal form differs from the bare vertex"
        return normal_form_problem(g, obj)

    return check


def norm_check(p: float, own_l1: float, dual_l1: float) -> Check:
    """p = 1 is exact and equals the reference ||a||_1; other values obey
    ||a||_p <= ||a||_1^(1/p) ||a*||_1^(1-1/p) (Riesz-Thorin), both sides of
    the bound taken from the reference."""
    bound = own_l1 ** (1 / p) * dual_l1 ** (1 - 1 / p)

    def check(out):
        obj = json.loads(out)
        if p == 1.0:
            if obj.get("exact") is not True:
                return "p = 1 must be exact"
            if not math.isclose(obj["norm"], own_l1, rel_tol=1e-9):
                return f"norm {obj['norm']}, reference {own_l1}"
            return None
        value = obj["norm"] if p == 2.0 else obj["lower_bound"]
        if p != 2.0 and not isinstance(obj.get("converged"), bool):
            return "lower bound without a convergence flag"
        if not 0 < value <= bound * (1 + 1e-9):
            return f"value {value} outside (0, {bound}]"
        return None

    return check


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def build_classify(seed: int, tiny: bool) -> Workload:
    """Graph analysis: structured families with known verdicts, random digraphs
    checked by brute force, omega graphs before and after desingularization,
    and the remove-sources / reachable surgeries."""
    rng = random.Random(f"classify:{seed}")
    w = Workload()

    def classify(key, family, g, *flags, expected=None):
        name = w.add_file(f"{key}.json", g)
        w.add(key, family, ["classify", "--graph", name, *flags], classification_check(g, expected))

    spi = ("SimplePurelyInfinite", "cycle")
    # The ladder of small rings keeps more than a tenth of the calls
    # classifier-bound and seed-independent, so call_ms_p90 falls among them.
    for n in (6,) if tiny else (*range(16, 36), 40, 60, 80, 100, 120):
        classify(f"ring{n}", "ring", ring_loop(n), expected=spi)
    for n in (4,) if tiny else (5, 6, 7):
        classify(f"K{n}", "complete", complete_digraph(n), expected=spi)
    for i in range(4 if tiny else 60):
        classify(f"rand{i}", "random", random_digraph(rng, rng.randint(2, 10)))

    for i in range(2 if tiny else 8):
        while True:
            g = random_digraph(rng, rng.randint(2, 5), omega_pairs=rng.randint(1, 2))
            depth = rng.randint(1, 2)
            d = desingularize(g, depth)
            if len(d["vertices"]) <= 12:
                break
        classify(f"omega{i}", "omega", g)
        name = f"omega{i}.json"
        w.add(
            f"desing{i}", "desingularize",
            ["transform", "desingularize", "--graph", name, "--depth", str(depth)],
            graph_check(d),
        )
        classify(f"desing{i}.classify", "desingularized", d, "--frontier", "sink")

    for i in range(2 if tiny else 8):
        while True:
            g = random_digraph(rng, rng.randint(3, 10))
            expected = remove_sources(g)
            if expected["vertices"]:
                break
        name = w.add_file(f"src{i}.json", g)
        w.add(f"src{i}", "remove-sources", ["transform", "remove-sources", "--graph", name], graph_check(expected))

    for i in range(2 if tiny else 8):
        g = random_digraph(rng, rng.randint(3, 10))
        start = rng.choice(vertex_ids(g))
        name = w.add_file(f"reach{i}.json", g)
        w.add(
            f"reach{i}", "reachable",
            ["transform", "reachable", "--graph", name, "--from", start],
            graph_check(reachable_subgraph(g, start)),
        )
    return w


def build_witness(seed: int, tiny: bool) -> Workload:
    """Pure-infiniteness witnesses: many small multiplications over the SPI
    fixtures, classifier-heavy witnesses over rings, and subgraph completion
    with its verified embedding."""
    rng = random.Random(f"witness:{seed}")
    w = Workload()
    graphs = dict(spi_fixtures())
    for n in (5,) if tiny else (20, 30):
        graphs[f"ring{n}"] = ring_loop(n)
    pools = {name: paths_into(Shape(g), 6) for name, g in graphs.items()}
    for name, g in graphs.items():
        w.add_file(f"{name}.json", g)

    fixtures = [n for n in graphs if not n.startswith("ring")]
    rings = [n for n in graphs if n.startswith("ring")]
    plan = [fixtures[i % len(fixtures)] for i in range(5 if tiny else 120)]
    plan += [rings[i % len(rings)] for i in range(1 if tiny else 30)]
    for i, gname in enumerate(plan):
        g = graphs[gname]
        a = random_element(g, rng, rng.randint(1, 12), 6, pools[gname])
        el = w.add_file(f"a{i}.json", a)
        w.add(
            f"witness{i}", f"witness-{gname}",
            ["witness", "--graph", f"{gname}.json", "--element", el],
            witness_check(g),
        )

    ambient = fixtures + rings[:1]
    for i in range(2 if tiny else 30):
        gname = ambient[i % len(ambient)]
        g = graphs[gname]
        vs = vertex_ids(g)
        sub_v = sorted(rng.sample(vs, rng.randint(1, min(len(vs), 8))), key=vs.index)
        inside = [e["id"] for e in g["edges"] if e["src"] in sub_v and e["dst"] in sub_v]
        sub_e = [e for e in inside if rng.random() < 0.7]
        ends = {e["id"]: (e["src"], e["dst"]) for e in g["edges"]}
        sub = w.add_file(f"sub{i}.json", make_graph(sub_v, [(e, *ends[e]) for e in sub_e]))
        emb = f"emb{i}.out.json"
        w.add(
            f"complete{i}", "complete",
            ["transform", "complete", "--graph", f"{gname}.json", "--subgraph", sub, "--emit-embedding", emb],
            embedding_check(g, complete(g, sub_v, sub_e), emb),
        )
    return w


def long_monomial_sum(g: dict, rng: random.Random, n_terms: int) -> list[dict]:
    """Distinct monomials a·b* with |a|, |b| in 6..12, many of them rewritable."""
    shape = Shape(g)
    into = {v: [(eid, s) for eid, s, d in shape.edges if d == v] for v in shape.vertices}
    chosen: dict[tuple, dict] = {}
    while len(chosen) < n_terms:
        src = rng.choice(shape.vertices)
        alpha, at = [], src
        for _ in range(rng.randint(6, 12)):
            eid, at = rng.choice(shape.out[at])
            alpha.append(eid)
        beta, back = [], at
        for _ in range(rng.randint(6, 12)):
            eid, back = rng.choice(into[back])
            beta.append(eid)
        beta.reverse()
        chosen.setdefault((src, tuple(alpha), back, tuple(beta)), term(src, alpha, back, beta))
    for t in chosen.values():
        t["re"], t["im"] = f"{rng.randint(1, 9)}/{rng.randint(1, 4)}", f"{rng.randint(-3, 3)}/1"
    return list(chosen.values())


def build_normalize(seed: int, tiny: bool) -> Workload:
    """Large single rewrites: rose conjugation sums that collapse to the bare
    vertex, and long-monomial sums whose normal form stays large."""
    rng = random.Random(f"normalize:{seed}")
    w = Workload()
    for k in (2, 3):
        w.add_file(f"rose{k}.json", rose(k))
    for k, r in ((2, 3), (3, 2)) if tiny else ((2, 8), (2, 9), (3, 5), (3, 6), (3, 7)):
        loops = "efg"[:k]
        terms = [term("v", p, "v", p) for p in itertools.product(loops, repeat=r)]
        rng.shuffle(terms)
        el = w.add_file(f"rose{k}_r{r}.json", terms)
        w.add(
            f"rose{k}_r{r}", "rose",
            ["normalize", "--graph", f"rose{k}.json", "--element", el],
            normal_form_check(rose(k), UNIT_VERTEX),
        )
    fixtures = spi_fixtures()
    for gname in ("spi4", "rand4b"):
        w.add_file(f"{gname}.json", fixtures[gname])
    for i in range(4 if tiny else 100):
        gname = ("spi4", "rand4b")[i % 2]
        el = w.add_file(f"long{i}.json", long_monomial_sum(fixtures[gname], rng, 10 if tiny else 60))
        w.add(
            f"long{i}", f"long-{gname}",
            ["normalize", "--graph", f"{gname}.json", "--element", el],
            normal_form_check(fixtures[gname]),
        )
    return w


def renamed(obj, prefix: str):
    """A graph or element with every vertex and edge id prefixed.

    A common prefix keeps the lexicographic order of ids, hence the path
    order, the designated edges and every matrix the program builds.
    """
    if isinstance(obj, list):
        return [
            term(prefix + t["alpha_src"], [prefix + e for e in t["alpha"]],
                 prefix + t["beta_src"], [prefix + e for e in t["beta"]], t["re"], t["im"])
            for t in obj
        ]
    return make_graph(
        [prefix + v for v in vertex_ids(obj)],
        [(prefix + e["id"], prefix + e["src"], prefix + e["dst"]) for e in obj["edges"]],
    )


def build_norm(seed: int, tiny: bool) -> Workload:
    """l^p norms of elements and their involutions over finite acyclic graphs.

    Power-iteration cost per element is heavy-tailed (a tenth of the elements
    carry over 40% of it), so seeded elements would swing the batch time by a
    fifth between seeds.  The elements are therefore drawn once from a fixed
    generator seed; ``seed`` renames every id and shuffles the call order,
    which changes the inputs but not the arithmetic.
    """
    rng = random.Random("norm:pool")
    prefix = f"s{seed}_"
    w = Workload()
    ps = ("1", "1.5", "2", "3")
    for i in range(2 if tiny else 40):
        if i % 2:
            g = line(rng.randint(3, 6))
        else:
            g = random_dag(rng, rng.randint(5, 7), rng.randint(1, 3))
        a = random_element(g, rng, rng.randint(2, 8), 3)
        gname = w.add_file(f"g{i}.json", renamed(g, prefix))
        sides = {"a": a, "s": star(a)}
        l1 = {side: l1_norm(g, x) for side, x in sides.items()}
        for side, dual in (("a", "s"), ("s", "a")):
            el = w.add_file(f"{side}{i}.json", renamed(sides[side], prefix))
            for p in ps:
                w.add(
                    f"{side}{i}_p{p}", f"norm-p{p}",
                    ["norm", "--graph", gname, "--element", el, "--p", p],
                    norm_check(float(p), l1[side], l1[dual]),
                )
    return w


WORKLOADS = {
    "classify": build_classify,
    "witness": build_witness,
    "normalize": build_normalize,
    "norm": build_norm,
}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    w = WORKLOADS[name](seed, tiny)
    random.Random(f"order:{name}:{seed}").shuffle(w.calls)
    return w
