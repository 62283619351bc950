import random
import sys

import pytest

# set before the package is imported: a __pycache__ written into the source
# tree would change later cold-start timings of that tree (the subprocess
# tests pass PYTHONDONTWRITEBYTECODE for the same reason)
sys.dont_write_bytecode = True

from leavitt_lab import zoo  # noqa: E402
from leavitt_lab.graph import Graph  # noqa: E402


@pytest.fixture
def r1():
    return zoo.r1()


@pytest.fixture
def r2():
    return zoo.r2()


@pytest.fixture
def r3():
    return zoo.r3()


@pytest.fixture
def a2():
    return zoo.a2()


@pytest.fixture
def a3():
    return zoo.a3()


@pytest.fixture
def spi3():
    return zoo.spi3()


@pytest.fixture
def spi4():
    return zoo.spi4()


@pytest.fixture
def omega_spi():
    return zoo.omega_spi()


def relabel(g: Graph, vmap: dict[str, str], emap: dict[str, str]) -> Graph:
    """Rename vertices and edges through bijections (test helper)."""
    return Graph(
        tuple(vmap[v] for v in g.vertices),
        tuple((emap[e.id], vmap[e.src], vmap[e.dst]) for e in g.edges),
        tuple((vmap[s], vmap[d]) for s, d in g.omega_pairs),
        frozenset(vmap[v] for v in g.frontier),
    )


def random_relabel(g: Graph, rng: random.Random) -> tuple[Graph, dict, dict]:
    vnames = [f"x{i}" for i in range(len(g.vertices))]
    enames = [f"y{i}" for i in range(len(g.edges))]
    rng.shuffle(vnames)
    rng.shuffle(enames)
    vmap = dict(zip(g.vertices, vnames))
    emap = dict(zip((e.id for e in g.edges), enames))
    return relabel(g, vmap, emap), vmap, emap


def source_tail_into_rose(n: int) -> Graph:
    """The 2-rose at v fed by a line of n sources t0 -> t1 -> ... -> v."""
    tail = [f"t{i}" for i in range(n)]
    ends = tail[1:] + ["v"]
    edges = [(f"g{i}", t, dst) for i, (t, dst) in enumerate(zip(tail, ends))]
    return Graph((*tail, "v"), (*edges, ("e", "v", "v"), ("f", "v", "v")))
