"""Batch command line: classify graphs, build witnesses, normalize elements,
compute norms, and run graph transforms.  Machine output (JSON, deterministic
byte-for-byte) goes to stdout; diagnostics go to stderr.

Exit codes: 0 ok, 2 unreadable/malformed input, 3 empty graph, 4 witness
precondition (not SPI / sources / omega edges), 5 zero element, 6 source
removal emptied the graph, 7 nothing to desingularize, 8 unknown vertex or
not a subgraph, 1 any other error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Optional

from .errors import (
    BecameEmpty,
    EmptyGraph,
    FormatError,
    FrontierPresent,
    HasSources,
    LeavittError,
    NoInfiniteEmitters,
    NotASubgraph,
    NotSPI,
    OmegaUnsupported,
    UnknownVertex,
    ZeroElement,
)
from .graph import (
    Classification,
    Graph,
    Path,
    Verdict,
    classify_graph,
    graph_from_json,
    graph_to_dot,
    graph_to_json_obj,
)
# cli.multiply is unused here but kept: perfbench/test_perfbench.py expects
# the tracer to find a binding of lpa.multiply in this module.
from .lpa import Element, element_from_json, element_to_json_obj, multiply  # noqa: F401
from .pnorm import element_norm_estimate
from .spi import spi_witness
from .transforms import complete_and_embed, desingularize, reachable_subgraph, remove_sources

LABELS = {
    Verdict.SIMPLE_PURELY_INFINITE: "simple purely infinite",
    Verdict.SIMPLE_ACYCLIC: "simple, almost finite (acyclic)",
    Verdict.NOT_SIMPLE: "not simple",
}


@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation; unknown flags are rejected by the parser."""

    command: str
    graph: Optional[str] = None
    element: Optional[str] = None
    fmt: str = "json"
    seed: int = 0
    depth: int = 1
    p: float = 1.0
    tol: float = 1e-10
    frontier: str = "refuse"
    op: Optional[str] = None
    from_vertex: Optional[str] = None
    subgraph: Optional[str] = None
    emit_embedding: Optional[str] = None
    output: Optional[str] = None


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, separators=(",", ":"), ensure_ascii=False) + "\n")


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _load_graph(cfg: RunConfig) -> Graph:
    if not cfg.graph:
        raise FormatError("a --graph file is required")
    return graph_from_json(_read(cfg.graph))


def _load_element(cfg: RunConfig, g: Graph) -> Element:
    if not cfg.element:
        raise FormatError("an --element file is required")
    return element_from_json(g, _read(cfg.element))


def _witness_json(witness) -> dict:
    if isinstance(witness, Path):
        return {"kind": "cycle", "src": witness.source, "edges": list(witness.edges)}
    if isinstance(witness, frozenset):
        return {"kind": "hereditary_saturated", "vertices": sorted(witness)}
    return {"kind": "acyclic"}


def _classification_obj(c: Classification) -> dict:
    return {
        "verdict": c.verdict.value,
        "labels": {
            "graph": LABELS[c.verdict],
            "leavitt_path_algebra": LABELS[c.verdict],
            "lp_operator_algebra": LABELS[c.verdict],
        },
        "witness": _witness_json(c.witness),
    }


def cmd_classify(cfg: RunConfig) -> int:
    g = _load_graph(cfg)
    c = classify_graph(g, frontier=cfg.frontier)
    if cfg.fmt == "text":
        obj = _classification_obj(c)
        print(f"E: {obj['labels']['graph']}")
        print(f"L(E): {obj['labels']['leavitt_path_algebra']} as a ring")
        print(f"O^p(E): {obj['labels']['lp_operator_algebra']} as a Banach algebra")
        w = obj["witness"]
        if w["kind"] == "cycle":
            print(f"witness: cycle {' '.join(w['edges'])}")
        elif w["kind"] == "hereditary_saturated":
            print(f"witness: hereditary saturated set {{{', '.join(w['vertices'])}}}")
        else:
            print("witness: acyclic")
    else:
        _emit(_classification_obj(c))
    return 0


def cmd_witness(cfg: RunConfig) -> int:
    g = _load_graph(cfg)
    a = _load_element(cfg, g)
    # spi_witness re-checks x·a·y = v by exact multiplication (make_witness)
    # and raises when it fails, so a returned witness is verified.
    w = spi_witness(a)
    obj = w.to_json_obj()
    obj["verified"] = True
    if cfg.fmt == "text":
        print(f"v: {w.v}")
        print(f"x: {json.dumps(obj['x'], separators=(',', ':'))}")
        print(f"y: {json.dumps(obj['y'], separators=(',', ':'))}")
        print("verified: true")
    else:
        _emit(obj)
    return 0


def cmd_normalize(cfg: RunConfig) -> int:
    g = _load_graph(cfg)
    a = _load_element(cfg, g)
    _emit(element_to_json_obj(a))
    return 0


def cmd_norm(cfg: RunConfig) -> int:
    g = _load_graph(cfg)
    a = _load_element(cfg, g)
    est = element_norm_estimate(g, a, cfg.p, seed=cfg.seed, tol=cfg.tol)
    if est.exact or cfg.p == 2.0:
        _emit({"p": cfg.p, "norm": est.value, "exact": est.exact})
    else:
        _emit(
            {
                "p": cfg.p,
                "exact": False,
                "lower_bound": est.value,
                "converged": bool(est.converged),
            }
        )
    return 0


def cmd_transform(cfg: RunConfig) -> int:
    g = _load_graph(cfg)
    if cfg.op == "remove-sources":
        out = remove_sources(g)
    elif cfg.op == "desingularize":
        out = desingularize(g, cfg.depth)
    elif cfg.op == "reachable":
        if not cfg.from_vertex:
            raise FormatError("reachable needs --from VERTEX")
        out = reachable_subgraph(g, cfg.from_vertex)
    elif cfg.op == "complete":
        if not cfg.subgraph:
            raise FormatError("complete needs --subgraph FILE")
        F = graph_from_json(_read(cfg.subgraph))
        emb = complete_and_embed(g, F)
        out = emb.domain
        if cfg.emit_embedding:
            with open(cfg.emit_embedding, "w", encoding="utf-8") as fh:
                fh.write(emb.to_json() + "\n")
    else:
        raise FormatError(f"unknown transform {cfg.op!r}")

    if cfg.fmt == "dot":
        text = graph_to_dot(out)
    else:
        text = json.dumps(graph_to_json_obj(out), separators=(",", ":"), ensure_ascii=False) + "\n"
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leavitt-lab",
        description="Exact computations with Leavitt path algebras of finite graph presentations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, fmt_choices=("json", "text")):
        sp.add_argument("--graph", required=True, help="graph JSON file")
        sp.add_argument("--format", dest="fmt", choices=fmt_choices, default="json")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--tol", type=float, default=1e-10)

    sp = sub.add_parser("classify", help="decide the simplicity trichotomy")
    common(sp)
    sp.add_argument("--frontier", choices=("refuse", "sink"), default="refuse")

    sp = sub.add_parser("witness", help="produce x, y, v with x·a·y = v")
    common(sp)
    sp.add_argument("--element", required=True, help="element JSON file")

    sp = sub.add_parser("normalize", help="normal form of an element")
    common(sp)
    sp.add_argument("--element", required=True)

    sp = sub.add_parser("norm", help="l^p operator norm over a finite acyclic graph")
    common(sp)
    sp.add_argument("--element", required=True)
    sp.add_argument("--p", type=float, default=1.0)

    sp = sub.add_parser("transform", help="graph surgeries")
    sp.add_argument(
        "op", choices=("remove-sources", "desingularize", "reachable", "complete")
    )
    common(sp, fmt_choices=("json", "dot"))
    sp.add_argument("--depth", type=int, default=1)
    sp.add_argument("--from", dest="from_vertex")
    sp.add_argument("--subgraph")
    sp.add_argument("--emit-embedding", dest="emit_embedding")
    sp.add_argument("-o", "--output")

    return parser


COMMANDS = {
    "classify": cmd_classify,
    "witness": cmd_witness,
    "normalize": cmd_normalize,
    "norm": cmd_norm,
    "transform": cmd_transform,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = RunConfig(
        command=args.command,
        graph=getattr(args, "graph", None),
        element=getattr(args, "element", None),
        fmt=getattr(args, "fmt", "json"),
        seed=getattr(args, "seed", 0),
        depth=getattr(args, "depth", 1),
        p=getattr(args, "p", 1.0),
        tol=getattr(args, "tol", 1e-10),
        frontier=getattr(args, "frontier", "refuse"),
        op=getattr(args, "op", None),
        from_vertex=getattr(args, "from_vertex", None),
        subgraph=getattr(args, "subgraph", None),
        emit_embedding=getattr(args, "emit_embedding", None),
        output=getattr(args, "output", None),
    )
    try:
        return COMMANDS[cfg.command](cfg)
    except (FormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EmptyGraph as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NotSPI, HasSources, FrontierPresent) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, HasSources):
            print("hint: run 'leavitt-lab transform remove-sources' first", file=sys.stderr)
        return 4
    except OmegaUnsupported as exc:
        print(f"error: {exc}", file=sys.stderr)
        if cfg.command == "witness":
            print("hint: run 'leavitt-lab transform desingularize' first", file=sys.stderr)
            return 4
        return 1
    except ZeroElement as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except BecameEmpty as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 6
    except NoInfiniteEmitters as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 7
    except (UnknownVertex, NotASubgraph) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 8
    except LeavittError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
