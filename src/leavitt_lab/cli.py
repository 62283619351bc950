"""Batch command line: classify graphs, build witnesses, normalize elements,
compute norms, and run graph transforms.  Machine output (JSON, deterministic
byte-for-byte) goes to stdout; diagnostics go to stderr.

Exit codes: 0 ok; ``EXIT_CODES`` maps each error class to its code, and any
other error exits 1.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import (
    BecameEmpty,
    BudgetExceeded,
    EmptyGraph,
    FloatRange,
    FormatError,
    FrontierPresent,
    HasSources,
    InternalError,
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
    canonical_json,
    classify_graph,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
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


# exit code of each error class (first match wins); any other error exits 1
EXIT_CODES = {
    FormatError: 2,
    BudgetExceeded: 2,
    FloatRange: 2,
    ValueError: 2,
    EmptyGraph: 3,
    NotSPI: 4,
    HasSources: 4,
    FrontierPresent: 4,
    ZeroElement: 5,
    BecameEmpty: 6,
    NoInfiniteEmitters: 7,
    UnknownVertex: 8,
    NotASubgraph: 8,
}


def _emit(obj) -> None:
    sys.stdout.write(canonical_json(obj) + "\n")


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from exc


def _load_graph(args: argparse.Namespace) -> Graph:
    return graph_from_json(_read(args.graph))


def _load_element(args: argparse.Namespace, g: Graph) -> Element:
    return element_from_json(g, _read(args.element))


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


def cmd_classify(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    c = classify_graph(g, frontier=args.frontier)
    if args.fmt == "text":
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


def cmd_witness(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    a = _load_element(args, g)
    # spi_witness re-checks x·a·y = v by exact multiplication (make_witness)
    # and raises when it fails, so a returned witness is verified.
    w = spi_witness(a)
    obj = w.to_json_obj()
    obj["verified"] = True
    if args.fmt == "text":
        print(f"v: {w.v}")
        print(f"x: {canonical_json(obj['x'])}")
        print(f"y: {canonical_json(obj['y'])}")
        print("verified: true")
    else:
        _emit(obj)
    return 0


def cmd_normalize(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    a = _load_element(args, g)
    _emit(element_to_json_obj(a))
    return 0


def cmd_norm(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    a = _load_element(args, g)
    est = element_norm_estimate(g, a, args.p, seed=args.seed, tol=args.tol)
    if est.exact or args.p == 2.0:
        _emit({"p": args.p, "norm": est.value, "exact": est.exact})
    else:
        _emit(
            {
                "p": args.p,
                "exact": False,
                "lower_bound": est.value,
                "converged": bool(est.converged),
            }
        )
    return 0


def cmd_transform(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    if args.op == "remove-sources":
        out = remove_sources(g)
    elif args.op == "desingularize":
        out = desingularize(g, args.depth)
    elif args.op == "reachable":
        out = reachable_subgraph(g, args.from_vertex)
    else:  # "complete"; argparse admits no other op
        F = graph_from_json(_read(args.subgraph))
        emb = complete_and_embed(g, F)
        out = emb.domain
        if args.emit_embedding:
            _write(args.emit_embedding, emb.to_json() + "\n")

    text = graph_to_dot(out) if args.fmt == "dot" else graph_to_json(out) + "\n"
    if args.output:
        _write(args.output, text)
    else:
        sys.stdout.write(text)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``parse_args`` returns a new
    Namespace on every call, so calls share no state."""
    parser = argparse.ArgumentParser(
        prog="leavitt-lab",
        description="Exact computations with Leavitt path algebras of finite graph presentations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand, and each transform operation, declares only the
    # options its code reads
    def inputs(parsers, name, summary, element=True, formats=None):
        sp = parsers.add_parser(name, help=summary)
        sp.add_argument("--graph", required=True, help="graph JSON file")
        if element:
            sp.add_argument("--element", required=True, help="element JSON file")
        if formats:
            sp.add_argument("--format", dest="fmt", choices=formats, default="json")
        return sp

    sp = inputs(
        sub, "classify", "decide the simplicity trichotomy",
        element=False, formats=("json", "text"),
    )
    sp.add_argument("--frontier", choices=("refuse", "sink"), default="refuse")

    inputs(sub, "witness", "produce x, y, v with x·a·y = v", formats=("json", "text"))

    inputs(sub, "normalize", "normal form of an element")

    sp = inputs(sub, "norm", "l^p operator norm over a finite acyclic graph")
    sp.add_argument("--p", type=float, default=1.0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tol", type=float, default=1e-10)

    sp = sub.add_parser("transform", help="graph surgeries")
    ops = sp.add_subparsers(dest="op", required=True)
    for op, summary in (
        ("remove-sources", "delete sources until none is left"),
        ("desingularize", "truncate the omega edge families"),
        ("reachable", "the subgraph reachable from a vertex"),
        ("complete", "complete a subgraph and embed its algebra"),
    ):
        sp = inputs(ops, op, summary, element=False, formats=("json", "dot"))
        sp.add_argument("-o", "--output")
    ops.choices["desingularize"].add_argument("--depth", type=int, default=1)
    ops.choices["reachable"].add_argument("--from", dest="from_vertex", required=True)
    ops.choices["complete"].add_argument("--subgraph", required=True)
    ops.choices["complete"].add_argument("--emit-embedding", dest="emit_embedding")

    return parser


COMMANDS = {
    "classify": cmd_classify,
    "witness": cmd_witness,
    "normalize": cmd_normalize,
    "norm": cmd_norm,
    "transform": cmd_transform,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (LeavittError, ValueError) as exc:
        internal = "internal error: " if isinstance(exc, InternalError) else ""
        print(f"error: {internal}{exc}", file=sys.stderr)
        if isinstance(exc, HasSources):
            print("hint: run 'leavitt-lab transform remove-sources' first", file=sys.stderr)
        if isinstance(exc, OmegaUnsupported) and args.command == "witness":
            print("hint: run 'leavitt-lab transform desingularize' first", file=sys.stderr)
            return 4
        return next((code for cls, code in EXIT_CODES.items() if isinstance(exc, cls)), 1)

if __name__ == "__main__":
    sys.exit(main())
