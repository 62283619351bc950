"""Batch command line: classify graphs, build witnesses, normalize elements,
compute norms, and run graph transforms.  Machine output (JSON, deterministic
byte-for-byte) goes to stdout; diagnostics go to stderr.

Exit codes: 0 ok; ``EXIT_CODES`` maps each error class to its code, and any
other error exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import stat
import sys
from gettext import gettext

# lazy modules (see __init__): each executes on its command's first call into it
from . import pnorm, spi, transforms
from .errors import (
    BecameEmpty,
    BudgetExceeded,
    EmptyGraph,
    FloatRange,
    FormatError,
    FrontierPresent,
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
from .lpa import Element, element_from_json, element_to_json, multiply  # noqa: F401

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
    FrontierPresent: 4,
    ZeroElement: 5,
    BecameEmpty: 6,
    NoInfiniteEmitters: 7,
    UnknownVertex: 8,
    NotASubgraph: 8,
}


# Every output goes to stdout in one write, so an output that fails to encode
# (a lone surrogate in an id) leaves stdout empty.  The write is flushed, so a
# stdout that cannot take it (a full disk, a closed pipe) is reported here;
# fd 1 then points at os.devnull, which keeps the interpreter's final flush of
# the unwritten text silent.
def _print(text: str) -> None:
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        with contextlib.suppress(OSError):  # a stdout without a file descriptor
            os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise FormatError(f"cannot write stdout: {exc}") from exc


def _emit(obj) -> None:
    _print(canonical_json(obj) + "\n")


def _read(path: str) -> str:
    """The file's text, as ``open(path, encoding="utf-8").read()`` gives it:
    decoded in one pass, with CRLF and lone CR read as LF."""
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _write(path: str, text: str) -> None:
    """Write text to path as UTF-8.

    The text is encoded before the file is opened, so a text that cannot be
    encoded leaves an existing file as it was.  The file is opened without
    ``O_TRUNC`` and a regular file is cut to the new length after the write:
    truncating on open makes ext4 start writeback of the old blocks at close.
    Devices and FIFOs (``/dev/null``) are written and not cut."""
    data = text.encode("utf-8")
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from exc


def _load_graph(args: argparse.Namespace) -> Graph:
    return graph_from_json(_read(args.graph))


def _load_element(args: argparse.Namespace) -> Element:
    """The element file read over the graph file, which is read first."""
    return element_from_json(_load_graph(args), _read(args.element))


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
    try:
        c = classify_graph(g, frontier=args.frontier)
    except FrontierPresent:  # its message names the keyword argument, not the option
        raise FrontierPresent(
            "graph has truncation-frontier vertices; classify with --frontier sink to treat them as stubs"
        ) from None
    if args.fmt == "json":
        _emit(_classification_obj(c))
        return 0
    label, w = LABELS[c.verdict], _witness_json(c.witness)
    witness = (
        f"cycle {' '.join(w['edges'])}" if "edges" in w
        else f"hereditary saturated set {{{', '.join(w['vertices'])}}}" if "vertices" in w
        else "acyclic"
    )
    _print(
        f"E: {label}\nL(E): {label} as a ring\nO^p(E): {label} as a Banach algebra\nwitness: {witness}\n"
    )
    return 0


def cmd_witness(args: argparse.Namespace) -> int:
    a = _load_element(args)
    # spi_witness re-checks x·a·y = v by exact multiplication (make_witness)
    # and raises when it fails, so a returned witness is verified.
    try:
        w = spi.spi_witness(a)
    except OmegaUnsupported as exc:  # a precondition of witness, so it exits as NotSPI does
        raise NotSPI(
            f"{exc}\nhint: witness has no route over omega pairs: the CLI cannot carry an element"
            " through 'transform desingularize', and witness refuses the truncation it prints"
        ) from None
    # spi_witness wrote the trace's coefficients as it built the trace, and
    # both formats write x and y, so a coefficient of over 4300 digits is
    # refused in both
    if args.fmt == "text":
        _print(f"v: {w.v}\nx: {element_to_json(w.x)}\ny: {element_to_json(w.y)}\nverified: true\n")
    else:
        obj = w.to_json_obj()
        obj["verified"] = True
        _emit(obj)
    return 0


def cmd_normalize(args: argparse.Namespace) -> int:
    _print(element_to_json(_load_element(args)) + "\n")
    return 0


def cmd_norm(args: argparse.Namespace) -> int:
    a = _load_element(args)
    est = pnorm.element_norm_estimate(a, args.p, seed=args.seed, tol=args.tol)
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
        out = transforms.remove_sources(g)
    elif args.op == "desingularize":
        out = transforms.desingularize(g, args.depth)
    elif args.op == "reachable":
        out = transforms.reachable_subgraph(g, args.from_vertex)
    else:  # "complete"; argparse admits no other op
        F = graph_from_json(_read(args.subgraph))
        emb = transforms.complete_and_embed(g, F)
        out = emb.domain
        if args.emit_embedding:
            _write(args.emit_embedding, emb.to_json() + "\n")

    text = graph_to_dot(out) if args.fmt == "dot" else graph_to_json(out) + "\n"
    if args.output:
        _write(args.output, text)
    else:
        _print(text)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: each ``main`` call parses into a
    new Namespace, so calls share no state."""
    parser = argparse.ArgumentParser(
        prog="leavitt-lab",
        description="Exact computations with Leavitt path algebras of finite graph presentations.",
    )
    # each parser with subcommands keeps their table as ``commands``, for _parse
    sub = parser.commands = parser.add_subparsers(dest="command", required=True)

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
    ops = sp.commands = sp.add_subparsers(dest="op", required=True)
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


def _parse(argv: list[str]) -> argparse.Namespace:
    """The Namespace that ``build_parser().parse_args(argv)`` returns, with the
    same help, usage errors and exits.

    argv's leading command words are followed down the parser tree here, and
    the rest goes once to the parser they lead to; ``parse_args`` would
    classify the whole argv again at each level.  An argv whose first word is
    not a command goes to the top-level parser whole.  Words the parser
    leaves are refused by the top-level parser, as ``parse_args`` refuses them.
    """
    top = parser = build_parser()
    args = argparse.Namespace()
    while argv and (table := getattr(parser, "commands", None)) and argv[0] in table.choices:
        setattr(args, table.dest, argv[0])
        parser, argv = table.choices[argv[0]], argv[1:]
    args, extras = parser.parse_known_args(argv, args)
    if extras:
        top.error(gettext("unrecognized arguments: %s") % " ".join(extras))
    return args


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return COMMANDS[args.command](args)
    except (LeavittError, ValueError) as exc:
        internal = "internal error: " if isinstance(exc, InternalError) else ""
        # a closed stderr (None, or a stream whose descriptor is gone) loses
        # the message, not the exit code
        if sys.stderr is not None:
            with contextlib.suppress(OSError):
                sys.stderr.write(f"error: {internal}{exc}\n")
                sys.stderr.flush()
        return next((code for cls, code in EXIT_CODES.items() if isinstance(exc, cls)), 1)

if __name__ == "__main__":
    sys.exit(main())
