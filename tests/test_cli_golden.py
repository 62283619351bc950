"""Byte-identity corpus for the CLI.

``tests/data/cli_golden.jsonl`` holds input files and ``leavitt-lab`` calls
over the zoo fixtures, each with the exit code, stdout, stderr and written
files that ``cli.main`` gave when the corpus was recorded.  The calls cover
every subcommand, every ``--format``, every transform operation and every
exit code in README's table.  ``norm`` runs at p = 1 only: at other p the
last bits of the power iteration depend on the BLAS build.

Each witness that exits 0 is also read back and checked by ``multiply``
alone: x·a·y = v, and Step 2's sigma is a closed path at v.

Record it again, from the tree on ``sys.path``, with
``PYTHONPATH=src python -B tests/test_cli_golden.py``; a re-recording is a change
of output, to be declared as one.
"""

import contextlib
import io
import json
import os

import pytest

from leavitt_lab import cli
from leavitt_lab.graph import Path, graph_from_json
from leavitt_lab.lpa import element_from_json, element_from_json_obj, multiply, vertex_element

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "cli_golden.jsonl")


def term(alpha_src, alpha=(), beta_src=None, beta=(), re="1", im="0"):
    beta_src = alpha_src if beta_src is None else beta_src
    return {"alpha": list(alpha), "alpha_src": alpha_src, "beta": list(beta), "beta_src": beta_src, "re": re, "im": im}


def input_files() -> dict[str, str]:
    from leavitt_lab import zoo
    from leavitt_lab.graph import graph_to_json

    files = {
        f"{name}.json": graph_to_json(getattr(zoo, name)()) + "\n"
        for name in (
            "r1", "r2", "r3", "a2", "a3", "spi3", "spi4", "rand4a", "rand4b", "two_roses",
            "loop_with_sink", "source_into_rose", "omega_spi", "omega_to_sink",
        )
    }
    hand = {
        "empty": {"vertices": []},
        "frontier": {"vertices": [{"id": "v", "frontier": True}, "w"], "edges": [{"id": "e", "src": "w", "dst": "v"}, {"id": "f", "src": "w", "dst": "w"}, {"id": "h", "src": "w", "dst": "w"}]},
        "unknown_field": {"vertices": ["v"], "colour": "red"},
        "omega_ambient": {"vertices": ["v", "w"], "edges": [{"id": "e", "src": "v", "dst": "w"}, {"id": "f", "src": "w", "dst": "v"}], "omega": [{"src": "v", "dst": "w"}]},
        "omega_sub": {"vertices": ["v", "w"], "edges": [{"id": "e", "src": "v", "dst": "w"}, {"id": "f", "src": "w", "dst": "v"}]},
        "spi3_sub": {"vertices": ["a", "b", "c"], "edges": [{"id": "e1", "src": "a", "dst": "b"}, {"id": "e2", "src": "b", "dst": "c"}, {"id": "e3", "src": "c", "dst": "a"}]},
        "a3_sub": {"vertices": ["u", "v"], "edges": [{"id": "e1", "src": "u", "dst": "v"}]},
        "not_sub": {"vertices": ["a", "b"], "edges": [{"id": "e9", "src": "a", "dst": "b"}]},
        # A ring v0..v6 with an edge to the next vertex and one to the next but
        # one, the skip edge sorting first at v0, v3 and v6.  The least cycle at
        # v0 runs v0 v2 v3 v5 v6 v0; its search enters v1 from v6 and backs out,
        # for both edges out of v1 lead onto the path.
        "skip_ring": {
            "vertices": [f"v{i}" for i in range(7)],
            "edges": [
                {"id": eid, "src": src, "dst": dst}
                for eid, src, dst in (
                    ("e00", "v0", "v2"), ("e01", "v0", "v1"), ("e10", "v1", "v2"), ("e11", "v1", "v3"),
                    ("e20", "v2", "v3"), ("e21", "v2", "v4"), ("e30", "v3", "v5"), ("e31", "v3", "v4"),
                    ("e40", "v4", "v5"), ("e41", "v4", "v6"), ("e50", "v5", "v6"), ("e51", "v5", "v0"),
                    ("e60", "v6", "v1"), ("e61", "v6", "v0"),
                )
            ],
        },
        # spi3 with ids that JSON must escape: a quote, a backslash, a tab, a
        # control character, a non-ASCII letter and an astral character
        "escapes": {
            "vertices": ['a"', "b\\", "c\t"],
            "edges": [
                {"id": "e\u0001", "src": 'a"', "dst": "b\\"},
                {"id": "é", "src": "b\\", "dst": "c\t"},
                {"id": "\U0001d538", "src": "c\t", "dst": 'a"'},
                {"id": 'f"\\', "src": "b\\", "dst": 'a"'},
            ],
        },
    }
    elements = {
        "r2_v": [term("v")],
        "r2_e": [term("v", ["e"])],
        "r2_mixed": [term("v", ["e"], "v", ["f"], "3/2", "-1"), term("v", ["e", "e"], "v", ["e", "e"]), term("v", [], "v", ["f"], "0", "1/3")],
        "r2_ff": [term("v", ["f", "f"], "v", ["f"], "-2")],
        "r2_cancel": [term("v", ["e"], "v", ["e"]), term("v", ["f"], "v", ["f"]), term("v", [], "v", [], "-1")],
        "r3_sum": [term("v", ["g"], "v", ["g"], "1/7"), term("v", ["e", "f"], "v", ["e"], "2", "5")],
        "spi3_e1": [term("a", ["e1", "e2", "e3"], "a", ["e1", "f"], "4")],
        "spi3_mix": [term("a", ["e1", "f"]), term("b", ["f"], "b", ["e2", "e3"], "-1/2", "1/2")],
        "spi4_c": [term("c"), term("a", ["e1", "e2"], "a", ["e1", "e2"], "-1")],
        "rand4b_q": [term("q", ["g3", "g4"], "q", ["g3", "g4"], "1", "1")],
        "a2_u": [term("u")],
        "a2_e": [term("u", ["e"], "v", [], "2", "-3")],
        "a2_big": [term("u", [], "u", [], "3"), term("u", ["e"], "u", ["e"], "-1"), term("v", [], "v", [], "1/2", "1/2")],
        "a3_sum": [term("u", ["e1", "e2"], "w", [], "1"), term("v", ["e2"], "v", ["e2"], "-1/3"), term("u")],
        "omega_v": [term("v")],
        "frontier_w": [term("w")],
        "skip_v0": [term("v0")],
        "skip_mix": [term("v1"), term("v0", ["e00"], "v0", ["e00"], "-1/2")],
        "escapes_mix": [
            term('a"', ["e\u0001", "é", "\U0001d538"], 'a"', ["e\u0001", 'f"\\'], "1234567890123456789012345678901234567890/7", "-3/4"),
            term("b\\", ['f"\\'], "b\\", ["é", "\U0001d538"], "-5/6", "0"),
            term("c\t", [], "c\t", [], "-1"),
        ],
        "omega_gen": [term("v", ["v~w^1"], "v", ["v~w^1"], "2", "-1"), term("w", ["f", "v~w^3"], "w", ["f", "v~w^2"], "-1/2"), term("v")],
        "zero": [],
        "bad_term": [{**term("v"), "extra": 1}],
        "bad_vertex": [term("zz")],
        "bad_range": [term("u", ["e"], "u")],
    }
    files.update({f"{name}.json": json.dumps(obj) + "\n" for name, obj in hand.items()})
    files.update({f"{name}.el.json": json.dumps(obj) + "\n" for name, obj in elements.items()})
    files["bad_json.json"] = '{"vertices": ["v",'
    return files


def calls() -> list[list[str]]:
    out = []
    for g in ("r1", "r2", "r3", "a2", "a3", "spi3", "spi4", "rand4a", "rand4b", "two_roses", "loop_with_sink", "source_into_rose", "omega_spi", "omega_to_sink", "skip_ring"):
        out.append(["classify", "--graph", f"{g}.json"])
        out.append(["classify", "--graph", f"{g}.json", "--format", "text"])
    out += [
        ["classify", "--graph", "spi4.json", "--format", "json"],
        ["classify", "--graph", "frontier.json"],
        ["classify", "--graph", "frontier.json", "--frontier", "sink"],
        ["classify", "--graph", "frontier.json", "--frontier", "sink", "--format", "text"],
        ["classify", "--graph", "empty.json"],
        ["classify", "--graph", "missing.json"],
        ["classify", "--graph", "bad_json.json"],
        ["classify", "--graph", "unknown_field.json"],
    ]
    for g, el in (("r2", "r2_v"), ("r2", "r2_e"), ("r2", "r2_mixed"), ("r2", "r2_ff"), ("r3", "r3_sum"), ("spi3", "spi3_e1"), ("spi3", "spi3_mix"), ("spi4", "spi4_c"), ("rand4b", "rand4b_q"), ("skip_ring", "skip_v0"), ("skip_ring", "skip_mix"), ("escapes", "escapes_mix")):
        out.append(["witness", "--graph", f"{g}.json", "--element", f"{el}.el.json"])
        out.append(["witness", "--graph", f"{g}.json", "--element", f"{el}.el.json", "--format", "text"])
    out += [
        ["witness", "--graph", "spi4.json", "--element", "spi4_c.el.json", "--format", "json"],
        ["witness", "--graph", "omega_spi.json", "--element", "omega_v.el.json"],
        ["witness", "--graph", "omega_spi.json", "--element", "omega_v.el.json", "--format", "text"],
        ["witness", "--graph", "frontier.json", "--element", "frontier_w.el.json"],
        ["witness", "--graph", "a2.json", "--element", "a2_u.el.json"],
        ["witness", "--graph", "r2.json", "--element", "zero.el.json"],
        ["witness", "--graph", "r2.json", "--element", "r2_cancel.el.json"],
        ["witness", "--graph", "r2.json", "--element", "bad_term.el.json"],
        ["witness", "--graph", "r2.json", "--element", "bad_vertex.el.json"],
        ["witness", "--graph", "empty.json", "--element", "zero.el.json"],
    ]
    for g, el in (("r2", "r2_mixed"), ("r2", "r2_cancel"), ("r2", "zero"), ("r3", "r3_sum"), ("spi3", "spi3_mix"), ("a2", "a2_e"), ("a3", "a3_sum"), ("omega_spi", "omega_v"), ("escapes", "escapes_mix"), ("omega_spi", "omega_gen")):
        out.append(["normalize", "--graph", f"{g}.json", "--element", f"{el}.el.json"])
    out += [
        ["normalize", "--graph", "a2.json", "--element", "bad_range.el.json"],
        ["normalize", "--graph", "r2.json", "--element", "bad_term.el.json"],
        ["normalize", "--graph", "r2.json", "--element", "r2_v.el.json", "--bogus"],
    ]
    for g, el in (("a2", "a2_u"), ("a2", "a2_e"), ("a2", "a2_big"), ("a3", "a3_sum")):
        out.append(["norm", "--graph", f"{g}.json", "--element", f"{el}.el.json"])
        out.append(["norm", "--graph", f"{g}.json", "--element", f"{el}.el.json", "--p", "1", "--seed", "3", "--tol", "1e-6"])
    out += [
        ["norm", "--graph", "r2.json", "--element", "r2_v.el.json"],
        ["norm", "--graph", "a2.json", "--element", "a2_u.el.json", "--p", "9"],
        ["norm", "--graph", "a2.json", "--element", "a2_u.el.json", "--tol", "-1"],
    ]
    for fmt in ("json", "dot"):
        out += [
            ["transform", "remove-sources", "--graph", "source_into_rose.json", "--format", fmt],
            ["transform", "desingularize", "--graph", "omega_spi.json", "--depth", "2", "--format", fmt],
            ["transform", "reachable", "--graph", "spi3.json", "--from", "b", "--format", fmt],
            ["transform", "complete", "--graph", "spi3.json", "--subgraph", "spi3_sub.json", "--format", fmt],
        ]
    out += [
        ["transform", "remove-sources", "--graph", "a3.json"],
        ["transform", "remove-sources", "--graph", "source_into_rose.json", "-o", "out.json"],
        ["transform", "desingularize", "--graph", "omega_to_sink.json"],
        ["transform", "desingularize", "--graph", "r2.json"],
        ["transform", "desingularize", "--graph", "omega_spi.json", "--depth", "100001"],
        ["transform", "reachable", "--graph", "a3.json", "--from", "v"],
        ["transform", "reachable", "--graph", "a3.json", "--from", "zz"],
        ["transform", "complete", "--graph", "spi3.json", "--subgraph", "spi3_sub.json", "--emit-embedding", "emb.json"],
        ["transform", "complete", "--graph", "omega_ambient.json", "--subgraph", "omega_sub.json", "--emit-embedding", "emb.json"],
        ["transform", "complete", "--graph", "a3.json", "--subgraph", "a3_sub.json", "--format", "dot", "-o", "out.dot"],
        ["transform", "complete", "--graph", "spi3.json", "--subgraph", "not_sub.json"],
        ["transform", "complete", "--graph", "spi3.json", "--subgraph", "spi3_sub.json", "-o", "nodir/out.json"],
        ["transform", "reachable", "--graph", "spi3.json"],
        ["transform"],
    ]
    return out


def replay(argv: list[str]) -> dict:
    """One in-process call in the current directory: its exit code, stdout,
    stderr and the files it wrote there (which are removed again)."""
    before = set(os.listdir())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    written = {}
    for name in sorted(set(os.listdir()) - before):
        with open(name, encoding="utf-8") as fh:
            written[name] = fh.read()
        os.remove(name)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "written": written}


def load_corpus() -> tuple[dict, list[dict]]:
    with open(CORPUS, encoding="utf-8") as fh:
        header, *records = (json.loads(line) for line in fh)
    return header["files"], records


def write_inputs(files: dict) -> None:
    for name, text in files.items():
        with open(name, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


FILES, RECORDS = load_corpus() if os.path.exists(CORPUS) else ({}, [])
WITNESSES = [r for r in RECORDS if r["argv"][0] == "witness" and r["code"] == 0]


@pytest.fixture
def corpus_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal width
    write_inputs(FILES)
    return tmp_path


def test_corpus_covers_every_command_format_op_and_exit_code():
    argvs = [r["argv"] for r in RECORDS]
    assert {a[0] for a in argvs} == set(cli.COMMANDS)
    assert {a[1] for a in argvs if a[0] == "transform" and len(a) > 1} == {"remove-sources", "desingularize", "reachable", "complete"}
    formats = {(a[0], a[a.index("--format") + 1]) for a in argvs if "--format" in a}
    assert formats == {("classify", "json"), ("classify", "text"), ("witness", "json"), ("witness", "text"), ("transform", "json"), ("transform", "dot")}
    assert {r["code"] for r in RECORDS} == set(range(9))
    assert any(r["code"] == 4 and "hint:" in r["stderr"] for r in RECORDS)
    assert any(r["written"] for r in RECORDS)
    assert os.path.getsize(CORPUS) < 150_000
    assert len(WITNESSES) == 25  # each is checked by test_recorded_witness_holds


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: " ".join(r["argv"]))
def test_cli_output_matches_the_corpus(corpus_dir, record):
    assert replay(record["argv"]) == record


@pytest.mark.parametrize("record", WITNESSES, ids=lambda r: " ".join(r["argv"]))
def test_recorded_witness_holds(record):
    # the recorded bytes, read back by the parsers and checked by multiply
    # alone, so a re-recording is checked by code other than the code that
    # wrote it: x·a·y = v, and Step 2's sigma is a closed path at v
    argv = record["argv"]
    g = graph_from_json(FILES[argv[argv.index("--graph") + 1]])
    a = element_from_json(g, FILES[argv[argv.index("--element") + 1]])
    if argv[-2:] == ["--format", "text"]:
        lines = dict(line.split(": ", 1) for line in record["stdout"].splitlines())
        assert lines["verified"] == "true"
        v, x, y = lines["v"], json.loads(lines["x"]), json.loads(lines["y"])
    else:
        out = json.loads(record["stdout"])
        assert out["verified"] is True
        v, x, y = out["v"], out["x"], out["y"]
        (step2,) = [t for t in out["trace"] if t["step"] == "Step2"]
        sigma = Path(step2["sigma_src"], tuple(step2["sigma"]))
        assert sigma.source == v and g.range_of(sigma) == v
    x, y = element_from_json_obj(g, x), element_from_json_obj(g, y)
    assert multiply(multiply(x, a), y) == vertex_element(g, v)


if __name__ == "__main__":
    import tempfile

    files = input_files()
    cwd = os.getcwd()
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        write_inputs(files)
        records = [replay(argv) for argv in calls()]
        os.chdir(cwd)
    with open(CORPUS, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"files": files}, sort_keys=True, ensure_ascii=False) + "\n")
        for r in records:
            fh.write(json.dumps(r, sort_keys=True, ensure_ascii=False) + "\n")
    print(f"{len(records)} calls recorded in {CORPUS}")
