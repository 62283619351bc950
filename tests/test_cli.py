import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import leavitt_lab
from conftest import source_tail_into_rose
from leavitt_lab import cli, errors, transforms, zoo
from leavitt_lab.cli import COMMANDS, build_parser, main
from leavitt_lab.graph import Graph, graph_from_json, graph_to_json, graph_to_json_obj
from leavitt_lab.lpa import (
    element_from_json,
    element_to_json,
    element_to_json_obj,
    gauss,
    involute,
    monomial_element,
    multiply,
    path_element,
    vertex_element,
    zero,
)

from oracles import (
    oracle_cycles,
    oracle_dense_norm_estimate,
    oracle_element_from_json,
    oracle_spatial_rep_acyclic,
)


@pytest.fixture
def r2_file(tmp_path):
    path = tmp_path / "r2.json"
    path.write_text(graph_to_json(zoo.r2()))
    return str(path)


@pytest.fixture
def a2_file(tmp_path):
    path = tmp_path / "a2.json"
    path.write_text(graph_to_json(zoo.a2()))
    return str(path)


def write_element(tmp_path, g, x, name="elem.json"):
    path = tmp_path / name
    path.write_text(element_to_json(x))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def child_env(hash_seed="0"):
    """A minimal env that keeps stray variables out; the child imports the
    same leavitt_lab this process imported, installed or from source, and
    writes no bytecode: a __pycache__ left in the source tree would change
    later cold-start timings of that tree."""
    package_root = os.path.dirname(os.path.dirname(leavitt_lab.__file__))
    return {
        "PYTHONHASHSEED": hash_seed,
        "PATH": "/usr/bin:/bin:/usr/local/bin",
        "PYTHONPATH": package_root,
        "PYTHONDONTWRITEBYTECODE": "1",
    }


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def test_classify_json(capsys, r2_file):
    code, out, err = run(capsys, ["classify", "--graph", r2_file])
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "SimplePurelyInfinite"
    assert obj["labels"]["lp_operator_algebra"] == "simple purely infinite"
    assert obj["witness"] == {"kind": "cycle", "src": "v", "edges": ["e"]}


def test_classify_text(capsys, a2_file):
    code, out, err = run(capsys, ["classify", "--graph", a2_file, "--format", "text"])
    assert code == 0
    assert "simple, almost finite (acyclic)" in out
    assert "witness: acyclic" in out


def test_classify_not_simple_text(capsys, tmp_path):
    path = tmp_path / "r1.json"
    path.write_text(graph_to_json(zoo.r1()))
    code, out, err = run(capsys, ["classify", "--graph", str(path), "--format", "text"])
    assert code == 0
    assert "not simple" in out
    assert "witness: cycle e" in out


def test_classify_hs_witness_json(capsys, tmp_path):
    path = tmp_path / "disc.json"
    path.write_text(graph_to_json(zoo.two_isolated()))
    code, out, err = run(capsys, ["classify", "--graph", str(path)])
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "NotSimple"
    assert obj["witness"] == {"kind": "hereditary_saturated", "vertices": ["u"]}


def test_classify_exit_2_on_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, out, err = run(capsys, ["classify", "--graph", str(bad)])
    assert code == 2
    assert "error:" in err


HOSTILE_JSON = {
    "nested-past-the-limit": "[" * 200_000 + "]" * 200_000,
    "5001-digits": "9" * 5001,
}


@pytest.mark.parametrize("text", HOSTILE_JSON.values(), ids=HOSTILE_JSON)
@pytest.mark.parametrize("option", ["--graph", "--element", "--subgraph"])
def test_hostile_json_exits_2_as_invalid_json(capsys, tmp_path, r2_file, option, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    argv = {
        "--graph": ["classify", "--graph", str(bad)],
        "--element": ["normalize", "--graph", r2_file, "--element", str(bad)],
        "--subgraph": ["transform", "complete", "--graph", r2_file, "--subgraph", str(bad)],
    }[option]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid JSON: ") and err.count("\n") == 1


def test_classify_exit_2_on_colliding_omega_ids(capsys, tmp_path):
    path = tmp_path / "collide.json"
    path.write_text(
        json.dumps(
            {
                "vertices": ["a", "b~c", "a~b", "c"],
                "edges": [],
                "omega": [{"src": "a", "dst": "b~c"}, {"src": "a~b", "dst": "c"}],
            }
        )
    )
    code, out, err = run(capsys, ["classify", "--graph", str(path)])
    assert code == 2
    assert out == ""
    assert "a~b~c^" in err


def test_classify_exit_2_on_non_string_edge_id(capsys, tmp_path):
    path = tmp_path / "numeric.json"
    path.write_text(
        json.dumps(
            {
                "vertices": ["v", "w"],
                "edges": [{"id": 5, "src": "v", "dst": "v"}],
                "omega": [{"src": "v", "dst": "w"}],
            }
        )
    )
    code, out, err = run(capsys, ["classify", "--graph", str(path)])
    assert code == 2
    assert out == ""
    assert "edge id must be a string" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text",
    [
        '{"vertices":"ab"}',
        '{"vertices":{"a":1}}',
        '{"vertices":["a"],"edges":{}}',
        '{"vertices":["a"],"edges":""}',
        '{"vertices":["a"],"omega":""}',
        '{"vertices":[{"id":"a","frontier":"no"}]}',
    ],
    ids=["string-vertices", "object-vertices", "object-edges", "string-edges", "string-omega",
         "string-frontier"],
)
def test_classify_exit_2_on_wrong_json_types(capsys, tmp_path, text):
    path = tmp_path / "typed.json"
    path.write_text(text)
    code, out, err = run(capsys, ["classify", "--graph", str(path)])
    assert code == 2
    assert out == ""
    assert "must be a" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"vertices":[{"id":"v","fronteir":true}]}', "unknown vertex JSON fields: ['fronteir']"),
        (
            '{"vertices":["u","v"],"edges":[{"id":"e","src":"u","dst":"v","weight":2}]}',
            "unknown edge JSON fields: ['weight']",
        ),
        (
            '{"vertices":["u","v"],"omega":[{"src":"u","dst":"v","count":3}]}',
            "unknown omega JSON fields: ['count']",
        ),
    ],
    ids=["vertex", "edge", "omega"],
)
def test_classify_exit_2_on_unknown_nested_fields(capsys, tmp_path, text, message):
    # a misspelt "frontier" made an ordinary vertex and exited 0
    path = tmp_path / "nested.json"
    path.write_text(text)
    code, out, err = run(capsys, ["classify", "--graph", str(path)])
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "graph, element, message",
    [
        ("[]", None, "graph JSON must be an object"),
        ('{"vertices":[{}]}', None, "bad graph JSON: 'id'"),
        (
            '{"vertices":["u"],"edges":[{"id":"e","src":"u","dst":"w"}]}',
            None,
            "edge 'e' has an endpoint outside the vertex list",
        ),
        (
            '{"vertices":["a"],"omega":[{"src":"a","dst":"b"}]}',
            None,
            "omega pair ('a', 'b') has an endpoint outside the vertex list",
        ),
        (
            graph_to_json(zoo.a2()),
            '[{"alpha":["e"],"alpha_src":"u","beta":[],"beta_src":"u","re":"1","im":"0"}]',
            "monomial paths must share their range",
        ),
    ],
    ids=["array-graph", "vertex-without-id", "edge-endpoint", "omega-endpoint", "ranges-differ"],
)
def test_malformed_input_exits_2_with_its_message(capsys, tmp_path, graph, element, message):
    gp = tmp_path / "g.json"
    gp.write_text(graph)
    argv = ["classify", "--graph", str(gp)]
    if element is not None:
        ep = tmp_path / "x.json"
        ep.write_text(element)
        argv = ["normalize", "--graph", str(gp), "--element", str(ep)]
    assert run(capsys, argv) == (2, "", f"error: {message}\n")


def test_classify_exit_3_on_empty(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"vertices":[],"edges":[]}')
    code, out, err = run(capsys, ["classify", "--graph", str(path)])
    assert code == 3


def test_classify_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, ["classify", "--graph", str(tmp_path / "none.json")])
    assert code == 2


@pytest.mark.parametrize("option", ["--graph", "--element", "--subgraph"])
def test_undecodable_input_file_exits_2_naming_it(capsys, tmp_path, r2_file, option):
    bad = str(tmp_path / "latin1.json")
    (tmp_path / "latin1.json").write_bytes(b'{"vertices": ["\xe9"], "edges": []}')
    elem = write_element(tmp_path, zoo.r2(), vertex_element(zoo.r2(), "v"))
    argv = {
        "--graph": ["witness", "--graph", bad, "--element", elem],
        "--element": ["witness", "--graph", r2_file, "--element", bad],
        "--subgraph": ["transform", "complete", "--graph", r2_file, "--subgraph", bad],
    }[option]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read {bad}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_classify_frontier_flag(capsys, tmp_path):
    from leavitt_lab.transforms import desingularize

    truncated = desingularize(zoo.omega_spi(), 2)
    path = tmp_path / "trunc.json"
    path.write_text(graph_to_json(truncated))
    code, out, err = run(capsys, ["classify", "--graph", str(path)])
    assert code == 4
    assert err == (
        "error: graph has truncation-frontier vertices;"
        " classify with --frontier sink to treat them as stubs\n"
    )
    code, out, err = run(
        capsys, ["classify", "--graph", str(path), "--frontier", "sink"]
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "SimplePurelyInfinite"


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------


def test_witness_verified(capsys, tmp_path, r2_file):
    g = zoo.r2()
    elem = write_element(tmp_path, g, path_element(g, ("e",)))
    code, out, err = run(capsys, ["witness", "--graph", r2_file, "--element", elem])
    assert code == 0
    obj = json.loads(out)
    assert obj["verified"] is True
    assert obj["v"] == "v"
    x = element_from_json(g, json.dumps(obj["x"]))
    y = element_from_json(g, json.dumps(obj["y"]))
    assert multiply(multiply(x, path_element(g, ("e",))), y) == vertex_element(g, "v")


def test_witness_text_format(capsys, tmp_path, r2_file):
    g = zoo.r2()
    elem = write_element(tmp_path, g, path_element(g, ("e",)))
    code, out, err = run(
        capsys, ["witness", "--graph", r2_file, "--element", elem, "--format", "text"]
    )
    assert code == 0
    assert "v: v" in out
    assert "verified: true" in out


def test_witness_text_keeps_non_ascii_ids(capsys, tmp_path):
    # every line, v as well as x and y, prints ids as they are, not \u escapes
    g = Graph(("é",), (("α", "é", "é"), ("β", "é", "é")))
    gp = tmp_path / "g.json"
    gp.write_text(graph_to_json(g), encoding="utf-8")
    elem = tmp_path / "a.json"
    elem.write_text(element_to_json(path_element(g, ("α",))), encoding="utf-8")
    argv = ["witness", "--graph", str(gp), "--element", str(elem)]
    code, out, err = run(capsys, argv)
    assert code == 0
    obj = json.loads(out)
    code, out, err = run(capsys, [*argv, "--format", "text"])
    assert code == 0
    assert "\\u" not in out
    assert out.splitlines() == [
        "v: é",
        "x: " + json.dumps(obj["x"], separators=(",", ":"), ensure_ascii=False),
        "y: " + json.dumps(obj["y"], separators=(",", ":"), ensure_ascii=False),
        "verified: true",
    ]


@pytest.mark.parametrize("command", ["classify", "witness"])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_output_that_cannot_be_encoded_leaves_stdout_empty(tmp_path, command, fmt):
    # The lone surrogate parses from JSON but has no UTF-8 encoding.  capsys
    # never encodes, so only a child process shows a partly written output.
    g = Graph(("v",), (("\ud800", "v", "v"), ("\ue000", "v", "v")))
    gp, elem = tmp_path / "g.json", tmp_path / "a.json"
    gp.write_text(json.dumps(graph_to_json_obj(g)))
    elem.write_text(json.dumps(element_to_json_obj(path_element(g, ("\ud800",)))))
    argv = [command, "--graph", str(gp), "--format", fmt]
    if command == "witness":
        argv += ["--element", str(elem)]
    proc = subprocess.run(
        [sys.executable, "-m", "leavitt_lab", *argv], capture_output=True, text=True, env=child_env()
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: 'utf-8' codec can't encode character '\\ud800'")


def test_witness_exit_5_on_zero(capsys, tmp_path, r2_file):
    elem = tmp_path / "zero.json"
    elem.write_text("[]")
    code, out, err = run(capsys, ["witness", "--graph", r2_file, "--element", str(elem)])
    assert code == 5


@pytest.mark.parametrize("element", ["u", "v", "gg*"])
def test_witness_verified_over_sources(capsys, tmp_path, element):
    g = zoo.source_into_rose()
    gp = tmp_path / "g.json"
    gp.write_text(graph_to_json(g))
    gg = path_element(g, ("g",))
    x = multiply(gg, involute(gg)) if element == "gg*" else vertex_element(g, element)
    elem = write_element(tmp_path, g, x)
    code, out, err = run(capsys, ["witness", "--graph", str(gp), "--element", elem])
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_witness_exit_4_with_hint_on_omega(capsys, tmp_path):
    g = zoo.omega_spi()
    gp = tmp_path / "g.json"
    gp.write_text(graph_to_json(g))
    elem = write_element(tmp_path, g, vertex_element(g, "v"))
    code, out, err = run(capsys, ["witness", "--graph", str(gp), "--element", elem])
    assert (code, out) == (4, "")
    assert err == f"error: the witness construction needs a row-finite graph\n{OMEGA_HINT}\n"
    # the step the hint names does not lead to a witness: the truncation it
    # prints is refused too, with a message that names no Python keyword
    trunc = tmp_path / "trunc.json"
    argv = ["transform", "desingularize", "--graph", str(gp), "--depth", "2", "-o", str(trunc)]
    assert run(capsys, argv) == (0, "", "")
    code, out, err = run(capsys, ["witness", "--graph", str(trunc), "--element", elem])
    assert (code, out) == (4, "")
    assert err == (
        "error: graph has truncation-frontier vertices; the witness construction needs"
        " a whole graph\n"
    )


def test_witness_pipeline_after_remove_sources(capsys, tmp_path):
    # the documented flow: transform first, then ask for a witness over the
    # transformed graph
    gp = tmp_path / "g.json"
    gp.write_text(graph_to_json(zoo.source_into_rose()))
    out_file = tmp_path / "stripped.json"
    code, out, err = run(
        capsys, ["transform", "remove-sources", "--graph", str(gp), "-o", str(out_file)]
    )
    assert code == 0
    stripped = graph_from_json(out_file.read_text())
    elem = write_element(tmp_path, stripped, path_element(stripped, ("e",)))
    code, out, err = run(
        capsys, ["witness", "--graph", str(out_file), "--element", elem]
    )
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_witness_refuses_truncations(capsys, tmp_path):
    from leavitt_lab.transforms import desingularize

    truncated = desingularize(zoo.omega_spi(), 2)
    gp = tmp_path / "t.json"
    gp.write_text(graph_to_json(truncated))
    elem = write_element(tmp_path, truncated, vertex_element(truncated, "v"))
    code, out, err = run(capsys, ["witness", "--graph", str(gp), "--element", elem])
    assert code == 4


def test_witness_exit_4_on_not_spi(capsys, tmp_path):
    g = zoo.r1()
    gp = tmp_path / "g.json"
    gp.write_text(graph_to_json(g))
    elem = write_element(tmp_path, g, vertex_element(g, "v"))
    code, out, err = run(capsys, ["witness", "--graph", str(gp), "--element", elem])
    assert code == 4


def test_witness_exit_2_on_a_coefficient_it_cannot_write(capsys, tmp_path, r2_file):
    # normalize prints v·(1/N) + e·M, N and M of 3,000 digits each; Step 2's
    # coefficient N·M has 6,000, and the witness exited 2 naming a Python setting
    elem = tmp_path / "long.json"
    elem.write_text(
        f'[{{"alpha":[],"alpha_src":"v","beta":[],"beta_src":"v","re":"1/{"7" * 3000}","im":"0"}},'
        f'{{"alpha":["e"],"alpha_src":"v","beta":[],"beta_src":"v","re":"{"1" * 3000}","im":"0"}}]'
    )
    assert run(capsys, ["normalize", "--graph", r2_file, "--element", str(elem)])[0] == 0
    assert run(capsys, ["witness", "--graph", r2_file, "--element", str(elem)]) == (
        2,
        "",
        "error: a coefficient has over 4300 digits, the most that Python writes\n",
    )


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_witness_refuses_a_long_trace_coefficient_in_both_formats(capsys, tmp_path, r2_file, fmt):
    # e + e·e/P + e·e·e·e*/Q normalizes to e + (1/P + 1/Q)·e·e - ..., P and Q
    # coprime with 2,201 digits each: a's trace entry needs 4,401 digits, while
    # x = (e·σ)* and y = σ have coefficient 1; the text format, which prints
    # no trace, refuses it too
    p, q = 10**2200 + 1, 10**2200 + 3
    terms = [(["e"], [], "1"), (["e", "e"], [], f"1/{p}"), (["e", "e", "e"], ["e"], f"1/{q}")]
    elem = tmp_path / "long.json"
    elem.write_text(json.dumps([
        {"alpha": alpha, "alpha_src": "v", "beta": beta, "beta_src": "v", "re": re, "im": "0"}
        for alpha, beta, re in terms
    ]))
    assert run(capsys, ["witness", "--graph", r2_file, "--element", str(elem), "--format", fmt]) == (
        2,
        "",
        "error: a coefficient has over 4300 digits, the most that Python writes\n",
    )


def test_witness_exit_2_on_a_stage_expansion_over_budget(capsys, tmp_path, r2_file):
    # Step 3 expands v + 2·e^n(e^n)* to stage n, 2^(n+1) - 1 terms: 0.49 s at
    # n = 16 and a MemoryError traceback at n = 21 under a 600 MB cap, before
    # the terms were counted; at n = 40 the count alone refuses it
    g = zoo.r2()
    en = g.path("v", ("e",) * 40)
    x = vertex_element(g, "v") + monomial_element(g, en, en, gauss(2))
    elem = write_element(tmp_path, g, x)
    start = time.perf_counter()
    code, out, err = run(capsys, ["witness", "--graph", r2_file, "--element", elem])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == f"error: the stage-40 expansion would make {2**41 - 1} terms, over the budget of {2**18}\n"


# ---------------------------------------------------------------------------
# normalize and norm
# ---------------------------------------------------------------------------


def test_normalize_applies_relations(capsys, tmp_path, r2_file):
    raw = (
        '[{"alpha":["e"],"alpha_src":"v","beta":["e"],"beta_src":"v","re":"1/1","im":"0/1"},'
        '{"alpha":["f"],"alpha_src":"v","beta":["f"],"beta_src":"v","re":"1/1","im":"0/1"}]'
    )
    elem = tmp_path / "raw.json"
    elem.write_text(raw)
    code, out, err = run(capsys, ["normalize", "--graph", r2_file, "--element", str(elem)])
    assert code == 0
    assert json.loads(out) == [
        {
            "alpha": [],
            "alpha_src": "v",
            "beta": [],
            "beta_src": "v",
            "re": "1/1",
            "im": "0/1",
        }
    ]


@pytest.mark.parametrize(
    "re, im, printed",
    [
        ("-6/4", "0/1", ("-3/2", "0/1")),
        ("1/1", "0/5", ("1/1", "0/1")),
        ("0/5", "0/3", None),
        ("2", "-4/6", ("2/1", "-2/3")),
        ("1.5", "1.5", ("3/2", "3/2")),
        # strings Fraction reads but a plain [-]digits/digits split does not
        (" 1/2", "0/1", ("1/2", "0/1")),
        ("\u0663/4", "0/1", ("3/4", "0/1")),
        ("1_0/3", "-1_2/8", ("10/3", "-3/2")),
    ],
    ids=["reduced", "zero-part", "zero-term", "integer", "decimal", "space", "arabic-indic", "underscore"],
)
def test_normalize_prints_coefficients_in_lowest_terms(capsys, tmp_path, r2_file, re, im, printed):
    elem = tmp_path / "coeff.json"
    elem.write_text(f'[{{"alpha":["e"],"alpha_src":"v","beta":["f"],"beta_src":"v","re":"{re}","im":"{im}"}}]')
    code, out, err = run(capsys, ["normalize", "--graph", r2_file, "--element", str(elem)])
    assert code == 0
    if printed is None:
        assert out == "[]\n"
    else:
        assert out == (
            f'[{{"alpha":["e"],"alpha_src":"v","beta":["f"],"beta_src":"v","re":"{printed[0]}","im":"{printed[1]}"}}]\n'
        )


@pytest.mark.parametrize(
    "re, message",
    [
        ("1/0", "Fraction(1, 0)"),
        ("1/-2", "Invalid literal for Fraction: '1/-2'"),
        ("--1/2", "Invalid literal for Fraction: '--1/2'"),
    ],
    ids=["zero-denominator", "negative-denominator", "double-sign"],
)
def test_normalize_exit_2_on_malformed_rational(capsys, tmp_path, r2_file, re, message):
    elem = tmp_path / "bad.json"
    elem.write_text(f'[{{"alpha":["e"],"alpha_src":"v","beta":["f"],"beta_src":"v","re":"{re}","im":"0/1"}}]')
    code, out, err = run(capsys, ["normalize", "--graph", r2_file, "--element", str(elem)])
    assert (code, out, err) == (2, "", f"error: bad element term: {message}\n")


@pytest.mark.parametrize("re", ["1e100000000", "0e100000000", "1e10000000", "-1E-4300", "0e5000"])
def test_normalize_refuses_an_exponent_of_4300_or_more_at_once(capsys, tmp_path, r2_file, re):
    # Fraction computes 10**|exponent| first: the first two ran for minutes,
    # the third for 5 s before Python's digit limit, and "0e5000" printed []
    elem = tmp_path / "exp.json"
    elem.write_text(f'[{{"alpha":["e"],"alpha_src":"v","beta":[],"beta_src":"v","re":"{re}","im":"0"}}]')
    start = time.perf_counter()
    result = run(capsys, ["normalize", "--graph", r2_file, "--element", str(elem)])
    assert time.perf_counter() - start < 1.0
    message = "bad element term: 're' has an exponent of absolute value 4300 or more"
    assert result == (2, "", f"error: {message}\n")


DIGIT_RUNS = {
    "integer": "1" * 5000,
    "denominator": "1/" + "3" * 5000,
    "decimal": "0." + "1" * 5000,
    "underscored": "1_" * 4400 + "1",
}


@pytest.mark.parametrize("re", DIGIT_RUNS.values(), ids=DIGIT_RUNS)
def test_normalize_refuses_a_run_of_over_4300_digits(capsys, tmp_path, r2_file, re):
    # Python's int refuses to read them, and the message advised a Python setting
    elem = tmp_path / "digits.json"
    elem.write_text(f'[{{"alpha":["e"],"alpha_src":"v","beta":[],"beta_src":"v","re":"{re}","im":"0"}}]')
    message = "bad element term: 're' has a run of over 4300 digits, the most that Python reads"
    assert run(capsys, ["normalize", "--graph", r2_file, "--element", str(elem)]) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("re, printed", [("1e4299", "1" + "0" * 4299 + "/1"), ("-1e-4299", "-1/1" + "0" * 4299)])
def test_normalize_reads_and_prints_an_exponent_of_4299(capsys, tmp_path, r2_file, re, printed):
    elem = tmp_path / "exp.json"
    elem.write_text(f'[{{"alpha":["e"],"alpha_src":"v","beta":[],"beta_src":"v","re":"{re}","im":"0"}}]')
    code, out, err = run(capsys, ["normalize", "--graph", r2_file, "--element", str(elem)])
    assert (code, json.loads(out)[0]["re"], err) == (0, printed, "")


@pytest.mark.parametrize(
    "term",
    [
        '{"alpha":"ef","alpha_src":"v","beta":[],"beta_src":"v","re":"1/1","im":"0/1"}',
        '{"alpha":["e"],"alpha_src":"v","beta":["e"],"beta_src":"v","re":0.1,"im":"0/1"}',
        '{"alpha":["e"],"alpha_src":"v","beta":["e"],"beta_src":"v","re":"1/1","im":0}',
    ],
    ids=["string-path", "float-coefficient", "integer-coefficient"],
)
def test_normalize_exit_2_on_loose_element_json(capsys, tmp_path, r2_file, term):
    elem = tmp_path / "loose.json"
    elem.write_text(f"[{term}]")
    code, out, err = run(capsys, ["normalize", "--graph", r2_file, "--element", str(elem)])
    assert code == 2
    assert out == ""
    assert "must be" in err


@pytest.mark.parametrize("command", ["normalize", "witness", "norm"])
def test_element_exit_2_on_unknown_term_fields(capsys, tmp_path, r2_file, command):
    # a "scale" key was ignored: e printed with coefficient 1 and exit 0
    elem = tmp_path / "scaled.json"
    elem.write_text(
        '[{"alpha":["e"],"alpha_src":"v","beta":[],"beta_src":"v","re":"1","im":"0","scale":"5"}]'
    )
    code, out, err = run(capsys, [command, "--graph", r2_file, "--element", str(elem)])
    assert (code, out, err) == (2, "", "error: unknown element term JSON fields: ['scale']\n")


def test_norm_p1_exact(capsys, tmp_path, a2_file):
    g = zoo.a2()
    x = vertex_element(g, "u") + vertex_element(g, "v")
    elem = write_element(tmp_path, g, x)
    code, out, err = run(capsys, ["norm", "--graph", a2_file, "--element", elem, "--p", "1"])
    assert code == 0
    assert json.loads(out) == {"p": 1.0, "norm": 1.0, "exact": True}


def test_norm_p2_shape(capsys, tmp_path, a2_file):
    g = zoo.a2()
    elem = write_element(tmp_path, g, path_element(g, ("e",)))
    code, out, err = run(capsys, ["norm", "--graph", a2_file, "--element", elem, "--p", "2"])
    assert code == 0
    obj = json.loads(out)
    assert obj["exact"] is False
    assert obj["norm"] == pytest.approx(1.0)
    assert "lower_bound" not in obj


def test_norm_generic_p_lower_bound(capsys, tmp_path, a2_file):
    g = zoo.a2()
    elem = write_element(tmp_path, g, path_element(g, ("e",)))
    argv = ["norm", "--graph", a2_file, "--element", elem, "--p", "3"]
    # --seed and --tol are options of norm alone
    for extra in ([], ["--seed", "7", "--tol", "1e-9"]):
        code, out, err = run(capsys, argv + extra)
        assert code == 0
        obj = json.loads(out)
        assert obj["exact"] is False
        assert obj["converged"] is True
        assert obj["lower_bound"] == pytest.approx(1.0, rel=1e-9)


def test_norm_rejects_out_of_range_p(capsys, tmp_path, a2_file):
    g = zoo.a2()
    elem = write_element(tmp_path, g, path_element(g, ("e",)))
    code, out, err = run(capsys, ["norm", "--graph", a2_file, "--element", elem, "--p", "9"])
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_norm_checks_p_before_the_graph(capsys, tmp_path, r2_file):
    # an out-of-range p is a usage error even over a graph with cycles
    g = zoo.r2()
    elem = write_element(tmp_path, g, vertex_element(g, "v"))
    code, out, err = run(capsys, ["norm", "--graph", r2_file, "--element", elem, "--p", "9"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: p must lie in")


@pytest.mark.parametrize(
    "g, message",
    [
        (zoo.omega_spi(), "matricial decompositions need a row-finite finite graph"),
        (zoo.r2(), "the graph has a cycle"),
    ],
    ids=["omega_pairs", "cycles"],
)
def test_norm_exit_1_off_finite_acyclic_graphs(capsys, tmp_path, g, message):
    # norm has no route over omega pairs or cycles: both are "other errors"
    gp = tmp_path / "g.json"
    gp.write_text(graph_to_json(g))
    elem = write_element(tmp_path, g, vertex_element(g, "v"))
    code, out, err = run(capsys, ["norm", "--graph", str(gp), "--element", elem, "--p", "2"])
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_norm_on_the_empty_graph(capsys, tmp_path):
    # no sink block at all: the norm is 0 and exact at every p
    gp, ep = tmp_path / "empty.json", tmp_path / "zero.json"
    gp.write_text('{"vertices":[]}')
    ep.write_text("[]")
    for p in ("1", "1.5", "2", "3"):
        argv = ["norm", "--graph", str(gp), "--element", str(ep), "--p", p]
        code, out, err = run(capsys, argv)
        assert code == 0
        assert out == f'{{"p":{float(p)},"norm":0.0,"exact":true}}\n'


@pytest.mark.parametrize(
    "p, printed",
    [
        ("1", '{"p":1.0,"norm":0.0,"exact":true}\n'),
        ("1.5", '{"p":1.5,"exact":false,"lower_bound":0.0,"converged":true}\n'),
        ("2", '{"p":2.0,"norm":0.0,"exact":false}\n'),
        ("3", '{"p":3.0,"exact":false,"lower_bound":0.0,"converged":true}\n'),
    ],
)
def test_norm_of_the_zero_element(capsys, tmp_path, p, printed):
    # a zero block has no component: nothing iterates, yet each p keeps its keys
    g = zoo.a3()
    gp = tmp_path / "a3.json"
    gp.write_text(graph_to_json(g))
    elem = write_element(tmp_path, g, zero(g))
    code, out, err = run(capsys, ["norm", "--graph", str(gp), "--element", elem, "--p", p])
    assert code == 0
    assert out == printed


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--tol", "nan", "error: tol must be a finite number >= 0, got nan"),
        ("--tol", "-5", "error: tol must be a finite number >= 0, got -5.0"),
        ("--tol", "inf", "error: tol must be a finite number >= 0, got inf"),
        ("--seed", "-1", "error: seed must be >= 0, got -1"),
    ],
)
def test_norm_rejects_a_bad_tol_or_seed(capsys, tmp_path, a2_file, option, value, message):
    # a NaN or negative tol ran every step unconverged, an infinite one stopped
    # after one step, and a negative seed failed inside numpy without naming it
    g = zoo.a2()
    elem = write_element(tmp_path, g, path_element(g, ("e",)))
    argv = ["norm", "--graph", a2_file, "--element", elem, "--p", "3", option, value]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == message + "\n"


def test_norm_answers_under_the_expansion_budget(capsys, tmp_path):
    # the doubled line on 12 vertices: v0 expands into 2^11 terms; the dense
    # sink block of 4095^2 entries, which the norm does not build, used to
    # be refused with exit 2
    verts = [f"v{i}" for i in range(12)]
    edges = [{"id": f"{k}{i}", "src": verts[i], "dst": verts[i + 1]} for i in range(11) for k in "ab"]
    gp, ep = tmp_path / "g.json", tmp_path / "elem.json"
    gp.write_text(json.dumps({"vertices": verts, "edges": edges}))
    ep.write_text('[{"alpha":[],"alpha_src":"v0","beta":[],"beta_src":"v0","re":"1","im":"0"}]')
    code, out, err = run(capsys, ["norm", "--graph", str(gp), "--element", str(ep), "--p", "1"])
    assert (code, out, err) == (0, '{"p":1.0,"norm":1.0,"exact":true}\n', "")


def test_norm_exit_2_over_the_block_budget(capsys, tmp_path):
    # the doubled line on 40 vertices has 2^40 - 1 paths into its sink; none is built
    n = 40
    verts = [f"v{i}" for i in range(n)]
    edges = [{"id": f"{k}{i}", "src": verts[i], "dst": verts[i + 1]} for i in range(n - 1) for k in "ab"]
    gp, ep = tmp_path / "g.json", tmp_path / "elem.json"
    gp.write_text(json.dumps({"vertices": verts, "edges": edges}))
    ep.write_text('[{"alpha":[],"alpha_src":"v0","beta":[],"beta_src":"v0","re":"1","im":"0"}]')
    start = time.perf_counter()
    code, out, err = run(capsys, ["norm", "--graph", str(gp), "--element", str(ep), "--p", "1"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "budget" in err


def huge_coefficient_element(tmp_path, digits):
    """e·e* over a2 (u -e-> v) with the coefficient 10^digits."""
    ep = tmp_path / f"huge{digits}.json"
    ep.write_text(
        json.dumps([{"alpha": ["e"], "alpha_src": "u", "beta": ["e"], "beta_src": "u", "re": "1" + "0" * digits, "im": "0"}])
    )
    return str(ep)


# "error": a float warning from numpy would be a second stderr line
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", ["1", "1.5", "2", "3"])
def test_norm_exit_2_on_a_coefficient_beyond_double_range(capsys, tmp_path, a2_file, p):
    # the conversion to a double raised OverflowError: exit 1 with a traceback
    elem = huge_coefficient_element(tmp_path, 400)
    code, out, err = run(capsys, ["norm", "--graph", a2_file, "--element", elem, "--p", p])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "p, printed",
    [
        ("1", '{"p":1.0,"norm":1e+300,"exact":true}\n'),
        ("1.5", '{"p":1.5,"exact":false,"lower_bound":1e+300,"converged":true}\n'),
        ("2", '{"p":2.0,"norm":1e+300,"exact":false}\n'),
        ("3", '{"p":3.0,"exact":false,"lower_bound":1e+300,"converged":true}\n'),
    ],
)
def test_norm_never_prints_infinity(capsys, tmp_path, a2_file, p, printed):
    # the norm is 1e300 at every p: the block's one nonzero entry is a 1×1
    # component, so no power iteration sums |y|^p (which printed
    # "lower_bound":Infinity, invalid JSON and no bound, and later exited 2)
    elem = huge_coefficient_element(tmp_path, 300)
    code, out, err = run(capsys, ["norm", "--graph", a2_file, "--element", elem, "--p", p])
    assert code == 0
    assert out == printed
    assert err == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "p, printed", [("1", '{"p":1.0,"norm":2e+300,"exact":true}\n'), ("1.5", None), ("3", None)]
)
def test_norm_exit_2_when_the_power_iteration_overflows(capsys, tmp_path, p, printed):
    # 10^300·(f·f* + f·(ef)* + (ef)·f*) over a3 (u -e1-> v -e2-> w), f = e2:
    # one connected 2×2 component, so p = 1.5 and 3 iterate and |y|^p overflows
    g = zoo.a3()
    gp, ep = tmp_path / "a3.json", tmp_path / "elem.json"
    gp.write_text(graph_to_json(g))
    f, ef = (["e2"], "v"), (["e1", "e2"], "u")
    ep.write_text(
        json.dumps(
            [
                {"alpha": a, "alpha_src": sa, "beta": b, "beta_src": sb, "re": "1" + "0" * 300, "im": "0"}
                for (a, sa), (b, sb) in ((f, f), (f, ef), (ef, f))
            ]
        )
    )
    code, out, err = run(capsys, ["norm", "--graph", str(gp), "--element", str(ep), "--p", p])
    if printed is None:
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "overflowed a double" in err
    else:
        assert code == 0
        assert out == printed


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", ["1", "1.5", "2", "3"])
def test_norm_exit_2_when_an_entry_modulus_overflows(capsys, tmp_path, p):
    # 15·10^307·(1+i)·(f·f* + f·(ef)* + (ef)·f*) over a3: each entry is a
    # finite complex double whose modulus is not, and the SVD of the 2×2
    # component at p = 2 is NaN, which must not hide behind max(0.0, nan)
    g = zoo.a3()
    gp, ep = tmp_path / "a3.json", tmp_path / "elem.json"
    gp.write_text(graph_to_json(g))
    f, ef = (["e2"], "v"), (["e1", "e2"], "u")
    c = "15" + "0" * 307
    ep.write_text(
        json.dumps(
            [
                {"alpha": a, "alpha_src": sa, "beta": b, "beta_src": sb, "re": c, "im": c}
                for (a, sa), (b, sb) in ((f, f), (f, ef), (ef, f))
            ]
        )
    )
    code, out, err = run(capsys, ["norm", "--graph", str(gp), "--element", str(ep), "--p", p])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "overflowed a double" in err


@pytest.mark.parametrize("p", ["1.5", "3"])
def test_norm_schema_when_every_component_is_1x1(capsys, tmp_path, a2_file, p):
    # the vertex u of a2 is e·e*: one 1×1 component, so nothing iterates, yet
    # the output keeps the lower-bound keys
    g = zoo.a2()
    elem = write_element(tmp_path, g, vertex_element(g, "u"))
    code, out, err = run(capsys, ["norm", "--graph", a2_file, "--element", elem, "--p", p])
    assert code == 0
    assert list(json.loads(out).items()) == [
        ("p", float(p)), ("exact", False), ("lower_bound", 1.0), ("converged", True)
    ]


@pytest.mark.parametrize("p", ["1.5", "3"])
def test_norm_schema_when_every_component_is_a_row_or_column(capsys, tmp_path, p):
    # w·(e2)* + w·(e1 e2)* + e2·w* + (e1 e2)·w* over a3: a 1×2 row and a 2×1
    # column component, whose norms are closed forms, yet the output keeps
    # the lower-bound keys: exact stays false at every p != 1
    g = zoo.a3()
    gp, ep = tmp_path / "a3.json", tmp_path / "elem.json"
    gp.write_text(graph_to_json(g))
    w, e2, e12 = ([], "w"), (["e2"], "v"), (["e1", "e2"], "u")
    ep.write_text(
        json.dumps(
            [
                {"alpha": a, "alpha_src": sa, "beta": b, "beta_src": sb, "re": "1", "im": "0"}
                for (a, sa), (b, sb) in ((w, e2), (w, e12), (e2, w), (e12, w))
            ]
        )
    )
    code, out, err = run(capsys, ["norm", "--graph", str(gp), "--element", str(ep), "--p", p])
    assert code == 0
    obj = json.loads(out)
    assert list(obj) == ["p", "exact", "lower_bound", "converged"]
    assert (obj["p"], obj["exact"], obj["converged"]) == (float(p), False, True)
    # the larger of 2^(1/q) (the row) and 2^(1/p) (the column)
    assert obj["lower_bound"] == pytest.approx(2 ** (2 / 3), rel=1e-15)


def test_normalize_exit_2_on_non_string_edge_id_over_omega_graph(capsys, tmp_path):
    # Graph.path rejects the id before an omega id parse would call str methods on it
    gp, ep = tmp_path / "g.json", tmp_path / "elem.json"
    gp.write_text(graph_to_json(zoo.omega_spi()))
    ep.write_text('[{"alpha":[7],"alpha_src":"v","beta":[],"beta_src":"v","re":"1","im":"0"}]')
    code, out, err = run(capsys, ["normalize", "--graph", str(gp), "--element", str(ep)])
    assert code == 2
    assert out == ""
    assert "must be" in err
    assert "AttributeError" not in err and "Traceback" not in err


def test_transform_rejects_bad_depth(capsys, tmp_path):
    gp = tmp_path / "g.json"
    gp.write_text(graph_to_json(zoo.omega_spi()))
    code, out, err = run(
        capsys, ["transform", "desingularize", "--graph", str(gp), "--depth", "0"]
    )
    assert code == 2


def test_norm_rejects_cyclic_graph(capsys, tmp_path):
    # a cycle through, below, beside or above the element's support: exit 1, one line
    graphs = (
        zoo.r2(),
        Graph(("a", "b"), (("e", "a", "b"), ("l", "b", "b"))),
        Graph(("u", "v", "r"), (("e", "u", "v"), ("l", "r", "r"))),
        Graph(("u", "w", "s"), (("e", "u", "w"), ("f", "w", "u"), ("g", "w", "s"))),
    )
    for g in graphs:
        gp = tmp_path / "g.json"
        gp.write_text(graph_to_json(g))
        elem = write_element(tmp_path, g, vertex_element(g, g.vertices[-1]))
        code, out, err = run(capsys, ["norm", "--graph", str(gp), "--element", elem, "--p", "1"])
        assert (code, out, err) == (1, "", "error: the graph has a cycle\n")


README_EXIT_CODES = frozenset(
    int(code)
    for code in re.findall(
        r"^\| (\d+) \|", (Path(__file__).parents[1] / "README.md").read_text(), re.M
    )
)


@st.composite
def norm_cli_inputs(draw):
    """Graph JSON, element JSON and p for ``norm``: a small random graph, half
    of them acyclic, the rest with cycles allowed, sometimes with omega pairs
    or frontier vertices, or the empty graph; an element of up to four terms
    whose paths are walks of up to three edges, most terms with a β that
    shares α's range, a few with an unknown vertex."""
    size = draw(st.integers(0, 5))
    verts = [f"v{i}" for i in range(size)]
    ends = []
    if verts:
        dag = draw(st.booleans())
        for s, d in draw(st.lists(st.tuples(st.sampled_from(verts), st.sampled_from(verts)), max_size=7)):
            ends.append((min(s, d), max(s, d)) if dag else (s, d))
        ends = [(s, d) for s, d in ends if not dag or s != d]
    omega = [] if not verts or draw(st.integers(0, 3)) else [(verts[0], verts[-1])]
    frontier = draw(st.sets(st.sampled_from(verts), max_size=2)) if verts else set()
    g = Graph(verts, [(f"e{k}", s, d) for k, (s, d) in enumerate(ends)], omega, frontier)
    out = g.out_alphabet(omega_copies=2)
    walks = [(v, (), v) for v in verts]
    for at_length in (1, 2, 3):
        walks += [
            (src, (*edges, eid), dst)
            for src, edges, at in walks
            if len(edges) == at_length - 1
            for eid, dst in out[at]
        ]

    terms = []
    for _ in range(draw(st.integers(0, 4)) if verts else 0):
        a_src, alpha, at = draw(st.sampled_from(walks))
        same_range = [w for w in walks if w[2] == at]
        b_src, beta, _ = draw(st.sampled_from(same_range if draw(st.integers(0, 3)) else walks))
        if draw(st.integers(0, 9)) == 0:
            a_src, alpha = "zz", ()
        re_ = draw(st.sampled_from(["1", "-1", "2", "1/3", "-5/2", "0", "0.25", "1e300"]))
        im = draw(st.sampled_from(["0", "0", "1", "-1/2"]))
        terms.append(
            {"alpha": alpha, "alpha_src": a_src, "beta": beta, "beta_src": b_src, "re": re_, "im": im}
        )
    p = draw(st.sampled_from(["1", "1.5", "2", "3"]))
    return g, graph_to_json(g), json.dumps(terms), p


def _main_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@given(norm_cli_inputs())
@settings(deadline=timedelta(seconds=3), max_examples=400)
def test_norm_cli_fuzz(case):
    g, graph_text, element_text, p = case
    with tempfile.TemporaryDirectory() as tmp:
        gp, ep = os.path.join(tmp, "g.json"), os.path.join(tmp, "x.json")
        with open(gp, "w", encoding="utf-8") as f:
            f.write(graph_text)
        with open(ep, "w", encoding="utf-8") as f:
            f.write(element_text)
        code, out, err = _main_in_process(
            ["norm", "--graph", gp, "--element", ep, "--p", p]
        )
    event(f"exit {code}")
    assert code in README_EXIT_CODES
    assert "Traceback" not in err
    if code != 0:
        assert out == ""
        if code == 1 and not g.omega_pairs:
            assert err == "error: the graph has a cycle\n" and oracle_cycles(g)
        return
    # it answered, so the graph is row-finite and acyclic and the element parsed
    assert not g.omega_pairs and not oracle_cycles(g)
    if p == "1":
        x = oracle_element_from_json(g, json.loads(element_text))
        _, blocks = oracle_spatial_rep_acyclic(x)
        dense = max((oracle_dense_norm_estimate(M, 1.0)[0] for M in blocks.values()), default=0.0)
        # equal reprs are equal bits
        assert repr(json.loads(out)["norm"]) == repr(dense)


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------


def test_transform_remove_sources(capsys, tmp_path):
    gp = tmp_path / "g.json"
    gp.write_text(graph_to_json(zoo.source_into_rose()))
    code, out, err = run(capsys, ["transform", "remove-sources", "--graph", str(gp)])
    assert code == 0
    assert graph_from_json(out) == zoo.r2()


def test_transform_remove_sources_exit_6(capsys, a2_file):
    code, out, err = run(capsys, ["transform", "remove-sources", "--graph", a2_file])
    assert code == 6


def test_transform_remove_sources_long_tail_within_budget(capsys, tmp_path):
    # rebuilding the graph once per round of sources took 2.4-3.2 s on a 2-core machine
    gp = tmp_path / "tail.json"
    gp.write_text(graph_to_json(source_tail_into_rose(2000)))
    start = time.perf_counter()
    code, out, err = run(capsys, ["transform", "remove-sources", "--graph", str(gp)])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert graph_from_json(out) == zoo.r2()
    assert elapsed < 1.0


def test_transform_desingularize(capsys, tmp_path):
    gp = tmp_path / "g.json"
    gp.write_text(graph_to_json(zoo.omega_spi()))
    code, out, err = run(
        capsys, ["transform", "desingularize", "--graph", str(gp), "--depth", "3"]
    )
    assert code == 0
    g = graph_from_json(out)
    assert g.is_row_finite
    assert g.frontier


def test_transform_desingularize_exit_2_over_budget(capsys, monkeypatch, tmp_path):
    # a lowered budget stands in for a hostile depth, which must never run
    monkeypatch.setattr(transforms, "DESINGULARIZE_BUDGET", 2)
    gp = tmp_path / "g.json"
    gp.write_text(graph_to_json(zoo.omega_spi()))
    argv = ["transform", "desingularize", "--graph", str(gp), "--depth"]
    assert run(capsys, argv + ["2"])[0] == 0
    code, out, err = run(capsys, argv + ["3"])
    assert code == 2
    assert out == ""
    assert "budget" in err


def test_transform_desingularize_exit_7(capsys, r2_file):
    code, out, err = run(capsys, ["transform", "desingularize", "--graph", r2_file])
    assert code == 7


def test_transform_reachable(capsys, tmp_path):
    gp = tmp_path / "g.json"
    gp.write_text(graph_to_json(zoo.source_into_rose()))
    code, out, err = run(
        capsys, ["transform", "reachable", "--graph", str(gp), "--from", "v"]
    )
    assert code == 0
    assert graph_from_json(out) == zoo.r2()


def test_transform_reachable_exit_8(capsys, r2_file):
    code, out, err = run(
        capsys, ["transform", "reachable", "--graph", r2_file, "--from", "zz"]
    )
    assert code == 8


def test_transform_complete_with_embedding(capsys, tmp_path, r2_file):
    from leavitt_lab.graph import Graph

    sub = tmp_path / "sub.json"
    sub.write_text(graph_to_json(Graph(("v",), (("e", "v", "v"),))))
    embed_out = tmp_path / "emb.json"
    code, out, err = run(
        capsys,
        [
            "transform",
            "complete",
            "--graph",
            r2_file,
            "--subgraph",
            str(sub),
            "--emit-embedding",
            str(embed_out),
        ],
    )
    assert code == 0
    dom = graph_from_json(out)
    assert dom.vertices == ("v", "v'")
    emb = json.loads(embed_out.read_text())
    assert set(emb) == {"domain", "codomain", "vertex_images", "edge_images"}


def test_transform_complete_exit_8(capsys, tmp_path, r2_file):
    sub = tmp_path / "sub.json"
    sub.write_text('{"vertices":["zz"],"edges":[]}')
    code, out, err = run(
        capsys, ["transform", "complete", "--graph", r2_file, "--subgraph", str(sub)]
    )
    assert code == 8


# exit code of each error class; every other LeavittError exits 1
EXIT_CODE = {
    errors.FormatError: 2,
    errors.BudgetExceeded: 2,
    errors.FloatRange: 2,
    ValueError: 2,
    errors.EmptyGraph: 3,
    errors.NotSPI: 4,
    errors.FrontierPresent: 4,
    errors.ZeroElement: 5,
    errors.BecameEmpty: 6,
    errors.NoInfiniteEmitters: 7,
    errors.UnknownVertex: 8,
    errors.NotASubgraph: 8,
}
ERROR_CLASSES = [ValueError] + [
    cls
    for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.LeavittError)
]
OMEGA_HINT = (
    "hint: witness has no route over omega pairs: the CLI cannot carry an element"
    " through 'transform desingularize', and witness refuses the truncation it prints"
)


@pytest.mark.parametrize("command", ["witness", "norm"])
@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_error_exit_codes(capsys, monkeypatch, cls, command):
    def fail(args):
        raise cls("boom")

    monkeypatch.setitem(COMMANDS, command, fail)
    code, out, err = run(capsys, [command, "--graph", "g.json", "--element", "a.json"])
    # main maps the class alone: witness rewords OmegaUnsupported itself, as
    # NotSPI with the hint (test_witness_exit_4_with_hint_on_omega)
    assert code == EXIT_CODE.get(cls, 1)
    assert out == ""
    internal = "internal error: " if cls is errors.InternalError else ""
    assert err == f"error: {internal}boom\n"


def test_internal_invariant_failure_exits_1(capsys, monkeypatch, tmp_path, r2_file):
    import leavitt_lab.transforms as transforms
    from leavitt_lab.graph import Graph
    from leavitt_lab.lpa import zero

    # a broken involution makes the embedding's exact re-check fail
    monkeypatch.setattr(transforms, "involute", lambda x: zero(x.graph))
    sub = tmp_path / "sub.json"
    sub.write_text(graph_to_json(Graph(("v",), (("e", "v", "v"),))))
    code, out, err = run(
        capsys, ["transform", "complete", "--graph", r2_file, "--subgraph", str(sub)]
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: internal error: ")
    assert "Traceback" not in err


def test_transform_dot_output(capsys, tmp_path):
    gp = tmp_path / "g.json"
    gp.write_text(graph_to_json(zoo.omega_spi()))
    code, out, err = run(
        capsys, ["transform", "reachable", "--graph", str(gp), "--from", "v", "--format", "dot"]
    )
    assert code == 0
    assert out.startswith("digraph G {")
    assert 'label="ω"' in out


def test_transform_output_file(capsys, tmp_path):
    gp = tmp_path / "g.json"
    gp.write_text(graph_to_json(zoo.source_into_rose()))
    out_file = tmp_path / "out.json"
    code, out, err = run(
        capsys,
        ["transform", "remove-sources", "--graph", str(gp), "-o", str(out_file)],
    )
    assert code == 0
    assert out == ""
    assert graph_from_json(out_file.read_text()) == zoo.r2()


@pytest.mark.parametrize("option", ["-o", "--emit-embedding"])
def test_transform_unwritable_output_exits_2(capsys, tmp_path, r2_file, option):
    sub = tmp_path / "sub.json"
    sub.write_text(graph_to_json(Graph(("v",), (("e", "v", "v"),))))
    target = str(tmp_path / "no" / "such" / "dir" / "out.json")
    code, out, err = run(
        capsys,
        ["transform", "complete", "--graph", r2_file, "--subgraph", str(sub), option, target],
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_transform_output_file_rewrite_leaves_exactly_the_new_bytes(capsys, tmp_path):
    # the file is opened without truncation and cut to length after the write
    gp = tmp_path / "g.json"
    gp.write_text(graph_to_json(zoo.source_into_rose()))
    out_file = tmp_path / "out.json"
    out_file.write_text("x" * 10_000)
    argv = ["transform", "remove-sources", "--graph", str(gp), "-o", str(out_file)]
    assert run(capsys, argv) == (0, "", "")
    assert out_file.read_bytes() == (graph_to_json(zoo.r2()) + "\n").encode()


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null on this system")
def test_transform_output_to_dev_null_exits_0(capsys, r2_file):
    assert run(capsys, ["transform", "remove-sources", "--graph", r2_file, "-o", "/dev/null"]) == (0, "", "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_transform_output_to_a_full_disk_exits_2(capsys, r2_file):
    code, out, err = run(capsys, ["transform", "remove-sources", "--graph", r2_file, "-o", "/dev/full"])
    assert (code, out, err) == (2, "", "error: cannot write /dev/full: [Errno 28] No space left on device\n")


def test_transform_output_that_cannot_be_encoded_leaves_the_old_file(capsys, tmp_path):
    gp = tmp_path / "g.json"
    gp.write_text(json.dumps({"vertices": ["\ud800"]}))
    out_file = tmp_path / "out.json"
    out_file.write_text("old\n")
    code, out, err = run(capsys, ["transform", "reachable", "--graph", str(gp), "--from", "\ud800", "-o", str(out_file)])
    assert (code, out) == (2, "")
    assert "surrogates not allowed" in err
    assert out_file.read_text() == "old\n"


# ---------------------------------------------------------------------------
# determinism and round trips
# ---------------------------------------------------------------------------


def test_byte_identical_reruns(capsys, tmp_path, r2_file):
    g = zoo.r2()
    elem = write_element(tmp_path, g, path_element(g, ("e",)))
    outputs = set()
    for _ in range(3):
        code, out, err = run(capsys, ["witness", "--graph", r2_file, "--element", elem])
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_graph_roundtrip_through_cli(capsys, tmp_path):
    for g in zoo.standard_graphs().values():
        gp = tmp_path / "g.json"
        gp.write_text(graph_to_json(g))
        code, out, err = run(capsys, ["transform", "reachable", "--graph", str(gp), "--from", g.vertices[0]])
        assert code == 0
        # re-parse: identical to direct computation
        from leavitt_lab.transforms import reachable_subgraph

        assert graph_from_json(out) == reachable_subgraph(g, g.vertices[0])


def test_byte_identical_across_processes(tmp_path):
    # hash randomization must not leak into output ordering
    gp = tmp_path / "g.json"
    gp.write_text(graph_to_json(zoo.r2()))
    elem = tmp_path / "a.json"
    g = zoo.r2()
    elem.write_text(element_to_json(path_element(g, ("e",)) + vertex_element(g, "v")))
    outputs = set()
    for seed in ("0", "1", "31337"):
        proc = subprocess.run(
            [sys.executable, "-m", "leavitt_lab", "witness", "--graph", str(gp), "--element", str(elem)],
            capture_output=True,
            text=True,
            env=child_env(seed),
        )
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1


def test_shared_parser_leaks_no_state(capsys, monkeypatch, tmp_path, a2_file):
    trunc = tmp_path / "trunc.json"
    trunc.write_text(graph_to_json(transforms.desingularize(zoo.omega_spi(), 2)))
    g = zoo.a2()
    elem = write_element(tmp_path, g, vertex_element(g, "u") + vertex_element(g, "v"))
    main(["classify", "--graph", a2_file])  # the parser exists from here on
    capsys.readouterr()
    added = []
    real_add = argparse._ActionsContainer.add_argument
    monkeypatch.setattr(
        argparse._ActionsContainer,
        "add_argument",
        lambda self, *a, **k: added.append(a) or real_add(self, *a, **k),
    )

    with pytest.raises(SystemExit) as exc:
        main(["classify", "--graph", str(trunc), "--frontier", "sink", "--bogus"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "usage:" in out.err

    code, out, err = run(capsys, ["classify", "--graph", str(trunc), "--frontier", "sink"])
    assert code == 0
    assert json.loads(out)["verdict"] == "SimplePurelyInfinite"
    code, out, err = run(capsys, ["classify", "--graph", str(trunc)])
    assert (code, out) == (4, "")

    code, out, err = run(capsys, ["norm", "--graph", a2_file, "--element", elem, "--p", "3", "--seed", "7"])
    assert code == 0 and json.loads(out)["p"] == 3.0
    code, out, err = run(capsys, ["norm", "--graph", a2_file, "--element", elem])
    assert (code, out) == (0, '{"p":1.0,"norm":1.0,"exact":true}\n')
    assert added == []


def test_numpy_loads_only_for_norm(capsys, tmp_path, a2_file):
    g = zoo.a2()
    elem = write_element(tmp_path, g, path_element(g, ("e",)))
    probe = (
        "import sys\n"
        "from leavitt_lab.cli import main\n"
        f"code = main(['classify', '--graph', {a2_file!r}])\n"
        "print(code, sorted(m for m in sys.modules if m.startswith('numpy.')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"

    argv = ["norm", "--graph", a2_file, "--element", elem, "--p", "3"]
    proc = subprocess.run(
        [sys.executable, "-m", "leavitt_lab", *argv], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    code, out, err = run(capsys, argv)
    assert code == 0
    assert proc.stdout == out


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "leavitt_lab", "--help"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    assert proc.returncode == 0
    assert "classify" in proc.stdout


def test_unknown_flags_rejected():
    proc = subprocess.run(
        [sys.executable, "-m", "leavitt_lab", "classify", "--graph", "x", "--bogus"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    assert proc.returncode == 2


def test_subcommands_declare_only_the_options_they_read():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    (ops,) = [
        a for a in sub.choices["transform"]._actions if isinstance(a, argparse._SubParsersAction)
    ]
    parsers = {**sub.choices, **{f"transform {op}": sp for op, sp in ops.choices.items()}}
    declared = {
        name: {s for action in sp._actions for s in action.option_strings}
        for name, sp in parsers.items()
    }
    graph_out = {"-h", "--help", "--graph", "--format", "-o", "--output"}
    assert declared == {
        "classify": {"-h", "--help", "--graph", "--format", "--frontier"},
        "witness": {"-h", "--help", "--graph", "--element", "--format"},
        "normalize": {"-h", "--help", "--graph", "--element"},
        "norm": {"-h", "--help", "--graph", "--element", "--p", "--seed", "--tol"},
        "transform": {"-h", "--help"},
        "transform remove-sources": graph_out,
        "transform desingularize": graph_out | {"--depth"},
        "transform reachable": graph_out | {"--from"},
        "transform complete": graph_out | {"--subgraph", "--emit-embedding"},
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["witness", "--element", "a.json", "--seed", "0"],
        ["classify", "--tol", "1"],
        ["normalize", "--element", "a.json", "--format", "text"],
        # each transform operation takes only its own options
        ["transform", "remove-sources", "--depth", "3", "--from", "zz", "--emit-embedding", "o.json"],
        ["transform", "desingularize", "--subgraph", "f.json"],
        ["transform", "reachable", "--from", "v", "--depth", "2"],
        ["transform", "complete", "--subgraph", "f.json", "--from", "v"],
    ],
)
def test_options_a_command_does_not_read_are_usage_errors(capsys, r2_file, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--graph", r2_file])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "unrecognized arguments" in out.err


@pytest.mark.parametrize(
    "argv, option",
    [(["transform", "reachable"], "--from"), (["transform", "complete"], "--subgraph")],
)
def test_transform_operations_require_the_options_they_read(capsys, r2_file, argv, option):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--graph", r2_file])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and f"the following arguments are required: {option}" in out.err



# main hands argv's command words to the subcommand's own parser; each of
# these must parse, fail or print help exactly as build_parser().parse_args
ROUTE_ARGVS = [
    [],
    ["-h"],
    ["--help"],
    ["--version"],
    ["bogus"],
    ["Classify", "--graph", "g.json"],
    ["--graph", "g.json", "classify"],
    ["-h", "classify"],
    ["--", "classify", "--graph", "g.json"],
    ["classify", "-h"],
    ["classify", "--help", "--graph", "g.json"],
    ["classify"],
    ["classify", "--graph"],
    ["classify", "--graph", "g.json"],
    ["classify", "--gr", "g.json", "--fo", "text", "--fr", "sink"],
    ["classify", "--graph=g.json", "--format=text"],
    ["classify", "--graph", "g.json", "--f", "text"],
    ["classify", "--graph", "g.json", "--format", "xml"],
    ["classify", "--graph", "a.json", "--graph", "b.json"],
    ["classify", "--graph", "g.json", "--"],
    ["classify", "--", "--graph", "g.json"],
    ["classify", "--graph", "g.json", "extra", "words"],
    ["classify", "--graph", "g.json", "-x"],
    ["classify", "transform", "--graph", "g.json"],
    ["witness", "--graph", "g.json"],
    ["witness", "--element", "a.json", "--graph", "g.json", "--format", "text"],
    ["normalize", "--graph", "g.json", "--element", "a.json", "--help"],
    ["norm", "--graph", "g.json", "--element", "a.json", "--p", "abc"],
    ["norm", "--graph", "g.json", "--element", "a.json", "--p", "-1.5", "--seed", "3", "--tol", "0"],
    ["norm", "--graph", "g.json", "--element", "a.json", "--seed", "1.5"],
    ["transform"],
    ["transform", "-h"],
    ["transform", "bogus"],
    ["transform", "--graph", "x", "reachable"],
    ["transform", "reachable"],
    ["transform", "reachable", "-h"],
    ["transform", "reachable", "--graph", "g.json", "--from"],
    ["transform", "reachable", "--graph", "g.json", "--from", "v"],
    ["transform", "reachable", "--graph", "g.json", "--from", "v", "extra", "words"],
    ["transform", "remove-sources", "--graph", "g.json", "--from", "v"],
    ["transform", "desingularize", "--graph", "g.json", "--depth", "x"],
    ["transform", "desingularize", "--graph=g.json", "--dep", "3", "-o", "out.dot", "--format", "dot"],
    ["transform", "complete", "--graph", "g.json", "--subgraph", "f.json", "--emit-embedding", "e.json"],
    ["transform", "complete", "--graph", "g.json", "--subgraph", "f.json", "--", "extra"],
]


def parse_outcome(capsys, parse, argv):
    try:
        args, code = vars(parse(argv)), None
    except SystemExit as exc:
        args, code = None, exc.code
    out = capsys.readouterr()
    return code, out.out, out.err, args


@pytest.mark.parametrize("argv", ROUTE_ARGVS, ids=lambda argv: " ".join(argv) or "(none)")
def test_main_parses_argv_as_parse_args_does(capsys, argv):
    expected = parse_outcome(capsys, build_parser().parse_args, argv)
    assert parse_outcome(capsys, cli._parse, argv) == expected


def valid_argvs(tmp_path):
    """One argv that exits 0 for each command and each transform operation."""
    graphs = {
        "r2": zoo.r2(), "a2": zoo.a2(), "omega": zoo.omega_spi(),
        "tail": zoo.source_into_rose(), "f": Graph(("v",), (("e", "v", "v"),)),
    }
    for name, g in graphs.items():
        (tmp_path / f"{name}.json").write_text(graph_to_json(g))
    r2, a2, omega, tail, sub = (str(tmp_path / f"{name}.json") for name in graphs)
    elem = write_element(tmp_path, zoo.r2(), vertex_element(zoo.r2(), "v"))
    a2_elem = write_element(tmp_path, zoo.a2(), vertex_element(zoo.a2(), zoo.a2().vertices[0]), "a2e.json")
    return {
        "classify": ["classify", "--graph", r2, "--format", "text"],
        "witness": ["witness", "--graph", r2, "--element", elem],
        "normalize": ["normalize", "--graph", r2, "--element", elem],
        "norm": ["norm", "--graph", a2, "--element", a2_elem, "--p", "1.5"],
        "remove-sources": ["transform", "remove-sources", "--graph", tail],
        "desingularize": ["transform", "desingularize", "--graph", omega, "--depth", "2"],
        "reachable": ["transform", "reachable", "--graph", r2, "--from", "v"],
        "complete": ["transform", "complete", "--graph", r2, "--subgraph", sub, "--format", "dot"],
    }


def test_each_call_parses_its_argv_once(capsys, tmp_path, monkeypatch):
    calls = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    for name, argv in valid_argvs(tmp_path).items():
        calls.clear()
        assert main(argv) == 0, (name, capsys.readouterr().err)
        assert calls == [f"leavitt-lab {' '.join(argv[:2 if argv[0] == 'transform' else 1])}"]
    capsys.readouterr()


def text_mode_read(path):
    """The reader that cli._read replaces: a text-mode read."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise errors.FormatError(f"cannot read {path}: {exc}") from exc


def read_outcome(read, path):
    try:
        return read(path)
    except errors.FormatError as exc:
        return f"error: {exc}"


GRAPH_TEXT = '{"vertices": ["v"],\n "edges": [{"id": "e", "src": "v", "dst": "v"}]}\n'
READ_FILES = {
    "crlf-syntax-error": GRAPH_TEXT.replace("\n", "\r\n").replace("]}", "}").encode(),
    "cr-syntax-error": GRAPH_TEXT.replace("\n", "\r").replace("]}", "}").encode(),
    "crlf-valid": GRAPH_TEXT.replace("\n", "\r\n").encode(),
    "cr-mixed": GRAPH_TEXT.replace(",", ",\r\r\n\n\r").encode(),
    "bom": b"\xef\xbb\xbf" + GRAPH_TEXT.encode(),
    "ff-at-90002": (b" " * 90_002 + b"\xff" + b" " * 1000),
    "non-ascii-id": GRAPH_TEXT.replace('"v"', '"vé中"').encode(),
}


@pytest.mark.parametrize("name", [*READ_FILES, "directory", "missing"])
def test_read_gives_the_text_and_errors_of_a_text_mode_read(capsys, tmp_path, monkeypatch, name):
    path = tmp_path / name
    if name == "directory":
        path.mkdir()
    elif name != "missing":
        path.write_bytes(READ_FILES[name])
    expected = read_outcome(text_mode_read, str(path))
    assert read_outcome(cli._read, str(path)) == expected
    # and classify prints the same verdict or the same one error line
    argv = ["classify", "--graph", str(path)]
    got = run(capsys, argv)
    monkeypatch.setattr(cli, "_read", text_mode_read)
    assert got == run(capsys, argv)
    if name in ("crlf-syntax-error", "cr-syntax-error"):
        assert "(char " in got[2]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from([b"\r", b"\n", b"\r\n", b"a", "é".encode(), b"\xff", b"\xef\xbb\xbf", b"\xe4\xb8"])))
def test_read_agrees_with_a_text_mode_read_on_any_bytes(tmp_path_factory, chunks):
    path = tmp_path_factory.mktemp("read") / "input"
    path.write_bytes(b"".join(chunks))
    assert read_outcome(cli._read, str(path)) == read_outcome(text_mode_read, str(path))


class _UnwritableStream(io.StringIO):
    def write(self, text):
        raise OSError(28, "No space left on device")


def test_a_failed_stdout_write_exits_2_with_one_line(r2_file):
    out, err = _UnwritableStream(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["classify", "--graph", r2_file])
    assert (code, err.getvalue()) == (2, "error: cannot write stdout: [Errno 28] No space left on device\n")


def unwritable_stdout_outcome(tmp_path, argv, stdout, unbuffered):
    env = child_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.run(
        [sys.executable, "-m", "leavitt_lab", *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
    )
    return proc.returncode, proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("name", ["classify", "witness", "complete"])
def test_stdout_on_a_full_disk_exits_2_without_a_traceback(tmp_path, name, unbuffered):
    argv = valid_argvs(tmp_path)[name]
    with open("/dev/full", "w") as full:
        code, err = unwritable_stdout_outcome(tmp_path, argv, full, unbuffered)
    assert "Traceback" not in err and "Exception ignored" not in err and code in README_EXIT_CODES
    assert (code, err) == (2, "error: cannot write stdout: [Errno 28] No space left on device\n")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_stdout_into_a_closed_pipe_exits_2_without_a_traceback(tmp_path, unbuffered):
    argv = valid_argvs(tmp_path)["normalize"]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        code, err = unwritable_stdout_outcome(tmp_path, argv, write_end, unbuffered)
    finally:
        os.close(write_end)
    assert "Traceback" not in err and "Exception ignored" not in err and code in README_EXIT_CODES
    assert (code, err) == (2, "error: cannot write stdout: [Errno 32] Broken pipe\n")


def test_an_error_with_stderr_closed_still_exits_with_its_code(tmp_path):
    missing = str(tmp_path / "missing.json")
    # a child started with fd 2 closed has sys.stderr None: the error line is
    # dropped, not written to stdout
    proc = subprocess.run(
        [sys.executable, "-m", "leavitt_lab", "classify", "--graph", missing],
        stdout=subprocess.PIPE, env=child_env(), timeout=120, preexec_fn=lambda: os.close(2),
    )
    assert (proc.returncode, proc.stdout) == (2, b"")
    # a stderr whose write fails (a descriptor closed after start) is skipped too
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(_UnwritableStream()):
        assert main(["classify", "--graph", missing]) == 2
    assert out.getvalue() == ""
