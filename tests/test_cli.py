import argparse
import json
import os
import subprocess
import sys
import time

import pytest

import leavitt_lab
from conftest import source_tail_into_rose
from leavitt_lab import errors, transforms, zoo
from leavitt_lab.cli import COMMANDS, build_parser, main
from leavitt_lab.graph import Graph, graph_from_json, graph_to_json
from leavitt_lab.lpa import element_from_json, element_to_json, path_element, vertex_element, zero


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
    same leavitt_lab this process imported, installed or from source."""
    package_root = os.path.dirname(os.path.dirname(leavitt_lab.__file__))
    return {"PYTHONHASHSEED": hash_seed, "PATH": "/usr/bin:/bin:/usr/local/bin", "PYTHONPATH": package_root}


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


def test_classify_exit_3_on_empty(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"vertices":[],"edges":[]}')
    code, out, err = run(capsys, ["classify", "--graph", str(path)])
    assert code == 3


def test_classify_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, ["classify", "--graph", str(tmp_path / "none.json")])
    assert code == 2


def test_classify_frontier_flag(capsys, tmp_path):
    from leavitt_lab.transforms import desingularize

    truncated = desingularize(zoo.omega_spi(), 2)
    path = tmp_path / "trunc.json"
    path.write_text(graph_to_json(truncated))
    code, out, err = run(capsys, ["classify", "--graph", str(path)])
    assert code == 4
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
    from leavitt_lab.lpa import multiply

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


def test_witness_exit_5_on_zero(capsys, tmp_path, r2_file):
    elem = tmp_path / "zero.json"
    elem.write_text("[]")
    code, out, err = run(capsys, ["witness", "--graph", r2_file, "--element", str(elem)])
    assert code == 5


def test_witness_exit_4_with_hint_on_sources(capsys, tmp_path):
    g = zoo.source_into_rose()
    gp = tmp_path / "g.json"
    gp.write_text(graph_to_json(g))
    elem = write_element(tmp_path, g, vertex_element(g, "v"))
    code, out, err = run(capsys, ["witness", "--graph", str(gp), "--element", elem])
    assert code == 4
    assert "remove-sources" in err


def test_witness_exit_4_with_hint_on_omega(capsys, tmp_path):
    g = zoo.omega_spi()
    gp = tmp_path / "g.json"
    gp.write_text(graph_to_json(g))
    elem = write_element(tmp_path, g, vertex_element(g, "v"))
    code, out, err = run(capsys, ["witness", "--graph", str(gp), "--element", elem])
    assert code == 4
    assert "desingularize" in err


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


def test_norm_rejects_cyclic_graph(capsys, tmp_path, r2_file):
    g = zoo.r2()
    elem = write_element(tmp_path, g, vertex_element(g, "v"))
    code, out, err = run(capsys, ["norm", "--graph", r2_file, "--element", elem, "--p", "1"])
    assert code == 1


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
    errors.HasSources: 4,
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
SOURCES_HINT = "hint: run 'leavitt-lab transform remove-sources' first"
OMEGA_HINT = "hint: run 'leavitt-lab transform desingularize' first"


@pytest.mark.parametrize("command", ["witness", "norm"])
@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_error_exit_codes(capsys, monkeypatch, cls, command):
    def fail(args):
        raise cls("boom")

    monkeypatch.setitem(COMMANDS, command, fail)
    code, out, err = run(capsys, [command, "--graph", "g.json", "--element", "a.json"])
    omega_on_witness = cls is errors.OmegaUnsupported and command == "witness"
    assert code == (4 if omega_on_witness else EXIT_CODE.get(cls, 1))
    assert out == ""
    internal = "internal error: " if cls is errors.InternalError else ""
    assert err.splitlines()[0] == f"error: {internal}boom"
    assert (SOURCES_HINT in err) == (cls is errors.HasSources)
    assert (OMEGA_HINT in err) == omega_on_witness


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
    )
    assert proc.returncode == 0
    assert "classify" in proc.stdout


def test_unknown_flags_rejected():
    proc = subprocess.run(
        [sys.executable, "-m", "leavitt_lab", "classify", "--graph", "x", "--bogus"],
        capture_output=True,
        text=True,
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

