import json
import os
import subprocess
import sys

import pytest

import leavitt_lab
from leavitt_lab import zoo
from leavitt_lab.cli import main
from leavitt_lab.graph import graph_from_json, graph_to_json
from leavitt_lab.lpa import element_from_json, element_to_json, path_element, vertex_element


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
    code, out, err = run(capsys, ["norm", "--graph", a2_file, "--element", elem, "--p", "3"])
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
    assert "error:" in err


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


# ---------------------------------------------------------------------------
# determinism and round trips
# ---------------------------------------------------------------------------


def test_byte_identical_reruns(capsys, tmp_path, r2_file):
    g = zoo.r2()
    elem = write_element(tmp_path, g, path_element(g, ("e",)))
    outputs = set()
    for _ in range(3):
        code, out, err = run(capsys, ["witness", "--graph", r2_file, "--element", elem, "--seed", "0"])
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
    # a minimal env keeps stray variables (LEAVITT_LAB_THREADS, ...) out; the child
    # imports the same leavitt_lab this process imported, installed or from source
    package_root = os.path.dirname(os.path.dirname(leavitt_lab.__file__))
    outputs = set()
    for seed in ("0", "1", "31337"):
        proc = subprocess.run(
            [sys.executable, "-m", "leavitt_lab", "witness", "--graph", str(gp), "--element", str(elem)],
            capture_output=True,
            text=True,
            env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin:/usr/local/bin", "PYTHONPATH": package_root},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1


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
