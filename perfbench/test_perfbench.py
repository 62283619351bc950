"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import refgraph
from pace import Pace
from tracer import LAYERS, Tracer
from workloads import WORKLOADS, build, norm_check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_STATS = {"calls", "terms_in", "terms_out", "pairs", "cycles", "paths", "entries"}


def run_bench(workload, seed=3, trace=0, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(workload, trace):
    r = result(run_bench(workload, trace=trace))
    assert set(r) == {"correct", "attempted", "failed", "metrics"}
    assert r["correct"] is True and r["failed"] == 0 and r["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in r["metrics"].items()}
    if not trace:
        assert r["metrics"]["ok_frac"]["value"] == 1.0
        assert all(v["value"] > 0 for v in r["metrics"].values())


def test_declared_workloads_exist():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_traced_counts_repeat_at_one_seed():
    def counts():
        metrics = result(run_bench("witness", seed=5, trace=1))["metrics"]
        return {k: v["value"] for k, v in metrics.items() if k.rpartition(".")[2] in COUNT_STATS}

    first = counts()
    assert first["lpa.multiply.calls"] > 0 and first["graph.find_cycles.cycles"] > 0
    assert counts() == first


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_fixes_the_input_digest(workload):
    assert build(workload, 7).digest() == build(workload, 7).digest()
    assert build(workload, 7).digest() != build(workload, 8).digest()


def test_tracer_leaves_no_patched_binding(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    cli = importlib.import_module("leavitt_lab.cli")
    tracer = Tracer()
    originals = dict(tracer.originals)
    tracer.install()
    try:
        bound = tracer.binding_map()
        assert {"graph", "spi", "cli"} <= set(bound["graph.classify_graph"])
        assert {"lpa", "spi", "cli", "transforms"} <= set(bound["lpa.multiply"])
        assert set(bound) == set(LAYERS)
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps(refgraph.rose(2)))
        element = tmp_path / "a.json"
        element.write_text(json.dumps([refgraph.term("v", ["e"], "v", [])]))
        monkeypatch.setattr(sys, "stdout", sys.stderr)
        assert cli.main(["witness", "--graph", str(graph), "--element", str(element)]) == 0
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "spi.spi_witness", "lpa.multiply"} <= names
    assert tracer.stale_bindings(tracer.wrappers) == []
    assert tracer.binding_map() == bound
    for layer, fn in originals.items():
        module, name = layer.split(".")
        assert getattr(sys.modules[f"leavitt_lab.{module}"], name) is fn


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("classify", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_reference_classifier_on_known_graphs():
    brute, mk = refgraph.expected_classification, refgraph.make_graph
    assert brute(refgraph.rose(1)) == ("NotSimple", "cycle")
    assert brute(refgraph.rose(2)) == ("SimplePurelyInfinite", "cycle")
    assert brute(refgraph.line(2)) == ("SimpleAcyclic", "acyclic")
    assert brute(mk(["u", "v"], [])) == ("NotSimple", "hereditary_saturated")
    for g in refgraph.spi_fixtures().values():
        assert brute(g) == ("SimplePurelyInfinite", "cycle")
    # a 3-cycle feeding an exitless loop
    rand4a = mk(["p", "q", "r", "s"], [("g1", "p", "q"), ("g2", "q", "r"), ("g3", "r", "p"),
                                       ("g4", "r", "s"), ("g5", "s", "s")])
    assert brute(rand4a) == ("NotSimple", "cycle")
    # omega pairs: v emits infinitely many edges to w
    assert brute(mk(["v", "w"], [("f", "w", "v")], [("v", "w")])) == ("SimplePurelyInfinite", "cycle")
    assert brute(mk(["v", "w"], [], [("v", "w")])) == ("NotSimple", "hereditary_saturated")
    # a frontier stub is no closure seed
    stub = mk(["v", "w"], [("e", "v", "v"), ("f", "v", "w")], frontier=["w"])
    assert brute(stub) == ("SimplePurelyInfinite", "cycle")


def test_generated_elements_are_normal_forms():
    import random

    rng = random.Random(0)
    for g in refgraph.spi_fixtures().values():
        for _ in range(20):
            a = refgraph.random_element(g, rng, rng.randint(1, 12), 6)
            assert refgraph.normal_form_problem(g, a) is None
            assert refgraph.normal_form_problem(g, refgraph.star(a)) is None


def test_reference_l1_norm_sums_exact_entries_per_column():
    g = refgraph.line(2)  # v0 -e1-> v1 -e2-> v2
    t = refgraph.term
    a = [t("v0", ["e1"], "v0", ["e1"], "3/1", "0/1"), t("v1", [], "v0", ["e1"], "0/1", "4/1")]
    # both terms expand through e2 into the column e1e2 of the v2 block: |3| + |4i|
    assert refgraph.l1_norm(g, a) == 7.0
    # entries cancel before their absolute values are taken
    assert refgraph.l1_norm(g, a + [t("v0", ["e1"], "v0", ["e1"], "-3/1", "0/1")]) == 4.0
    # the involution moves the mass into two columns
    assert refgraph.l1_norm(g, refgraph.star(a)) == 4.0


def test_norm_check_rejects_a_wrong_exact_norm():
    check = norm_check(1.0, 7.0, 4.0)
    assert check(json.dumps({"norm": 7.0, "exact": True})) is None
    assert check(json.dumps({"norm": 4.0, "exact": True})) is not None
    assert check(json.dumps({"norm": 7.0, "exact": False})) is not None
    bound = 7.0 ** (1 / 3) * 4.0 ** (2 / 3)
    over = norm_check(3.0, 7.0, 4.0)(json.dumps({"lower_bound": bound * 1.01, "converged": True}))
    assert over is not None


def test_pace_scales_by_the_reference_time_around_an_interval():
    pace = Pace(lambda: None, 1e-3)
    pace.when = [float(t) for t in (*range(10), *range(20, 30))]
    pace.seconds = [2e-3] * 10 + [0.5e-3] * 10
    assert pace.factor(3.0, 5.0) == 0.5
    assert pace.factor(24.0, 25.0) == 2.0
    # an interval far from every sample falls back to the nearest ones
    assert pace.factor(100.0, 101.0) == 2.0
    pace.exponent = 0.5
    assert pace.factor(24.0, 25.0) == 2.0 ** 0.5
