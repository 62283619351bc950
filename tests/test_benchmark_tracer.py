"""The benchmark's span tracer (perfbench/tracer.py) can patch every function
it traces, so a traced function that is deleted, renamed or bound where the
tracer cannot reach it fails here, not only in the benchmark's own tests."""

import importlib
import importlib.util
import os
import sys

TRACER = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracer.py"
)


def load_tracer():
    """perfbench/tracer.py as a module, by path and outside ``sys.modules``;
    no bytecode is written next to it (conftest sets dont_write_bytecode)."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_tracer_patches_every_traced_function():
    tracer_module = load_tracer()
    package = tracer_module.PACKAGE
    for layer in tracer_module.LAYERS:
        importlib.import_module(f"{package}.{layer.partition('.')[0]}")
    # looks each traced function up by module and name
    tracer = tracer_module.Tracer()
    originals = dict(tracer.originals)
    # raises when a binding of a traced function is left unpatched
    tracer.install()
    try:
        assert set(tracer.binding_map()) == set(tracer_module.LAYERS)
    finally:
        # raises when a wrapper is left behind
        tracer.uninstall()
    for layer, fn in originals.items():
        module, name = layer.split(".")
        assert getattr(sys.modules[f"{package}.{module}"], name) is fn
