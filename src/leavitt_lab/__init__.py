"""leavitt_lab: exact symbolic computation for Leavitt path algebras.

Graphs are finite presentations of countable directed graphs (omega pairs
stand for countably many parallel edges).  The package classifies the
simple / simple purely infinite / simple acyclic trichotomy, computes in the
algebra over the Gaussian rationals, realizes the degree-zero filtration as
matrix blocks, performs the standard graph surgeries, constructs exact
pure-infiniteness witnesses x·a·y = v, and evaluates l^p operator norms of
finite acyclic representations.

The submodules that export the public names below (``errors``, ``graph``,
``lpa``, ``matricial``, ``pnorm``, ``spi`` and ``transforms``) are lazy: they
sit in ``sys.modules`` and on the package from its import on, and each is
compiled and executed on the first read of one of its attributes, so a CLI
call runs only the modules it uses.  A public name is looked up in its
submodule on every read and never stored here.  ``__all__`` is read off
the table ``_EXPORTS``: building it reads no submodule attribute, so it
executes no submodule.  ``sample`` and ``zoo`` are plain submodules,
imported by name.
"""

import importlib.util
import sys


def _lazy_module(name: str):
    """The module ``name``, put in ``sys.modules`` and on its parent package
    now and executed on its first attribute read."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    parent, _, child = name.rpartition(".")
    if parent:
        # as after a plain import, so ``from . import graph`` executes nothing
        setattr(sys.modules[parent], child, module)
    return module


# each lazy submodule and the public names it exports
_EXPORTS = {
    "errors": ("LeavittError",),
    "graph": (
        "Classification", "Edge", "Graph", "Path", "Verdict", "classify_graph",
        "enumerate_paths", "graph_from_json", "graph_to_dot", "graph_to_json",
        "hereditary_saturated_closure",
    ),
    "lpa": (
        "Element", "GaussianRational", "Monomial", "degree_component",
        "element_from_json", "element_to_json", "gauss", "involute", "monomial_element",
        "multiply", "normalize_terms", "path_conjugate_sum", "path_element",
        "vertex_element", "vertex_sum", "zero",
    ),
    "matricial": (
        "BlockDecomposition", "BlockKey", "acyclic_decompose", "blockwise_product",
        "degree_zero_witness", "filtration_decompose",
    ),
    "pnorm": (
        "NormEstimate", "degree_component_quadrature_error", "element_norm_estimate",
        "power_iteration_lower_bound",
    ),
    "spi": (
        "CohnQuadruple", "EqualLengthFamily", "Witness", "annihilating_closed_path",
        "cohn_embedding", "equal_length_closed_paths", "spi_witness",
    ),
    "transforms": (
        "EmbeddingData", "complete_and_embed", "desingularize", "embed_element",
        "reachable_subgraph", "remove_sources",
    ),
}
_HOME = {
    name: _lazy_module(f"{__name__}.{module}")
    for module, names in _EXPORTS.items()
    for name in names
}


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


__version__ = "0.1.0"

__all__ = sorted(_HOME)
