"""leavitt_lab: exact symbolic computation for Leavitt path algebras.

Graphs are finite presentations of countable directed graphs (omega pairs
stand for countably many parallel edges).  The package classifies the
simple / simple purely infinite / simple acyclic trichotomy, computes in the
algebra over the Gaussian rationals, realizes the degree-zero filtration as
matrix blocks, performs the standard graph surgeries, constructs exact
pure-infiniteness witnesses x·a·y = v, and evaluates l^p operator norms of
finite acyclic representations.
"""

from .errors import LeavittError
from .graph import (
    Classification,
    Edge,
    Graph,
    Path,
    Verdict,
    classify_graph,
    enumerate_paths,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    hereditary_saturated_closure,
)
from .lpa import (
    Element,
    GaussianRational,
    Monomial,
    degree_component,
    element_from_json,
    element_to_json,
    gauss,
    involute,
    monomial_element,
    multiply,
    normalize_terms,
    path_conjugate_sum,
    path_element,
    vertex_element,
    vertex_sum,
    zero,
)
from .matricial import (
    BlockDecomposition,
    BlockKey,
    acyclic_decompose,
    blockwise_product,
    degree_zero_witness,
    filtration_decompose,
)
from .pnorm import (
    NormEstimate,
    degree_component_quadrature_error,
    element_norm_estimate,
    power_iteration_lower_bound,
)
from .spi import (
    CohnQuadruple,
    EqualLengthFamily,
    Witness,
    annihilating_closed_path,
    cohn_embedding,
    equal_length_closed_paths,
    spi_witness,
)
from .transforms import (
    EmbeddingData,
    complete_and_embed,
    desingularize,
    embed_element,
    reachable_subgraph,
    remove_sources,
)

__version__ = "0.1.0"

__all__ = [
    "BlockDecomposition",
    "BlockKey",
    "Classification",
    "CohnQuadruple",
    "Edge",
    "Element",
    "EmbeddingData",
    "EqualLengthFamily",
    "GaussianRational",
    "Graph",
    "LeavittError",
    "Monomial",
    "NormEstimate",
    "Path",
    "Verdict",
    "Witness",
    "acyclic_decompose",
    "annihilating_closed_path",
    "blockwise_product",
    "classify_graph",
    "cohn_embedding",
    "complete_and_embed",
    "degree_component",
    "degree_component_quadrature_error",
    "degree_zero_witness",
    "desingularize",
    "element_from_json",
    "element_norm_estimate",
    "element_to_json",
    "embed_element",
    "enumerate_paths",
    "equal_length_closed_paths",
    "filtration_decompose",
    "gauss",
    "graph_from_json",
    "graph_to_dot",
    "graph_to_json",
    "hereditary_saturated_closure",
    "involute",
    "monomial_element",
    "multiply",
    "normalize_terms",
    "path_conjugate_sum",
    "path_element",
    "power_iteration_lower_bound",
    "reachable_subgraph",
    "remove_sources",
    "spi_witness",
    "vertex_element",
    "vertex_sum",
    "zero",
]
