"""Exception hierarchy shared by all leavitt_lab modules."""


class LeavittError(Exception):
    """Base class for all domain errors raised by this package."""


class InternalError(LeavittError, RuntimeError):
    """An internal invariant failed: a defect in this package, not bad input."""


class FormatError(LeavittError):
    """Malformed JSON input (graph, element, or witness files)."""


class BudgetExceeded(LeavittError):
    """The request would build more than a fixed budget of objects."""


class FloatRange(LeavittError):
    """A floating-point computation leaves the finite doubles: an exact value
    too large to convert, an intermediate result that reaches inf or NaN, or
    a matrix handed to a norm kernel with an infinite or NaN entry."""


class EmptyGraph(LeavittError):
    """The operation requires a graph with at least one vertex."""


class FrontierPresent(LeavittError):
    """Graph carries truncation-frontier vertices and the caller asked to refuse them."""


class OmegaUnsupported(LeavittError):
    """Operation needs a finite edge set but the graph has countable parallel-edge families."""


class GraphMismatch(LeavittError):
    """Elements over two different graphs cannot be combined, or an element
    is read against a graph other than its own."""


class NotInFiltration(LeavittError):
    """Element does not lie in the requested degree-zero filtration stage."""


class NotAcyclic(LeavittError):
    """The graph has a cycle but the operation is defined for acyclic graphs only."""


class ZeroElement(LeavittError):
    """A nonzero element is required."""


class BecameEmpty(LeavittError):
    """Iterated source removal deleted every vertex."""


class NoInfiniteEmitters(LeavittError):
    """Desingularization requires at least one countable parallel-edge family."""


class UnknownVertex(LeavittError):
    """A vertex id is not part of the graph."""


class NotASubgraph(LeavittError):
    """The supplied graph is not a subgraph of the ambient graph."""


class NotSPI(LeavittError):
    """The graph does not classify as simple purely infinite."""


class NotCycleBase(LeavittError):
    """The vertex is not the base of any cycle."""


class NotDegreeFree(LeavittError):
    """The element has a nonzero degree-zero component."""


class EmptyMatrix(LeavittError):
    """Operator norms of empty matrices are undefined."""
