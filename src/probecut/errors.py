"""Exception types shared across the package."""


class ProbeCutError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInstance(ProbeCutError):
    """A partitioned probe instance violates its invariants; a bad edge or
    certificate pair raises one of the two subclasses below."""


class InvalidEdge(InvalidInstance):
    """An edge references a missing vertex or is a self-loop, or n < 0."""


class InvalidCertificate(InvalidInstance):
    """A certificate pair is a loop or leaves the non-probe side."""


class UnsupportedPattern(ProbeCutError):
    """Pattern search only supports patterns on at most 8 vertices."""


class NotConnected(ProbeCutError):
    """Operation requires a connected graph."""


class NotCubic(ProbeCutError):
    """Operation requires a 3-regular input."""


class NoEdges(ProbeCutError):
    """Operation requires at least one edge."""


class NotBipartite(ProbeCutError):
    """Operation requires a bipartite graph with the supplied class."""


class GenerationTimeout(ProbeCutError):
    """Rejection sampling exhausted its attempt budget."""


class PartialColouring(ProbeCutError):
    """A total colouring was required but some vertex is uncoloured."""


class PreconditionViolation(ProbeCutError):
    """A completion routine was called outside its contract."""


class UnsupportedD(ProbeCutError):
    """The requested d is outside the sat4p1 construction's range, d >= 2."""


class OracleScaleExceeded(ProbeCutError):
    """Input is above the brute-force oracle's scale guard."""


class InvalidSatInstance(ProbeCutError):
    """A SAT instance fails the restricted occurrence/shape conditions."""


class ParseError(ProbeCutError):
    """Malformed instance text."""
