"""Exception types shared across the package."""


class IdstabError(Exception):
    """Base class for every error this package raises deliberately."""


class OrderTooLarge(IdstabError):
    """A graph, product, or decoded input would exceed the 64-vertex cap."""


class VertexOutOfRange(IdstabError):
    """A vertex label or vertex set does not fit the graph it was used with."""


class LoopEdge(IdstabError):
    """An edge (v, v) was supplied; graphs here are loop-free."""


class EmptyGraph(IdstabError):
    """The operation is meaningless on the order-0 graph."""


class SpecInvalid(IdstabError):
    """A family spec has an unknown kind or parameters outside its domain."""


class EmptyLeft(IdstabError):
    """The corona operation needs a nonempty left operand."""


class TooLargeForOracle(IdstabError):
    """The definition-direct oracles only run on small graphs."""


class MalformedGraph6(IdstabError):
    """The text is not a well-formed graph6 encoding."""


class ParseError(IdstabError):
    """An edge-list document failed to parse; the message carries the line."""


class UnknownClaim(IdstabError):
    """No claim with the requested id is registered."""


class CorpusTooLarge(IdstabError):
    """The requested corpus exceeds the enumeration or pairing caps."""


class BadCorpusSource(IdstabError):
    """An input file cannot be read, or a corpus is empty or does not fit the claims."""


class InternalAuditError(IdstabError):
    """A violated outcome failed oracle re-verification; the audit is aborted."""
