"""Exception types shared across the toolkit."""


class SignetError(Exception):
    """Base class for all toolkit errors."""


class SelfLoopError(SignetError):
    def __init__(self, u):
        super().__init__(f"self-loop on vertex {u}")
        self.vertex = u


class DuplicateEdgeError(SignetError):
    def __init__(self, u, v):
        super().__init__(f"duplicate undirected edge ({u}, {v})")
        self.edge = (u, v)


class EmptyGraphError(SignetError):
    pass


class ParseError(SignetError):
    def __init__(self, line_no, reason):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class MalformedRowError(ParseError):
    pass


class EmptyResultError(SignetError):
    pass


class DegenerateDegreesError(SignetError):
    pass


class NoCommonNeighborError(SignetError):
    pass


class RhoAtOneError(SignetError):
    pass


class StallError(SignetError):
    """The generator has no room for its edges: FCL could not place enough
    distinct edges, or the input leaves no pair to insert."""


class RetryExhaustedError(SignetError):
    """A generation step ran out of collision retries."""
