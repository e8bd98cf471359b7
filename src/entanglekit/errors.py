"""Exception types shared across the package."""


class SchemaError(ValueError):
    """A state file is structurally malformed (wrong shape, type, or field).

    ``location`` is a JSONPath-style pointer to the offending element.
    """

    def __init__(self, message: str, location: str = "$"):
        super().__init__(f"{location}: {message}")
        self.location = location


class ZeroVectorError(ValueError):
    """An operation that needs a nonzero vector received the zero vector."""


class InternalConsistencyError(RuntimeError):
    """A result contradicts what its construction guarantees.

    Raised only by ``quantum.expectation``, when the expectation of a
    Hermitian observable comes out with an imaginary part beyond the
    tolerance; this signals a bug, never a property of the input state.
    """
