"""Exception types shared across the package; any other invalid input raises ``ValueError``."""


class SchemaError(ValueError):
    """A state file is structurally malformed (wrong shape, type, or field).

    ``location`` is a JSONPath-style pointer to the offending element.
    """

    def __init__(self, message: str, location: str = "$"):
        super().__init__(f"{location}: {message}")
        self.location = location


class ZeroVectorError(ValueError):
    """An operation that needs a nonzero vector received the zero vector."""
