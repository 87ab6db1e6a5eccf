"""Exception types shared across the pipeline."""


class CorenameError(Exception):
    """Base class for all pipeline errors (CLI maps these to exit code 2)."""


class InvalidIdentifier(CorenameError):
    """Raised for empty names, all-separator names, or illegal characters."""


class ParseError(CorenameError):
    """Malformed input; carries the file and the 1-based line number when
    known."""

    def __init__(self, message, line=None, source=None):
        if line is not None:
            message = f"line {line}: {message}"
        if source is not None:
            message = f"{source}: {message}"
        super().__init__(message)
        self.line = line
        self.source = source


class UnknownKind(ParseError):
    """Rename record names an identifier kind outside the supported five."""


class RepoError(CorenameError):
    """Version-control repository is missing, unreadable, or not a repo."""


class DegenerateResult(CorenameError):
    """Applying a chunk would leave an identifier with zero words."""


class NoDataError(CorenameError):
    """A result was requested from no data, such as a prior profile from
    relationship rates that are all empty."""
