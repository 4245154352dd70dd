"""Error types and the integer argument check shared across the package.

Invalid arguments raise the builtin ValueError, or TypeError when they are
not integers.  Requests that are well-formed but would blow past a size or
budget cap raise ResourceLimitError so callers can tell the two apart.
"""

import operator


class ResourceLimitError(RuntimeError):
    """A computation was refused because it exceeds a configured size cap."""


def as_int(value: object, what: str) -> int:
    """value as a plain int (numpy integers included); bool and floats raise."""
    if isinstance(value, bool):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return operator.index(value)
