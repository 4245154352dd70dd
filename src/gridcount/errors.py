"""Error types and the integer argument rule shared across the package.

Every integer argument goes through as_int: Python and numpy integers
become plain ints, bools and floats raise TypeError, and a value below
the argument's least raises ValueError("<what> must be >= <least>, got
<value>").  Requests that are well-formed but would blow past a size or
budget cap raise ResourceLimitError so callers can tell the two apart.
"""

import operator


class ResourceLimitError(RuntimeError):
    """A computation was refused because it exceeds a configured size cap."""


def as_int(value: object, what: str, least: int | None = None) -> int:
    """value as a plain int (numpy integers included), >= least if given."""
    if isinstance(value, bool):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    value = operator.index(value)
    if least is not None and value < least:
        raise ValueError(f"{what} must be >= {least}, got {value}")
    return value
