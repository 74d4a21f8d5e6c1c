"""Error hierarchy shared by all matchwise modules.

The three classes map to distinct CLI exit codes (see SCHEMA.md):
parameter 2, capacity 3, integrity 4.  The argument checks every layer
shares live here too, so the arc layer needs no matching-layer import.
"""


class MatchwiseError(Exception):
    """Base class for all matchwise errors."""


class ParameterError(MatchwiseError):
    """An argument violates a documented precondition."""


class CapacityError(MatchwiseError):
    """The instance exceeds the supported desk scale."""


class IntegrityError(MatchwiseError):
    """An internal consistency check failed.

    Raised when a procedure detects that its inputs could not have
    satisfied the stated preconditions (e.g. a family claimed to be
    k-wise intersecting produces a covering certificate), or when an
    implementation invariant is violated.
    """


def require_int(name: str, value: object) -> None:
    """Raise ``ParameterError`` unless ``value`` is an ``int`` (not a bool)."""
    if type(value) is not int:  # bool is an int subclass
        raise ParameterError(f"{name} must be an int, got {value!r}")


def require_mask(value: object) -> None:
    """Raise ``ParameterError`` unless ``value`` is a nonnegative int
    bitmask (a negative int has infinitely many set bits)."""
    require_int("mask", value)
    if value < 0:
        raise ParameterError(f"a mask is a nonnegative int, got {value}")


def require_type(name: str, value: object, cls: type) -> None:
    """Raise ``ParameterError`` unless ``value`` is an instance of ``cls``."""
    if not isinstance(value, cls):
        raise ParameterError(f"{name} must be of type {cls.__name__}, got {value!r}")


def require_arity(k: object) -> None:
    """Raise ``ParameterError`` unless the arity k is an int of at least 2."""
    require_int("k", k)
    if k < 2:
        raise ParameterError(f"k must be at least 2, got {k}")
