"""Error hierarchy shared by all matchwise modules.

The three classes map to distinct CLI exit codes (see SCHEMA.md):
parameter 2, capacity 3, integrity 4.  The argument checks every layer
shares live here too, so the arc layer needs no matching-layer import:
:func:`require_int_in` holds the rule that a non-int or a value outside
its documented range is a parameter error and a value above the
supported scale a capacity error, :data:`WIDTH` is that scale for
vertex sets (the most vertices, or circle positions, a bitmask holds), and
:func:`require_regime` is Frankl's hypothesis k*r <= (k-1)*N, which the
bounds, the arc lemma and the characterization rest on.
"""

WIDTH = 64  # the most vertices (or circle positions) a vertex set holds


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


def require_int_in(name: str, value: object, lo: int, hi: int | None = None,
                   cap: int | None = None) -> None:
    """Raise ``ParameterError`` unless ``value`` is an ``int`` (not a bool)
    in lo..hi (no upper end when ``hi`` is None), and ``CapacityError``
    when it is above ``cap``, the largest value supported."""
    if type(value) is not int:  # bool is an int subclass
        raise ParameterError(f"{name} must be an int, got {value!r}")
    if value < lo or hi is not None and value > hi:
        raise ParameterError(f"{name} must be at least {lo}, got {value}" if hi is None
                             else f"{name} must be in {lo}..{hi}, got {value}")
    if cap is not None and value > cap:
        raise CapacityError(f"{name} is supported up to {cap}, got {value}")


def require_arity(k: object) -> None:
    """Raise ``ParameterError`` unless the arity k is an int of at least 2."""
    if type(k) is not int or k < 2:  # the arc kernels call this per family
        require_int_in("k", k, 2)


def require_regime(k: int, r: int, size: int, strict: bool, what: str) -> None:
    """Raise ``ParameterError`` unless k*r <= (k-1)*size, or k*r <
    (k-1)*size when ``strict``: Frankl's regime for r-sets of a ground set
    of ``size`` vertices (the arcs of a circle of ``size`` positions)."""
    if k * r > (k - 1) * size - strict:
        raise ParameterError(
            f"{what} needs k*r {'<' if strict else '<='} (k-1)*{size}"
            f"{' strictly' if strict else ''}, got k={k}, r={r}")
