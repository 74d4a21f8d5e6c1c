"""Good cyclic orders of the matching graph's vertices.

A cyclic arrangement of the 2n vertices of M_n is *good* when every
pair of partners sits exactly n positions apart.  Rotation classes are
represented uniquely by pinning vertex 2n to position 2n, which forces
vertex n to position n; there are 2^(n-1) * (n-1)! such normalized
orders, each fixed by its positions 1..n-1.  One enumerator lays them
out as byte rows, each checked by the rule the order type applies; the
count, ``saturation_sweep`` and the order objects read those rows as
they are made, and nothing keeps them.  The moves act on seqs as
position maps, whose orbit from the identity ``families._orbit`` walks,
as the symmetry search does.  Every length-r window of a good order
(all 2n are listed in one rolling pass) is a member of the union
family: an independent set when r <= n, a covering set when r >= n.

Saturation ties the two layers together: an order is saturated by a
family when the maximum possible number (r) of family members appear
as windows, and the common-index machinery from :mod:`matchwise.arcs`
then pins all of them to one shared position.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from itertools import permutations

from .arcs import IntervalFamily, common_index
from .errors import (CapacityError, IntegrityError, MatchwiseError, ParameterError,
                     require_arity, require_int, require_mask, require_type)
from .families import MatchingGraph, UniformFamily, _orbit, is_k_wise_intersecting


@dataclass(frozen=True)
class GoodCyclicOrder:
    """A normalized good cyclic order; seq[p-1] is the vertex at position p."""

    n: int
    seq: tuple[int, ...]

    def __post_init__(self) -> None:
        n, seq = self.n, self.seq
        require_int("n", n)  # before the cache, where 3.0 would find 3
        _layout(n)  # so a bad n is reported before a bad seq
        # bool and float labels compare equal to ints, so check the type too
        if type(seq) is not tuple or set(map(type, seq)) != {int}:
            raise ParameterError(f"seq must be a tuple permuting the int labels 1..{2 * n}")
        _check_row(n, seq, ParameterError)

    @property
    def size(self) -> int:
        return 2 * self.n

    def serialize(self) -> str:
        return ",".join(str(v) for v in self.seq)


@functools.cache
def _layout(n: int) -> tuple[int, frozenset[int], bytes, bytes]:
    """M_n's vertex count, its labels 1..2n and two byte translation
    tables, built once per n: ``partner[v]`` is v's partner and
    ``edge[v]`` the edge (1..n) that v lies on; both map every other byte
    to 0.  Callers check that n is an int first."""
    size = MatchingGraph(n).vertex_count
    edges = range(1, n + 1)
    partner = bytes((0, *range(n + 1, size + 1), *edges)).ljust(256, b"\0")
    edge = bytes((0, *edges, *edges)).ljust(256, b"\0")
    return size, frozenset(range(1, size + 1)), partner, edge


def _check_row(n: int, seq, error: type[MatchwiseError]) -> None:
    """The rule every normalized good order's seq (a tuple of ints or a
    bytes row) obeys: the labels 1..2n once each, each vertex's partner n
    positions after it, and vertex 2n last.  A breach raises ``error``.

    Partners are compared through the edge table alone, never the
    partner table that builds the rows: with distinct labels, two
    vertices on one edge are partners.
    """
    size, labels, _, edge = _layout(n)
    if len(seq) != size or set(seq) != labels:
        raise error(f"seq must be a tuple permuting the int labels 1..{size}")
    row = bytes(seq)                # every label is now below 256
    if row[:n].translate(edge) != row[n:].translate(edge):
        p = next(p for p in range(n) if edge[row[p]] != edge[row[p + n]])
        raise error(f"partners must sit exactly {n} apart; violated at position {p + 1}")
    if row[-1] != size:
        raise error(f"normalization pins vertex {size} to position {size}")


def identity_order(n: int) -> GoodCyclicOrder:
    return GoodCyclicOrder(n, tuple(range(1, 2 * n + 1)))


def normalize_rotation(n: int, seq: tuple[int, ...]) -> GoodCyclicOrder:
    """Rotate an arbitrary good arrangement so vertex 2n lands at position 2n."""
    require_int("n", n)
    size = 2 * n
    if not isinstance(seq, (tuple, list)) or len(seq) != size or size not in seq:
        raise ParameterError(
            f"an arrangement has {size} positions, one of them vertex {size}")
    after = seq.index(size) + 1         # the position that comes to 1
    return GoodCyclicOrder(n, tuple(seq[after:] + seq[:after]))


def good_order_count(n: int) -> int:
    """Number of normalized good cyclic orders: 2^(n-1) * (n-1)!."""
    MatchingGraph(n)
    return (1 << (n - 1)) * math.factorial(n - 1)


def _require_enumerable(n: int) -> None:
    MatchingGraph(n)
    if n > 8:
        raise CapacityError(f"enumeration is supported for n <= 8, got n={n}")


def _order_rows(n: int):
    """Yield the seq of every normalized good order once, as ``bytes``.

    Positions 1..n-1 take one endpoint from each of the edges 1..n-1 (a
    permutation choosing the slot, one bit per slot choosing the
    endpoint), position n takes vertex n, and the second half is forced
    by the partner constraint.  The first half is built as one integer,
    a byte per position: the permutation's bytes plus, for each set bit,
    n in that slot's byte.  Each row is checked by :func:`_check_row`;
    one that breaks the rule raises IntegrityError.
    """
    _require_enumerable(n)
    partner = _layout(n)[2]
    offsets = [sum(n << 8 * slot for slot in range(n - 1) if bits >> slot & 1)
               for bits in range(1 << (n - 1))]
    for perm in permutations(range(1, n)):
        base = int.from_bytes(bytes((*perm, n)), "little")
        for offset in offsets:
            half = (base + offset).to_bytes(n, "little")
            row = half + half.translate(partner)
            _check_row(n, row, IntegrityError)
            yield row


def enumerate_good_orders(n: int):
    """Yield every normalized good cyclic order exactly once, in the
    order of the checked rows of :func:`_order_rows`, each validated
    again as a ``GoodCyclicOrder``."""
    for row in _order_rows(n):
        yield GoodCyclicOrder(n, tuple(row))


def enumerated_order_count(n: int) -> int:
    """How many normalized good orders the enumerator yields, each checked
    as a row and none built as a ``GoodCyclicOrder``."""
    return sum(1 for _ in _order_rows(n))


# ---------------------------------------------------------------------------
# windows (intervals) of an order
# ---------------------------------------------------------------------------

def intervals(order: GoodCyclicOrder, r: int) -> list[tuple[int, int]]:
    """All 2n length-r windows as (start position, vertex bitmask), each
    the previous one minus the leaving vertex plus the entering one."""
    require_type("order", order, GoodCyclicOrder)
    size = order.size
    require_int("r", r)
    if not 1 <= r < size:
        raise ParameterError(f"window length must satisfy 1 <= r < {size}, got {r}")
    return list(enumerate(_windows(order.seq, r), 1))


def _windows(seq, r: int) -> list[int]:
    """The masks of the length-r windows of ``seq`` (a tuple or a bytes
    row), the window starting at position p at index p-1: each the
    previous one minus the leaving vertex plus the entering one."""
    bits = [1 << v - 1 for v in seq]
    mask = sum(bits[:r])            # distinct bits, so the sum is their union
    out = []
    for leaving, entering in zip(bits, bits[r:] + bits[:r]):
        out.append(mask)
        mask ^= leaving ^ entering
    return out


def is_interval(order: GoodCyclicOrder, mask: int) -> int | None:
    """Start of the (unique) window equal to ``mask``, else None."""
    require_type("order", order, GoodCyclicOrder)
    size = order.size
    require_mask(mask)
    if mask >> size:
        raise ParameterError(f"set contains vertices beyond {size}")
    count = mask.bit_count()
    if not 1 <= count < size:
        raise ParameterError(
            f"set size must be in 1..{size - 1}, got {count}")
    windows = _windows(order.seq, count)
    return windows.index(mask) + 1 if mask in windows else None


def orders_containing_count(n: int, r: int) -> int:
    """In how many normalized good orders a fixed union-family member
    appears as a window: s! (n-s)! 2^(n-s) with s = min(r, 2n-r), since
    a window's complement in a good order is a window too."""
    MatchingGraph(n)
    require_int("r", r)
    if not 1 <= r < 2 * n:
        raise ParameterError(f"need 1 <= r < 2n, got r={r}, n={n}")
    s = min(r, 2 * n - r)
    return math.factorial(s) * math.factorial(n - s) * (1 << (n - s))


def counting_bound(n: int, r: int) -> int:
    """The double-counting quotient r * #orders / #orders-per-member.

    Each order carries at most r members as windows, and each member
    appears in the same number of orders, so the quotient bounds any
    admissible family size.  The division is exact; a remainder would
    mean one of the counting formulas is wrong.
    """
    denominator = orders_containing_count(n, r)  # checks n and r
    numerator = r * good_order_count(n)
    q, rem = divmod(numerator, denominator)
    if rem:
        raise IntegrityError(
            f"double-counting quotient is not an integer for n={n}, r={r}")
    return q


# ---------------------------------------------------------------------------
# moves
# ---------------------------------------------------------------------------

def _position_map(n: int, *swaps: tuple[int, int]) -> operator.itemgetter:
    """The move exchanging each pair of positions in ``swaps`` as a map
    from a seq to the moved seq (a tuple)."""
    source = list(range(2 * n))
    for p, q in swaps:
        source[p - 1], source[q - 1] = source[q - 1], source[p - 1]
    return operator.itemgetter(*source)


@functools.cache
def _move_maps(n: int) -> tuple[operator.itemgetter, ...]:
    """The moves T_1..T_(n-2), then W_(n-1), as position maps, built once
    per n.  Callers check n first.

    Each map is validated once, on the identity order: a position map
    that takes it to a normalized good order fixes position 2n and moves
    positions p and p+n together, so it takes every normalized good
    order to one.
    """
    maps = [_position_map(n, (i, i + 1), (i + n, i + n + 1)) for i in range(1, n - 1)]
    if n >= 2:
        maps.append(_position_map(n, (n - 1, 2 * n - 1)))
    identity = identity_order(n).seq
    for move in maps:
        GoodCyclicOrder(n, move(identity))
    return tuple(maps)


def transpose(order: GoodCyclicOrder, i: int) -> GoodCyclicOrder:
    """Swap positions i, i+1 and their partner positions i+n, i+n+1."""
    require_type("order", order, GoodCyclicOrder)
    n = order.n
    require_int("i", i)
    if not 1 <= i <= n - 2:
        raise ParameterError(f"transposition index must be in 1..{n - 2}, got {i}")
    return GoodCyclicOrder(n, _move_maps(n)[i - 1](order.seq))


def swap_halves(order: GoodCyclicOrder, i: int) -> GoodCyclicOrder:
    """Exchange the vertices at positions i and n+i (a partner swap)."""
    require_type("order", order, GoodCyclicOrder)
    n = order.n
    require_int("i", i)
    if not 1 <= i <= n - 1:
        raise ParameterError(f"swap index must be in 1..{n - 1}, got {i}")
    return GoodCyclicOrder(n, _position_map(n, (i, i + n))(order.seq))


@dataclass(frozen=True)
class ConnectivityReport:
    connected: bool
    orbit_size: int
    expected: int


def connectivity_check(n: int) -> ConnectivityReport:
    """The orbit of the identity order under {T_1..T_(n-2), W_(n-1)}.

    Connected means the move set reaches every normalized good order.
    ``families._orbit`` walks the orbit of the identity's seq under the
    position maps; each seq in it is then checked by :func:`_check_row`
    (a breach raises ParameterError, as the order's constructor would).
    """
    MatchingGraph(n)
    if n > 7:
        raise CapacityError(f"connectivity check is supported for n <= 7, got n={n}")
    orbit = _orbit(identity_order(n).seq, _move_maps(n), lambda seq, move: move(seq))
    for seq in orbit:
        _check_row(n, seq, ParameterError)
    expected = good_order_count(n)
    return ConnectivityReport(len(orbit) == expected, len(orbit), expected)


# ---------------------------------------------------------------------------
# constructing an order around a given member
# ---------------------------------------------------------------------------

def construct_order_containing(n: int, r: int, member_mask: int) -> GoodCyclicOrder:
    """A normalized good order in which the given member is a window.

    The member must belong to the union family, contain vertex 2n, and
    have n <= r < 2n.  Positions 1..n take the low endpoint of each of
    its r-n full edges, then its 2n-r single vertices, both in ascending
    label order; positions n+1..2n take their partners, so positions
    1..r are the member.  Rotating vertex 2n to position 2n normalizes
    the order.  The postcondition is checked with :func:`is_interval`.
    """
    graph = MatchingGraph(n)
    size, _, partner, _ = _layout(n)
    require_int("r", r)
    require_int("member_mask", member_mask)
    if not n <= r < size:
        raise ParameterError(f"need n <= r < 2n, got r={r}, n={n}")
    if member_mask.bit_count() != r:
        raise ParameterError(
            f"member has {member_mask.bit_count()} vertices, expected r={r}")
    if not member_mask >> (size - 1) & 1:
        raise ParameterError(f"member must contain vertex {size}")
    if not graph.covers_all_edges(member_mask):
        raise ParameterError("member must meet every edge (union-family membership)")

    full = [e for e in range(1, n + 1) if member_mask >> (e - 1) & 1
            and member_mask >> (e + n - 1) & 1]
    singles = [v for v in range(1, size + 1) if member_mask >> (v - 1) & 1
               and not member_mask >> (partner[v] - 1) & 1]
    half = full + singles
    order = normalize_rotation(n, half + [partner[v] for v in half])
    if is_interval(order, member_mask) is None:
        raise IntegrityError("constructed order does not contain the member as "
                             "a window; construction bug")
    return order


# ---------------------------------------------------------------------------
# saturation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SaturationStatus:
    saturated: bool
    member_interval_count: int
    common_position: int | None = None
    common_vertex: int | None = None


def _saturate(n: int, seqs, fam: UniformFamily, k: int) -> tuple[SaturationStatus, ...]:
    """The saturation status of each of ``seqs`` (tuples or bytes rows)
    under ``fam``, in order.

    The family is checked once, before any seq is read: it must lie in
    the union family at its cardinality r with k*r < (k-1)*2n strictly.
    :func:`common_index` (a function of the member starts alone) runs
    once per distinct tuple of starts, and each distinct outcome is one
    shared status.
    """
    graph = MatchingGraph(n)
    size, r = graph.vertex_count, fam.r
    if fam.universe_size != size:
        raise ParameterError("family universe does not match the order's graph")
    if not 1 <= r < size:
        raise ParameterError(f"need 1 <= r < 2n, got r={r}")
    if k * r >= (k - 1) * size:
        raise ParameterError(
            f"saturation analysis needs k*r < (k-1)*2n strictly, got k={k}, r={r}, n={n}")
    for s in fam.sets:
        if graph.full_edge_count(s) != max(0, r - n):
            raise ParameterError(
                f"family member {s:#x} is not in the union family for r={r}")
    members = frozenset(fam.sets)
    common = {}                     # member starts -> their common position
    shared = {}                     # a status's fields -> the status
    out = []
    for seq in seqs:
        starts = tuple(p for p, mask in enumerate(_windows(seq, r), 1) if mask in members)
        if len(starts) > r:
            raise IntegrityError(
                f"{len(starts)} members appear as windows but at most {r} are "
                "possible for a k-wise intersecting family")
        if len(starts) < r:
            key = False, len(starts)
        else:
            if starts not in common:
                common[starts] = common_index(IntervalFamily(size, r, starts), k)
            position = common[starts]
            key = True, r, position, seq[position - 1]
        if key not in shared:
            shared[key] = SaturationStatus(*key)
        out.append(shared[key])
    return tuple(out)


def saturation(order: GoodCyclicOrder, fam: UniformFamily,
               k: int) -> SaturationStatus:
    """Count family members appearing as windows of the order.

    The family must lie in the union family at its cardinality r, with
    k*r < (k-1)*2n strictly, and is trusted to be k-wise intersecting.
    At most r members can be windows; exactly r means the order is
    saturated, and the common-index extraction then recovers the
    position (and vertex) shared by all of them.  A count above r is
    impossible for a k-wise intersecting family, so it raises
    IntegrityError.  To check a family against every order, use
    :func:`saturation_sweep`, which checks the family once.
    """
    require_type("order", order, GoodCyclicOrder)
    require_type("fam", fam, UniformFamily)
    require_arity(k)
    return _saturate(order.n, [order.seq], fam, k)[0]


def saturation_sweep(n: int, fam: UniformFamily, k: int) -> tuple[SaturationStatus, ...]:
    """``saturation(order, fam, k)`` for every order of
    :func:`enumerate_good_orders`, in its order, with the same outcomes
    and exceptions.

    The arguments and the family are checked once, before any order is
    read; the orders are then read from the enumerator one checked row
    at a time, and no row is kept.
    """
    _require_enumerable(n)
    require_type("fam", fam, UniformFamily)
    require_arity(k)
    return _saturate(n, _order_rows(n), fam, k)


@dataclass(frozen=True)
class MoveLemmaReport:
    """Of the ``cases`` (move, candidate centre) pairs tried on the identity
    order, ``survivors`` were not ruled out; the lemma holds when none is."""

    holds: bool
    cases: int
    survivors: int


def move_lemma_check(n: int, r: int, k: int) -> MoveLemmaReport:
    """Check the local move lemma for every k-wise intersecting family.

    The lemma: if an extremal family is centred at vertex 2n in a good
    order σ, it is centred at 2n in μ(σ) for each move μ in
    {T_1..T_(n-2), W_(n-1)}.  Such a family saturates every order, so
    among σ's windows it holds exactly A, the r windows through 2n, and
    among μ(σ)'s exactly B, the r windows through μ(σ)'s centre v'.  A
    candidate v' != 2n is ruled out when A and B disagree on a window
    the two orders share, or when A ∪ B is not k-wise intersecting; the
    lemma holds when no (σ, μ, v') survives.

    The identity order σ0 decides every σ: σ = g∘σ0 for exactly one
    automorphism g of M_n fixing 2n (p ↦ σ[p]), μ(gσ0) = g(μσ0) as moves
    act on positions and g on labels, and relabelling keeps windows,
    "through 2n" and k-wise intersection.  Needs n <= r < 2n (below
    r = n the lemma is false) and k*r < (k-1)*2n strictly.
    """
    size = MatchingGraph(n).vertex_count
    require_int("r", r)
    require_arity(k)
    if not n <= r < size:
        raise ParameterError(f"the move lemma needs n <= r < 2n, got r={r}, n={n}")
    if k * r >= (k - 1) * size:
        raise ParameterError(
            f"the move lemma needs k*r < (k-1)*2n strictly, got k={k}, r={r}, n={n}")
    cases = survivors = 0
    seq = identity_order(n).seq
    windows = set(_windows(seq, r))
    through_2n = {mask for mask in windows if mask >> (size - 1)}
    for move in _move_maps(n):
        moved_windows = _windows(move(seq), r)
        shared = windows.intersection(moved_windows)
        expected = through_2n & shared
        for v in range(1, size):
            cases += 1
            through_v = {mask for mask in moved_windows if mask >> (v - 1) & 1}
            if (through_v & shared == expected and is_k_wise_intersecting(
                    UniformFamily.from_masks(size, r, through_2n | through_v), k)):
                survivors += 1
    return MoveLemmaReport(survivors == 0, cases, survivors)
