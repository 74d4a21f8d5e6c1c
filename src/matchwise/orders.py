"""Good cyclic orders of the matching graph's vertices.

A cyclic arrangement of the 2n vertices of M_n is *good* when every
pair of partners sits exactly n positions apart.  Rotation classes are
represented uniquely by pinning vertex 2n to position 2n, which forces
vertex n to position n; there are 2^(n-1) * (n-1)! such normalized
orders, each fixed by its positions 1..n-1; :func:`_complete` alone
lays out the rest.  Every length-r window of a good order (all 2n are
listed in one rolling pass) is a member of the union family: an
independent set when r <= n, a covering set when r >= n.

Saturation ties the two layers together: an order is saturated by a
family when the maximum possible number (r) of family members appear
as windows, and the common-index machinery from :mod:`matchwise.arcs`
then pins all of them to one shared position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

from .arcs import IntervalFamily, common_index, wrap
from .errors import CapacityError, IntegrityError, ParameterError
from .families import MatchingGraph, UniformFamily


@dataclass(frozen=True)
class GoodCyclicOrder:
    """A normalized good cyclic order; seq[p-1] is the vertex at position p."""

    n: int
    seq: tuple[int, ...]

    def __post_init__(self) -> None:
        n, seq = self.n, self.seq
        size = MatchingGraph(n).vertex_count
        # bool and float labels compare equal to ints, so check the type too
        if (type(seq) is not tuple or len(seq) != size
                or set(map(type, seq)) != {int} or set(seq) != set(range(1, size + 1))):
            raise ParameterError(f"seq must be a tuple permuting the int labels 1..{size}")
        # in a permutation, labels n apart are partners; the partner map is
        # an involution, so the first half of the positions suffices
        for p in range(n):
            if abs(seq[p] - seq[p + n]) != n:
                raise ParameterError(
                    f"partners must sit exactly {n} apart; "
                    f"violated at position {p + 1}")
        if seq[-1] != size:
            raise ParameterError(f"normalization pins vertex {size} to position {size}")

    @property
    def size(self) -> int:
        return 2 * self.n

    def vertex_at(self, position: int) -> int:
        """The vertex at ``position``; every int position wraps."""
        if type(position) is not int:  # a bool is an int subclass
            raise ParameterError(f"positions are ints, got {position!r}")
        return self.seq[wrap(position, self.size) - 1]

    def position_of(self, vertex: int) -> int:
        if type(vertex) is not int or not 1 <= vertex <= self.size:
            raise ParameterError(
                f"vertex {vertex!r} is not an int label in 1..{self.size}")
        return self.seq.index(vertex) + 1

    def serialize(self) -> str:
        return ",".join(str(v) for v in self.seq)

    @classmethod
    def deserialize(cls, n: int, text: str) -> "GoodCyclicOrder":
        try:
            seq = tuple(int(tok) for tok in text.split(","))
        except ValueError:
            raise ParameterError(
                f"expected comma-separated vertex labels, got {text!r}") from None
        return cls(n, seq)


def _complete(n: int, first: list[int] | tuple[int, ...]) -> GoodCyclicOrder:
    """The normalized good order with ``first`` at positions 1..n-1: vertex
    n at n, the partner of position p at p + n, hence vertex 2n at 2n."""
    half = (*first, n)
    return GoodCyclicOrder(n, half + tuple(v + n if v <= n else v - n for v in half))


def identity_order(n: int) -> GoodCyclicOrder:
    return GoodCyclicOrder(n, tuple(range(1, 2 * n + 1)))


def normalize_rotation(n: int, seq: tuple[int, ...]) -> GoodCyclicOrder:
    """Rotate an arbitrary good arrangement so vertex 2n lands at position 2n."""
    size = 2 * n
    if len(seq) != size or size not in seq:
        raise ParameterError(
            f"an arrangement has {size} positions, one of them vertex {size}")
    shift = size - 1 - seq.index(size)
    rotated = tuple(seq[(p - shift) % size] for p in range(size))
    return GoodCyclicOrder(n, rotated)


def good_order_count(n: int) -> int:
    """Number of normalized good cyclic orders: 2^(n-1) * (n-1)!."""
    MatchingGraph(n)
    return (1 << (n - 1)) * math.factorial(n - 1)


def enumerate_good_orders(n: int):
    """Yield every normalized good cyclic order exactly once.

    Positions 1..n-1 take one endpoint from each of the edges 1..n-1
    (a permutation choosing the slot, one bit choosing the endpoint);
    the second half is forced by the partner constraint.
    """
    MatchingGraph(n)
    if n > 8:
        raise CapacityError(f"enumeration is supported for n <= 8, got n={n}")
    for perm in permutations(range(1, n)):
        for bits in range(1 << (n - 1)):
            yield _complete(n, [edge + n if bits >> slot & 1 else edge
                                for slot, edge in enumerate(perm)])


# ---------------------------------------------------------------------------
# windows (intervals) of an order
# ---------------------------------------------------------------------------

def intervals(order: GoodCyclicOrder, r: int) -> list[tuple[int, int]]:
    """All 2n length-r windows as (start position, vertex bitmask), each
    the previous one minus the leaving vertex plus the entering one."""
    size = order.size
    if not 1 <= r < size:
        raise ParameterError(f"window length must satisfy 1 <= r < {size}, got {r}")
    bits = [1 << (v - 1) for v in order.seq]
    mask = sum(bits[:r])            # distinct bits, so the sum is their union
    out = []
    for i in range(size):
        out.append((i + 1, mask))
        mask ^= bits[i] ^ bits[(i + r) % size]
    return out


def is_interval(order: GoodCyclicOrder, mask: int) -> int | None:
    """Start of the (unique) window equal to ``mask``, else None."""
    size = order.size
    if mask >> size:
        raise ParameterError(f"set contains vertices beyond {size}")
    count = mask.bit_count()
    if not 1 <= count < size:
        raise ParameterError(
            f"set size must be in 1..{size - 1}, got {count}")
    return next((start for start, window in intervals(order, count)
                 if window == mask), None)


def orders_containing_count(n: int, r: int) -> int:
    """In how many normalized good orders a fixed union-family member
    appears as a window: r! (n-r)! 2^(n-r) for r <= n, else
    (2n-r)! (r-n)! 2^(r-n)."""
    MatchingGraph(n)
    if not 1 <= r < 2 * n:
        raise ParameterError(f"need 1 <= r < 2n, got r={r}, n={n}")
    if r <= n:
        return math.factorial(r) * math.factorial(n - r) * (1 << (n - r))
    return math.factorial(2 * n - r) * math.factorial(r - n) * (1 << (r - n))


def counting_bound(n: int, r: int) -> int:
    """The double-counting quotient r * #orders / #orders-per-member.

    Each order carries at most r members as windows, and each member
    appears in the same number of orders, so the quotient bounds any
    admissible family size.  The division is exact; a remainder would
    mean one of the counting formulas is wrong.
    """
    numerator = r * good_order_count(n)
    denominator = orders_containing_count(n, r)
    q, rem = divmod(numerator, denominator)
    if rem:
        raise IntegrityError(
            f"double-counting quotient is not an integer for n={n}, r={r}")
    return q


# ---------------------------------------------------------------------------
# moves
# ---------------------------------------------------------------------------

def transpose(order: GoodCyclicOrder, i: int) -> GoodCyclicOrder:
    """Swap positions i, i+1 and their partner positions i+n, i+n+1."""
    n = order.n
    if not 1 <= i <= n - 2:
        raise ParameterError(f"transposition index must be in 1..{n - 2}, got {i}")
    seq = order.seq
    return _complete(n, seq[:i - 1] + (seq[i], seq[i - 1]) + seq[i + 1:n - 1])


def swap_halves(order: GoodCyclicOrder, i: int) -> GoodCyclicOrder:
    """Exchange the vertices at positions i and n+i (a partner swap)."""
    n = order.n
    if not 1 <= i <= n - 1:
        raise ParameterError(f"swap index must be in 1..{n - 1}, got {i}")
    seq = order.seq
    return _complete(n, seq[:i - 1] + (seq[i + n - 1],) + seq[i:n - 1])


@dataclass(frozen=True)
class ConnectivityReport:
    connected: bool
    orbit_size: int
    expected: int


def connectivity_check(n: int) -> ConnectivityReport:
    """BFS from the identity order under {T_1..T_(n-2), W_(n-1)}.

    Connected means the move set reaches every normalized good order.
    """
    if n > 6:
        raise CapacityError(f"connectivity check is supported for n <= 6, got n={n}")
    start = identity_order(n)
    seen = {start.seq}
    frontier = [start]
    while frontier:
        nxt = []
        for order in frontier:
            neighbours = [transpose(order, i) for i in range(1, n - 1)]
            if n >= 2:
                neighbours.append(swap_halves(order, n - 1))
            for nb in neighbours:
                if nb.seq not in seen:
                    seen.add(nb.seq)
                    nxt.append(nb)
        frontier = nxt
    expected = good_order_count(n)
    return ConnectivityReport(len(seen) == expected, len(seen), expected)


# ---------------------------------------------------------------------------
# constructing an order around a given member
# ---------------------------------------------------------------------------

def construct_order_containing(n: int, r: int, member_mask: int) -> GoodCyclicOrder:
    """A normalized good order in which the given member is a window.

    The member must belong to the union family, contain vertex 2n, and
    have n <= r < 2n.  Three explicit constructions are used, keyed on
    whether r > n and whether vertex n is in the member; full-edge
    representatives and leftover single vertices are placed in
    ascending label order so the result is deterministic.  The
    postcondition is checked with :func:`is_interval`.
    """
    graph = MatchingGraph(n)
    size = graph.vertex_count
    if not n <= r < size:
        raise ParameterError(f"need n <= r < 2n, got r={r}, n={n}")
    if member_mask.bit_count() != r:
        raise ParameterError(
            f"member has {member_mask.bit_count()} vertices, expected r={r}")
    if not member_mask >> (size - 1) & 1:
        raise ParameterError(f"member must contain vertex {size}")
    if not graph.covers_all_edges(member_mask):
        raise ParameterError("member must meet every edge (union-family membership)")

    def has(v: int) -> bool:
        return bool(member_mask >> (v - 1) & 1)

    full_low = [e for e in range(1, n + 1) if has(e) and has(e + n)]
    singles = [v for v in range(1, size + 1)
               if has(v) and not has(graph.partner(v))]

    if r > n and has(n):
        # the edge {n, 2n} is full; other full-edge lows first, then singles
        first_half = [e for e in full_low if e != n] + sorted(singles)
    elif r > n:
        # vertex 2n is a single; remaining singles first, then full-edge lows
        first_half = sorted(v for v in singles if v != size) + full_low
    else:
        # r == n: an independent transversal; low vertices first, then the
        # low representatives of its high vertices
        low = [v for v in range(1, n) if has(v)]
        high = [v for v in range(n + 1, size) if has(v)]
        first_half = low + [v - n for v in high]

    order = _complete(n, first_half)
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


def saturation(order: GoodCyclicOrder, fam: UniformFamily,
               k: int) -> SaturationStatus:
    """Count family members appearing as windows of the order.

    The family must lie in the union family at its cardinality r, with
    k*r <= (k-1)*2n, and is trusted to be k-wise intersecting.  At
    most r members can be windows; exactly r means
    the order is saturated, and the common-index extraction then
    recovers the position (and vertex) shared by all of them.  A count
    above r is impossible for a k-wise intersecting family, so it
    raises IntegrityError.
    """
    graph = MatchingGraph(order.n)
    if fam.universe_size != graph.vertex_count:
        raise ParameterError("family universe does not match the order's graph")
    r = fam.r
    if not 1 <= r < graph.vertex_count:
        raise ParameterError(f"need 1 <= r < 2n, got r={r}")
    if k * r > (k - 1) * graph.vertex_count:
        raise ParameterError(
            f"saturation analysis needs k*r <= (k-1)*2n, got k={k}, r={r}, n={order.n}")
    expected_full = max(0, r - order.n)
    for s in fam.sets:
        if graph.full_edge_count(s) != expected_full:
            raise ParameterError(
                f"family member {s:#x} is not in the union family for r={r}")

    member_set = set(fam.sets)
    starts = [start for start, mask in intervals(order, r) if mask in member_set]
    if len(starts) > r:
        raise IntegrityError(
            f"{len(starts)} members appear as windows but at most {r} are "
            "possible for a k-wise intersecting family")
    if len(starts) < r:
        return SaturationStatus(False, len(starts))
    arc_fam = IntervalFamily.from_starts(graph.vertex_count, r, starts)
    position = common_index(arc_fam, k)
    return SaturationStatus(True, r, position, order.vertex_at(position))


@dataclass(frozen=True)
class MoveSaturationReport:
    move: tuple[str, int]
    before: SaturationStatus
    after: SaturationStatus


def saturation_preserved_under_move(order: GoodCyclicOrder, move: tuple[str, int],
                                    fam: UniformFamily,
                                    k: int) -> MoveSaturationReport:
    """Apply a move to an order saturated at vertex 2n and re-check.

    ``move`` is ("T", i) with 1 <= i <= n-2 or ("W", n-1).  The input
    order must be saturated with common vertex 2n, the family must
    have n <= r with k*r < (k-1)*2n strictly, and the W move
    additionally needs r > n.  If the moved order is saturated, its
    common vertex is asserted to be 2n as well; a different vertex
    would contradict the preservation guarantee and raises
    IntegrityError.
    """
    n = order.n
    size = order.size
    kind, i = move
    r = fam.r
    if r < n:
        raise ParameterError(f"preservation analysis needs r >= n, got r={r}")
    if k * r >= (k - 1) * size:
        raise ParameterError(
            f"preservation analysis needs k*r < (k-1)*2n strictly, got k={k}, r={r}")
    if kind == "T":
        if not 1 <= i <= n - 2:
            raise ParameterError(f"T move index must be in 1..{n - 2}, got {i}")
        apply = lambda o: transpose(o, i)
    elif kind == "W":
        if i != n - 1:
            raise ParameterError(
                f"only the W move at index n-1={n - 1} preserves saturation, got {i}")
        if r <= n:
            raise ParameterError(f"the W move analysis needs r > n, got r={r}")
        apply = lambda o: swap_halves(o, i)
    else:
        raise ParameterError(f"unknown move kind {kind!r}")

    before = saturation(order, fam, k)
    if not before.saturated or before.common_vertex != size:
        raise ParameterError(
            f"input order is not saturated at vertex {size} "
            f"(status: {before})")
    after = saturation(apply(order), fam, k)
    if after.saturated and after.common_vertex != size:
        raise IntegrityError(
            f"moved order saturated at vertex {after.common_vertex}, "
            f"expected {size}; preservation guarantee violated")
    return MoveSaturationReport(move, before, after)
