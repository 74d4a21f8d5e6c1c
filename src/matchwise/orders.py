"""Good cyclic orders of the matching graph's vertices.

A cyclic arrangement of the 2n vertices of M_n is *good* when every
pair of partners sits exactly n positions apart.  Rotation classes are
represented uniquely by pinning vertex 2n to position 2n, which forces
vertex n to position n; there are 2^(n-1) * (n-1)! such normalized
orders, each fixed by its positions 1..n-1.  One enumerator lays them
out in blocks, one per edge permutation, each block of byte rows checked
at once by the rule the order type applies; the count sums the block
lengths, ``saturation_sweep`` reads each block whole, one bit-lane per
row, the order objects read its rows, each block as it is made, and
nothing keeps them.  The moves act on seqs as position maps, whose
orbit from the identity ``families._orbit`` walks, as the symmetry
search does.  Every length-r window of a good order (all 2n are listed
in one rolling pass) is a member of the union family: an independent
set when r <= n, a covering set when r >= n.

Saturation ties the two layers together: an order is saturated by a
family when the maximum possible number (r) of family members appear
as windows, and the common-index machinery from :mod:`matchwise.arcs`
then pins all of them to one shared position.  One kernel reads the
windows of a whole block of orders at once; a single order is a block
of one row.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass
from itertools import compress, permutations

from .arcs import IntervalFamily, common_index
from .errors import (IntegrityError, MatchwiseError, ParameterError, require_arity,
                     require_int, require_int_in, require_mask, require_regime,
                     require_type)
from .families import (MatchingGraph, UniformFamily, _full_edges, _orbit,
                       is_k_wise_intersecting)


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
    MatchingGraph(n)  # before the 2n-tuple is built
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
    require_int_in("n", n, 1, cap=8)


def _order_blocks(n: int):
    """Yield the normalized good orders as checked blocks, one per
    permutation of the edges 1..n-1: a pair ``(h1, h2)`` of byte strings
    holding, in the same order, the first halves and the second halves of
    the block's 2^(n-1) rows, n bytes per row.

    Positions 1..n-1 take one endpoint from each of the edges 1..n-1 (the
    permutation choosing the slot, one bit per slot choosing the
    endpoint), position n takes vertex n, and the second half is forced
    by the partner constraint.  One code string, built once per call,
    lists for each bit pattern each slot's index, plus n where the slot's
    bit is set; translating it through the permutation's table gives
    every first half at once, and translating those through the partner
    table every second half.  Each block is checked by
    :func:`_check_block`.
    """
    _require_enumerable(n)
    partner = _layout(n)[2]
    codes = bytes(slot + (n if bits >> slot & 1 else 0)
                  for bits in range(1 << (n - 1)) for slot in range(n))
    for perm in permutations(range(1, n)):
        table = bytes((*perm, n, *(e + n for e in perm))).ljust(256, b"\0")
        h1 = codes.translate(table)
        h2 = h1.translate(partner)
        _check_block(n, h1, h2)
        yield h1, h2


@functools.cache
def _sides(n: int) -> tuple[bytes, bytes]:
    """Two byte translation tables telling M_n's low labels 1..n from its
    high ones n+1..2n: ``low[v]`` is 1 for a low label and 2 for a high
    one, ``high[v]`` the other way round, both 0 for any other byte."""
    low = bytes((0, *[1] * n, *[2] * n)).ljust(256, b"\0")
    high = bytes((0, *[2] * n, *[1] * n)).ljust(256, b"\0")
    return low, high


def _check_block(n: int, h1: bytes, h2: bytes) -> None:
    """:func:`_check_row`'s rule, applied to a block of rows at once.

    The block passes when the two halves have the same edge at every
    position, that edge string repeats its first n bytes, those are the
    edges 1..n, the halves hold opposite sides (low against high) at
    every position, and every row's second half ends in vertex 2n.  The
    edge and side tables are read, never the partner table that builds
    the rows.  A block that fails is re-checked row by row, so the first
    bad row raises the IntegrityError it raises alone; rows that all
    pass but differ in their edges raise a block-level IntegrityError.
    """
    size, _, _, edge = _layout(n)
    low, high = _sides(n)
    edges = h1.translate(edge)
    if (edges == h2.translate(edge)
            and edges == edges[:n] * (len(edges) // n)
            and set(edges[:n]) == set(range(1, n + 1))
            and h1.translate(low) == h2.translate(high)
            and h2[n - 1::n] == bytes((size,)) * (len(h2) // n)):
        return
    for p in range(0, len(h1), n):
        _check_row(n, h1[p:p + n] + h2[p:p + n], IntegrityError)
    raise IntegrityError("the rows of one block must have the same edge at each position")


def _order_rows(n: int):
    """Yield the seq of every normalized good order once, as ``bytes``:
    the rows of the checked blocks of :func:`_order_blocks`, one block per
    edge permutation, each row the slices of the block's two halves."""
    for h1, h2 in _order_blocks(n):
        for p in range(0, len(h1), n):
            yield h1[p:p + n] + h2[p:p + n]


def enumerate_good_orders(n: int):
    """Yield every normalized good cyclic order exactly once, in the
    order of the checked rows of :func:`_order_rows`, each validated
    again as a ``GoodCyclicOrder``."""
    for row in _order_rows(n):
        yield GoodCyclicOrder(n, tuple(row))


def enumerated_order_count(n: int) -> int:
    """How many normalized good orders the enumerator yields: the summed
    lengths of the checked blocks of :func:`_order_blocks`, one per edge
    permutation, with no row sliced out and none built as a
    ``GoodCyclicOrder``."""
    return sum(len(h1) for h1, _ in _order_blocks(n)) // n


# ---------------------------------------------------------------------------
# windows (intervals) of an order
# ---------------------------------------------------------------------------

def intervals(order: GoodCyclicOrder, r: int) -> list[tuple[int, int]]:
    """All 2n length-r windows as (start position, vertex bitmask), each
    the previous one minus the leaving vertex plus the entering one."""
    require_type("order", order, GoodCyclicOrder)
    require_int_in("r", r, 1, order.size - 1)
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
    require_int_in("set size", count, 1, size - 1)
    windows = _windows(order.seq, count)
    return windows.index(mask) + 1 if mask in windows else None


def orders_containing_count(n: int, r: int) -> int:
    """In how many normalized good orders a fixed union-family member
    appears as a window: s! (n-s)! 2^(n-s) with s = min(r, 2n-r), since
    a window's complement in a good order is a window too."""
    MatchingGraph(n)
    require_int_in("r", r, 1, 2 * n - 1)
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
    require_int_in("i", i, 1, n - 2)
    return GoodCyclicOrder(n, _move_maps(n)[i - 1](order.seq))


def swap_halves(order: GoodCyclicOrder, i: int) -> GoodCyclicOrder:
    """Exchange the vertices at positions i and n+i (a partner swap)."""
    require_type("order", order, GoodCyclicOrder)
    n = order.n
    require_int_in("i", i, 1, n - 1)
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
    require_int_in("n", n, 1, cap=7)
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
    the order.  The postcondition is checked on the one window the
    member was placed in: the r positions from where that rotation took
    position 1.
    """
    graph = MatchingGraph(n)
    size, _, partner, _ = _layout(n)
    require_int_in("r", r, n, size - 1)
    require_int("member_mask", member_mask)
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
    seq = half + [partner[v] for v in half]
    order = normalize_rotation(n, seq)
    # normalizing rotates seq[0] to order.seq[size - 1 - seq.index(size)]
    start = size - 1 - seq.index(size)
    if sum(1 << v - 1 for v in (order.seq * 2)[start:start + r]) != member_mask:
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


@functools.cache
def _lanes(width: int) -> tuple[str, tuple[bytes, ...]]:
    """The ``memoryview`` format of a lane of ``width`` bytes (1, 2, 4 or
    8) and one byte translation table per byte of such a lane, built once
    per width: table j maps vertex v to byte j of the lane holding
    1 << (v-1) in the host's byte order, so a lane read back through
    ``memoryview.cast`` is v's vertex bit; every other byte maps to 0."""
    lanes = [bytes(width)] + [(1 << b).to_bytes(width, sys.byteorder)
                              for b in range(8 * width)]
    tables = tuple(bytes(lane[j] for lane in lanes).ljust(256, b"\0") for j in range(width))
    return {1: "B", 2: "H", 4: "I", 8: "Q"}[width], tables


def _saturate(n: int, blocks, fam: UniformFamily, k: int) -> tuple[SaturationStatus, ...]:
    """The saturation status of each row of ``blocks`` (checked ``(h1,
    h2)`` pairs, as :func:`_order_blocks` yields them) under ``fam``, in
    order.

    The family is checked once, before any block is read: it must lie in
    the union family at its cardinality r with k*r < (k-1)*2n strictly.
    A block is read whole, each row's vertex bits in a lane of its own,
    L bytes wide, L the fewest of 1, 2, 4, 8 that hold 2n bits.  Each
    position's column (``h1[q::n]``, ``h2[q::n]``) becomes a run of
    lanes, one per row, and the runs of positions 1..2n, twice round the
    circle, one int; OR-ing r copies of it, each shifted one more column
    down, leaves in column p every row's window starting at position p
    (a shift moves whole columns, so each lane stays one row's).  Every
    window of the block is then looked up in the family in one pass.  A
    row's window flags give its member starts; :func:`common_index` (a
    function of the starts alone) runs once per distinct tuple of them,
    and each distinct outcome is one shared status.
    """
    graph = MatchingGraph(n)
    size, r = graph.vertex_count, fam.r
    if fam.universe_size != size:
        raise ParameterError("family universe does not match the order's graph")
    require_int_in("r", r, 1, size - 1)
    require_regime(k, r, size, True, "saturation analysis")
    full = max(0, r - n)            # the full edges of a union-family member
    for s in fam.sets:
        if _full_edges(n, s) != full:
            raise ParameterError(
                f"family member {s:#x} is not in the union family for r={r}")
    member = frozenset(fam.sets).__contains__
    width = 1 << (size - 1 >> 3).bit_length()      # L, the fewest bytes holding 2n bits
    lane, tables = _lanes(width)
    seen = {}                       # a row's window flags -> (member count, common position or 0)
    shared = {}                     # a status's fields -> the status
    out = []
    for h1, h2 in blocks:
        rows = len(h1) // n
        vertices = b"".join([half[q::n] for half in (h1, h2) for q in range(n)])
        lanes = bytearray(len(vertices) * width)        # row i at position p: lane (p-1)*rows + i
        for j, table in enumerate(tables):
            lanes[j::width] = vertices.translate(table)
        column = rows * width * 8   # the bits of one position's run of lanes
        circle = int.from_bytes(lanes, "little")
        circle |= circle << size * column
        windows = 0
        for j in range(r):
            windows |= circle >> j * column
        windows = windows.to_bytes(2 * len(lanes), "little")[:len(lanes)]
        flags = bytes(map(member, memoryview(windows).cast(lane)))
        for row in range(rows):
            row_flags = flags[row::rows]
            if row_flags not in seen:
                starts = tuple(compress(range(1, size + 1), row_flags))
                if len(starts) > r:
                    raise IntegrityError(
                        f"{len(starts)} members appear as windows but at most {r} are "
                        "possible for a k-wise intersecting family")
                seen[row_flags] = len(starts), (common_index(IntervalFamily(size, r, starts), k)
                                                if len(starts) == r else 0)
            count, position = seen[row_flags]
            if position:
                key = True, r, position, vertices[(position - 1) * rows + row]
            else:
                key = False, count
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
    n, seq = order.n, order.seq     # one order is a block of one row
    return _saturate(n, [(bytes(seq[:n]), bytes(seq[n:]))], fam, k)[0]


def saturation_sweep(n: int, fam: UniformFamily, k: int) -> tuple[SaturationStatus, ...]:
    """``saturation(order, fam, k)`` for every order of
    :func:`enumerate_good_orders`, in its order, with the same outcomes
    and exceptions.

    The arguments and the family are checked once, before any order is
    read; the orders are then read from the enumerator one checked block
    at a time, every window of every row of a block at once, one bit-lane
    per row, and no block is kept.
    """
    _require_enumerable(n)
    require_type("fam", fam, UniformFamily)
    require_arity(k)
    return _saturate(n, _order_blocks(n), fam, k)


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
    require_int_in("r", r, n, size - 1)  # below r = n the lemma is false
    require_arity(k)
    require_regime(k, r, size, True, "the move lemma")
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
