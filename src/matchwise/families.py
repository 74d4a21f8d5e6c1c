"""Uniform set families over the perfect matching graph.

The host graph M_n has 2n vertices labelled 1..2n and the n edges
{i, i+n}; the two endpoints of an edge are called partners.  Vertex
sets are plain ints used as bitmasks: bit i-1 encodes vertex i.  All
arithmetic is exact (Python ints), so families and bounds are
reproducible bit for bit.

Three r-uniform families matter here:

* the independent family: r-sets containing no full edge (r <= n),
* the covering family: r-sets containing one endpoint of every edge,
  i.e. containing a maximum independent set (r >= n); an r-set covers
  exactly when its complement, a (2n-r)-set, is independent, so this
  family is the independent one complemented,
* their union, which is the natural universe for intersecting-family
  questions on M_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Iterator

from .errors import (WIDTH, CapacityError, ParameterError, require_arity, require_int,
                     require_int_in, require_mask, require_type)

FamilyKind = str  # "independent" | "max_containing" | "union"

_KINDS = ("independent", "max_containing", "union")

# the most members an enumeration builds (a star over M_8 has 1,792)
_MAX_MEMBERS = 1 << 20


# ---------------------------------------------------------------------------
# bitmask vertex sets
# ---------------------------------------------------------------------------

def mask_of(vertices: Iterable[int]) -> int:
    """Pack vertex labels (1-based) into a bitmask."""
    try:
        vertices = iter(vertices)
    except TypeError:
        raise ParameterError(
            f"a vertex set is an iterable of labels, got {vertices!r}") from None
    m = 0
    for v in vertices:
        if type(v) is not int:  # bool is an int subclass, float shifts fail
            raise ParameterError(f"vertex labels are integers, got {v!r}")
        if v < 1:
            raise ParameterError(f"vertex labels are 1-based, got {v}")
        m |= 1 << (v - 1)
    return m


def vertices_of(mask: int) -> tuple[int, ...]:
    """Unpack a bitmask into ascending vertex labels."""
    require_mask(mask)
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length())  # bit v-1 is vertex v
    return tuple(out)


def _full_edges(n: int, mask: int) -> int:
    """The edges {i, i+n} of M_n with both endpoints in ``mask``, a mask
    of vertices 1..2n that callers check."""
    return (mask & mask >> n).bit_count()


@dataclass(frozen=True)
class MatchingGraph:
    """The perfect matching on 2n vertices; edge i is {i, i+n}."""

    n: int

    def __post_init__(self) -> None:
        require_int_in("n", self.n, 1, cap=WIDTH // 2)  # 2n vertices

    @property
    def vertex_count(self) -> int:
        return 2 * self.n

    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, i + self.n) for i in range(1, self.n + 1))

    def partner(self, v: int) -> int:
        require_int_in("v", v, 1, 2 * self.n)
        return v + self.n if v <= self.n else v - self.n

    def _ends(self, mask: int) -> tuple[int, int]:
        """The edges whose low endpoint ``mask`` holds and those whose high
        endpoint it holds, edge i at bit i-1; a vertex beyond 2n raises
        ``ParameterError``."""
        require_mask(mask)
        if mask >> 2 * self.n:
            raise ParameterError(f"set contains vertices beyond {2 * self.n}")
        return mask & ((1 << self.n) - 1), mask >> self.n

    def full_edge_count(self, mask: int) -> int:
        """Number of edges with both endpoints in ``mask``."""
        self._ends(mask)            # the checks
        return _full_edges(self.n, mask)

    def is_independent(self, mask: int) -> bool:
        return self.full_edge_count(mask) == 0

    def covers_all_edges(self, mask: int) -> bool:
        """True when ``mask`` meets every edge, i.e. contains a maximum
        independent set."""
        lo, hi = self._ends(mask)
        return (lo | hi) == (1 << self.n) - 1


# ---------------------------------------------------------------------------
# uniform families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniformFamily:
    """A duplicate-free, canonically ordered family of r-sets.

    ``universe_size`` is the number of ground-set vertices (2n for M_n
    families, m for families over [m]).  ``sets`` holds bitmasks in
    ascending numeric order, which makes family equality bit-exact.
    """

    universe_size: int
    r: int
    sets: tuple[int, ...]

    def __post_init__(self) -> None:
        # a float breaks the bit arithmetic, and a list of sets would leave
        # the family unhashable
        require_int_in("universe size", self.universe_size, 1, cap=WIDTH)
        require_int_in("r", self.r, 0, self.universe_size)
        if type(self.sets) is not tuple:
            raise ParameterError(f"sets must be a tuple, got {self.sets!r}")
        outside, r = -1 << self.universe_size, self.r
        prev = -1
        for s in self.sets:
            if type(s) is not int:
                raise ParameterError(f"sets are int bitmasks, got {s!r}")
            if s <= prev:
                raise ParameterError("family sets must be strictly ascending")
            if s & outside:
                raise ParameterError("set exceeds the universe")
            if s.bit_count() != r:
                raise ParameterError(
                    f"set {vertices_of(s)} has size {s.bit_count()}, expected {r}")
            prev = s

    @classmethod
    def from_masks(cls, universe_size: int, r: int,
                   masks: Iterable[int]) -> "UniformFamily":
        try:
            masks = tuple(masks)
        except TypeError:
            raise ParameterError(f"masks must be iterable, got {masks!r}") from None
        for m in masks:  # before set() merges True into 1 or sorted() mixes types
            if type(m) is not int:
                raise ParameterError(f"sets are int bitmasks, got {m!r}")
        return cls(universe_size, r, tuple(sorted(set(masks))))

    @classmethod
    def from_vertex_sets(cls, universe_size: int, r: int,
                         sets: Iterable[Iterable[int]]) -> "UniformFamily":
        try:
            sets = iter(sets)
        except TypeError:
            raise ParameterError(
                f"sets must be an iterable of vertex sets, got {sets!r}") from None
        return cls.from_masks(universe_size, r, [mask_of(s) for s in sets])

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self) -> Iterator[int]:
        return iter(self.sets)

    def vertex_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(vertices_of(s) for s in self.sets)

    def star(self, v: int) -> "UniformFamily":
        """The subfamily of members containing vertex ``v``."""
        require_int_in("v", v, 1, self.universe_size)
        bit = 1 << (v - 1)
        return UniformFamily(self.universe_size, self.r,
                             tuple(s for s in self.sets if s & bit))

    # -- serialization ------------------------------------------------------

    def to_text(self) -> str:
        """One set per line, ascending comma-separated vertex labels."""
        return "\n".join(",".join(str(v) for v in vertices_of(s))
                         for s in self.sets) + ("\n" if self.sets else "")

    def to_json_obj(self) -> dict:
        """JSON form {"n":…, "r":…, "sets":[[…],…]} for M_n families."""
        if self.universe_size % 2:
            raise ParameterError(
                "JSON form encodes the edge count n and needs an even universe")
        return {"n": self.universe_size // 2, "r": self.r,
                "sets": [list(vertices_of(s)) for s in self.sets]}


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _check_members(count: int) -> None:
    if count > _MAX_MEMBERS:
        raise CapacityError(
            f"family has {count} members, enumeration supports {_MAX_MEMBERS}")


def enumerate_family(n: int, r: int, kind: FamilyKind) -> UniformFamily:
    """The r-uniform family of the requested kind over M_n.

    kind "independent": no full edge (empty for r > n).
    kind "max_containing": one endpoint of every edge, the rest paired
    up into r-n full edges (empty for r < n).
    kind "union": whichever of the two is nonempty; at r = n they
    coincide (the maximum independent sets).  A nonempty family has
    C(n, s) * 2^s members, s = min(r, 2n-r), since an r-set with r >= n
    meets every edge exactly when its (2n-r)-set complement is
    independent.  A family of more than 2^20 members is a
    ``CapacityError``, raised before it is built.
    """
    graph = MatchingGraph(n)
    if kind not in _KINDS:
        raise ParameterError(f"unknown family kind {kind!r}")
    require_int_in("r", r, 1, 2 * n)

    # at r = n both kinds are the 2^n maximum independent sets
    if (kind == "independent" and r > n) or (kind == "max_containing" and r < n):
        return UniformFamily(graph.vertex_count, r, ())
    # the independent side-sets (side edges, one endpoint of each), which
    # for r > n are the complements of the members
    side = min(r, 2 * n - r)
    _check_members(binomial(n, side) << side)
    flip = (1 << 2 * n) - 1 if r > n else 0
    masks = [sum(picks) ^ flip
             for edges in combinations(range(n), side)
             for picks in product(*[(1 << e, 1 << e + n) for e in edges])]
    return UniformFamily.from_masks(graph.vertex_count, r, masks)


def matching_universe(n: int, r: int) -> UniformFamily:
    """Shorthand for the union family over M_n."""
    return enumerate_family(n, r, "union")


def complete_uniform_family(m: int, r: int) -> UniformFamily:
    """All r-subsets of the ground set [m]."""
    require_int("m", m)
    require_int("r", r)  # before m's cap: malformed input is a parameter error
    require_int_in("m", m, 1, cap=WIDTH)
    require_int_in("r", r, 0, m)
    _check_members(binomial(m, r))
    masks = [mask_of(c) for c in combinations(range(1, m + 1), r)]
    return UniformFamily.from_masks(m, r, masks)


# ---------------------------------------------------------------------------
# k-wise intersection
# ---------------------------------------------------------------------------

def kwise_witness(fam: UniformFamily, k: int) -> tuple[int, ...] | None:
    """Search for at most k distinct members with empty intersection.

    Returns None when every choice of at most k members (repetition
    allowed) has a common element; otherwise the member masks, distinct
    and ascending, of the first choice the scan finds with an empty
    intersection.  Members are scanned in ascending mask order with a
    running intersection, so violations terminate early; a member that
    does not shrink it is skipped, since an inclusion-minimal witness
    shrinks it at every step.  So a witness has at most min(k, |fam|,
    r+1) members, and the scan nests no deeper.  The last member is
    found by a plain scan for the first one disjoint from the running
    intersection.  When the AND of all members is nonzero (they share a
    vertex, as in every star) the answer is None at once, before the
    scan is set up: that is the case the scan would answer first.
    """
    require_type("fam", fam, UniformFamily)
    require_arity(k)
    return _kwise_witness(fam.sets, k)


def _kwise_witness(members, k: int) -> tuple[int, ...] | None:
    """:func:`kwise_witness` on a sequence of masks, scanned in the order
    given; callers check the arguments."""
    shared = -1                     # every bit set
    for m in members:
        shared &= m
    if shared:                      # every member holds a common vertex
        return None
    # common[i] is the AND of members[i:]: while inter & common[start] is
    # nonzero, no choice from members[start:] can empty the intersection
    common = [-1] * (len(members) + 1)
    for i in range(len(members) - 1, -1, -1):
        common[i] = common[i + 1] & members[i]
    chosen: list[int] = []
    # (intersection, members left) states whose subtree found nothing.  A
    # state seen again finds nothing either: if its members plus some E
    # had an empty intersection, so would the members of its earlier twin
    # plus E, a choice the scan would have reached first.
    failed: set[tuple[int, int]] = set()

    def descend(start: int, inter: int, left: int) -> tuple[int, ...] | None:
        if inter & common[start] or (inter, left) in failed:
            return None
        for i in range(start, len(members)):
            meet = inter & members[i]
            if not meet:            # the first member disjoint from inter
                return (*chosen, members[i])
            if left > 1 and meet != inter:  # a member that shrinks inter
                chosen.append(members[i])
                found = descend(i + 1, meet, left - 1)
                chosen.pop()
                if found is not None:
                    return found
        failed.add((inter, left))
        return None

    return descend(0, -1, k)


def is_k_wise_intersecting(fam: UniformFamily, k: int) -> bool:
    """True when every k members (repetition allowed) share a vertex."""
    return kwise_witness(fam, k) is None


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

def _orbit(x, gens, act) -> set:
    """Every image of ``x`` under the group ``gens`` generate, where
    ``act(y, g)`` is y's image under one generator: a breadth-first
    search, since a finite group's elements are products of generators."""
    seen, queue = {x}, [x]
    for y in queue:  # the loop reaches what is appended to the queue
        for g in gens:
            z = act(y, g)
            if z not in seen:
                seen.add(z)
                queue.append(z)
    return seen


# ---------------------------------------------------------------------------
# closed-form bounds
# ---------------------------------------------------------------------------

def binomial(a: int, b: int) -> int:
    """Exact binomial coefficient with C(a, b) = 0 when b > a."""
    require_int_in("a", a, 0)
    require_int_in("b", b, 0)
    return math.comb(a, b)


@dataclass(frozen=True)
class BoundValue:
    """An exact extremal bound together with the branch that produced it."""

    value: int
    branch: str  # "r_le_n" | "r_gt_n"


def matching_star_bound(n: int, r: int) -> BoundValue:
    """Size of a star in the union family over M_n, as an exact integer.

    This is also the maximum size of a k-wise intersecting subfamily
    whenever k*r <= (k-1)*2n.  For r <= n the value is
    2^(r-1) * C(n-1, r-1); for r > n it is
    2^(2n-r) * C(n-1, 2n-r) + 2^(2n-r-1) * C(n-1, 2n-r-1).
    """
    MatchingGraph(n)
    require_int_in("r", r, 1, 2 * n)
    if r <= n:
        return BoundValue((1 << (r - 1)) * binomial(n - 1, r - 1), "r_le_n")
    value = (1 << (2 * n - r)) * binomial(n - 1, 2 * n - r)
    if 2 * n - r - 1 >= 0:  # the second term vanishes at r = 2n
        value += (1 << (2 * n - r - 1)) * binomial(n - 1, 2 * n - r - 1)
    return BoundValue(value, "r_gt_n")


def complete_star_bound(m: int, r: int) -> int:
    """Size of a star in the full r-uniform family over [m]: C(m-1, r-1).

    Equals the maximum size of a k-wise intersecting family of
    r-subsets of [m] whenever k*r <= (k-1)*m.
    """
    require_int_in("m", m, 1)
    require_int_in("r", r, 1, m)
    return binomial(m - 1, r - 1)
