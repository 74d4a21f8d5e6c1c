"""Uniform set families over the perfect matching graph.

The host graph M_n has 2n vertices labelled 1..2n and the n edges
{i, i+n}; the two endpoints of an edge are called partners.  Vertex
sets are plain ints used as bitmasks: bit i-1 encodes vertex i.  All
arithmetic is exact (Python ints), so families and bounds are
reproducible bit for bit.

Three r-uniform families matter here:

* the independent family: r-sets containing no full edge (r <= n),
* the covering family: r-sets containing one endpoint of every edge,
  i.e. containing a maximum independent set (r >= n),
* their union, which is the natural universe for intersecting-family
  questions on M_n.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .errors import CapacityError, ParameterError

FamilyKind = str  # "independent" | "max_containing" | "union"

_KINDS = ("independent", "max_containing", "union")

# the most members an enumeration builds (a star over M_8 has 1,792)
_MAX_MEMBERS = 1 << 20


# ---------------------------------------------------------------------------
# bitmask vertex sets
# ---------------------------------------------------------------------------

def mask_of(vertices: Iterable[int]) -> int:
    """Pack vertex labels (1-based) into a bitmask."""
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
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


@dataclass(frozen=True)
class MatchingGraph:
    """The perfect matching on 2n vertices; edge i is {i, i+n}."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ParameterError(f"need at least one edge, got n={self.n}")
        if 2 * self.n > 64:
            raise CapacityError(f"supported width is 2n <= 64, got n={self.n}")

    @property
    def vertex_count(self) -> int:
        return 2 * self.n

    @property
    def independence_number(self) -> int:
        return self.n

    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, i + self.n) for i in range(1, self.n + 1))

    def partner(self, v: int) -> int:
        if not 1 <= v <= 2 * self.n:
            raise ParameterError(f"vertex {v} outside 1..{2 * self.n}")
        return v + self.n if v <= self.n else v - self.n

    def full_edge_count(self, mask: int) -> int:
        """Number of edges with both endpoints in ``mask``."""
        lo = mask & ((1 << self.n) - 1)
        hi = mask >> self.n
        return (lo & hi).bit_count()

    def is_independent(self, mask: int) -> bool:
        return self.full_edge_count(mask) == 0

    def covers_all_edges(self, mask: int) -> bool:
        """True when ``mask`` meets every edge, i.e. contains a maximum
        independent set."""
        lo = mask & ((1 << self.n) - 1)
        hi = mask >> self.n
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
        if self.universe_size < 1:
            raise ParameterError(
                f"universe size must be at least 1, got {self.universe_size}")
        if self.universe_size > 64:
            raise CapacityError(
                f"supported universe size is at most 64, got {self.universe_size}")
        if not 0 <= self.r <= self.universe_size:
            raise ParameterError(
                f"cardinality r={self.r} outside 0..{self.universe_size}")
        full = (1 << self.universe_size) - 1
        prev = -1
        for s in self.sets:
            if s <= prev:
                raise ParameterError("family sets must be strictly ascending")
            if s & ~full:
                raise ParameterError("set exceeds the universe")
            if s.bit_count() != self.r:
                raise ParameterError(
                    f"set {vertices_of(s)} has size {s.bit_count()}, expected {self.r}")
            prev = s

    @classmethod
    def from_masks(cls, universe_size: int, r: int,
                   masks: Iterable[int]) -> "UniformFamily":
        return cls(universe_size, r, tuple(sorted(set(masks))))

    @classmethod
    def from_vertex_sets(cls, universe_size: int, r: int,
                         sets: Iterable[Iterable[int]]) -> "UniformFamily":
        return cls.from_masks(universe_size, r, (mask_of(s) for s in sets))

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self) -> Iterator[int]:
        return iter(self.sets)

    def __contains__(self, mask: int) -> bool:
        return mask in self.sets

    def vertex_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(vertices_of(s) for s in self.sets)

    def star(self, v: int) -> "UniformFamily":
        """The subfamily of members containing vertex ``v``."""
        if not 1 <= v <= self.universe_size:
            raise ParameterError(f"vertex {v} outside 1..{self.universe_size}")
        bit = 1 << (v - 1)
        return UniformFamily(self.universe_size, self.r,
                             tuple(s for s in self.sets if s & bit))

    # -- serialization ------------------------------------------------------

    def to_text(self) -> str:
        """One set per line, ascending comma-separated vertex labels."""
        return "\n".join(",".join(str(v) for v in vertices_of(s))
                         for s in self.sets) + ("\n" if self.sets else "")

    @classmethod
    def from_text(cls, universe_size: int, r: int, text: str) -> "UniformFamily":
        masks = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                labels = [int(tok) for tok in line.split(",")]
            except ValueError:
                raise ParameterError(
                    f"expected comma-separated vertex labels, got {line!r}") from None
            masks.append(mask_of(labels))
        return cls.from_masks(universe_size, r, masks)

    def to_json_obj(self) -> dict:
        """JSON form {"n":…, "r":…, "sets":[[…],…]} for M_n families."""
        if self.universe_size % 2:
            raise ParameterError(
                "JSON form encodes the edge count n and needs an even universe")
        return {"n": self.universe_size // 2, "r": self.r,
                "sets": [list(vertices_of(s)) for s in self.sets]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "UniformFamily":
        try:
            n, r = obj["n"], obj["r"]
            if type(n) is not int or type(r) is not int:
                raise TypeError
            return cls.from_vertex_sets(2 * n, r, obj["sets"])
        except (KeyError, TypeError):
            raise ParameterError(
                'expected {"n": int, "r": int, "sets": [[int, ...], ...]}'
            ) from None

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json(cls, text: str) -> "UniformFamily":
        try:
            obj = json.loads(text)
        except ValueError:
            raise ParameterError("family JSON does not parse") from None
        return cls.from_json_obj(obj)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _one_per_edge_masks(n: int, edge_subset: tuple[int, ...]) -> Iterator[int]:
    """All ways to pick exactly one endpoint from each edge in the subset."""
    if not edge_subset:
        yield 0
        return
    first, rest = edge_subset[0], edge_subset[1:]
    for tail in _one_per_edge_masks(n, rest):
        yield (1 << (first - 1)) | tail
        yield (1 << (first + n - 1)) | tail


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
    coincide (the maximum independent sets).  A family of more than
    2^20 members is a ``CapacityError``, raised before it is built.
    """
    graph = MatchingGraph(n)
    if kind not in _KINDS:
        raise ParameterError(f"unknown family kind {kind!r}")
    if not 1 <= r <= 2 * n:
        raise ParameterError(f"cardinality r={r} outside 1..{2 * n}")

    def independent() -> list[int]:
        # choose r edges, then one endpoint from each
        out = []
        for edges in combinations(range(1, n + 1), r):
            out.extend(_one_per_edge_masks(n, edges))
        return out

    def max_containing() -> list[int]:
        # choose r-n edges taken fully, then one endpoint of each other edge
        out = []
        all_edges = range(1, n + 1)
        for full in combinations(all_edges, r - n):
            base = 0
            for e in full:
                base |= (1 << (e - 1)) | (1 << (e + n - 1))
            others = tuple(e for e in all_edges if e not in full)
            for pick in _one_per_edge_masks(n, others):
                out.append(base | pick)
        return out

    # at r = n both kinds are the 2^n maximum independent sets
    if (kind == "independent" and r > n) or (kind == "max_containing" and r < n):
        return UniformFamily(graph.vertex_count, r, ())
    _check_members(binomial(n, r) << r if r <= n
                   else binomial(n, r - n) << (2 * n - r))
    masks = independent() if r <= n else max_containing()
    return UniformFamily.from_masks(graph.vertex_count, r, masks)


def matching_universe(n: int, r: int) -> UniformFamily:
    """Shorthand for the union family over M_n."""
    return enumerate_family(n, r, "union")


def complete_uniform_family(m: int, r: int) -> UniformFamily:
    """All r-subsets of the ground set [m]."""
    if m < 1:
        raise ParameterError(f"ground set size must be at least 1, got {m}")
    if m > 64:
        raise CapacityError(f"supported ground set size is at most 64, got {m}")
    if not 0 <= r <= m:
        raise ParameterError(f"cardinality r={r} outside 0..{m}")
    _check_members(binomial(m, r))
    masks = [mask_of(c) for c in combinations(range(1, m + 1), r)]
    return UniformFamily.from_masks(m, r, masks)


# ---------------------------------------------------------------------------
# k-wise intersection
# ---------------------------------------------------------------------------

def kwise_witness(fam: UniformFamily, k: int) -> tuple[int, ...] | None:
    """Search for k members (repetition allowed) with empty intersection.

    Returns None when every choice of at most k members has a common
    element; otherwise a k-tuple of member masks whose intersection is
    empty.  Because repeating a member only grows the intersection, it
    suffices to scan subsets of at most min(k, |fam|) distinct members.
    Members are scanned by ascending popcount with a running
    intersection, so violations terminate early.
    """
    if k < 2:
        raise ParameterError(f"k must be at least 2, got {k}")
    members = sorted(fam.sets, key=lambda s: (s.bit_count(), s))
    depth_cap = min(k, len(members))
    if depth_cap == 0:
        return None

    def descend(start: int, inter: int, chosen: list[int]) -> tuple[int, ...] | None:
        if inter == 0:
            pad = chosen + [chosen[-1]] * (k - len(chosen))
            return tuple(pad)
        if len(chosen) == depth_cap:
            return None
        for i in range(start, len(members)):
            found = descend(i + 1, inter & members[i], chosen + [members[i]])
            if found is not None:
                return found
        return None

    full = (1 << fam.universe_size) - 1
    return descend(0, full, [])


def is_k_wise_intersecting(fam: UniformFamily, k: int) -> bool:
    """True when every k members (repetition allowed) share a vertex."""
    return kwise_witness(fam, k) is None


# ---------------------------------------------------------------------------
# closed-form bounds
# ---------------------------------------------------------------------------

def binomial(a: int, b: int) -> int:
    """Exact binomial coefficient with C(a, b) = 0 when b > a."""
    if a < 0 or b < 0:
        raise ParameterError(f"binomial wants nonnegative arguments, got ({a}, {b})")
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
    if not 1 <= r <= 2 * n:
        raise ParameterError(f"cardinality r={r} outside 1..{2 * n}")
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
    if m < 1:
        raise ParameterError(f"ground set must be nonempty, got m={m}")
    if not 1 <= r <= m:
        raise ParameterError(f"cardinality r={r} outside 1..{m}")
    return binomial(m - 1, r - 1)
