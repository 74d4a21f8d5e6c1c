"""Exact maximum k-wise intersecting subfamilies by branch and bound.

The solver walks an include/exclude tree over the universe in
ascending bitmask order (include explored first), so the first member
of any family is its minimum and every subfamily is visited at most
once.  Two ingredients keep the tree small:

* an incremental k-wise feasibility filter: the intersections of all
  (k-1)-subsets of the current family are maintained append-only, and
  a candidate survives only while it meets every one of them (each new
  intersection lies inside the new member, so survivors also meet it),
* best-found pruning seeded with the largest star in the universe
  (stars are k-wise intersecting for every k, so this lower bound is
  always achievable).

Both read one incidence table built per search: ``through[v]`` is the
bitset of member indices containing vertex v+1.  The members meeting a
set are the OR of its vertices' rows, the largest star is the largest
row, and a witness is a star exactly when its index bitset is a row.

When vertex relabellings of the universe are supplied, the search
uses the group they generate without listing it.  Each permutation kept
as a generator gets one ``bytes`` row mapping each member's index to
the index of its image (a universe has at most 64 members, so an index
fits in a byte), and one breadth-first search, :func:`_orbit`, reads
any orbit from those rows.  Only orbit minima are tried as the minimal
member, and in witness-collecting modes each found witness is expanded
to its whole orbit, so the reported witness list is always the full
one.  Without relabellings there are no rows and every orbit is a
single point.  Results are deterministic for a given input; only the
timings vary.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import permutations

from .errors import CapacityError, IntegrityError, ParameterError
from .families import (MatchingGraph, UniformFamily, is_k_wise_intersecting,
                       matching_star_bound, matching_universe)
from .schema import SCHEMA_VERSION

MODES = ("max_size_only", "one_witness", "all_maximum")

_ALL_MAXIMUM_CAP = 40
_GENERAL_CAP = 64


# ---------------------------------------------------------------------------
# vertex relabelling groups
# ---------------------------------------------------------------------------

def apply_permutation(perm: tuple[int, ...], mask: int) -> int:
    """Apply a vertex permutation (perm[v-1] = image of v) to a bitmask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << (perm[low.bit_length() - 1] - 1)
        mask ^= low
    return out


def matching_symmetry(n: int) -> tuple[tuple[int, ...], ...]:
    """All 2^n * n! relabellings of V(M_n) preserving the edge set.

    Generated by permuting the n edges and flipping the two endpoints
    of any edge.
    """
    MatchingGraph(n)
    perms = []
    for edge_perm in permutations(range(1, n + 1)):
        for flips in range(1 << n):
            img = [0] * (2 * n)
            for e in range(1, n + 1):
                te = edge_perm[e - 1]
                if (flips >> (e - 1)) & 1:
                    img[e - 1] = te + n
                    img[e + n - 1] = te
                else:
                    img[e - 1] = te
                    img[e + n - 1] = te + n
            perms.append(tuple(img))
    return tuple(perms)


def complete_symmetry(m: int) -> tuple[tuple[int, ...], ...]:
    """The full symmetric group on the ground set [m]."""
    if not 1 <= m <= 10:  # too big is a capacity limit, too small malformed
        raise (CapacityError if m > 10 else ParameterError)(
            f"symmetric group supported for 1 <= m <= 10, got {m}")
    return tuple(permutations(range(1, m + 1)))


def canonical_form(fam: UniformFamily, n: int) -> UniformFamily:
    """Lexicographically least relabelling of an M_n family.

    Minimizes the sorted mask tuple over all 2^n * n! edge-preserving
    vertex relabellings; idempotent by construction.
    """
    graph = MatchingGraph(n)
    if fam.universe_size != graph.vertex_count:
        raise ParameterError("family universe does not match M_n")
    best: tuple[int, ...] | None = None
    for perm in matching_symmetry(n):
        img = tuple(sorted(apply_permutation(perm, m) for m in fam.sets))
        if best is None or img < best:
            best = img
    assert best is not None
    return UniformFamily(fam.universe_size, fam.r, best)


# ---------------------------------------------------------------------------
# search problem / result
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchProblem:
    """A search over ``universe``; ``symmetry`` holds vertex permutations
    (perm[v-1] = image of v) and the search uses the group they generate."""

    universe: UniformFamily
    k: int
    mode: str = "all_maximum"
    symmetry: tuple[tuple[int, ...], ...] | None = None


@dataclass(frozen=True)
class SearchResult:
    max_size: int
    witnesses: tuple[UniformFamily, ...]
    all_are_stars: bool | None
    star_centers: tuple[int, ...]
    explored_nodes: int
    elapsed: float


def _run_root(masks: tuple[int, ...], through: list[int], k: int,
              collect: bool, best: int, i0: int
              ) -> tuple[list[tuple[int, tuple[int, ...]]], int, int]:
    """Explore every family whose minimal member is masks[i0].

    ``best`` is the largest family size known so far.  Without
    ``collect`` only a family larger than ``best`` matters, so branches
    that can at most tie it are pruned too.  Returns the recorded
    families as (size, member indices) pairs, the node count and the
    updated best size.
    """
    km1 = k - 1
    nodes = 0
    records: list[tuple[int, tuple[int, ...]]] = []
    chosen: list[int] = []
    # levels[j] = intersections of all j-subsets of the chosen family
    levels: list[list[int]] = [[(1 << 64) - 1]] + [[] for _ in range(km1)]

    def meets(x: int) -> int:
        """Bitset of the members that meet vertex set x."""
        out = 0
        while x:
            low = x & -x
            out |= through[low.bit_length() - 1]
            x ^= low
        return out

    def record(depth: int) -> None:
        nonlocal best
        if depth < best:
            return
        best = depth
        if collect:
            records.append((depth, tuple(chosen)))

    def include(i: int, cand: int, depth: int) -> None:
        """Add member i, filter candidates, recurse, undo."""
        mi = masks[i]
        bind = min(km1, depth + 1)
        saved = [len(levels[j]) for j in range(bind + 1)]
        for j in range(bind, 0, -1):
            lower = levels[j - 1]
            levels[j].extend(x & mi for x in lower[:saved[j - 1]])
        for x in levels[bind][saved[bind]:]:
            if not cand:
                break
            cand &= meets(x)
        chosen.append(i)
        extend(cand, depth + 1)
        chosen.pop()
        for j in range(bind, 0, -1):
            del levels[j][saved[j]:]

    def extend(cand: int, depth: int) -> None:
        nonlocal nodes
        nodes += 1
        record(depth)
        while cand:
            room = depth + cand.bit_count()
            if room < best or (not collect and room == best):
                return
            low = cand & -cand
            cand ^= low
            include(low.bit_length() - 1, cand, depth)

    include(i0, (1 << len(masks)) - (2 << i0), 0)  # the members above i0
    return records, nodes, best


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


def _image(fam: tuple[int, ...], row: bytes) -> tuple[int, ...]:
    """The sorted member indices of a family's image under a row."""
    return tuple(sorted([row[i] for i in fam]))


def _generator_rows(perms: tuple[tuple[int, ...], ...], masks: tuple[int, ...],
                    size: int) -> list[bytes]:
    """One row per permutation kept as a generator: row[i] is the index
    of the permutation's image of masks[i].

    The permutations are read in order.  One whose vertex images are
    already in the group the kept ones generate is skipped; any other
    gets its row from ``apply_permutation``, which must land in the
    universe, and is kept.  So every given permutation is checked,
    directly or as a product of checked ones.
    """
    if not perms:
        raise ParameterError("a symmetry needs at least one permutation")
    labels = set(range(1, size + 1))
    index = {m: i for i, m in enumerate(masks)}
    # vertex images are 1-based; translate tables have 256 entries
    identity, pad = bytes(range(size + 1)), bytes(range(size + 1, 256))
    group, tables, rows = {identity}, [], []
    for perm in perms:
        if (not isinstance(perm, (tuple, list)) or len(perm) != size
                or set(map(type, perm)) != {int} or set(perm) != labels):
            raise ParameterError(
                f"symmetry element {perm!r} is not a permutation of 1..{size}")
        images = b"\0" + bytes(perm)
        if images in group:
            continue
        try:
            rows.append(bytes([index[apply_permutation(perm, m)] for m in masks]))
        except KeyError:
            raise ParameterError(
                "symmetry does not preserve the universe") from None
        tables.append(images + pad)
        group = _orbit(identity, tables, bytes.translate)
    return rows


def max_kwise_family(problem: SearchProblem) -> SearchResult:
    """Exact maximum k-wise intersecting subfamily of the universe.

    Modes: "max_size_only" reports just the maximum cardinality;
    "all_maximum" additionally reports every maximum family
    (canonically ordered); "one_witness" reports the canonically least
    maximum family.  Capacity: at most 40 universe members in
    all-maximum modes, 64 otherwise.  Each ``symmetry`` element must
    permute the labels 1..universe_size and map the universe onto
    itself; the search uses the group the permutations generate, reads
    its orbits from the generators and never lists its elements.
    """
    universe, k, mode = problem.universe, problem.k, problem.mode
    if k < 2:
        raise ParameterError(f"k must be at least 2, got {k}")
    if mode not in MODES:
        raise ParameterError(f"unknown mode {mode!r}")
    if universe.r < 1:
        raise ParameterError("the search needs members of cardinality r >= 1")
    collect = mode != "max_size_only"
    cap = _ALL_MAXIMUM_CAP if collect else _GENERAL_CAP
    if len(universe) > cap:
        raise CapacityError(
            f"universe has {len(universe)} members, mode {mode} supports {cap}")

    start_time = time.perf_counter()
    masks = universe.sets
    through = [sum(1 << i for i, m in enumerate(masks) if m >> v & 1)
               for v in range(universe.universe_size)]
    best = max(t.bit_count() for t in through)  # the largest star

    rows = ([] if problem.symmetry is None else
            _generator_rows(problem.symmetry, masks, universe.universe_size))

    records: list[tuple[int, tuple[int, ...]]] = []
    nodes = 1  # the empty-family root
    if collect and best == 0:
        records.append((0, ()))
    covered: set[tuple[int, ...]] = set()
    for i0 in range(len(masks)):
        if (i0,) not in covered:  # ascending, so i0 is least in its orbit
            covered |= _orbit((i0,), rows, _image)
            recs, nd, best = _run_root(masks, through, k, collect, best, i0)
            records.extend(recs)
            nodes += nd

    max_size = best
    witnesses: tuple[UniformFamily, ...] = ()
    all_are_stars: bool | None = None
    star_centers: tuple[int, ...] = ()
    if collect:
        found: set[tuple[int, ...]] = set()
        for size, fam in records:
            if size == max_size and fam not in found:
                found |= _orbit(fam, rows, _image)
        # indices ascend with masks, so this is the order of the mask tuples
        ordered = sorted(found)
        if mode == "one_witness":
            ordered = ordered[:1]
        witnesses = tuple(
            UniformFamily(universe.universe_size, universe.r,
                          tuple(masks[i] for i in fam))
            for fam in ordered)
        for w in witnesses:
            if len(w) != max_size or not is_k_wise_intersecting(w, k):
                raise IntegrityError("collected witness fails verification")
        if witnesses and max_size > 0:
            bitsets = {sum(1 << i for i in fam) for fam in ordered}
            all_are_stars = bitsets <= set(through)
            star_centers = tuple(v for v, t in enumerate(through, 1)
                                 if t in bitsets)

    return SearchResult(max_size, witnesses, all_are_stars, star_centers,
                        nodes, time.perf_counter() - start_time)


# ---------------------------------------------------------------------------
# extremal characterization over the matching universe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtremalReport:
    """Result of checking the closed-form bound and star uniqueness."""

    n: int
    r: int
    k: int
    mode: str
    bound_expected: int
    max_size: int
    bound_met: bool
    boundary: bool
    uniqueness_asserted: bool
    all_are_stars: bool | None
    star_centers: tuple[int, ...]
    witness_count: int
    witnesses: tuple[UniformFamily, ...]
    explored_nodes: int
    elapsed: float

    @property
    def ok(self) -> bool:
        if not self.bound_met:
            return False
        if self.uniqueness_asserted:
            return bool(self.all_are_stars)
        return True

    @property
    def uniqueness(self) -> str:
        """Whether star uniqueness was asserted, and if not, why not."""
        if self.uniqueness_asserted:
            return "asserted"
        if self.mode == "all_maximum":
            return "boundary: not asserted"
        return f"{self.mode}: not asserted"

    def to_json_obj(self, include_witnesses: bool = True) -> dict:
        obj = {
            "schema_version": SCHEMA_VERSION,
            "n": self.n,
            "r": self.r,
            "k": self.k,
            "mode": self.mode,
            "max_size": self.max_size,
            "bound_expected": self.bound_expected,
            "bound_met": self.bound_met,
            "boundary": self.boundary,
            "uniqueness": self.uniqueness,
            "witness_count": self.witness_count,
            "all_are_stars": self.all_are_stars,
            "star_centers": list(self.star_centers),
            "explored_nodes": self.explored_nodes,
            "elapsed_ms": round(self.elapsed * 1000.0, 3),
        }
        if include_witnesses and self.mode != "max_size_only":
            obj["witnesses"] = [w.to_json_obj() for w in self.witnesses]
        return obj


def verify_extremal_characterization(n: int, r: int, k: int,
                                     mode: str = "all_maximum") -> ExtremalReport:
    """Search the union family over M_n and compare with the closed form.

    Asserts max_size equals the star bound.  Under the strict
    inequality k*r < (k-1)*2n the maximum families are additionally
    required to be exactly the stars; at the boundary
    k*r = (k-1)*2n the bound still holds but uniqueness is reported
    without being asserted.
    """
    if n > 4:
        raise CapacityError(f"exhaustive characterization supports n <= 4, got n={n}")
    if k < 2:
        raise ParameterError(f"k must be at least 2, got {k}")
    if not n <= r <= 2 * n - 1:
        raise ParameterError(f"need n <= r < 2n, got r={r}, n={n}")
    if k * r > (k - 1) * 2 * n:
        raise ParameterError(
            f"need k*r <= (k-1)*2n, got k={k}, r={r}, n={n}")

    universe = matching_universe(n, r)
    problem = SearchProblem(universe, k, mode, matching_symmetry(n))
    result = max_kwise_family(problem)

    bound = matching_star_bound(n, r).value
    boundary = k * r == (k - 1) * 2 * n
    uniqueness_asserted = mode == "all_maximum" and not boundary
    all_are_stars = result.all_are_stars
    if uniqueness_asserted and all_are_stars:
        # uniqueness is two-sided: every star must also be a witness
        stars = {universe.star(v).sets for v in range(1, 2 * n + 1)}
        all_are_stars = stars == {w.sets for w in result.witnesses}
    return ExtremalReport(
        n=n, r=r, k=k, mode=mode,
        bound_expected=bound,
        max_size=result.max_size,
        bound_met=result.max_size == bound,
        boundary=boundary,
        uniqueness_asserted=uniqueness_asserted,
        all_are_stars=all_are_stars if mode != "max_size_only" else None,
        star_centers=result.star_centers,
        witness_count=len(result.witnesses),
        witnesses=result.witnesses,
        explored_nodes=result.explored_nodes,
        elapsed=result.elapsed,
    )
