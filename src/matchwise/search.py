"""Exact maximum k-wise intersecting subfamilies by branch and bound.

The solver walks an include/exclude tree over the universe in
ascending bitmask order (include explored first), so the first member
of any family is its minimum and every subfamily is visited at most
once.  Three ingredients keep the tree small:

* a pairwise-compatibility prefilter (members of a k-wise intersecting
  family must pairwise intersect, for every k >= 2),
* an incremental k-wise feasibility filter: the intersections of all
  (k-1)-subsets of the current family are maintained append-only, and
  a candidate survives only while it meets every one of them,
* best-found pruning seeded with the largest star in the universe
  (stars are k-wise intersecting for every k, so this lower bound is
  always achievable).

When a vertex-relabelling symmetry group of the universe is supplied,
its action on the members is tabulated once per search: one ``bytes``
row per group element, mapping each member's index to the index of
its image (a universe has at most 64 members, so an index fits in a
byte).  Building the table checks that every element maps every member
into the universe.  Only orbit representatives (members that no row
maps to a smaller index) are tried as the minimal member, and in
witness-collecting modes the found witnesses are expanded back through
the table one orbit at a time, so the reported witness list is always
the full one.  Results are deterministic for a given input; only the
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
    if not 1 <= m <= 10:
        raise ParameterError(f"symmetric group supported for 1 <= m <= 10, got {m}")
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


def _run_root(masks: tuple[int, ...], comp: list[int], k: int,
              collect: bool, strict_prune: bool, best: int, i0: int
              ) -> tuple[list[tuple[int, tuple[int, ...]]], int, int]:
    """Explore every family whose minimal member is masks[i0].

    ``best`` is the largest family size known so far.  Returns the
    recorded families as (size, member indices) pairs, the node count
    and the updated best size.
    """
    km1 = k - 1
    nodes = 0
    records: list[tuple[int, tuple[int, ...]]] = []
    chosen: list[int] = []
    # levels[j] = intersections of all j-subsets of the chosen family
    levels: list[list[int]] = [[(1 << 64) - 1]] + [[] for _ in range(km1)]

    def record(depth: int) -> None:
        nonlocal best
        if depth < best:
            return
        best = depth
        if collect:
            records.append((depth, tuple(chosen)))

    def include(i: int, cand: int, depth: int) -> None:
        """Add member i, filter candidates, recurse, undo."""
        nonlocal nodes
        mi = masks[i]
        bind = min(km1, depth + 1)
        saved = [len(levels[j]) for j in range(bind + 1)]
        for j in range(bind, 0, -1):
            lower = levels[j - 1]
            levels[j].extend(x & mi for x in lower[:saved[j - 1]])
        nc = cand & comp[i]
        for x in levels[bind][saved[bind]:]:
            if not nc:
                break
            keep = 0
            t = nc
            while t:
                low = t & -t
                if masks[low.bit_length() - 1] & x:
                    keep |= low
                t ^= low
            nc = keep
        chosen.append(i)
        extend(nc, depth + 1)
        chosen.pop()
        for j in range(bind, 0, -1):
            del levels[j][saved[j]:]

    def extend(cand: int, depth: int) -> None:
        nonlocal nodes
        nodes += 1
        record(depth)
        while cand:
            room = depth + cand.bit_count()
            if room < best or (strict_prune and room == best):
                return
            low = cand & -cand
            cand ^= low
            include(low.bit_length() - 1, cand, depth)

    include(i0, _bits_above(i0, len(masks)), 0)
    return records, nodes, best


def _bits_above(i: int, total: int) -> int:
    return ((1 << total) - 1) & ~((1 << (i + 1)) - 1)


def _action_table(group: tuple[tuple[int, ...], ...],
                  masks: tuple[int, ...]) -> list[bytes]:
    """One row per group element: row[i] is the index of its image of masks[i].

    Every (element, member) pair is checked, since nothing guarantees
    that the given permutations form a group.
    """
    if not group:
        raise ParameterError("a symmetry group needs at least one element")
    index = {m: i for i, m in enumerate(masks)}
    try:
        return [bytes([index[apply_permutation(g, m)] for m in masks])
                for g in group]
    except KeyError:
        raise ParameterError(
            "symmetry group does not preserve the universe") from None


def max_kwise_family(problem: SearchProblem) -> SearchResult:
    """Exact maximum k-wise intersecting subfamily of the universe.

    Modes: "max_size_only" reports just the maximum cardinality;
    "all_maximum" additionally reports every maximum family
    (canonically ordered); "one_witness" reports the canonically least
    maximum family.  Capacity: at most 40 universe members in
    all-maximum modes, 64 otherwise.
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
    total = len(masks)
    comp = [0] * total
    for a in range(total):
        row = 0
        for b in range(total):
            if a != b and masks[a] & masks[b]:
                row |= 1 << b
        comp[a] = row

    # star lower bound: largest number of members through one vertex
    best = 0
    for v in range(universe.universe_size):
        bit = 1 << v
        best = max(best, sum(1 for s in masks if s & bit))

    roots = range(total)
    group = problem.symmetry
    action: list[bytes] = []
    if group is not None:
        action = _action_table(group, masks)
        roots = [i for i, images in enumerate(zip(*action)) if min(images) >= i]

    strict_prune = not collect
    records: list[tuple[int, tuple[int, ...]]] = []
    nodes = 1  # the empty-family root
    if collect and best == 0:
        records.append((0, ()))
    for i0 in roots:
        recs, nd, best = _run_root(masks, comp, k, collect, strict_prune,
                                   best, i0)
        records.extend(recs)
        nodes += nd

    max_size = best
    witnesses: tuple[UniformFamily, ...] = ()
    all_are_stars: bool | None = None
    star_centers: tuple[int, ...] = ()
    if collect:
        found = {fam for size, fam in records if size == max_size}
        if action:
            pending, found = found, set()
            while pending:
                fam = pending.pop()
                orbit = {tuple(sorted([row[i] for i in fam])) for row in action}
                found |= orbit
                pending -= orbit
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
            star_by_masks = {}
            for v in range(1, universe.universe_size + 1):
                star_by_masks.setdefault(universe.star(v).sets, []).append(v)
            centers: set[int] = set()
            all_are_stars = True
            for w in witnesses:
                match = star_by_masks.get(w.sets)
                if match:
                    centers.update(match)
                else:
                    all_are_stars = False
            star_centers = tuple(sorted(centers))

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
            "uniqueness": ("asserted" if self.uniqueness_asserted
                           else "boundary: not asserted"),
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
