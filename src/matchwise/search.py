"""Exact maximum k-wise intersecting subfamilies by branch and bound.

The solver walks an include/exclude tree over the universe in
ascending bitmask order (include explored first), so the first member
of any family is its minimum and every subfamily is visited at most
once.  One recursive closure of :func:`max_kwise_family` walks it:
``include`` adds a member, records the node, prunes or branches below
it and undoes the addition.  Three ingredients keep the tree small:

* an incremental k-wise feasibility filter: the distinct intersections
  of the j-subsets of the current family are kept as one set per j <=
  k-2, and a new member keeps only the candidates in its conflict row
  below, which then holds exactly the members b such that b, the new
  member and any k-2 or fewer chosen ones share a vertex (the subsets
  without the new member filtered the candidates already).  Adding a
  member records the intersections it creates that were not there
  before, and removing it takes exactly those out,
* best-found pruning seeded with the largest star in the universe
  (stars are k-wise intersecting for every k, so this lower bound is
  always achievable),
* a conflict-matching upper bound: ``comp[a]`` holds the members b
  such that a, b and every intersection of at most k-2 chosen members
  share a vertex (with none chosen, the members meeting a).  Two
  candidates outside each other's ``comp`` cannot both join, since
  with at most k-2 chosen members they are at most k members with an
  empty intersection, so each of a greedy set of disjoint such pairs
  lowers the room (chosen plus candidates) by one.  The rows are one
  bit matrix held as an int: each intersection x a new member adds
  narrows every row with one AND by x's conflict matrix, the list is
  re-read from the result's bytes in bulk, and removing the member
  puts back the matrix and list held before it was added.

When k > r or k >= |U|, every k-wise intersecting family shares a
vertex (Helly), so the largest stars are the maximum families and no
tree is walked.

All read one incidence table built per search: ``through[v]`` is the
bitset of member indices containing vertex v+1.  A vertex set's
conflict matrix is the OR of its vertices' rows' outer products, kept
per set for the whole search, the largest star is the largest row,
and a witness is a star exactly when its index bitset is a row.  A
result counts the branches pruned by the size room alone and by the
conflict matching.

When vertex relabellings of the universe are supplied, the search
uses the group they generate.  To skip redundant permutations it lists
the vertex images of group elements, coset by coset, until it holds as
many elements as permutations were given.  Each permutation kept
as a generator gets one ``bytes`` row mapping each member's index to
the index of its image (a universe has at most 256 members, so an index
fits in a byte), and one breadth-first search, ``families._orbit``
(the walk the order layer's connectivity check also runs), reads any
orbit from those rows.  Only orbit minima are tried as the minimal
member, and in all-maximum mode each found witness is expanded to its
whole orbit, so the reported witness list is always the full one.
Without relabellings there are no rows and every orbit is a single
point.  Results are deterministic for a given input; only the timings
vary.
"""

from __future__ import annotations

import functools
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from itertools import chain, permutations, repeat

from .errors import (WIDTH, CapacityError, IntegrityError, ParameterError, require_arity,
                     require_int_in, require_mask, require_regime, require_type)
from .families import (MatchingGraph, UniformFamily, _orbit, is_k_wise_intersecting,
                       matching_star_bound, matching_universe)
from .schema import SCHEMA_VERSION

MODES = ("max_size_only", "all_maximum")

# the most universe members a search takes: a member index is one byte
# of a generator row
_MEMBER_CAP = 256
# the largest n whose group is listed; M_6's group has 46,080 elements
_LISTED_MAX_N = 6


# ---------------------------------------------------------------------------
# vertex relabelling groups
# ---------------------------------------------------------------------------

def apply_permutation(perm: tuple[int, ...], mask: int) -> int:
    """Apply a vertex permutation (perm[v-1] = image of v) to a bitmask.

    ``perm`` is trusted to permute 1..len(perm): the search checks each
    permutation once, where it enters, not on every call.  A mask that
    is not a nonnegative int, or a perm that has no int label >= 1 for
    one of the mask's vertices, raises ``ParameterError``.
    """
    require_mask(mask)
    out, rest = 0, mask
    try:
        while rest:
            low = rest & -rest
            out |= 1 << (perm[low.bit_length() - 1] - 1)
            rest ^= low
    except (TypeError, LookupError, ValueError):
        raise ParameterError(
            f"cannot apply {perm!r} to mask {mask:#x}: it must list an int "
            "label >= 1 for each vertex of the mask") from None
    return out


def matching_symmetry(n: int) -> tuple[tuple[int, ...], ...]:
    """All 2^n * n! relabellings of V(M_n) preserving the edge set.

    Generated by permuting the n edges and flipping the two endpoints
    of any edge.  Listed for n <= 6 only.
    """
    MatchingGraph(n)
    if n > _LISTED_MAX_N:
        raise CapacityError(
            f"group listing supports n <= {_LISTED_MAX_N}, got n={n}")
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


def matching_symmetry_generators(n: int) -> tuple[tuple[int, ...], ...]:
    """Generators of :func:`matching_symmetry`'s group: the generators of
    S_n from :func:`complete_symmetry` acting on the edges, each keeping
    every endpoint's side, and the flip of edge 1's endpoints.
    Identities and repeats, which occur for n <= 2, are left out."""
    MatchingGraph(n)
    identity = tuple(range(1, 2 * n + 1))
    lifted = (g + tuple(e + n for e in g) for g in complete_symmetry(n))
    flip = tuple({1: n + 1, n + 1: 1}.get(v, v) for v in identity)
    return tuple(dict.fromkeys(g for g in (*lifted, flip) if g != identity))


def complete_symmetry(m: int) -> tuple[tuple[int, ...], ...]:
    """Generators of the symmetric group on the ground set [m]: the swap
    of 1 and 2 and the m-cycle i -> i+1, repeats dropped (one for m <= 2;
    the identity alone for m = 1)."""
    require_int_in("m", m, 1, cap=WIDTH)
    cycle = tuple(range(2, m + 1)) + (1,)
    swap = (2, 1) + cycle[1:-1] if m > 1 else cycle
    return tuple(dict.fromkeys((swap, cycle)))


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
    # branches cut because the chosen members plus every candidate are
    # too few, and because the conflict matching lowers that count too far
    size_prunes: int
    conflict_prunes: int


def _row_reader(n: int, shift: int) -> Callable[[int], list[int]]:
    """The reader of an n-row bit matrix held as one int, row a at bits
    a*shift..(a+1)*shift-1, shift a multiple of 64: it returns rows
    0..n-1 as ints.  One-word rows are read with one cast of the
    matrix's bytes where the machine is little-endian; wider rows are
    read from precomputed byte slices."""
    step = shift // 8  # bytes per row
    size = n * step
    if step == 8 and sys.byteorder == "little":
        return lambda matrix: memoryview(matrix.to_bytes(size, "little")).cast("Q").tolist()
    spans = [slice(lo, lo + step) for lo in range(0, size, step)]
    from_bytes = int.from_bytes

    def read(matrix: int) -> list[int]:
        data = matrix.to_bytes(size, "little")
        return [from_bytes(data[s], "little") for s in spans]
    return read


def _image(fam: tuple[int, ...], row: bytes) -> tuple[int, ...]:
    """The sorted member indices of a family's image under a row."""
    return tuple(sorted([row[i] for i in fam]))


def _generator_rows(perms: tuple[tuple[int, ...], ...], masks: tuple[int, ...],
                    size: int) -> list[bytes]:
    """One row per permutation kept as a generator: row[i] is the index
    of the permutation's image of masks[i].

    ``perms`` is a tuple or list of int tuples or lists; the types of all
    of them are checked first, in bulk.  They are then read in order.
    One whose vertex images are already in the group the kept ones
    generate is skipped, being a known permutation of 1..size; any other
    must permute 1..size, gets its row from ``apply_permutation``, which
    must land in the universe, and is kept.  So every given permutation
    is checked, directly or as a product of checked ones.

    The group is closed coset by coset (Dimino's algorithm).  When a
    generator is kept, the group H held so far is copied; starting from
    the identity, each coset representative rep is composed with each
    kept generator t, and an image t(rep) not yet held brings in its
    whole left coset t(rep)H, so each element costs one composition.
    Cosets are added only while the group has fewer elements than there
    are permutations: a part of the group skips soundly, and a redundant
    permutation kept costs only its row.
    """
    if not isinstance(perms, (tuple, list)):
        raise ParameterError(
            f"a symmetry is a tuple or list of permutations, got {perms!r}")
    if not perms:
        raise ParameterError("a symmetry needs at least one permutation")

    def malformed(perm) -> ParameterError:
        return ParameterError(
            f"symmetry element {perm!r} is not a permutation of 1..{size}")

    # bool and float labels compare equal to ints, so check the type too
    if not (all(map(isinstance, perms, repeat((tuple, list))))
            and set(map(type, chain.from_iterable(perms))) == {int}):
        raise malformed(next(p for p in perms if not isinstance(p, (tuple, list))
                             or set(map(type, p)) != {int}))
    labels = set(range(1, size + 1))
    index = {m: i for i, m in enumerate(masks)}
    # vertex images are 1-based; translate tables have 256 entries
    identity, pad = bytes(range(size + 1)), bytes(range(size + 1, 256))
    group, tables, rows = {identity}, [], []
    for perm in perms:
        try:
            images = b"\0" + bytes(perm)
        except ValueError:  # a label outside 0..255
            raise malformed(perm) from None
        if images in group:
            continue
        if len(perm) != size or set(perm) != labels:
            raise malformed(perm)
        try:
            rows.append(bytes([index[apply_permutation(perm, m)] for m in masks]))
        except KeyError:
            raise ParameterError(
                "symmetry does not preserve the universe") from None
        tables.append(images + pad)
        old, reps = list(group), [identity]
        for rep in reps:  # the loop reaches what is appended to reps
            for t in tables:
                e = rep.translate(t)
                if len(group) < len(perms) and e not in group:
                    group.update([h.translate(e + pad) for h in old])
                    reps.append(e)
    return rows


def max_kwise_family(problem: SearchProblem) -> SearchResult:
    """Exact maximum k-wise intersecting subfamily of the universe.

    Modes: "max_size_only" reports just the maximum cardinality;
    "all_maximum" additionally reports every maximum family
    (canonically ordered).  Capacity: at most 256 universe members in
    every mode, so a member index fits in a byte.  Each ``symmetry``
    element must permute the labels 1..universe_size and map the
    universe onto itself; the search uses the group the permutations
    generate and reads its orbits from the kept generators' rows.  It
    lists group elements only while skipping redundant permutations, and
    then no more of them than permutations were given.

    For k > r or k >= |U| the answer is read from the stars without a
    search: a family of r-sets with no common vertex holds r + 1 members
    with none (one member, and one missing each of its vertices), and a
    subfamily of U has at most |U| members, so k-wise intersecting then
    means sharing a vertex.  The root is then the one explored node.

    Memory: a search that walks the tree keeps one conflict matrix of
    |U|*S bits, S = 64*ceil(|U|/64), for the whole vertex set and one
    per distinct intersection of 1..k-2 chosen members it meets.  They
    are keyed by vertex set, so there are at most 2^|V| of them,
    2^(2n) over M_n; at most 256 members make one at most 8 KB.
    """
    require_type("problem", problem, SearchProblem)
    universe, k, mode = problem.universe, problem.k, problem.mode
    require_type("universe", universe, UniformFamily)
    require_arity(k)
    if mode not in MODES:
        raise ParameterError(f"unknown mode {mode!r}")
    if universe.r < 1:
        raise ParameterError("the search needs members of cardinality r >= 1")
    if len(universe) > _MEMBER_CAP:
        raise CapacityError(
            f"universe has {len(universe)} members, the search supports {_MEMBER_CAP}")
    collect = mode != "max_size_only"

    start_time = time.perf_counter()
    masks = universe.sets
    through = [sum(1 << i for i, m in enumerate(masks) if m >> v & 1)
               for v in range(universe.universe_size)]
    best = max(t.bit_count() for t in through)  # the largest star
    full = (1 << universe.universe_size) - 1  # every vertex

    rows = ([] if problem.symmetry is None else
            _generator_rows(problem.symmetry, masks, universe.universe_size))

    # (size, member indices) of each family found at the best size so far
    records: list[tuple[int, tuple[int, ...]]] = []
    nodes = 1  # the empty-family root
    size_prunes = conflict_prunes = 0
    km2 = k - 2
    chosen: list[int] = []
    # levels[j] = the distinct intersections of the j-subsets of the chosen
    # family, j <= k-2; levels 1..k-2 are added once the Helly case below
    # is ruled out, since k is then below |U|
    levels: list[set[int]] = [{full}]

    def include(i: int, cand: int, depth: int) -> None:
        """Add member i to the ``depth`` chosen ones, filter the candidates
        and the conflict rows, record, prune, branch below it and undo."""
        nonlocal nodes, best, size_prunes, conflict_prunes, matrix, comp
        mi = masks[i]
        bind = min(km2, depth + 1)
        added: list = [()] * (bind + 1)  # k = 2 adds no intersection
        for j in range(bind, 0, -1):  # downward: levels[j-1] is still old
            added[j] = {x & mi for x in levels[j - 1]} - levels[j]
            levels[j] |= added[j]
        # i's row was narrowed by every intersection x of at most k-2 chosen
        # members, as i was a candidate at every ancestor: a member b in it
        # meets each mi & x, so i, b and any k-2 or fewer chosen share a vertex
        cand &= comp[i]
        chosen.append(i)
        depth += 1
        nodes += 1
        if depth >= best:
            best = depth
            if collect:
                records.append((depth, tuple(chosen)))
        undo = None
        while cand:
            # without collecting only a family larger than best matters, so
            # branches that can at most tie it are pruned too
            need = best + (not collect)  # the room a useful branch must have
            room = depth + cand.bit_count()
            if room < need:
                size_prunes += 1
                break
            # narrow the conflict rows by the intersections i adds once the
            # first size test has passed: the rows are the filters of the
            # members included below, not only a bound, so a row may stay
            # wide only where no member is included.  Every row is narrowed,
            # though only the candidates' rows are read below
            if undo is None and added[bind]:
                undo = matrix, comp
                for x in added[bind]:
                    matrix &= conflicts(x)
                comp = read(matrix)
            # at most one member of each pair in conflict can join
            rest = cand
            while rest and room >= need:
                low = rest & -rest
                rest ^= low
                clash = rest & ~comp[low.bit_length() - 1]
                if clash:
                    rest ^= clash & -clash
                    room -= 1
            if room < need:
                conflict_prunes += 1
                break
            low = cand & -cand
            cand ^= low
            include(low.bit_length() - 1, cand, depth)
        chosen.pop()
        if undo is not None:
            matrix, comp = undo
        for j in range(bind, 0, -1):
            levels[j] -= added[j]

    # Helly: the maxima are the largest stars (over an empty universe, the
    # empty family)
    if k > universe.r or k >= len(masks):
        if collect:
            records += [(best, tuple(i for i in range(len(masks)) if t >> i & 1))
                        for t in through if t.bit_count() == best]
    else:
        levels += [set() for _ in range(km2)]
        # comp[a] = the members b such that a, b and every intersection of
        # at most k-2 chosen members share a vertex: with none chosen, the
        # members meeting a.  comp[i] is member i's candidate filter.  The
        # rows are read from one bit matrix, row a at bits a*S..a*S+|U|-1:
        # conflicts(x) is vertex set x's matrix, whose row a is the members
        # meeting masks[a] & x, the OR over x's vertices v of outer[v],
        # through[v]'s outer product with itself (through[v] at row a for
        # each a in it).  The search starts from conflicts(full) and ANDs
        # in conflicts(x) for each intersection x a new member adds
        count = len(masks)
        shift = -(-count // WIDTH) * WIDTH  # S, whole 64-bit words per row
        ones = sum(1 << a * shift for a in range(count))  # bit 0 of each row
        # masks[a] at row a: its v-th column is the members through v
        laid = sum(m << a * shift for a, m in enumerate(masks))
        outer = [(laid >> v & ones) * t for v, t in enumerate(through)]

        @functools.cache  # one matrix per vertex set for the whole search
        def conflicts(x: int) -> int:
            out = 0
            while x:
                low = x & -x
                out |= outer[low.bit_length() - 1]
                x ^= low
            return out

        read = _row_reader(count, shift)
        matrix = conflicts(full)
        comp = read(matrix)
        covered: set[int] = set()
        for i0 in range(len(masks)):
            if i0 not in covered:  # ascending, so i0 is least in its orbit
                covered |= _orbit(i0, rows, lambda i, row: row[i])
                include(i0, (1 << len(masks)) - (2 << i0), 0)  # the members above i0

    witnesses: tuple[UniformFamily, ...] = ()
    all_are_stars: bool | None = None
    star_centers: tuple[int, ...] = ()
    if collect:
        found: set[tuple[int, ...]] = set()
        for size, fam in records:
            if size == best and fam not in found:
                found |= _orbit(fam, rows, _image)
        # indices ascend with masks, so this is the order of the mask tuples
        ordered = sorted(found)
        witnesses = tuple(
            UniformFamily(universe.universe_size, universe.r,
                          tuple(masks[i] for i in fam))
            for fam in ordered)
        for w in witnesses:
            if len(w) != best or not is_k_wise_intersecting(w, k):
                raise IntegrityError("collected witness fails verification")
        if witnesses and best > 0:
            bitsets = {sum(1 << i for i in fam) for fam in ordered}
            all_are_stars = bitsets <= set(through)
            star_centers = tuple(v for v, t in enumerate(through, 1)
                                 if t in bitsets)

    return SearchResult(best, witnesses, all_are_stars, star_centers,
                        nodes, time.perf_counter() - start_time,
                        size_prunes, conflict_prunes)


# ---------------------------------------------------------------------------
# extremal characterization over the matching universe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtremalReport(SearchResult):
    """Result of checking the closed-form bound and star uniqueness: the
    search's :class:`SearchResult`, prune counts included, whose
    ``all_are_stars`` is two-sided when uniqueness is asserted."""

    n: int
    r: int
    k: int
    mode: str
    bound_expected: int
    bound_met: bool
    boundary: bool
    uniqueness_asserted: bool
    witness_count: int

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

    def to_json_obj(self) -> dict:
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
        if self.mode != "max_size_only":
            obj["witnesses"] = [w.to_json_obj() for w in self.witnesses]
        return obj


def verify_extremal_characterization(n: int, r: int, k: int,
                                     mode: str = "all_maximum") -> ExtremalReport:
    """Search the union family over M_n and compare with the closed form.

    Asserts max_size equals the star bound.  Under the strict
    inequality k*r < (k-1)*2n the maximum families are additionally
    required to be exactly the stars; at the boundary
    k*r = (k-1)*2n the bound still holds but uniqueness is reported
    without being asserted.  The search reduces by M_n's symmetry
    group through its three generators.
    """
    require_int_in("n", n, 1)
    require_int_in("r", r, n, 2 * n - 1)
    require_arity(k)
    if mode not in MODES:
        raise ParameterError(f"unknown mode {mode!r}")
    require_regime(k, r, 2 * n, False, "the characterization")
    if n > 4:  # checked last: malformed input is a parameter error at any n
        raise CapacityError(f"exhaustive characterization supports n <= 4, got n={n}")

    universe = matching_universe(n, r)
    problem = SearchProblem(universe, k, mode, matching_symmetry_generators(n))
    result = max_kwise_family(problem)

    bound = matching_star_bound(n, r).value
    boundary = k * r == (k - 1) * 2 * n
    uniqueness_asserted = mode == "all_maximum" and not boundary
    all_are_stars = result.all_are_stars
    if uniqueness_asserted and all_are_stars:
        # uniqueness is two-sided: every star must also be a witness
        all_are_stars = len(result.star_centers) == 2 * n
    return ExtremalReport(
        **{**vars(result), "all_are_stars": all_are_stars},
        n=n, r=r, k=k, mode=mode,
        bound_expected=bound,
        bound_met=result.max_size == bound,
        boundary=boundary,
        uniqueness_asserted=uniqueness_asserted,
        witness_count=len(result.witnesses),
    )
