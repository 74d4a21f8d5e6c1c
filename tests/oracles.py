"""Independent brute-force oracles.

Everything here recomputes expected values straight from definitions
(subset filters, Pascal's triangle, permutation filters, exhaustive
subfamily scans and walks) without touching the production code paths
it is used to check.
"""

from itertools import combinations, permutations, product


def pascal_triangle(limit: int) -> list[list[int]]:
    rows = [[1]]
    for a in range(1, limit + 1):
        prev = rows[-1]
        row = [1] + [prev[b - 1] + (prev[b] if b < len(prev) else 0)
                     for b in range(1, a)] + [1]
        rows.append(row)
    return rows


def pascal_binomial(a: int, b: int, _cache={}) -> int:
    if b > a:
        return 0
    if "rows" not in _cache or len(_cache["rows"]) <= a:
        _cache["rows"] = pascal_triangle(max(a, 64))
    return _cache["rows"][a][b]


# -- matching families from definitions -------------------------------------

def edges_of_matching(n: int) -> list[tuple[int, int]]:
    return [(i, i + n) for i in range(1, n + 1)]


def is_independent_set(n: int, vertices: frozenset[int]) -> bool:
    return not any(a in vertices and b in vertices
                   for a, b in edges_of_matching(n))


def transversals(n: int) -> list[frozenset[int]]:
    """All maximum independent sets: one endpoint from every edge."""
    return [frozenset(choice) for choice in product(*edges_of_matching(n))]


def contains_transversal(n: int, vertices: frozenset[int]) -> bool:
    return any(t <= vertices for t in transversals(n))


def brute_family(n: int, r: int, kind: str) -> set[frozenset[int]]:
    """Filter all r-subsets of 1..2n by the definition of the kind."""
    out = set()
    for combo in combinations(range(1, 2 * n + 1), r):
        s = frozenset(combo)
        independent = is_independent_set(n, s)
        covering = contains_transversal(n, s)
        if kind == "independent" and independent:
            out.add(s)
        elif kind == "max_containing" and covering:
            out.add(s)
        elif kind == "union" and (independent or covering):
            out.add(s)
    return out


# -- k-wise intersection from the definition ---------------------------------

def kwise_ok(members: list[frozenset[int]], k: int) -> bool:
    if not members:
        return True
    depth = min(k, len(members))
    for combo in combinations(members, depth):
        common = set(combo[0])
        for s in combo[1:]:
            common &= s
            if not common:
                break
        if not common:
            return False
    return True


def brute_max_kwise(members: list[frozenset[int]], k: int
                    ) -> tuple[int, list[frozenset[frozenset[int]]]]:
    """Exhaustive maximum by descending-size subfamily scan.

    Returns the maximum size together with every subfamily achieving
    it (as frozensets of member sets).
    """
    for size in range(len(members), 0, -1):
        hits = [frozenset(combo) for combo in combinations(members, size)
                if kwise_ok(list(combo), k)]
        if hits:
            return size, hits
    return 0, [frozenset()]


def brute_max_kwise_masks(members: tuple[int, ...], k: int
                          ) -> tuple[int, list[tuple[int, ...]]]:
    """Exhaustive maximum on bitmask members by a depth-first walk.

    Member m joins the chosen ones only when every j-subset of them,
    0 <= j <= min(k-1, |chosen|), still shares a bit with m (the empty
    subset stands for every bit, so m must be nonempty).  k-wise
    intersection is closed under taking subfamilies, so the walk
    reaches every k-wise intersecting subfamily, each once, in the
    order combinations() lists them; it skips only branches with too
    few members left to reach the best size so far.  Returns the
    maximum size with every subfamily achieving it, or (0, [()]) when
    none qualifies.
    """
    best, hits = 0, [()]

    def walk(chosen: tuple[int, ...], start: int, meets: list[list[int]]):
        # meets[j]: the intersections of the j-subsets of chosen, j < k
        nonlocal best, hits
        if len(chosen) > best:
            best, hits = len(chosen), []
        if chosen and len(chosen) == best:
            hits.append(chosen)
        for i in range(start, len(members)):
            if len(chosen) + len(members) - i < best:
                return  # too few members left to reach the best size
            m = members[i]
            if all(meet & m for level in meets for meet in level):
                walk(chosen + (m,), i + 1,
                     meets[:1] + [meets[j] + [meet & m for meet in meets[j - 1]]
                                  for j in range(1, k)])

    walk((), 0, [[-1]] + [[] for _ in range(1, k)])  # -1 has every bit set
    return best, hits


# -- generators kept from a list of vertex permutations ----------------------

def kept_generators(perms: list[tuple[int, ...]], size: int
                    ) -> list[tuple[int, ...]]:
    """The permutations of 1..size (perm[v-1] = image of v) that a reading
    in order keeps: each one outside the group generated by those kept
    before it (at first the identity alone), that group listed afresh by
    a breadth-first search over compositions from the identity."""
    identity = tuple(range(1, size + 1))
    kept: list[tuple[int, ...]] = []
    group = {identity}
    for perm in map(tuple, perms):
        if perm in group:
            continue
        kept.append(perm)
        group, queue = {identity}, [identity]
        for y in queue:
            for g in kept:
                z = tuple(g[v - 1] for v in y)
                if z not in group:
                    group.add(z)
                    queue.append(z)
    return kept


# -- good cyclic orders from the definition ----------------------------------

def brute_good_orders(n: int) -> list[tuple[int, ...]]:
    """Filter all (2n)! arrangements; feasible up to n = 4."""
    size = 2 * n

    def partner(v: int) -> int:
        return v + n if v <= n else v - n

    out = []
    for seq in permutations(range(1, size + 1)):
        if seq[size - 1] != size:
            continue
        if all(seq[(p + n) % size] == partner(seq[p]) for p in range(size)):
            out.append(seq)
    return out


def reference_good_orders(n: int):
    """Yield the seq of every normalized good order, one order at a time,
    in the enumerator's order: for each permutation of the edges
    1..n-1 over positions 1..n-1, and for each bit pattern choosing
    the high endpoint (e + n) where the slot's bit is set, vertex n at
    position n and the partner of position p at p + n."""
    def partner(v: int) -> int:
        return v + n if v <= n else v - n

    for perm in permutations(range(1, n)):
        for bits in range(1 << (n - 1)):
            half = [edge + n if bits >> slot & 1 else edge
                    for slot, edge in enumerate(perm)] + [n]
            yield tuple(half + [partner(v) for v in half])


def windows_of(seq: tuple[int, ...], r: int) -> set[frozenset[int]]:
    size = len(seq)
    return {frozenset(seq[(s + j) % size] for j in range(r))
            for s in range(size)}


def saturation_of(seq: tuple[int, ...], members: set[frozenset[int]], r: int
                  ) -> tuple[bool, int, int | None, int | None] | str:
    """One good order's saturation by a family of r-sets, from the
    definitions: the members among its windows (``windows_of``), at most
    r of them.  Fewer than r give (False, count, None, None).  Exactly r
    saturate the order when they are the r windows through one position
    p, which gives (True, r, p, the vertex at p); r members that are not
    give "scattered", and more than r give "over"."""
    windows = windows_of(seq, r)
    hits = windows & members
    if len(hits) > r:
        return "over"
    if len(hits) < r:
        return False, len(hits), None, None
    for v in frozenset.intersection(*hits):
        if {w for w in windows if v in w} == hits:
            return True, r, seq.index(v) + 1, v
    return "scattered"


def first_kwise_witness(members: tuple[int, ...], k: int
                        ) -> tuple[int, ...] | None:
    """The first members with an empty intersection in the k-wise
    check's scan order, by a plain depth-first walk with no pruning.

    Members are taken by ascending (size, mask).  Strictly ascending
    index tuples up to min(k, |members|) long are visited depth first,
    a prefix before its extensions, skipping any pick that leaves the
    running intersection as it was.  The first tuple whose masks have
    no common bit is returned as picked; None when no tuple has one.
    """
    order = sorted(members, key=lambda m: (m.bit_count(), m))
    cap = min(k, len(order))

    def walk(prefix: tuple[int, ...], start: int, common: int):
        for i in range(start, len(order)):
            meet = common & order[i]
            if meet == common:
                continue
            picked = prefix + (order[i],)
            if meet == 0:
                return picked
            if len(picked) < cap:
                found = walk(picked, i + 1, meet)
                if found is not None:
                    return found
        return None

    return walk((), 0, -1)  # -1 has every bit set


def move_lemma_sweep(n: int, r: int, k: int, union_test: bool = True
                     ) -> tuple[int, int]:
    """(cases, survivors) of the local move lemma over every normalized
    good order, from the definitions: frozenset windows, the moves
    T_1..T_(n-2) and W_(n-1) as position swaps, and a candidate centre
    v' != 2n of the moved order surviving when its windows agree with
    the windows through 2n on every window both orders share and (with
    ``union_test``) the two window sets together are k-wise intersecting."""
    size = 2 * n
    moves = [((i, i + 1), (i + n, i + n + 1)) for i in range(1, n - 1)]
    if n >= 2:
        moves.append(((n - 1, 2 * n - 1),))
    cases = survivors = 0
    for seq in reference_good_orders(n):
        windows = windows_of(seq, r)
        through_2n = {w for w in windows if size in w}
        for swaps in moves:
            moved = list(seq)
            for p, q in swaps:
                moved[p - 1], moved[q - 1] = moved[q - 1], moved[p - 1]
            moved_windows = windows_of(tuple(moved), r)
            shared = windows & moved_windows
            for v in range(1, size):
                cases += 1
                through_v = {w for w in moved_windows if v in w}
                if through_v & shared == through_2n & shared and (
                        not union_test or kwise_ok(list(through_2n | through_v), k)):
                    survivors += 1
    return cases, survivors


# -- arcs on a circle from the definition ------------------------------------

def arc_starts_through(size: int, length: int, position: int) -> tuple[int, ...]:
    """Starts of the length-r arcs on positions 1..size containing
    ``position``: position - j for j < r, each wrapped, sorted."""
    return tuple(sorted((position - j - 1) % size + 1 for j in range(length)))
