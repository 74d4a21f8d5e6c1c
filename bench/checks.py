"""Answer checks that do not use the code they check.

Every helper here works from definitions: the union family is built
by filtering all r-subsets, k-wise intersection is tested with
itertools.combinations, and stars are read off the universe.  None of
them calls into matchwise.search or matchwise.families.kwise_witness.
Each check returns a list of problems; an empty list means the answer
passed.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations


@lru_cache(maxsize=None)
def union_family(n: int, r: int) -> tuple[int, ...]:
    """The union family over M_n by definition: r-sets with no full edge
    when r <= n, r-sets meeting every edge when r >= n."""
    low = (1 << n) - 1
    out = []
    for combo in combinations(range(2 * n), r):
        mask = 0
        for v in combo:
            mask |= 1 << v
        lo, hi = mask & low, mask >> n
        if (r <= n and not lo & hi) or (r >= n and (lo | hi) == low):
            out.append(mask)
    return tuple(sorted(out))


def star_bound(n: int, r: int) -> int:
    """The closed-form star size in the union family over M_n."""
    if r <= n:
        return 2 ** (r - 1) * math.comb(n - 1, r - 1)
    value = 2 ** (2 * n - r) * math.comb(n - 1, 2 * n - r)
    if 2 * n - r - 1 >= 0:
        value += 2 ** (2 * n - r - 1) * math.comb(n - 1, 2 * n - r - 1)
    return value


def stars(universe, width: int) -> dict[tuple[int, ...], list[int]]:
    """Each star of the universe (as a sorted mask tuple) with its centers."""
    out: dict[tuple[int, ...], list[int]] = {}
    for v in range(width):
        members = tuple(sorted(m for m in universe if m >> v & 1))
        out.setdefault(members, []).append(v + 1)
    return out


def is_kwise(members, k: int) -> bool:
    """Every choice of min(k, |family|) distinct members shares a vertex.

    Smaller choices then share one too, and repeating a member never
    shrinks an intersection, so this is the definition of k-wise
    intersecting.
    """
    members = list(members)
    for combo in combinations(members, min(k, len(members))):
        inter = -1
        for m in combo:
            inter &= m
        if not inter:
            return False
    return True


def mask_of(vertices) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << (v - 1)
    return mask


def good_order_count(n: int) -> int:
    return 2 ** (n - 1) * math.factorial(n - 1)


def check_search(answer: dict, *, universe, width: int, k: int, bound: int,
                 full: bool, strict: bool) -> list[str]:
    """Check a maximum-size answer, with witnesses when it lists them.

    ``universe`` is the family that was searched, ``bound`` the star
    bound of the union family it lies in.  For a full universe the
    maximum must equal the bound; for a sub-universe it must lie between
    the sub-universe's largest star and the bound.  Every listed witness
    is re-checked from the definition, every largest star that reaches
    the maximum must be listed, and under the strict inequality a full
    universe's witnesses must be exactly its stars.
    """
    problems = []
    universe = set(universe)
    star_map = stars(universe, width)
    largest_star = max((len(s) for s in star_map), default=0)
    size = answer.get("max_size")
    if full and (size != bound or largest_star != bound):
        problems.append(f"max_size {size}, star bound {bound}, "
                        f"largest star {largest_star}")
    if not full and not (isinstance(size, int) and largest_star <= size <= bound):
        problems.append(f"max_size {size} outside [{largest_star}, {bound}]")
    witnesses = answer.get("witnesses")
    if witnesses is None:
        return problems
    found = set()
    for w in witnesses:
        w = tuple(w)
        if len(w) != size or len(set(w)) != len(w):
            problems.append(f"witness of {len(w)} members, expected {size}")
        elif not set(w) <= universe:
            problems.append("witness leaves the universe")
        elif not is_kwise(w, k):
            problems.append(f"witness is not {k}-wise intersecting")
        found.add(tuple(sorted(w)))
    if not witnesses or len(found) != len(witnesses):
        problems.append("witness list is empty or repeats a family")
    maximal_stars = {s for s in star_map if len(s) == size}
    if not maximal_stars <= found:
        problems.append("a star of maximum size is not listed")
    if full and strict and found != set(star_map):
        problems.append("maximum families are not exactly the stars")
    if answer.get("all_are_stars") != (found <= set(star_map)):
        problems.append(f"all_are_stars={answer.get('all_are_stars')} is wrong")
    return problems
