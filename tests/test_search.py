import dataclasses
import functools
import inspect
import json
import random
import time
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

import matchwise
from matchwise import search
from matchwise import (CapacityError, IntegrityError, IntervalFamily, MatchingGraph,
                       ParameterError, SearchProblem, UniformFamily,
                       apply_permutation, assign_indices, binomial,
                       common_index, complete_star_bound, complete_symmetry,
                       complete_uniform_family, counting_bound, enumerate_family,
                       identity_order, intervals, is_interval,
                       is_k_wise_intersecting, kwise_witness,
                       mask_of, matching_star_bound, matching_symmetry,
                       matching_symmetry_generators, matching_universe,
                       max_kwise_family, move_lemma_check,
                       orders_containing_count, run_fuzz, saturation,
                       saturation_sweep, swap_halves, transpose,
                       verify_extremal_characterization, vertices_of)
from matchwise.cli import main

from oracles import brute_max_kwise, brute_max_kwise_masks, kept_generators


def as_frozen(fam: UniformFamily) -> frozenset[frozenset[int]]:
    return frozenset(frozenset(s) for s in fam.vertex_sets())


def oracle_check(universe: UniformFamily, k: int, result) -> None:
    members = [frozenset(s) for s in universe.vertex_sets()]
    max_size, witnesses = brute_max_kwise(members, k)
    assert result.max_size == max_size
    assert {as_frozen(w) for w in result.witnesses} == set(witnesses)
    if max_size == 0:
        assert result.all_are_stars is None and result.star_centers == ()
        return
    # star labels by definition: v is a center iff its star is a witness
    found = {w.sets for w in result.witnesses}
    stars = {v: universe.star(v).sets
             for v in range(1, universe.universe_size + 1)}
    assert result.star_centers == tuple(v for v, s in stars.items()
                                        if s in found)
    assert result.all_are_stars == (found <= set(stars.values()))


# ---------------------------------------------------------------------------
# vertex relabellings
# ---------------------------------------------------------------------------

def test_matching_symmetry_group_order():
    assert len(matching_symmetry(2)) == 2 ** 2 * 2
    assert len(matching_symmetry(3)) == 2 ** 3 * 6
    group = matching_symmetry(3)
    assert len(set(group)) == len(group)
    # every element preserves the edge set
    for perm in group:
        for e in range(1, 4):
            a, b = perm[e - 1], perm[e + 3 - 1]
            assert abs(a - b) == 3


def test_apply_permutation():
    perm = (2, 1, 5, 4, 3, 6)  # not edge-preserving, mechanics only
    assert apply_permutation(perm, mask_of({1, 3})) == mask_of({2, 5})


def test_complete_symmetry_generates_the_symmetric_group():
    for m in range(1, 7):
        identity = tuple(range(1, m + 1))
        closure = search._orbit(identity, complete_symmetry(m),
                                lambda p, g: tuple(g[v - 1] for v in p))
        assert closure == set(permutations(identity)), m
    assert complete_symmetry(1) == ((1,),)
    assert complete_symmetry(2) == ((2, 1),)
    assert complete_symmetry(4) == ((2, 1, 3, 4), (2, 3, 4, 1))


def test_group_listing_capacity():
    with pytest.raises(CapacityError, match="^group listing supports n <= 6, got n=7$"):
        matching_symmetry(7)


# ---------------------------------------------------------------------------
# the solver against the exhaustive oracle
# ---------------------------------------------------------------------------

def test_m3_r3_k3_all_maximum():
    universe = matching_universe(3, 3)
    result = max_kwise_family(SearchProblem(universe, 3))
    assert result.max_size == 4
    assert len(result.witnesses) == 6
    assert result.all_are_stars is True
    assert result.star_centers == (1, 2, 3, 4, 5, 6)
    oracle_check(universe, 3, result)


def test_complete_5_2_k2_all_maximum():
    universe = complete_uniform_family(5, 2)
    result = max_kwise_family(SearchProblem(universe, 2))
    assert result.max_size == 4
    assert len(result.witnesses) == 5
    assert result.all_are_stars is True
    oracle_check(universe, 2, result)


def test_complete_4_2_k2_boundary_negative_control():
    universe = complete_uniform_family(4, 2)
    result = max_kwise_family(SearchProblem(universe, 2))
    assert result.max_size == 3
    assert len(result.witnesses) == 8           # 4 stars and 4 triangles
    assert result.all_are_stars is False
    triangle = UniformFamily.from_vertex_sets(4, 2, [{1, 2}, {1, 3}, {2, 3}])
    assert triangle.sets in {w.sets for w in result.witnesses}
    oracle_check(universe, 2, result)


def test_witnesses_pass_kwise_and_have_max_size():
    universe = matching_universe(3, 4)
    result = max_kwise_family(SearchProblem(universe, 3))
    for w in result.witnesses:
        assert len(w) == result.max_size
        assert is_k_wise_intersecting(w, 3)


# (m, k, r) with 5 <= k <= r < m on 8-10 points where k r-sets can share
# no point (k complements of m-r points can cover [m])
DEEP_UNIVERSES = [(m, k, r) for m in range(8, 11) for k in range(5, 9)
                  for r in range(k, m) if k * (m - r) >= m]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_solver_agrees_with_oracle_on_random_universes(data):
    # k up to 12 reaches members added to fewer than k-2 chosen ones and to
    # k-2 or more, and the star answers for k > r and k >= |U|;
    # the deep draws, up to 12 members, also reach families of more than
    # k-2 members that k members of the universe can still break, where a
    # conflict row narrowed by fewer than all the (k-2)-wise intersections
    # lets a wrong member in
    if data.draw(st.booleans()):
        m, k, r = data.draw(st.sampled_from(DEEP_UNIVERSES))
        most = 12
    else:
        m = data.draw(st.integers(min_value=3, max_value=7))
        r = data.draw(st.integers(min_value=1, max_value=max(1, m - 1)))
        k = data.draw(st.integers(min_value=2, max_value=12))
        most = 10
    pool = complete_uniform_family(m, r).sets
    size = data.draw(st.integers(min_value=1, max_value=min(most, len(pool))))
    chosen = data.draw(st.permutations(list(pool)))[:size]
    universe = UniformFamily.from_masks(m, r, chosen)
    result = max_kwise_family(SearchProblem(universe, k))
    oracle_check(universe, k, result)
    max_size, hits = brute_max_kwise_masks(universe.sets, k)
    assert [w.sets for w in result.witnesses] == sorted(hits)


def _draw(r: int, seed: str, size: int) -> UniformFamily:
    """``size`` members of the n=5 union family, drawn as the benchmark does."""
    pool = matching_universe(5, r).sets
    return UniformFamily.from_masks(10, r, random.Random(seed).sample(pool, size))


@functools.cache
def _full(n: int, r: int, k: int):
    """The all-maximum search of P^r(M_n) under M_n's generators, run once."""
    return max_kwise_family(SearchProblem(matching_universe(n, r), k,
                                          symmetry=matching_symmetry_generators(n)))


def _circle(size: int, length: int) -> UniformFamily:
    """Every arc of ``length`` on a circle of ``size`` positions."""
    arcs = IntervalFamily(size, length, tuple(range(1, size + 1)))
    return UniformFamily.from_masks(size, length, map(arcs.mask, arcs.starts))


def test_helly_answers_large_k_from_the_stars():
    # k > r: 32-wise intersecting arcs share a position, so the maxima are
    # the 32 stars of 31 arcs each, read without a search.  The N = 20
    # circle at r = 19, k = 21 took 191 nodes and about 3 s by search
    universe = _circle(32, 31)
    start = time.perf_counter()
    result = max_kwise_family(SearchProblem(universe, 32))
    assert time.perf_counter() - start < 1.0
    assert result.explored_nodes == 1
    assert result.max_size == 31
    assert sorted(w.sets for w in result.witnesses) == sorted(
        universe.star(v).sets for v in range(1, 33))
    assert result.all_are_stars and result.star_centers == tuple(range(1, 33))


@pytest.mark.parametrize("r, k", [(6, 3), (7, 4)])
def test_solver_agrees_with_oracle_on_n5_draws(r, k):
    # deep candidate filtering: many members share one j-wise intersection
    for i in range(3):
        universe = _draw(r, f"oracle:{r}:{i}", 16)
        result = max_kwise_family(SearchProblem(universe, k))
        max_size, hits = brute_max_kwise_masks(universe.sets, k)
        assert result.max_size == max_size
        assert [w.sets for w in result.witnesses] == sorted(hits)


def _admissible_ks(n: int, r: int, count: int) -> list[int]:
    """The ``count`` smallest k >= 2 with k*r <= (k-1)*2n."""
    ks, k = [], 2
    while len(ks) < count:
        if k * r <= (k - 1) * 2 * n:
            ks.append(k)
        k += 1
    return ks


def _dense_draws():
    """Draws of 14-16 members of the n=4 union families (all 8 members at
    r=7), where most pairs of members share a vertex and the conflict
    matching prunes, at the three smallest admissible arities."""
    for r in (5, 6, 7):
        pool = matching_universe(4, r).sets
        sizes = (14, 15, 16) if len(pool) > 16 else (len(pool),)
        for k in _admissible_ks(4, r, 3):
            for i, size in enumerate(sizes):
                members = random.Random(f"dense:{r}:{k}:{i}").sample(pool, size)
                yield pytest.param(UniformFamily.from_masks(8, r, members), k,
                                   id=f"r{r}-k{k}-{size}")
    for k in (2, 3):
        yield pytest.param(complete_uniform_family(6, 3), k, id=f"complete-6-3-k{k}")


@pytest.mark.parametrize("universe, k", _dense_draws())
def test_conflict_bound_agrees_with_oracle(universe, k):
    max_size, hits = brute_max_kwise_masks(universe.sets, k)
    every = max_kwise_family(SearchProblem(universe, k))
    assert every.max_size == max_size
    assert [w.sets for w in every.witnesses] == sorted(hits)
    assert max_kwise_family(
        SearchProblem(universe, k, "max_size_only")).max_size == max_size


def test_oracle_walk_matches_the_subfamily_scan():
    # the depth-first mask oracle against the descending-size scan
    rng = random.Random("oracle-walk")
    edge_cases = [((), 2), ((0,), 2), ((0, 1, 2), 3), ((1, 2, 4), 2)]
    for members, k in edge_cases + [
            (tuple(rng.sample(range(64), rng.randint(0, 9))), rng.randint(2, 4))
            for _ in range(60)]:  # 0 is the empty set
        size, hits = brute_max_kwise_masks(members, k)
        as_sets = {m: frozenset(v for v in range(6) if m >> v & 1) for m in members}
        want_size, want = brute_max_kwise(list(as_sets.values()), k)
        assert size == want_size
        assert len(hits) == len(want)
        assert {frozenset(as_sets[m] for m in hit) for hit in hits} == set(want)


def test_conflict_bound_fires_on_dense_draws():
    fired = {param.id.split("-")[0] for param in _dense_draws()
             if max_kwise_family(SearchProblem(*param.values)).conflict_prunes}
    assert {"r5", "r6", "complete"} <= fired


def test_prune_counts_by_reason():
    result = max_kwise_family(SearchProblem(matching_universe(4, 5), 3))
    assert result.conflict_prunes > 0 and result.size_prunes > 0
    # a node is pruned for one reason at most, and the root never is
    assert result.size_prunes + result.conflict_prunes < result.explored_nodes


# ---------------------------------------------------------------------------
# modes, symmetry, determinism
# ---------------------------------------------------------------------------

def test_symmetry_does_not_change_results():
    universe = matching_universe(3, 4)
    plain = max_kwise_family(SearchProblem(universe, 3))
    sym = max_kwise_family(SearchProblem(universe, 3, symmetry=matching_symmetry(3)))
    assert plain.max_size == sym.max_size
    assert [w.sets for w in plain.witnesses] == [w.sets for w in sym.witnesses]


def test_modes():
    universe = matching_universe(3, 3)
    max_only = max_kwise_family(SearchProblem(universe, 3, "max_size_only"))
    assert max_only.max_size == 4
    assert max_only.witnesses == ()
    assert max_only.all_are_stars is None
    every = max_kwise_family(SearchProblem(universe, 3, "all_maximum"))
    assert every.max_size == 4 and every.all_are_stars


def test_empty_universe():
    # no independent 4-set on M_3: the empty family is the one maximum
    universe = enumerate_family(3, 4, "independent")
    every = max_kwise_family(SearchProblem(universe, 3, "all_maximum"))
    assert every.max_size == 0
    assert [w.sets for w in every.witnesses] == [()]
    assert every.all_are_stars is None
    assert every.explored_nodes == 1
    assert max_kwise_family(SearchProblem(universe, 3, "max_size_only")).witnesses == ()


def test_parameter_and_capacity_errors():
    universe = matching_universe(3, 3)
    with pytest.raises(ParameterError):
        max_kwise_family(SearchProblem(universe, 1))
    for mode in ("everything", "one_witness"):
        with pytest.raises(ParameterError):
            max_kwise_family(SearchProblem(universe, 3, mode))
        with pytest.raises(ParameterError):
            verify_extremal_characterization(5, 5, 3, mode)  # before n <= 4
    big = complete_uniform_family(12, 4)        # 495 members
    for mode in search.MODES:
        with pytest.raises(CapacityError):
            max_kwise_family(SearchProblem(big, 2, mode))
    mid = complete_uniform_family(10, 2)        # 45 members: every mode runs
    every = max_kwise_family(SearchProblem(mid, 2, "all_maximum"))
    assert every.max_size == 9 and every.all_are_stars
    assert every.star_centers == tuple(range(1, 11))
    assert [w.sets for w in every.witnesses] == \
        sorted(mid.star(v).sets for v in range(1, 11))
    assert max_kwise_family(SearchProblem(mid, 2, "max_size_only")).max_size == 9
    with pytest.raises(CapacityError):
        complete_symmetry(65)
    with pytest.raises(ParameterError):
        complete_symmetry(0)


def test_symmetry_must_preserve_universe():
    universe = matching_universe(3, 3)
    skewed = UniformFamily.from_masks(6, 3, universe.sets[:-1])
    with pytest.raises(ParameterError):
        max_kwise_family(SearchProblem(skewed, 3, symmetry=matching_symmetry(3)))
    # a hole away from the orbit representatives is caught as well
    group = matching_symmetry(4)
    universe = matching_universe(4, 5)
    reps = {min(apply_permutation(g, m) for g in group) for m in universe.sets}
    for missing in (universe.sets[-1], universe.sets[len(universe) // 2]):
        assert missing not in reps
        holed = UniformFamily.from_masks(
            8, 5, [m for m in universe.sets if m != missing])
        for mode in ("all_maximum", "max_size_only"):
            with pytest.raises(ParameterError):
                max_kwise_family(SearchProblem(holed, 3, mode, group))
    with pytest.raises(ParameterError):
        max_kwise_family(SearchProblem(universe, 3, symmetry=()))
    # the container itself must be a tuple or list
    for symmetry in (iter(group), 5):
        with pytest.raises(ParameterError, match="tuple or list of permutations"):
            max_kwise_family(SearchProblem(universe, 3, symmetry=symmetry))


def test_symmetry_generates_its_group():
    # the permutations need not form a group: the search uses the group
    # they generate, so the witnesses are the plain search's
    G = matching_symmetry(3)
    cases = [(complete_uniform_family(4, 1), 2, ((2, 3, 4, 1),), 4),
             (matching_universe(3, 3), 3, (G[1], G[8], G[16]), 6),
             (matching_universe(3, 3), 3, (G[0], G[1], G[8]), 6)]
    for universe, k, gens, count in cases:
        plain = max_kwise_family(SearchProblem(universe, k))
        every = max_kwise_family(SearchProblem(universe, k, symmetry=gens))
        assert len(plain.witnesses) == count
        assert [w.sets for w in every.witnesses] == \
            [w.sets for w in plain.witnesses]
        assert every.star_centers == plain.star_centers
    # an edge swap, an edge 5-cycle and one flip generate all of M_5's group
    G5 = matching_symmetry(5)
    universe = matching_universe(5, 5)
    full = max_kwise_family(SearchProblem(universe, 3, symmetry=G5))
    got = max_kwise_family(
        SearchProblem(universe, 3, symmetry=(G5[768], G5[1056], G5[1])))
    assert [w.sets for w in got.witnesses] == [w.sets for w in full.witnesses]
    assert got.explored_nodes == full.explored_nodes == 94


# generators of groups far larger than the universe: the search reads
# orbits from them and must not list the group (S_12 has 479,001,600
# elements), so each case runs within a budget of a few seconds
LARGE_GROUPS = [
    pytest.param(matching_universe(8, 15), 16, "max_size_only",
                 matching_symmetry_generators(8), 15, 0, id="matching-8"),
    pytest.param(matching_universe(10, 19), 20, "max_size_only",
                 matching_symmetry_generators(10), 19, 0, id="matching-10"),
    pytest.param(complete_uniform_family(12, 1), 2, "all_maximum",
                 complete_symmetry(12), 1, 12, id="complete-12"),
]


@pytest.mark.parametrize("universe, k, mode, gens, max_size, witnesses",
                         LARGE_GROUPS)
def test_generators_of_large_groups_are_not_listed(universe, k, mode, gens,
                                                   max_size, witnesses):
    started = time.perf_counter()
    result = max_kwise_family(SearchProblem(universe, k, mode, gens))
    assert time.perf_counter() - started < 3.0
    assert result.max_size == max_size
    assert len(result.witnesses) == witnesses


NON_INT_ARGUMENTS = [
    (verify_extremal_characterization, (3.0, 3, 3)),
    (verify_extremal_characterization, (3, 3.0, 3)),
    (verify_extremal_characterization, (3, 3, 3.0)),
    (verify_extremal_characterization, (True, 1, 2)),
    (verify_extremal_characterization, (3, 3, True)),
    (lambda k: max_kwise_family(SearchProblem(matching_universe(3, 3), k)), (2.5,)),
    (lambda k: max_kwise_family(SearchProblem(matching_universe(3, 3), k)), (True,)),
    (lambda k: kwise_witness(matching_universe(3, 3), k), (2.0,)),
    (lambda k: kwise_witness(matching_universe(3, 3), k), (True,)),
    (matching_symmetry, (3.0,)),
    (matching_symmetry, (True,)),
    (matching_symmetry_generators, (3.0,)),
    (matching_symmetry_generators, ("3",)),
    (lambda mask: apply_permutation((2, 1), mask), (True,)),
    (lambda n: matching_universe(n, 3), (3.0,)),
    (complete_symmetry, (3.0,)),
    (complete_symmetry, (True,)),
    # the layers below the search
    (lambda k: assign_indices(IntervalFamily(6, 2, (1, 2)), k), (3.0,)),
    (lambda k: assign_indices(IntervalFamily(6, 2, (1, 2)), k), ("3",)),
    (lambda k: common_index(IntervalFamily(6, 2, (1, 2)), k), (3.0,)),
    (lambda k: common_index(IntervalFamily(6, 2, (1, 2)), k), ("3",)),
    (lambda k: saturation(identity_order(3), matching_universe(3, 3).star(1), k),
     (3.0,)),
    (lambda r: enumerate_family(3, r, "union"), (3.0,)),
    (matching_star_bound, (3, 3.0)),
    (complete_uniform_family, (4.0, 2)),
    (complete_star_bound, (4.0, 2)),
    (binomial, (4.0, 2)),
    (orders_containing_count, (3, 3.0)),
    (lambda trials: run_fuzz("assignment", trials), (3.0,)),
    (lambda v: matching_universe(3, 3).star(v), (2.0,)),
    (lambda v: matching_universe(3, 3).star(v), (True,)),
    (MatchingGraph(3).partner, (2.0,)),
    (MatchingGraph(3).partner, ("a",)),
    (vertices_of, (None,)),
    (vertices_of, (2.0,)),
    (lambda mask: apply_permutation((2, 1), mask), (1.0,)),
    (lambda n: saturation_sweep(n, matching_universe(3, 3).star(1), 3), (3.0,)),
    (counting_bound, (3, None)),
]


# a mask, permutation, family or size that cannot be used, rather than a
# leaked TypeError or IndexError, or a loop that never ends
MALFORMED_MASK_CALLS = [
    pytest.param(lambda: vertices_of(-1), id="vertices-negative"),
    pytest.param(lambda: apply_permutation((2, 1), -1), id="permute-negative"),
    pytest.param(lambda: apply_permutation(None, 3), id="permute-none"),
    pytest.param(lambda: apply_permutation((2, 1), 4), id="permute-short"),
    pytest.param(lambda: apply_permutation((0, 1), 1), id="permute-label-0"),
    pytest.param(lambda: apply_permutation((1.0, 2), 1), id="permute-label-float"),
    pytest.param(lambda: apply_permutation({"n": 3}, 3), id="permute-mapping"),
    pytest.param(lambda: MatchingGraph(3).full_edge_count(None), id="full-edges-none"),
    pytest.param(lambda: MatchingGraph(3).full_edge_count(2.0), id="full-edges-float"),
    pytest.param(lambda: MatchingGraph(3).full_edge_count("x"), id="full-edges-str"),
    pytest.param(lambda: MatchingGraph(3).full_edge_count([1]), id="full-edges-list"),
    pytest.param(lambda: MatchingGraph(3).full_edge_count(-1), id="full-edges-negative"),
    pytest.param(lambda: MatchingGraph(3).is_independent(-1), id="independent-negative"),
    # M_2 has no vertex 5, 6 or 11
    pytest.param(lambda: MatchingGraph(2).full_edge_count(0b110101), id="full-edges-beyond"),
    pytest.param(lambda: MatchingGraph(2).is_independent(1 << 10), id="independent-beyond"),
    pytest.param(lambda: MatchingGraph(2).covers_all_edges(0b11111), id="covers-beyond"),
    pytest.param(lambda: MatchingGraph(3).covers_all_edges(None), id="covers-none"),
    pytest.param(lambda: MatchingGraph(3).covers_all_edges(2.0), id="covers-float"),
    pytest.param(lambda: MatchingGraph(3).covers_all_edges("x"), id="covers-str"),
    pytest.param(lambda: MatchingGraph(3).covers_all_edges([1]), id="covers-list"),
    pytest.param(lambda: MatchingGraph(3).covers_all_edges(-1), id="covers-negative"),
    pytest.param(lambda: max_kwise_family(SearchProblem(UniformFamily(6, 0, (0,)), 3)),
                 id="search-r-0"),
    pytest.param(lambda: complete_uniform_family(4, 5), id="complete-r-beyond-m"),
    pytest.param(lambda: complete_star_bound(0, 1), id="star-bound-m-0"),
    pytest.param(lambda: MatchingGraph(3).partner(7), id="partner-beyond-2n"),
]


@pytest.mark.parametrize("call", MALFORMED_MASK_CALLS)
def test_masks_and_permutations_reject_malformed_values(call):
    with pytest.raises(ParameterError):
        call()


@pytest.mark.parametrize("call, args", NON_INT_ARGUMENTS)
def test_search_entry_points_reject_non_int_arguments(call, args):
    with pytest.raises(ParameterError, match="must be an int"):
        call(*args)


# every entry point that takes an arity k, from the arc layer up
ARITY_CALLS = [
    lambda k: assign_indices(IntervalFamily(6, 2, (1, 2)), k),
    lambda k: common_index(IntervalFamily(6, 2, (1, 2)), k),
    lambda k: saturation(identity_order(4), matching_universe(4, 5).star(8), k),
    lambda k: kwise_witness(matching_universe(3, 3), k),
    lambda k: max_kwise_family(SearchProblem(matching_universe(3, 3), k)),
    lambda k: verify_extremal_characterization(3, 3, k),
    lambda k: move_lemma_check(3, 4, k),
    lambda k: saturation_sweep(4, matching_universe(4, 5).star(8), k),
]


@pytest.mark.parametrize("call", ARITY_CALLS)
def test_arity_is_one_check_everywhere(call):
    # k = 1 is a malformed arity before any regime check sees it
    with pytest.raises(ParameterError, match="^k must be at least 2, got 1$"):
        call(1)
    with pytest.raises(ParameterError, match="^k must be an int, got True$"):
        call(True)


# every entry point that takes a library object, from the arc layer up
WRONG_OBJECT_TYPES = [
    lambda: intervals(None, 2),
    lambda: is_interval(None, 3),
    lambda: transpose(None, 1),
    lambda: swap_halves(None, 1),
    lambda: saturation(None, matching_universe(3, 4).star(6), 3),
    lambda: saturation(identity_order(3), None, 3),
    lambda: saturation_sweep(3, None, 3),
    lambda: assign_indices(None, 3),
    lambda: common_index(None, 3),
    lambda: kwise_witness(None, 3),
    lambda: is_k_wise_intersecting((3, 5), 2),
    lambda: kwise_witness(IntervalFamily(6, 2, (1, 2)), 3),  # an arc family
    lambda: max_kwise_family(SearchProblem(None, 3)),
    lambda: max_kwise_family(None),
]


@pytest.mark.parametrize("call", WRONG_OBJECT_TYPES)
def test_entry_points_reject_wrong_object_types(call):
    with pytest.raises(ParameterError, match="must be of type"):
        call()


def test_every_public_name_resolves_once():
    assert len(set(matchwise.__all__)) == len(matchwise.__all__)
    for name in matchwise.__all__:
        assert hasattr(matchwise, name), name


MALFORMED_SYMMETRY = [
    (1, 2, 3),                  # too few labels
    (1, 2, 3, 4, 5, 6, 7),      # too many labels
    (0, 2, 3, 4, 5, 6),         # labels are 1-based
    (1, 2, 3, 4, 5, 6.0),       # not an int
    (True, 2, 3, 4, 5, 6),      # not an int either
    (1, 1, 3, 4, 5, 6),         # not a permutation
    (1, 2, 3, 4, 5, 300),       # a label beyond a byte
    (-1, 2, 3, 4, 5, 6),        # a negative label
    "123456",                   # not a tuple or list
]


@pytest.mark.parametrize("perm", MALFORMED_SYMMETRY)
def test_symmetry_elements_must_be_permutations(perm):
    universe = matching_universe(3, 3)
    group = matching_symmetry(3)
    for mode in ("all_maximum", "max_size_only"):
        for symmetry in ((perm,), group + (perm,)):
            with pytest.raises(ParameterError):
                max_kwise_family(SearchProblem(universe, 3, mode, symmetry))


def test_malformed_elements_are_reported_before_the_universe_is_checked():
    # every element's types are checked before any is applied to the universe
    with pytest.raises(ParameterError, match="is not a permutation of 1..6"):
        max_kwise_family(SearchProblem(
            UniformFamily.from_masks(6, 3, [7]), 3,
            symmetry=((6, 2, 3, 4, 5, 1), (1, 2, 3, 4, 5, 6.0))))


# explored_nodes is deterministic, so any change to it is a change to the
# search tree; a new pruning rule should update these on purpose.  An id
# that names a count is the count before the conflict-matching bound, kept
# so that the test ids stay stable.
NODE_COUNTS = [
    pytest.param(lambda: verify_extremal_characterization(4, 5, 3), 132,
                 id="<lambda>-7635"),
    pytest.param(lambda: verify_extremal_characterization(4, 6, 4), 431,
                 id="<lambda>-4498"),
    (lambda: verify_extremal_characterization(4, 4, 2), 577),
    pytest.param(lambda: max_kwise_family(
        SearchProblem(matching_universe(4, 5), 3)), 266, id="<lambda>-14826"),
    pytest.param(lambda: max_kwise_family(
        SearchProblem(matching_universe(4, 5), 3, "max_size_only")), 75,
        id="<lambda>-9198"),
    pytest.param(lambda: max_kwise_family(
        SearchProblem(matching_universe(5, 5), 3, "max_size_only",
                      matching_symmetry(5))), 2, id="<lambda>-1140"),
    # complementary pairs match perfectly and leave room for exactly the
    # maximum, so the conflict matching cannot cut this all-maximum search
    (lambda: max_kwise_family(
        SearchProblem(complete_uniform_family(6, 3), 2)), 6153),
    # an edge swap, an edge 5-cycle and one flip generate the same group
    pytest.param(lambda: max_kwise_family(
        SearchProblem(matching_universe(5, 5), 3, "max_size_only",
                      tuple(matching_symmetry(5)[i] for i in (768, 1056, 1)))),
        2, id="generators-1140"),
    # the first 34-member panel draws of the n=5 sub-universe benchmark
    pytest.param(lambda: max_kwise_family(
        SearchProblem(_draw(6, "panel:6:0", 34), 3)), 138, id="panel-r6-11212"),
    pytest.param(lambda: max_kwise_family(
        SearchProblem(_draw(7, "panel:7:0", 34), 4)), 370, id="panel-r7-4445"),
    # large k, where most members join with k-2 or more chosen ones
    pytest.param(lambda: verify_extremal_characterization(4, 6, 5), 240,
                 id="verify-4-6-5"),
    pytest.param(lambda: max_kwise_family(SearchProblem(_circle(14, 12), 7)), 343,
                 id="circle-14-12-k7"),
    # whole n = 5 and n = 6 universes under M_n's generators: 64 members
    # fill one 64-bit word per conflict row, 80 members take two
    pytest.param(lambda: _full(6, 6, 3), 237, id="full-6-6-3"),
    pytest.param(lambda: _full(5, 6, 3), 676, id="full-5-6-3"),
    pytest.param(lambda: _full(5, 7, 4), 15823, id="full-5-7-4"),
    pytest.param(lambda: _full(5, 8, 5), 52433, id="full-5-8-5"),
    # k >= 4: with fewer than k-2 members chosen the conflict matching
    # already counts the pairs sharing no vertex with an intersection of
    # the chosen ones; a search whose rows stay full until k-2 are chosen explores
    # the node counts in the comments
    pytest.param(lambda: max_kwise_family(SearchProblem(
        matching_universe(5, 5), 4, "max_size_only",
        matching_symmetry_generators(5))), 2, id="full-5-5-4-max"),  # 17
    pytest.param(lambda: max_kwise_family(SearchProblem(
        matching_universe(5, 5), 5, "max_size_only",
        matching_symmetry_generators(5))), 2, id="full-5-5-5-max"),  # 97
    pytest.param(lambda: verify_extremal_characterization(4, 5, 5), 125,
                 id="verify-4-5-5"),  # 209
    pytest.param(lambda: verify_extremal_characterization(4, 6, 6), 238,
                 id="verify-4-6-6"),  # 289
]


@pytest.mark.parametrize("run, nodes", NODE_COUNTS)
def test_explored_node_counts(run, nodes):
    assert run().explored_nodes == nodes


@pytest.mark.parametrize("n, r, k, prunes", [
    (6, 6, 3, (131, 88)), (5, 6, 3, (171, 492)),
    (5, 7, 4, (246, 15562)), (5, 8, 5, (16041, 36374)),
    # k = 2 adds no intersection, so its rows are never narrowed
    (5, 4, 2, (83, 2275)), (4, 3, 2, (27, 41))])
def test_full_universe_prune_counts(n, r, k, prunes):
    result = _full(n, r, k)
    assert (result.size_prunes, result.conflict_prunes) == prunes
    assert result.all_are_stars and len(result.star_centers) == 2 * n


ROW_SIZES = [1, 63, 64, 65, 128, 256]  # each side of the one-word boundary


def _check_row_reader(row_reader, size: int) -> None:
    """Row a of a matrix must be bits a*S..a*S+size-1, S = 64*ceil(size/64)
    as the search lays it out, for the matrix of full rows and for seeded
    random ones."""
    shift = -(-size // 64) * 64
    full = (1 << size) - 1
    for seed in range(4):
        rng = random.Random(f"rows:{size}:{seed}")
        matrix = sum((rng.getrandbits(size) if seed else full) << a * shift
                     for a in range(size))
        want = [matrix >> a * shift & full for a in range(size)]
        assert row_reader(size, shift)(matrix) == want, seed


@pytest.mark.parametrize("size", ROW_SIZES)
def test_row_reader_reads_each_row(size):
    _check_row_reader(search._row_reader, size)


@pytest.mark.parametrize("size", ROW_SIZES)
def test_row_reader_check_rejects_the_other_byte_order(size):
    # negative control: a copy that writes the matrix's bytes big-endian
    # and reads them as before fails the check at every size
    mutant = inspect.getsource(search._row_reader).replace(
        'to_bytes(size, "little")', 'to_bytes(size, "big")')
    assert mutant.count('"big"') == 2
    scope = dict(vars(search))
    exec(mutant, scope)
    with pytest.raises(AssertionError):
        _check_row_reader(scope["_row_reader"], size)


# ---------------------------------------------------------------------------
# extremal characterization reports
# ---------------------------------------------------------------------------

def test_characterization_m4_r5_k3():
    report = verify_extremal_characterization(4, 5, 3)
    assert report.bound_expected == 20
    assert report.max_size == 20
    assert report.bound_met
    assert not report.boundary
    assert report.uniqueness_asserted
    assert report.all_are_stars is True
    assert report.witness_count == 8
    assert report.star_centers == tuple(range(1, 9))
    assert report.ok


@pytest.mark.parametrize("n, r, k, mode", [
    (n, r, k, mode) for n in range(1, 5) for r in range(n, 2 * n)
    for k in _admissible_ks(n, r, 2) for mode in search.MODES])
def test_characterization_report_is_the_search_result(n, r, k, mode):
    # the report is the search's own result, prune counts included; only
    # the timing and the two-sided all_are_stars are its own
    report = verify_extremal_characterization(n, r, k, mode)
    result = max_kwise_family(SearchProblem(
        matching_universe(n, r), k, mode, matching_symmetry_generators(n)))
    assert isinstance(report, search.SearchResult)
    for field in dataclasses.fields(search.SearchResult):
        if field.name not in ("elapsed", "all_are_stars"):
            assert getattr(report, field.name) == getattr(result, field.name), field.name


def test_characterization_needs_every_star_as_a_witness(monkeypatch):
    # negative control: with star(1) missing from the witnesses, every
    # witness is still a star, yet uniqueness fails
    real = search.max_kwise_family

    def drop_first_star(problem):
        result = real(problem)
        return dataclasses.replace(result, witnesses=result.witnesses[1:],
                                   star_centers=result.star_centers[1:])

    monkeypatch.setattr(search, "max_kwise_family", drop_first_star)
    report = verify_extremal_characterization(4, 5, 3)
    assert report.all_are_stars is False
    assert not report.ok
    assert report.witness_count == 7


def test_characterization_fails_when_the_bound_is_missed(monkeypatch):
    # negative control: a closed form one above the search's maximum fails
    # the report, and verify exits 1 with or without --check-stars
    real = search.matching_star_bound
    monkeypatch.setattr(search, "matching_star_bound", lambda n, r: dataclasses.replace(
        real(n, r), value=real(n, r).value + 1))
    report = verify_extremal_characterization(3, 4, 3)
    assert report.max_size == 8 and report.bound_expected == 9
    assert not report.bound_met and not report.ok
    argv = ["verify", "--n", "3", "--r", "4", "--k", "3", "--all-maximum"]
    assert main(argv) == 1
    assert main([*argv, "--check-stars"]) == 1


def test_collected_witnesses_are_verified(monkeypatch):
    # negative control: a k-wise check forged to fail every witness
    monkeypatch.setattr(search, "is_k_wise_intersecting", lambda fam, k: False)
    with pytest.raises(IntegrityError, match="collected witness fails verification"):
        max_kwise_family(SearchProblem(matching_universe(3, 4), 3))


def test_characterization_m4_r4_k3():
    report = verify_extremal_characterization(4, 4, 3)
    assert report.max_size == 8 == report.bound_expected
    assert report.all_are_stars is True and report.ok


def test_characterization_boundary_m3_r4_k3():
    report = verify_extremal_characterization(3, 4, 3)
    assert report.boundary
    assert not report.uniqueness_asserted
    assert report.bound_met and report.max_size == 8
    assert report.ok                            # bound alone decides at boundary
    obj = report.to_json_obj()
    assert obj["uniqueness"] == "boundary: not asserted"


def test_characterization_json_fields():
    report = verify_extremal_characterization(3, 3, 3)
    obj = report.to_json_obj()
    for field in ("schema_version", "max_size", "bound_expected", "bound_met",
                  "witness_count", "all_are_stars", "star_centers",
                  "explored_nodes", "elapsed_ms", "witnesses"):
        assert field in obj
    assert obj["witness_count"] == 6


def test_characterization_preconditions():
    with pytest.raises(CapacityError):
        verify_extremal_characterization(5, 5, 3)
    for n, r, k in ((5, 20, 3), (5, 5, 1), (5, 9, 3)):  # malformed at any n
        with pytest.raises(ParameterError):
            verify_extremal_characterization(n, r, k)
    with pytest.raises(ParameterError):
        verify_extremal_characterization(3, 2, 3)
    with pytest.raises(ParameterError):
        verify_extremal_characterization(3, 5, 3)   # k*r > (k-1)*2n


def test_characterization_additional_regimes():
    # k = 4 boundary at r = 6: bound holds, uniqueness not asserted
    report = verify_extremal_characterization(4, 6, 4)
    assert report.boundary and report.bound_met and report.max_size == 18
    # one arity higher the regime is strict and the stars are unique
    report = verify_extremal_characterization(4, 6, 5)
    assert report.uniqueness_asserted and report.all_are_stars
    assert report.max_size == 18 and report.witness_count == 8
    # near-full cardinality over the 8-member universe
    report = verify_extremal_characterization(4, 7, 8)
    assert report.max_size == 7 and report.all_are_stars and report.ok
    report = verify_extremal_characterization(3, 5, 6)
    assert report.max_size == 5 and report.witness_count == 6 and report.ok


def _symmetry_cases():
    for n in (2, 3):
        for r in range(1, 2 * n):
            for k in (2, 3):
                yield n, r, k
    # every in-regime (n <= 4, r) at its two smallest admissible arities
    for n in range(1, 5):
        for r in range(n, 2 * n):
            for k in _admissible_ks(n, r, 2):
                yield n, r, k
    yield from ((5, 5, 3), (5, 9, 10))


def test_symmetry_differential_across_small_universes():
    groups = {}
    for n, r, k in _symmetry_cases():
        group = groups.setdefault(n, matching_symmetry(n))
        universe = matching_universe(n, r)
        plain = max_kwise_family(SearchProblem(universe, k))
        sym = max_kwise_family(SearchProblem(universe, k, symmetry=group))
        assert plain.max_size == sym.max_size, (n, r, k)
        assert [w.sets for w in plain.witnesses] == \
            [w.sets for w in sym.witnesses], (n, r, k)
        assert plain.all_are_stars == sym.all_are_stars
        assert plain.star_centers == sym.star_centers


def test_matching_symmetry_generators_generate_the_group():
    for n in range(1, 6):
        gens = matching_symmetry_generators(n)
        identity = tuple(range(1, 2 * n + 1))
        assert identity not in gens and len(set(gens)) == len(gens)
        closure = search._orbit(identity, gens,
                                lambda p, g: tuple(g[v - 1] for v in p))
        assert closure == set(matching_symmetry(n)), n


def test_generator_rows_keep_what_a_fresh_closure_keeps():
    # the coset-by-coset closure keeps exactly the permutations that a
    # closure listed afresh after each kept one keeps, and they generate
    # the whole listed group
    for n in range(2, 6):
        group = matching_symmetry(n)
        universe = matching_universe(n, n)
        index = {m: i for i, m in enumerate(universe.sets)}
        shuffled = list(group)
        random.Random(n).shuffle(shuffled)
        identity = tuple(range(1, 2 * n + 1))
        for perms in (group, tuple(reversed(group)), tuple(shuffled)):
            kept = kept_generators(perms, 2 * n)
            rows = search._generator_rows(perms, universe.sets, 2 * n)
            assert rows == [bytes([index[apply_permutation(g, m)]
                                   for m in universe.sets]) for g in kept], n
            closure = search._orbit(identity, kept,
                                    lambda p, g: tuple(g[v - 1] for v in p))
            assert closure == set(group), n


def test_verify_reports_do_not_depend_on_the_generating_set(monkeypatch):
    # verify passes three generators; the listed group gives the same JSON
    def report_json(n, r, k, mode):
        obj = verify_extremal_characterization(n, r, k, mode).to_json_obj()
        obj["elapsed_ms"] = None
        return json.dumps(obj)

    cases = [(n, r, k, mode) for n in range(1, 5) for r in range(n, 2 * n)
             for k in _admissible_ks(n, r, 2) for mode in search.MODES]
    got = [report_json(*case) for case in cases]
    monkeypatch.setattr(search, "matching_symmetry_generators",
                        search.matching_symmetry)
    assert got == [report_json(*case) for case in cases]


def test_symmetry_generating_sets_agree_across_small_universes():
    # three generators, or the group listed twice, give the group's search
    groups = {}
    for n, r, k in _symmetry_cases():
        group = groups.setdefault(n, matching_symmetry(n))
        universe = matching_universe(n, r)
        full = max_kwise_family(SearchProblem(universe, k, symmetry=group))
        for symmetry in (matching_symmetry_generators(n),
                         tuple(reversed(group)) + group):
            got = max_kwise_family(SearchProblem(universe, k, symmetry=symmetry))
            assert [w.sets for w in got.witnesses] == \
                [w.sets for w in full.witnesses], (n, r, k)
            assert got.star_centers == full.star_centers, (n, r, k)
            assert got.explored_nodes == full.explored_nodes, (n, r, k)


def test_rows_are_built_for_generators_only(monkeypatch):
    # one apply_permutation call per member (32 here) of each kept generator
    calls = []

    def counting(perm, mask):
        calls.append(perm)
        return apply_permutation(perm, mask)

    monkeypatch.setattr(search, "apply_permutation", counting)
    G5 = matching_symmetry(5)
    universe = matching_universe(5, 5)
    for symmetry, count in ((G5, 288), ((G5[768], G5[1056], G5[1]), 96),
                            (tuple(reversed(G5)) + G5, 192)):
        calls.clear()
        max_kwise_family(SearchProblem(universe, 3, "max_size_only", symmetry))
        assert len(calls) == count


# ---------------------------------------------------------------------------
# calibrations on classical universes
# ---------------------------------------------------------------------------

def test_complete_universe_calibration_small():
    from matchwise import complete_star_bound
    for m in range(2, 7):
        for k in (2, 3, 4):
            for r in range(1, (k - 1) * m // k + 1):
                universe = complete_uniform_family(m, r)
                problem = SearchProblem(universe, k, "max_size_only",
                                        complete_symmetry(m))
                result = max_kwise_family(problem)
                assert result.max_size == complete_star_bound(m, r)


def test_independent_universe_calibration_small():
    from matchwise import enumerate_family
    for n in (2, 3):
        for r in range(1, n + 1):
            universe = enumerate_family(n, r, "independent")
            result = max_kwise_family(SearchProblem(universe, 2))
            assert result.max_size == matching_star_bound(n, r).value
            if r < n:
                assert result.all_are_stars is True
