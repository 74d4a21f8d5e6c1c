import json
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from matchwise import (BoundValue, CapacityError, MatchingGraph, ParameterError,
                       UniformFamily, binomial, complete_star_bound,
                       complete_uniform_family, enumerate_family,
                       is_k_wise_intersecting, kwise_witness, mask_of,
                       matching_star_bound, matching_universe, vertices_of)

from oracles import brute_family, first_kwise_witness, kwise_ok, pascal_binomial


# ---------------------------------------------------------------------------
# bitmasks and the matching graph
# ---------------------------------------------------------------------------

def test_mask_round_trip():
    assert mask_of([3, 1, 5]) == 0b10101
    assert vertices_of(0b10101) == (1, 3, 5)
    assert vertices_of(mask_of([])) == ()


@given(st.sets(st.integers(min_value=1, max_value=40)))
def test_mask_round_trip_property(vertices):
    assert set(vertices_of(mask_of(vertices))) == vertices


def test_mask_rejects_nonpositive():
    with pytest.raises(ParameterError):
        mask_of([0])


def test_matching_graph_basics():
    g = MatchingGraph(3)
    assert g.vertex_count == 6
    assert g.edges() == ((1, 4), (2, 5), (3, 6))
    assert g.partner(2) == 5 and g.partner(5) == 2
    assert g.full_edge_count(mask_of({1, 4, 2})) == 1
    assert g.is_independent(mask_of({1, 2, 3}))
    assert not g.is_independent(mask_of({3, 6}))
    assert g.covers_all_edges(mask_of({1, 2, 3}))
    assert not g.covers_all_edges(mask_of({1, 2}))


def test_matching_graph_width_limit():
    # too wide is a capacity limit, too small a malformed argument
    with pytest.raises(CapacityError):
        MatchingGraph(33)
    with pytest.raises(ParameterError):
        MatchingGraph(0)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_union_m3_r3_is_one_per_edge():
    fam = enumerate_family(3, 3, "union")
    assert len(fam) == 8
    expected = brute_family(3, 3, "union")
    assert {frozenset(s) for s in fam.vertex_sets()} == expected


def test_union_m4_r5_against_subset_filter():
    fam = enumerate_family(4, 5, "union")
    assert len(fam) == 32
    assert {frozenset(s) for s in fam.vertex_sets()} == brute_family(4, 5, "union")


@pytest.mark.parametrize("kind", ["independent", "max_containing", "union"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumeration_matches_definition_filter(n, kind):
    for r in range(1, 2 * n + 1):
        fam = enumerate_family(n, r, kind)
        assert {frozenset(s) for s in fam.vertex_sets()} == brute_family(n, r, kind)


def test_enumeration_parameter_errors():
    with pytest.raises(ParameterError):
        enumerate_family(3, 7, "independent")
    with pytest.raises(ParameterError):
        enumerate_family(3, 0, "union")
    with pytest.raises(ParameterError):
        enumerate_family(3, 2, "nonsense")


def test_enumeration_size_limit():
    # sizes come from the closed forms, so these raise before building
    for n, r, kind in [(20, 13, "union"), (20, 13, "independent"),
                       (20, 21, "union"), (20, 21, "max_containing")]:
        with pytest.raises(CapacityError):
            enumerate_family(n, r, kind)
    # an empty kind is never too big
    assert len(enumerate_family(20, 21, "independent")) == 0
    assert len(enumerate_family(20, 13, "max_containing")) == 0
    with pytest.raises(CapacityError):
        complete_uniform_family(64, 32)
    assert len(complete_uniform_family(64, 63)) == 64


def test_empty_branches():
    assert len(enumerate_family(3, 4, "independent")) == 0
    assert len(enumerate_family(3, 2, "max_containing")) == 0


def test_union_size_closed_forms():
    for n in range(1, 7):
        for r in range(1, 2 * n + 1):
            fam = matching_universe(n, r)
            if r <= n:
                assert len(fam) == (1 << r) * binomial(n, r)
            if r >= n:
                assert len(fam) == binomial(n, r - n) * (1 << (2 * n - r))


def test_union_members_structure():
    for n in range(1, 5):
        g = MatchingGraph(n)
        for r in range(1, 2 * n + 1):
            for s in matching_universe(n, r):
                if r < n:
                    assert g.is_independent(s)
                if r > n:
                    assert g.covers_all_edges(s)


def test_families_coincide_at_r_equals_n():
    for n in range(1, 5):
        kinds = [enumerate_family(n, n, kind).sets
                 for kind in ("independent", "max_containing", "union")]
        assert kinds[0] == kinds[1] == kinds[2]


# ---------------------------------------------------------------------------
# stars
# ---------------------------------------------------------------------------

def test_star_m3_vertex6():
    fam = matching_universe(3, 3)
    star = fam.star(6)
    assert len(star) == 4
    assert all(6 in vertices_of(s) for s in star)
    assert star.sets == tuple(s for s in fam.sets if s & (1 << 5))


def test_star_of_empty_family():
    empty = UniformFamily(6, 3, ())
    assert len(empty.star(2)) == 0


def test_star_m4_r5_matches_bound():
    star = matching_universe(4, 5).star(8)
    assert len(star) == matching_star_bound(4, 5).value == 20


def test_star_vertex_range():
    with pytest.raises(ParameterError):
        matching_universe(3, 3).star(7)


# ---------------------------------------------------------------------------
# k-wise intersection
# ---------------------------------------------------------------------------

def test_star_is_k_wise_for_every_k():
    star = matching_universe(3, 3).star(6)
    for k in range(2, 7):
        assert is_k_wise_intersecting(star, k)


def test_pairwise_but_not_triple():
    fam = UniformFamily.from_vertex_sets(6, 3, [{1, 2, 6}, {1, 5, 3}, {4, 2, 3}])
    assert is_k_wise_intersecting(fam, 2)
    assert not is_k_wise_intersecting(fam, 10**12)  # as at k = |F| = 3
    witness = kwise_witness(fam, 3)
    assert witness is not None and len(witness) == 3
    assert set(witness) == set(fam.sets)
    inter = witness[0]
    for s in witness[1:]:
        inter &= s
    assert inter == 0


def test_empty_family_is_k_wise():
    assert is_k_wise_intersecting(UniformFamily(6, 3, ()), 2)


def test_witness_members_are_distinct():
    fam = UniformFamily.from_vertex_sets(4, 2, [{1, 2}, {3, 4}])
    assert kwise_witness(fam, 4) == (mask_of({1, 2}), mask_of({3, 4}))


def test_witness_scan_depth_is_bounded_by_the_universe():
    # a star of 1,176 triples plus one triple missing vertex 1: only
    # members that shrink the intersection are picked, so the scan nests
    # at most r + 1 deep however large k and the family are
    complete = complete_uniform_family(50, 3)
    fam = UniformFamily.from_masks(50, 3, complete.star(1).sets + complete.sets[-1:])
    assert len(fam) == 1177
    assert not is_k_wise_intersecting(fam, 10**6)
    witness = kwise_witness(fam, 10**6)
    assert witness == tuple(mask_of(s) for s in
                            ({1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {48, 49, 50}))
    assert set(witness) <= set(fam.sets)
    inter = -1
    for s in witness:
        inter &= s
    assert inter == 0


def test_huge_arity_check_allocates_no_tuple():
    # every k >= |F| asks whether all members meet, so no k-tuple is built
    fam = UniformFamily.from_vertex_sets(4, 2, [{1, 2}, {3, 4}])
    tracemalloc.start()
    try:
        assert not is_k_wise_intersecting(fam, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_k_must_be_at_least_two():
    with pytest.raises(ParameterError):
        kwise_witness(UniformFamily(4, 2, ()), 1)


def test_kwise_witness_is_the_first_in_scan_order():
    # the scan skips a state that already failed, so its answer must be
    # the plain walk's, tuple for tuple
    rng = random.Random(0)
    for _ in range(400):
        m = rng.randint(3, 10)
        r = rng.randint(1, m - 1)
        pool = complete_uniform_family(m, r).sets
        if rng.random() < 0.5:  # a star and a few others: long scans
            pool = [s for s in pool if s & 1] + rng.sample(pool, min(2, len(pool)))
        pool = sorted(set(pool))
        fam = UniformFamily.from_masks(
            m, r, rng.sample(pool, min(len(pool), rng.randint(0, 24))))
        k = rng.randint(2, 6)
        assert kwise_witness(fam, k) == first_kwise_witness(fam.sets, k), (fam, k)


@given(st.data())
def test_kwise_matches_definition_and_is_monotone(data):
    n = data.draw(st.integers(min_value=2, max_value=3))
    universe = matching_universe(n, data.draw(st.integers(min_value=2, max_value=n + 1)))
    members = data.draw(st.lists(st.sampled_from(universe.sets), unique=True,
                                 max_size=6))
    fam = UniformFamily.from_masks(universe.universe_size, universe.r, members)
    k = data.draw(st.integers(min_value=2, max_value=4))
    expected = kwise_ok([frozenset(vertices_of(s)) for s in fam.sets], k)
    assert is_k_wise_intersecting(fam, k) == expected
    if is_k_wise_intersecting(fam, k + 1):
        assert is_k_wise_intersecting(fam, k)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_binomial_against_pascal():
    for a in range(0, 30):
        for b in range(0, 35):
            assert binomial(a, b) == pascal_binomial(a, b)


def test_binomial_examples():
    assert binomial(7, 3) == 35
    assert binomial(5, 0) == 1
    assert binomial(3, 5) == 0
    with pytest.raises(ParameterError):
        binomial(-1, 2)


def test_matching_star_bound_examples():
    assert matching_star_bound(4, 5) == BoundValue(20, "r_gt_n")
    assert matching_star_bound(3, 3) == BoundValue(4, "r_le_n")
    assert matching_star_bound(1, 1) == BoundValue(1, "r_le_n")
    assert matching_star_bound(3, 6).value == 1  # single full set
    with pytest.raises(ParameterError):
        matching_star_bound(3, 0)
    with pytest.raises(ParameterError):
        matching_star_bound(3, 7)


def test_star_sizes_equal_bound_every_vertex():
    for n in range(1, 6):
        for r in range(1, 2 * n + 1):
            fam = matching_universe(n, r)
            expected = matching_star_bound(n, r).value
            for x in range(1, 2 * n + 1):
                assert len(fam.star(x)) == expected


def test_complete_star_bound_examples():
    assert complete_star_bound(5, 2) == 4
    assert complete_star_bound(4, 1) == 1
    assert complete_star_bound(8, 4) == 35
    for m in range(1, 10):
        for r in range(1, m + 1):
            assert complete_star_bound(m, r) == pascal_binomial(m - 1, r - 1)
    with pytest.raises(ParameterError):
        complete_star_bound(4, 5)


def test_complete_uniform_family():
    fam = complete_uniform_family(5, 2)
    assert len(fam) == 10
    assert fam.universe_size == 5
    assert len(fam.star(3)) == complete_star_bound(5, 2)
    with pytest.raises(CapacityError):
        complete_uniform_family(65, 1)
    with pytest.raises(ParameterError):
        complete_uniform_family(0, 0)


# ---------------------------------------------------------------------------
# family construction and serialization
# ---------------------------------------------------------------------------

def test_family_validation():
    with pytest.raises(CapacityError):
        UniformFamily(65, 1, ())             # wider than a 64-bit mask
    with pytest.raises(ParameterError):
        UniformFamily(0, 0, ())
    with pytest.raises(ParameterError):
        UniformFamily(6, 3, (7, 7))          # duplicates / not ascending
    with pytest.raises(ParameterError):
        UniformFamily(6, 3, (3,))            # wrong cardinality
    with pytest.raises(ParameterError):
        UniformFamily(4, 2, (mask_of({5, 1}),))  # outside universe


@pytest.mark.parametrize("args", [
    (6.0, 3, ()),
    (True, 1, ()),
    (6, 3.0, ()),
    (6, True, (1,)),
    (6, 3, [7]),                             # a list is unhashable
    (6, 3, (7.0,)),
    (6, 1, (True,)),
    (6, 3, ("a",)),
])
def test_family_rejects_malformed_fields(args):
    with pytest.raises(ParameterError):
        UniformFamily(*args)


@pytest.mark.parametrize("masks", [[1, "a"], [[1]], [1, True], [1.0], 1])
def test_from_masks_rejects_non_int_masks(masks):
    # checked before set() merges True into 1 or sorted() mixes types
    with pytest.raises(ParameterError):
        UniformFamily.from_masks(6, 1, masks)


def test_from_masks_dedupes_and_sorts():
    fam = UniformFamily.from_masks(6, 2, [0b11, 0b101, 0b11])
    assert fam.sets == (0b11, 0b101)


def test_text_round_trip():
    fam = matching_universe(3, 3)
    text = fam.to_text()
    assert text.splitlines()[0] == "1,2,3"
    sets = [[int(v) for v in line.split(",")] for line in text.splitlines()]
    again = UniformFamily.from_vertex_sets(6, 3, sets)
    assert again == fam
    assert again.to_text() == text


def test_from_vertex_sets_rejects_non_integer_labels():
    for label in (2.0, True, "1"):
        with pytest.raises(ParameterError):
            UniformFamily.from_vertex_sets(4, 1, [[label]])
    for sets in ([5], 5):                   # a label is not a set of labels
        with pytest.raises(ParameterError):
            UniformFamily.from_vertex_sets(6, 2, sets)


def test_json_round_trip():
    fam = matching_universe(4, 5)
    obj = json.loads(json.dumps(fam.to_json_obj()))
    assert obj["n"] == 4 and obj["r"] == 5 and len(obj["sets"]) == 32
    assert UniformFamily.from_vertex_sets(2 * obj["n"], obj["r"], obj["sets"]) == fam


def test_json_requires_even_universe():
    with pytest.raises(ParameterError):
        complete_uniform_family(5, 2).to_json_obj()
