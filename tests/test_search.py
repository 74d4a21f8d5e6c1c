import pytest
from hypothesis import given, settings, strategies as st

from matchwise import search
from matchwise import (CapacityError, ParameterError, SearchProblem,
                       UniformFamily, apply_permutation, canonical_form,
                       complete_symmetry, complete_uniform_family,
                       is_k_wise_intersecting, mask_of, matching_star_bound,
                       matching_symmetry, matching_universe, max_kwise_family,
                       verify_extremal_characterization)

from oracles import brute_max_kwise


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


def test_canonical_form_identifies_star_orbit():
    fam = matching_universe(3, 3)
    c5 = canonical_form(fam.star(5), 3)
    c1 = canonical_form(fam.star(1), 3)
    assert c5 == c1
    assert canonical_form(c5, 3) == c5          # idempotent
    empty = UniformFamily(6, 3, ())
    assert canonical_form(empty, 3) == empty


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


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_solver_agrees_with_oracle_on_random_universes(data):
    m = data.draw(st.integers(min_value=3, max_value=7))
    r = data.draw(st.integers(min_value=1, max_value=max(1, m - 1)))
    pool = complete_uniform_family(m, r).sets
    size = data.draw(st.integers(min_value=1, max_value=min(10, len(pool))))
    chosen = data.draw(st.permutations(list(pool)))[:size]
    universe = UniformFamily.from_masks(m, r, chosen)
    k = data.draw(st.integers(min_value=2, max_value=4))
    result = max_kwise_family(SearchProblem(universe, k))
    oracle_check(universe, k, result)


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
    one = max_kwise_family(SearchProblem(universe, 3, "one_witness"))
    assert len(one.witnesses) == 1
    every = max_kwise_family(SearchProblem(universe, 3, "all_maximum"))
    assert one.witnesses[0].sets == every.witnesses[0].sets


def test_parameter_and_capacity_errors():
    universe = matching_universe(3, 3)
    with pytest.raises(ParameterError):
        max_kwise_family(SearchProblem(universe, 1))
    with pytest.raises(ParameterError):
        max_kwise_family(SearchProblem(universe, 3, "everything"))
    big = complete_uniform_family(10, 4)        # 210 members
    with pytest.raises(CapacityError):
        max_kwise_family(SearchProblem(big, 2, "max_size_only"))
    mid = complete_uniform_family(10, 2)        # 45 members: only all_maximum barred
    with pytest.raises(CapacityError):
        max_kwise_family(SearchProblem(mid, 2, "all_maximum"))
    assert max_kwise_family(SearchProblem(mid, 2, "max_size_only")).max_size == 9
    with pytest.raises(CapacityError):
        complete_symmetry(11)
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
        one = max_kwise_family(SearchProblem(universe, k, "one_witness", gens))
        assert len(plain.witnesses) == count
        assert [w.sets for w in every.witnesses] == \
            [w.sets for w in plain.witnesses]
        assert every.star_centers == plain.star_centers
        assert [w.sets for w in one.witnesses] == [plain.witnesses[0].sets]
    # an edge swap, an edge 5-cycle and one flip generate all of M_5's group
    G5 = matching_symmetry(5)
    universe = matching_universe(5, 5)
    full = max_kwise_family(SearchProblem(universe, 3, symmetry=G5))
    got = max_kwise_family(
        SearchProblem(universe, 3, symmetry=(G5[768], G5[1056], G5[1])))
    assert [w.sets for w in got.witnesses] == [w.sets for w in full.witnesses]
    assert got.explored_nodes == full.explored_nodes == 1547


MALFORMED_SYMMETRY = [
    (1, 2, 3),                  # too few labels
    (1, 2, 3, 4, 5, 6, 7),      # too many labels
    (0, 2, 3, 4, 5, 6),         # labels are 1-based
    (1, 2, 3, 4, 5, 6.0),       # not an int
    (True, 2, 3, 4, 5, 6),      # not an int either
    (1, 1, 3, 4, 5, 6),         # not a permutation
]


@pytest.mark.parametrize("perm", MALFORMED_SYMMETRY)
def test_symmetry_elements_must_be_permutations(perm):
    universe = matching_universe(3, 3)
    group = matching_symmetry(3)
    for mode in ("all_maximum", "one_witness", "max_size_only"):
        for symmetry in ((perm,), group + (perm,)):
            with pytest.raises(ParameterError):
                max_kwise_family(SearchProblem(universe, 3, mode, symmetry))


# explored_nodes is deterministic, so any change to it is a change to the
# search tree; a new pruning rule should update these on purpose
NODE_COUNTS = [
    (lambda: verify_extremal_characterization(4, 5, 3), 7635),
    (lambda: verify_extremal_characterization(4, 6, 4), 4498),
    (lambda: verify_extremal_characterization(4, 4, 2), 577),
    (lambda: max_kwise_family(SearchProblem(matching_universe(4, 5), 3)),
     14826),
    (lambda: max_kwise_family(
        SearchProblem(matching_universe(4, 5), 3, "max_size_only")), 9198),
    (lambda: max_kwise_family(
        SearchProblem(matching_universe(5, 5), 3, "max_size_only",
                      matching_symmetry(5))), 1140),
    (lambda: max_kwise_family(
        SearchProblem(complete_uniform_family(6, 3), 2)), 6153),
    # an edge swap, an edge 5-cycle and one flip generate the same group;
    # the explicit id keeps the other 1140 row's id
    pytest.param(lambda: max_kwise_family(
        SearchProblem(matching_universe(5, 5), 3, "max_size_only",
                      tuple(matching_symmetry(5)[i] for i in (768, 1056, 1)))),
        1140, id="generators-1140"),
]


@pytest.mark.parametrize("run, nodes", NODE_COUNTS)
def test_explored_node_counts(run, nodes):
    assert run().explored_nodes == nodes


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


def _admissible_ks(n: int, r: int, count: int) -> list[int]:
    """The ``count`` smallest k >= 2 with k*r <= (k-1)*2n."""
    ks, k = [], 2
    while len(ks) < count:
        if k * r <= (k - 1) * 2 * n:
            ks.append(k)
        k += 1
    return ks


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


def _matching_generators(n):
    """An edge transposition, the edge n-cycle and one flip of M_n."""
    def on_edges(f):  # edge e becomes edge f(e), each side kept
        return tuple(f(v) if v <= n else f(v - n) + n
                     for v in range(1, 2 * n + 1))
    m = min(n, 2)
    swap = on_edges(lambda e: {1: m, m: 1}.get(e, e))
    cycle = on_edges(lambda e: e % n + 1)
    flip = tuple({1: n + 1, n + 1: 1}.get(v, v) for v in range(1, 2 * n + 1))
    return swap, cycle, flip


def test_symmetry_generating_sets_agree_across_small_universes():
    # three generators, or the group listed twice, give the group's search
    groups = {}
    for n, r, k in _symmetry_cases():
        group = groups.setdefault(n, matching_symmetry(n))
        universe = matching_universe(n, r)
        full = max_kwise_family(SearchProblem(universe, k, symmetry=group))
        for symmetry in (_matching_generators(n),
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
