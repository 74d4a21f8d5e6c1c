import time
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from matchwise import (IntegrityError, IntervalFamily, ParameterError,
                       UniformFamily, assign_indices, common_index,
                       is_k_wise_intersecting)

from matchwise.arcs import _starts_through
from oracles import arc_starts_through, kwise_ok


def arcs_as_family(fam: IntervalFamily) -> UniformFamily:
    return UniformFamily.from_masks(fam.size, fam.length,
                                    (fam.mask(s) for s in fam.starts))


def arcs_as_sets(fam: IntervalFamily) -> list[frozenset[int]]:
    return [frozenset(fam.positions(s)) for s in fam.starts]


# ---------------------------------------------------------------------------
# the arc family type
# ---------------------------------------------------------------------------

def test_positions_and_wraparound():
    fam = IntervalFamily(6, 4, ())
    assert fam.positions(5) == (5, 6, 1, 2)
    assert fam.mask(5) == 0b110011
    assert fam.starts_through(1) == (1, 4, 5, 6)


def test_mask_is_union_of_positions():
    for size in range(2, 25):
        for r in range(1, size):
            fam = IntervalFamily(size, r, ())
            for s in range(1, size + 1):
                expected = 0
                for p in fam.positions(s):
                    expected |= 1 << (p - 1)
                assert fam.mask(s) == expected


def test_validation():
    with pytest.raises(ParameterError):
        IntervalFamily(6, 6, ())       # length must stay below the size
    with pytest.raises(ParameterError):
        IntervalFamily(6, 0, ())
    with pytest.raises(ParameterError):
        IntervalFamily(6, 2, (0,))
    with pytest.raises(ParameterError):
        IntervalFamily(6, 2, (3, 3))


@pytest.mark.parametrize("args", [
    (6.0, 2, ()),
    (6, True, ()),
    (6, 2.0, ()),
    (6, 3, (1.0, 3)),
    (6, 3, (True,)),
    (6, 3, ("a",)),
    (6, 3, [1, 3]),                          # a list is unhashable
])
def test_rejects_malformed_fields(args):
    with pytest.raises(ParameterError):
        IntervalFamily(*args)


@pytest.mark.parametrize("method", ["positions", "mask", "starts_through"])
@pytest.mark.parametrize("position", [None, 1.0, True, "1"])
def test_position_methods_reject_malformed_positions(method, position):
    with pytest.raises(ParameterError, match="must be an int"):
        getattr(IntervalFamily(5, 2, (1,)), method)(position)


def test_starts_through_matches_the_definition():
    for size in range(2, 25):
        for r in range(1, size):
            for position in range(-size, 2 * size + 1):
                assert (_starts_through(size, r, position)
                        == arc_starts_through(size, r, position)), (size, r, position)


@pytest.mark.parametrize("starts", [["a"], [1.0], [True, 3],
                                    # caught before set() or sorted() sees them
                                    [1, "a"], [[1]], [1, True], 1])
def test_from_starts_rejects_non_int_starts(starts):
    with pytest.raises(ParameterError):
        IntervalFamily.from_starts(6, 2, starts)


# ---------------------------------------------------------------------------
# the assignment procedure
# ---------------------------------------------------------------------------

def test_bounded_for_arcs_through_one_position():
    fam = IntervalFamily.from_starts(6, 4, [4, 5, 6, 1])
    report = assign_indices(fam, 3)
    assert report.bounded
    assert report.unassigned == (1, 2)           # one per class, N - r of them
    d = fam.size - fam.length
    assert {(x - 1) % d for x in report.unassigned} == set(range(d))


def test_covering_witness_for_disjoint_arcs():
    fam = IntervalFamily.from_starts(6, 2, [1, 3, 5])
    report = assign_indices(fam, 3)
    assert report.outcome == "covering_witness"
    assert len(report.witness_members) == 2
    covered = set()
    for arc in report.witness_complements:
        covered.update(arc)
    assert covered == set(range(1, 7))
    # the witness members really have empty common intersection
    common = set(range(1, 7))
    for s in report.witness_members:
        common &= set(fam.positions(s))
    assert not common


def test_singleton_family_is_bounded():
    report = assign_indices(IntervalFamily.from_starts(4, 2, [1]), 2)
    assert report.bounded


def test_precondition_errors():
    with pytest.raises(ParameterError):
        assign_indices(IntervalFamily.from_starts(6, 5, [1]), 3)  # k*r > (k-1)*N
    with pytest.raises(ParameterError):
        assign_indices(IntervalFamily.from_starts(6, 2, []), 3)
    with pytest.raises(ParameterError):
        assign_indices(IntervalFamily.from_starts(6, 2, [1]), 1)


def test_report_is_deterministic_and_serializable():
    fam = IntervalFamily.from_starts(9, 4, [2, 5, 8])
    a = assign_indices(fam, 3)
    b = assign_indices(fam, 3)
    assert a.to_json_obj() == b.to_json_obj()
    obj = a.to_json_obj()
    assert obj["N"] == 9 and obj["r"] == 4 and obj["k"] == 3
    assert obj["outcome"] in ("bounded", "covering_witness")
    assert obj["unassigned"] == sorted(obj["unassigned"])
    if obj["outcome"] == "covering_witness":
        assert "witness" in obj


def test_exhaustive_soundness_small_circles():
    # every k-wise intersecting arc family within the size regime must
    # come out bounded with at most r members; every covering witness
    # from the rest must genuinely cover
    for size in range(3, 8):
        all_starts = range(1, size + 1)
        for k in (2, 3, 4):
            for length in range(1, ((k - 1) * size) // k + 1):
                fam_all = IntervalFamily(size, length, ())
                for m in range(1, size + 1):
                    for starts in combinations(all_starts, m):
                        fam = IntervalFamily(size, length, starts)
                        conforming = kwise_ok(arcs_as_sets(fam), k)
                        report = assign_indices(fam, k)
                        if conforming:
                            assert report.bounded
                            assert len(fam) <= length
                        elif not report.bounded:
                            covered = set()
                            for arc in report.witness_complements:
                                covered.update(arc)
                            assert covered == set(all_starts)


def assignment_by_definition(fam: IntervalFamily, k: int) -> dict:
    """Every report field of the assignment, built as the procedure states
    it: an index -> start dict, the residue class tuples and a scan for
    the first fully assigned class."""
    n, r = fam.size, fam.length
    d, span = n - r, k * (n - r)

    def wrap(p):
        return (p - 1) % n + 1

    # the complement of the arc at s ends at s-1; the distinguished
    # complement is the one ending last
    g_start = max(fam.starts, key=lambda s: wrap(s - 1))
    rotation = n - wrap(g_start - 1)
    normalized = tuple(sorted(wrap(s + rotation) for s in fam.starts))
    assigned = {}
    for s in normalized:
        if s != 1:
            assigned[s - 1] = s
    for x in range(n, span + 1):
        assigned[x] = 1
    classes = tuple(tuple(c + j * d for j in range(k)) for c in range(1, d + 1))
    unassigned = tuple(x for x in range(1, span + 1) if x not in assigned)
    full_class = next((c for c in classes if all(x in assigned for x in c)), None)
    fields = dict(size=n, length=r, k=k, rotation=rotation,
                  normalized_starts=normalized, unassigned=unassigned,
                  outcome="bounded", witness_members=None, witness_complements=None)
    json_obj = {"N": n, "r": r, "k": k, "outcome": "bounded",
                "unassigned": list(unassigned)}
    if full_class is not None:
        members, complements = [], []
        # every index from N on names the distinguished complement
        for end in dict.fromkeys(min(x, n) for x in full_class):
            members.append(wrap(end + 1 - rotation))
            complements.append(tuple(wrap(end - d + 1 + j - rotation)
                                     for j in range(d)))
        fields.update(outcome="covering_witness", witness_members=tuple(members),
                      witness_complements=tuple(complements))
        json_obj.update(outcome="covering_witness",
                        witness=[list(arc) for arc in complements])
    fields["json"] = json_obj
    return fields


def test_assignment_matches_its_definition():
    # every nonempty start set for N <= 8, every r and each k <= N + 3 in
    # regime, so k runs past N, where the class scan stops at j = N
    checked = 0
    for size in range(2, 9):
        for length in range(1, size):
            for k in range(2, size + 4):
                if k * length > (k - 1) * size:
                    continue
                for m in range(1, size + 1):
                    for starts in combinations(range(1, size + 1), m):
                        fam = IntervalFamily(size, length, starts)
                        expected = assignment_by_definition(fam, k)
                        report = assign_indices(fam, k)
                        assert report.to_json_obj() == expected.pop("json")
                        assert {f: getattr(report, f) for f in expected} == expected
                        checked += 1
    assert checked == 24661


def test_assignment_report_is_linear_in_k():
    # indices >= N are all assigned, so neither the class scan nor the
    # unassigned list walks the k(N-r) indices one by one
    started = time.perf_counter()
    report = assign_indices(IntervalFamily(6, 3, (1, 2, 3)), 10**6)
    assert report.unassigned == (3, 4, 5)
    assert report.to_json_obj()["unassigned"] == [3, 4, 5]
    assert time.perf_counter() - started < 1.0
    # nothing is sized by k: a huge arity answers as k = 3 in constant memory
    fam = IntervalFamily(7, 3, (3, 4, 5))
    small = assign_indices(fam, 3)
    tracemalloc.start()
    try:
        huge = assign_indices(fam, 10**15)
        index = common_index(fam, 10**15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert huge.outcome == small.outcome == "bounded"
    assert huge.unassigned == small.unassigned == (1, 2, 3, 4)
    assert index == common_index(fam, 3) == 5
    assert peak < 64 * 1024


# ---------------------------------------------------------------------------
# common-index extraction
# ---------------------------------------------------------------------------

def test_common_index_examples():
    assert common_index(IntervalFamily.from_starts(7, 3, [3, 4, 5]), 3) == 5
    assert common_index(IntervalFamily.from_starts(5, 1, [2]), 2) == 2
    assert common_index(IntervalFamily.from_starts(6, 2, [1, 2]), 3) == 2


def test_common_index_preconditions():
    with pytest.raises(ParameterError):
        common_index(IntervalFamily.from_starts(6, 4, [4, 5, 6, 1]), 3)  # not strict
    with pytest.raises(ParameterError):
        common_index(IntervalFamily.from_starts(7, 3, [3, 4]), 3)  # |fam| != r


def test_common_index_rejects_precondition_violations():
    # size r, strict regime, but not k-wise intersecting: three disjoint
    # arcs must be rejected with an integrity error, not silently mapped
    # to a position
    fam = IntervalFamily.from_starts(9, 3, [1, 4, 7])
    assert not is_k_wise_intersecting(arcs_as_family(fam), 2)
    with pytest.raises(IntegrityError):
        common_index(fam, 2)
    # size r and pairwise intersecting, but the arcs are not the full
    # set through one position: {1,2},{2,3} plus {1,2} is impossible,
    # so use a gap: {1,2},{3,4} on an 8-circle (size 2 = r, disjoint)
    fam2 = IntervalFamily.from_starts(8, 2, [1, 3])
    with pytest.raises(IntegrityError):
        common_index(fam2, 2)


def test_common_index_exhaustive_small_circles():
    # over every size-r k-wise intersecting arc family in the strict
    # regime, extraction succeeds and both inclusions hold
    for size in range(4, 10):
        for k in (2, 3, 4):
            max_len = ((k - 1) * size - 1) // k
            for length in range(1, max_len + 1):
                helper = IntervalFamily(size, length, ())
                stars = {x: set(helper.starts_through(x))
                         for x in range(1, size + 1)}
                for starts in combinations(range(1, size + 1), length):
                    fam = IntervalFamily(size, length, starts)
                    if not kwise_ok(arcs_as_sets(fam), k):
                        continue
                    x = common_index(fam, k)
                    assert set(starts) == stars[x]


def test_common_index_on_every_size_r_family():
    # every r-subset of starts in the strict regime, k-wise or not: a
    # k-wise family is the star through the returned position, and
    # every other family is rejected with an integrity error
    for size in range(4, 10):
        for k in (2, 3, 4):
            max_len = ((k - 1) * size - 1) // k
            for length in range(1, max_len + 1):
                helper = IntervalFamily(size, length, ())
                for starts in combinations(range(1, size + 1), length):
                    fam = IntervalFamily(size, length, starts)
                    if kwise_ok(arcs_as_sets(fam), k):
                        x = common_index(fam, k)
                        assert starts == helper.starts_through(x)
                    else:
                        with pytest.raises(IntegrityError):
                            common_index(fam, k)


@settings(max_examples=200)
@given(st.data())
def test_random_kwise_families_never_yield_witness(data):
    size = data.draw(st.integers(min_value=3, max_value=16))
    k = data.draw(st.integers(min_value=2, max_value=5))
    length = data.draw(st.integers(min_value=1, max_value=((k - 1) * size) // k))
    helper = IntervalFamily(size, length, ())
    x = data.draw(st.integers(min_value=1, max_value=size))
    through = helper.starts_through(x)
    m = data.draw(st.integers(min_value=1, max_value=len(through)))
    starts = data.draw(st.permutations(list(through)))[:m]
    fam = IntervalFamily.from_starts(size, length, starts)
    report = assign_indices(fam, k)
    assert report.bounded
    assert len(fam) <= length
