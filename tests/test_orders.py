import json
import operator
import random
import tracemalloc
import types

import pytest

from matchwise import (CapacityError, GoodCyclicOrder, IntegrityError,
                       MatchwiseError, ParameterError, SaturationStatus,
                       UniformFamily, connectivity_check, construct_order_containing,
                       counting_bound, enumerate_good_orders, enumerated_order_count,
                       good_order_count, identity_order, intervals, is_interval,
                       mask_of, matching_star_bound, matching_universe,
                       move_lemma_check, normalize_rotation, orders_containing_count, saturation, saturation_sweep,
                       swap_halves, transpose, vertices_of)
from matchwise import orders
from matchwise.cli import main

from oracles import (brute_good_orders, move_lemma_sweep, reference_good_orders,
                     saturation_of, windows_of)


# ---------------------------------------------------------------------------
# the order type and enumeration
# ---------------------------------------------------------------------------

def test_order_invariants_enforced():
    with pytest.raises(ParameterError):
        GoodCyclicOrder(2, (1, 2, 3, 3))
    with pytest.raises(ParameterError):
        GoodCyclicOrder(2, (2, 1, 3, 4))        # partners not 2 apart
    with pytest.raises(ParameterError):
        GoodCyclicOrder(2, (4, 2, 1, 3))        # not normalized


def test_positions_and_serialization():
    order = identity_order(3)
    assert order.serialize() == "1,2,3,4,5,6"


def test_normalize_rotation():
    order = normalize_rotation(2, (4, 1, 2, 3))
    assert order.seq == (1, 2, 3, 4)


@pytest.mark.parametrize("make", [
    lambda: GoodCyclicOrder(2, (True, 2, 3, 4)),
    lambda: GoodCyclicOrder(2, (1.0, 2, 3, 4)),
    lambda: normalize_rotation(2, (4, True, 2, 3)),
    lambda: GoodCyclicOrder(2, [1, 2, 3, 4]),    # unhashable, unequal to its tuple
], ids=["bool", "float", "rotated-bool", "list"])
def test_order_needs_a_tuple_of_int_labels(make):
    with pytest.raises(ParameterError):
        make()


@pytest.mark.parametrize("seq", [(1, 2, 3), (4, 1), (1, 2, 3, 5)])
def test_normalize_rotation_needs_every_position(seq):
    with pytest.raises(ParameterError):
        normalize_rotation(2, seq)


def test_enumeration_counts():
    for n, expected in [(1, 1), (2, 2), (3, 8), (4, 48)]:
        orders = list(enumerate_good_orders(n))
        assert len(orders) == expected == good_order_count(n)
        assert len({o.seq for o in orders}) == expected


@pytest.mark.parametrize("n", [1, 2, 3])
def test_enumeration_matches_permutation_filter(n):
    ours = {o.seq for o in enumerate_good_orders(n)}
    assert ours == set(brute_good_orders(n))


def test_enumeration_scale_limit():
    with pytest.raises(CapacityError):
        next(enumerate_good_orders(9))


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

def test_interval_examples():
    order = identity_order(3)
    got = dict(intervals(order, 2))
    assert got[1] == mask_of({1, 2})
    assert got[6] == mask_of({6, 1})
    assert len(got) == 6


def test_interval_r4_contains_transversal():
    order = identity_order(3)
    first = dict(intervals(order, 4))[1]
    assert first == mask_of({1, 2, 3, 4})
    assert mask_of({1, 2, 3}) & first == mask_of({1, 2, 3})


def test_all_windows_lie_in_union_family():
    for n in (2, 3, 4):
        for order in enumerate_good_orders(n):
            for r in range(1, 2 * n):
                members = set(matching_universe(n, r).sets)
                for _, mask in intervals(order, r):
                    assert mask in members


def test_windows_lie_in_union_family_sampled_large_n():
    # a spread-out sample of orders for n = 5, 6
    for n in (5, 6):
        orders = list(enumerate_good_orders(n))
        sample = orders[:: max(1, len(orders) // 17)]
        for r in range(1, 2 * n):
            members = set(matching_universe(n, r).sets)
            for order in sample:
                for _, mask in intervals(order, r):
                    assert mask in members


def test_is_interval_examples():
    order = identity_order(3)
    assert is_interval(order, mask_of({2, 3, 4})) == 2
    assert is_interval(order, mask_of({1, 3})) is None
    assert is_interval(identity_order(4), mask_of({8, 1, 2})) == 8
    with pytest.raises(ParameterError):
        is_interval(order, 0)
    with pytest.raises(ParameterError):
        is_interval(order, mask_of({1, 2, 3, 4, 5, 6}))


def test_is_interval_reports_a_negative_mask():
    with pytest.raises(ParameterError, match="a mask is a nonnegative int, got -1"):
        is_interval(identity_order(3), -1)


def test_is_interval_agrees_with_window_listing():
    for order in enumerate_good_orders(3):
        for r in range(1, 6):
            for start, mask in intervals(order, r):
                assert is_interval(order, mask) == start


def test_intervals_match_definition():
    # every order for n <= 4, and a spread-out sample for n = 5, 6
    orders = [o for n in (1, 2, 3, 4) for o in enumerate_good_orders(n)]
    for n in (5, 6):
        every = list(enumerate_good_orders(n))
        orders += every[:: len(every) // 17]
    for order in orders:
        size = order.size
        for r in range(1, size):
            got = dict(intervals(order, r))
            assert sorted(got) == list(range(1, size + 1))
            for s in range(1, size + 1):
                assert got[s] == mask_of(order.seq[(s - 1 + j) % size]
                                         for j in range(r))


def test_is_interval_matches_definition():
    # a member of the union family that is not a window reads None
    for n in (1, 2, 3, 4):
        for order in enumerate_good_orders(n):
            seq = order.seq
            for r in range(1, 2 * n):
                starts = {frozenset(seq[(s - 1 + j) % (2 * n)] for j in range(r)): s
                          for s in range(1, 2 * n + 1)}
                for member in matching_universe(n, r):
                    expected = starts.get(frozenset(vertices_of(member)))
                    assert is_interval(order, member) == expected


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def test_orders_containing_count_examples():
    assert orders_containing_count(3, 2) == 4
    assert orders_containing_count(3, 4) == 4
    assert orders_containing_count(1, 1) == 1
    # a window's complement is a window, so r and 2n - r give the same count
    assert orders_containing_count(5, 2) == orders_containing_count(5, 8) == 96


def test_double_counting_exhaustive_small():
    # every union-family member appears as a window in the same number
    # of normalized orders, matching the closed form
    for n in (1, 2, 3):
        orders = list(enumerate_good_orders(n))
        for r in range(1, 2 * n):
            expected = orders_containing_count(n, r)
            for member in matching_universe(n, r):
                member_set = frozenset(vertices_of(member))
                count = sum(1 for o in orders if member_set in windows_of(o.seq, r))
                assert count == expected


def test_counting_bound_is_exact_and_matches_closed_form():
    for n in range(2, 17):
        for r in range(n + 1, 2 * n):
            assert counting_bound(n, r) == matching_star_bound(n, r).value
    # the r <= n branch reproduces the closed form too
    for n in range(1, 11):
        for r in range(1, n + 1):
            assert counting_bound(n, r) == matching_star_bound(n, r).value


def test_counting_bound_rejects_a_remainder(monkeypatch):
    # 4 windows times 8 orders is 32, which 7 orders per member do not divide
    monkeypatch.setattr(orders, "orders_containing_count", lambda n, r: 7)
    with pytest.raises(IntegrityError, match="not an integer for n=3, r=4"):
        counting_bound(3, 4)


# ---------------------------------------------------------------------------
# moves
# ---------------------------------------------------------------------------

def test_transpose_example_and_involution():
    order = identity_order(3)
    moved = transpose(order, 1)
    assert moved.seq == (2, 1, 3, 5, 4, 6)
    assert transpose(moved, 1) == order
    with pytest.raises(ParameterError):
        transpose(order, 2)                      # range is 1..n-2
    with pytest.raises(ParameterError):
        transpose(identity_order(2), 1)


def test_swap_examples_and_involution():
    assert swap_halves(identity_order(3), 2).seq == (1, 5, 3, 4, 2, 6)
    assert swap_halves(identity_order(4), 3).seq == (1, 2, 7, 4, 5, 6, 3, 8)
    order = identity_order(4)
    assert swap_halves(swap_halves(order, 2), 2) == order
    with pytest.raises(ParameterError):
        swap_halves(order, 4)


def test_moves_match_position_swaps():
    for n in range(1, 6):
        for order in enumerate_good_orders(n):
            for i in range(1, n - 1):
                seq = list(order.seq)
                for p in (i, i + n):
                    seq[p - 1], seq[p] = seq[p], seq[p - 1]
                assert transpose(order, i).seq == tuple(seq)
            for i in range(1, n):
                seq = list(order.seq)
                seq[i - 1], seq[i + n - 1] = seq[i + n - 1], seq[i - 1]
                assert swap_halves(order, i).seq == tuple(seq)


def test_moves_preserve_normalization_closure():
    for n in (3, 4):
        for order in enumerate_good_orders(n):
            for i in range(1, n - 1):
                transpose(order, i)              # constructor re-validates
            for i in range(1, n):
                swap_halves(order, i)


def test_connectivity():
    assert connectivity_check(1).orbit_size == 1
    rep2 = connectivity_check(2)
    assert rep2.connected and rep2.orbit_size == 2
    rep3 = connectivity_check(3)
    assert rep3.connected and rep3.orbit_size == 8
    rep5 = connectivity_check(5)
    assert rep5.connected and rep5.orbit_size == 384


@pytest.mark.parametrize("n", range(1, 7))
def test_move_maps_are_the_moves(n):
    maps = orders._move_maps(n)
    assert len(maps) == max(0, n - 2) + (n >= 2)
    for order in enumerate_good_orders(n):
        expected = [transpose(order, i) for i in range(1, n - 1)]
        if n >= 2:
            expected.append(swap_halves(order, n - 1))
        assert [GoodCyclicOrder(n, move(order.seq)) for move in maps] == expected


def test_connectivity_needs_the_swap_move(monkeypatch):
    # the T moves alone only permute positions 1..n-1: (n-1)! orders
    maps = orders._move_maps(6)
    monkeypatch.setattr(orders, "_move_maps", lambda n: maps[:-1])
    report = connectivity_check(6)
    assert not report.connected
    assert (report.orbit_size, report.expected) == (120, 3840)


def test_move_maps_are_validated_when_built(monkeypatch):
    # reversing the positions moves vertex 2n off position 2n
    monkeypatch.setattr(orders, "_position_map",
                        lambda n, *swaps: operator.itemgetter(*reversed(range(2 * n))))
    orders._move_maps.cache_clear()
    with pytest.raises(ParameterError, match="normalization"):
        orders._move_maps(3)


def test_orbit_walk_validates_each_new_order(monkeypatch):
    # a map moving vertex 2n off position 2n yields a seq that is no
    # normalized good order, which the walk must refuse
    bad = orders._position_map(3, (3, 6))
    monkeypatch.setattr(orders, "_move_maps", lambda n: (bad,))
    with pytest.raises(ParameterError, match="normalization"):
        connectivity_check(3)


# ---------------------------------------------------------------------------
# constructing containing orders
# ---------------------------------------------------------------------------

def test_construct_examples():
    order = construct_order_containing(3, 4, mask_of({5, 1, 3, 6}))
    assert is_interval(order, mask_of({5, 1, 3, 6})) is not None
    order = construct_order_containing(3, 3, mask_of({1, 2, 6}))
    assert is_interval(order, mask_of({1, 2, 6})) is not None
    order = construct_order_containing(2, 2, mask_of({1, 4}))
    assert is_interval(order, mask_of({1, 4})) is not None


def test_construct_is_deterministic():
    a = construct_order_containing(4, 6, mask_of({1, 5, 2, 6, 3, 8}))
    b = construct_order_containing(4, 6, mask_of({1, 5, 2, 6, 3, 8}))
    assert a == b


def test_construct_covers_every_star_member():
    for n in range(2, 5):
        for r in range(n, 2 * n):
            star = matching_universe(n, r).star(2 * n)
            for member in star:
                order = construct_order_containing(n, r, member)
                assert is_interval(order, member) is not None


def test_construct_parameter_errors():
    with pytest.raises(ParameterError):
        construct_order_containing(3, 4, mask_of({1, 2, 3, 4}))   # 6 missing
    with pytest.raises(ParameterError):
        construct_order_containing(3, 4, mask_of({1, 3, 4, 6}))   # misses edge 2
    with pytest.raises(ParameterError):
        construct_order_containing(3, 2, mask_of({1, 6}))         # r < n
    with pytest.raises(ParameterError, match="beyond 4"):
        construct_order_containing(2, 3, mask_of({1, 4, 5}))      # M_2 has no 5


def test_construct_checks_the_member_is_a_window(monkeypatch):
    # an order that misplaces the member is rejected: one rotated a place
    # too far, and a good order holding the member as another window
    def too_far(n, seq):
        after = seq.index(2 * n) + 2
        return types.SimpleNamespace(n=n, seq=tuple(seq[after:] + seq[:after]))

    member = mask_of({5, 1, 3, 6})
    for forged in (too_far, lambda n, seq: normalize_rotation(n, seq[::-1])):
        monkeypatch.setattr(orders, "normalize_rotation", forged)
        with pytest.raises(IntegrityError, match="construction bug"):
            construct_order_containing(3, 4, member)
    # the member is laid out as 3, 1, 5, 6, 4, 2; reversed, it is still a
    # window, so only the check of its own window sees the misplacement
    assert is_interval(normalize_rotation(3, [2, 4, 6, 5, 1, 3]), member) == 6


# ---------------------------------------------------------------------------
# saturation
# ---------------------------------------------------------------------------

def test_star_saturates_identity_order():
    star = matching_universe(4, 5).star(8)
    status = saturation(identity_order(4), star, 3)
    assert status.saturated
    assert status.member_interval_count == 5
    assert status.common_position == 8
    assert status.common_vertex == 8


def test_empty_family_is_unsaturated():
    empty = UniformFamily(6, 3, ())
    status = saturation(identity_order(3), empty, 3)
    assert not status.saturated and status.member_interval_count == 0


def test_star_saturates_every_order_at_center():
    for n in (2, 3):
        for r in range(n, 2 * n):
            star = matching_universe(n, r).star(2 * n)
            k = 2 * n + 1
            for order in enumerate_good_orders(n):
                status = saturation(order, star, k)
                assert status.saturated
                assert status.common_vertex == 2 * n


def test_star_saturates_at_any_center():
    # the common vertex tracks the star's own center, whichever it is
    n = 3
    for r in (3, 4, 5):
        fam = matching_universe(n, r)
        for v in range(1, 2 * n + 1):
            star = fam.star(v)
            for order in enumerate_good_orders(n):
                status = saturation(order, star, 2 * n + 1)
                assert status.saturated and status.common_vertex == v


def test_saturation_integrity_on_overfull_family():
    # all windows of one order form a union subfamily with 2n member
    # windows, exceeding the cap r; only a non-k-wise family can do that
    order = identity_order(3)
    fam = UniformFamily.from_masks(6, 4, (m for _, m in intervals(order, 4)))
    with pytest.raises(IntegrityError):
        saturation(order, fam, 12)


def test_saturation_rejects_foreign_members():
    bad = UniformFamily.from_vertex_sets(6, 3, [{1, 2, 4}])  # not independent
    with pytest.raises(ParameterError):
        saturation(identity_order(3), bad, 7)


def test_saturation_needs_the_strict_regime():
    # at k*r = (k-1)*2n a saturated order would fail inside common_index,
    # so the boundary is rejected up front, even for a family no order holds
    with pytest.raises(ParameterError, match="saturation"):
        saturation(identity_order(3), UniformFamily(6, 3, ()), 2)


@pytest.mark.parametrize("n", range(1, 8))
def test_order_rows_equal_the_reference(n):
    # rows and orders, row for row, against the one-order-at-a-time
    # reference rather than against each other
    expected = list(reference_good_orders(n))
    assert [tuple(row) for row in orders._order_rows(n)] == expected
    assert [order.seq for order in enumerate_good_orders(n)] == expected
    assert enumerated_order_count(n) == len(expected)


def test_enumeration_reaches_the_cap():
    assert enumerated_order_count(8) == good_order_count(8) == 645120


def _slot_edit(rng, n, partner):
    """One edit of a first half (a bytearray of n labels): a slot set to
    any byte from 0 to 2n+1, two slots swapped, or a slot's vertex
    replaced by its partner."""
    kind, s, t = rng.randrange(3), rng.randrange(n), rng.randrange(n)
    value = rng.randrange(2 * n + 2)

    def edit(half):
        if kind == 0:
            half[s] = value
        elif kind == 1:
            half[s], half[t] = half[t], half[s]
        else:
            half[s] = partner[half[s]]
    return edit


def _row_rule(n, h1, h2):
    """What the block check must answer, read row by row: the first bad
    row's message, a block-level failure when the rows' first-half edge
    strings differ, else None."""
    edge = orders._layout(n)[3]
    rows = [h1[p:p + n] + h2[p:p + n] for p in range(0, len(h1), n)]
    for row in rows:
        outcome = _outcome(lambda: orders._check_row(n, row, IntegrityError))
        if outcome is not None:
            return outcome
    if len({row[:n].translate(edge) for row in rows}) > 1:
        return IntegrityError, "block"
    return None


@pytest.mark.parametrize("n", range(2, 7))
def test_block_check_agrees_with_the_row_check(n):
    # seeded mutations of valid blocks: one byte of either half, one row's
    # first half with its second half rebuilt, or one slot edit to every row
    rng = random.Random(n)
    partner = orders._layout(n)[2]
    blocks = list(orders._order_blocks(n))
    raised = 0
    for trial in range(450):
        h1, h2 = map(bytearray, rng.choice(blocks))
        rows = range(0, len(h1), n)
        if trial % 3 == 0:
            half = rng.choice((h1, h2))
            half[rng.randrange(len(half))] = rng.randrange(2 * n + 2)
        else:
            edit = _slot_edit(rng, n, partner)
            for p in ([rng.choice(rows)] if trial % 3 == 1 else rows):
                first = h1[p:p + n]
                edit(first)
                h1[p:p + n] = first
            h2 = h1.translate(partner)
        h1, h2 = bytes(h1), bytes(h2)
        expected = _row_rule(n, h1, h2)
        got = _outcome(lambda: orders._check_block(n, h1, h2))
        if expected == (IntegrityError, "block"):
            assert got[0] is IntegrityError and "same edge" in got[1]
        else:
            assert got == expected
        raised += got is not None
    assert 0 < raised < 450


def test_sweep_keeps_no_table_of_the_orders():
    # the sweep keeps no table of the orders: it peaks below three byte
    # tables of them, and its statuses, all one outcome, are one object
    n = 7
    tracemalloc.start()
    try:
        statuses = saturation_sweep(n, matching_universe(n, 9).star(2 * n), 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 * n * good_order_count(n)
    assert len(statuses) == good_order_count(n) == 46080
    assert len(set(map(id, statuses))) == 1


def test_rows_are_checked_against_a_wrong_partner_table(monkeypatch, capsys):
    # the partner table the rows are built from, with vertices 1 and 2
    # taking each other's partners
    layout = orders._layout

    def swapped(n):
        size, labels, partner, edge = layout(n)
        bad = bytearray(partner)
        bad[1], bad[2] = bad[2], bad[1]
        return size, labels, bytes(bad), edge

    def sweep():
        return saturation_sweep(4, matching_universe(4, 5).star(8), 3)

    sweep()                         # a sweep before the swap leaves nothing behind
    monkeypatch.setattr(orders, "_layout", swapped)
    with pytest.raises(IntegrityError, match="partners must sit exactly 4 apart"):
        list(orders._order_rows(4))
    with pytest.raises(IntegrityError, match="partners must sit exactly 4 apart"):
        sweep()
    assert main(["circle", "--n", "4", "--action", "count", "--format", "json"]) == 4
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "integrity"
    assert main(["circle", "--n", "4", "--r", "5", "--k", "3", "--action", "saturate",
                 "--format", "json"]) == 4
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "integrity"


def test_rows_are_checked_against_a_partner_table_fixing_a_vertex(monkeypatch, capsys):
    # the partner table the rows are built from, with vertex 1 its own
    # partner: every row keeps its edges, but holds vertex 1 twice
    layout = orders._layout

    def fixed(n):
        size, labels, partner, edge = layout(n)
        bad = bytearray(partner)
        bad[1] = 1
        return size, labels, bytes(bad), edge

    monkeypatch.setattr(orders, "_layout", fixed)
    with pytest.raises(IntegrityError, match="permuting the int labels"):
        list(orders._order_rows(4))
    assert main(["circle", "--n", "4", "--action", "count", "--format", "json"]) == 4
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "integrity"


def _outcome(run):
    try:
        return run()
    except MatchwiseError as exc:
        return type(exc), str(exc)


def _status(run):
    """What ``run`` returns, or the class of the MatchwiseError it raises."""
    try:
        return run()
    except MatchwiseError as exc:
        return type(exc)


def _oracle(seqs, fam):
    """The window oracle's status for each of ``seqs``, or IntegrityError
    where more than r members are windows or r are not the windows
    through one position (where common_index rejects them)."""
    members = {frozenset(v for v in range(1, fam.universe_size + 1) if mask >> v - 1 & 1)
               for mask in fam.sets}
    outcomes = [saturation_of(seq, members, fam.r) for seq in seqs]
    return [IntegrityError if isinstance(got, str) else SaturationStatus(*got)
            for got in outcomes]


@pytest.mark.parametrize("n", range(1, 6))
def test_sweep_matches_saturation_of_every_order(n):
    # the sweep and one-order saturation, each against the window oracle
    # on the reference orders: the sweep raises where any order does
    rng = random.Random(n)

    def same_outcome(fam, k):
        expected = _oracle(reference_good_orders(n), fam)
        assert [_status(lambda: saturation(GoodCyclicOrder(n, seq), fam, k))
                for seq in reference_good_orders(n)] == expected
        swept = _status(lambda: saturation_sweep(n, fam, k))
        assert swept == (IntegrityError if IntegrityError in expected else tuple(expected))
        return swept

    for r in range(1, 2 * n):
        k = 2 * n // (2 * n - r) + 1            # the smallest strict k
        universe = matching_universe(n, r)
        for v in range(1, 2 * n + 1):
            statuses = same_outcome(universe.star(v), k)
            assert {st.common_vertex for st in statuses} == {v}
        star = universe.star(2 * n)
        # saturated exactly where the dropped member is no window
        same_outcome(UniformFamily(2 * n, r, star.sets[1:]), k)
        # not k-wise intersecting: more than r windows in the identity order
        over = UniformFamily.from_masks(2 * n, r, star.sets + universe.star(1).sets)
        assert same_outcome(over, k) is IntegrityError
        # random union subfamilies, most neither stars nor k-wise intersecting
        for _ in range(3):
            same_outcome(UniformFamily.from_masks(
                2 * n, r, rng.sample(universe.sets, rng.randint(0, len(universe)))), k)


def _random_good_order(rng, n):
    """A normalized good order drawn as the enumerator lays them out: the
    edges 1..n-1 in a random order at positions 1..n-1, each by a random
    endpoint, vertex n at position n and each partner n positions on."""
    half = [e + n * rng.randrange(2) for e in rng.sample(range(1, n), n - 1)] + [n]
    return GoodCyclicOrder(n, tuple(half + [v + n if v <= n else v - n for v in half]))


@pytest.mark.parametrize("n", [9, 16, 17, 32])
def test_saturation_in_wide_lanes_matches_the_oracle(n):
    # 2n = 18..64 bits need lanes of 4 and 8 bytes, which no sweep reaches
    rng = random.Random(n)
    outcomes = set()
    for _ in range(40):
        order = _random_good_order(rng, n)
        r = rng.randrange(1, 2 * n)
        k = 2 * n // (2 * n - r) + 1
        windows = [mask for _, mask in intervals(order, r)]
        p = rng.randrange(2 * n)
        through = [windows[(p - j) % (2 * n)] for j in range(r)]
        other = [mask for _, mask in intervals(_random_good_order(rng, n), r)]
        for masks in (through, through[1:], rng.sample(windows, rng.randint(0, 2 * n)),
                      rng.sample(through + other, rng.randint(0, r + 2))):
            fam = UniformFamily.from_masks(2 * n, r, set(masks))
            got = _status(lambda: saturation(order, fam, k))
            assert [got] == _oracle([order.seq], fam)
            outcomes.add(got if got is IntegrityError else got.saturated)
    assert outcomes == {True, False, IntegrityError}


def test_sweep_runs_common_index_once_per_arc_family(monkeypatch):
    calls = []
    common_index = orders.common_index

    def counted(fam, k):
        calls.append(fam.starts)
        return common_index(fam, k)

    monkeypatch.setattr(orders, "common_index", counted)
    statuses = saturation_sweep(4, matching_universe(4, 5).star(3), 3)
    assert len(statuses) == 48
    assert {st.common_vertex for st in statuses} == {3}
    # vertex 3 sits at each position but n and 2n in some order
    assert len(calls) == len(set(calls)) == 6


def test_sweep_preconditions():
    star = matching_universe(3, 4).star(6)
    with pytest.raises(CapacityError):
        saturation_sweep(9, matching_universe(9, 9).star(18), 3)
    with pytest.raises(ParameterError, match="universe"):
        saturation_sweep(4, star, 4)
    with pytest.raises(ParameterError, match="strictly"):
        saturation_sweep(3, star, 3)


def test_saturation_checks_a_family_once(monkeypatch):
    calls = 0
    full_edges = orders._full_edges

    def counted(n, mask):
        nonlocal calls
        calls += 1
        return full_edges(n, mask)

    monkeypatch.setattr(orders, "_full_edges", counted)
    star = matching_universe(6, 8).star(12)
    statuses = saturation_sweep(6, star, 4)
    assert len(statuses) == 3840 and all(st.common_vertex == 12 for st in statuses)
    assert calls == len(star) == 160


# ---------------------------------------------------------------------------
# the local move lemma
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, r, k, survivors", [(3, 3, 3, 8), (3, 4, 4, 16)])
def test_move_lemma_needs_the_kwise_union_test(monkeypatch, n, r, k, survivors):
    # agreement on the shared windows alone leaves candidate centres: the
    # sweep over all 8 orders finds 8 times the identity order's survivors
    monkeypatch.setattr(orders, "is_k_wise_intersecting", lambda fam, k: True)
    report = move_lemma_check(n, r, k)
    assert not report.holds
    assert (report.cases, report.survivors) == (10, survivors // 8)
    assert move_lemma_sweep(n, r, k, union_test=False) == (80, survivors)


@pytest.mark.parametrize("union_test", [True, False])
def test_move_lemma_on_one_order_matches_the_full_sweep(monkeypatch, union_test):
    # every order is an automorphism's image of the identity order, so the
    # sweep over all of them counts #orders times its cases and survivors
    if not union_test:
        monkeypatch.setattr(orders, "is_k_wise_intersecting", lambda fam, k: True)
    for n in range(1, 6):
        count = sum(1 for _ in reference_good_orders(n))
        for r in range(n, 2 * n):
            k = 2 * n // (2 * n - r) + 1
            report = move_lemma_check(n, r, k)
            assert move_lemma_sweep(n, r, k, union_test) == (
                count * report.cases, count * report.survivors), (n, r, k)


@pytest.mark.parametrize("n, r, k, error", [
    (3, 2, 3, ParameterError),          # r < n, where the lemma is false
    (3, 6, 7, ParameterError),          # r = 2n
    (3, 4, 3, ParameterError),          # boundary: k*r = (k-1)*2n
    (3, 4.0, 4, ParameterError),
    (33, 33, 3, CapacityError),
])
def test_move_lemma_check_preconditions(n, r, k, error):
    with pytest.raises(error):
        move_lemma_check(n, r, k)


# malformed arguments to the order layer: a wrong type, or a bool or
# float where an int belongs
MALFORMED_ORDER_CALLS = [
    pytest.param(lambda: intervals(identity_order(3), 2.0), id="intervals-float"),
    pytest.param(lambda: intervals(identity_order(3), True), id="intervals-bool"),
    pytest.param(lambda: is_interval(identity_order(3), 3.0), id="is_interval-float"),
    pytest.param(lambda: is_interval(identity_order(3), -1), id="is_interval-negative"),
    pytest.param(lambda: is_interval(identity_order(3), 1 << 6), id="is_interval-beyond"),
    pytest.param(lambda: intervals(identity_order(3), 6), id="intervals-full-circle"),
    pytest.param(lambda: orders_containing_count(3, 6), id="containing-count-r-2n"),
    pytest.param(lambda: construct_order_containing(3, 4, 0b100011),
                 id="construct-mask-wrong-size"),
    pytest.param(lambda: transpose(identity_order(3), 1.0), id="transpose-float"),
    pytest.param(lambda: swap_halves(identity_order(3), True), id="swap_halves-bool"),
    pytest.param(lambda: connectivity_check(3.0), id="connectivity-float"),
    pytest.param(lambda: construct_order_containing(3, 4, 60.0), id="construct-mask-float"),
    pytest.param(lambda: construct_order_containing(3, 4.0, 60), id="construct-r-float"),
    pytest.param(lambda: GoodCyclicOrder([3], (1, 2, 3, 4, 5, 6)), id="order-n-list"),
    pytest.param(lambda: normalize_rotation(2.0, (4, 1, 2, 3)), id="rotation-n-float"),
    pytest.param(lambda: normalize_rotation(2, None), id="rotation-seq-none"),
    pytest.param(lambda: identity_order(None), id="identity-none"),
    pytest.param(lambda: identity_order(3.0), id="identity-float"),
    pytest.param(lambda: identity_order("3"), id="identity-str"),
]


@pytest.mark.parametrize("call", MALFORMED_ORDER_CALLS)
def test_order_layer_rejects_malformed_arguments(call):
    with pytest.raises(ParameterError):
        call()


def test_identity_order_checks_n_before_building():
    # an n past the vertex-set width is refused before any tuple exists
    with pytest.raises(CapacityError):
        identity_order(10**20)


def test_small_case_r_just_above_n_exhaustive():
    # the tight small configurations (r = n + 1 at small n, larger k) are
    # settled by exhaustive verification over every normalized order
    from matchwise import verify_extremal_characterization
    cases = [(3, 4, 4), (3, 4, 5), (3, 4, 6), (2, 3, 5), (2, 3, 6)]
    for n, r, k in cases:
        assert k * r < (k - 1) * 2 * n
        star = matching_universe(n, r).star(2 * n)
        for order in enumerate_good_orders(n):
            assert saturation(order, star, k).common_vertex == 2 * n
        assert move_lemma_check(n, r, k).holds
    # at those parameters the maximum families are exactly the stars
    for n, r, k in [(3, 4, 4), (3, 4, 5)]:
        report = verify_extremal_characterization(n, r, k)
        assert report.ok and report.uniqueness_asserted and report.all_are_stars
