"""
Arc families on a circle: certificates either way
=================================================

The engine behind the window analysis works on an abstract circle of N
positions.  For a family of length-r arcs and an arity k with
k*r <= (k-1)*N, the end-index assignment always produces one of two
certificates: a "bounded" report forcing at most r arcs, or complement
arcs covering the whole circle, which exhibit at most k distinct
members with empty common intersection.
"""

import json

from matchwise import (IntervalFamily, assign_indices, common_index,
                       construct_order_containing, identity_order, is_interval,
                       mask_of, matching_universe, move_lemma_check,
                       saturation, vertices_of)

# Four arcs of length 4 through position 1 on a 6-circle: k-wise
# intersecting, so the procedure certifies the size cap.
fam = IntervalFamily.from_starts(6, 4, [4, 5, 6, 1])
report = assign_indices(fam, 3)
print("arcs through position 1:", report.outcome)
print("unassigned indices:", report.unassigned, "(one per residue class)")

# Three disjoint arcs of length 2: the procedure finds a fully
# assigned residue class and emits the covering witness.
bad = IntervalFamily.from_starts(6, 2, [1, 3, 5])
report = assign_indices(bad, 3)
print("\ndisjoint arcs:", report.outcome)
print("witness complements:", report.witness_complements)
print("as JSON:", json.dumps(report.to_json_obj()))

# When a k-wise family has size exactly r (strict regime), it must be
# the full family of arcs through one position, and that position is
# recovered and verified.
star = IntervalFamily.from_starts(7, 3, [3, 4, 5])
print("\ncommon position of the three arcs:", common_index(star, 3))

# Back on the matching: an order is saturated by a family when r of
# its members appear as windows; the common position machinery then
# pins them all to one vertex.
star5 = matching_universe(4, 5).star(8)
status = saturation(identity_order(4), star5, 3)
print("\nsaturation of the identity order by the star at 8:", status)

# The local move lemma, for every family at once: an extremal family
# centred at 2n in an order stays centred at 2n after each of the moves
# T_1, T_2, W_3, because every (move, other centre) is ruled out.  One
# order is checked, the identity: every good order is its image under
# exactly one symmetry of M_n fixing 2n, which carries the moves along.
rep = move_lemma_check(4, 5, 3)
print(f"move lemma (n=4, r=5, k=3) on the identity order, which stands for "
      f"all 48: {rep.survivors} of {rep.cases} cases survive; holds: {rep.holds}")

# Every star member admits an explicitly constructed order containing
# it as a window.
member = mask_of({5, 1, 3, 6})
order = construct_order_containing(3, 4, member)
print(f"\norder containing {vertices_of(member)} as a window:",
      order.serialize(), "-> window starts at", is_interval(order, member))
