"""
Exhaustive extremal search at desk scale
========================================

The branch-and-bound solver computes exact maxima of k-wise
intersecting subfamilies and, on request, every maximum family.  At
admissible parameters the maxima are exactly the stars; at boundary
parameters other maximum families appear.
"""

import json

from matchwise import (SearchProblem, complete_uniform_family,
                       matching_symmetry_generators, matching_universe,
                       max_kwise_family, verify_extremal_characterization)

# Maximum 3-wise intersecting subfamilies of the r=3 universe over M_3:
# the six stars, found against a star-seeded bound.
universe = matching_universe(3, 3)
result = max_kwise_family(SearchProblem(universe, 3))
print(f"max size {result.max_size}; {len(result.witnesses)} maximum families; "
      f"all stars: {result.all_are_stars}; centers {result.star_centers}")

# The same search with M_3's vertex relabellings, passed as three
# generators of the 2^n n! group rather than its 48 elements: only orbit
# representatives are branched at the root, witnesses are expanded back.
sym = max_kwise_family(SearchProblem(universe, 3,
                                     symmetry=matching_symmetry_generators(3)))
print("symmetry-reduced run agrees:",
      [w.sets for w in sym.witnesses] == [w.sets for w in result.witnesses])

# The full characterization report for the 32-member universe at
# (n=4, r=5, k=3).
report = verify_extremal_characterization(4, 5, 3)
print(f"\n(n=4, r=5, k=3): max {report.max_size} = bound "
      f"{report.bound_expected}; witnesses {report.witness_count}, "
      f"all stars: {report.all_are_stars}; nodes {report.explored_nodes}")

# At the boundary k*r = (k-1)*2n the bound still holds but uniqueness
# fails: n=3, r=4, k=3 has nine maximum families, only six of them stars.
report = verify_extremal_characterization(3, 4, 3)
print(f"(n=3, r=4, k=3): max {report.max_size}, witnesses "
      f"{report.witness_count}, all stars: {report.all_are_stars} "
      f"(uniqueness not asserted at the boundary)")
obj = report.to_json_obj()
del obj["witnesses"]
print(json.dumps(obj, indent=2))

# A classical negative control: pairwise-intersecting 2-subsets of
# [4].  The bound C(3,1) = 3 is attained by stars and triangles alike.
control = max_kwise_family(SearchProblem(complete_uniform_family(4, 2), 2))
print(f"\nC([4],2) at k=2: max {control.max_size}, "
      f"{len(control.witnesses)} maximum families, all stars: "
      f"{control.all_are_stars}")
for w in control.witnesses:
    print("  ", w.vertex_sets())
