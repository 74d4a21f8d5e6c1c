"""Exact combinatorics of k-wise intersecting families over perfect matchings.

The package is organized in four layers:

* :mod:`matchwise.families`: the matching graph M_n, bitmask vertex
  sets, r-uniform families, k-wise intersection checks, and the exact
  closed-form bounds;
* :mod:`matchwise.arcs`: arc families on an abstract circle with the
  end-index assignment certificate and common-index extraction;
* :mod:`matchwise.orders`: good cyclic orders of V(M_n), window
  counting, moves, connectivity, explicit containing-order
  construction, saturation analysis (one order, or every order in one
  sweep) and the local move lemma check;
* :mod:`matchwise.search`: exact maximum k-wise intersecting
  subfamilies by branch and bound, with symmetry reduction and the
  extremal characterization report.

Randomized procedure checks live in :mod:`matchwise.fuzz`; the command
line front end in :mod:`matchwise.cli`.
"""

from .arcs import AssignmentReport, IntervalFamily, assign_indices, common_index
from .errors import CapacityError, IntegrityError, MatchwiseError, ParameterError
from .families import (BoundValue, MatchingGraph, UniformFamily, binomial,
                       complete_star_bound, complete_uniform_family,
                       enumerate_family, is_k_wise_intersecting, kwise_witness,
                       mask_of, matching_star_bound, matching_universe,
                       vertices_of)
from .fuzz import FuzzSummary, fuzz_assignment, fuzz_common_index, run_fuzz
from .orders import (ConnectivityReport, GoodCyclicOrder, MoveLemmaReport,
                     SaturationStatus, connectivity_check,
                     construct_order_containing, counting_bound,
                     enumerate_good_orders, enumerated_order_count,
                     good_order_count, identity_order, intervals, is_interval,
                     move_lemma_check, normalize_rotation,
                     orders_containing_count, saturation, saturation_sweep,
                     swap_halves, transpose)
from .schema import SCHEMA_VERSION
from .search import (ExtremalReport, SearchProblem, SearchResult,
                     apply_permutation, canonical_form, complete_symmetry,
                     matching_symmetry, matching_symmetry_generators,
                     max_kwise_family, verify_extremal_characterization)

__version__ = "0.1.0"

__all__ = [
    "AssignmentReport", "BoundValue", "CapacityError", "ConnectivityReport",
    "ExtremalReport", "FuzzSummary", "GoodCyclicOrder", "IntegrityError",
    "IntervalFamily", "MatchingGraph", "MatchwiseError", "MoveLemmaReport",
    "ParameterError", "SCHEMA_VERSION", "SaturationStatus", "SearchProblem",
    "SearchResult", "UniformFamily", "apply_permutation", "assign_indices",
    "binomial", "canonical_form", "common_index", "complete_star_bound",
    "complete_symmetry", "complete_uniform_family", "connectivity_check",
    "construct_order_containing", "counting_bound", "enumerate_family",
    "enumerate_good_orders", "enumerated_order_count", "fuzz_assignment",
    "fuzz_common_index", "good_order_count", "identity_order", "intervals",
    "is_interval", "is_k_wise_intersecting", "kwise_witness", "mask_of",
    "matching_star_bound",
    "matching_symmetry", "matching_symmetry_generators", "matching_universe",
    "max_kwise_family", "move_lemma_check", "normalize_rotation",
    "orders_containing_count", "run_fuzz", "saturation", "saturation_sweep",
    "swap_halves", "transpose", "verify_extremal_characterization",
    "vertices_of",
]
