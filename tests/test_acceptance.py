"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they are produced.  Every criterion carries its wall-clock budget and
its exact expected values; oracles are recomputed from definitions in
:mod:`oracles`.
"""

import math
import time
from collections import Counter

from matchwise import (complete_star_bound, complete_uniform_family,
                       connectivity_check, construct_order_containing,
                       counting_bound, enumerate_family, enumerate_good_orders,
                       fuzz_assignment, fuzz_common_index, good_order_count,
                       intervals, is_interval, matching_star_bound,
                       matching_universe, max_kwise_family,
                       move_lemma_check, orders_containing_count, saturation,
                       saturation_sweep, SearchProblem,
                       verify_extremal_characterization)

from oracles import brute_max_kwise_masks


def check(label: str, budget: float, started: float, ok: bool, detail: str = ""):
    elapsed = time.perf_counter() - started
    in_time = elapsed <= budget
    status = "PASS" if (ok and in_time) else "FAIL"
    print(f"[{label}] {status} ({elapsed:.2f}s of {budget:.0f}s budget) {detail}")
    assert ok, f"{label}: {detail}"
    assert in_time, f"{label}: exceeded {budget}s budget ({elapsed:.2f}s)"


def test_a01_good_order_counts():
    t0 = time.perf_counter()
    counts = {n: sum(1 for _ in enumerate_good_orders(n)) for n in (2, 3, 4, 5)}
    expected = {2: 2, 3: 8, 4: 48, 5: 384}
    formulas = {n: good_order_count(n) for n in counts}
    ok = counts == expected and formulas == expected
    check("A01 good-order counts", 1.0, t0, ok, f"counts={counts}")


def test_a02_bound_identity_exact_division():
    t0 = time.perf_counter()
    ok = True
    detail = ""
    for n in range(2, 17):
        for r in range(n + 1, 2 * n):
            numerator = r * math.factorial(n - 1) * (1 << (n - 1))
            denominator = (math.factorial(2 * n - r) * math.factorial(r - n)
                           * (1 << (r - n)))
            quotient, remainder = divmod(numerator, denominator)
            bound = matching_star_bound(n, r).value
            if remainder or quotient != bound or counting_bound(n, r) != bound:
                ok = False
                detail = f"mismatch at n={n}, r={r}"
                break
    check("A02 exact quotient identity (n<=16)", 1.0, t0, ok, detail)


def test_a03_star_sizes_match_bound():
    t0 = time.perf_counter()
    ok = True
    detail = ""
    for n in range(1, 7):
        for r in range(n, 2 * n):
            fam = matching_universe(n, r)
            expected = matching_star_bound(n, r).value
            for x in range(1, 2 * n + 1):
                if len(fam.star(x)) != expected:
                    ok = False
                    detail = f"star({n},{r},{x}) != {expected}"
    check("A03 star sizes (n<=6)", 5.0, t0, ok, detail)


def test_a04_extremal_m3_r3_k3_with_oracle():
    t0 = time.perf_counter()
    universe = matching_universe(3, 3)
    result = max_kwise_family(SearchProblem(universe, 3))
    oracle_max, oracle_wits = brute_max_kwise_masks(universe.sets, 3)
    stars = {universe.star(v).sets for v in range(1, 7)}
    witnesses = {w.sets for w in result.witnesses}
    ok = (result.max_size == 4 == oracle_max
          and witnesses == set(oracle_wits) == stars
          and len(witnesses) == 6)
    check("A04 maximum at n=3,r=3,k=3 (2^8 oracle)", 1.0, t0, ok,
          f"max={result.max_size}, witnesses={len(witnesses)}")


def test_a05_extremal_m4_r4_k3_with_oracle():
    t0 = time.perf_counter()
    universe = matching_universe(4, 4)
    result = max_kwise_family(SearchProblem(universe, 3))
    oracle_max, oracle_wits = brute_max_kwise_masks(universe.sets, 3)
    stars = {universe.star(v).sets for v in range(1, 9)}
    witnesses = {w.sets for w in result.witnesses}
    ok = (result.max_size == 8 == oracle_max
          and witnesses == set(oracle_wits) == stars)
    check("A05 maximum at n=4,r=4,k=3 (2^16 oracle)", 10.0, t0, ok,
          f"max={result.max_size}, witnesses={len(witnesses)}")


def test_a06_extremal_m4_r5_k3_branch_and_bound():
    t0 = time.perf_counter()
    report = verify_extremal_characterization(4, 5, 3)
    ok = (report.max_size == 20 and report.bound_met
          and report.all_are_stars is True and report.witness_count == 8
          and report.ok)
    check("A06 maximum at n=4,r=5,k=3 (32-set universe)", 300.0, t0, ok,
          f"max={report.max_size}, nodes={report.explored_nodes}")


def test_a07_boundary_m3_r4_k3():
    t0 = time.perf_counter()
    report = verify_extremal_characterization(3, 4, 3)
    ok = (report.max_size == 8 == matching_star_bound(3, 4).value
          and report.bound_met and report.boundary
          and not report.uniqueness_asserted and report.ok)
    check("A07 boundary n=3,r=4,k=3", 10.0, t0, ok,
          f"max={report.max_size}, witnesses={report.witness_count} "
          "(uniqueness not asserted)")


def test_a08_per_member_order_counts():
    t0 = time.perf_counter()
    ok = True
    detail = ""
    for n in range(1, 5):
        orders = list(enumerate_good_orders(n))
        for r in range(1, 2 * n):
            counts = Counter()
            for order in orders:
                for _, mask in intervals(order, r):
                    counts[mask] += 1
            expected = orders_containing_count(n, r)
            universe = matching_universe(n, r)
            if any(counts[m] != expected for m in universe) or \
                    set(counts) != set(universe.sets):
                ok = False
                detail = f"count mismatch at n={n}, r={r}"
    check("A08 per-member containment counts (n<=4)", 30.0, t0, ok, detail)


def test_a09_fuzz_campaign():
    t0 = time.perf_counter()
    assignment = fuzz_assignment(trials=16000, seed=0)
    extraction = fuzz_common_index(trials=10000, seed=0)
    ok = (assignment.ok and extraction.ok
          and assignment.conforming >= 10000
          and extraction.conforming >= 10000)
    check("A09 randomized campaigns (>=10^4 conforming)", 30.0, t0, ok,
          f"assignment: {assignment.conforming} conforming / "
          f"{assignment.covering} covering; extraction: "
          f"{extraction.conforming} conforming, "
          f"{extraction.integrity_rejections} rejected perturbations")


def test_a10_saturation_and_moves():
    t0 = time.perf_counter()
    ok = True
    detail = ""
    for n in range(1, 6):
        k = 2 * n + 1
        for r in range(n, 2 * n):
            star = matching_universe(n, r).star(2 * n)
            statuses = saturation_sweep(n, star, k)
            if (len(statuses) != good_order_count(n) or not all(
                    st.saturated and st.common_vertex == 2 * n for st in statuses)):
                ok = False
                detail = f"unsaturated order at n={n}, r={r}"
            # the sweep against saturation order by order
            if n <= 4 and statuses != tuple(saturation(order, star, k)
                                            for order in enumerate_good_orders(n)):
                ok = False
                detail = f"sweep differs from per-order saturation at n={n}, r={r}"
    # the local move lemma for every family at once, at the smallest
    # strict k, which covers every larger k; the identity order decides it
    cases = 0
    for n in range(2, 17):
        for r in range(n, 2 * n):
            k = 2 * n // (2 * n - r) + 1
            report = move_lemma_check(n, r, k)
            cases += report.cases
            if report.survivors or report.cases != (n - 1) * (2 * n - 1):
                ok = False
                detail = f"move lemma at n={n}, r={r}, k={k}: {report}"
    connectivity = all(connectivity_check(n).connected for n in range(1, 6))
    ok = ok and connectivity
    check("A10 saturation (n<=5), move lemma (n<=16), connectivity (n<=5)", 60.0,
          t0, ok, detail or f"{cases} move cases, connectivity n<=5: {connectivity}")


def test_a11_construction_coverage():
    t0 = time.perf_counter()
    ok = True
    detail = ""
    total = 0
    for n in range(1, 6):
        for r in range(n, 2 * n):
            star = matching_universe(n, r).star(2 * n)
            for member in star:
                total += 1
                order = construct_order_containing(n, r, member)
                if is_interval(order, member) is None:
                    ok = False
                    detail = f"construction failed at n={n}, r={r}"
    check("A11 containing-order construction (n<=5)", 60.0, t0, ok,
          detail or f"{total} members covered")


def test_a12_calibrations():
    t0 = time.perf_counter()
    ok = True
    detail = ""
    # complete-universe calibration (k-wise over all r-subsets of [m])
    for m in range(2, 7):
        for k in (2, 3, 4):
            for r in range(1, (k - 1) * m // k + 1):
                universe = complete_uniform_family(m, r)
                result = max_kwise_family(SearchProblem(universe, k,
                                                        "max_size_only"))
                if result.max_size != complete_star_bound(m, r):
                    ok = False
                    detail = f"complete universe m={m}, r={r}, k={k}"
    # independent-universe calibration at k=2, star uniqueness below r=n
    for n in range(2, 5):
        for r in range(1, n + 1):
            universe = enumerate_family(n, r, "independent")
            result = max_kwise_family(SearchProblem(universe, 2))
            if result.max_size != matching_star_bound(n, r).value:
                ok = False
                detail = f"independent universe n={n}, r={r}"
            if r < n:
                stars = {universe.star(v).sets for v in range(1, 2 * n + 1)}
                if {w.sets for w in result.witnesses} != stars:
                    ok = False
                    detail = f"non-star maximum at n={n}, r={r}, k=2"
    # negative control at the pairwise boundary r = m/2: non-star maxima
    control = max_kwise_family(SearchProblem(complete_uniform_family(4, 2), 2))
    if not (control.max_size == 3 and control.all_are_stars is False):
        ok = False
        detail = "negative control C([4],2)"
    check("A12 calibrations and negative control", 60.0, t0, ok, detail)
