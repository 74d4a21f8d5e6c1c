"""The three workloads: their operations, answers and checks.

An operation's ``run`` is the timed call into the package.  ``answer``
turns its raw result into a canonical, JSON-ready answer without
volatile fields (node counts, timings), and ``check`` returns the
problems found in that answer by the code in ``checks``, never by the
package under test.  Inputs are built once per set-up from the seed.

Random sub-universes are drawn from the n=5 r=6 and r=7 union families
(80 members each).  Their search cost varies about 70% (standard
deviation over mean) from one draw to the next, at any size, so a few
large seeded draws would make one seed's pass time unlike another's.
The seeded draws are therefore small and many, and the deep searches
come from a fixed panel of larger draws that every seed shares.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

import checks

SUB_KINDS = ((6, 3), (7, 4))    # (r, k) of the n=5 sub-universe draws
PANEL_SIZE, PANEL_COUNT = 34, 2    # per kind, the same for every seed
SEEDED_SIZE, SEEDED_COUNT = 20, 32  # per kind, drawn from the seed
FUZZ_TRIALS = 10_000


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    answer: Callable[[object], dict]
    check: Callable[[dict], list[str]]
    seeded: bool = False


def call_cli(mw, argv: list[str]) -> tuple[int, str]:
    """Run ``matchwise.cli.main`` in-process; return (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = mw.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def cli_answer(raw) -> dict:
    code, text = raw
    obj = json.loads(text)
    for volatile in ("explored_nodes", "elapsed_ms"):
        obj.pop(volatile, None)
    if "witnesses" in obj:
        obj["witnesses"] = [sorted(checks.mask_of(s) for s in w["sets"])
                            for w in obj["witnesses"]]
    obj["exit"] = code
    return obj


def expect(answer: dict, **fields) -> list[str]:
    return [f"{key}={answer.get(key)!r}, expected {value!r}"
            for key, value in fields.items() if answer.get(key) != value]


def admissible_ks(n: int, r: int, count: int) -> list[int]:
    """The ``count`` smallest k >= 2 with k*r <= (k-1)*2n."""
    ks, k = [], 2
    while len(ks) < count:
        if k * r <= (k - 1) * 2 * n:
            ks.append(k)
        k += 1
    return ks


# ---------------------------------------------------------------------------
# search instances
# ---------------------------------------------------------------------------

def verify_op(mw, n: int, r: int, k: int) -> Op:
    argv = ["verify", "--n", str(n), "--r", str(r), "--k", str(k),
            "--all-maximum", "--check-stars", "--format", "json"]
    bound = checks.star_bound(n, r)
    strict = k * r < (k - 1) * 2 * n

    def check(ans: dict) -> list[str]:
        return expect(ans, exit=0, n=n, r=r, k=k, mode="all_maximum",
                      bound_expected=bound, bound_met=True,
                      witness_count=len(ans.get("witnesses") or ())) + \
            checks.check_search(ans, universe=checks.union_family(n, r),
                                width=2 * n, k=k, bound=bound, full=True,
                                strict=strict)
    return Op(f"verify n={n} r={r} k={k}", lambda: call_cli(mw, argv),
              cli_answer, check)


def search_op(mw, name: str, universe, n: int, k: int, mode: str,
              symmetry=None, full: bool = False, seeded: bool = False) -> Op:
    problem = mw.search.SearchProblem(universe, k, mode, symmetry)
    collect = mode == "all_maximum"
    r = universe.r
    strict = k * r < (k - 1) * 2 * n

    def answer(res) -> dict:
        ans = {"max_size": res.max_size, "all_are_stars": res.all_are_stars,
               "star_centers": list(res.star_centers)}
        if collect:
            ans["witnesses"] = [list(w.sets) for w in res.witnesses]
        return ans

    def check(ans: dict) -> list[str]:
        members = checks.union_family(n, r) if full else universe.sets
        return checks.check_search(ans, universe=members, width=2 * n, k=k,
                                   bound=checks.star_bound(n, r), full=full,
                                   strict=strict)
    return Op(name, lambda: mw.search.max_kwise_family(problem), answer, check,
              seeded)


def sub_universe_ops(mw, seed: int, mode: str) -> list[Op]:
    ops = []
    for r, k in SUB_KINDS:
        pool = mw.families.matching_universe(5, r).sets
        draws = [(f"panel #{i}", random.Random(f"panel:{r}:{i}"), PANEL_SIZE, False)
                 for i in range(PANEL_COUNT)]
        rng = random.Random(f"seed:{seed}:{r}")
        draws += [(f"seed={seed} #{i}", rng, SEEDED_SIZE, True)
                  for i in range(SEEDED_COUNT)]
        for label, draw_rng, size, seeded in draws:
            sub = mw.families.UniformFamily.from_masks(10, r, draw_rng.sample(pool, size))
            ops.append(search_op(mw, f"sub n=5 r={r} k={k} {label}", sub, 5, k,
                                 mode, seeded=seeded))
    return ops


def characterize(mw, seed: int) -> list[Op]:
    ops = [verify_op(mw, n, r, k)
           for n in range(1, 5) for r in range(n, 2 * n)
           for k in admissible_ks(n, r, 2)]
    group = mw.search.matching_symmetry(5)
    for r, k in ((5, 3), (5, 4), (9, 10)):
        ops.append(search_op(mw, f"full n=5 r={r} k={k}",
                             mw.families.matching_universe(5, r), 5, k,
                             "all_maximum", group, full=True))
    return ops + sub_universe_ops(mw, seed, "all_maximum")


def maxsize(mw, seed: int) -> list[Op]:
    group = mw.search.matching_symmetry(5)
    ops = [search_op(mw, f"full n=5 r=5 k={k}", mw.families.matching_universe(5, 5),
                     5, k, "max_size_only", group, full=True)
           for k in (3, 4, 5)]
    return ops + sub_universe_ops(mw, seed, "max_size_only")


# ---------------------------------------------------------------------------
# certificate instances
# ---------------------------------------------------------------------------

def circle_op(mw, n: int, action: str, r: int | None = None,
              k: int | None = None) -> Op:
    argv = ["circle", "--n", str(n), "--action", action, "--format", "json"]
    if r is not None:
        argv += ["--r", str(r)]
    if k is not None:
        argv += ["--k", str(k)]
    orders = checks.good_order_count(n)

    def check(ans: dict) -> list[str]:
        problems = expect(ans, exit=0, ok=True, action=action, n=n)
        if action == "count":
            problems += expect(ans, enumerated=orders, expected=orders)
        elif action == "moves":
            problems += expect(ans, connected=True, orbit_size=orders, expected=orders)
        elif action == "saturate":
            problems += expect(ans, r=r, k=k, orders=orders, saturated=orders)
        else:
            size = checks.star_bound(n, r)
            problems += expect(ans, r=r, star_size=size, verified=size)
        return problems
    label = " ".join(f"{key}={val}" for key, val in (("r", r), ("k", k)) if val is not None)
    return Op(f"circle {action} n={n} {label}".rstrip(), lambda: call_cli(mw, argv),
              cli_answer, check)


def fuzz_op(mw, target: str, seed: int) -> Op:
    argv = ["fuzz", "--target", target, "--trials", str(FUZZ_TRIALS),
            "--seed", str(seed), "--format", "json"]

    def check(ans: dict) -> list[str]:
        return expect(ans, exit=0, target=target, trials=FUZZ_TRIALS, seed=seed,
                      violation_count=0, violations=[])
    return Op(f"fuzz {target} seed={seed}", lambda: call_cli(mw, argv),
              cli_answer, check, seeded=True)


def certificates(mw, seed: int) -> list[Op]:
    ops = [circle_op(mw, 6, "saturate", r, k)
           for r, k in ((6, 3), (7, 3), (8, 4), (9, 5), (10, 7))]
    ops.append(circle_op(mw, 7, "count"))
    ops.append(circle_op(mw, 6, "moves"))
    ops += [circle_op(mw, 8, "construct", r) for r in range(8, 16)]
    ops += [fuzz_op(mw, target, seed) for target in ("assignment", "common-index")]
    return ops


WORKLOAD_OPS = {"characterize": characterize, "maxsize": maxsize,
            "certificates": certificates}
WORKLOADS = tuple(WORKLOAD_OPS)
