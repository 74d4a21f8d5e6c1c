"""Command-line front end.

Subcommands: bounds, enumerate, verify, circle, fuzz.  The json and
csv output formats are contract (field names and columns are frozen in
SCHEMA.md and stamped with a schema_version); text output is
human-oriented only.  Exit codes: 0 success, 1 verification failed,
2 parameter error, 3 capacity error, 4 integrity error.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

from .errors import CapacityError, IntegrityError, ParameterError
from .families import enumerate_family, matching_star_bound, matching_universe
from .fuzz import run_fuzz
from .orders import (connectivity_check, construct_order_containing,
                     enumerate_good_orders, good_order_count, is_interval,
                     saturation)
from .schema import SCHEMA_VERSION
from .search import verify_extremal_characterization

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_PARAMETER = 2
EXIT_CAPACITY = 3
EXIT_INTEGRITY = 4

_STAR_ENUM_WIDTH = 16  # enumerate star sizes only while 2n <= 16


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    try:
        a = int(lo)
        b = int(hi) if sep else a
    except ValueError:
        raise ParameterError(f"expected an integer or a range lo:hi, got {text!r}") from None
    if b < a:
        raise ParameterError(f"empty range {text!r}")
    return a, b


def _csv_escape(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    text = str(value)
    if any(c in text for c in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _csv(rows: list[dict], columns: list[str]) -> str:
    out = io.StringIO()
    out.write(",".join(columns) + "\n")
    for row in rows:
        out.write(",".join(_csv_escape(row.get(c)) for c in columns) + "\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# subcommand implementations: each returns (payload_text, exit_code)
# ---------------------------------------------------------------------------

def _cmd_bounds(args) -> tuple[str, int]:
    n_lo, n_hi = _parse_range(args.n)
    rows = []
    for n in range(n_lo, n_hi + 1):
        if args.r is not None:
            r_lo, r_hi = _parse_range(args.r)
        else:
            r_lo, r_hi = 1, 2 * n - 1
        for r in range(max(1, r_lo), min(2 * n, r_hi) + 1):
            bound = matching_star_bound(n, r)
            star_size = None
            match = None
            if 2 * n <= _STAR_ENUM_WIDTH:
                star_size = len(enumerate_family(n, r, "union").star(2 * n))
                match = star_size == bound.value
            rows.append({"n": n, "r": r, "branch": bound.branch,
                         "bound": bound.value, "star_size": star_size,
                         "match": match})
    ok = all(row["match"] is not False for row in rows)
    columns = ["n", "r", "branch", "bound", "star_size", "match"]
    if args.format == "json":
        payload = json.dumps({"schema_version": SCHEMA_VERSION, "rows": rows},
                             indent=2)
    elif args.format == "csv":
        payload = _csv(rows, columns)
    else:
        lines = ["  ".join(f"{row[c]}" for c in columns) for row in rows]
        payload = "\n".join(["  ".join(columns)] + lines) + "\n"
    return payload, EXIT_OK if ok else EXIT_FAILED


def _cmd_enumerate(args) -> tuple[str, int]:
    fam = enumerate_family(args.n, args.r, args.kind)
    if args.format == "json":
        payload = json.dumps(fam.to_json_obj(), indent=2)
    else:
        # text and csv coincide: one set per line, comma-separated labels
        payload = fam.to_text()
    return payload, EXIT_OK


def _cmd_verify(args) -> tuple[str, int]:
    mode = "all_maximum" if args.all_maximum else "max_size_only"
    if args.check_stars and not args.all_maximum:
        raise ParameterError("--check-stars requires --all-maximum")
    report = verify_extremal_characterization(args.n, args.r, args.k, mode=mode)
    obj = report.to_json_obj(include_witnesses=args.all_maximum)
    ok = report.bound_met
    if args.check_stars and report.uniqueness_asserted:
        ok = ok and bool(report.all_are_stars)
    if args.format == "csv":
        columns = ["schema_version", "n", "r", "k", "mode", "max_size",
                   "bound_expected", "bound_met", "boundary", "uniqueness",
                   "witness_count", "all_are_stars", "star_centers",
                   "explored_nodes", "elapsed_ms"]
        row = dict(obj)
        row["star_centers"] = " ".join(str(c) for c in obj["star_centers"])
        payload = _csv([row], columns)
    elif args.format == "text":
        payload = (
            f"n={report.n} r={report.r} k={report.k}: max {report.max_size} "
            f"(expected {report.bound_expected}, "
            f"{'met' if report.bound_met else 'VIOLATED'}); "
            f"{report.witness_count} maximum families"
            + (f", all stars: {report.all_are_stars}"
               if report.uniqueness_asserted else ", uniqueness boundary: not asserted")
            + "\n")
    else:
        payload = json.dumps(obj, indent=2)
    return payload, EXIT_OK if ok else EXIT_FAILED


def _cmd_circle(args) -> tuple[str, int]:
    n = args.n
    if args.action == "count":
        enumerated = sum(1 for _ in enumerate_good_orders(n))
        expected = good_order_count(n)
        obj = {"action": "count", "n": n, "enumerated": enumerated,
               "expected": expected, "ok": enumerated == expected}
        text = f"good cyclic orders for n={n}: {enumerated}/{expected}\n"
    elif args.action == "moves":
        rep = connectivity_check(n)
        obj = {"action": "moves", "n": n, "connected": rep.connected,
               "orbit_size": rep.orbit_size, "expected": rep.expected,
               "ok": rep.connected}
        text = (f"moves orbit for n={n}: {rep.orbit_size}/{rep.expected} "
                f"({'connected' if rep.connected else 'NOT connected'})\n")
    elif args.action == "saturate":
        if args.r is None:
            raise ParameterError("saturate needs --r")
        r = args.r
        k = args.k if args.k is not None else 2 * n + 1
        star = matching_universe(n, r).star(2 * n)
        total = saturated = 0
        for order in enumerate_good_orders(n):
            total += 1
            status = saturation(order, star, k)
            if status.saturated and status.common_vertex == 2 * n:
                saturated += 1
        obj = {"action": "saturate", "n": n, "r": r, "k": k,
               "orders": total, "saturated": saturated,
               "ok": saturated == total}
        text = (f"star at vertex {2 * n} saturates {saturated}/{total} "
                f"orders (n={n}, r={r}, k={k})\n")
    elif args.action == "construct":
        if args.r is None:
            raise ParameterError("construct needs --r")
        r = args.r
        star = matching_universe(n, r).star(2 * n)
        verified = 0
        for member in star.sets:
            order = construct_order_containing(n, r, member)
            if is_interval(order, member) is not None:
                verified += 1
        obj = {"action": "construct", "n": n, "r": r,
               "star_size": len(star), "verified": verified,
               "ok": verified == len(star)}
        text = (f"constructed containing orders for {verified}/{len(star)} "
                f"members of the star at vertex {2 * n} (n={n}, r={r})\n")
    else:
        raise ParameterError(f"unknown circle action {args.action!r}")

    obj = {"schema_version": SCHEMA_VERSION, **obj}
    if args.format == "json":
        payload = json.dumps(obj, indent=2)
    elif args.format == "csv":
        columns = list(obj.keys())
        payload = _csv([obj], columns)
    else:
        payload = text
    return payload, EXIT_OK if obj["ok"] else EXIT_FAILED


_FUZZ_ALIASES = {"1": "assignment", "2": "common-index"}


def _cmd_fuzz(args) -> tuple[str, int]:
    target = _FUZZ_ALIASES.get(args.target, args.target)
    summary = run_fuzz(target, args.trials, args.seed)
    obj = summary.to_json_obj()
    if args.format == "json":
        payload = json.dumps(obj, indent=2)
    elif args.format == "csv":
        columns = ["schema_version", "target", "trials", "seed", "conforming",
                   "nonconforming", "bounded", "covering",
                   "integrity_rejections", "violation_count"]
        payload = _csv([obj], columns)
    else:
        payload = (f"fuzz {summary.target}: {summary.trials} trials, "
                   f"{summary.conforming} conforming, "
                   f"{len(summary.violations)} violations\n")
    # violations are report content, not process errors
    return payload, EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "text"),
                        default="text")
    common.add_argument("--output", default=None, help="write to file instead of stdout")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for randomized subcommands (default 0)")

    parser = argparse.ArgumentParser(
        prog="matchwise",
        description="Exact bounds, certificates and searches for k-wise "
                    "intersecting families over perfect matchings.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", parents=[common],
                       help="closed-form bounds vs enumerated star sizes")
    p.add_argument("--n", required=True, help="edge count or range lo:hi")
    p.add_argument("--r", default=None, help="cardinality or range lo:hi "
                                             "(default 1:2n-1 per n)")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("enumerate", parents=[common],
                       help="emit an r-uniform family over M_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--kind", choices=("independent", "max_containing", "union"),
                   default="union")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", parents=[common],
                       help="extremal search vs the closed-form bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--all-maximum", action="store_true", dest="all_maximum",
                   help="collect every maximum family")
    p.add_argument("--check-stars", action="store_true", dest="check_stars",
                   help="require the maximum families to be exactly the stars")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("circle", parents=[common],
                       help="cyclic-order demonstrations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--k", type=int, default=None,
                   help="intersection arity (default 2n+1)")
    p.add_argument("--action", choices=("count", "saturate", "moves", "construct"),
                   required=True)
    p.set_defaults(func=_cmd_circle)

    p = sub.add_parser("fuzz", parents=[common],
                       help="seeded randomized procedure checks")
    p.add_argument("--target", choices=("assignment", "common-index", "1", "2"),
                   required=True, help="1 is an alias for assignment, "
                                       "2 for common-index")
    p.add_argument("--trials", type=int, default=10000)
    p.set_defaults(func=_cmd_fuzz)
    return parser


def _emit(payload: str, out) -> None:
    if payload and not payload.endswith("\n"):
        payload += "\n"
    out.write(payload)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.output:
        return _run(args, sys.stdout)
    try:
        out = open(args.output, "w")
    except OSError as exc:
        # the output file cannot take the diagnostic, so stdout does
        _emit_error(args, "parameter", f"cannot open --output: {exc}", sys.stdout)
        return EXIT_PARAMETER
    with out:
        return _run(args, out)


def _run(args, out) -> int:
    try:
        payload, code = args.func(args)
    except ParameterError as exc:
        _emit_error(args, "parameter", exc, out)
        return EXIT_PARAMETER
    except CapacityError as exc:
        _emit_error(args, "capacity", exc, out)
        return EXIT_CAPACITY
    except IntegrityError as exc:
        _emit_error(args, "integrity", exc, out)
        return EXIT_INTEGRITY
    _emit(payload, out)
    return code


def _emit_error(args, kind: str, exc, out) -> None:
    if args.format == "json":
        diagnostic = json.dumps({"schema_version": SCHEMA_VERSION,
                                 "error": {"type": kind, "message": str(exc)}},
                                indent=2)
        _emit(diagnostic + "\n", out)
    print(f"matchwise: {kind} error: {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
