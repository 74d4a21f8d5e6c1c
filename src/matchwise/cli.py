"""Command-line front end.

Subcommands: bounds, enumerate, verify, circle, fuzz.  The json and
csv output formats are contract (field names and columns are frozen in
SCHEMA.md and stamped with a schema_version); text output is laid out
from the same payload and is human-oriented only.  Exit codes:
0 success, 1 verification failed, 2 parameter error, 3 capacity error,
4 integrity error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .errors import (CapacityError, IntegrityError, MatchwiseError, ParameterError,
                     require_int_in)
from .families import enumerate_family, matching_star_bound, matching_universe
from . import fuzz
from .orders import (connectivity_check, construct_order_containing,
                     enumerated_order_count, good_order_count, saturation_sweep)
from .schema import SCHEMA_VERSION
from .search import verify_extremal_characterization

# error class -> (diagnostic type, exit code); see SCHEMA.md
_ERRORS = {ParameterError: ("parameter", 2), CapacityError: ("capacity", 3),
           IntegrityError: ("integrity", 4)}

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


def _json(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2)`` for the payloads the commands emit.

    Dicts with str keys, lists and tuples are laid out as the indented
    dump lays them out.  A plain int (``type(x) is int``; bools fall
    through) is written by ``str`` and a list of them joined in one step,
    which the pure-Python encoder behind ``indent`` cannot do; any other
    value is dumped by ``json.dumps``.
    """
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        return ("{\n" + inner + (",\n" + inner).join(
            json.dumps(key) + ": " + _json(item, inner)
            for key, item in value.items()) + "\n" + indent + "}")
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        items = (map(str, value) if set(map(type, value)) == {int} else
                 (_json(item, inner) for item in value))
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if type(value) is int:
        return str(value)
    return json.dumps(value)


def _csv_escape(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    text = str(value)
    if any(c in text for c in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _csv(rows: list[dict], columns: list[str], sep: str = ",") -> str:
    lines = [columns] + [[_csv_escape(row.get(c)) for c in columns] for row in rows]
    return "".join(sep.join(cells) + "\n" for cells in lines)


def _render(args, obj: dict, columns: list[str] | None = None,
            skip: tuple[str, ...] = ()) -> str:
    """The payload in the requested format.

    CSV and text are derived from the JSON object: its ``rows`` under
    ``columns`` when it has them (an empty ``rows`` still prints the
    header), otherwise one row of its fields minus ``skip``, with lists
    of scalars joined by spaces.  Text prints the rows as a table with
    two spaces between cells, and the one row as a ``key: value`` line
    per field; every cell is spelled as in CSV.
    """
    if args.format == "json":
        return _json(obj)
    if "rows" in obj:
        return _csv(obj["rows"], columns, "," if args.format == "csv" else "  ")
    row = {key: " ".join(map(str, value)) if isinstance(value, list) else value
           for key, value in obj.items() if key not in skip}
    if args.format == "csv":
        return _csv([row], list(row))
    return "".join(f"{key}: {_csv_escape(value)}\n" for key, value in row.items())


# ---------------------------------------------------------------------------
# subcommand implementations: each returns (payload_text, ok); ok False
# means a checked property failed
# ---------------------------------------------------------------------------

def _cmd_bounds(args) -> tuple[str, bool]:
    n_lo, n_hi = _parse_range(args.n)
    require_int_in("the low end of --n", n_lo, 1)
    r_lo, r_hi = (1, None) if args.r is None else _parse_range(args.r)
    require_int_in("the low end of --r", r_lo, 1)
    rows = []
    for n in range(n_lo, n_hi + 1):
        # a high end above 2n is clipped per n; the default stops at 2n-1
        for r in range(r_lo, (2 * n - 1 if r_hi is None else min(2 * n, r_hi)) + 1):
            bound = matching_star_bound(n, r)
            star_size = None
            match = None
            if 2 * n <= _STAR_ENUM_WIDTH:
                star_size = len(enumerate_family(n, r, "union").star(2 * n))
                match = star_size == bound.value
            rows.append({"n": n, "r": r, "branch": bound.branch,
                         "bound": bound.value, "star_size": star_size,
                         "match": match})
    columns = ["n", "r", "branch", "bound", "star_size", "match"]
    obj = {"schema_version": SCHEMA_VERSION, "rows": rows}
    return (_render(args, obj, columns),
            all(row["match"] is not False for row in rows))


def _cmd_enumerate(args) -> tuple[str, bool]:
    fam = enumerate_family(args.n, args.r, args.kind)
    if args.format == "json":
        payload = _json(fam.to_json_obj())
    else:
        # text and csv coincide: one set per line, comma-separated labels
        payload = fam.to_text()
    return payload, True


def _cmd_verify(args) -> tuple[str, bool]:
    mode = "all_maximum" if args.all_maximum else "max_size_only"
    if args.check_stars and not args.all_maximum:
        raise ParameterError("--check-stars requires --all-maximum")
    report = verify_extremal_characterization(args.n, args.r, args.k, mode=mode)
    return (_render(args, report.to_json_obj(), skip=("witnesses",)),
            report.ok if args.check_stars else report.bound_met)


def _cmd_circle(args) -> tuple[str, bool]:
    n, r = args.n, args.r
    # an action given a flag it does not read is malformed input
    if args.k is not None and args.action != "saturate":
        raise ParameterError(f"{args.action} takes no --k")
    takes_r = args.action in ("saturate", "construct")
    if (r is None) == takes_r:
        raise ParameterError(f"{args.action} {'needs' if takes_r else 'takes no'} --r")
    if args.action == "count":
        enumerated = enumerated_order_count(n)
        expected = good_order_count(n)
        obj = {"action": "count", "n": n, "enumerated": enumerated,
               "expected": expected, "ok": enumerated == expected}
    elif args.action == "moves":
        rep = connectivity_check(n)
        obj = {"action": "moves", "n": n, "connected": rep.connected,
               "orbit_size": rep.orbit_size, "expected": rep.expected,
               "ok": rep.connected}
    elif args.action == "saturate":
        k = args.k if args.k is not None else 2 * n + 1
        star = matching_universe(n, r).star(2 * n)
        statuses = saturation_sweep(n, star, k)
        total = len(statuses)
        saturated = sum(st.saturated and st.common_vertex == 2 * n for st in statuses)
        obj = {"action": "saturate", "n": n, "r": r, "k": k,
               "orders": total, "saturated": saturated,
               "ok": saturated == total}
    else:  # construct; argparse admits no other action
        star = matching_universe(n, r).star(2 * n)
        verified = 0
        for member in star.sets:
            # raises IntegrityError unless member is an interval of the order
            construct_order_containing(n, r, member)
            verified += 1
        obj = {"action": "construct", "n": n, "r": r,
               "star_size": len(star), "verified": verified,
               "ok": verified == len(star)}

    return _render(args, {"schema_version": SCHEMA_VERSION, **obj}), obj["ok"]


_FUZZ_ALIASES = {"1": "assignment", "2": "common-index"}


def _cmd_fuzz(args) -> tuple[str, bool]:
    target = _FUZZ_ALIASES.get(args.target, args.target)
    summary = fuzz.run_fuzz(target, args.trials, args.seed)
    # violations are report content, not process errors
    return _render(args, summary.to_json_obj(), skip=("violations",)), True


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "text"),
                        default="text")
    common.add_argument("--output", default=None, help="write to file instead of stdout")

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
    p.add_argument("--target", choices=(*fuzz.TARGETS, *_FUZZ_ALIASES),
                   required=True, help="1 is an alias for assignment, "
                                       "2 for common-index")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the random draws (default 0)")
    p.set_defaults(func=_cmd_fuzz)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser ``main`` uses in this process.

    Each subcommand's ``func`` is bound when the parser is first built;
    a fresh tree comes from :func:`build_parser`.
    """
    return build_parser()


def _emit(payload: str, out) -> None:
    if payload and not payload.endswith("\n"):
        payload += "\n"
    out.write(payload)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    code = 0
    try:
        if args.output:
            with open(args.output, "w") as out:
                payload, code = _run(args)
                _emit(payload, out)
        else:
            payload, code = _run(args)
            _emit(payload, sys.stdout)
            sys.stdout.flush()
        return code
    except OSError as exc:  # on opening, writing or the flush as it closes
        if args.output:
            # the output file cannot take the diagnostic, so stdout does
            diagnostic, failed = _error(args, ParameterError(f"cannot write --output: {exc}"))
            _emit(diagnostic, sys.stdout)
        else:
            # point the stream at the null device, or the interpreter's
            # last flush of what it still holds fails again as it exits
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
            _, failed = _error(args, ParameterError(f"cannot write standard output: {exc}"))
        return code if code > 1 else failed  # a package error's code wins


def _run(args) -> tuple[str, int]:
    """The command's output and exit code; a package error's output is
    its diagnostic (see :func:`_error`)."""
    try:
        payload, ok = args.func(args)
    except MatchwiseError as exc:
        return _error(args, exc)
    return payload, 0 if ok else 1


def _error(args, exc: MatchwiseError) -> tuple[str, int]:
    """Report a package error on standard error; return its JSON
    diagnostic (empty unless the format is json) and its exit code."""
    kind, code = _ERRORS[type(exc)]
    print(f"matchwise: {kind} error: {exc}", file=sys.stderr)
    if args.format != "json":
        return "", code
    return _json({"schema_version": SCHEMA_VERSION,
                  "error": {"type": kind, "message": str(exc)}}) + "\n", code


if __name__ == "__main__":
    sys.exit(main())
