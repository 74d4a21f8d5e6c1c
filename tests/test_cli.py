import csv
import dataclasses
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from matchwise import UniformFamily, cli, enumerate_family
from matchwise.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_bounds_row(capsys):
    code, out = run_cli(capsys, "bounds", "--n", "4", "--r", "5", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,r,branch,bound,star_size,match"
    assert lines[1] == "4,5,r_gt_n,20,20,true"


def test_bounds_default_range_all_match(capsys):
    code, out = run_cli(capsys, "bounds", "--n", "1:4", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["schema_version"] == "1"
    assert all(row["match"] for row in obj["rows"])


def test_bounds_skips_star_enumeration_beyond_width(capsys):
    code, out = run_cli(capsys, "bounds", "--n", "9", "--r", "10",
                        "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["bound"] > 0
    assert row["star_size"] is None and row["match"] is None


def test_enumerate_text_and_json(capsys):
    code, out = run_cli(capsys, "enumerate", "--n", "3", "--r", "3")
    assert code == 0
    assert out.splitlines()[0] == "1,2,3"
    assert len(out.strip().splitlines()) == 8
    code, out = run_cli(capsys, "enumerate", "--n", "3", "--r", "3",
                        "--format", "json")
    obj = json.loads(out)
    assert obj["n"] == 3 and obj["r"] == 3 and len(obj["sets"]) == 8
    # both forms read back bit-exactly through the set-list constructor
    for n in range(1, 5):
        for r in range(1, 2 * n + 1):
            for kind in ("independent", "max_containing", "union"):
                fam = enumerate_family(n, r, kind)
                argv = ["enumerate", "--n", str(n), "--r", str(r), "--kind", kind]
                code, out = run_cli(capsys, *argv)
                assert code == 0
                sets = [[int(v) for v in line.split(",")] for line in out.splitlines()]
                assert UniformFamily.from_vertex_sets(2 * n, r, sets) == fam
                code, out = run_cli(capsys, *argv, "--format", "json")
                obj = json.loads(out)
                assert code == 0 and (obj["n"], obj["r"]) == (n, r)
                assert UniformFamily.from_vertex_sets(2 * n, r, obj["sets"]) == fam


def test_verify_success(capsys):
    code, out = run_cli(capsys, "verify", "--n", "3", "--r", "3", "--k", "3",
                        "--all-maximum", "--check-stars", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["max_size"] == 4 and obj["bound_met"] is True
    assert obj["witness_count"] == 6 and obj["all_are_stars"] is True
    assert len(obj["witnesses"]) == 6


def test_verify_boundary_flagged(capsys):
    code, out = run_cli(capsys, "verify", "--n", "3", "--r", "4", "--k", "3",
                        "--all-maximum", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["uniqueness"] == "boundary: not asserted"


@pytest.mark.parametrize("r, boundary", [(3, False), (4, True)])
def test_verify_max_size_only_uniqueness(capsys, r, boundary):
    argv = ["verify", "--n", "3", "--r", str(r), "--k", "3"]
    code, out = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["boundary"] is boundary
    assert obj["uniqueness"] == "max_size_only: not asserted"
    code, out = run_cli(capsys, *argv, "--format", "text")
    assert code == 0
    assert "uniqueness: max_size_only: not asserted\n" in out


def test_verify_json_deterministic_modulo_counters(capsys):
    argv = ["verify", "--n", "3", "--r", "3", "--k", "3", "--all-maximum",
            "--format", "json"]
    _, first = run_cli(capsys, *argv)
    _, second = run_cli(capsys, *argv)
    a, b = json.loads(first), json.loads(second)
    for volatile in ("elapsed_ms", "explored_nodes"):
        a.pop(volatile), b.pop(volatile)
    assert a == b


@pytest.mark.parametrize("change, check_stars, code", [
    ({}, True, 0),
    ({"all_are_stars": False}, False, 0),
    ({"all_are_stars": False}, True, 1),
    ({"bound_met": False}, False, 1),
])
def test_verify_exit_status(monkeypatch, capsys, change, check_stars, code):
    real = cli.verify_extremal_characterization
    monkeypatch.setattr(cli, "verify_extremal_characterization",
                        lambda *a, **kw: dataclasses.replace(real(*a, **kw), **change))
    argv = ["verify", "--n", "3", "--r", "3", "--k", "3", "--all-maximum"]
    assert run_cli(capsys, *argv, *["--check-stars"] * check_stars)[0] == code


@pytest.mark.parametrize("argv, k", [
    (["verify", "--n", "3", "--r", "4", "--all-maximum"], 14),  # 12 members + 2
    (["circle", "--n", "3", "--r", "3", "--action", "saturate"], 5),  # r + 2
])
def test_huge_k_answers_as_the_clamped_k(capsys, argv, k):
    # past the clamp a larger arity changes no branch of the search and no
    # class of the index assignment, so only k itself differs
    outs = []
    for value in (k, 10**12):
        code, out = run_cli(capsys, *argv, "--k", str(value), "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj.pop("k") == value
        obj.pop("elapsed_ms", None)
        outs.append(obj)
    assert outs[0] == outs[1]


def test_circle_actions(capsys):
    code, out = run_cli(capsys, "circle", "--n", "3", "--action", "count",
                        "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["enumerated"] == obj["expected"] == 8
    code, out = run_cli(capsys, "circle", "--n", "4", "--action", "moves",
                        "--format", "json")
    assert code == 0 and json.loads(out)["orbit_size"] == 48
    code, out = run_cli(capsys, "circle", "--n", "4", "--r", "5", "--k", "3",
                        "--action", "saturate", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["saturated"] == obj["orders"] == 48
    code, out = run_cli(capsys, "circle", "--n", "3", "--r", "4",
                        "--action", "construct", "--format", "json")
    assert code == 0 and json.loads(out)["verified"] == 8


def _circle_grid():
    for n in range(1, 5):
        for r in range(1, 2 * n + 1):
            for k in (None, 2, 3, 5):
                yield (["circle", "--n", str(n), "--r", str(r), "--action", "saturate"]
                       + ([] if k is None else ["--k", str(k)]))
    for n in range(1, 7):
        yield ["circle", "--n", str(n), "--action", "moves"]
    for n in range(1, 6):
        for r in range(n, 2 * n + 1):
            yield ["circle", "--n", str(n), "--r", str(r), "--action", "construct"]


# sha256 of every grid invocation's argv, exit code and JSON output: a
# change to any circle answer, message or exit code on the grid shows here
CIRCLE_GRID_SHA256 = "7fb0a65c766baf10b0dba787d486ee4cc657c56aeefcfa4ee0384500b04c7e24"


def test_circle_json_output_is_pinned(capsys):
    digest = hashlib.sha256()
    for argv in _circle_grid():
        code, out = run_cli(capsys, *argv, "--format", "json")
        digest.update(f"{' '.join(argv)}\n{code}\n{out}".encode())
    assert digest.hexdigest() == CIRCLE_GRID_SHA256


def test_moves_reach_every_order_at_n7(capsys):
    code, out = run_cli(capsys, "circle", "--n", "7", "--action", "moves",
                        "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["connected"] and obj["orbit_size"] == obj["expected"] == 46080


def test_fuzz_deterministic_bytes(capsys):
    argv = ["fuzz", "--target", "assignment", "--trials", "200",
            "--seed", "7", "--format", "json"]
    _, first = run_cli(capsys, *argv)
    _, second = run_cli(capsys, *argv)
    assert first == second
    obj = json.loads(first)
    assert obj["violation_count"] == 0


def test_fuzz_numeric_aliases(capsys):
    _, via_alias = run_cli(capsys, "fuzz", "--target", "2", "--trials", "50",
                           "--format", "json")
    _, direct = run_cli(capsys, "fuzz", "--target", "common-index",
                        "--trials", "50", "--format", "json")
    assert via_alias == direct


def test_exit_codes(capsys):
    code, _ = run_cli(capsys, "verify", "--n", "3", "--r", "9", "--k", "3")
    assert code == 2                                        # parameter
    code, _ = run_cli(capsys, "verify", "--n", "5", "--r", "5", "--k", "3")
    assert code == 3                                        # capacity
    code, _ = run_cli(capsys, "enumerate", "--n", "3", "--r", "0")
    assert code == 2


def test_error_diagnostic_json(capsys):
    code, out = run_cli(capsys, "verify", "--n", "5", "--r", "5", "--k", "3",
                        "--format", "json")
    assert code == 3
    obj = json.loads(out)
    assert obj["error"]["type"] == "capacity"


# (arguments, exit code, diagnostic type) for input that argparse accepts
# but the subcommand rejects
MALFORMED = [
    (["bounds", "--n", "a"], 2, "parameter"),
    (["bounds", "--n", "3:1"], 2, "parameter"),
    (["bounds", "--n", "2", "--r", "x"], 2, "parameter"),
    (["bounds", "--n", "2:"], 2, "parameter"),
    (["bounds", "--n", "40"], 3, "capacity"),
    (["enumerate", "--n", "3", "--r", "0"], 2, "parameter"),
    (["enumerate", "--n", "0", "--r", "1"], 2, "parameter"),
    (["verify", "--n", "3", "--r", "9", "--k", "3"], 2, "parameter"),
    (["verify", "--n", "3", "--r", "3", "--k", "1"], 2, "parameter"),
    (["verify", "--n", "3", "--r", "5", "--k", "3"], 2, "parameter"),
    (["verify", "--n", "3", "--r", "3", "--k", "3", "--check-stars"], 2, "parameter"),
    (["verify", "--n", "5", "--r", "5", "--k", "3"], 3, "capacity"),
    (["circle", "--n", "3", "--action", "saturate"], 2, "parameter"),
    (["circle", "--n", "3", "--action", "construct"], 2, "parameter"),
    (["circle", "--n", "0", "--action", "count"], 2, "parameter"),
    (["circle", "--n", "3", "--r", "9", "--action", "construct"], 2, "parameter"),
    (["fuzz", "--target", "assignment", "--trials", "0"], 2, "parameter"),
    (["circle", "--n", "9", "--action", "count"], 3, "capacity"),
    (["circle", "--n", "8", "--action", "moves"], 3, "capacity"),
    (["enumerate", "--n", "20", "--r", "13"], 3, "capacity"),
    (["circle", "--n", "3", "--r", "3", "--k", "2", "--action", "saturate"],
     2, "parameter"),
    # malformed beats too big: verify checks its arguments before n <= 4
    (["verify", "--n", "5", "--r", "20", "--k", "3"], 2, "parameter"),
    (["verify", "--n", "5", "--r", "5", "--k", "1"], 2, "parameter"),
    (["verify", "--n", "5", "--r", "9", "--k", "3"], 2, "parameter"),
    (["bounds", "--n", "0"], 2, "parameter"),
    # a separate "-1:2" reads as a flag to argparse, so join it to --n
    (["bounds", "--n=-1:2"], 2, "parameter"),
    (["bounds", "--n", "3", "--r", "0:2"], 2, "parameter"),
    (["bounds", "--n", "3", "--r", "0"], 2, "parameter"),
    (["circle", "--n", "4", "--action", "saturate", "--r", "5", "--k", "1"],
     2, "parameter"),
    # only saturate reads --k, and only saturate and construct read --r
    (["circle", "--n", "3", "--action", "count", "--k", "1"], 2, "parameter"),
    (["circle", "--n", "3", "--action", "moves", "--k", "3"], 2, "parameter"),
    (["circle", "--n", "3", "--r", "3", "--action", "construct", "--k", "3"],
     2, "parameter"),
    (["circle", "--n", "3", "--action", "count", "--r", "3"], 2, "parameter"),
    (["circle", "--n", "3", "--action", "moves", "--r", "99"], 2, "parameter"),
    # a negative seed would replay its absolute value's run
    (["fuzz", "--target", "assignment", "--seed", "-1"], 2, "parameter"),
]

# input that argparse itself rejects: exit 2 before a format is known
UNPARSABLE = [
    ["bounds"],
    ["enumerate", "--n", "3", "--r", "x"],
    ["enumerate", "--n", "3", "--r", "3", "--kind", "covering"],
    ["verify", "--n", "a", "--r", "3", "--k", "3"],
    ["circle", "--n", "3", "--action", "spin"],
    ["fuzz", "--target", "3"],
    ["fuzz", "--target", "1", "--trials", "many"],
    ["fuzz", "--target", "1", "--seed", "x"],
    # only fuzz takes a seed
    ["verify", "--n", "3", "--r", "3", "--k", "3", "--seed", "0"],
]

# one small valid invocation per subcommand
VALID = [
    ["bounds", "--n", "2"],
    ["enumerate", "--n", "2", "--r", "2"],
    ["verify", "--n", "2", "--r", "2", "--k", "2"],
    ["circle", "--n", "2", "--action", "count"],
    ["fuzz", "--target", "assignment", "--trials", "5"],
]


@pytest.mark.parametrize("argv, code, kind", MALFORMED)
def test_malformed_arguments(capsys, argv, code, kind):
    got, out = run_cli(capsys, *argv, "--format", "json")
    assert got == code
    obj = json.loads(out)
    assert obj.keys() == {"schema_version", "error"}
    assert obj["schema_version"] == "1"
    assert obj["error"]["type"] == kind and obj["error"]["message"]
    got, out = run_cli(capsys, *argv)
    assert got == code and out == ""            # text: diagnostic on stderr only


@pytest.mark.parametrize("argv", UNPARSABLE)
def test_unparsable_arguments(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--format", "json"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", VALID)
def test_unwritable_output(tmp_path, capsys, argv):
    for target in (tmp_path / "missing" / "out.json", tmp_path):
        code, out = run_cli(capsys, *argv, "--format", "json",
                            "--output", str(target))
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "parameter" and "--output" in error["message"]
        code, out = run_cli(capsys, *argv, "--output", str(target))
        assert code == 2 and out == ""
    assert not (tmp_path / "missing").exists()


def test_error_diagnostic_goes_to_output_file(tmp_path, capsys):
    target = tmp_path / "err.json"
    code, out = run_cli(capsys, "verify", "--n", "3", "--r", "9", "--k", "3",
                        "--format", "json", "--output", str(target))
    assert code == 2 and out == ""
    assert json.loads(target.read_text())["error"]["type"] == "parameter"


def test_output_file(tmp_path, capsys):
    target = tmp_path / "fam.json"
    code, out = run_cli(capsys, "enumerate", "--n", "2", "--r", "2",
                        "--format", "json", "--output", str(target))
    assert code == 0 and out == ""
    obj = json.loads(target.read_text())
    assert obj["n"] == 2


def _full_stream(method: str, fd: int = -1) -> io.StringIO:
    """A stream on a full device whose ``method`` raises ENOSPC: a write at
    once, or the flush or close that passes on buffered text.  ``fd`` is
    the descriptor it reports."""
    def fail(*args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    return type("Full", (io.StringIO,), {method: fail, "fileno": lambda self: fd})()


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("method", ["write", "flush"])
def test_failed_stdout_write_exits_2(tmp_path, capsys, monkeypatch, method, fmt):
    with open(tmp_path / "stdout", "wb") as sink:
        monkeypatch.setattr(sys, "stdout", _full_stream(method, sink.fileno()))
        assert main(["bounds", "--n", "2", "--format", fmt]) == 2
        # the descriptor now leads to the null device, so the interpreter's
        # last flush of the text the stream still holds cannot fail again
        os.write(sink.fileno(), b"lost")
    assert (tmp_path / "stdout").read_bytes() == b""
    err = capsys.readouterr().err
    assert err.startswith("matchwise: parameter error: cannot write standard output: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("method", ["write", "flush"])  # unbuffered, buffered
def test_failed_diagnostic_write_keeps_the_package_error(tmp_path, capsys, monkeypatch,
                                                         method):
    # the capacity error is reported first and its exit code wins
    with open(tmp_path / "stdout", "wb") as sink:
        monkeypatch.setattr(sys, "stdout", _full_stream(method, sink.fileno()))
        assert main(["verify", "--n", "5", "--r", "5", "--k", "3", "--format", "json"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert err[0].startswith("matchwise: capacity error: ")
    assert err[1].startswith("matchwise: parameter error: cannot write standard output: ")


@pytest.mark.parametrize("method", ["write", "close"])
def test_failed_output_write_exits_2(capsys, monkeypatch, method):
    # the diagnostic is the one an --output file that cannot be opened gets
    monkeypatch.setattr(cli, "open", lambda *args: _full_stream(method), raising=False)
    code, out = run_cli(capsys, "bounds", "--n", "2", "--format", "json",
                        "--output", "out.json")
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "parameter"
    assert error["message"].startswith("cannot write --output: ")
    assert main(["bounds", "--n", "2", "--output", "out.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("matchwise: parameter error: cannot write --output: ")
    assert captured.err.count("\n") == 1
    # a package error's exit code wins over the failed write's
    assert main(["verify", "--n", "5", "--r", "5", "--k", "3", "--output", "out.json"]) == 3


VERIFY_COLUMNS = ("schema_version,n,r,k,mode,max_size,bound_expected,bound_met,"
                  "boundary,uniqueness,witness_count,all_are_stars,star_centers,"
                  "explored_nodes,elapsed_ms")

# (arguments, CSV header as SCHEMA.md lists it)
CSV_CONTRACT = [
    (["verify", "--n", "3", "--r", "3", "--k", "3", "--all-maximum"], VERIFY_COLUMNS),
    (["verify", "--n", "3", "--r", "4", "--k", "3", "--all-maximum"], VERIFY_COLUMNS),
    (["verify", "--n", "3", "--r", "3", "--k", "3"], VERIFY_COLUMNS),
    (["circle", "--n", "3", "--action", "count"],
     "schema_version,action,n,enumerated,expected,ok"),
    (["circle", "--n", "3", "--action", "moves"],
     "schema_version,action,n,connected,orbit_size,expected,ok"),
    (["circle", "--n", "4", "--r", "5", "--k", "3", "--action", "saturate"],
     "schema_version,action,n,r,k,orders,saturated,ok"),
    (["circle", "--n", "3", "--r", "4", "--action", "construct"],
     "schema_version,action,n,r,star_size,verified,ok"),
    (["fuzz", "--target", "assignment", "--trials", "50", "--seed", "3"],
     "schema_version,target,trials,seed,conforming,nonconforming,bounded,"
     "covering,integrity_rejections,violation_count"),
    (["bounds", "--n", "2", "--r", "5"], "n,r,branch,bound,star_size,match"),
]


def csv_cell(value) -> str:
    """SCHEMA.md's CSV encoding of one JSON value."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, list):
        return " ".join(str(v) for v in value)
    return str(value)


@pytest.mark.parametrize("argv, header", CSV_CONTRACT)
def test_csv_matches_json(capsys, argv, header):
    code, out = run_cli(capsys, *argv, "--format", "csv")
    json_code, blob = run_cli(capsys, *argv, "--format", "json")
    assert code == json_code == 0
    assert out.splitlines()[0] == header
    obj = json.loads(blob)
    rows = obj["rows"] if "rows" in obj else [obj]
    records = list(csv.DictReader(io.StringIO(out)))
    assert len(records) == len(rows)
    for record, row in zip(records, rows):
        for column, cell in record.items():
            if column != "elapsed_ms":
                assert cell == csv_cell(row[column]), column


# a bounds table with rows, the n = 9 ones with empty star cells
@pytest.mark.parametrize("argv, header", CSV_CONTRACT + [
    (["bounds", "--n", "8:9", "--r", "15:16"], "n,r,branch,bound,star_size,match")])
def test_text_matches_csv(capsys, argv, header):
    # text lays out the CSV cells: a table two spaces apart for bounds,
    # one "key: value" line per column for every other command
    code, out = run_cli(capsys, *argv, "--format", "text")
    csv_code, blob = run_cli(capsys, *argv, "--format", "csv")
    assert code == csv_code == 0 and out.endswith("\n")
    records = list(csv.reader(io.StringIO(blob)))
    if argv[0] == "bounds":
        assert records[0] == header.split(",")
        assert [line.split("  ") for line in out.splitlines()] == records
        return
    lines = [line.split(": ", 1) for line in out.splitlines()]
    assert [key for key, _ in lines] == records[0] == header.split(",")
    for (key, value), cell in zip(lines, records[1]):
        if key != "elapsed_ms":
            assert value == cell, key


def test_csv_quotes_cells_that_need_it():
    # SCHEMA.md: a cell with a comma, a double quote or a newline is
    # quoted, inner quotes doubled; no command's output has such a cell
    rows = [{"a": "1,2", "b": 'say "hi"', "c": "two\nlines", "d": "plain"}]
    out = cli._csv(rows, ["a", "b", "c", "d"])
    assert out == 'a,b,c,d\n"1,2","say ""hi""","two\nlines",plain\n'
    assert list(csv.reader(io.StringIO(out))) == [
        ["a", "b", "c", "d"], ["1,2", 'say "hi"', "two\nlines", "plain"]]


def test_module_entry_point():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "matchwise", "circle", "--n", "2",
         "--action", "moves", "--format", "json"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["connected"] is True


# ---------------------------------------------------------------------------
# the JSON writer and the per-process parser
# ---------------------------------------------------------------------------

_json_scalars = (st.integers(-10**20, 10**20) | st.booleans() | st.none()
                 | st.floats(allow_nan=False) | st.text())
_json_values = st.recursive(
    _json_scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=20)


@given(_json_values)
def test_json_writer_matches_the_indented_dump(value):
    assert cli._json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    [], (), {}, [[]], {"a": {}}, [True, 1, False], [1, None], (1, 2),
    [1.5, 2], {"": 'say "hi"\nthere', "ключ": "naïve ☃"}, [[1, 2], [3]]])
def test_json_writer_edge_cases(value):
    assert cli._json(value) == json.dumps(value, indent=2)


# every --format json call above that prints JSON: payloads, then diagnostics
JSON_CALLS = (
    [argv for argv, _ in CSV_CONTRACT] + VALID + list(_circle_grid()) + [
        ["bounds", "--n", "1:4"], ["bounds", "--n", "9", "--r", "10"],
        ["enumerate", "--n", "3", "--r", "3"],
        ["verify", "--n", "3", "--r", "3", "--k", "3", "--all-maximum", "--check-stars"],
        ["verify", "--n", "3", "--r", "4", "--k", "3", "--all-maximum"],
        ["verify", "--n", "3", "--r", "4", "--k", "3"],
        ["verify", "--n", "3", "--r", "4", "--all-maximum", "--k", str(10**12)],
        ["circle", "--n", "4", "--action", "moves"],
        ["fuzz", "--target", "assignment", "--trials", "200", "--seed", "7"],
        ["fuzz", "--target", "2", "--trials", "50"],
    ] + [argv for argv, _, _ in MALFORMED])


def test_json_outputs_keep_the_indented_layout(tmp_path, capsys):
    # the last call's --output is a directory: its diagnostic goes to stdout
    for argv in [*JSON_CALLS, [*VALID[0], "--output", str(tmp_path)]]:
        _, out = run_cli(capsys, *argv, "--format", "json")
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv


def test_main_builds_one_parser(monkeypatch, capsys):
    calls = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or real())
    cli._parser.cache_clear()
    for argv in [*VALID, *VALID]:
        run_cli(capsys, *argv)
    assert len(calls) == 1
    assert real() is not real()  # build_parser still gives a fresh tree


def test_main_is_reentrant_after_errors(tmp_path, capsys):
    argv = ["circle", "--n", "4", "--r", "5", "--k", "3", "--action", "saturate",
            "--format", "json"]
    target = tmp_path / "out.json"

    def outputs():
        code, out = run_cli(capsys, *argv)
        file_code, file_out = run_cli(capsys, *argv, "--output", str(target))
        assert file_out == ""
        return code, out, file_code, target.read_text()

    cli._parser.cache_clear()
    first = outputs()
    assert first[0] == 0 and first[1] == first[3]
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "a", "--r", "3", "--k", "3", "--format", "json"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert outputs() == first
    assert run_cli(capsys, "verify", "--n", "5", "--r", "5", "--k", "3",
                   "--format", "json", "--output", str(target))[0] == 3
    assert outputs() == first
