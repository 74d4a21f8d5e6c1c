"""Tests of the benchmark harness itself: python3 -m pytest bench -q"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import spans
import workloads


@pytest.fixture(scope="module")
def pkg():
    sys.path.insert(0, str(run.SRC))
    return run.load_package()


def small_ops(pkg, seed=0):
    """A few cheap characterize operations: CLI and library, full and sub."""
    keep = ("verify n=3 r=3 k=3", "verify n=3 r=4 k=4",
            f"sub n=5 r=6 k=3 seed={seed} #0")
    return [op for op in workloads.characterize(pkg, seed) if op.name in keep]


def corrupt(op, mutate):
    op.run = (lambda inner: lambda: mutate(inner()))(op.run)


def ok_ratio(evaluator):
    return 1.0 - evaluator.failed / evaluator.attempted


def test_clean_operations_pass(pkg):
    ops = small_ops(pkg)
    result = run.measure(pkg, ops, seconds=0, trace=False)
    assert result["evaluator"].failures == []
    assert ok_ratio(result["evaluator"]) == 1.0


def test_non_star_witness_is_a_failure(pkg):
    ops = small_ops(pkg)

    def swap_member(raw):
        code, text = raw
        obj = json.loads(text)
        sets = obj["witnesses"][0]["sets"]
        outside = next(s for s in ([1, 2, 3], [1, 2, 6], [4, 5, 3]) if s not in sets)
        sets[0] = outside
        return code, json.dumps(obj)
    corrupt(ops[0], swap_member)
    evaluator = run.measure(pkg, ops, seconds=0, trace=False)["evaluator"]
    assert evaluator.failed == 1 and ops[0].name in evaluator.failures[0]
    assert ok_ratio(evaluator) < 1.0


def test_wrong_max_size_is_a_failure(pkg):
    ops = small_ops(pkg)

    def bump(raw):
        code, text = raw
        obj = json.loads(text)
        obj["max_size"] += 1
        return code, json.dumps(obj)
    corrupt(ops[0], bump)
    corrupt(ops[-1], lambda res: dataclasses.replace(res, max_size=res.max_size + 1))
    evaluator = run.measure(pkg, ops, seconds=0, trace=False)["evaluator"]
    assert evaluator.failed == 2 and "max_size" in evaluator.failures[0]


def test_nonzero_exit_and_exceptions_are_failures(pkg):
    ops = small_ops(pkg)
    corrupt(ops[0], lambda raw: (1, raw[1]))

    def boom(_):
        raise RuntimeError("boom")
    corrupt(ops[1], boom)
    evaluator = run.measure(pkg, ops, seconds=0, trace=False)["evaluator"]
    assert evaluator.failed == 2


def test_recorded_digest_mismatch_is_a_failure(pkg, tmp_path, monkeypatch):
    ops = small_ops(pkg)
    evaluator = run.measure(pkg, ops, seconds=0, trace=False)["evaluator"]
    fixed = run.group_digest(ops, evaluator.first, seeded=False)
    path = tmp_path / "digests.json"
    path.write_text(json.dumps({"characterize": {
        "fixed": fixed, "seeded": {"0": "0" * 16}}}))
    monkeypatch.setattr(run, "DIGESTS", path)
    result = run.compare_digests("characterize", 0, ops, evaluator)
    assert result["fixed"]["status"] == "match"
    assert result["seeded"]["status"] == "MISMATCH"
    assert evaluator.failed == 1
    assert run.compare_digests("characterize", 1, ops, evaluator)["seeded"]["status"] == "unrecorded"


def test_digests_exclude_volatile_fields(pkg):
    op = small_ops(pkg)[0]
    code, text = op.run()
    obj = json.loads(text)
    obj["explored_nodes"] += 1
    obj["elapsed_ms"] += 1.0
    assert run.digest_of(op.answer((code, text))) == \
        run.digest_of(op.answer((code, json.dumps(obj))))


def test_trace_counts_and_restores(pkg):
    ops = small_ops(pkg)
    original = pkg.search.max_kwise_family
    result = run.measure(pkg, ops, seconds=0, trace=True)
    assert pkg.search.max_kwise_family is original
    assert pkg.cli.main.__module__ == "matchwise.cli"
    layer = result["layer_passes"][0]
    assert layer["cli.main.calls"] == 2
    assert layer["search.nodes"] > 0
    assert layer["families.kwise_witness.calls"] >= layer["search.witnesses"] > 0
    assert layer["cli.output_bytes"] > 0
    assert layer["orders.saturation.calls"] == 0
    names = {s[1] for s in result["spans"]}
    assert {"cli.main", "search.max_kwise_family"} <= names
    assert all(value is not None for value in layer.values())


def test_renamed_function_reads_null_with_note(pkg, monkeypatch):
    monkeypatch.delattr(pkg.search, "apply_permutation")
    ops = [op for op in small_ops(pkg) if op.name.startswith("sub")]
    result = run.measure(pkg, ops, seconds=0, trace=True)
    metrics = spans.combine(result["layer_passes"], result["tracer"].notes)
    entry = metrics["search.apply_permutation.calls"]
    assert entry["value"] is None and "apply_permutation" in entry["note"]
    assert metrics["search.nodes"]["value"] > 0


def test_renamed_result_field_reads_null_with_note(pkg):
    tracer = spans.Tracer(pkg, observers={
        "search.max_kwise_family": lambda res: {"search.nodes": res.renamed_nodes}})
    run.run_pass(small_ops(pkg)[-1:], tracer)
    values = spans.read_pass(tracer)
    assert values["search.nodes"] is None
    assert "renamed_nodes" in tracer.notes["search.nodes"]


def test_checks_match_definitions():
    assert len(checks.union_family(4, 5)) == 32
    assert checks.star_bound(4, 5) == 20
    fam = checks.union_family(3, 3)
    star = [m for m in fam if m & 1]
    assert checks.is_kwise(star, 3)
    assert not checks.is_kwise(fam, 2)
    assert checks.good_order_count(6) == 3840


def test_exits_nonzero_without_the_package(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in Path(run.HERE).glob("*.py"):
        shutil.copy(path, bench / path.name)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "maxsize",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
