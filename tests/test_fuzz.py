import dataclasses

import pytest

import matchwise.fuzz
from matchwise import (IntervalFamily, ParameterError, UniformFamily, fuzz_assignment,
                       fuzz_common_index, run_fuzz)


def test_assignment_fuzz_finds_no_violations():
    summary = fuzz_assignment(trials=2000, seed=0)
    assert summary.ok
    assert summary.trials == 2000
    assert summary.conforming + summary.nonconforming == 2000
    assert summary.conforming > 500
    assert summary.bounded + summary.covering == 2000


def test_materialized_arcs_are_their_masks():
    for size in range(2, 25):
        for r in range(1, size):
            fam = IntervalFamily(size, r, tuple(range(1, size + 1)))
            assert matchwise.fuzz._materialize(fam) == UniformFamily.from_masks(
                size, r, (fam.mask(s) for s in fam.starts))


def _outside_rotation(fam, members):
    """The members turned by the first rotation that moves one out of the
    family; turned arcs still share no position.  None if every turn stays in."""
    for t in range(1, fam.size):
        turned = tuple((s + t - 1) % fam.size + 1 for s in members)
        if not set(fam.starts).issuperset(turned):
            return turned
    return None


SHARING = "witness is not family arcs sharing no position"


@pytest.mark.parametrize("forge, note", [
    (_outside_rotation, SHARING),                                   # a member not in the family
    (lambda fam, members: (members[0],) * len(members), SHARING),   # arcs sharing a position
    (lambda fam, members: (*members, members[-1]),                  # a member listed twice
     "witness does not list at most k distinct members"),
], ids=["member-outside-family", "members-share-a-position", "members-repeat"])
def test_assignment_fuzz_rejects_forged_witnesses(monkeypatch, forge, note):
    real = matchwise.fuzz.assign_indices
    forged = []

    def assign_indices(fam, k):
        report = real(fam, k)
        members = None if report.bounded else forge(fam, report.witness_members)
        if members is None:
            return report
        forged.append(fam.starts)
        return dataclasses.replace(report, witness_members=members)

    monkeypatch.setattr(matchwise.fuzz, "assign_indices", assign_indices)
    summary = fuzz_assignment(trials=300, seed=0)
    assert len(forged) > 50
    assert [v["starts"] for v in summary.violations] == [list(s) for s in forged]
    assert {v["note"] for v in summary.violations} == {note}


def test_common_index_fuzz_finds_no_violations():
    summary = fuzz_common_index(trials=1000, seed=0)
    assert summary.ok
    assert summary.conforming == 1000
    # perturbed variants are mostly rejected with integrity errors
    assert summary.integrity_rejections > 0


def test_fuzz_is_seed_deterministic():
    a = run_fuzz("assignment", 300, seed=7)
    b = run_fuzz("assignment", 300, seed=7)
    assert a == b
    c = run_fuzz("assignment", 300, seed=8)
    assert c != a


def test_single_trial_reproducible():
    a = run_fuzz("assignment", 1, seed=7)
    b = run_fuzz("assignment", 1, seed=7)
    assert a.to_json_obj() == b.to_json_obj()


def test_run_fuzz_validation():
    with pytest.raises(ParameterError):
        run_fuzz("assignment", 0)
    with pytest.raises(ParameterError):
        run_fuzz("nonsense", 10)


@pytest.mark.parametrize("fuzz", [fuzz_assignment, fuzz_common_index])
@pytest.mark.parametrize("trials", [0, -1])
def test_fuzz_needs_positive_trials(fuzz, trials):
    with pytest.raises(ParameterError, match="must be positive"):
        fuzz(trials)


@pytest.mark.parametrize("fuzz", [fuzz_assignment, fuzz_common_index])
@pytest.mark.parametrize("trials, seed", [(2.5, 0), (10, None), (10, 1.5), (10, "7")])
def test_fuzz_needs_int_trials_and_seed(fuzz, trials, seed):
    # a seed of None would draw from the OS and break reproducibility
    with pytest.raises(ParameterError, match="must be an int"):
        fuzz(trials, seed)


def test_summary_json_shape():
    obj = run_fuzz("common-index", 50, seed=1).to_json_obj()
    for field in ("schema_version", "target", "trials", "seed", "conforming",
                  "violation_count", "violations"):
        assert field in obj
    assert obj["violation_count"] == 0
