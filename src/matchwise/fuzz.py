"""Seeded randomized checking of the arc-family procedures.

Instances are drawn from a ``random.Random(seed)`` stream and nothing
else, so a (target, trials, seed) triple reproduces the exact same
sequence bit for bit.  Violations carry the full instance, ready to be
replayed.

Two targets:

* "assignment": random arc families within the k*r <= (k-1)*N regime.
  Conforming instances (k-wise intersecting, verified by the
  definition-level checker) must come out bounded with at most r
  members; whenever a covering witness is emitted, its members are
  re-checked to be at most k distinct arcs of the family that share no
  position.  Half the draws are biased through a common position so
  conforming instances are plentiful.  Each trial builds and validates
  its arc family once, and the k-wise oracle and the witness check
  build their arc masks with one helper, ``arcs._arc_masks`` (the r-bit
  block rotated to each start); the oracle runs the k-wise scan of
  ``families`` on those masks directly.

* "common-index": full through-one-position families (always
  conforming) must yield exactly that position; a perturbed variant
  swaps one arc out, which must either be rejected with an integrity
  error or still be the full family through some other position.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .arcs import (IntervalFamily, _arc_masks, _starts_through, assign_indices,
                   common_index)
from .errors import IntegrityError, ParameterError, require_int_in
from .families import _kwise_witness
from .schema import SCHEMA_VERSION

@dataclass(frozen=True)
class FuzzSummary:
    target: str
    trials: int
    seed: int
    conforming: int
    nonconforming: int
    bounded: int
    covering: int
    integrity_rejections: int
    violations: tuple[dict, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_obj(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "target": self.target,
            "trials": self.trials,
            "seed": self.seed,
            "conforming": self.conforming,
            "nonconforming": self.nonconforming,
            "bounded": self.bounded,
            "covering": self.covering,
            "integrity_rejections": self.integrity_rejections,
            "violation_count": len(self.violations),
            "violations": list(self.violations),
        }


def _instance(trial: int, fam: IntervalFamily, k: int, note: str) -> dict:
    return {"trial": trial, "N": fam.size, "r": fam.length, "k": k,
            "starts": list(fam.starts), "note": note}


def _require_run(trials: int, seed: int) -> None:
    """A fuzz run needs a positive int trial count and a nonnegative int seed."""
    require_int_in("trials", trials, 1)
    # None would seed from the OS, and random.Random seeds with abs(seed),
    # so -s would replay s
    require_int_in("seed", seed, 0)


def fuzz_assignment(trials: int, seed: int = 0) -> FuzzSummary:
    """Drive the end-index assignment on random admissible instances."""
    _require_run(trials, seed)
    rng = random.Random(seed)
    conforming = nonconforming = bounded = covering = 0
    violations: list[dict] = []

    for trial in range(trials):
        k = rng.randint(2, 5)
        size = rng.randint(3, 24)
        r_max = ((k - 1) * size) // k
        length = rng.randint(1, r_max)
        if rng.random() < 0.5:
            through = _starts_through(size, length, rng.randint(1, size))
            m = rng.randint(1, min(length, 8))
            starts = rng.sample(through, m)
        else:
            m = rng.randint(1, min(size, 9))
            starts = rng.sample(range(1, size + 1), m)
        starts.sort()               # sampled starts never repeat
        fam = IntervalFamily(size, length, tuple(starts))
        is_conforming = _kwise_witness(_arc_masks(size, length, starts), k) is None

        try:
            report = assign_indices(fam, k)
        except Exception as exc:  # no admissible instance may crash
            violations.append(_instance(trial, fam, k, f"raised {exc!r}"))
            continue

        is_bounded = report.outcome == "bounded"
        if is_conforming:
            conforming += 1
            if not is_bounded:
                violations.append(_instance(
                    trial, fam, k, "covering witness on a k-wise family"))
            elif len(starts) > length:
                violations.append(_instance(
                    trial, fam, k, f"bounded but |family|={len(starts)} > r"))
        else:
            nonconforming += 1
        if is_bounded:
            bounded += 1
        else:
            covering += 1
            members = report.witness_members
            common = -1         # nonzero unless the members are family arcs sharing none
            if set(starts).issuperset(members):
                for mask in _arc_masks(size, length, members):
                    common &= mask
            if common:
                violations.append(_instance(
                    trial, fam, k, "witness is not family arcs sharing no position"))
            elif len(set(members)) != len(members) or len(members) > k:
                violations.append(_instance(
                    trial, fam, k, "witness does not list at most k distinct members"))

    return FuzzSummary("assignment", trials, seed, conforming, nonconforming,
                       bounded, covering, 0, tuple(violations))


def fuzz_common_index(trials: int, seed: int = 0) -> FuzzSummary:
    """Drive common-index extraction on star families and perturbations."""
    _require_run(trials, seed)
    rng = random.Random(seed)
    conforming = nonconforming = rejections = 0
    violations: list[dict] = []

    for trial in range(trials):
        k = rng.randint(2, 5)
        size = rng.randint(4, 24)
        r_max = ((k - 1) * size - 1) // k
        length = rng.randint(1, r_max)
        x = rng.randint(1, size)
        star_starts = _starts_through(size, length, x)
        fam = IntervalFamily(size, length, star_starts)
        conforming += 1
        try:
            got = common_index(fam, k)
        except Exception as exc:
            violations.append(_instance(trial, fam, k, f"raised {exc!r}"))
            continue
        if got != x:
            violations.append(_instance(
                trial, fam, k, f"returned {got}, expected {x}"))

        if length == size - 1 or trial % 2:
            continue
        # perturb: swap one arc for an outside one; must be rejected
        # unless the result is again the full family through some point
        out = rng.choice(star_starts)
        inside = set(star_starts)
        extra = rng.choice([s for s in range(1, size + 1) if s not in inside])
        perturbed = IntervalFamily(
            size, length, tuple(sorted([s for s in star_starts if s != out] + [extra])))
        nonconforming += 1
        try:
            p = common_index(perturbed, k)
        except IntegrityError:
            rejections += 1
            continue
        except Exception as exc:
            violations.append(_instance(trial, perturbed, k, f"raised {exc!r}"))
            continue
        if perturbed.starts != _starts_through(size, length, p):
            violations.append(_instance(
                trial, perturbed, k,
                f"accepted a family that is not the full family through {p}"))

    return FuzzSummary("common-index", trials, seed, conforming, nonconforming,
                       0, 0, rejections, tuple(violations))


# target name -> fuzzer, in the order the CLI lists them
TARGETS = {"assignment": fuzz_assignment, "common-index": fuzz_common_index}


def run_fuzz(target: str, trials: int, seed: int = 0) -> FuzzSummary:
    try:
        fuzzer = TARGETS[target]
    except (KeyError, TypeError):  # TypeError: an unhashable target
        raise ParameterError(f"unknown fuzz target {target!r}") from None
    return fuzzer(trials, seed)
