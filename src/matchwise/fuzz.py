"""Seeded randomized checking of the arc-family procedures.

Instances are drawn from a ``random.Random(seed)`` stream and nothing
else, so a (target, trials, seed) triple reproduces the exact same
sequence bit for bit.  Violations carry the full instance, ready to be
replayed.

Two targets:

* "assignment": random arc families within the k*r <= (k-1)*N regime.
  Conforming instances (k-wise intersecting, verified by the
  definition-level checker) must come out bounded with at most r
  members; whenever a covering witness is emitted, its k members are
  re-checked to be arcs of the family that share no position.  Half
  the draws are biased through a common position so conforming
  instances are plentiful.

* "common-index": full through-one-position families (always
  conforming) must yield exactly that position; a perturbed variant
  swaps one arc out, which must either be rejected with an integrity
  error or still be the full family through some other position.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .arcs import IntervalFamily, assign_indices, common_index
from .errors import IntegrityError, ParameterError, require_int
from .families import UniformFamily, is_k_wise_intersecting
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


def _materialize(fam: IntervalFamily) -> UniformFamily:
    return UniformFamily.from_masks(fam.size, fam.length,
                                    (fam.mask(s) for s in fam.starts))


def _instance(trial: int, fam: IntervalFamily, k: int, note: str) -> dict:
    return {"trial": trial, "N": fam.size, "r": fam.length, "k": k,
            "starts": list(fam.starts), "note": note}


def _require_run(trials: int, seed: int) -> None:
    """A fuzz run needs a positive int trial count and an int seed."""
    require_int("trials", trials)
    if trials < 1:
        raise ParameterError(f"trial count must be positive, got {trials}")
    require_int("seed", seed)  # None would seed from the OS


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
        probe = IntervalFamily(size, length, ())
        if rng.random() < 0.5:
            through = probe.starts_through(rng.randint(1, size))
            m = rng.randint(1, min(length, 8))
            starts = rng.sample(through, m)
        else:
            m = rng.randint(1, min(size, 9))
            starts = rng.sample(range(1, size + 1), m)
        fam = IntervalFamily.from_starts(size, length, starts)
        is_conforming = is_k_wise_intersecting(_materialize(fam), k)

        try:
            report = assign_indices(fam, k)
        except Exception as exc:  # no admissible instance may crash
            violations.append(_instance(trial, fam, k, f"raised {exc!r}"))
            continue

        if is_conforming:
            conforming += 1
            if not report.bounded:
                violations.append(_instance(
                    trial, fam, k, "covering witness on a k-wise family"))
            elif len(fam) > length:
                violations.append(_instance(
                    trial, fam, k, f"bounded but |family|={len(fam)} > r"))
        else:
            nonconforming += 1
        if report.bounded:
            bounded += 1
        else:
            covering += 1
            common = -1
            for s in report.witness_members:
                common &= fam.mask(s)
            if common or not set(fam.starts).issuperset(report.witness_members):
                violations.append(_instance(
                    trial, fam, k, "witness is not family arcs sharing no position"))
            if len(report.witness_members) != k:
                violations.append(_instance(
                    trial, fam, k, "witness does not list k members"))

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
        probe = IntervalFamily(size, length, ())
        x = rng.randint(1, size)
        star_starts = probe.starts_through(x)
        fam = IntervalFamily.from_starts(size, length, star_starts)
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
        extra = rng.choice([s for s in range(1, size + 1)
                            if s not in star_starts])
        perturbed = IntervalFamily.from_starts(
            size, length, [s for s in star_starts if s != out] + [extra])
        nonconforming += 1
        try:
            p = common_index(perturbed, k)
        except IntegrityError:
            rejections += 1
            continue
        except Exception as exc:
            violations.append(_instance(trial, perturbed, k, f"raised {exc!r}"))
            continue
        if set(perturbed.starts) != set(probe.starts_through(p)):
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
