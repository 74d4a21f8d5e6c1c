"""Families of equal-length arcs on a discrete circle.

The circle has positions 1..N; an arc of length r starting at x covers
x, x+1, ..., x+r-1 with wraparound, and ends at x+r-1.  This module is
independent of the matching layer: the circle size is called N
precisely so it never collides with the matching's edge count.

The central procedure, :func:`assign_indices`, is an executable
double-counting argument on the complements of the arcs (which are
arcs of length N-r).  After rotating the labels so one distinguished
complement ends at position N, every other complement is assigned the
index it ends at, the distinguished one absorbs the index block
[N, k(N-r)], and the index range [1, k(N-r)] is partitioned into
residue classes mod N-r.  Two mutually exclusive outcomes arise:

* every class keeps an unassigned index, which forces the family to
  have at most r members ("bounded"), or
* some class is fully assigned, in which case the k complements ending
  at that class's indices cover the whole circle, i.e. the k matching
  arcs have empty intersection ("covering_witness").

So a covering witness certifies that the family was not k-wise
intersecting, while the bounded outcome certifies the size cap.
:func:`common_index` sharpens the bounded outcome for families of size
exactly r: the unassigned indices must form one contiguous stretch,
and the family must consist of precisely the r arcs through a single
position, which is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .errors import IntegrityError, ParameterError


def wrap(p: int, size: int) -> int:
    """Map an integer onto the circle positions 1..size."""
    return (p - 1) % size + 1


@dataclass(frozen=True)
class IntervalFamily:
    """A duplicate-free set of arc start positions of one length."""

    size: int               # N, number of circle positions
    length: int             # r, arc length
    starts: tuple[int, ...]  # ascending start positions in 1..size

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ParameterError(f"circle needs at least 2 positions, got {self.size}")
        if not 1 <= self.length < self.size:
            raise ParameterError(
                f"arc length must satisfy 1 <= r < N, got r={self.length}, N={self.size}")
        prev = 0
        for s in self.starts:
            if not 1 <= s <= self.size:
                raise ParameterError(f"start {s} outside 1..{self.size}")
            if s <= prev:
                raise ParameterError("starts must be strictly ascending")
            prev = s

    @classmethod
    def from_starts(cls, size: int, length: int, starts) -> "IntervalFamily":
        return cls(size, length, tuple(sorted(set(starts))))

    def __len__(self) -> int:
        return len(self.starts)

    def positions(self, start: int) -> tuple[int, ...]:
        """The positions covered by the arc starting at ``start``."""
        return tuple(wrap(start + j, self.size) for j in range(self.length))

    def mask(self, start: int) -> int:
        """Bitmask of :meth:`positions`: an r-bit block rotated to ``start``."""
        n = self.size
        m = ((1 << self.length) - 1) << (start - 1) % n
        return (m | m >> n) & ((1 << n) - 1)

    def end(self, start: int) -> int:
        return wrap(start + self.length - 1, self.size)

    def starts_through(self, position: int) -> tuple[int, ...]:
        """Starts of all arcs of this length containing ``position``."""
        return tuple(sorted(wrap(position - j, self.size)
                            for j in range(self.length)))


@dataclass(frozen=True)
class AssignmentReport:
    """Outcome of the end-index assignment procedure.

    All index bookkeeping lives in the rotated labelling in which the
    distinguished complement ends at position N (equivalently, the
    distinguished member starts at 1); ``rotation`` records the shift
    that was applied to the input labels.  The witness, when present,
    is reported back in the input labelling.
    """

    size: int
    length: int
    k: int
    rotation: int
    normalized_starts: tuple[int, ...]
    assigned: Mapping[int, int]            # index -> normalized member start
    unassigned: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]   # residue classes mod size-length
    outcome: str                           # "bounded" | "covering_witness"
    witness_members: tuple[int, ...] | None = None        # original starts, k of them
    witness_complements: tuple[tuple[int, ...], ...] | None = None

    @property
    def bounded(self) -> bool:
        return self.outcome == "bounded"

    def to_json_obj(self) -> dict:
        obj = {
            "N": self.size,
            "r": self.length,
            "k": self.k,
            "outcome": self.outcome,
            "unassigned": list(self.unassigned),
        }
        if self.witness_complements is not None:
            obj["witness"] = [list(arc) for arc in self.witness_complements]
        return obj


def _complement_end(fam: IntervalFamily, start: int) -> int:
    # the complement of the arc starting at s is the arc of length N-r
    # beginning at s+r and ending at s-1
    return wrap(start - 1, fam.size)


def assign_indices(fam: IntervalFamily, k: int) -> AssignmentReport:
    """Run the end-index assignment on the complements of ``fam``.

    Preconditions: k >= 2, fam nonempty, and k*r <= (k-1)*N so the
    index range [1, k(N-r)] is long enough to hold the circle.  The
    distinguished complement is the one with the largest end position
    under the input labelling; any fixed choice works, a deterministic
    one keeps reports reproducible.
    """
    if k < 2:
        raise ParameterError(f"k must be at least 2, got {k}")
    if not fam.starts:
        raise ParameterError("the assignment procedure needs a nonempty family")
    n, r = fam.size, fam.length
    if k * r > (k - 1) * n:
        raise ParameterError(
            f"need k*r <= (k-1)*N for the index accounting, got k={k}, r={r}, N={n}")

    d = n - r                      # class modulus; complements have length d
    span = k * d                   # indices 1..span, span >= n
    g_start = max(fam.starts, key=lambda s: _complement_end(fam, s))
    rotation = n - _complement_end(fam, g_start)

    def normalize(p: int) -> int:
        return wrap(p + rotation, n)

    def denormalize(p: int) -> int:
        return wrap(p - rotation, n)

    normalized = tuple(sorted(normalize(s) for s in fam.starts))
    assigned: dict[int, int] = {}
    for s in normalized:
        if s == 1:
            continue                       # the distinguished member
        assigned[s - 1] = s                # its complement ends at s-1
    for x in range(n, span + 1):
        assigned[x] = 1

    classes = tuple(tuple(c + j * d for j in range(k)) for c in range(1, d + 1))
    unassigned = tuple(x for x in range(1, span + 1) if x not in assigned)

    full_class = next((cls for cls in classes
                       if all(x in assigned for x in cls)), None)
    if full_class is None:
        if len(fam) > r:
            raise IntegrityError(
                "every class has an unassigned index yet |family| > r; "
                "the index accounting is broken")
        return AssignmentReport(n, r, k, rotation, normalized,
                                MappingProxyType(assigned), unassigned,
                                classes, "bounded")

    # A fully assigned class: the complements ending at its indices
    # cover the circle.  Indices >= N all belong to the distinguished
    # complement, which ends at N.
    members = []
    complements = []
    covered = 0
    for x in full_class:
        end = x if x <= n - 1 else n
        comp_start = wrap(end - d + 1, n)
        arc = tuple(wrap(comp_start + j, n) for j in range(d))
        member_norm = wrap(end + 1, n)     # complement end e <-> member start e+1
        members.append(denormalize(member_norm))
        complements.append(tuple(denormalize(p) for p in arc))
        for p in arc:
            covered |= 1 << (p - 1)
    if covered != (1 << n) - 1:
        raise IntegrityError("covering witness fails to cover the circle")
    return AssignmentReport(n, r, k, rotation, normalized,
                            MappingProxyType(assigned), unassigned, classes,
                            "covering_witness", tuple(members),
                            tuple(complements))


def common_index(fam: IntervalFamily, k: int) -> int:
    """The position contained in all members of a size-r bounded family.

    Requires |fam| = r, k*r < (k-1)*N strictly, and a k-wise
    intersecting family.  Returns the unique position x such that the
    family is exactly the set of all length-r arcs through x, verifying
    both inclusions.  Any structural failure (covering witness, the
    unassigned indices not forming one contiguous stretch, or the
    family not matching the arcs through x) raises IntegrityError,
    which signals that the preconditions did not actually hold.
    """
    n, r = fam.size, fam.length
    if k < 2:
        raise ParameterError(f"k must be at least 2, got {k}")
    if k * r >= (k - 1) * n:
        raise ParameterError(
            f"common-index extraction needs k*r < (k-1)*N strictly, "
            f"got k={k}, r={r}, N={n}")
    if len(fam) != r:
        raise ParameterError(f"family has {len(fam)} arcs, expected exactly r={r}")

    report = assign_indices(fam, k)
    if not report.bounded:
        raise IntegrityError(
            "family produced a covering witness; it was not k-wise intersecting")

    u = report.unassigned
    d = n - r
    if len(u) != d:
        raise IntegrityError(
            f"expected exactly {d} unassigned indices, found {len(u)}")
    if u[-1] - u[0] != d - 1:
        raise IntegrityError(
            f"unassigned indices {u} do not form one contiguous stretch")
    x_norm = u[0]

    expected = tuple(sorted(wrap(x_norm - j, n) for j in range(r)))
    if expected != report.normalized_starts:
        raise IntegrityError(
            "family is not the set of all arcs through the candidate position")
    return wrap(x_norm - report.rotation, n)
