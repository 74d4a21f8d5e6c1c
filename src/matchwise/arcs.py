"""Families of equal-length arcs on a discrete circle.

The circle has positions 1..N; an arc of length r starting at x covers
x, x+1, ..., x+r-1 with wraparound, and ends at x+r-1.  This module is
independent of the matching layer: the circle size is called N
precisely so it never collides with the matching's edge count.

The central procedure, :func:`assign_indices`, is an executable
double-counting argument on the complements of the arcs (which are
arcs of length N-r).  After rotating the labels so one distinguished
complement ends at position N, every other complement is assigned the
index it ends at and the distinguished one the block [N, k(N-r)].  So
the rotated start set, one bitset, says which indices are assigned;
both entry points share one kernel over it, holding O(N) state for any
k, and the report rebuilds the sorted starts and the unassigned indices
only when they are read.  The range [1, k(N-r)] falls into residue
classes mod N-r.  Two mutually exclusive outcomes arise:

* every class keeps an unassigned index, which forces the family to
  have at most r members ("bounded"), or
* some class is fully assigned, in which case the complements ending
  at that class's indices cover the whole circle, i.e. the matching
  arcs they complement have empty intersection ("covering_witness").
  Every index from N on names the distinguished complement, so these
  are at most min(k, N) distinct arcs.

So a covering witness certifies that the family was not k-wise
intersecting, while the bounded outcome certifies the size cap.  The
witness is held as its distinct members, checked to share no position;
their complements are rebuilt from them when read.
:func:`common_index` sharpens the bounded outcome for families of size
exactly r: the unassigned indices must form one contiguous stretch,
and the family must consist of precisely the r arcs through a single
position, which is returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IntegrityError, ParameterError, require_arity, require_int, require_type


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
        # bool is an int subclass, and a float would leak into every report
        if type(self.size) is not int or self.size < 2:
            raise ParameterError(f"circle needs an int N >= 2 positions, got {self.size!r}")
        if type(self.length) is not int or not 1 <= self.length < self.size:
            raise ParameterError(
                f"arc length must be an int 1 <= r < N, got r={self.length!r}, N={self.size}")
        if type(self.starts) is not tuple:
            raise ParameterError(f"starts must be a tuple, got {self.starts!r}")
        prev = 0
        for s in self.starts:
            if type(s) is not int or not 1 <= s <= self.size:
                raise ParameterError(f"start {s!r} is not an int in 1..{self.size}")
            if s <= prev:
                raise ParameterError("starts must be strictly ascending")
            prev = s

    @classmethod
    def from_starts(cls, size: int, length: int, starts) -> "IntervalFamily":
        try:
            starts = tuple(starts)
        except TypeError:
            raise ParameterError(f"starts must be iterable, got {starts!r}") from None
        for s in starts:  # before set() merges True into 1 or sorted() mixes types
            if type(s) is not int:
                raise ParameterError(f"start {s!r} is not an int")
        return cls(size, length, tuple(sorted(set(starts))))

    def __len__(self) -> int:
        return len(self.starts)

    def positions(self, start: int) -> tuple[int, ...]:
        """The positions covered by the arc starting at ``start``."""
        require_int("start", start)
        return tuple(wrap(start + j, self.size) for j in range(self.length))

    def mask(self, start: int) -> int:
        """Bitmask of :meth:`positions`: an r-bit block rotated to ``start``."""
        require_int("start", start)
        n = self.size
        m = ((1 << self.length) - 1) << (start - 1) % n
        return (m | m >> n) & ((1 << n) - 1)

    def starts_through(self, position: int) -> tuple[int, ...]:
        """Starts of all arcs of this length containing ``position``."""
        require_int("position", position)
        return _starts_through(self.size, self.length, position)


def _starts_through(size: int, length: int, position: int) -> tuple[int, ...]:
    """Ascending starts of the arcs of ``length`` on ``size`` positions
    that contain ``position``: x-r+1..x after wrapping x, split in two
    where that stretch passes position 1."""
    x = wrap(position, size)
    lo = x - length + 1
    if lo >= 1:
        return tuple(range(lo, x + 1))
    return (*range(1, x + 1), *range(lo + size, size + 1))


@dataclass(frozen=True)
class AssignmentReport:
    """Outcome of the end-index assignment procedure.

    All index bookkeeping lives in the rotated labelling in which the
    distinguished complement ends at position N (equivalently, the
    distinguished member starts at 1); ``rotation`` records the shift
    that was applied to the input labels.  The witness, when present,
    is held as its distinct members in the input labelling.  The
    procedure holds one bitset: ``starts_mask`` has bit s-1 set for each
    rotated start s, so an index x < N is assigned iff bit x is set, and
    every index from N on is assigned.  ``normalized_starts``,
    ``unassigned`` and ``witness_complements`` are rebuilt from the
    fields on demand.
    """

    size: int
    length: int
    k: int
    rotation: int
    starts_mask: int
    outcome: str                           # "bounded" | "covering_witness"
    witness_members: tuple[int, ...] | None = None   # input-label starts, at most min(k, N)

    @property
    def bounded(self) -> bool:
        return self.outcome == "bounded"

    @property
    def witness_complements(self) -> tuple[tuple[int, ...], ...] | None:
        """The complements of the witness members, in input labels; they
        cover the circle.  None when the outcome is bounded."""
        if self.witness_members is None:
            return None
        n, r = self.size, self.length
        return tuple(tuple(wrap(s + r + j, n) for j in range(n - r))
                     for s in self.witness_members)

    @property
    def normalized_starts(self) -> tuple[int, ...]:
        """The rotated starts, ascending; the first is always 1."""
        return tuple(s for s in range(1, self.size + 1) if self.starts_mask >> s - 1 & 1)

    @property
    def unassigned(self) -> tuple[int, ...]:
        """The indices in 1..k(N-r) that no complement holds, ascending."""
        # every index >= N is in the distinguished block, so only 1..N-1 can be free
        return tuple(x for x in range(1, self.size) if not self.starts_mask >> x & 1)

    def to_json_obj(self) -> dict:
        obj = {
            "N": self.size,
            "r": self.length,
            "k": self.k,
            "outcome": self.outcome,
            "unassigned": list(self.unassigned),
        }
        if self.witness_members is not None:
            obj["witness"] = [list(arc) for arc in self.witness_complements]
        return obj


def _assign(fam: IntervalFamily, k: int) -> tuple[int, int, int]:
    """The assignment's bitsets: ``(rotation, starts, full)``.

    ``starts`` has bit s-1 set for each rotated start s, and ``full``
    bit c for each residue class c whose indices are all assigned.
    Raises ``ParameterError`` unless k >= 2, fam is nonempty and
    k*r <= (k-1)*N.
    """
    require_arity(k)
    if not fam.starts:
        raise ParameterError("the assignment procedure needs a nonempty family")
    n, r = fam.size, fam.length
    if k * r > (k - 1) * n:
        raise ParameterError(
            f"need k*r <= (k-1)*N for the index accounting, got k={k}, r={r}, N={n}")

    d = n - r                      # class modulus; complements have length d
    # the complement of the arc at s ends at s-1: the distinguished one,
    # ending last, is start 1's if present, else the largest start's
    rotation = 0 if fam.starts[0] == 1 else (1 - fam.starts[-1]) % n
    starts = 0
    for s in fam.starts:
        starts |= 1 << s - 1
    starts = (starts << rotation | starts >> n - rotation) & (1 << n) - 1
    # the complement of start s > 1 takes the index s-1 it ends at (bit
    # s-1 of starts), the distinguished one the block N..k*d (k*d >= N)
    assigned = starts & -2 | -1 << n    # bit x <=> index x is assigned
    # bit c of full <=> every index c, c+d, ..., c+(k-1)d of class c is
    # assigned; from j = N on, c + jd > N lies in the block
    full = (1 << d + 1) - 2
    for j in range(min(k, n)):
        full &= assigned >> j * d
    return rotation, starts, full


def assign_indices(fam: IntervalFamily, k: int) -> AssignmentReport:
    """Run the end-index assignment on the complements of ``fam``.

    Preconditions: k >= 2, fam nonempty, and k*r <= (k-1)*N so the
    index range [1, k(N-r)] is long enough to hold the circle.  The
    distinguished complement is the one with the largest end position
    under the input labelling; any fixed choice works, a deterministic
    one keeps reports reproducible.
    """
    require_type("fam", fam, IntervalFamily)
    rotation, starts, full = _assign(fam, k)
    n, r = fam.size, fam.length
    if not full:
        if len(fam) > r:
            raise IntegrityError("every class has an unassigned index yet "
                                 "|family| > r; the index accounting is broken")
        return AssignmentReport(n, r, k, rotation, starts, "bounded")

    # A fully assigned class c: the complements ending at its indices
    # cover the circle, so the members they complement share no
    # position.  Complement end e <-> member start e+1, and indices >= N
    # all belong to the distinguished complement, which ends at N, so the
    # class is walked only up to its first index >= N.
    d = n - r
    c = (full & -full).bit_length() - 1
    members = tuple(wrap((x + 1 if x < n else 1) - rotation, n)
                    for x in range(c, min(k * d, n + d - 1) + 1, d))
    common = -1
    for s in members:
        common &= fam.mask(s)
    if common:
        raise IntegrityError("covering witness fails to cover the circle")
    return AssignmentReport(n, r, k, rotation, starts, "covering_witness", members)


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
    require_type("fam", fam, IntervalFamily)
    n, r = fam.size, fam.length
    require_arity(k)
    if k * r >= (k - 1) * n:
        raise ParameterError(
            f"common-index extraction needs k*r < (k-1)*N strictly, "
            f"got k={k}, r={r}, N={n}")
    if len(fam) != r:
        raise ParameterError(f"family has {len(fam)} arcs, expected exactly r={r}")

    rotation, starts, full = _assign(fam, k)
    if full:
        raise IntegrityError(
            "family produced a covering witness; it was not k-wise intersecting")

    d = n - r
    free = ~starts & (1 << n) - 2     # bit x <=> index x < N is unassigned
    if free.bit_count() != d:
        raise IntegrityError(
            f"expected exactly {d} unassigned indices, found {free.bit_count()}")
    x_norm = (free & -free).bit_length() - 1
    if free >> x_norm != (1 << d) - 1:
        u = tuple(x for x in range(1, n) if free >> x & 1)
        raise IntegrityError(
            f"unassigned indices {u} do not form one contiguous stretch")

    # the arcs through x_norm start at x_norm-r+1..x_norm: one arc's mask
    if fam.mask(x_norm - r + 1) != starts:
        raise IntegrityError(
            "family is not the set of all arcs through the candidate position")
    return wrap(x_norm - rotation, n)
