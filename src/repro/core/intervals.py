"""Interval algebra used throughout the TILL-Index.

The paper (Definition 3) orders reachability tuples for a fixed vertex
pair by *containment* of their time intervals: a tuple with interval
``[ts, te]`` dominates one with interval ``[ts', te']`` when
``[ts, te]`` is a proper subinterval of ``[ts', te']``.  A *skyline*
tuple is one not dominated by any other, so the set of skyline intervals
for a pair is an antichain under containment: sorting it by start time
also sorts it by end time, a property both the index layout (Fig. 3 of
the paper) and the query algorithms rely on.

This module provides:

* :class:`Interval` — an immutable closed integer interval ``[start, end]``;
* containment / dominance predicates;
* :class:`SkylineSet` — a set of mutually non-dominated intervals with
  insert-if-not-dominated semantics, the workhorse of SRT enumeration.

Timestamps are arbitrary integers (negative values are fine); only
ordering and differences matter.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator, List, NamedTuple, Optional, Tuple

from repro.errors import InvalidIntervalError, UnsupportedIntervalError

IntervalLike = Tuple[int, int]


class Interval(NamedTuple):
    """A closed integer time interval ``[start, end]``.

    The *length* of the interval follows the paper's convention: the
    number of atomic timestamps it spans, i.e. ``end - start + 1``.
    """

    start: int
    end: int

    @classmethod
    def validated(cls, start: int, end: int) -> "Interval":
        """Build an interval, raising :class:`InvalidIntervalError` if
        ``start > end`` or either bound is not an integer."""
        if not isinstance(start, int) or not isinstance(end, int):
            raise InvalidIntervalError(
                f"interval bounds must be integers, got ({start!r}, {end!r})"
            )
        if start > end:
            raise InvalidIntervalError(
                f"interval start {start} is after its end {end}"
            )
        return cls(start, end)

    @property
    def length(self) -> int:
        """Number of timestamps covered (paper: ``te - ts + 1``)."""
        return self.end - self.start + 1

    def contains(self, other: "IntervalLike") -> bool:
        """``True`` when *other* lies fully inside this interval."""
        return self.start <= other[0] and other[1] <= self.end

    def contains_time(self, t: int) -> bool:
        """``True`` when timestamp *t* falls inside this interval."""
        return self.start <= t <= self.end

    def intersects(self, other: "IntervalLike") -> bool:
        """``True`` when the two intervals share at least one timestamp."""
        return self.start <= other[1] and other[0] <= self.end

    def expand(self, t: int) -> "Interval":
        """The smallest interval containing both this one and time *t*.

        This is the expansion step of SRT search (Algorithm 3 line 14):
        following an edge at time ``t`` from a tuple with interval
        ``[ts, te]`` yields interval ``[min(ts, t), max(te, t)]``.
        """
        return Interval(min(self.start, t), max(self.end, t))

    def __str__(self) -> str:
        return f"[{self.start}, {self.end}]"


def as_interval(value: IntervalLike) -> Interval:
    """Coerce a ``(start, end)`` pair into a validated :class:`Interval`."""
    if isinstance(value, Interval):
        if value.start > value.end:
            raise InvalidIntervalError(
                f"interval start {value.start} is after its end {value.end}"
            )
        return value
    try:
        start, end = value
    except (TypeError, ValueError) as exc:
        raise InvalidIntervalError(
            f"expected a (start, end) pair, got {value!r}"
        ) from exc
    return Interval.validated(int(start), int(end))


def dominates(a: IntervalLike, b: IntervalLike) -> bool:
    """Dominance of Definition 3: ``a`` dominates ``b`` when ``a`` is a
    *proper* subinterval of ``b`` for the same vertex pair.

    Reaching someone within a tighter window is strictly stronger
    evidence of connection, hence "dominates".
    """
    return b[0] <= a[0] and a[1] <= b[1] and a != b


def dominates_or_equal(a: IntervalLike, b: IntervalLike) -> bool:
    """Non-strict dominance: ``a ⊆ b``."""
    return b[0] <= a[0] and a[1] <= b[1]


class SkylineSet:
    """A set of mutually non-dominated (minimal) intervals.

    Internally kept as a list sorted by ``start``.  The antichain
    property makes ``end`` sorted as well, which gives logarithmic
    dominance checks:

    * some member is contained in a candidate ``[s, e]`` iff the member
      with the smallest ``start >= s`` exists and ends at or before ``e``;
    * a candidate is contained in some member iff the member with the
      greatest ``start <= s`` exists and ends at or after ``e``.

    Used during SRT enumeration to decide whether a newly discovered
    reachability interval is worth exploring, and by tests as the
    reference model for label-group invariants.
    """

    __slots__ = ("_starts", "_ends")

    def __init__(self, intervals: Iterable[IntervalLike] = ()):
        self._starts: List[int] = []
        self._ends: List[int] = []
        for iv in intervals:
            self.add(iv)

    def __len__(self) -> int:
        return len(self._starts)

    def __iter__(self) -> Iterator[Interval]:
        return (Interval(s, e) for s, e in zip(self._starts, self._ends))

    def __contains__(self, iv: IntervalLike) -> bool:
        i = bisect_left(self._starts, iv[0])
        return i < len(self._starts) and self._starts[i] == iv[0] and self._ends[i] == iv[1]

    def covered(self, iv: IntervalLike) -> bool:
        """``True`` when some member is a (non-strict) subinterval of *iv*.

        Such a member makes *iv* redundant: any query window containing
        *iv* also contains the member.
        """
        # The first member starting at or after iv.start is the one with
        # the smallest end among members inside [iv.start, +inf).
        i = bisect_left(self._starts, iv[0])
        return i < len(self._ends) and self._ends[i] <= iv[1]

    def add(self, iv: IntervalLike) -> bool:
        """Insert *iv* unless a member already covers it.

        Members strictly dominated by *iv* (i.e. containing it) are
        evicted so the antichain property is preserved.  Returns ``True``
        when the interval was inserted.
        """
        s, e = iv[0], iv[1]
        starts, ends = self._starts, self._ends
        # The covered test of :meth:`covered`, sharing its bisect.
        i = bisect_left(starts, s)
        if i < len(ends) and ends[i] <= e:
            return False
        # Members containing [s, e] start at or before s and end at or
        # after e; with both arrays sorted they form a contiguous run
        # ending at the insertion point.  The antichain property allows
        # at most one member with start == s; if present it sits exactly
        # at the insertion point and (not being covered) must end after
        # e, i.e. it contains the candidate and is evicted too.
        hi = i + 1 if i < len(starts) and starts[i] == s else i
        lo = i
        while lo > 0 and ends[lo - 1] >= e:
            lo -= 1
        if lo < hi:
            del starts[lo:hi]
            del ends[lo:hi]
        starts.insert(lo, s)
        ends.insert(lo, e)
        return True

    def intervals(self) -> List[Interval]:
        """Members sorted by start time (equivalently by end time)."""
        return list(self)

    def min_length(self) -> int:
        """Length of the shortest member; raises ``ValueError`` if empty."""
        if not self._starts:
            raise ValueError("empty skyline set has no minimum length")
        return min(e - s + 1 for s, e in zip(self._starts, self._ends))


def skyline(intervals: Iterable[IntervalLike]) -> List[Interval]:
    """The skyline (containment-minimal antichain) of *intervals*.

    Convenience wrapper over :class:`SkylineSet` for one-shot use.
    """
    acc = SkylineSet()
    for iv in intervals:
        acc.add(iv)
    return acc.intervals()


def validate_theta_window(window: IntervalLike, theta: int) -> Interval:
    """Validate a θ-reachability query: ``theta >= 1`` and a window of
    at least ``theta`` timestamps.

    Every θ algorithm (indexed, naive, online) shares this check so a
    malformed query fails identically on all paths instead of silently
    returning ``False`` where the sliding ``range`` happens to be empty.
    Returns the validated window.
    """
    win = as_interval(window)
    if theta < 1:
        raise InvalidIntervalError(
            f"theta must be a positive window length, got {theta}"
        )
    if win.length < theta:
        raise InvalidIntervalError(
            f"query interval {win} is shorter than theta={theta}"
        )
    return win


def check_vartheta(vartheta: Optional[int], needed_length: int) -> None:
    """Raise :class:`~repro.errors.UnsupportedIntervalError` when a
    query needs label intervals longer than the build-time ϑ cap.

    The one cap check shared by the monolithic, sharded and
    incremental indexes and the batch engine, so an over-cap query
    fails with the same message on every path.
    """
    if vartheta is not None and needed_length > vartheta:
        raise UnsupportedIntervalError(
            f"query needs interval length {needed_length} but the index was "
            f"built with vartheta={vartheta}; rebuild with a larger cap "
            "or pass fallback='online'"
        )


def first_contained(
    starts: List[int], ends: List[int], lo: int, hi: int, window: IntervalLike
) -> int:
    """Index of the first interval within ``[lo, hi)`` contained in *window*.

    ``starts``/``ends`` must hold a skyline group sorted chronologically
    (both arrays ascending over the slice).  Returns ``-1`` when no
    member of the slice fits inside the window.  This is the binary
    search used by Algorithm 4: the member with the smallest
    ``start >= window.start`` is also the one with the smallest end among
    those, so a single follow-up comparison decides containment.
    """
    i = bisect_left(starts, window[0], lo, hi)
    if i < hi and ends[i] <= window[1]:
        return i
    return -1
