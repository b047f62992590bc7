"""Triangular interlacing patterns, markings, and the two filling bijections.

A pattern of size n is a triangular integer array whose rows are
partitions that interlace from top to bottom.  Marking a position with
strictly positive south-east slack records one extra entry insertion;
expanding all marks row strip by row strip produces either a straight
set-valued tableau (`upsilon`) or a rotated one (`omega`).

Both are one strip engine in two orientations, placed by `_frame`.
Straight: pass i writes i, and pattern row j is shape row j read from
the left.  Rotated: pass i writes n+1-i, and pattern row j is bottom-row
j read from the right.  The passes depend on the pattern alone, so
`_strips_of` validates a pattern once and runs them once per orientation,
keeping the unmarked cells in the pattern's own `_strips` slot; `_expand`
copies them and adds the marks of each marking.  `upsilon_inverse` and
`omega_inverse` read the cells through the same frame, and `_contract`
undoes the passes in one sweep, accepting exactly the semistandard
fillings with entries at most n.  `check_marks` is the one test of a
marking, shared by the `MarkedGTPattern` constructor, `_contract` and the
gamma path in `lr`.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import DomainError, NotRotatedShape, NotStraightShape
from .shapes import Partition, RotatedShape, as_partition, rotate, skew
from .tableaux import SetValuedFilling


class GTPattern:
    """Triangular integer array; row i (1-based, from the top) has i entries.

    `_strips`, left unset until the first expansion, keeps per orientation
    what `_strips_of` built; equality and hashing read `rows` only.
    """

    __slots__ = ("rows", "_strips")

    def __init__(self, rows):
        rows = tuple(tuple(int(v) for v in row) for row in rows)
        for i, row in enumerate(rows, start=1):
            if len(row) != i:
                raise ValueError(f"row {i} must have {i} entries, got {len(row)}")
        self.rows = rows

    @classmethod
    def _trusted(cls, rows: tuple):
        """Wrap `rows` unchecked: a tuple whose row i is a tuple of i ints."""
        self = cls.__new__(cls)
        self.rows = rows
        return self

    @property
    def n(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        if isinstance(other, GTPattern):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"GTPattern{self.rows}"


def validate(pattern: GTPattern) -> bool:
    """Rows are partitions that interlace: every north-east and south-east
    difference is non-negative, and so is the bottom row's last entry."""
    rows = pattern.rows
    for above, row in zip(rows, rows[1:]):
        for left, x, right in zip(row, above, row[1:]):  # x sits between them
            if left < x or x < right:
                return False
    return not rows or rows[-1][-1] >= 0


def markable_positions(pattern: GTPattern) -> frozenset:
    """Positions (i, j) with strictly positive south-east slack."""
    rows = pattern.rows
    return frozenset((i, j)
                     for i in range(2, len(rows) + 1)
                     for j in range(1, i)
                     if rows[i - 2][j - 1] - rows[i - 1][j] > 0)


def check_marks(rows: tuple, marks) -> None:
    """ValueError, "positions not markable: [...]" listing the bad marks
    sorted, unless each mark (i, j) of the pattern with rows `rows` lies in
    it, 1 <= j < i <= n, with positive slack x(i-1, j) > x(i, j+1)."""
    bad = [(i, j) for (i, j) in marks
           if not (0 < j < i <= len(rows) and rows[i - 2][j - 1] > rows[i - 1][j])]
    if bad:
        raise ValueError(f"positions not markable: {sorted(bad)}")


class MarkedGTPattern:
    """A pattern together with marks at positions of positive slack."""

    __slots__ = ("pattern", "marks")

    def __init__(self, pattern: GTPattern, marks=()):
        marks = frozenset((int(i), int(j)) for (i, j) in marks)
        check_marks(pattern.rows, marks)
        self.pattern = pattern
        self.marks = marks

    @classmethod
    def _trusted(cls, pattern: GTPattern, marks: frozenset):
        """Wrap unchecked: `marks` is a frozenset of (int, int) positions
        drawn from `markable_positions(pattern)`."""
        self = cls.__new__(cls)
        self.pattern = pattern
        self.marks = marks
        return self

    @property
    def n(self) -> int:
        return self.pattern.n

    def __eq__(self, other):
        if isinstance(other, MarkedGTPattern):
            return self.pattern == other.pattern and self.marks == other.marks
        return NotImplemented

    def __hash__(self):
        return hash((self.pattern, self.marks))

    def __repr__(self):
        return f"MarkedGTPattern({self.pattern!r}, marks={sorted(self.marks)})"


def _interlacings(row):
    """All rows of length len(row)-1 interlacing `row`, ascending lex."""
    spans = [range(row[j + 1], row[j] + 1) for j in range(len(row) - 1)]
    return itertools.product(*spans)


def enumerate_gt(lam, n: int):
    """Yield every pattern of size n whose bottom row is lam (zero padded).

    Rows grow from the bottom up; each candidate row ranges over all
    partitions interlacing the one below it, so the stream is exactly
    the interlacing characterization, depth first and deterministic.
    """
    lam = as_partition(lam)
    if len(lam) > n:
        raise ValueError(f"partition {lam} needs more than {n} rows")
    if n == 0:
        yield GTPattern(())
        return

    def grow(stack):
        if len(stack[0]) == 1:
            yield GTPattern(stack)
            return
        for above in _interlacings(stack[0]):
            yield from grow([above] + stack)

    yield from grow([lam.pad(n)])


def marked_patterns(pattern: GTPattern):
    """All markings of `pattern` in a fixed order, the empty marking first."""
    positions = sorted(markable_positions(pattern))
    for m in range(1 << len(positions)):
        yield MarkedGTPattern._trusted(
            pattern, frozenset(p for b, p in enumerate(positions) if m >> b & 1))


@lru_cache(maxsize=1024)
def _frame(parts: tuple, rotated: bool) -> tuple:
    """The straight or rotated shape over bottom row `parts` (zeros allowed),
    with (sign, row0, col0): pattern row j, cell c is at (row0 + sign*j,
    col0 + sign*c).  Shapes are immutable, so every caller shares one."""
    lam = Partition(parts)
    if rotated:
        return rotate(lam), -1, len(lam) + 1, lam[0] + 1
    return skew(lam, ()), 1, 0, 0


def _strips_of(pattern: GTPattern, rotated: bool) -> tuple:
    """(shape, sign, row0, col0, entries) of `pattern` expanded in one
    orientation with no marks, placed by `_frame`; DomainError unless the
    pattern is valid.  Validated once per pattern and built once per
    orientation, then kept in the pattern's `_strips` slot; a pattern that
    fails keeps nothing."""
    memo = getattr(pattern, "_strips", None)
    if memo is None:
        if not validate(pattern):
            raise DomainError(f"invalid pattern {pattern!r}")
        memo = pattern._strips = [None, None]
    elif memo[rotated] is not None:
        return memo[rotated]
    rows = pattern.rows
    n = len(rows)
    shape, sign, row0, col0 = _frame(rows[-1] if n else (), rotated)
    entries = {}
    for i in range(1, n + 1):
        label = frozenset((n + 1 - i if rotated else i,))
        above = rows[i - 2] if i > 1 else ()
        for j, width in enumerate(rows[i - 1], start=1):
            have = above[j - 1] if j < i else 0
            for c in range(have + 1, width + 1):
                entries[(row0 + sign * j, col0 + sign * c)] = label
    memo[rotated] = strips = (shape, sign, row0, col0, entries)
    return strips


def _expand(marked: MarkedGTPattern, rotated: bool) -> SetValuedFilling:
    """The strip engine behind `upsilon` and `omega`.

    Pass i writes its label into the cells x(i-1, j)+1 .. x(i, j) of
    every pattern row j; a mark (i, j) adds the label to cell x(i-1, j),
    the last cell row j had before the pass.  The passes depend on the
    pattern alone, so `_strips_of` runs them once per pattern and
    orientation; each marking copies that dict and adds its mark labels,
    in any order, since a cell's label set is a union.
    """
    pattern = marked.pattern
    shape, sign, row0, col0, entries = _strips_of(pattern, rotated)
    entries = dict(entries)
    rows = pattern.rows
    n = len(rows)
    for (i, j) in marked.marks:  # markable: x(i-1, j) > x(i, j+1) >= 0
        cell = (row0 + sign * j, col0 + sign * rows[i - 2][j - 1])
        entries[cell] = entries[cell] | {n + 1 - i if rotated else i}
    return SetValuedFilling._trusted(shape, entries)


def upsilon(marked: MarkedGTPattern) -> SetValuedFilling:
    """Expand a marked pattern into a set-valued tableau of straight shape.

    Pass i writes a singleton {i} into every cell of the i-th row strip.
    A mark (i, j) then appends i to the last cell of row j as it stood
    before the pass: every other cell of that row has a right neighbour
    with smaller entries, so this is the unique position where an i can
    be added without breaking semistandardness.
    """
    return _expand(marked, rotated=False)


def omega(marked: MarkedGTPattern) -> SetValuedFilling:
    """Expand a marked pattern into a set-valued filling of a rotated shape.

    Pass i writes n+1-i into every new cell of the i-th strip; rows are
    indexed from the bottom and grow leftwards.  A mark (i, j) prepends
    n+1-i to the leftmost cell of bottom-row j as it stood before the
    pass, the unique position that keeps the filling semistandard.
    """
    return _expand(marked, rotated=True)


def _contract(rows, n: int, rotated: bool) -> MarkedGTPattern:
    """The inverse of `_expand`, in one pass over the cell sets of each
    pattern row in strip order, for a filling with at most n pattern rows.

    A value v reads as its pass label, v or n+1-v when rotated.  A cell's
    key, its smallest label, is the pass that created it, and every larger
    label is one mark; a singleton cell, the common case, is read as its
    key alone.  x(i, j) counts the cells of row j with key at most i, from
    a running histogram of the row's keys.

    Exactly the semistandard fillings invert.  Failures raise DomainError,
    checked in this order: no entry exceeds n (raised where the pass meets
    it, before its label can index the histogram); the keys of row j are
    at least j and non-decreasing (reported at the first pass i, then row,
    where a key i lies below row i or after a larger key); the pattern
    interlaces; the marks are markable, each by its own slack; each mark
    (v, j) sits in cell x(v-1, j), the last with key at most v-1, so no
    cell's largest label exceeds the next key.
    """
    marks = set()
    counts = []
    first = None  # (pass, row, not justified) of the first unjustified key
    loose = False
    for j, row in enumerate(rows, start=1):
        hist = [0] * n
        low = high = j  # floors for the next key: the last key, the last label
        for vals in row:
            if len(vals) == 1:  # most cells: the key alone, no marks
                (key,) = vals
                if rotated:
                    key = n + 1 - key
                top = key
            else:
                labels = [n + 1 - v for v in vals] if rotated else vals
                key, top = min(labels), max(labels)
                marks.update((v, j) for v in labels if v != key)
            if key < 1 or top > n:  # an entry above n, read straight or rotated
                raise DomainError(f"filling does not fit in a pattern of size {n}")
            if key < high:
                if key < low and (first is None or (key, j) < first[:2]):
                    first = (key, j, key >= j)
                loose = True
            low, high = key, top
            hist[key - 1] += 1
        counts.append(list(itertools.accumulate(hist)))
    if first:
        i, _, not_justified = first
        if not_justified:
            raise DomainError("cells with large maxima are not right justified"
                              if rotated else
                              "cells with small minima are not left justified")
        raise DomainError(f"value at least {n + 1 - i} appears above row {i}"
                          if rotated else f"value at most {i} appears below row {i}")

    counts += [(0,) * n] * (n - len(counts))  # rows the filling lacks
    pattern = GTPattern._trusted(tuple(
        row[:i] for i, row in enumerate(zip(*counts), start=1)))
    if not validate(pattern):
        raise DomainError("filling is not semistandard enough to invert")
    try:
        check_marks(pattern.rows, marks)
    except ValueError as exc:
        raise DomainError(f"recovered marks are not markable: {exc}") from exc
    if loose:
        raise DomainError("filling is not semistandard enough to invert")
    return MarkedGTPattern._trusted(pattern, frozenset(marks))


def _read(filling: SetValuedFilling, lam: Partition, n, rotated: bool) -> MarkedGTPattern:
    """Contract `filling` of the straight or rotated shape of `lam`, reading
    pattern row j, cell c where `_frame` puts it for `_expand`; `n` defaults
    to the larger of the top entry and the row count."""
    _, sign, row0, col0 = _frame(lam.parts, rotated)
    entries = filling.entries
    rows = [[entries[(row0 + sign * j, col0 + sign * c)] for c in range(1, width + 1)]
            for j, width in enumerate(lam, start=1)]
    if n is None:
        n = max(max(map(max, entries.values()), default=0), len(rows))
    elif len(rows) > n:  # an entry above n is `_contract`'s to find
        raise DomainError(f"filling does not fit in a pattern of size {n}")
    return _contract(rows, n, rotated)


def upsilon_inverse(filling: SetValuedFilling, n=None) -> MarkedGTPattern:
    """Recover the marked pattern that expands to `filling`.

    Row i of the pattern is the shape covered by cells with minimum
    entry at most i; every value sitting in a cell whose minimum is
    smaller contributes one mark.  DomainError unless it is semistandard.
    """
    if filling.shape.inner:
        raise NotStraightShape(f"inner partition {filling.shape.inner} is not empty")
    return _read(filling, filling.shape.outer, n, rotated=False)


def _rotated_source(shape) -> Partition:
    """The partition whose rotated embedding equals `shape`."""
    if isinstance(shape, RotatedShape):
        return shape.lam
    lengths = [len(shape.row_cols(r)) for r in range(shape.num_rows, 0, -1)]
    if lengths != sorted(lengths, reverse=True) or rotate(lengths) != shape:
        raise NotRotatedShape(f"{shape!r} is not a rotated diagram")
    return rotate(lengths).lam


def omega_inverse(filling: SetValuedFilling, n=None) -> MarkedGTPattern:
    """Recover the marked pattern that expands to `filling` under omega.

    Row i of the pattern is the shape (rows read from the bottom) of
    cells whose maximum entry is at least n+1-i; every value below a
    cell's maximum contributes one mark.  DomainError unless semistandard.
    """
    return _read(filling, _rotated_source(filling.shape), n, rotated=True)


def weight_reversal_check(marked: MarkedGTPattern) -> bool:
    """Weight of the rotated image equals the reversed weight of the straight one."""
    from .tableaux import weight

    n = marked.n
    straight = weight(upsilon(marked), n)
    rotated = weight(omega(marked), n)
    return rotated == tuple(reversed(straight))
