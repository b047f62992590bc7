"""Triangular interlacing patterns, markings, and the two filling bijections.

A pattern of size n is a triangular integer array whose rows are
partitions that interlace from top to bottom.  Marking a position with
strictly positive south-east slack records one extra entry insertion;
expanding all marks row strip by row strip produces either a straight
set-valued tableau (`upsilon`) or a rotated one (`omega`).

Both are one strip engine in two orientations.  Straight: pass i writes
i, and pattern row j is shape row j read from the left.  Rotated: pass i
writes n+1-i, and pattern row j is bottom-row j read from the right.
`_starts`, cached on a shape, says where each pattern row starts in that
strip order.  The passes depend on the pattern alone, so the cached
`_strips_of` validates a pattern once, takes its two frames from
`_starts` and runs the passes in both orientations, keeping the unmarked
cell masks in the filling's cell order; `_expand` hands them out for a
marking with no marks, and otherwise copies them and ORs each mark into
its cell.  `_contract` is the inverses' one reader: it takes the frame
of the filling's shape from `_starts`, which refuses a shape of the
wrong kind, checks n and undoes the passes in one pass over the masks,
accepting exactly the semistandard fillings with entries at most n.
`_recover`, cached on the cells' keys (the pass that created each cell),
counts and validates each pattern once, since every marking of a pattern
and both its images read the same keys.
`check_marks` is the one test of a marking, shared by the
`MarkedGTPattern` constructor, `_contract` and the gamma path in `lr`.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import itemgetter

from .errors import DomainError, NotRotatedShape, NotStraightShape
from .shapes import Partition, rotate, skew
from .tableaux import MAX_ENTRY, SetValuedFilling, weight


class GTPattern(tuple):
    """Triangular integer array, kept as the tuple of its rows; row i
    (1-based, from the top) is a tuple of i ints.  `==`, hashing, pickling
    and immutability are those of that tuple, so the patterns `_recover`
    shares cannot change under its callers.
    """

    __slots__ = ()

    def __new__(cls, rows):
        rows = tuple(tuple(int(v) for v in row) for row in rows)
        for i, row in enumerate(rows, start=1):
            if len(row) != i:
                raise ValueError(f"row {i} must have {i} entries, got {len(row)}")
        return tuple.__new__(cls, rows)

    _trusted = classmethod(tuple.__new__)  # unchecked: row i is a tuple of i ints

    rows = property(tuple)
    n = property(len)

    def __repr__(self):
        return f"GTPattern{tuple(self)}"


def validate(pattern: GTPattern) -> bool:
    """Rows are partitions that interlace: every north-east and south-east
    difference is non-negative, and so is the bottom row's last entry."""
    for above, row in zip(pattern, pattern[1:]):
        for left, x, right in zip(row, above, row[1:]):  # x sits between them
            if left < x or x < right:
                return False
    return not pattern or pattern[-1][-1] >= 0


def markable_positions(pattern: GTPattern) -> frozenset:
    """Positions (i, j) with strictly positive south-east slack."""
    return frozenset((i, j)
                     for i in range(2, len(pattern) + 1)
                     for j in range(1, i)
                     if pattern[i - 2][j - 1] - pattern[i - 1][j] > 0)


def check_marks(rows: tuple, marks) -> None:
    """ValueError, "positions not markable: [...]" listing the bad marks
    sorted, unless each mark (i, j) of the pattern with rows `rows` lies in
    it, 1 <= j < i <= n, with positive slack x(i-1, j) > x(i, j+1)."""
    bad = [(i, j) for (i, j) in marks
           if not (0 < j < i <= len(rows) and rows[i - 2][j - 1] > rows[i - 1][j])]
    if bad:
        raise ValueError(f"positions not markable: {sorted(bad)}")


class MarkedGTPattern(tuple):
    """A pattern together with marks at positions of positive slack, kept
    as the pair (pattern, marks), marks a frozenset of (i, j) positions."""

    __slots__ = ()

    def __new__(cls, pattern: GTPattern, marks=()):
        marks = frozenset((int(i), int(j)) for (i, j) in marks)
        check_marks(pattern.rows, marks)
        return tuple.__new__(cls, (pattern, marks))

    @classmethod
    def _trusted(cls, pattern: GTPattern, marks: frozenset):
        """Wrap unchecked: `marks` is a frozenset of (int, int) positions
        drawn from `markable_positions(pattern)`."""
        return tuple.__new__(cls, (pattern, marks))

    pattern = property(itemgetter(0))
    marks = property(itemgetter(1))

    def __getnewargs__(self):  # pickle and copy rebuild through the constructor
        return tuple(self)

    @property
    def n(self) -> int:
        return len(self[0])

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
    Every row is a tuple of ints of its length by construction, so the
    patterns are built unchecked (`GTPattern._trusted`); `_strips_of` and
    `_recover` still `validate` each pattern they read.
    """
    lam = Partition(lam)
    if len(lam) > n:
        raise ValueError(f"partition {lam} needs more than {n} rows")
    if n == 0:
        yield GTPattern._trusted(())
        return
    # an explicit stack of (rows below, candidates for the next row up):
    # one generator nested per row would bound n by the recursion limit
    stack = [((), iter([lam.pad(n)]))]
    while stack:
        below, candidates = stack[-1]
        row = next(candidates, None)
        if row is None:
            stack.pop()
        elif len(row) == 1:
            yield GTPattern._trusted((row,) + below)
        else:
            stack.append(((row,) + below, _interlacings(row)))


def marked_patterns(pattern: GTPattern):
    """All markings of `pattern`, the empty marking first: marking m marks
    the sorted markable positions whose bits are set in m, m = 0, 1, ....
    Marking m + 2^b, for m < 2^b, is marking m with position b added, so
    each marking is one frozenset union."""
    markings = [frozenset()]
    for position in sorted(markable_positions(pattern)):
        added = frozenset((position,))
        markings += [marks | added for marks in markings]
    for marks in markings:
        yield MarkedGTPattern._trusted(pattern, marks)


@lru_cache(maxsize=1024)
def _starts(shape, rotated: bool) -> tuple:
    """Where each pattern row starts among the masks of a filling of `shape`
    in strip order: its cell order, reversed when rotated, so that row j is
    bottom row j from the right.  NotStraightShape or NotRotatedShape unless
    `shape` is the straight or rotated diagram of a partition."""
    if rotated:
        lengths = [len(shape.row_cols(r)) for r in range(shape.num_rows, 0, -1)]
        if lengths != sorted(lengths, reverse=True) or rotate(lengths) != shape:
            raise NotRotatedShape(f"{shape!r} is not a rotated diagram")
    elif shape.inner:
        raise NotStraightShape(f"inner partition {shape.inner} is not empty")
    return tuple(itertools.accumulate(lengths if rotated else shape.outer, initial=0))


@lru_cache(maxsize=1024)
def _strips_of(pattern: GTPattern) -> tuple:
    """Per orientation, straight then rotated, (shape, starts, masks) of
    `pattern` expanded with no marks, on `skew(λ, ())` or `rotate(λ)` for
    its bottom row λ, the masks in the filling's cell order; DomainError
    unless the pattern is valid.  Cached on the pattern: validated once,
    expanded once per orientation.  The passes write in strip order, so a
    rotated expansion is reversed once here, not once per marking."""
    if not validate(pattern):
        raise DomainError(f"invalid pattern {pattern!r}")
    n = len(pattern)
    lam = Partition(pattern[-1] if n else ())
    strips = []
    for rotated, shape in ((False, skew(lam, ())), (True, rotate(lam))):
        starts = _starts(shape, rotated)
        masks = [0] * starts[-1]
        for i in range(1, n + 1):
            bit = 1 << (n - i if rotated else i - 1)  # label n+1-i or i
            above = pattern[i - 2] if i > 1 else ()
            for j, width in enumerate(pattern[i - 1], start=1):
                have = above[j - 1] if j < i else 0
                for c in range(have, width):
                    masks[starts[j - 1] + c] = bit
        strips.append((shape, starts, tuple(masks[::-1] if rotated else masks)))
    return tuple(strips)


def _expand(marked: MarkedGTPattern, rotated: bool) -> SetValuedFilling:
    """The strip engine behind `upsilon` and `omega`.

    Pass i writes its label into the cells x(i-1, j)+1 .. x(i, j) of
    every pattern row j; a mark (i, j) adds the label to cell x(i-1, j),
    the last cell row j had before the pass.  The passes depend on the
    pattern alone, so `_strips_of` runs them once per pattern and
    orientation; a marking with no marks gets those cached masks, and any
    other copies them and ORs each mark label into its cell, in any order,
    since a cell's label set is a union.  Strip position p is cell p, or
    cell len(masks) - 1 - p when rotated.
    """
    pattern, marks = marked
    shape, starts, strips = _strips_of(pattern)[rotated]
    if not marks:
        return SetValuedFilling._trusted(shape, strips)
    masks = list(strips)
    n, last = len(pattern), len(masks) - 1
    for (i, j) in marks:  # markable: x(i-1, j) > x(i, j+1) >= 0
        p = starts[j - 1] + pattern[i - 2][j - 1] - 1
        masks[last - p if rotated else p] |= 1 << (n - i if rotated else i - 1)
    return SetValuedFilling._trusted(shape, tuple(masks))


def upsilon(marked: MarkedGTPattern) -> SetValuedFilling:
    """Expand a marked pattern into a set-valued tableau of straight shape.

    Pass i writes a singleton {i} into every cell of the i-th row strip.
    A mark (i, j) then appends i to the last cell of row j as it stood
    before the pass: every other cell of that row has a right neighbour
    with smaller entries, so this is the unique position where an i can
    be added without breaking semistandardness.
    """
    return _expand(marked, False)


def omega(marked: MarkedGTPattern) -> SetValuedFilling:
    """Expand a marked pattern into a set-valued filling of a rotated shape.

    Pass i writes n+1-i into every new cell of the i-th strip; rows are
    indexed from the bottom and grow leftwards.  A mark (i, j) prepends
    n+1-i to the leftmost cell of bottom-row j as it stood before the
    pass, the unique position that keeps the filling semistandard.
    """
    return _expand(marked, True)


def _contract(filling: SetValuedFilling, n, rotated: bool) -> MarkedGTPattern:
    """The inverses' one reader: the marked pattern that `_expand` turns
    into `filling`, n defaulting to the larger of the top entry and the
    pattern row count.  `_starts` gives the frame, pattern row j the masks
    starts[j-1] .. starts[j]-1 in strip order (cell order, reversed when
    rotated).

    A value v reads as its pass label, v or n+1-v when rotated.  A cell's
    key, its smallest label, is the pass that created it: the lowest set
    bit, or n+1 less the highest when rotated.  Every other label is one
    mark, and x(i, j) counts the cells of row j with key at most i.  One
    pass over each row's masks reads keys and marks.  The keys fix the
    pattern, so `_recover`, cached on the keys, builds the counts and
    validates each pattern once; marks and the loose test stay per filling.

    Exactly the semistandard fillings invert.  Failures raise, in this
    order: `_starts`'s refusal of a shape of the wrong kind; DomainError
    unless the filling fits in a pattern of size n and n is at most
    `MAX_ENTRY`; then DomainError unless the keys of row j are at least j
    and non-decreasing (reported at the first pass i, then row, where a key
    i lies below row i or after a larger key); the pattern interlaces; the
    marks, if any, are markable, each by its own slack; each mark (v, j)
    sits in cell x(v-1, j), the last with key at most v-1, so no cell's
    largest label exceeds the next key.
    """
    starts = _starts(filling.shape, rotated)
    masks = filling.masks[::-1] if rotated else filling.masks
    # the larger of the top entry (0 if none) and the pattern row count
    size = max((max(masks) if masks else 0).bit_length(), len(starts) - 1)
    if n is None:
        n = size
    elif size > n:
        raise DomainError(f"filling does not fit in a pattern of size {n}")
    if n > MAX_ENTRY:
        raise DomainError(f"n={n} is above the largest entry {MAX_ENTRY}")

    marks, keys, first, loose = set(), [], None, False
    for j in range(1, len(starts)):
        low = high = j  # floors for the next key: the last key, the last label
        for m in masks[starts[j - 1]:starts[j]]:
            if rotated:
                key, top = n + 1 - m.bit_length(), n + 1 - (m & -m).bit_length()
                rest = m ^ 1 << n - key
            else:
                key, top = (m & -m).bit_length(), m.bit_length()
                rest = m & m - 1
            while rest:
                bit = rest & -rest
                marks.add((n + 1 - bit.bit_length() if rotated else bit.bit_length(), j))
                rest ^= bit
            if key < high:
                if key < low and (first is None or key < first[0]):  # the first unjustified key
                    first = (key, j)
                loose = True
            low, high = key, top
            keys.append(key)
    if first:
        i, j = first
        if i >= j:
            raise DomainError("cells with large maxima are not right justified"
                              if rotated else
                              "cells with small minima are not left justified")
        raise DomainError(f"value at least {n + 1 - i} appears above row {i}"
                          if rotated else f"value at most {i} appears below row {i}")

    pattern = _recover(tuple(keys), starts, n)
    if pattern is None:
        raise DomainError("filling is not semistandard enough to invert")
    if marks:
        try:
            check_marks(pattern, marks)
        except ValueError as exc:
            raise DomainError(f"recovered marks are not markable: {exc}") from exc
    if loose:
        raise DomainError("filling is not semistandard enough to invert")
    return MarkedGTPattern._trusted(pattern, frozenset(marks))


@lru_cache(maxsize=256)
def _recover(keys: tuple, starts: tuple, n: int):
    """The pattern of size n whose x(i, j) counts the keys at most i of
    pattern row j, keys[starts[j-1]:starts[j]] (none past the last row), or
    None unless it interlaces; cached on the keys, so counted on a miss.
    Every marking of a pattern and both its images read one entry, but one
    sweep at |λ| ≤ 6, n ≤ 4 reads 1,317 patterns, more than this cache or
    `_strips_of` holds, so nothing carries over from one sweep to the next."""
    counts = [tuple(itertools.accumulate(map(keys[a:b].count, range(1, n + 1))))
              for a, b in zip(starts, starts[1:])]
    counts += [(0,) * n] * (n - len(counts))
    pattern = GTPattern._trusted(tuple(row[:i] for i, row in enumerate(zip(*counts), start=1)))
    return pattern if validate(pattern) else None


def upsilon_inverse(filling: SetValuedFilling, n=None) -> MarkedGTPattern:
    """Recover the marked pattern that expands to `filling`.

    Row i of the pattern is the shape covered by cells with minimum
    entry at most i; every value sitting in a cell whose minimum is
    smaller contributes one mark.  DomainError unless it is semistandard.
    """
    return _contract(filling, n, False)


def omega_inverse(filling: SetValuedFilling, n=None) -> MarkedGTPattern:
    """Recover the marked pattern that expands to `filling` under omega.

    Row i of the pattern is the shape (rows read from the bottom) of
    cells whose maximum entry is at least n+1-i; every value below a
    cell's maximum contributes one mark.  DomainError unless semistandard.
    """
    return _contract(filling, n, True)


def weight_reversal_check(marked: MarkedGTPattern) -> bool:
    """Weight of the rotated image equals the reversed weight of the straight one."""
    n = marked.n
    straight = weight(upsilon(marked), n)
    rotated = weight(omega(marked), n)
    return rotated == tuple(reversed(straight))
