"""Partitions, skew Young diagrams, and 180-degree rotated shapes.

A Partition is the tuple of its positive parts.  Cells are addressed as
(row, col) pairs, 1-based, rows counted from the top, matching
English-notation diagrams.  The rest of the package speaks of the rows
of a rotated shape from the bottom.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter, le, lt

from .errors import ContainmentError

_item = tuple.__getitem__  # global: filling a default argument slows each call


class Partition(tuple):
    """Weakly decreasing sequence of non-negative integers, kept as the
    tuple of its positive parts: `==`, hashing, `<`, `+` and JSON act as on
    that tuple, so `Partition((2, 1)) == (2, 1)`.

    Trailing zeros are stripped on construction, and an int index past
    either end reads 0, so comparisons never need explicit padding; a
    slice is a plain tuple.
    """

    __slots__ = ()

    def __new__(cls, parts=()):
        if isinstance(parts, Partition):
            return parts
        parts = tuple(map(int, parts))
        if any(map(lt, parts, parts[1:])):
            raise ValueError(f"parts not weakly decreasing: {parts}")
        if parts and parts[-1] < 0:
            raise ValueError(f"negative part in {parts}")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        return tuple.__new__(cls, parts)

    _trusted = classmethod(tuple.__new__)  # unchecked: positive parts, weakly decreasing

    @property
    def parts(self) -> tuple:
        return tuple(self)

    def __getitem__(self, i):
        if i.__class__ is slice:
            return _item(self, i)
        return _item(self, i) if 0 <= i < len(self) else 0

    def __repr__(self):
        return f"Partition{tuple(self)}"

    def size(self) -> int:
        return sum(self)

    def pad(self, length: int) -> tuple:
        """Parts as a tuple of exactly `length` entries."""
        if length < len(self):
            raise ValueError(f"cannot pad {self} to length {length}")
        return self + (0,) * (length - len(self))


def contains(mu, lam) -> bool:
    """True when mu fits inside lam componentwise."""
    mu = Partition(mu)
    lam = Partition(lam)
    return len(mu) <= len(lam) and all(map(le, mu, lam))


class SkewShape(tuple):
    """Cells of an outer Young diagram with an inner diagram removed, kept
    as the pair (outer, inner): `==`, hashing, pickling and immutability
    are those of that tuple, so a shape that `rotate` or a filling shares
    cannot change under its holders.
    """

    __slots__ = ()

    def __new__(cls, outer, inner=()):
        outer = Partition(outer)
        inner = Partition(inner)
        if not contains(inner, outer):
            raise ContainmentError(f"{inner} is not contained in {outer}")
        return tuple.__new__(cls, (outer, inner))

    outer = property(itemgetter(0))
    inner = property(itemgetter(1))

    def __getnewargs__(self):  # pickle and copy rebuild through the constructor
        return tuple(self)

    @property
    def num_rows(self) -> int:
        return len(self.outer)

    def row_cols(self, row: int) -> range:
        """Column indices of the cells in `row` (1-based)."""
        return range(self.inner[row - 1] + 1, self.outer[row - 1] + 1)

    def cells(self) -> list:
        """All cells in row-major order (top to bottom, left to right)."""
        return [(r, c) for r in range(1, self.num_rows + 1) for c in self.row_cols(r)]

    def num_cells(self) -> int:
        return self.outer.size() - self.inner.size()

    def __repr__(self):
        return f"SkewShape({self.outer.parts}/{self.inner.parts})"


class RotatedShape(SkewShape):
    """Canonical right-justified embedding of a 180-degree rotated diagram.

    Row i from the bottom holds lam[i-1] cells; the bounding box has
    l(lam) rows and lam[0] columns, so the cell set is the rotation of
    the ordinary Young diagram of lam.  It is the same pair (outer, inner)
    as the plain skew shape with these cells, and equal to it.
    """

    __slots__ = ()

    def __new__(cls, lam):
        lam = Partition(lam)
        width = lam[0]
        return super().__new__(cls, (width,) * len(lam), tuple(width - p for p in lam[::-1]))

    @property
    def lam(self) -> Partition:
        outer, inner = self
        return Partition([outer[0] - inner[r] for r in reversed(range(len(outer)))])

    def __getnewargs__(self):
        return (self.lam,)

    def __repr__(self):
        return f"RotatedShape({self.lam.parts})"


def skew(outer, inner=()) -> SkewShape:
    """The skew diagram outer/inner."""
    return SkewShape(outer, inner)


def rotate(lam) -> RotatedShape:
    """The rotated diagram of lam in its canonical skew embedding.

    Shapes are immutable, so every caller with the same parts shares one.
    """
    return _rotated(Partition(lam))


_rotated = lru_cache(maxsize=1024)(RotatedShape)


def partitions(total, max_length=None, max_part=None):
    """Yield all partitions of `total`, largest first (descending lex)."""
    if max_length is None:
        max_length = total
    if max_part is None:
        max_part = total
    if total == 0:
        yield Partition(())
        return
    if max_length <= 0 or max_part <= 0:
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in partitions(total - first, max_length - 1, first):
            yield Partition((first,) + rest)


def partitions_up_to(max_size, max_length=None):
    """Yield all partitions with size at most `max_size`, smaller sizes first."""
    for total in range(max_size + 1):
        yield from partitions(total, max_length=max_length)
