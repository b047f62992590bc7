"""Partitions, skew Young diagrams, and 180-degree rotated shapes.

Cells are addressed as (row, col) pairs, 1-based, rows counted from the
top, matching English-notation diagrams.  The rest of the package speaks
of the rows of a rotated shape from the bottom.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ContainmentError


class Partition:
    """Weakly decreasing sequence of non-negative integers.

    Trailing zeros are stripped on construction, and indexing past the
    end returns 0, so comparisons never need explicit padding.
    """

    __slots__ = ("_parts",)

    def __init__(self, parts=()):
        if isinstance(parts, Partition):
            self._parts = parts._parts
            return
        parts = tuple(int(p) for p in parts)
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts not weakly decreasing: {parts}")
        if parts and parts[-1] < 0:
            raise ValueError(f"negative part in {parts}")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        self._parts = parts

    @property
    def parts(self) -> tuple:
        return self._parts

    def __len__(self):
        """Number of strictly positive parts."""
        return len(self._parts)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self._parts[i]
        return self._parts[i] if 0 <= i < len(self._parts) else 0

    def __iter__(self):
        return iter(self._parts)

    def __bool__(self):
        return bool(self._parts)

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self._parts == other._parts
        return NotImplemented

    def __hash__(self):
        return hash(self._parts)

    def __repr__(self):
        return f"Partition{self._parts}"

    def size(self) -> int:
        return sum(self._parts)

    def pad(self, length: int) -> tuple:
        """Parts as a tuple of exactly `length` entries."""
        if length < len(self._parts):
            raise ValueError(f"cannot pad {self} to length {length}")
        return self._parts + (0,) * (length - len(self._parts))


def as_partition(value) -> Partition:
    """Coerce a Partition or any iterable of parts to a Partition."""
    return value if isinstance(value, Partition) else Partition(value)


def contains(mu, lam) -> bool:
    """True when mu fits inside lam componentwise."""
    mu = as_partition(mu)
    lam = as_partition(lam)
    return all(mu[i] <= lam[i] for i in range(len(mu)))


class SkewShape:
    """Cells of an outer Young diagram with an inner diagram removed."""

    __slots__ = ("outer", "inner")

    def __init__(self, outer, inner=()):
        self.outer = as_partition(outer)
        self.inner = as_partition(inner)
        if not contains(self.inner, self.outer):
            raise ContainmentError(f"{self.inner} is not contained in {self.outer}")

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

    def __eq__(self, other):
        if isinstance(other, SkewShape):
            return self.outer == other.outer and self.inner == other.inner
        return NotImplemented

    def __hash__(self):
        return hash((self.outer, self.inner))

    def __repr__(self):
        return f"SkewShape({self.outer.parts}/{self.inner.parts})"


class RotatedShape(SkewShape):
    """Canonical right-justified embedding of a 180-degree rotated diagram.

    Row i from the bottom holds lam[i-1] cells; the bounding box has
    l(lam) rows and lam[0] columns, so the cell set is the rotation of
    the ordinary Young diagram of lam.
    """

    __slots__ = ("lam",)

    def __init__(self, lam):
        lam = as_partition(lam)
        height = len(lam)
        width = lam[0]
        outer = (width,) * height
        inner = tuple(width - lam[height - r] for r in range(1, height + 1))
        super().__init__(outer, inner)
        self.lam = lam

    def __repr__(self):
        return f"RotatedShape({self.lam.parts})"


def skew(outer, inner=()) -> SkewShape:
    """The skew diagram outer/inner."""
    return SkewShape(outer, inner)


def rotate(lam) -> RotatedShape:
    """The rotated diagram of lam in its canonical skew embedding.

    Shapes are immutable, so every caller with the same parts shares one.
    """
    return _rotated(as_partition(lam).parts)


@lru_cache(maxsize=1024)
def _rotated(parts: tuple) -> RotatedShape:
    return RotatedShape(parts)


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
            yield Partition((first,) + rest.parts)


def partitions_up_to(max_size, max_length=None):
    """Yield all partitions with size at most `max_size`, smaller sizes first."""
    for total in range(max_size + 1):
        yield from partitions(total, max_length=max_length)
