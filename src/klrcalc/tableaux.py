"""Set-valued fillings of skew shapes: predicates, words, weights, enumeration.

A filling assigns a non-empty set of positive integers to every cell of
its shape.  Semistandard means rows weakly increase (max of a cell is at
most the min of its right neighbour) and columns strictly increase.
Weights and words are plain tuples of ints.
"""

from __future__ import annotations

from functools import lru_cache

from .shapes import SkewShape, as_partition, skew


class SetValuedFilling:
    """Immutable assignment of entry sets to the cells of a skew shape.

    Semistandardness is a predicate, not a construction invariant, so
    invalid fillings can be represented and rejected explicitly.
    """

    __slots__ = ("shape", "entries")

    def __init__(self, shape: SkewShape, entries):
        clean = {}
        for cell, values in entries.items():
            vals = frozenset(int(v) for v in values)
            if not vals or min(vals) < 1:
                raise ValueError(f"cell {cell} needs a non-empty set of positive integers")
            clean[cell] = vals
        if set(clean) != set(shape.cells()):
            raise ValueError("entries do not cover the shape exactly")
        self.shape = shape
        self.entries = clean

    @classmethod
    def _trusted(cls, shape: SkewShape, entries: dict):
        """Wrap `entries` unchecked: the caller guarantees that they map
        exactly the cells of `shape` to non-empty frozensets of positive ints."""
        self = cls.__new__(cls)
        self.shape = shape
        self.entries = entries
        return self

    @classmethod
    def from_rows(cls, shape: SkewShape, rows):
        """Build from per-row lists of entry collections, top row first.

        `rows` must have one list per shape row, each listing the cells
        of that row left to right.
        """
        entries = {}
        if len(rows) != shape.num_rows:
            raise ValueError(f"expected {shape.num_rows} rows, got {len(rows)}")
        for r, row in enumerate(rows, start=1):
            cols = list(shape.row_cols(r))
            if len(row) != len(cols):
                raise ValueError(f"row {r} expects {len(cols)} cells, got {len(row)}")
            for c, values in zip(cols, row):
                entries[(r, c)] = values
        return cls(shape, entries)

    def rows(self) -> list:
        """Entry sets row by row, top to bottom, left to right."""
        return [[self.entries[(r, c)] for c in self.shape.row_cols(r)]
                for r in range(1, self.shape.num_rows + 1)]

    def cell(self, row: int, col: int) -> frozenset:
        return self.entries[(row, col)]

    def num_cells(self) -> int:
        return len(self.entries)

    def __eq__(self, other):
        if isinstance(other, SetValuedFilling):
            return self.shape == other.shape and self.entries == other.entries
        return NotImplemented

    def __hash__(self):
        return hash((self.shape, frozenset(self.entries.items())))

    def __repr__(self):
        body = "; ".join(
            ",".join("".join(str(v) for v in sorted(vals)) for vals in row)
            for row in self.rows())
        return f"<filling {self.shape!r} [{body}]>"


def is_semistandard(filling: SetValuedFilling) -> bool:
    """Rows weakly increase left to right, columns strictly increase downward."""
    shape = filling.shape
    for (r, c), vals in filling.entries.items():
        if shape.has_cell(r, c - 1):
            if max(filling.entries[(r, c - 1)]) > min(vals):
                return False
        if shape.has_cell(r - 1, c):
            if max(filling.entries[(r - 1, c)]) >= min(vals):
                return False
    return True


def weight(filling: SetValuedFilling, n=None) -> tuple:
    """Multiplicity vector: component i-1 counts the cells containing i."""
    top = max((max(vals) for vals in filling.entries.values()), default=0)
    if n is None:
        n = top
    elif top > n:
        raise ValueError(f"entry {top} exceeds requested length {n}")
    counts = [0] * n
    for vals in filling.entries.values():
        for v in vals:
            counts[v - 1] += 1
    return tuple(counts)


def total_entries(filling: SetValuedFilling) -> int:
    """Sum of entry-set sizes over all cells."""
    return sum(len(vals) for vals in filling.entries.values())


def column_word(filling: SetValuedFilling) -> tuple:
    """Columns right to left; in a column top to bottom; in a cell decreasing."""
    shape = filling.shape
    width = shape.outer[0] if shape.outer else 0
    word = []
    for c in range(width, 0, -1):
        for r in range(1, shape.num_rows + 1):
            if shape.has_cell(r, c):
                word.extend(sorted(filling.entries[(r, c)], reverse=True))
    return tuple(word)


def row_word(filling: SetValuedFilling) -> tuple:
    """Rows top to bottom; in a row right to left; in a cell decreasing."""
    shape = filling.shape
    word = []
    for r in range(1, shape.num_rows + 1):
        for c in reversed(shape.row_cols(r)):
            word.extend(sorted(filling.entries[(r, c)], reverse=True))
    return tuple(word)


def is_dominant(word) -> bool:
    """Every prefix holds at least as many i's as (i+1)'s, for all i."""
    counts = {}
    for v in word:
        counts[v] = counts.get(v, 0) + 1
        if v > 1 and counts[v] > counts.get(v - 1, 0):
            return False
    return True


def superstandard(lam) -> SetValuedFilling:
    """The unique tableau whose shape and weight both equal lam."""
    lam = as_partition(lam)
    shape = skew(lam, ())
    return SetValuedFilling(shape, {(r, c): (r,) for (r, c) in shape.cells()})


def is_lambda_dominant(filling: SetValuedFilling, lam) -> bool:
    """The row word, prefixed by the row word of superstandard(lam), is dominant."""
    seed = row_word(superstandard(lam))
    return is_dominant(seed + row_word(filling))


@lru_cache(maxsize=4096)
def _mask_set(mask: int) -> frozenset:
    """The values whose bits are set in `mask` (value v is bit v-1)."""
    return frozenset(v + 1 for v in range(mask.bit_length()) if mask >> v & 1)


def enumerate_svt(shape: SkewShape, n: int, weight_filter=None, singleton=False,
                  max_entries=None, dominant_for=None):
    """Yield every semistandard set-valued filling of `shape` with entries in [n].

    The order is deterministic: cells are filled row-major and candidate
    entry sets are tried in increasing bitmask order (value v is bit v-1).
    `weight_filter` restricts the stream to fillings with exactly that
    weight, `singleton` to one entry per cell, `max_entries` bounds the
    total number of entries, and `dominant_for=lam` keeps only the
    fillings that `is_lambda_dominant(f, lam)` accepts.  Infeasible
    partial fillings are pruned by per-value budgets and by how much
    weight the remaining cells can still absorb.

    Dominance is pruned while cells are filled.  A semistandard row reads
    weakly decreasing in the row word, so when the word reaches a v of
    row r the only (v-1)s before it are the lam_{v-1} of the seed and
    those in the rows above r.  A cell of row r may therefore take an
    entry v >= 2 only while lam_v + #v placed so far < lam_{v-1} + #(v-1)
    in rows above r.  The cut is exact: counts only grow and the right
    side changes only at a row end, so a violated cut cannot be repaired,
    and a full filling that passed every cut has a dominant word, since
    inside row r the excess of v over v-1 peaks after its last v.  The
    stream is the post-filtered stream, in the same order.
    """
    n = int(n)
    cells = shape.cells()
    ncells = len(cells)

    target = None
    target_sum = 0
    if weight_filter is not None:
        target = tuple(int(t) for t in weight_filter)
        if any(t < 0 for t in target):
            return
        target_sum = sum(target)

    if ncells == 0:
        if target is None or target_sum == 0:
            yield SetValuedFilling(shape, {})
        return
    if n <= 0:
        return

    index = {cell: i for i, cell in enumerate(cells)}
    left = [index.get((r, c - 1)) for (r, c) in cells]
    up = [index.get((r - 1, c)) for (r, c) in cells]
    lam = None if dominant_for is None else as_partition(dominant_for)
    row_start = [i == 0 or cells[i][0] != cells[i - 1][0] for i in range(ncells)]

    full = (1 << n) - 1
    per_cell = 1 if singleton else n
    masks = [0] * ncells
    counts = [0] * (n + 1)

    def fill(pos, total, room):
        # room[v], set at each row start, is the most v's the filling may
        # hold by the end of this row: lam_{v-1} + #(v-1) above, minus lam_v
        if pos == ncells:
            if target is None or total == target_sum:
                yield SetValuedFilling._trusted(
                    shape, {cells[i]: _mask_set(masks[i]) for i in range(ncells)})
            return
        lo = 1
        li = left[pos]
        if li is not None:
            lo = max(lo, masks[li].bit_length())
        ui = up[pos]
        if ui is not None:
            lo = max(lo, masks[ui].bit_length() + 1)
        if lo > n:
            return
        if target is None:
            allowed = full & ~((1 << (lo - 1)) - 1)
        else:
            allowed = 0
            for v in range(lo, min(n, len(target)) + 1):
                if counts[v] < target[v - 1]:
                    allowed |= 1 << (v - 1)
        if lam is not None:
            if row_start[pos]:
                room = [0, 0] + [lam[v - 2] + counts[v - 1] - lam[v - 1]
                                 for v in range(2, n + 1)]
            for v in range(max(lo, 2), n + 1):
                if counts[v] >= room[v]:
                    allowed &= ~(1 << (v - 1))
        if not allowed:
            return
        remaining = ncells - pos - 1
        if singleton:
            candidates = [allowed & -allowed]
            rest = allowed & (allowed - 1)
            while rest:
                candidates.append(rest & -rest)
                rest &= rest - 1
        else:
            candidates = []
            m = (-allowed) & allowed
            while m:
                candidates.append(m)
                m = (m - allowed) & allowed
        for m in candidates:
            size = bin(m).count("1")
            new_total = total + size
            if max_entries is not None and new_total + remaining > max_entries:
                continue
            if target is not None:
                leftover = target_sum - new_total
                if leftover < remaining or leftover > remaining * per_cell:
                    continue
            masks[pos] = m
            mm = m
            while mm:
                counts[(mm & -mm).bit_length()] += 1
                mm &= mm - 1
            yield from fill(pos + 1, new_total, room)
            mm = m
            while mm:
                counts[(mm & -mm).bit_length()] -= 1
                mm &= mm - 1
            masks[pos] = 0

    yield from fill(0, 0, None)
