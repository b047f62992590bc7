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
    """Rows weakly increase left to right, columns strictly increase downward.

    A neighbour is a cell of the shape exactly when it is a key of `entries`."""
    entries = filling.entries
    for (r, c), vals in entries.items():
        left = entries.get((r, c - 1))
        if left is not None and max(left) > min(vals):
            return False
        above = entries.get((r - 1, c))
        if above is not None and max(above) >= min(vals):
            return False
    return True


def weight(filling: SetValuedFilling, n=None) -> tuple:
    """Multiplicity vector: component i-1 counts the cells containing i."""
    values = filling.entries.values()
    counts = [0] * (max(map(max, values), default=0) if n is None else n)
    try:
        for vals in values:
            for v in vals:
                counts[v - 1] += 1
    except IndexError:  # entries are positive, so some entry exceeds n
        top = max(map(max, values))
        raise ValueError(f"entry {top} exceeds requested length {n}") from None
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
            vals = filling.entries.get((r, c))
            if vals is not None:
                word.extend(sorted(vals, reverse=True))
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


@lru_cache(maxsize=1024)
def _seed_word(lam) -> tuple:
    """Row word of superstandard(lam), built once per partition."""
    return row_word(superstandard(lam))


def is_lambda_dominant(filling: SetValuedFilling, lam) -> bool:
    """The row word, prefixed by the row word of superstandard(lam), is dominant."""
    return is_dominant(_seed_word(as_partition(lam)) + row_word(filling))


@lru_cache(maxsize=4096)
def _mask_set(mask: int) -> frozenset:
    """The values whose bits are set in `mask` (value v is bit v-1)."""
    return frozenset(v + 1 for v in range(mask.bit_length()) if mask >> v & 1)


def enumerate_svt(shape: SkewShape, n: int, weight_filter=None, singleton=False,
                  dominant_for=None):
    """Yield every semistandard set-valued filling of `shape` with entries in [n].

    The order is deterministic: cells are filled row-major and candidate
    entry sets are tried in increasing bitmask order (value v is bit v-1).
    `weight_filter` restricts the stream to fillings with exactly that
    weight, `singleton` to one entry per cell, and `dominant_for=lam`
    keeps only the fillings that `is_lambda_dominant(f, lam)` accepts.
    Every cut below removes only partial fillings that have no
    completion, so the stream is the post-filtered stream, in the same
    order.

    One per-value limit bounds how many copies of v a filling holds: a
    cell may take v only while fewer than limit[v] are placed.  It is
    the weight budget (none beyond w = min(n, L) for a weight of length
    L), or one copy per cell without a weight (w = n).  With
    `dominant_for`, each row start lowers it to min(budget, room[v]),
    room[v] = lam_{v-1} + #(v-1) in the rows above - lam_v for v >= 2.
    A semistandard row reads weakly decreasing in the row word, so when
    the word reaches a v of row r the only (v-1)s before it are the
    lam_{v-1} of the seed and those in the rows above r; room[v] is the
    most v's the word allows by the end of the row.  The bound is exact:
    counts only grow and room changes only at a row start, so a broken
    bound cannot be repaired, and a full filling that kept it has a
    dominant word, since inside row r the excess of v over v-1 peaks
    after its last v.

    Three cuts sharpen the limit, each a necessary condition on every
    completion:

    1. Column range, in every search.  The cells of a skew column are
       contiguous and strictly increase, so a cell with a cells above it
       and b below it holds only values in [a+1, w-b].
    2. Value capacity, with a weight.  A column holds a value at most
       once, so the copies of v still needed can be at most the number
       of distinct columns among the unfilled cells whose range contains
       v.  It is checked for every child before the search descends: a
       value whose need exceeds the capacity of the cells after this one
       must go into this cell.  Beside it, the leftover total gives each
       remaining cell one to n entries, and a target that asks for a
       value above n exits at once.
    3. Row-wise dominance capacity, with a weight and `dominant_for`, at
       each row start.  It is a lookahead over the rows still to come,
       not a second copy of the limit.  If `must` copies of v have to
       land in rows current..k because the rows after k cannot take the
       rest, then #v at the end of row k is at least counts[v] + must,
       and its bound there is limit[v] plus the (v-1)s placed in rows
       current..k-1, which is at most min(need of v-1, cells of those
       rows that can hold v-1).
    """
    n = int(n)
    target, target_sum, w = None, 0, n
    if weight_filter is not None:
        target = tuple(int(t) for t in weight_filter)
        if any(t < 0 for t in target) or any(target[n:]):
            return
        target_sum = sum(target)
        w = min(n, len(target))

    cells, left, up, row_start, span, cap, row_of, upto = _plan(shape, w)
    ncells = len(cells)
    budget = [0] + ([ncells] * n if target is None else list(target[:w]) + [0] * (n - w))
    if not all(span) or target is not None and any(
            target[v - 1] > cap[0][v] for v in range(1, w + 1)):
        return

    # lam padded with zeros, so the room of every v can index it directly
    lam = None if dominant_for is None else as_partition(dominant_for).parts + (0,) * n
    per_cell = 1 if singleton else n
    masks = [0] * ncells
    counts = [0] * (n + 1)

    def row_cut(pos, limit):
        # cut 3: True when some v cannot fit under its dominance bound
        k0 = row_of[pos]
        for v in range(2, w + 1):
            need = target[v - 1] - counts[v]
            if not need:
                continue
            prev_need = target[v - 2] - counts[v - 1]
            base = upto[k0][v - 1]
            short = need - upto[-1][v]
            for k in range(k0, len(upto) - 1):
                must = short + upto[k + 1][v]  # need minus the cells after row k
                if must > 0 and counts[v] + must > limit[v] + min(
                        prev_need, upto[k][v - 1] - base):
                    return True
        return False

    def fill(pos, total, limit):
        if pos == ncells:
            if target is None or total == target_sum:
                yield SetValuedFilling._trusted(
                    shape, {cells[i]: _mask_set(masks[i]) for i in range(ncells)})
            return
        if lam is not None and row_start[pos]:
            limit = budget[:2] + [min(budget[v], lam[v - 2] + counts[v - 1] - lam[v - 1])
                                  for v in range(2, n + 1)]
            if target is not None and row_cut(pos, limit):
                return
        lo = 1
        li = left[pos]
        if li is not None:
            lo = max(lo, masks[li].bit_length())
        ui = up[pos]
        if ui is not None:
            lo = max(lo, masks[ui].bit_length() + 1)
        # cut 2 for the child: a value the later cells cannot take enough
        # copies of is forced into this cell
        later = cap[pos + 1]
        allowed = forced = 0
        for v in range(1, w + 1):
            if counts[v] < limit[v]:
                allowed |= 1 << (v - 1)
            if target is not None and target[v - 1] - counts[v] > later[v]:
                forced |= 1 << (v - 1)
        allowed &= span[pos] & ~((1 << (lo - 1)) - 1)
        if not allowed or forced & ~allowed:
            return
        remaining = ncells - pos - 1
        if singleton:
            # the single bits of allowed; only forced itself when it is set
            candidates = [1 << v for v in range(n)
                          if allowed >> v & 1 and forced in (0, 1 << v)]
        else:
            # the submasks of allowed that contain forced, increasing
            free = allowed & ~forced
            candidates = [forced] if forced else []
            m = (-free) & free
            while m:
                candidates.append(m | forced)
                m = (m - free) & free
        for m in candidates:
            size = bin(m).count("1")
            new_total = total + size
            if target is not None:
                leftover = target_sum - new_total
                if leftover < remaining or leftover > remaining * per_cell:
                    continue
            masks[pos] = m
            mm = m
            while mm:
                counts[(mm & -mm).bit_length()] += 1
                mm &= mm - 1
            yield from fill(pos + 1, new_total, limit)
            mm = m
            while mm:
                counts[(mm & -mm).bit_length()] -= 1
                mm &= mm - 1
            masks[pos] = 0

    yield from fill(0, 0, budget)


# searches meet the same few shapes again and again
@lru_cache(maxsize=1024)
def _plan(shape: SkewShape, w: int) -> tuple:
    """(cells, left, up, row_start, span, cap, row_of, upto): the cells of
    `shape` and the tables of `enumerate_svt`'s cuts for values 1..w, built
    in one pass and kept as tuples, so that every search shares them.

    `left[i]` and `up[i]` index cell i's neighbours (None if absent),
    `row_start[i]` says whether cell i opens its row, `span[i]` is the
    bitmask of the values cell i can hold in a strictly increasing column,
    `cap[i][v]` the number of distinct columns among cells i.. whose span
    holds v, `row_of[i]` the index of cell i's row among the rows with
    cells, and `upto[k][v]` the number of cells in the rows before row k
    whose span holds v (k = 0 .. the number of rows).
    """
    cells = tuple(shape.cells())
    outer, inner = shape.outer.parts, shape.inner.parts
    index, left, up, row_start, span, row_of = {}, [], [], [], [], []
    upto = [[0] * (w + 1)]
    for i, (r, c) in enumerate(cells):
        index[r, c] = i
        left.append(index.get((r, c - 1)))
        up.append(index.get((r - 1, c)))
        # column c holds rows #(inner parts >= c) + 1 .. #(outer parts >= c)
        above = r - 1 - sum(p >= c for p in inner)
        top = w - sum(p >= c for p in outer[r:])
        span.append(((1 << top) - 1) >> above << above if top > above else 0)
        row_start.append(i == 0 or r != cells[i - 1][0])
        if row_start[-1]:
            upto.append(list(upto[-1]))  # counts this row on top of those before
        row_of.append(len(upto) - 2)
        for v in range(above + 1, top + 1):
            upto[-1][v] += 1

    running = [0] * (w + 1)
    cap = [tuple(running)]
    seen = {}
    for i in range(len(cells) - 1, -1, -1):
        c = cells[i][1]
        new = span[i] & ~seen.get(c, 0)
        seen[c] = seen.get(c, 0) | span[i]
        while new:
            running[(new & -new).bit_length()] += 1
            new &= new - 1
        cap.append(tuple(running))
    cap.reverse()
    return (cells, tuple(left), tuple(up), tuple(row_start), tuple(span), tuple(cap),
            tuple(row_of), tuple(map(tuple, upto)))
