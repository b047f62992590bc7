"""Set-valued fillings of skew shapes: predicates, words, weights, enumeration.

A filling assigns a non-empty set of positive integers, at most
`MAX_ENTRY`, to every cell of its shape, and keeps each set as a bitmask.
Semistandard means rows weakly increase (max of a cell is at most the min
of its right neighbour) and columns strictly increase.  Weights and words
are plain tuples of ints.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

from .shapes import Partition, SkewShape, skew

# the largest entry of a filling, and of n in the inverse bijections: masks grow with it
MAX_ENTRY = 1024


class SetValuedFilling:
    """Immutable assignment of entry sets to the cells of a skew shape.

    `masks` holds one int per cell in `shape.cells()` order, value v as
    bit v-1, the form `enumerate_svt` searches in; `entries` is a view.
    Semistandardness is a predicate, not a construction invariant, so
    invalid fillings can be represented and rejected explicitly.
    """

    __slots__ = ("shape", "masks")

    def __init__(self, shape: SkewShape, entries):
        clean = {}
        for cell, values in entries.items():
            vals = frozenset(int(v) for v in values)
            if not vals or min(vals) < 1:
                raise ValueError(f"cell {cell} needs a non-empty set of positive integers")
            if max(vals) > MAX_ENTRY:
                raise ValueError(f"cell {cell} holds an entry above {MAX_ENTRY}")
            clean[cell] = sum(1 << (v - 1) for v in vals)
        cells = _layout(shape)[0]
        if clean.keys() != set(cells):
            raise ValueError("entries do not cover the shape exactly")
        self.shape = shape
        self.masks = tuple(clean[cell] for cell in cells)

    @classmethod
    def _trusted(cls, shape: SkewShape, masks: tuple):
        """Wrap `masks` unchecked: the caller guarantees one non-zero int
        per cell of `shape`, in `shape.cells()` order."""
        self = cls.__new__(cls)
        self.shape = shape
        self.masks = masks
        return self

    @classmethod
    def from_rows(cls, shape: SkewShape, rows):
        """Build from per-row lists of entry collections, top row first.

        `rows` must have one list per shape row, each listing the cells
        of that row left to right.
        """
        if len(rows) != shape.num_rows:
            raise ValueError(f"expected {shape.num_rows} rows, got {len(rows)}")
        cells, _, _, slices = _layout(shape)
        entries = {}
        for r, (row, s) in enumerate(zip(rows, slices), start=1):
            if len(row) != len(cells[s]):
                raise ValueError(f"row {r} expects {len(cells[s])} cells, got {len(row)}")
            entries.update(zip(cells[s], row))
        return cls(shape, entries)

    @property
    def entries(self) -> dict:
        """{(row, col): frozenset of values}, in `shape.cells()` order."""
        return dict(zip(_layout(self.shape)[0], map(frozenset, map(_values, self.masks))))

    def rows(self) -> list:
        """Entry sets row by row, top to bottom, left to right."""
        return [[frozenset(_values(m)) for m in self.masks[s]] for s in _layout(self.shape)[3]]

    def num_cells(self) -> int:
        return len(self.masks)

    def __eq__(self, other):
        if isinstance(other, SetValuedFilling):
            return self.masks == other.masks and self.shape == other.shape
        return NotImplemented

    def __hash__(self):
        # equality also reads the shape; the fillings of one set mostly share it
        return hash(self.masks)

    def __repr__(self):
        body = "; ".join(",".join("".join(map(str, _values(m))) for m in self.masks[s])
                         for s in _layout(self.shape)[3])
        return f"<filling {self.shape!r} [{body}]>"


@lru_cache(maxsize=1024)
def _layout(shape: SkewShape) -> tuple:
    """(cells, left, up, rows) of `shape`, built once: its cells in row-major
    order, the index of each one's left and upper neighbour (None if absent),
    and per shape row, top to bottom, the slice of its cell indices."""
    cells = tuple(shape.cells())
    index = {cell: i for i, cell in enumerate(cells)}
    ends = tuple(accumulate(len(shape.row_cols(r)) for r in range(1, shape.num_rows + 1)))
    return (cells, tuple(index.get((r, c - 1)) for r, c in cells),
            tuple(index.get((r - 1, c)) for r, c in cells), tuple(map(slice, (0,) + ends, ends)))


def is_semistandard(filling: SetValuedFilling) -> bool:
    """Rows weakly increase left to right, columns strictly increase downward."""
    masks = filling.masks
    _, left, up, _ = _layout(filling.shape)
    for m, li, ui in zip(masks, left, up):
        low = (m & -m).bit_length()  # the smallest value of the cell
        if li is not None and masks[li].bit_length() > low:
            return False
        if ui is not None and masks[ui].bit_length() >= low:
            return False
    return True


def weight(filling: SetValuedFilling, n=None) -> tuple:
    """Multiplicity vector: component i-1 counts the cells containing i."""
    masks = filling.masks
    top = max(masks, default=0).bit_length()  # the largest entry
    counts = [0] * (top if n is None else n)
    if top > len(counts):
        raise ValueError(f"entry {top} exceeds requested length {n}")
    for m in masks:
        while m:
            counts[(m & -m).bit_length() - 1] += 1
            m &= m - 1
    return tuple(counts)


def total_entries(filling: SetValuedFilling) -> int:
    """Sum of entry-set sizes over all cells."""
    return sum(map(int.bit_count, filling.masks))


def column_word(filling: SetValuedFilling) -> tuple:
    """Columns right to left; in a column top to bottom; in a cell decreasing."""
    cells = _layout(filling.shape)[0]
    word = []
    for i in sorted(range(len(cells)), key=lambda i: (-cells[i][1], cells[i][0])):
        word.extend(_values(filling.masks[i])[::-1])
    return tuple(word)


def row_word(filling: SetValuedFilling) -> tuple:
    """Rows top to bottom; in a row right to left; in a cell decreasing."""
    masks = filling.masks
    word = []
    for s in _layout(filling.shape)[3]:
        for m in reversed(masks[s]):
            word.extend(_values(m)[::-1])
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
    shape = skew(lam, ())
    return SetValuedFilling(shape, {(r, c): (r,) for (r, c) in shape.cells()})


def is_lambda_dominant(filling: SetValuedFilling, lam) -> bool:
    """The row word, prefixed by the row word of superstandard(lam), is dominant."""
    return is_dominant(row_word(superstandard(lam)) + row_word(filling))


def _values(mask: int) -> list:
    """The values whose bits are set in `mask` (value v is bit v-1), increasing."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return out


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
    L), or one copy per cell without a weight (w = n).  A cell holds v
    at most once, so that one never binds, and a search with neither a
    weight nor `dominant_for` keeps no counts.  With
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
    if n > MAX_ENTRY:
        raise ValueError(f"n={n} is above the largest entry {MAX_ENTRY}")
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
    lam = None if dominant_for is None else Partition(dominant_for) + (0,) * n
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
        # one node, the filling of the cells before pos: (limit, total,
        # the masks cell pos can take next, increasing)
        if lam is not None and row_start[pos]:
            limit = budget[:2] + [min(budget[v], lam[v - 2] + counts[v - 1] - lam[v - 1])
                                  for v in range(2, n + 1)]
            if target is not None and row_cut(pos, limit):
                return limit, total, iter(())
        lo = 1
        li = left[pos]
        if li is not None:
            lo = max(lo, masks[li].bit_length())
        ui = up[pos]
        if ui is not None:
            lo = max(lo, masks[ui].bit_length() + 1)
        # cut 2 for the child: a value the later cells cannot take enough
        # copies of is forced into this cell
        allowed, forced = -1, 0
        if limit is not None:
            later = cap[pos + 1]
            allowed = 0
            for v in range(1, w + 1):
                if counts[v] < limit[v]:
                    allowed |= 1 << (v - 1)
                if target is not None and target[v - 1] - counts[v] > later[v]:
                    forced |= 1 << (v - 1)
        allowed &= span[pos] & ~((1 << (lo - 1)) - 1)
        if not allowed or forced & ~allowed:
            return limit, total, iter(())
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
        if target is not None:
            # the leftover total gives each later cell 1 to per_cell entries;
            # a candidate holds 1 to |allowed| entries
            remaining = ncells - pos - 1
            most = target_sum - total - remaining
            least = most - remaining * (per_cell - 1)
            if least > 1 or most < allowed.bit_count():
                candidates = [m for m in candidates if least <= m.bit_count() <= most]
        return limit, total, iter(candidates)

    if not ncells:
        if not target_sum:
            yield SetValuedFilling._trusted(shape, ())
        return
    # an explicit stack of nodes, one per filled cell: a generator nested
    # per cell would bound the cell count by the recursion limit.  Cell pos
    # keeps its mask, and its counts, until its next mask replaces it.
    # No limit, and no counts, where the limit cannot bind.
    counted = target is not None or lam is not None
    stack = [fill(0, 0, budget if counted else None)]
    last = ncells - 1
    pos = 0
    while pos >= 0:
        limit, total, children = stack[pos]
        m = masks[pos]
        if counted:
            while m:
                counts[(m & -m).bit_length()] -= 1
                m &= m - 1
        m = masks[pos] = next(children, 0)
        if not m:
            stack.pop()
            pos -= 1
            continue
        total += m.bit_count()
        if counted:
            mm = m
            while mm:
                counts[(mm & -mm).bit_length()] += 1
                mm &= mm - 1
        if pos < last:
            stack.append(fill(pos + 1, total, limit))
            pos += 1
        else:  # with a target, the last cell takes only masks that meet its sum
            yield SetValuedFilling._trusted(shape, tuple(masks))


# searches meet the same few shapes again and again
@lru_cache(maxsize=1024)
def _plan(shape: SkewShape, w: int) -> tuple:
    """(cells, left, up, row_start, span, cap, row_of, upto): `_layout`'s
    first three, then the tables of `enumerate_svt`'s cuts for values 1..w,
    built in one pass and kept as tuples, so that every search shares them.

    `row_start[i]` says whether cell i opens its row, `span[i]` is the
    bitmask of the values cell i can hold in a strictly increasing column,
    `cap[i][v]` the number of distinct columns among cells i.. whose span
    holds v, `row_of[i]` the index of cell i's row among the rows with
    cells, and `upto[k][v]` the number of cells in the rows before row k
    whose span holds v (k = 0 .. the number of rows).
    """
    cells, left, up, _ = _layout(shape)
    # column c holds rows #(inner parts >= c) + 1 .. #(outer parts >= c)
    outer_h, inner_h = ([sum(p >= c for p in parts) for c in range(shape.outer[0] + 1)]
                        for parts in shape)
    row_start, span, row_of = [], [], []
    upto = [[0] * (w + 1)]
    for i, (r, c) in enumerate(cells):
        above = r - 1 - inner_h[c]
        top = w - outer_h[c] + r
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
    return (cells, left, up, tuple(row_start), tuple(span), tuple(cap),
            tuple(row_of), tuple(map(tuple, upto)))
