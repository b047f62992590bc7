"""Counting rules for the structure constants and the witness bijection.

Two combinatorial rules compute the same coefficient: counting dominant
set-valued tableaux of straight shape (`coeff_buch`) and counting
dominant set-valued fillings of the rotated shape (`coeff_contra`).
`gamma` maps a witness of the first kind to one of the second and
`gamma_inverse` goes back, both returning a full trace of every
intermediate object so a run can be checked line by line; their count
triangles N and N_up sum the rows of one `_copy_table` per pattern.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate, starmap, zip_longest
from operator import add, itemgetter, sub

from . import grothendieck
from .errors import DegreeError, DomainError, InternalInvariantError
from .gtpatterns import (GTPattern, MarkedGTPattern, check_marks, omega,
                         omega_inverse, upsilon, upsilon_inverse)
from .shapes import Partition, rotate, skew
from .tableaux import SetValuedFilling, _layout, enumerate_svt, weight


class CoefficientQuery(namedtuple("CoefficientQuery", "lam mu nu n")):
    """Which coefficient: the nu term of the product indexed by lam and mu,
    kept as the tuple (lam, mu, nu, n) of its fields.

    `n` is the common ambient size for patterns and fillings; it
    defaults to the largest partition length and the counts are stable
    under raising it further.  Pickle, copy and `_replace` rebuild
    through the constructor, which checks the fields.
    """

    __slots__ = ()

    def __new__(cls, lam, mu, nu, n=None):
        lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
        longest = max(len(lam), len(mu), len(nu))
        n = longest if n is None else int(n)
        if longest > n:
            raise DomainError(f"n={n} smaller than a partition length")
        return tuple.__new__(cls, (lam, mu, nu, n))

    @classmethod
    def _make(cls, fields):  # `_replace` builds through `_make`
        return cls(*fields)

    @property
    def cap(self) -> int:
        """max(|nu|, |lam| + |mu|): the degree to which the oracle peels."""
        return max(self.nu.size(), self.lam.size() + self.mu.size())

    @property
    def sign(self) -> int:
        """(-1)^{|nu|-|lam|-|mu|}, the sign of the nu term of the G-basis product."""
        return -1 if (self.nu.size() - self.lam.size() - self.mu.size()) % 2 else 1


def _side(q: CoefficientQuery, straight: bool):
    """(sub, shape, target) of one witness family, the sub-dominant fillings
    of shape with weight nu - sub: straight, lam and mu; rotated, mu and
    rotated lam.  target is nu - sub, or None when an entry is negative."""
    sub, shape = (q.lam, skew(q.mu, ())) if straight else (q.mu, rotate(q.lam))
    target = tuple(a - b for a, b in zip_longest(q.nu, sub, fillvalue=0))
    return sub, shape, None if any(d < 0 for d in target) else target


def _witnesses(q: CoefficientQuery, straight: bool):
    """Yield the family `_side` describes, as `enumerate_svt` orders it."""
    sub, shape, target = _side(q, straight)
    if target is not None:
        yield from enumerate_svt(shape, max(1, len(target)), weight_filter=target,
                                 dominant_for=sub)


def buch_tableaux(query: CoefficientQuery):
    """Yield the lam-dominant fillings of straight shape mu with weight nu-lam."""
    yield from _witnesses(query, straight=True)


def coeff_buch(query: CoefficientQuery) -> int:
    """Number of dominant straight-shape witnesses."""
    return sum(1 for _ in buch_tableaux(query))


def contra_tableaux(query: CoefficientQuery):
    """Yield the mu-dominant fillings of the rotated lam shape with weight nu-mu."""
    yield from _witnesses(query, straight=False)


def coeff_contra(query: CoefficientQuery) -> int:
    """Number of dominant rotated-shape witnesses."""
    return sum(1 for _ in contra_tableaux(query))


def witness_lists(lam, mu, n: int) -> dict:
    """Both witness families of every nu of the lam, mu product, from one
    search per side.

    Runs the straight-shape search (shape mu, lam-dominant) and the
    rotated-shape search (rotated lam, mu-dominant) once each with entries
    in [n].  Returns `{nu: (buch, contra)}`: the lists `buch_tableaux` and
    `contra_tableaux` yield for `CoefficientQuery(lam, mu, nu, n)`, in the
    same order.  A filling f files under nu = sub + weight(f), sub being
    lam on the straight side and mu on the rotated one; nu is a partition
    because f is sub-dominant, so the key is built unchecked.  A nu with
    no witness has no key.
    """
    lam, mu, n = Partition(lam), Partition(mu), int(n)
    if max(len(lam), len(mu)) > n:
        raise DomainError(f"n={n} smaller than a partition length")
    lists = {}
    for side, (sub, shape) in enumerate(((lam, skew(mu, ())), (mu, rotate(lam)))):
        for f in enumerate_svt(shape, n, dominant_for=sub):
            # no trailing zero: sub has none, and weight(f) ends at f's top entry
            nu = Partition._trusted(starmap(add, zip_longest(sub, weight(f), fillvalue=0)))
            lists.setdefault(nu, ([], []))[side].append(f)
    return lists


def coeff_classical(query: CoefficientQuery) -> int:
    """The one-entry-per-cell count, defined only in the degree-matching case.
    There the weight nu - mu sums to |lam|, the cells of the rotated lam, so
    every contra witness holds one entry per cell: the count is `coeff_contra`."""
    if query.nu.size() != query.lam.size() + query.mu.size():
        raise DegreeError(
            f"|nu|={query.nu.size()} != |lam|+|mu|="
            f"{query.lam.size() + query.mu.size()}")
    return coeff_contra(query)


def coeff_oracle(query: CoefficientQuery) -> int:
    """Coefficient read off the polynomial product, sign normalized.

    Computed entirely by monomial arithmetic and basis peeling, so it is
    independent of the two counting rules.  The sign normalization makes
    a sign bug show up as a disagreement instead of hiding in abs().
    """
    expansion = grothendieck.expand_product(query.lam, query.mu, query.n, query.cap)
    return query.sign * expansion.coefficient(query.nu)


class GammaTrace(namedtuple(
        "GammaTrace", "direction query tableau tableau_pattern tableau_marks contra_pattern "
        "contra_marks contratableau prefix_counts suffix_counts cumulative_rows slack_rows "
        "column_ops", defaults=(None,) * 5)):
    """Every intermediate object of one bijection run, kept as the tuple of
    its fields.

    Forward runs fill `prefix_counts`; inverse runs fill the suffix
    counts, the cumulative triangle, the slack triangle derived from it,
    and the column decrement operations applied to reach the straight
    side's pattern.
    """

    __slots__ = ()


def _copy_table(marked: MarkedGTPattern) -> list:
    """table[i-1][j-1], j <= i: the copies of pass label i in pattern row j
    of `marked`'s filling, x(i, j) - x(i-1, j) plus one for a mark (i, j)."""
    pattern, marks = marked
    table = [list(map(sub, row, above + (0,))) for row, above in zip(pattern, ((),) + pattern)]
    for (i, j) in marks:
        table[i - 1][j - 1] += 1
    return table


def _require_witness(filling, q: CoefficientQuery, what: str, error, *, straight: bool):
    """Raise `error` unless `filling` is a witness of `q`: on the straight
    side a lam-dominant filling of shape mu with weight nu - lam, on the
    rotated side a mu-dominant filling of rotated lam with weight nu - mu.
    A negative entry of nu - base is named first, then a wrong shape, then
    the first check `_witness_fault`'s one scan of the masks finds failed."""
    base = q.lam if straight else q.mu
    # a shape is the pair (outer, inner), so (mu, ()) is skew(mu, ())
    shape_ok = filling.shape == ((q.mu, ()) if straight else rotate(q.lam))
    fault = _witness_fault(filling, base, q.nu, q.n) if shape_ok else None
    if shape_ok and fault is None:
        return
    _, shape, target = _side(q, straight)
    if target is None:
        raise error(f"nu - {'lam' if straight else 'mu'} has a negative entry")
    if not shape_ok:
        raise error(f"{what}: shape {filling.shape!r} != {shape!r}")
    raise error(f"{what}: {fault}")


def _witness_fault(filling, base, nu, n: int):
    """None if `filling`, of the witness shape, is a witness, else the first
    check it fails, worded: semistandard, entries at most n, weight nu - base,
    base-dominant.  One scan of the masks in row-word order, counts preset to
    base: a cell that breaks against its left or upper neighbour returns at
    once, as semistandardness outranks the rest; an entry above n or a
    dominance break only sets a flag, as a later cell may still break."""
    masks = filling.masks
    _, left, up, rows = _layout(filling.shape)
    counts = [0, *base, *(0,) * (n - len(base))]
    exceeds = broken = False
    for s in rows:
        for i in range(s.stop - 1, s.start - 1, -1):
            m, li, ui = masks[i], left[i], up[i]
            low = (m & -m).bit_length()  # the smallest value of the cell
            if li is not None and masks[li].bit_length() > low \
                    or ui is not None and masks[ui].bit_length() >= low:
                return "not semistandard"
            if m.bit_length() > n:
                exceeds = True  # it outranks the weight and dominance: leave m uncounted
                continue
            while m:
                v = m.bit_length()
                m ^= 1 << v - 1
                counts[v] += 1
                if v > 1 and counts[v] > counts[v - 1]:
                    broken = True
    if exceeds:
        return f"entries exceed n={n}"
    if counts != [0, *nu, *(0,) * (n - len(nu))]:
        got = tuple(map(sub, counts[1:], base.pad(n)))
        return f"weight {got} != {tuple(starmap(sub, zip_longest(nu, base, fillvalue=0)))}"
    return f"not {tuple(base)}-dominant" if broken else None


def _marked_pattern(rows: tuple, marks, what: str, expand) -> tuple:
    """The marked pattern the gamma path computed and its filling by
    `expand` (`upsilon` or `omega`), whose strip engine is the one check
    of the pattern; InternalInvariantError, "<what> pattern invalid: ...",
    unless the marks are markable and the pattern is valid."""
    marked = MarkedGTPattern._trusted(GTPattern._trusted(rows), frozenset(marks))
    try:
        check_marks(rows, marked.marks)
    except ValueError as exc:
        raise InternalInvariantError(f"{what} pattern invalid: {exc}") from exc
    try:
        return marked, expand(marked)
    except DomainError as exc:
        raise InternalInvariantError(f"{what} pattern invalid: pattern inequalities fail") from exc


def gamma(tableau: SetValuedFilling, query: CoefficientQuery) -> GammaTrace:
    """Map a dominant straight-shape witness to its rotated-shape image.

    Raises DomainError when the input fails the membership checks and
    InternalInvariantError when a postcondition guaranteed by the
    underlying theorem fails, which signals a bug rather than bad input.
    """
    _require_witness(tableau, query, "input", DomainError, straight=True)
    return _gamma(tableau, query)


def _gamma(tableau: SetValuedFilling, q: CoefficientQuery) -> GammaTrace:
    """`gamma` past its input check, for a tableau known to be a witness."""
    n = q.n
    marked = upsilon_inverse(tableau, n)
    # row i: lam_i, then plus the copies of i in the top k rows, k = 1..i
    counts = tuple(tuple(accumulate(row, initial=part))
                   for row, part in zip(_copy_table(marked), q.lam.pad(n)))
    # row i: entry n-i of counts rows n-i+1 .. n
    y_rows = tuple(tuple(map(itemgetter(c), counts[c:])) for c in range(n - 1, -1, -1))
    contra, image = _marked_pattern(
        y_rows, ((n + 1 - j, i - j) for (i, j) in marked.marks), "relabelled", omega)
    _require_witness(image, q, "image", InternalInvariantError, straight=False)
    return GammaTrace(
        direction="gamma", query=q, tableau=tableau, prefix_counts=counts,
        tableau_pattern=marked.pattern, tableau_marks=marked.marks,
        contra_pattern=contra.pattern, contra_marks=contra.marks, contratableau=image)


def gamma_inverse(contratableau: SetValuedFilling, query: CoefficientQuery) -> GammaTrace:
    """Map a dominant rotated-shape witness back to the straight side.

    Builds the cumulative triangle of the recovered pattern, takes its
    south-east differences, then applies one column decrement per mark,
    in the mark order, to land on the straight side's pattern.  Raises
    DomainError when the input is not a witness, and
    InternalInvariantError when the output is not one or `gamma` does not
    carry it back to the input.
    """
    _require_witness(contratableau, query, "input", DomainError, straight=False)
    trace = _gamma_inverse(contratableau, query)
    _require_witness(trace.tableau, query, "output", InternalInvariantError, straight=True)
    if _gamma(trace.tableau, query).contratableau != contratableau:
        raise InternalInvariantError("round trip through gamma does not return the input")
    return trace


def _gamma_inverse(contratableau: SetValuedFilling, q: CoefficientQuery) -> GammaTrace:
    """`gamma_inverse` without its input, output and round-trip checks, for
    a contratableau known to be a witness; the pattern checks stay."""
    n = q.n
    marked = omega_inverse(contratableau, n)
    z = marked.pattern

    # row i: nu_1 + ... + nu_{n-i}, then plus each entry of row i of z
    nu_sums = tuple(accumulate(q.nu.pad(n), initial=0))
    cumulative = ((nu_sums[n],),) + tuple(
        tuple(accumulate(row, initial=nu_sums[n - i])) for i, row in enumerate(z, start=1))

    slack = tuple(tuple(cumulative[n - j][i - j] - cumulative[n - j + 1][i - j + 1]
                        for j in range(1, i + 1)) for i in range(1, n + 1))

    # mark order: (i, j) before (i', j') iff i > i', then smaller j first
    ops = tuple((n + 1 - i + j, n + 1 - i)
                for (i, j) in sorted(marked.marks, key=lambda m: (-m[0], m[1])))
    grid = [list(row) for row in slack]
    for (k, col) in ops:
        for a in range(k, n + 1):
            grid[a - 1][col - 1] -= 1

    # each column operation's position is a mark of the straight pattern
    straight, tableau = _marked_pattern(tuple(tuple(row) for row in grid), ops,
                                        "decremented", upsilon)
    bottom = straight.pattern[-1] if n else ()
    if Partition(bottom) != q.mu:
        raise InternalInvariantError(f"decremented pattern invalid: bottom row {bottom} != {q.mu}")

    # row i: mu_i plus the copies of i, pass label n+1-i, in bottom rows
    # k..n+1-i for k = 1..n+1-i; summed from row n+1-i down, then reversed
    suffix = tuple(tuple(accumulate(reversed(row), initial=part))[:0:-1]
                   for part, row in zip(q.mu.pad(n), _copy_table(marked)[::-1]))

    return GammaTrace(
        direction="gamma_inverse", query=q, tableau=tableau,
        tableau_pattern=straight.pattern, tableau_marks=straight.marks,
        contra_pattern=z, contra_marks=marked.marks, contratableau=contratableau,
        suffix_counts=suffix, cumulative_rows=cumulative, slack_rows=slack, column_ops=ops)
