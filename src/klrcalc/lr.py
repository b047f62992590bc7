"""Counting rules for the structure constants and the witness bijection.

Two combinatorial rules compute the same coefficient: counting dominant
set-valued tableaux of straight shape (`coeff_buch`) and counting
dominant set-valued fillings of the rotated shape (`coeff_contra`).
`gamma` maps a witness of the first kind to one of the second and
`gamma_inverse` goes back, both returning a full trace of every
intermediate object so a run can be checked line by line.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import add

from . import grothendieck
from .errors import DegreeError, DomainError, InternalInvariantError
from .gtpatterns import (GTPattern, MarkedGTPattern, check_marks, omega,
                         omega_inverse, upsilon, upsilon_inverse)
from .shapes import Partition, as_partition, rotate, skew
from .tableaux import (SetValuedFilling, enumerate_svt, is_lambda_dominant,
                       is_semistandard, weight)


@dataclass(frozen=True)
class CoefficientQuery:
    """Which coefficient: the nu term of the product indexed by lam and mu.

    `n` is the common ambient size for patterns and fillings; it
    defaults to the largest partition length and the counts are stable
    under raising it further.
    """

    lam: Partition
    mu: Partition
    nu: Partition
    n: int = None

    def __post_init__(self):
        object.__setattr__(self, "lam", as_partition(self.lam))
        object.__setattr__(self, "mu", as_partition(self.mu))
        object.__setattr__(self, "nu", as_partition(self.nu))
        n = self.n
        if n is None:
            n = max(len(self.lam), len(self.mu), len(self.nu))
        object.__setattr__(self, "n", int(n))
        if max(len(self.lam), len(self.mu), len(self.nu)) > self.n:
            raise DomainError(f"n={self.n} smaller than a partition length")

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
    target = tuple(q.nu[i] - sub[i] for i in range(max(len(q.nu), len(sub))))
    return sub, shape, None if any(d < 0 for d in target) else target


def _witnesses(q: CoefficientQuery, straight: bool, singleton=False):
    """Yield the family `_side` describes, as `enumerate_svt` orders it."""
    sub, shape, target = _side(q, straight)
    if target is not None:
        yield from enumerate_svt(shape, max(1, len(target)), weight_filter=target,
                                 singleton=singleton, dominant_for=sub)


def buch_tableaux(query: CoefficientQuery):
    """Yield the lam-dominant fillings of straight shape mu with weight nu-lam."""
    yield from _witnesses(query, straight=True)


def coeff_buch(query: CoefficientQuery) -> int:
    """Number of dominant straight-shape witnesses."""
    return sum(1 for _ in buch_tableaux(query))


def contra_tableaux(query: CoefficientQuery, singleton=False):
    """Yield the mu-dominant fillings of the rotated lam shape with weight nu-mu."""
    yield from _witnesses(query, straight=False, singleton=singleton)


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
    because f is sub-dominant.  A nu with no witness has no key.
    """
    lam = as_partition(lam)
    mu = as_partition(mu)
    n = int(n)
    if max(len(lam), len(mu)) > n:
        raise DomainError(f"n={n} smaller than a partition length")
    lists = {}
    for side, (sub, shape) in enumerate(((lam, skew(mu, ())), (mu, rotate(lam)))):
        pad = sub.pad(n)
        for f in enumerate_svt(shape, n, dominant_for=sub):
            nu = Partition(map(add, pad, weight(f, n)))
            lists.setdefault(nu, ([], []))[side].append(f)
    return lists


def coeff_classical(query: CoefficientQuery) -> int:
    """The one-entry-per-cell count, defined only in the degree-matching case."""
    if query.nu.size() != query.lam.size() + query.mu.size():
        raise DegreeError(
            f"|nu|={query.nu.size()} != |lam|+|mu|="
            f"{query.lam.size() + query.mu.size()}")
    return sum(1 for _ in contra_tableaux(query, singleton=True))


def coeff_oracle(query: CoefficientQuery) -> int:
    """Coefficient read off the polynomial product, sign normalized.

    Computed entirely by monomial arithmetic and basis peeling, so it is
    independent of the two counting rules.  The sign normalization makes
    a sign bug show up as a disagreement instead of hiding in abs().
    """
    expansion = grothendieck.expand_product(query.lam, query.mu, query.n, query.cap)
    return query.sign * expansion.coefficient(query.nu)


@dataclass(frozen=True)
class GammaTrace:
    """Every intermediate object of one bijection run.

    Forward runs fill `prefix_counts`; inverse runs fill the suffix
    counts, the cumulative triangle, the slack triangle derived from it,
    and the column decrement operations applied to reach the straight
    side's pattern.
    """

    direction: str
    query: CoefficientQuery
    tableau: SetValuedFilling
    tableau_pattern: GTPattern
    tableau_marks: frozenset
    contra_pattern: GTPattern
    contra_marks: frozenset
    contratableau: SetValuedFilling
    prefix_counts: tuple = None
    suffix_counts: tuple = None
    cumulative_rows: tuple = None
    slack_rows: tuple = None
    column_ops: tuple = None


def _copies(marked: MarkedGTPattern, i: int, j: int) -> int:
    """Copies of pass label i in pattern row j of the filling `marked`
    expands to: the cells pass i adds to row j, plus one for a mark (i, j)."""
    rows = marked.pattern.rows
    before = rows[i - 2][j - 1] if j < i else 0
    return rows[i - 1][j - 1] - before + ((i, j) in marked.marks)


def _require_witness(filling, q: CoefficientQuery, what: str, error, *, straight: bool):
    """Raise `error` unless `filling` is a witness of `q`: on the straight
    side a lam-dominant filling of shape mu with weight nu - lam, on the
    rotated side a mu-dominant filling of rotated lam with weight nu - mu."""
    sub, shape, target = _side(q, straight)
    if target is None:
        raise error(f"nu - {'lam' if straight else 'mu'} has a negative entry")
    if filling.shape != shape:
        raise error(f"{what}: shape {filling.shape!r} != {shape!r}")
    if not is_semistandard(filling):
        raise error(f"{what}: not semistandard")
    try:
        got = weight(filling, q.n)
    except ValueError:
        raise error(f"{what}: entries exceed n={q.n}") from None
    if got != target + (0,) * (q.n - len(target)):
        raise error(f"{what}: weight {got} != {target}")
    if not is_lambda_dominant(filling, sub):
        raise error(f"{what}: not {tuple(sub)}-dominant")


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
        raise InternalInvariantError(
            f"{what} pattern invalid: pattern inequalities fail") from exc


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
    counts = tuple(
        tuple(accumulate((_copies(marked, i, k) for k in range(1, i + 1)),
                         initial=q.lam[i - 1]))
        for i in range(1, n + 1))
    y_rows = tuple(
        tuple(counts[n - i + j - 1][n - i] for j in range(1, i + 1))
        for i in range(1, n + 1))
    contra, image = _marked_pattern(
        y_rows, ((n + 1 - j, i - j) for (i, j) in marked.marks), "relabelled", omega)
    _require_witness(image, q, "image", InternalInvariantError, straight=False)
    return GammaTrace(
        direction="gamma", query=q, tableau=tableau,
        tableau_pattern=marked.pattern, tableau_marks=marked.marks,
        contra_pattern=contra.pattern, contra_marks=contra.marks,
        contratableau=image, prefix_counts=counts)


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
    cumulative = tuple(
        tuple(accumulate(z.rows[i - 1] if i else (), initial=sum(q.nu[:n - i])))
        for i in range(n + 1))

    slack = tuple(
        tuple(cumulative[n - j][i - j] - cumulative[n - j + 1][i - j + 1]
              for j in range(1, i + 1))
        for i in range(1, n + 1))

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
    bottom = straight.pattern.rows[-1] if n else ()
    if Partition(bottom) != q.mu:
        raise InternalInvariantError(
            f"decremented pattern invalid: bottom row {bottom} != {q.mu}")

    # row i: mu_i plus the copies of i, pass label n+1-i, in bottom rows
    # k..n+1-i for k = 1..n+1-i; summed from row n+1-i down, then reversed
    suffix = tuple(
        tuple(accumulate((_copies(marked, n + 1 - i, k) for k in range(n + 1 - i, 0, -1)),
                         initial=q.mu[i - 1]))[:0:-1]
        for i in range(1, n + 1))

    return GammaTrace(
        direction="gamma_inverse", query=q, tableau=tableau,
        tableau_pattern=straight.pattern, tableau_marks=straight.marks,
        contra_pattern=z, contra_marks=marked.marks,
        contratableau=contratableau,
        suffix_counts=suffix,
        cumulative_rows=cumulative, slack_rows=slack, column_ops=ops)
