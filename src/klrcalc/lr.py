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

from . import grothendieck
from .errors import DegreeError, DomainError, InternalInvariantError
from .gtpatterns import (GTPattern, MarkedGTPattern, omega, omega_inverse,
                         upsilon, upsilon_inverse, validate)
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


def _weight_target(nu: Partition, sub: Partition):
    """nu minus sub componentwise, or None when any entry is negative."""
    length = max(len(nu), len(sub))
    diff = tuple(nu[i] - sub[i] for i in range(length))
    if any(d < 0 for d in diff):
        return None
    return diff


def buch_tableaux(query: CoefficientQuery):
    """Yield the lam-dominant fillings of straight shape mu with weight nu-lam."""
    target = _weight_target(query.nu, query.lam)
    if target is None:
        return
    yield from enumerate_svt(skew(query.mu, ()), max(1, len(target)),
                             weight_filter=target, dominant_for=query.lam)


def coeff_buch(query: CoefficientQuery) -> int:
    """Number of dominant straight-shape witnesses."""
    return sum(1 for _ in buch_tableaux(query))


def contra_tableaux(query: CoefficientQuery, singleton=False):
    """Yield the mu-dominant fillings of the rotated lam shape with weight nu-mu."""
    target = _weight_target(query.nu, query.mu)
    if target is None:
        return
    yield from enumerate_svt(rotate(query.lam), max(1, len(target)),
                             weight_filter=target, singleton=singleton,
                             dominant_for=query.mu)


def coeff_contra(query: CoefficientQuery) -> int:
    """Number of dominant rotated-shape witnesses."""
    return sum(1 for _ in contra_tableaux(query))


def witness_lists(lam, mu, n: int):
    """Both witness families of every nu of the lam, mu product, from one
    search per side.

    Runs the straight-shape search (shape mu, lam-dominant) and the
    rotated-shape search (rotated lam, mu-dominant) once each with entries
    in [n], and buckets each stream by weight.  Returns `lookup(nu)`,
    which gives `(buch, contra)`: the lists `buch_tableaux` and
    `contra_tableaux` yield for `CoefficientQuery(lam, mu, nu, n)`, in
    the same order, read from the buckets at nu - lam and nu - mu.  The
    bucket lists are shared between calls, so callers must not mutate
    them.
    """
    lam = as_partition(lam)
    mu = as_partition(mu)
    n = int(n)
    if max(len(lam), len(mu)) > n:
        raise DomainError(f"n={n} smaller than a partition length")
    lam_n, mu_n = lam.pad(n), mu.pad(n)

    def buckets(shape, dominant_for):
        out = {}
        for f in enumerate_svt(shape, n, dominant_for=dominant_for):
            out.setdefault(weight(f, n), []).append(f)
        return out

    straight = buckets(skew(mu, ()), lam)
    rotated = buckets(rotate(lam), mu)

    def lookup(nu):
        nu = as_partition(nu)
        if len(nu) > n:
            raise DomainError(f"n={n} smaller than a partition length")
        nu_n = nu.pad(n)
        return (straight.get(tuple(a - b for a, b in zip(nu_n, lam_n)), []),
                rotated.get(tuple(a - b for a, b in zip(nu_n, mu_n)), []))
    return lookup


def coeff_classical(query: CoefficientQuery) -> int:
    """The one-entry-per-cell count, defined only in the degree-matching case."""
    if query.nu.size() != query.lam.size() + query.mu.size():
        raise DegreeError(
            f"|nu|={query.nu.size()} != |lam|+|mu|="
            f"{query.lam.size() + query.mu.size()}")
    return sum(1 for _ in contra_tableaux(query, singleton=True))


def coeff_oracle(query: CoefficientQuery, cap=None) -> int:
    """Coefficient read off the polynomial product, sign normalized.

    Computed entirely by monomial arithmetic and basis peeling, so it is
    independent of the two counting rules.  The sign normalization makes
    a sign bug show up as a disagreement instead of hiding in abs().
    """
    if cap is None:
        cap = max(query.nu.size(), query.lam.size() + query.mu.size())
    expansion = grothendieck.expand_product(query.lam, query.mu, query.n, cap)
    raw = expansion.coefficient(query.nu)
    parity = (query.nu.size() - query.lam.size() - query.mu.size()) % 2
    return -raw if parity else raw


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


def _row_value_counts(filling: SetValuedFilling) -> list:
    """counts[j][v] = occurrences of v in row j+1 (top indexed)."""
    out = []
    for row in filling.rows():
        counts = {}
        for vals in row:
            for v in vals:
                counts[v] = counts.get(v, 0) + 1
        out.append(counts)
    return out


def _prefix_counts(tableau: SetValuedFilling, lam: Partition, n: int) -> tuple:
    """Row i lists lam_i plus the running count of i over the top k rows."""
    per_row = _row_value_counts(tableau)
    table = []
    for i in range(1, n + 1):
        acc = [lam[i - 1]]
        for k in range(1, i + 1):
            extra = per_row[k - 1].get(i, 0) if k - 1 < len(per_row) else 0
            acc.append(acc[-1] + extra)
        table.append(tuple(acc))
    return tuple(table)


def _suffix_counts(contratableau: SetValuedFilling, mu: Partition, n: int) -> tuple:
    """Row i lists mu_i plus the count of i over bottom rows k and above."""
    per_row_top = _row_value_counts(contratableau)
    height = len(per_row_top)
    # re-index so position j-1 is bottom-row j
    per_row = list(reversed(per_row_top))
    table = []
    for i in range(1, n + 1):
        row = []
        for k in range(1, n + 2 - i):
            tail = sum(per_row[j].get(i, 0) for j in range(k - 1, height))
            row.append(mu[i - 1] + tail)
        table.append(tuple(row))
    return tuple(table)


def _require_witness(filling, q: CoefficientQuery, what: str, error, *, straight: bool):
    """Raise `error` unless `filling` is a witness of `q`: on the straight
    side a lam-dominant filling of shape mu with weight nu - lam, on the
    rotated side a mu-dominant filling of rotated lam with weight nu - mu."""
    sub, shape = (q.lam, skew(q.mu, ())) if straight else (q.mu, rotate(q.lam))
    target = _weight_target(q.nu, sub)
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


def _marked_pattern(rows: tuple, marks, what: str) -> MarkedGTPattern:
    """The marked pattern the gamma path computed; InternalInvariantError,
    "<what> pattern invalid: ...", unless it is one."""
    try:
        pattern = GTPattern._trusted(rows)
        if not validate(pattern):
            raise ValueError("pattern inequalities fail")
        return MarkedGTPattern(pattern, marks)
    except ValueError as exc:
        raise InternalInvariantError(f"{what} pattern invalid: {exc}") from exc


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
    counts = _prefix_counts(tableau, q.lam, n)
    y_rows = tuple(
        tuple(counts[n - i + j - 1][n - i] for j in range(1, i + 1))
        for i in range(1, n + 1))
    contra = _marked_pattern(y_rows, ((n + 1 - j, i - j) for (i, j) in marked.marks),
                             "relabelled")

    image = omega(contra)
    _require_witness(image, q, "image", InternalInvariantError, straight=False)
    return GammaTrace(
        direction="gamma", query=q, tableau=tableau,
        tableau_pattern=marked.pattern, tableau_marks=marked.marks,
        contra_pattern=contra.pattern, contra_marks=contra.marks,
        contratableau=image, prefix_counts=counts)


def _mark_order(position):
    # (i, j) before (i', j') iff i > i', then smaller j first
    i, j = position
    return (-i, j)


def gamma_inverse(contratableau: SetValuedFilling, query: CoefficientQuery) -> GammaTrace:
    """Map a dominant rotated-shape witness back to the straight side.

    Builds the cumulative triangle of the recovered pattern, takes its
    south-east differences, then applies one column decrement per mark,
    in the mark order, to land on the straight side's pattern.
    """
    q = query
    n = q.n
    _require_witness(contratableau, q, "input", DomainError, straight=False)

    marked = omega_inverse(contratableau, n)
    z = marked.pattern

    cumulative = []
    for i in range(n + 1):
        base = sum(q.nu[t] for t in range(n - i))
        row = [base]
        for j in range(1, i + 1):
            row.append(row[-1] + z.x(i, j))
        cumulative.append(tuple(row))
    cumulative = tuple(cumulative)

    slack = tuple(
        tuple(cumulative[n - j][i - j] - cumulative[n - j + 1][i - j + 1]
              for j in range(1, i + 1))
        for i in range(1, n + 1))

    ops = tuple((n + 1 - i + j, n + 1 - i)
                for (i, j) in sorted(marked.marks, key=_mark_order))
    grid = [list(row) for row in slack]
    for (k, col) in ops:
        for a in range(k, n + 1):
            grid[a - 1][col - 1] -= 1

    straight = _marked_pattern(tuple(tuple(row) for row in grid),
                               ((n + 1 - i + j, n + 1 - i) for (i, j) in marked.marks),
                               "decremented")
    bottom = straight.pattern.rows[-1] if n else ()
    if Partition(bottom) != q.mu:
        raise InternalInvariantError(
            f"decremented pattern invalid: bottom row {bottom} != {q.mu}")

    tableau = upsilon(straight)
    _require_witness(tableau, q, "output", InternalInvariantError, straight=True)
    if _gamma(tableau, q).contratableau != contratableau:
        raise InternalInvariantError("round trip through gamma does not return the input")

    return GammaTrace(
        direction="gamma_inverse", query=q, tableau=tableau,
        tableau_pattern=straight.pattern, tableau_marks=straight.marks,
        contra_pattern=z, contra_marks=marked.marks,
        contratableau=contratableau,
        suffix_counts=_suffix_counts(contratableau, q.mu, n),
        cumulative_rows=cumulative, slack_rows=slack, column_ops=ops)
