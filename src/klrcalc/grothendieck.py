"""Sparse integer polynomials in n variables and the two symmetric bases.

The signed generating polynomial of set-valued fillings serves as an
independent oracle for every counting rule: expand a product back into
the basis and read coefficients off.

The signed polynomial of a skew shape outer/inner is built from
patterns, not by listing fillings.  The cells whose smallest entry is
at most i form a partition kappa(i), so a filling gives a chain
inner = kappa(0) <= kappa(1) <= ... <= kappa(n) = outer in which each
step adds a horizontal strip.  Besides its strip, step i may put an
extra entry i, with sign -1, into each cell (j, kappa(i-1)_j) of the
skew shape that the strip leaves without a cell of kappa(i) below it.
Summing those choices independently gives

    G_{outer/inner}(x_1..x_n) = sum over chains of
        prod_i x_i^{|kappa(i)/kappa(i-1)|} (1 - x_i)^{m_i},

    m_i = #{ j : kappa(i-1)_j > inner_j and kappa(i)_{j+1} < kappa(i-1)_j }.

`_chains` is the one recursion, run forward: layer i maps kappa(i) to
the terms in x_1..x_i of every chain from inner to kappa(i), and it
keeps only prefixes e_1 >= ... >= e_i, since an exponent vector is a
partition exactly when each of its prefixes is weakly decreasing.  Two
bounds keep the layers small.  The degree bound drops a prefix once its
degree plus the cells of outer that kappa(i) still lacks passes the cap;
later steps only add.  The shape bound keeps each kappa(i) inside outer;
with no outer shape kappa grows by one row per step instead, so one run
from the empty partition gives every basis element G_nu at once.  That
run is `_dominant_table`.

The sum is symmetric in x_1..x_n for skew shapes too (Buch, Acta Math.
189, 2002, treats these skew sums; the tests check the result against
listed fillings), and truncation by total degree keeps it so.  A
symmetric polynomial is the orbit sum of its partition-exponent terms,
so `_g_poly` returns that orbit sum, and `is_symmetric` tests a
polynomial against the same sum.

The expansion peels monomials degree by degree; within one degree the
monomial of a partition occurs in the basis element of another
partition only when the latter dominates the former, so scanning
partitions largest-first makes the change of basis triangular.  The
oracle peels a product on the dominant cone alone, against
`_dominant_table(n, cap)`, whose entries also give its two factors.
That is exact: the product is checked symmetric and every G_nu is
symmetric, so the residual is symmetric, and a nonzero symmetric
polynomial has a nonzero partition monomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, product
from math import comb
from operator import ge, itemgetter

from .errors import DimensionMismatch, NotSymmetric, ResidualNonzero
from .shapes import Partition, as_partition, partitions, skew


class SparseIntPolynomial:
    """Map from exponent vectors (length n) to non-zero integer coefficients.

    An optional degree cap drops every term of total degree above it;
    `multiply` preserves caps by truncation.  Coefficients are plain
    Python ints, so there is no overflow to worry about.
    """

    __slots__ = ("n", "terms", "cap")

    def __init__(self, n: int, terms=(), cap=None):
        self.n = int(n)
        self.cap = cap
        clean = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for exp, coef in items:
            exp = tuple(int(e) for e in exp)
            if len(exp) != self.n or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp} for n={self.n}")
            coef = int(coef)
            if coef == 0 or (cap is not None and sum(exp) > cap):
                continue
            merged = clean.get(exp, 0) + coef
            if merged:
                clean[exp] = merged
            else:
                clean.pop(exp, None)
        self.terms = clean

    @classmethod
    def _trusted(cls, n: int, terms: dict, cap=None):
        """Wrap `terms` without copying or checking it.

        For dicts that are already clean: exponent tuples of length n,
        non-zero int coefficients, no term of degree above `cap`.
        """
        p = object.__new__(cls)
        p.n = n
        p.terms = terms
        p.cap = cap
        return p

    def coefficient(self, exp) -> int:
        return self.terms.get(tuple(exp), 0)

    def max_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def truncate(self, cap) -> "SparseIntPolynomial":
        return SparseIntPolynomial._trusted(
            self.n,
            {e: c for e, c in self.terms.items() if cap is None or sum(e) <= cap},
            cap)

    def __eq__(self, other):
        if isinstance(other, SparseIntPolynomial):
            return self.n == other.n and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __repr__(self):
        return f"<poly n={self.n} terms={len(self.terms)} cap={self.cap}>"


def _packed(terms: dict, base: int) -> list:
    """(degree, key, coefficient) per term, the key read in base `base`."""
    out = []
    for e, c in terms.items():
        key = 0
        for x in e:
            key = key * base + x
        out.append((sum(e), key, c))
    return out


def multiply(a: SparseIntPolynomial, b: SparseIntPolynomial, cap=None) -> SparseIntPolynomial:
    """Exact product, dropping terms whose total degree exceeds `cap`.

    Inside the call each exponent vector is one int in base
    B = (largest exponent of a) + (largest exponent of b) + 1.  No
    coordinate of a product exponent reaches B, so adding two keys never
    carries and adds the two vectors.  b's terms are sorted by degree
    once, and each inner loop stops at the first term past the cap.
    Sums that cancel to 0 are dropped when the keys are read back.
    """
    if a.n != b.n:
        raise DimensionMismatch(f"{a.n} variables vs {b.n}")
    if cap is None:
        caps = [c for c in (a.cap, b.cap) if c is not None]
        cap = min(caps) if caps else None
    n = a.n
    base = (max(chain.from_iterable(a.terms), default=0)
            + max(chain.from_iterable(b.terms), default=0) + 1)
    bterms = sorted(_packed(b.terms, base), key=itemgetter(0))
    limit = cap if cap is not None else (base - 1) * n
    out = {}
    get = out.get
    for da, ka, ca in _packed(a.terms, base):
        room = limit - da
        for db, kb, cb in bterms:
            if db > room:
                break
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    powers = [base ** i for i in reversed(range(n))]
    return SparseIntPolynomial._trusted(
        n, {tuple([k // p % base for p in powers]): c for k, c in out.items() if c},
        cap)


def _cone(terms: dict) -> dict:
    """The terms whose exponents form a partition: the dominant cone."""
    return {e: c for e, c in terms.items() if all(map(ge, e, e[1:]))}


@lru_cache(maxsize=4096)
def _orbit(d: tuple) -> tuple:
    """The distinct rearrangements of the partition `d`: each distinct part
    first, then a rearrangement of the rest.  Cached, since builds and
    symmetry checks meet the same exponents again and again."""
    if len(set(d)) < 2:
        return (d,)
    return tuple((v,) + e for i, v in enumerate(d) if not i or v != d[i - 1]
                 for e in _orbit(d[:i] + d[i + 1:]))


def _orbit_sum(cone: dict) -> dict:
    """The symmetric polynomial whose partition-exponent terms are `cone`."""
    return {e: c for d, c in cone.items() for e in _orbit(d)}


def is_symmetric(p: SparseIntPolynomial) -> bool:
    """p is the orbit sum of its partition-exponent terms."""
    return p.terms == _orbit_sum(_cone(p.terms))


def _chains(inner: tuple, outer, n: int, cap: int) -> dict:
    """{kappa(n): {(e_1..e_n): coefficient}}: the terms of degree <= cap
    with e_1 >= ... >= e_n of the n-step chains from inner, by the
    recursion of the module docstring.  With `outer`, each kappa(i) stays
    inside it and the degree bound counts the cells still missing, so
    only the entry of outer itself is complete; with `outer` None, kappa
    grows by at most one row per step and every entry is complete.
    """
    if n < 0:
        raise ValueError(f"n must be at least 0, got {n}")
    lows = inner + (0,) * (n if outer is None else len(outer) - len(inner))
    layer = {inner if outer is None else lows: {(): 1}}
    for i in range(n):
        grown = {}
        for kappa, prefixes in layer.items():
            size = sum(kappa)
            missing = 0 if outer is None else sum(outer) - size
            # room: strip plus extras fit under e_i and the cap; spare: the
            # extras fit under the cap with the cells of outer kappa lacks
            rooms = [(e, min(e[-1], cap - sum(e)) if i else cap,
                      cap - sum(e) - missing, coef) for e, coef in prefixes.items()]
            budget = max(room for _, room, _, _ in rooms)
            if outer is None:  # a new row below kappa, the first unbounded
                rows = kappa + (0,)
                bounds = (rows[0] + budget,) + kappa
            else:
                rows = kappa
                bounds = outer[:1] + tuple(map(min, outer[1:], kappa))
            for nxt in product(*(range(k, min(b, k + budget) + 1)
                                 for k, b in zip(rows, bounds))):
                strip = sum(nxt) - size
                if strip > budget:
                    continue
                m = sum(1 for k, lo, b in zip(kappa, lows, nxt[1:] + (0,)) if lo < k > b)
                weights = [(-1) ** extra * comb(m, extra) for extra in range(m + 1)]
                terms = grown.setdefault(
                    nxt[:-1] if outer is None and not nxt[-1] else nxt, {})
                for e, room, spare, coef in rooms:
                    for extra in range(min(m, room - strip, spare) + 1):
                        key = e + (strip + extra,)
                        terms[key] = terms.get(key, 0) + weights[extra] * coef
        layer = {kappa: kept for kappa, terms in grown.items()
                 if (kept := {e: c for e, c in terms.items() if c})}
    return layer


# cap stays in the key: caching the exhaustive polynomial once and
# truncating it per cap costs more memory than rebuilding per cap.  Only
# the public builders and the reference peel of `expand_in_g_basis` ask
# here, not the oracle; the bound caps long-lived sessions
@lru_cache(maxsize=4096)
def _g_poly(outer: tuple, inner: tuple, n: int, cap: int) -> SparseIntPolynomial:
    """Signed polynomial of outer/inner to degree cap: the orbit sum of
    the partition-exponent terms that `_chains` gives for outer."""
    return SparseIntPolynomial._trusted(
        n, _orbit_sum(_chains(inner, outer, n, cap).get(outer, {})), cap)


def grothendieck_poly(outer, inner, n: int, cap=None) -> SparseIntPolynomial:
    """Signed generating polynomial of the skew shape's set-valued fillings.

    A filling with t total entries in a shape of s cells contributes
    (-1)^(t-s) times the monomial of its weight; only fillings with at
    most `cap` entries are summed.  The default cap n*s is exhaustive
    because no filling can hold more.  The sum is taken by the chain
    formula of the module docstring, not by listing fillings.
    """
    outer = as_partition(outer)
    inner = as_partition(inner)
    cells = skew(outer, inner).num_cells()
    if cap is None:
        cap = n * cells
    if cap < cells:
        raise ValueError(f"cap {cap} is below the cell count {cells}")
    return _g_poly(outer.parts, inner.parts, int(n), int(cap))


def schur_poly(outer, inner, n: int) -> SparseIntPolynomial:
    """Generating polynomial of the one-entry-per-cell fillings.

    Equals the minimal-degree homogeneous component of the signed
    polynomial of the same shape, so it is that polynomial truncated at
    the cell count.  The result carries no cap: a product of two Schur
    polynomials keeps every degree.
    """
    cells = skew(outer, inner).num_cells()
    return SparseIntPolynomial._trusted(
        int(n), grothendieck_poly(outer, inner, n, cells).terms)


@dataclass(frozen=True, eq=True)
class BasisExpansion:
    """Signed integer coordinates of a polynomial on a partition basis."""

    basis: str  # "G" or "s"
    coeffs: dict

    def coefficient(self, nu) -> int:
        return self.coeffs.get(as_partition(nu), 0)

    def items(self) -> list:
        return sorted(self.coeffs.items(), key=lambda kv: (kv[0].size(), kv[0].parts))


@lru_cache(maxsize=128)
def _partitions(d: int, n: int) -> tuple:
    """partitions(d, max_length=n) in the same descending order, built once."""
    return tuple(partitions(d, max_length=n))


def _lowest_monomial(exps):
    return min(exps, key=lambda e: (sum(e), e))


def _peel(residual: dict, d: int, n: int, element) -> dict:
    """Peel the degree-d basis elements off `residual`; their coefficients.

    Partitions nu are visited in descending lexicographic order (a linear
    extension of dominance); the residual coefficient at nu's monomial
    is recorded and that multiple of `element(nu)` subtracted in place.
    `residual` must be a private dict, never the terms of a cached
    polynomial.
    """
    coeffs = {}
    for nu in _partitions(d, n):
        c = residual.get(nu.pad(n), 0)
        if not c:
            continue
        coeffs[nu] = c
        for e, g in element(nu).terms.items():
            rest = residual.get(e, 0) - c * g
            if rest:
                residual[e] = rest
            else:
                del residual[e]
    return coeffs


def _peel_to_cap(residual: dict, n: int, cap: int, element) -> BasisExpansion:
    """Every degree up to cap peeled off `residual` by `_peel`; the G
    coordinates, or ResidualNonzero naming the lowest monomial left."""
    coeffs = {}
    for d in range(cap + 1):
        coeffs.update(_peel(residual, d, n, element))
    if residual:
        low = _lowest_monomial(residual)
        raise ResidualNonzero(f"degree {sum(low)} did not clear; lowest monomial {low}")
    return BasisExpansion("G", coeffs)


def expand_in_g_basis(p: SparseIntPolynomial, cap=None) -> BasisExpansion:
    """Coordinates of `p` on the signed set-valued basis, by degree peeling.

    `p` must be symmetric up to the cap, and `cap` may not exceed `p.cap`:
    terms above `p.cap` were dropped, not zero.  Each degree is peeled in
    turn and the residual is checked once, at the end.  A G_nu has no term
    below degree |nu|, so peeling degree d never touches what is left at
    lower degrees: the lowest leftover monomial lies in the first degree
    that did not clear, and ResidualNonzero names that degree.
    """
    if cap is None:
        cap = p.cap if p.cap is not None else p.max_degree()
    elif p.cap is not None and cap > p.cap:
        raise ValueError(f"cap {cap} is above the polynomial's cap {p.cap}")
    # a polynomial has no term above its own cap, so only a lower cap truncates
    kept = p if cap == p.cap else p.truncate(cap)
    if not is_symmetric(kept):
        raise NotSymmetric(f"{p!r} is not symmetric up to degree {cap}")
    return _peel_to_cap(dict(kept.terms), p.n, cap,  # a copy, owned here
                        lambda nu: grothendieck_poly(nu, (), p.n, cap))


def expand_in_schur_basis(p: SparseIntPolynomial) -> BasisExpansion:
    """Coordinates of a homogeneous symmetric `p` on the singleton basis."""
    if not is_symmetric(p):
        raise NotSymmetric(f"{p!r} is not symmetric")
    d = min((sum(e) for e in p.terms), default=0)
    residual = dict(p.terms)
    coeffs = _peel(residual, d, p.n, lambda nu: schur_poly(nu, (), p.n))
    if residual:
        raise ResidualNonzero(
            f"not homogeneous of degree {d}; lowest leftover {_lowest_monomial(residual)}")
    return BasisExpansion("s", coeffs)


def expand_product(lam, mu, n: int, cap: int) -> BasisExpansion:
    """G_lam * G_mu, terms to degree `cap`, peeled onto the G basis.

    The product commutes, so results are cached by the unordered pair
    {lam, mu} with n and cap: G_mu * G_lam is the same object.  The
    expansion is shared between callers, so callers must not mutate its
    `coeffs`.
    """
    first, second = sorted((as_partition(lam).parts, as_partition(mu).parts))
    return _expand_product(first, second, int(n), int(cap))


# a session asks for a few (n, cap) pairs, and each table holds every
# basis element of its pair
@lru_cache(maxsize=64)
def _dominant_table(n: int, cap: int) -> dict:
    """{nu.parts: G_nu at its partition exponents of degree <= cap}, for
    every nu with at most n parts: `_chains` from the empty partition
    with no outer shape."""
    return {kappa: SparseIntPolynomial._trusted(n, terms, cap)
            for kappa, terms in _chains((), None, n, cap).items()}


# a verify sweep asks for each unordered pair once per (n, cap); the
# bound caps long-lived sessions, as _g_poly's does
@lru_cache(maxsize=1024)
def _expand_product(lam: tuple, mu: tuple, n: int, cap: int) -> BasisExpansion:
    """G_lam * G_mu peeled on the dominant cone, the factors (orbit sums;
    0 past n parts) and basis elements read from `_dominant_table(n, cap)`.

    The product is checked symmetric with the text of `expand_in_g_basis`,
    then only its partition monomials are peeled; by the module docstring
    that gives the full peel's coefficients, and a residual is left only
    when a basis element is wrong.  ResidualNonzero then names the lowest
    partition monomial left, in its degree.
    """
    for cells in (sum(lam), sum(mu)):
        if cap < cells:
            raise ValueError(f"cap {cap} is below the cell count {cells}")
    table = _dominant_table(n, cap)
    first, second = (SparseIntPolynomial._trusted(
        n, _orbit_sum(table[parts].terms) if parts in table else {}, cap)
        for parts in (lam, mu))
    product = multiply(first, second, cap)
    cone = _cone(product.terms)
    if product.terms != _orbit_sum(cone):
        raise NotSymmetric(f"{product!r} is not symmetric up to degree {cap}")
    return _peel_to_cap(cone, n, cap, lambda nu: table[nu.parts])
