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

The expansion peels monomials degree by degree; within one degree the
monomial of a partition occurs in the basis element of another
partition only when the latter dominates the former, so scanning
partitions largest-first makes the change of basis triangular.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import comb
from operator import add

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

    @classmethod
    def constant(cls, n: int, value=1, cap=None):
        return cls(n, {(0,) * n: value}, cap)

    def coefficient(self, exp) -> int:
        return self.terms.get(tuple(exp), 0)

    def is_zero(self) -> bool:
        return not self.terms

    def max_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def homogeneous(self, degree: int) -> "SparseIntPolynomial":
        return SparseIntPolynomial._trusted(
            self.n, {e: c for e, c in self.terms.items() if sum(e) == degree})

    def truncate(self, cap) -> "SparseIntPolynomial":
        return SparseIntPolynomial._trusted(
            self.n,
            {e: c for e, c in self.terms.items() if cap is None or sum(e) <= cap},
            cap)

    def __add__(self, other):
        if not isinstance(other, SparseIntPolynomial):
            return NotImplemented
        if self.n != other.n:
            raise DimensionMismatch(f"{self.n} variables vs {other.n}")
        cap = self.cap
        out = dict(self.terms)
        for e, c in other.terms.items():
            if cap is not None and sum(e) > cap:
                continue
            merged = out.get(e, 0) + c
            if merged:
                out[e] = merged
            else:
                out.pop(e, None)
        return SparseIntPolynomial._trusted(self.n, out, cap)

    def __eq__(self, other):
        if isinstance(other, SparseIntPolynomial):
            return self.n == other.n and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __repr__(self):
        return f"<poly n={self.n} terms={len(self.terms)} cap={self.cap}>"


def multiply(a: SparseIntPolynomial, b: SparseIntPolynomial, cap=None) -> SparseIntPolynomial:
    """Exact product, dropping terms whose total degree exceeds `cap`."""
    if a.n != b.n:
        raise DimensionMismatch(f"{a.n} variables vs {b.n}")
    if cap is None:
        caps = [c for c in (a.cap, b.cap) if c is not None]
        cap = min(caps) if caps else None
    bterms = [(sum(e), e, c) for e, c in b.terms.items()]
    out = {}
    for ea, ca in a.terms.items():
        da = sum(ea)
        for db, eb, cb in bterms:
            if cap is not None and da + db > cap:
                continue
            e = tuple(map(add, ea, eb))
            merged = out.get(e, 0) + ca * cb
            if merged:
                out[e] = merged
            else:
                out.pop(e, None)
    return SparseIntPolynomial._trusted(a.n, out, cap)


def is_symmetric(p: SparseIntPolynomial) -> bool:
    """Invariance under swapping adjacent variables (the n-1 generators)."""
    for k in range(p.n - 1):
        for exp, coef in p.terms.items():
            if exp[k] == exp[k + 1]:
                continue
            swapped = list(exp)
            swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
            if p.terms.get(tuple(swapped), 0) != coef:
                return False
    return True


def _strips(kappa: tuple, outer: tuple):
    """Every kappa' with kappa'/kappa a horizontal strip inside outer."""
    bounds = list(outer[:1]) + [min(o, k) for o, k in zip(outer[1:], kappa)]
    return product(*(range(k, b + 1) for k, b in zip(kappa, bounds)))


# cap stays in the key: caching the exhaustive polynomial once and
# truncating it per cap costs more memory than rebuilding per cap; a
# session asks for a few hundred keys, so the bound caps long-lived ones
@lru_cache(maxsize=4096)
def _g_poly(outer: tuple, inner: tuple, n: int, cap: int) -> SparseIntPolynomial:
    """Signed polynomial of outer/inner by the chain formula, terms to degree cap.

    Step i of a chain inner = kappa(0) <= ... <= kappa(n) = outer adds a
    horizontal strip and contributes x_i^{|kappa(i)/kappa(i-1)|}
    (1 - x_i)^{m_i}, where m_i counts the rows j with
    kappa(i-1)_j > inner_j and kappa(i)_{j+1} < kappa(i-1)_j.  The sum
    is a memoized recursion on (i, kappa(i)): `tail` returns the terms
    in x_{i+1}..x_n of every chain from kappa(i) to outer as
    (exponents, degree, coefficient) triples.  The chain so far has
    degree at least |kappa(i)/inner|, so the tail keeps only terms of
    degree at most cap - |kappa(i)/inner|.
    """
    if n < 0:
        raise ValueError(f"n must be at least 0, got {n}")
    rows = len(outer)
    inner = inner + (0,) * (rows - len(inner))
    base = sum(inner)
    memo = {}

    def tail(i: int, kappa: tuple) -> list:
        if i == n:
            return [((), 0, 1)] if kappa == outer else []
        key = (i, kappa)
        if key in memo:
            return memo[key]
        size = sum(kappa)
        budget = cap - (size - base)
        terms = {}
        for nxt in _strips(kappa, outer):
            strip = sum(nxt) - size
            rest = tail(i + 1, nxt)
            if not rest:
                continue
            below = nxt[1:] + (0,)
            m = sum(1 for k, lo, b in zip(kappa, inner, below) if k > lo and b < k)
            room = budget - strip
            for extra in range(m + 1):
                sign = (-1) ** extra * comb(m, extra)
                head = (strip + extra,)
                for exp, deg, coef in rest:
                    if deg + extra > room:
                        continue
                    e = head + exp
                    merged = terms.get(e, 0) + sign * coef
                    if merged:
                        terms[e] = merged
                    else:
                        del terms[e]
        out = [(e, sum(e), c) for e, c in terms.items()]
        memo[key] = out
        return out

    return SparseIntPolynomial._trusted(
        n, {e: c for e, _, c in tail(0, inner)}, cap)


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
    outer = as_partition(outer)
    inner = as_partition(inner)
    cells = skew(outer, inner).num_cells()
    return SparseIntPolynomial._trusted(
        int(n), _g_poly(outer.parts, inner.parts, int(n), cells).terms)


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


def expand_in_g_basis(p: SparseIntPolynomial, cap=None) -> BasisExpansion:
    """Coordinates of `p` on the signed set-valued basis, by degree peeling.

    `p` must be symmetric up to the cap.  Each degree is peeled in turn;
    any degree that does not clear completely raises ResidualNonzero.
    """
    if cap is None:
        cap = p.cap if p.cap is not None else p.max_degree()
    truncated = p.truncate(cap)
    if not is_symmetric(truncated):
        raise NotSymmetric(f"{p!r} is not symmetric up to degree {cap}")
    residual = truncated.terms  # a fresh dict, owned here
    coeffs = {}
    for d in range(cap + 1):
        coeffs.update(_peel(residual, d, p.n,
                            lambda nu: grothendieck_poly(nu, (), p.n, cap)))
        left = [e for e in residual if sum(e) == d]
        if left:
            raise ResidualNonzero(
                f"degree {d} did not clear; lowest monomial {_lowest_monomial(left)}")
    return BasisExpansion("G", coeffs)


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
    """G_lam * G_mu, terms to degree `cap`, peeled onto the G basis."""
    product = multiply(grothendieck_poly(lam, (), n, cap),
                       grothendieck_poly(mu, (), n, cap), cap)
    return expand_in_g_basis(product, cap)
