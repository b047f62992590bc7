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
partition exactly when each of its prefixes is weakly decreasing.  One
growth rule: each step adds a horizontal strip, so at most one new row,
and row j+1 stays at most the old row j.  From the empty partition it
gives every basis element G_nu in one run, `_dominant_table`.  The
degree bound drops a prefix once its degree plus the cells of outer
kappa(i) lacks passes the cap; later steps only add.  An outer shape
only clips: outer less its top n - i rows <= kappa(i) <= outer.

The sum is symmetric in x_1..x_n for skew shapes too (Buch, Acta Math.
189, 2002, treats these skew sums; the tests check the result against
listed fillings), and truncation by total degree keeps it so.  A
symmetric polynomial is the orbit sum of its partition-exponent terms,
its dominant cone, so `_g_cone` keeps only the cone, `grothendieck_poly`
returns its orbit sum, and `is_symmetric` tests a polynomial against
the same sum.

Every expansion peels the dominant cone alone, degree by degree, in
`_peel_cone`; within one degree the monomial of a partition occurs in
the basis element of another partition only when the latter dominates
the former, so scanning partitions largest-first makes the change of
basis triangular.  That is exact: the input is checked symmetric and
every basis element is an orbit sum, so the residual is always the
orbit sum of its cone, and a nonzero symmetric polynomial has a nonzero
partition monomial.  Only the oracle packs.  It reads its basis cones
and factors from one table per n, `_dominant_table`, built at the
largest cap C asked so far, and works in its packed keys end to end:
each exponent vector is one int in base C + 1, which no coordinate of a
term of degree <= C reaches, so adding keys adds vectors with no carry.
The degree bound only drops prefixes above the cap and later steps only
add degree, so the table cut to degree <= c is the table at cap c: a
product to degree c reads its factors, each trimmed by degree to what
the other leaves under c, and its basis terms to degree c alone.  The
product is checked, cut to its cone and peeled in packed keys; only the
text of a ResidualNonzero unpacks one.  `multiply` runs its own product
loop on exponent tuples and the public peels read their basis cones from
`_g_cone`, so that loop and those cones are independent of the oracle's
and stay its plain reference; the peel loop, `_peel_cone`, is shared.

Caches: all are `lru_cache`s.  An oracle product is cached in one place,
`_products` (1,024 pairs), a slot per unordered pair grown in place: its
expansion at the largest n and cap asked, which `expand_product` hands
out at that n and cap (so its `coeffs` is read-only) and cuts for the
rest.  `_tables` (64 tables) is a slot per n grown to the largest cap.
No public function hands out the dicts of `_dominant_table` or
`_g_cone`; `_orbit` and `_partitions` return tuples.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import product
from math import comb
from operator import add, ge, mul
from types import MappingProxyType

from .errors import DimensionMismatch, NotSymmetric, ResidualNonzero
from .shapes import Partition, contains, partitions, skew


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

    def coefficient(self, exp) -> int:
        return self.terms.get(tuple(exp), 0)

    def max_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def truncate(self, cap) -> "SparseIntPolynomial":
        return SparseIntPolynomial(self.n, self.terms, cap)

    def __eq__(self, other):
        if isinstance(other, SparseIntPolynomial):
            return self.n == other.n and self.terms == other.terms
        return NotImplemented

    def __repr__(self):
        return f"<poly n={self.n} terms={len(self.terms)} cap={self.cap}>"


def _packed_product(aterms, bterms, limit: int) -> dict:
    """The oracle's product loop: {key: coefficient}, zeros kept, of two
    lists of (degree, key, coefficient) to degree `limit`.  bterms is
    sorted by degree, so each inner loop stops at the first past it."""
    out = {}
    get = out.get
    for da, ka, ca in aterms:
        room = limit - da
        for db, kb, cb in bterms:
            if db > room:
                break
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return out


def multiply(a: SparseIntPolynomial, b: SparseIntPolynomial, cap=None) -> SparseIntPolynomial:
    """Exact product, dropping terms whose total degree exceeds `cap`.

    With no `cap`, the cap is the degree to which the product is complete:
    a factor capped at c bounds it by c plus the other factor's lowest
    degree (0 for an empty factor, which errs low); an uncapped one by nothing.

    The oracle's plain reference: the exponent tuples of each pair of terms
    are added, and the constructor cuts the sums at the cap and drops zeros.
    """
    if a.n != b.n:
        raise DimensionMismatch(f"{a.n} variables vs {b.n}")
    if cap is None:
        caps = [x.cap + min(map(sum, y.terms), default=0)
                for x, y in ((a, b), (b, a)) if x.cap is not None]
        cap = min(caps) if caps else None
    out = {}
    for (ea, ca), (eb, cb) in product(a.terms.items(), b.terms.items()):
        e = tuple(map(add, ea, eb))
        out[e] = out.get(e, 0) + ca * cb
    return SparseIntPolynomial(a.n, out, cap)


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
    recursion of the module docstring; with `outer` None every entry is
    complete.  An outer shape only clips: with s steps left, outer[s:] <=
    kappa <= outer row by row, since no strip lets row j+1 pass the old
    row j, and the degree bound counts the cells kappa lacks.  A chain
    that falls behind dies there, so outer is the only key left.
    """
    if n < 0:
        raise ValueError(f"n must be at least 0, got {n}")
    lows = inner + (0,) * n
    layer = {inner: {(): 1}}
    if outer is not None:  # the start is clipped like every later layer
        padded = outer + (0,) * (n + 1)
        layer = layer if contains(outer[n:], inner) else {}
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
            rows = kappa + (0,)
            tops = [min(b, k + budget) for k, b in zip(rows, (rows[0] + budget,) + kappa)]
            if outer is not None:  # s = n - i - 1 steps left after this one
                tops, rows = map(min, tops, padded), map(max, rows, padded[n - i - 1:])
            for nxt in product(*map(range, rows, [t + 1 for t in tops])):
                strip = sum(nxt) - size
                if strip > budget:
                    continue
                m = sum(1 for k, lo, b in zip(kappa, lows, nxt[1:]) if lo < k > b)
                weights = [(-1) ** extra * comb(m, extra) for extra in range(m + 1)]
                terms = grown.setdefault(nxt if nxt[-1] else nxt[:-1], {})
                for e, room, spare, coef in rooms:
                    for extra in range(min(m, room - strip, spare) + 1):
                        key = e + (strip + extra,)
                        terms[key] = terms.get(key, 0) + weights[extra] * coef
        layer = {kappa: kept for kappa, terms in grown.items()
                 if (kept := {e: c for e, c in terms.items() if c})}
    return layer


# cap stays in the key: caching the exhaustive cone once and truncating
# it per cap costs more memory than rebuilding per cap.  The entries are
# cones, not polynomials; only the public builders and the public peels
# ask here, not the oracle; the bound caps long-lived sessions
@lru_cache(maxsize=4096)
def _g_cone(outer: tuple, inner: tuple, n: int, cap: int) -> dict:
    """The partition-exponent terms of outer/inner to degree cap, as
    `_chains` gives them for outer.  Shared: callers must not mutate it."""
    return _chains(inner, outer, n, cap).get(outer, {})


def grothendieck_poly(outer, inner, n: int, cap=None) -> SparseIntPolynomial:
    """Signed generating polynomial of the skew shape's set-valued fillings.

    A filling with t total entries in a shape of s cells contributes
    (-1)^(t-s) times the monomial of its weight; only fillings with at
    most `cap` entries are summed.  The default cap n*s is exhaustive
    because no filling can hold more.  The sum is taken by the chain
    formula of the module docstring, not by listing fillings.
    """
    shape = skew(outer, inner)
    cells = shape.num_cells()
    if cap is None:
        cap = n * cells
    if cap < cells:
        raise ValueError(f"cap {cap} is below the cell count {cells}")
    return SparseIntPolynomial(
        n, _orbit_sum(_g_cone(shape.outer, shape.inner, int(n), int(cap))), int(cap))


def schur_poly(outer, inner, n: int) -> SparseIntPolynomial:
    """Generating polynomial of the one-entry-per-cell fillings.

    Equals the minimal-degree homogeneous component of the signed
    polynomial of the same shape, so it is that polynomial truncated at
    the cell count.  The result carries no cap: a product of two Schur
    polynomials keeps every degree.
    """
    cells = skew(outer, inner).num_cells()
    return SparseIntPolynomial(n, grothendieck_poly(outer, inner, n, cells).terms)


class BasisExpansion(namedtuple("BasisExpansion", "basis coeffs")):
    """Signed integer coordinates of a polynomial on a partition basis, kept
    as the tuple (basis, coeffs): `basis` is "G" or "s", `coeffs` a
    read-only mapping, as the oracle's expansions are shared."""

    __slots__ = ()

    def coefficient(self, nu) -> int:
        return self.coeffs.get(Partition(nu), 0)

    def items(self) -> list:
        return sorted(self.coeffs.items(), key=lambda kv: (kv[0].size(), kv[0]))


@lru_cache(maxsize=128)
def _partitions(d: int, n: int) -> tuple:
    """partitions(d, max_length=n) in the same descending order, built once."""
    return tuple(partitions(d, max_length=n))


def _peel_cone(residual: dict, degrees, n: int, basis: str, element, key,
               exponent) -> BasisExpansion:
    """The coordinates on `basis` of the symmetric polynomial with dominant
    cone `residual` (consumed), peeled in `degrees`; `element(nu)` is a
    basis element's cone, `key(nu)` the key of x^nu, `exponent` unpacks one.

    Partitions nu are visited in descending lexicographic order (a linear
    extension of dominance); the residual coefficient at nu's monomial is
    recorded and that multiple of `element(nu)` subtracted; the residual
    is checked once, at the end.  A basis element has no term below
    degree |nu|, so peeling degree d never touches what is left at lower
    degrees: the lowest partition monomial left lies in the first degree
    that did not clear, and ResidualNonzero names it.
    """
    coeffs = {}
    for d in degrees:
        for nu in _partitions(d, n):
            c = residual.get(key(nu), 0)
            if not c:
                continue
            coeffs[nu] = c
            for e, g in element(nu).items():
                rest = residual.get(e, 0) - c * g
                if rest:
                    residual[e] = rest
                else:
                    del residual[e]
    if residual:
        low = min(map(exponent, residual), key=lambda e: (sum(e), e))
        raise ResidualNonzero(f"degree {sum(low)} did not clear; lowest monomial {low}")
    return BasisExpansion(basis, MappingProxyType(coeffs))


def _peel(p: SparseIntPolynomial, degrees, basis: str, element) -> BasisExpansion:
    """`_peel_cone` on exponent tuples, once `p` is checked symmetric."""
    if not is_symmetric(p):
        raise NotSymmetric(f"{p!r} is not symmetric up to degree {degrees[-1]}")
    return _peel_cone(_cone(p.terms), degrees, p.n, basis, element, lambda nu: nu.pad(p.n), tuple)


def expand_in_g_basis(p: SparseIntPolynomial, cap=None) -> BasisExpansion:
    """Coordinates of `p` on the signed set-valued basis, by degree peeling.

    `p` must be symmetric up to the cap, and `cap` may not exceed `p.cap`:
    terms above `p.cap` were dropped, not zero.  The basis cones come from
    `_g_cone`, never from the oracle's table, so this peel's basis is the
    oracle's independent reference; the peel loop `_peel_cone` is shared.
    """
    if cap is None:
        cap = p.cap if p.cap is not None else p.max_degree()
    elif p.cap is not None and cap > p.cap:
        raise ValueError(f"cap {cap} is above the polynomial's cap {p.cap}")
    return _peel(p.truncate(cap), range(cap + 1), "G", lambda nu: _g_cone(nu, (), p.n, cap))


def expand_in_schur_basis(p: SparseIntPolynomial) -> BasisExpansion:
    """Coordinates of a homogeneous symmetric `p` on the singleton basis:
    its lowest degree d peeled against the cones of s_nu, G_nu at cap d."""
    d = min((sum(e) for e in p.terms), default=0)
    return _peel(p, (d,), "s", lambda nu: _g_cone(nu, (), p.n, d))


def expand_product(lam, mu, n: int, cap: int) -> BasisExpansion:
    """G_lam * G_mu, terms to degree `cap`, peeled onto the G basis.

    Read in min(n, cap) variables, which is exact: no nu of degree <= cap
    has more than cap parts, and G_nu in fewer variables is G_nu with the
    rest set to 0.  The product commutes, so `_products` stores one
    expansion per unordered pair {lam, mu}, peeled at the largest n and
    cap asked for it so far and shared with every query at that n and cap,
    so its `coeffs` is read-only.  A smaller query reads it cut, in order,
    to nu with at most n parts and |nu| <= cap.  That is exact: the peel is
    triangular by degree, so no coefficient to degree cap reads a term
    above it, and x_{n+1} = ... = 0 sends G_nu to G_nu in n variables, or
    to 0 past n parts.
    """
    lam, mu = sorted((Partition(lam), Partition(mu)))
    n, cap = min(int(n), int(cap)), int(cap)
    for cells in (sum(lam), sum(mu)):
        if cap < cells:
            raise ValueError(f"cap {cap} is below the cell count {cells}")
    if n < 0:
        raise ValueError(f"n must be at least 0, got {n}")
    slot = _products(lam, mu)
    top, top_cap, expansion = slot[0]
    if n > top or cap > top_cap:
        top, top_cap = max(n, top), max(cap, top_cap)
        expansion = _peel_product(lam, mu, top, top_cap)
        slot[0] = top, top_cap, expansion
    if (n, cap) == (top, top_cap):
        return expansion
    return BasisExpansion("G", MappingProxyType(
        {nu: c for nu, c in expansion.coeffs.items() if len(nu) <= n and sum(nu) <= cap}))


# one table per n: an lru_cache of a slot grown in place, at most 64 of
# them; a product cached by partitions stays valid when its table is rebuilt
_tables = lru_cache(maxsize=64)(lambda n: [(-1,)])


def _dominant_table(n: int, cap: int) -> tuple:
    """(top, cones, keys, powers): the table of n, rebuilt at cap if its top
    < cap: `_chains` from the empty partition, no outer shape, to degree top,
    each exponent vector e keyed sum(e_i * powers[i]) in base top + 1.
    cones: each nu with at most n parts to G_nu's partition-exponent terms
    as (degree, key, coefficient) by degree; keys: each such nu's key to its
    exponent vector and the keys of its orbit.  Shared: do not mutate it."""
    slot = _tables(n)
    if slot[0][0] < cap:
        chains = _chains((), None, n, cap)
        powers = [(cap + 1) ** i for i in reversed(range(n))]
        keys = {sum(map(mul, e, powers)): (e, tuple(sum(map(mul, o, powers)) for o in _orbit(e)))
                for e in (nu + (0,) * (n - len(nu)) for nu in chains)}
        cones = {nu: sorted((sum(e), sum(map(mul, e, powers)), c) for e, c in g.items())
                 for nu, g in chains.items()}
        slot[0] = cap, cones, keys, powers
    return slot[0]


# (lam, mu): an lru_cache of a slot grown in place, at most 1,024 pairs:
# (n, cap, the expansion at that n and cap), set only once a peel returns
_products = lru_cache(maxsize=1024)(lambda lam, mu: [(-1, -1, None)])


def _peel_product(lam: tuple, mu: tuple, n: int, cap: int) -> BasisExpansion:
    """G_lam * G_mu in the packed keys of `_dominant_table(n, cap)`, each
    factor the orbit sum of its cone (0 past n parts) less its terms above
    cap - |other|, as no term of G_other lies below degree |other|.  The
    product is checked symmetric, so by the module docstring its cone gives
    the full peel's coefficients; a residual is left only by a wrong basis element."""
    _, cones, keys, powers = _dominant_table(n, cap)
    first, second = ([(d, o, c) for d, k, c in cones.get(parts, ()) if d <= cap - sum(other)
                      for o in keys[k][1]] for parts, other in ((lam, mu), (mu, lam)))
    product = {k: c for k, c in _packed_product(first, second, cap).items() if c}
    residual = {k: c for k, c in product.items() if k in keys}
    if product != {o: c for k, c in residual.items() for o in keys[k][1]}:  # worded as `_peel`
        raise NotSymmetric(f"<poly n={n} terms={len(product)} cap={cap}> is not symmetric "
                           f"up to degree {cap}")
    return _peel_cone(residual, range(sum(lam) + sum(mu), cap + 1), n, "G",
                      lambda nu: {k: c for d, k, c in cones[nu] if d <= cap},
                      lambda nu: sum(map(mul, nu, powers)), lambda k: keys[k][0])
