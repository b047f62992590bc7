import random
from itertools import permutations
from math import comb
from operator import add, mul

import pytest

from klrcalc import grothendieck, verify
from klrcalc import (ContainmentError, DimensionMismatch, NotSymmetric,
                     Partition, ResidualNonzero, SparseIntPolynomial, contains,
                     enumerate_svt, expand_in_g_basis, expand_in_schur_basis,
                     grothendieck_poly, is_symmetric, multiply,
                     partitions_up_to, schur_poly, skew, total_entries, weight)

X1 = SparseIntPolynomial(2, {(1, 0): 1})
X2 = SparseIntPolynomial(2, {(0, 1): 1})


def g_poly_by_enumeration(outer, inner, n, caps):
    """Reference: sum (-1)^(entries - cells) x^weight over the fillings with
    at most cap entries, one polynomial per cap, from one enumeration."""
    shape = skew(outer, inner)
    cells = shape.num_cells()
    fillings = [(total_entries(f), weight(f, n)) for f in enumerate_svt(shape, n)]
    polys = []
    for cap in caps:
        terms = {}
        for entries, w in fillings:
            if entries <= cap:
                terms[w] = terms.get(w, 0) + (-1 if (entries - cells) % 2 else 1)
        polys.append(SparseIntPolynomial(n, terms, cap))
    return polys


def multiply_reference(a, b, cap=None):
    """Reference: the product as one tuple sum per pair of terms.  With no
    cap, the degree to which the product is complete: each capped factor's
    cap plus the other factor's lowest degree (0 when it is empty)."""
    if cap is None:
        caps = []
        for x, y in ((a, b), (b, a)):
            if x.cap is not None:
                caps.append(x.cap + min((sum(e) for e in y.terms), default=0))
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
    return SparseIntPolynomial(a.n, out, cap)


def s_poly_by_enumeration(outer, inner, n):
    """Reference: sum x^weight over the one-entry-per-cell fillings."""
    terms = {}
    for f in enumerate_svt(skew(outer, inner), n, singleton=True):
        w = weight(f, n)
        terms[w] = terms.get(w, 0) + 1
    return SparseIntPolynomial(n, terms)


def homogeneous(p, degree):
    """The degree-`degree` terms of `p`, through the public constructor."""
    return SparseIntPolynomial(p.n, {e: c for e, c in p.terms.items() if sum(e) == degree})


@pytest.fixture
def products(monkeypatch):
    """The cap of each product the oracle's product loop makes from now on."""
    real, caps = grothendieck._packed_product, []

    def counted(a, b, limit):
        caps.append(limit)
        return real(a, b, limit)

    monkeypatch.setattr(grothendieck, "_packed_product", counted)
    return caps


def test_polynomial_basics():
    p = SparseIntPolynomial(2, {(1, 0): 1, (0, 1): 0})
    assert p.terms == {(1, 0): 1}
    assert p.coefficient((0, 1)) == 0
    capped = SparseIntPolynomial(2, {(3, 3): 5, (1, 0): 2}, cap=4)
    assert capped.terms == {(1, 0): 2}
    with pytest.raises(ValueError):
        SparseIntPolynomial(2, {(1,): 1})
    # equal polynomials hold mutable term dicts, so none is hashable
    with pytest.raises(TypeError):
        hash(p)


def test_grothendieck_poly_single_cell():
    g = grothendieck_poly((1,), (), 2)
    assert g.terms == {(1, 0): 1, (0, 1): 1, (1, 1): -1}
    assert grothendieck_poly((), (), 3).terms == {(0, 0, 0): 1}
    assert grothendieck_poly((1, 1), (), 1).terms == {}


def test_grothendieck_poly_errors():
    with pytest.raises(ContainmentError):
        grothendieck_poly((1,), (2,), 2)
    with pytest.raises(ValueError):
        grothendieck_poly((2, 1), (), 2, cap=2)  # cap below the cell count
    for shape in ((), (1,)):  # a negative n, not an endless chain recursion
        with pytest.raises(ValueError):
            grothendieck_poly(shape, (), -1, cap=1)
        with pytest.raises(ValueError):
            schur_poly(shape, (), -1)


def test_schur_poly_small():
    assert schur_poly((1,), (), 2).terms == {(1, 0): 1, (0, 1): 1}
    assert schur_poly((2,), (), 2).terms == {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    assert schur_poly((), (), 1).terms == {(0,): 1}


def test_multiply():
    assert multiply(X1, X2).terms == {(1, 1): 1}
    one = SparseIntPolynomial(2, {(0, 0): 1})
    g = grothendieck_poly((2, 1), (), 2)
    assert multiply(g, one) == g
    square = multiply(grothendieck_poly((1,), (), 2),
                      grothendieck_poly((1,), (), 2), 4)
    assert square.terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1,
                            (2, 1): -2, (1, 2): -2, (2, 2): 1}
    with pytest.raises(DimensionMismatch):
        multiply(X1, SparseIntPolynomial(3, {(1, 0, 0): 1}))


def _random_poly(rng, n):
    """Up to 12 terms with exponents up to 6 and coefficients +-1, +-2;
    a low top exponent makes the products collide and cancel."""
    top = rng.choice((1, 2, 6))
    terms = {}
    for _ in range(rng.randint(1, 12)):
        e = tuple(rng.randint(0, top) for _ in range(n))
        terms[e] = terms.get(e, 0) + rng.choice((-2, -1, 1, 2))
    cap = rng.choice((None, None, rng.randint(0, 6 * n)))
    return SparseIntPolynomial(n, terms, cap)


def _assert_multiply_matches_reference(a, b, cap):
    got = multiply(a, b, cap)
    expected = multiply_reference(a, b, cap)
    assert got.terms == expected.terms, (a.terms, b.terms, cap)
    assert got.cap == expected.cap


def test_multiply_matches_reference_on_random_polynomials():
    rng = random.Random(20021)
    cancelled = 0
    for n in range(6):
        for _ in range(60):
            a, b = _random_poly(rng, n), _random_poly(rng, n)
            degrees = [da + db for da in map(sum, a.terms) for db in map(sum, b.terms)]
            low, high = min(degrees, default=0), max(degrees, default=0)
            caps = {None, (low + high) // 2, high + 1}
            if low > 0:
                caps.add(low - 1)
            for cap in caps:
                _assert_multiply_matches_reference(a, b, cap)
            sums = {tuple(map(add, ea, eb)) for ea in a.terms for eb in b.terms}
            cancelled += len(sums) - len(multiply_reference(a, b, high).terms)
    assert cancelled >= 50  # sums that cancel to 0 are in the sample


def test_multiply_commutes_on_random_polynomials():
    # the pairs and caps of the test above; the verify sweep multiplies
    # each unordered pair in one order only
    rng = random.Random(20021)
    for n in range(6):
        for _ in range(60):
            a, b = _random_poly(rng, n), _random_poly(rng, n)
            degrees = [da + db for da in map(sum, a.terms) for db in map(sum, b.terms)]
            low, high = min(degrees, default=0), max(degrees, default=0)
            caps = {None, (low + high) // 2, high + 1}
            if low > 0:
                caps.add(low - 1)
            for cap in caps:
                ab, ba = multiply(a, b, cap), multiply(b, a, cap)
                assert ab.terms == ba.terms, (a.terms, b.terms, cap)
                assert ab.cap == ba.cap


def test_expand_product_is_the_same_in_both_orders():
    lams = list(partitions_up_to(3, max_length=3))
    for lam in lams:
        for mu in lams:
            cap = lam.size() + mu.size() + 3
            grothendieck._products.cache_clear()
            forward = grothendieck.expand_product(lam, mu, 3, cap)
            grothendieck._products.cache_clear()
            backward = grothendieck.expand_product(mu, lam, 3, cap)
            assert forward.coeffs == backward.coeffs, (lam, mu)


def test_expand_product_is_the_same_in_any_cap_order(products, cold_caches):
    # an expansion peeled at a larger cap and cut to a smaller one is the
    # expansion at that cap: every pair of size <= 3 at n = 3, at four caps
    # each, ascending and then, from cold, descending.  Descending, each
    # unordered pair is peeled once, at its largest cap, and every smaller
    # cap is a cut of it.  The cache holds one table per n throughout
    pairs = [(lam, mu) for lam in partitions_up_to(3) for mu in partitions_up_to(3)]

    def expand(order):
        cold_caches()
        products.clear()
        got = {}
        for lam, mu in pairs:
            low = lam.size() + mu.size()
            for cap in order(range(low, low + 4)):
                got[lam, mu, cap] = dict(grothendieck.expand_product(lam, mu, 3, cap).coeffs)
                assert grothendieck._tables.cache_info().currsize <= 4  # n = 0..3
        return got, len(products)

    (ascending, grown), (descending, once) = expand(list), expand(reversed)
    assert ascending == descending
    shapes = len(list(partitions_up_to(3)))
    assert once == shapes * (shapes + 1) // 2 == 28
    assert grown == 4 * once


def test_multiply_matches_reference_on_verify_products(monkeypatch, cold_caches):
    # the oracle runs its own product loop on packed keys; each of its
    # products, read back as exponent tuples in the base of the table it
    # was keyed in, is the reference product
    products, tables = [], []
    real, real_table = grothendieck._packed_product, grothendieck._dominant_table

    def recording(a, b, limit):
        out = real(a, b, limit)
        products.append((a, b, limit, out, tables[-1]))
        return out

    def table(n, cap):
        tables.append(real_table(n, cap))
        return tables[-1]

    monkeypatch.setattr(grothendieck, "_packed_product", recording)
    monkeypatch.setattr(grothendieck, "_dominant_table", table)
    assert all(r.ok for r in verify.run_verify(3, 3, jobs=1))
    factors = len(list(partitions_up_to(3, max_length=3)))
    # one per unordered pair {lam, mu} of verify 3/3: the cap is symmetric
    assert len(products) == factors * (factors + 1) // 2
    for a, b, cap, out, (top, _, _, powers) in products:
        n = len(powers)

        def unpacked(terms):
            return {tuple(k // p % (top + 1) for p in powers): c for k, c in terms if c}

        fa, fb = (SparseIntPolynomial(n, unpacked((k, c) for _, k, c in f)) for f in (a, b))
        assert unpacked(out.items()) == multiply_reference(fa, fb, cap).terms


def test_multiply_default_cap_keeps_a_nonzero_product():
    # caps 2 and 6, lowest degrees 1 and 3: no product term lies at or
    # below the smaller cap, and the product is complete to min(2 + 3, 6 + 1)
    product = multiply(grothendieck_poly((1,), (), 2), grothendieck_poly((2, 1), (), 2))
    assert product.cap == 5
    expected = {Partition((3, 1)): 1, Partition((2, 2)): 1, Partition((3, 2)): -1}
    assert expand_in_g_basis(product).coeffs == expected
    assert grothendieck.expand_product((1,), (2, 1), 2, 5).coeffs == expected
    # an uncapped factor bounds nothing; an empty one counts as degree 0
    assert multiply(X1, grothendieck_poly((1,), (), 2, 1)).cap == 2
    assert multiply(X1, X2).cap is None
    assert multiply(SparseIntPolynomial(2, {}, 7), grothendieck_poly((1,), (), 2, 1)).cap == 1


def test_is_symmetric():
    assert is_symmetric(grothendieck_poly((2, 1), (), 3))
    assert not is_symmetric(X1)
    assert is_symmetric(SparseIntPolynomial(4, {(0, 0, 0, 0): 7}))
    # an orbit missing a member, unequal coefficients, a lone non-partition term
    assert not is_symmetric(SparseIntPolynomial(3, {(1, 1, 0): 1, (1, 0, 1): 1}))
    assert not is_symmetric(SparseIntPolynomial(2, {(1, 0): 1, (0, 1): 2}))
    assert not is_symmetric(X2)


def test_expand_g_basis_element():
    g = grothendieck_poly((2, 1), (), 2)
    expansion = expand_in_g_basis(g)
    assert expansion.coeffs == {Partition((2, 1)): 1}


def test_expand_g_basis_square_of_one_box():
    square = multiply(grothendieck_poly((1,), (), 2),
                      grothendieck_poly((1,), (), 2), 4)
    expansion = expand_in_g_basis(square, 4)
    assert expansion.coeffs == {Partition((2,)): 1,
                                Partition((1, 1)): 1,
                                Partition((2, 1)): -1}


def test_expand_errors():
    # one peel gives every expansion its texts: the polynomial checked is
    # the one truncated to the cap, and the residual named is its lowest
    # partition monomial
    with pytest.raises(NotSymmetric) as info:
        expand_in_g_basis(X1, 2)
    assert str(info.value) == "<poly n=2 terms=1 cap=2> is not symmetric up to degree 2"
    high = SparseIntPolynomial(2, {(1, 0): 1, (2, 2): 1}, 4)
    with pytest.raises(NotSymmetric) as info:
        expand_in_g_basis(high, 2)
    assert str(info.value) == "<poly n=2 terms=1 cap=2> is not symmetric up to degree 2"
    with pytest.raises(NotSymmetric) as info:
        expand_in_schur_basis(X1)
    assert str(info.value) == "<poly n=2 terms=1 cap=None> is not symmetric up to degree 1"
    mixed = SparseIntPolynomial(2, {(1, 0): 1, (0, 1): 1, (0, 0): 2})  # s_1 + 2
    with pytest.raises(ResidualNonzero) as info:
        expand_in_schur_basis(mixed)
    assert str(info.value) == "degree 1 did not clear; lowest monomial (1, 0)"


def test_reference_product_shares_no_loop_with_the_oracle(monkeypatch):
    # multiply multiplies exponent tuples itself, so the public product and
    # peel stay a reference with the oracle's packed product loop gone
    def refuse(*args, **kwargs):
        raise AssertionError("the reference ran the oracle's product loop")

    monkeypatch.setattr(grothendieck, "_packed_product", refuse)
    g1 = grothendieck_poly((1,), (), 2, 4)
    assert expand_in_g_basis(multiply(g1, g1, 4), 4).coeffs == {
        Partition((2,)): 1, Partition((1, 1)): 1, Partition((2, 1)): -1}


def test_expand_g_basis_rejects_cap_above_polynomial_cap():
    g1 = grothendieck_poly((1,), (), 2, 2)
    square = multiply(g1, g1, 2)  # terms above degree 2 dropped, not zero
    with pytest.raises(ValueError, match=r"cap 4 .*cap 2"):
        expand_in_g_basis(square, 4)
    assert expand_in_g_basis(square, 2).coeffs == {Partition((2,)): 1,
                                                   Partition((1, 1)): 1}


def test_expand_g_basis_residual_message(monkeypatch):
    # the peel reads basis cones alone, so a lost term must be a
    # partition monomial to be seen; the product is built before the patch
    real = grothendieck._g_cone

    def lossy(outer, inner, n, cap):
        cone = real(outer, inner, n, cap)
        if Partition(outer) == Partition((2, 1)):  # G_(2,1) loses x1^2 x2
            cone = {e: c for e, c in cone.items() if e != (2, 1)}
        return cone

    g1 = grothendieck_poly((1,), (), 2, 4)
    square = multiply(g1, g1, 4)
    monkeypatch.setattr(grothendieck, "_g_cone", lossy)
    with pytest.raises(ResidualNonzero) as info:
        expand_in_g_basis(square, 4)
    assert str(info.value) == "degree 3 did not clear; lowest monomial (2, 1)"


def test_expand_product_residual_message(monkeypatch, cold_caches):
    # expand_product peels the partition monomials alone, and each one
    # clears when its own basis element is peeled, unless that element
    # has lost its leading term
    real = grothendieck._dominant_table

    def lossy(n, cap):
        top, cones, keys, powers = real(n, cap)
        cones = dict(cones)  # G_(2,1) loses x1^2 x2
        cones[(2, 1)] = [(d, k, c) for d, k, c in cones[(2, 1)] if keys[k][0] != (2, 1)]
        return top, cones, keys, powers

    monkeypatch.setattr(grothendieck, "_dominant_table", lossy)
    with pytest.raises(ResidualNonzero) as info:
        grothendieck.expand_product((1,), (1,), 2, 4)
    assert str(info.value) == "degree 3 did not clear; lowest monomial (2, 1)"


def test_expand_product_reports_an_asymmetric_product(monkeypatch, cold_caches):
    # the oracle peels the product's partition monomials alone, which is
    # exact only for a symmetric product; a product that lost x2^2 must
    # be refused before the peel, not peeled to wrong coefficients.  The
    # key of x2^2 is read in the base of the table the product will use
    real = grothendieck._packed_product
    _, _, _, powers = grothendieck._dominant_table(2, 2)
    lost = sum(map(mul, (0, 2), powers))

    def lossy(a, b, limit):
        return {k: c for k, c in real(a, b, limit).items() if k != lost}

    monkeypatch.setattr(grothendieck, "_packed_product", lossy)
    with pytest.raises(NotSymmetric) as info:
        grothendieck.expand_product((1,), (1,), 2, 2)
    assert str(info.value) == "<poly n=2 terms=2 cap=2> is not symmetric up to degree 2"


def test_expand_product_matches_full_peel(cold_caches):
    # the dominant-cone peel against the public full peel, at a cap past
    # the product's lowest degree and at one below it; l(lam) > n included
    shapes = list(partitions_up_to(4))
    checked = 0
    for n in range(5):
        for lam in shapes:
            for mu in shapes:
                for cap in (lam.size() + mu.size() + 3, max(lam.size(), mu.size())):
                    product = multiply(grothendieck_poly(lam, (), n, cap),
                                       grothendieck_poly(mu, (), n, cap), cap)
                    expected = expand_in_g_basis(product, cap)
                    got = grothendieck.expand_product(lam, mu, n, cap)
                    assert got.coeffs == expected.coeffs, (lam, mu, n, cap)
                    checked += bool(expected.coeffs)
    assert checked > 400


def test_expand_product_builds_no_factor_of_its_own(monkeypatch, cold_caches):
    # the factors come from the table the peel reads, and the product stays
    # in packed keys, so the oracle works with the public builders' cache,
    # multiply and every polynomial construction patched to raise; its
    # coefficients are still those of the public reference peel
    cases = [(lam.parts, mu.parts, n, lam.size() + mu.size() + 2)
             for lam in partitions_up_to(3) for mu in partitions_up_to(3)
             for n in range(4)]
    expected = [expand_in_g_basis(multiply(grothendieck_poly(lam, (), n, cap),
                                           grothendieck_poly(mu, (), n, cap), cap), cap).coeffs
                for lam, mu, n, cap in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle built a polynomial of its own")

    monkeypatch.setattr(grothendieck, "_g_cone", refuse)
    monkeypatch.setattr(grothendieck, "multiply", refuse)
    monkeypatch.setattr(SparseIntPolynomial, "__init__", refuse)
    cold_caches()  # no cached product or table hides a call
    assert [grothendieck.expand_product(*case).coeffs for case in cases] == expected
    assert any(len(lam) > n and not coeffs
               for (lam, _, n, _), coeffs in zip(cases, expected))


def test_public_expansions_build_no_full_basis_polynomial(monkeypatch):
    # both public peels read basis cones alone, never a whole G_nu or s_nu
    shapes = list(partitions_up_to(3))
    n = 3
    products = []
    for lam in shapes:
        for mu in shapes:
            cap = lam.size() + mu.size() + 2
            products.append((
                multiply(grothendieck_poly(lam, (), n, cap),
                         grothendieck_poly(mu, (), n, cap), cap), cap,
                multiply(schur_poly(lam, (), n), schur_poly(mu, (), n))))

    def expansions():
        return [(expand_in_g_basis(g, cap).coeffs, expand_in_schur_basis(s).coeffs)
                for g, cap, s in products]

    expected = expansions()

    def refuse(*args, **kwargs):
        raise AssertionError("a public expansion built a full basis polynomial")

    monkeypatch.setattr(grothendieck, "grothendieck_poly", refuse)
    monkeypatch.setattr(grothendieck, "schur_poly", refuse)
    assert expansions() == expected
    assert sum(len(g) + len(s) for g, s in expected) == 242


def test_expand_product_is_stable_when_n_grows(cold_caches):
    # G_nu in n + 1 variables maps to G_nu in n when x_{n+1} = 0, and to 0
    # past n parts, so the n-variable coefficients are the (n + 1)-variable
    # ones on nu with at most n parts
    shapes = list(partitions_up_to(4))
    checked = 0
    for n in range(5):
        for lam in shapes:
            for mu in shapes:
                cap = lam.size() + mu.size() + 2
                got = grothendieck.expand_product(lam, mu, n, cap).coeffs
                wider = grothendieck.expand_product(lam, mu, n + 1, cap).coeffs
                assert got == {nu: c for nu, c in wider.items() if len(nu) <= n}, \
                    (lam, mu, n)
                checked += bool(got)
    assert checked == 372


def test_expand_product_reads_at_most_cap_variables():
    # no nu of degree <= cap has more than cap parts, so n past the cap
    # answers as n = cap does; the unbounded oracle in cap + 1 variables agrees
    shapes = list(partitions_up_to(3))
    checked = 0
    for i, lam in enumerate(shapes):
        for mu in shapes[i:]:
            for cap in range(lam.size() + mu.size(), lam.size() + mu.size() + 3):
                expected = grothendieck.expand_product(lam, mu, cap, cap).coeffs
                for n in (cap + 1, cap + 2):
                    assert grothendieck.expand_product(lam, mu, n, cap).coeffs == expected
                wide = grothendieck._peel_product(*sorted((lam, mu)), cap + 1, cap)
                assert wide.coeffs == expected, (lam, mu, cap)
                checked += bool(expected)
    assert checked == 84


def test_expand_product_argument_errors():
    # the arguments are checked before the stored expansions are read: a
    # pair held at a larger n and cap still refuses a bad n and a low cap
    grothendieck.expand_product((1,), (1,), 4, 8)
    grothendieck.expand_product((3,), (1,), 4, 8)
    with pytest.raises(ValueError) as info:
        grothendieck.expand_product((1,), (1,), -1, 2)
    assert str(info.value) == "n must be at least 0, got -1"
    with pytest.raises(ValueError) as info:
        grothendieck.expand_product((3,), (1,), 2, 2)
    assert str(info.value) == "cap 2 is below the cell count 3"


def test_expand_product_is_the_same_in_any_query_order(products, cold_caches):
    # the store grows a pair's expansion to the largest n and cap asked and
    # cuts it to each smaller query; in a shuffled order, each answer is the
    # one computed cold, in coefficients and in their order
    shapes = list(partitions_up_to(3))
    keys = [(lam, mu, n, cap) for lam in shapes for mu in shapes for n in range(1, 5)
            for cap in range(lam.size() + mu.size(), lam.size() + mu.size() + 4)]

    def cold(key):
        grothendieck._products.cache_clear()
        return list(grothendieck.expand_product(*key).coeffs.items())

    expected = {key: cold(key) for key in keys}
    random.Random(30).shuffle(keys)
    products.clear()
    cold_caches()
    for key in keys:
        assert list(grothendieck.expand_product(*key).coeffs.items()) == expected[key], key
    assert len(keys) == 784
    assert len(products) == 76  # for 28 unordered pairs


def test_check_rules_reads_one_product_per_unordered_pair(products, cold_caches):
    # verify asks (lam, mu) and (mu, lam) at one n and the symmetric cap
    # |lam| + |mu| + 3, so the second order reads the product the first
    # stored: one product per unordered pair, every other ask a hit on the
    # one store, and at the stored n and cap both orders get one expansion
    shapes = list(partitions_up_to(3))
    pairs = [(lam, mu) for lam in shapes for mu in shapes]
    for lam, mu in pairs:
        assert verify.check_rules(lam, mu, 3) == ""
        assert verify.check_rules(mu, lam, 3) == ""
    assert len(products) == len(shapes) * (len(shapes) + 1) // 2 == 28
    assert grothendieck._products.cache_info()[:2] == (2 * len(pairs) - 28, 28)
    cold_caches()
    for lam, mu in pairs:
        cap = lam.size() + mu.size() + 3
        stored = grothendieck.expand_product(lam, mu, 3, cap)
        assert grothendieck.expand_product(mu, lam, 3, cap) is stored, (lam, mu)


def test_oracle_stores_are_bounded(monkeypatch, cold_caches):
    # one table per n, at most 64: n = 0..64 at cap 1 builds 65 tables and
    # evicts the least recently used, n = 0, which the next ask builds again;
    # n = 64, used since, is kept
    assert grothendieck._tables.cache_info().maxsize == 64
    assert grothendieck._products.cache_info().maxsize == 1024
    real, built = grothendieck._chains, []

    def counted(inner, outer, n, cap):
        built.append(n)
        return real(inner, outer, n, cap)

    monkeypatch.setattr(grothendieck, "_chains", counted)
    for n in [*range(65), 0, 64]:
        assert grothendieck._dominant_table(n, 1)[0] == 1
    assert built == [*range(65), 0]
    assert grothendieck._tables.cache_info().currsize == 64


def test_a_peel_that_raises_leaves_the_stored_pair(monkeypatch, products, cold_caches):
    # the store is written only once a peel returns: after a peel at a
    # larger n and cap fails, the pair answers its stored n and cap with no
    # new product, and the larger query as cold once the peel works again
    expected = {}
    for n, cap in ((2, 3), (3, 4)):
        cold_caches()
        expected[n, cap] = list(grothendieck.expand_product((1,), (1,), n, cap).coeffs.items())
    cold_caches()
    grothendieck.expand_product((1,), (1,), 2, 3)
    real = grothendieck._peel_product

    def broken(*args):
        raise RuntimeError("peel failed")

    monkeypatch.setattr(grothendieck, "_peel_product", broken)
    with pytest.raises(RuntimeError):
        grothendieck.expand_product((1,), (1,), 3, 4)
    monkeypatch.setattr(grothendieck, "_peel_product", real)
    products.clear()
    assert list(grothendieck.expand_product((1,), (1,), 2, 3).coeffs.items()) == expected[2, 3]
    assert products == []
    assert list(grothendieck.expand_product((1,), (1,), 3, 4).coeffs.items()) == expected[3, 4]
    assert products == [4]


def test_expand_in_g_basis_of_an_uncapped_polynomial():
    # a product with no cap is peeled to its largest degree
    s1 = schur_poly((1,), (), 2)
    product = multiply(s1, s1)
    assert product.cap is None
    got = expand_in_g_basis(product)
    assert {nu.parts: c for nu, c in got.coeffs.items()} == {(2,): 1, (1, 1): 1}


def test_expand_schur_basis():
    prod = multiply(schur_poly((1,), (), 2), schur_poly((1,), (), 2))
    expansion = expand_in_schur_basis(prod)
    assert expansion.coeffs == {Partition((2,)): 1, Partition((1, 1)): 1}
    s = schur_poly((3, 1), (), 3)
    assert expand_in_schur_basis(s).coeffs == {Partition((3, 1)): 1}
    prod = multiply(schur_poly((2, 1), (), 3), schur_poly((2, 1), (), 3))
    assert expand_in_schur_basis(prod).coefficient((3, 2, 1)) == 2


def test_minimal_degree_component_is_schur():
    for outer in partitions_up_to(5, max_length=3):
        for inner in partitions_up_to(3, max_length=3):
            if not contains(inner, outer):
                continue
            d = outer.size() - inner.size()
            for n in (1, 2, 3):
                g = grothendieck_poly(outer, inner, n)
                assert homogeneous(g, d) == s_poly_by_enumeration(outer, inner, n)
            for n in range(5):
                assert schur_poly(outer, inner, n) == s_poly_by_enumeration(outer, inner, n)


def test_symmetry_sweep():
    for outer in partitions_up_to(5, max_length=3):
        for n in (1, 2, 3):
            assert is_symmetric(grothendieck_poly(outer, (), n))


def test_truncation_coherence():
    for outer in partitions_up_to(4, max_length=2):
        cells = outer.size()
        full = grothendieck_poly(outer, (), 2, cap=2 * cells)
        for cap in range(cells, 2 * cells + 1):
            direct = grothendieck_poly(outer, (), 2, cap=cap)
            assert full.truncate(cap) == direct


def test_signed_sum_of_skew_shape():
    # six-cell skew example: check the polynomial against a hand filter
    g = grothendieck_poly((4, 3, 2), (2, 1), 4, cap=7)
    s = s_poly_by_enumeration((4, 3, 2), (2, 1), 4)
    assert homogeneous(g, 6) == s
    # weight (3,2,2,3) appears with entries summing to 10 > cap  only via
    # lower-entry fillings; compare one coefficient against enumeration
    expected = 0
    for f in enumerate_svt(skew((4, 3, 2), (2, 1)), 4):
        if total_entries(f) <= 7 and weight(f, 4) == (2, 2, 2, 1):
            expected += -1 if (total_entries(f) - 6) % 2 else 1
    assert g.coefficient((2, 2, 2, 1)) == expected


def test_large_product_expansion_matches_final_example():
    cap = 13
    product = multiply(grothendieck_poly((3, 2, 1), (), 4, cap),
                       grothendieck_poly((3, 1), (), 4, cap), cap)
    expansion = expand_in_g_basis(product, cap)
    # degree gap 13 - 10 = 3 is odd, so the stored coefficient is -C
    assert expansion.coefficient((4, 4, 3, 2)) == -2


def test_chain_recursion_matches_enumeration():
    checked = 0
    for outer in partitions_up_to(6, max_length=4):
        for inner in partitions_up_to(3):
            if not contains(inner, outer):
                continue
            cells = outer.size() - inner.size()
            for n in range(5):
                caps = sorted({cells, cells + 2, max(n, 1) * cells})
                for cap, expected in zip(caps, g_poly_by_enumeration(outer, inner, n, caps)):
                    got = grothendieck_poly(outer, inner, n, cap)
                    assert got == expected, (outer, inner, n, cap)
                    if n == 0:  # the empty chain, which reaches outer only from itself
                        assert got.terms == ({(): 1} if outer == inner else {})
                    checked += 1
    assert checked > 1000
    # the oracle's forward table: every G_nu with at most n parts and
    # |nu| <= top, at its partition exponents up to degree top; cut to
    # degree cap, a table built at a larger top is the table at cap
    checked = cut = 0
    for n in range(5):
        for nu in partitions_up_to(6):
            for cap in range(nu.size(), nu.size() + 4):
                top, cones, keys, _ = grothendieck._dominant_table(n, cap)
                assert top >= cap
                assert set(cones) == {k.parts for k in partitions_up_to(top, max_length=n)}
                expected = {e: c for e, c in grothendieck_poly(nu, (), n, cap).terms.items()
                            if list(e) == sorted(e, reverse=True)}
                got = {keys[k][0]: c for d, k, c in cones.get(nu.parts, ()) if d <= cap}
                assert got == expected, (nu, n, cap)
                checked += bool(expected)
                cut += bool(expected) and top > cap
    assert checked > 250 and cut > 100


def test_chains_with_an_outer_shape_end_only_at_outer():
    # the clip outer[s:] <= kappa <= outer, s steps left, ends every chain
    # that cannot reach outer where it falls behind, the start included,
    # so no other kappa(n) is built and dropped afterwards
    checked = 0
    for outer in partitions_up_to(6):
        for inner in partitions_up_to(3):
            if not contains(inner, outer):
                continue
            cells = outer.size() - inner.size()
            for n in range(5):
                got = grothendieck._chains(inner.parts, outer.parts, n, cells + 3)
                assert set(got) <= {outer.parts}, (outer, inner, n)
                checked += bool(got)
    assert checked == 478


def test_exhaustive_large_shape():
    g = grothendieck_poly((5, 3, 2), (), 5)
    assert g.cap == 50
    assert is_symmetric(g)
    assert homogeneous(g, 10) == s_poly_by_enumeration((5, 3, 2), (), 5)
    assert min(sum(e) for e in g.terms) == 10


def _power_times_one_minus(n, i, a, k):
    """x_i^a (1 - x_i)^k as a polynomial in n variables."""
    terms = {}
    for t in range(k + 1):
        exp = [0] * n
        exp[i] = a + t
        terms[tuple(exp)] = (-1) ** t * comb(k, t)
    return SparseIntPolynomial(n, terms)


def _bialternant(lam, n, k_theoretic):
    """det[x_i^(lam_j+n-j) (1 - x_i)^(j-1)] as a Leibniz sum; without the
    (1 - x_i) factors when not k_theoretic."""
    entry = [[_power_times_one_minus(n, i, lam[j] + n - 1 - j, j if k_theoretic else 0)
              for j in range(n)] for i in range(n)]
    summands = []  # the constructor adds up repeated exponents
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        term = SparseIntPolynomial(n, {(0,) * n: -1 if inversions % 2 else 1})
        for i, j in enumerate(perm):
            term = multiply(term, entry[i][j])
        summands.extend(term.terms.items())
    return SparseIntPolynomial(n, summands)


def test_bialternant_formulas():
    # G_lam * prod_{i<j}(x_i - x_j) = det[x_i^(lam_j+n-j) (1 - x_i)^(j-1)],
    # and the same without (1 - x_i)^(j-1) for s_lam: a check of the
    # chain recursion against a formula that shares no code with it
    checked = 0
    for n in range(1, 5):
        vandermonde = SparseIntPolynomial(n, {(0,) * n: 1})
        for i in range(n):
            for j in range(i + 1, n):
                diff = SparseIntPolynomial(
                    n, {tuple(int(k == i) for k in range(n)): 1,
                        tuple(int(k == j) for k in range(n)): -1})
                vandermonde = multiply(vandermonde, diff)
        for lam in partitions_up_to(5, max_length=n):
            g = grothendieck_poly(lam, (), n).truncate(None)
            assert multiply(g, vandermonde) == _bialternant(lam, n, True), (lam, n)
            # the dominant table keeps the partition exponents of G_lam; a
            # symmetric polynomial is the orbit sum of those
            cap = n * lam.size()
            _, cones, keys, _ = grothendieck._dominant_table(n, cap)
            orbits = SparseIntPolynomial(n, {e: c for d, k, c in cones[lam.parts] if d <= cap
                                             for e in set(permutations(keys[k][0]))})
            assert multiply(orbits, vandermonde) == _bialternant(lam, n, True), (lam, n)
            s = schur_poly(lam, (), n)
            assert multiply(s, vandermonde) == _bialternant(lam, n, False), (lam, n)
            checked += 1
    assert checked > 40
