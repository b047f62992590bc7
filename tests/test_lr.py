import sys
from dataclasses import replace

import pytest

import worked_examples as wx
from klrcalc import (CoefficientQuery, DegreeError, DomainError, GTPattern,
                     InternalInvariantError, Partition, SetValuedFilling,
                     buch_tableaux, coeff_buch, coeff_classical, coeff_contra,
                     coeff_oracle, contra_tableaux, enumerate_svt, gamma,
                     gamma_inverse, is_lambda_dominant, omega,
                     partitions_up_to, rotate, skew, total_entries, upsilon,
                     upsilon_inverse, weight, witness_lists)
from klrcalc import grothendieck, gtpatterns, lr, verify


def final_query():
    return CoefficientQuery(wx.FINAL_LAM, wx.FINAL_MU, wx.FINAL_NU)


def test_query_defaults():
    q = final_query()
    assert q.n == 4
    with pytest.raises(DomainError):
        CoefficientQuery((3, 2, 1), (1,), (3, 2, 1), n=2)


def test_coeff_buch_examples():
    assert coeff_buch(final_query()) == 2
    assert coeff_buch(CoefficientQuery((4, 2), (), (4, 2))) == 1
    assert coeff_buch(CoefficientQuery((1,), (1,), (3,))) == 0


def test_coeff_contra_examples():
    assert coeff_contra(final_query()) == 2
    assert coeff_contra(CoefficientQuery((), (3, 3, 1), (3, 3, 1))) == 1
    assert coeff_contra(CoefficientQuery((1,), (1,), (2, 1))) == 1
    assert coeff_buch(CoefficientQuery((1,), (1,), (2, 1))) == 1


def test_final_example_witness_sets():
    q = final_query()
    assert set(buch_tableaux(q)) == {wx.t1(), wx.t2()}
    assert set(contra_tableaux(q)) == {wx.s1(), wx.s2()}


def test_coeff_classical():
    assert coeff_classical(CoefficientQuery((1,), (1,), (1, 1))) == 1
    assert coeff_classical(CoefficientQuery((2, 1), (2, 1), (3, 2, 1))) == 2
    assert coeff_classical(CoefficientQuery((2, 2), (), (2, 2))) == 1
    with pytest.raises(DegreeError):
        coeff_classical(CoefficientQuery((1,), (1,), (2, 1, 1)))


def test_gamma_trace_matches_worked_example():
    q = final_query()
    trace = gamma(wx.t1(), q)
    assert trace.tableau_pattern == GTPattern(wx.X_T1_ROWS)
    assert trace.tableau_marks == frozenset(wx.M_T1)
    assert trace.contra_pattern == GTPattern(wx.Y_T1_ROWS)
    assert trace.contra_marks == frozenset(wx.MP_T1)
    assert trace.contratableau == wx.s1()
    assert gamma(wx.t2(), q).contratableau == wx.s2()


def test_gamma_counter_table():
    q = final_query()
    trace = gamma(wx.t1(), q)
    # row i of the table starts at lam_i and its diagonal entry is nu_i
    for i in range(1, q.n + 1):
        row = trace.prefix_counts[i - 1]
        assert row[0] == q.lam[i - 1]
        assert row[i] == q.nu[i - 1]
    assert trace.prefix_counts == ((3, 4), (2, 3, 4), (1, 2, 3, 3), (0, 1, 2, 2, 2))


def test_gamma_inverse_counter_table():
    # row i: mu_i plus the copies of i in bottom rows k and above, k = 1..n+1-i
    trace = gamma_inverse(wx.s1(), final_query())
    assert trace.suffix_counts == ((4, 4, 3, 3), (4, 3, 2), (3, 2), (2,))


def _row_counts(filling, value):
    """Copies of `value` in each row of `filling`, top row first."""
    return [sum(value in vals for vals in row) for row in filling.rows()]


def test_count_tables_match_row_recount():
    # N: row i is lam_i, then lam_i plus the copies of i in the top k rows;
    # N_up: row i is mu_i plus the copies of i in bottom rows k and above
    witnesses = 0
    for n in range(1, 5):
        for lam in partitions_up_to(3, max_length=n):
            for mu in partitions_up_to(3, max_length=n):
                for t in enumerate_svt(skew(mu), n, dominant_for=lam):
                    nu = tuple(a + b for a, b in zip(lam.pad(n), weight(t, n)))
                    q = CoefficientQuery(lam, mu, nu, n)
                    forward = gamma(t, q)
                    back = gamma_inverse(forward.contratableau, q)
                    prefix, suffix = [], []
                    for i in range(1, n + 1):
                        top = _row_counts(t, i) + [0] * n
                        prefix.append(tuple(lam[i - 1] + sum(top[:k])
                                            for k in range(i + 1)))
                        bottom = _row_counts(back.contratableau, i)[::-1]
                        suffix.append(tuple(mu[i - 1] + sum(bottom[k - 1:])
                                            for k in range(1, n + 2 - i)))
                    assert forward.prefix_counts == tuple(prefix), (q, t)
                    assert back.suffix_counts == tuple(suffix), (q, t)
                    witnesses += 1
    assert witnesses == 468


def test_gamma_inverse_trace_matches_hand_computation():
    q = final_query()
    trace = gamma_inverse(wx.s1(), q)
    assert trace.tableau == wx.t1()
    assert trace.contra_pattern == GTPattern(wx.Y_T1_ROWS)
    assert trace.contra_marks == frozenset(wx.MP_T1)
    assert trace.cumulative_rows == (
        (13,), (11, 13), (8, 11, 13), (4, 7, 9, 10), (0, 3, 5, 6, 6))
    assert trace.slack_rows == ((1,), (2, 1), (3, 2, 0), (4, 3, 0, 0))
    assert trace.column_ops == ((3, 1), (3, 2), (4, 2))
    assert trace.tableau_pattern == GTPattern(wx.X_T1_ROWS)
    assert trace.tableau_marks == frozenset(wx.M_T1)
    assert gamma_inverse(wx.s2(), q).tableau == wx.t2()


def test_gamma_empty_instance():
    q = CoefficientQuery((), (), ())
    empty = SetValuedFilling(skew(()), {})
    trace = gamma(empty, q)
    assert trace.contratableau.num_cells() == 0
    assert gamma_inverse(trace.contratableau, q).tableau == empty


def test_gamma_rejects_bad_inputs():
    q = final_query()
    with pytest.raises(DomainError):
        gamma(wx.s1(), q)  # wrong shape entirely
    wrong_weight = SetValuedFilling.from_rows(
        skew(wx.FINAL_MU), [[{1}, {2}, {4}], [{2, 3, 4}]])
    with pytest.raises(DomainError):
        gamma(wrong_weight, q)
    not_dominant = SetValuedFilling.from_rows(
        skew(wx.FINAL_MU), [[{1}, {2, 3}, {3, 4}], [{2, 4}]])
    assert weight(not_dominant, 4) == (1, 2, 2, 2)
    with pytest.raises(DomainError):
        gamma(not_dominant, q)
    with pytest.raises(DomainError):
        gamma_inverse(wx.t1(), q)


def test_gamma_inverse_closes_its_round_trip(monkeypatch):
    # gamma_inverse checks its output by the forward map past the input
    # check; a forward map that sends t1 to s2 must fail that round trip
    q = final_query()
    real = lr._gamma
    swap = {wx.t1(): wx.t2(), wx.t2(): wx.t1()}
    monkeypatch.setattr(lr, "_gamma", lambda t, query: real(swap[t], query))
    with pytest.raises(InternalInvariantError, match="round trip"):
        gamma_inverse(wx.s1(), q)
    with pytest.raises(DomainError):
        gamma(wx.s1(), q)  # not a straight-shape witness


@pytest.mark.parametrize("rows, marks, what, detail", [
    (((2,), (2, 2)), [(2, 1), (3, 1)], "relabelled",
     "positions not markable: [(2, 1), (3, 1)]"),  # no slack; outside the pattern
    (((1,), (2, 2)), [], "decremented", "pattern inequalities fail"),
])
def test_gamma_path_pattern_checks_name_the_step(rows, marks, what, detail):
    expand = {"relabelled": omega, "decremented": upsilon}[what]
    with pytest.raises(InternalInvariantError) as info:
        lr._marked_pattern(rows, marks, what, expand)
    assert str(info.value) == f"{what} pattern invalid: {detail}"


def _validated_patterns(run):
    """The pattern of every call to `gtpatterns.validate` while `run`
    runs, whatever name the caller reaches it by."""
    code, seen = gtpatterns.validate.__code__, []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            seen.append(frame.f_locals["pattern"])

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return seen


def test_gamma_path_validates_each_pattern_once():
    # gamma: the recovered and the relabelled pattern; gamma_inverse: the
    # recovered and the decremented one, then the same two for its round
    # trip through gamma.  Expanding a pattern does not check it again.
    # Each run starts with no recovered pattern cached
    q = final_query()
    for run, count in ((lambda: gamma(wx.t1(), q), 2),
                       (lambda: gamma_inverse(wx.s1(), q), 4)):
        gtpatterns._recover.cache_clear()
        seen = _validated_patterns(run)
        assert len(seen) == count
        assert len({id(p) for p in seen}) == count


def test_check_rules_sees_a_broken_gamma_inverse(monkeypatch):
    # the sweep calls the inverse core, past the public checks; a core
    # that sends s1 back to t2 must still fail its round trip
    real = lr._gamma_inverse
    swap = {wx.s1(): wx.s2(), wx.s2(): wx.s1()}
    monkeypatch.setattr(lr, "_gamma_inverse",
                        lambda s, query: real(swap.get(s, s), query))
    assert verify.check_rules(wx.FINAL_LAM, wx.FINAL_MU, 4) == (
        f"gamma round trip failed at {(wx.FINAL_LAM, wx.FINAL_MU, wx.FINAL_NU)}")


@pytest.mark.parametrize("image_of_t2, detail", [
    (lambda real, q: real(wx.t1(), q).contratableau, "gamma not injective at "),
    (lambda real, q: wx.t2(), "gamma not onto at "),
], ids=["not-injective", "not-onto"])
def test_check_rules_sees_a_broken_gamma(monkeypatch, image_of_t2, detail):
    # a gamma that sends t2 where t1 goes, or to a filling that is no
    # contratableau (t2 itself), must fail the sweep at the worked example
    real = lr.gamma

    def broken(t, query):
        trace = real(t, query)
        if t != wx.t2():
            return trace
        return replace(trace, contratableau=image_of_t2(real, query))

    monkeypatch.setattr(lr, "gamma", broken)
    assert verify.check_rules(wx.FINAL_LAM, wx.FINAL_MU, 4) == (
        f"{detail}{(wx.FINAL_LAM, wx.FINAL_MU, wx.FINAL_NU)}")


@pytest.mark.parametrize("lam, mu, nu, rows, detail", [
    ((1,), (2,), (2, 1), [[{2}, {1}]], "input: not semistandard"),
    ((1,), (2,), (2, 1), [[{1}, {4}]], "input: entries exceed n=3"),
    ((2,), (1,), (1, 1), [[{1}]], "nu - lam has a negative entry"),
])
def test_gamma_names_the_failed_input_check(lam, mu, nu, rows, detail):
    tableau = SetValuedFilling.from_rows(skew(mu), rows)
    with pytest.raises(DomainError) as info:
        gamma(tableau, CoefficientQuery(lam, mu, nu, 3))
    assert str(info.value) == detail


def test_column_ops_commute():
    # the decrement operators touch disjoint entries or plain subtract,
    # so applying them in reverse order gives the same pattern
    q = final_query()
    trace = gamma_inverse(wx.s1(), q)
    grid = [list(row) for row in trace.slack_rows]
    for (k, col) in reversed(trace.column_ops):
        for a in range(k, q.n + 1):
            grid[a - 1][col - 1] -= 1
    assert GTPattern(grid) == trace.tableau_pattern


def _queries(max_size, extra, n):
    for lam in partitions_up_to(max_size, max_length=n):
        for mu in partitions_up_to(max_size, max_length=n):
            top = lam.size() + mu.size() + extra
            for nu in partitions_up_to(top, max_length=n):
                yield CoefficientQuery(lam, mu, nu, n)


def test_rule_agreement_small_sweep():
    for q in _queries(2, 2, 2):
        assert coeff_buch(q) == coeff_contra(q)


def test_rule_agreement_with_four_row_targets():
    # same counts even when nu has more rows than either factor
    n = 4
    for lam in partitions_up_to(3, max_length=n):
        for mu in partitions_up_to(3, max_length=n):
            base = lam.size() + mu.size()
            for size in range(base, base + 3):
                for nu in partitions_up_to(size, max_length=n):
                    if nu.size() != size:
                        continue
                    q = CoefficientQuery(lam, mu, nu, n)
                    count = coeff_buch(q)
                    assert count == coeff_contra(q)
                    witnesses = list(buch_tableaux(q))
                    images = [gamma(t, q).contratableau for t in witnesses]
                    assert set(images) == set(contra_tableaux(q))
                    for t, s in zip(witnesses, images):
                        assert gamma_inverse(s, q).tableau == t


def test_witness_lists_match_post_filtered_enumeration():
    # both rules prune dominance inside the filling search; the reference
    # enumerates every filling of the target weight and filters afterwards
    def reference(shape, nu, sub, dominant, **kwargs):
        target = tuple(nu[i] - sub[i] for i in range(max(len(nu), len(sub))))
        if any(t < 0 for t in target):
            return []
        return [f for f in enumerate_svt(shape, max(1, len(target)),
                                         weight_filter=target, **kwargs)
                if is_lambda_dominant(f, dominant)]

    witnesses = 0
    for q in _queries(3, 3, 3):
        buch = list(buch_tableaux(q))
        assert buch == reference(skew(q.mu), q.nu, q.lam, q.lam)
        assert list(contra_tableaux(q)) == reference(rotate(q.lam), q.nu, q.mu, q.mu)
        assert list(contra_tableaux(q, singleton=True)) == \
            reference(rotate(q.lam), q.nu, q.mu, q.mu, singleton=True)
        witnesses += len(buch)
    assert witnesses > 150


def test_witness_lists_lookup_matches_per_nu_lists():
    # one search per side, filed by weight, gives every nu the lists the
    # per-nu searches yield, in their order; the nu run to the verify cap
    # and include nu - lam or nu - mu with a negative entry, and every
    # key, those above the cap too, holds exactly the per-nu lists
    negative = witnesses = above = 0
    for n in (3, 4):
        for lam in partitions_up_to(3, max_length=n):
            for mu in partitions_up_to(3, max_length=n):
                lists = witness_lists(lam, mu, n)
                top = lam.size() + mu.size() + 3
                for nu in partitions_up_to(top, max_length=n):
                    q = CoefficientQuery(lam, mu, nu, n)
                    buch, contra = lists.get(nu, ([], []))
                    assert buch == list(buch_tableaux(q)), q
                    assert contra == list(contra_tableaux(q)), q
                    negative += any(nu[i] < lam[i] for i in range(n))
                    witnesses += len(buch)
                for nu, (buch, contra) in lists.items():
                    q = CoefficientQuery(lam, mu, nu, n)
                    assert buch == list(buch_tableaux(q)), q
                    assert contra == list(contra_tableaux(q)), q
                    assert buch or contra, q
                    above += nu.size() > top
    assert negative > 800 and witnesses > 350 and above > 0
    with pytest.raises(DomainError):
        witness_lists((1, 1), (1,), 1)


def test_vanishing_against_enumeration():
    # zero whenever a factor does not fit or the degree is too small;
    # both rules discover this by finding nothing to count
    for q in _queries(2, 1, 3):
        from klrcalc import contains
        if (not contains(q.lam, q.nu) or not contains(q.mu, q.nu)
                or q.nu.size() < q.lam.size() + q.mu.size()):
            assert coeff_buch(q) == 0
            assert coeff_contra(q) == 0


def test_counts_stable_when_n_grows():
    for q in _queries(2, 2, 3):
        bigger = CoefficientQuery(q.lam, q.mu, q.nu, q.n + 2)
        assert coeff_buch(bigger) == coeff_buch(q)
        assert coeff_contra(bigger) == coeff_contra(q)
    deep = CoefficientQuery((2, 1), (2,), (3, 2, 1))
    assert coeff_buch(CoefficientQuery(deep.lam, deep.mu, deep.nu, 7)) == \
        coeff_buch(deep)
    # from the default n, the longest partition length, one or two more
    # change neither count, on every nu up to two past the classical degree
    checked = 0
    for lam in partitions_up_to(3):
        for mu in partitions_up_to(3):
            for nu in partitions_up_to(lam.size() + mu.size() + 2):
                q = CoefficientQuery(lam, mu, nu)
                counts = {(coeff_buch(r), coeff_contra(r))
                          for r in (q, replace(q, n=q.n + 1), replace(q, n=q.n + 2))}
                assert len(counts) == 1, q
                checked += 1
    assert checked == 1711


def test_oracle_matches_rules_spot():
    for q in (final_query(),
              CoefficientQuery((1,), (1,), (2, 1), 2),
              CoefficientQuery((2,), (1, 1), (2, 1, 1), 3)):
        assert coeff_oracle(q) == coeff_buch(q) == coeff_contra(q)


def test_shared_oracle_expansion_is_read_only():
    # every later oracle call on the pair reads the same cached expansion
    query = CoefficientQuery((1,), (1,), (2,), 2)
    coeffs = grothendieck.expand_product((1,), (1,), 2, 2).coeffs
    with pytest.raises(AttributeError):
        coeffs.clear()
    with pytest.raises(TypeError):
        coeffs[Partition((2,))] = 0
    assert coeff_oracle(query) == coeff_buch(query) == 1


def test_pattern_entries_match_count_formula():
    # x(i, j) counts values up to i in row j, corrected by the marks in
    # column j at or below the two cutoffs
    q = final_query()
    for t in buch_tableaux(q):
        marked = upsilon_inverse(t, q.n)
        rows = t.rows()
        for i in range(1, q.n + 1):
            for j in range(1, i + 1):
                in_row = 0
                if j <= len(rows):
                    in_row = sum(1 for vals in rows[j - 1] for v in vals if v <= i)
                low = sum(1 for (a, b) in marked.marks if b == j and a >= j + 1)
                high = sum(1 for (a, b) in marked.marks if b == j and a >= i + 1)
                assert marked.pattern.rows[i - 1][j - 1] == in_row - low + high


def test_buch_witnesses_all_singleton_in_classical_degree():
    q = CoefficientQuery((2, 1), (2, 1), (3, 2, 1))
    witnesses = list(buch_tableaux(q))
    assert len(witnesses) == 2
    assert all(total_entries(t) == t.num_cells() for t in witnesses)


def test_sign_law_is_checked_in_the_sweep(monkeypatch):
    # the nu term of the product is (-1)^{|nu|-|lam|-|mu|} times the count
    assert CoefficientQuery((1,), (1,), (2,)).sign == 1
    assert CoefficientQuery((1,), (1,), (2, 1)).sign == -1
    real = grothendieck.expand_product

    def shifted(shift_all):
        def expansion(*args):
            coeffs = real(*args).coeffs
            return grothendieck.BasisExpansion("G", {
                nu: -c if shift_all else c + (nu.size() == 3)
                for nu, c in coeffs.items()})
        return expansion

    monkeypatch.setattr(grothendieck, "expand_product", shifted(True))
    assert verify.check_rules((1,), (1,), 2) == (
        "sign law broken at ((1,), (1,), (2,)): raw=-1")
    monkeypatch.setattr(grothendieck, "expand_product", shifted(False))
    assert verify.check_rules((1,), (1,), 2) == (
        "rules disagree at ((1,), (1,), (2, 1)): buch=1 contra=1 oracle=0")


def test_check_rules_walk_order_and_reach(monkeypatch):
    # a nu the product does not name and no witness reaches is still
    # checked up to the cap, by degree and then largest first; the cap
    # of (1,), (1,) is 5, so (4, 2) is never read
    real = grothendieck.expand_product

    def bumped(*nus):
        def expansion(*args):
            coeffs = dict(real(*args).coeffs)
            for nu in map(Partition, nus):
                coeffs[nu] = coeffs.get(nu, 0) + 1
            return grothendieck.BasisExpansion("G", coeffs)
        return expansion

    for nus, detail in (
            (((3,), (2, 2)), "sign law broken at ((1,), (1,), (3,)): raw=1"),
            (((4,), (3,)), "sign law broken at ((1,), (1,), (3,)): raw=1"),
            (((2, 2), (3, 1)),
             "rules disagree at ((1,), (1,), (3, 1)): buch=0 contra=0 oracle=1"),
            (((4, 2),), "")):
        monkeypatch.setattr(grothendieck, "expand_product", bumped(*nus))
        assert verify.check_rules((1,), (1,), 2) == detail, nus
