import collections
import itertools
import os
import random
import subprocess
import sys
import types

import pytest

import klrcalc
import worked_examples as wx
from klrcalc import (DomainError, GTPattern, MarkedGTPattern, NotRotatedShape,
                     NotStraightShape, Partition, SetValuedFilling,
                     enumerate_gt, enumerate_svt, is_semistandard,
                     markable_positions, marked_patterns, omega, omega_inverse,
                     partitions_up_to, rotate, skew, superstandard,
                     total_entries, upsilon, upsilon_inverse, validate, weight,
                     weight_reversal_check)
from klrcalc import gtpatterns, tableaux, verify


def test_validate_examples():
    assert validate(wx.GT_EXAMPLE)
    assert validate(GTPattern([(0,), (0, 0), (0, 0, 0)]))
    assert not validate(GTPattern([(1,), (2, 2)]))  # south-east slack negative
    # rows that interlace but are not partitions; (2, 1) is markable in both
    for pattern in (GTPattern([(1,), (1, -1)]), GTPattern([(0,), (0, -1)])):
        assert not validate(pattern)
        for expand in (upsilon, omega):
            with pytest.raises(DomainError):
                expand(MarkedGTPattern(pattern, [(2, 1)]))


def test_pattern_shape_errors():
    with pytest.raises(ValueError):
        GTPattern([(1, 2)])
    with pytest.raises(ValueError):
        MarkedGTPattern(wx.GT_EXAMPLE, [(2, 2)])  # zero slack position


def test_enumerate_gt_small():
    pats = list(enumerate_gt((1,), 2))
    assert len(pats) == 2
    assert {p.rows[0][0] for p in pats} == {0, 1}
    assert pats == list(enumerate_gt((1,), 2))  # deterministic order
    zeros = list(enumerate_gt((), 3))
    assert len(zeros) == 1
    assert all(v == 0 for row in zeros[0].rows for v in row)
    assert wx.GT_EXAMPLE in list(enumerate_gt((4, 3, 2), 4))


def test_enumerate_gt_walks_any_number_of_rows():
    # depth first from the bottom row, each row ascending lex, with no
    # generator nested per row: 1000 rows of zeros are one pattern
    for lam, n in (((2, 1), 3), ((3, 1), 4), ((2,), 1)):
        pats = [p.rows for p in enumerate_gt(lam, n)]
        assert pats == sorted(pats, key=lambda rows: rows[::-1])
    pats = list(enumerate_gt((), 1000))
    assert len(pats) == 1 and pats[0].n == 1000


def test_enumerate_gt_counts_match_singleton_fillings():
    # patterns with bottom row lam biject with one-entry-per-cell fillings
    for lam in partitions_up_to(5):
        for n in range(len(lam), 4):
            pats = list(enumerate_gt(lam, n))
            assert len(pats) == len(set(pats))
            singles = list(enumerate_svt(skew(lam), n, singleton=True))
            assert len(pats) == len(singles)


def test_markable_positions_example():
    assert markable_positions(wx.GT_EXAMPLE) == wx.GT_EXAMPLE_MARKABLE
    zeros = GTPattern([(0,), (0, 0)])
    assert markable_positions(zeros) == frozenset()
    assert sum(1 for _ in marked_patterns(wx.GT_EXAMPLE)) == 8


def test_upsilon_worked_examples():
    assert upsilon(wx.upsilon_marked()) == wx.upsilon_marked_output()
    assert upsilon(MarkedGTPattern(wx.GT_EXAMPLE)) == wx.upsilon_unmarked_output()
    one = MarkedGTPattern(GTPattern([(1,)]))
    assert upsilon(one) == SetValuedFilling.from_rows(skew((1,)), [[{1}]])


def test_upsilon_inverse_examples():
    assert upsilon_inverse(wx.upsilon_marked_output(), 4) == wx.upsilon_marked()
    lam = Partition((3, 2))
    marked = upsilon_inverse(superstandard(lam), 2)
    assert marked.marks == frozenset()
    assert marked.pattern == GTPattern([(3,), (3, 2)])
    single = SetValuedFilling.from_rows(skew((1,)), [[{1}]])
    assert upsilon_inverse(single, 1) == MarkedGTPattern(GTPattern([(1,)]))


def test_inverses_default_n_to_top_entry_or_row_count():
    # left out, n is the larger of the top entry and the row count
    checked = 0
    for lam in partitions_up_to(4):
        for inverse, shape in ((upsilon_inverse, skew(lam, ())), (omega_inverse, rotate(lam))):
            for f in enumerate_svt(shape, 4):
                n = max(max(map(max, f.entries.values()), default=0), len(lam))
                assert inverse(f) == inverse(f, n), (lam, f)
                checked += 1
    assert checked > 1000


def test_upsilon_inverse_rejects_skew_input():
    f = SetValuedFilling.from_rows(skew((2, 1), (1,)), [[{1}], [{1}]])
    with pytest.raises(NotStraightShape):
        upsilon_inverse(f, 2)


def test_omega_worked_examples():
    assert omega(wx.omega_marked()) == wx.omega_marked_output()
    assert omega(MarkedGTPattern(wx.GT_EXAMPLE)) == wx.omega_unmarked_output()
    one = MarkedGTPattern(GTPattern([(1,)]))
    out = omega(one)
    assert out.shape == rotate((1,))
    assert out.entries[(1, 1)] == frozenset({1})


def test_omega_inverse_examples():
    assert omega_inverse(wx.omega_marked_output(), 4) == wx.omega_marked()
    assert omega_inverse(wx.omega_unmarked_output(), 4) == \
        MarkedGTPattern(wx.GT_EXAMPLE)
    single = SetValuedFilling.from_rows(rotate((1,)), [[{1}]])
    assert omega_inverse(single, 1) == MarkedGTPattern(GTPattern([(1,)]))


def test_omega_inverse_rejects_straight_input():
    f = SetValuedFilling.from_rows(skew((2, 1)), [[{1}, {1}], [{2}]])
    with pytest.raises(NotRotatedShape):
        omega_inverse(f, 2)


def test_omega_inverse_accepts_untagged_rotated_embedding():
    # same cells as rotate((2,1)) but built as a plain skew shape
    f = SetValuedFilling.from_rows(skew((2, 2), (1,)), [[{1}], [{1}, {2}]])
    marked = omega_inverse(f, 2)
    assert omega(marked) == SetValuedFilling.from_rows(
        rotate((2, 1)), [[{1}], [{1}, {2}]])


def test_inverses_report_an_entry_above_n_first():
    # read as a pass label, a 3 at n = 2 would index past the histogram
    # straight and from its end rotated; the last pair of fillings also
    # has an unjustified key in the row read first
    straight = [((2,), [[{1}, {3}]]), ((2,), [[{1}, {1, 3}]]), ((2, 1), [[{2}, {1}], [{3}]])]
    rotated = [((2,), [[{3}, {1}]]), ((2,), [[{1, 3}, {1}]]), ((2, 1), [[{3}], [{2}, {1}]])]
    for inverse, shape_of, cases in ((upsilon_inverse, skew, straight),
                                     (omega_inverse, rotate, rotated)):
        for lam, rows in cases:
            with pytest.raises(DomainError) as info:
                inverse(SetValuedFilling.from_rows(shape_of(lam), rows), 2)
            assert str(info.value) == "filling does not fit in a pattern of size 2", (lam, rows)


# untagged skew shapes that are not rotated diagrams
NOT_ROTATED = [((3, 2), (1,)),     # ragged outer: the bottom row stops short
               ((3, 3, 1), (1,)),  # row lengths 1, 3, 2 from the bottom
               ((3, 3), (1, 1)),   # no row reaches column 1
               ((3, 3), (3, 1))]   # an empty top row


@pytest.mark.parametrize("outer, inner", NOT_ROTATED)
def test_omega_inverse_rejects_untagged_non_rotated_shapes(outer, inner):
    shape = skew(outer, inner)
    f = SetValuedFilling(shape, {cell: {1} for cell in shape.cells()})
    with pytest.raises(NotRotatedShape, match=r"is not a rotated diagram$"):
        omega_inverse(f, 3)


def test_weight_reversal_example():
    m = wx.omega_marked()
    assert weight(upsilon(m), 4) == (2, 3, 3, 4)
    assert weight(omega(m), 4) == (4, 3, 3, 2)
    assert weight_reversal_check(m)
    assert weight_reversal_check(MarkedGTPattern(GTPattern([(1,)])))


def test_marked_insertion_without_matching_entry():
    # the marked position is valid although the row holds no entry one
    # smaller: the insertion still lands in the unique legal cell
    pattern = GTPattern([(2,), (2, 0), (2, 1, 0)])
    marked = MarkedGTPattern(pattern, [(3, 1)])
    out = upsilon(marked)
    assert out == SetValuedFilling.from_rows(
        skew((2, 1)), [[{1}, {1, 3}], [{3}]])
    assert upsilon_inverse(out, 3) == marked
    rot = omega(marked)
    assert omega_inverse(rot, 3) == marked


def test_bijection_sweep():
    # images biject with the straight and rotated filling families
    for lam in partitions_up_to(6, max_length=4):
        for n in range(len(lam), 5):
            if n == 0:
                continue
            marked = [m for x in enumerate_gt(lam, n)
                      for m in marked_patterns(x)]
            outs = [upsilon(m) for m in marked]
            assert len(set(outs)) == len(outs)
            assert set(outs) == set(enumerate_svt(skew(lam), n))
            for m, out in zip(marked, outs):
                assert upsilon_inverse(out, n) == m
                assert bool(m.marks) != (total_entries(out) == out.num_cells())

            routs = [omega(m) for m in marked]
            assert len(set(routs)) == len(routs)
            assert set(routs) == set(enumerate_svt(rotate(lam), n))
            for m, rout in zip(marked, routs):
                assert omega_inverse(rout, n) == m
                assert weight_reversal_check(m)


def test_counting_identity():
    # sum of 2^markable over all patterns equals the filling count
    for lam in partitions_up_to(5, max_length=4):
        for n in range(max(1, len(lam)), 5):
            total = sum(2 ** len(markable_positions(x))
                        for x in enumerate_gt(lam, n))
            assert total == sum(1 for _ in enumerate_svt(skew(lam), n))


@pytest.mark.parametrize("name, detail", [
    ("upsilon_inverse", "upsilon round trip failed on "),
    ("omega_inverse", "omega round trip failed on "),
])
def test_check_bijections_reports_a_broken_inverse(monkeypatch, name, detail):
    # an inverse that loses the marks of one pattern must fail the sweep,
    # and verify must report that instance, which cannot shrink further
    victim = MarkedGTPattern(GTPattern([(2,), (2, 0)]), [(2, 1)])
    real = getattr(gtpatterns, name)

    def broken(filling, n=None):
        out = real(filling, n)
        return MarkedGTPattern(out.pattern) if out == victim else out

    assert verify.check_bijections((2,), 2) == ""
    monkeypatch.setattr(gtpatterns, name, broken)
    assert verify.check_bijections((2,), 2) == f"{detail}{victim!r}"
    bijections, rules = verify.run_verify(2, 2, jobs=1)
    assert bijections.failures == [(((2,), 2), f"{detail}{victim!r}")]
    assert rules.ok


@pytest.mark.parametrize("name", ["upsilon", "omega"])
def test_check_bijections_sees_a_replaced_forward_map(monkeypatch, name):
    # a forward map that sends one marked pattern to another's image
    real = getattr(gtpatterns, name)
    victim, twin = [MarkedGTPattern(GTPattern([(2,), (2, 0)]), marks)
                    for marks in ([(2, 1)], [])]

    def broken(marked):
        return real(twin if marked == victim else marked)

    monkeypatch.setattr(gtpatterns, name, broken)
    assert verify.check_bijections((2,), 2) == f"{name} not injective on (2,), n=2"


def test_check_bijections_reports_a_short_universe(monkeypatch):
    # an injective image must be the whole filling family; the text gives
    # both counts
    real = tableaux.enumerate_svt
    monkeypatch.setattr(tableaux, "enumerate_svt",
                        lambda shape, n: list(real(shape, n))[:-1])
    assert verify.check_bijections((2,), 2) == (
        "upsilon image has 5 fillings, universe has 4 for (2,), n=2")


def test_check_bijections_reports_a_broken_count_identity(monkeypatch):
    # the images are right, since marked_patterns reads the real module;
    # only the sum of 2^|markable| sees one extra position per pattern
    fake = types.SimpleNamespace(**vars(gtpatterns))
    fake.markable_positions = lambda x: gtpatterns.markable_positions(x) | {(0, 0)}
    monkeypatch.setattr(verify, "gtpatterns", fake)
    assert verify.check_bijections((2, 1), 3) == "count identity 54 != 27 for (2, 1), n=3"


def test_check_bijections_refuses_more_parts_than_rows():
    # no pattern of size n has a bottom row of more than n parts, so the
    # instance cannot be checked and must not pass
    with pytest.raises(ValueError, match=r"^partition Partition\(2, 1\) needs more than 1 rows$"):
        verify.check_bijections((2, 1), 1)


@pytest.mark.parametrize("name, detail", [
    ("total_entries", "mark/singleton restriction failed on "),
    ("weight", "weight reversal failed on "),
])
def test_check_bijections_reports_a_broken_image_statistic(monkeypatch, name, detail):
    # the images themselves are right; a statistic misread on one image of
    # the marked victim must still name it: its straight image read as one
    # entry per cell, its rotated image read with an extra entry 1
    victim = MarkedGTPattern(GTPattern([(2,), (2, 1)]), [(2, 1)])
    real = getattr(tableaux, name)
    if name == "total_entries":
        image = upsilon(victim)

        def broken(f):
            return f.num_cells() if f == image else real(f)
    else:
        image = omega(victim)

        def broken(f, n=None):
            w = real(f, n)
            return (w[0] + 1,) + w[1:] if f == image else w
    assert verify.check_bijections((2, 1), 2) == ""
    monkeypatch.setattr(tableaux, name, broken)
    assert verify.check_bijections((2, 1), 2) == f"{detail}{victim!r}"


def _rebuilt(filling):
    """The same filling through the validating public constructor."""
    return SetValuedFilling.from_rows(
        filling.shape, [[set(vals) for vals in row] for row in filling.rows()])


def test_trusted_fillings_equal_validated_ones():
    for lam in partitions_up_to(4, max_length=3):
        for n in range(max(1, len(lam)), 4):
            built = [(f, skew(lam)) for x in enumerate_gt(lam, n)
                     for m in marked_patterns(x) for f in [upsilon(m)]]
            built += [(f, rotate(lam)) for x in enumerate_gt(lam, n)
                      for m in marked_patterns(x) for f in [omega(m)]]
            built += [(f, shape) for shape in (skew(lam), rotate(lam))
                      for f in enumerate_svt(shape, n)]
            for filling, shape in built:
                other = _rebuilt(filling)
                assert filling == other and hash(filling) == hash(other)
                assert filling.shape == shape
                assert type(filling.shape) is type(shape)
                assert all(type(vals) is frozenset for vals in filling.entries.values())


def test_trusted_markings_equal_validated_ones():
    checked = 0
    for lam in partitions_up_to(4, max_length=3):
        for n in range(max(1, len(lam)), 4):
            for x in enumerate_gt(lam, n):
                for m in marked_patterns(x):
                    other = MarkedGTPattern(x, sorted(m.marks))
                    assert m == other and hash(m) == hash(other)
                    assert type(m.marks) is frozenset
                    checked += 1
    assert checked == 259


def test_trusted_fillings_allocate_through_the_class():
    # per-class allocation hooks, such as a construction counter that
    # patches __new__, must see trusted builds too.  A patched __new__
    # cannot be cleanly removed again, so the check runs in a subprocess.
    script = """
import klrcalc
from klrcalc import SetValuedFilling, enumerate_svt, omega, skew, upsilon
allocated = []
def counted(cls, *args, **kwargs):
    allocated.append(cls)
    return object.__new__(cls)
SetValuedFilling.__new__ = staticmethod(counted)
m = klrcalc.MarkedGTPattern(klrcalc.GTPattern([(2,), (2, 1)]), [(2, 1)])
built = [upsilon(m), omega(m)] + list(enumerate_svt(skew((1,)), 2))
assert allocated == [SetValuedFilling] * len(built) == [SetValuedFilling] * 5
"""
    src = os.path.dirname(os.path.dirname(klrcalc.__file__))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr


def _all_fillings(shape, n):
    """Every assignment of a non-empty subset of [n] to each cell."""
    subsets = [set(s) for k in range(1, n + 1)
               for s in itertools.combinations(range(1, n + 1), k)]
    cells = shape.cells()
    for sets in itertools.product(subsets, repeat=len(cells)):
        yield SetValuedFilling(shape, dict(zip(cells, sets)))


def test_inverses_accept_exactly_the_semistandard_fillings():
    # every filling of every straight and rotated shape with |lam| <= 3, n = 3
    n = 3
    checked = 0
    reasons = collections.Counter()
    for lam in partitions_up_to(3):
        for shape, inverse, forward in ((skew(lam), upsilon_inverse, upsilon),
                                        (rotate(lam), omega_inverse, omega)):
            for filling in _all_fillings(shape, n):
                checked += 1
                if is_semistandard(filling):
                    assert forward(inverse(filling, n)) == filling
                else:
                    with pytest.raises(DomainError) as info:
                        inverse(filling, n)
                    reasons[str(info.value).split(":")[0]] += 1
    assert checked == 2270
    # which check reports each rejected filling: the first failing one
    assert reasons == {
        "value at most 1 appears below row 1": 456,
        "value at most 2 appears below row 2": 42,
        "cells with small minima are not left justified": 292,
        "value at least 3 appears above row 1": 456,
        "value at least 2 appears above row 2": 42,
        "cells with large maxima are not right justified": 292,
        "recovered marks are not markable": 66,
        "filling is not semistandard enough to invert": 446,
    }


@pytest.mark.parametrize("rows, message", [
    ([[{1}], [{1}]], "value at most 1 appears below row 1"),
    ([[{2}, {1}]], "cells with small minima are not left justified"),
    ([[{1, 3}, {2}], [{2}]], "filling is not semistandard enough to invert"),
])
def test_upsilon_inverse_rejection_messages(rows, message):
    shape = skew([len(row) for row in rows])
    with pytest.raises(DomainError) as info:
        upsilon_inverse(SetValuedFilling.from_rows(shape, rows), 3)
    assert str(info.value) == message


@pytest.mark.parametrize("inverse, shape, rows, n, message", [
    # unjustified keys in two rows: the smaller key wins, here in the later row
    (upsilon_inverse, skew((2, 1)), [[{3}, {2}], [{1}]], 3,
     "value at most 1 appears below row 1"),
    (upsilon_inverse, skew((2, 1)), [[{3}, {2}], [{1}]], None,
     "value at most 1 appears below row 1"),
    (omega_inverse, rotate((2, 1)), [[{3}], [{2}, {1}]], 3,
     "value at least 3 appears above row 1"),
    # an entry above n in a row after an unjustified key
    (upsilon_inverse, skew((2, 1)), [[{2}, {1}], [{5}]], 3,
     "filling does not fit in a pattern of size 3"),
    (omega_inverse, rotate((2, 1)), [[{5}], [{2}, {1}]], 3,
     "filling does not fit in a pattern of size 3"),
    (upsilon_inverse, skew((2, 1)), [[{2}, {1}], [{5}]], None,
     "cells with small minima are not left justified"),
    # a loose row with an interlacing failure, and with an unmarkable mark
    (upsilon_inverse, skew((2, 1)), [[{2, 3}, {2}], [{2}]], 3,
     "filling is not semistandard enough to invert"),
    (omega_inverse, rotate((2, 1)), [[{2}], [{2}, {1, 2}]], 3,
     "filling is not semistandard enough to invert"),
    (upsilon_inverse, skew((2, 2)), [[{1, 2}, {1}], [{2}, {2}]], 2,
     "recovered marks are not markable: positions not markable: [(2, 1)]"),
])
def test_inverse_error_priority_across_rows(inverse, shape, rows, n, message):
    # two faults in different rows: which one is reported is pinned
    with pytest.raises(DomainError) as info:
        inverse(SetValuedFilling.from_rows(shape, rows), n)
    assert str(info.value) == message


@pytest.mark.parametrize("inverse, shape", [(upsilon_inverse, skew((1,))),
                                            (omega_inverse, rotate((1,)))])
def test_inverses_refuse_n_above_the_largest_entry(inverse, shape):
    filling = SetValuedFilling.from_rows(shape, [[{1}]])
    assert inverse(filling, 3).pattern.rows[-1] == (1, 0, 0)
    with pytest.raises(DomainError, match=f"^n={tableaux.MAX_ENTRY + 1} is above "
                                          f"the largest entry {tableaux.MAX_ENTRY}$"):
        inverse(filling, tableaux.MAX_ENTRY + 1)


@pytest.mark.parametrize("inverse, shape, rows, positions", [
    (upsilon_inverse, skew((1, 1)), [[{1, 2}], [{2}]], "[(2, 1)]"),
    (upsilon_inverse, skew((2, 1)), [[{1, 2, 3}, {3}], [{2}]], "[(2, 1), (3, 1)]"),
    (upsilon_inverse, skew((1, 1, 1)), [[{1, 2, 3}], [{2, 3}], [{3}]],
     "[(2, 1), (3, 1), (3, 2)]"),
    (omega_inverse, rotate((1, 1)), [[{1, 2}], [{2, 3}]], "[(2, 1)]"),
    (omega_inverse, rotate((2, 1)), [[{2}], [{1}, {1, 2, 3}]], "[(2, 1), (3, 1)]"),
    (omega_inverse, rotate((1, 1, 1)), [[{1}], [{1, 2}], [{1, 2, 3}]],
     "[(2, 1), (3, 1), (3, 2)]"),
])
def test_unmarkable_marks_message(inverse, shape, rows, positions):
    # every recovered mark without slack is listed, sorted, in one message
    with pytest.raises(DomainError) as info:
        inverse(SetValuedFilling.from_rows(shape, rows), 3)
    assert str(info.value) == \
        f"recovered marks are not markable: positions not markable: {positions}"


@pytest.mark.parametrize("lam, n, calls", [((2, 1), 3, 16), ((3, 2, 1), 4, 128)])
def test_check_bijections_validates_each_pattern_once_per_map(monkeypatch, lam, n, calls):
    # one per pattern for both forward maps, the second orientation reusing
    # the first build's check, plus one per pattern for both inverses: every
    # marking of a pattern and both its images recover it from one cache entry
    gtpatterns._recover.cache_clear()
    real = gtpatterns.validate
    seen = []

    def counted(pattern):
        seen.append(pattern)
        return real(pattern)

    monkeypatch.setattr(gtpatterns, "validate", counted)
    assert verify.check_bijections(lam, n) == ""
    patterns = list(enumerate_gt(lam, n))
    marked = sum(1 for x in patterns for _ in marked_patterns(x))
    assert len(seen) == 2 * len(patterns) == calls
    assert marked > len(patterns)


def test_recovered_patterns_are_exact_cold_and_warm():
    # both images of every marking invert to it from a cleared cache, the
    # omega image reading the pattern the upsilon image recovered, and
    # again from the warm cache
    marked = [m for lam in partitions_up_to(5, max_length=4)
              for n in range(max(1, len(lam)), 5)
              for x in enumerate_gt(lam, n) for m in marked_patterns(x)]
    for m in marked:
        gtpatterns._recover.cache_clear()
        pairs = ((upsilon(m), upsilon_inverse), (omega(m), omega_inverse))
        for _ in range(2):
            for image, inverse in pairs:
                assert inverse(image, m.n) == m
        info = gtpatterns._recover.cache_info()
        assert (info.misses, info.hits) == (1, 3)
    assert len(marked) == 4122


def test_recovered_invalid_pattern_is_refused_alike_on_a_hit():
    # a 2 under a 2 reads counts that do not interlace; a mark changes no
    # count, so the marked filling is refused from the cache, word for word
    gtpatterns._recover.cache_clear()
    plain = SetValuedFilling.from_rows(skew((2, 2)), [[{1}, {2}], [{2}, {2}]])
    marked = SetValuedFilling.from_rows(skew((2, 2)), [[{1, 2}, {2}], [{2}, {2}]])
    for filling in (plain, marked, plain):
        with pytest.raises(DomainError) as info:
            upsilon_inverse(filling, 2)
        assert str(info.value) == "filling is not semistandard enough to invert"
    info = gtpatterns._recover.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert gtpatterns._recover(((1, 2), (0, 2)), 2) is None


def test_recovered_pattern_is_keyed_on_n():
    # an empty filling reads no counts at every n, yet each n has its own
    # pattern of n zero rows
    gtpatterns._recover.cache_clear()
    for inverse, shape in ((upsilon_inverse, skew(())), (omega_inverse, rotate(()))):
        for n in (2, 3, 2, 1):
            got = inverse(SetValuedFilling(shape, {}), n)
            assert got.n == n and not got.marks
            assert got.pattern.rows == tuple((0,) * i for i in range(1, n + 1))


def test_expansion_memo_is_exact_and_private():
    marked = [m for lam in partitions_up_to(5, max_length=4)
              for n in range(max(1, len(lam)), 5)
              for x in enumerate_gt(lam, n) for m in marked_patterns(x)]
    jobs = [(m, expand) for m in marked for expand in (upsilon, omega)]
    random.Random(15).shuffle(jobs)
    for m, expand in jobs:
        got = expand(m)
        fresh = expand(MarkedGTPattern(GTPattern(m.pattern.rows), m.marks))
        assert got == fresh and list(got.entries) == list(fresh.entries)
        again = expand(m)
        assert again == got and again.entries is not got.entries
    assert len(jobs) == 2 * 4122

    invalid = MarkedGTPattern._trusted(GTPattern([(1,), (2, 2)]), frozenset())
    for expand in (upsilon, omega):
        for _ in range(2):
            with pytest.raises(DomainError, match=r"^invalid pattern GTPattern"):
                expand(invalid)
