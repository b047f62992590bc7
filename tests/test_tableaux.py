import itertools
import sys

import pytest

import worked_examples as wx
from klrcalc import (SetValuedFilling, column_word, contains, enumerate_svt,
                     is_dominant, is_lambda_dominant, is_semistandard,
                     partitions_up_to, rotate, row_word, skew, superstandard,
                     total_entries, weight)
from klrcalc import tableaux


def test_semistandard_examples():
    assert is_semistandard(wx.skew_example_tableau())
    assert is_semistandard(wx.contratableau_example())
    single = SetValuedFilling.from_rows(skew((1,)), [[{1, 2, 3}]])
    assert is_semistandard(single)
    bad = SetValuedFilling.from_rows(skew((1, 1)), [[{1, 2}], [{2}]])
    assert not is_semistandard(bad)


def test_weight_and_total_entries():
    t = wx.skew_example_tableau()
    assert weight(t) == (3, 2, 2, 3)
    assert total_entries(t) == 10
    empty = SetValuedFilling(skew((2, 2), (2, 2)), {})
    assert weight(empty) == ()
    assert total_entries(empty) == 0
    out = wx.upsilon_marked_output()
    assert weight(out) == (2, 2, 3, 4)
    assert total_entries(out) == 11
    assert total_entries(superstandard((4, 2))) == 6
    # the message names the largest entry, not the first one past n
    wide = SetValuedFilling.from_rows(skew((2,)), [[{1, 4}, {5}]])
    assert weight(wide) == (1, 0, 0, 1, 1)
    with pytest.raises(ValueError) as info:
        weight(wide, 3)
    assert str(info.value) == "entry 5 exceeds requested length 3"


def test_reading_words():
    t = wx.reading_word_tableau()
    assert column_word(t) == (3, 2, 2, 1, 4, 1, 4, 3, 2)
    assert row_word(t) == (3, 2, 2, 1, 1, 4, 4, 3, 2)
    single = SetValuedFilling.from_rows(skew((1,)), [[{1, 3}]])
    assert column_word(single) == (3, 1)
    assert row_word(SetValuedFilling.from_rows(skew((2,)), [[{1}, {2}]])) == (2, 1)
    empty = SetValuedFilling(skew(()), {})
    assert column_word(empty) == ()
    assert row_word(empty) == ()


def test_is_dominant():
    assert is_dominant((1, 1, 2, 1))
    assert not is_dominant((2, 1))
    assert is_dominant((1, 2, 1, 3, 2))
    assert is_dominant(())


def test_superstandard():
    t = superstandard((3, 1))
    assert [[sorted(v) for v in row] for row in t.rows()] == [[[1], [1], [1]], [[2]]]
    assert superstandard(()).num_cells() == 0
    t = superstandard((4, 2, 1))
    assert weight(t) == (4, 2, 1)
    assert t.shape == skew((4, 2, 1))


def test_lambda_dominance_examples():
    t = wx.reading_word_tableau()
    assert is_lambda_dominant(t, (4, 2, 1))
    assert not is_lambda_dominant(t, (3, 1))
    empty = SetValuedFilling(skew(()), {})
    assert is_lambda_dominant(empty, (5, 2))


def test_enumerate_single_cell():
    fillings = list(enumerate_svt(skew((1,)), 2))
    assert [sorted(f.entries[(1, 1)]) for f in fillings] == [[1], [2], [1, 2]]


def test_enumerate_empty_cases():
    assert list(enumerate_svt(skew((1, 1)), 1)) == []
    empties = list(enumerate_svt(skew(()), 3))
    assert len(empties) == 1 and empties[0].num_cells() == 0
    # degenerate shape with a weight filter that cannot be met
    assert list(enumerate_svt(skew(()), 3, weight_filter=(1,))) == []


def test_enumerate_contains_final_example_witnesses():
    stream = list(enumerate_svt(rotate((3, 2, 1)), 4, weight_filter=(1, 3, 3, 2)))
    assert wx.s1() in stream
    assert wx.s2() in stream


def test_enumerate_is_deterministic():
    shape = skew((2, 1))
    first = list(enumerate_svt(shape, 3))
    second = list(enumerate_svt(shape, 3))
    assert first == second


def test_weight_filter_matches_post_filtering():
    shape = skew((2, 2), (1,))
    everything = list(enumerate_svt(shape, 3))
    for target in itertools.product(range(4), repeat=3):
        filtered = list(enumerate_svt(shape, 3, weight_filter=target))
        expected = [f for f in everything if weight(f, 3) == target]
        assert filtered == expected


def test_singleton_flag_matches_entry_count():
    shape = skew((2, 1))
    everything = list(enumerate_svt(shape, 3))
    singles = list(enumerate_svt(shape, 3, singleton=True))
    expected = [f for f in everything if total_entries(f) == f.num_cells()]
    assert set(singles) == set(expected)
    assert all(total_entries(f) == f.num_cells() for f in singles)


def _pruning_shapes():
    # straight, skew and rotated shapes with one to five cells
    for outer in partitions_up_to(5, max_length=3):
        if not outer:
            continue
        yield skew(outer)
        yield rotate(outer)
        for inner in partitions_up_to(2):
            if inner and contains(inner, outer) and outer.size() > inner.size():
                yield skew(outer, inner)


def test_dominant_for_matches_post_filtering():
    # the pruned stream is the post-filtered one, in the same order, for
    # every lam of size <= 3 (some longer than n), with and without a
    # weight filter and with singleton fillings
    lams = list(partitions_up_to(3))
    compared = kept = 0
    for shape in _pruning_shapes():
        cells = shape.num_cells()
        for n in range(1, 4):
            weights = sorted({weight(f, n) for f in enumerate_svt(shape, n)
                              if total_entries(f) <= cells + 1})
            runs = [{}, {"singleton": True}]
            runs += [{"weight_filter": w} for w in weights]
            runs += [{"weight_filter": w, "singleton": True} for w in weights[:2]]
            for kwargs in runs:
                everything = list(enumerate_svt(shape, n, **kwargs))
                for lam in lams:
                    pruned = list(enumerate_svt(shape, n, dominant_for=lam, **kwargs))
                    expected = [f for f in everything if is_lambda_dominant(f, lam)]
                    assert pruned == expected, (shape, n, kwargs, lam)
                    compared += 1
                    kept += len(expected)
    assert compared > 10000 and kept > 10000


def _trim(t):
    t = tuple(t)
    while t and t[-1] == 0:
        t = t[:-1]
    return t


def _weight_cases(seen, n):
    # tight weights (each met by some filling), spread over the weights
    # seen plus two with a zero inside; and the last one again one longer
    # than n, ending in 0 (same stream) and in 1 (no stream)
    seen = sorted(seen)
    tight = seen[::max(1, len(seen) // 3)]
    tight += [w for w in seen if 0 in w and w not in tight][:2]
    return tight + [w + (0,) * (n - len(w)) + (last,) for w in tight[-1:] for last in (0, 1)]


def _capacity_shapes():
    # straight, skew and rotated shapes with one to six cells
    for outer in partitions_up_to(6):
        if not outer:
            continue
        yield skew(outer)
        yield rotate(outer)
        for inner in partitions_up_to(2):
            if inner and len(outer) <= 3 and contains(inner, outer) \
                    and outer.size() > inner.size():
                yield skew(outer, inner)
    yield skew((4, 3, 2), (2, 1))
    yield skew((3, 3, 2), (1, 1))
    yield skew((4, 4), (2,))


def test_weight_cuts_match_plain_post_filtering():
    # the weight-filtered, lam-dominant stream is the unfiltered stream
    # post-filtered by weight and dominance, in the same order; the
    # reference uses neither weight_filter nor dominant_for, so it runs
    # none of the capacity cuts
    lams = list(partitions_up_to(3))
    compared = kept = 0
    for shape in _capacity_shapes():
        cells = shape.num_cells()
        for n in range(1, 6):
            runs = [True] + ([False] if n <= 3 or cells * n <= 16 else [])
            for single in runs:
                by_weight = {}
                for f in enumerate_svt(shape, n, singleton=single):
                    by_weight.setdefault(_trim(weight(f, n)), []).append(f)
                for w in _weight_cases(by_weight, n):
                    same = by_weight.get(_trim(w), [])
                    for lam in lams:
                        got = list(enumerate_svt(shape, n, weight_filter=w,
                                                 dominant_for=lam, singleton=single))
                        expected = [f for f in same if is_lambda_dominant(f, lam)]
                        assert got == expected, (shape, n, w, lam, single)
                        compared += 1
                        kept += len(expected)
    assert compared > 10000 and kept > 5000


def _search_nodes(shape, n, **kwargs):
    # the stream, and how often the search's node generator runs (a
    # profile hook sees each entry and each resumption)
    node, = [c for c in enumerate_svt.__code__.co_consts
             if getattr(c, "co_name", None) == "fill"]
    runs = 0

    def count(frame, event, arg):
        nonlocal runs
        if event == "call" and frame.f_code is node:
            runs += 1

    sys.setprofile(count)
    try:
        stream = list(enumerate_svt(shape, n, **kwargs))
    finally:
        sys.setprofile(None)
    return stream, runs


@pytest.mark.parametrize("shape, n, target, lam, nodes", [
    # a column of three cells cannot hold values in [1, 2]
    (skew((1, 1, 1)), 2, (2, 1), None, 0),
    # three 3s need three columns whose cells can hold 3; there are two
    (rotate((2, 2, 1)), 4, (1, 2, 3, 0), None, 0),
    # a 3 asked for with n = 2
    (skew((2,)), 2, (1, 0, 1), None, 0),
    # the row-wise dominance capacity refuses at the first row start,
    # once through the need of v-1 and once through the cells that can
    # hold v-1
    (rotate((4, 1)), 4, (2, 3, 1, 0), (2, 1), 1),
    (skew((3, 2)), 4, (2, 1, 1, 2), (2, 1), 1),
])
def test_capacity_cuts_refuse_at_the_root(shape, n, target, lam, nodes):
    # no completion exists, and the weight cuts see it before the search
    # descends; a weaker cut would still give the same empty stream
    stream, runs = _search_nodes(shape, n, weight_filter=target, dominant_for=lam)
    assert stream == [] and runs == nodes


@pytest.mark.parametrize("shape, n, kwargs, nodes, count", [
    (skew((2, 1)), 2, dict(weight_filter=(2, 1), singleton=True), 8, 1),
    (skew((2, 2)), 3,
     dict(weight_filter=(2, 1, 1), dominant_for=(1,), singleton=True), 3, 0),
    # unweighted: a column of three cells with n = 3 reads 1, 2, 3 down,
    # which the column range sees (94 nodes without it)
    (skew((2, 1, 1)), 3, {}, 58, 7),
])
def test_search_node_counts(shape, n, kwargs, nodes, count):
    # how many nodes a search visits, pinned: a cut that gets weaker
    # keeps the stream but visits more nodes
    stream, runs = _search_nodes(shape, n, **kwargs)
    assert (runs, len(stream)) == (nodes, count)


def test_search_plan_is_built_once_per_shape_and_width():
    # an equal shape built anew and a weight as long as n share the plan
    tableaux._plan.cache_clear()
    first = list(enumerate_svt(skew((3, 2), (1,)), 3))
    assert list(enumerate_svt(skew((3, 2), (1,)), 3)) == first
    list(enumerate_svt(skew((3, 2), (1,)), 3, weight_filter=(1, 2, 1)))
    list(enumerate_svt(skew((3, 2), (1,)), 3, weight_filter=(2, 2)))  # w = 2
    info = tableaux._plan.cache_info()
    assert (info.misses, info.hits) == (2, 2)


def test_weight_total_equals_entry_count():
    for outer in partitions_up_to(4):
        for f in enumerate_svt(skew(outer), 3):
            assert sum(weight(f)) == total_entries(f)


def _bounded_skew_shapes(max_cells):
    # every pair inside a 3x3 box, plus wider and taller spot checks,
    # so shapes with up to eight cells are all exercised
    box = [p for p in partitions_up_to(9, max_length=3) if all(x <= 3 for x in p)]
    for outer in box:
        for inner in box:
            if not contains(inner, outer):
                continue
            shape = skew(outer, inner)
            if 1 <= shape.num_cells() <= max_cells:
                yield shape
    yield skew((4, 4))
    yield skew((4, 3, 1))
    yield skew((4, 4, 3, 1), (3, 2, 1))
    yield skew((2, 2, 2, 2), (1, 1, 1))
    yield skew((1, 1, 1, 1))
    yield skew((4, 2), (1,))
    yield skew((5, 3), (2,))


def test_row_and_column_dominance_agree():
    # the two reading words always agree about lambda-dominance
    seeds = [row_word(superstandard(lam)) for lam in partitions_up_to(4)]
    checked = 0
    for shape in _bounded_skew_shapes(8):
        for f in enumerate_svt(shape, 4):
            rw = row_word(f)
            cw = column_word(f)
            for seed in seeds:
                assert is_dominant(seed + rw) == is_dominant(seed + cw)
            checked += 1
    assert checked > 100000
