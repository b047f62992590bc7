import itertools
import random
import sys

import pytest

import worked_examples as wx
from klrcalc import (SetValuedFilling, SkewShape, column_word, contains,
                     enumerate_svt, is_dominant, is_lambda_dominant,
                     is_semistandard, partitions_up_to, rotate, row_word,
                     skew, superstandard, total_entries, weight)
from klrcalc import tableaux


def test_semistandard_examples():
    assert is_semistandard(wx.skew_example_tableau())
    assert is_semistandard(wx.contratableau_example())
    single = SetValuedFilling.from_rows(skew((1,)), [[{1, 2, 3}]])
    assert is_semistandard(single)
    bad = SetValuedFilling.from_rows(skew((1, 1)), [[{1, 2}], [{2}]])
    assert not is_semistandard(bad)


def test_filling_repr_and_cover():
    straight = SetValuedFilling.from_rows(skew((2, 1)), [[{1}, {1, 2}], [{2}]])
    assert repr(straight) == "<filling SkewShape((2, 1)/()) [1,12; 2]>"
    rotated = SetValuedFilling.from_rows(rotate((2, 1)), [[{1}], [{1}, {1}]])
    assert repr(rotated) == "<filling RotatedShape((2, 1)) [1; 1,1]>"
    with pytest.raises(ValueError, match="^entries do not cover the shape exactly$"):
        SetValuedFilling(skew((2,)), {(1, 1): {1}})


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


def _dominant_from_lam(f, lam) -> bool:
    """Reference for is_lambda_dominant that shares none of its code: the
    counts start at lam, the counts the dominant seed word of
    superstandard(lam) leaves, and each entry of the row word read off
    `f.rows()` (rows top to bottom, cells right to left, values
    decreasing) must leave #v <= #(v - 1)."""
    counts = dict(enumerate(lam, 1))
    for row in f.rows():
        for cell in reversed(row):
            for v in sorted(cell, reverse=True):
                counts[v] = counts.get(v, 0) + 1
                if v > 1 and counts[v] > counts.get(v - 1, 0):
                    return False
    return True


def test_lambda_dominance_reads_the_seed_word_first():
    # is_lambda_dominant is the reference the fast checks are tested
    # against, so it must be the definition, the seed word of
    # superstandard(lam) read before the filling's; checked against counts
    # preset to lam on every semistandard filling of the straight and
    # rotated shapes of <= 4 cells with entries <= 4, and on every
    # assignment of subsets of {1, 2, 3} to those of <= 3 cells,
    # semistandard or not
    shapes = [make(lam) for lam in partitions_up_to(4) for make in (skew, rotate)]
    fillings = [f for shape in shapes for f in enumerate_svt(shape, 4)]
    subsets = [s for k in (1, 2, 3) for s in itertools.combinations((1, 2, 3), k)]
    for shape in shapes:
        cells = shape.cells()
        if len(cells) <= 3:
            fillings += [SetValuedFilling(shape, dict(zip(cells, sets)))
                         for sets in itertools.product(subsets, repeat=len(cells))]
    kept = 0
    for lam in partitions_up_to(3):
        for f in fillings:
            got = is_lambda_dominant(f, lam)
            assert got == _dominant_from_lam(f, lam), (f, lam)
            kept += got
    assert (len(fillings), kept) == (2440 + 2270, 4342)


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
    # the stream, and how many nodes the search visits: a profile hook
    # sees each call of its node function, one per partial filling
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
    (skew((2, 1)), 2, dict(weight_filter=(2, 1), singleton=True), 3, 1),
    (skew((2, 2)), 3,
     dict(weight_filter=(2, 1, 1), dominant_for=(1,), singleton=True), 3, 0),
    # unweighted: a column of three cells with n = 3 reads 1, 2, 3 down,
    # which the column range sees (52 nodes without it)
    (skew((2, 1, 1)), 3, {}, 16, 7),
])
def test_search_node_counts(shape, n, kwargs, nodes, count):
    # how many nodes a search visits, pinned: a cut that gets weaker
    # keeps the stream but visits more nodes
    stream, runs = _search_nodes(shape, n, **kwargs)
    assert (runs, len(stream)) == (nodes, count)


def test_unweighted_stream_is_the_brute_force_listing():
    # with no weight and no dominance the search keeps no counts; its stream
    # is still every assignment of non-empty subsets of [n] that is
    # semistandard, in increasing mask tuples
    shapes = {skew(outer, inner) for outer in partitions_up_to(6)
              for inner in partitions_up_to(outer.size())
              if contains(inner, outer) and outer.size() - inner.size() <= 4}
    for shape in shapes:
        cells = len(shape.cells())
        for n in range(4):
            listing = [f for masks in itertools.product(range(1, 1 << n), repeat=cells)
                       if is_semistandard(f := SetValuedFilling._trusted(shape, masks))]
            stream = list(enumerate_svt(shape, n))
            assert [f.masks for f in stream] == [f.masks for f in listing]
    assert len(shapes) > 100


def test_long_shapes_search_past_the_recursion_limit():
    # the search keeps one stack entry per filled cell, not one nested
    # call, so a shape of more cells than the recursion limit is answered
    cells = sys.getrecursionlimit() + 200
    assert [f.masks for f in enumerate_svt(skew((cells,)), 1)] == [(1,) * cells]
    assert len(list(enumerate_svt(skew((cells,)), 2, weight_filter=(cells - 1, 2)))) == 1
    # after the seed's one 1, the row word allows one 2: at the row's end
    assert [f.masks[-2:] for f in enumerate_svt(rotate((cells,)), 2, dominant_for=(1,),
                                                singleton=True)] == [(1, 1), (1, 2)]


def test_search_plan_is_built_once_per_shape_and_width(cold_caches):
    # an equal shape built anew and a weight as long as n share the plan
    first = list(enumerate_svt(skew((3, 2), (1,)), 3))
    assert list(enumerate_svt(skew((3, 2), (1,)), 3)) == first
    list(enumerate_svt(skew((3, 2), (1,)), 3, weight_filter=(1, 2, 1)))
    list(enumerate_svt(skew((3, 2), (1,)), 3, weight_filter=(2, 2)))  # w = 2
    info = tableaux._plan.cache_info()
    assert (info.misses, info.hits) == (2, 2)


def test_search_plan_tables_match_their_cell_by_cell_definitions():
    # each of `_plan`'s eight tables against its definition read cell by
    # cell off the shape, for every skew shape of <= 6 cells whose outer
    # shape has <= 8 cells, and every w <= 5
    shapes = {skew(outer, inner) for outer in partitions_up_to(8)
              for inner in partitions_up_to(outer.size())
              if contains(inner, outer) and outer.size() - inner.size() <= 6}
    for shape in shapes:
        cells = shape.cells()
        index = {cell: i for i, cell in enumerate(cells)}
        rows = sorted({r for r, _ in cells})
        for w in range(6):
            span = []
            for r, c in cells:
                above = sum((rr, c) in index for rr in range(1, r))
                below = sum((rr, c) in index for rr in range(r + 1, shape.num_rows + 1))
                span.append(sum(1 << v - 1 for v in range(above + 1, w - below + 1)))
            cap = tuple(tuple(len({c for (_, c), s in zip(cells[i:], span[i:]) if s >> v - 1 & 1})
                              if v else 0 for v in range(w + 1)) for i in range(len(cells) + 1))
            upto = tuple(tuple(sum(1 for (r, _), s in zip(cells, span)
                                   if r in rows[:k] and v and s >> v - 1 & 1)
                               for v in range(w + 1)) for k in range(len(rows) + 1))
            assert tableaux._plan.__wrapped__(shape, w) == (
                tuple(cells), tuple(index.get((r, c - 1)) for r, c in cells),
                tuple(index.get((r - 1, c)) for r, c in cells),
                tuple(i == 0 or cells[i - 1][0] != r for i, (r, _) in enumerate(cells)),
                tuple(span), cap, tuple(rows.index(r) for r, _ in cells), upto), (shape, w)
    assert len(shapes) == 803


def test_entries_above_the_bound_are_refused():
    top = tableaux.MAX_ENTRY
    assert weight(SetValuedFilling(skew((1,)), {(1, 1): {top}})) == (0,) * (top - 1) + (1,)
    for value in (top + 1, 10**9):
        with pytest.raises(ValueError, match=rf"^cell \(1, 1\) holds an entry above {top}$"):
            SetValuedFilling(skew((1,)), {(1, 1): {1, value}})


def test_enumeration_refuses_an_n_above_the_bound():
    top = tableaux.MAX_ENTRY
    with pytest.raises(ValueError, match=rf"^n={top + 1} is above the largest entry {top}$"):
        list(enumerate_svt(skew((1,)), top + 1, weight_filter=(0,) * top + (1,)))
    assert [f.masks for f in enumerate_svt(skew((1,)), top, weight_filter=(0,) * (top - 1) + (1,))] \
        == [(1 << (top - 1),)]


def test_filling_reads_use_the_layout_once_built(monkeypatch):
    shape = skew((3, 2, 1), (1,))
    f = SetValuedFilling.from_rows(shape, [[{1}, {1, 2}], [{2}, {2, 3}], [{3}]])

    def refuse(self, row):
        raise AssertionError("row_cols read again")

    monkeypatch.setattr(SkewShape, "row_cols", refuse)
    assert f.rows() == [[{1}, {1, 2}], [{2}, {2, 3}], [{3}]]
    assert row_word(f) == (2, 1, 1, 3, 2, 2, 3)
    assert is_semistandard(f)


def _reference_reads(shape, entries):
    """weight, total entries, semistandardness, row word, column word and
    rows of a plain {(row, col): frozenset} filling of `shape`."""
    top = max((max(vals) for vals in entries.values()), default=0)
    weight_ = tuple(sum(v in vals for vals in entries.values()) for v in range(1, top + 1))
    semistandard = all(
        ((r, c - 1) not in entries or max(entries[r, c - 1]) <= min(vals))
        and ((r - 1, c) not in entries or max(entries[r - 1, c]) < min(vals))
        for (r, c), vals in entries.items())
    down = {cell: sorted(vals, reverse=True) for cell, vals in entries.items()}
    rows = [[entries[r, c] for c in shape.row_cols(r)] for r in range(1, shape.num_rows + 1)]
    row_word_ = [v for r, c in sorted(entries, key=lambda cell: (cell[0], -cell[1]))
                 for v in down[r, c]]
    column_word_ = [v for r, c in sorted(entries, key=lambda cell: (-cell[1], cell[0]))
                    for v in down[r, c]]
    return (weight_, sum(map(len, entries.values())), semistandard, tuple(row_word_),
            tuple(column_word_), rows)


def test_bitmask_fillings_read_as_frozenset_dicts():
    shapes = [shape for shape in _bounded_skew_shapes(5) if shape.num_cells() <= 5]
    shapes += [rotate(lam) for lam in partitions_up_to(5)]
    fillings = [(f, f.entries) for shape in shapes for n in range(5)
                for f in enumerate_svt(shape, n)]
    assert len(fillings) == 60131
    # and fillings that are not semistandard, through the public constructor
    rng = random.Random(22)
    for shape in shapes:
        for _ in range(20):
            entries = {cell: frozenset(rng.sample(range(1, 7), rng.randint(1, 3)))
                       for cell in rng.sample(shape.cells(), shape.num_cells())}
            if not _reference_reads(shape, entries)[2]:
                fillings.append((SetValuedFilling(shape, entries), entries))
    assert len(fillings) == 60131 + 2085
    for f, entries in fillings:
        again = SetValuedFilling(f.shape, entries)
        assert again == f and hash(again) == hash(f) and f.entries == entries
        assert (weight(f), total_entries(f), is_semistandard(f), row_word(f),
                column_word(f), f.rows()) == _reference_reads(f.shape, entries)
    assert sum(map(is_semistandard, (f for f, _ in fillings))) == 60131


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
