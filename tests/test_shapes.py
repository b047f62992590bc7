import copy
import pickle

import pytest

from klrcalc import (ContainmentError, Partition, contains, partitions,
                     partitions_up_to, rotate, skew)


def test_partition_normalization():
    assert Partition((3, 2, 0, 0)) == Partition((3, 2))
    assert len(Partition((3, 2, 0))) == 2
    assert Partition(()).size() == 0
    assert Partition((4, 3, 1)).size() == 8
    assert Partition((2, 1))[5] == 0
    assert Partition((2, 1)).pad(4) == (2, 1, 0, 0)


def test_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))
    with pytest.raises(ValueError, match=r"^cannot pad Partition\(2, 1\) to length 1$"):
        Partition((2, 1)).pad(1)


def test_partition_is_the_tuple_of_its_parts():
    p = Partition((2, 1, 0))
    assert isinstance(p, tuple)
    assert p == (2, 1) and hash(p) == hash((2, 1))
    assert {(2, 1): "x"}[p] == "x"
    assert Partition(p) is p
    assert p[5] == p[-1] == 0
    assert type(p[1:]) is tuple and p[1:] == (1,)
    assert p.parts == (2, 1) and type(p.parts) is tuple
    assert repr(p) == "Partition(2, 1)" and repr(Partition(())) == "Partition()"
    for back in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
        assert type(back) is Partition and back == p


def test_contains_examples():
    assert contains((2, 1), (4, 3, 1))
    assert contains((), (5, 5))
    assert not contains((2, 2), (3, 1))


def test_contains_is_partial_order():
    universe = list(partitions_up_to(6))
    for a in universe:
        assert contains(a, a)
    for a in universe:
        for b in universe:
            if contains(a, b) and contains(b, a):
                assert a == b
    for a in universe:
        bigger = [b for b in universe if contains(a, b)]
        for b in bigger:
            for c in universe:
                if contains(b, c):
                    assert contains(a, c)


def test_skew_cells():
    shape = skew((4, 3, 2), (2, 1))
    assert set(shape.cells()) == {(1, 3), (1, 4), (2, 2), (2, 3), (3, 1), (3, 2)}
    assert shape.num_cells() == 6
    assert skew((3, 1), (3, 1)).cells() == []
    assert len(skew((3, 2, 1)).cells()) == 6


def test_skew_rejects_noncontained():
    with pytest.raises(ContainmentError):
        skew((2, 1), (3,))


def test_rotate_embedding():
    shape = rotate((3, 2, 1))
    assert shape.outer == Partition((3, 3, 3))
    assert shape.inner == Partition((2, 1))
    # top row holds 1 right-justified cell, then 2, then 3
    assert set(shape.cells()) == {(1, 3), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)}
    assert rotate(()).cells() == []


def test_rotate_is_an_involution_on_cells():
    # rotating the rotated cell set 180 degrees gives back the diagram
    for lam in partitions_up_to(8):
        shape = rotate(lam)
        height = shape.num_rows
        width = shape.outer[0] if shape.outer else 0
        back = {(height + 1 - r, width + 1 - c) for (r, c) in shape.cells()}
        assert back == set(skew(lam).cells())
        assert shape.num_cells() == lam.size()


def test_shapes_are_immutable():
    for shape in (skew((3, 1), (1,)), rotate((2, 1))):
        for name in ("outer", "inner", "lam", "other"):
            with pytest.raises(AttributeError):
                setattr(shape, name, (5, 5))
            with pytest.raises(AttributeError):
                delattr(shape, name)
        # pickle and copy rebuild a shape rather than set its attributes
        for back in (pickle.loads(pickle.dumps(shape)), copy.copy(shape),
                     copy.deepcopy(shape)):
            assert type(back) is type(shape) and back == shape
    assert pickle.loads(pickle.dumps(rotate((2, 1)))).lam == (2, 1)


def test_partitions_generator():
    assert [p.parts for p in partitions(4)] == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert [p.parts for p in partitions(3, max_length=2)] == [(3,), (2, 1)]
    assert [p.parts for p in partitions(0)] == [()]
    # descending lex refines dominance, which the basis peel relies on:
    # nothing emitted later may strictly dominate something emitted earlier
    for d in range(8):
        seen = []
        for p in partitions(d):
            for q in seen:
                length = max(len(p.parts), len(q))
                psum = [sum(p.parts[:i + 1]) for i in range(length)]
                qsum = [sum(q[:i + 1]) for i in range(length)]
                assert not all(x >= y for x, y in zip(psum, qsum)) or p.parts == q
            seen.append(p.parts)
