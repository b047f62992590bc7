import json

import pytest

import worked_examples as wx
from klrcalc import (CoefficientQuery, SetValuedFilling, expand_in_g_basis,
                     gamma, gamma_inverse, grothendieck_poly, multiply,
                     rotate, skew)
from klrcalc import jsonio


def _roundtrip(obj):
    return json.loads(json.dumps(obj))


def test_filling_roundtrip_straight():
    t = wx.skew_example_tableau()
    obj = _roundtrip(jsonio.filling_obj(t))
    assert obj["outer"] == [4, 3, 2] and obj["inner"] == [2, 1]
    assert jsonio.filling_from_obj(obj) == t


def test_filling_roundtrip_rotated():
    s = wx.s1()
    obj = _roundtrip(jsonio.filling_obj(s))
    assert obj["rotated_of"] == [3, 2, 1]
    back = jsonio.filling_from_obj(obj)
    assert back == s
    assert isinstance(back.shape, type(rotate((1,))))


def test_filling_obj_rejects_contradictory_tag():
    obj = jsonio.filling_obj(wx.s1())
    obj["outer"] = [9, 9, 9]
    with pytest.raises(ValueError):
        jsonio.filling_from_obj(obj)


def test_marked_pattern_roundtrip():
    m = wx.omega_marked()
    obj = _roundtrip(jsonio.marked_obj(m))
    assert obj["rows"][0] == [2]
    assert jsonio.marked_from_obj(obj) == m


def test_expansion_obj_signs():
    square = multiply(grothendieck_poly((1,), (), 2),
                      grothendieck_poly((1,), (), 2), 4)
    rows = jsonio.expansion_obj(expand_in_g_basis(square, 4))
    as_map = {tuple(r["nu"]): (r["C"], r["sign"]) for r in rows}
    assert as_map == {(2,): (1, 1), (1, 1): (1, 1), (2, 1): (1, -1)}


def test_trace_objects_have_spec_keys():
    q = CoefficientQuery(wx.FINAL_LAM, wx.FINAL_MU, wx.FINAL_NU)
    fwd = _roundtrip(jsonio.trace_obj(gamma(wx.t1(), q)))
    for key in ("T", "X_T", "M_T", "N", "Y_T", "Mp_T", "S"):
        assert key in fwd
    assert fwd["X_T"]["rows"] == [list(r) for r in wx.X_T1_ROWS]
    assert fwd["M_T"] == [list(m) for m in sorted(wx.M_T1)]
    inv = _roundtrip(jsonio.trace_obj(gamma_inverse(wx.s1(), q)))
    for key in ("S", "Z", "M_Z", "Zp", "dSE", "ops", "V", "M_V", "N_up", "T"):
        assert key in inv
    assert inv["V"]["rows"] == [list(r) for r in wx.X_T1_ROWS]
    assert jsonio.filling_from_obj(inv["T"]) == wx.t1()


def test_empty_filling_roundtrip():
    empty = SetValuedFilling(skew(()), {})
    assert jsonio.filling_from_obj(_roundtrip(jsonio.filling_obj(empty))) == empty
