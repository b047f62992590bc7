"""JSON encoding and decoding for every value the command line exchanges.

Fillings carry their shape inline; rotated shapes add a "rotated_of"
tag so the bottom-up row convention survives a round trip.
"""

from __future__ import annotations

import json

from .errors import InputError
from .grothendieck import BasisExpansion
from .gtpatterns import GTPattern, MarkedGTPattern
from .lr import GammaTrace
from .shapes import RotatedShape, rotate, skew
from .tableaux import SetValuedFilling, _layout, _values


def filling_obj(filling: SetValuedFilling) -> dict:
    obj = {"outer": list(filling.shape.outer), "inner": list(filling.shape.inner),
           "rows": [list(map(_values, filling.masks[s])) for s in _layout(filling.shape)[3]]}
    if isinstance(filling.shape, RotatedShape):
        obj["rotated_of"] = list(filling.shape.lam)
    return obj


def _ints(value, what: str) -> list:
    """`value` if it is a JSON list of integers, else InputError."""
    if not isinstance(value, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in value):
        raise InputError(f"{what} must be a list of integers, got {json.dumps(value)}")
    return value


def _rows(obj, what: str) -> list:
    """The "rows" list of a decoded object, each row a list."""
    if not isinstance(obj, dict):
        raise InputError(f"{what} must be a JSON object, got {type(obj).__name__}")
    rows = obj.get("rows")
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise InputError(f'{what} needs "rows", a list of lists')
    return rows


def filling_from_obj(obj: dict) -> SetValuedFilling:
    """Decode `filling_obj` output; InputError when it is not a filling."""
    rows = _rows(obj, "a filling")
    for r, row in enumerate(rows, start=1):
        for cell in row:
            if len(set(_ints(cell, f"a cell of row {r}"))) < len(cell):
                raise InputError(f"a cell of row {r} lists an entry twice: {json.dumps(cell)}")
    if "rotated_of" not in obj and "outer" not in obj:
        raise InputError('a filling needs "outer" or "rotated_of"')
    outer = _ints(obj["outer"], '"outer"') if "outer" in obj else None
    inner = _ints(obj.get("inner", []), '"inner"')
    rotated_of = _ints(obj["rotated_of"], '"rotated_of"') if "rotated_of" in obj else None
    try:
        if rotated_of is not None:
            shape = rotate(rotated_of)
            if (outer is not None and list(shape.outer) != outer) or \
                    ("inner" in obj and list(shape.inner) != inner):
                raise ValueError("rotated_of tag contradicts outer/inner")
        else:
            shape = skew(outer, inner)
        return SetValuedFilling.from_rows(shape, rows)
    except ValueError as exc:
        raise InputError(f"not a filling: {exc}") from None


def pattern_obj(pattern: GTPattern) -> dict:
    return {"rows": [list(row) for row in pattern.rows]}


def marks_list(marks) -> list:
    return [list(m) for m in sorted(marks)]


def marked_obj(marked: MarkedGTPattern) -> dict:
    return {**pattern_obj(marked.pattern), "marks": marks_list(marked.marks)}


def marked_from_obj(obj: dict) -> MarkedGTPattern:
    """Decode `marked_obj` output; InputError when it is not a marked pattern."""
    rows = [_ints(row, f"pattern row {i}")
            for i, row in enumerate(_rows(obj, "a marked pattern"), start=1)]
    marks = obj.get("marks", [])
    if not isinstance(marks, list):
        raise InputError('"marks" must be a list of [i, j] pairs')
    for m in marks:
        if len(_ints(m, "a mark")) != 2:
            raise InputError(f"a mark must be an [i, j] pair, got {json.dumps(m)}")
    if len(set(map(tuple, marks))) < len(marks):
        raise InputError(f"a mark is listed twice: {json.dumps(marks)}")
    try:
        return MarkedGTPattern(GTPattern(rows), [tuple(m) for m in marks])
    except ValueError as exc:
        raise InputError(f"not a marked pattern: {exc}") from None


def expansion_obj(expansion: BasisExpansion) -> list:
    return [{"nu": list(nu), "C": abs(c), "sign": 1 if c > 0 else -1}
            for nu, c in expansion.items()]


def trace_obj(trace: GammaTrace) -> dict:
    q = trace.query
    obj = {"direction": trace.direction, "lambda": list(q.lam), "mu": list(q.mu),
           "nu": list(q.nu), "n": q.n}
    if trace.direction == "gamma":
        obj.update({
            "T": filling_obj(trace.tableau),
            "X_T": pattern_obj(trace.tableau_pattern),
            "M_T": marks_list(trace.tableau_marks),
            "N": [list(row) for row in trace.prefix_counts],
            "Y_T": pattern_obj(trace.contra_pattern),
            "Mp_T": marks_list(trace.contra_marks),
            "S": filling_obj(trace.contratableau),
        })
    else:
        obj.update({
            "S": filling_obj(trace.contratableau),
            "Z": pattern_obj(trace.contra_pattern),
            "M_Z": marks_list(trace.contra_marks),
            "Zp": [list(row) for row in trace.cumulative_rows],
            "dSE": [list(row) for row in trace.slack_rows],
            "ops": [list(op) for op in trace.column_ops],
            "V": pattern_obj(trace.tableau_pattern),
            "M_V": marks_list(trace.tableau_marks),
            "N_up": [list(row) for row in trace.suffix_counts],
            "T": filling_obj(trace.tableau),
        })
    return obj
