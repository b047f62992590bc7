"""The benchmark's tracer names the functions of klrcalc it wraps; a
rename must not leave a traced layer silently reading 0."""

import ast
import importlib
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _traced() -> tuple:
    """The `TRACED` table of perfbench/tracer.py, read from its source."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "TRACED" for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} has no TRACED table")


def test_every_traced_name_is_a_function_with_its_generator_flag():
    # the tracer times a generator across every next() and counts its
    # yields, so a traced generator that starts returning a list, or the
    # reverse, misreads its layer as surely as a renamed one
    traced = _traced()
    assert traced
    for module, name, generator in traced:
        fn = getattr(importlib.import_module(f"klrcalc.{module}"), name, None)
        assert inspect.isfunction(fn), f"klrcalc.{module}.{name} is not a function"
        assert inspect.isgeneratorfunction(fn) == generator, (
            f"klrcalc.{module}.{name}: generator is {not generator}, traced as {generator}")
