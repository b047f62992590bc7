"""Fixtures shared by the test modules: the caches of klrcalc.

Every cache in klrcalc is an `lru_cache`, so a walk over the attributes
of its loaded modules for `cache_clear` finds them all, with no registry.
"""

import importlib
import pkgutil
import sys

import pytest

import klrcalc


def loaded_caches() -> dict:
    """{"module.attribute": cache} for each cache of a loaded klrcalc
    module, under the first name found for it."""
    found = {}
    for name, module in sorted(sys.modules.items()):
        if name == "klrcalc" or name.startswith("klrcalc."):
            for attribute, value in vars(module).items():
                if hasattr(value, "cache_clear") and value not in found.values():
                    found[f"{name}.{attribute}"] = value
    return found


@pytest.fixture
def caches() -> dict:
    """`loaded_caches` once every klrcalc module is imported; `__main__`
    runs the command line, so it is left out."""
    for module in pkgutil.iter_modules(klrcalc.__path__):
        if module.name != "__main__":
            importlib.import_module(f"klrcalc.{module.name}")
    return loaded_caches()


@pytest.fixture
def cold_caches():
    """Clears every cache before the test; the test may call the returned
    function to clear them all again."""
    def clear():
        for cache in loaded_caches().values():
            cache.cache_clear()

    clear()
    return clear
