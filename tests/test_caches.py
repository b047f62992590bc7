import sys
from pathlib import Path

import klrcalc


def test_every_cache_is_an_lru_cache_the_walk_finds(caches):
    # the fixtures clear what the module walk finds, so every cache must be
    # a module-level lru_cache: one hidden in a closure or a class is
    # counted here but not found, and a hand-written store is refused
    source = Path(klrcalc.__file__).parent
    written = sum(path.read_text().count("lru_cache(") for path in source.glob("*.py"))
    assert len(caches) == written, sorted(caches)
    modules = [module for name, module in sys.modules.items()
               if name == "klrcalc" or name.startswith("klrcalc.")]
    stores = [f"{module.__name__}.{attribute}" for module in modules
              for attribute, value in vars(module).items()
              if isinstance(value, (dict, list, set)) and not attribute.startswith("__")]
    assert stores == []
