import importlib
import pkgutil

import rednoise


def test_exported_names_resolve_once():
    assert len(rednoise.__all__) == len(set(rednoise.__all__))
    for name in rednoise.__all__:
        assert hasattr(rednoise, name), name


def test_exports_are_the_submodules_exports():
    # every public name of a library module is exported by the package, and
    # nothing else is; the CLI module is a front end, not library API
    names = {"__version__"}
    for info in pkgutil.iter_modules(rednoise.__path__):
        if info.name != "cli":
            module = importlib.import_module(f"rednoise.{info.name}")
            names |= set(module.__all__)
    assert sorted(rednoise.__all__) == sorted(names)
