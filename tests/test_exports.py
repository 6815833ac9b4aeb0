import ast
import importlib
import pkgutil
import re
from pathlib import Path

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


def test_documented_imports_resolve():
    # every name the demos and README examples import from the package is
    # exported, so deleting an API name cannot leave a broken example
    root = Path(__file__).resolve().parents[1]
    sources = [p.read_text(encoding="utf-8")
               for p in sorted((root / "demos").glob("*.py"))]
    readme = (root / "README.md").read_text(encoding="utf-8")
    sources += re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    imported = [alias.name for src in sources for node in ast.walk(ast.parse(src))
                if isinstance(node, ast.ImportFrom) and node.module == "rednoise"
                for alias in node.names]
    assert len(sources) > 5 and imported
    assert sorted(set(imported) - set(rednoise.__all__)) == []
