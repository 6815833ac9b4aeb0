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


def test_src_imports_are_used():
    # every name a library or CLI module binds by a module-level import is
    # used in that module or re-exported through its __all__
    unused = []
    for path in sorted(Path(rednoise.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = [(alias.asname or alias.name).split(".")[0]
                 for node in tree.body
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 and getattr(node, "module", None) != "__future__"
                 for alias in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= set(importlib.import_module(f"rednoise.{path.stem}").__all__)
        unused += [f"{path.stem}.{name}" for name in bound if name not in used]
    assert unused == []


def test_all_is_one_literal_list():
    # the export count is read from the source by parsing this literal, so a
    # computed __all__ (star imports, concatenation) would be miscounted
    tree = ast.parse(Path(rednoise.__file__).read_text(encoding="utf-8"))
    lists = [node.value for node in tree.body if isinstance(node, ast.Assign)
             and any(getattr(t, "id", None) == "__all__" for t in node.targets)]
    assert len(lists) == 1 and isinstance(lists[0], ast.List)
    names = ast.literal_eval(lists[0])
    assert len(names) == len(rednoise.__all__)
