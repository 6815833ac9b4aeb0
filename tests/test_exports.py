import argparse
import ast
import dataclasses
import importlib
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import rednoise
from rednoise import cli, parse_model


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


_DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", _DEMOS, ids=[p.name for p in _DEMOS])
def test_demo_runs(demo, tmp_path):
    # each demo runs to its end against the package source, so a changed
    # call signature cannot break one silently; any figure it writes lands
    # in tmp_path
    src = str(Path(rednoise.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "MPLBACKEND": "Agg"}
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr


def test_documented_cli_lines_parse():
    # every `rednoise ...` line of the README's shell blocks parses (without
    # running), and every --option the CLI section names belongs to some
    # subcommand, so a removed flag cannot linger in the docs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    parser = cli._build_parser()
    lines = [line for block in re.findall(r"```sh\n(.*?)```", readme,
                                          flags=re.DOTALL)
             for line in block.splitlines() if line.startswith("rednoise ")]
    assert len(lines) >= 8
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    options = {opt for sub in subparsers.choices.values()
               for opt in sub._option_string_actions}
    section = readme[readme.index("## CLI"):readme.index("## Library tour")]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    assert named and sorted(named - options) == []


def test_documented_model_specs_parse():
    # every backticked model string of the README parses (one that wraps
    # across lines is joined first), and every keyword of a model
    # constructor call in the README names a field of that model, so a
    # retired field cannot linger in the docs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    specs = [" ".join(spec.split())
             for spec in re.findall(r"`(model=[^`]*)`", readme)]
    assert len(specs) >= 6
    for spec in specs:
        parse_model(spec)
    calls = re.findall(r"\b(White|RedOuDt|DiffU|Mixed|Ar1Driven|Fgn)\(([^()]*)\)",
                       readme)
    assert calls
    for name, args in calls:
        names = {f.name for f in dataclasses.fields(getattr(rednoise, name))}
        keywords = set(re.findall(r"(\w+)\s*=(?!=)", args))
        assert sorted(keywords - names) == [], f"{name}({args})"


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


def test_fft_paths_stay_inside_spectral():
    # the FFT path choice, its bin layout and the whole-array lock live in
    # spectral alone: other modules reach the bins through _rfft and _irfft
    def internal(name):
        return name in ("_halfcomplex", "_SPECTRUM_LOCK") or \
            name.startswith("_four_step")

    found = []
    for path in sorted(Path(rednoise.__file__).parent.glob("*.py")):
        if path.name == "spectral.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [alias.name for alias in node.names] \
                if isinstance(node, ast.ImportFrom) else \
                [node.attr] if isinstance(node, ast.Attribute) else []
            found += [f"{path.stem}: {name}" for name in names if internal(name)]
    assert found == []


def test_all_is_one_literal_list():
    # the export count is read from the source by parsing this literal, so a
    # computed __all__ (star imports, concatenation) would be miscounted
    tree = ast.parse(Path(rednoise.__file__).read_text(encoding="utf-8"))
    lists = [node.value for node in tree.body if isinstance(node, ast.Assign)
             and any(getattr(t, "id", None) == "__all__" for t in node.targets)]
    assert len(lists) == 1 and isinstance(lists[0], ast.List)
    names = ast.literal_eval(lists[0])
    assert len(names) == len(rednoise.__all__)
