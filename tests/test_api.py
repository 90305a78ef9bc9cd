"""The public surface: every exported name exists, every rejected input
raises the one package error, and the README's Quick-start example runs as
written."""
import ast
import re
from pathlib import Path

import qkdrelay

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(qkdrelay.__file__).resolve().parent

# (module, function, raised name) of the raises that are not rejected inputs:
# run exits with main's code
OTHER_RAISES = {("cli.py", "run", "SystemExit")}


def _raises(node, function=None):
    """(enclosing function, raised name) for every raise below ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _raises(child, child.name)
            continue
        if isinstance(child, ast.Raise):
            exc = child.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            yield function, ast.unparse(exc) if exc is not None else None
        yield from _raises(child, function)


def test_every_exported_name_resolves():
    missing = [name for name in qkdrelay.__all__
               if not hasattr(qkdrelay, name)]
    assert not missing


def test_every_raise_names_the_package_error():
    # cli.main maps InvalidParameterError (and OSError) to exit 2; any other
    # type raised in the package would escape it as a traceback
    others = [(path.name, function, name)
              for path in sorted(PACKAGE.glob("*.py"))
              for function, name in _raises(ast.parse(
                  path.read_text(encoding="utf-8")))
              if name != "InvalidParameterError"]
    assert set(others) <= OTHER_RAISES, others


def test_readme_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README}:quick-start", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    n_star, d_max = printed[1].split()
    assert int(n_star) == 18 and 600.0 <= float(d_max) <= 700.0


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _reach_ins(tree):
    """``module.name`` for every underscore name ``tree`` reads from another
    module of the package, by ``from .module import _x`` or ``module._x``."""
    siblings = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                if node.module is None:
                    siblings.add(alias.asname or alias.name)
                elif _private(alias.name):
                    yield f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in siblings):
            yield f"{node.value.id}.{node.attr}"


def test_no_module_reads_another_modules_private_names():
    found = {path.name: sorted(_reach_ins(ast.parse(
                 path.read_text(encoding="utf-8"))))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert not any(found.values()), found
    # the check sees a reach-in when there is one
    assert sorted(_reach_ins(ast.parse(
        "from . import model as m\nfrom .model import _a\nm._b"))) \
        == ["m._b", "model._a"]
