"""Static checks on the package source."""

import ast
import functools
import importlib
import inspect
import re
import textwrap
from pathlib import Path

import pytest

import volkit

MODULES = sorted(p for p in Path(volkit.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
REPO = Path(volkit.__file__).resolve().parents[2]
# the code that can use a public name: not the tests, and not the package's
# re-exports, which would make every exported name its own user
CORPUS = sorted(p for part in ("src", "perfbench")
                for p in (REPO / part).rglob("*.py")
                if p.name != "__init__.py")
# public names kept only as references that tests compare against
REFERENCE_APIS = {
    "query",  # FrozenKernelGrid.query, bitwise for comb_walk's prefix lines
}


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never mentions again."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def test_checker_finds_an_unused_import():
    source = "import os\nfrom math import pi, tau\nprint(os.sep, tau)\n"
    assert unused_imports(source) == ["line 2: pi"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def public_definitions(source: str) -> list[tuple[int, str]]:
    """(line, name) of each public top-level function and class, and of
    each public method, property and field of a public class."""
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                or node.name.startswith("_"):
            continue
        out.append((node.lineno, node.name))
        for item in node.body if isinstance(node, ast.ClassDef) else ():
            if isinstance(item, ast.FunctionDef):
                name = item.name
            elif isinstance(item, ast.AnnAssign) \
                    and isinstance(item.target, ast.Name):
                name = item.target.id
            else:
                continue
            if not name.startswith("_"):
                out.append((item.lineno, name))
    return out


def mentioned_names(sources) -> set[str]:
    """Names the sources use: Name and Attribute nodes, call keywords,
    import names and identifier strings.  A class-level field declaration
    is a definition, not a use."""
    names = set()
    for source in sources:
        tree = ast.parse(source)
        fields = {id(item.target) for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef)
                  for item in node.body if isinstance(item, ast.AnnAssign)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and id(node) not in fields:
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg:
                names.add(node.arg)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str) and node.value.isidentifier():
                names.add(node.value)
    return names


def dead_names(source: str, used: set[str]) -> list[str]:
    """Public names ``source`` defines that ``used`` does not contain."""
    return [f"line {line}: {name}"
            for line, name in public_definitions(source) if name not in used]


@functools.cache
def corpus_names() -> frozenset[str]:
    return frozenset(mentioned_names(p.read_text() for p in CORPUS)
                     | REFERENCE_APIS)


def test_checker_finds_dead_names():
    source = (
        "class Box:\n"
        "    size: int\n"
        "    spare: int = 0\n"
        "    def grow(self):\n"
        "        return Box(size=self.size + 1)\n"
        "    def shrink(self):\n"
        "        return self.grow()\n"
        "    def _hidden(self):\n"
        "        return getattr(self, 'shrink')\n"
        "def orphan():\n"
        "    pass\n")
    assert dead_names(source, mentioned_names([source])) == [
        "line 3: spare", "line 10: orphan"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_names(path):
    assert dead_names(path.read_text(), corpus_names()) == []


def self_attributes(cls: type) -> set[str]:
    """The names a class's methods assign on ``self``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(cls)))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"}


def resolves(obj, names: list[str]) -> bool:
    """Whether the dotted ``names`` lead from ``obj`` to an attribute: a
    class's own, a dataclass field, or one its methods set on ``self``."""
    for i, name in enumerate(names):
        if hasattr(obj, name):
            obj = getattr(obj, name)
        elif isinstance(obj, type) and i == len(names) - 1:
            fields = getattr(obj, "__dataclass_fields__", {})
            return name in fields or name in self_attributes(obj)
        else:
            return False
    return True


def readme_references() -> list[str]:
    """Backticked dotted names in README.md, apart from file names."""
    text = (REPO / "README.md").read_text()
    return [name for name in re.findall(r"`(\w+(?:\.\w+)+)`", text)
            if not name.endswith(".py")]


def test_readme_names_resolve():
    modules = {p.stem: importlib.import_module(f"volkit.{p.stem}")
               for p in MODULES}
    classes = {name: obj for module in modules.values()
               for name, obj in vars(module).items()
               if isinstance(obj, type)
               and obj.__module__ == module.__name__}
    heads = modules | classes
    checked = [name for name in readme_references()
               if name.split(".")[0] in heads]
    assert {"KernelGrid.insert", "kernels._mirror_side"} <= set(checked)
    unresolved = []
    for name in checked:
        head, *rest = name.split(".")
        if not resolves(heads[head], rest):
            unresolved.append(name)
    assert unresolved == []
