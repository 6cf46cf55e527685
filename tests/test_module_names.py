"""Names left behind: every module of the package is parsed with ``ast``, and
an imported name the module never uses, a module-level private name (``_x``)
that no module of the package reads beyond its definition, or a public name
of a module (bound at module level, or a public method or property of one of
its classes) that no file of the source, tests, demos or benchmark reads,
fails.  Such names are what a simplification leaves when it folds a helper
into another and forgets the old one, or when a test stops using a helper."""

import ast
import fnmatch
import importlib
import re
from pathlib import Path

import pytest

import hypcycles

TREES = {path.name: ast.parse(path.read_text(), filename=str(path))
         for path in sorted(Path(hypcycles.__file__).parent.glob("*.py"))}
ROOT = Path(__file__).resolve().parent.parent


def _reads(tree):
    """The names a module reads and the attributes it names."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def _definitions(tree):
    """The module-level names bound by def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for target in targets for t in ast.walk(target)
                        if isinstance(t, ast.Name))


# the package's __init__ imports to re-export, so it is not held to this
@pytest.mark.parametrize("module", [m for m in TREES if m != "__init__.py"])
def test_every_imported_name_is_used(module):
    tree = TREES[module]
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names}
    assert sorted(imported - _reads(tree)) == []


def test_every_private_module_name_is_read():
    read = set().union(*map(_reads, TREES.values()))
    unread = [f"{module}: {name}" for module, tree in TREES.items() for name in _definitions(tree)
              if name.startswith("_") and not name.startswith("__") and name not in read]
    assert unread == []


def _public_names(tree):
    """The public names a module binds at module level, and the public methods
    and properties of its classes."""
    yield from (name for name in _definitions(tree) if not name.startswith("_"))
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from (item.name for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_"))


def test_every_public_name_is_read():
    read = set().union(*(_reads(ast.parse(path.read_text(), filename=str(path)))
                         for folder in ("src", "tests", "demos", "perfbench")
                         for path in sorted((ROOT / folder).rglob("*.py"))))
    unread = [f"{module}: {name}" for module, tree in TREES.items() if module != "__init__.py"
              for name in _public_names(tree) if name not in read]
    assert unread == []


def test_readme_cites_only_names_that_exist():
    # each backticked module.name, with or without "hypcycles.", for a module of the
    # package; a pattern such as cli.cmd_* must match at least one name
    modules = {path[:-3]: vars(importlib.import_module(f"hypcycles.{path[:-3]}"))
               for path in TREES if path != "__init__.py"}
    cited = re.findall(r"`(?:hypcycles\.)?(%s)\.([\w*]+)`" % "|".join(modules),
                       (ROOT / "README.md").read_text())
    assert cited
    missing = sorted({f"{module}.{name}" for module, name in cited
                      if not fnmatch.filter(modules[module], name)})
    assert missing == []


def _owners(tree):
    """(name, node) of each statement of a module, a method as "Class.method"; a
    statement that binds no name (an assignment, say) is named ""."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{getattr(item, 'name', '')}", item) for item in node.body)
        else:
            yield getattr(node, "name", ""), node


def _readers(name):
    """The "module.py:owner" of every read of ``name``, as a bare name or an attribute."""
    return {f"{module}:{owner}" for module, tree in TREES.items() for owner, node in _owners(tree)
            if any(isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load)
                   or isinstance(n, ast.Attribute) and n.attr == name for n in ast.walk(node))}


# each rule with the one function that may state it: when an order counts as real, what
# type a result takes (the quadrature engine's test of its arithmetic is no result type),
# and which orders K takes
@pytest.mark.parametrize("name, owners", [
    ("REAL_ORDER_IM", {"transform.py:_real_order"}),
    ("iscomplexobj", {"transform.py:_typed", "quadrature.py:_member_sum"}),
    ("MAX_REAL_ORDER", {"transform.py:_normalize_order"}),
])
def test_each_rule_has_one_owner(name, owners):
    assert _readers(name) == owners
