"""Every public function, class and method of the package has a caller.

A public top-level name of src/gsqg, or a public method or property of a
public class, counts as reached when it is referenced outside its own
definition: elsewhere in the package, in the acceptance battery
(tests/test_acceptance.py), or in README's list of functions without a CLI
caller.  Module tests alone do not count.  Names are matched as written, so
a method that shares its name with some other name of the package (a
variable, a function) counts as reached through it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gsqg"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
README_SECTION = "### Functions without a CLI caller"


def _public_defs(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _public_methods(tree):
    """(class, method) of every public method or property of a public
    class."""
    return [(cls.name, node) for cls in _public_defs(tree)
            if isinstance(cls, ast.ClassDef) for node in cls.body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")]


class _References(ast.NodeVisitor):
    """(name, owner) of each name a module references.  The owner is the
    top-level definition the reference sits in, "Class.method" inside a
    method, and None at module level."""

    def __init__(self, tree):
        self.refs, self._stack = [], []
        self.visit(tree)

    def _owner(self):
        if not self._stack:
            return None
        top = self._stack[0]
        if (isinstance(top, ast.ClassDef) and len(self._stack) > 1
                and isinstance(self._stack[1], ast.FunctionDef)):
            return f"{top.name}.{self._stack[1].name}"
        return top.name

    def visit_FunctionDef(self, node):
        self._stack.append(node)
        self.generic_visit(node)
        self._stack.pop()

    visit_ClassDef = visit_FunctionDef

    def visit_Name(self, node):
        self.refs.append((node.id, self._owner()))

    def visit_Attribute(self, node):
        self.refs.append((node.attr, self._owner()))
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        self.refs.extend((alias.name, self._owner()) for alias in node.names)


def _package():
    """Parsed modules of the package and every reference in it as
    (module path, name, owner)."""
    modules = {path: ast.parse(path.read_text())
               for path in sorted(PACKAGE.glob("*.py"))}
    used = [(path, name, owner) for path, tree in modules.items()
            for name, owner in _References(tree).refs]
    return modules, used


def _referenced(used, name, path, own):
    """Whether the package references name outside the definition `own`
    of module `path` (own is an owner, or a top-level name that covers its
    methods too)."""
    return any(ref == name and not (
        where == path and owner is not None
        and (owner == own or owner.startswith(own + ".")))
        for where, ref, owner in used)


def _readme_names():
    text = (ROOT / "README.md").read_text()
    start = text.index(README_SECTION) + len(README_SECTION)
    end = text.find("\n#", start)
    return set(re.findall(r"`(\w+)`", text[start:end if end >= 0 else None]))


def _outside_callers():
    acceptance = {name for name, _ in _References(
        ast.parse(ACCEPTANCE.read_text())).refs}
    return acceptance | _readme_names()


def test_every_public_name_has_a_caller():
    modules, used = _package()
    outside = _outside_callers()
    unreached = [f"{path.name}:{node.lineno} {node.name}"
                 for path, tree in modules.items()
                 for node in _public_defs(tree)
                 if node.name not in outside
                 and not _referenced(used, node.name, path, node.name)]
    assert not unreached, unreached


def test_every_public_method_has_a_caller():
    modules, used = _package()
    outside = _outside_callers()
    unreached = [f"{path.name}:{node.lineno} {cls}.{node.name}"
                 for path, tree in modules.items()
                 for cls, node in _public_methods(tree)
                 if node.name not in outside
                 and not _referenced(used, node.name, path,
                                     f"{cls}.{node.name}")]
    assert not unreached, unreached


def test_readme_list_names_only_package_functions():
    public = {node.name for path in PACKAGE.glob("*.py")
              for node in _public_defs(ast.parse(path.read_text()))}
    assert _readme_names() <= public


def test_readme_list_names_no_package_caller():
    # a listed function that the package calls belongs off the list
    modules, used = _package()
    called = [f"{path.name} {node.name}" for path, tree in modules.items()
              for node in _public_defs(tree)
              if node.name in _readme_names()
              and _referenced(used, node.name, path, node.name)]
    assert not called, called
