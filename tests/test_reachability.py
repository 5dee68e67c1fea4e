"""Every public function and class of the package has a caller.

A public top-level name of src/gsqg counts as reached when it is referenced
outside its own definition: elsewhere in the package, in the acceptance
battery (tests/test_acceptance.py), or in README's list of functions without
a CLI caller.  Module tests alone do not count.
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


def _references(tree):
    """Names referenced in a module, each with the top-level definition it
    sits in (None at module level)."""
    refs = []
    for top in tree.body:
        owner = top.name if isinstance(
            top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                refs.append((node.id, owner))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, owner))
            elif isinstance(node, ast.ImportFrom):
                refs.extend((alias.name, owner) for alias in node.names)
    return refs


def _readme_names():
    text = (ROOT / "README.md").read_text()
    start = text.index(README_SECTION) + len(README_SECTION)
    end = text.find("\n#", start)
    return set(re.findall(r"`(\w+)`", text[start:end if end >= 0 else None]))


def test_every_public_name_has_a_caller():
    modules = {path: ast.parse(path.read_text())
               for path in sorted(PACKAGE.glob("*.py"))}
    used = set()
    for path, tree in modules.items():
        used.update((path, name, owner) for name, owner in _references(tree))
    acceptance = {name for name, _ in _references(
        ast.parse(ACCEPTANCE.read_text()))}
    readme = _readme_names()
    unreached = []
    for path, tree in modules.items():
        for node in _public_defs(tree):
            name = node.name
            in_package = any(
                ref == name and not (where == path and owner == name)
                for where, ref, owner in used)
            if not (in_package or name in acceptance or name in readme):
                unreached.append(f"{path.name}:{node.lineno} {name}")
    assert not unreached, unreached


def test_readme_list_names_only_package_functions():
    public = {node.name for path in PACKAGE.glob("*.py")
              for node in _public_defs(ast.parse(path.read_text()))}
    assert _readme_names() <= public
