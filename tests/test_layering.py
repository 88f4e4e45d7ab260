"""No module of the package reads another module's private names.

A ``_``-prefixed attribute or function belongs to the module that defines
it: other modules go through the public surface, so a private name can
change without breaking a sibling.
"""

import ast
from pathlib import Path

import pexsurv

PACKAGE = Path(pexsurv.__file__).parent


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_definitions(tree):
    """Private names a module binds: defs, assignment targets, attributes it sets."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return {n for n in names if _is_private(n)}


def _layering_violations(sources):
    """``module:line`` messages for every reach into a sibling's private names.

    ``sources`` maps a module name to its source text.  A read of a private
    attribute that only other modules define, or a ``from`` import of a
    private name out of the package, is a violation.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    defined = {name: _private_definitions(tree) for name, tree in trees.items()}
    out = []
    for name, tree in trees.items():
        foreign = set().union(*(d for other, d in defined.items() if other != name))
        foreign -= defined[name]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in foreign:
                if isinstance(node.ctx, ast.Load):
                    out.append(f"{name}:{node.lineno} reads {node.attr}")
            elif isinstance(node, ast.ImportFrom):
                if node.level or (node.module or "").split(".")[0] == "pexsurv":
                    out += [
                        f"{name}:{node.lineno} imports {a.name}"
                        for a in node.names
                        if _is_private(a.name)
                    ]
    return out


def test_no_module_reads_a_siblings_private_names():
    sources = {
        str(p.relative_to(PACKAGE)): p.read_text() for p in sorted(PACKAGE.rglob("*.py"))
    }
    assert len(sources) >= 7
    assert _layering_violations(sources) == []


def test_layering_check_flags_reach_ins():
    sources = {
        "a.py": "def _helper():\n    pass\nclass A:\n    def __init__(self):\n        self._x = 1\n",
        "b.py": "from .a import _helper\n\ndef f(obj):\n    return obj._x\n",
        "c.py": "class C:\n    def __init__(self):\n        self._x = 2\n        self._x\n",
    }
    assert _layering_violations(sources) == ["b.py:1 imports _helper", "b.py:4 reads _x"]
