"""No module under ``src/repro`` imports a name it never uses.

A stdlib-``ast`` stand-in for a linter's unused-import rule.  A name
counts as used when the module reads it anywhere (string annotations
included) or lists it in ``__all__``; an import marked
``# noqa: F401`` is a deliberate re-export and is exempt.
"""

import ast
import pathlib

import pytest

import repro

SOURCES = sorted(pathlib.Path(repro.__file__).parent.rglob("*.py"))


def _annotation_names(node):
    """Names read by an annotation, looking inside string annotations."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            yield from _annotation_names(parsed)


def unused_imports(source):
    """``(line, name)`` of every unused, unexempted import in ``source``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            span = lines[node.lineno - 1:node.end_lineno]
            if any("noqa: F401" in line for line in span):
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                used.update(_annotation_names(node.returns))
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(
                element.value
                for element in ast.walk(node.value)
                if isinstance(element, ast.Constant)
            )
    return sorted(
        (line, name) for name, line in imported.items() if name not in used
    )


@pytest.mark.parametrize(
    "path",
    SOURCES,
    ids=[str(path.relative_to(SOURCES[0].parents[1])) for path in SOURCES],
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unused_import():
    source = (
        "from typing import Dict, Optional\n"
        "import os.path\n"
        "from .x import kept  # noqa: F401\n"
        "from .y import listed\n"
        "__all__ = ['listed']\n"
        "def f(a: 'Dict[str, int]'): return os.path.join('a')\n"
    )
    assert unused_imports(source) == [(1, "Optional")]
