"""The core runs on the standard library alone: every absolute import in
``src/docpost`` names a standard-library module, apart from the optional
Pillow import that ``cli`` makes when a page image is not a PPM."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "docpost"


def absolute_imports(path: Path):
    """(enclosing function or None, top-level module) per absolute import."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    scope = {}
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # ast.walk is breadth-first, so a nested function comes later and wins
            for node in ast.walk(func):
                scope[node] = func.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        for module in modules:
            yield scope.get(node), module.partition(".")[0]


def test_core_imports_only_the_standard_library():
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) > 1
    foreign = [
        (path.name, func, module)
        for path in sources
        for func, module in absolute_imports(path)
        if module not in sys.stdlib_module_names
    ]
    assert foreign == [("cli.py", "_load_image", "PIL")]


def test_core_reads_html_without_html_parser():
    """The table reader tokenizes markup itself: html.parser is quadratic on
    some malformed markup, and CPython patch releases read unterminated
    markup differently."""
    imported = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module)
                imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    assert "html" in imported  # layout's "import html", so the walk sees imports
    assert "html.parser" not in imported
