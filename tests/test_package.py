from __future__ import annotations

import ast
import sys
from pathlib import Path

import cfsig

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cfsig"


def test_every_exported_name_resolves():
    for name in cfsig.__all__:
        getattr(cfsig, name)
    namespace: dict = {}
    exec("from cfsig import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(cfsig.__all__)


def test_test_only_helpers_are_not_exported():
    for name in ("serialize_graphml", "match_cost"):
        assert name not in cfsig.__all__ and not hasattr(cfsig, name)


def test_runtime_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            for module in modules:
                assert module.partition(".")[0] in sys.stdlib_module_names, (path.name, module)
