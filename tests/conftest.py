from __future__ import annotations

from pathlib import Path

import pytest

from cfsig import parse_dot

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"

# Parses, but block B3 cannot be reached from the entry.
UNREACHABLE_DOT = "digraph g {\n  B1 [entry=true];\n  B2;\n  B3;\n  B1 -> B2;\n}\n"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def diamond():
    return parse_dot((FIXTURES / "diamond.dot").read_text())


def fixture_graphs():
    """All top-level fixture graphs, as (name, graph) pairs."""
    return [
        (p.stem, parse_dot(p.read_text())) for p in sorted(FIXTURES.glob("*.dot"))
    ]
