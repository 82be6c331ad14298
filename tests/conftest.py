from __future__ import annotations

import itertools
import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from cfsig import ControlFlowGraph, canonical, parse_dot

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"

# Parses, but block B3 cannot be reached from the entry.
UNREACHABLE_DOT = "digraph g {\n  B1 [entry=true];\n  B2;\n  B3;\n  B1 -> B2;\n}\n"

# Every character class the DOT tokenizer distinguishes, plus rarer whitespace
# that is not a line break: no-break space, line separator, vertical tab, form
# feed, file separator, next line and ideographic space.
DOT_ALPHABET = 'digraph B1x_{}[];=,-></*:"\n\t\r \u00a0\u2028\x0b\x0c\x1c\x85\u3000\u00e9'

# DOT text that reaches past the tokenizer: words of the grammar in any order,
# often after a graph header, and digraphs of whole statements, valid or not,
# some with a non-ASCII id.
DOT_WORDS = [
    "digraph", "g", "{", "}", "B1", "B2", "B\u00e9", "->", "[", "]", "entry", "=",
    "true", "red", ";", ",", "\n", "/* c\n */", "// c\n", "/*", "-", ":",
]
DOT_STATEMENTS = [
    "B1;", "B2 [entry=true];", "B3 [color=red];", "B1 -> B2;", "B2 -> B3;",
    "B3 -> B1;", "B2 -> B2;", "B1 -> B\u00e9;", "B\u00e9 -> B3;", "B1 -> ;", "B1 -> B2",
    "/* B4; */", "// B4;", "/* B1 -> B2; */", "// B1 -> B2;",
]
dot_texts = (
    st.text(alphabet=DOT_ALPHABET, max_size=60)
    | st.builds(
        lambda header, words: " ".join([header, *words]),
        st.sampled_from(["", "digraph", "digraph g {"]),
        st.lists(st.sampled_from(DOT_WORDS), max_size=30),
    )
    | st.lists(st.sampled_from(DOT_STATEMENTS), max_size=8).map(
        lambda body: "digraph g {\n" + "\n".join(body) + "\n}"
    )
)


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


def successor_index(edges) -> dict[str, list[str]]:
    """Naive reference: map each source block to its destinations, in the order of *edges*."""
    succ: dict[str, list[str]] = {}
    for src, dst in edges:
        succ.setdefault(src, []).append(dst)
    return succ


def reachable_from(root: str, edges) -> set[str]:
    """Naive reference: every block reachable from *root* over *edges*, by DFS."""
    succ = successor_index(edges)
    seen = {root}
    stack = [root]
    while stack:
        for dst in succ.get(stack.pop(), ()):
            if dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return seen


def serialize_graphml(g: ControlFlowGraph) -> str:
    """Deterministic GraphML serialization matching the supported subset."""
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        "<graphml>",
        '  <graph edgedefault="directed">',
    ]
    for node in sorted(g.nodes):
        if node == g.entry:
            lines.append(f'    <node id="{node}"><data key="entry">true</data></node>')
        else:
            lines.append(f'    <node id="{node}"/>')
    for src, dst in sorted(g.edges):
        lines.append(f'    <edge source="{src}" target="{dst}"/>')
    lines.append("  </graph>")
    lines.append("</graphml>")
    return "\n".join(lines) + "\n"


def wide_graph(v: int, rng: random.Random) -> ControlFlowGraph:
    """Entry fans out to 8 heads, every later block hangs off an earlier
    non-entry block, and random extra edges bring E to 3V: few BFS layers."""
    names = [f"B{i:04d}" for i in range(1, v + 1)]
    edges = {(names[0], head) for head in names[1:9]}
    for i in range(9, v):
        edges.add((names[rng.randrange(1, i)], names[i]))
    while len(edges) < 3 * v:
        src, dst = rng.sample(names[1:], 2)
        edges.add((src, dst))
    return ControlFlowGraph(frozenset(names), frozenset(edges), names[0])


def deep_graph(v: int, rng: random.Random) -> ControlFlowGraph:
    """A chain with a back-edge from each block into the 20 before it and a
    skip edge over the next block half the time: about V/2 BFS layers."""
    names = [f"B{i:04d}" for i in range(1, v + 1)]
    edges = set()
    for i in range(1, v):
        edges.add((names[i - 1], names[i]))
        if i >= 2:
            edges.add((names[i], names[rng.randrange(max(1, i - 20), i)]))
        if i + 1 < v and rng.random() < 0.5:
            edges.add((names[i - 1], names[i + 1]))
    return ControlFlowGraph(frozenset(names), frozenset(edges), names[0])


def generate_synthetic(node_count: int, edge_density: float, seed: int) -> ControlFlowGraph:
    """Deterministically generate a valid CFG from (node_count, density, seed).

    A random spanning arborescence is laid first so every node is reachable,
    then extra non-loop edges are sampled at the requested density.
    """
    if node_count < 1:
        raise ValueError(f"node_count must be >= 1, got {node_count}")
    if not 0.0 <= edge_density <= 1.0:
        raise ValueError(f"edge_density must be in [0, 1], got {edge_density}")
    if not -(2**63) <= seed < 2**64:
        raise ValueError("seed must fit in 64 bits")

    width = len(str(node_count))
    names = [f"B{i:0{width}d}" for i in range(1, node_count + 1)]
    entry = names[0]
    rng = random.Random(seed)

    placed = [entry]
    edges = set()
    rest = names[1:]
    rng.shuffle(rest)
    for node in rest:
        edges.add((rng.choice(placed), node))
        placed.append(node)

    candidates = sorted(
        (u, v) for u in names for v in names if u != v and (u, v) not in edges
    )
    extra = round(edge_density * len(candidates))
    if extra:
        edges.update(rng.sample(candidates, extra))

    return ControlFlowGraph(frozenset(names), frozenset(edges), entry)


ENUMERATION_BUDGET = 10**6


def enumerate_all_arborescences(g: ControlFlowGraph) -> list[ControlFlowGraph]:
    """Exhaustively enumerate every spanning arborescence (test oracle).

    Chooses one incoming edge per non-root node and keeps combinations that
    are connected from the root, in canonical-string order. Refuses when the
    choice product exceeds ENUMERATION_BUDGET.
    """
    others = sorted(g.nodes - {g.entry})
    incoming = {
        n: sorted(e for e in g.edges if e[1] == n and e[0] != n) for n in others
    }
    budget = 1
    for n in others:
        budget *= len(incoming[n])
        if budget > ENUMERATION_BUDGET:
            raise ValueError(
                f"in-degree product exceeds {ENUMERATION_BUDGET}; oracle refused"
            )
    if budget == 0:
        return []

    result: list[ControlFlowGraph] = []
    for combo in itertools.product(*(incoming[n] for n in others)):
        edges = frozenset(combo)
        if reachable_from(g.entry, edges) == g.nodes:
            result.append(ControlFlowGraph(g.nodes, edges, g.entry))
    result.sort(key=canonical)
    return result
