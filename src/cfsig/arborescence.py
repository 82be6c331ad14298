"""Spanning arborescence extraction over validated CFGs.

With every edge weighing 1 a spanning arborescence is automatically minimum,
so extraction reduces to deterministic rooted BFS with lexicographic parent
selection. The exhaustive enumeration and the packing search are test
oracles for small graphs, not a production path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .cfg import BlockId, ControlFlowGraph, Edge, reachable_from, successor_index
from .errors import TooLargeError

ENUMERATION_BUDGET = 10**6


@dataclass(frozen=True)
class Arborescence:
    """Spanning tree directed away from *root*; edges drawn from one CFG."""

    root: BlockId
    nodes: frozenset[BlockId]
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", frozenset(self.nodes))
        object.__setattr__(self, "edges", frozenset(self.edges))

    def canonical(self) -> str:
        """Canonical string: sorted node list, sorted edge list, then root."""
        nodes = ",".join(sorted(self.nodes))
        edges = ",".join(f"{s}>{d}" for s, d in sorted(self.edges))
        return f"nodes:{nodes};edges:{edges};root:{self.root}"

    def check(self) -> None:
        """Assert the structural invariants; used by tests and oracles."""
        assert self.root in self.nodes
        assert len(self.edges) == len(self.nodes) - 1
        indeg: dict[BlockId, int] = {n: 0 for n in self.nodes}
        for _, dst in self.edges:
            indeg[dst] += 1
        assert indeg[self.root] == 0
        assert all(indeg[n] == 1 for n in self.nodes if n != self.root)
        assert reachable_from(self.root, self.edges) == self.nodes


def arborescence_to_dot(a: Arborescence, name: str = "g") -> str:
    """Debug export in the same DOT subset the parser accepts."""
    from .cfg import ControlFlowGraph, serialize_dot

    return serialize_dot(ControlFlowGraph(a.nodes, a.edges, a.root), name)


def find_arborescence(
    g: ControlFlowGraph, available: frozenset[Edge] | None = None
) -> Arborescence | None:
    """Deterministic BFS spanning arborescence from entry, or None.

    Nodes are reached layer by layer. Each layer scans the out-edges in
    *available* of its own nodes once, and each newly reached node keeps the
    lexicographically smallest (src, dst) parent edge among them, so the
    whole search is O(V+E). Returns None when some node is unreachable using
    only the available edges.
    """
    succ = successor_index(g.edges if available is None else available)
    reached = {g.entry}
    layer = [g.entry]
    chosen: list[Edge] = []
    while layer:
        parent: dict[BlockId, BlockId] = {}
        for src in layer:
            for dst in succ.get(src, ()):
                if dst not in reached and (dst not in parent or src < parent[dst]):
                    parent[dst] = src
        chosen.extend((src, dst) for dst, src in parent.items())
        reached.update(parent)
        layer = list(parent)
    if reached != g.nodes:
        return None
    return Arborescence(g.entry, g.nodes, frozenset(chosen))


def peel_edge_disjoint(g: ControlFlowGraph) -> tuple[Arborescence, ...]:
    """Greedily peel edge-disjoint spanning arborescences off the graph.

    Repeatedly extracts the deterministic BFS arborescence from the edges
    still unused and removes its edges, until the remainder no longer spans.
    Greedy peeling may fall short of the theoretical maximum packing; both
    ends of a comparison run the same procedure, so signatures still agree.
    """
    remaining = set(g.edges)
    found: list[Arborescence] = []
    while True:
        arb = find_arborescence(g, frozenset(remaining))
        if arb is None:
            break
        found.append(arb)
        remaining -= arb.edges
        if not arb.edges:  # single-node graph: one empty arborescence
            break
    return tuple(sorted(found, key=Arborescence.canonical))


def enumerate_all_arborescences(g: ControlFlowGraph) -> list[Arborescence]:
    """Exhaustively enumerate every spanning arborescence (test oracle).

    Chooses one incoming edge per non-root node and keeps combinations that
    are connected from the root. Refuses when the choice product exceeds
    ENUMERATION_BUDGET.
    """
    others = sorted(g.nodes - {g.entry})
    incoming = {
        n: sorted(e for e in g.edges if e[1] == n and e[0] != n) for n in others
    }
    budget = 1
    for n in others:
        budget *= len(incoming[n])
        if budget > ENUMERATION_BUDGET:
            raise TooLargeError(
                f"in-degree product exceeds {ENUMERATION_BUDGET}; oracle refused"
            )
    if budget == 0:
        return []

    result: list[Arborescence] = []
    for combo in itertools.product(*(incoming[n] for n in others)):
        edges = frozenset(combo)
        if reachable_from(g.entry, edges) == g.nodes:
            result.append(Arborescence(g.entry, g.nodes, edges))
    result.sort(key=Arborescence.canonical)
    return result


def max_edge_disjoint_packing(g: ControlFlowGraph) -> int:
    """Maximum pairwise edge-disjoint subset of the enumeration (test oracle)."""
    arbs = enumerate_all_arborescences(g)
    if not arbs:
        return 0
    per_arb = max(len(g.nodes) - 1, 1)
    # each arborescence consumes one incoming edge of every non-root node,
    # so the minimum in-degree caps the packing alongside the edge budget
    indeg = {n: 0 for n in g.nodes}
    for src, dst in g.edges:
        if src != dst:
            indeg[dst] += 1
    min_indeg = min((indeg[n] for n in g.nodes if n != g.entry), default=1)
    cap = max(min(len(g.edges) // per_arb, min_indeg), 1)
    edge_sets = [a.edges for a in arbs]
    best = 0

    def search(idx: int, used: frozenset[Edge], count: int) -> None:
        nonlocal best
        best = max(best, count)
        if best >= cap:
            return
        for i in range(idx, len(edge_sets)):
            # bound: even taking every remaining candidate cannot beat best
            if count + (len(edge_sets) - i) <= best:
                return
            if not (edge_sets[i] & used):
                search(i + 1, used | edge_sets[i], count + 1)

    search(0, frozenset(), 0)
    return best
