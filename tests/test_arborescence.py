from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfsig.arborescence import arborescence_to_dot
from cfsig import (
    Arborescence,
    ControlFlowGraph,
    enumerate_all_arborescences,
    find_arborescence,
    generate_synthetic,
    max_edge_disjoint_packing,
    parse_dot,
    peel_edge_disjoint,
)
from cfsig.errors import TooLargeError

from .conftest import fixture_graphs


def reference_find_arborescence(g, available=None):
    """The layer-rescanning BFS, kept as the reference: at each layer every
    unreached destination takes its smallest parent edge from that layer."""
    if available is None:
        available = g.edges
    by_dst = {}
    for edge in available:
        by_dst.setdefault(edge[1], []).append(edge)

    reached = {g.entry}
    layer = [g.entry]
    chosen = set()
    while layer:
        layer_set = set(layer)
        newly = []
        for dst in sorted(set(by_dst) - reached):
            candidates = [e for e in by_dst[dst] if e[0] in layer_set]
            if candidates:
                chosen.add(min(candidates))
                newly.append(dst)
        reached.update(newly)
        layer = newly
    if reached != set(g.nodes):
        return None
    return Arborescence(g.entry, g.nodes, frozenset(chosen))


@st.composite
def graphs_with_available(draw):
    """A random graph (self-loops and cycles allowed, any entry) and either
    None or a random subset of its edges."""
    n = draw(st.integers(min_value=1, max_value=9))
    names = [f"B{i}" for i in range(n)]
    pairs = [(a, b) for a in names for b in names]
    edges = frozenset(draw(st.sets(st.sampled_from(pairs), max_size=30)))
    g = ControlFlowGraph(frozenset(names), edges, draw(st.sampled_from(names)))
    available = None
    if edges and draw(st.booleans()):
        available = frozenset(draw(st.sets(st.sampled_from(sorted(edges)))))
    return g, available


def spanning_tree_count_by_growth(graph) -> int:
    """Independent oracle: count spanning arborescences by growing edge sets
    outward from the root, deduplicating complete trees."""
    found: set[frozenset] = set()

    def grow(reached: frozenset, edges: frozenset):
        if reached == graph.nodes:
            found.add(edges)
            return
        for src, dst in graph.edges:
            if src in reached and dst not in reached:
                grow(reached | {dst}, edges | {(src, dst)})

    grow(frozenset({graph.entry}), frozenset())
    return len(found)


class TestFindArborescence:
    def test_diamond_lexicographic_parent(self, diamond):
        arb = find_arborescence(diamond)
        assert arb.edges == {("B1", "B2"), ("B1", "B3"), ("B2", "B4")}

    def test_single_node(self):
        g = parse_dot("digraph g { B1; }")
        arb = find_arborescence(g)
        assert arb.edges == frozenset() and arb.root == "B1"

    def test_debug_dot_export_round_trips(self, diamond):
        arb = find_arborescence(diamond)
        reparsed = parse_dot(arborescence_to_dot(arb))
        assert reparsed.nodes == arb.nodes and reparsed.edges == arb.edges
        assert reparsed.entry == arb.root

    def test_not_spanning(self, diamond):
        assert find_arborescence(diamond, frozenset({("B1", "B2"), ("B2", "B4")})) is None

    @given(
        st.integers(min_value=1, max_value=10),
        st.floats(min_value=0.0, max_value=0.6),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariants_on_synthetic(self, n, density, seed):
        g = generate_synthetic(n, density, seed)
        arb = find_arborescence(g)
        assert arb is not None
        arb.check()
        assert arb.edges <= g.edges

    @given(graphs_with_available())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_on_random_graphs(self, case):
        g, available = case
        assert find_arborescence(g, available) == reference_find_arborescence(g, available)

    @given(
        st.integers(min_value=2, max_value=12),
        st.floats(min_value=0.0, max_value=0.8),
        st.integers(min_value=0, max_value=2**32),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_on_synthetic_subsets(self, n, density, seed, rnd):
        g = generate_synthetic(n, density, seed)
        for available in (None, frozenset(e for e in g.edges if rnd.random() < 0.7)):
            assert find_arborescence(g, available) == reference_find_arborescence(g, available)

    def test_matches_reference_on_fixtures(self):
        for name, g in fixture_graphs():
            assert find_arborescence(g) == reference_find_arborescence(g), name


class TestPeel:
    def test_diamond_yields_one(self, diamond):
        peeled = peel_edge_disjoint(diamond)
        assert len(peeled) == 1
        assert peeled[0].edges == {("B1", "B2"), ("B1", "B3"), ("B2", "B4")}

    def test_fanout_within_packing_bound(self, fixtures_dir):
        g = parse_dot((fixtures_dir / "fanout.dot").read_text())
        assert len(peel_edge_disjoint(g)) <= max_edge_disjoint_packing(g)

    def test_single_node_convention(self):
        g = parse_dot("digraph g { B1; }")
        peeled = peel_edge_disjoint(g)
        assert len(peeled) == 1 and peeled[0].edges == frozenset()

    def test_pairwise_disjoint_and_deterministic(self):
        g = generate_synthetic(8, 0.5, seed=11)
        a = peel_edge_disjoint(g)
        b = peel_edge_disjoint(g)
        assert tuple(x.canonical() for x in a) == tuple(x.canonical() for x in b)
        items = list(a)
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                assert not (items[i].edges & items[j].edges)

    def test_canonical_order(self):
        g = generate_synthetic(7, 0.8, seed=3)
        strings = tuple(a.canonical() for a in peel_edge_disjoint(g))
        assert list(strings) == sorted(strings)


class TestEnumerate:
    def test_diamond_has_two(self, diamond):
        arbs = enumerate_all_arborescences(diamond)
        assert [sorted(a.edges) for a in arbs] == [
            [("B1", "B2"), ("B1", "B3"), ("B2", "B4")],
            [("B1", "B2"), ("B1", "B3"), ("B3", "B4")],
        ]

    def test_single_node(self):
        g = parse_dot("digraph g { B1; }")
        assert len(enumerate_all_arborescences(g)) == 1

    def test_complete_3_matches_independent_count(self, fixtures_dir):
        g = parse_dot((fixtures_dir / "triangle.dot").read_text())
        arbs = enumerate_all_arborescences(g)
        assert len(arbs) == 3  # frozen from the growth oracle below
        assert len(arbs) == spanning_tree_count_by_growth(g)

    def test_growth_oracle_agrees_on_fixtures(self):
        for name, g in fixture_graphs():
            assert len(enumerate_all_arborescences(g)) == spanning_tree_count_by_growth(g), name

    def test_unit_weight_minimality(self):
        for name, g in fixture_graphs():
            for arb in enumerate_all_arborescences(g):
                assert len(arb.edges) == len(g.nodes) - 1, name

    def test_too_large_guard(self):
        g = generate_synthetic(14, 1.0, seed=1)  # complete digraph: 13^13 choices
        with pytest.raises(TooLargeError):
            enumerate_all_arborescences(g)


class TestPacking:
    @pytest.mark.parametrize(
        "name,expected", [("diamond", 1), ("single", 1), ("star", 1), ("triangle", 2)]
    )
    def test_fixture_counts(self, fixtures_dir, name, expected):
        g = parse_dot((fixtures_dir / f"{name}.dot").read_text())
        assert max_edge_disjoint_packing(g) == expected

    def test_peel_in_enumeration_and_bounded(self):
        for name, g in fixture_graphs():
            enumerated = {a.canonical() for a in enumerate_all_arborescences(g)}
            peeled = peel_edge_disjoint(g)
            for arb in peeled:
                assert arb.canonical() in enumerated, name
            assert len(peeled) <= max_edge_disjoint_packing(g), name
