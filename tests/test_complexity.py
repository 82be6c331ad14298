"""Complexity gates that count calls instead of timing them.

Each gate counts the ``call`` and ``c_call`` events that ``sys.setprofile``
sees while a piece of work runs. The count does not depend on the host's
speed or load, so a gate on how it scales holds on any runner. The scaling
gates compare ratios, not absolute counts: a change that moves work between
Python and C shifts the counts without changing the time. One gate bounds a
count on purpose: a valid GraphML document is read without a Python call per
edge.

The proxy sees calls, not the work inside one C call: a ``sorted(parents)``
put in the BFS loop would make the sign quadratic with one call per block.
So the graph layers are also counted on block ids whose hashes and
comparisons are Python calls, which makes each sort and lookup show. A quadratic loop over
text that runs wholly in C (a regex search) still does not show here; the
wall-clock guards in ``test_scale.py`` cover those.
"""

from __future__ import annotations

import itertools
import math
import random
import re
import sys

import pytest

from cfsig import (
    ClusterConfig,
    ControlFlowGraph,
    HashAlgorithm,
    Scenario,
    build_signature,
    parse_dot,
    parse_graphml,
    peel_edge_disjoint,
    run_cluster_scenario,
    serialize_dot,
    validate_cfg,
)
from cfsig.errors import DuplicateEdgeError, GraphSyntaxError

from .conftest import FIXTURES, deep_graph, serialize_graphml, wide_graph


def count_calls(work, *args) -> int:
    """The number of Python and built-in calls made while ``work(*args)`` runs."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(profile)
    try:
        work(*args)
    finally:
        sys.setprofile(None)
    return calls


def sign_graph(graph: ControlFlowGraph) -> None:
    assert validate_cfg(graph).ok
    build_signature(peel_edge_disjoint(graph), HashAlgorithm.MD5, "complexity")


def sign(parse, text: str) -> None:
    sign_graph(parse(text))


@pytest.mark.parametrize("serialize,parse", [(serialize_dot, parse_dot), (serialize_graphml, parse_graphml)],
                         ids=["dot", "graphml"])
@pytest.mark.parametrize("build", [wide_graph, deep_graph], ids=["wide", "deep"])
def test_sign_calls_grow_linearly(build, serialize, parse):
    per_unit = {}
    for v in (400, 5000):
        graph = build(v, random.Random(v))
        per_unit[v] = count_calls(sign, parse, serialize(graph)) / (len(graph.nodes) + len(graph.edges))
    assert per_unit[5000] <= 1.1 * per_unit[400], per_unit


class CountedId(str):
    """A block id whose hashes and comparisons are Python calls, so that the profiler counts them."""

    __slots__ = ()

    def __hash__(self) -> int:
        return str.__hash__(self)

    def __eq__(self, other) -> bool:
        return str.__eq__(self, other)

    def __lt__(self, other) -> bool:
        return str.__lt__(self, other)


def counted_ids(g: ControlFlowGraph) -> ControlFlowGraph:
    ids = {block: CountedId(block) for block in g.nodes}
    return ControlFlowGraph(frozenset(ids.values()), frozenset((ids[s], ids[d]) for s, d in g.edges), ids[g.entry])


@pytest.mark.parametrize("build", [wide_graph, deep_graph], ids=["wide", "deep"])
def test_sign_id_operations_grow_as_sorting(build):
    # Sorting the blocks and edges takes O(U log U) comparisons of ids, U = V + E.
    per_unit = {}
    for v in (400, 1600):
        graph = counted_ids(build(v, random.Random(v)))
        units = len(graph.nodes) + len(graph.edges)
        per_unit[v] = count_calls(sign_graph, graph) / (units * math.log2(units))
    assert per_unit[1600] <= 1.1 * per_unit[400], per_unit


def test_round_calls_grow_with_the_pairs_of_nodes():
    scenario = Scenario("wordcount", parse_dot((FIXTURES / "bench" / "wordcount.dot").read_text()))
    per_pair = {n: count_calls(run_cluster_scenario, ClusterConfig(n=n), scenario) / (n * (n - 1)) for n in (9, 33)}
    assert per_pair[33] <= per_pair[9], per_pair


def rejects(text: str, message: str) -> None:
    with pytest.raises(GraphSyntaxError, match=message):
        parse_dot(text)


def chain(k: int) -> str:
    """The start of a DOT digraph with *k* distinct edges, 4 tokens each."""
    return "digraph g {\n" + "".join(f"B{i} -> B{i + 1};\n" for i in range(k))


@pytest.mark.parametrize(
    "tail,message",
    [(lambda k: "/* " * k, "unterminated block comment"), (lambda k: "B1:x;\n}\n", "unexpected character ':'")],
    ids=["unclosed-comment", "bad-char-at-end"],
)
def test_dot_errors_parse_in_linear_calls(tail, message):
    # The longer text holds 10,000 tokens before its error.
    per_char = {}
    for k in (250, 2500):
        text = chain(k) + tail(k)
        per_char[k] = count_calls(rejects, text, message) / len(text)
    assert per_char[2500] <= 1.1 * per_char[250], per_char


def exported_graphml(graph: ControlFlowGraph) -> str:
    """serialize_graphml's text with an id and ``directed="true"`` on every edge, as exporters write it."""
    n = itertools.count()
    return re.sub("<edge ", lambda _: f'<edge id="e{next(n)}" directed="true" ', serialize_graphml(graph))


def test_valid_graphml_parses_in_fewer_calls_than_edges():
    # A valid document is read in C-level passes; only the entry marker is visited in Python.
    graph = wide_graph(2000, random.Random(2000))
    assert count_calls(parse_graphml, exported_graphml(graph)) < len(graph.edges)


def test_graphml_duplicate_edge_still_named():
    graph = wide_graph(2000, random.Random(2000))
    text = exported_graphml(graph)
    start = text.rindex("<edge ")
    end = text.index("\n", start) + 1
    src, dst = max(graph.edges)  # serialize_graphml writes the edges sorted
    with pytest.raises(DuplicateEdgeError, match=f"^duplicate edge {src} -> {dst}$"):
        parse_graphml(text[:end] + text[start:end] + text[end:])
