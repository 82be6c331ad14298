"""Scale guard: signing a V=5000 CFG stays linear-time.

The sign path (parse, validate, peel, hash) is O(V+E). A quadratic step at
V=5000 costs tens of seconds, so a generous wall-clock budget catches it
without depending on the host's exact speed.
"""

from __future__ import annotations

import random
import time

import pytest

from cfsig import (
    HashAlgorithm,
    build_signature,
    parse_dot,
    parse_graphml,
    peel_edge_disjoint,
    serialize_dot,
    validate_cfg,
)
from cfsig.errors import GraphSyntaxError

from .conftest import deep_graph, serialize_graphml, wide_graph

V = 5000
BUDGET_S = 5.0


@pytest.mark.parametrize(
    "build,serialize,parse",
    [(wide_graph, serialize_graphml, parse_graphml), (deep_graph, serialize_dot, parse_dot)],
    ids=["wide-graphml", "deep-dot"],
)
def test_v5000_signs_within_budget(build, serialize, parse):
    graph = build(V, random.Random(5))
    text = serialize(graph)

    start = time.perf_counter()
    parsed = parse(text)
    report = validate_cfg(parsed)
    arbs = peel_edge_disjoint(parsed)
    sig = build_signature(arbs, HashAlgorithm.MD5, "scale")
    elapsed = time.perf_counter() - start

    assert parsed == graph and report.ok
    assert len(sig.digests) == len(arbs) >= 1
    assert elapsed < BUDGET_S, f"signing V={V} took {elapsed:.2f} s"


def test_many_unclosed_comments_fail_within_budget():
    # Each "/*" searched for its "*/" on to the end costs time quadratic in
    # the text: seconds at this size, where one failed search takes a millisecond.
    text = "/* " * 20000
    start = time.perf_counter()
    with pytest.raises(GraphSyntaxError, match="unterminated block comment"):
        parse_dot(text)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"rejecting {len(text)} bytes of unclosed comments took {elapsed:.2f} s"
