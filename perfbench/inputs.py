"""Seeded inputs for the benchmark workloads.

The benchmark owns its generators so that a change to the program (for
example to ``cfsig.cfg.generate_synthetic``) never silently changes what is
measured. Every function here is a pure function of its arguments; the same
seed always yields the same graph text, schedule and tamper picks.
"""

from __future__ import annotations

import random

# Sign workloads visit the size ladder in fixed proportions per cycle: 15
# graphs, so that in whole cycles the median falls on the middle of the
# samples of one graph (the 8th by size, 4th of the five V=200 graphs) and
# p90 on the middle of the 14th (3rd of the four V=800 graphs). A percentile
# on the boundary between two graphs' samples would be the extreme of one of
# them, and move with every outlier. Several graphs per size keep any one
# seeded graph from setting a percentile alone.
LADDER = {100: 4, 200: 5, 400: 2, 800: 4}

WIDE_MAX_HEADS = 8
WIDE_EDGE_FACTOR = 3.0
DEEP_BACK_WINDOW = 20
DEEP_SKIP_PROB = 0.5

# Why each workload exists is recorded in BENCHMARK.json and METRICS.md.
WORKLOADS = {
    "sign-wide": {"kind": "sign", "shape": "wide"},
    "sign-deep": {"kind": "sign", "shape": "deep"},
    # One round in four carries a RemoveNode tamper on one node.
    "round-mesh": {"kind": "round", "transport": "inprocess", "n": 9, "tamper_every": 4},
    "round-socket": {"kind": "round", "transport": "socket", "n": 5, "tamper_every": 0},
}


def block_names(count: int) -> list[str]:
    width = len(str(count))
    return [f"B{i:0{width}d}" for i in range(count)]


def wide_graph(v: int, rng: random.Random) -> tuple[list[str], list[tuple[str, str]]]:
    """Shallow, wide CFG: entry fans out to at most 8 heads, E about 3V.

    Every non-entry block hangs off a random earlier block, which keeps BFS
    depth logarithmic; random extra edges (never out of or into the entry)
    then bring the edge count to about ``WIDE_EDGE_FACTOR * v``.
    """
    names = block_names(v)
    heads = min(WIDE_MAX_HEADS, v - 1)
    edges: list[tuple[str, str]] = [(names[0], names[i]) for i in range(1, heads + 1)]
    for i in range(heads + 1, v):
        edges.append((names[rng.randrange(1, i)], names[i]))
    present = set(edges)
    target = round(WIDE_EDGE_FACTOR * v)
    while len(edges) < target:
        src, dst = rng.randrange(1, v), rng.randrange(1, v)
        edge = (names[src], names[dst])
        if src != dst and edge not in present:
            present.add(edge)
            edges.append(edge)
    return names, edges


def deep_graph(v: int, rng: random.Random) -> tuple[list[str], list[tuple[str, str]]]:
    """Deep loop-nest CFG: a chain with back-edges and skip edges, E about 2.5V.

    Each block i > 0 has a back-edge to one of the ``DEEP_BACK_WINDOW``
    blocks before it, and with probability ``DEEP_SKIP_PROB`` a skip edge
    over the next block, so BFS from the entry needs close to V layers.
    """
    names = block_names(v)
    edges = [(names[i], names[i + 1]) for i in range(v - 1)]
    for i in range(1, v):
        edges.append((names[i], names[rng.randrange(max(0, i - DEEP_BACK_WINDOW), i)]))
    for i in range(v - 2):
        if rng.random() < DEEP_SKIP_PROB:
            edges.append((names[i], names[i + 2]))
    return names, edges


def to_dot(names: list[str], edges: list[tuple[str, str]]) -> str:
    lines = ["digraph g {", f"  {names[0]} [entry=true];"]
    lines += [f"  {n};" for n in names[1:]]
    lines += [f"  {s} -> {d};" for s, d in edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_graphml(names: list[str], edges: list[tuple[str, str]]) -> str:
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        "<graphml>",
        '  <graph edgedefault="directed">',
        f'    <node id="{names[0]}"><data key="entry">true</data></node>',
    ]
    lines += [f'    <node id="{n}"/>' for n in names[1:]]
    lines += [f'    <edge source="{s}" target="{d}"/>' for s, d in edges]
    lines += ["  </graph>", "</graphml>"]
    return "\n".join(lines) + "\n"


def sign_inputs(shape: str, seed: int) -> list[dict]:
    """One cycle of sign inputs in a seeded order.

    Each entry holds the graph text, its format, its edge count and a seeded
    non-entry block whose removal must change the signature.
    """
    rng = random.Random(f"{shape}:{seed}")
    build, fmt, render = {
        "wide": (wide_graph, "graphml", to_graphml),
        "deep": (deep_graph, "dot", to_dot),
    }[shape]
    items = []
    for v, copies in LADDER.items():
        for _ in range(copies):
            names, edges = build(v, rng)
            items.append({
                "v": v,
                "edges": len(edges),
                "fmt": fmt,
                "text": render(names, edges),
                "drop": names[rng.randrange(1, v)],
            })
    rng.shuffle(items)
    return items


def round_schedule(labels: list[str], candidates: dict[str, list[str]], n: int,
                   seed: int, cycles: int, tamper_every: int) -> list[tuple]:
    """Rounds as ``(label, tamper, expected verdict)``.

    Each cycle visits every corpus graph once in a seeded order. With
    ``tamper_every`` k > 0, len(labels) // k rounds per cycle carry a tamper
    ``(node, block)``: a seeded node removes a seeded block drawn from that
    graph's ``candidates`` (blocks whose removal leaves a valid graph), and
    the round must flag that node. Other rounds have tamper ``None`` and must
    come out clean.
    """
    rng = random.Random(f"rounds:{seed}")
    schedule = []
    for _ in range(cycles):
        order = list(labels)
        rng.shuffle(order)
        tampered = set(rng.sample(order, len(order) // tamper_every)) if tamper_every else set()
        for label in order:
            if label in tampered:
                node = rng.randrange(n)
                schedule.append((label, (node, rng.choice(candidates[label])), f"INTRUSION node={node}"))
            else:
                schedule.append((label, None, "CLEAN"))
    return schedule
