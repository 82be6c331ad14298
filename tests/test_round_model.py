"""Small-scope model check of the round under lost frames.

``broadcast`` sends in a fixed order (phase, then sender, then receiver), so
"lose the frames at these ``send`` call indices" names every loss pattern of
a round. On ``diamond`` each listed round is run under every pattern in its
scope, and every live node's decision is checked. Most protocol faults show
up in small instances (the small-scope hypothesis: Jackson, *Software
Abstractions*, 2006).

Gated: two safety properties. No live node flags a node other than the
tampered one, and no live node decides Clean in a tampered round.

Counted: the patterns in which live nodes disagree. Each node tallies
against the global live count and the round prints only the lowest live
node's verdict, so these counts are pinned, to be changed on purpose when
each node decides from what it alone knows.
"""

from __future__ import annotations

from itertools import combinations, count

import pytest

from cfsig import ClusterConfig, Mutation, Scenario, run_cluster_scenario
from cfsig.replica import InProcessTransport

TAMPER = Mutation.parse("RemoveEdge:B2>B4")


def loss_patterns(frames: int, max_lost: int):
    """Every set of at most *max_lost* of the *frames* send calls."""
    for k in range(max_lost + 1):
        yield from map(frozenset, combinations(range(frames), k))


@pytest.mark.parametrize(
    "n,tamper_node,max_lost,patterns,disagree",
    [
        (3, None, 12, 4096, 2304),
        (3, 2, 12, 4096, 768),
        (4, None, 2, 301, 222),
        (4, 3, 2, 301, 153),
        (5, 4, 1, 41, 0),
    ],
    ids=["n3-clean-all", "n3-tampered-all", "n4-clean-2", "n4-tampered-2", "n5-tampered-1"],
)
def test_lost_frames(monkeypatch, diamond, n, tamper_node, max_lost, patterns, disagree):
    frames = 2 * n * (n - 1)  # one envelope and one vote frame from each node to each peer
    lost: frozenset[int] = frozenset()
    calls = count()
    deliver = InProcessTransport.send

    def send(self, receiver, frame_bytes):
        if next(calls) not in lost:
            deliver(self, receiver, frame_bytes)

    monkeypatch.setattr(InProcessTransport, "send", send)
    tamper = None if tamper_node is None else (tamper_node, TAMPER)
    config, scenario = ClusterConfig(n=n), Scenario("diamond", diamond, tamper)
    innocent = frozenset(range(n)) - {tamper_node}

    checked = split = 0
    for lost in loss_patterns(frames, max_lost):
        calls = count()
        verdicts = {node.verdict for node in run_cluster_scenario(config, scenario).rounds_per_node.values()}
        assert next(calls) == frames, sorted(lost)
        for verdict in verdicts:
            assert not verdict.nodes & innocent, (sorted(lost), verdict)
            assert tamper_node is None or verdict.kind != "Clean", (sorted(lost), verdict)
        checked += 1
        split += len(verdicts) > 1
    assert (checked, split) == (patterns, disagree)
