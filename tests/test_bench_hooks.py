"""The benchmark's traced run must wrap the program's call path exactly once.

``perfbench/workloads.py::instrument`` patches program attributes by name;
these tests fail when a rename, a dropped import or a changed class
hierarchy makes a wrapper miss its calls, count them twice, or survive
``uninstall()``.
"""

from __future__ import annotations

from pathlib import Path

from cfsig import arborescence, cfg, matcher, replica, signature

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

OWNERS = (
    cfg, arborescence, signature, matcher, replica,
    replica.ReplicaNode, replica.Frame, replica.InProcessTransport, replica.SocketTransport,
)


def test_traced_round_spans_and_uninstall(monkeypatch, diamond):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    from spans import Tracer

    originals = {(owner, name): getattr(owner, name) for owner in OWNERS for name in dir(owner)}
    tracer = Tracer(max_spans=100_000)
    workloads.instrument(tracer)
    patched = [(owner, attr) for owner, attr, _ in tracer._patched]
    try:
        for transport in ("inprocess", "socket"):
            before = len(tracer)
            replica.run_cluster_scenario(
                replica.ClusterConfig(n=3, transport=transport), replica.Scenario("diamond", diamond)
            )
            names = [tracer.names[i] for i in tracer.name_ids[before:]]
            assert names.count("replica.transport_drain") == 2 * 3, transport
            assert names.count("replica.round") == 1
    finally:
        tracer.uninstall()

    for owner, attr in patched:
        assert (owner, attr) in originals, f"{owner!r}.{attr} is not on a known owner"
        assert getattr(owner, attr) is originals[owner, attr], f"{owner!r}.{attr} still wrapped"
    recorded = len(tracer)
    replica.run_cluster_scenario(replica.ClusterConfig(n=3), replica.Scenario("diamond", diamond))
    assert len(tracer) == recorded
