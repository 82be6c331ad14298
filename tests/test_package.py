from __future__ import annotations

import cfsig


def test_every_exported_name_resolves():
    for name in cfsig.__all__:
        getattr(cfsig, name)
    namespace: dict = {}
    exec("from cfsig import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(cfsig.__all__)


def test_test_only_helpers_are_not_exported():
    for name in ("serialize_graphml", "match_cost"):
        assert name not in cfsig.__all__ and not hasattr(cfsig, name)
