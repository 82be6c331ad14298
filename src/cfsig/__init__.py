"""Control-flow process signatures with replica-cluster tamper detection.

Pipeline: parse a CFG export (DOT or GraphML), peel edge-disjoint spanning
arborescences from the entry block, hash their canonical strings into a
process signature, then exchange and vote on signatures across simulated
replica datanodes.
"""

from .cfg import (
    ControlFlowGraph,
    Mutation,
    MutationKind,
    load_graph,
    mutate,
    parse_dot,
    parse_graphml,
    prune_unreachable,
    serialize_dot,
    validate_cfg,
)
from .arborescence import find_arborescence, peel_edge_disjoint
from .signature import (
    Cipher,
    EncryptedSignature,
    HashAlgorithm,
    ProcessSignature,
    build_signature,
    canonical,
    decrypt,
    encrypt,
    hash_canonical,
    parse_signature,
    serialize_signature,
)
from .matcher import MatchVerdict, Outcome, match_signatures
from .replica import (
    ClusterConfig,
    ReplicaNode,
    Scenario,
    Verdict,
    VoteMessage,
    parse_scenario_file,
    run_cluster_scenario,
)

__all__ = [
    "Cipher",
    "ClusterConfig",
    "ControlFlowGraph",
    "EncryptedSignature",
    "HashAlgorithm",
    "MatchVerdict",
    "Mutation",
    "MutationKind",
    "Outcome",
    "ProcessSignature",
    "ReplicaNode",
    "Scenario",
    "Verdict",
    "VoteMessage",
    "build_signature",
    "canonical",
    "decrypt",
    "encrypt",
    "find_arborescence",
    "hash_canonical",
    "load_graph",
    "match_signatures",
    "mutate",
    "parse_dot",
    "parse_graphml",
    "parse_scenario_file",
    "parse_signature",
    "peel_edge_disjoint",
    "prune_unreachable",
    "run_cluster_scenario",
    "serialize_dot",
    "serialize_signature",
    "validate_cfg",
]

__version__ = "0.1.0"
