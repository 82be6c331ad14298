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
    generate_synthetic,
    load_graph,
    mutate,
    parse_dot,
    parse_graphml,
    prune_unreachable,
    serialize_dot,
    serialize_graphml,
    validate_cfg,
)
from .arborescence import (
    Arborescence,
    enumerate_all_arborescences,
    find_arborescence,
    max_edge_disjoint_packing,
    peel_edge_disjoint,
)
from .signature import (
    Cipher,
    EncryptedSignature,
    HashAlgorithm,
    ProcessSignature,
    build_signature,
    decrypt,
    encrypt,
    hash_canonical,
    parse_signature,
    serialize_signature,
)
from .matcher import MatchVerdict, Outcome, match_cost, match_signatures
from .replica import (
    ClusterConfig,
    ConsensusRound,
    ReplicaNode,
    Scenario,
    Verdict,
    VoteMessage,
    parse_scenario_file,
    run_cluster_scenario,
)

__all__ = [
    "Arborescence",
    "Cipher",
    "ClusterConfig",
    "ConsensusRound",
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
    "decrypt",
    "encrypt",
    "enumerate_all_arborescences",
    "find_arborescence",
    "generate_synthetic",
    "hash_canonical",
    "load_graph",
    "match_cost",
    "match_signatures",
    "max_edge_disjoint_packing",
    "mutate",
    "parse_dot",
    "parse_graphml",
    "parse_scenario_file",
    "parse_signature",
    "peel_edge_disjoint",
    "prune_unreachable",
    "run_cluster_scenario",
    "serialize_dot",
    "serialize_graphml",
    "serialize_signature",
    "validate_cfg",
]

__version__ = "0.1.0"
