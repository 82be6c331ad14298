"""Control-flow graph model: parsing, validation, and tampering.

A graph is an immutable value: a set of block ids, a set of directed edges,
and a designated entry block. All downstream processing (arborescence
extraction, canonicalization) orders elements lexicographically, so parse
order never matters.
"""

from __future__ import annotations

import enum
import re
import xml.etree.ElementTree as ET
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

from .errors import (
    CfsigError,
    DuplicateEdgeError,
    GraphSyntaxError,
    InvalidMutationError,
    ProducesInvalidGraphError,
    UnknownEntryError,
)

BlockId = str
Edge = tuple[BlockId, BlockId]

# Characters excluded from block ids. Beyond the DOT structural characters,
# the canonical-string separators (':', ',', '>') and lexer specials are
# banned so that distinct graphs can never collide on one canonical string.
_FORBIDDEN_ID_CHARS = set('"[];{}=<>,:-/')


def check_block_id(token: str) -> None:
    """Raise GraphSyntaxError unless *token* is usable as a block id."""
    if not token:
        raise GraphSyntaxError("empty block id")
    for ch in token:
        if ch.isspace() or ch in _FORBIDDEN_ID_CHARS:
            raise GraphSyntaxError(f"illegal character {ch!r} in block id {token!r}")


def successor_index(edges: Iterable[Edge]) -> dict[BlockId, list[BlockId]]:
    """Map each source block to its destinations, in the order of *edges*."""
    succ: dict[BlockId, list[BlockId]] = {}
    for src, dst in edges:
        succ.setdefault(src, []).append(dst)
    return succ


def reachable_from(root: BlockId, edges: Iterable[Edge]) -> set[BlockId]:
    """Every block reachable from *root* over *edges*, found in O(V+E)."""
    succ = successor_index(edges)
    seen = {root}
    stack = [root]
    while stack:
        for dst in succ.get(stack.pop(), ()):
            if dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return seen


@dataclass(frozen=True)
class ControlFlowGraph:
    """Directed graph of basic blocks with a designated entry block."""

    nodes: frozenset[BlockId]
    edges: frozenset[Edge]
    entry: BlockId

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", frozenset(self.nodes))
        object.__setattr__(self, "edges", frozenset(self.edges))
        if self.entry not in self.nodes:
            raise GraphSyntaxError(f"entry {self.entry!r} is not a declared node")
        for src, dst in self.edges:
            if src not in self.nodes or dst not in self.nodes:
                raise GraphSyntaxError(f"edge {src!r} -> {dst!r} has undeclared endpoint")

    def reachable_from_entry(self) -> frozenset[BlockId]:
        return frozenset(reachable_from(self.entry, self.edges))


@dataclass(frozen=True)
class Violation:
    kind: str  # UnreachableNode | SelfLoop
    subject: str

    def __str__(self) -> str:
        return f"{self.kind}({self.subject})"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_cfg(g: ControlFlowGraph) -> ValidationReport:
    """Check reachability from entry and absence of self-loops.

    Dangling endpoints need no check: the ControlFlowGraph constructor
    already rejects them.
    """
    loops = sorted(src for src, dst in g.edges if src == dst)
    violations = [Violation("SelfLoop", node) for node in loops]
    reachable = g.reachable_from_entry()
    for node in sorted(g.nodes - reachable):
        violations.append(Violation("UnreachableNode", node))
    return ValidationReport(tuple(violations))


def prune_unreachable(g: ControlFlowGraph) -> ControlFlowGraph:
    """Drop every node not reachable from entry, with its incident edges."""
    keep = g.reachable_from_entry()
    edges = frozenset(e for e in g.edges if e[0] in keep and e[1] in keep)
    return ControlFlowGraph(keep, edges, g.entry)


def read_utf8(path: Path) -> str:
    """The text of *path* decoded as UTF-8, whatever the locale.

    Raises OSError when the file cannot be read and CfsigError when it is not
    UTF-8 or its name cannot be encoded for the file system.
    """
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeError as exc:
        raise CfsigError(f"cannot read {path} as UTF-8: {exc}") from exc


def load_graph(path: str | Path, prune: bool = False) -> ControlFlowGraph:
    """Read a ``.dot`` or ``.graphml`` file and return it as a valid CFG.

    With *prune*, a graph whose only violations are unreachable blocks comes
    back without them. Raises OSError when the file cannot be read and
    CfsigError for any other suffix, a parse error or an invalid graph.
    """
    path = Path(path)
    if path.suffix == ".dot":
        parse = parse_dot
    elif path.suffix == ".graphml":
        parse = parse_graphml
    else:
        raise CfsigError(f"unsupported input extension {path.suffix!r}")
    graph = parse(read_utf8(path))
    report = validate_cfg(graph)
    if not report.ok:
        if prune and all(v.kind == "UnreachableNode" for v in report.violations):
            return prune_unreachable(graph)
        raise CfsigError("invalid CFG: " + ", ".join(str(v) for v in report.violations))
    return graph


def _resolve_entry(
    nodes: set[BlockId], edges: set[Edge], marked: list[BlockId]
) -> BlockId:
    if len(marked) == 1:
        return marked[0]
    if len(marked) > 1:
        raise UnknownEntryError(f"multiple nodes marked as entry: {sorted(marked)}")
    # Self-loops do not disqualify a node from being the entry candidate.
    targets = {dst for src, dst in edges if src != dst}
    candidates = sorted(nodes - targets)
    if len(candidates) == 1:
        return candidates[0]
    if not candidates:
        raise UnknownEntryError("no entry marker and no node with in-degree 0")
    raise UnknownEntryError(
        f"no entry marker and multiple in-degree-0 candidates: {candidates}"
    )


# ---------------------------------------------------------------------------
# DOT subset
# ---------------------------------------------------------------------------

_DOT_SPECIALS = "{}[];=,"

# One alternative per lexical class, in precedence order: whitespace and
# comments are skipped, an unclosed "/*" and any other forbidden character
# are errors. "\s" matches exactly the characters str.isspace() accepts.
_DOT_TOKEN = re.compile(
    r"(?P<skip>\s+|//[^\n]*|/\*.*?\*/)"
    r"|(?P<open>/\*)"
    rf"|(?P<token>->|[{re.escape(_DOT_SPECIALS)}])"
    rf"|(?P<id>[^\s{re.escape(''.join(sorted(_FORBIDDEN_ID_CHARS)))}]+)"
    r"|(?P<bad>.)",
    re.DOTALL,
)


def _position(text: str, offset: int) -> tuple[int, int]:
    """The 1-based (line, col) of *offset* in *text*; only "\\n" ends a line."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize_dot(text: str) -> list[tuple[str, int]]:
    """Split DOT text into (token, offset) pairs, skipping whitespace and comments."""
    tokens = []
    for m in _DOT_TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "token" or kind == "id":
            tokens.append((m.group(), m.start()))
        elif kind != "skip":
            message = "unterminated block comment" if kind == "open" else f"unexpected character {m.group()!r}"
            raise GraphSyntaxError(message, *_position(text, m.start()))
    return tokens


def parse_dot(text: str) -> ControlFlowGraph:
    """Parse the supported DOT subset into a graph value.

    Supported statements inside ``digraph NAME { ... }`` are node
    declarations (``B1;``, optionally ``B1 [entry=true];``) and edges
    (``B1 -> B2;``). ``//`` and ``/* */`` comments are stripped.
    """
    tokens: list[tuple[str | None, int]] = _tokenize_dot(text)
    # An end marker at the last token, where "unexpected end of input" is reported.
    tokens.append((None, tokens[-1][1] if tokens else 0))
    i = 0

    def error(message: str, offset: int) -> GraphSyntaxError:
        return GraphSyntaxError(message, *_position(text, offset))

    def take(expected: str | None = None) -> str:
        nonlocal i
        tok, offset = tokens[i]
        if tok is None:
            raise error(f"unexpected end of input, expected {expected or 'token'}", offset)
        if expected is not None and tok != expected:
            raise error(f"expected {expected!r}, found {tok!r}", offset)
        i += 1
        return tok

    def take_id() -> str:
        tok = take()
        if tok in _DOT_SPECIALS or tok == "->":
            raise error(f"expected identifier, found {tok!r}", tokens[i - 1][1])
        # The tokenizer's id class admits only what check_block_id accepts.
        return tok

    if take() != "digraph":
        raise error(f"expected 'digraph', found {tokens[0][0]!r}", tokens[0][1])
    if tokens[i][0] not in (None, "{"):
        take_id()  # graph name, ignored
    take("{")

    nodes, edges, marked = set(), set(), []
    while tokens[i][0] != "}":
        if tokens[i][0] is None:
            raise GraphSyntaxError("missing closing '}'")
        first = take_id()
        nodes.add(first)
        if tokens[i][0] == "->":
            i += 1
            second = take_id()
            nodes.add(second)
            if (first, second) in edges:
                raise DuplicateEdgeError(f"duplicate edge {first} -> {second}")
            edges.add((first, second))
        elif tokens[i][0] == "[":
            i += 1
            key_offset = tokens[i][1]
            key = take_id()
            take("=")
            val = take_id()
            take("]")
            if key != "entry" or val != "true":
                raise error(f"unsupported attribute {key}={val}", key_offset)
            marked.append(first)
        take(";")
    if tokens[i + 1][0] is not None:
        raise error(f"trailing input {tokens[i + 1][0]!r}", tokens[i + 1][1])
    if not nodes:
        raise GraphSyntaxError("graph has no nodes")

    entry = _resolve_entry(nodes, edges, marked)
    return ControlFlowGraph(frozenset(nodes), frozenset(edges), entry)


def serialize_dot(g: ControlFlowGraph, name: str = "g") -> str:
    """Deterministic DOT serialization; the entry node is always marked."""
    lines = [f"digraph {name} {{"]
    for node in sorted(g.nodes):
        attr = " [entry=true]" if node == g.entry else ""
        lines.append(f"  {node}{attr};")
    for src, dst in sorted(g.edges):
        lines.append(f"  {src} -> {dst};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# GraphML subset
# ---------------------------------------------------------------------------


def _local_name(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def parse_graphml(text: str) -> ControlFlowGraph:
    """Parse the supported GraphML subset; namespaces are ignored."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise GraphSyntaxError(f"not well-formed XML: {exc}") from exc
    if _local_name(root.tag) != "graphml":
        raise GraphSyntaxError(f"expected <graphml> root, found <{_local_name(root.tag)}>")

    # <key id="d0" attr.name="entry"/> declarations may alias the entry key.
    entry_keys = {"entry"}
    for key_el in root.iter():
        if _local_name(key_el.tag) == "key" and key_el.get("attr.name") == "entry":
            kid = key_el.get("id")
            if kid:
                entry_keys.add(kid)

    graph = next((el for el in root.iter() if _local_name(el.tag) == "graph"), None)
    if graph is None:
        raise GraphSyntaxError("missing <graph> element")
    default = graph.get("edgedefault", "directed")
    if default != "directed":
        raise GraphSyntaxError(f"unsupported edgedefault {default!r}")

    nodes: set[BlockId] = set()
    edges: set[Edge] = set()
    marked: list[BlockId] = []
    for el in graph:
        tag = _local_name(el.tag)
        if tag == "node":
            nid = el.get("id")
            if nid is None:
                raise GraphSyntaxError("<node> without id attribute")
            check_block_id(nid)
            if nid in nodes:
                raise GraphSyntaxError(f"duplicate node id {nid!r}")
            nodes.add(nid)
            for data in el:
                if _local_name(data.tag) == "data" and data.get("key") in entry_keys:
                    if (data.text or "").strip().lower() == "true":
                        marked.append(nid)
        elif tag == "edge":
            src, dst = el.get("source"), el.get("target")
            if src is None or dst is None:
                raise GraphSyntaxError("<edge> missing source or target")
            if src not in nodes or dst not in nodes:
                raise GraphSyntaxError(f"edge {src!r} -> {dst!r} references undeclared node")
            if (src, dst) in edges:
                raise DuplicateEdgeError(f"duplicate edge {src} -> {dst}")
            edges.add((src, dst))
        # other elements (keys, data, desc) are tolerated and ignored
    if not nodes:
        raise GraphSyntaxError("graph has no nodes")

    entry = _resolve_entry(nodes, edges, marked)
    return ControlFlowGraph(frozenset(nodes), frozenset(edges), entry)


def serialize_graphml(g: ControlFlowGraph) -> str:
    """Deterministic GraphML serialization matching the supported subset."""
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        "<graphml>",
        '  <graph edgedefault="directed">',
    ]
    for node in sorted(g.nodes):
        if node == g.entry:
            lines.append(f'    <node id="{node}"><data key="entry">true</data></node>')
        else:
            lines.append(f'    <node id="{node}"/>')
    for src, dst in sorted(g.edges):
        lines.append(f'    <edge source="{src}" target="{dst}"/>')
    lines.append("  </graph>")
    lines.append("</graphml>")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Tamper mutations
# ---------------------------------------------------------------------------


class MutationKind(enum.Enum):
    ADD_EDGE = "AddEdge"
    REMOVE_EDGE = "RemoveEdge"
    REDIRECT_EDGE = "RedirectEdge"
    SWAP_NODE_IDS = "SwapNodeIds"
    REMOVE_NODE = "RemoveNode"


# Each kind's spec syntax: the separator between its operands, and their
# count. A single operand is never split.
_SPEC_SYNTAX = {
    MutationKind.ADD_EDGE: (">", 2),
    MutationKind.REMOVE_EDGE: (">", 2),
    MutationKind.REDIRECT_EDGE: (">", 3),
    MutationKind.SWAP_NODE_IDS: (",", 2),
    MutationKind.REMOVE_NODE: ("", 1),
}


@dataclass(frozen=True)
class Mutation:
    """A single structural tamper, applied with :func:`mutate`."""

    kind: MutationKind
    operands: tuple[str, ...]

    @classmethod
    def add_edge(cls, src: BlockId, dst: BlockId) -> Mutation:
        return cls(MutationKind.ADD_EDGE, (src, dst))

    @classmethod
    def remove_edge(cls, src: BlockId, dst: BlockId) -> Mutation:
        return cls(MutationKind.REMOVE_EDGE, (src, dst))

    @classmethod
    def redirect_edge(cls, src: BlockId, old_dst: BlockId, new_dst: BlockId) -> Mutation:
        return cls(MutationKind.REDIRECT_EDGE, (src, old_dst, new_dst))

    @classmethod
    def swap_node_ids(cls, a: BlockId, b: BlockId) -> Mutation:
        return cls(MutationKind.SWAP_NODE_IDS, (a, b))

    @classmethod
    def remove_node(cls, node: BlockId) -> Mutation:
        return cls(MutationKind.REMOVE_NODE, (node,))

    @classmethod
    def parse(cls, spec: str) -> Mutation:
        """Parse the scenario-file syntax, e.g. ``RemoveEdge:B3>B4``.

        Forms: ``AddEdge:S>D``  ``RemoveEdge:S>D``  ``RedirectEdge:S>OLD>NEW``
        ``SwapNodeIds:A,B``  ``RemoveNode:N``.
        """
        try:
            name, _, rest = spec.partition(":")
            kind = MutationKind(name)
        except ValueError as exc:
            raise InvalidMutationError(f"unknown mutation kind in {spec!r}") from exc
        sep, want = _SPEC_SYNTAX[kind]
        ops = tuple(rest.split(sep)) if sep else (rest,)
        if len(ops) != want or not all(ops):
            raise InvalidMutationError(f"bad operands in mutation spec {spec!r}")
        return cls(kind, ops)

    def __str__(self) -> str:
        sep, _ = _SPEC_SYNTAX[self.kind]
        return f"{self.kind.value}:{sep.join(self.operands)}"


def mutate(g: ControlFlowGraph, m: Mutation, prune: bool = False) -> ControlFlowGraph:
    """Apply a tamper mutation, returning a new valid graph.

    Raises InvalidMutationError when operands are missing from the graph or
    a swap names one block twice, and ProducesInvalidGraphError when the
    result would fail validation. With ``prune=True`` an unreachable
    remainder is pruned instead of rejected.
    """
    nodes = set(g.nodes)
    edges = set(g.edges)
    entry = g.entry
    kind = m.kind

    if kind is MutationKind.ADD_EDGE:
        src, dst = m.operands
        if src not in nodes or dst not in nodes:
            raise InvalidMutationError(f"AddEdge endpoints must exist: {src}>{dst}")
        if (src, dst) in edges:
            raise InvalidMutationError(f"edge {src}>{dst} already present")
        edges.add((src, dst))
    elif kind is MutationKind.REMOVE_EDGE:
        src, dst = m.operands
        if (src, dst) not in edges:
            raise InvalidMutationError(f"edge {src}>{dst} not present")
        edges.remove((src, dst))
    elif kind is MutationKind.REDIRECT_EDGE:
        src, old_dst, new_dst = m.operands
        if (src, old_dst) not in edges:
            raise InvalidMutationError(f"edge {src}>{old_dst} not present")
        if new_dst not in nodes:
            raise InvalidMutationError(f"redirect target {new_dst} not a node")
        if (src, new_dst) in edges:
            raise InvalidMutationError(f"edge {src}>{new_dst} already present")
        edges.remove((src, old_dst))
        edges.add((src, new_dst))
    elif kind is MutationKind.SWAP_NODE_IDS:
        a, b = m.operands
        if a not in nodes or b not in nodes:
            raise InvalidMutationError(f"swap operands must exist: {a},{b}")
        if a == b:
            raise InvalidMutationError(f"swap operands must differ: {a},{b}")
        swap = {a: b, b: a}
        edges = {(swap.get(s, s), swap.get(d, d)) for s, d in edges}
        entry = swap.get(entry, entry)
    elif kind is MutationKind.REMOVE_NODE:
        (node,) = m.operands
        if node not in nodes:
            raise InvalidMutationError(f"node {node} not present")
        if node == entry:
            raise ProducesInvalidGraphError("cannot remove the entry node")
        nodes.remove(node)
        edges = {(s, d) for s, d in edges if s != node and d != node}
    else:  # pragma: no cover - exhaustive enum
        raise InvalidMutationError(f"unhandled mutation kind {kind}")

    result = ControlFlowGraph(frozenset(nodes), frozenset(edges), entry)
    report = validate_cfg(result)
    if report.ok:
        return result
    if prune and all(v.kind == "UnreachableNode" for v in report.violations):
        return prune_unreachable(result)
    raise ProducesInvalidGraphError(
        "mutation breaks validity: " + ", ".join(str(v) for v in report.violations)
    )
