"""Control-flow graph model: parsing, validation, and tampering.

A graph is an immutable value: a set of block ids, a set of directed edges,
and a designated entry block. All downstream processing (arborescence
extraction, canonicalization) orders elements lexicographically, so parse
order never matters.
"""

from __future__ import annotations

import enum
import functools
import re
import xml.etree.ElementTree as ET
from collections.abc import Callable, Collection
from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field
from itertools import repeat
from operator import attrgetter, itemgetter
from pathlib import Path

from .errors import (
    CfsigError,
    DuplicateEdgeError,
    GraphSyntaxError,
    InvalidGraphError,
    InvalidMutationError,
    UnknownEntryError,
)

BlockId = str
Edge = tuple[BlockId, BlockId]

# Characters excluded from block ids. Beyond the DOT structural characters,
# the canonical-string separators (':', ',', '>') and lexer specials are
# banned so that distinct graphs can never collide on one canonical string.
_FORBIDDEN_ID_CHARS = set('"[];{}=<>,:-/')

# A block id: a run of characters neither whitespace nor forbidden. "\s"
# matches exactly the characters str.isspace() accepts.
_BLOCK_ID = re.compile(rf"[^\s{re.escape(''.join(sorted(_FORBIDDEN_ID_CHARS)))}]+")


def _all_block_ids(ids: Collection[str]) -> bool:
    """Whether each of *ids* is a block id, checked in one regex pass.

    A block id is a run of allowed characters, so the ids joined make one id
    exactly when each is one; only an empty id hides in the join.
    """
    return "" not in ids and (not ids or _BLOCK_ID.fullmatch("".join(ids)) is not None)


def _id_prefix_length(token: str) -> int:
    """The length of the longest prefix of *token* that is a block id."""
    m = _BLOCK_ID.match(token)
    return m.end() if m else 0


def check_block_id(token: str) -> None:
    """Raise GraphSyntaxError unless *token* is usable as a block id."""
    if _BLOCK_ID.fullmatch(token):
        return
    if not token:
        raise GraphSyntaxError("empty block id")
    raise GraphSyntaxError(f"illegal character {token[_id_prefix_length(token)]!r} in block id {token!r}")


def bfs_tree(g: ControlFlowGraph, available: frozenset[Edge] | None = None) -> dict[BlockId, BlockId | None]:
    """Each block a BFS from the entry reaches over *available* (None: all
    edges) mapped to its parent, the entry to None; O(V+E).

    Each layer is visited in sorted order and a block keeps its first
    discoverer, which is its smallest parent one layer up.
    """
    succ = g.successors
    parents: dict[BlockId, BlockId | None] = {g.entry: None}
    layer = [g.entry]
    while layer:
        found = []
        for src in sorted(layer):
            for dst in succ.get(src, ()):
                if dst not in parents and (available is None or (src, dst) in available):
                    parents[dst] = src
                    found.append(dst)
        layer = found
    return parents


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

    # Computed once per graph value; equality and hashing see only the fields.
    @functools.cached_property
    def successors(self) -> dict[BlockId, list[BlockId]]:
        """Map each source block to its destinations."""
        succ: dict[BlockId, list[BlockId]] = {}
        for src, dst in self.edges:
            succ.setdefault(src, []).append(dst)
        return succ

    @functools.cached_property
    def bfs_parents(self) -> dict[BlockId, BlockId | None]:
        """The BFS tree over every edge, as :func:`bfs_tree` gives it."""
        return bfs_tree(self)


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
    loops = sorted(src for src, _ in g.edges.intersection(zip(g.nodes, g.nodes)))
    violations = [Violation("SelfLoop", node) for node in loops]
    for node in sorted(g.nodes.difference(g.bfs_parents)):
        violations.append(Violation("UnreachableNode", node))
    return ValidationReport(tuple(violations))


def prune_unreachable(g: ControlFlowGraph) -> ControlFlowGraph:
    """Drop every node not reachable from entry, with its incident edges."""
    keep = g.bfs_parents.keys()
    edges = frozenset(e for e in g.edges if e[0] in keep and e[1] in keep)
    return ControlFlowGraph(keep, edges, g.entry)


def check_cfg(g: ControlFlowGraph, prune: bool = False) -> ControlFlowGraph:
    """*g* if it is a valid CFG, else raise InvalidGraphError naming every violation.

    With *prune*, a graph whose only violations are unreachable blocks comes
    back without them.
    """
    report = validate_cfg(g)
    if report.ok:
        return g
    if prune and all(v.kind == "UnreachableNode" for v in report.violations):
        return prune_unreachable(g)
    raise InvalidGraphError("invalid CFG: " + ", ".join(str(v) for v in report.violations))


def read_utf8(path: Path) -> str:
    """The text of *path* decoded as UTF-8, whatever the locale.

    A leading byte-order mark is dropped. Raises OSError when the file cannot
    be read and CfsigError when it is not UTF-8 or its name cannot be encoded
    for the file system.
    """
    try:
        return path.read_text(encoding="utf-8-sig")
    except UnicodeError as exc:
        raise CfsigError(f"cannot read {path} as UTF-8: {exc}") from exc


def load_graph(path: str | Path, prune: bool = False) -> ControlFlowGraph:
    """Read a ``.dot`` or ``.graphml`` file and return it as :func:`check_cfg` does.

    Raises OSError when the file cannot be read and CfsigError for any other
    suffix, a parse error or an invalid graph.
    """
    path = Path(path)
    if path.suffix == ".dot":
        parse = parse_dot
    elif path.suffix == ".graphml":
        parse = parse_graphml
    else:
        raise CfsigError(f"unsupported input extension {path.suffix!r}")
    return check_cfg(parse(read_utf8(path)), prune)


def _parsed_graph(nodes: AbstractSet[BlockId], edges: AbstractSet[Edge], marked: list[BlockId]) -> ControlFlowGraph:
    """The graph a parser read; raises unless it has nodes and one entry.

    The entry is the block marked as entry or, with none marked, the one block
    that no edge from another block enters (a self-loop does not count).
    """
    if not nodes:
        raise GraphSyntaxError("graph has no nodes")
    marked = sorted(set(marked))  # one block may be marked more than once
    if len(marked) > 1:
        raise UnknownEntryError(f"multiple nodes marked as entry: {marked}")
    candidates = marked or sorted(nodes - {dst for src, dst in edges if src != dst})
    if not candidates:
        raise UnknownEntryError("no entry marker and no node with in-degree 0")
    if len(candidates) > 1:
        raise UnknownEntryError(f"no entry marker and multiple in-degree-0 candidates: {candidates}")
    return ControlFlowGraph(nodes, edges, candidates[0])


# ---------------------------------------------------------------------------
# DOT subset
# ---------------------------------------------------------------------------

_DOT_SPECIALS = "{}[];=,"

# A "//" line comment, a closed "/* */" comment, or an unclosed "/*" with the
# rest of the text, whose group keeps the "/" so that the text still fails as
# an id. Taking the rest means the search for a "*/" fails at most once: no
# later "/*" is searched again.
_DOT_COMMENT = re.compile(r"//[^\n]*|/\*.*?\*/|(/)\*.*", re.DOTALL)


def _blank_comments(text: str) -> str:
    """*text* with each comment blanked to as many spaces, an unclosed "/*" keeping its "/"."""
    return _DOT_COMMENT.sub(lambda m: (m[1] or "").ljust(len(m[0])), text) if "/" in text else text


def _token_offsets(text: str, tokens: list[str]) -> list[int]:
    """The offset in *text* of each of *tokens*, which _tokenize_dot split from it.

    Only whitespace lies between two tokens of the blanked text, so each
    token is the first match of its text after the one before it.
    """
    blanked = _blank_comments(text)
    offsets, end = [], 0
    for tok in tokens:
        end = blanked.index(tok, end)
        offsets.append(end)
        end += len(tok)
    return offsets


def _syntax_error(message: str, text: str, offset: int) -> GraphSyntaxError:
    """A syntax error at the 1-based (line, col) of *offset*; only "\\n" ends a line."""
    return GraphSyntaxError(message, text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset))


# The tokens that cannot stand where an id is expected; "" is the end. Every
# other token is an id that check_block_id accepts.
_DOT_NOT_ID = frozenset(_DOT_SPECIALS) | {"->", ""}


def _tokenize_dot(text: str) -> list[str]:
    """Split DOT text into tokens, skipping whitespace and comments.

    The list ends with one empty string, the end of the text. No id holds a
    "/", so each comment starts between tokens, and as spaces it still parts
    them; str.split() splits on exactly the characters "\\s" matches. A bad
    character, an unclosed "/*" or a lone "/" leaves a token that is not an
    id, and the first such token holds the error where its id prefix ends.
    """
    spaced = _blank_comments(text).replace("->", " -> ")
    for special in _DOT_SPECIALS:
        spaced = spaced.replace(special, f" {special} ")
    tokens = spaced.split()
    if _all_block_ids(set(tokens) - _DOT_NOT_ID):
        tokens.append("")
        return tokens
    k, tok = next((k, tok) for k, tok in enumerate(tokens) if tok not in _DOT_NOT_ID and not _BLOCK_ID.fullmatch(tok))
    at = _token_offsets(text, tokens)[k] + _id_prefix_length(tok)
    if text.startswith("/*", at):
        raise _syntax_error("unterminated block comment", text, at)
    raise _syntax_error(f"unexpected character {text[at]!r}", text, at)


def parse_dot(text: str) -> ControlFlowGraph:
    """Parse the supported DOT subset into a graph value.

    Supported statements inside ``digraph NAME { ... }`` are node
    declarations (``B1;``, optionally ``B1 [entry=true];``) and edges
    (``B1 -> B2;``). ``//`` and ``/* */`` comments are stripped.
    """
    tokens = _tokenize_dot(text)

    def error(message: str, k: int) -> GraphSyntaxError:
        """A syntax error at token *k*, or at the start of the text when k < 0."""
        return _syntax_error(message, text, _token_offsets(text, tokens)[k] if k >= 0 else 0)

    def unexpected(k: int, expected: str | None = None) -> GraphSyntaxError:
        """The error for token *k*, which is not *expected* (None: an id)."""
        tok = tokens[k]
        if not tok:  # reported at the last token
            return error(f"unexpected end of input, expected {expected or 'token'}", k - 1)
        if expected is None:
            return error(f"expected identifier, found {tok!r}", k)
        return error(f"expected {expected!r}, found {tok!r}", k)

    if tokens[0] != "digraph":
        raise error(f"expected 'digraph', found {tokens[0]!r}", 0) if tokens[0] else unexpected(0)
    i = 1
    if tokens[1] not in ("", "{"):  # graph name, ignored
        if tokens[1] in _DOT_NOT_ID:
            raise unexpected(1)
        i = 2
    if tokens[i] != "{":
        raise unexpected(i, "{")
    i += 1

    nodes: set[BlockId] = set()
    edges: set[Edge] = set()
    marked: list[BlockId] = []
    while (first := tokens[i]) != "}":
        if first in _DOT_NOT_ID:
            if not first:
                raise GraphSyntaxError("missing closing '}'")
            raise unexpected(i)
        nodes.add(first)
        op = tokens[i + 1]
        if op == "->":
            second = tokens[i + 2]
            if second in _DOT_NOT_ID:
                raise unexpected(i + 2)
            nodes.add(second)
            if (first, second) in edges:
                raise DuplicateEdgeError(f"duplicate edge {first} -> {second}")
            edges.add((first, second))
            i += 3
        elif op == "[":
            for k, expected in enumerate((None, "=", None, "]"), i + 2):
                if tokens[k] in _DOT_NOT_ID if expected is None else tokens[k] != expected:
                    raise unexpected(k, expected)
            key, val = tokens[i + 2], tokens[i + 4]
            if key != "entry" or val != "true":
                raise error(f"unsupported attribute {key}={val}", i + 2)
            marked.append(first)
            i += 6
        else:
            i += 1
        if tokens[i] != ";":
            raise unexpected(i, ";")
        i += 1
    if tokens[i + 1]:
        raise error(f"trailing input {tokens[i + 1]!r}", i + 1)
    return _parsed_graph(nodes, edges, marked)


def serialize_dot(g: ControlFlowGraph) -> str:
    """Deterministic DOT serialization; the entry node is always marked."""
    lines = ["digraph g {"]
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


def _graph_in_bulk(
    graph: ET.Element, node_tags: set[str], edge_tags: set[str], marks_entry: Callable[[ET.Element], bool]
) -> ControlFlowGraph | None:
    """The graph *graph* holds, read in C-level passes, or None to have the
    element loop read it.

    None unless one tag names the nodes, at most one the edges, and every
    node comes before every edge, so that an edge's endpoints are declared
    before it exactly when they are declared at all. Every check the loop
    makes is then made on the whole document at once, and any failure,
    including one raised while building the graph, returns None: the loop
    alone names errors, in document order. Only nodes with children, the
    entry markers, are visited in Python.
    """
    if len(node_tags) != 1 or len(edge_tags) > 1:
        return None
    node_els = graph.findall(*node_tags)
    edge_els = graph.findall(*edge_tags) if edge_tags else []
    children = list(graph)
    if not node_els or (edge_els and children.index(node_els[-1]) > children.index(edge_els[0])):
        return None
    edge_attribs = list(map(attrgetter("attrib"), edge_els))
    try:
        ids = list(map(itemgetter("id"), map(attrgetter("attrib"), node_els)))
        pairs = list(map(itemgetter("source", "target"), edge_attribs))
    except KeyError:  # a missing attribute
        return None
    nodes, edges = frozenset(ids), frozenset(pairs)
    if len(nodes) < len(ids) or len(edges) < len(pairs) or not _all_block_ids(ids):
        return None
    if not {None, "true"}.issuperset(map(dict.get, edge_attribs, repeat("directed"))):  # None: absent
        return None
    marked = [el.get("id") for el in filter(len, node_els) if marks_entry(el)]
    try:
        return _parsed_graph(nodes, edges, marked)
    except CfsigError:
        return None


def parse_graphml(text: str) -> ControlFlowGraph:
    """Parse the supported GraphML subset; namespaces are ignored."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise GraphSyntaxError(f"not well-formed XML: {exc}") from exc
    # Each distinct tag, with or without a namespace, is mapped to its local name once.
    local = {tag: tag.rsplit("}", 1)[-1] for tag in set(map(attrgetter("tag"), root.iter()))}

    def tags(name: str) -> set[str]:
        return {tag for tag, local_name in local.items() if local_name == name}

    if local[root.tag] != "graphml":
        raise GraphSyntaxError(f"expected <graphml> root, found <{local[root.tag]}>")

    # <key id="d0" attr.name="entry"/> declarations may alias the entry key.
    entry_keys = {"entry"}
    for tag in tags("key"):
        for key_el in root.iter(tag):
            kid = key_el.get("id")
            if kid and key_el.get("attr.name") == "entry":
                entry_keys.add(kid)

    graph_tags = tags("graph")
    graph = next((el for el in root.iter() if el.tag in graph_tags), None)
    if graph is None:
        raise GraphSyntaxError("missing <graph> element")
    default = graph.get("edgedefault", "directed")
    if default != "directed":
        raise GraphSyntaxError(f"unsupported edgedefault {default!r}")

    node_tags, edge_tags, data_tags = tags("node"), tags("edge"), tags("data")

    def marks_entry(node: ET.Element) -> bool:
        """Whether a <data> child of *node* under an entry key holds "true"."""
        return any(
            data.tag in data_tags and data.get("key") in entry_keys and (data.text or "").strip().lower() == "true"
            for data in node
        )

    parsed = _graph_in_bulk(graph, node_tags, edge_tags, marks_entry)
    if parsed is not None:
        return parsed
    nodes: set[BlockId] = set()
    edges: set[Edge] = set()
    marked: list[BlockId] = []
    for el in graph:
        if el.tag in node_tags:
            nid = el.get("id")
            if nid is None:
                raise GraphSyntaxError("<node> without id attribute")
            check_block_id(nid)
            if nid in nodes:
                raise GraphSyntaxError(f"duplicate node id {nid!r}")
            nodes.add(nid)
            if marks_entry(el):
                marked.append(nid)
        elif el.tag in edge_tags:
            src, dst = el.get("source"), el.get("target")
            if src is None or dst is None:
                raise GraphSyntaxError("<edge> missing source or target")
            directed = el.get("directed", "true")
            if directed != "true":
                raise GraphSyntaxError(f"unsupported directed={directed!r} on edge {src!r} -> {dst!r}")
            if src not in nodes or dst not in nodes:
                raise GraphSyntaxError(f"edge {src!r} -> {dst!r} references undeclared node")
            if (src, dst) in edges:
                raise DuplicateEdgeError(f"duplicate edge {src} -> {dst}")
            edges.add((src, dst))
        # other elements (keys, data, desc) are tolerated and ignored
    return _parsed_graph(nodes, edges, marked)


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
    a swap names one block twice, and InvalidGraphError, as :func:`check_cfg`
    does, when the result is not a valid CFG. With ``prune=True`` an
    unreachable remainder is pruned instead of rejected.
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
    else:  # MutationKind.REMOVE_NODE
        (node,) = m.operands
        if node not in nodes:
            raise InvalidMutationError(f"node {node} not present")
        if node == entry:
            raise InvalidGraphError("cannot remove the entry node")
        nodes.remove(node)
        edges = {(s, d) for s, d in edges if s != node and d != node}
    return check_cfg(ControlFlowGraph(frozenset(nodes), frozenset(edges), entry), prune)
