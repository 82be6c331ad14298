from __future__ import annotations

from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfsig import (
    ControlFlowGraph,
    Mutation,
    generate_synthetic,
    mutate,
    parse_dot,
    parse_graphml,
    prune_unreachable,
    serialize_dot,
    serialize_graphml,
    validate_cfg,
)
from cfsig.cfg import _DOT_SPECIALS, _FORBIDDEN_ID_CHARS, _resolve_entry, _tokenize_dot, check_block_id
from cfsig.errors import (
    CfsigError,
    DuplicateEdgeError,
    GraphSyntaxError,
    InvalidMutationError,
    InvalidSpecError,
    ProducesInvalidGraphError,
    UnknownEntryError,
)

from .conftest import DOT_ALPHABET, dot_texts, fixture_graphs

DIAMOND = "digraph g { B1 -> B2; B1 -> B3; B2 -> B4; B3 -> B4; }"


def graphml(body: str) -> str:
    return f'<graphml><graph edgedefault="directed">{body}</graph></graphml>'


class Token(NamedTuple):
    text: str
    offset: int


def counted_position(text: str, offset: int) -> tuple[int, int]:
    """The 1-based (line, col) of *offset*, counted one character at a time."""
    line, col = 1, 1
    for ch in text[:offset]:
        line, col = (line + 1, 1) if ch == "\n" else (line, col + 1)
    return line, col


def reference_tokenize_dot(text: str) -> list[Token]:
    """The character-at-a-time DOT tokenizer, kept as the reference."""
    tokens: list[Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
        elif text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end < 0:
                raise GraphSyntaxError("unterminated block comment", *counted_position(text, i))
            i = end + 2
        elif text.startswith("->", i):
            tokens.append(Token("->", i))
            i += 2
        elif ch in _DOT_SPECIALS:
            tokens.append(Token(ch, i))
            i += 1
        elif ch in _FORBIDDEN_ID_CHARS:
            raise GraphSyntaxError(f"unexpected character {ch!r}", *counted_position(text, i))
        else:
            start = i
            while i < n and not text[i].isspace() and text[i] not in _FORBIDDEN_ID_CHARS:
                i += 1
            tokens.append(Token(text[start:i], start))
    return tokens


class ReferenceDotParser:
    """The token-cursor DOT parser that parse_dot replaced, kept as the reference."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = reference_tokenize_dot(text)
        self.pos = 0

    def error(self, message: str, tok: Token) -> GraphSyntaxError:
        return GraphSyntaxError(message, *counted_position(self.text, tok.offset))

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected: str | None = None) -> Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else Token("", 0)
            raise self.error(f"unexpected end of input, expected {expected or 'token'}", last)
        if expected is not None and tok.text != expected:
            raise self.error(f"expected {expected!r}, found {tok.text!r}", tok)
        self.pos += 1
        return tok

    def take_id(self) -> Token:
        tok = self.take()
        if tok.text in _DOT_SPECIALS or tok.text == "->":
            raise self.error(f"expected identifier, found {tok.text!r}", tok)
        return tok


def reference_parse_dot(text: str) -> ControlFlowGraph:
    p = ReferenceDotParser(text)
    kw = p.take()
    if kw.text != "digraph":
        raise p.error(f"expected 'digraph', found {kw.text!r}", kw)
    if p.peek() is not None and p.peek().text != "{":
        p.take_id()  # graph name, ignored
    p.take("{")

    nodes: set[str] = set()
    edges: set[tuple[str, str]] = set()
    marked: list[str] = []
    while True:
        tok = p.peek()
        if tok is None:
            raise GraphSyntaxError("missing closing '}'")
        if tok.text == "}":
            p.take()
            break
        first = p.take_id()
        nodes.add(first.text)
        nxt = p.peek()
        if nxt is not None and nxt.text == "->":
            p.take("->")
            second = p.take_id()
            nodes.add(second.text)
            edge = (first.text, second.text)
            if edge in edges:
                raise DuplicateEdgeError(f"duplicate edge {first.text} -> {second.text}")
            edges.add(edge)
        elif nxt is not None and nxt.text == "[":
            p.take("[")
            key = p.take_id()
            p.take("=")
            val = p.take_id()
            p.take("]")
            if key.text != "entry" or val.text != "true":
                raise p.error(f"unsupported attribute {key.text}={val.text}", key)
            marked.append(first.text)
        p.take(";")
    if p.peek() is not None:
        tok = p.peek()
        raise p.error(f"trailing input {tok.text!r}", tok)
    if not nodes:
        raise GraphSyntaxError("graph has no nodes")

    entry = _resolve_entry(nodes, edges, marked)
    return ControlFlowGraph(frozenset(nodes), frozenset(edges), entry)


def tokenize_outcome(tokenize, text: str):
    """Tokens as (text, offset) pairs, or the error's message and position."""
    try:
        return tokenize(text)
    except GraphSyntaxError as exc:
        return ("error", str(exc), exc.line, exc.col)


def parse_outcome(parse, text: str):
    """The parsed graph, or the error's type, message and position."""
    try:
        return parse(text)
    except CfsigError as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "line", None), getattr(exc, "col", None))


class TestParseDot:
    def test_diamond(self):
        g = parse_dot(DIAMOND)
        assert g.nodes == {"B1", "B2", "B3", "B4"}
        assert g.edges == {("B1", "B2"), ("B1", "B3"), ("B2", "B4"), ("B3", "B4")}
        assert g.entry == "B1"

    def test_single_node(self):
        g = parse_dot("digraph g { B1; }")
        assert g.nodes == {"B1"}
        assert g.edges == set()
        assert g.entry == "B1"

    def test_self_loop_parses_then_fails_validation(self):
        g = parse_dot("digraph g { B1 -> B1; }")
        assert g.nodes == {"B1"}
        report = validate_cfg(g)
        assert not report.ok
        assert any(v.kind == "SelfLoop" for v in report.violations)

    def test_comments_and_whitespace(self):
        text = "digraph g {\n // line comment\n B1 /* mid */ -> B2; B1->B3;B2->B4;\nB3 -> B4; }"
        assert parse_dot(text) == parse_dot(DIAMOND)

    def test_entry_attribute_wins(self):
        g = parse_dot("digraph g { B2 [entry=true]; B1 -> B2; B2 -> B1; }")
        assert g.entry == "B2"

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdgeError):
            parse_dot("digraph g { B1 -> B2; B1 -> B2; }")

    def test_unknown_entry_when_ambiguous(self):
        with pytest.raises(UnknownEntryError):
            parse_dot("digraph g { B1 -> B3; B2 -> B3; }")

    def test_unknown_entry_when_none(self):
        with pytest.raises(UnknownEntryError):
            parse_dot("digraph g { B1 -> B2; B2 -> B1; }")

    def test_syntax_error_positions(self):
        with pytest.raises(GraphSyntaxError) as exc:
            parse_dot("digraph g {\n B1 ->; }")
        assert exc.value.line == 2

    @pytest.mark.parametrize(
        "text,message,line,col",
        [
            (  # position counting resumes after a multi-line block comment
                "digraph g {\n/* one\n   two\n */ B1 -> ; }",
                "expected identifier, found ';'", 4, 11,
            ),
            (  # a line comment ends at, and does not consume, its newline
                "digraph g { // note\n  B1 -> B2 ]; }",
                "expected ';', found ']'", 2, 12,
            ),
            (  # reported at the comment opener
                "digraph g {\n  B1; /* never\n closed }",
                "unterminated block comment", 2, 7,
            ),
            ("digraph g {\n  B1 - B2; }", "unexpected character '-'", 2, 6),
            ("digraph g { B1 / B2; }", "unexpected character '/'", 1, 16),
            ("digraph g {\n\n   B1:p -> B2; }", "unexpected character ':'", 3, 6),
            (  # a no-break space separates tokens and counts as one column
                "digraph g { B1 ->\u00a0B2\u00a0}",
                "expected ';', found '}'", 1, 22,
            ),
        ],
    )
    def test_syntax_error_exact_positions(self, text, message, line, col):
        with pytest.raises(GraphSyntaxError) as exc:
            parse_dot(text)
        assert (str(exc.value), exc.value.line, exc.value.col) == (
            f"{message} (line {line}, col {col})", line, col
        )

    @given(st.text(alphabet=DOT_ALPHABET, max_size=60))
    @settings(max_examples=400, deadline=None)
    def test_tokenizer_matches_reference(self, text):
        assert tokenize_outcome(_tokenize_dot, text) == tokenize_outcome(
            reference_tokenize_dot, text
        )

    @given(st.text(alphabet=DOT_ALPHABET, max_size=60) | st.text(max_size=60))
    @settings(max_examples=400, deadline=None)
    def test_id_tokens_are_valid_block_ids(self, text):
        # parse_dot relies on this instead of calling check_block_id per id.
        try:
            tokens = _tokenize_dot(text)
        except GraphSyntaxError:
            return
        for tok, _ in tokens:
            if tok not in _DOT_SPECIALS and tok != "->":
                check_block_id(tok)

    def test_tokenizer_matches_reference_on_fixtures(self, fixtures_dir):
        for path in sorted(fixtures_dir.rglob("*.dot")):
            text = path.read_text()
            assert tokenize_outcome(_tokenize_dot, text) == tokenize_outcome(
                reference_tokenize_dot, text
            ), path.name

    @given(dot_texts)
    @settings(max_examples=400, deadline=None)
    def test_parser_matches_reference(self, text):
        assert parse_outcome(parse_dot, text) == parse_outcome(reference_parse_dot, text)

    @pytest.mark.parametrize(
        "text",
        ["", "digraph", "digraph }", "digraph g", "digraph {", "digraph g { B1 [entry=true] }",
         "digraph g { B1 [color", "digraph g { B1; } }", "digraph g { ; }", "x { B1; }"],
    )
    def test_parser_matches_reference_on_short_inputs(self, text):
        assert parse_outcome(parse_dot, text) == parse_outcome(reference_parse_dot, text)

    def test_parser_matches_reference_on_fixtures(self, fixtures_dir):
        for path in sorted(fixtures_dir.rglob("*.dot")):
            text = path.read_text()
            assert parse_outcome(parse_dot, text) == parse_outcome(
                reference_parse_dot, text
            ), path.name

    @pytest.mark.parametrize(
        "text",
        [
            "graph g { B1; }",
            "digraph g { B1 -> B2 }",
            "digraph g { }",
            "digraph g { B1 [color=red]; }",
            "digraph g { B1; } trailing",
        ],
    )
    def test_rejects_unsupported(self, text):
        with pytest.raises(GraphSyntaxError):
            parse_dot(text)


class TestParseGraphml:
    def test_format_agreement_on_all_fixtures(self, fixtures_dir):
        for dot_path in sorted(fixtures_dir.glob("*.dot")):
            gml_path = fixtures_dir / (dot_path.stem + ".graphml")
            assert parse_dot(dot_path.read_text()) == parse_graphml(gml_path.read_text())

    def test_dangling_edge_endpoint(self):
        text = (
            '<graphml><graph edgedefault="directed">'
            '<node id="X"/><edge source="X" target="Y"/></graph></graphml>'
        )
        with pytest.raises(GraphSyntaxError):
            parse_graphml(text)

    def test_explicit_entry_attribute(self):
        nodes = "".join(f'<node id="B{i}"/>' for i in range(1, 7))
        text = (
            '<graphml><graph edgedefault="directed">'
            + nodes
            + '<node id="B7"><data key="entry">true</data></node>'
            + "".join(f'<edge source="B7" target="B{i}"/>' for i in range(1, 7))
            + '<edge source="B1" target="B7"/>'
            "</graph></graphml>"
        )
        assert parse_graphml(text).entry == "B7"

    def test_namespaces_tolerated(self):
        text = (
            '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">'
            '<graph edgedefault="directed">'
            '<node id="B1"/><node id="B2"/>'
            '<edge source="B1" target="B2"/></graph></graphml>'
        )
        g = parse_graphml(text)
        assert g.entry == "B1" and g.edges == {("B1", "B2")}

    def test_undirected_rejected(self):
        with pytest.raises(GraphSyntaxError):
            parse_graphml(
                '<graphml><graph edgedefault="undirected"><node id="B1"/></graph></graphml>'
            )

    @pytest.mark.parametrize(
        "text,error,message",
        [
            ('<graph edgedefault="directed"><node id="B1"/></graph>', GraphSyntaxError,
             "expected <graphml> root, found <graph>"),
            ('<graphml><key id="entry"/></graphml>', GraphSyntaxError, "missing <graph> element"),
            (graphml("<node/>"), GraphSyntaxError, "<node> without id attribute"),
            (graphml('<node id="B1"/><node id="B1"/>'), GraphSyntaxError, "duplicate node id 'B1'"),
            (graphml('<node id="B1"/><edge target="B1"/>'), GraphSyntaxError, "<edge> missing source or target"),
            (graphml('<node id="B1"/><node id="B2"/>' + '<edge source="B1" target="B2"/>' * 2),
             DuplicateEdgeError, "duplicate edge B1 -> B2"),
            (graphml(""), GraphSyntaxError, "graph has no nodes"),
        ],
        ids=["root", "no-graph", "node-id", "duplicate-node", "edge-source", "duplicate-edge", "no-nodes"],
    )
    def test_rejects(self, text, error, message):
        with pytest.raises(error, match=message):
            parse_graphml(text)

    def test_entry_key_alias(self):
        # Each node has an in-edge, so only the marker can name the entry.
        text = (
            '<graphml><key id="d0" for="node" attr.name="entry"/>'
            '<graph edgedefault="directed">'
            '<node id="B1"/><node id="B2"><data key="d0">true</data></node>'
            '<edge source="B1" target="B2"/><edge source="B2" target="B1"/>'
            "</graph></graphml>"
        )
        assert parse_graphml(text).entry == "B2"


class TestValidate:
    def test_diamond_ok(self, diamond):
        assert validate_cfg(diamond).ok

    def test_unreachable_node(self, diamond):
        g = ControlFlowGraph(diamond.nodes | {"B9"}, diamond.edges, diamond.entry)
        report = validate_cfg(g)
        assert [str(v) for v in report.violations] == ["UnreachableNode(B9)"]
        assert validate_cfg(prune_unreachable(g)).ok

    def test_self_loop_violation(self, diamond):
        g = ControlFlowGraph(diamond.nodes, diamond.edges | {("B4", "B4")}, "B1")
        assert any(str(v) == "SelfLoop(B4)" for v in validate_cfg(g).violations)

    def test_violation_order(self):
        g = ControlFlowGraph(
            {"B1", "B2", "B3", "B4"}, {("B3", "B3"), ("B1", "B2"), ("B2", "B2")}, "B1"
        )
        assert [str(v) for v in validate_cfg(g).violations] == [
            "SelfLoop(B2)", "SelfLoop(B3)", "UnreachableNode(B3)", "UnreachableNode(B4)",
        ]

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_reachable_from_entry_is_the_naive_fixpoint(self, data):
        n = data.draw(st.integers(min_value=1, max_value=10))
        names = [f"B{i}" for i in range(n)]
        pairs = [(a, b) for a in names for b in names]
        edges = data.draw(st.sets(st.sampled_from(pairs)))
        g = ControlFlowGraph(frozenset(names), frozenset(edges), data.draw(st.sampled_from(names)))
        seen = {g.entry}
        changed = True
        while changed:
            changed = False
            for src, dst in g.edges:
                if src in seen and dst not in seen:
                    seen.add(dst)
                    changed = True
        assert g.reachable_from_entry() == seen


class TestRoundTrip:
    @pytest.mark.parametrize("name,graph", fixture_graphs())
    def test_dot_round_trip(self, name, graph):
        assert parse_dot(serialize_dot(graph)) == graph

    @pytest.mark.parametrize("name,graph", fixture_graphs())
    def test_graphml_round_trip(self, name, graph):
        assert parse_graphml(serialize_graphml(graph)) == graph


class TestGenerateSynthetic:
    def test_single_node(self):
        g = generate_synthetic(1, 0.0, seed=42)
        assert len(g.nodes) == 1 and not g.edges

    def test_deterministic(self):
        assert generate_synthetic(6, 0.3, seed=7) == generate_synthetic(6, 0.3, seed=7)
        a = serialize_dot(generate_synthetic(6, 0.3, seed=7))
        b = serialize_dot(generate_synthetic(6, 0.3, seed=7))
        assert a == b

    def test_seed_changes_edges(self):
        # frozen after first computation: these two seeds diverge
        assert generate_synthetic(6, 0.3, seed=7).edges != generate_synthetic(6, 0.3, seed=8).edges

    @pytest.mark.parametrize("bad", [(0, 0.5, 1), (3, -0.1, 1), (3, 1.5, 1)])
    def test_invalid_spec(self, bad):
        with pytest.raises(InvalidSpecError):
            generate_synthetic(*bad)

    @given(
        st.integers(min_value=1, max_value=12),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=2**63 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_always_valid(self, n, density, seed):
        assert validate_cfg(generate_synthetic(n, density, seed)).ok


class TestMutate:
    def test_add_edge(self, diamond):
        g = mutate(diamond, Mutation.add_edge("B2", "B3"))
        assert len(g.edges) == 5 and validate_cfg(g).ok

    def test_remove_edge_keeps_reachability(self, diamond):
        g = mutate(diamond, Mutation.remove_edge("B3", "B4"))
        assert validate_cfg(g).ok  # B4 still reachable through B2

    def test_remove_entry_rejected(self, diamond):
        with pytest.raises(ProducesInvalidGraphError):
            mutate(diamond, Mutation.remove_node("B1"))

    def test_input_unchanged(self, diamond):
        before = (frozenset(diamond.nodes), frozenset(diamond.edges), diamond.entry)
        mutate(diamond, Mutation.add_edge("B4", "B1"))
        assert (frozenset(diamond.nodes), frozenset(diamond.edges), diamond.entry) == before

    def test_missing_operand(self, diamond):
        with pytest.raises(InvalidMutationError):
            mutate(diamond, Mutation.remove_edge("B2", "B3"))

    @pytest.mark.parametrize(
        "spec,message",
        [
            ("AddEdge:B1>B9", "AddEdge endpoints must exist: B1>B9"),
            ("AddEdge:B1>B2", "edge B1>B2 already present"),
            ("RedirectEdge:B2>B3>B4", "edge B2>B3 not present"),
            ("RedirectEdge:B1>B2>B9", "redirect target B9 not a node"),
            ("RedirectEdge:B1>B2>B3", "edge B1>B3 already present"),
            ("SwapNodeIds:B1,B9", "swap operands must exist: B1,B9"),
        ],
    )
    def test_operand_errors(self, diamond, spec, message):
        with pytest.raises(InvalidMutationError, match=message):
            mutate(diamond, Mutation.parse(spec))

    def test_disconnect_rejected_unless_pruned(self):
        g = parse_dot("digraph g { B1 -> B2; B2 -> B3; }")
        m = Mutation.remove_edge("B2", "B3")
        with pytest.raises(ProducesInvalidGraphError):
            mutate(g, m)
        pruned = mutate(g, m, prune=True)
        assert pruned.nodes == {"B1", "B2"}

    def test_swap_and_redirect(self, diamond):
        swapped = mutate(diamond, Mutation.swap_node_ids("B2", "B3"))
        assert swapped.nodes == diamond.nodes and len(swapped.edges) == 4
        redirected = mutate(diamond, Mutation.redirect_edge("B3", "B4", "B2"))
        assert ("B3", "B2") in redirected.edges and ("B3", "B4") not in redirected.edges

    def test_parse_round_trip(self):
        for spec in ["AddEdge:B2>B3", "RemoveEdge:B3>B4", "RedirectEdge:B3>B4>B2",
                     "SwapNodeIds:B2,B3", "RemoveNode:B4"]:
            assert str(Mutation.parse(spec)) == spec
        with pytest.raises(InvalidMutationError):
            Mutation.parse("Frobnicate:B1")
