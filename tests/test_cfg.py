from __future__ import annotations

import random
import xml.etree.ElementTree as ET
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfsig import (
    ControlFlowGraph,
    Mutation,
    Scenario,
    arborescence,
    cfg,
    load_graph,
    mutate,
    parse_dot,
    parse_graphml,
    peel_edge_disjoint,
    prune_unreachable,
    serialize_dot,
    validate_cfg,
)
from cfsig.cfg import (
    _DOT_SPECIALS,
    _FORBIDDEN_ID_CHARS,
    _parsed_graph,
    _token_offsets,
    _tokenize_dot,
    check_block_id,
)
from cfsig.errors import (
    CfsigError,
    DuplicateEdgeError,
    GraphSyntaxError,
    InvalidGraphError,
    InvalidMutationError,
    ScenarioError,
    UnknownEntryError,
)

from .conftest import DOT_ALPHABET, UNREACHABLE_DOT, dot_texts, fixture_graphs, generate_synthetic, reachable_from, serialize_graphml

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
    return _parsed_graph(nodes, edges, marked)


def _local_name(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def reference_parse_graphml(text: str) -> ControlFlowGraph:
    """parse_graphml as it was before its one-pass rewrite, which must agree with it."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise GraphSyntaxError(f"not well-formed XML: {exc}") from exc
    if _local_name(root.tag) != "graphml":
        raise GraphSyntaxError(f"expected <graphml> root, found <{_local_name(root.tag)}>")

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

    nodes: set[str] = set()
    edges: set[tuple[str, str]] = set()
    marked: list[str] = []
    for el in graph:
        tag = _local_name(el.tag)
        if tag == "node":
            nid = el.get("id")
            if nid is None:
                raise GraphSyntaxError("<node> without id attribute")
            if not nid:
                raise GraphSyntaxError("empty block id")
            for ch in nid:
                if ch.isspace() or ch in _FORBIDDEN_ID_CHARS:
                    raise GraphSyntaxError(f"illegal character {ch!r} in block id {nid!r}")
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
            directed = el.get("directed", "true")
            if directed != "true":
                raise GraphSyntaxError(f"unsupported directed={directed!r} on edge {src!r} -> {dst!r}")
            if src not in nodes or dst not in nodes:
                raise GraphSyntaxError(f"edge {src!r} -> {dst!r} references undeclared node")
            if (src, dst) in edges:
                raise DuplicateEdgeError(f"duplicate edge {src} -> {dst}")
            edges.add((src, dst))
    return _parsed_graph(nodes, edges, marked)


# Valid ids, some non-ASCII, and ids that are forbidden (whitespace, ",",
# empty); keys that alias the entry or not.
GRAPHML_VALID_IDS = ["B1", "B2", "B3", "B4", "B5", "B\u00e9", "\u65e5"]
GRAPHML_IDS = [*GRAPHML_VALID_IDS, "B 5", "B,6", ""]
GRAPHML_KEYS = ["entry", "d0", "d1", ""]
# Characters whose insertion breaks a tag, renames an element or attribute, or
# makes an id invalid.
GRAPHML_ALPHABET = '<>/="!:,{} \t\ngdenokyB1\u00e9'

# graphml_texts draws only from these, built once: building strategies inside
# each example costs more than the example.
_GML = {
    "ids": {False: st.sampled_from(GRAPHML_VALID_IDS), True: st.sampled_from(GRAPHML_IDS)},
    "prefix": st.sampled_from(["", "g:"]),
    "key": st.sampled_from(GRAPHML_KEYS),
    "key_name": st.sampled_from(["entry", "color"]),
    "value": st.sampled_from(["true", " True ", "false", ""]),
    "item": st.sampled_from(["node", "edge", "edge", "desc", "data"]),
    "tidy_item": st.sampled_from(["edge", "edge", "desc", "data"]),
    "edge_id": st.sampled_from([None, "e0", "e1"]),
    "directed": st.sampled_from([None, "true", "true", "false"]),
    "flaw": st.sampled_from([None] * 6 + ["root", "no-graph", "undirected"]),
    "xmlns": st.sampled_from(["", ' xmlns="http://graphml.graphdrawing.org/xmlns"']),
    "partial": st.sampled_from([False, False, True]),
}


@st.composite
def graphml_texts(draw) -> str:
    """GraphML documents over the subset's elements, most of them with a <graph>.

    Each element is either unprefixed or in the "g:" prefix, and the root may
    also declare a default namespace. After a few nodes, nodes, edges, <desc>
    and <data> come in any order, so an edge may precede the nodes it names,
    and an element may repeat. A tidy document is laid out as exporters write
    one: all its elements take one prefix, after its nodes come no more
    nodes, and every edge joins two of them and follows them all. An edge
    may carry an id and a "directed" of "true" or "false". A document draws
    its ids either from the valid ones only or from all of them, and its
    elements may miss attributes only if it is partial.
    """
    ids, partial, tidy = _GML["ids"][draw(st.booleans())], draw(_GML["partial"]), draw(st.booleans())
    prefix = draw(_GML["prefix"])

    def element(name: str, attrs: dict, body: str = "") -> str:
        """<name> with each of *attrs* (name to a zero-argument value maker; None leaves it out)."""
        values = {k: v for k, make in attrs.items() if (v := make()) is not None}
        if partial and draw(st.booleans()):
            values = {k: v for k, v in values.items() if draw(st.booleans())}
        t = (prefix if tidy else draw(_GML["prefix"])) + name
        text = "".join(f' {k}="{v}"' for k, v in values.items())
        return f"<{t}{text}>{body}</{t}>" if body else f"<{t}{text}/>"

    def data() -> str:
        return element("data", {"key": lambda: draw(_GML["key"])}, draw(_GML["value"]))

    def node(make_id) -> str:
        return element("node", {"id": make_id}, "".join(data() for _ in range(draw(st.integers(0, 2)))))

    declared = list(dict.fromkeys(draw(ids) for _ in range(draw(st.integers(0, 4)))))
    endpoint = lambda: draw(st.sampled_from(declared)) if declared and (tidy or draw(st.booleans())) else draw(ids)
    items = [node(lambda: nid) for nid in declared]
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(_GML["tidy_item" if tidy else "item"])
        items.append(
            node(lambda: draw(ids)) if kind == "node"
            else element("edge", {"id": lambda: draw(_GML["edge_id"]), "source": endpoint, "target": endpoint,
                                  "directed": lambda: draw(_GML["directed"])}) if kind == "edge"
            else element("desc", {}, "a comment") if kind == "desc"
            else data()
        )
    if items:  # a repeated element, often a duplicate edge
        items += [draw(st.sampled_from(items)) for _ in range(draw(st.integers(0, 2)))]
    if tidy:  # every edge after every node, a repeated one too
        items.sort(key=lambda item: item.startswith(("<edge", "<g:edge")))
    flaw = draw(_GML["flaw"])
    edgedefault = lambda: "undirected" if flaw == "undirected" else "directed"
    graph = "" if flaw == "no-graph" else element("graph", {"edgedefault": edgedefault}, "".join(items))

    def keys() -> str:
        attrs = {"id": lambda: draw(_GML["key"]), "attr.name": lambda: draw(_GML["key_name"])}
        return "".join(element("key", {**attrs, "for": lambda: "node"}) for _ in range(draw(st.integers(0, 2))))

    root = "graph" if flaw == "root" else draw(_GML["prefix"]) + "graphml"
    return (f'<{root}{draw(_GML["xmlns"])} xmlns:g="http://graphml.graphdrawing.org/xmlns">'
            + keys() + graph + keys() + f"</{root}>")


def tokens_with_offsets(text: str) -> list[Token]:
    """_tokenize_dot's tokens before its end marker, each with its offset."""
    tokens = _tokenize_dot(text)
    assert tokens.index("") == len(tokens) - 1  # exactly one end marker, last
    return list(map(Token, tokens[:-1], _token_offsets(text, tokens[:-1])))


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
            (  # a statement's text inside an earlier comment is not its token
                "digraph g { /* B1 B2; */ B1 B2; }",
                "expected ';', found 'B2'", 1, 29,
            ),
            ("digraph g {\n/* a\n b */ B1 -> B2;\n B2 <B3; }", "unexpected character '<'", 4, 5),
            ("digraph g { B1/* never closed", "unterminated block comment", 1, 15),
            ("digraph g { B1 -/* c */> B2; }", "unexpected character '-'", 1, 16),
            ("digraph g { B1/x; }", "unexpected character '/'", 1, 15),
            (  # an ideographic space before B1 and after ";"
                "digraph g {\u3000B1 -> ;\u3000}",
                "expected identifier, found ';'", 1, 19,
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
        assert tokenize_outcome(tokens_with_offsets, text) == tokenize_outcome(
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
        assert tokens[-1] == ""
        for tok in tokens[:-1]:
            if tok not in _DOT_SPECIALS and tok != "->":
                check_block_id(tok)

    def test_tokenizer_matches_reference_on_fixtures(self, fixtures_dir):
        for path in sorted(fixtures_dir.rglob("*.dot")):
            text = path.read_text()
            assert tokenize_outcome(tokens_with_offsets, text) == tokenize_outcome(
                reference_tokenize_dot, text
            ), path.name

    @pytest.mark.parametrize(
        "text,tokens",
        [
            ("digraph g { B1; }", ["digraph", "g", "{", "B1", ";", "}", ""]),
            ("digraph g { B1; } \n", ["digraph", "g", "{", "B1", ";", "}", ""]),
            ("digraph g { B1; } // end", ["digraph", "g", "{", "B1", ";", "}", ""]),
            ("digraph g { B1; } /* end */", ["digraph", "g", "{", "B1", ";", "}", ""]),
            ("", [""]),
            (" \n", [""]),
            ("// end", [""]),
            ("/* end */", [""]),
            # A comment parts the tokens on either side; ids may hold "*".
            ("B1/*c*/B2", ["B1", "B2", ""]),
            ("B1//c\nB2", ["B1", "B2", ""]),
            ("a*/*x*/", ["a*", ""]),
            ("/*a*/B1/*b*/B2", ["B1", "B2", ""]),  # a block comment ends at its first "*/"
        ],
    )
    def test_tokens_end_with_one_end_marker(self, text, tokens):
        # Whitespace or a comment before the end adds no second end marker.
        assert _tokenize_dot(text) == tokens

    @given(dot_texts)
    @settings(max_examples=400, deadline=None)
    def test_parser_matches_reference(self, text):
        assert parse_outcome(parse_dot, text) == parse_outcome(reference_parse_dot, text)

    @pytest.mark.parametrize(
        "text",
        ["", "digraph", "digraph }", "digraph g", "digraph {", "digraph g { B1 [entry=true] }",
         "digraph g { B1 [color", "digraph g { B1; } }", "digraph g { ; }", "x { B1; }",
         "// a /*\n B1 */", "B1 -/* c */> B2"],
    )
    def test_parser_matches_reference_on_short_inputs(self, text):
        assert parse_outcome(parse_dot, text) == parse_outcome(reference_parse_dot, text)

    def test_parser_matches_reference_on_fixtures(self, fixtures_dir):
        for path in sorted(fixtures_dir.rglob("*.dot")):
            text = path.read_text()
            assert parse_outcome(parse_dot, text) == parse_outcome(
                reference_parse_dot, text
            ), path.name

    def test_parser_matches_reference_on_edited_fixtures(self, fixtures_dir):
        # One deleted, inserted or truncating edit per case puts errors deep
        # inside real-size texts, where offsets are looked up only on error.
        texts = [path.read_text() for path in sorted(fixtures_dir.rglob("*.dot"))]
        rng = random.Random(20161)
        for _ in range(2000):
            text = rng.choice(texts)
            at = rng.randrange(len(text) + 1)
            edit = rng.choice(["delete", "insert", "truncate"])
            if edit == "delete":
                text = text[:at] + text[at + 1:]
            elif edit == "insert":
                text = text[:at] + rng.choice(DOT_ALPHABET) + text[at:]
            else:
                text = text[:at]
            assert parse_outcome(parse_dot, text) == parse_outcome(reference_parse_dot, text), (edit, at)

    def test_valid_dot_never_looks_up_offsets(self, fixtures_dir, monkeypatch):
        def unused(text, tokens):
            raise AssertionError("token offsets were looked up for valid DOT")

        texts = [path.read_text() for path in sorted(fixtures_dir.rglob("*.dot"))]
        texts.append("digraph g {\n // B9;\n B1 /* B9; */ -> B2; /* B9 */ B1->B3;B2->B4;\nB3 -> B4; }")
        large = generate_synthetic(800, 2.5 / 800, 1)
        texts.append(serialize_dot(large))
        graphs = [reference_parse_dot(text) for text in texts]
        with monkeypatch.context() as patched:
            patched.setattr(cfg, "_token_offsets", unused)
            assert [parse_dot(text) for text in texts] == graphs
        # An error deep in the same text is found at the reference's position.
        at = texts[-1].rindex("->")
        bad = texts[-1][:at] + "-" + texts[-1][at + 2:]
        assert parse_outcome(parse_dot, bad) == parse_outcome(reference_parse_dot, bad)
        assert parse_outcome(parse_dot, bad)[1].startswith("unexpected character '-'")

    def test_repeated_entry_marker_on_one_block(self):
        g = parse_dot("digraph g { B1 [entry=true]; B1 [entry=true]; B1 -> B2; }")
        assert g.entry == "B1"
        with pytest.raises(UnknownEntryError) as exc:
            parse_dot("digraph g { B2 [entry=true]; B1 [entry=true]; B2 [entry=true]; B1 -> B2; }")
        assert str(exc.value) == "multiple nodes marked as entry: ['B1', 'B2']"

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
            (graphml('<node id="B 5"/>'), GraphSyntaxError, "illegal character ' ' in block id 'B 5'"),
            (graphml('<node id="B&#9;5"/>'), GraphSyntaxError, r"illegal character '\t' in block id 'B\t5'"),
            (graphml('<node id="B,6"/>'), GraphSyntaxError, "illegal character ',' in block id 'B,6'"),
            (graphml('<node id=""/>'), GraphSyntaxError, "empty block id"),
            (graphml('<node id="B1"><data key="entry">true</data></node><node id=""/>'), GraphSyntaxError,
             "empty block id"),
            (graphml('<node id="A"/><edge source="A" target="B"/><node id="B"/>'), GraphSyntaxError,
             "edge 'A' -> 'B' references undeclared node"),
            (graphml('<node id="A"/><node id="B"/><edge source="A" target="B" directed="false"/>'),
             GraphSyntaxError, "unsupported directed='false' on edge 'A' -> 'B'"),
        ],
        ids=["root", "no-graph", "node-id", "duplicate-node", "edge-source", "duplicate-edge", "no-nodes",
             "space-id", "tab-id", "comma-id", "empty-id", "empty-id-after-entry", "edge-before-node",
             "undirected-edge"],
    )
    def test_rejects(self, text, error, message):
        with pytest.raises(error) as exc:
            parse_graphml(text)
        assert str(exc.value) == message

    def test_directed_edge_attribute(self):
        text = graphml('<node id="A"/><node id="B"/><edge source="A" target="B" directed="true"/>')
        assert parse_graphml(text).edges == {("A", "B")}

    @given(graphml_texts())
    @settings(max_examples=400, deadline=None)
    def test_parser_matches_reference(self, text):
        assert parse_outcome(parse_graphml, text) == parse_outcome(reference_parse_graphml, text)

    def test_parser_matches_reference_on_edited_graphs(self, fixtures_dir):
        # One deleted, inserted or truncating edit per case, in every fixture
        # and bench-corpus graph as serialize_graphml writes it.
        texts = [serialize_graphml(parse_dot(path.read_text())) for path in sorted(fixtures_dir.rglob("*.dot"))]
        rng = random.Random(20162)
        for _ in range(2000):
            text = rng.choice(texts)
            at = rng.randrange(len(text) + 1)
            edit = rng.choice(["delete", "insert", "truncate"])
            if edit == "delete":
                text = text[:at] + text[at + 1:]
            elif edit == "insert":
                text = text[:at] + rng.choice(GRAPHML_ALPHABET) + text[at:]
            else:
                text = text[:at]
            assert parse_outcome(parse_graphml, text) == parse_outcome(reference_parse_graphml, text), (edit, at)

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

    def test_entry_key_alias_declared_after_graph(self):
        text = (
            '<graphml><graph edgedefault="directed">'
            '<node id="B1"/><node id="B2"><data key="d0">true</data></node>'
            '<edge source="B1" target="B2"/><edge source="B2" target="B1"/>'
            '</graph><key id="d0" for="node" attr.name="entry"/></graphml>'
        )
        assert parse_graphml(text).entry == "B2"

    def test_entry_marked_under_both_keys(self):
        text = (
            '<graphml><key id="d0" for="node" attr.name="entry"/>'
            '<graph edgedefault="directed">'
            '<node id="B1"/><node id="B2"><data key="entry">true</data><data key="d0">true</data></node>'
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

    @pytest.mark.parametrize(
        "nodes,edges,entry,message",
        [
            ({"B1"}, set(), "B2", "entry 'B2' is not a declared node"),
            ({"B1"}, {("B1", "B2")}, "B1", "edge 'B1' -> 'B2' has undeclared endpoint"),
        ],
    )
    def test_undeclared_names_rejected(self, nodes, edges, entry, message):
        with pytest.raises(GraphSyntaxError) as exc:
            ControlFlowGraph(nodes, edges, entry)
        assert str(exc.value) == message

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
        assert set(g.bfs_parents) == seen
        assert reachable_from(g.entry, g.edges) == seen
        assert all(parent is None or (parent, node) in g.edges for node, parent in g.bfs_parents.items())
        loops = sorted(src for src, dst in g.edges if src == dst)  # drawn from pairs that include (a, a)
        assert [v.subject for v in validate_cfg(g).violations if v.kind == "SelfLoop"] == loops


class TestCachedTraversal:
    """Each graph value builds its successor index and BFS tree at most once,
    and the cache is invisible to equality, hashing and mutation."""

    def test_cache_leaves_value_semantics(self):
        for name, g in fixture_graphs():
            fresh = ControlFlowGraph(g.nodes, g.edges, g.entry)
            assert validate_cfg(g).ok and len(peel_edge_disjoint(g)) == 1, name
            assert {"successors", "bfs_parents"} <= set(vars(g)), name
            assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh), name
            assert {g: name}[fresh] == name

    def test_mutate_returns_a_graph_with_its_own_cache(self, diamond):
        assert diamond.bfs_parents == {"B1": None, "B2": "B1", "B3": "B1", "B4": "B2"}
        tampered = mutate(diamond, Mutation.parse("RemoveEdge:B2>B4"))
        assert tampered.bfs_parents == {"B1": None, "B2": "B1", "B3": "B1", "B4": "B3"}
        assert diamond.bfs_parents["B4"] == "B2"

    def test_removing_a_tree_edge_moves_the_parent(self, fixtures_dir):
        for path in sorted(fixtures_dir.glob("**/*.dot")):
            name, g = path.stem, parse_dot(path.read_text())
            for dst, src in g.bfs_parents.items():
                if src is None:
                    continue
                try:
                    tampered = mutate(g, Mutation.parse(f"RemoveEdge:{src}>{dst}"))
                except InvalidGraphError:
                    continue
                assert tampered.bfs_parents[dst] != src, (name, src, dst)
                assert set(tampered.bfs_parents) == g.nodes, (name, src, dst)

    def test_validate_peel_and_prune_run_one_full_bfs(self, monkeypatch):
        full = []
        real = cfg.bfs_tree

        def counting(g, available=None):
            if available is None:
                full.append(g)
            return real(g, available)

        monkeypatch.setattr(cfg, "bfs_tree", counting)
        monkeypatch.setattr(arborescence, "bfs_tree", counting)
        for name, g in fixture_graphs():
            full.clear()
            assert validate_cfg(g).ok
            assert len(peel_edge_disjoint(g)) == 1
            assert prune_unreachable(g) == g
            assert len(full) == 1 and full[0] is g, name


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
        with pytest.raises(ValueError):
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
        g = mutate(diamond, Mutation.parse("AddEdge:B2>B3"))
        assert len(g.edges) == 5 and validate_cfg(g).ok

    def test_remove_edge_keeps_reachability(self, diamond):
        g = mutate(diamond, Mutation.parse("RemoveEdge:B3>B4"))
        assert validate_cfg(g).ok  # B4 still reachable through B2

    def test_remove_entry_rejected(self, diamond):
        with pytest.raises(InvalidGraphError):
            mutate(diamond, Mutation.parse("RemoveNode:B1"))

    def test_input_unchanged(self, diamond):
        before = (frozenset(diamond.nodes), frozenset(diamond.edges), diamond.entry)
        mutate(diamond, Mutation.parse("AddEdge:B4>B1"))
        assert (frozenset(diamond.nodes), frozenset(diamond.edges), diamond.entry) == before

    def test_missing_operand(self, diamond):
        with pytest.raises(InvalidMutationError):
            mutate(diamond, Mutation.parse("RemoveEdge:B2>B3"))

    @pytest.mark.parametrize(
        "spec,message",
        [
            ("AddEdge:B1>B9", "AddEdge endpoints must exist: B1>B9"),
            ("AddEdge:B1>B2", "edge B1>B2 already present"),
            ("RedirectEdge:B2>B3>B4", "edge B2>B3 not present"),
            ("RedirectEdge:B1>B2>B9", "redirect target B9 not a node"),
            ("RedirectEdge:B1>B2>B3", "edge B1>B3 already present"),
            ("SwapNodeIds:B1,B9", "swap operands must exist: B1,B9"),
            ("SwapNodeIds:B2,B2", "swap operands must differ: B2,B2"),
            ("RemoveNode:B9", "node B9 not present"),
        ],
    )
    def test_operand_errors(self, diamond, spec, message):
        with pytest.raises(InvalidMutationError, match=message):
            mutate(diamond, Mutation.parse(spec))

    def test_disconnect_rejected_unless_pruned(self):
        g = parse_dot("digraph g { B1 -> B2; B2 -> B3; }")
        m = Mutation.parse("RemoveEdge:B2>B3")
        with pytest.raises(InvalidGraphError):
            mutate(g, m)
        pruned = mutate(g, m, prune=True)
        assert pruned.nodes == {"B1", "B2"}

    def test_one_rejection_for_an_unreachable_block(self, tmp_path):
        """Loading, tampering and a round's scenario reject the same graph in the same words."""
        path = tmp_path / "unreachable.dot"
        path.write_text(UNREACHABLE_DOT)  # B1 -> B2, and B3 on its own
        chain = parse_dot("digraph g { B1 -> B2; B2 -> B3; }")
        rejections = []
        for reject in (
            lambda: load_graph(path),
            lambda: mutate(chain, Mutation.parse("RemoveEdge:B2>B3")),
            lambda: Scenario("unreachable", parse_dot(UNREACHABLE_DOT)),
        ):
            with pytest.raises(CfsigError) as exc:
                reject()
            rejections.append((type(exc.value), str(exc.value)))
        message = "invalid CFG: UnreachableNode(B3)"
        assert rejections == [(InvalidGraphError, message), (InvalidGraphError, message), (ScenarioError, message)]

    def test_swap_and_redirect(self, diamond):
        swapped = mutate(diamond, Mutation.parse("SwapNodeIds:B2,B3"))
        assert swapped.nodes == diamond.nodes and len(swapped.edges) == 4
        redirected = mutate(diamond, Mutation.parse("RedirectEdge:B3>B4>B2"))
        assert ("B3", "B2") in redirected.edges and ("B3", "B4") not in redirected.edges

    def test_parse_round_trip(self):
        for spec in ["AddEdge:B2>B3", "RemoveEdge:B3>B4", "RedirectEdge:B3>B4>B2",
                     "SwapNodeIds:B2,B3", "RemoveNode:B4"]:
            assert str(Mutation.parse(spec)) == spec
        with pytest.raises(InvalidMutationError):
            Mutation.parse("Frobnicate:B1")

    @pytest.mark.parametrize(
        "spec", ["RemoveEdge:B1", "AddEdge:B1>", "RedirectEdge:B1>B2", "SwapNodeIds:B1,B2,B3", "RemoveNode:"]
    )
    def test_parse_rejects_bad_operands(self, spec):
        with pytest.raises(InvalidMutationError) as exc:
            Mutation.parse(spec)
        assert str(exc.value) == f"bad operands in mutation spec {spec!r}"
