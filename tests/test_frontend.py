import copy
import pickle
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from basts.frontend import (
    MAX_NESTING,
    LexError,
    ParseError,
    StmtKind,
    Token,
    TokenKind,
    abstract_literals,
    ast_to_json,
    build_ast,
    iter_nodes,
    parse_method,
    parse_program,
    split_identifier,
    tokenize,
    tokenize_comment,
)
from conftest import IDLE_CONNECTIONS_SOURCE, nested_ifs, nested_parens, parse_source
from oracles import tokenize_per_char

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from minigen import generate_records  # noqa: E402
from workloads import MEDIUM_PROFILE, PREP_PROFILE, SMALL_PROFILE  # noqa: E402


def lex(source):
    return tokenize(source)


class TestTokenize:
    def test_four_lexemes(self):
        toks = lex("x = 42;")
        assert [(t.text, t.kind) for t in toks] == [
            ("x", TokenKind.IDENTIFIER),
            ("=", TokenKind.OPERATOR),
            ("42", TokenKind.NUMBER_LIT),
            (";", TokenKind.PUNCT),
        ]

    def test_empty_input(self):
        assert lex("") == []

    def test_if_return_true(self):
        toks = lex("if (flag) { return true; }")
        assert len(toks) == 9
        assert [t.text for t in toks] == [
            "if", "(", "flag", ")", "{", "return", "true", ";", "}",
        ]
        assert toks[6].kind is TokenKind.BOOL_LIT
        assert toks[0].kind is TokenKind.KEYWORD

    def test_string_and_comments(self):
        toks = lex('s = "hi // not a comment"; // trailing\n/* block */ y')
        assert [t.text for t in toks] == ["s", "=", '"hi // not a comment"', ";", "y"]
        assert toks[2].kind is TokenKind.STRING_LIT

    def test_two_char_operators(self):
        toks = lex("a <= b && c != d || e >= f == g")
        ops = [t.text for t in toks if t.kind is TokenKind.OPERATOR]
        assert ops == ["<=", "&&", "!=", "||", ">=", "=="]

    def test_lex_error_carries_offset(self):
        with pytest.raises(LexError) as err:
            lex("x = @;")
        assert err.value.offset == 4

    @pytest.mark.parametrize("src, offset", [
        ("int é = 1;", 4),     # a non-ASCII letter starts no identifier
        ("int aé = 1;", 5),    # ... and continues none
        ("x = ٣;", 4),         # Arabic-Indic digit
        ("x = ²;", 4),         # superscript two
        ("x = 1٣;", 5),        # a non-ASCII digit continues no number
        ("x = 1.٣;", 6),       # ... nor a fraction: "1", ".", then the digit
    ])
    def test_non_ascii_letters_and_digits_rejected(self, src, offset):
        with pytest.raises(LexError) as err:
            lex(src)
        assert err.value.offset == offset

    def test_roundtrip_lexical_content(self):
        src = "int x = 3 ; x = x + 1 ; f ( x , \"s\" ) ;"
        assert " ".join(t.text for t in lex(src)) == src

    @pytest.mark.parametrize("src, message, offset", [
        ('x = "abc;', "unterminated string literal", 4),
        ('x = "a\\";', "unterminated string literal", 4),  # the escape eats the quote
        ("x = 1; /* y", "unterminated block comment", 7),
        ("x /*/ y", "unterminated block comment", 2),
        ("x = a & b;", "unrecognized character '&'", 6),
    ])
    def test_lex_error_messages(self, src, message, offset):
        with pytest.raises(LexError) as err:
            lex(src)
        assert str(err.value) == f"{message} at offset {offset}"
        assert err.value.offset == offset

    def test_slash_before_star_and_slash(self):
        assert [t.text for t in lex("a / b // c\n/* d */ e /f")] == [
            "a", "/", "b", "e", "/", "f",
        ]


def lex_outcome(lexer, source):
    """The token list, or the LexError's message and offset."""
    try:
        return lexer(source)
    except LexError as err:
        return (str(err), err.offset)


# Characters where the lexer's alternatives meet, and the non-ASCII
# letters, digits and spaces that `str.isspace` and `\s` must agree on.
LEX_ALPHABET = 'aZ_x09.5"\\/*=<>!&|+-%(){};,. \t\n\x1c\u00a0\u2028é²٣@'
LEX_FRAGMENTS = [
    "if", "else", "while", "true", "false", "return", "//", "/*", "*/",
    '"', '\\"', "\\\n", '"\\\n"', '"\\""',  # escapes in and out of strings
    "1.5", "2.", "==", "!=", "<=", ">=", "&&", "||", " ", "\n",
]
lex_sources = st.one_of(
    st.text(alphabet=LEX_ALPHABET, max_size=40),
    st.lists(
        st.one_of(st.sampled_from(LEX_FRAGMENTS), st.sampled_from(LEX_ALPHABET)),
        max_size=30,
    ).map("".join),
)


class TestTokenizeMatchesPerCharOracle:
    @given(lex_sources)
    def test_random_text(self, source):
        assert lex_outcome(tokenize, source) == lex_outcome(tokenize_per_char, source)

    @pytest.mark.parametrize("label, profile, count", [
        ("prep-large", PREP_PROFILE, 3),
        ("pretrain-sep", MEDIUM_PROFILE, 6),
        ("summarize-small", SMALL_PROFILE, 12),
    ])
    def test_generated_methods(self, label, profile, count):
        for seed in range(1, 21):
            for record in generate_records(label, seed, count, profile):
                assert tokenize(record["code"]) == tokenize_per_char(record["code"])


class TestTokenContract:
    def test_immutable(self):
        tok = Token("x", TokenKind.IDENTIFIER, 3)
        with pytest.raises(AttributeError):
            tok.text = "y"
        with pytest.raises(AttributeError):
            tok.extra = 1

    def test_hashes_by_value(self):
        a = Token("x", TokenKind.IDENTIFIER, 3)
        assert hash(a) == hash(Token("x", TokenKind.IDENTIFIER, 3))
        assert len({a, Token("x", TokenKind.IDENTIFIER, 3), Token("x", TokenKind.IDENTIFIER)}) == 2

    def test_equals_the_plain_tuple_of_its_fields(self):
        assert Token("x", TokenKind.IDENTIFIER, 3) == ("x", TokenKind.IDENTIFIER, 3)

    def test_offset_defaults_to_minus_one(self):
        assert Token("{", TokenKind.PUNCT).offset == -1

    def test_tokenize_returns_exactly_tokens(self):
        toks = tokenize(IDLE_CONNECTIONS_SOURCE + ' int g() { return "s" + 1.5 != true; }')
        assert {t.kind for t in toks} == set(TokenKind)
        assert all(type(t) is Token for t in toks)
        assert toks[0] == Token("void", TokenKind.IDENTIFIER, IDLE_CONNECTIONS_SOURCE.index("void"))

    def test_repr(self):
        assert repr(Token("x", TokenKind.IDENTIFIER)) == (
            "Token(text='x', kind=<TokenKind.IDENTIFIER: 'identifier'>, offset=-1)"
        )


class TestKindsHashByIdentity:
    """Kind members are singletons, so they hash by identity, in C."""

    @pytest.mark.parametrize("kinds", [TokenKind, StmtKind])
    def test_members_survive_pickle_and_deepcopy(self, kinds):
        by_member = {member: member.value for member in kinds}
        for member in kinds:
            assert hash(member) == object.__hash__(member)
            for same in (pickle.loads(pickle.dumps(member)), copy.deepcopy(member)):
                assert same is member
                assert by_member[same] == member.value


class TestAbstractLiterals:
    def test_number_becomes_placeholder(self):
        (tok,) = abstract_literals(lex("42"))
        assert tok.text == "<NUM>" and tok.kind is TokenKind.NUMBER_LIT

    def test_non_literal_unchanged(self):
        (tok,) = abstract_literals(lex("x"))
        assert tok.text == "x"

    def test_string_and_bool(self):
        toks = abstract_literals(lex('"hi" true'))
        assert [t.text for t in toks] == ["<STR>", "<BOOL>"]

    def test_idempotent_and_length_preserving(self):
        toks = lex('f(1, "a", false, x);')
        once = abstract_literals(toks)
        assert len(once) == len(toks)
        assert abstract_literals(once) == once
        assert [t.kind for t in once] == [t.kind for t in toks]

    def test_keeps_token_objects_it_does_not_change(self):
        toks = lex('f(1, "a", false, x);')
        once = abstract_literals(toks)
        for before, after in zip(toks, once):
            if before.kind in (TokenKind.NUMBER_LIT, TokenKind.STRING_LIT, TokenKind.BOOL_LIT):
                assert after.offset == before.offset
            else:
                assert after is before
        assert all(a is b for a, b in zip(abstract_literals(once), once))


class TestSplitIdentifier:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("camelCase", ["camel", "case"]),
            ("x", ["x"]),
            ("parseHTTPResponse", ["parse", "http", "response"]),
            ("snake_case_name", ["snake", "case", "name"]),
            ("HTTPServer", ["http", "server"]),
            ("value2", ["value", "2"]),
            ("v2Max", ["v", "2", "max"]),
            ("_hidden", ["hidden"]),
        ],
    )
    def test_boundaries(self, name, expected):
        assert split_identifier(name) == expected

    def test_subtoken_idempotence(self):
        for name in ("parseHTTPResponse", "camelCase", "a_b_c", "x9y"):
            for sub in split_identifier(name):
                assert split_identifier(sub) == [sub]

    def test_concatenation_reconstructs_input(self):
        for name in ("camelCase", "parseHTTPResponse", "snake_case", "abc123def"):
            joined = "".join(split_identifier(name))
            assert joined == name.replace("_", "").lower()


class TestTokenizeComment:
    def test_lowercase_and_punctuation(self):
        words = tokenize_comment("Closes idle connections, fast.")
        assert words == ["closes", "idle", "connections", ",", "fast", "."]

    def test_empty(self):
        assert tokenize_comment("") == []


class TestParseMethod:
    def test_three_assignments(self):
        m = parse_source("void f() { a = 1; b = 2; c = 3; }")
        assert len(m.body) == 3
        assert all(s.kind is StmtKind.ASSIGN for s in m.body)

    def test_idle_connections_structure(self, idle_method):
        m = idle_method
        assert m.name == "closeIdleConnections"
        assert [(p.children[0].value, p.value) for p in m.declaration[1:]] == [
            ("long", "timeMillis")]
        kinds = [s.kind for s in m.body]
        assert kinds == [StmtKind.DECL, StmtKind.FOR]
        loop = m.body[1]
        assert loop.init is not None and loop.update is not None
        outer_if = loop.body[1]
        assert outer_if.kind is StmtKind.IF
        inner_if = outer_if.body[0]
        assert inner_if.kind is StmtKind.IF
        assert inner_if.orelse, "inner conditional keeps its else branch"

    def test_empty_body(self):
        m = parse_source("void f() { }")
        assert m.body == []
        assert [t.text for t in m.declaration_tokens] == ["void", "f", "(", ")"]

    def test_parse_error_reports_index_and_expected(self):
        toks = abstract_literals(tokenize("void f() { if x }"))
        with pytest.raises(ParseError) as err:
            parse_method(toks)
        assert err.value.index == 6
        assert err.value.expected == ["'('"]
        assert err.value.found == "x"

    @pytest.mark.parametrize("source", [
        nested_ifs(MAX_NESTING - 1), nested_parens(MAX_NESTING - 2),
    ], ids=["ifs", "parens"])
    def test_nesting_at_the_bound_parses(self, source):
        parse_source(source)

    @pytest.mark.parametrize("source", [
        nested_ifs(MAX_NESTING), nested_parens(MAX_NESTING - 1),
        nested_ifs(250), nested_parens(300),
        "void f() { if (a) {} " + "else if (a) {} " * 400 + "}",
        "int f() { return " + " + ".join(["a"] * 1000) + "; }",
        "int f() { return a" + ".b" * 1000 + "; }",
        "int f() { return a" + ".b()" * 1000 + "; }",
        "int f() { return " + "-" * 1000 + "a; }",
        "int f() { return " + "g(" * 300 + "a" + ")" * 300 + "; }",
    ], ids=["ifs", "parens", "250 ifs", "300 parens", "else-if chain",
            "operator chain", "field chain", "call chain", "unary", "calls"])
    def test_nesting_past_the_bound_is_a_parse_error(self, source):
        with pytest.raises(ParseError) as err:
            parse_source(source)
        assert err.value.expected == [f"nesting at most {MAX_NESTING} deep"]

    # Expected values recorded from the recursive-descent parser before
    # its expression path was flattened; the bound counts one level per
    # unary operator, binary operator and member access.
    @pytest.mark.parametrize("source, index, expected, found", [
        ("int f() { return a + ; }", 8, ["expression"], ";"),
        ("int f() { return (a + b; }", 10, ["')'"], ";"),
        ("int f() { return a.; }", 8, ["member name"], ";"),
        ("int f() { return !", 7, ["expression"], "<eof>"),
        ("int f() { return " + "!" * 99 + "a; }", 105, [f"nesting at most {MAX_NESTING} deep"], "a"),
        ("int f() { return a" + " + a" * 98 + "; }", 202, [f"nesting at most {MAX_NESTING} deep"], "a"),
        ("int f() { return a" + ".b" * 99 + "; }", 203, [f"nesting at most {MAX_NESTING} deep"], "."),
    ], ids=["missing operand", "unclosed paren", "dot without member", "bang at eof",
            "unary chain", "binary chain", "member chain"])
    def test_exact_parse_errors(self, source, index, expected, found):
        with pytest.raises(ParseError) as err:
            parse_source(source)
        assert (err.value.index, err.value.expected, err.value.found) == (index, expected, found)

    # Error paths at the end of input, after the method and in
    # `parse_expr`'s operator loop; texts recorded before the parser read
    # past its last token into an end-of-input token.
    @pytest.mark.parametrize("source, index, expected, found", [
        ("void f() { if (a)", 9, ["statement"], "<eof>"),
        ("void f() { a = 1;", 9, ["'}'", "statement"], "<eof>"),
        ("void f() {", 5, ["'}'", "statement"], "<eof>"),
        ("void f() { for (", 7, ["expression"], "<eof>"),
        ("void f(", 3, ["parameter type"], "<eof>"),
        ("void", 1, ["method name"], "<eof>"),
        ("", 0, ["return type"], "<eof>"),
        ("void f() { g() = 1; }", 8, ["assignable target"], "="),
        ("void f() { a.g() = 1; }", 10, ["assignable target"], "="),
        ("void f() { } x", 6, ["<eof>"], "x"),
        ("void f() { } }", 6, ["<eof>"], "}"),
        # `a + b` in 97 parentheses: the `+` is at level 100, `b` one past
        (nested_parens(97).replace("(a)", "(a + b)"), 105,
         [f"nesting at most {MAX_NESTING} deep"], "b"),
        # ... in 98: the `+` itself is one past, checked in the operator loop
        (nested_parens(98).replace("(a)", "(a + b)"), 106,
         [f"nesting at most {MAX_NESTING} deep"], "b"),
    ], ids=["eof at a statement", "missing brace", "eof after open brace",
            "eof in for header", "eof in parameters", "eof after return type",
            "empty input", "assignment to a call", "assignment to a member call",
            "token after the method", "brace after the method",
            "operand past the bound", "operator past the bound"])
    def test_exact_parse_errors_at_the_edges(self, source, index, expected, found):
        with pytest.raises(ParseError) as err:
            parse_source(source)
        assert (err.value.index, err.value.expected, err.value.found) == (index, expected, found)
        assert str(err.value) == (f"at token {index}: expected {' or '.join(expected)}, "
                                  f"found {found!r}")

    def test_operator_one_short_of_the_bound_parses(self):
        parse_source(nested_parens(96).replace("(a)", "(a + b)"))

    @pytest.mark.parametrize("source, index, expected, found", [
        ("void f() { } x", 7, ["method name"], "<eof>"),
        ("void f() { } int g", 8, ["'('"], "<eof>"),
        ("void f() { } }", 6, ["return type"], "}"),
    ], ids=["a lone word", "a declaration cut short", "a stray brace"])
    def test_tokens_after_a_method_start_the_next(self, source, index, expected, found):
        with pytest.raises(ParseError) as err:
            parse_program(source)
        assert (err.value.index, err.value.expected, err.value.found) == (index, expected, found)

    def test_every_method_of_a_file_numbers_its_statements_from_zero(self):
        methods = parse_program("void f() { a = 1; b = 2; }\nvoid g() { if (a) { c = 3; } }")
        assert [list(m.statements) for m in methods] == [[0, 1], [0, 1, 2]]
        # a braced body keeps its block statement, though its statements are flattened
        assert [s.kind for s in methods[1].statements.values()] == [
            StmtKind.IF, StmtKind.BLOCK, StmtKind.ASSIGN]

    def test_statement_ids_are_source_order_keys_of_every_statement(self):
        m = parse_source(EVERY_CONSTRUCT_SOURCE)
        stmts = m.statements
        assert list(stmts) == list(range(len(stmts)))
        assert all(stmts[i].stmt_id == i for i in stmts)
        starts = [s.span[0] for s in stmts.values()]
        assert starts == sorted(set(starts))
        loop = next(s for s in stmts.values() if s.kind is StmtKind.FOR)
        assert loop.stmt_id < loop.init.stmt_id < loop.update.stmt_id < loop.body[0].stmt_id

    def test_method_tokens_are_the_callers_list(self):
        toks = abstract_literals(tokenize("void f() { a = 1; }"))
        m = parse_method(toks)
        assert m.tokens is toks
        assert m.span == (0, len(toks))

    @pytest.mark.parametrize("source", [
        "int f() { return " + "!" * 98 + "a; }",
        "int f() { return a" + " + a" * 97 + "; }",
        "int f() { return a" + ".b" * 98 + "; }",
    ], ids=["unary chain", "binary chain", "member chain"])
    def test_chains_one_short_of_the_bound_parse(self, source):
        parse_source(source)

    def test_statement_ids_follow_source_order(self, idle_method):
        stmts = idle_method.statements
        starts = [stmts[i].span[0] for i in sorted(stmts)]
        assert starts == sorted(starts)

    def test_top_level_spans_tile_the_body(self, idle_method):
        m = idle_method
        lo = len(m.declaration_tokens) + 1  # skip '{'
        hi = len(m.tokens) - 1  # skip '}'
        covered = []
        for s in m.body:
            covered.extend(range(s.span[0], s.span[1]))
        assert covered == list(range(lo, hi))

    def test_parse_program_multiple_methods(self):
        methods = parse_program("void f() { a = 1; }\nint g() { return 2; }")
        assert [m.name for m in methods] == ["f", "g"]
        assert methods[1].body[0].kind is StmtKind.RETURN


# Every statement kind and expression form; a for with and without its
# three clauses, an if with and without else, and a nested braced block.
EVERY_CONSTRUCT_SOURCE = """
int every(int n, Item q) {
    int total = 0;
    int spare;
    total = total + n * 2 - n / 3 % 4;
    q.size = -n;
    log("done", true);
    q.next().close();
    if (!(total < n) && total >= 1 || total != 2) { total = q.size; } else { total = 0; }
    if (total <= n) { total = 1; }
    while (total > 0) { total = total - 1; if (total == 3) { break; } }
    for (int i = 0; i < n; i = i + 1) { if (i == 2) { continue; } }
    for (;;) { break; }
    { spare = 1; }
    return total;
}
"""


def _documented_node_types() -> set[str]:
    """First column of the "AST node types" table in docs/grammar.md."""
    text = (Path(__file__).resolve().parents[1] / "docs" / "grammar.md").read_text()
    section = text.split("\n## AST node types\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    types = [row.split("|")[1].strip() for row in rows[2:]]  # past header and rule
    assert len(types) == len(set(types))
    return set(types)


class TestBuildAst:
    def test_assignment_tree(self):
        m = parse_source("void f() { x = 1; }")
        root = build_ast(m)
        assert root.node_type == "MethodDeclaration" and root.value == "f"
        assign = root.children[1]
        assert assign.node_type == "Assignment"
        assert [c.type_value() for c in assign.children] == [
            "MemberReference_x",
            "Literal_<NUM>",
        ]

    def test_empty_body_declaration_only(self):
        m = parse_source("void f(int a) { }")
        root = build_ast(m)
        assert [c.type_value() for c in root.children] == [
            "BasicType_void",
            "FormalParameter_a",
        ]

    def test_idle_fringe_contains_time_millis(self, idle_method):
        root = build_ast(idle_method)
        labels = {n.type_value() for n in iter_nodes(root)}
        assert "MemberReference_timeMillis" in labels
        assert "MethodInvocation_currentTimeMillis" in labels

    def test_node_ids_unique_and_links_consistent(self, idle_method):
        root = build_ast(idle_method)
        nodes = list(iter_nodes(root))
        assert len({id(n) for n in nodes}) == len(nodes)
        parents = {}
        for n in nodes:
            for c in n.children:
                assert id(c) not in parents, "child reachable from two parents"
                parents[id(c)] = n
        # the JSON form numbers the nodes in preorder
        dumped, stack = [], [ast_to_json(root)]
        while stack:
            d = stack.pop()
            dumped.append(d["id"])
            stack.extend(reversed(d["children"]))
        assert dumped == list(range(len(nodes)))

    def test_emitted_node_types_are_the_documented_set(self):
        m = parse_source(EVERY_CONSTRUCT_SOURCE)
        assert {s.kind for s in m.statements.values()} == set(StmtKind)
        emitted = {n.node_type for n in iter_nodes(build_ast(m))}
        assert emitted == _documented_node_types()

    def test_every_statement_contributes_a_node(self, idle_method):
        root = build_ast(idle_method)
        types = [n.node_type for n in iter_nodes(root)]
        assert types.count("IfStatement") == 2
        assert types.count("ForStatement") == 1
        assert types.count("LocalVariableDeclaration") == 3  # idleTimeout, i, conn
