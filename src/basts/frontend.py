"""Lexer, parser, and AST construction for the Java-like mini language.

The frontend feeds every later stage: abstracted token streams for the
summarizer, statement-level structure for control-flow analysis, and
labeled syntax trees for the tree encoder. The grammar, the literal
abstraction rules, and the closed set of AST node types are documented in
docs/grammar.md.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple


class LexError(ValueError):
    """Unrecognized or unterminated lexeme; carries the character offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class ParseError(ValueError):
    """Syntax violation; carries the token index and the expected set."""

    def __init__(self, index: int, expected: list[str], found: str):
        super().__init__(
            f"at token {index}: expected {' or '.join(expected)}, found {found!r}"
        )
        self.index = index
        self.expected = expected
        self.found = found


class TokenKind(Enum):
    IDENTIFIER = "identifier"
    KEYWORD = "keyword"
    NUMBER_LIT = "number"
    STRING_LIT = "string"
    BOOL_LIT = "bool"
    OPERATOR = "operator"
    PUNCT = "punct"


class Token(NamedTuple):
    text: str
    kind: TokenKind
    offset: int = -1  # character offset in the source; -1 for synthesized tokens


KEYWORDS = frozenset({"if", "else", "while", "for", "return", "break", "continue"})

NUM_TOKEN = "<NUM>"
STR_TOKEN = "<STR>"
BOOL_TOKEN = "<BOOL>"

# One alternative per lexeme class, tried in this order at each offset
# (docs/grammar.md, "Lexical rules"). Only the skip alternative has no
# group, so `lastindex` names the class of every token; the last group
# matches any character no other alternative takes there. Letters and
# digits are spelled out because \w and \d also accept "é", "²" and "٣".
_LEXEME_RE = re.compile(
    r"(?:\s+|//[^\n]*|/\*[\s\S]*?\*/)"  # whitespace and comments
    r"|([0-9]+(?:\.[0-9]+)?)"  # 1: number
    r'|("[^"\\]*(?:\\[\s\S][^"\\]*)*")'  # 2: string with backslash escapes
    r"|([A-Za-z_][A-Za-z0-9_]*)"  # 3: word
    r"|(==|!=|<=|>=|&&|\|\||[=<>+\-*%!]|/(?!\*))"  # 4: operator
    r"|([(){};,.])"  # 5: punct
    r"|([\s\S])"  # 6: anything else
)
_GROUP_KIND = (
    None,
    TokenKind.NUMBER_LIT,
    TokenKind.STRING_LIT,
    None,
    TokenKind.OPERATOR,
    TokenKind.PUNCT,
)
_WORD_KIND = {word: TokenKind.KEYWORD for word in KEYWORDS}
_WORD_KIND.update(true=TokenKind.BOOL_LIT, false=TokenKind.BOOL_LIT)


def tokenize(source: str) -> list[Token]:
    """Lex source text into tokens, skipping whitespace and comments."""
    out: list[Token] = []
    append = out.append
    identifier = TokenKind.IDENTIFIER
    for m in _LEXEME_RE.finditer(source):
        group = m.lastindex
        if group is None:
            continue
        text = m[group]
        if group == 3:
            append(Token(text, _WORD_KIND.get(text, identifier), m.start()))
        elif group < 6:
            append(Token(text, _GROUP_KIND[group], m.start()))
        elif text == '"':  # the string alternative found no closing quote
            raise LexError("unterminated string literal", m.start())
        elif text == "/":  # only "/*" without "*/" gets here
            raise LexError("unterminated block comment", m.start())
        else:
            raise LexError(f"unrecognized character {text!r}", m.start())
    return out


def abstract_literals(tokens: list[Token]) -> list[Token]:
    """Replace every literal token's text with its placeholder token.

    Kinds and list length are preserved, so the operation is idempotent.
    """
    number, string, boolean = TokenKind.NUMBER_LIT, TokenKind.STRING_LIT, TokenKind.BOOL_LIT
    out = []
    append = out.append
    for t in tokens:
        kind = t.kind
        if kind is number:
            text = NUM_TOKEN
        elif kind is string:
            text = STR_TOKEN
        elif kind is boolean:
            text = BOOL_TOKEN
        else:
            append(t)
            continue
        append(t if t.text == text else Token(text, kind, t.offset))
    return out


_SUBTOKEN_RE = re.compile(r"[A-Z]+(?=[A-Z][a-z])|[A-Z]?[a-z]+|[A-Z]+|[0-9]+")


def split_identifier(name: str) -> list[str]:
    """Split an identifier into lowercased subtokens.

    Boundaries: lower-to-upper transitions, the end of an uppercase run
    followed by a lowercase letter, underscores, and letter/digit
    transitions. "camelCase" -> ["camel", "case"].
    """
    return [piece.lower() for piece in _SUBTOKEN_RE.findall(name)]


def tokenize_comment(text: str) -> list[str]:
    """Split reference comment text into lowercase words.

    Words are alphanumeric runs; punctuation marks come out as separate
    single-character words.
    """
    return re.findall(r"[a-z0-9]+|[^\sa-z0-9]", text.lower())


class StmtKind(Enum):
    DECL = "decl"
    ASSIGN = "assign"
    EXPR = "expr"
    IF = "if"
    WHILE = "while"
    FOR = "for"
    RETURN = "return"
    BREAK = "break"
    CONTINUE = "continue"
    BLOCK = "block"


@dataclass
class Expr:
    kind: str  # the AST node type: Literal, MemberReference, BinaryOperation, ...
    value: str | None
    children: list["Expr"] = field(default_factory=list)


@dataclass
class Statement:
    stmt_id: int
    kind: StmtKind
    span: tuple[int, int]  # half-open token index range of the full extent
    type_name: str | None = None  # DECL: declared type
    name: str | None = None  # DECL: variable name
    target: Expr | None = None  # ASSIGN
    value: Expr | None = None  # DECL initializer, ASSIGN rhs, EXPR, RETURN
    cond: Expr | None = None  # IF / WHILE / FOR
    cond_span: tuple[int, int] | None = None
    init: Statement | None = None  # FOR
    update: Statement | None = None  # FOR
    body: list["Statement"] = field(default_factory=list)  # IF then, loops, BLOCK
    orelse: list["Statement"] = field(default_factory=list)  # IF else


@dataclass
class Method:
    name: str
    return_type: str
    params: list[tuple[str, str]]  # (type, name) pairs
    declaration_tokens: list[Token]  # return type through the closing ')'
    body: list[Statement]
    tokens: list[Token]  # the token list all spans index into
    span: tuple[int, int]  # half-open range of this method's own tokens
    statements: dict[int, Statement]  # every statement, nested ones included


_LITERAL_KINDS = (TokenKind.NUMBER_LIT, TokenKind.STRING_LIT, TokenKind.BOOL_LIT)

# Deepest nesting the parser accepts (docs/grammar.md, "Nesting limit"); it keeps
# the recursive AST, CFG and JSON builders under Python's default recursion limit.
MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.n = len(tokens)
        self.i = 0
        self.statements: dict[int, Statement] = {}
        self._next_id = 0
        self.depth = 0  # current nesting level, see MAX_NESTING

    def _peek(self, k: int = 0) -> Token | None:
        j = self.i + k
        return self.toks[j] if j < self.n else None

    def _fail(self, expected: list[str]):
        t = self._peek()
        raise ParseError(self.i, expected, t.text if t else "<eof>")

    def _at(self, text: str) -> bool:
        return self.i < self.n and self.toks[self.i].text == text

    def _expect(self, text: str) -> Token:
        i = self.i
        if i >= self.n or self.toks[i].text != text:
            self._fail([repr(text)])
        self.i = i + 1
        return self.toks[i]

    def _descend(self):
        self.depth += 1
        if self.depth > MAX_NESTING:
            self._fail([f"nesting at most {MAX_NESTING} deep"])

    def _expect_ident(self, what: str = "identifier") -> Token:
        t = self._peek()
        if t is None or t.kind is not TokenKind.IDENTIFIER:
            self._fail([what])
        self.i += 1
        return t

    def _new_stmt(self, kind: StmtKind, span, **parts) -> Statement:
        stmt = Statement(self._next_id, kind, span, **parts)
        self._next_id += 1
        self.statements[stmt.stmt_id] = stmt
        return stmt

    # --- declarations -----------------------------------------------------

    def parse_method(self) -> Method:
        start = self.i
        rtype = self._expect_ident("return type").text
        name = self._expect_ident("method name").text
        params = self._parse_list(lambda: (self._expect_ident("parameter type").text,
                                           self._expect_ident("parameter name").text))
        declaration = self.toks[start : self.i]
        body = self._parse_braced()
        return Method(
            name=name,
            return_type=rtype,
            params=params,
            declaration_tokens=declaration,
            body=body,
            tokens=self.toks,
            span=(start, self.i),
            statements=self.statements,
        )

    # --- statements -------------------------------------------------------

    def parse_statement(self) -> Statement:
        self._descend()
        stmt = self._parse_statement()
        self.depth -= 1
        return stmt

    def _parse_statement(self) -> Statement:
        t = self._peek()
        if t is None:
            self._fail(["statement"])
        start = self.i
        text = t.text
        if text == "{":
            body = self._parse_braced()
            return self._new_stmt(StmtKind.BLOCK, (start, self.i), body=body)
        if text == "for":
            return self._parse_for()
        if text == "if" or text == "while":
            self.i += 1
            self._expect("(")
            cond, cond_span = self._parse_cond()
            self._expect(")")
            body = self._parse_body()
            orelse: list[Statement] = []
            if text == "if" and self._at("else"):
                self.i += 1
                orelse = self._parse_body()
            return self._new_stmt(StmtKind(text), (start, self.i), cond=cond,
                                  cond_span=cond_span, body=body, orelse=orelse)
        if text in ("return", "break", "continue"):
            self.i += 1
            value = None if text != "return" or self._at(";") else self.parse_expr()
            self._expect(";")
            return self._new_stmt(StmtKind(text), (start, self.i), value=value)
        stmt = self._parse_simple()
        self._expect(";")
        stmt.span = (start, self.i)
        return stmt

    def _parse_braced(self) -> list[Statement]:
        """Read `{ statement* }` and return the statements."""
        self._expect("{")
        out = []
        while not self._at("}"):
            if self._peek() is None:
                self._fail(["'}'", "statement"])
            out.append(self.parse_statement())
        self._expect("}")
        return out

    def _parse_cond(self) -> tuple[Expr, tuple[int, int]]:
        """Read a condition; returns it with its token span."""
        start = self.i
        cond = self.parse_expr()
        return cond, (start, self.i)

    def _parse_body(self) -> list[Statement]:
        # Braced bodies are flattened; a single statement becomes a one-item list.
        stmt = self.parse_statement()
        if stmt.kind is StmtKind.BLOCK:
            return stmt.body
        return [stmt]

    def _parse_for(self) -> Statement:
        start = self.i
        self._expect("for")
        self._expect("(")
        init = None if self._at(";") else self._parse_simple()
        self._expect(";")
        cond, cond_span = (None, None) if self._at(";") else self._parse_cond()
        self._expect(";")
        update = None if self._at(")") else self._parse_simple()
        self._expect(")")
        body = self._parse_body()
        return self._new_stmt(
            StmtKind.FOR,
            (start, self.i),
            cond=cond,
            cond_span=cond_span,
            init=init,
            update=update,
            body=body,
        )

    def _parse_simple(self) -> Statement:
        """Parse a declaration, assignment, or expression statement.

        The trailing ';' is consumed by the caller, so the same parse
        serves both free-standing statements and for-loop clauses.
        """
        start = self.i
        t, t1 = self._peek(), self._peek(1)
        if (
            t is not None
            and t.kind is TokenKind.IDENTIFIER
            and t1 is not None
            and t1.kind is TokenKind.IDENTIFIER
        ):
            type_name = self._expect_ident().text
            name = self._expect_ident().text
            value = None
            if self._at("="):
                self._expect("=")
                value = self.parse_expr()
            return self._new_stmt(
                StmtKind.DECL,
                (start, self.i),
                type_name=type_name,
                name=name,
                value=value,
            )
        expr = self.parse_expr()
        if self._at("="):
            if expr.kind not in ("MemberReference", "FieldAccess"):
                self._fail(["assignable target"])
            self._expect("=")
            value = self.parse_expr()
            return self._new_stmt(
                StmtKind.ASSIGN, (start, self.i), target=expr, value=value
            )
        return self._new_stmt(StmtKind.EXPR, (start, self.i), value=expr)

    # --- expressions ------------------------------------------------------

    _BINDING = {
        "||": 1,
        "&&": 2,
        "==": 3,
        "!=": 3,
        "<": 4,
        ">": 4,
        "<=": 4,
        ">=": 4,
        "+": 5,
        "-": 5,
        "*": 6,
        "/": 6,
        "%": 6,
    }
    _UNARY = 7  # a unary operand binds tighter than any binary operator

    # The expression methods below index `self.toks` against `self.n`
    # themselves, since they run once per leaf and per operator.

    def parse_expr(self, min_bp: int = 1) -> Expr:
        toks, n, binding = self.toks, self.n, self._BINDING
        depth = self.depth
        self._descend()
        t = toks[self.i] if self.i < n else None
        if t is not None and t.text in ("!", "-") and t.kind is TokenKind.OPERATOR:
            self.i += 1
            left = Expr("UnaryOperation", t.text, [self.parse_expr(self._UNARY)])
        else:
            left = self._parse_postfix()
        while self.i < n:
            t = toks[self.i]
            if t.kind is not TokenKind.OPERATOR:
                break
            bp = binding.get(t.text)
            if bp is None or bp < min_bp:
                break
            self.i += 1
            self._descend()  # every operator of a chain nests `left` one deeper
            right = self.parse_expr(bp + 1)
            left = Expr("BinaryOperation", t.text, [left, right])
        self.depth = depth
        return left

    def _parse_postfix(self) -> Expr:
        toks, n = self.toks, self.n
        depth = self.depth
        expr = self._parse_primary()
        while self.i < n and toks[self.i].text == ".":
            self._descend()  # every member access nests `expr` one deeper
            self.i += 1
            name = self._expect_ident("member name").text
            if self._at("("):
                args = self._parse_list(self.parse_expr)
                expr = Expr("MethodInvocation", name, [expr] + args)
            else:
                expr = Expr("FieldAccess", name, [expr])
        self.depth = depth
        return expr

    def _parse_primary(self) -> Expr:
        i = self.i
        if i >= self.n:
            self._fail(["expression"])
        t = self.toks[i]
        kind = t.kind
        if kind is TokenKind.IDENTIFIER:
            self.i = i + 1
            if i + 1 < self.n and self.toks[i + 1].text == "(":
                return Expr("MethodInvocation", t.text, self._parse_list(self.parse_expr))
            return Expr("MemberReference", t.text)
        if kind in _LITERAL_KINDS:
            self.i = i + 1
            return Expr("Literal", t.text)
        if t.text == "(":
            self.i = i + 1
            inner = self.parse_expr()
            self._expect(")")
            return inner
        self._fail(["expression"])

    def _parse_list(self, item) -> list:
        """Read `( [item {"," item}] )`: parameters or call arguments."""
        self._expect("(")
        out = []
        if not self._at(")"):
            out.append(item())
            while self._at(","):
                self.i += 1
                out.append(item())
        self._expect(")")
        return out


def _renumber_statements(method: Method) -> Method:
    # Ids are assigned in parse-completion order; re-key them by source
    # position so statement id order equals source order.
    ordered = sorted(method.statements.values(), key=lambda s: s.span[0])
    for new_id, stmt in enumerate(ordered):
        stmt.stmt_id = new_id
    method.statements = {s.stmt_id: s for s in ordered}
    return method


def parse_method(tokens: list[Token]) -> Method:
    """Parse one method from a token list; raises ParseError on violation."""
    parser = _Parser(tokens)
    method = parser.parse_method()
    if parser.i != len(tokens):
        parser._fail(["<eof>"])
    return _renumber_statements(method)


def parse_program(source: str) -> list[Method]:
    """Lex, abstract literals, and parse every method in a source file."""
    tokens = abstract_literals(tokenize(source))
    methods = []
    parser = _Parser(tokens)
    while parser.i < len(tokens):
        methods.append(_renumber_statements(parser.parse_method()))
        parser.statements = {}
        parser._next_id = 0
    return methods


# --- AST construction -----------------------------------------------------


@dataclass(slots=True)
class AstNode:
    node_id: int
    node_type: str
    value: str | None = None
    children: list["AstNode"] = field(default_factory=list)

    def type_value(self) -> str:
        if self.value:
            return f"{self.node_type}_{self.value}"
        return self.node_type


def iter_nodes(root: AstNode):
    """Yield every node of the tree in preorder."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def ast_to_json(root: AstNode) -> dict:
    """Nested {id, type, value, children} form used by the split dump."""
    return {
        "id": root.node_id,
        "type": root.node_type,
        "value": root.value,
        "children": [ast_to_json(c) for c in root.children],
    }


_STMT_TYPE = {
    StmtKind.DECL: "LocalVariableDeclaration",
    StmtKind.ASSIGN: "Assignment",
    StmtKind.EXPR: "StatementExpression",
    StmtKind.IF: "IfStatement",
    StmtKind.WHILE: "WhileStatement",
    StmtKind.FOR: "ForStatement",
    StmtKind.RETURN: "ReturnStatement",
    StmtKind.BREAK: "BreakStatement",
    StmtKind.CONTINUE: "ContinueStatement",
}
_HEADER_KINDS = (StmtKind.IF, StmtKind.WHILE, StmtKind.FOR)


class _AstBuilder:
    def __init__(self):
        self._next_id = 0

    def node(self, node_type: str, value: str | None = None) -> AstNode:
        n = AstNode(self._next_id, node_type, value, [])
        self._next_id += 1
        return n

    def expr(self, e: Expr) -> AstNode:
        node = self.node(e.kind, e.value)
        children = node.children
        for c in e.children:
            children.append(self.expr(c))
        return node

    def block(self, stmts: list[Statement]) -> AstNode:
        wrapper = self.node("BlockStatement")
        children = wrapper.children
        for s in stmts:
            children.append(self.stmt(s))
        return wrapper

    def stmt(self, s: Statement) -> AstNode:
        """One node per statement, its children in field order (docs/grammar.md)."""
        if s.kind is StmtKind.BLOCK:
            return self.block(s.body)
        node = self.node(_STMT_TYPE[s.kind], s.name)
        children = node.children
        if s.type_name is not None:
            children.append(self.node("BasicType", s.type_name))
        if s.init is not None:
            children.append(self.stmt(s.init))
        if s.target is not None:
            children.append(self.expr(s.target))
        if s.value is not None:
            children.append(self.expr(s.value))
        if s.cond is not None:
            children.append(self.expr(s.cond))
        if s.update is not None:
            children.append(self.stmt(s.update))
        if s.kind in _HEADER_KINDS:
            children.append(self.block(s.body))
        if s.orelse:
            children.append(self.block(s.orelse))
        return node

    def method(self, m: Method, body: list[Statement]) -> AstNode:
        root = self.node("MethodDeclaration", m.name)
        children = root.children
        children.append(self.node("BasicType", m.return_type))
        for ptype, pname in m.params:
            param = self.node("FormalParameter", pname)
            param.children.append(self.node("BasicType", ptype))
            children.append(param)
        for s in body:
            children.append(self.stmt(s))
        return root


def build_ast(method: Method) -> AstNode:
    """Build the labeled syntax tree of a parsed method.

    The root is a MethodDeclaration carrying the method name; the return
    type and parameters come first, then one subtree per body statement.
    Node ids are assigned in construction order and are unique per tree.
    """
    return _AstBuilder().method(method, method.body)
