"""Lexer, parser, and AST construction for the Java-like mini language.

The frontend feeds every later stage: abstracted token streams for the
summarizer, statement-level structure for control-flow analysis, and
labeled syntax trees for the tree encoder. The grammar, the literal
abstraction rules, and the closed set of AST node types are documented in
docs/grammar.md.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field
from enum import Enum


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


@dataclass(frozen=True)
class Token:
    text: str
    kind: TokenKind
    offset: int = -1  # character offset in the source; -1 for synthesized tokens


KEYWORDS = frozenset({"if", "else", "while", "for", "return", "break", "continue"})

NUM_TOKEN = "<NUM>"
STR_TOKEN = "<STR>"
BOOL_TOKEN = "<BOOL>"

_TWO_CHAR_OPS = ("==", "!=", "<=", ">=", "&&", "||")
_ONE_CHAR_OPS = "=<>+-*/%!"
_PUNCT = "(){};,."
# ASCII only, as docs/grammar.md gives them; str.isdigit/isalpha also
# accept characters such as "²", "٣" and "é"
_DIGITS = frozenset(string.digits)
_IDENT_START = frozenset(string.ascii_letters + "_")
_IDENT_CHARS = _IDENT_START | _DIGITS


def tokenize(source: str) -> list[Token]:
    """Lex source text into tokens, skipping whitespace and comments."""
    out: list[Token] = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c == "/" and source[i + 1 : i + 2] == "/":
            j = source.find("\n", i)
            i = n if j < 0 else j + 1
            continue
        if c == "/" and source[i + 1 : i + 2] == "*":
            j = source.find("*/", i + 2)
            if j < 0:
                raise LexError("unterminated block comment", i)
            i = j + 2
            continue
        if c in _DIGITS:
            j = i + 1
            while j < n and source[j] in _DIGITS:
                j += 1
            if j < n - 1 and source[j] == "." and source[j + 1] in _DIGITS:
                j += 1
                while j < n and source[j] in _DIGITS:
                    j += 1
            out.append(Token(source[i:j], TokenKind.NUMBER_LIT, i))
            i = j
            continue
        if c == '"':
            j = i + 1
            while j < n and source[j] != '"':
                j += 2 if source[j] == "\\" else 1
            if j >= n:
                raise LexError("unterminated string literal", i)
            out.append(Token(source[i : j + 1], TokenKind.STRING_LIT, i))
            i = j + 1
            continue
        if c in _IDENT_START:
            j = i + 1
            while j < n and source[j] in _IDENT_CHARS:
                j += 1
            text = source[i:j]
            if text in ("true", "false"):
                kind = TokenKind.BOOL_LIT
            elif text in KEYWORDS:
                kind = TokenKind.KEYWORD
            else:
                kind = TokenKind.IDENTIFIER
            out.append(Token(text, kind, i))
            i = j
            continue
        two = source[i : i + 2]
        if two in _TWO_CHAR_OPS:
            out.append(Token(two, TokenKind.OPERATOR, i))
            i += 2
            continue
        if c in _ONE_CHAR_OPS:
            out.append(Token(c, TokenKind.OPERATOR, i))
            i += 1
            continue
        if c in _PUNCT:
            out.append(Token(c, TokenKind.PUNCT, i))
            i += 1
            continue
        raise LexError(f"unrecognized character {c!r}", i)
    return out


def abstract_literals(tokens: list[Token]) -> list[Token]:
    """Replace every literal token's text with its placeholder token.

    Kinds and list length are preserved, so the operation is idempotent.
    """
    replacement = {
        TokenKind.NUMBER_LIT: NUM_TOKEN,
        TokenKind.STRING_LIT: STR_TOKEN,
        TokenKind.BOOL_LIT: BOOL_TOKEN,
    }
    out = []
    for t in tokens:
        text = replacement.get(t.kind)
        if text is None or t.text == text:
            out.append(t)
        else:
            out.append(Token(text, t.kind, t.offset))
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
    kind: str  # literal | name | binary | unary | call | field
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


# Deepest nesting the parser accepts (docs/grammar.md, "Nesting limit"); it keeps
# the recursive AST, CFG and JSON builders under Python's default recursion limit.
MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.i = 0
        self.statements: dict[int, Statement] = {}
        self._next_id = 0
        self.depth = 0  # current nesting level, see MAX_NESTING

    def _peek(self, k: int = 0) -> Token | None:
        j = self.i + k
        return self.toks[j] if j < len(self.toks) else None

    def _fail(self, expected: list[str]):
        t = self._peek()
        raise ParseError(self.i, expected, t.text if t else "<eof>")

    def _at(self, text: str) -> bool:
        t = self._peek()
        return t is not None and t.text == text

    def _expect(self, text: str) -> Token:
        if not self._at(text):
            self._fail([repr(text)])
        t = self.toks[self.i]
        self.i += 1
        return t

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
        self._expect("(")
        params: list[tuple[str, str]] = []
        if not self._at(")"):
            while True:
                ptype = self._expect_ident("parameter type").text
                pname = self._expect_ident("parameter name").text
                params.append((ptype, pname))
                if not self._at(","):
                    break
                self._expect(",")
        self._expect(")")
        declaration = self.toks[start : self.i]
        self._expect("{")
        body = []
        while not self._at("}"):
            if self._peek() is None:
                self._fail(["'}'", "statement"])
            body.append(self.parse_statement())
        self._expect("}")
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
        if t.text == "{":
            start = self.i
            self._expect("{")
            inner = []
            while not self._at("}"):
                if self._peek() is None:
                    self._fail(["'}'", "statement"])
                inner.append(self.parse_statement())
            self._expect("}")
            return self._new_stmt(StmtKind.BLOCK, (start, self.i), body=inner)
        if t.text == "if":
            return self._parse_if()
        if t.text == "while":
            return self._parse_while()
        if t.text == "for":
            return self._parse_for()
        if t.text == "return":
            start = self.i
            self._expect("return")
            value = None if self._at(";") else self.parse_expr()
            self._expect(";")
            return self._new_stmt(StmtKind.RETURN, (start, self.i), value=value)
        if t.text in ("break", "continue"):
            start = self.i
            self.i += 1
            self._expect(";")
            kind = StmtKind.BREAK if t.text == "break" else StmtKind.CONTINUE
            return self._new_stmt(kind, (start, self.i))
        stmt = self._parse_simple()
        self._expect(";")
        stmt.span = (stmt.span[0], self.i)
        return stmt

    def _parse_body(self) -> list[Statement]:
        # Braced bodies are flattened; a single statement becomes a one-item list.
        stmt = self.parse_statement()
        if stmt.kind is StmtKind.BLOCK:
            return stmt.body
        return [stmt]

    def _parse_if(self) -> Statement:
        start = self.i
        self._expect("if")
        self._expect("(")
        cond_start = self.i
        cond = self.parse_expr()
        cond_span = (cond_start, self.i)
        self._expect(")")
        then_body = self._parse_body()
        orelse: list[Statement] = []
        if self._at("else"):
            self._expect("else")
            orelse = self._parse_body()
        return self._new_stmt(
            StmtKind.IF,
            (start, self.i),
            cond=cond,
            cond_span=cond_span,
            body=then_body,
            orelse=orelse,
        )

    def _parse_while(self) -> Statement:
        start = self.i
        self._expect("while")
        self._expect("(")
        cond_start = self.i
        cond = self.parse_expr()
        cond_span = (cond_start, self.i)
        self._expect(")")
        body = self._parse_body()
        return self._new_stmt(
            StmtKind.WHILE, (start, self.i), cond=cond, cond_span=cond_span, body=body
        )

    def _parse_for(self) -> Statement:
        start = self.i
        self._expect("for")
        self._expect("(")
        init = None if self._at(";") else self._parse_simple()
        self._expect(";")
        cond = None
        cond_span = None
        if not self._at(";"):
            cond_start = self.i
            cond = self.parse_expr()
            cond_span = (cond_start, self.i)
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
            if expr.kind not in ("name", "field"):
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

    def parse_expr(self, min_bp: int = 1) -> Expr:
        depth = self.depth
        self._descend()
        left = self._parse_unary()
        while True:
            t = self._peek()
            if t is None or t.kind is not TokenKind.OPERATOR:
                break
            bp = self._BINDING.get(t.text)
            if bp is None or bp < min_bp:
                break
            self.i += 1
            self._descend()  # every operator of a chain nests `left` one deeper
            right = self.parse_expr(bp + 1)
            left = Expr("binary", t.text, [left, right])
        self.depth = depth
        return left

    def _parse_unary(self) -> Expr:
        t = self._peek()
        if t is not None and t.text in ("!", "-") and t.kind is TokenKind.OPERATOR:
            self.i += 1
            return Expr("unary", t.text, [self.parse_expr(self._UNARY)])
        return self._parse_postfix()

    def _parse_postfix(self) -> Expr:
        depth = self.depth
        expr = self._parse_primary()
        while self._at("."):
            self._descend()  # every member access nests `expr` one deeper
            self._expect(".")
            name = self._expect_ident("member name").text
            if self._at("("):
                args = self._parse_args()
                expr = Expr("call", name, [expr] + args)
            else:
                expr = Expr("field", name, [expr])
        self.depth = depth
        return expr

    def _parse_primary(self) -> Expr:
        t = self._peek()
        if t is None:
            self._fail(["expression"])
        if t.kind in (TokenKind.NUMBER_LIT, TokenKind.STRING_LIT, TokenKind.BOOL_LIT):
            self.i += 1
            return Expr("literal", t.text)
        if t.kind is TokenKind.IDENTIFIER:
            self.i += 1
            if self._at("("):
                args = self._parse_args()
                return Expr("call", t.text, args)
            return Expr("name", t.text)
        if t.text == "(":
            self._expect("(")
            inner = self.parse_expr()
            self._expect(")")
            return inner
        self._fail(["expression"])

    def _parse_args(self) -> list[Expr]:
        self._expect("(")
        args = []
        if not self._at(")"):
            while True:
                args.append(self.parse_expr())
                if not self._at(","):
                    break
                self._expect(",")
        self._expect(")")
        return args


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


@dataclass
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


class _AstBuilder:
    def __init__(self):
        self._next_id = 0

    def node(self, node_type: str, value: str | None = None) -> AstNode:
        n = AstNode(self._next_id, node_type, value, [])
        self._next_id += 1
        return n

    def expr(self, e: Expr) -> AstNode:
        if e.kind == "literal":
            return self.node("Literal", e.value)
        if e.kind == "name":
            return self.node("MemberReference", e.value)
        if e.kind == "field":
            qualifier = self.node("FieldAccess", e.value)
            qualifier.children.append(self.expr(e.children[0]))
            return qualifier
        if e.kind == "call":
            call = self.node("MethodInvocation", e.value)
            call.children.extend(self.expr(c) for c in e.children)
            return call
        if e.kind == "unary":
            op = self.node("UnaryOperation", e.value)
            op.children.append(self.expr(e.children[0]))
            return op
        op = self.node("BinaryOperation", e.value)
        op.children.append(self.expr(e.children[0]))
        op.children.append(self.expr(e.children[1]))
        return op

    def block(self, stmts: list[Statement]) -> AstNode:
        wrapper = self.node("BlockStatement")
        wrapper.children.extend(self.stmt(s) for s in stmts)
        return wrapper

    def stmt(self, s: Statement) -> AstNode:
        k = s.kind
        if k is StmtKind.DECL:
            decl = self.node("LocalVariableDeclaration", s.name)
            decl.children.append(self.node("BasicType", s.type_name))
            if s.value is not None:
                decl.children.append(self.expr(s.value))
            return decl
        if k is StmtKind.ASSIGN:
            node = self.node("Assignment")
            node.children.append(self.expr(s.target))
            node.children.append(self.expr(s.value))
            return node
        if k is StmtKind.EXPR:
            node = self.node("StatementExpression")
            node.children.append(self.expr(s.value))
            return node
        if k is StmtKind.IF:
            node = self.node("IfStatement")
            node.children.append(self.expr(s.cond))
            node.children.append(self.block(s.body))
            if s.orelse:
                node.children.append(self.block(s.orelse))
            return node
        if k is StmtKind.WHILE:
            node = self.node("WhileStatement")
            node.children.append(self.expr(s.cond))
            node.children.append(self.block(s.body))
            return node
        if k is StmtKind.FOR:
            node = self.node("ForStatement")
            if s.init is not None:
                node.children.append(self.stmt(s.init))
            if s.cond is not None:
                node.children.append(self.expr(s.cond))
            if s.update is not None:
                node.children.append(self.stmt(s.update))
            node.children.append(self.block(s.body))
            return node
        if k is StmtKind.RETURN:
            node = self.node("ReturnStatement")
            if s.value is not None:
                node.children.append(self.expr(s.value))
            return node
        if k is StmtKind.BREAK:
            return self.node("BreakStatement")
        if k is StmtKind.CONTINUE:
            return self.node("ContinueStatement")
        return self.block(s.body)  # BLOCK

    def method(self, m: Method, body: list[Statement]) -> AstNode:
        root = self.node("MethodDeclaration", m.name)
        root.children.append(self.node("BasicType", m.return_type))
        for ptype, pname in m.params:
            param = self.node("FormalParameter", pname)
            param.children.append(self.node("BasicType", ptype))
            root.children.append(param)
        root.children.extend(self.stmt(s) for s in body)
        return root


def build_ast(method: Method) -> AstNode:
    """Build the labeled syntax tree of a parsed method.

    The root is a MethodDeclaration carrying the method name; the return
    type and parameters come first, then one subtree per body statement.
    Node ids are assigned in construction order and are unique per tree.
    """
    return _AstBuilder().method(method, method.body)
