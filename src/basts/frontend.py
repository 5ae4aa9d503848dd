"""Lexer, parser, and AST construction for the Java-like mini language.

The frontend feeds every later stage: abstracted token streams for the
summarizer, statement-level structure for control-flow analysis, and
labeled syntax trees for the tree encoder. A token is its text, a `str`,
and token and statement kinds are plain strings. `token_kinds` gives
each text's kind, and `token_offsets` recovers where each token starts
from the source, which only error messages need. The parser builds the
`AstNode`s of expressions, of each simple statement (`Statement.node`)
and of the method's return type and parameters (`Method.declaration`). A
tree adds only header, block and `MethodDeclaration` nodes over them, so
every tree built from one method shares the parser's nodes. Nodes carry
no ids, and nothing changes a node once it is built, so trees may share
them. `JUMPS` and `HEADERS` name the statement kinds that transfer
control and those that head a control construct, for every later stage.
The grammar, the literal abstraction rules, and the closed set of AST
node types are documented in docs/grammar.md.
"""

from __future__ import annotations

import itertools
import re
import string
from dataclasses import dataclass, field
from operator import itemgetter


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


KEYWORDS = frozenset({"if", "else", "while", "for", "return", "break", "continue"})

NUM_TOKEN = "<NUM>"
STR_TOKEN = "<STR>"
BOOL_TOKEN = "<BOOL>"

# Each match is one lexeme, one comment, an unterminated "/*" or any other
# non-space character (docs/grammar.md, "Lexical rules"); whitespace is
# skipped because no alternative matches it. Alternatives start with
# disjoint characters, so their order only decides speed, except that
# comments must come before the "/" operator. Letters and digits are
# spelled out because \w and \d also accept "é", "²" and "٣".
_TOKEN_RE = re.compile(
    r"[A-Za-z_][A-Za-z0-9_]*"  # word
    r"|[(){};,.]"  # punct
    r"|==|!=|<=|>=|&&|\|\||[=<>+\-*%!]"  # operator other than "/"
    r"|[0-9]+(?:\.[0-9]+)?"  # number
    r'|"[^"\\]*(?:\\[\s\S][^"\\]*)*"'  # string with backslash escapes
    r"|//[^\n]*|/\*[\s\S]*?\*/"  # comments
    r"|/\*?"  # the "/" operator, or "/*" with no closing "*/"
    r"|\S"  # anything else
)
# The kind of a text is its entry in `_TEXT_KIND`, else its first
# character's in `_FIRST_KIND` (docs/grammar.md, "Lexical rules"). A
# placeholder keeps its literal's kind, and the parser's "<eof>" reads as
# punct. A comment's match gets "comment", though it is no token. None
# marks a match that can only be an error: a lone quote (a string
# alternative that found no closing quote), "/*", a lone "&" or "|", or a
# first character no lexeme starts with.
_TEXT_KIND = dict.fromkeys(KEYWORDS, "keyword")
_TEXT_KIND.update({"true": "bool", "false": "bool", "/": "operator", NUM_TOKEN: "number",
                   STR_TOKEN: "string", BOOL_TOKEN: "bool", "<eof>": "punct",
                   '"': None, "/*": None, "&": None, "|": None})
_FIRST_KIND = dict.fromkeys("=<>+-*%!&|", "operator")
_FIRST_KIND.update(dict.fromkeys("(){};,.", "punct"))
_FIRST_KIND.update(dict.fromkeys("0123456789", "number"))
_FIRST_KIND.update(dict.fromkeys(string.ascii_letters + "_", "identifier"))
_FIRST_KIND.update({'"': "string", "/": "comment"})
_ERROR_OR_COMMENT = frozenset((None, "comment"))
_LEX_ERRORS = {'"': "unterminated string literal", "/*": "unterminated block comment"}


def token_kinds(texts: list[str]) -> list[str | None]:
    """The kind of each token text: "identifier", "keyword", "number",
    "string", "bool", "operator" or "punct" (docs/grammar.md)."""
    return list(map(_TEXT_KIND.get, texts, map(_FIRST_KIND.get, map(itemgetter(0), texts))))


def tokenize(source: str) -> list[str]:
    """Lex source text into token texts, skipping whitespace and comments.

    Kinds are found here only to spot comments and errors; `token_offsets`
    finds where tokens start, for error messages.
    """
    texts = _TOKEN_RE.findall(source)
    kinds = token_kinds(texts)
    if not _ERROR_OR_COMMENT.isdisjoint(kinds):
        return _drop_comments(source, texts, kinds)
    return texts


def _drop_comments(source: str, texts: list[str], kinds: list[str | None]) -> list[str]:
    """The texts without comments; raises the LexError of the first error match."""
    for i, (text, kind) in enumerate(zip(texts, kinds)):
        if kind is None:
            offset = next(itertools.islice(_TOKEN_RE.finditer(source), i, None)).start()
            raise LexError(_LEX_ERRORS.get(text, f"unrecognized character {text!r}"), offset)
    return [text for text, kind in zip(texts, kinds) if kind != "comment"]


def token_offsets(source: str) -> list[int]:
    """The character offset of each token of a source that lexes."""
    return [m.start() for m in _TOKEN_RE.finditer(source) if not m[0].startswith(("//", "/*"))]


# A number starts with a digit and a string with a quote; true and false
# are the bools
_LITERAL_BY_FIRST = dict.fromkeys("0123456789", NUM_TOKEN)
_LITERAL_BY_FIRST['"'] = STR_TOKEN
_LITERAL_BY_TEXT = {"true": BOOL_TOKEN, "false": BOOL_TOKEN}


def abstract_literals(tokens: list[str]) -> list[str]:
    """Replace every literal token with its placeholder token.

    Kinds and list length are preserved, so the operation is idempotent;
    any other token comes back as the same object.
    """
    by_first = map(_LITERAL_BY_FIRST.get, map(itemgetter(0), tokens), tokens)
    return list(map(_LITERAL_BY_TEXT.get, tokens, by_first))


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


# Statement kinds are "decl", "assign", "expr", "if", "while", "for",
# "return", "break", "continue" and "block". The statements that transfer
# control, and those that head a control construct:
JUMPS = frozenset(("return", "break", "continue"))
HEADERS = frozenset(("if", "while", "for"))
# The AST node type of each jump and header statement (docs/grammar.md)
_STMT_TYPE = {"if": "IfStatement", "while": "WhileStatement", "for": "ForStatement",
              "return": "ReturnStatement", "break": "BreakStatement",
              "continue": "ContinueStatement"}


@dataclass(slots=True)
class AstNode:
    node_type: str  # MethodDeclaration, IfStatement, BinaryOperation, ... (docs/grammar.md)
    value: str | None = None
    children: list["AstNode"] = field(default_factory=list)

    def type_value(self) -> str:
        if self.value:
            return f"{self.node_type}_{self.value}"
        return self.node_type


@dataclass(slots=True)
class Statement:
    stmt_id: int
    kind: str  # "decl", "if", "block", ...
    span: tuple[int, int]  # half-open token index range of the full extent
    node: AstNode | None = None  # its AST node; None for a header or block (see `stmt_ast`)
    cond: AstNode | None = None  # IF / WHILE / FOR
    cond_span: tuple[int, int] | None = None
    init: Statement | None = None  # FOR
    update: Statement | None = None  # FOR
    body: list["Statement"] = field(default_factory=list)  # IF then, loops, BLOCK
    orelse: list["Statement"] = field(default_factory=list)  # IF else


@dataclass
class Method:
    name: str
    declaration: list[AstNode]  # return type and parameter nodes, shared by the method's trees
    declaration_tokens: list[str]  # return type through the closing ')'
    body: list[Statement]
    tokens: list[str]  # the token list all spans index into
    span: tuple[int, int]  # half-open range of this method's own tokens
    statements: dict[int, Statement]  # every statement, nested ones included, by id


# The kind of statement each of these first tokens opens; any other
# first token opens a declaration, assignment or expression statement.
_OPENS = {"{": "block", "for": "for", "if": "if", "while": "while", "return": "return",
          "break": "break", "continue": "continue"}

# Deepest nesting the parser accepts (docs/grammar.md, "Nesting limit"); it keeps
# the recursive AST, CFG and JSON builders under Python's default recursion limit.
MAX_NESTING = 100
_TOO_DEEP = f"nesting at most {MAX_NESTING} deep"

# Read after the caller's last token. It matches no grammar rule, so no
# read runs past it and an error there is found at '<eof>'.
_EOF = "<eof>"
_LITERALS = frozenset(("number", "string", "bool"))


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens  # the caller's list, which spans index into
        self.toks = tokens + [_EOF]
        self.kinds = token_kinds(self.toks)  # read only where an identifier may stand
        self.end = len(tokens)  # the index of _EOF
        self.i = 0
        self.statements: dict[int, Statement] = {}
        self.depth = 0  # current nesting level, see MAX_NESTING

    def _fail(self, expected: list[str]):
        raise ParseError(self.i, expected, self.toks[self.i])

    def _expect(self, text: str):
        if self.toks[self.i] != text:
            self._fail([repr(text)])
        self.i += 1

    def _expect_ident(self, what: str) -> str:
        i = self.i
        if self.kinds[i] != "identifier":
            self._fail([what])
        self.i = i + 1
        return self.toks[i]

    # --- declarations -----------------------------------------------------

    def parse_method(self) -> Method:
        """Parse the method that starts at the next token; its ids start at 0."""
        self.statements = {}
        start = self.i
        declaration = [AstNode("BasicType", self._expect_ident("return type"))]
        name = self._expect_ident("method name")
        declaration += self._parse_list(self._parse_param)
        declaration_tokens = self.toks[start : self.i]
        body = self._parse_braced()
        return Method(
            name=name,
            declaration=declaration,
            declaration_tokens=declaration_tokens,
            body=body,
            tokens=self.tokens,
            span=(start, self.i),
            statements=self.statements,
        )

    def _parse_param(self) -> AstNode:
        ptype = AstNode("BasicType", self._expect_ident("parameter type"))
        return AstNode("FormalParameter", self._expect_ident("parameter name"), [ptype])

    # --- statements -------------------------------------------------------

    # Statement ids are given as statements start, so they follow source
    # order. A compound statement holds its id's place in `statements` with
    # None until it ends; any other holds no statement inside, so it is
    # entered when it ends.

    def parse_statement(self) -> Statement:
        depth = self.depth = self.depth + 1
        if depth > MAX_NESTING:
            self._fail([_TOO_DEEP])
        toks, start, statements = self.toks, self.i, self.statements
        if start == self.end:
            self._fail(["statement"])
        kind = _OPENS.get(toks[start])
        if kind is None:
            stmt = self._parse_simple()
            if toks[self.i] != ";":
                self._fail(["';'"])
            self.i += 1
            stmt.span = (start, self.i)
        elif kind in JUMPS:
            sid = len(statements)
            self.i += 1
            node = AstNode(_STMT_TYPE[kind])
            if kind == "return" and toks[self.i] != ";":
                node.children.append(self.parse_expr())
            if toks[self.i] != ";":
                self._fail(["';'"])
            self.i += 1
            stmt = statements[sid] = Statement(sid, kind, (start, self.i), node)
        else:
            sid = len(statements)
            statements[sid] = None
            if kind == "block":
                body = self._parse_braced()
                stmt = Statement(sid, kind, (start, self.i), body=body)
            elif kind == "for":
                stmt = self._parse_for(sid)
            else:  # if or while
                self.i += 1
                self._expect("(")
                cond, cond_span = self._parse_cond()
                self._expect(")")
                body = self._parse_body()
                orelse: list[Statement] = []
                if kind == "if" and toks[self.i] == "else":
                    self.i += 1
                    orelse = self._parse_body()
                stmt = Statement(sid, kind, (start, self.i), cond=cond, cond_span=cond_span,
                                 body=body, orelse=orelse)
            statements[sid] = stmt
        self.depth = depth - 1
        return stmt

    def _parse_braced(self) -> list[Statement]:
        """Read `{ statement* }` and return the statements."""
        self._expect("{")
        toks, out = self.toks, []
        while toks[self.i] != "}":
            if self.i == self.end:
                self._fail(["'}'", "statement"])
            out.append(self.parse_statement())
        self.i += 1
        return out

    def _parse_cond(self) -> tuple[AstNode, tuple[int, int]]:
        """Read a condition; returns it with its token span."""
        start = self.i
        cond = self.parse_expr()
        return cond, (start, self.i)

    def _parse_body(self) -> list[Statement]:
        # Braced bodies are flattened; a single statement becomes a one-item list.
        stmt = self.parse_statement()
        if stmt.kind == "block":
            return stmt.body
        return [stmt]

    def _parse_for(self, sid: int) -> Statement:
        start, toks = self.i, self.toks
        self.i += 1  # "for"
        self._expect("(")
        init = None if toks[self.i] == ";" else self._parse_simple()
        self._expect(";")
        cond, cond_span = (None, None) if toks[self.i] == ";" else self._parse_cond()
        self._expect(";")
        update = None if toks[self.i] == ")" else self._parse_simple()
        self._expect(")")
        body = self._parse_body()
        return Statement(sid, "for", (start, self.i), cond=cond, cond_span=cond_span,
                         init=init, update=update, body=body)

    def _parse_simple(self) -> Statement:
        """Parse a declaration, assignment, or expression statement.

        The trailing ';' is consumed by the caller, so the same parse
        serves both free-standing statements and for-loop clauses.
        """
        start, toks, kinds, sid = self.i, self.toks, self.kinds, len(self.statements)
        if kinds[start] == "identifier" and kinds[start + 1] == "identifier":
            self.i = start + 2
            node = AstNode("LocalVariableDeclaration", toks[start + 1],
                           [AstNode("BasicType", toks[start])])
            if toks[self.i] == "=":
                self.i += 1
                node.children.append(self.parse_expr())
            stmt = Statement(sid, "decl", (start, self.i), node)
        else:
            expr = self.parse_expr()
            if toks[self.i] == "=":
                if expr.node_type not in ("MemberReference", "FieldAccess"):
                    self._fail(["assignable target"])
                self.i += 1
                node = AstNode("Assignment", None, [expr, self.parse_expr()])
                stmt = Statement(sid, "assign", (start, self.i), node)
            else:
                node = AstNode("StatementExpression", None, [expr])
                stmt = Statement(sid, "expr", (start, self.i), node)
        self.statements[sid] = stmt
        return stmt

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

    # The nesting bound counts one level per statement, unary operator,
    # binary operator and member access. `parse_expr` runs once per leaf
    # and per operator; it reads each leaf, a primary or a unary operation,
    # itself, and the member accesses after a leaf are one call.

    def parse_expr(self, min_bp: int = 1) -> AstNode:
        toks, binding = self.toks, self._BINDING
        depth = self.depth
        level = self.depth = depth + 1
        if level > MAX_NESTING:
            self._fail([_TOO_DEEP])
        i = self.i
        t = toks[i]
        kind = self.kinds[i]
        if kind == "identifier":
            self.i = i + 1
            if toks[i + 1] == "(":
                left = AstNode("MethodInvocation", t, self._parse_list(self.parse_expr))
            else:
                left = AstNode("MemberReference", t)
        elif kind in _LITERALS:
            self.i = i + 1
            left = AstNode("Literal", t)
        elif t == "(":
            self.i = i + 1
            left = self.parse_expr()
            self._expect(")")
        elif t in ("!", "-"):
            self.i = i + 1
            left = AstNode("UnaryOperation", t, [self.parse_expr(self._UNARY)])
        else:
            self._fail(["expression"])
        if toks[self.i] == ".":  # never after a unary operation, whose operand took it
            left = self._parse_members(left)
        while True:
            t = toks[self.i]
            bp = binding.get(t)
            if bp is None or bp < min_bp:
                break
            self.i += 1
            level = self.depth = level + 1  # every operator of a chain nests `left` one deeper
            if level > MAX_NESTING:
                self._fail([_TOO_DEEP])
            right = self.parse_expr(bp + 1)
            left = AstNode("BinaryOperation", t, [left, right])
        self.depth = depth
        return left

    def _parse_members(self, expr: AstNode) -> AstNode:
        """Read the field accesses and method calls on `expr`, each after a '.'."""
        toks = self.toks
        depth = level = self.depth
        while toks[self.i] == ".":
            level = self.depth = level + 1  # every member access nests `expr` one deeper
            if level > MAX_NESTING:
                self._fail([_TOO_DEEP])
            self.i += 1
            if self.kinds[self.i] != "identifier":
                self._fail(["member name"])
            name = toks[self.i]
            self.i += 1
            if toks[self.i] == "(":
                expr = AstNode("MethodInvocation", name,
                               [expr] + self._parse_list(self.parse_expr))
            else:
                expr = AstNode("FieldAccess", name, [expr])
        self.depth = depth
        return expr

    def _parse_list(self, item) -> list:
        """Read `( [item {"," item}] )`: parameters or call arguments."""
        toks, out = self.toks, []
        if toks[self.i] != "(":
            self._fail(["'('"])
        self.i += 1
        if toks[self.i] != ")":
            out.append(item())
            while toks[self.i] == ",":
                self.i += 1
                out.append(item())
        if toks[self.i] != ")":
            self._fail(["')'"])
        self.i += 1
        return out


def parse_method(tokens: list[str]) -> Method:
    """Parse one method from a token list; raises ParseError on violation."""
    parser = _Parser(tokens)
    method = parser.parse_method()
    if parser.i != parser.end:
        parser._fail(["<eof>"])
    return method


def parse_program(source: str) -> list[Method]:
    """Lex, abstract literals, and parse every method in a source file."""
    parser = _Parser(abstract_literals(tokenize(source)))
    methods = []
    while parser.i != parser.end:
        methods.append(parser.parse_method())
    return methods


# --- AST construction -----------------------------------------------------


def iter_nodes(root: AstNode):
    """Yield every node of the tree in preorder."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def ast_to_json(root: AstNode) -> dict:
    """Nested {id, type, value, children} form used by the split dump.

    A node's id is its preorder index within the tree, numbered here.
    """
    ids = itertools.count()

    def node_json(node: AstNode) -> dict:
        return {
            "id": next(ids),
            "type": node.node_type,
            "value": node.value,
            "children": [node_json(c) for c in node.children],
        }

    return node_json(root)


def _block_ast(stmts: list[Statement]) -> AstNode:
    return AstNode("BlockStatement", None, [stmt_ast(s) for s in stmts])


def stmt_ast(s: Statement, clauses: tuple | None = None) -> AstNode:
    """The node of a statement (docs/grammar.md).

    A simple statement's node is the parser's own, `s.node`. A header or
    block gets a new node over the parser's nodes, not copies. Given
    `clauses`, an (init, update) pair, a control header stands alone as a
    split holds it: with those for clauses, its condition and an empty body.
    """
    if s.node is not None:
        return s.node
    if s.kind == "block":
        return _block_ast(s.body)
    init, update = (s.init, s.update) if clauses is None else clauses
    children = [] if init is None else [init.node]
    if s.cond is not None:
        children.append(s.cond)
    if update is not None:
        children.append(update.node)
    if clauses is not None:
        children.append(AstNode("BlockStatement", None, []))
    else:
        children.append(_block_ast(s.body))
        if s.orelse:
            children.append(_block_ast(s.orelse))
    return AstNode(_STMT_TYPE[s.kind], None, children)


def build_ast(method: Method) -> AstNode:
    """Build the labeled syntax tree of a parsed method.

    The root is a MethodDeclaration carrying the method name; the return
    type and parameters come first, then one subtree per body statement.
    The root, header and block nodes are new; the rest are the parser's
    nodes, shared with every other tree built from the method. Nodes
    carry no ids; `ast_to_json` numbers them in preorder.
    """
    return AstNode("MethodDeclaration", method.name,
                   method.declaration + [stmt_ast(s) for s in method.body])
