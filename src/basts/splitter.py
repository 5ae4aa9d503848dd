"""Block-wise partition of the dominator tree into code splits.

Virtual start/end nodes are dropped first. Following the paper, every
dominator-tree edge out of a node with more than one child is cut; each
surviving connected component is one block of consecutive statements. A
block is materialized as split code, a list of token texts, by
prepending the method declaration.
Each split's AST is built from the method's parsed statements and equals
what re-parsing the split's code would give. A split tree is the
parser's declaration and statement nodes under header, block and
`MethodDeclaration` nodes of its own, so a method's split trees share the
declaration nodes, and every tree shares the frontend's per-text
`MemberReference`, `Literal` and `BasicType` leaves. Removed edges,
lifted to the blocks they join, form the successor relation later used
as pre-training labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from basts.cfg import Cfg, build_cfg
from basts.dominators import DomTree, compute_dominators
from basts.frontend import HEADERS, AstNode, Method, Statement, stmt_ast

# parse_method and build_ast are not called here but stay reachable
# (bench/workloads.py wraps them by these names)
from basts.frontend import build_ast, parse_method  # noqa: F401


@dataclass
class CodeSplit:
    split_id: int
    statements: list[int]  # statement ids in source order


@dataclass
class SplitGraph:
    splits: list[CodeSplit]
    successor_edges: list[tuple[int, int]]  # sorted (from split, to split) pairs


@dataclass
class SplitAst:
    split_id: int
    root: AstNode


@dataclass
class MethodSplits:
    method: Method
    graph: SplitGraph
    asts: list["SplitAst"] = field(default_factory=list)


def partition_blocks(domtree: DomTree, cfg: Cfg) -> SplitGraph:
    """Partition the dominator tree of a method into code splits.

    An empty method body yields a single empty split so the declaration
    still has a carrier. Statement ids follow source order, so they double
    as ordering keys.
    """
    stmt_of = [n.stmt_id for n in cfg.nodes]  # None for the start and end nodes
    idom = domtree.idom
    fanout = [0] * len(stmt_of)  # dominator-tree children among real nodes
    for v, p in idom.items():
        if stmt_of[v] is not None and stmt_of[p] is not None:
            fanout[p] += 1

    # A tree edge survives when its parent is real and has one child, so a
    # node is in its parent's block then and heads a block of its own
    # otherwise. Reverse postorder puts every node's immediate dominator
    # before it, so one pass over `cfg.order` finds every head.
    head = [-1] * len(stmt_of)
    blocks: dict[int, list[int]] = {}
    for v in cfg.order:
        s = stmt_of[v]
        if s is not None:
            p = idom[v]
            if stmt_of[p] is not None and fanout[p] == 1:
                h = head[v] = head[p]
                blocks[h].append(s)
            else:
                head[v] = v
                blocks[v] = [s]
    if not blocks:
        return SplitGraph([CodeSplit(0, [])], [])
    # blocks are disjoint, so sorting on their sorted statements orders them by first statement
    ordered = sorted((sorted(stmts), h) for h, stmts in blocks.items())
    split_of = {h: sid for sid, (_, h) in enumerate(ordered)}
    splits = [CodeSplit(sid, stmts) for sid, (stmts, _) in enumerate(ordered)]
    edges = sorted({(split_of[head[idom[h]]], split_of[h])
                    for _, h in ordered if stmt_of[idom[h]] is not None})
    return SplitGraph(splits, edges)


_OPEN, _SEMI = "(", ";"
_EMPTY_BODY = [")", "{", "}"]


def _pieces(split: CodeSplit, method: Method) -> list[tuple[Statement, tuple | None]]:
    """The split's statement-level pieces in source order, as its code holds them.

    Each piece is a statement and, for a control header, the (init, update)
    clauses it keeps; None for any other statement. A header's body
    statements are pieces of their own or lie in other splits, so the
    header gets an empty body and an if loses its else part. A for keeps
    the clauses that live in the same split, and they belong to its
    piece; a clause stranded in another split is a standalone piece there.
    Ids follow source order, so a for comes before its clauses.
    """
    ids = split.statements  # a handful, so scanning the list beats building a set
    absorbed: list[int] = []
    out = []
    for sid in ids:
        if sid in absorbed:
            continue
        stmt, clauses = method.statements[sid], None
        if stmt.kind in HEADERS:
            clauses = tuple(c if c is not None and c.stmt_id in ids else None
                            for c in (stmt.init, stmt.update))  # both None unless a for
            absorbed += [c.stmt_id for c in clauses if c is not None]
        out.append((stmt, clauses))
    return out


def _render_piece(method: Method, stmt: Statement, clauses: tuple | None) -> list[str]:
    """Tokens for one piece of a split, as `_pieces` gives it.

    Control-flow headers are completed with an empty block so the split
    code stays parseable.
    """
    toks = method.tokens
    if clauses is None:
        out = toks[stmt.span[0] : stmt.span[1]]
        if out and out[-1] != ";":
            out.append(_SEMI)  # for-loop clause rendered standalone
        return out
    out = [toks[stmt.span[0]], _OPEN]
    if stmt.kind == "for":
        init, update = clauses
        if init is not None:
            out += toks[init.span[0] : init.span[1]]
        out.append(_SEMI)
        if stmt.cond_span is not None:
            out += toks[stmt.cond_span[0] : stmt.cond_span[1]]
        out.append(_SEMI)
        if update is not None:
            out += toks[update.span[0] : update.span[1]]
    else:
        out += toks[stmt.cond_span[0] : stmt.cond_span[1]]
    return out + _EMPTY_BODY


def make_split_code(split: CodeSplit, method: Method) -> list[str]:
    """Declaration tokens followed by the split's statements in source order."""
    out = list(method.declaration_tokens)
    for stmt, clauses in _pieces(split, method):
        out.extend(_render_piece(method, stmt, clauses))
    return out


def build_split_asts(splitgraph: SplitGraph, method: Method) -> list[SplitAst]:
    """Build each split's AST from the method's parsed statements; one tree per split.

    The root is the method declaration, followed by one subtree per piece
    of the split. The tree equals what parsing the split's code, with its
    body braced, would give. Every tree of the method shares the parser's
    declaration nodes. Its simple statement nodes are the parser's own
    too: each lies in the one split that holds its statement.
    """
    return [
        SplitAst(split.split_id, AstNode("MethodDeclaration", method.name, method.declaration + [
            stmt_ast(stmt, clauses) for stmt, clauses in _pieces(split, method)]))
        for split in splitgraph.splits
    ]


def split_method(method: Method) -> MethodSplits:
    """Run CFG, dominators, partition, and split-AST construction."""
    cfg = build_cfg(method)
    domtree = compute_dominators(cfg)
    graph = partition_blocks(domtree, cfg)
    asts = build_split_asts(graph, method)
    return MethodSplits(method, graph, asts)
