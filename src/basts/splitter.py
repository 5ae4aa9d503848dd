"""Block-wise partition of the dominator tree into code splits.

Virtual start/end nodes are dropped first. Following the paper, every
dominator-tree edge out of a node with more than one child is cut; each
surviving connected component is one block of consecutive statements. A
block is materialized as split code by prepending the method declaration.
Each split's AST is built from the method's parsed statements and equals
what re-parsing the split's code would give. Removed edges,
lifted to the blocks they join, form the successor relation later used
as pre-training labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from basts.cfg import Cfg, NodeKind, build_cfg
from basts.dominators import DomTree, compute_dominators
from basts.frontend import AstNode, Method, Statement, StmtKind, Token, TokenKind, _AstBuilder

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
    stmt_of = {
        n.node_id: n.stmt_id for n in cfg.nodes if n.kind is NodeKind.STMT
    }
    real = sorted(stmt_of)
    if not real:
        return SplitGraph([CodeSplit(0, [])], [])

    real_set = set(real)
    parent = {
        v: domtree.idom[v] for v in real if domtree.idom.get(v) in real_set
    }
    out_degree = {v: 0 for v in real}
    for par in parent.values():
        out_degree[par] += 1

    kept: list[tuple[int, int]] = []
    removed: list[tuple[int, int]] = []
    for child in real:
        par = parent.get(child)
        if par is None:
            continue
        if out_degree[par] > 1:
            removed.append((par, child))
        else:
            kept.append((par, child))

    # Components of the kept forest, via union-find.
    comp = {v: v for v in real}

    def find(v: int) -> int:
        while comp[v] != v:
            comp[v] = comp[comp[v]]
            v = comp[v]
        return v

    for a, b in kept:
        comp[find(a)] = find(b)

    members: dict[int, list[int]] = {}
    for v in real:
        members.setdefault(find(v), []).append(v)

    ordered = sorted(members.values(), key=lambda ms: min(stmt_of[v] for v in ms))
    split_of_node: dict[int, int] = {}
    splits = []
    for sid, ms in enumerate(ordered):
        stmt_ids = sorted(stmt_of[v] for v in ms)
        splits.append(CodeSplit(sid, stmt_ids))
        for v in ms:
            split_of_node[v] = sid

    edges = sorted({(split_of_node[a], split_of_node[b]) for a, b in removed})
    return SplitGraph(splits, edges)


def _punct(text: str) -> Token:
    return Token(text, TokenKind.PUNCT, -1)


def _pieces(split: CodeSplit, method: Method) -> list[Statement]:
    """The split's statement-level pieces in source order, as its code holds them.

    A control header's body statements are pieces of their own or lie in
    other splits, so the header gets an empty body and an if loses its
    else part. A for keeps the init/update clauses that live in the same
    split, and they belong to its piece; a clause stranded in another
    split is a standalone piece there.
    """
    ids = set(split.statements)
    absorbed = set()
    out = []
    for sid in split.statements:
        stmt = method.statements[sid]
        k = stmt.kind
        if k is StmtKind.IF or k is StmtKind.WHILE:
            stmt = replace(stmt, body=[], orelse=[])
        elif k is StmtKind.FOR:
            init, update = stmt.init, stmt.update
            init = init if init is not None and init.stmt_id in ids else None
            update = update if update is not None and update.stmt_id in ids else None
            absorbed.update(c.stmt_id for c in (init, update) if c is not None)
            stmt = replace(stmt, body=[], init=init, update=update)
        out.append(stmt)
    return [s for s in out if s.stmt_id not in absorbed]


def _render_piece(method: Method, stmt: Statement) -> list[Token]:
    """Tokens for one piece of a split, as `_pieces` gives it.

    Control-flow headers are completed with an empty block so the split
    code stays parseable.
    """
    toks = method.tokens
    k = stmt.kind
    if k is StmtKind.IF or k is StmtKind.WHILE:
        lo, hi = stmt.cond_span
        keyword = toks[stmt.span[0]]
        return [keyword, _punct("(")] + toks[lo:hi] + [_punct(")"), _punct("{"), _punct("}")]
    if k is StmtKind.FOR:
        out = [toks[stmt.span[0]], _punct("(")]
        if stmt.init is not None:
            out += toks[stmt.init.span[0] : stmt.init.span[1]]
        out.append(_punct(";"))
        if stmt.cond_span is not None:
            out += toks[stmt.cond_span[0] : stmt.cond_span[1]]
        out.append(_punct(";"))
        if stmt.update is not None:
            out += toks[stmt.update.span[0] : stmt.update.span[1]]
        return out + [_punct(")"), _punct("{"), _punct("}")]
    out = list(toks[stmt.span[0] : stmt.span[1]])
    if out and out[-1].text != ";":
        out.append(_punct(";"))  # for-loop clause rendered standalone
    return out


def make_split_code(split: CodeSplit, method: Method) -> list[Token]:
    """Declaration tokens followed by the split's statements in source order."""
    out = list(method.declaration_tokens)
    for piece in _pieces(split, method):
        out.extend(_render_piece(method, piece))
    return out


def build_split_asts(splitgraph: SplitGraph, method: Method) -> list[SplitAst]:
    """Build each split's AST from the method's parsed statements; one tree per split.

    The root is the method declaration, followed by one subtree per piece
    of the split. The tree equals what parsing the split's code, with its
    body braced, would give.
    """
    return [
        SplitAst(split.split_id, _AstBuilder().method(method, _pieces(split, method)))
        for split in splitgraph.splits
    ]


def split_method(method: Method) -> MethodSplits:
    """Run CFG, dominators, partition, and split-AST construction."""
    cfg = build_cfg(method)
    domtree = compute_dominators(cfg)
    graph = partition_blocks(domtree, cfg)
    asts = build_split_asts(graph, method)
    return MethodSplits(method, graph, asts)
