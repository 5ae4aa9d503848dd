"""Block-wise partition of the dominator tree into code splits.

Virtual start/end nodes are dropped first. Following the paper, every
dominator-tree edge out of a node with more than one child is cut; each
surviving connected component is one block of consecutive statements. A
block is materialized as split code by prepending the method declaration,
and each split code re-parses into its own split AST. Removed edges,
lifted to the blocks they join, form the successor relation later used
as pre-training labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from basts.cfg import Cfg, NodeKind, build_cfg
from basts.dominators import DomTree, compute_dominators
from basts.frontend import (
    AstNode,
    Method,
    Statement,
    StmtKind,
    Token,
    TokenKind,
    build_ast,
    parse_method,
)


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


def _render_piece(method: Method, stmt: Statement, split_ids: set[int]) -> list[Token]:
    """Tokens for one statement-level piece of a split.

    Control-flow headers are completed with an empty block so the split
    code stays parseable. A for header absorbs its init/update clauses
    when they live in the same split; clauses stranded in another split
    render there as standalone statements.
    """
    toks = method.tokens
    k = stmt.kind
    if k is StmtKind.IF or k is StmtKind.WHILE:
        lo, hi = stmt.cond_span
        keyword = toks[stmt.span[0]]
        return [keyword, _punct("(")] + toks[lo:hi] + [_punct(")"), _punct("{"), _punct("}")]
    if k is StmtKind.FOR:
        out = [toks[stmt.span[0]], _punct("(")]
        if stmt.init is not None and stmt.init.stmt_id in split_ids:
            out += toks[stmt.init.span[0] : stmt.init.span[1]]
        out.append(_punct(";"))
        if stmt.cond_span is not None:
            out += toks[stmt.cond_span[0] : stmt.cond_span[1]]
        out.append(_punct(";"))
        if stmt.update is not None and stmt.update.stmt_id in split_ids:
            out += toks[stmt.update.span[0] : stmt.update.span[1]]
        return out + [_punct(")"), _punct("{"), _punct("}")]
    out = list(toks[stmt.span[0] : stmt.span[1]])
    if out and out[-1].text != ";":
        out.append(_punct(";"))  # for-loop clause rendered standalone
    return out


def _absorbed_clauses(method: Method, split: CodeSplit) -> set[int]:
    """Statement ids that render inside a co-resident for header."""
    ids = set(split.statements)
    absorbed = set()
    for sid in split.statements:
        stmt = method.statements[sid]
        if stmt.kind is not StmtKind.FOR:
            continue
        for clause in (stmt.init, stmt.update):
            if clause is not None and clause.stmt_id in ids:
                absorbed.add(clause.stmt_id)
    return absorbed


def _append_body(out: list[Token], split: CodeSplit, method: Method) -> list[Token]:
    """Append the split's statement tokens to `out` in source order."""
    ids = set(split.statements)
    absorbed = _absorbed_clauses(method, split)
    for sid in split.statements:
        if sid not in absorbed:
            out.extend(_render_piece(method, method.statements[sid], ids))
    return out


def make_split_code(split: CodeSplit, method: Method) -> list[Token]:
    """Declaration tokens followed by the split's statements in source order."""
    return _append_body(list(method.declaration_tokens), split, method)


def build_split_asts(splitgraph: SplitGraph, method: Method) -> list[SplitAst]:
    """Re-parse each split's code and build its AST; one tree per split."""
    out = []
    for split in splitgraph.splits:
        tokens = _append_body(method.declaration_tokens + [_punct("{")], split, method)
        tokens.append(_punct("}"))
        out.append(SplitAst(split.split_id, build_ast(parse_method(tokens))))
    return out


def split_method(method: Method) -> MethodSplits:
    """Run CFG, dominators, partition, and split-AST construction."""
    cfg = build_cfg(method)
    domtree = compute_dominators(cfg)
    graph = partition_blocks(domtree, cfg)
    asts = build_split_asts(graph, method)
    return MethodSplits(method, graph, asts)
