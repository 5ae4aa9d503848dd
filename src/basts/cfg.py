"""Control flow graph construction over parsed methods.

One graph node per simple statement; if/while/for headers are their own
nodes and block bodies are inlined. Start and end nodes are virtual. The
for construct is wired init -> header -> body -> update -> header, and
the header always carries an exit edge so every node lies on some
start-to-end path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from basts.frontend import Method, Statement, StmtKind


class CfgError(ValueError):
    pass


class NodeKind(Enum):
    START = "start"
    END = "end"
    STMT = "stmt"


@dataclass(frozen=True)
class CfgNode:
    node_id: int
    kind: NodeKind
    stmt_id: int | None = None  # present exactly when kind is STMT


@dataclass
class Cfg:
    nodes: list[CfgNode]
    edges: list[tuple[int, int]]
    entry: int
    exit: int
    succ: dict[int, list[int]] = field(default_factory=dict)
    pred: dict[int, list[int]] = field(default_factory=dict)

    def __post_init__(self):
        if not self.succ:
            self.succ = {n.node_id: [] for n in self.nodes}
            self.pred = {n.node_id: [] for n in self.nodes}
            for a, b in self.edges:
                self.succ[a].append(b)
                self.pred[b].append(a)


class _Builder:
    def __init__(self):
        self.nodes = [CfgNode(0, NodeKind.START), CfgNode(1, NodeKind.END)]
        self.edges: list[tuple[int, int]] = []
        self._edge_set: set[tuple[int, int]] = set()

    def new_node(self, stmt: Statement) -> int:
        node_id = len(self.nodes)
        self.nodes.append(CfgNode(node_id, NodeKind.STMT, stmt.stmt_id))
        return node_id

    def edge(self, a: int, b: int):
        if (a, b) not in self._edge_set:
            self._edge_set.add((a, b))
            self.edges.append((a, b))

    def wire_sequence(self, stmts: list[Statement], loop) -> tuple[int | None, list[int]]:
        """Wire a statement list; returns (head node, dangling exits).

        `loop` is (header node, break sink list) of the innermost loop, or
        None outside loops. A head of None means the sequence is empty; an
        empty exit list means control never falls through.
        """
        head: int | None = None
        exits: list[int] = []
        first = True
        for stmt in stmts:
            s_head, s_exits = self.wire_statement(stmt, loop)
            if s_head is None:
                continue  # empty block contributes nothing
            if first:
                head = s_head
                first = False
            else:
                if not exits:
                    raise CfgError(
                        f"unreachable statement (id {stmt.stmt_id}): "
                        "no control path falls through to it"
                    )
                for e in exits:
                    self.edge(e, s_head)
            exits = s_exits
        return head, exits

    def wire_statement(self, stmt: Statement, loop) -> tuple[int | None, list[int]]:
        k = stmt.kind
        if k is StmtKind.BLOCK:
            return self.wire_sequence(stmt.body, loop)
        if k in (StmtKind.DECL, StmtKind.ASSIGN, StmtKind.EXPR):
            node = self.new_node(stmt)
            return node, [node]
        if k is StmtKind.RETURN:
            node = self.new_node(stmt)
            self.edge(node, 1)
            return node, []
        if k is StmtKind.BREAK:
            if loop is None:
                raise CfgError(f"break outside a loop (statement {stmt.stmt_id})")
            node = self.new_node(stmt)
            loop[1].append(node)
            return node, []
        if k is StmtKind.CONTINUE:
            if loop is None:
                raise CfgError(f"continue outside a loop (statement {stmt.stmt_id})")
            node = self.new_node(stmt)
            self.edge(node, loop[0])
            return node, []
        if k is StmtKind.IF:
            header = self.new_node(stmt)
            then_head, then_exits = self.wire_sequence(stmt.body, loop)
            exits = []
            if then_head is None:
                exits.append(header)  # empty branch falls through the header
            else:
                self.edge(header, then_head)
                exits.extend(then_exits)
            if stmt.orelse:
                else_head, else_exits = self.wire_sequence(stmt.orelse, loop)
                if else_head is None:
                    exits.append(header)
                else:
                    self.edge(header, else_head)
                    exits.extend(else_exits)
            else:
                exits.append(header)  # fall-through edge when no else branch
            return header, exits
        if k is StmtKind.WHILE:
            header = self.new_node(stmt)
            breaks: list[int] = []
            body_head, body_exits = self.wire_sequence(stmt.body, (header, breaks))
            if body_head is None:
                self.edge(header, header)
            else:
                self.edge(header, body_head)
                for e in body_exits:
                    self.edge(e, header)
            return header, [header] + breaks
        if k is StmtKind.FOR:
            init = self.new_node(stmt.init) if stmt.init is not None else None
            header = self.new_node(stmt)
            if init is not None:
                self.edge(init, header)
            breaks: list[int] = []
            body_head, body_exits = self.wire_sequence(stmt.body, (header, breaks))
            update = self.new_node(stmt.update) if stmt.update is not None else None
            back_target = header
            if update is not None:
                self.edge(update, header)
                back_target = update
            if body_head is None:
                self.edge(header, back_target)
            else:
                self.edge(header, body_head)
                for e in body_exits:
                    self.edge(e, back_target)
            entry = init if init is not None else header
            return entry, [header] + breaks
        raise CfgError(f"cannot wire statement kind {k}")


def build_cfg(method: Method) -> Cfg:
    """Build the statement-level control flow graph of a method.

    Raises CfgError for break/continue outside a loop and for statements
    no control path can reach (dead code after return/break/continue).
    """
    b = _Builder()
    head, exits = b.wire_sequence(method.body, None)
    if head is None:
        b.edge(0, 1)
    else:
        b.edge(0, head)
        for e in exits:
            b.edge(e, 1)
    cfg = Cfg(b.nodes, b.edges, entry=0, exit=1)
    unreachable = _unreachable_from(cfg, cfg.entry)
    if unreachable:
        raise CfgError(f"unreachable nodes {sorted(unreachable)}")
    return cfg


def _unreachable_from(cfg: Cfg, start: int) -> set[int]:
    seen = {start}
    frontier = [start]
    while frontier:
        u = frontier.pop()
        for v in cfg.succ[u]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return {n.node_id for n in cfg.nodes} - seen


def cfg_to_dot(cfg: Cfg, method: Method | None = None) -> str:
    """Render the graph in DOT form, nodes and edges ordered by id."""
    lines = ["digraph cfg {"]
    for n in cfg.nodes:
        if n.kind is NodeKind.START:
            label = "start"
        elif n.kind is NodeKind.END:
            label = "end"
        else:
            label = f"s{n.stmt_id}"
            if method is not None:
                stmt = method.statements[n.stmt_id]
                label = f"s{n.stmt_id}:{stmt.kind.value}"
        lines.append(f'  n{n.node_id} [label="{label}"];')
    for a, b in sorted(cfg.edges):
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines)
