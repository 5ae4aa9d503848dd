"""Control flow graph construction over parsed methods.

One graph node per simple statement; if/while/for headers are their own
nodes and block bodies are inlined. Start and end nodes are virtual. The
for construct is wired init -> header -> body -> update -> header, and
the header always carries an exit edge so every node lies on some
start-to-end path. A while is wired as a for without init or update.
`break` edges to the loop exit; `continue` edges to the update if the
loop has one, else to the header (JLS 14.16).

A `Cfg` is reachable by construction: building one with a node that no
path from the entry reaches raises CfgError. Its one walk from the entry
is kept as `order`, which the dominator pass iterates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from basts.frontend import Method, Statement, StmtKind


class CfgError(ValueError):
    pass


class NodeKind(Enum):
    __hash__ = object.__hash__  # members are singletons, so hash in C by identity

    START = "start"
    END = "end"
    STMT = "stmt"


class CfgNode(NamedTuple):
    node_id: int
    kind: NodeKind
    stmt_id: int | None = None  # present exactly when kind is STMT


@dataclass
class Cfg:
    """A control flow graph whose every node the entry reaches.

    `succ`, `pred` and `order` are derived from the edges: `order` holds
    each node once, in reverse postorder from the entry. Construction
    raises CfgError when some node is not reached.
    """

    nodes: list[CfgNode]  # node i has node_id i
    edges: list[tuple[int, int]]
    entry: int
    exit: int
    succ: dict[int, list[int]] = field(init=False)
    pred: dict[int, list[int]] = field(init=False)
    order: list[int] = field(init=False)

    def __post_init__(self):
        self.succ = {i: [] for i in range(len(self.nodes))}
        self.pred = {i: [] for i in range(len(self.nodes))}
        for a, b in self.edges:
            self.succ[a].append(b)
            self.pred[b].append(a)
        seen = {self.entry}
        self.order = []
        stack = [(self.entry, iter(self.succ[self.entry]))]
        while stack:
            node, children = stack[-1]
            for nxt in children:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, iter(self.succ[nxt])))
                    break
            else:
                self.order.append(node)
                stack.pop()
        self.order.reverse()
        if len(self.order) < len(self.nodes):
            if self.exit not in seen:
                raise CfgError(f"unreachable end node {self.exit}: no control path reaches it")
            dead = sorted(n.stmt_id for n in self.nodes if n.node_id not in seen)
            raise CfgError(f"unreachable statements {dead}: no control path reaches them")


class _Builder:
    def __init__(self):
        self.nodes = [CfgNode(0, NodeKind.START), CfgNode(1, NodeKind.END)]
        self.edges: list[tuple[int, int]] = []

    def new_node(self, stmt: Statement) -> int:
        node_id = len(self.nodes)
        # tuple.__new__ skips CfgNode's Python-level __new__, as `tokenize` does for tokens
        self.nodes.append(tuple.__new__(CfgNode, (node_id, NodeKind.STMT, stmt.stmt_id)))
        return node_id

    def edge(self, a: int, b: int):
        self.edges.append((a, b))

    def wire_sequence(self, stmts: list[Statement], loop) -> tuple[int | None, list[int]]:
        """Wire a statement list; returns (head node, dangling exits).

        `loop` maps BREAK and CONTINUE to the jump nodes collected so far
        in the innermost loop, or is None outside loops. A head of None
        means the sequence is empty; an empty exit list means control
        never falls through, so the next statement gets no edge in and
        the `Cfg` reports it.
        """
        head: int | None = None
        exits: list[int] = []
        for stmt in stmts:
            s_head, s_exits = self.wire_statement(stmt, loop)
            if s_head is None:
                continue  # empty block contributes nothing
            if head is None:
                head = s_head
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
        if k is StmtKind.BREAK or k is StmtKind.CONTINUE:
            if loop is None:
                raise CfgError(f"{k.value} outside a loop (statement {stmt.stmt_id})")
            node = self.new_node(stmt)
            loop[k].append(node)  # wired when the innermost loop closes
            return node, []
        if k is StmtKind.IF:
            header = self.new_node(stmt)
            exits = []
            for branch in (stmt.body, stmt.orelse):
                head, branch_exits = self.wire_sequence(branch, loop)
                if head is not None:
                    self.edge(header, head)
                    exits.extend(branch_exits)
                elif header not in exits:  # an empty or missing branch falls through the header
                    exits.append(header)
            return header, exits
        # WHILE or FOR; a while is a for without init or update.
        init = self.new_node(stmt.init) if stmt.init is not None else None
        header = self.new_node(stmt)
        if init is not None:
            self.edge(init, header)
        jumps = {StmtKind.BREAK: [], StmtKind.CONTINUE: []}
        body_head, body_exits = self.wire_sequence(stmt.body, jumps)
        back = header
        if stmt.update is not None:
            back = self.new_node(stmt.update)
            self.edge(back, header)
        self.edge(header, back if body_head is None else body_head)
        for e in body_exits + jumps[StmtKind.CONTINUE]:
            self.edge(e, back)
        return (header if init is None else init), [header] + jumps[StmtKind.BREAK]


def build_cfg(method: Method) -> Cfg:
    """Build the statement-level control flow graph of a method.

    Raises CfgError for break/continue outside a loop and for statements
    no control path can reach: code after return/break/continue, and a
    for update that the body never falls or continues through to.
    """
    b = _Builder()
    head, exits = b.wire_sequence(method.body, None)
    if head is None:
        b.edge(0, 1)
    else:
        b.edge(0, head)
        for e in exits:
            b.edge(e, 1)
    return Cfg(b.nodes, b.edges, entry=0, exit=1)


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
