"""Control flow graph construction over parsed methods.

One graph node per simple statement; if/while/for headers are their own
nodes and block bodies are inlined. A node is its id and its statement's
id. The start and end nodes are virtual: they are the two nodes with no
statement, and `Cfg.entry` and `Cfg.exit` tell them apart. The for
construct is wired init -> header -> body -> update -> header, the
update only when the body falls or continues through to it, and the
header always carries an exit edge so every node lies on some
start-to-end path. A while is wired as a for without init or update.
`break` edges to the loop exit; `continue` edges to the update if the
loop has one, else to the header (JLS 14.16). Statement kinds are the
plain strings of `basts.frontend` ("if", "for", ...), and `cfg_to_dot`
prints them as they are.

A `Cfg` is reachable by construction: building one with a node that no
path from the entry reaches raises CfgError. Its one walk from the entry
is kept as `order`, which the dominator pass iterates. Node ids are
0..n-1, so the adjacency `succ`/`pred`, and the per-node state of the
dominator and partition passes, are lists indexed by node id.
`build_cfg` appends nodes and edges to two flat lists as it walks the
statements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from basts.frontend import JUMPS, Method, Statement


class CfgError(ValueError):
    pass


class CfgNode(NamedTuple):
    """A graph node; the start and end nodes are the two with no statement."""

    node_id: int
    stmt_id: int | None = None


@dataclass
class Cfg:
    """A control flow graph whose every node the entry reaches.

    `succ`, `pred` and `order` are derived from the edges. `succ[v]` and
    `pred[v]` are lists indexed by node id: v's successors and
    predecessors, in edge order. `order` holds each node once, in reverse
    postorder from the entry. Construction raises CfgError when some node
    is not reached.
    """

    nodes: list[CfgNode]  # node i has node_id i
    edges: list[tuple[int, int]]
    entry: int
    exit: int
    succ: list[list[int]] = field(init=False)  # indexed by node id
    pred: list[list[int]] = field(init=False)  # indexed by node id
    order: list[int] = field(init=False)

    def __post_init__(self):
        n = len(self.nodes)
        succ = self.succ = [[] for _ in range(n)]
        pred = self.pred = [[] for _ in range(n)]
        for a, b in self.edges:
            succ[a].append(b)
            pred[b].append(a)
        seen = [False] * n
        seen[self.entry] = True
        order = self.order = []
        stack = [(self.entry, iter(succ[self.entry]))]
        while stack:
            node, children = stack[-1]
            for nxt in children:
                if not seen[nxt]:
                    seen[nxt] = True
                    stack.append((nxt, iter(succ[nxt])))
                    break
            else:
                order.append(node)
                stack.pop()
        order.reverse()
        if len(order) < n:
            if not seen[self.exit]:
                raise CfgError(f"unreachable end node {self.exit}: no control path reaches it")
            dead = sorted(node.stmt_id for node in self.nodes if not seen[node.node_id])
            raise CfgError(f"unreachable statements {dead}: no control path reaches them")


_SIMPLE = frozenset(("decl", "assign", "expr"))
_new = tuple.__new__  # makes a CfgNode without its Python-level __new__


def _wire(stmts: list[Statement], loop, nodes: list[CfgNode],
          edges: list[tuple[int, int]]) -> tuple[int | None, list[int]]:
    """Wire a statement list into `nodes` and `edges`; returns (head node, dangling exits).

    `loop` is the innermost loop's (breaks, continues) jump nodes
    collected so far, or None outside loops. A head of None means the
    sequence is empty; an empty exit list means control never falls
    through, so the next statement gets no edge in and the `Cfg`
    reports it.
    """
    add_node, edge = nodes.append, edges.append
    head: int | None = None
    exits: list[int] = []
    for stmt in stmts:
        k = stmt.kind
        if k == "block":
            s_head, s_exits = _wire(stmt.body, loop, nodes, edges)
            if s_head is None:
                continue  # empty block contributes nothing
        else:
            if stmt.init is not None:  # a for's init gets its node before the header
                add_node(_new(CfgNode, (len(nodes), stmt.init.stmt_id)))
            node = s_head = len(nodes)
            add_node(_new(CfgNode, (node, stmt.stmt_id)))
            if k in _SIMPLE:
                s_exits = [node]
            elif k == "if":
                s_exits = []
                for branch in (stmt.body, stmt.orelse):
                    b_head, b_exits = _wire(branch, loop, nodes, edges)
                    if b_head is not None:
                        edge((node, b_head))
                        s_exits += b_exits
                    elif node not in s_exits:  # an empty or missing branch falls through the header
                        s_exits.append(node)
            elif k in JUMPS:
                if k == "return":
                    edge((node, 1))
                elif loop is None:
                    raise CfgError(f"{k} outside a loop (statement {stmt.stmt_id})")
                else:
                    loop[k == "continue"].append(node)  # wired when the innermost loop closes
                s_exits = []
            else:  # while or for; a while is a for without init or update
                if stmt.init is not None:
                    s_head = node - 1
                    edge((s_head, node))
                jumps = ([], [])
                body_head, body_exits = _wire(stmt.body, jumps, nodes, edges)
                back = node
                # an update gets a node only when control reaches it (JLS 14.22 checks none)
                if stmt.update is not None and (body_head is None or body_exits or jumps[1]):
                    back = len(nodes)
                    add_node(_new(CfgNode, (back, stmt.update.stmt_id)))
                    edge((back, node))
                edge((node, back if body_head is None else body_head))
                for e in body_exits + jumps[1]:
                    edge((e, back))
                s_exits = [node] + jumps[0]
        if head is None:
            head = s_head
        for e in exits:
            edge((e, s_head))
        exits = s_exits
    return head, exits


def build_cfg(method: Method) -> Cfg:
    """Build the statement-level control flow graph of a method.

    Raises CfgError for break/continue outside a loop and for statements
    no control path can reach: code after return/break/continue. A for
    update that the body never falls or continues through to never runs,
    so it gets no node, as javac accepts such a loop.
    """
    nodes = [CfgNode(0), CfgNode(1)]
    edges: list[tuple[int, int]] = []
    head, exits = _wire(method.body, None, nodes, edges)
    if head is None:
        edges.append((0, 1))
    else:
        edges.append((0, head))
        edges += [(e, 1) for e in exits]
    return Cfg(nodes, edges, entry=0, exit=1)


def cfg_to_dot(cfg: Cfg, method: Method | None = None) -> str:
    """Render the graph in DOT form, nodes and edges ordered by id."""
    lines = ["digraph cfg {"]
    for n in cfg.nodes:
        if n.stmt_id is None:
            label = "start" if n.node_id == cfg.entry else "end"
        else:
            label = f"s{n.stmt_id}"
            if method is not None:
                stmt = method.statements[n.stmt_id]
                label = f"s{n.stmt_id}:{stmt.kind}"
        lines.append(f'  n{n.node_id} [label="{label}"];')
    for a, b in sorted(cfg.edges):
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines)
