"""Dominator tree computation plus a literal set-based oracle.

The fast path is the iterative dataflow scheme of Cooper, Harvey and
Kennedy ("A Simple, Fast Dominance Algorithm", 2001) over the graph's
reverse postorder, with the two-finger intersection inline; it works on
any graph the entry reaches, and ours are small, so it converges in a
handful of sweeps. Ranks and immediate dominators are kept in lists
indexed by node id, as `Cfg.succ` and `Cfg.pred` are; the result,
`DomTree.idom`, is a dict. The oracle implements the definition directly
(u dominates v iff removing u disconnects the entry from v) and exists
so the tree can be cross-checked on random graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

from basts.cfg import Cfg

ORACLE_NODE_CAP = 64


class OracleScaleError(ValueError):
    pass


@dataclass
class DomTree:
    root: int
    idom: dict[int, int]  # node -> immediate dominator; the root has no entry

    def edges(self) -> list[tuple[int, int]]:
        return sorted((p, c) for c, p in self.idom.items())

    def dominator_set(self, v: int) -> set[int]:
        out = {v}
        while v != self.root:
            v = self.idom[v]
            out.add(v)
        return out


def compute_dominators(cfg: Cfg) -> DomTree:
    """Immediate dominators for every node of the graph.

    Iterates the graph's own reverse postorder, `cfg.order`; a `Cfg`
    holds only nodes the entry reaches, so every node gets a dominator.
    `rank` and `idom` are indexed by node id; `idom` reads -1 until a
    sweep first reaches the node. A node's parent in the walk comes
    before it in the order, so the first sweep gives every node one.
    """
    order = cfg.order
    rank = [0] * len(cfg.nodes)
    for r, v in enumerate(order):
        rank[v] = r
    pred, entry = cfg.pred, cfg.entry
    idom = [-1] * len(rank)
    idom[entry] = entry
    rest = order[1:]  # the entry comes first
    changed = True
    while changed:
        changed = False
        for v in rest:
            new = -1
            for p in pred[v]:
                if idom[p] == -1:
                    continue
                if new == -1:
                    new = p
                    continue
                while p != new:  # the two-finger intersection
                    while rank[p] > rank[new]:
                        p = idom[p]
                    while rank[new] > rank[p]:
                        new = idom[new]
            if idom[v] != new:
                idom[v] = new
                changed = True
    return DomTree(root=entry, idom={v: idom[v] for v in rest})


def brute_force_dominators(cfg: Cfg) -> dict[int, set[int]]:
    """Dominator sets by deletion reachability; test-scale oracle.

    u is in dom(v) iff v is not reachable from the entry when u is
    removed from the graph, plus u in dom(u). Quadratic in the graph
    size, hence the node cap.
    """
    node_ids = [n.node_id for n in cfg.nodes]
    if len(node_ids) > ORACLE_NODE_CAP:
        raise OracleScaleError(
            f"{len(node_ids)} nodes exceeds the oracle cap of {ORACLE_NODE_CAP}"
        )
    dom = {v: {v} for v in node_ids}
    for u in node_ids:
        reachable = {cfg.entry} if u != cfg.entry else set()
        frontier = list(reachable)
        while frontier:
            a = frontier.pop()
            for b in cfg.succ[a]:
                if b != u and b not in reachable:
                    reachable.add(b)
                    frontier.append(b)
        for v in node_ids:
            if v != u and v not in reachable:
                dom[v].add(u)
    return dom


def dom_to_dot(tree: DomTree) -> str:
    """Render the dominator tree in DOT form, ordered by node id."""
    nodes = sorted({tree.root, *tree.idom.keys(), *tree.idom.values()})
    lines = ["digraph domtree {"]
    for n in nodes:
        lines.append(f'  n{n} [label="n{n}"];')
    for p, c in tree.edges():
        lines.append(f"  n{p} -> n{c};")
    lines.append("}")
    return "\n".join(lines)
