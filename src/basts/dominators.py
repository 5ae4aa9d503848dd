"""Dominator tree computation plus a literal set-based oracle.

The fast path is the classic iterative dataflow scheme over reverse
postorder with the two-finger intersection; our graphs are small, so it
converges in a handful of sweeps. The oracle implements the definition
directly (u dominates v iff removing u disconnects the entry from v) and
exists so the tree can be cross-checked on random graphs.
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
    """
    rpo_number = {node: i for i, node in enumerate(cfg.order)}

    idom: dict[int, int | None] = {node: None for node in cfg.order}
    idom[cfg.entry] = cfg.entry

    def intersect(a: int, b: int) -> int:
        while a != b:
            while rpo_number[a] > rpo_number[b]:
                a = idom[a]
            while rpo_number[b] > rpo_number[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for node in cfg.order:
            if node == cfg.entry:
                continue
            new_idom = None
            for p in cfg.pred[node]:
                if idom[p] is None:
                    continue
                new_idom = p if new_idom is None else intersect(p, new_idom)
            if new_idom is not None and idom[node] != new_idom:
                idom[node] = new_idom
                changed = True

    return DomTree(
        root=cfg.entry,
        idom={n: d for n, d in idom.items() if n != cfg.entry},
    )


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
