import pytest

from basts.cfg import CfgError, NodeKind, build_cfg, cfg_to_dot
from conftest import parse_source


def stmt_nodes(cfg):
    return [n for n in cfg.nodes if n.kind is NodeKind.STMT]


def node_for(cfg, method, kind_value, index=0):
    matches = [
        n
        for n in stmt_nodes(cfg)
        if method.statements[n.stmt_id].kind.value == kind_value
    ]
    return matches[index]


class TestBuildCfg:
    def test_straight_line_chain(self, straight_method):
        cfg = build_cfg(straight_method)
        assert len(cfg.nodes) == 5
        assert len(cfg.edges) == 4
        ids = [n.node_id for n in stmt_nodes(cfg)]
        assert set(cfg.edges) == {
            (cfg.entry, ids[0]),
            (ids[0], ids[1]),
            (ids[1], ids[2]),
            (ids[2], cfg.exit),
        }

    def test_if_else_diamond(self, diamond_method):
        cfg = build_cfg(diamond_method)
        m = diamond_method
        hdr = node_for(cfg, m, "if").node_id
        a, b, d = (n.node_id for n in stmt_nodes(cfg) if n.node_id != hdr)
        assert sorted(cfg.succ[hdr]) == sorted([a, b])
        assert cfg.succ[a] == [d]
        assert cfg.succ[b] == [d]
        assert cfg.succ[d] == [cfg.exit]

    def test_idle_connections_shape(self, idle_method):
        cfg = build_cfg(idle_method)
        m = idle_method
        loop_hdr = node_for(cfg, m, "for").node_id
        outer_if = node_for(cfg, m, "if", 0).node_id
        inner_if = node_for(cfg, m, "if", 1).node_id
        assert len(stmt_nodes(cfg)) == 10
        assert len(cfg.succ[loop_hdr]) == 2 and cfg.exit in cfg.succ[loop_hdr]
        assert len(cfg.succ[outer_if]) == 2
        assert len(cfg.succ[inner_if]) == 2
        update = next(
            n.node_id
            for n in stmt_nodes(cfg)
            if m.statements[n.stmt_id].kind.value == "assign"
        )
        assert cfg.succ[update] == [loop_hdr], "back edge through the update node"

    def test_while_self_loop_on_empty_body(self):
        cfg = build_cfg(parse_source("void f() { while (c) { } }"))
        hdr = stmt_nodes(cfg)[0].node_id
        assert (hdr, hdr) in cfg.edges

    def test_return_edges_to_end(self):
        cfg = build_cfg(parse_source("int f() { if (c) { return 1; } return 2; }"))
        returns = [n.node_id for n in stmt_nodes(cfg)][1:]
        for r in returns:
            assert cfg.succ[r] == [cfg.exit]

    def test_break_and_continue_targets(self):
        src = "void f() { while (c) { if (a) { break; } continue; } d; }"
        cfg = build_cfg(parse_source(src))
        m = parse_source(src)
        # node ids are deterministic: while hdr, if hdr, break, continue, d
        hdr, _if, brk, cont, d = (n.node_id for n in stmt_nodes(cfg))
        assert cfg.succ[cont] == [hdr]
        assert cfg.succ[brk] == [d]

    def test_continue_in_for_edges_to_update(self):
        # JLS 14.16: continue in a for runs the update, not the condition first.
        src = "void f(int n) { for (int i = 0; i < n; i = i + 1) { continue; } }"
        m = parse_source(src)
        cfg = build_cfg(m)
        cont = node_for(cfg, m, "continue").node_id
        update = node_for(cfg, m, "assign").node_id
        hdr = node_for(cfg, m, "for").node_id
        assert cfg.succ[cont] == [update]
        assert cfg.succ[update] == [hdr]

    def test_continue_in_while_inside_for_edges_to_while_header(self):
        src = ("void f(int n) { for (int i = 0; i < n; i = i + 1) "
               "{ while (c) { if (a) { continue; } b; } } }")
        m = parse_source(src)
        cfg = build_cfg(m)
        cont = node_for(cfg, m, "continue").node_id
        assert cfg.succ[cont] == [node_for(cfg, m, "while").node_id]

    @pytest.mark.parametrize("header", ["int i = 0; i < n;", "; ;"])
    def test_continue_in_for_without_update_edges_to_header(self, header):
        m = parse_source(f"void f(int n) {{ for ({header}) {{ if (a) {{ continue; }} b; }} }}")
        cfg = build_cfg(m)
        cont = node_for(cfg, m, "continue").node_id
        assert cfg.succ[cont] == [node_for(cfg, m, "for").node_id]

    def test_break_outside_loop_raises(self):
        with pytest.raises(CfgError):
            build_cfg(parse_source("void f() { break; }"))

    def test_dead_code_after_return_raises(self):
        with pytest.raises(CfgError):
            build_cfg(parse_source("int f() { return 1; a = 2; }"))

    def test_empty_body_start_to_end(self):
        cfg = build_cfg(parse_source("void f() { }"))
        assert len(cfg.nodes) == 2
        assert cfg.edges == [(cfg.entry, cfg.exit)]

    def test_every_node_on_a_start_end_path(self, idle_method, diamond_method):
        for method in (idle_method, diamond_method):
            cfg = build_cfg(method)
            fwd = _reach(cfg.succ, cfg.entry)
            bwd = _reach(_invert(cfg), cfg.exit)
            all_ids = {n.node_id for n in cfg.nodes}
            assert fwd == all_ids
            assert bwd == all_ids

    def test_edge_count_lower_bound(self, idle_method, straight_method):
        for method in (idle_method, straight_method):
            cfg = build_cfg(method)
            assert len(cfg.edges) >= len(cfg.nodes) - 1

    def test_determinism(self, idle_method):
        a = build_cfg(idle_method)
        b = build_cfg(idle_method)
        assert a.nodes == b.nodes
        assert a.edges == b.edges


def _reach(adj, start):
    seen = {start}
    frontier = [start]
    while frontier:
        u = frontier.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return seen


def _invert(cfg):
    return cfg.pred


class TestToDot:
    def test_empty_body_two_nodes(self):
        dot = cfg_to_dot(build_cfg(parse_source("void f() { }")))
        assert dot.count("label") == 2
        assert "n0 -> n1;" in dot

    def test_diamond_counts(self, diamond_method):
        dot = cfg_to_dot(build_cfg(diamond_method), diamond_method)
        assert dot.count("label") == 6
        assert dot.count("->") == 6

    def test_chain_counts(self, straight_method):
        dot = cfg_to_dot(build_cfg(straight_method))
        assert dot.count("label") == 5
        assert dot.count("->") == 4
