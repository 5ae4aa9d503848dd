import sys
from pathlib import Path

import pytest

from basts.cfg import CfgError, CfgNode, build_cfg, cfg_to_dot
from conftest import make_cfg, parse_source

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from minigen import generate_records  # noqa: E402
from workloads import MEDIUM_PROFILE, PREP_PROFILE, SMALL_PROFILE  # noqa: E402


def stmt_nodes(cfg):
    return [n for n in cfg.nodes if n.stmt_id is not None]


def node_for(cfg, method, kind_value, index=0):
    matches = [
        n
        for n in stmt_nodes(cfg)
        if method.statements[n.stmt_id].kind == kind_value
    ]
    return matches[index]


class TestCfgNodeContract:
    def test_immutable(self):
        node = CfgNode(2, 0)
        with pytest.raises(AttributeError):
            node.stmt_id = 1
        with pytest.raises(AttributeError):
            node.extra = 1

    def test_hashes_by_value(self):
        a = CfgNode(2, 0)
        assert hash(a) == hash(CfgNode(2, 0))
        assert len({a, CfgNode(2, 0), CfgNode(2, 1)}) == 2

    def test_stmt_id_defaults_to_none(self):
        assert CfgNode(0).stmt_id is None

    def test_equals_the_plain_tuple_of_its_fields(self):
        assert CfgNode(0) == (0, None)


class TestCfgReachability:
    # a hand-built graph meets the same walk as one build_cfg wires
    @pytest.mark.parametrize("edges, message", [
        ([(0, 1), (1, 3), (2, 3)], "unreachable statements [2]: no control path reaches them"),
        ([(0, 1), (1, 2)], "unreachable end node 3: no control path reaches it"),
    ], ids=["statement node", "end node"])
    def test_an_unreached_node_fails_construction(self, edges, message):
        with pytest.raises(CfgError) as err:
            make_cfg(4, edges)
        assert str(err.value) == message

    def test_order_is_the_postorder_from_the_entry_reversed(self):
        cfg = make_cfg(6, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 1), (4, 5)])
        assert cfg.order == [0, 1, 3, 2, 4, 5]


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
            if m.statements[n.stmt_id].kind == "assign"
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

    # Ids count every statement in source order: a for's init and update,
    # and a braced body's block, each have one. javac accepts the loops
    # whose update no path reaches (JLS 14.22 checks no for update).
    @pytest.mark.parametrize("source, dead", [
        ("int f() { return 1; a = 2; }", [1]),
        ("void f() { if (a) { return; } else { return; } x = 1; y = 2; }", [5, 6]),
        ("void f() { { return; } { } x = 1; }", [3]),
        ("int f() { while (a) { break; b = 1; } return 1; }", [3]),
        ("void f() { while (a) { for (; b; i = i + 1) { continue; break; } } }", [6]),
        ("int f(int n) { for (int i = 0; i < n; i = i + 1) { return i; } }", [2]),
        ("void f() { for (;; i = 1) { break; } }", [1]),
        ("void f() { for (; a; i = i + 1) { if (b) { return; } else { break; } } }", [1]),
    ], ids=["after return", "after both branches", "after a block", "after break",
            "after continue", "for update after return", "for update after break",
            "for update after both branches"])
    def test_unreachable_statements_are_named_by_id(self, source, dead):
        with pytest.raises(CfgError) as err:
            build_cfg(parse_source(source))
        assert str(err.value) == f"unreachable statements {dead}: no control path reaches them"

    def test_break_outside_a_loop_is_reported_after_dead_code(self):
        with pytest.raises(CfgError, match=r"^break outside a loop \(statement 2\)$"):
            build_cfg(parse_source("void f() { return; a = 1; break; }"))

    # an if whose branches add no node falls through its header once
    @pytest.mark.parametrize("source, edges", [
        ("void f() { if (a) { } else { } b = 1; }", [(2, 3), (0, 2), (3, 1)]),
        ("void f() { if (a) { } else { { } } }", [(0, 2), (2, 1)]),
        ("void f() { while (c) { if (a) { } } }", [(2, 3), (3, 2), (0, 2), (2, 1)]),
    ], ids=["both branches empty", "else an empty block", "in a loop"])
    def test_an_if_without_branch_nodes_adds_each_edge_once(self, source, edges):
        assert build_cfg(parse_source(source)).edges == edges

    def test_every_edge_is_added_once(self):
        for label, profile, count in [("prep-large", PREP_PROFILE, 3),
                                      ("pretrain-sep", MEDIUM_PROFILE, 6),
                                      ("summarize-small", SMALL_PROFILE, 12)]:
            for seed in range(1, 21):
                for record in generate_records(label, seed, count, profile):
                    edges = build_cfg(parse_source(record["code"])).edges
                    assert len(set(edges)) == len(edges), record["id"]

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
