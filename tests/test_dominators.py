import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from basts.cfg import Cfg, CfgNode, build_cfg
from basts.dominators import (
    ORACLE_NODE_CAP,
    OracleScaleError,
    brute_force_dominators,
    compute_dominators,
    dom_to_dot,
)
from conftest import make_cfg, parse_source, random_reachable_cfg

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from minigen import generate_records  # noqa: E402
from workloads import MEDIUM_PROFILE, PREP_PROFILE, SMALL_PROFILE  # noqa: E402

# empty branches and bodies, which the generator never writes
EMPTY_BLOCK_SOURCES = [
    "void f() { }",
    "void f() { { } }",
    "void f() { if (a) { } }",
    "void f() { if (a) { } else { } }",
    "void f() { if (a) { } else { } b = 1; }",
    "void f() { while (c) { } }",
    "void f() { for (;;) { } }",
    "void f() { for (int i = 0; i < n; i = i + 1) { } }",
    "void f() { while (c) { if (a) { } } }",
    "void f() { while (c) { if (a) { continue; } else { } } }",
    "void f() { for (;;) { if (a) { break; } else { } } x = 1; }",
]


def digest_sources() -> list[str]:
    """The empty-block shapes, then the split digest's 420 generated methods."""
    sources = list(EMPTY_BLOCK_SOURCES)
    for label, profile, count in [("prep-large", PREP_PROFILE, 3),
                                  ("pretrain-sep", MEDIUM_PROFILE, 6),
                                  ("summarize-small", SMALL_PROFILE, 12)]:
        for seed in range(1, 21):
            sources += [r["code"] for r in generate_records(label, seed, count, profile)]
    return sources


class TestComputeDominators:
    def test_chain(self):
        cfg = make_cfg(4, [(0, 1), (1, 2), (2, 3)])
        tree = compute_dominators(cfg)
        assert tree.idom == {1: 0, 2: 1, 3: 2}

    def test_diamond(self):
        cfg = make_cfg(6, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)])
        tree = compute_dominators(cfg)
        assert tree.idom == {1: 0, 2: 1, 3: 1, 4: 1, 5: 4}

    def test_idle_connections_tree(self, idle_method):
        m = idle_method
        cfg = build_cfg(m)
        tree = compute_dominators(cfg)
        by_kind = {}
        for n in cfg.nodes:
            if n.stmt_id is not None:
                stmt = m.statements[n.stmt_id]
                by_kind.setdefault(stmt.kind, []).append(n.node_id)
        outer_if, inner_if = by_kind["if"]
        update = by_kind["assign"][0]
        close_call, shutdown_call, set_call = by_kind["expr"]
        # both branch targets of the outer if hang under it
        assert tree.idom[inner_if] == outer_if
        assert tree.idom[update] == outer_if
        # all three inner statements hang under the inner if
        assert tree.idom[close_call] == inner_if
        assert tree.idom[shutdown_call] == inner_if
        assert tree.idom[set_call] == inner_if

    def test_no_self_idom_and_uniqueness(self, idle_method):
        tree = compute_dominators(build_cfg(idle_method))
        for node, parent in tree.idom.items():
            assert node != parent
        assert tree.root not in tree.idom

    def test_tree_edge_count(self, idle_method):
        cfg = build_cfg(idle_method)
        tree = compute_dominators(cfg)
        assert len(tree.edges()) == len(cfg.nodes) - 1


class TestBruteForce:
    def test_chain_dom_set(self):
        cfg = make_cfg(3, [(0, 1), (1, 2)])
        dom = brute_force_dominators(cfg)
        assert dom[2] == {0, 1, 2}

    def test_diamond_join(self):
        cfg = make_cfg(6, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)])
        dom = brute_force_dominators(cfg)
        assert dom[4] == {0, 1, 4}

    def test_single_node(self):
        cfg = Cfg([CfgNode(0)], [], 0, 0)
        assert brute_force_dominators(cfg) == {0: {0}}

    def test_scale_cap(self):
        n = ORACLE_NODE_CAP + 1
        cfg = make_cfg(n, [(i, i + 1) for i in range(n - 1)])
        with pytest.raises(OracleScaleError):
            brute_force_dominators(cfg)


class TestOracleEquivalence:
    def test_random_graphs_agree(self):
        rng = np.random.default_rng(20240517)
        for _ in range(60):
            cfg = random_reachable_cfg(rng)
            tree = compute_dominators(cfg)
            oracle = brute_force_dominators(cfg)
            for node in oracle:
                assert tree.dominator_set(node) == oracle[node]

    def test_generated_methods_agree(self):
        """The split digest's 420 methods and the empty-block shapes.

        Every graph's `order` starts at the entry, holds each node once
        and lists each node's immediate dominator before it, as
        `splitter.partition_blocks` relies on; every graph within the
        oracle's cap has its dominators.
        """
        checked = 0
        for source in digest_sources():
            cfg = build_cfg(parse_source(source))
            assert cfg.order[0] == cfg.entry
            assert sorted(cfg.order) == [n.node_id for n in cfg.nodes]
            tree = compute_dominators(cfg)
            rank = {v: i for i, v in enumerate(cfg.order)}
            assert all(rank[d] < rank[v] for v, d in tree.idom.items()), source
            if len(cfg.nodes) <= ORACLE_NODE_CAP:
                oracle = brute_force_dominators(cfg)
                assert all(tree.dominator_set(v) == oracle[v] for v in oracle), source
                checked += 1
        assert checked == 380 + len(EMPTY_BLOCK_SOURCES)


# sha256 over `digest_sources()`, one JSON line per method
CFG_SHA256 = "f7880201108f2bd7276553c561fa46ba4da7f241469a84d12ac4dce1d55d557b"


class TestCfgDigest:
    """Every graph and dominator tree of the digest sources, byte for byte.

    Each method adds one line: the graph's nodes, edges and `order`, and
    its immediate dominators sorted by node. It pins the CFG and dominator
    passes below the split digest, which sees only the splits they yield.
    """

    def test_digest_sources(self):
        digest = hashlib.sha256()
        for source in digest_sources():
            cfg = build_cfg(parse_source(source))
            kind = {cfg.entry: "start", cfg.exit: "end"}
            line = json.dumps({
                "nodes": [[n.node_id, kind.get(n.node_id, "stmt"), n.stmt_id] for n in cfg.nodes],
                "edges": cfg.edges,
                "order": cfg.order,
                "idom": sorted(compute_dominators(cfg).idom.items()),
            })
            digest.update(line.encode() + b"\n")
        assert digest.hexdigest() == CFG_SHA256


def test_dom_to_dot_lists_tree_edges(diamond_method):
    cfg = build_cfg(diamond_method)
    tree = compute_dominators(cfg)
    dot = dom_to_dot(tree)
    assert dot.count("->") == len(cfg.nodes) - 1
