import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from basts.cfg import build_cfg
from basts.dominators import compute_dominators
from basts.frontend import Statement, ast_to_json, build_ast, iter_nodes, parse_program
from basts.splitter import build_split_asts, make_split_code, partition_blocks, split_method
from conftest import (
    DIAMOND_SOURCE,
    IDLE_CONNECTIONS_SOURCE,
    STRAIGHT_LINE_SOURCE,
    nested_ifs,
    parse_source,
    random_reachable_cfg,
)
from oracles import partition_blocks_reference, split_asts_by_reparse
from toydata import PRETRAIN_SOURCES, SUMMARIZATION_ROWS

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from minigen import generate_records  # noqa: E402
from workloads import MEDIUM_PROFILE, PREP_PROFILE, SMALL_PROFILE  # noqa: E402


def labels(root):
    return [n.type_value() for n in iter_nodes(root)]


class TestPartitionBlocks:
    def test_straight_line_single_split(self, straight_method):
        result = split_method(straight_method)
        assert len(result.graph.splits) == 1
        assert result.graph.successor_edges == []

    def test_diamond_four_splits(self, diamond_method):
        graph = split_method(diamond_method).graph
        assert len(graph.splits) == 4
        sizes = [len(s.statements) for s in graph.splits]
        assert sizes == [1, 1, 1, 1]
        assert graph.successor_edges == [(0, 1), (0, 2), (0, 3)]

    def test_idle_connections_six_splits_five_edges(self, idle_method):
        graph = split_method(idle_method).graph
        assert len(graph.splits) == 6
        assert len(graph.successor_edges) == 5

    def test_coverage_and_disjointness(self, idle_method, diamond_method):
        for method in (idle_method, diamond_method):
            cfg = build_cfg(method)
            graph = partition_blocks(compute_dominators(cfg), cfg)
            seen = []
            for split in graph.splits:
                seen.extend(split.statements)
            expected = sorted(
                s.stmt_id
                for s in method.statements.values()
                if s.kind != "block"
            )
            assert sorted(seen) == expected
            assert len(seen) == len(set(seen))

    def test_successor_edges_acyclic(self, idle_method):
        graph = split_method(idle_method).graph
        order = _topological(len(graph.splits), graph.successor_edges)
        assert order is not None

    def test_adding_if_never_reduces_splits(self):
        base = parse_source("void f() { a = 1; b = 2; }")
        with_if = parse_source("void f() { a = 1; if (c) { x = 3; } b = 2; }")
        assert len(split_method(with_if).graph.splits) >= len(
            split_method(base).graph.splits
        )

    def test_deterministic(self, idle_method):
        g1 = split_method(idle_method).graph
        g2 = split_method(idle_method).graph
        assert [s.statements for s in g1.splits] == [s.statements for s in g2.splits]
        assert g1.successor_edges == g2.successor_edges


def _topological(n, edges):
    indeg = [0] * n
    for _, b in edges:
        indeg[b] += 1
    ready = [i for i in range(n) if indeg[i] == 0]
    order = []
    while ready:
        v = ready.pop()
        order.append(v)
        for a, b in edges:
            if a == v:
                indeg[b] -= 1
                if indeg[b] == 0:
                    ready.append(b)
    return order if len(order) == n else None


class TestPartitionEqualsReference:
    """`partition_blocks` gives the union-find oracle's splits and successor edges."""

    @staticmethod
    def assert_same_partition(cfg):
        domtree = compute_dominators(cfg)
        graph = partition_blocks(domtree, cfg)
        reference = partition_blocks_reference(domtree, cfg)
        assert graph.splits == reference.splits
        assert graph.successor_edges == reference.successor_edges

    @pytest.mark.parametrize("label, profile, count", [
        ("prep-large", PREP_PROFILE, 3),
        ("pretrain-sep", MEDIUM_PROFILE, 6),
        ("summarize-small", SMALL_PROFILE, 12),
    ])
    def test_generated_methods(self, label, profile, count):
        for seed in range(1, 21):
            for record in generate_records(label, seed, count, profile):
                self.assert_same_partition(build_cfg(parse_source(record["code"])))

    # unlike a built Cfg, these put a statement under the end node in the
    # dominator tree, and a parent's id may exceed its child's
    @pytest.mark.parametrize("max_nodes", [15, 40])
    def test_random_graphs(self, max_nodes):
        rng = np.random.default_rng(20240517 + max_nodes)
        for _ in range(200):
            self.assert_same_partition(random_reachable_cfg(rng, max_nodes))


class TestMakeSplitCode:
    def test_empty_body_declaration_only(self):
        method = parse_source("void f() { }")
        result = split_method(method)
        (split,) = result.graph.splits
        tokens = make_split_code(split, method)
        assert tokens == ["void", "f", "(", ")"]

    def test_diamond_then_branch(self, diamond_method):
        graph = split_method(diamond_method).graph
        texts = [
            make_split_code(s, diamond_method)
            for s in graph.splits
        ]
        assert texts[1] == ["void", "f", "(", ")", "a", ";"]
        assert texts[2] == ["void", "f", "(", ")", "b", ";"]
        assert texts[0][4:] == ["if", "(", "c", ")", "{", "}"]

    def test_idle_first_split_keeps_loop_header(self, idle_method):
        graph = split_method(idle_method).graph
        first = " ".join(make_split_code(graph.splits[0], idle_method))
        assert "for ( int i = <NUM> ; i < connections . size ( ) ; ) { }" in first
        assert "idleTimeout = System . currentTimeMillis ( ) - timeMillis" in first
        assert first.endswith("if ( conn . getLastUse ( ) < idleTimeout ) { }")

    def test_update_split_renders_standalone(self, idle_method):
        graph = split_method(idle_method).graph
        update_split = graph.splits[1]
        text = " ".join(make_split_code(update_split, idle_method))
        assert text.endswith("i = i + <NUM> ;")


class TestBuildSplitAsts:
    def test_one_ast_per_split(self, idle_method):
        result = split_method(idle_method)
        assert len(result.asts) == len(result.graph.splits) == 6
        fringes = [tuple(labels(a.root)) for a in result.asts]
        assert len(set(fringes)) == 6, "splits produce distinct trees"

    def test_single_split_equals_full_ast(self, straight_method):
        result = split_method(straight_method)
        (ast,) = result.asts
        assert labels(ast.root) == labels(build_ast(straight_method))

    def test_first_split_fringe_has_time_millis(self, idle_method):
        result = split_method(idle_method)
        assert "MemberReference_timeMillis" in labels(result.asts[0].root)

    def test_header_splits_reparse_with_empty_blocks(self, idle_method):
        result = split_method(idle_method)
        inner_if_split = result.asts[2]
        types = [n.node_type for n in iter_nodes(inner_if_split.root)]
        assert "IfStatement" in types


EDGE_CASE_SOURCES = [
    "void f() { }",
    "void f() { for (;;) { } }",
    "void f() { for (;;) { a = 1; } b = 2; }",
    # the update lands in a split of its own, away from its header
    "void f(int n) { for (int i = 0; i < n; i = i + 1) { if (a) { b; } else { c; } } d; }",
    # header, body and both clauses share one split
    "void f(int n) { for (int i = 0; i < n; i = i + 1) { x = 1; } }",
    "void f() { { } { { } } a = 1; { { b = 2; } } }",
    "void f() { if (a) { x; } else if (b) { y; } else if (c) { z; } else { w; } v; }",
    "void f() { if (c) { } else { x = 1; } }",
    "void f() { if (c) { x = 1; } }",
    "void f() { while (c) { if (d) { break; } continue; } return; }",
    nested_ifs(20),
]


def assert_split_asts_equal_reparse(method) -> int:
    """Check every split AST against the re-parse oracle; returns the split count."""
    result = split_method(method)
    want = split_asts_by_reparse(result.graph, method)  # raises if a split fails to parse
    assert [a.split_id for a in result.asts] == [a.split_id for a in want]
    assert [ast_to_json(a.root) for a in result.asts] == [ast_to_json(a.root) for a in want]
    return len(result.asts)


class TestSplitAstsEqualReparse:
    def test_fixture_and_toy_methods(self):
        sources = [IDLE_CONNECTIONS_SOURCE, DIAMOND_SOURCE, STRAIGHT_LINE_SOURCE]
        sources += PRETRAIN_SOURCES + [row["code"] for row in SUMMARIZATION_ROWS]
        for source in sources:
            assert_split_asts_equal_reparse(parse_source(source))

    @pytest.mark.parametrize("source", EDGE_CASE_SOURCES)
    def test_edge_cases(self, source):
        assert_split_asts_equal_reparse(parse_source(source))

    def test_methods_after_the_first_in_a_file(self):
        for method in parse_program("\n".join(PRETRAIN_SOURCES)):
            assert_split_asts_equal_reparse(method)

    # 420 generated methods, 3,562 splits; about 2 s in all
    @pytest.mark.parametrize("label, profile, count", [
        ("prep-large", PREP_PROFILE, 3),
        ("pretrain-sep", MEDIUM_PROFILE, 6),
        ("summarize-small", SMALL_PROFILE, 12),
    ])
    def test_generated_methods(self, label, profile, count):
        for seed in range(1, 21):
            for record in generate_records(label, seed, count, profile):
                assert_split_asts_equal_reparse(parse_source(record["code"]))


def assert_expressions_shared_once(method):
    """Each statement's cond and node children are the parser's own nodes, each in one split AST."""
    trees = [list(iter_nodes(a.root)) for a in split_method(method).asts]
    for stmt in method.statements.values():
        for expr in [stmt.cond] + (stmt.node.children if stmt.node else []):
            if expr is not None:
                holders = [t for t in trees if any(n is expr for n in t)]
                assert len(holders) == 1, (stmt.stmt_id, expr.node_type)


class TestSplitAstsShareParserNodes:
    def test_fixture_and_toy_methods(self):
        sources = [IDLE_CONNECTIONS_SOURCE, DIAMOND_SOURCE, STRAIGHT_LINE_SOURCE]
        sources += PRETRAIN_SOURCES + [row["code"] for row in SUMMARIZATION_ROWS]
        sources += EDGE_CASE_SOURCES
        for source in sources:
            assert_expressions_shared_once(parse_source(source))

    @pytest.mark.parametrize("label, profile, count", [
        ("prep-large", PREP_PROFILE, 3),
        ("pretrain-sep", MEDIUM_PROFILE, 6),
        ("summarize-small", SMALL_PROFILE, 12),
    ])
    def test_generated_methods(self, label, profile, count):
        for seed in range(1, 21):
            for record in generate_records(label, seed, count, profile):
                assert_expressions_shared_once(parse_source(record["code"]))


DIGEST_METHODS = [
    ("prep-large", PREP_PROFILE, 3),
    ("pretrain-sep", MEDIUM_PROFILE, 6),
    ("summarize-small", SMALL_PROFILE, 12),
]


def declaration_shared_by_every_tree(method) -> list:
    """The split ASTs of `method`, after checking they hold one set of declaration nodes."""
    asts = split_method(method).asts
    heads = [a.root.children[: len(method.declaration)] for a in asts]
    for head in heads[1:]:
        assert all(n is first for n, first in zip(head, heads[0], strict=True))
    return asts


class TestSplitAstsShareDeclarationNodes:
    """A method's split trees share its return type and parameter nodes."""

    # distinct AstNode objects across the split ASTs of the 420 digest
    # methods; 68,418 when each split tree built its own declaration nodes
    DISTINCT_NODES = 56511

    def test_fixture_and_toy_methods(self):
        sources = [IDLE_CONNECTIONS_SOURCE, DIAMOND_SOURCE, STRAIGHT_LINE_SOURCE]
        sources += PRETRAIN_SOURCES + [row["code"] for row in SUMMARIZATION_ROWS]
        sources += EDGE_CASE_SOURCES
        for source in sources:
            declaration_shared_by_every_tree(parse_source(source))

    def test_distinct_nodes_of_the_digest_methods(self):
        distinct = 0
        for label, profile, count in DIGEST_METHODS:
            for seed in range(1, 21):
                for record in generate_records(label, seed, count, profile):
                    asts = declaration_shared_by_every_tree(parse_source(record["code"]))
                    distinct += len({id(n) for a in asts for n in iter_nodes(a.root)})
        assert distinct == self.DISTINCT_NODES

    def test_build_split_asts_makes_no_statement(self, monkeypatch, idle_method):
        made = []
        init = Statement.__init__
        monkeypatch.setattr(Statement, "__init__",
                            lambda self, *args, **kw: made.append(args) or init(self, *args, **kw))
        Statement(0, "break", (0, 2))
        assert len(made) == 1  # the probe sees every Statement made
        cfg = build_cfg(idle_method)
        graph = partition_blocks(compute_dominators(cfg), cfg)
        kinds = {idle_method.statements[sid].kind for split in graph.splits
                 for sid in split.statements}
        assert {"for", "if"} <= kinds  # header pieces are built
        build_split_asts(graph, idle_method)
        assert len(made) == 1


# sha256 over the generated methods below, one JSON line per method
GENERATED_SPLITS_SHA256 = (
    "3c893d85463a037e177019181dea9d572805cb0bfa30c9bdcc7a433299547700"
)


class TestSplitDigest:
    """Every split of 420 generated methods, byte for byte.

    Each method adds one line: each split's statement ids, the successor
    edges, `ast_to_json` of each split AST and the texts of each split's
    code tokens. A frontend, CFG or splitter change that moves any of them
    changes the digest.
    """

    def test_generated_methods(self):
        digest = hashlib.sha256()
        for label, profile, count in [
            ("prep-large", PREP_PROFILE, 3),
            ("pretrain-sep", MEDIUM_PROFILE, 6),
            ("summarize-small", SMALL_PROFILE, 12),
        ]:
            for seed in range(1, 21):
                for record in generate_records(label, seed, count, profile):
                    result = split_method(parse_source(record["code"]))
                    line = json.dumps({
                        "statements": [s.statements for s in result.graph.splits],
                        "edges": result.graph.successor_edges,
                        "asts": [ast_to_json(a.root) for a in result.asts],
                        "code": [make_split_code(s, result.method)
                                 for s in result.graph.splits],
                    })
                    digest.update(line.encode() + b"\n")
        assert digest.hexdigest() == GENERATED_SPLITS_SHA256
