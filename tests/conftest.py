import copy
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from basts.cfg import Cfg, CfgNode
from basts.frontend import abstract_literals, parse_method, tokenize

# Tests import the generator (`minigen`), its profiles and the tracer
# (`workloads`, `spans`) from the benchmark's directory.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

# Every property test runs under this one profile: the same examples on
# every run, no example database on disk, and no per-example deadline,
# since the time an example takes depends on the machine's load.
settings.register_profile(
    "tier1", derandomize=True, database=None, deadline=None, max_examples=500
)
settings.load_profile("tier1")

# A method with a for loop and two nested conditionals; its dominator tree
# partitions into six blocks connected by five successor edges.
IDLE_CONNECTIONS_SOURCE = """
void closeIdleConnections(long timeMillis) {
    long idleTimeout = System.currentTimeMillis() - timeMillis;
    for (int i = 0; i < connections.size(); i = i + 1) {
        HttpConnection conn = connections.get(i);
        if (conn.getLastUse() < idleTimeout) {
            if (conn.isOpen()) {
                conn.close();
            } else {
                conn.shutdown();
            }
            conn.setLastUse(timeMillis);
        }
    }
}
"""

DIAMOND_SOURCE = "void f() { if (c) { a; } else { b; } d; }"

STRAIGHT_LINE_SOURCE = """
int sum3(int a, int b, int c) {
    int t = a + b;
    t = t + c;
    return t;
}
"""


def parse_source(source: str):
    return parse_method(abstract_literals(tokenize(source)))


def nested_ifs(n: int) -> str:
    """n nested ifs; the innermost condition sits n + 1 levels deep."""
    return "void f() { " + "if (a) " * n + "return; }"


def nested_parens(n: int) -> str:
    """A return of a name in n parentheses; the name sits n + 2 levels deep."""
    return "int f() { return " + "(" * n + "a" + ")" * n + "; }"


def optimizer_state(opt) -> list:
    """Copies of all that an Adam step reads or writes: its step count,
    then each parameter's value, gradient and two moments."""
    return [opt.t] + [copy.deepcopy(x) for p, m, v in zip(opt.params, opt._m, opt._v)
                      for x in (p.data, p.grad, m, v)]


def assert_same_state(before: list, after: list):
    assert before[0] == after[0] and len(before) == len(after)
    for old, new in zip(before[1:], after[1:]):
        assert (old is None and new is None) or np.array_equal(old, new, equal_nan=True)


def make_cfg(n_nodes, edges, entry=0, exit_=None):
    """Assemble a Cfg directly; node 0 is start, the last node is end."""
    exit_ = n_nodes - 1 if exit_ is None else exit_
    nodes = [CfgNode(i) if i in (entry, exit_) else CfgNode(i, i) for i in range(n_nodes)]
    return Cfg(nodes, list(edges), entry, exit_)


def random_reachable_cfg(rng, max_nodes=15):
    """Random digraph where every node is reachable from the entry."""
    n = int(rng.integers(2, max_nodes + 1))
    edges = set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.add((u, v))
    extra = int(rng.integers(0, 2 * n))
    for _ in range(extra):
        a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
        if a != b:
            edges.add((a, b))
    return make_cfg(n, sorted(edges))


@pytest.fixture
def idle_method():
    return parse_source(IDLE_CONNECTIONS_SOURCE)


@pytest.fixture
def diamond_method():
    return parse_source(DIAMOND_SOURCE)


@pytest.fixture
def straight_method():
    return parse_source(STRAIGHT_LINE_SOURCE)
