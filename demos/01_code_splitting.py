"""Walkthrough: from source text to dominator-tree code splits.

Run with `python3 demos/01_code_splitting.py`. Each stage of the
splitting pipeline prints what it produced, ending with the split code
and the block successor relation.
"""

from basts.cfg import build_cfg, cfg_to_dot
from basts.dominators import compute_dominators, dom_to_dot
from basts.frontend import abstract_literals, parse_method, tokenize
from basts.splitter import make_split_code, split_method

SOURCE = """
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

# 1. Lex and abstract literals: a token is its text, and numbers, strings,
#    and booleans become placeholder tokens before anything downstream
#    sees them.
tokens = abstract_literals(tokenize(SOURCE))
print("first 12 tokens:", " ".join(tokens[:12]))

# 2. Parse into a statement-level method.
method = parse_method(tokens)
print(f"\nmethod {method.name!r} with {len(method.body)} top-level statements,")
print(f"{len(method.statements)} statements total (nested ones included)")

# 3. The control flow graph: one node per simple statement, headers are
#    their own nodes, virtual start/end bracket the method.
cfg = build_cfg(method)
print(f"\ncontrol flow graph: {len(cfg.nodes)} nodes, {len(cfg.edges)} edges")
print(cfg_to_dot(cfg, method))

# 4. The dominator tree of the graph.
domtree = compute_dominators(cfg)
print("\ndominator tree:")
print(dom_to_dot(domtree))

# 5. Partition the tree into blocks: drop the virtual nodes, cut every
#    edge out of a branching node, and each remaining component is one
#    split. Removed edges, lifted to blocks, form the successor relation.
splits = split_method(method)
print(f"\n{len(splits.graph.splits)} splits, "
      f"successor edges {splits.graph.successor_edges}")
for split in splits.graph.splits:
    code = " ".join(make_split_code(split, method))
    print(f"\nsplit {split.split_id}: statements {split.statements}")
    print(f"  {code}")

# 6. Each split's AST is built from the method's parsed statements and
#    equals what re-parsing the split's code would give (headers get empty
#    blocks), so each block has its own AST for the tree encoder.
print("\nsplit AST root labels:")
for ast in splits.asts:
    kids = ", ".join(c.type_value() for c in ast.root.children[:4])
    print(f"  split {ast.split_id}: {ast.root.type_value()} -> {kids}, ...")
