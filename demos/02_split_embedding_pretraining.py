"""Walkthrough: pre-training split embeddings on next-split prediction.

Run with `python3 demos/02_split_embedding_pretraining.py`. A small
corpus of branching methods is split into blocks; ordered block pairs
labeled by the successor relation train the tree encoder plus a logistic
scoring head. The script prints the loss curve and then probes the
trained scorer on a positive and a negative pair.
"""

import numpy as np

from basts.autodiff import embedding_lookup
from basts.frontend import abstract_literals, parse_method, tokenize
from basts.splitter import split_method
from basts.syntax_encoder import (
    PretrainConfig,
    TreeLstmParams,
    build_type_value_vocab,
    encode_trees,
    generate_pairs,
    pretrain,
    sep_score,
)

SOURCES = [
    """
    void closeIdleConnections(long timeMillis) {
        long idleTimeout = System.currentTimeMillis() - timeMillis;
        for (int i = 0; i < connections.size(); i = i + 1) {
            HttpConnection conn = connections.get(i);
            if (conn.getLastUse() < idleTimeout) {
                if (conn.isOpen()) { conn.close(); } else { conn.shutdown(); }
                conn.setLastUse(timeMillis);
            }
        }
    }
    """,
    """
    void syncQueue(Queue q) {
        int n = q.size();
        if (n > 0) { q.flush(); } else { q.clear(); }
        q.notifyAll();
    }
    """,
    """
    int clampValue(int v, int lo, int hi) {
        if (v < lo) { return lo; }
        if (v > hi) { return hi; }
        return v;
    }
    """,
    """
    void drainBuffer(Buffer b) {
        while (b.hasNext()) {
            Item x = b.next();
            if (x.stale()) { b.drop(x); } else { b.keep(x); }
        }
        b.close();
    }
    """,
    """
    int sumPositive(List xs) {
        int total = 0;
        for (int i = 0; i < xs.size(); i = i + 1) {
            int v = xs.get(i);
            if (v > 0) { total = total + v; }
        }
        return total;
    }
    """,
    """
    void toggleFlag(Device d) {
        boolean on = d.isOn();
        if (on) { d.turnOff(); } else { d.turnOn(); }
        d.log("toggled");
    }
    """,
    """
    int findIndex(List xs, Item target) {
        for (int i = 0; i < xs.size(); i = i + 1) {
            if (xs.get(i).equals(target)) { return i; }
        }
        return -1;
    }
    """,
    """
    void warmCache(Cache c, int rounds) {
        int r = 0;
        while (r < rounds) {
            c.touch(r);
            r = r + 1;
        }
        if (c.cold()) { c.prime(); }
    }
    """,
]

# 1. Split every method into blocks.
corpus = [
    split_method(parse_method(abstract_literals(tokenize(src))))
    for src in SOURCES
]
for ms in corpus:
    print(f"{ms.method.name}: {len(ms.graph.splits)} splits, "
          f"edges {ms.graph.successor_edges}")

# 2. The training signal: ordered pairs of split ASTs. An edge in the
#    block successor relation is a positive; sampled non-adjacent ordered
#    pairs are negatives.
pairs = generate_pairs(corpus[1], neg_ratio=1, seed=0)
print(f"\n{corpus[1].method.name} yields {len(pairs)} pairs, labels "
      f"{[p.label for p in pairs]}")

# 3. Pre-train. The type_value vocabulary comes from the corpus trees.
vocab = build_type_value_vocab(
    [a.root for ms in corpus for a in ms.asts], min_freq=1
)
params = TreeLstmParams.init(vocab, 16, np.random.default_rng(7))
config = PretrainConfig(learning_rate=0.01, epochs=80, batch_size=256, seed=7)
model, history = pretrain(corpus, params, config)

print("\nepoch    loss   pair accuracy")
for i in range(0, len(history), 10):
    h = history[i]
    print(f"{i + 1:5d}  {h.loss:6.4f}  {h.accuracy:6.3f}")
print(f"final  {history[-1].loss:6.4f}  {history[-1].accuracy:6.3f}")

# 4. Probe the trained scorer: a real successor pair should outscore a
#    non-adjacent one. The split embeddings are the rows of one matrix,
#    and sep_score scores row pairs.
ms = corpus[1]
first_edge = ms.graph.successor_edges[0]
roots = encode_trees(ms.asts, model.tree)
row = {a.split_id: i for i, a in enumerate(ms.asts)}
forward = [row[first_edge[0]], row[first_edge[1]]]
pos, neg = sep_score(embedding_lookup(roots, forward),
                     embedding_lookup(roots, forward[::-1]), model).data
print(f"\nscore along edge {first_edge}: {pos:.3f}")
print(f"score against the edge direction: {neg:.3f}")
