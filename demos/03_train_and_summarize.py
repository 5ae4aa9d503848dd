"""Walkthrough: training the summarizer and decoding comments.

Run with `python3 demos/03_train_and_summarize.py` (about a minute on one
CPU core). A tiny corpus is memorized end to end: split ASTs feed the
tree encoder, each split's root becomes one more encoder row after the
method's code tokens, and the Transformer learns to emit each method's
comment. Greedy decoding then reproduces the gold comments.
"""

import numpy as np

from basts.autodiff import Adam
from basts.cli import CorpusRecord, RunConfig, build_model, preprocess, summaries
from basts.summarizer import train_step

ROWS = [
    ("add", "int add(int a, int b) { return a + b; }",
     "adds the two operands"),
    ("sub", "int sub(int a, int b) { return a - b; }",
     "subtracts the second operand"),
    ("reset", "void resetCounter(Counter c) { c.set(0); }",
     "resets the counter to zero"),
    ("max", "int maxOf(int a, int b) { if (a > b) { return a; } return b; }",
     "returns the larger argument"),
    ("toggle",
     "void toggle(Device d) { if (d.isOn()) { d.turnOff(); } else { d.turnOn(); } }",
     "flips the device power state"),
    ("fill",
     "void fillZeros(Array a) { for (int i = 0; i < a.length(); i = i + 1) { a.put(i, 0); } }",
     "fills the array with zeros"),
]

# 1. Preprocess: tokenize, abstract literals, split identifiers, parse,
#    split into blocks, and build both vocabularies.
records = [CorpusRecord(rid, code, comment) for rid, code, comment in ROWS]
config = RunConfig(embedding_size=32, heads=4, encoder_layers=1,
                   decoder_layers=1, type_value_min_freq=1, seed=1)
corpus = preprocess(records, config)
print(f"{len(corpus.examples)} examples; code vocab {len(corpus.code_vocab)}, "
      f"word vocab {len(corpus.word_vocab)}")
print("code tokens of the first example:",
      " ".join(corpus.records[0].code_tokens))

# 2. Build the model: a tree encoder over split ASTs (seeded `seed`) plus
#    the Transformer (seeded `seed + 1`), as `basts train --from-scratch` does.
model = build_model(corpus, config)

# 3. Teacher-forced training until the corpus is memorized.
opt = Adam(model.all_params(), lr=3e-3)
rng = np.random.default_rng(1)
for epoch in range(1, 301):
    order = rng.permutation(len(corpus.examples))
    loss = train_step([corpus.examples[i] for i in order], model, opt)
    if epoch % 25 == 0 or loss < 0.02:
        print(f"epoch {epoch:3d}  loss {loss:.4f}")
    if loss < 0.02:
        break

# 4. Greedy decoding: start from BOS, append the argmax word, stop at EOS.
print("\ngenerated versus gold:")
for words, (rid, _, comment) in zip(summaries(corpus, model, config), ROWS):
    print(f"  {rid:7s} generated: {' '.join(words)}")
    print(f"  {'':7s} gold:      {comment}")
