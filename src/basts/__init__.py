"""Block-wise code splitting and syntax-aware neural code summarization.

The pipeline: a Java-like mini language is lexed and parsed into
statement-level methods; each method's control flow graph is reduced to
its dominator tree, which is partitioned into blocks of consecutive
statements; every block becomes an independently parsed split AST. Split
ASTs are encoded by a Child-Sum Tree-LSTM whose parameters are pre-trained
on next-split prediction, and a Transformer reads each method's code
tokens, then one row per split AST, to generate comment text.
"""
