"""The functions the benchmark's tracer wraps must exist under the names it uses.

A traced benchmark run (`bench/run.py --trace 1`) replaces module
attributes such as `splitter.build_ast` with timing wrappers; renaming or
removing one of them would break that run without failing any other test.
A wrapper also times only what runs through its name: the encoder stack
must run through `summarizer.encode` in training as well as in decoding.
"""

from basts import autodiff, checkpoint, cli, metrics, splitter, summarizer, syntax_encoder
from basts.cli import RunConfig
from toydata import SUMMARIZATION_ROWS

import spans
import workloads

OWNERS = (cli, splitter, syntax_encoder, summarizer, autodiff, autodiff.Adam, checkpoint,
          metrics)


def assert_restored(before):
    for owner, old in zip(OWNERS, before):
        now = vars(owner)
        assert now.keys() == old.keys()
        assert all(now[name] is value for name, value in old.items()), owner.__name__


def test_every_wrapped_name_resolves_and_is_restored():
    before = [dict(vars(owner)) for owner in OWNERS]
    with spans.Tracer("t") as tracer:
        workloads.install_wrappers(tracer)  # raises if a wrapped name is gone
        wrapped = {(owner.__name__, name)
                   for owner, old in zip(OWNERS, before)
                   for name, value in vars(owner).items() if old.get(name) is not value}
        assert {("basts.splitter", "build_ast"), ("basts.splitter", "parse_method"),
                ("basts.splitter", "build_split_asts")} <= wrapped
    assert_restored(before)


def test_encode_span_holds_the_encoder_stack_in_training_and_decoding():
    """Training and decoding each reach the encoder stack through the wrapped
    `summarizer.encode`, so its span covers every encoder attention call."""
    config = RunConfig(embedding_size=8, heads=2, encoder_layers=1, decoder_layers=1)
    corpus = cli.preprocess([cli.CorpusRecord(r["id"], r["code"], r["comment"])
                             for r in SUMMARIZATION_ROWS[:4]], config)
    model = cli.build_model(corpus, config)
    before = [dict(vars(owner)) for owner in OWNERS]
    with spans.Tracer("t") as tracer:
        workloads.install_wrappers(tracer)
        cli.train_step(corpus.examples, model, autodiff.Adam(model.all_params(), lr=1e-3))
        summarizer.greedy_decode(corpus.examples[0], model, max_len=2)
    assert_restored(before)
    # span: [id, name, start, end, parent id, root id]; each call above is a root
    for root_name in ("summarizer.train_step", "summarizer.greedy_decode"):
        (root,) = [span[0] for span in tracer.spans if span[1] == root_name]
        encodes = [span[0] for span in tracer.spans
                   if span[1] == "summarizer.encode" and span[5] == root]
        assert len(encodes) == 1, root_name
        assert any(span[1] == "summarizer.attention" and span[4] == encodes[0]
                   for span in tracer.spans), root_name
