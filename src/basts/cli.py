"""Corpus ingestion, configuration, pipeline orchestration, and the CLI.

Subcommands: split, pretrain, train, eval, summarize, plus `cfg dump` and
`dom dump` for DOT output. Each command is one row of a table: its
subparser names its handler with `set_defaults(run=...)`, and `run`
calls that handler with the parsed arguments and the config. Corpus
records and summarize's methods share one per-method preparation.
`train` builds its model with `build_model`, whose fresh tree encoder
is `init_tree`'s, the one `pretrain` starts from too; `eval --input` and
`summarize` share one decode loop, `summaries`.
Corpora are JSON Lines records with id/code/comment fields; configs are
key = value text. A token is its text: `code_token_texts` reads each
token's model-facing texts, its subtokens if it is an identifier, from
the frontend's per-text table `SUBTOKENS_OF`, and `method_key` is the
tuple of the method's own tokens.
Every text input is read by `read_lines`, and a FormatError names the
file, then the line. Runs are reproducible from (config, seed):
identical invocations write byte-identical checkpoints and loss logs.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import sys
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

from basts.autodiff import Adam, ShapeError, check_width
from basts.cfg import CfgError, build_cfg, cfg_to_dot
from basts.checkpoint import load_checkpoint, save_checkpoint
from basts.dominators import compute_dominators, dom_to_dot
from basts.frontend import (
    SUBTOKENS_OF,
    LexError,
    ParseError,
    abstract_literals,
    ast_to_json,
    parse_method,
    parse_program,
    token_offsets,
    tokenize,
    tokenize_comment,
)
from basts.metrics import evaluate_corpus
from basts.splitter import MethodSplits, make_split_code, split_method
from basts.summarizer import (
    SummarizationExample,
    SummarizerModel,
    TransformerParams,
    Vocab,
    greedy_decode,
    train_step,
)
from basts.syntax_encoder import (
    ConfigError,
    PretrainConfig,
    TreeLstmParams,
    build_type_value_vocab,
    pretrain,
)


class FormatError(ValueError):
    """Malformed text input; names its file, then the offending line."""

    def __init__(self, path, line: int, message: str):
        super().__init__(f"{path}: line {line}: {message}")
        self.path, self.line = path, line


@dataclass
class CorpusRecord:
    record_id: str
    code: str
    comment: str


def read_lines(path):
    """Yield (line number, text) for each line of a UTF-8 text file.

    Lines end at a line feed only, and keep it. Each line is decoded on its
    own, so invalid UTF-8 is a FormatError that names the file and line.
    """
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as err:
                raise FormatError(path, line_no, f"invalid UTF-8 at byte {err.start}") from err
            yield line_no, line


def load_corpus(path) -> list[CorpusRecord]:
    """Read JSON Lines records with id/code/comment fields, in file order."""
    records = []
    seen = set()
    for line_no, line in read_lines(path):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as err:
            raise FormatError(path, line_no, f"invalid JSON ({err.msg})") from err
        if not isinstance(obj, dict):
            raise FormatError(path, line_no, "record is not a JSON object")
        for key in ("id", "code", "comment"):
            if key not in obj:
                raise FormatError(path, line_no, f"missing field {key!r}")
            if not isinstance(obj[key], str):
                raise FormatError(path, line_no, f"field {key!r} is not a string")
        rid = obj["id"]
        if rid in seen:
            raise FormatError(path, line_no, f"duplicate record id {rid!r}")
        seen.add(rid)
        records.append(CorpusRecord(rid, obj["code"], obj["comment"]))
    return records


_BOOL_VALUES = {"true": True, "1": True, "false": False, "0": False}


@dataclass
class RunConfig(PretrainConfig):
    """Every setting of a run; the pre-training ones are `PretrainConfig`'s."""

    embedding_size: int = 64
    heads: int = 4
    encoder_layers: int = 2
    decoder_layers: int = 2
    max_code_length: int = 100
    max_comment_length: int = 30
    freeze_pretrained: bool = False
    bleu_smoothing: bool = True
    type_value_min_freq: int = 2

    def validate(self):
        super().validate()
        try:
            check_width(self.embedding_size, self.heads, "embedding_size")
        except ShapeError as err:
            raise ConfigError(str(err)) from err
        for name in ("max_code_length", "max_comment_length", "type_value_min_freq"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("encoder_layers", "decoder_layers"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative, got {getattr(self, name)}")
        return self

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        """Parse a key = value config file; '#' starts a comment line, and
        each key may appear once."""
        values = {}
        defaults = {f.name: f.default for f in dataclasses.fields(cls)}
        for line_no, line in read_lines(path):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise FormatError(path, line_no, "expected key = value")
            key, _, value = text.partition("=")
            key, value = key.strip(), value.strip()
            if key not in defaults:
                raise FormatError(path, line_no, f"unknown config key {key!r}")
            if key in values:
                raise FormatError(path, line_no, f"repeated config key {key!r}")
            kind = type(defaults[key])  # bool, int or float
            try:
                values[key] = _BOOL_VALUES[value.lower()] if kind is bool else kind(value)
            except (KeyError, ValueError) as err:
                raise FormatError(path, line_no, f"bad value for {key}: {value!r}") from err
        return cls(**values).validate()


def code_token_texts(method, max_len: int) -> list[str]:
    """Model-facing token sequence: identifiers expand to subtokens.

    Only the method's own tokens count, each token's texts are read from
    the frontend's `SUBTOKENS_OF` table, and the walk stops once `max_len`
    texts are out.
    """
    lo, hi = method.span
    texts = chain.from_iterable(map(SUBTOKENS_OF.__getitem__, method.tokens[lo:hi]))
    return list(islice(texts, max_len))


@dataclass
class PreparedRecord:
    record_id: str
    code_tokens: list[str]
    comment_words: list[str]
    splits: MethodSplits


@dataclass
class PreparedCorpus:
    """Prepared records and the vocabularies that encode them.

    `examples` holds each record's model input, in record order; it is
    derived from the records here, once.
    """

    records: list[PreparedRecord]
    code_vocab: Vocab
    word_vocab: Vocab
    dropped: list[tuple[str, str]] = field(default_factory=list)
    examples: list[SummarizationExample] = field(init=False)

    def __post_init__(self):
        self.examples = [
            SummarizationExample(
                code_ids=self.code_vocab.encode(r.code_tokens),
                split_asts=r.splits.asts,
                comment_ids=[Vocab.BOS] + self.word_vocab.encode(r.comment_words) + [Vocab.EOS],
            )
            for r in self.records
        ]

    @property
    def split_corpus(self) -> list[MethodSplits]:
        return [r.splits for r in self.records]


def _prepare(record_id: str, method, comment: str, config: RunConfig) -> PreparedRecord:
    """One parsed method's model-facing tokens, comment words and splits."""
    return PreparedRecord(
        record_id=record_id,
        code_tokens=code_token_texts(method, config.max_code_length),
        comment_words=tokenize_comment(comment)[: config.max_comment_length],
        splits=split_method(method),
    )


def preprocess(records: list[CorpusRecord], config: RunConfig,
               code_vocab: Vocab | None = None,
               word_vocab: Vocab | None = None) -> PreparedCorpus:
    """Run the full per-record pipeline and assemble model inputs.

    Vocabularies are built from these records only when not supplied, so
    evaluation corpora reuse the training vocabularies and never leak
    into them. Records a pipeline stage rejects are dropped with the
    error as the reason; any other exception is a fault and propagates.

    The cyclic garbage collector is paused over the record loop, and the
    caller's setting is restored on every exit. Each record allocates
    thousands of tokens, statements, CFG and AST nodes, which would
    trigger collections that re-scan every object kept so far. The pause
    loses nothing: those objects form no reference cycles, and neither
    do the caught pipeline errors, so reference counting frees all of
    them (tests/test_cli.py checks that `gc.collect()` then finds
    nothing).

    Where the pause is lifted, `gc.freeze()` then `gc.unfreeze()` moves
    every young object into the oldest generation in constant time, so
    the kept objects are tenured at once instead of walked by the next
    young collection. The move is skipped when the caller has frozen
    objects itself, since `gc.unfreeze()` would thaw them too.
    """
    prepared: list[PreparedRecord] = []
    dropped: list[tuple[str, str]] = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        for record in records:
            try:
                method = parse_method(abstract_literals(tokenize(record.code)))
                prepared.append(_prepare(record.record_id, method, record.comment, config))
            except (LexError, ParseError, CfgError) as err:
                dropped.append((record.record_id, f"{type(err).__name__}: {err}"))
    finally:
        if collecting:
            if not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()
            gc.enable()
    if not prepared:
        raise ConfigError("no records survived preprocessing")

    if code_vocab is None:
        code_vocab = Vocab.build([r.code_tokens for r in prepared])
    if word_vocab is None:
        word_vocab = Vocab.build([r.comment_words for r in prepared])

    return PreparedCorpus(prepared, code_vocab, word_vocab, dropped)


def method_key(method) -> tuple[str, ...]:
    """What `eval --dedupe-train` compares: the texts of all of the method's
    own tokens, literals abstracted."""
    lo, hi = method.span
    return tuple(method.tokens[lo:hi])


def read_code_tokens(records: list[CorpusRecord]) -> set[tuple[str, ...]]:
    """The records' `method_key`s. No CFG or split is built.

    A record that fails to lex or parse is left out, as `preprocess` drops
    it; one that parses but has no CFG is kept.
    """
    codes = set()
    for record in records:
        try:
            method = parse_method(abstract_literals(tokenize(record.code)))
        except (LexError, ParseError):
            continue
        codes.add(method_key(method))
    return codes


def dedupe_against(prepared: PreparedCorpus, train_codes: set[tuple[str, ...]]) -> PreparedCorpus:
    """Drop evaluation records whose `method_key` is one of `train_codes`,
    the training corpus's keys as `read_code_tokens` gives them.

    Raises ConfigError when every record is dropped, leaving nothing to score.
    """
    keep = []
    dropped = list(prepared.dropped)
    for r in prepared.records:
        if method_key(r.splits.method) in train_codes:
            dropped.append((r.record_id, "duplicate of a training record"))
        else:
            keep.append(r)
    if not keep:
        raise ConfigError(f"nothing to score: all {len(prepared.records)} records that "
                          "survived preprocessing are duplicates of training records")
    return PreparedCorpus(keep, prepared.code_vocab, prepared.word_vocab, dropped)


def train_summarizer(examples: list[SummarizationExample], model: SummarizerModel,
                     config: RunConfig) -> list[float]:
    """Teacher-forced training loop; returns per-epoch mean losses.

    With `freeze_pretrained` the tree encoder's parameters stop requiring
    grad, so each step treats them as constants: the fold records no op
    and keeps no backward buffers, and Adam leaves them as they are.
    """
    for p in model.tree.all_params():
        p.requires_grad = not config.freeze_pretrained
    opt = Adam(model.all_params(), lr=config.learning_rate)
    rng = np.random.default_rng(config.seed)
    history = []
    for _ in range(config.epochs):
        order = rng.permutation(len(examples))
        epoch_loss = 0.0
        for lo in range(0, len(examples), config.batch_size):
            batch = [examples[i] for i in order[lo : lo + config.batch_size]]
            loss = train_step(batch, model, opt)
            epoch_loss += loss * len(batch)
        history.append(epoch_loss / len(examples))
    return history


def _write_loss_log(path, rows, header):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


# --- subcommands ------------------------------------------------------------


def _line(source: str, offset: int) -> int:
    return source.count("\n", 0, offset) + 1


def _where(source: str, tokens: list, offsets: list[int], offset: int) -> str:
    """The line of a failure at character `offset`, past `tokens`, which
    start at `offsets`.

    The failure's method comes first once its name has been read. The
    methods before it parsed, so their braces balance: it starts after
    the last '}' that brings the depth back to 0.
    """
    start = depth = 0
    for i, t in enumerate(tokens):
        if t == "{":
            depth += 1
        elif t == "}":
            depth -= 1
            if depth == 0:
                start = i + 1
    where = f"line {_line(source, offset)}"
    if start + 1 < len(tokens):
        name, line = tokens[start + 1], _line(source, offsets[start])
        where = f"method {name!r} (line {line}): {where}"
    return where


def _each_method(path, prepare):
    """Yield (method, prepare(method)) for each method of a source file.

    A LexError or ParseError gives its line, and its method once the
    method's name is read; it keeps its type. A CfgError from `prepare`
    names the method and the line it starts on. Token offsets are found
    only on these error paths.
    """
    source = "".join(line for _, line in read_lines(path))
    try:
        methods = parse_program(source)
    except LexError as err:
        lexed = source[: err.offset]  # lexes: the failure starts at err.offset
        err.args = (f"{_where(source, tokenize(lexed), token_offsets(lexed), err.offset)}: {err}",)
        raise
    except ParseError as err:
        offsets = token_offsets(source)
        offset = offsets[err.index] if err.index < len(offsets) else len(source.rstrip())
        err.args = (f"{_where(source, tokenize(source)[: err.index], offsets, offset)}: {err}",)
        raise
    for method in methods:
        try:
            prepared = prepare(method)
        except CfgError as err:
            line = _line(source, token_offsets(source)[method.span[0]])
            raise CfgError(f"method {method.name!r} (line {line}): {err}") from err
        yield method, prepared


def _write_json(obj, path) -> None:
    """Write obj as indented JSON and a newline to path, or print it."""
    text = json.dumps(obj, indent=2)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_split(args, config: RunConfig) -> int:
    out = {"methods": []}
    for method, splits in _each_method(args.input, split_method):
        out["methods"].append({
            "method": method.name,
            "splits": [
                {
                    "id": s.split_id,
                    "code": " ".join(make_split_code(s, method)),
                    "ast": ast_to_json(splits.asts[s.split_id].root),
                }
                for s in splits.graph.splits
            ],
            "edges": [list(e) for e in splits.graph.successor_edges],
        })
    _write_json(out, args.output)
    return 0


def init_tree(corpus: PreparedCorpus, config: RunConfig) -> TreeLstmParams:
    """Fresh tree encoder over the corpus's type_value vocabulary, seeded
    `config.seed`."""
    roots = [a.root for r in corpus.records for a in r.splits.asts]
    vocab = build_type_value_vocab(roots, min_freq=config.type_value_min_freq)
    return TreeLstmParams.init(
        vocab, config.embedding_size, np.random.default_rng(config.seed)
    )


def build_model(corpus: PreparedCorpus, config: RunConfig,
                tree: TreeLstmParams | None = None) -> SummarizerModel:
    """`tree`, or a fresh `init_tree`, plus a fresh Transformer over the
    corpus's vocabularies, seeded `config.seed + 1`."""
    if tree is None:
        tree = init_tree(corpus, config)
    return SummarizerModel(tree, TransformerParams.init(
        len(corpus.code_vocab), len(corpus.word_vocab), config.embedding_size,
        config.heads, config.encoder_layers, config.decoder_layers,
        np.random.default_rng(config.seed + 1)))


def cmd_pretrain(args, config: RunConfig) -> int:
    corpus = preprocess(load_corpus(args.input), config)
    model, history = pretrain(corpus.split_corpus, init_tree(corpus, config), config)
    save_checkpoint(args.output, tree=model.tree, sep=model)
    _write_loss_log(
        args.log,
        [(i + 1, h.loss, h.accuracy) for i, h in enumerate(history)],
        "epoch,loss,pair_accuracy",
    )
    print(f"pre-trained on {len(corpus.records)} methods "
          f"({len(corpus.dropped)} dropped); checkpoint: {args.output}")
    return 0


def cmd_train(args, config: RunConfig) -> int:
    if bool(args.checkpoint) == args.from_scratch:
        raise ConfigError("train needs exactly one of --checkpoint and --from-scratch")
    corpus = preprocess(load_corpus(args.input), config)
    tree = None
    if args.checkpoint:
        tree = load_checkpoint(args.checkpoint).tree
        if tree is None:
            raise ConfigError(f"{args.checkpoint} has no tree section")
        if tree.size != config.embedding_size:
            raise ConfigError(
                f"checkpoint width {tree.size} != embedding_size "
                f"{config.embedding_size}"
            )
    model = build_model(corpus, config, tree)
    history = train_summarizer(corpus.examples, model, config)
    save_checkpoint(
        args.output,
        tree=model.tree,
        transformer=model.transformer,
        code_vocab=corpus.code_vocab,
        word_vocab=corpus.word_vocab,
    )
    _write_loss_log(
        args.log, [(i + 1, loss) for i, loss in enumerate(history)], "epoch,loss"
    )
    print(f"trained {config.epochs} epochs on {len(corpus.examples)} examples "
          f"({len(corpus.dropped)} dropped); final loss {history[-1]:.4f}; "
          f"checkpoint: {args.output}")
    return 0


def summaries(corpus: PreparedCorpus, model: SummarizerModel,
              config: RunConfig) -> list[list[str]]:
    """The greedy-decoded words of every example of the corpus, in order."""
    return [corpus.word_vocab.decode(
                greedy_decode(example, model, max_len=config.max_comment_length))
            for example in corpus.examples]


def _read_words(path) -> list[list[str]]:
    """The words of each line of a hypothesis or reference file."""
    return [line.split() for _, line in read_lines(path)]


def cmd_eval(args, config: RunConfig) -> int:
    corpus_flags = [flag for flag, value in (("--input", args.input),
                                             ("--checkpoint", args.checkpoint),
                                             ("--dedupe-train", args.dedupe_train)) if value]
    if (args.hyp or args.ref) and corpus_flags:
        raise ConfigError(f"eval --hyp/--ref cannot be combined with {' '.join(corpus_flags)}")
    if args.hyp and args.ref:
        hyps, refs = (_read_words(path) for path in (args.hyp, args.ref))
        if len(hyps) != len(refs):
            raise ConfigError(
                f"hypothesis count {len(hyps)} != reference count {len(refs)}"
            )
        if not hyps:
            raise ConfigError(f"nothing to score: {args.hyp} and {args.ref} are both empty")
    elif args.input and args.checkpoint:
        ckpt = load_checkpoint(args.checkpoint)
        model = ckpt.model()

        corpus = preprocess(load_corpus(args.input), config,
                            code_vocab=ckpt.code_vocab, word_vocab=ckpt.word_vocab)
        if args.dedupe_train:
            if not (train_codes := read_code_tokens(load_corpus(args.dedupe_train))):
                raise ConfigError(f"--dedupe-train {args.dedupe_train}: no record lexes and parses")
            corpus = dedupe_against(corpus, train_codes)
        hyps = summaries(corpus, model, config)
        refs = [r.comment_words for r in corpus.records]
    else:
        raise ConfigError("eval needs --hyp/--ref files or --input with --checkpoint")
    scaled = evaluate_corpus(list(zip(hyps, refs)),
                             bleu_smoothing=config.bleu_smoothing).scaled()
    labels = {
        "s_bleu": "S-BLEU", "c_bleu": "C-BLEU", "meteor": "METEOR",
        "rouge1_f": "ROUGE-1", "rouge2_f": "ROUGE-2", "rougeL_f": "ROUGE-L",
    }
    print("metric    score\n" + "-" * 16)
    for key, label in labels.items():
        print(f"{label:<9} {scaled[key]:6.2f}")
    _write_json(scaled, args.json)
    return 0


def cmd_summarize(args, config: RunConfig) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    model = ckpt.model()
    records = [record for _, record in
               _each_method(args.input, lambda m: _prepare(m.name, m, "", config))]
    corpus = PreparedCorpus(records, ckpt.code_vocab, ckpt.word_vocab)
    for words in summaries(corpus, model, config):
        print(" ".join(words))
    return 0


def cmd_dump(args, config: RunConfig) -> int:
    for method, cfg in _each_method(args.input, build_cfg):
        if args.command == "cfg":
            print(cfg_to_dot(cfg, method))
        else:
            print(dom_to_dot(compute_dominators(cfg)))
    return 0


# --- argument parsing -------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="basts",
        description="Block-wise AST splitting code summarization pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, checkpoint=False):
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--input", required=True, help="input path")
        p.add_argument("--seed", type=int, help="override the config seed")
        if checkpoint:
            p.add_argument("--checkpoint", help="checkpoint path to load")

    p = sub.add_parser("split", help="dump code splits as JSON")
    p.set_defaults(run=cmd_split)
    p.add_argument("--input", required=True)
    p.add_argument("--output", help="write JSON here instead of stdout")

    p = sub.add_parser("pretrain", help="pre-train split embeddings")
    p.set_defaults(run=cmd_pretrain)
    common(p)
    p.add_argument("--output", default="sep.ckpt", help="checkpoint to write")
    p.add_argument("--log", default="pretrain_loss.csv", help="loss CSV to write")

    p = sub.add_parser("train", help="train the summarizer")
    p.set_defaults(run=cmd_train)
    common(p, checkpoint=True)
    p.add_argument("--from-scratch", action="store_true",
                   help="initialize the tree encoder instead of loading one")
    p.add_argument("--output", default="model.ckpt", help="checkpoint to write")
    p.add_argument("--log", default="train_loss.csv", help="loss CSV to write")

    p = sub.add_parser("eval", help="score hypotheses against references")
    p.set_defaults(run=cmd_eval)
    p.add_argument("--config", help="key = value configuration file")
    p.add_argument("--input", help="corpus to summarize and score")
    p.add_argument("--seed", type=int)
    p.add_argument("--checkpoint", help="model checkpoint for --input mode")
    p.add_argument("--hyp", help="hypothesis text file, one comment per line")
    p.add_argument("--ref", help="reference text file, one comment per line")
    p.add_argument("--dedupe-train", metavar="CORPUS",
                   help="drop eval records whose code appears in this corpus")
    p.add_argument("--json", help="write the JSON report here")

    p = sub.add_parser("summarize", help="generate comments for source methods")
    p.set_defaults(run=cmd_summarize)
    common(p, checkpoint=True)

    for name in ("cfg", "dom"):
        p = sub.add_parser(name, help=f"{name} tooling")
        p.set_defaults(run=cmd_dump)
        p.add_argument("action", choices=["dump"])
        p.add_argument("--input", required=True)
    return parser


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    config = RunConfig.from_file(args.config) if getattr(args, "config", None) \
        else RunConfig()
    if getattr(args, "seed", None) is not None:
        config.seed = args.seed
    config.validate()
    return args.run(args, config)


def main():
    try:
        sys.exit(run())
    except Exception as err:  # uniform nonzero exit with a diagnostic
        print(f"basts: error: {err}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
