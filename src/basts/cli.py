"""Corpus ingestion, configuration, pipeline orchestration, and the CLI.

Subcommands: split, pretrain, train, eval, summarize, plus `cfg dump` and
`dom dump` for DOT output. Corpora are JSON Lines records with id/code/
comment fields; configs are key = value text. Runs are reproducible from
(config, seed): identical invocations write byte-identical checkpoints
and loss logs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from basts.autodiff import Adam
from basts.cfg import CfgError, build_cfg, cfg_to_dot
from basts.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from basts.dominators import DomError, compute_dominators, dom_to_dot
from basts.frontend import (
    LexError,
    ParseError,
    TokenKind,
    abstract_literals,
    ast_to_json,
    parse_method,
    parse_program,
    split_identifier,
    tokenize,
    tokenize_comment,
)
from basts.metrics import EvalReport, evaluate_corpus
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
    """Malformed corpus or config content; carries the offending line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class CorpusRecord:
    record_id: str
    code: str
    comment: str


def load_corpus(path) -> list[CorpusRecord]:
    """Read JSON Lines records with id/code/comment fields, in file order.

    Each line is decoded on its own, so invalid UTF-8 is reported with its
    line number.
    """
    records = []
    seen = set()
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as err:
                raise FormatError(f"invalid UTF-8 at byte {err.start}", line_no) from err
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as err:
                raise FormatError(f"invalid JSON ({err.msg})", line_no) from err
            if not isinstance(obj, dict):
                raise FormatError("record is not a JSON object", line_no)
            for key in ("id", "code", "comment"):
                if key not in obj:
                    raise FormatError(f"missing field {key!r}", line_no)
            rid = str(obj["id"])
            if rid in seen:
                raise FormatError(f"duplicate record id {rid!r}", line_no)
            seen.add(rid)
            records.append(CorpusRecord(rid, str(obj["code"]), str(obj["comment"])))
    return records


_BOOL_VALUES = {"true": True, "1": True, "false": False, "0": False}


@dataclass
class RunConfig:
    embedding_size: int = 64
    heads: int = 4
    encoder_layers: int = 2
    decoder_layers: int = 2
    max_code_length: int = 100
    max_comment_length: int = 30
    batch_size: int = 16
    learning_rate: float = 1e-3
    epochs: int = 50
    seed: int = 0
    neg_ratio: int = 1
    freeze_pretrained: bool = False
    bleu_smoothing: bool = True
    type_value_min_freq: int = 2

    def validate(self):
        if self.embedding_size % self.heads != 0:
            raise ConfigError(
                f"embedding_size {self.embedding_size} not divisible by "
                f"heads {self.heads}"
            )
        for name in ("embedding_size", "heads", "max_code_length",
                     "max_comment_length", "batch_size", "epochs", "neg_ratio",
                     "type_value_min_freq"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("encoder_layers", "decoder_layers"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise ConfigError(
                f"learning_rate must be positive and finite, got {self.learning_rate}"
            )
        return self

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        """Parse a key = value config file; '#' starts a comment line."""
        values = {}
        defaults = {f.name: f.default for f in dataclasses.fields(cls)}
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                if "=" not in text:
                    raise FormatError("expected key = value", line_no)
                key, _, value = text.partition("=")
                key, value = key.strip(), value.strip()
                if key not in defaults:
                    raise FormatError(f"unknown config key {key!r}", line_no)
                kind = type(defaults[key])  # bool, int or float
                try:
                    values[key] = _BOOL_VALUES[value.lower()] if kind is bool else kind(value)
                except (KeyError, ValueError) as err:
                    raise FormatError(f"bad value for {key}: {value!r}", line_no) from err
        return cls(**values).validate()


def code_token_texts(method, max_len: int) -> list[str]:
    """Model-facing token sequence: identifiers expand to subtokens.

    Only the method's own tokens count, and the walk stops once `max_len`
    texts are out.
    """
    out: list[str] = []
    lo, hi = method.span
    for tok in method.tokens[lo:hi]:
        if len(out) >= max_len:
            break
        if tok.kind is TokenKind.IDENTIFIER:
            out.extend(split_identifier(tok.text))
        else:
            out.append(tok.text)
    return out[:max_len]


@dataclass
class PreparedRecord:
    record_id: str
    code_tokens: list[str]
    comment_words: list[str]
    splits: MethodSplits


@dataclass
class PreparedCorpus:
    examples: list[SummarizationExample]
    records: list[PreparedRecord]
    code_vocab: Vocab
    word_vocab: Vocab
    dropped: list[tuple[str, str]] = field(default_factory=list)

    @property
    def split_corpus(self) -> list[MethodSplits]:
        return [r.splits for r in self.records]


def _prepare_one(record: CorpusRecord, config: RunConfig) -> PreparedRecord:
    tokens = abstract_literals(tokenize(record.code))
    method = parse_method(tokens)
    return PreparedRecord(
        record_id=record.record_id,
        code_tokens=code_token_texts(method, config.max_code_length),
        comment_words=tokenize_comment(record.comment)[: config.max_comment_length],
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
    """
    prepared: list[PreparedRecord] = []
    dropped: list[tuple[str, str]] = []
    for record in records:
        try:
            prepared.append(_prepare_one(record, config))
        except (LexError, ParseError, CfgError, DomError) as err:
            dropped.append((record.record_id, f"{type(err).__name__}: {err}"))
    if not prepared:
        raise ConfigError("no records survived preprocessing")

    if code_vocab is None:
        code_vocab = Vocab.build([r.code_tokens for r in prepared])
    if word_vocab is None:
        word_vocab = Vocab.build([r.comment_words for r in prepared])

    examples = [
        SummarizationExample(
            code_ids=code_vocab.encode(r.code_tokens),
            split_asts=r.splits.asts,
            comment_ids=[Vocab.BOS] + word_vocab.encode(r.comment_words) + [Vocab.EOS],
        )
        for r in prepared
    ]
    return PreparedCorpus(examples, prepared, code_vocab, word_vocab, dropped)


def dedupe_against(prepared: PreparedCorpus, train_records) -> PreparedCorpus:
    """Drop evaluation records whose abstracted code string occurs in training."""
    train_codes = {" ".join(r.code_tokens) for r in train_records}
    keep = []
    dropped = list(prepared.dropped)
    for i, r in enumerate(prepared.records):
        if " ".join(r.code_tokens) in train_codes:
            dropped.append((r.record_id, "duplicate of a training record"))
        else:
            keep.append(i)
    return PreparedCorpus(
        [prepared.examples[i] for i in keep],
        [prepared.records[i] for i in keep],
        prepared.code_vocab,
        prepared.word_vocab,
        dropped,
    )


def train_summarizer(examples: list[SummarizationExample], model: SummarizerModel,
                     config: RunConfig) -> list[float]:
    """Teacher-forced training loop; returns per-epoch mean losses."""
    opt = Adam(model.all_params(), lr=config.learning_rate)
    rng = np.random.default_rng(config.seed)
    history = []
    for _ in range(config.epochs):
        order = rng.permutation(len(examples))
        epoch_loss = 0.0
        for lo in range(0, len(examples), config.batch_size):
            batch = [examples[i] for i in order[lo : lo + config.batch_size]]
            loss = train_step(batch, model, opt,
                              freeze_tree=config.freeze_pretrained)
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


def cmd_split(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        methods = parse_program(fh.read())
    out = {"methods": []}
    for method in methods:
        splits = split_method(method)
        out["methods"].append({
            "method": method.name,
            "splits": [
                {
                    "id": s.split_id,
                    "code": " ".join(
                        t.text for t in make_split_code(s, method)
                    ),
                    "ast": ast_to_json(splits.asts[s.split_id].root),
                }
                for s in splits.graph.splits
            ],
            "edges": [list(e) for e in splits.graph.successor_edges],
        })
    text = json.dumps(out, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _init_tree(corpus: PreparedCorpus, config: RunConfig) -> TreeLstmParams:
    """Fresh tree encoder over the corpus's type_value vocabulary."""
    roots = [a.root for r in corpus.records for a in r.splits.asts]
    vocab = build_type_value_vocab(roots, min_freq=config.type_value_min_freq)
    return TreeLstmParams.init(
        vocab, config.embedding_size, np.random.default_rng(config.seed)
    )


def cmd_pretrain(args, config: RunConfig) -> int:
    corpus = preprocess(load_corpus(args.input), config)
    model, history = pretrain(
        corpus.split_corpus,
        _init_tree(corpus, config),
        PretrainConfig(
            learning_rate=config.learning_rate,
            epochs=config.epochs,
            batch_size=config.batch_size,
            seed=config.seed,
            neg_ratio=config.neg_ratio,
        ),
    )
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
    corpus = preprocess(load_corpus(args.input), config)
    if args.checkpoint:
        tree = load_checkpoint(args.checkpoint).tree
        if tree is None:
            raise ConfigError(f"{args.checkpoint} has no tree section")
        if tree.size != config.embedding_size:
            raise ConfigError(
                f"checkpoint width {tree.size} != embedding_size "
                f"{config.embedding_size}"
            )
    elif args.from_scratch:
        tree = _init_tree(corpus, config)
    else:
        raise ConfigError("train needs --checkpoint or --from-scratch")
    transformer = TransformerParams.init(
        len(corpus.code_vocab),
        len(corpus.word_vocab),
        config.embedding_size,
        config.heads,
        config.encoder_layers,
        config.decoder_layers,
        np.random.default_rng(config.seed + 1),
    )
    model = SummarizerModel(tree, transformer)
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
    final = history[-1] if history else float("nan")
    print(f"trained {config.epochs} epochs on {len(corpus.examples)} examples "
          f"({len(corpus.dropped)} dropped); final loss {final:.4f}; "
          f"checkpoint: {args.output}")
    return 0


def _report_text(report: EvalReport) -> str:
    scaled = report.scaled()
    names = {
        "s_bleu": "S-BLEU", "c_bleu": "C-BLEU", "meteor": "METEOR",
        "rouge1_f": "ROUGE-1", "rouge2_f": "ROUGE-2", "rougeL_f": "ROUGE-L",
    }
    lines = ["metric    score", "-" * 16]
    for key, label in names.items():
        lines.append(f"{label:<9} {scaled[key]:6.2f}")
    return "\n".join(lines)


def _emit_report(report: EvalReport, json_path) -> None:
    print(_report_text(report))
    payload = json.dumps(report.scaled(), indent=2)
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)


def cmd_eval(args, config: RunConfig) -> int:
    if args.hyp and args.ref:
        with open(args.hyp, "r", encoding="utf-8") as fh:
            hyps = [line.split() for line in fh.read().splitlines()]
        with open(args.ref, "r", encoding="utf-8") as fh:
            refs = [line.split() for line in fh.read().splitlines()]
        if len(hyps) != len(refs):
            raise ConfigError(
                f"hypothesis count {len(hyps)} != reference count {len(refs)}"
            )
        pairs = list(zip(hyps, refs))
    elif args.input and args.checkpoint:
        ckpt = load_checkpoint(args.checkpoint)
        model = ckpt.model()
        corpus = preprocess(
            load_corpus(args.input), config,
            code_vocab=ckpt.code_vocab, word_vocab=ckpt.word_vocab,
        )
        if args.dedupe_train:
            train_corpus = preprocess(
                load_corpus(args.dedupe_train), config,
                code_vocab=ckpt.code_vocab, word_vocab=ckpt.word_vocab,
            )
            corpus = dedupe_against(corpus, train_corpus.records)
        pairs = []
        for example, record in zip(corpus.examples, corpus.records):
            ids = greedy_decode(example, model, max_len=config.max_comment_length)
            pairs.append((ckpt.word_vocab.decode(ids), record.comment_words))
    else:
        raise ConfigError("eval needs --hyp/--ref files or --input with --checkpoint")
    report = evaluate_corpus(pairs, bleu_smoothing=config.bleu_smoothing)
    _emit_report(report, args.json)
    return 0


def cmd_summarize(args, config: RunConfig) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    model = ckpt.model()
    with open(args.input, "r", encoding="utf-8") as fh:
        methods = parse_program(fh.read())
    for method in methods:
        splits = split_method(method)
        example = SummarizationExample(
            code_ids=ckpt.code_vocab.encode(
                code_token_texts(method, config.max_code_length)
            ),
            split_asts=splits.asts,
            comment_ids=[Vocab.BOS, Vocab.EOS],
        )
        ids = greedy_decode(example, model, max_len=config.max_comment_length)
        print(" ".join(ckpt.word_vocab.decode(ids)))
    return 0


def cmd_dump(args, which: str) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        methods = parse_program(fh.read())
    for method in methods:
        cfg = build_cfg(method)
        if which == "cfg":
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
    p.add_argument("--input", required=True)
    p.add_argument("--output", help="write JSON here instead of stdout")

    p = sub.add_parser("pretrain", help="pre-train split embeddings")
    common(p)
    p.add_argument("--output", default="sep.ckpt", help="checkpoint to write")
    p.add_argument("--log", default="pretrain_loss.csv", help="loss CSV to write")

    p = sub.add_parser("train", help="train the summarizer")
    common(p, checkpoint=True)
    p.add_argument("--from-scratch", action="store_true",
                   help="initialize the tree encoder instead of loading one")
    p.add_argument("--output", default="model.ckpt", help="checkpoint to write")
    p.add_argument("--log", default="train_loss.csv", help="loss CSV to write")

    p = sub.add_parser("eval", help="score hypotheses against references")
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
    common(p, checkpoint=True)

    for name in ("cfg", "dom"):
        p = sub.add_parser(name, help=f"{name} tooling")
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
    if args.command == "split":
        return cmd_split(args)
    if args.command == "pretrain":
        return cmd_pretrain(args, config)
    if args.command == "train":
        return cmd_train(args, config)
    if args.command == "eval":
        return cmd_eval(args, config)
    if args.command == "summarize":
        return cmd_summarize(args, config)
    return cmd_dump(args, args.command)


def main():
    try:
        sys.exit(run())
    except Exception as err:  # uniform nonzero exit with a diagnostic
        print(f"basts: error: {err}", file=sys.stderr)
        sys.exit(1)
