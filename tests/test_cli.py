import gc
import json
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import zlib
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from basts import cli
from basts.autodiff import Adam, Tensor
from basts.cfg import CfgError
from basts.checkpoint import (
    VERSION,
    CheckpointError,
    deserialize,
    load_checkpoint,
    save_checkpoint,
    serialize,
)
from basts.cli import (
    CorpusRecord,
    FormatError,
    RunConfig,
    build_model,
    dedupe_against,
    load_corpus,
    method_key,
    preprocess,
    read_code_tokens,
    run,
)
from basts.summarizer import SPECIAL_TOKENS, TransformerParams, Vocab
from basts.syntax_encoder import ConfigError, SepModel, TreeLstmParams, pretrain
from basts.frontend import (MAX_NESTING, LexError, ParseError, iter_nodes, parse_program,
                            tokenize_comment)
from basts.splitter import split_method
from conftest import (
    DIAMOND_SOURCE,
    IDLE_CONNECTIONS_SOURCE,
    STRAIGHT_LINE_SOURCE,
    nested_ifs,
    nested_parens,
    parse_source,
)
from oracles import code_token_texts_per_token

from minigen import generate_records, write_jsonl
from workloads import MEDIUM_PROFILE, PREP_PROFILE, SMALL_PROFILE, SummarizeSmall


def write_corpus(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def toy_rows():
    return [
        {"id": "m1", "code": "int add(int a, int b) { return a + b; }",
         "comment": "Adds two numbers."},
        {"id": "m2", "code": "void reset(Counter c) { c.set(0); }",
         "comment": "Resets the counter."},
        {"id": "m3",
         "code": "int max(int a, int b) { if (a > b) { return a; } return b; }",
         "comment": "Returns the larger value."},
    ]


class TestLoadCorpus:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_corpus(path) == []

    def test_three_records_in_order(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_corpus(path, toy_rows())
        records = load_corpus(path)
        assert [r.record_id for r in records] == ["m1", "m2", "m3"]

    def test_missing_comment_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "code": "void f() { }"}\n')
        with pytest.raises(FormatError) as err:
            load_corpus(path)
        assert err.value.line == 1

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rows = toy_rows()
        rows[1]["id"] = "m1"
        write_corpus(path, rows)
        with pytest.raises(FormatError) as err:
            load_corpus(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("value", ["5", "null", '"m1"', "[1, 2]"])
    def test_non_object_line_names_line(self, tmp_path, value):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(toy_rows()[0]) + "\n" + value + "\n")
        with pytest.raises(FormatError, match="not a JSON object") as err:
            load_corpus(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("field", ["code", "comment", "id"])
    @pytest.mark.parametrize("value", [None, 7, ["void", "f"]])
    def test_non_string_field_names_line_and_field(self, tmp_path, field, value):
        path = tmp_path / "c.jsonl"
        rows = toy_rows()
        rows[1][field] = value
        write_corpus(path, rows)
        with pytest.raises(FormatError,
                           match=f"^{re.escape(str(path))}: line 2: field '{field}' is not a string$"):
            load_corpus(path)

    def test_number_id_is_rejected_not_renamed(self, tmp_path):
        # read through str(), 3 and "3" were one id, so line 4 was a false
        # duplicate; the first non-string id is the error
        path = tmp_path / "c.jsonl"
        rows = [dict(toy_rows()[0], id=rid) for rid in (None, [1], 3, "3")]
        write_corpus(path, rows)
        message = f"^{re.escape(str(path))}: line 1: field 'id' is not a string$"
        with pytest.raises(FormatError, match=message):
            load_corpus(path)
        write_corpus(path, rows[2:])
        with pytest.raises(FormatError, match=message):
            load_corpus(path)
        write_corpus(path, rows[3:])
        assert [r.record_id for r in load_corpus(path)] == ["3"]

    def test_invalid_utf8_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(
            json.dumps(toy_rows()[0]).encode() + b'\n{"id": "\xff"}\n'
        )
        with pytest.raises(FormatError, match="invalid UTF-8") as err:
            load_corpus(path)
        assert err.value.line == 2

    def test_crlf_lines_and_non_ascii_text(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rows = toy_rows()
        rows[0]["comment"] = "Adds two numbers, café."
        path.write_bytes(b"".join(
            json.dumps(row, ensure_ascii=False).encode() + b"\r\n" for row in rows
        ))
        records = load_corpus(path)
        assert [r.record_id for r in records] == ["m1", "m2", "m3"]
        assert records[0].comment == "Adds two numbers, café."

    def test_missing_file_raises_io(self, tmp_path):
        with pytest.raises(OSError):
            load_corpus(tmp_path / "nope.jsonl")


class TestRunConfig:
    def test_defaults_validate(self):
        config = RunConfig().validate()
        assert config.embedding_size == 64
        assert config.max_code_length == 100
        assert config.max_comment_length == 30

    def test_from_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# toy setup\nembedding_size = 16\nheads = 2\n"
            "learning_rate = 0.01\nfreeze_pretrained = true\n"
            "bleu_smoothing = 0\n"
        )
        config = RunConfig.from_file(path)
        assert config.embedding_size == 16
        assert config.heads == 2
        assert config.learning_rate == 0.01
        assert config.freeze_pretrained is True
        assert config.bleu_smoothing is False
        path.write_text("learning_rate = 1\n")
        config = RunConfig.from_file(path)
        assert config.learning_rate == 1.0 and type(config.learning_rate) is float
        path.write_text("heads = 2\nepochs = 2.5\n")
        with pytest.raises(FormatError, match="bad value for epochs") as err:
            RunConfig.from_file(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_learning_rate(self, tmp_path, value):
        path = tmp_path / "run.cfg"
        path.write_text(f"learning_rate = {value}\n")
        with pytest.raises(ConfigError, match="learning_rate"):
            RunConfig.from_file(path)

    def test_rejects_indivisible_heads(self):
        with pytest.raises(ConfigError, match="^heads must be at least 1 and divide embedding_size 10, "
                                              "got 4$"):
            RunConfig(embedding_size=10, heads=4).validate()

    def test_zero_embedding_size_is_a_config_error(self):
        with pytest.raises(ConfigError, match="^embedding_size must be at least 1, got 0$"):
            RunConfig(embedding_size=0).validate()

    @pytest.mark.parametrize("name", ["encoder_layers", "decoder_layers"])
    def test_negative_layer_count_names_its_value(self, name):
        with pytest.raises(ConfigError, match=f"^{name} must be non-negative, got -1$"):
            RunConfig(**{name: -1}).validate()

    def test_zero_heads_is_a_config_error(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("heads = 0\n")
        with pytest.raises(ConfigError,
                           match="^heads must be at least 1 and divide embedding_size 64, "
                                 "got 0$"):
            RunConfig.from_file(path)

    @pytest.mark.parametrize("command", ["train", "pretrain"])
    def test_negative_seed_is_a_config_error(self, tmp_path, command):
        corpus_path, config_path = _write_toy_setup(tmp_path)
        with pytest.raises(ConfigError, match="^seed must be non-negative, got -1$"):
            run([command, "--config", str(config_path), "--input", str(corpus_path),
                 "--seed", "-1", "--output", str(tmp_path / "out.ckpt")])

    def test_repeated_key_names_its_second_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("heads = 2\n# width\nembedding_size = 16\nheads = 4\n")
        with pytest.raises(FormatError,
                           match=rf"^{re.escape(str(path))}: line 4: repeated config key 'heads'$") as err:
            RunConfig.from_file(path)
        assert err.value.line == 4

    def test_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("emedding_size = 16\n")
        with pytest.raises(FormatError):
            RunConfig.from_file(path)


ALPHA_SOURCE = "int alpha(int a) { return a; }"
BETA_SOURCE = "int beta(int b) { return b; }"


class TestCodeTokenTexts:
    def test_each_method_of_a_file_reads_only_its_own_tokens(self):
        alpha, beta = parse_program(ALPHA_SOURCE + " " + BETA_SOURCE)
        for method, source in ((alpha, ALPHA_SOURCE), (beta, BETA_SOURCE)):
            (alone,) = parse_program(source)
            assert cli.code_token_texts(method, 100) == cli.code_token_texts(alone, 100)
        assert cli.code_token_texts(beta, 100)[:2] == ["int", "beta"]

    def test_cut_at_max_len_mid_identifier(self):
        method = parse_source("void closeIdleConnections() { }")
        assert cli.code_token_texts(method, 3) == ["void", "close", "idle"]
        assert cli.code_token_texts(method, 0) == []
        assert cli.code_token_texts(method, 100) == [
            "void", "close", "idle", "connections", "(", ")", "{", "}"]

    def test_only_identifiers_split_into_subtokens(self):
        method = parse_source('String getHTTPUrl2(int _tmp) { if (_tmp >= 10 && !false) '
                              '{ return "a" + getHTTPUrl2(_tmp - 1.5); } '
                              'while (true) { break; } return x_; }')
        assert cli.code_token_texts(method, 100) == [
            "string", "get", "http", "url", "2", "(", "int", "tmp", ")", "{",
            "if", "(", "tmp", ">=", "<NUM>", "&&", "!", "<BOOL>", ")", "{",
            "return", "<STR>", "+", "get", "http", "url", "2", "(", "tmp", "-", "<NUM>", ")",
            ";", "}", "while", "(", "<BOOL>", ")", "{", "break", ";", "}",
            "return", "x", ";", "}"]
        # an identifier of underscores alone has no subtoken
        method = parse_source("void _() { __ = ___; }")
        assert cli.code_token_texts(method, 4) == ["void", "(", ")", "{"]
        assert cli.code_token_texts(method, 100) == ["void", "(", ")", "{", "=", ";", "}"]

    @pytest.mark.parametrize("max_len", [1, 7, 24, 100, 10_000])
    def test_matches_per_token_oracle_on_generated_methods(self, max_len):
        for label, profile, count in (("prep-large", PREP_PROFILE, 3),
                                      ("pretrain-sep", MEDIUM_PROFILE, 6),
                                      ("summarize-small", SMALL_PROFILE, 12)):
            for seed in (1, 2):
                records = generate_records(label, seed, count, profile)
                for method in parse_program("\n".join(r["code"] for r in records)):
                    assert (cli.code_token_texts(method, max_len)
                            == code_token_texts_per_token(method, max_len))

    def test_matches_per_token_oracle_where_identifiers_have_no_subtokens(self):
        _, method = parse_program("void a() { } int __(int _, int a_b) "
                                  "{ _ = __ + _x__y; if (_ > __) { return _; } return a_b; }")
        for max_len in range(0, 40):
            assert (cli.code_token_texts(method, max_len)
                    == code_token_texts_per_token(method, max_len))

    def test_summarize_feeds_each_method_its_own_code(self, tmp_path, monkeypatch, capsys):
        code_vocab = Vocab.build([cli.code_token_texts(m, 100)
                                  for m in parse_program(ALPHA_SOURCE + BETA_SOURCE)])
        word_vocab = Vocab.build([["x"]])
        tree = TreeLstmParams.init({"<UNK>": 0}, 8, np.random.default_rng(3))
        transformer = TransformerParams.init(len(code_vocab), len(word_vocab), 8, 2,
                                             1, 1, np.random.default_rng(4))
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, tree=tree, transformer=transformer,
                        code_vocab=code_vocab, word_vocab=word_vocab)
        fed = []
        monkeypatch.setattr(cli, "greedy_decode",
                            lambda example, model, max_len: fed.append(example.code_ids) or [])
        for name, text in (("both", ALPHA_SOURCE + "\n" + BETA_SOURCE), ("beta", BETA_SOURCE)):
            src = tmp_path / f"{name}.mini"
            src.write_text(text)
            assert run(["summarize", "--input", str(src), "--checkpoint", str(ckpt)]) == 0
        alpha_ids, beta_ids, beta_alone_ids = fed
        assert beta_ids == beta_alone_ids
        assert alpha_ids != beta_ids
        assert capsys.readouterr().out == "\n" * 3


class TestPreprocess:
    def toy_config(self):
        return RunConfig(embedding_size=16, heads=2, encoder_layers=1,
                         decoder_layers=1, epochs=2)

    def test_straight_line_gives_one_split(self):
        records = [CorpusRecord("r", "int f(int a) { return a; }", "identity")]
        corpus = preprocess(records, self.toy_config())
        (example,) = corpus.examples
        assert len(example.split_asts) == 1
        assert example.comment_ids[0] == Vocab.BOS
        assert example.comment_ids[-1] == Vocab.EOS

    def test_idle_method_gives_six_split_asts(self):
        records = [CorpusRecord("idle", IDLE_CONNECTIONS_SOURCE, "closes idle connections")]
        corpus = preprocess(records, self.toy_config())
        assert len(corpus.examples[0].split_asts) == 6

    def test_unparseable_record_dropped_and_counted(self):
        records = [
            CorpusRecord("bad", "int f( { return; }", "broken"),
            CorpusRecord("ok", "void g() { a = 1; }", "fine"),
        ]
        corpus = preprocess(records, self.toy_config())
        assert len(corpus.examples) == 1
        assert len(corpus.dropped) == 1
        assert corpus.dropped[0][0] == "bad"

    def test_continue_as_whole_for_body_is_kept(self):
        # The update is reachable only through the continue.
        source = "void f(int n) { for (int i = 0; i < n; i = i + 1) { continue; } }"
        records = [CorpusRecord("r", source, "skips"),
                   CorpusRecord("ok", "void g() { a = 1; }", "fine")]
        corpus = preprocess(records, self.toy_config())
        assert corpus.dropped == []
        assert [r.record_id for r in corpus.records] == ["r", "ok"]

    @pytest.mark.parametrize("source", [
        nested_ifs(MAX_NESTING), nested_parens(MAX_NESTING - 1),
    ], ids=["ifs", "parens"])
    def test_nesting_one_past_the_bound_dropped_as_parse_error(self, source):
        records = [CorpusRecord("deep", source, "too deep"),
                   CorpusRecord("ok", "void g() { a = 1; }", "fine")]
        corpus = preprocess(records, self.toy_config())
        assert [r.record_id for r in corpus.records] == ["ok"]
        ((record_id, reason),) = corpus.dropped
        assert record_id == "deep"
        assert reason.startswith("ParseError: ")
        assert f"nesting at most {MAX_NESTING} deep" in reason

    @pytest.mark.parametrize("source", [
        nested_ifs(MAX_NESTING - 1), nested_parens(MAX_NESTING - 2),
    ], ids=["ifs", "parens"])
    def test_nesting_at_the_bound_splits(self, source, tmp_path):
        assert split_method(parse_source(source)).asts
        corpus = preprocess([CorpusRecord("deep", source, "deep")], self.toy_config())
        assert not corpus.dropped
        src = tmp_path / "deep.mini"
        src.write_text(source)
        out = tmp_path / "splits.json"
        assert run(["split", "--input", str(src), "--output", str(out)]) == 0
        assert json.loads(out.read_text())["methods"][0]["splits"]

    def test_program_fault_is_not_a_dropped_record(self, monkeypatch):
        def broken_split(method):
            raise KeyError("a bug, not bad input")

        monkeypatch.setattr(cli, "split_method", broken_split)
        with pytest.raises(KeyError):
            preprocess([CorpusRecord("r", "void g() { a = 1; }", "fine")],
                       self.toy_config())

    def test_truncation_limits(self):
        long_code = "void f() { " + " ".join(f"x{i} = {i};" for i in range(200)) + " }"
        long_comment = " ".join(f"w{i}" for i in range(60))
        config = self.toy_config()
        corpus = preprocess([CorpusRecord("r", long_code, long_comment)], config)
        assert len(corpus.examples[0].code_ids) <= config.max_code_length
        assert len(corpus.examples[0].comment_ids) <= config.max_comment_length + 2

    def test_vocab_leakage_guard(self):
        config = self.toy_config()
        train = preprocess(
            [CorpusRecord("t", "void f() { alpha = 1; }", "does alpha things")],
            config,
        )
        before = list(train.code_vocab.id_to_token)
        test_corpus = preprocess(
            [CorpusRecord("e", "void g() { zeta = 2; }", "does zeta things")],
            config,
            code_vocab=train.code_vocab,
            word_vocab=train.word_vocab,
        )
        assert test_corpus.code_vocab.id_to_token == before
        assert "zeta" not in test_corpus.code_vocab.token_to_id
        unk_positions = [
            i for i, t in enumerate(test_corpus.examples[0].code_ids)
            if t == Vocab.UNK
        ]
        assert unk_positions, "unseen identifiers map to UNK"

    def test_empty_surviving_corpus_fails(self):
        with pytest.raises(ConfigError):
            preprocess([CorpusRecord("bad", "???", "x")], self.toy_config())

    def test_dedupe_against_training(self):
        config = self.toy_config()
        shared = "int add(int a, int b) { return a + b; }"
        shared2 = "void reset(Counter c) { c.set(0); }"
        train_records = [CorpusRecord("t", shared, "adds"), CorpusRecord("t2", shared2, "resets")]
        train = preprocess(train_records, config)
        test_corpus = preprocess(
            [
                CorpusRecord("dup", shared, "adds again"),
                CorpusRecord("new", "int sub(int a, int b) { return a - b; }",
                             "subtracts"),
                CorpusRecord("dup2", shared2, "resets again"),
                CorpusRecord("bad", "int f( { return; }", "broken"),
                CorpusRecord("new2", "int mul(int a, int b) { return a * b; }",
                             "multiplies"),
            ],
            config,
            code_vocab=train.code_vocab,
            word_vocab=train.word_vocab,
        )
        train_codes = read_code_tokens(train_records)
        assert train_codes == {method_key(r.splits.method) for r in train.records}
        deduped = dedupe_against(test_corpus, train_codes)
        assert [r.record_id for r in deduped.records] == ["new", "new2"]
        assert len(deduped.examples) == 2
        assert [rid for rid, _ in deduped.dropped] == ["bad", "dup", "dup2"]
        assert deduped.dropped[1:] == [
            ("dup", "duplicate of a training record"),
            ("dup2", "duplicate of a training record"),
        ]


def fixture_records_with_rejects():
    """The fixture methods, then one record each stage rejects."""
    sources = [IDLE_CONNECTIONS_SOURCE, DIAMOND_SOURCE, STRAIGHT_LINE_SOURCE]
    records = [CorpusRecord(f"ok{i}", src, "does things") for i, src in enumerate(sources)]
    return records + [
        CorpusRecord("lex", "void f() { x = @; }", "lex error"),
        CorpusRecord("parse", "int f( { return; }", "parse error"),
        CorpusRecord("cfg", "void f() { break; }", "cfg error"),
    ]


@pytest.fixture(params=[True, False], ids=["caller-collects", "caller-paused"])
def caller_gc(request):
    """Set the collector as the caller has it, and put it back afterwards."""
    was_enabled = gc.isenabled()
    gc.enable() if request.param else gc.disable()
    yield request.param
    gc.enable() if was_enabled else gc.disable()


class TestPreprocessPausesCollector:
    config = RunConfig(embedding_size=16, heads=2, encoder_layers=1, decoder_layers=1)

    def test_state_restored_after_return(self, caller_gc):
        preprocess(fixture_records_with_rejects(), self.config)
        assert gc.isenabled() is caller_gc

    def test_state_restored_when_every_record_is_dropped(self, caller_gc):
        with pytest.raises(ConfigError):
            preprocess(fixture_records_with_rejects()[3:], self.config)
        assert gc.isenabled() is caller_gc

    def test_state_restored_when_a_fault_propagates(self, caller_gc, monkeypatch):
        def broken_split(method):
            raise RuntimeError("a bug, not bad input")

        monkeypatch.setattr(cli, "split_method", broken_split)
        with pytest.raises(RuntimeError):
            preprocess(fixture_records_with_rejects(), self.config)
        assert gc.isenabled() is caller_gc

    def test_no_collection_starts_in_the_record_loop(self, monkeypatch):
        events = []
        tokenize, split = cli.tokenize, cli.split_method

        def first_stage(source):
            events.append("record")
            return tokenize(source)

        def last_stage(method):
            result = split(method)
            events.append("split")
            return result

        def on_gc(phase, info):
            if phase == "start":
                events.append("collection")

        monkeypatch.setattr(cli, "tokenize", first_stage)
        monkeypatch.setattr(cli, "split_method", last_stage)
        was_enabled = gc.isenabled()
        gc.enable()
        gc.callbacks.append(on_gc)
        try:
            preprocess(fixture_records_with_rejects() * 4, self.config)
        finally:
            gc.callbacks.remove(on_gc)
            gc.enable() if was_enabled else gc.disable()
        stages = [i for i, event in enumerate(events) if event != "collection"]
        loop = events[stages[0] : stages[-1] + 1]
        assert loop.count("record") == 24 and loop.count("split") == 12
        assert "collection" not in loop

    @staticmethod
    def kept_objects(corpus):
        """The records, tokens, statements and AST nodes the record loop kept."""
        out = []
        for r in corpus.records:
            method = r.splits.method
            out += [r, *method.tokens, *method.statements.values()]
            for split_ast in r.splits.asts:
                out += iter_nodes(split_ast.root)
        return out

    @contextmanager
    def collector_on(self):
        was_enabled = gc.isenabled()
        gc.enable()
        try:
            yield
        finally:
            gc.enable() if was_enabled else gc.disable()

    def test_kept_objects_are_tenured(self):
        assert gc.get_freeze_count() == 0
        with self.collector_on():
            corpus = preprocess(fixture_records_with_rejects(), self.config)
            young = {id(obj) for g in (0, 1) for obj in gc.get_objects(generation=g)}
        kept = self.kept_objects(corpus)
        assert len(kept) > 200
        assert not [obj for obj in kept if id(obj) in young]

    def test_objects_the_caller_froze_stay_frozen(self):
        frozen = ["x"]
        gc.freeze()
        try:
            count = gc.get_freeze_count()
            with self.collector_on():
                preprocess(fixture_records_with_rejects(), self.config)
            assert gc.get_freeze_count() == count
            assert id(frozen) not in {id(obj) for obj in gc.get_objects()}
        finally:
            gc.unfreeze()

    def test_leaves_no_reference_cycles(self):
        gc.collect()
        gc.disable()
        try:
            corpus = preprocess(fixture_records_with_rejects(), self.config)
            assert [r.record_id for r in corpus.records] == ["ok0", "ok1", "ok2"]
            assert [reason.split(":")[0] for _, reason in corpus.dropped] == [
                "LexError", "ParseError", "CfgError",
            ]
            del corpus
            assert gc.collect() == 0
        finally:
            gc.enable()


SPECIALS = list(SPECIAL_TOKENS)


def summarizer_checkpoint(code_tokens, word_tokens, tree_width=4, width=4) -> bytes:
    """A tree and transformer checkpoint whose vocabularies hold the tokens as given."""
    rng = np.random.default_rng(0)
    tree = TreeLstmParams.init({"<UNK>": 0, "A": 1}, tree_width, rng)
    transformer = TransformerParams.init(len(code_tokens), len(word_tokens), width, 2,
                                         1, 1, rng)
    return serialize(tree=tree, transformer=transformer,
                     code_vocab=Vocab({}, list(code_tokens)),
                     word_vocab=Vocab({}, list(word_tokens)))


def _small_checkpoints() -> dict[str, bytes]:
    tree = TreeLstmParams.init({"<UNK>": 0, "A": 1}, 4, np.random.default_rng(0))
    return {
        "tree": serialize(tree=tree),
        "tree+sep": serialize(tree=tree, sep=SepModel.init(tree, np.random.default_rng(1))),
        "summarizer": summarizer_checkpoint(SPECIALS + ["a"], SPECIALS + ["x", "y"]),
    }


SMALL_CHECKPOINTS = _small_checkpoints()


@contextmanager
def allocation_bound(raw: bytes, factor: float = 4):
    """The block's tracemalloc peak must stay within factor * len(raw) + 256 KiB."""
    tracemalloc.start()
    try:
        yield
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak <= factor * len(raw) + 256 * 1024, f"peak {peak} for {len(raw)} bytes"


class TestCheckpointFormat:
    def test_tree_roundtrip_bytes_identical(self):
        params = TreeLstmParams.init(
            {"<UNK>": 0, "A": 1}, 8, np.random.default_rng(3)
        )
        sep = SepModel.init(params, np.random.default_rng(4))
        raw = serialize(tree=params, sep=sep)
        restored = deserialize(raw)
        assert restored.tree.vocab == params.vocab
        for (name, a), (_, b) in zip(
            restored.tree.named_params(), params.named_params()
        ):
            assert np.array_equal(a.data, b.data), name
        assert np.array_equal(restored.sep.score_w.data, sep.score_w.data)
        assert serialize(tree=restored.tree, sep=restored.sep) == raw

    def test_summarizer_roundtrip_bytes_identical(self):
        tree = TreeLstmParams.init({"<UNK>": 0, "A": 1}, 8, np.random.default_rng(3))
        code_vocab = Vocab.build([["a", "b", "c"]])
        word_vocab = Vocab.build([["x", "y", "z", "w"]])
        transformer = TransformerParams.init(len(code_vocab), len(word_vocab), 8, 2,
                                             2, 1, np.random.default_rng(4))
        raw = serialize(tree=tree, transformer=transformer,
                        code_vocab=code_vocab, word_vocab=word_vocab)
        restored = deserialize(raw)
        assert restored.sep is None
        assert restored.code_vocab == code_vocab
        assert restored.word_vocab == word_vocab
        assert serialize(
            tree=restored.tree, transformer=restored.transformer,
            code_vocab=restored.code_vocab, word_vocab=restored.word_vocab,
        ) == raw

    def test_checksum_detects_corruption(self):
        params = TreeLstmParams.init({"<UNK>": 0}, 4, np.random.default_rng(0))
        raw = bytearray(serialize(tree=params))
        raw[30] ^= 0xFF
        with pytest.raises(CheckpointError):
            deserialize(bytes(raw))

    @staticmethod
    def _tree_with_blobs(edit):
        """Serialize a tree section whose blob list has been passed through `edit`."""
        params = TreeLstmParams.init({"<UNK>": 0}, 4, np.random.default_rng(0))
        blobs = edit(params.named_params())
        params.named_params = lambda: blobs
        return serialize(tree=params)

    def test_missing_blob_is_named(self):
        raw = self._tree_with_blobs(lambda blobs: blobs[:-1])
        with pytest.raises(CheckpointError, match="missing blob 'virtual'"):
            deserialize(raw)

    def test_unexpected_blob_is_named(self):
        raw = self._tree_with_blobs(
            lambda blobs: blobs + [("bogus", Tensor(np.zeros(4)))]
        )
        # a blob after the tree's is read as the pair-scoring head's first
        with pytest.raises(CheckpointError, match=r"^blob 'bogus' found where 'score_w' belongs$"):
            deserialize(raw)

    @pytest.mark.parametrize("kind, first", [("tree+sep", b"wu"),
                                             ("summarizer", b"code_embedding")])
    def test_blob_after_the_last_slot_is_unexpected(self, kind, first):
        """The last section's blob count is raised by one and a blob appended."""
        raw = SMALL_CHECKPOINTS[kind]
        at = raw.index(first) - 8  # the count precedes the first blob's name length
        count = struct.unpack_from("<I", raw, at)[0]
        bogus = struct.pack("<I", 5) + b"bogus" + struct.pack("<BQ", 1, 0)
        bad = raw[:at] + struct.pack("<I", count + 1) + raw[at + 4:-4] + bogus + raw[-4:]
        with pytest.raises(CheckpointError, match=r"^unexpected blob 'bogus'$"):
            deserialize(self._resealed(bad))

    def test_blob_shape_mismatch_is_named(self):
        def shrink(blobs):
            return [(n, Tensor(np.zeros((3, 3))) if n == "wu" else t) for n, t in blobs]

        raw = self._tree_with_blobs(shrink)
        with pytest.raises(CheckpointError, match="blob 'wu' has shape"):
            deserialize(raw)

    @staticmethod
    def _resealed(raw: bytes) -> bytes:
        """`raw` with its checksum recomputed, so only the payload's content is wrong."""
        return raw[:-4] + struct.pack("<I", zlib.crc32(raw[8:-4]))

    @pytest.mark.parametrize("old, new", [(b"ZQ", b"\xffQ"), (b"score_w", b"\xc3core_w")],
                             ids=["vocab", "blob-name"])
    def test_non_utf8_string_is_a_checkpoint_error(self, old, new):
        tree = TreeLstmParams.init({"<UNK>": 0, "ZQ": 1}, 4, np.random.default_rng(0))
        raw = serialize(tree=tree, sep=SepModel.init(tree, np.random.default_rng(1)))
        assert raw.count(old) == 1
        with pytest.raises(CheckpointError, match="is not UTF-8"):
            deserialize(self._resealed(raw.replace(old, new)))

    @pytest.mark.parametrize("shape, message", [
        # shapes numpy cannot hold: refused by the statement before any arithmetic
        (struct.pack("<BQQ", 2, 2**32, 2**32),
         r"^blob 'embedding' has shape \(4294967296, 4294967296\), expected \(1, 4\)$"),
        (struct.pack("<BQQ", 2, 0, 2**63),
         r"^blob 'embedding' has shape \(0, 9223372036854775808\), expected \(1, 4\)$"),
        (struct.pack("<B", 65) + bytes(65 * 8),
         r"^blob 'embedding' has shape \(0(, 0){64}\), expected \(1, 4\)$"),
    ], ids=["dims-past-int64", "zero-and-huge-dim", "rank-65"])
    def test_unusable_blob_shape_is_a_checkpoint_error(self, shape, message):
        params = TreeLstmParams.init({"<UNK>": 0}, 4, np.random.default_rng(0))
        raw = serialize(tree=params)
        rank = raw.index(b"embedding") + len(b"embedding")
        bad = raw[:rank] + shape + raw[rank + 17:]  # the original rank 2 and two dims
        with pytest.raises(CheckpointError, match=message):
            deserialize(self._resealed(bad))

    @staticmethod
    def _one_section(section: str) -> bytes:
        """A checkpoint of one section: a tree of width 4, or a transformer of
        width 4 with 2 heads, 2 encoder and 1 decoder layers."""
        if section == "tree":
            return serialize(tree=TreeLstmParams.init({"<UNK>": 0}, 4, np.random.default_rng(0)))
        code_vocab = Vocab.build([["a", "b"]])
        word_vocab = Vocab.build([["x", "y"]])
        transformer = TransformerParams.init(len(code_vocab), len(word_vocab), 4, 2, 2, 1,
                                             np.random.default_rng(0))
        return serialize(transformer=transformer, code_vocab=code_vocab,
                         word_vocab=word_vocab)

    @pytest.mark.parametrize("section, field, value, message", [
        ("tree", 0, 7_864_324,
         r"^blob 'wu' has shape \(4, 2, 4, 4\), expected \(4, 2, 7864324, 7864324\)$"),
        ("transformer", 0, 6,
         r"^blob 'code_embedding' has shape \((\d+), 4\), expected \(\1, 6\)$"),
        ("transformer", 1, 3, r"^heads must be at least 1 and divide size 4, got 3$"),
        ("transformer", 1, 0, r"^heads must be at least 1 and divide size 4, got 0$"),
        # the header's third encoder layer, and its one decoder layer too many
        ("transformer", 2, 3, r"^blob 'dec0\.self_attn\.wq' found where 'enc2\.attn\.wq' belongs$"),
        ("transformer", 3, 0, r"^blob 'dec0\.self_attn\.wq' found where 'out_w' belongs$"),
    ], ids=["tree-size", "size", "heads", "zero-heads", "n-enc", "n-dec"])
    def test_header_disagreeing_with_blobs_is_a_checkpoint_error(
            self, section, field, value, message):
        raw = self._one_section(section)
        at = 16 + 4 * field  # the section's u32s follow the magic, version and flags
        bad = raw[:at] + struct.pack("<I", value) + raw[at + 4:]
        with pytest.raises(CheckpointError, match=message):
            deserialize(self._resealed(bad))

    @pytest.mark.parametrize("section", ["tree", "transformer"])
    def test_zero_width_is_a_checkpoint_error(self, section):
        # self-consistent: every dimension of the width (4) or hidden size (8) is 0
        ckpt = deserialize(self._one_section(section))
        params = ckpt.tree or ckpt.transformer
        for _, tensor in params.named_params():
            tensor.data = np.zeros([0 if d in (4, 8) else d for d in tensor.shape])
        params.size = 0
        raw = serialize(tree=ckpt.tree, transformer=ckpt.transformer,
                        code_vocab=ckpt.code_vocab, word_vocab=ckpt.word_vocab)
        with pytest.raises(CheckpointError, match=r"^size must be at least 1, got 0$"):
            deserialize(raw)

    def test_tree_and_transformer_widths_must_agree(self):
        raw = summarizer_checkpoint(SPECIALS + ["a"], SPECIALS + ["x"], tree_width=4, width=8)
        with pytest.raises(CheckpointError, match=r"^tree width 4 differs from transformer width 8$"):
            deserialize(raw)

    @pytest.mark.parametrize("code, word, message", [
        (SPECIALS + ["a", "a"], SPECIALS + ["x"], r"^code vocabulary repeats 'a' \(ids 7 and 8\)$"),
        (SPECIALS + ["a"], SPECIALS + ["x", "y", "x"],
         r"^word vocabulary repeats 'x' \(ids 7 and 9\)$"),
        (SPECIALS + ["a", "<UNK>"], SPECIALS, r"^code vocabulary repeats '<UNK>' \(ids 3 and 8\)$"),
        (SPECIALS + ["a"], ["<PAD>"], r"^word vocabulary lacks '<BOS>' at id 1$"),
        (["<PAD>", "<EOS>", "<BOS>"] + SPECIALS[3:], SPECIALS,
         r"^code vocabulary lacks '<BOS>' at id 1$"),
    ], ids=["code-repeat", "word-repeat", "special-repeat", "one-token-word", "specials-order"])
    def test_token_vocabulary_must_be_specials_then_distinct_tokens(self, code, word, message):
        with pytest.raises(CheckpointError, match=message):
            deserialize(summarizer_checkpoint(code, word))

    def test_type_value_vocabulary_must_not_repeat_a_label(self):
        tree = TreeLstmParams.init({"<UNK>": 0, "AA": 1, "BB": 2}, 4, np.random.default_rng(0))
        raw = serialize(tree=tree)
        assert raw.count(b"BB") == 1
        with pytest.raises(CheckpointError,
                           match=r"^type_value vocabulary repeats 'AA' \(ids 1 and 2\)$"):
            deserialize(self._resealed(raw.replace(b"BB", b"AA")))

    @pytest.mark.parametrize("vocab", [{}, {"BasicType_int": 0, "<UNK>": 1}],
                             ids=["empty", "unk-not-first"])
    def test_type_value_vocabulary_must_start_with_unk(self, vocab):
        # unknown labels take row 0; without it the fold has no row to give them
        raw = serialize(tree=TreeLstmParams.init(vocab, 8, np.random.default_rng(0)))
        with pytest.raises(CheckpointError,
                           match=r"^type_value vocabulary lacks '<UNK>' at id 0$"):
            deserialize(raw)

    def _wide_tree_header(self) -> bytes:
        """A tree checkpoint whose header says width 1500; its first blob,
        `wu`, and every other blob have width 4."""
        raw = serialize(tree=TreeLstmParams.init({"<UNK>": 0}, 4, np.random.default_rng(0)))
        return self._resealed(raw[:16] + struct.pack("<I", 1500) + raw[20:])

    @pytest.mark.parametrize("case, message", [
        ("wide-tree",
         r"^blob 'wu' has shape \(4, 2, 4, 4\), expected \(4, 2, 1500, 1500\)$"),
        ("wide-transformer",
         r"^blob 'code_embedding' has shape \(9, 4\), expected \(9, 1500\)$"),
        ("many-enc-layers",
         r"^header has 4294967295 enc and 1 dec layers, more than its \d+ blobs$"),
    ], ids=["wide-tree", "wide-transformer", "many-enc-layers"])
    def test_header_geometry_is_checked_before_any_allocation(self, case, message):
        if case == "wide-tree":
            raw = self._wide_tree_header()
        else:
            field, value = (0, 1500) if case == "wide-transformer" else (2, 2**32 - 1)
            raw = self._one_section("transformer")
            at = 16 + 4 * field
            raw = self._resealed(raw[:at] + struct.pack("<I", value) + raw[at + 4:])
        with allocation_bound(raw), pytest.raises(CheckpointError, match=message):
            deserialize(raw)

    @pytest.mark.parametrize("width", [4, 16, 64])
    def test_valid_checkpoint_loads_within_allocation_bound(self, width):
        raw = summarizer_checkpoint(SPECIALS + ["a", "b"], SPECIALS + ["x", "y"],
                                    tree_width=width, width=width)
        with allocation_bound(raw):
            deserialize(raw)

    def test_valid_summarizer_loads_within_its_parameters(self):
        """Only the parameter arrays, about the file's size, are allocated."""
        raw = summarizer_checkpoint(SPECIALS + [f"c{i}" for i in range(400)],
                                    SPECIALS + [f"w{i}" for i in range(400)],
                                    tree_width=64, width=64)
        with allocation_bound(raw, factor=1.25):
            deserialize(raw)

    def test_save_holds_one_copy_of_the_checkpoint(self, tmp_path):
        """The bytes `serialize` builds are written as they are, not copied first."""
        raw = summarizer_checkpoint(SPECIALS + [f"c{i}" for i in range(400)],
                                    SPECIALS + [f"w{i}" for i in range(400)],
                                    tree_width=64, width=64)
        ckpt = deserialize(raw)
        path = tmp_path / "model.ckpt"
        with allocation_bound(raw, factor=1.25):
            save_checkpoint(path, tree=ckpt.tree, transformer=ckpt.transformer,
                            code_vocab=ckpt.code_vocab, word_vocab=ckpt.word_vocab)
        assert path.read_bytes() == raw

    def test_many_tiny_blobs_fail_within_allocation_bound(self):
        """100,000 blobs, each an empty name of rank 1 and dim 0 (13 bytes)."""
        raw = SMALL_CHECKPOINTS["tree"]
        at = raw.index(b"wu") - 8  # the blob count, before the first blob
        blobs = struct.pack("<IBQ", 0, 1, 0) * 100_000
        bad = self._resealed(raw[:at] + struct.pack("<I", 100_000) + blobs + raw[-4:])
        with allocation_bound(bad), pytest.raises(
                CheckpointError, match=r"^blob '' found where 'wu' belongs$"):
            deserialize(bad)

    @given(kind=st.sampled_from(sorted(SMALL_CHECKPOINTS)), data=st.data())
    def test_single_byte_change_loads_or_raises_checkpoint_error(self, kind, data):
        raw = SMALL_CHECKPOINTS[kind]
        at = data.draw(st.integers(8, len(raw) - 5), label="offset")
        value = (raw[at] + data.draw(st.integers(1, 255), label="delta")) % 256
        bad = self._resealed(raw[:at] + bytes([value]) + raw[at + 1:])
        with allocation_bound(bad):
            try:
                deserialize(bad)
            except CheckpointError:
                pass

    def test_loaded_parameters_own_writable_data_and_train(self):
        raw = SMALL_CHECKPOINTS["summarizer"]
        params = deserialize(raw).model().all_params()
        file_bytes = np.frombuffer(raw, dtype=np.uint8)
        for p in params:
            assert p.data.dtype == np.float64 and p.requires_grad
            assert p.data.flags.writeable and p.data.flags.owndata
            assert not np.shares_memory(p.data, file_bytes)
            p.grad = np.ones_like(p.data)
        before = [p.data.copy() for p in params]
        Adam(params, lr=0.1).step()
        assert all(not np.array_equal(old, p.data) for old, p in zip(before, params))

    def test_bytes_after_last_section_rejected(self):
        params = TreeLstmParams.init({"<UNK>": 0}, 4, np.random.default_rng(0))
        raw = serialize(tree=params)
        padded = self._resealed(raw[:-4] + b"\x00" + raw[-4:])
        with pytest.raises(CheckpointError, match=r"^extra bytes after the last section \(1\)$"):
            deserialize(padded)

    @pytest.mark.parametrize("section", ["tree", "transformer"])
    @pytest.mark.parametrize("old", [1, 2])
    def test_older_versions_are_refused(self, section, old):
        # version 2 dropped the transformer section's fuse layer, and version
        # 3 packed the tree section's gates, so no older file of either loads
        raw = self._one_section(section)
        assert struct.unpack("<I", raw[8:12]) == (VERSION,) == (3,)
        bad = raw[:8] + struct.pack("<I", old) + raw[12:]
        with pytest.raises(CheckpointError, match=f"^unsupported checkpoint version {old}$"):
            deserialize(self._resealed(bad))

    def test_unknown_flag_bits_rejected(self):
        params = TreeLstmParams.init({"<UNK>": 0}, 4, np.random.default_rng(0))
        raw = bytearray(serialize(tree=params))
        raw[12] |= 0x04  # flags follow the 8-byte magic and the u32 version
        payload = bytes(raw[8:-4])
        raw[-4:] = struct.pack("<I", zlib.crc32(payload))
        with pytest.raises(CheckpointError, match="unknown flag bits 0x4"):
            deserialize(bytes(raw))

    @pytest.mark.parametrize("act, message", [
        (lambda: deserialize(b"NOTBASTS" + SMALL_CHECKPOINTS["tree"][8:]),
         "not a checkpoint file (bad magic)"),
        (lambda: deserialize(b""), "not a checkpoint file (bad magic)"),
        (lambda: serialize(transformer=deserialize(SMALL_CHECKPOINTS["summarizer"]).transformer,
                           code_vocab=Vocab({}, SPECIALS + ["a"])),
         "transformer section needs both vocabularies"),
        (lambda: deserialize(SMALL_CHECKPOINTS["tree+sep"]).model(),
         "checkpoint does not hold a full summarizer"),
        (lambda: deserialize(serialize(
            transformer=deserialize(SMALL_CHECKPOINTS["summarizer"]).transformer,
            code_vocab=Vocab({}, SPECIALS + ["a"]),
            word_vocab=Vocab({}, SPECIALS + ["x", "y"]))).model(),
         "checkpoint does not hold a full summarizer"),
    ], ids=["bad magic", "empty file", "transformer without a vocabulary",
            "model of a tree checkpoint", "model of a transformer checkpoint"])
    def test_exact_checkpoint_error(self, act, message):
        with pytest.raises(CheckpointError) as err:
            act()
        assert str(err.value) == message


class TestBuildModel:
    def test_matches_the_bench_fresh_model_blob_for_blob(self, tmp_path):
        # summarize-small builds its model with its own copy of the formula
        workload = SummarizeSmall()
        paths = {"checkpoint": tmp_path / "model.ckpt"}
        for stem, records in workload.inputs(3).items():
            paths[stem] = tmp_path / f"{stem}.jsonl"
            write_jsonl(paths[stem], records)
        workload.setup(paths, 3)
        built, bench = build_model(workload.train, workload.config), workload.fresh_model()
        assert built.tree.vocab == bench.tree.vocab
        assert [n for n, _ in built.named_params()] == [n for n, _ in bench.named_params()]
        for (name, a), (_, b) in zip(built.named_params(), bench.named_params()):
            assert np.array_equal(a.data, b.data), name

    def test_keeps_a_given_tree(self):
        config = RunConfig(embedding_size=8, heads=2, seed=4)
        corpus = preprocess([CorpusRecord(r["id"], r["code"], r["comment"])
                             for r in toy_rows()], config)
        tree = TreeLstmParams.init({"<UNK>": 0}, 8, np.random.default_rng(0))
        fresh, given_tree = build_model(corpus, config), build_model(corpus, config, tree)
        assert given_tree.tree is tree
        for (name, a), (_, b) in zip(fresh.transformer.named_params(),
                                     given_tree.transformer.named_params()):
            assert np.array_equal(a.data, b.data), name


def _write_toy_setup(tmp_path, epochs=3):
    corpus_path = tmp_path / "train.jsonl"
    write_corpus(corpus_path, toy_rows())
    config_path = tmp_path / "toy.cfg"
    config_path.write_text(
        "embedding_size = 16\nheads = 2\nencoder_layers = 1\n"
        f"decoder_layers = 1\nbatch_size = 4\nepochs = {epochs}\n"
        "learning_rate = 0.003\n"
    )
    return corpus_path, config_path


class TestCliCommands:
    def test_split_reports_six_splits_and_five_edges(self, tmp_path, capsys):
        src = tmp_path / "idle.mini"
        src.write_text(IDLE_CONNECTIONS_SOURCE)
        assert run(["split", "--input", str(src)]) == 0
        payload = json.loads(capsys.readouterr().out)
        (method,) = payload["methods"]
        assert method["method"] == "closeIdleConnections"
        assert len(method["splits"]) == 6
        assert len(method["edges"]) == 5
        assert method["splits"][0]["code"].startswith("void closeIdleConnections")
        assert method["splits"][0]["ast"]["type"] == "MethodDeclaration"

    def test_cfg_and_dom_dump(self, tmp_path, capsys):
        src = tmp_path / "m.mini"
        src.write_text("void f() { if (c) { a = 1; } b = 2; }")
        assert run(["cfg", "dump", "--input", str(src)]) == 0
        assert "digraph cfg" in capsys.readouterr().out
        assert run(["dom", "dump", "--input", str(src)]) == 0
        assert "digraph domtree" in capsys.readouterr().out

    def test_eval_identity_files_score_100(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        text = "closes idle connections\nreturns the larger value\n"
        hyp.write_text(text)
        ref.write_text(text)
        json_path = tmp_path / "report.json"
        assert run([
            "eval", "--hyp", str(hyp), "--ref", str(ref), "--json", str(json_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "S-BLEU    100.00" in out
        report = json.loads(json_path.read_text())
        for key in ("s_bleu", "c_bleu", "rouge1_f", "rouge2_f", "rougeL_f"):
            assert report[key] == 100.0

    def test_pretrain_train_summarize_pipeline(self, tmp_path, capsys):
        corpus_path, config_path = _write_toy_setup(tmp_path)
        sep_path = tmp_path / "sep.ckpt"
        model_path = tmp_path / "model.ckpt"
        assert run([
            "pretrain", "--config", str(config_path), "--input", str(corpus_path),
            "--output", str(sep_path), "--log", str(tmp_path / "p.csv"),
        ]) == 0
        assert sep_path.exists()
        assert run([
            "train", "--config", str(config_path), "--input", str(corpus_path),
            "--checkpoint", str(sep_path), "--output", str(model_path),
            "--log", str(tmp_path / "t.csv"),
        ]) == 0
        ckpt = load_checkpoint(model_path)
        assert ckpt.tree is not None and ckpt.transformer is not None
        capsys.readouterr()

        src = tmp_path / "one.mini"
        src.write_text("int add(int a, int b) { return a + b; }")
        assert run([
            "summarize", "--config", str(config_path), "--input", str(src),
            "--checkpoint", str(model_path),
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1  # one output line per method, possibly empty

    def test_pretrain_log_writes_each_epochs_accuracy_as_a_float(self, tmp_path, capsys,
                                                                  monkeypatch):
        corpus_path, config_path = _write_toy_setup(tmp_path)
        histories = []

        def spied_pretrain(*args):
            model, history = pretrain(*args)
            histories.append(history)
            return model, history

        monkeypatch.setattr(cli, "pretrain", spied_pretrain)
        log = tmp_path / "p.csv"
        assert run(["pretrain", "--config", str(config_path), "--input", str(corpus_path),
                    "--output", str(tmp_path / "sep.ckpt"), "--log", str(log)]) == 0
        capsys.readouterr()
        header, *rows = log.read_text().splitlines()
        assert header == "epoch,loss,pair_accuracy"
        (history,) = histories
        assert len(rows) == len(history) == 3
        for row, stats in zip(rows, history):
            accuracy = float(row.split(",")[2])
            assert accuracy == stats.accuracy and 0.0 <= accuracy <= 1.0

    def test_freeze_pretrained_trains_the_transformer_alone(self, tmp_path, capsys):
        corpus_path, config_path = _write_toy_setup(tmp_path)
        with open(config_path, "a", encoding="utf-8") as fh:
            fh.write("freeze_pretrained = true\n")
        config = RunConfig.from_file(config_path)
        sep_path, model_path = tmp_path / "sep.ckpt", tmp_path / "model.ckpt"
        assert run(["pretrain", "--config", str(config_path), "--input", str(corpus_path),
                    "--output", str(sep_path), "--log", str(tmp_path / "p.csv")]) == 0
        assert run(["train", "--config", str(config_path), "--input", str(corpus_path),
                    "--checkpoint", str(sep_path), "--output", str(model_path),
                    "--log", str(tmp_path / "t.csv")]) == 0
        capsys.readouterr()
        pretrained, trained = load_checkpoint(sep_path), load_checkpoint(model_path)
        for (name, before), (_, after) in zip(pretrained.tree.named_params(),
                                              trained.tree.named_params()):
            assert np.array_equal(before.data, after.data), name
        # the transformer as `train` initializes it, before its first step
        initial = TransformerParams.init(
            len(trained.code_vocab), len(trained.word_vocab), config.embedding_size,
            config.heads, config.encoder_layers, config.decoder_layers,
            np.random.default_rng(config.seed + 1))
        for (name, before), (_, after) in zip(initial.named_params(),
                                              trained.transformer.named_params()):
            assert not np.array_equal(before.data, after.data), name

    def test_eval_corpus_mode(self, tmp_path, capsys):
        corpus_path, config_path = _write_toy_setup(tmp_path)
        model_path = tmp_path / "model.ckpt"
        assert run([
            "train", "--config", str(config_path), "--input", str(corpus_path),
            "--from-scratch", "--output", str(model_path),
            "--log", str(tmp_path / "t.csv"),
        ]) == 0
        capsys.readouterr()
        assert run([
            "eval", "--config", str(config_path), "--input", str(corpus_path),
            "--checkpoint", str(model_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "S-BLEU" in out and "ROUGE-L" in out

    def test_train_determinism_bit_identical(self, tmp_path, capsys):
        corpus_path, config_path = _write_toy_setup(tmp_path, epochs=2)
        outputs = []
        for tag in ("a", "b"):
            model_path = tmp_path / f"model_{tag}.ckpt"
            log_path = tmp_path / f"loss_{tag}.csv"
            assert run([
                "train", "--config", str(config_path), "--input", str(corpus_path),
                "--from-scratch", "--output", str(model_path),
                "--log", str(log_path), "--seed", "11",
            ]) == 0
            outputs.append((model_path.read_bytes(), log_path.read_text()))
        capsys.readouterr()
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]

    def test_train_without_checkpoint_or_scratch_fails(self, tmp_path, capsys):
        corpus_path, config_path = _write_toy_setup(tmp_path)
        with pytest.raises(ConfigError, match="^train needs exactly one of --checkpoint "
                                              "and --from-scratch$"):
            run([
                "train", "--config", str(config_path), "--input", str(corpus_path),
                "--output", str(tmp_path / "m.ckpt"), "--log", str(tmp_path / "l.csv"),
            ])

    def test_train_with_checkpoint_and_scratch_fails(self, tmp_path, capsys):
        corpus_path, config_path = _write_toy_setup(tmp_path)
        tree = TreeLstmParams.init({"<UNK>": 0}, 16, np.random.default_rng(0))
        save_checkpoint(tmp_path / "sep.ckpt", tree=tree)
        with pytest.raises(ConfigError, match="^train needs exactly one of --checkpoint "
                                              "and --from-scratch$"):
            run([
                "train", "--config", str(config_path), "--input", str(corpus_path),
                "--checkpoint", str(tmp_path / "sep.ckpt"), "--from-scratch",
                "--output", str(tmp_path / "m.ckpt"), "--log", str(tmp_path / "l.csv"),
            ])
        assert not (tmp_path / "m.ckpt").exists()


def _transformer_only_checkpoint(path):
    transformer = TransformerParams.init(len(SPECIALS) + 1, len(SPECIALS) + 1, 16, 2, 1, 1,
                                         np.random.default_rng(0))
    save_checkpoint(path, transformer=transformer, code_vocab=Vocab({}, SPECIALS + ["a"]),
                    word_vocab=Vocab({}, SPECIALS + ["x"]))


def _tree_checkpoint(path, width):
    save_checkpoint(path, tree=TreeLstmParams.init({"<UNK>": 0}, width,
                                                   np.random.default_rng(0)))


def _corpus_with_a_line(tmp_path, line):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(toy_rows()[0]) + "\n" + line + "\n")
    return ["train", "--input", str(path), "--from-scratch", "--output", str(tmp_path / "m.ckpt")]


def _config_with_a_line(tmp_path, line):
    corpus_path, _ = _write_toy_setup(tmp_path)
    path = tmp_path / "run.cfg"
    path.write_text("heads = 2\n" + line + "\n")
    return ["train", "--config", str(path), "--input", str(corpus_path), "--from-scratch"]


def _train_from(tmp_path, write_checkpoint):
    corpus_path, config_path = _write_toy_setup(tmp_path)
    write_checkpoint(tmp_path / "in.ckpt")
    return ["train", "--config", str(config_path), "--input", str(corpus_path),
            "--checkpoint", str(tmp_path / "in.ckpt"), "--output", str(tmp_path / "m.ckpt"),
            "--log", str(tmp_path / "l.csv")]


def _eval_files(tmp_path, hyp, ref):
    (tmp_path / "hyp.txt").write_text(hyp)
    (tmp_path / "ref.txt").write_text(ref)
    return ["eval", "--hyp", str(tmp_path / "hyp.txt"), "--ref", str(tmp_path / "ref.txt")]


class TestCliErrors:
    """Typed errors of the command line, each with its exact text."""

    @pytest.mark.parametrize("argv, error, message", [
        (lambda p: _corpus_with_a_line(p, "{not json"), FormatError,
         "{p}/c.jsonl: line 2: invalid JSON (Expecting property name enclosed in double quotes)"),
        (lambda p: _config_with_a_line(p, "embedding_size 16"), FormatError,
         "{p}/run.cfg: line 2: expected key = value"),
        (lambda p: _config_with_a_line(p, "heads = 4"), FormatError,
         "{p}/run.cfg: line 2: repeated config key 'heads'"),
        (lambda p: _config_with_a_line(p, "max_code_length = 0"), ConfigError,
         "max_code_length must be positive, got 0"),
        (lambda p: _train_from(p, _transformer_only_checkpoint), ConfigError,
         "{p}/in.ckpt has no tree section"),
        (lambda p: _train_from(p, lambda path: _tree_checkpoint(path, 8)), ConfigError,
         "checkpoint width 8 != embedding_size 16"),
        (lambda p: _eval_files(p, "a b\nc\n", "a b\n"), ConfigError,
         "hypothesis count 2 != reference count 1"),
        (lambda p: _eval_files(p, "", ""), ConfigError,
         "nothing to score: {p}/hyp.txt and {p}/ref.txt are both empty"),
        (lambda p: ["eval"], ConfigError,
         "eval needs --hyp/--ref files or --input with --checkpoint"),
        (lambda p: ["eval", "--input", str(p / "c.jsonl")], ConfigError,
         "eval needs --hyp/--ref files or --input with --checkpoint"),
        (lambda p: _eval_files(p, "a\n", "a\n") + ["--dedupe-train", str(p / "none.jsonl"),
                                                   "--checkpoint", str(p / "none.ckpt")],
         ConfigError, "eval --hyp/--ref cannot be combined with --checkpoint --dedupe-train"),
        (lambda p: _eval_files(p, "a\n", "a\n") + ["--input", str(p / "c.jsonl")], ConfigError,
         "eval --hyp/--ref cannot be combined with --input"),
        (lambda p: ["eval", "--hyp", str(p / "h.txt"), "--input", str(p / "c.jsonl"),
                    "--checkpoint", str(p / "m.ckpt")], ConfigError,
         "eval --hyp/--ref cannot be combined with --input --checkpoint"),
    ], ids=["corpus line not JSON", "config line without =", "repeated config key",
            "zero max_code_length",
            "checkpoint without a tree", "checkpoint of another width",
            "unequal hyp and ref counts", "empty hyp and ref", "eval with neither mode",
            "eval input alone", "eval files with corpus-mode flags", "eval files with an input",
            "eval input with a stray hyp"])
    def test_exact_error(self, tmp_path, argv, error, message):
        with pytest.raises(error) as err:
            run(argv(tmp_path))
        assert type(err.value) is error
        assert str(err.value) == message.format(p=tmp_path)
        assert not (tmp_path / "m.ckpt").exists()

    def test_blank_lines_of_a_corpus_are_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rows = [json.dumps(row) for row in toy_rows()]
        path.write_text("\n" + rows[0] + "\n  \n\t\n" + rows[1] + "\n\n" + rows[2] + "\n")
        assert [r.record_id for r in load_corpus(path)] == ["m1", "m2", "m3"]

    def test_main_prints_the_error_and_exits_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("sys.argv", ["basts", *_eval_files(tmp_path, "a\nb\n", "a\n")])
        with pytest.raises(SystemExit) as exit_info:
            cli.main()
        assert exit_info.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "basts: error: hypothesis count 2 != reference count 1\n"

    def test_main_exits_0_on_success(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("sys.argv", ["basts", *_eval_files(tmp_path, "a b\n", "a b\n")])
        with pytest.raises(SystemExit) as exit_info:
            cli.main()
        assert exit_info.value.code == 0
        assert capsys.readouterr().err == ""

    def test_python_dash_m_runs_the_command_line(self, tmp_path):
        """`python -m basts.cli` works in a checkout where no console script is installed."""
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

        def basts(argv):
            return subprocess.run([sys.executable, "-m", "basts.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=120)

        ok = basts(_eval_files(tmp_path, "a b\n", "a b\n"))
        assert ok.returncode == 0 and "S-BLEU" in ok.stdout
        missing = basts(["eval", "--hyp", str(tmp_path / "none.txt"),
                         "--ref", str(tmp_path / "ref.txt")])
        assert missing.returncode == 1
        assert missing.stderr.startswith("basts: error:")


class TestInvalidUtf8NamesItsLine:
    """Every text input reads invalid UTF-8 as a FormatError naming its file and line."""

    def assert_names_line(self, argv, path, line, byte):
        with pytest.raises(FormatError) as err:
            run(argv)
        assert type(err.value) is FormatError
        assert str(err.value) == f"{path}: line {line}: invalid UTF-8 at byte {byte}"
        assert err.value.line == line

    def test_config_file(self, tmp_path):
        argv = _config_with_a_line(tmp_path, "epochs = 1")
        (tmp_path / "run.cfg").write_bytes(b"heads = 2\n# caf\xe9\nepochs = 1\n")
        self.assert_names_line(argv, tmp_path / "run.cfg", 2, 5)

    def test_mini_source(self, tmp_path):
        src = tmp_path / "m.mini"
        src.write_bytes(b'void f() { }\n\nvoid g() { s = "\xff"; }\n')
        self.assert_names_line(["split", "--input", str(src)], src, 3, 16)

    @pytest.mark.parametrize("which", ["hyp", "ref"])
    def test_eval_hypotheses_and_references(self, tmp_path, which):
        argv = _eval_files(tmp_path, "a b\nc d\n", "a b\nc d\n")
        bad = tmp_path / f"{which}.txt"
        bad.write_bytes(b"a b\nc \xe9d\n")
        self.assert_names_line(argv, bad, 2, 2)


# a method that fails `build_cfg`, after one that passes and a blank line
_BAD_SECOND_METHOD = "void g() { return; }\n\n  int h(int a) {\n    continue; }\n"


class TestMiniCommandsNameTheFailingMethod:
    """A `.mini` command's CfgError names its method and the line it starts on.

    A LexError or ParseError keeps its type and gives its own line, after
    the method once the method's name is read.
    """

    @pytest.mark.parametrize("command", [["split"], ["cfg", "dump"], ["dom", "dump"],
                                         ["summarize"]],
                             ids=["split", "cfg dump", "dom dump", "summarize"])
    @pytest.mark.parametrize("source, error, message", [
        ("void f() { break; }\nvoid g() { return; }", CfgError,
         "method 'f' (line 1): break outside a loop (statement 0)"),
        (_BAD_SECOND_METHOD, CfgError,
         "method 'h' (line 3): continue outside a loop (statement 0)"),
        ("void f() { return; }\n\nvoid g() {\n  x = #; }", LexError,
         "method 'g' (line 3): line 4: unrecognized character '#' at offset 39"),
        ("void f() { return; }\n\nvoid g() {\n  x = ; }", ParseError,
         "method 'g' (line 3): line 4: at token 15: expected expression, found ';'"),
        ("void f() { return; }\n}\n", ParseError,
         "line 2: at token 8: expected return type, found '}'"),
    ], ids=["first method", "third line", "lex error", "parse error", "before a method"])
    def test_exact_error(self, tmp_path, capsys, command, source, error, message):
        src = tmp_path / "m.mini"
        src.write_text(source)
        argv = [*command, "--input", str(src)]
        if command == ["summarize"]:
            ckpt = tmp_path / "model.ckpt"
            ckpt.write_bytes(SMALL_CHECKPOINTS["summarizer"])
            argv += ["--checkpoint", str(ckpt)]
        with pytest.raises(error) as err:
            run(argv)
        assert type(err.value) is error
        assert str(err.value) == message


class TestEvalDedupe:
    def test_dedupe_train_scores_only_records_not_in_training(self, tmp_path, capsys):
        corpus_path, config_path = _write_toy_setup(tmp_path, epochs=1)
        model_path = tmp_path / "model.ckpt"
        assert run([
            "train", "--config", str(config_path), "--input", str(corpus_path),
            "--from-scratch", "--output", str(model_path), "--log", str(tmp_path / "t.csv"),
        ]) == 0
        rows = toy_rows()
        train_path, kept_path = tmp_path / "seen.jsonl", tmp_path / "kept.jsonl"
        # m1's code, spaced differently, is still a training record's code
        write_corpus(train_path, [dict(rows[0], id="t1",
                                       code="int add(int a, int b) {  return a+b; }")])
        write_corpus(kept_path, rows[1:])
        reports = []
        for extra, corpus in (
            (["--dedupe-train", str(train_path)], corpus_path),
            ([], kept_path),
        ):
            json_path = tmp_path / "report.json"
            assert run(["eval", "--config", str(config_path), "--input", str(corpus),
                        "--checkpoint", str(model_path), "--json", str(json_path),
                        *extra]) == 0
            reports.append(json_path.read_text())
        capsys.readouterr()
        assert reports[0] == reports[1]

    def test_dedupe_train_of_every_record_leaves_nothing_to_score(self, tmp_path, capsys):
        corpus_path, config_path = _write_toy_setup(tmp_path, epochs=1)
        model_path = tmp_path / "model.ckpt"
        assert run([
            "train", "--config", str(config_path), "--input", str(corpus_path),
            "--from-scratch", "--output", str(model_path), "--log", str(tmp_path / "t.csv"),
        ]) == 0
        with pytest.raises(ConfigError) as err:
            run(["eval", "--config", str(config_path), "--input", str(corpus_path),
                 "--checkpoint", str(model_path), "--dedupe-train", str(corpus_path)])
        assert type(err.value) is ConfigError
        assert str(err.value) == ("nothing to score: all 3 records that survived "
                                  "preprocessing are duplicates of training records")

    def test_a_training_corpus_with_no_parseable_record_is_named(self, tmp_path):
        train, corpus, ckpt = (tmp_path / name for name in ("train.jsonl", "eval.jsonl",
                                                            "model.ckpt"))
        write_corpus(train, [{"id": "t", "code": "int f( {", "comment": "broken"}])
        write_corpus(corpus, toy_rows()[:1])
        ckpt.write_bytes(SMALL_CHECKPOINTS["summarizer"])
        with pytest.raises(ConfigError) as err:
            run(["eval", "--input", str(corpus), "--checkpoint", str(ckpt),
                 "--dedupe-train", str(train)])
        assert str(err.value) == f"--dedupe-train {train}: no record lexes and parses"

    def test_a_malformed_training_corpus_is_named(self, tmp_path):
        """A bad line of the `--dedupe-train` corpus does not read as one of `--input`."""
        train, corpus, ckpt = (tmp_path / name for name in ("train.jsonl", "eval.jsonl",
                                                            "model.ckpt"))
        train.write_text(json.dumps(toy_rows()[0]) + "\nnot json\n")
        write_corpus(corpus, toy_rows()[:1])
        ckpt.write_bytes(SMALL_CHECKPOINTS["summarizer"])
        with pytest.raises(FormatError) as err:
            run(["eval", "--input", str(corpus), "--checkpoint", str(ckpt),
                 "--dedupe-train", str(train)])
        assert str(err.value) == f"{train}: line 2: invalid JSON (Expecting value)"
        assert (err.value.path, err.value.line) == (str(train), 2)

    def test_a_method_that_differs_past_max_code_length_is_no_duplicate(self, tmp_path,
                                                                          capsys):
        """The key is the whole method, not the model's first `max_code_length` subtokens."""
        body = "int total = 0; " + "total = total + v; " * 30
        train = tmp_path / "seen.jsonl"
        write_corpus(train, [{"id": "t", "code": f"int f(int v) {{ {body}return total; }}",
                              "comment": "sums"}])
        near = {"id": "near", "code": f"int f(int v) {{ {body}return v; }}", "comment": "x y"}
        dup = {"id": "dup", "code": f"int  f(int v) {{{body} return total;}}", "comment": "y"}
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes(SMALL_CHECKPOINTS["summarizer"])
        reports = []
        for rows, extra in (([near, dup], ["--dedupe-train", str(train)]), ([near], [])):
            corpus, report = tmp_path / "eval.jsonl", tmp_path / "report.json"
            write_corpus(corpus, rows)
            assert run(["eval", "--input", str(corpus), "--checkpoint", str(ckpt),
                        "--json", str(report), *extra]) == 0
            reports.append(report.read_text())
        capsys.readouterr()
        assert reports[0] == reports[1]


def _dedupe_setup(tmp_path):
    """A toy model, its corpus, and a training corpus that repeats one of its
    records, holds one that fails to parse and one that is new."""
    corpus_path, config_path = _write_toy_setup(tmp_path, epochs=30)
    model_path = tmp_path / "model.ckpt"
    assert run(["train", "--config", str(config_path), "--input", str(corpus_path),
                "--from-scratch", "--output", str(model_path),
                "--log", str(tmp_path / "t.csv")]) == 0
    train_path = tmp_path / "seen.jsonl"
    write_corpus(train_path, [
        dict(toy_rows()[0], id="t1"),
        {"id": "t2", "code": "int f( { return; }", "comment": "broken"},
        {"id": "t3", "code": "int sub(int a, int b) { return a - b; }", "comment": "subtracts"},
    ])
    return ["eval", "--config", str(config_path), "--input", str(corpus_path),
            "--checkpoint", str(model_path), "--dedupe-train", str(train_path)]


class TestEvalDedupeFrontendOnly:
    """`eval --dedupe-train` reads the training corpus's code tokens only."""

    # the report of the toy model trained 30 epochs, pinned as text
    REPORT = (
        '{\n  "s_bleu": 40.19,\n  "c_bleu": 0.0,\n  "meteor": 39.44,\n'
        '  "rouge1_f": 66.07,\n  "rouge2_f": 16.67,\n  "rougeL_f": 66.07\n}\n'
    )

    def test_the_training_corpus_never_reaches_split_method(self, tmp_path, capsys,
                                                              monkeypatch):
        argv = _dedupe_setup(tmp_path)
        split, real = [], cli.split_method
        monkeypatch.setattr(cli, "split_method", lambda m: split.append(m.name) or real(m))
        assert run(argv) == 0
        capsys.readouterr()
        assert split == ["add", "reset", "max"]

    def test_report_is_unchanged(self, tmp_path, capsys):
        json_path = tmp_path / "report.json"
        assert run(_dedupe_setup(tmp_path) + ["--json", str(json_path)]) == 0
        capsys.readouterr()
        assert json_path.read_text() == self.REPORT

    def test_report_equals_eval_of_the_records_it_keeps(self, tmp_path, capsys):
        """What the pin above guards, with no pinned text: dropping the one
        record the training corpus repeats scores as `eval` over the other two."""
        argv = _dedupe_setup(tmp_path)
        kept = tmp_path / "kept.jsonl"
        write_corpus(kept, toy_rows()[1:])
        assert argv[3] == "--input" and argv[-2] == "--dedupe-train"
        reports = []
        for args in (argv, [*argv[:4], str(kept), *argv[5:-2]]):
            json_path = tmp_path / "report.json"
            assert run(args + ["--json", str(json_path)]) == 0
            reports.append(json_path.read_text())
        capsys.readouterr()
        assert reports[0] == reports[1]


def test_eval_of_summarize_output_matches_eval_of_the_corpus(tmp_path, capsys):
    """Both eval modes decode through one loop, so they score alike.

    `summarize` over the corpus's methods, scored by `eval --hyp/--ref`
    against the comments' words, writes the same report as
    `eval --input --checkpoint` over the corpus.
    """
    # at 30 epochs two of the three methods still decode alike
    corpus_path, config_path = _write_toy_setup(tmp_path, epochs=50)
    model_path = tmp_path / "model.ckpt"
    config = ["--config", str(config_path)]
    assert run(["train", *config, "--input", str(corpus_path), "--from-scratch",
                "--output", str(model_path), "--log", str(tmp_path / "t.csv")]) == 0
    methods = tmp_path / "methods.mini"
    methods.write_text("\n".join(row["code"] for row in toy_rows()))
    capsys.readouterr()
    assert run(["summarize", *config, "--input", str(methods),
                "--checkpoint", str(model_path)]) == 0
    hyps = capsys.readouterr().out
    assert len(set(hyps.splitlines())) == len(toy_rows())  # the summaries tell methods apart
    (tmp_path / "hyp.txt").write_text(hyps)
    (tmp_path / "ref.txt").write_text(
        "".join(" ".join(tokenize_comment(row["comment"])) + "\n" for row in toy_rows()))
    reports = []
    for mode in (["--hyp", str(tmp_path / "hyp.txt"), "--ref", str(tmp_path / "ref.txt")],
                 [*config, "--input", str(corpus_path), "--checkpoint", str(model_path)]):
        json_path = tmp_path / "report.json"
        assert run(["eval", *mode, "--json", str(json_path)]) == 0
        reports.append(json_path.read_text())
    capsys.readouterr()
    assert reports[0] == reports[1]
