import gc
import json
import struct
import zlib

import numpy as np
import pytest

from basts import cli
from basts.autodiff import Tensor
from basts.checkpoint import (
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
    dedupe_against,
    load_corpus,
    preprocess,
    run,
)
from basts.summarizer import TransformerParams, Vocab
from basts.syntax_encoder import ConfigError, SepModel, TreeLstmParams
from basts.frontend import MAX_NESTING, parse_program
from basts.splitter import split_method
from conftest import (
    DIAMOND_SOURCE,
    IDLE_CONNECTIONS_SOURCE,
    STRAIGHT_LINE_SOURCE,
    nested_ifs,
    nested_parens,
    parse_source,
)


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
        with pytest.raises(FormatError, match=f"^line 2: field '{field}' is not a string$"):
            load_corpus(path)

    def test_number_id_is_rejected_not_renamed(self, tmp_path):
        # read through str(), 3 and "3" were one id, so line 4 was a false
        # duplicate; the first non-string id is the error
        path = tmp_path / "c.jsonl"
        rows = [dict(toy_rows()[0], id=rid) for rid in (None, [1], 3, "3")]
        write_corpus(path, rows)
        with pytest.raises(FormatError, match="^line 1: field 'id' is not a string$"):
            load_corpus(path)
        write_corpus(path, rows[2:])
        with pytest.raises(FormatError, match="^line 1: field 'id' is not a string$"):
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
        with pytest.raises(ConfigError):
            RunConfig(embedding_size=10, heads=4).validate()

    def test_zero_heads_is_a_config_error(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("heads = 0\n")
        with pytest.raises(ConfigError, match="^heads must be positive, got 0$"):
            RunConfig.from_file(path)

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
        train = preprocess(
            [CorpusRecord("t", shared, "adds"), CorpusRecord("t2", shared2, "resets")],
            config,
        )
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
        deduped = dedupe_against(test_corpus, train.records)
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
        with pytest.raises(CheckpointError, match="missing blob 'virtual_m'"):
            deserialize(raw)

    def test_unexpected_blob_is_named(self):
        raw = self._tree_with_blobs(
            lambda blobs: blobs + [("bogus", Tensor(np.zeros(4)))]
        )
        with pytest.raises(CheckpointError, match="unexpected blob 'bogus'"):
            deserialize(raw)

    def test_blob_shape_mismatch_is_named(self):
        def shrink(blobs):
            return [(n, Tensor(np.zeros((3, 3))) if n == "w_i" else t) for n, t in blobs]

        raw = self._tree_with_blobs(shrink)
        with pytest.raises(CheckpointError, match="blob 'w_i' has shape"):
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
        # 2**32 * 2**32 is 0 in int64 arithmetic; the element count must not wrap
        (struct.pack("<BQQ", 2, 2**32, 2**32), "truncated checkpoint"),
        (struct.pack("<BQQ", 2, 0, 2**63), "blob 'embedding' has unusable shape"),
        (struct.pack("<B", 65) + bytes(65 * 8), "blob 'embedding' has unusable shape"),
    ], ids=["dims-past-int64", "zero-and-huge-dim", "rank-65"])
    def test_unusable_blob_shape_is_a_checkpoint_error(self, shape, message):
        params = TreeLstmParams.init({"<UNK>": 0}, 4, np.random.default_rng(0))
        raw = serialize(tree=params)
        rank = raw.index(b"embedding") + len(b"embedding")
        bad = raw[:rank] + shape + raw[rank + 17:]  # the original rank 2 and two dims
        with pytest.raises(CheckpointError, match=message):
            deserialize(self._resealed(bad))

    def test_bytes_after_last_section_rejected(self):
        params = TreeLstmParams.init({"<UNK>": 0}, 4, np.random.default_rng(0))
        raw = serialize(tree=params)
        padded = self._resealed(raw[:-4] + b"\x00" + raw[-4:])
        with pytest.raises(CheckpointError, match=r"^extra bytes after the last section \(1\)$"):
            deserialize(padded)

    def test_unknown_flag_bits_rejected(self):
        params = TreeLstmParams.init({"<UNK>": 0}, 4, np.random.default_rng(0))
        raw = bytearray(serialize(tree=params))
        raw[12] |= 0x04  # flags follow the 8-byte magic and the u32 version
        payload = bytes(raw[8:-4])
        raw[-4:] = struct.pack("<I", zlib.crc32(payload))
        with pytest.raises(CheckpointError, match="unknown flag bits 0x4"):
            deserialize(bytes(raw))


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
        with pytest.raises(ConfigError):
            run([
                "train", "--config", str(config_path), "--input", str(corpus_path),
                "--output", str(tmp_path / "m.ckpt"), "--log", str(tmp_path / "l.csv"),
            ])
