"""Command line pipeline: preprocess, train, evaluate, scan, smote-report."""

import argparse
import importlib.util
import json
import os
import re
import shutil
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vulncascade import cli
from vulncascade.archive import LABEL_BINARY, LABEL_CLASS, load_archive
from vulncascade.cli import _reencode_rows, main
from vulncascade.dataset import LabelMap
from vulncascade.models import build_model, stage2_spec
from vulncascade.normalizer import (
    TokenKind,
    normalize_source,
    split_functions,
    tokenize,
)
from vulncascade.serialize import load_model, save_model
from vulncascade.vocab import Vocabulary

from c_snippets import SNIPPETS
from conftest import edit_header, growth_ratio, reseal

CLEAN_BODIES = [
    "int add(int a, int b) { return a + b; }",
    "int sub(int a, int b) { return a - b; }",
    "int mul(int a, int b) { return a * b; }",
    "int neg(int a) { return -a; }",
    "int sq(int x) { return x * x; }",
    "int inc(int x) { return x + 1; }",
    "int dec(int x) { return x - 1; }",
    "int idn(int x) { return x; }",
    "int zero(void) { return 0; }",
    "int one(void) { return 1; }",
    "int half(int x) { return x / 2; }",
    "int dbl(int x) { return x * 2; }",
]
VULN_TEMPLATES = {
    "CWE-121": ("void f{i}(char *s) {{ char buf[8]; strcpy(buf, s); }}", 8),
    "CWE-190": ("int f{i}(int a) {{ int x = a * 65536 * 65536; return x; }}", 5),
    "CWE-476": ("int f{i}(int *p) {{ if (p) {{}} return *p; }}", 4),
}


def write_corpus(path):
    with open(path, "w", encoding="utf-8") as fh:
        for i, body in enumerate(CLEAN_BODIES):
            fh.write(json.dumps(
                {"code": body, "vulnerable": 0, "id": f"clean-{i}"}) + "\n")
        for cwe, (tmpl, count) in VULN_TEMPLATES.items():
            for i in range(count):
                fh.write(json.dumps(
                    {"code": tmpl.format(i=i), "vulnerable": 1,
                     "cwe": cwe, "id": f"{cwe}-{i}"}) + "\n")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One shared preprocess + quick train of both stages."""
    work = tmp_path_factory.mktemp("cliwork")
    corpus = work / "corpus.jsonl"
    write_corpus(corpus)
    data = work / "data"
    assert main(["preprocess", "--corpus", str(corpus),
                 "--out-dir", str(data)]) == 0
    s1 = work / "s1.vcmd"
    s2 = work / "s2.vcmd"
    assert main(["train", "--stage", "1", "--data", str(data),
                 "--out", str(s1), "--epochs", "1"]) == 0
    assert main(["train", "--stage", "2", "--data", str(data),
                 "--out", str(s2), "--epochs", "1"]) == 0
    return {"work": work, "corpus": corpus, "data": data, "s1": s1, "s2": s2}


@pytest.fixture
def unlabeled_s2(workspace, tmp_path):
    """The workspace's stage-2 model with its label map forged to null and
    the file resealed; save_model refuses to write one."""
    out = edit_header(workspace["s2"].read_bytes(),
                      lambda h: h.update(label_classes=None))
    path = tmp_path / "unlabeled_s2.vcmd"
    path.write_bytes(reseal(out[:-32]))
    return path


def assert_no_label_map_refused(code, capsys):
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "label_classes None at stage 2" in captured.err


def texts(tokens):
    return [t.text for t in tokens]


def functions_of(src):
    """split_functions over src, each token slice shown as its texts."""
    return [(name, line, texts(part))
            for name, line, part in split_functions(tokenize(src))]


# Reference copy of the nested-scan split_functions; for each name( it
# rescans to the balancing ) and }, so it is quadratic on unbalanced input.
# The bracket-table version must return exactly what it returns.

def reference_split_functions(tokens):
    dropped = (TokenKind.COMMENT, TokenKind.PREPROCESSOR)
    code = [i for i, t in enumerate(tokens) if t.kind not in dropped]
    toks = [tokens[i] for i in code]
    functions = []
    i, depth = 0, 0
    decl_start = None
    while i < len(toks):
        t = toks[i]
        if depth == 0 and decl_start is None:
            decl_start = i
        if depth == 0 and t.kind is TokenKind.IDENTIFIER and i + 1 < len(toks) \
                and toks[i + 1].text == "(":
            j, parens = i + 1, 0
            while j < len(toks):
                if toks[j].text == "(":
                    parens += 1
                elif toks[j].text == ")":
                    parens -= 1
                    if parens == 0:
                        break
                j += 1
            if j + 1 < len(toks) and toks[j + 1].text == "{":
                k, braces = j + 1, 0
                while k < len(toks):
                    if toks[k].text == "{":
                        braces += 1
                    elif toks[k].text == "}":
                        braces -= 1
                        if braces == 0:
                            break
                    k += 1
                if k < len(toks):
                    functions.append(
                        (t.text, t.line, tokens[code[decl_start]:code[k] + 1]))
                    i = k + 1
                    decl_start = None
                    continue
        if t.text == "{":
            depth += 1
        elif t.text == "}":
            depth = max(0, depth - 1)
            if depth == 0:
                decl_start = None
        elif t.text == ";" and depth == 0:
            decl_start = None
        i += 1
    return functions


# single tokens plus a few definition heads, so soups hold whole functions
SOUP_PIECES = ["f", "g", "x", "int", "if", "(", ")", "{", "}", ";", ",", "=",
               "/* c ( { */", "// } )\n", "\n#define M(a) {\n", "1", '"("',
               "'{'", "\n", "int f(int x) {", "g() {", "return x;"]


class TestSplitFunctions:
    @pytest.mark.parametrize("index", range(len(SNIPPETS)))
    def test_matches_reference_on_snippets(self, index):
        tokens = tokenize(SNIPPETS[index])
        assert split_functions(tokens) == reference_split_functions(tokens)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(SOUP_PIECES), max_size=80))
    def test_matches_reference_on_token_soup(self, pieces):
        tokens = tokenize(" ".join(pieces))
        assert split_functions(tokens) == reference_split_functions(tokens)

    def test_unclosed_parens_take_linear_time(self):
        # each a( opens a paren that never closes; the nested-scan split
        # rescans to the end of input from every one of them
        start = time.perf_counter()
        assert split_functions(tokenize("a(" * 10_000)) == []
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("unit", ["a(", "{"])
    def test_unclosed_runs_grow_linearly(self, unit):
        # inputs 4x apart: linear work reads about 4, quadratic about 16
        assert growth_ratio(split_functions, tokenize(unit * 5_000),
                            tokenize(unit * 20_000)) < 8.0

    def test_two_functions(self):
        src = ("int add(int a, int b) { return a + b; }\n"
               "int sub(int a, int b) { return a - b; }\n")
        parts = functions_of(src)
        assert [(n, l) for n, l, _ in parts] == [("add", 1), ("sub", 2)]
        assert parts[0][2] == texts(tokenize("int add(int a, int b) { return a + b; }"))

    def test_nested_braces(self):
        src = "int f(int x) { if (x) { return 1; } return 0; }"
        parts = functions_of(src)
        assert len(parts) == 1
        assert parts[0][2] == texts(tokenize(src))

    def test_prototype_skipped(self):
        parts = functions_of("int add(int a, int b);\nint one(void) { return 1; }\n")
        assert [n for n, _, _ in parts] == ["one"]

    def test_no_functions(self):
        assert functions_of("int x = 3;\n") == []

    def test_directives_and_comments_do_not_shift_offsets(self):
        src = ("#include <stdio.h>\n"
               "/* helper */\n"
               "static int twice(int v) { return v * 2; }\n")
        parts = functions_of(src)
        assert parts == [("twice", 3, texts(tokenize(
            "static int twice(int v) { return v * 2; }")))]

    def test_comments_and_directives_inside_a_function_are_kept(self):
        src = ("int f(int v) {\n"
               "    /* doubled */\n"
               "#ifdef DEBUG\n"
               "    return v * 2; // twice\n"
               "#endif\n"
               "}\n")
        (_, _, part), = split_functions(tokenize(src))
        assert part == tokenize(src)

    def test_body_inside_function_not_reported(self):
        src = "void outer(void) { inner(); also(1); }"
        assert [n for n, _, _ in functions_of(src)] == ["outer"]

    def test_unbalanced_input_gives_up(self):
        assert functions_of("int f(int x) { return x;") == []


def assert_stage2_is_stage1_prefix(a1, a2):
    """Stage-2 rows are the vulnerable stage-1 rows cut to 400 ids."""
    vuln = a1.labels == 1
    np.testing.assert_array_equal(a2.ids, a1.ids[vuln, :400])
    np.testing.assert_array_equal(a2.true_lengths,
                                  np.minimum(a1.true_lengths[vuln], 400))


class TestPreprocess:
    def test_artifacts_exist(self, workspace):
        data = workspace["data"]
        for name in ("vocab.txt", "label_map.json", "stage1_train.vcen",
                     "stage1_test.vcen", "stage2_train.vcen", "stage2_test.vcen",
                     "preprocess_manifest.json"):
            assert (data / name).exists(), name

    def test_archives_are_consistent(self, workspace):
        data = workspace["data"]
        vocab = Vocabulary.load(data / "vocab.txt")
        a1 = load_archive(str(data / "stage1_train.vcen"))
        a2 = load_archive(str(data / "stage2_train.vcen"))
        assert a1.label_kind == LABEL_BINARY
        assert a2.label_kind == LABEL_CLASS
        assert a1.max_len == 500 and a2.max_len == 400
        assert a1.vocab_hash == vocab.content_hash() == a2.vocab_hash
        assert set(np.unique(a1.labels)) <= {0, 1}
        assert a2.count == int(a1.labels.sum())
        assert a2.num_classes == 3
        assert_stage2_is_stage1_prefix(a1, a2)

    def test_test_split_mirrors_train(self, workspace):
        data = workspace["data"]
        a1 = load_archive(str(data / "stage1_test.vcen"))
        a2 = load_archive(str(data / "stage2_test.vcen"))
        assert a2.count == int(a1.labels.sum())
        assert_stage2_is_stage1_prefix(a1, a2)

    def test_stdout_summary(self, workspace, tmp_path, capsys):
        out = tmp_path / "again"
        assert main(["preprocess", "--corpus", str(workspace["corpus"]),
                     "--out-dir", str(out)]) == 0
        text = capsys.readouterr().out
        assert "split: " in text
        assert "vocabulary: " in text
        assert "classes: 3" in text

    def test_json_summary(self, workspace, tmp_path, capsys):
        out = tmp_path / "againjson"
        assert main(["preprocess", "--corpus", str(workspace["corpus"]),
                     "--out-dir", str(out), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["classes"] == ["CWE-121", "CWE-190", "CWE-476"]
        assert report["train"] + report["test"] == 29
        assert report["vocab_size"] >= 2

    def test_filled_windows_are_counted(self, tmp_path, capsys):
        # one vulnerable sample longer than both windows; the rest are short
        corpus = tmp_path / "long.jsonl"
        write_corpus(corpus)
        long_body = " ".join(f"t{i} = t{i} + {i};" for i in range(150))
        with open(corpus, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"code": f"int long(int t) {{ {long_body} }}",
                                 "vulnerable": 1, "cwe": "CWE-190"}) + "\n")
        args = ["preprocess", "--corpus", str(corpus), "--seed", "3"]
        assert main([*args, "--out-dir", str(tmp_path / "text")]) == 0
        text = capsys.readouterr().out
        assert main([*args, "--out-dir", str(tmp_path / "json"), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["filled_window"] == {"stage1": 1, "stage2": 1}
        for out in ("text", "json"):
            manifest = json.loads(
                (tmp_path / out / "preprocess_manifest.json").read_text())
            assert manifest["filled_window"] == {"stage1": 1, "stage2": 1}
        # the human-readable summary is unchanged
        assert "filled" not in text

    def test_manifest_records_run(self, workspace):
        manifest = json.loads(
            (workspace["data"] / "preprocess_manifest.json").read_text())
        assert manifest["command"] == "preprocess"
        assert manifest["inputs"] == [str(workspace["corpus"])]
        assert any(p.endswith("vocab.txt") for p in manifest["outputs"])
        assert "package_version" in manifest

    def test_bad_lines_warn_but_load(self, tmp_path, capsys):
        corpus = tmp_path / "messy.jsonl"
        write_corpus(corpus)
        with open(corpus, "a", encoding="utf-8") as fh:
            fh.write("this is not json\n")
        assert main(["preprocess", "--corpus", str(corpus),
                     "--out-dir", str(tmp_path / "out")]) == 0
        assert "warning" in capsys.readouterr().err

    def test_missing_corpus_is_usage_error(self, tmp_path, capsys):
        assert main(["preprocess", "--corpus", str(tmp_path / "nope.jsonl"),
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert "error" in capsys.readouterr().err

    def test_empty_corpus_is_usage_error(self, tmp_path, capsys):
        corpus = tmp_path / "empty.jsonl"
        corpus.write_text("")
        assert main(["preprocess", "--corpus", str(corpus),
                     "--out-dir", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("removed", [["--train-fraction", "0.9"],
                                         ["--min-freq", "2"]])
    def test_removed_options_are_usage_errors(self, workspace, tmp_path, capsys,
                                              removed):
        # the split is a stratified 80/20 and the vocabulary keeps every
        # training token; the options that chose otherwise are gone
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main(["preprocess", "--corpus", str(workspace["corpus"]),
                  "--out-dir", str(out), *removed])
        assert info.value.code == 2
        assert f"unrecognized arguments: {' '.join(removed)}" in capsys.readouterr().err
        assert not out.exists()


def load_demo_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "make_demo_corpus.py"
    spec = importlib.util.spec_from_file_location("make_demo_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stage2_ids_are_a_prefix_of_stage1_ids(tmp_path, capsys):
    # the cascade hands stage 2 the first 400 stage-1 ids; decoding and
    # re-encoding each row is the reference for that slice
    corpus = tmp_path / "demo.jsonl"
    assert load_demo_script().main(["--out", str(corpus), "--per-class", "12"]) == 0
    long_body = " ".join(f"t{i} = t{i} + {i};" for i in range(150))
    with open(corpus, "a", encoding="utf-8") as fh:
        for label in ({"vulnerable": 0}, {"vulnerable": 1, "cwe": "CWE-190"}):
            fh.write(json.dumps({"code": f"int long(int t) {{ {long_body} }}",
                                 **label}) + "\n")
    data = tmp_path / "data"
    assert main(["preprocess", "--corpus", str(corpus), "--out-dir", str(data)]) == 0
    vocab = Vocabulary.load(str(data / "vocab.txt"))
    truncated = 0
    for name in ("stage1_train.vcen", "stage1_test.vcen"):
        arch = load_archive(str(data / name))
        np.testing.assert_array_equal(arch.ids[:, :400],
                                      _reencode_rows(arch.ids, vocab, 400))
        truncated += int(np.sum(arch.true_lengths == 500))
    assert truncated == 2


# (file, bytes written over it): a duplicated token, no sentinels, bytes
# that are not UTF-8, JSON cut short
DAMAGED_FILES = [
    pytest.param("vocab.txt", b"<PAD>\n<UNK>\nint\nint\n", id="vocab-duplicate"),
    pytest.param("vocab.txt", b"int\nreturn\n", id="vocab-no-sentinels"),
    pytest.param("vocab.txt", b"\xff<PAD>\n<UNK>\n", id="vocab-not-utf8"),
    pytest.param("label_map.json", b'{\n  "classes": [\n   ', id="labels-truncated"),
    pytest.param("label_map.json", b'{"classes": ["CWE-121\xff"]}',
                 id="labels-not-utf8"),
]


class TestTrain:
    def test_stage1_output(self, workspace):
        model, header = load_model(str(workspace["s1"]))
        assert model.spec.stage == 1
        assert model.spec.input_length == 500
        assert header.label_map is None
        manifest = json.loads(
            (workspace["work"] / "s1.vcmd.manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["config"]["stage"] == 1

    def test_stage2_output_carries_label_map(self, workspace):
        model, header = load_model(str(workspace["s2"]))
        assert model.spec.stage == 2
        assert header.label_map.classes == ["CWE-121", "CWE-190", "CWE-476"]

    def test_training_log_printed(self, workspace, tmp_path, capsys):
        out = tmp_path / "m.vcmd"
        assert main(["train", "--stage", "1", "--data", str(workspace["data"]),
                     "--out", str(out), "--epochs", "1"]) == 0
        text = capsys.readouterr().out
        assert "epoch 1: loss " in text
        assert f"saved {out}" in text

    def test_same_seed_same_bytes(self, workspace, tmp_path):
        outs = []
        for name in ("a.vcmd", "b.vcmd"):
            out = tmp_path / name
            assert main(["train", "--stage", "1", "--data",
                         str(workspace["data"]), "--out", str(out),
                         "--epochs", "1", "--seed", "4"]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_vocab_mismatch_rejected(self, workspace, tmp_path, capsys):
        data = tmp_path / "tampered"
        shutil.copytree(workspace["data"], data)
        lines = (data / "vocab.txt").read_text().splitlines()
        lines[2], lines[3] = lines[3], lines[2]
        (data / "vocab.txt").write_text("\n".join(lines) + "\n")
        assert main(["train", "--stage", "1", "--data", str(data),
                     "--out", str(tmp_path / "m.vcmd"), "--epochs", "1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_wrong_length_archive_rejected(self, workspace, tmp_path, capsys):
        data = tmp_path / "crossed"
        shutil.copytree(workspace["data"], data)
        shutil.copy(data / "stage2_train.vcen", data / "stage1_train.vcen")
        assert main(["train", "--stage", "1", "--data", str(data),
                     "--out", str(tmp_path / "m.vcmd"), "--epochs", "1"]) == 2
        assert "length" in capsys.readouterr().err

    def test_missing_data_dir(self, tmp_path, capsys):
        assert main(["train", "--stage", "1", "--data", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "m.vcmd")]) == 2

    @pytest.mark.parametrize("flag", ["--epochs"])
    def test_zero_is_rejected_not_defaulted(self, workspace, tmp_path, capsys,
                                            flag):
        out = tmp_path / "m.vcmd"
        assert main(["train", "--stage", "1", "--data", str(workspace["data"]),
                     "--out", str(out), flag, "0"]) == 2
        assert "must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("removed", [["--optimizer", "adam"], ["--clip"],
                                         ["--stage1-head", "sigmoid"],
                                         ["--stage2-head", "softmax"],
                                         ["--batch-size", "64"],
                                         ["--learning-rate", "0.005"],
                                         ["--smote"], ["--no-smote"]])
    def test_removed_options_are_usage_errors(self, workspace, tmp_path, capsys,
                                              removed):
        # both stages train with Adam, a sigmoid detector head and a softmax
        # classifier head, each at its own batch size and learning rate, and
        # stage 2 alone with SMOTE; the options that chose otherwise are gone
        out = tmp_path / "m.vcmd"
        with pytest.raises(SystemExit) as info:
            main(["train", "--stage", "1", "--data", str(workspace["data"]),
                  "--out", str(out), *removed])
        assert info.value.code == 2
        assert f"unrecognized arguments: {' '.join(removed)}" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_stage_is_usage_error(self, workspace, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["train", "--stage", "3", "--data", str(workspace["data"]),
                  "--out", str(tmp_path / "m.vcmd")])
        assert info.value.code == 2

    def test_tokens_holding_other_line_breaks_train(self, tmp_path):
        # the lexer keeps each of these as a one-character punctuator, so
        # vocab.txt holds them and must load back as it was written
        breaks = "\u2028\u2029\x85\x1c\x1d\x1e"
        corpus = tmp_path / "corpus.jsonl"
        write_corpus(corpus)
        with open(corpus, "a", encoding="utf-8") as fh:
            for i in range(4):
                code = f"int g{i}(int a) {{ return a {' '.join(breaks)} + 1; }}"
                fh.write(json.dumps({"code": code, "vulnerable": 0}) + "\n")
        data = tmp_path / "data"
        assert main(["preprocess", "--corpus", str(corpus),
                     "--out-dir", str(data)]) == 0
        assert all(ch in Vocabulary.load(data / "vocab.txt").token_to_id
                   for ch in breaks)
        assert main(["train", "--stage", "1", "--data", str(data),
                     "--out", str(tmp_path / "m.vcmd"), "--epochs", "1"]) == 0

    @pytest.mark.parametrize("text", ['{"labels": []}', '["CWE-1"]',
                                      '{"classes": [1, 2, 3, 4, 5]}',
                                      '{"classes": []}',
                                      '{"classes": ["CWE-1", "CWE-1"]}'])
    def test_malformed_label_map_is_refused_before_training(
            self, workspace, tmp_path, capsys, text):
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        (data / "label_map.json").write_text(text)
        out = tmp_path / "m.vcmd"
        assert main(["train", "--stage", "2", "--data", str(data),
                     "--out", str(out), "--epochs", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "label_map.json" in err
        assert not out.exists()

    @pytest.mark.parametrize("name, content", DAMAGED_FILES)
    def test_damaged_vocab_or_label_map_is_named(self, workspace, tmp_path,
                                                 capsys, name, content):
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        (data / name).write_bytes(content)
        out = tmp_path / "m.vcmd"
        assert main(["train", "--stage", "2", "--data", str(data),
                     "--out", str(out), "--epochs", "1"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {data / name}: ")
        assert not out.exists()

    @pytest.mark.parametrize("classes", [
        ["CWE-121", "CWE-190"],
        ["CWE-476", "CWE-190", "CWE-121", "CWE-787"],
    ])
    def test_label_map_of_another_class_count_is_refused(
            self, workspace, tmp_path, capsys, classes):
        # too few classes would fail inside train(); too many would train a
        # model whose outputs the archive's labels never reach
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        (data / "label_map.json").write_text(json.dumps({"classes": classes}))
        out = tmp_path / "m.vcmd"
        assert main(["train", "--stage", "2", "--data", str(data),
                     "--out", str(out), "--epochs", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"error: {data / 'label_map.json'} names {len(classes)} classes, "
                f"but {data / 'stage2_train.vcen'} holds 3") in captured.err
        assert not out.exists()


# (--stage1 file, --stage2 file, the flag refused, the stage it found):
# doubled and swapped pairs
MISMATCHED_PAIRS = [
    ("s2", "s2", "--stage1", 2),
    ("s1", "s1", "--stage2", 1),
    ("s2", "s1", "--stage1", 2),
]


def assert_pair_refused(workspace, capsys, code, flag, found):
    name = "s1" if found == 1 else "s2"
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"{flag} {workspace[name]} holds a stage-{found} model" in captured.err


@pytest.mark.parametrize("command", ["scan", "evaluate"])
@pytest.mark.parametrize("bad", ["s1", "s2"])
def test_damaged_model_file_is_named(workspace, tmp_path, capsys, command, bad):
    # a stage-1 file cut short, or a stage-2 file whose label map is forged
    # to null and resealed: the error names that file alone
    files = {name: tmp_path / f"{name}.vcmd" for name in ("s1", "s2")}
    blobs = {name: workspace[name].read_bytes() for name in files}
    blobs["s1" if bad == "s1" else "s2"] = (
        blobs["s1"][:100] if bad == "s1" else
        reseal(edit_header(blobs["s2"], lambda h: h.update(label_classes=None))[:-32]))
    for name, path in files.items():
        path.write_bytes(blobs[name])
    argv = [command, "--stage1", str(files["s1"]), "--stage2", str(files["s2"])]
    if command == "scan":
        source = tmp_path / "unit.c"
        source.write_text("int add(int a, int b) { return a + b; }\n")
        argv += ["--vocab", str(workspace["data"] / "vocab.txt"), str(source)]
    else:
        argv += ["--data", str(workspace["data"])]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {files[bad]}: ")
    assert str(files["s2" if bad == "s1" else "s1"]) not in captured.err


@pytest.mark.parametrize("command", ["preprocess", "scan"])
def test_undecodable_preserve_list_is_named(workspace, tmp_path, capsys, command):
    # byte 0xff on the list's second line: the error names the list and line
    keep = tmp_path / "keep.txt"
    keep.write_bytes(b"memcpy\nstrlen\xff\n")
    if command == "preprocess":
        argv = [command, "--corpus", str(workspace["corpus"]),
                "--out-dir", str(tmp_path / "out")]
    else:
        source = tmp_path / "unit.c"
        source.write_text("int add(int a, int b) { return a + b; }\n")
        argv = [command, "--stage1", str(workspace["s1"]),
                "--stage2", str(workspace["s2"]),
                "--vocab", str(workspace["data"] / "vocab.txt"), str(source)]
    code = main([*argv, "--preserve-api-names", str(keep)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(
        f"error: {keep}: line 2: byte 0xff at character 7 is not UTF-8")


class TestEvaluate:
    @pytest.mark.parametrize("first, second, flag, found", MISMATCHED_PAIRS)
    def test_mismatched_model_pair_is_usage_error(self, workspace, capsys,
                                                  first, second, flag, found):
        code = main(["evaluate", "--stage1", str(workspace[first]),
                     "--stage2", str(workspace[second]),
                     "--data", str(workspace["data"])])
        assert_pair_refused(workspace, capsys, code, flag, found)

    def test_stage1_only_text(self, workspace, capsys):
        assert main(["evaluate", "--stage1", str(workspace["s1"]),
                     "--data", str(workspace["data"])]) == 0
        text = capsys.readouterr().out
        assert "stage 1 (binary detector)" in text
        assert "cascade" not in text

    def test_cascade_text(self, workspace, capsys):
        assert main(["evaluate", "--stage1", str(workspace["s1"]),
                     "--stage2", str(workspace["s2"]),
                     "--data", str(workspace["data"])]) == 0
        text = capsys.readouterr().out
        assert "stage 2 (class classifier" in text
        assert "cascade: stage-2 evaluated on " in text
        assert "end-to-end accuracy" in text

    def test_json_report_structure(self, workspace, capsys):
        assert main(["evaluate", "--stage1", str(workspace["s1"]),
                     "--stage2", str(workspace["s2"]),
                     "--data", str(workspace["data"]), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"stage1", "stage1_confusion", "stage2", "cascade"}
        cascade = report["cascade"]
        assert 0 <= cascade["stage2_evaluated"] <= cascade["samples"]

    def test_threshold_pins_cascade_volume(self, workspace, capsys):
        # a near-zero threshold marks every sample vulnerable, a near-one
        # threshold marks none, so the lazy second stage sees all or nothing
        for threshold, expect_all in (("0.000000001", True), ("0.999999999", False)):
            assert main(["evaluate", "--stage1", str(workspace["s1"]),
                         "--stage2", str(workspace["s2"]),
                         "--data", str(workspace["data"]),
                         "--threshold", threshold, "--json"]) == 0
            report = json.loads(capsys.readouterr().out)
            cascade = report["cascade"]
            expected = cascade["samples"] if expect_all else 0
            assert cascade["stage2_evaluated"] == expected

    def test_no_vulnerable_test_rows(self, tmp_path, capsys):
        # one sample per CWE: the stratified split puts each into train, so
        # the stage-2 test archive is empty
        corpus = tmp_path / "corpus.jsonl"
        with open(corpus, "w", encoding="utf-8") as fh:
            for i, body in enumerate(CLEAN_BODIES):
                fh.write(json.dumps(
                    {"code": body, "vulnerable": 0, "id": f"clean-{i}"}) + "\n")
            for cwe, (tmpl, _) in VULN_TEMPLATES.items():
                fh.write(json.dumps({"code": tmpl.format(i=0), "vulnerable": 1,
                                     "cwe": cwe, "id": cwe}) + "\n")
        data, s1, s2 = tmp_path / "data", tmp_path / "s1.vcmd", tmp_path / "s2.vcmd"
        assert main(["preprocess", "--corpus", str(corpus), "--out-dir", str(data)]) == 0
        for stage, out in (("1", s1), ("2", s2)):
            assert main(["train", "--stage", stage, "--data", str(data),
                         "--out", str(out), "--epochs", "1"]) == 0
        assert load_archive(str(data / "stage2_test.vcen")).count == 0
        capsys.readouterr()

        evaluate = ["evaluate", "--stage1", str(s1), "--stage2", str(s2),
                    "--data", str(data)]
        assert main(evaluate) == 0
        text = capsys.readouterr().out
        assert "stage 1 (binary detector)" in text
        assert "stage 2: no vulnerable test samples" in text
        assert "stage 2 (class classifier" not in text
        assert "cascade: stage-2 evaluated on " in text

        assert main(evaluate + ["--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["stage2"] is None
        assert report["cascade"]["samples"] == load_archive(
            str(data / "stage1_test.vcen")).count

    def test_missing_model_is_usage_error(self, workspace, tmp_path, capsys):
        assert main(["evaluate", "--stage1", str(tmp_path / "ghost.vcmd"),
                     "--data", str(workspace["data"])]) == 2

    def test_stage2_without_label_map_is_usage_error(self, workspace, capsys,
                                                     unlabeled_s2):
        code = main(["evaluate", "--stage1", str(workspace["s1"]),
                     "--stage2", str(unlabeled_s2),
                     "--data", str(workspace["data"])])
        assert_no_label_map_refused(code, capsys)

    def test_stage2_model_of_another_class_count_is_refused(self, workspace,
                                                            tmp_path, capsys):
        model, header = load_model(str(workspace["s2"]))
        wider = build_model(stage2_spec(model.spec.vocab_size, 4), seed=0)
        path = tmp_path / "wider_s2.vcmd"
        save_model(wider, str(path), header.vocab_hash,
                   LabelMap(header.label_map.classes + ["CWE-787"]))
        code = main(["evaluate", "--stage1", str(workspace["s1"]),
                     "--stage2", str(path), "--data", str(workspace["data"])])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        test2 = workspace["data"] / "stage2_test.vcen"
        assert f"--stage2 {path} names 4 classes, but {test2} holds 3" in captured.err

    def test_threshold_outside_unit_interval_is_usage_error(self, workspace, capsys):
        stage2 = ["--stage2", str(workspace["s2"])]
        for bad in ("1.5", "0", "-3", "1", "nan"):
            for extra in ([], stage2):
                with pytest.raises(SystemExit) as info:
                    main(["evaluate", "--stage1", str(workspace["s1"]), *extra,
                          "--data", str(workspace["data"]), "--threshold", bad])
                assert info.value.code == 2
        assert "strictly between 0 and 1" in capsys.readouterr().err


class TestScan:
    @pytest.fixture
    def tree(self, tmp_path):
        d = tmp_path / "src"
        d.mkdir()
        (d / "math_ops.c").write_text(
            "int add(int a, int b) { return a + b; }\n"
            "int sub(int a, int b) { return a - b; }\n")
        (d / "buffer.cpp").write_text(
            "void risky(char *s) { char buf[8]; strcpy(buf, s); }\n")
        (d / "notes.txt").write_text("not source\n")
        return d

    def scan(self, workspace, *extra):
        return main(["scan", "--stage1", str(workspace["s1"]),
                     "--stage2", str(workspace["s2"]),
                     "--vocab", str(workspace["data"] / "vocab.txt"), *extra])

    def test_low_threshold_flags_everything(self, workspace, tree, capsys):
        code = self.scan(workspace, "--threshold", "0.000000001", str(tree))
        text = capsys.readouterr().out
        assert code == 1
        assert text.count("VULNERABLE") == 2  # two source files, .txt skipped
        assert "CWE-" in text
        assert "2 vulnerable" in text

    def test_every_cpp_suffix_is_scanned(self, workspace, tree, capsys):
        (tree / "shapes.hpp").write_text("int area(int w, int h) { return w * h; }\n")
        (tree / "vec.cxx").write_text("int dot(int a, int b) { return a * b; }\n")
        assert self.scan(workspace, "--json", str(tree)) in (0, 1)
        units = [f["unit"] for f in json.loads(capsys.readouterr().out)["findings"]]
        # sorted walk; notes.txt is still skipped
        assert units == [str(tree / name) for name in
                         ("buffer.cpp", "math_ops.c", "shapes.hpp", "vec.cxx")]

    def test_high_threshold_flags_nothing(self, workspace, tree, capsys):
        code = self.scan(workspace, "--threshold", "0.999999999", str(tree))
        text = capsys.readouterr().out
        assert code == 0
        assert "VULNERABLE" not in text
        assert "0 vulnerable" in text

    def test_per_function_units(self, workspace, tree, capsys):
        code = self.scan(workspace, "--per-function",
                         "--threshold", "0.999999999", str(tree))
        assert code == 0
        text = capsys.readouterr().out
        assert "add()" in text and "sub()" in text and "risky()" in text

    def test_json_findings(self, workspace, tree, capsys):
        code = self.scan(workspace, "--json", "--threshold", "0.000000001",
                         str(tree / "buffer.cpp"))
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["scanned"] == 1
        assert report["vulnerable"] == 1
        finding = report["findings"][0]
        assert finding["verdict"] == "vulnerable"
        assert finding["cwe"].startswith("CWE-")
        assert 0.0 < finding["stage1_probability"] < 1.0

    def test_json_reports_tokens_and_truncation(self, workspace, tmp_path, capsys):
        # each "x = x + 1;" normalizes to six tokens: 611 in all, past the
        # 500-id stage-1 window
        grow = "int grow(int x) { " + "x = x + 1; " * 100 + "return x; }"
        add = "int add(int a, int b) { return a + b; }"
        source = tmp_path / "two.c"
        source.write_text(grow + "\n" + add + "\n")
        self.scan(workspace, "--per-function", "--json", str(source))
        findings = json.loads(capsys.readouterr().out)["findings"]
        got = {f["unit"].split()[-1]: (f["tokens"], f["truncated"])
               for f in findings}
        assert got == {"grow()": (len(normalize_source(grow)), True),
                       "add()": (len(normalize_source(add)), False)}
        assert got["grow()"][0] > 500 > got["add()"][0]

    def test_directories_walked_in_sorted_order(self, workspace, tmp_path, capsys):
        root = tmp_path / "tree"
        for name in ("zeta", "alpha", "mid", "beta"):
            (root / name / "inner").mkdir(parents=True)
            (root / name / "b.c").write_text("int f(void) { return 0; }\n")
            (root / name / "inner" / "a.c").write_text("int g(void) { return 1; }\n")
        (root / "top.c").write_text("int h(void) { return 2; }\n")
        self.scan(workspace, "--json", str(root))
        units = [f["unit"] for f in json.loads(capsys.readouterr().out)["findings"]]
        expected = [str(root / "top.c")]
        for name in ("alpha", "beta", "mid", "zeta"):
            expected += [str(root / name / "b.c"), str(root / name / "inner" / "a.c")]
        assert units == expected

    def test_unreadable_file_counts_as_error(self, workspace, tmp_path, capsys):
        ghost = tmp_path / "ghost.c"
        code = self.scan(workspace, "--json", str(ghost))
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out)["errors"] == 1
        assert "error" in captured.err

    def test_threshold_outside_unit_interval_is_usage_error(self, workspace,
                                                           tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            self.scan(workspace, "--threshold", "7", str(tmp_path))
        assert info.value.code == 2
        assert "strictly between 0 and 1" in capsys.readouterr().err

    def test_one_batch_per_model_per_file(self, workspace, tmp_path, capsys,
                                          monkeypatch):
        bodies = [CLEAN_BODIES[0], CLEAN_BODIES[3], CLEAN_BODIES[8],
                  VULN_TEMPLATES["CWE-121"][0].format(i=0),
                  VULN_TEMPLATES["CWE-190"][0].format(i=1),
                  VULN_TEMPLATES["CWE-476"][0].format(i=2)]
        source = tmp_path / "six.c"
        source.write_text("\n".join(bodies) + "\n")
        # a threshold between the middle two detector probabilities sends
        # about half of the functions to stage 2
        self.scan(workspace, "--per-function", "--json",
                  "--threshold", "0.999999999", str(source))
        probs = sorted(f["stage1_probability"]
                       for f in json.loads(capsys.readouterr().out)["findings"])
        threshold = (probs[2] + probs[3]) / 2

        loaded = []
        loader = cli.load_model

        def capture(path):
            model, header = loader(path)
            loaded.append(model)
            return model, header

        monkeypatch.setattr(cli, "load_model", capture)
        self.scan(workspace, "--per-function", "--json",
                  "--threshold", repr(threshold), str(source))
        report = json.loads(capsys.readouterr().out)
        vulnerable = report["vulnerable"]
        stage1, stage2 = loaded
        assert report["scanned"] == len(bodies)
        assert 0 < vulnerable < len(bodies)
        assert (stage1.forward_calls, stage1.eval_samples) == (1, len(bodies))
        assert (stage2.forward_calls, stage2.eval_samples) == (1, vulnerable)

    @pytest.mark.parametrize("first, second, flag, found", MISMATCHED_PAIRS)
    def test_mismatched_model_pair_is_usage_error(self, workspace, tree, capsys,
                                                  first, second, flag, found):
        # read as a detector, a stage-2 model's class-0 softmax would call
        # every unit clean
        code = main(["scan", "--stage1", str(workspace[first]),
                     "--stage2", str(workspace[second]),
                     "--vocab", str(workspace["data"] / "vocab.txt"),
                     "--per-function", str(tree)])
        assert_pair_refused(workspace, capsys, code, flag, found)

    def test_foreign_vocab_rejected(self, workspace, tree, tmp_path, capsys):
        other = tmp_path / "other_vocab.txt"
        other.write_text("<PAD>\n<UNK>\nint\nreturn\n")
        assert main(["scan", "--stage1", str(workspace["s1"]),
                     "--stage2", str(workspace["s2"]),
                     "--vocab", str(other), str(tree)]) == 2
        assert "error" in capsys.readouterr().err

    def test_stage2_without_label_map_is_usage_error(self, workspace, tree, capsys,
                                                     unlabeled_s2):
        code = main(["scan", "--stage1", str(workspace["s1"]),
                     "--stage2", str(unlabeled_s2),
                     "--vocab", str(workspace["data"] / "vocab.txt"), str(tree)])
        assert_no_label_map_refused(code, capsys)


class TestSmoteReport:
    def test_table(self, workspace, capsys):
        assert main(["smote-report", "--data", str(workspace["data"])]) == 0
        text = capsys.readouterr().out
        assert "before" in text and "after" in text
        assert "total" in text

    def test_json_balances_classes(self, workspace, capsys):
        assert main(["smote-report", "--data", str(workspace["data"]),
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        target = max(report["before"].values())
        assert set(report["after"].values()) == {target}
        assert len(report["before"]) == 3

    def test_small_class_warning_is_one_plain_line(self, workspace, capsys):
        assert main(["smote-report", "--data", str(workspace["data"])]) == 0
        err = capsys.readouterr().err
        assert "warning: class 1 has only 4 samples (k=5); " in err
        assert "UserWarning" not in err and ".py:" not in err

    def test_foreign_vocab_rejected(self, workspace, tmp_path, capsys):
        # a foreign vocabulary would change the id clamp of the synthetic rows
        data = tmp_path / "tampered"
        shutil.copytree(workspace["data"], data)
        lines = (data / "vocab.txt").read_text().splitlines()
        (data / "vocab.txt").write_text("\n".join(lines + ["extra"]) + "\n")
        assert main(["smote-report", "--data", str(data)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "vocabulary hash mismatch" in captured.err

    @pytest.mark.parametrize("removed", [["--k", "2"], ["--seed", "3"]])
    def test_removed_options_are_usage_errors(self, workspace, capsys, removed):
        # the report balances with the k and seed that train --stage 2 uses
        with pytest.raises(SystemExit) as info:
            main(["smote-report", "--data", str(workspace["data"]), *removed])
        assert info.value.code == 2
        assert f"unrecognized arguments: {' '.join(removed)}" in capsys.readouterr().err


class TestManifests:
    def test_record_the_parsed_argv_not_the_host_argv(self, workspace, tmp_path,
                                                     monkeypatch):
        # an in-process caller's own command line is not the command run
        monkeypatch.setattr(sys, "argv", ["host-program", "--host-flag"])
        data, out = tmp_path / "data", tmp_path / "s1.vcmd"
        preprocess = ["preprocess", "--corpus", str(workspace["corpus"]),
                      "--out-dir", str(data)]
        train = ["train", "--stage", "1", "--data", str(data), "--out", str(out),
                 "--epochs", "1"]
        assert main(preprocess) == 0
        assert main(train) == 0
        manifest = json.loads((data / "preprocess_manifest.json").read_text())
        assert (manifest["command"], manifest["argv"]) == ("preprocess", preprocess)
        manifest = json.loads((tmp_path / "s1.vcmd.manifest.json").read_text())
        assert (manifest["command"], manifest["argv"]) == ("train", train)

    def test_main_without_argv_parses_and_records_sys_argv(self, workspace,
                                                          tmp_path, monkeypatch):
        preprocess = ["preprocess", "--corpus", str(workspace["corpus"]),
                      "--out-dir", str(tmp_path)]
        monkeypatch.setattr(sys, "argv", ["vulncascade", *preprocess])
        assert main() == 0
        manifest = json.loads((tmp_path / "preprocess_manifest.json").read_text())
        assert manifest["argv"] == preprocess


README = Path(__file__).resolve().parents[1] / "README.md"


def subcommand_options():
    """The option strings of each vulncascade subcommand, by its name."""
    parser = cli.build_parser()
    sub, = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    return {name: {opt for action in p._actions for opt in action.option_strings}
            for name, p in sub.choices.items()}


def test_readme_flags_match_the_parser():
    options = subcommand_options()
    text = README.read_text(encoding="utf-8")
    # an inline span that holds one flag alone, like `--per-function`
    spans = set(re.findall(r"`(--[\w-]+)`", text))
    assert spans and spans <= set().union(*options.values()), spans
    # a code-block line that runs a subcommand, joined across trailing
    # backslashes, uses only that subcommand's options
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, re.M | re.S)
    lines = [line for block in blocks
             for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("vulncascade ")]
    assert lines
    for line in lines:
        command, *words = line.split()[1:]
        assert command in options, line
        flags = {w.split("=")[0] for w in words if w.startswith("-")}
        assert flags <= options[command], line


class TestTopLevel:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert "vulncascade" in capsys.readouterr().out
