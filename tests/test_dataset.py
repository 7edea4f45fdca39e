import json
import re

import numpy as np
import pytest

from vulncascade.dataset import (
    ClassStats,
    CorpusSample,
    LabelMap,
    build_label_map,
    class_stats,
    load_corpus,
    parse_corpus_line,
    split,
)
from vulncascade.errors import (
    CorpusFormatError,
    EmptyCorpusError,
    NoVulnerableSamplesError,
    TooFewSamplesError,
)


def line(**kw):
    return json.dumps(kw)


def write_corpus(tmp_path, lines, name="corpus.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


class TestParseLine:
    def test_vulnerable_sample(self):
        s = parse_corpus_line(line(code="int x;", vulnerable=1, cwe="CWE-121"))
        assert s.vulnerable and s.cwe == "CWE-121"

    def test_clean_sample(self):
        s = parse_corpus_line(line(code="int x;", vulnerable=0))
        assert not s.vulnerable and s.cwe is None

    def test_optional_id(self):
        s = parse_corpus_line(line(code="x", vulnerable=0, id="sample-7"))
        assert s.source_id == "sample-7"

    @pytest.mark.parametrize("bad", [
        line(vulnerable=0),                              # code missing
        line(code=5, vulnerable=0),                      # code not a string
        line(code="x", vulnerable=2),                    # label out of range
        line(code="x", vulnerable=1),                    # cwe required
        line(code="x", vulnerable=1, cwe="xss"),         # malformed cwe
        line(code="x", vulnerable=1, cwe="CWE-"),        # malformed cwe
        line(code="x", vulnerable=1, cwe="CWE-\u0661\u0662\u0661"),  # Arabic digits
        line(code="x", vulnerable=0, cwe="CWE-79"),      # cwe on clean sample
        "not json at all",
        "[1, 2]",                                        # not an object
    ])
    def test_rejections(self, bad):
        with pytest.raises(CorpusFormatError):
            parse_corpus_line(bad)

    @pytest.mark.parametrize("field", ["code", "cwe", "id"])
    def test_string_that_is_not_utf8_is_refused(self, field):
        # JSON's escape of a lone surrogate decodes to a str that no UTF-8
        # file can hold
        record = {"code": "int x;", "vulnerable": 1, "cwe": "CWE-121", "id": "a"}
        record[field] = "ab\ud800"
        with pytest.raises(CorpusFormatError,
                           match=f"^'{field}' holds U\\+D800 at character 3, which is not UTF-8$"):
            parse_corpus_line(json.dumps(record))


class TestLoadCorpus:
    def test_loads_and_defaults_ids(self, tmp_path):
        path = write_corpus(tmp_path, [
            line(code="a", vulnerable=0),
            "",
            line(code="b", vulnerable=1, cwe="CWE-20"),
        ])
        samples = load_corpus(path)
        assert [s.code for s in samples] == ["a", "b"]
        assert samples[0].source_id == "line-1"
        assert samples[1].source_id == "line-3"

    def test_diagnostics_carry_line_numbers(self, tmp_path):
        path = write_corpus(tmp_path, [
            line(code="a", vulnerable=0),
            "garbage",
            line(code="b", vulnerable=0),
        ])
        diags = []
        samples = load_corpus(path, diags)
        assert len(samples) == 2
        assert [d.line_no for d in diags] == [2]

    def test_mostly_malformed_corpus_rejected(self, tmp_path):
        lines = [line(code="ok", vulnerable=0)] * 8 + ["junk"] * 4
        path = write_corpus(tmp_path, lines)
        with pytest.raises(CorpusFormatError):
            load_corpus(path)

    def test_small_corpus_tolerates_bad_lines(self, tmp_path):
        # below ten lines the malformed-share guard stays quiet
        path = write_corpus(tmp_path, [line(code="ok", vulnerable=0), "junk"])
        assert len(load_corpus(path)) == 1

    def test_empty_corpus(self, tmp_path):
        path = write_corpus(tmp_path, [""])
        with pytest.raises(EmptyCorpusError, match=f"^{re.escape(str(path))}: "):
            load_corpus(path)

    def test_undecodable_line_is_a_diagnostic(self, tmp_path):
        lines = [line(code=f"int v{i};", vulnerable=0) for i in range(5)]
        path = write_corpus(tmp_path, lines)
        with open(path, "ab") as fh:
            fh.write(b'{"code": "x\xff", "vulnerable": 0}\n')
        diags = []
        samples = load_corpus(path, diags)
        assert [s.code for s in samples] == [f"int v{i};" for i in range(5)]
        assert [d.line_no for d in diags] == [6]
        assert diags[0].message == "byte 0xff at character 12 is not UTF-8"

    @pytest.mark.parametrize("hostile, why", [
        ("[" * 100_000, "maximum recursion depth exceeded"),
        ('{"code": "x", "vulnerable": 0, "n": ' + "9" * 5000 + "}",
         "Exceeds the limit (4300 digits)"),
    ], ids=["deep-nesting", "5000-digits"])
    def test_line_that_json_refuses_is_a_diagnostic(self, tmp_path, hostile, why):
        # json raises RecursionError or a plain ValueError, not
        # JSONDecodeError; either is one malformed line
        lines = [line(code=f"int v{i};", vulnerable=0) for i in range(11)]
        path = write_corpus(tmp_path, [*lines[:6], hostile, *lines[6:]])
        diags = []
        samples = load_corpus(path, diags)
        assert [s.code for s in samples] == [f"int v{i};" for i in range(11)]
        assert [d.line_no for d in diags] == [7]
        assert diags[0].message.startswith(f"not valid JSON: {why}")

    def test_undecodable_lines_count_toward_the_bound(self, tmp_path):
        # 3 of 10 lines malformed is over the 20% bound
        path = tmp_path / "corpus.jsonl"
        good = line(code="ok", vulnerable=0).encode() + b"\n"
        path.write_bytes(good * 4 + b"\xff\xfe\n" + good * 3 + b"\x80{}\n" * 2)
        with pytest.raises(CorpusFormatError) as info:
            load_corpus(path)
        assert str(info.value) == (
            f"{path}: 3 of 10 lines malformed; first: "
            "line 5: byte 0xff at character 1 is not UTF-8")

    def test_lines_still_split_at_every_line_break(self, tmp_path):
        # the file is read as text: a lone "\r" ends a line, as before
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(line(code="a", vulnerable=0).encode() + b"\r"
                         + line(code="b", vulnerable=0).encode() + b"\r\n")
        assert [s.code for s in load_corpus(path)] == ["a", "b"]


class TestLabelMap:
    def test_order_by_frequency_then_name(self):
        samples = (
            [CorpusSample("x", 1, "CWE-787", "")] * 3
            + [CorpusSample("x", 1, "CWE-121", "")] * 3
            + [CorpusSample("x", 1, "CWE-20", "")] * 5
            + [CorpusSample("x", 0, None, "")] * 4
        )
        lm = build_label_map(samples)
        assert lm.classes == ["CWE-20", "CWE-121", "CWE-787"]

    def test_round_trip_index(self):
        lm = LabelMap(["CWE-1", "CWE-2"])
        assert lm.index_of("CWE-2") == 1
        assert lm.cwe_of(1) == "CWE-2"
        assert len(lm) == 2

    def test_no_vulnerable_samples(self):
        with pytest.raises(NoVulnerableSamplesError):
            build_label_map([CorpusSample("x", 0, None, "")])

    def test_duplicate_classes_rejected(self):
        with pytest.raises(ValueError):
            LabelMap(["CWE-1", "CWE-1"])

    def test_save_load(self, tmp_path):
        lm = LabelMap(["CWE-121", "CWE-20"])
        path = tmp_path / "labels.json"
        lm.save(path)
        assert LabelMap.load(path).classes == ["CWE-121", "CWE-20"]


def corpus_for_split(n_clean=20, cwe_counts=(10, 5)):
    samples = [CorpusSample(f"c{i}", 0, None, f"clean-{i}")
               for i in range(n_clean)]
    for k, count in enumerate(cwe_counts):
        cwe = f"CWE-{100 + k}"
        samples += [CorpusSample(f"v{k}-{i}", 1, cwe, f"{cwe}-{i}")
                    for i in range(count)]
    return samples


class TestSplit:
    def test_sizes_and_disjointness(self):
        samples = corpus_for_split()
        train, test = split(samples, 42)
        assert len(train) + len(test) == len(samples)
        train_ids = {s.source_id for s in train}
        test_ids = {s.source_id for s in test}
        assert not train_ids & test_ids

    def test_stratified_fractions(self):
        samples = corpus_for_split(n_clean=50, cwe_counts=(30, 20))
        train, test = split(samples, 42)
        for key, total in (("CWE-100", 30), ("CWE-101", 20)):
            got = sum(1 for s in train if s.cwe == key)
            assert got == round(0.8 * total)
        assert sum(1 for s in train if not s.vulnerable) == 40

    def test_deterministic_for_seed(self):
        samples = corpus_for_split()
        a = split(samples, 42)
        b = split(samples, 42)
        assert [s.source_id for s in a[0]] == [s.source_id for s in b[0]]
        c = split(samples, 43)
        assert [s.source_id for s in a[0]] != [s.source_id for s in c[0]]

    def test_tiny_buckets_keep_one_sample_each_side(self):
        samples = corpus_for_split(n_clean=2, cwe_counts=(2,))
        # round(0.8 * 2) == 2 puts both clean samples in train before the clamp
        train, test = split(samples, 42)
        assert any(not s.vulnerable for s in train)
        assert any(not s.vulnerable for s in test)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamplesError):
            split([CorpusSample("x", 0, None, "")], 42)


class TestStats:
    def test_counts(self):
        stats = class_stats(corpus_for_split(n_clean=6, cwe_counts=(3, 1)))
        assert stats.total == 10
        assert stats.non_vulnerable == 6
        assert stats.vulnerable == 4
        assert stats.per_cwe == {"CWE-100": 3, "CWE-101": 1}

    def test_table_mentions_every_class(self):
        stats = class_stats(corpus_for_split(n_clean=4, cwe_counts=(2, 2)))
        table = stats.format_table()
        assert "CWE-100" in table and "CWE-101" in table

    def test_as_dict_round_trips_through_json(self):
        stats = class_stats(corpus_for_split())
        assert json.loads(json.dumps(stats.as_dict()))["total"] == stats.total

    def test_as_dict_key_order(self):
        # preprocess --json prints these keys in this order, per_cwe sorted
        out = ClassStats(total=3, vulnerable=3, per_cwe={"CWE-9": 1, "CWE-10": 2}).as_dict()
        assert list(out) == ["total", "non_vulnerable", "vulnerable", "per_cwe",
                             "binary_ratio", "cwe_ratio"]
        assert list(out["per_cwe"]) == ["CWE-10", "CWE-9"]
