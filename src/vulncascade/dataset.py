"""Corpus ingestion, CWE label mapping, train/test splits and class statistics.

The corpus format is JSON lines, one sample per line:

    {"code": "...", "vulnerable": 0|1, "cwe": "CWE-121", "id": "optional"}

``cwe`` is required exactly when ``vulnerable`` is 1.  Bad lines, a line
that is not UTF-8 among them, are collected as diagnostics rather than
aborting the load, up to a sanity threshold.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    CorpusFormatError,
    EmptyCorpusError,
    NoVulnerableSamplesError,
    SpecCorruptError,
    TooFewSamplesError,
)
from .normalizer import undecoded_byte

_CWE_RE = re.compile(r"^CWE-\d+$")

# each class's share of the training split
TRAIN_FRACTION = 0.8


@dataclass
class CorpusSample:
    code: str
    vulnerable: bool
    cwe: str | None = None
    source_id: str = ""


@dataclass
class LineDiagnostic:
    line_no: int  # 1-based
    message: str


class LabelMap:
    """Bijection between CWE texts and contiguous class indices."""

    def __init__(self, classes: list[str]):
        self.classes = list(classes)
        self.cwe_to_index = {c: i for i, c in enumerate(self.classes)}
        if len(self.cwe_to_index) != len(self.classes):
            raise ValueError("duplicate CWE in label map")

    def __len__(self) -> int:
        return len(self.classes)

    def index_of(self, cwe: str) -> int:
        return self.cwe_to_index[cwe]

    def cwe_of(self, index: int) -> str:
        return self.classes[index]

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"classes": self.classes}, fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "LabelMap":
        """SpecCorruptError, naming the file, unless it holds what save writes."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except ValueError as exc:  # undecodable bytes or bad JSON
            raise SpecCorruptError(f"{path}: {exc}") from exc
        classes = data.get("classes") if isinstance(data, dict) else None
        if (not isinstance(classes, list) or not classes
                or not all(isinstance(c, str) for c in classes)
                or len(set(classes)) != len(classes)):
            raise SpecCorruptError(
                f'{path}: "classes" must be a non-empty list of distinct CWE strings')
        return cls(classes)


def parse_corpus_line(line: str) -> CorpusSample:
    """Parse one JSONL record, raising CorpusFormatError with a reason."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CorpusFormatError(f"not valid JSON: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise CorpusFormatError("record is not a JSON object")
    if "code" not in obj or not isinstance(obj["code"], str):
        raise CorpusFormatError("missing or non-string 'code' field")
    if "vulnerable" not in obj or obj["vulnerable"] not in (0, 1, True, False):
        raise CorpusFormatError("missing or non-boolean 'vulnerable' field")
    vulnerable = bool(obj["vulnerable"])
    cwe = obj.get("cwe")
    if vulnerable:
        if not isinstance(cwe, str) or not _CWE_RE.match(cwe):
            raise CorpusFormatError(
                "vulnerable sample needs a well-formed 'cwe' (CWE-<digits>)")
    else:
        if cwe is not None:
            raise CorpusFormatError("non-vulnerable sample must not carry a 'cwe'")
        cwe = None
    return CorpusSample(
        code=obj["code"],
        vulnerable=vulnerable,
        cwe=cwe,
        source_id=str(obj.get("id", "")),
    )


def load_corpus(
    path, diagnostics: list[LineDiagnostic] | None = None
) -> list[CorpusSample]:
    """Read a JSONL corpus; rejected lines go to diagnostics with line numbers.

    A line holding a byte that is not UTF-8 is malformed; the rest load.
    Raises CorpusFormatError when a corpus of at least ten non-empty lines has
    more than 20% of them malformed, and EmptyCorpusError when nothing valid
    remains; both messages start with the path.  Tiny corpora tolerate bad
    lines so a hand-rolled smoke file with one typo still loads.
    """
    samples: list[CorpusSample] = []
    local_diags: list[LineDiagnostic] = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                if why := undecoded_byte(line):
                    raise CorpusFormatError(why)
                sample = parse_corpus_line(line)
            except CorpusFormatError as exc:
                local_diags.append(LineDiagnostic(line_no, str(exc)))
                continue
            if not sample.source_id:
                sample.source_id = f"line-{line_no}"
            samples.append(sample)
    if diagnostics is not None:
        diagnostics.extend(local_diags)
    total = len(samples) + len(local_diags)
    if total >= 10 and len(local_diags) > 0.2 * total:
        raise CorpusFormatError(
            f"{path}: {len(local_diags)} of {total} lines malformed; first: "
            f"line {local_diags[0].line_no}: {local_diags[0].message}"
        )
    if not samples:
        raise EmptyCorpusError(f"{path}: no valid samples")
    return samples


def build_label_map(samples: list[CorpusSample]) -> LabelMap:
    """Class indices by descending CWE frequency, ties lexicographic."""
    counts = Counter(s.cwe for s in samples if s.vulnerable and s.cwe)
    if not counts:
        raise NoVulnerableSamplesError("corpus has no vulnerable samples to label")
    ordered = sorted(counts, key=lambda c: (-counts[c], c))
    return LabelMap(ordered)


def _strat_key(sample: CorpusSample) -> str:
    return sample.cwe if sample.vulnerable and sample.cwe else ""


def split(
    samples: list[CorpusSample], seed: int = 42
) -> tuple[list[CorpusSample], list[CorpusSample]]:
    """Disjoint, exhaustive train/test partition with a seeded shuffle.

    The partition is stratified: each class (CWE for vulnerable samples, one
    shared bucket for clean ones) is split on its own, so per-class
    proportions stay within one sample of TRAIN_FRACTION.
    """
    if len(samples) < 2:
        raise TooFewSamplesError("need at least 2 samples to split")
    rng = np.random.default_rng(seed)
    train: list[CorpusSample] = []
    test: list[CorpusSample] = []
    buckets: dict[str, list[int]] = {}
    for i, s in enumerate(samples):
        buckets.setdefault(_strat_key(s), []).append(i)
    for key in sorted(buckets):
        idx = np.array(buckets[key])
        rng.shuffle(idx)
        n_train = int(round(TRAIN_FRACTION * len(idx)))
        if len(idx) >= 2:
            n_train = min(max(n_train, 1), len(idx) - 1)
        train.extend(samples[i] for i in idx[:n_train])
        test.extend(samples[i] for i in idx[n_train:])
    return train, test


@dataclass
class ClassStats:
    total: int = 0
    non_vulnerable: int = 0
    vulnerable: int = 0
    per_cwe: dict[str, int] = field(default_factory=dict)
    binary_ratio: float = 0.0  # majority / minority over the two binary labels
    cwe_ratio: float = 0.0  # largest / smallest CWE class

    def as_dict(self) -> dict:
        return {**asdict(self), "per_cwe": dict(sorted(self.per_cwe.items()))}

    def format_table(self) -> str:
        lines = [
            f"{'samples':<20}{self.total:>8}",
            f"{'non-vulnerable':<20}{self.non_vulnerable:>8}",
            f"{'vulnerable':<20}{self.vulnerable:>8}",
        ]
        if self.per_cwe:
            lines.append("-" * 28)
            for cwe, n in sorted(self.per_cwe.items(), key=lambda kv: (-kv[1], kv[0])):
                lines.append(f"{cwe:<20}{n:>8}")
            lines.append("-" * 28)
            lines.append(f"{'binary imbalance':<20}{self.binary_ratio:>8.2f}")
            lines.append(f"{'cwe imbalance':<20}{self.cwe_ratio:>8.2f}")
        return "\n".join(lines)


def class_stats(samples: list[CorpusSample]) -> ClassStats:
    stats = ClassStats(total=len(samples))
    for s in samples:
        if s.vulnerable:
            stats.vulnerable += 1
            if s.cwe:
                stats.per_cwe[s.cwe] = stats.per_cwe.get(s.cwe, 0) + 1
        else:
            stats.non_vulnerable += 1
    if stats.vulnerable and stats.non_vulnerable:
        pair = (stats.vulnerable, stats.non_vulnerable)
        stats.binary_ratio = max(pair) / min(pair)
    if stats.per_cwe:
        counts = list(stats.per_cwe.values())
        stats.cwe_ratio = max(counts) / min(counts)
    return stats
