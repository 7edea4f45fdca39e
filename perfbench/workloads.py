"""The workloads: set-up, one closed-loop operation, output checks.

Each workload drives the ``vulncascade`` command line in-process through
``cli.main``, exactly as a user would call it, on inputs from ``gen``.
``setup`` runs in a child process (see run.py) and writes everything the
operations need into its directory, plus ``setup.json`` with the input-shape
counts and the digests that later runs are checked against.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import statistics
import time
from dataclasses import dataclass, field

import gen

from vulncascade import cli
from vulncascade.archive import load_archive
from vulncascade.serialize import load_model
from vulncascade.training import predict_batched


@dataclass
class OpResult:
    """One closed-loop operation: timed commands, work done, failed checks."""

    elapsed: float = 0.0
    samples: int = 0
    parts: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)


def invoke(argv: list[str]) -> tuple[int, str, str, float]:
    """Run one CLI command in-process; returns (exit code, stdout, stderr, s)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def run_cli(argv: list[str]) -> str:
    """Set-up helper: run a command that must succeed, return its stdout."""
    code, out, err, _ = invoke(argv)
    if code != 0:
        raise RuntimeError(f"vulncascade {argv[0]} exited {code}: {err.strip()}")
    return out


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def median_threshold(probs: list[float]) -> float:
    """Midpoint between the two middle probabilities, so that half of the
    units reach stage 2 whatever the briefly trained detector outputs."""
    ordered = sorted(probs)
    mid = len(ordered) // 2
    return (ordered[mid - 1] + ordered[mid]) / 2


def expected_split(bucket_sizes: list[int], fraction: float = 0.8) -> int:
    """Training rows of a stratified split: round(fraction * n) per bucket."""
    return sum(min(max(round(fraction * n), 1), n - 1) for n in bucket_sizes)


class Workload:
    paused = contextlib.nullcontext  # replaced by the runner when tracing

    def __init__(self, workdir: str):
        self.dir = workdir
        with open(os.path.join(workdir, "setup.json"), encoding="utf-8") as fh:
            self.setup_info = json.load(fh)
        self.shape = dict(self.setup_info["shape"])

    def path(self, *parts: str) -> str:
        return os.path.join(self.dir, *parts)

    def op(self, i: int) -> OpResult:
        raise NotImplementedError

    def run(self, i: int) -> OpResult:
        """op(i), counting an exception raised by the program or by a check
        on its output as a failed operation instead of ending the run."""
        try:
            return self.op(i)
        except Exception as exc:  # noqa: BLE001 - any breakage is a failed op
            return OpResult(failures=[f"op {i}: {type(exc).__name__}: {exc}"])

    def report(self, ops: list[OpResult]) -> list[tuple[str, float, str]]:
        """Workload-specific metrics (name, value, unit) for the text report."""
        return []


def _rate(ops: list[OpResult], part: str, rows: int) -> float:
    times = [op.parts[part] for op in ops if part in op.parts]
    return rows / statistics.median(times) if times else 0.0


# --- scan_functions ---------------------------------------------------------

def setup_scan(seed: int, d: str) -> dict:
    gen.write_jsonl(gen.scan_train_corpus(seed), os.path.join(d, "train.jsonl"))
    data = os.path.join(d, "data")
    run_cli(["preprocess", "--corpus", os.path.join(d, "train.jsonl"),
             "--out-dir", data, "--seed", str(seed)])
    for stage in (1, 2):
        run_cli(["train", "--stage", str(stage), "--data", data, "--epochs", "1",
                 "--seed", str(seed), "--out", os.path.join(d, f"stage{stage}.vcmd")])
    files = gen.scan_files(seed)
    os.makedirs(os.path.join(d, "src"))
    for f in files:
        with open(os.path.join(d, "src", f["name"]), "w", encoding="utf-8") as fh:
            fh.write(f["source"])
    # probe: a threshold no unit reaches gives every stage-1 probability
    probe = json.loads(run_cli(
        ["scan", "--stage1", os.path.join(d, "stage1.vcmd"),
         "--stage2", os.path.join(d, "stage2.vcmd"),
         "--vocab", os.path.join(data, "vocab.txt"),
         "--threshold", "0.999999", "--per-function", "--json",
         os.path.join(d, "src")]))
    per_file: dict[str, list[float]] = {}
    for f in probe["findings"]:
        per_file.setdefault(os.path.basename(f["unit"].split(":")[0]),
                            []).append(f["stage1_probability"])
    # one threshold per file sends exactly half of its units to stage 2, so
    # every op does the same work whatever the seed
    thresholds = {name: median_threshold(p) for name, p in per_file.items()}
    positives = sum(p >= thresholds[name]
                    for name, probs in per_file.items() for p in probs)
    return {
        "thresholds": thresholds,
        "probabilities": per_file,
        "shape": {"units": sum(f["units"] for f in files),
                  "tokens": sum(f["tokens"] for f in files),
                  "stage1_positives": positives,
                  "stage2_samples": positives,
                  "smote_rows": 0},
        "files": {f["name"]: f["units"] for f in files},
    }


class ScanFunctions(Workload):
    """One ``scan --per-function --json`` per file; op = one file."""

    def __init__(self, workdir: str):
        super().__init__(workdir)
        self.files = sorted(self.setup_info["files"])
        self.seen: dict[str, str] = {}
        self.argv = ["scan", "--stage1", self.path("stage1.vcmd"),
                     "--stage2", self.path("stage2.vcmd"),
                     "--vocab", self.path("data", "vocab.txt"),
                     "--per-function", "--json"]
        self.source_tokens = self.shape["tokens"] / len(self.files)

    def op(self, i: int) -> OpResult:
        name = self.files[i % len(self.files)]
        units = self.setup_info["files"][name]
        loaded = []
        loader = cli.load_model

        def capture(path):
            model, header = loader(path)
            loaded.append(model)
            return model, header

        cli.load_model = capture
        try:
            code, out, err, elapsed = invoke(
                self.argv + ["--threshold", repr(self.setup_info["thresholds"][name]),
                             self.path("src", name)])
        finally:
            cli.load_model = loader
        res = OpResult(elapsed=elapsed, samples=units)
        if code not in (0, 1):
            res.failures.append(f"{name}: exit {code}: {err.strip()}")
            return res
        report = json.loads(out)
        findings = report["findings"]
        vulnerable = sum(f["verdict"] == "vulnerable" for f in findings)
        stage1, stage2 = loaded
        if report["scanned"] != units:
            res.failures.append(f"{name}: scanned {report['scanned']} of {units}")
        if report["errors"] != 0:
            res.failures.append(f"{name}: {report['errors']} errors")
        if code != (1 if vulnerable else 0):
            res.failures.append(f"{name}: exit {code} with {vulnerable} findings")
        if stage1.eval_samples != units or stage2.eval_samples != vulnerable:
            res.failures.append(
                f"{name}: stage-1 saw {stage1.eval_samples}, stage-2 saw "
                f"{stage2.eval_samples}, {vulnerable} vulnerable")
        probs = [f["stage1_probability"] for f in findings]
        if probs != self.setup_info["probabilities"][name]:
            res.failures.append(f"{name}: stage-1 probabilities differ from set-up")
        text = json.dumps(findings, sort_keys=True).replace(self.path("src"), "")
        if self.seen.setdefault(name, text) != text:
            res.failures.append(f"{name}: findings differ from the first scan")
        res.parts["stage2_units"] = vulnerable
        return res

    def findings_digest(self) -> str:
        return digest("".join(self.seen[k] for k in sorted(self.seen)))

    def report(self, ops):
        lat = sorted(op.elapsed * 1000 for op in ops)
        q = statistics.quantiles(lat, n=10) if len(lat) >= 2 else [lat[0]] * 9
        units = sum(op.samples for op in ops)
        return [
            ("scan_units_per_s", units / sum(op.elapsed for op in ops), "1/s"),
            ("scan_file_p50_ms", statistics.median(lat), "ms"),
            ("scan_file_p90_ms", q[8], "ms"),
            ("scan_invocations", len(ops), "count"),
            ("scan_invocations_beyond_p90", sum(x > q[8] for x in lat), "count"),
            ("stage2_share",
             sum(op.parts.get("stage2_units", 0) for op in ops) / units, "share"),
        ]


# --- train_eval ---------------------------------------------------------------

def setup_train(seed: int, d: str) -> dict:
    records = gen.train_corpus(seed)
    gen.write_jsonl(records, os.path.join(d, "corpus.jsonl"))
    counts = list(gen.TRAIN_CWE_COUNTS.values())
    train_per_class = [expected_split([n]) for n in counts]
    balanced = max(train_per_class) * len(counts)
    stage1_rows = expected_split([gen.TRAIN_CLEAN] + counts)
    return {
        "seed": seed,
        # rows of each archive that preprocess writes (stratified split)
        "archives": {"stage1_train": stage1_rows,
                     "stage1_test": len(records) - stage1_rows,
                     "stage2_train": sum(train_per_class),
                     "stage2_test": sum(counts) - sum(train_per_class)},
        "rows": {"stage1_train": stage1_rows,
                 "stage2_train": balanced,
                 "test": len(records) - stage1_rows},
        "shape": {"units": len(records),
                  "tokens": sum(gen.count_tokens(r["code"]) for r in records),
                  "stage1_positives": 0, "stage2_samples": 0,
                  "smote_rows": balanced - sum(train_per_class)},
    }


EPOCHS = 1


class TrainEval(Workload):
    """Preprocess the corpus, train stage 1, train stage 2, evaluate both;
    op = the four commands."""

    def __init__(self, workdir: str):
        super().__init__(workdir)
        self.rows = self.setup_info["rows"]
        self.threshold = None
        self.logs = None
        self.vocab_hash = None
        self.source_tokens = self.shape["tokens"]

    def op(self, i: int) -> OpResult:
        data = self.path("data")
        res = OpResult()
        code, out, err, elapsed = invoke(
            ["preprocess", "--corpus", self.path("corpus.jsonl"), "--out-dir", data,
             "--seed", str(self.setup_info["seed"]), "--json"])
        res.parts["preprocess"] = elapsed
        if code != 0:
            res.failures.append(f"preprocess: exit {code}: {err.strip()}")
            res.elapsed = elapsed
            return res
        res.failures += self.check_archives(data, json.loads(out))
        logs = []
        for stage in (1, 2):
            code, out, err, elapsed = invoke(
                ["train", "--stage", str(stage), "--data", data,
                 "--epochs", str(EPOCHS), "--out", self.path(f"stage{stage}.vcmd")])
            res.parts[f"train{stage}"] = elapsed
            if code != 0:
                res.failures.append(f"train stage {stage}: exit {code}: {err.strip()}")
                res.elapsed = sum(res.parts.values())
                return res
            logs.append(out.replace(self.dir, ""))
            if stage == 1 and self.threshold is None:
                with self.paused():
                    model, _ = load_model(self.path("stage1.vcmd"))
                    test = load_archive(self.path("data", "stage1_test.vcen"))
                    probs = predict_batched(model, test.ids)[:, 0]
                self.threshold = median_threshold(probs.tolist())
                self.shape["stage1_positives"] = int((probs >= self.threshold).sum())
                self.shape["stage2_samples"] = self.shape["stage1_positives"]
        code, out, err, elapsed = invoke(
            ["evaluate", "--stage1", self.path("stage1.vcmd"),
             "--stage2", self.path("stage2.vcmd"), "--data", data,
             "--threshold", repr(self.threshold), "--json"])
        res.parts["evaluate"] = elapsed
        res.elapsed = sum(res.parts.values())
        res.samples = self.shape["units"] + (
            self.rows["stage1_train"] + self.rows["stage2_train"]) * EPOCHS \
            + self.rows["test"]
        if code != 0:
            res.failures.append(f"evaluate: exit {code}: {err.strip()}")
            return res
        report = json.loads(out)
        positives = sum(row[1] for row in report["stage1_confusion"])
        evaluated = report["cascade"]["stage2_evaluated"]
        if evaluated != positives or positives != self.shape["stage1_positives"]:
            res.failures.append(f"stage 2 evaluated {evaluated} samples for "
                                f"{positives} stage-1 positives")
        if self.logs is None:
            self.logs = logs
        elif logs != self.logs:
            res.failures.append("training log differs from the first cycle")
        return res

    def check_archives(self, data: str, summary: dict) -> list[str]:
        """Every archive loads back with the split's row counts and the
        vocabulary of vocab.txt, which must not change between ops."""
        failures = []
        with self.paused():
            archives = {name: load_archive(os.path.join(data, name + ".vcen"))
                        for name in self.setup_info["archives"]}
        with open(os.path.join(data, "vocab.txt"), encoding="utf-8") as fh:
            vocab_hash = hashlib.sha256(fh.read().encode("utf-8")).hexdigest()
        for name, want in self.setup_info["archives"].items():
            if archives[name].count != want:
                failures.append(f"{name}: {archives[name].count} rows, "
                                f"expected {want}")
        if summary["train"] != archives["stage1_train"].count:
            failures.append("train count in the summary differs from archive")
        if {a.vocab_hash for a in archives.values()} != {vocab_hash}:
            failures.append("archive vocabulary hash differs from vocab.txt")
        if self.vocab_hash not in (None, vocab_hash):
            failures.append("vocabulary hash changed between runs")
        self.vocab_hash = vocab_hash
        return failures

    def log_digest(self) -> str:
        return digest("".join(self.logs or []))

    def report(self, ops):
        return [
            ("preprocess_samples_per_s",
             _rate(ops, "preprocess", self.shape["units"]), "1/s"),
            ("stage1_train_samples_per_s",
             _rate(ops, "train1", self.rows["stage1_train"] * EPOCHS), "1/s"),
            ("stage2_train_samples_per_s",
             _rate(ops, "train2", self.rows["stage2_train"] * EPOCHS), "1/s"),
            ("evaluate_samples_per_s", _rate(ops, "evaluate", self.rows["test"]),
             "1/s"),
        ]


WORKLOADS = {
    "scan_functions": (setup_scan, ScanFunctions),
    "train_eval": (setup_train, TrainEval),
}
