"""Command line front end.

Subcommands: preprocess, train, evaluate, scan, smote-report.  Exit codes:
0 success (scan: no vulnerable findings), 1 scan found vulnerable code,
2 usage or input error, 3 runtime failure.  Every artifact-producing command
writes a JSON run manifest next to its outputs.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .archive import (
    LABEL_BINARY,
    LABEL_CLASS,
    EncodedArchive,
    load_archive,
    save_archive,
)
from .dataset import (
    LabelMap,
    SplitSpec,
    build_label_map,
    class_stats,
    load_corpus,
    split,
)
from .errors import (
    DivergenceError,
    NonFiniteLossError,
    PipelineError,
    VocabHashMismatchError,
)
from .models import (
    STAGE1_INPUT_LENGTH,
    STAGE2_INPUT_LENGTH,
    Verdict,
    build_model,
    predict_batched,
    predict_two_stage_encoded,
    stage1_spec,
    stage2_spec,
)
from .metrics import confusion, scores
from .normalizer import (
    load_preserve_list,
    normalize,
    normalize_source,
    split_functions,
    tokenize,
)
from .serialize import load_model, save_model
from .smote import SmoteConfig, class_histogram, group_by_class, oversample
from .training import TrainConfig, train
from .vocab import Vocabulary, build_vocab, decode, encode, encode_batch

SOURCE_SUFFIXES = (".c", ".cc", ".cpp", ".h")

STAGE_DEFAULTS = {
    1: {"optimizer": "adam", "batch_size": 64, "epochs": 10, "learning_rate": 0.005},
    2: {"optimizer": "adam", "batch_size": 32, "epochs": 50, "learning_rate": 0.001},
}


class CliError(Exception):
    """Input or configuration problem; maps to exit code 2."""


def probability(text: str) -> float:
    """argparse type for a cascade threshold: a float strictly in (0, 1)."""
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(
            f"{text} does not lie strictly between 0 and 1")
    return value


def _write_manifest(path: str, command: str, config: dict,
                    inputs: list[str], outputs: list[str],
                    started: float) -> None:
    manifest = {
        "command": command,
        "argv": sys.argv[1:],
        "package_version": __version__,
        "config": config,
        "inputs": inputs,
        "outputs": outputs,
        "started": datetime.datetime.fromtimestamp(
            started, datetime.timezone.utc).isoformat(),
        "duration_seconds": round(time.time() - started, 3),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_preserve(path: str | None) -> frozenset[str]:
    return load_preserve_list(path) if path else frozenset()


def cmd_preprocess(args) -> int:
    started = time.time()
    preserve = _load_preserve(args.preserve_api_names)
    diagnostics: list = []
    samples = load_corpus(args.corpus, diagnostics)
    for diag in diagnostics:
        print(f"warning: {args.corpus}:{diag.line_no}: {diag.message}",
              file=sys.stderr)

    spec = SplitSpec(train_fraction=args.train_fraction, seed=args.seed)
    train_set, test_set = split(samples, spec)
    label_map = build_label_map(samples)

    subsets = (("train", train_set), ("test", test_set))
    normalized = {name: [normalize_source(s.code, preserve=preserve)
                         for s in subset]
                  for name, subset in subsets}
    vocab = build_vocab(normalized["train"], min_freq=args.min_freq)

    os.makedirs(args.out_dir, exist_ok=True)
    vocab_path = os.path.join(args.out_dir, "vocab.txt")
    vocab.save(vocab_path)
    label_path = os.path.join(args.out_dir, "label_map.json")
    label_map.save(label_path)
    vhash = vocab.content_hash()

    outputs = [vocab_path, label_path]
    for name, subset in subsets:
        ids1, len1 = encode_batch(normalized[name], vocab, STAGE1_INPUT_LENGTH)
        labels1 = np.array([s.vulnerable for s in subset], dtype=np.int64)
        arch1 = EncodedArchive(
            LABEL_BINARY, STAGE1_INPUT_LENGTH, 2, vhash, ids1, len1, labels1)
        path1 = os.path.join(args.out_dir, f"stage1_{name}.vcen")
        save_archive(arch1, path1)

        # stage 2 reads the first STAGE2_INPUT_LENGTH ids of the vulnerable
        # rows, exactly as the cascade hands them over
        vuln = labels1 == 1
        arch2 = EncodedArchive(
            LABEL_CLASS, STAGE2_INPUT_LENGTH, len(label_map), vhash,
            ids1[vuln, :STAGE2_INPUT_LENGTH],
            np.minimum(len1[vuln], STAGE2_INPUT_LENGTH),
            np.array([label_map.index_of(s.cwe) for s in subset if s.vulnerable],
                     dtype=np.int64),
        )
        path2 = os.path.join(args.out_dir, f"stage2_{name}.vcen")
        save_archive(arch2, path2)
        outputs += [path1, path2]

    stats = class_stats(samples)
    if args.json:
        print(json.dumps({"stats": stats.as_dict(),
                          "train": len(train_set), "test": len(test_set),
                          "vocab_size": vocab.size,
                          "classes": list(label_map.classes)}, indent=2))
    else:
        print(stats.format_table())
        print(f"split: {len(train_set)} train / {len(test_set)} test"
              f" (fraction {spec.train_fraction}, seed {spec.seed})")
        print(f"vocabulary: {vocab.size} tokens, hash {vhash[:12]}")
        print(f"classes: {len(label_map)}")

    _write_manifest(
        os.path.join(args.out_dir, "preprocess_manifest.json"), "preprocess",
        {"seed": args.seed, "train_fraction": args.train_fraction,
         "min_freq": args.min_freq,
         "preserve_api_names": args.preserve_api_names},
        [args.corpus], outputs, started)
    return 0


def _train_paths(data_dir: str, stage: int) -> tuple[str, str]:
    return (os.path.join(data_dir, f"stage{stage}_train.vcen"),
            os.path.join(data_dir, f"stage{stage}_test.vcen"))


def cmd_train(args) -> int:
    started = time.time()
    defaults = STAGE_DEFAULTS[args.stage]

    def flag(name):
        # only an omitted flag takes the stage default; an explicit 0
        # reaches TrainConfig, which rejects it
        value = getattr(args, name)
        return defaults[name] if value is None else value

    config = TrainConfig(
        optimizer=flag("optimizer"),
        batch_size=flag("batch_size"),
        epochs=flag("epochs"),
        learning_rate=flag("learning_rate"),
        seed=args.seed,
        smote=args.smote if args.smote is not None else args.stage == 2,
        clip_norm=5.0 if args.clip else None,
    )

    train_path, _ = _train_paths(args.data, args.stage)
    arch = load_archive(train_path)
    vocab = Vocabulary.load(os.path.join(args.data, "vocab.txt"))
    _check_hash(vocab.content_hash(), arch.vocab_hash)

    label_map = None
    if args.stage == 1:
        spec = stage1_spec(vocab.size,
                           final_activation=args.stage1_head)
    else:
        label_map = LabelMap.load(os.path.join(args.data, "label_map.json"))
        spec = stage2_spec(vocab.size, len(label_map), head=args.stage2_head)
    if arch.max_len != spec.input_length:
        raise CliError(
            f"archive length {arch.max_len} does not match the stage "
            f"{args.stage} input length {spec.input_length}")

    model = build_model(spec, seed=args.seed)
    print(f"stage {args.stage}: {model.param_count()} parameters, "
          f"{arch.count} training samples")
    log: list[str] = []
    result = train(model, arch.ids, arch.labels, config, log=log)
    for line in log:
        print(line)
    if result.stopped_early:
        print(f"stopped early at accuracy {result.final_accuracy():.4f}")

    save_model(model, args.out, arch.vocab_hash, label_map)
    _write_manifest(
        args.out + ".manifest.json", "train",
        {"stage": args.stage, **vars(config)},
        [train_path], [args.out], started)
    print(f"saved {args.out}")
    return 0


def _check_hash(ours: str, theirs: str) -> None:
    if ours != theirs:
        raise VocabHashMismatchError(ours, theirs)


def _reencode_rows(rows: np.ndarray, vocab: Vocabulary, max_len: int) -> np.ndarray:
    """Map stage-1 encoded rows onto the stage-2 input length by decoding
    and re-encoding; exact because the id-to-token mapping round-trips."""
    out = np.zeros((rows.shape[0], max_len), dtype=np.int64)
    for i, row in enumerate(rows):
        out[i] = encode(decode(row, vocab), vocab, max_len).ids
    return out


def cmd_evaluate(args) -> int:
    stage1, header1 = load_model(args.stage1)
    _, test1_path = _train_paths(args.data, 1)
    arch1 = load_archive(test1_path)
    _check_hash(header1.vocab_hash, arch1.vocab_hash)

    if args.stage2:
        stage2, header2 = load_model(args.stage2)
        _check_hash(header2.vocab_hash, arch1.vocab_hash)
        label_map = header2.label_map()
        if label_map is None:
            raise CliError("stage-2 model carries no label map")
        _, test2_path = _train_paths(args.data, 2)
        arch2 = load_archive(test2_path)
        _check_hash(header2.vocab_hash, arch2.vocab_hash)
        vuln_rows = np.flatnonzero(arch1.labels == 1)
        if vuln_rows.shape[0] != arch2.count:
            raise CliError(
                "stage-1 and stage-2 test archives do not describe the same split")
        before = stage2.eval_samples
        cascade = predict_two_stage_encoded(stage1, stage2, label_map,
                                            arch1.ids, args.threshold)
        evaluated = stage2.eval_samples - before
        probs1 = np.array([p.stage1_probability for p in cascade])
    else:
        probs1 = predict_batched(stage1, arch1.ids)[:, 0]

    binary_preds = (probs1 >= args.threshold).astype(np.int64)
    matrix1 = confusion(binary_preds, arch1.labels, 2)
    scores1 = scores(matrix1)

    report: dict = {"stage1": scores1.as_dict(),
                    "stage1_confusion": matrix1.tolist()}
    if not args.json:
        print("stage 1 (binary detector)")
        print(scores1.format_table(["non-vuln", "vuln"]))

    if args.stage2:
        # a split can leave no vulnerable test rows; stage 2 then has no
        # scores, but the cascade is still reported
        report["stage2"] = None
        if arch2.count:
            class_preds = np.argmax(predict_batched(stage2, arch2.ids), axis=1)
            scores2 = scores(confusion(class_preds, arch2.labels, len(label_map)))
            report["stage2"] = scores2.as_dict()
            if not args.json:
                print("\nstage 2 (class classifier, vulnerable test samples)")
                print(scores2.format_table(list(label_map.classes)))
        elif not args.json:
            print("\nstage 2: no vulnerable test samples")

        cascade_pred = np.array([
            -1 if p.class_distribution is None
            else int(np.argmax(p.class_distribution)) for p in cascade])
        true_class = np.full(arch1.count, -1, dtype=np.int64)
        true_class[vuln_rows] = arch2.labels
        correct = int(np.sum(cascade_pred == true_class))
        report["cascade"] = {
            "samples": int(arch1.count),
            "stage2_evaluated": int(evaluated),
            "accuracy": correct / arch1.count,
        }
        if not args.json:
            print(f"\ncascade: stage-2 evaluated on {evaluated} of "
                  f"{arch1.count} samples")
            print(f"cascade end-to-end accuracy {correct / arch1.count:.4f}"
                  " (clean must stay clean, vulnerable must hit its class)")

    if args.json:
        print(json.dumps(report, indent=2))
    return 0


def _iter_source_files(paths: list[str]):
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs.sort()
                for name in sorted(names):
                    if name.endswith(SOURCE_SUFFIXES):
                        yield os.path.join(root, name)
        else:
            yield path


def _format_finding(label: str, pred, label_map) -> str:
    if pred.verdict is Verdict.NON_VULNERABLE:
        return f"{label}: clean (p={pred.stage1_probability:.3f})"
    dist = pred.class_distribution
    top = np.argsort(dist)[::-1][:3]
    return (f"{label}: VULNERABLE (p={pred.stage1_probability:.3f}) "
            f"{pred.predicted_cwe}  top: "
            + ", ".join(f"{label_map.cwe_of(int(i))}={dist[i]:.3f}"
                        for i in top))


def cmd_scan(args) -> int:
    stage1, header1 = load_model(args.stage1)
    stage2, header2 = load_model(args.stage2)
    _check_hash(header1.vocab_hash, header2.vocab_hash)
    vocab = Vocabulary.load(args.vocab)
    _check_hash(vocab.content_hash(), header1.vocab_hash)
    label_map = header2.label_map()
    if label_map is None:
        raise CliError("stage-2 model carries no label map")
    preserve = _load_preserve(args.preserve_api_names)

    findings = []
    errors = 0
    for path in _iter_source_files(args.paths):
        try:
            with open(path, "r", encoding="utf-8", errors="replace") as fh:
                source = fh.read()
        except OSError as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            errors += 1
            continue
        tokens = tokenize(source)
        units = [(path, tokens)]
        if args.per_function:
            parts = split_functions(tokens)
            if parts:
                units = [(f"{path}:{line} {name}()", part)
                         for name, line, part in parts]
        # one batch per file: a unit's scores never depend on other files
        ids, _ = encode_batch(
            [normalize(part, preserve=preserve) for _, part in units],
            vocab, stage1.spec.input_length)
        preds = predict_two_stage_encoded(stage1, stage2, label_map, ids,
                                          threshold=args.threshold)
        for (label, _), pred in zip(units, preds):
            findings.append((label, pred))
            if not args.json:
                print(_format_finding(label, pred, label_map))

    vulnerable = sum(1 for _, p in findings
                     if p.verdict is Verdict.VULNERABLE)
    if args.json:
        print(json.dumps({
            "findings": [
                {"unit": label,
                 "verdict": p.verdict.value,
                 "stage1_probability": p.stage1_probability,
                 "cwe": p.predicted_cwe}
                for label, p in findings],
            "vulnerable": vulnerable,
            "scanned": len(findings),
            "errors": errors,
        }, indent=2))
    else:
        print(f"scanned {len(findings)} units: {vulnerable} vulnerable, "
              f"{len(findings) - vulnerable} clean, {errors} errors")
    return 1 if vulnerable else 0


def cmd_smote_report(args) -> int:
    train_path, _ = _train_paths(args.data, 2)
    arch = load_archive(train_path)
    by_class = group_by_class(arch.ids, arch.labels)
    before = class_histogram(by_class)
    vocab = Vocabulary.load(os.path.join(args.data, "vocab.txt"))
    balanced = oversample(by_class, SmoteConfig(k=args.k, seed=args.seed),
                          vocab.size)
    after = class_histogram(balanced)
    if args.json:
        print(json.dumps({"before": before, "after": after}, indent=2))
    else:
        print(f"{'class':>6} {'before':>8} {'after':>8}")
        for label in sorted(before):
            print(f"{label:>6} {before[label]:>8} {after[label]:>8}")
        print(f"total  {sum(before.values()):>8} {sum(after.values()):>8}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vulncascade",
        description="Two-stage vulnerability detection for C/C++ source.")
    parser.add_argument("--version", action="version",
                        version=f"vulncascade {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess",
                       help="normalize a corpus and emit encoded archives")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--min-freq", type=int, default=1)
    p.add_argument("--preserve-api-names", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train one stage on encoded archives")
    p.add_argument("--stage", type=int, choices=(1, 2), required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--optimizer",
                   choices=("sgd", "adam", "rmsprop", "adagrad"))
    p.add_argument("--batch-size", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--smote", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="balance stage-2 classes before training"
                        " (default: on for stage 2)")
    p.add_argument("--clip", action="store_true",
                   help="clip gradients to global norm 5.0")
    p.add_argument("--stage1-head", choices=("sigmoid", "scaled_tanh"),
                   default="sigmoid")
    p.add_argument("--stage2-head", choices=("softmax", "sigmoid"),
                   default="softmax")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score saved models on the test split")
    p.add_argument("--stage1", required=True)
    p.add_argument("--stage2", default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--threshold", type=probability, default=0.5)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("scan", help="scan source files with saved models")
    p.add_argument("--stage1", required=True)
    p.add_argument("--stage2", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--threshold", type=probability, default=0.5)
    p.add_argument("--per-function", action="store_true")
    p.add_argument("--preserve-api-names", default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("paths", nargs="+")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("smote-report",
                       help="show the class balance before and after "
                            "oversampling")
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_smote_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DivergenceError, NonFiniteLossError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CliError, PipelineError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything unexpected is a runtime failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
