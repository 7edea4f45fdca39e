#!/usr/bin/env python3
"""vulncascade benchmark.

    python3 perfbench/run.py --workload scan_functions --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed.  Workloads: ``scan_functions`` and
``train_eval`` (see perfbench/NOTES.md), or ``all`` to run both in turn.
Set-up runs three to nine times, each in a fresh child process, and must
produce identical inputs; its median wall time is ``setup_s``.  Then one client runs the workload's operation back to back for
``--seconds``.

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` spends the first half of ``--seconds`` untraced and the second
half with every package module wrapped by spans.Tracer, and reports the
per-layer metrics, the self-time table and the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Exits 0 when the run completed, 1 when it could not run.
"""

from __future__ import annotations

import os

# BLAS threading is pinned before numpy loads anywhere in this process or its
# children: with two threads the stage-1 train step spreads far wider.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# set-up repeats: at least SETUP_MIN, more while they total under
# SETUP_BUDGET_S, so cheap set-ups still give a steady median
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 4.0

WORKLOAD_NAMES = ("scan_functions", "train_eval")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "samples_per_s": "1/s",
}

STAGE_LAYERS = {
    1: ("embedding_1", "conv1d_1", "conv1d_2", "maxpool1d_1", "maxpool1d_2",
        "dense_1", "dense_2", "dense_3", "activation"),
    2: ("embedding_1", "conv1d_1", "conv1d_2", "batchnorm1d_1",
        "batchnorm1d_2", "maxpool1d_1", "maxpool1d_2", "lstm_1", "lstm_2",
        "dense_1", "dense_2", "activation"),
}
FORWARD_BUCKETS = {1: ("b1", "b64", "b256"), 2: ("b1", "b32", "b256")}


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric with its unit, in BENCHMARK.json order."""
    names = {
        "normalizer.tokenize_s": "s",
        "normalizer.classify_identifiers_s": "s",
        "normalizer.normalize_s": "s",
        "normalizer.tokens_lexed": "count",
        "normalizer.lex_passes_per_unit": "ratio",
        "vocab.build_vocab_s": "s",
        "vocab.encode_s": "s",
        "vocab.decode_s": "s",
        "dataset.load_corpus_s": "s",
        "dataset.split_s": "s",
        "archive.save_archive_s": "s",
        "archive.load_archive_s": "s",
        "archive.bytes_written": "bytes",
        "serialize.load_model_s": "s",
        "serialize.save_model_s": "s",
        "models.stage1.eval_samples": "count",
        "models.stage2.eval_samples": "count",
        "models.stage2_share": "share",
        "models.predict_two_stage_s": "s",
    }
    for stage, buckets in FORWARD_BUCKETS.items():
        for bucket in buckets:
            names[f"models.stage{stage}.forward_ms_per_sample.{bucket}"] = "ms"
    for stage, layers in STAGE_LAYERS.items():
        for layer in layers:
            names[f"layers.stage{stage}.{layer}.forward_s"] = "s"
            names[f"layers.stage{stage}.{layer}.backward_s"] = "s"
            if layer.startswith(("conv1d", "lstm", "dense")):
                names[f"layers.stage{stage}.{layer}.gflops"] = "GFLOP/s"
    names.update({
        "training.stage1_step_ms": "ms",
        "training.stage2_step_ms": "ms",
        "training.accuracy_pass_s": "s",
        "training.steps": "count",
        "optim.step_s": "s",
        "losses.loss_s": "s",
        "smote.oversample_s": "s",
        "smote.rows_synthesized": "count",
        "cli.split_functions_s": "s",
        "cli.reencode_rows_s": "s",
        "cli.self_s": "s",
        "metrics.scores_s": "s",
        "trace.overhead_ms_per_op": "ms",
        "trace.overhead_share": "share",
        "inputs.units": "count",
        "inputs.tokens": "count",
        "inputs.stage1_positives": "count",
        "inputs.stage2_samples": "count",
        "inputs.smote_rows": "count",
    })
    return names


def environment() -> list[str]:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [
        f"env blas_threads_env={os.environ['OPENBLAS_NUM_THREADS']}"
        f" blas_threads_runtime={_blas_runtime_threads()}",
        f"env nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))}",
        f"env python={platform.python_version()} numpy={np.__version__}"
        f" blas={blas.get('name')} {blas.get('version')}",
        f"env machine={platform.machine()} {platform.processor() or ''}".rstrip(),
    ]


def _blas_runtime_threads() -> str:
    """Thread count OpenBLAS reports, read from the loaded library."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return "unknown"
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def run_setups(workload: str, seed: int, work: str) -> tuple[list[float], list[str]]:
    """Set up repeatedly in child processes; keep the first.

    Returns the wall times and the set-up mismatches found.
    """
    times, infos = [], []
    while len(times) < SETUP_MIN or (
            len(times) < SETUP_MAX and sum(times) < SETUP_BUDGET_S):
        k = len(times)
        target = os.path.join(work, f"setup{k}")
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-into", target],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up of {workload} failed:\n{proc.stderr}")
        with open(os.path.join(target, "setup.json"), encoding="utf-8") as fh:
            infos.append(json.load(fh))
        if k:
            shutil.rmtree(target)
    problems = [f"set-up {k} differs from set-up 0"
                for k in range(1, len(infos)) if infos[k] != infos[0]]
    return times, problems


def measure(wl, seconds: float, first: int) -> list:
    """Closed loop, one client: ops back to back until the next one would
    end after ``seconds``; always at least one."""
    ops = []
    start = time.perf_counter()
    while True:
        op = wl.run(first + len(ops))
        ops.append(op)
        if time.perf_counter() - start + op.elapsed > seconds:
            return ops


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tracer, wl, ops, overhead_ms: float, base_ms: float) -> dict:
    n = len(ops)
    spans, counts = tracer.spans, tracer.counts

    def own(*names):
        return sum(spans[k][2] for k in names if k in spans) / n

    def incl(*names):
        return sum(spans[k][1] for k in names if k in spans) / n

    def count(name):
        return counts.get(name, 0.0) / n

    out = {
        "normalizer.tokenize_s": own("normalizer.tokenize"),
        "normalizer.classify_identifiers_s": own("normalizer.classify_identifiers"),
        "normalizer.normalize_s": own("normalizer.normalize",
                                      "normalizer.normalize_source"),
        "normalizer.tokens_lexed": count("normalizer.tokens_lexed"),
        "normalizer.lex_passes_per_unit":
            count("normalizer.tokens_lexed") / wl.source_tokens
            if wl.source_tokens else 0.0,
        "vocab.build_vocab_s": own("vocab.build_vocab"),
        "vocab.encode_s": own("vocab.encode", "vocab.encode_batch"),
        "vocab.decode_s": own("vocab.decode"),
        "dataset.load_corpus_s": own("dataset.load_corpus"),
        "dataset.split_s": own("dataset.split"),
        "archive.save_archive_s": own("archive.save_archive"),
        "archive.load_archive_s": own("archive.load_archive"),
        "archive.bytes_written": count("archive.bytes_written"),
        "serialize.load_model_s": incl("serialize.load_model"),
        "serialize.save_model_s": incl("serialize.save_model"),
        "models.stage1.eval_samples": count("models.stage1.eval_samples"),
        "models.stage2.eval_samples": count("models.stage2.eval_samples"),
        "models.predict_two_stage_s": incl("models.predict_two_stage"),
    }
    s1 = counts.get("models.stage1.eval_samples", 0.0)
    out["models.stage2_share"] = (
        counts.get("models.stage2.eval_samples", 0.0) / s1 if s1 else 0.0)
    for stage, buckets in FORWARD_BUCKETS.items():
        for bucket in buckets:
            key = f"models.stage{stage}.forward.{bucket}"
            rows = counts.get(key + ".rows", 0.0)
            out[f"models.stage{stage}.forward_ms_per_sample.{bucket}"] = (
                1000 * counts[key + ".seconds"] / rows if rows else 0.0)
    for stage, layers in STAGE_LAYERS.items():
        for layer in layers:
            base = f"layers.stage{stage}.{layer}"
            fwd, bwd = own(base + ".forward"), own(base + ".backward")
            out[base + ".forward_s"] = fwd
            out[base + ".backward_s"] = bwd
            if layer.startswith(("conv1d", "lstm", "dense")):
                busy = fwd + bwd
                out[base + ".gflops"] = (
                    count(base + ".flops") / busy / 1e9 if busy else 0.0)
    smote = incl("smote.oversample")
    for stage in (1, 2):
        steps = count(f"training.stage{stage}.steps")
        loop = (incl(f"training.train.stage{stage}")
                - incl(f"training.accuracy_of.stage{stage}")
                - (smote if stage == 2 else 0.0))
        out[f"training.stage{stage}_step_ms"] = 1000 * loop / steps if steps else 0.0
    out.update({
        "training.accuracy_pass_s": incl("training.accuracy_of.stage1",
                                         "training.accuracy_of.stage2"),
        "training.steps": count("training.stage1.steps")
        + count("training.stage2.steps"),
        "optim.step_s": own("optim.step"),
        "losses.loss_s": own("losses.loss"),
        "smote.oversample_s": smote,
        "smote.rows_synthesized": count("smote.rows_synthesized"),
        "cli.split_functions_s": own("cli.split_functions"),
        "cli.reencode_rows_s": incl("cli.reencode_rows"),
        "cli.self_s": own("cli.main", "cli.cmd_preprocess", "cli.cmd_train",
                          "cli.cmd_evaluate", "cli.cmd_scan"),
        "metrics.scores_s": own("metrics.scores"),
        "trace.overhead_ms_per_op": overhead_ms,
        "trace.overhead_share": overhead_ms / base_ms,
    })
    for key, value in wl.shape.items():
        out[f"inputs.{key}"] = value
    return out


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    import workloads
    from spans import Tracer

    work = os.path.join(ROOT, ".perfbench_work", f"{name}-{os.getpid()}")
    if os.path.exists(work):
        shutil.rmtree(work)
    os.makedirs(work)
    try:
        setup_times, problems = run_setups(name, seed, work)
        wl = workloads.WORKLOADS[name][1](os.path.join(work, "setup0"))
        # one untimed operation first: the first train_eval cycle runs about
        # 30% slower while the process's heap grows
        warmup = wl.run(0)
        ops = measure(wl, seconds / 2 if traced else seconds, 1)
        rss = peak_rss_mb()
        traced_ops, tracer, traced_wall = [], None, 0.0
        if traced:
            tracer = Tracer()
            wl.paused = tracer.pause
            tracer.install()
            try:
                start = time.perf_counter()
                traced_ops = measure(wl, seconds / 2, 1 + len(ops))
                traced_wall = time.perf_counter() - start
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))

    every = [warmup] + ops + traced_ops
    failures = problems + [f for op in every for f in op.failures]
    failed_ops = sum(bool(op.failures) for op in every)
    lat = [op.elapsed * 1000 for op in ops]
    lines = [f"workload {name} seed {seed} seconds {seconds} trace {int(traced)}"]
    lines += environment()
    lines += [f"input {k} = {v}" for k, v in wl.shape.items()]
    if hasattr(wl, "findings_digest"):
        lines.append(f"digest findings = {wl.findings_digest()}")
    if hasattr(wl, "log_digest"):
        lines.append(f"digest training_log = {wl.log_digest()}")
    if getattr(wl, "vocab_hash", None):
        lines.append(f"digest vocab = {wl.vocab_hash[:16]}")
    lines += [f"check failed: {f}" for f in failures[:20]]
    lines.append(f"ops_attempted = {len(every)} count")
    lines.append(f"ops_failed = {failed_ops} count")
    lines.append(f"failed_share = {failed_ops / len(every)} share")
    lines += [f"setup_run_s = {t} s" for t in setup_times]
    for metric, value, unit in wl.report(ops):
        lines.append(f"{metric} = {value} {unit}")
    # text only: the host's speed drifts in stretches of 10-20 s, and a median
    # of ops snaps to the fast or the slow stretch where the run's mean rate
    # (samples_per_s) averages them; see NOTES.md, "Noise"
    lines.append(f"op_p50_ms = {statistics.median(lat)} ms")

    if not traced:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": rss,
            "samples_per_s": sum(op.samples for op in ops)
            / sum(op.elapsed for op in ops),
        }
        units = END_TO_END
    else:
        base = statistics.median(lat)
        overhead = statistics.median(op.elapsed * 1000 for op in traced_ops) - base
        metrics = layer_metrics(tracer, wl, traced_ops, overhead, base)
        units = per_layer_names()
        lines.append(f"traced ops = {len(traced_ops)}, untraced ops = {len(ops)}")
        lines.append(f"tracing overhead = {overhead:.3f} ms per op "
                     f"({overhead / base:.2%} of {base:.3f} ms)")
        lines += tracer.table(traced_wall)
        lines += ["layer cost (computed from shapes, not counted by hardware):"]
        for key in sorted(tracer.counts):
            if key.endswith((".flops", ".bytes")):
                lines.append(f"  {key} per op = {tracer.counts[key] / len(traced_ops):.4g}")
    for metric, value in metrics.items():
        lines.append(f"{metric} = {value} {units[metric]}")
    return {
        "lines": lines,
        "attempted": len(every),
        "failed": failed_ops,
        "correct": not failures,
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="vulncascade benchmark")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-into", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "vulncascade", "__init__.py")):
        print(f"error: no vulncascade sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 1

    sys.path[:0] = [SRC, HERE]
    if args.setup_into:
        import workloads

        os.makedirs(args.setup_into)
        info = workloads.WORKLOADS[args.workload][0](args.seed, args.setup_into)
        with open(os.path.join(args.setup_into, "setup.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(info, fh, sort_keys=True)
        return 0

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(result["lines"]), flush=True)
        results.append(result)
    final = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": results[-1]["metrics"],
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
