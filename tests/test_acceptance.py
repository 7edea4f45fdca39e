"""Release gate: the nine checks that qualify a build of this package.

Each test prints one [PASS]/[FAIL] line so a log skim shows the verdict per
criterion.  Budgeted checks also assert their wall-clock ceiling.
"""

import functools
import math
import re
import time

import numpy as np

from c_snippets import SNIPPETS
from test_layers import naive_conv1d
from vulncascade.dataset import LabelMap
from vulncascade.layers import (
    LSTM,
    BatchNorm1D,
    Conv1D,
    Dense,
    Embedding,
    MaxPool1D,
)
from vulncascade.losses import bce_loss, cce_loss
from vulncascade.metrics import confusion, scores
from vulncascade.models import (
    ActivationSpec,
    BatchNormSpec,
    ConvSpec,
    DenseSpec,
    FlattenSpec,
    LSTMSpec,
    ModelSpec,
    PoolSpec,
    Verdict,
    build_model,
    predict_two_stage_encoded,
    stage1_spec,
    stage2_spec,
)
from vulncascade.normalizer import TokenKind, normalize_source, tokenize
from vulncascade.serialize import load_model, save_model
from vulncascade.smote import SmoteConfig, SynthRecord, class_histogram, oversample
from vulncascade.training import TrainConfig, train
from conftest import layer_grad_error

GRAD_TOL = 1e-4
ORACLE_TOL = 1e-12


def criterion(number, description):
    """Emit one [PASS]/[FAIL] line per criterion, whatever pytest captures."""

    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"[FAIL] criterion {number}: {description}")
                raise
            print(f"[PASS] criterion {number}: {description}")

        return run

    return wrap


# --- criterion 1: finite-difference gradient checks on every layer kind ----

def _embedding_case(rng):
    layer = Embedding(int(rng.integers(4, 9)), int(rng.integers(2, 5)), rng)
    x = rng.integers(0, layer.table.shape[0],
                     size=(int(rng.integers(1, 4)), int(rng.integers(2, 7))))
    return layer, x, {"check_input": False}


def _conv_case(rng):
    channels = int(rng.integers(1, 4))
    kernel = int(rng.integers(2, 4))
    layer = Conv1D(channels, int(rng.integers(1, 5)), kernel, rng)
    x = rng.standard_normal(
        (int(rng.integers(1, 4)), int(rng.integers(kernel, kernel + 6)), channels))
    return layer, x, {}


def _pool_case(rng):
    window = int(rng.integers(2, 4))
    layer = MaxPool1D(window, 2)
    # widely spread values keep every window's max stable under the FD step
    x = 10.0 * rng.standard_normal(
        (int(rng.integers(1, 4)), int(rng.integers(window, window + 6)),
         int(rng.integers(1, 4))))
    return layer, x, {}


def _lstm_case(rng):
    d = int(rng.integers(1, 5))
    layer = LSTM(d, int(rng.integers(1, 4)), rng,
                 return_sequences=bool(rng.integers(0, 2)))
    x = rng.standard_normal((int(rng.integers(1, 4)), int(rng.integers(1, 6)), d))
    return layer, x, {}


def _batchnorm_case(rng):
    features = int(rng.integers(1, 5))
    layer = BatchNorm1D(features)
    # batches of >= 4 keep the batch variance away from zero, where the
    # finite-difference probe itself turns ill-conditioned
    x = rng.standard_normal((int(rng.integers(4, 8)), features))
    return layer, x, {}


def _dense_case(rng):
    in_w = int(rng.integers(1, 7))
    layer = Dense(in_w, int(rng.integers(1, 5)), rng)
    x = rng.standard_normal((int(rng.integers(1, 4)), in_w))
    return layer, x, {}


LAYER_CASES = {
    "embedding": _embedding_case,
    "conv1d": _conv_case,
    "maxpool": _pool_case,
    "lstm": _lstm_case,
    "batchnorm": _batchnorm_case,
    "dense": _dense_case,
}


def _bce_fd_error(rng):
    t = rng.integers(0, 2, size=(4, 1)).astype(np.float64)
    p = rng.uniform(0.05, 0.95, size=(4, 1))
    _, grad = bce_loss(t, p)
    h = 1e-5
    worst = 0.0
    for i in range(p.shape[0]):
        dp = np.zeros_like(p)
        dp[i, 0] = h
        numeric = (bce_loss(t, p + dp)[0] - bce_loss(t, p - dp)[0]) / (2 * h)
        denom = max(abs(numeric), abs(grad[i, 0]), 1e-12)
        worst = max(worst, abs(numeric - grad[i, 0]) / denom)
    return worst


def _cce_fd_error(rng):
    # probe along paired directions (+h on one class, -h on another) so each
    # row keeps summing to exactly one and the simplex check stays satisfied
    c = int(rng.integers(3, 6))
    p = rng.uniform(0.2, 1.0, size=(3, c))
    p /= p.sum(axis=1, keepdims=True)
    t = np.eye(c)[rng.integers(0, c, size=3)]
    _, grad = cce_loss(t, p)
    h = 1e-5
    worst = 0.0
    for _ in range(6):
        row = int(rng.integers(p.shape[0]))
        a, b = rng.choice(c, size=2, replace=False)
        dp = np.zeros_like(p)
        dp[row, a], dp[row, b] = h, -h
        numeric = (cce_loss(t, p + dp)[0] - cce_loss(t, p - dp)[0]) / (2 * h)
        analytic = grad[row, a] - grad[row, b]
        denom = max(abs(numeric), abs(analytic), 1e-12)
        worst = max(worst, abs(numeric - analytic) / denom)
    return worst


@criterion(1, "every layer and both losses pass finite-difference checks")
def test_criterion_1_gradient_correctness():
    started = time.monotonic()
    for offset, (name, make) in enumerate(LAYER_CASES.items()):
        rng = np.random.default_rng(1000 + offset)
        for instance in range(20):
            layer, x, kwargs = make(rng)
            err = layer_grad_error(layer, x, seed=instance, **kwargs)
            assert err < GRAD_TOL, f"{name} instance {instance}: {err:.2e}"
    rng = np.random.default_rng(99)
    for instance in range(20):
        assert _bce_fd_error(rng) < GRAD_TOL, f"bce instance {instance}"
        assert _cce_fd_error(rng) < GRAD_TOL, f"cce instance {instance}"
    assert time.monotonic() - started < 120.0


# --- criterion 2: closed-form layer oracles --------------------------------

@criterion(2, "conv/LSTM match independent oracles; maxpool conserves mass")
def test_criterion_2_layer_oracles():
    rng = np.random.default_rng(21)
    for case in range(100):
        channels = int(rng.integers(1, 4))
        kernel = int(rng.integers(1, 4))
        layer = Conv1D(channels, int(rng.integers(1, 5)), kernel, rng)
        x = rng.standard_normal(
            (int(rng.integers(1, 4)), int(rng.integers(kernel, kernel + 5)),
             channels))
        got = layer.forward(x)
        want = naive_conv1d(x, layer.weights, layer.bias)
        assert np.max(np.abs(got - want)) <= ORACLE_TOL, f"conv case {case}"

    for case in range(20):
        b, d, h = (int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                   int(rng.integers(1, 4)))
        layer = LSTM(d, h, rng, return_sequences=False)
        layer.w_in[:] = rng.standard_normal(layer.w_in.shape)
        layer.w_rec[:] = rng.standard_normal(layer.w_rec.shape)
        layer.bias[:] = rng.standard_normal(layer.bias.shape)
        x = rng.standard_normal((b, 1, d))
        got = layer.forward(x)

        z = x[:, 0] @ layer.w_in.T + layer.bias
        sig = lambda v: 1.0 / (1.0 + np.exp(-v))
        gate_in = sig(z[:, 0:h])
        gate_forget = sig(z[:, h:2 * h])
        candidate = np.tanh(z[:, 2 * h:3 * h])
        gate_out = sig(z[:, 3 * h:4 * h])
        cell = gate_forget * 0.0 + gate_in * candidate
        want = gate_out * np.tanh(cell)
        assert np.max(np.abs(got - want)) <= ORACLE_TOL, f"lstm case {case}"

    for case in range(30):
        window = int(rng.integers(2, 4))
        layer = MaxPool1D(window, int(rng.integers(1, 3)))
        x = 10.0 * rng.standard_normal(
            (int(rng.integers(1, 4)), int(rng.integers(window, window + 8)),
             int(rng.integers(1, 4))))
        out = layer.forward(x, training=True)
        upstream = rng.integers(-5, 6, size=out.shape).astype(np.float64)
        dx = layer.backward(upstream)
        # integer-valued mass makes both sums exact, so equality is strict
        assert dx.sum() == upstream.sum(), f"pool case {case}"


# --- criterion 3: normalizer properties over the snippet corpus ------------

def _rename_identifiers(source: str, suffix: str = "_r9x") -> str:
    names = {t.text for t in tokenize(source) if t.kind is TokenKind.IDENTIFIER}
    if not names:
        return source
    pattern = re.compile(
        r"\b(" + "|".join(re.escape(n) for n in sorted(names, key=len,
                                                       reverse=True)) + r")\b")
    return pattern.sub(lambda m: m.group(1) + suffix, source)


_LITERAL_SHAPE = re.compile(r"^[0-9'\"]|^\.[0-9]")


@criterion(3, "normalizer: renaming invariance, closure, no raw literals")
def test_criterion_3_normalizer_properties():
    started = time.monotonic()
    assert len(SNIPPETS) == 50
    for snippet in SNIPPETS:
        base = normalize_source(snippet)
        renamed = normalize_source(_rename_identifiers(snippet))
        assert renamed == base, snippet

        again = normalize_source(" ".join(base))
        assert again == base, snippet

        for token in base:
            assert not _LITERAL_SHAPE.match(token), (snippet, token)

    worked = normalize_source("int add(int a, int b){return a+b;}")
    assert worked == ["int", "FUNC0", "(", "int", "VAR0", ",", "int", "VAR1",
                      ")", "{", "return", "VAR0", "+", "VAR1", ";", "}"]
    assert time.monotonic() - started < 10.0


# --- criterion 4: oversampling properties ----------------------------------

@criterion(4, "oversampling: uniform histogram, on-segment synthesis, "
              "byte-exact determinism")
def test_criterion_4_smote_properties():
    started = time.monotonic()
    rng = np.random.default_rng(4)
    by_class = {
        0: rng.integers(0, 40, size=(12, 20)).astype(np.float64),
        1: rng.integers(0, 40, size=(7, 20)).astype(np.float64),
        2: rng.integers(0, 40, size=(9, 20)).astype(np.float64),
        3: rng.integers(0, 40, size=(5, 20)).astype(np.float64),
    }
    config = SmoteConfig(k=3, seed=11)
    trace: list[SynthRecord] = []
    balanced = oversample(by_class, config, 40, trace=trace)

    histogram = class_histogram(balanced)
    assert set(histogram.values()) == {12}, histogram

    assert trace, "interpolation produced no synthetic points"
    for record in trace:
        a = by_class[record.label][record.parent_a]
        b = by_class[record.label][record.parent_b]
        assert 0.0 <= record.lam <= 1.0
        np.testing.assert_array_equal(record.raw, a + record.lam * (b - a))
        low = np.minimum(a, b) - 1e-9
        high = np.maximum(a, b) + 1e-9
        assert np.all((record.raw >= low) & (record.raw <= high))

    again = oversample(by_class, config, 40)
    for label in balanced:
        assert balanced[label].tobytes() == again[label].tobytes()
    assert time.monotonic() - started < 10.0


# --- criteria 5 and 6: overfit sanity on the production architectures ------

@criterion(5, "stage-1 architecture reaches 100% on 32 samples "
              "within 200 epochs")
def test_criterion_5_stage1_overfit():
    started = time.monotonic()
    rng = np.random.default_rng(123)
    n, vocab = 32, 24
    labels = np.array([i % 2 for i in range(n)], dtype=np.int64)
    # the classes are overlapping token-range distributions, so the net has
    # to learn content, not a positional shortcut
    ids = np.where(
        np.repeat(labels[:, None], 500, axis=1) == 1,
        rng.integers(2, 14, size=(n, 500)),
        rng.integers(9, 22, size=(n, 500)))

    model = build_model(stage1_spec(vocab), seed=0)
    config = TrainConfig(batch_size=64, epochs=200,
                         learning_rate=0.005, seed=0, stop_at_accuracy=1.0)
    result = train(model, ids, labels, config)
    assert result.epochs[-1].accuracy == 1.0
    assert len(result.epochs) <= 200
    assert time.monotonic() - started < 300.0


@criterion(6, "stage-2 architecture reaches 95% on a 50-class toy set "
              "within 100 epochs")
def test_criterion_6_stage2_overfit():
    started = time.monotonic()
    num_classes = 50
    vocab = 2 + 2 * num_classes + 6  # a token pair per class + 6 noise ids
    rng = np.random.default_rng(7)
    ids_list, labels_list = [], []
    for c in range(num_classes):
        pair = np.array([2 + 2 * c, 3 + 2 * c])
        # alternating 4/3 originals; balancing tops every class up to 4
        for _ in range(4 if c % 2 == 0 else 3):
            row = pair[rng.integers(0, 2, size=400)]
            noise = rng.random(400) < 0.05
            row[noise] = rng.integers(vocab - 6, vocab, size=noise.sum())
            ids_list.append(row)
            labels_list.append(c)
    ids = np.stack(ids_list)
    labels = np.array(labels_list, dtype=np.int64)

    model = build_model(stage2_spec(vocab, num_classes), seed=0)
    config = TrainConfig(batch_size=32, epochs=100,
                         learning_rate=0.001, seed=0, smote=True, smote_k=2,
                         stop_at_accuracy=0.95)
    result = train(model, ids, labels, config)
    assert result.epochs[-1].accuracy >= 0.95
    assert len(result.epochs) <= 100
    assert time.monotonic() - started < 600.0


# --- criterion 7: cascade laziness and loss spot values --------------------

def _tiny_cascade():
    spec1 = ModelSpec(
        stage=1, vocab_size=16, embedding_dim=4, input_length=12,
        layers=(
            ConvSpec(4, 3), ActivationSpec("relu"), PoolSpec(2, 2),
            FlattenSpec(), DenseSpec(8), ActivationSpec("relu"),
            DenseSpec(1), ActivationSpec("sigmoid"),
        ),
    )
    spec2 = ModelSpec(
        stage=2, vocab_size=16, embedding_dim=5, input_length=10,
        layers=(
            ConvSpec(4, 3), ActivationSpec("relu"), BatchNormSpec(), PoolSpec(2, 2),
            LSTMSpec(5, return_sequences=True),
            LSTMSpec(3, return_sequences=False),
            DenseSpec(4), ActivationSpec("softmax"),
        ),
    )
    return build_model(spec1, seed=5), build_model(spec2, seed=6)


@criterion(7, "second stage runs exactly once per positive verdict; "
              "loss spot values match")
def test_criterion_7_cascade_contract():
    stage1, stage2 = _tiny_cascade()
    label_map = LabelMap(["CWE-121", "CWE-787", "CWE-20", "CWE-416"])
    rng = np.random.default_rng(77)
    ids1 = rng.integers(0, 16, size=(100, 12))

    probs = stage1.forward(ids1)[:, 0]
    threshold = float(np.median(probs))  # guarantees a genuine mix
    expected_positive = int(np.sum(probs >= threshold))
    assert 0 < expected_positive < 100

    before = stage2.eval_samples
    preds = predict_two_stage_encoded(stage1, stage2, label_map, ids1,
                                      threshold=threshold)
    evaluated = stage2.eval_samples - before
    positives = sum(1 for p in preds if p.verdict is Verdict.VULNERABLE)
    assert len(preds) == 100
    assert positives == expected_positive
    assert evaluated == positives

    loss, _ = bce_loss(np.array([[1.0]]), np.array([[0.5]]))
    assert abs(loss - math.log(2.0)) <= 1e-9
    loss, _ = cce_loss(np.array([[0.0, 0.0, 1.0, 0.0]]), np.full((1, 4), 0.25))
    assert abs(loss - math.log(4.0)) <= 1e-9


# --- criterion 8: determinism and persistence ------------------------------

def _overfit_spec():
    return ModelSpec(
        stage=1, vocab_size=10, embedding_dim=4, input_length=10,
        layers=(
            ConvSpec(4, 3), ActivationSpec("relu"), PoolSpec(2, 2),
            FlattenSpec(), DenseSpec(6), ActivationSpec("relu"),
            DenseSpec(1), ActivationSpec("sigmoid"),
        ),
    )


@criterion(8, "same seed reproduces the log; reloaded model predicts "
              "identically")
def test_criterion_8_determinism_and_persistence():
    import tempfile
    from pathlib import Path

    rng = np.random.default_rng(8)
    ids = rng.integers(0, 10, size=(16, 10))
    labels = (np.arange(16) % 2).astype(np.int64)

    logs = []
    models = []
    for _ in range(2):
        model = build_model(_overfit_spec(), seed=1)
        log: list[str] = []
        train(model, ids, labels,
              TrainConfig(batch_size=4, epochs=5, learning_rate=0.01, seed=2),
              log=log)
        logs.append(log)
        models.append(model)
    assert logs[0] == logs[1]

    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "model.vcmd")
        save_model(models[0], path, "cd" * 32)
        loaded, _ = load_model(path)
    query = rng.integers(0, 10, size=(8, 10))
    gap = np.max(np.abs(models[0].forward(query) - loaded.forward(query)))
    assert gap <= 1e-12


# --- criterion 9: score exactness ------------------------------------------

@criterion(9, "micro-F1 equals accuracy on every matrix; binary F1 worked "
              "example is exact")
def test_criterion_9_metric_exactness():
    rng = np.random.default_rng(9)
    for _ in range(300):
        k = int(rng.integers(2, 9))
        n = int(rng.integers(1, 80))
        matrix = confusion(rng.integers(0, k, size=n),
                           rng.integers(0, k, size=n), k)
        result = scores(matrix)
        assert result.micro_f1 == result.accuracy

    matrix = confusion(preds=[1, 1, 0, 0], labels=[1, 0, 0, 0], num_classes=2)
    assert matrix[1, 1] == 1 and matrix[0, 1] == 1  # TP=1, FP=1
    assert matrix[1, 0] == 0 and matrix[0, 0] == 2  # FN=0, TN=2
    assert scores(matrix).per_class[1].f1 == 2.0 / 3.0
