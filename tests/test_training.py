"""Training loop behavior: determinism, early stop, divergence, balancing."""

import numpy as np
import pytest

from vulncascade import models
from vulncascade.errors import DivergenceError
from vulncascade.models import (
    ActivationSpec,
    BatchNormSpec,
    ConvSpec,
    DenseSpec,
    FlattenSpec,
    LSTMSpec,
    ModelSpec,
    PoolSpec,
    build_model,
)
from vulncascade.training import (
    TrainConfig,
    accuracy_of,
    predict_batched,
    train,
)

VOCAB = 12


def binary_spec():
    return ModelSpec(
        stage=1, vocab_size=VOCAB, embedding_dim=4, input_length=8,
        layers=(
            ConvSpec(4, 3), ActivationSpec("relu"), PoolSpec(2, 2),
            FlattenSpec(),
            DenseSpec(6), ActivationSpec("relu"),
            DenseSpec(1), ActivationSpec("sigmoid"),
        ),
    )


def multiclass_spec(num_classes=3):
    return ModelSpec(
        stage=2, vocab_size=VOCAB, embedding_dim=5, input_length=8,
        layers=(
            ConvSpec(4, 3), ActivationSpec("relu"), BatchNormSpec(), PoolSpec(2, 2),
            LSTMSpec(6, return_sequences=True),
            LSTMSpec(4, return_sequences=False),
            DenseSpec(6), ActivationSpec("relu"),
            DenseSpec(num_classes), ActivationSpec("softmax"),
        ),
    )


def binary_task(n=8):
    """Label 1 rows carry token 5, label 0 rows token 3: linearly separable."""
    labels = np.arange(n) % 2
    ids = np.where(labels[:, None] == 1, 5, 3) * np.ones((n, 8), dtype=np.int64)
    return ids.astype(np.int64), labels.astype(np.int64)


def multiclass_task(num_classes=3, per_class=3):
    rows, labels = [], []
    for c in range(num_classes):
        for _ in range(per_class):
            rows.append(np.full(8, c + 2, dtype=np.int64))
            labels.append(c)
    return np.stack(rows), np.asarray(labels, dtype=np.int64)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.batch_size == 64
        assert cfg.learning_rate == 0.005

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_size": 0},
            {"epochs": 0},
            {"learning_rate": 0.0},
            {"learning_rate": -1.0},
            {"stop_at_accuracy": 0.0},
            {"stop_at_accuracy": 1.5},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestBinaryTraining:
    def test_learns_separable_task(self):
        ids, labels = binary_task()
        model = build_model(binary_spec(), seed=0)
        cfg = TrainConfig(batch_size=4, epochs=60, learning_rate=0.01,
                          seed=0, stop_at_accuracy=1.0)
        result = train(model, ids, labels, cfg)
        assert result.epochs[-1].accuracy == 1.0

    def test_loss_decreases(self):
        ids, labels = binary_task()
        model = build_model(binary_spec(), seed=0)
        result = train(model, ids, labels,
                       TrainConfig(batch_size=4, epochs=10, learning_rate=0.01))
        assert result.epochs[-1].mean_loss < result.epochs[0].mean_loss

    def test_epoch_log_structure(self):
        ids, labels = binary_task()
        model = build_model(binary_spec(), seed=0)
        lines: list[str] = []
        result = train(model, ids, labels,
                       TrainConfig(batch_size=4, epochs=3), log=lines)
        assert [e.epoch for e in result.epochs] == [1, 2, 3]
        assert len(lines) == 3
        assert lines[0].startswith("epoch 1: loss ")
        assert " acc " in lines[0]

    def test_accepts_python_lists(self):
        ids, labels = binary_task()
        result = train(build_model(binary_spec()), ids.tolist(), labels.tolist(),
                       TrainConfig(batch_size=4, epochs=1))
        assert len(result.epochs) == 1


class TestDeterminism:
    def test_same_seed_identical_logs_and_weights(self):
        ids, labels = binary_task()
        logs = []
        finals = []
        for _ in range(2):
            model = build_model(binary_spec(), seed=3)
            log: list[str] = []
            train(model, ids, labels,
                  TrainConfig(batch_size=4, epochs=5, seed=7), log=log)
            logs.append(log)
            finals.append([arr.copy() for arr in model.params()])
        assert logs[0] == logs[1]
        for a, b in zip(*finals):
            np.testing.assert_array_equal(a, b)

    def test_different_shuffle_seed_changes_course(self):
        ids, labels = binary_task()
        logs = []
        for seed in (0, 1):
            model = build_model(binary_spec(), seed=3)
            log: list[str] = []
            train(model, ids, labels,
                  TrainConfig(batch_size=2, epochs=5, seed=seed), log=log)
            logs.append(log)
        assert logs[0] != logs[1]


class TestEarlyStopAndDivergence:
    def test_early_stop_truncates_epochs(self):
        ids, labels = binary_task()
        model = build_model(binary_spec(), seed=0)
        cfg = TrainConfig(batch_size=4, epochs=200, learning_rate=0.01,
                          stop_at_accuracy=1.0)
        result = train(model, ids, labels, cfg)
        assert result.stopped_early
        assert len(result.epochs) < 200

    def test_no_early_stop_without_target(self):
        ids, labels = binary_task()
        result = train(build_model(binary_spec()), ids, labels,
                       TrainConfig(batch_size=4, epochs=3))
        assert not result.stopped_early
        assert len(result.epochs) == 3

    def test_divergence_raises_with_step(self):
        ids, labels = binary_task()
        model = build_model(binary_spec(), seed=0)
        model.params()[0][:] = np.nan
        with pytest.raises(DivergenceError, match="step 0"):
            train(model, ids, labels, TrainConfig(batch_size=8, epochs=1))


class TestMulticlassTraining:
    def test_learns_toy_classes(self):
        # full-batch so batch normalization always sees every class; a batch
        # of identical rows would normalize the class signal away
        ids, labels = multiclass_task()
        model = build_model(multiclass_spec(), seed=0)
        cfg = TrainConfig(batch_size=9, epochs=120, learning_rate=0.01,
                          seed=0, stop_at_accuracy=1.0)
        result = train(model, ids, labels, cfg)
        assert result.epochs[-1].accuracy == 1.0

    def test_smote_balances_before_training(self):
        # 6 majority + 3 minority; balancing doubles the minority so one
        # epoch touches 12 training rows plus a 12-row accuracy pass
        ids, labels = binary_task(n=12)
        ids, labels = ids[:9], labels[:9]
        assert int(labels.sum()) == 4  # 5 zeros, 4 ones before balancing
        labels = np.where(np.arange(9) < 6, 0, 1)
        model = build_model(binary_spec(), seed=0)
        train(model, ids, labels,
              TrainConfig(batch_size=4, epochs=1, smote=True, smote_k=2))
        assert model.eval_samples == 12 + 12

    def test_without_smote_counts_are_raw(self):
        ids, labels = binary_task(n=12)
        ids, labels = ids[:9], labels[:9]
        labels = np.where(np.arange(9) < 6, 0, 1)
        model = build_model(binary_spec(), seed=0)
        train(model, ids, labels, TrainConfig(batch_size=4, epochs=1))
        assert model.eval_samples == 9 + 9


class TestLabelChecks:
    @pytest.mark.parametrize("spec, task, bad", [
        (binary_spec, binary_task, 5), (binary_spec, binary_task, -1),
        (multiclass_spec, multiclass_task, -1), (multiclass_spec, multiclass_task, 3),
    ])
    @pytest.mark.parametrize("smote", [False, True])
    def test_label_outside_head_is_rejected(self, spec, task, bad, smote):
        ids, labels = task()
        labels[-1] = bad
        model = build_model(spec(), seed=0)
        with pytest.raises(ValueError, match="labels must lie"):
            train(model, ids, labels, TrainConfig(batch_size=3, epochs=1, smote=smote))
        assert model.eval_samples == 0

    def test_label_count_must_match_rows(self):
        ids, labels = binary_task()
        with pytest.raises(ValueError, match="one per row"):
            train(build_model(binary_spec(), seed=0), ids, labels[:-1],
                  TrainConfig(batch_size=4, epochs=1))


class TestEvaluationHelpers:
    def test_predict_batched_matches_single_pass(self, rng, monkeypatch):
        model = build_model(multiclass_spec(), seed=0)
        ids = rng.integers(0, VOCAB, size=(7, 8))
        whole = model.forward(ids, training=False)
        monkeypatch.setattr(models, "EVAL_BATCH", 3)
        sliced = predict_batched(model, ids)
        assert model.forward_calls == 1 + 3
        np.testing.assert_array_equal(whole, sliced)

    def test_accuracy_binary_threshold(self):
        ids, labels = binary_task()
        model = build_model(binary_spec(), seed=0)
        acc = accuracy_of(model, ids, labels)
        assert 0.0 <= acc <= 1.0
