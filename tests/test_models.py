"""Model assembly, the two factory architectures, and the cascade decision."""

import contextlib
import functools
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vulncascade import layers
from vulncascade.dataset import LabelMap
from vulncascade.errors import (
    IdOutOfRangeError,
    IncompatibleSpecError,
    PipelineError,
    ShapeMismatchError,
)
from vulncascade.layers import (
    Activation,
    BatchNorm1D,
    Conv1D,
    Dense,
    Embedding,
    Flatten,
    LSTM,
    MaxPool1D,
)
from vulncascade.models import (
    ActivationSpec,
    BatchNormSpec,
    ConvSpec,
    DenseSpec,
    FlattenSpec,
    LSTMSpec,
    Model,
    ModelSpec,
    PoolSpec,
    Prediction,
    Verdict,
    build_model,
    predict_two_stage,
    predict_two_stage_encoded,
    stage1_spec,
    stage2_spec,
)
from vulncascade.losses import bce_loss, cce_loss
from vulncascade.optim import Adam
from vulncascade.vocab import Vocabulary

from conftest import gradient_check


def tiny_stage1_spec(vocab_size=12):
    return ModelSpec(
        stage=1, vocab_size=vocab_size, embedding_dim=4, input_length=12,
        layers=(
            ConvSpec(4, 3), ActivationSpec("relu"), PoolSpec(2, 2),
            FlattenSpec(),
            DenseSpec(8), ActivationSpec("relu"),
            DenseSpec(1), ActivationSpec("sigmoid"),
        ),
    )


def tiny_stage2_spec(vocab_size=12, num_classes=3):
    return ModelSpec(
        stage=2, vocab_size=vocab_size, embedding_dim=6, input_length=10,
        layers=(
            ConvSpec(4, 3), ActivationSpec("relu"), BatchNormSpec(), PoolSpec(2, 2),
            LSTMSpec(5, return_sequences=True),
            LSTMSpec(3, return_sequences=False),
            DenseSpec(4), ActivationSpec("relu"),
            DenseSpec(num_classes), ActivationSpec("softmax"),
        ),
    )


class TestModelSpec:
    def test_round_trip_stage1(self):
        spec = stage1_spec(100)
        assert ModelSpec.from_dict(spec.to_dict()) == spec

    def test_round_trip_stage2(self):
        spec = stage2_spec(100, 50)
        assert ModelSpec.from_dict(spec.to_dict()) == spec

    def test_round_trip_survives_json(self):
        import json

        spec = tiny_stage2_spec()
        restored = ModelSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec

    def test_layer_entries_are_tagged(self):
        d = stage1_spec(10).to_dict()
        kinds = [e["type"] for e in d["layers"]]
        assert kinds[0] == "conv" and kinds[-1] == "activation"
        assert d["layers"][0] == {"type": "conv", "filters": 256, "kernel_size": 7}


class TestStage1Factory:
    def test_defaults(self):
        spec = stage1_spec(30)
        assert spec.stage == 1
        assert spec.input_length == 500
        assert spec.embedding_dim == 13

    def test_layer_plan(self):
        spec = stage1_spec(30)
        convs = [l for l in spec.layers if isinstance(l, ConvSpec)]
        denses = [l for l in spec.layers if isinstance(l, DenseSpec)]
        assert [(c.filters, c.kernel_size) for c in convs] == [(256, 7), (128, 7)]
        assert [d.units for d in denses] == [64, 16, 1]
        assert isinstance(spec.layers[-1], ActivationSpec)
        assert spec.layers[-1].kind == "sigmoid"

    def test_param_count(self):
        model = build_model(stage1_spec(30))
        # 500 -> conv7 -> 494 -> pool -> 247 -> conv7 -> 241 -> pool -> 120
        expected = (
            30 * 13                      # embedding table
            + 256 * 13 * 7 + 256         # first conv
            + 128 * 256 * 7 + 128        # second conv
            + 64 * (120 * 128) + 64      # first dense on the flattened map
            + 16 * 64 + 16
            + 1 * 16 + 1
        )
        assert model.param_count() == expected == 1_237_607


class TestStage2Factory:
    def test_defaults(self):
        spec = stage2_spec(30, 50)
        assert spec.stage == 2
        assert spec.input_length == 400
        assert spec.embedding_dim == 300

    def test_layer_plan(self):
        spec = stage2_spec(30, 50)
        convs = [l for l in spec.layers if isinstance(l, ConvSpec)]
        lstms = [l for l in spec.layers if isinstance(l, LSTMSpec)]
        denses = [l for l in spec.layers if isinstance(l, DenseSpec)]
        assert [(c.filters, c.kernel_size) for c in convs] == [(64, 3), (128, 3)]
        assert [(l.units, l.return_sequences) for l in lstms] == [(100, True), (10, False)]
        assert [d.units for d in denses] == [100, 50]
        assert sum(isinstance(l, BatchNormSpec) for l in spec.layers) == 2

    def test_bn_follows_each_conv_activation(self):
        spec = stage2_spec(30, 50)
        for i, ls in enumerate(spec.layers):
            if isinstance(ls, ConvSpec):
                assert isinstance(spec.layers[i + 1], ActivationSpec)
                assert isinstance(spec.layers[i + 2], BatchNormSpec)


class TestBuildModel:
    def test_layer_materialization(self):
        model = build_model(tiny_stage2_spec())
        kinds = [type(l) for l in model.layers]
        assert kinds == [
            Embedding, Conv1D, Activation, BatchNorm1D, MaxPool1D,
            LSTM, LSTM, Dense, Activation, Dense, Activation,
        ]
        assert model.output_width == 3

    def test_same_seed_same_init(self):
        a = build_model(tiny_stage2_spec(), seed=5)
        b = build_model(tiny_stage2_spec(), seed=5)
        for (na, ta), (nb, tb) in zip(a.named_tensors(), b.named_tensors()):
            assert na == nb
            np.testing.assert_array_equal(ta, tb)

    @pytest.mark.parametrize("spec, golden", [
        (stage1_spec(50),
         "5d6f3ae5addc243f685516bbc7b8815b04ff7aadba02a07e9434e3e409e3918d"),
        (stage2_spec(50, 4),
         "3e86547fb3969e982886de6bd123f79baf25b73a458cd956b7c165cd7b29f134"),
    ], ids=["stage1", "stage2"])
    def test_seeded_init_is_pinned(self, spec, golden):
        # the draw order and distributions of seeded initialization; a
        # change here changes every trained model
        digest = hashlib.sha256()
        for arr in build_model(spec, seed=3).params():
            digest.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        assert digest.hexdigest() == golden

    def test_different_seed_differs(self):
        a, b = build_model(tiny_stage1_spec(), seed=0), build_model(tiny_stage1_spec(), seed=1)
        assert any(
            not np.array_equal(ta, tb)
            for (_, ta), (_, tb) in zip(a.named_tensors(), b.named_tensors())
        )

    def test_dense_without_flatten(self):
        spec = ModelSpec(1, 10, 4, 8, layers=(DenseSpec(3),))
        with pytest.raises(IncompatibleSpecError, match="layer 0"):
            build_model(spec)

    def test_conv_after_flatten(self):
        spec = ModelSpec(1, 10, 4, 8, layers=(FlattenSpec(), ConvSpec(2, 3)))
        with pytest.raises(IncompatibleSpecError, match="layer 1"):
            build_model(spec)

    def test_kernel_wider_than_sequence(self):
        spec = ModelSpec(1, 10, 4, 5, layers=(ConvSpec(2, 7), FlattenSpec(), DenseSpec(1)))
        with pytest.raises(IncompatibleSpecError, match="kernel"):
            build_model(spec)

    def test_pool_wider_than_sequence(self):
        spec = ModelSpec(1, 10, 4, 1, layers=(PoolSpec(2, 2), FlattenSpec(), DenseSpec(1)))
        with pytest.raises(IncompatibleSpecError, match="pool"):
            build_model(spec)

    def test_lstm_after_flatten(self):
        spec = ModelSpec(1, 10, 4, 8, layers=(FlattenSpec(), LSTMSpec(3, False)))
        with pytest.raises(IncompatibleSpecError):
            build_model(spec)

    def test_never_flattened(self):
        spec = ModelSpec(1, 10, 4, 8, layers=(ConvSpec(2, 3), ActivationSpec("relu")))
        with pytest.raises(IncompatibleSpecError, match="flat"):
            build_model(spec)


def folding_stage2_spec(vocab_size=6, num_classes=3):
    """A tiny classifier whose wide embedding takes the fold at 2 rows."""
    return ModelSpec(
        stage=2, vocab_size=vocab_size, embedding_dim=64, input_length=10,
        layers=tiny_stage2_spec().layers[:-2] + (
            DenseSpec(num_classes), ActivationSpec("softmax")),
    )


class TestForward:
    def test_rejects_wrong_length(self):
        model = build_model(tiny_stage1_spec())
        with pytest.raises(ShapeMismatchError):
            model.forward(np.zeros((2, 13), dtype=np.int64))

    def test_rejects_wrong_rank(self):
        model = build_model(tiny_stage1_spec())
        with pytest.raises(ShapeMismatchError):
            model.forward(np.zeros(12, dtype=np.int64))

    def test_counters(self):
        model = build_model(tiny_stage1_spec())
        assert model.forward_calls == 0 and model.eval_samples == 0
        model.forward(np.zeros((3, 12), dtype=np.int64))
        model.forward(np.zeros((5, 12), dtype=np.int64))
        assert model.forward_calls == 2
        assert model.eval_samples == 8

    def test_stage1_output_is_probability(self, rng):
        model = build_model(tiny_stage1_spec())
        p = model.forward(rng.integers(0, 12, size=(4, 12)))
        assert p.shape == (4, 1)
        assert np.all((p > 0.0) & (p < 1.0))

    def test_stage2_rows_are_distributions(self, rng):
        model = build_model(tiny_stage2_spec(num_classes=5))
        out = model.forward(rng.integers(0, 12, size=(6, 10)))
        assert out.shape == (6, 5)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_inference_is_deterministic(self, rng):
        model = build_model(tiny_stage2_spec())
        ids = rng.integers(0, 12, size=(4, 10))
        np.testing.assert_array_equal(model.forward(ids), model.forward(ids))

    def test_gradient_buffers_appear_on_training_use(self, rng):
        model = build_model(tiny_stage2_spec())
        ids = rng.integers(0, 12, size=(3, 10))
        model.forward(ids)
        assert not any("grad" in vars(layer) for layer in model.layers)
        out = model.forward(ids, training=True)
        model.backward(np.ones_like(out))
        for layer in model.layers:
            assert ("grad" in vars(layer)) == bool(layer.PARAMS)
            assert list(layer.grad) == list(layer.PARAMS)

    def test_backward_after_eval_forward_is_refused(self, rng):
        model = build_model(tiny_stage1_spec())
        ids = rng.integers(0, 12, size=(2, 12))
        model.forward(ids, training=True)
        out = model.forward(ids)
        with pytest.raises(PipelineError, match="training forward"):
            model.backward(np.ones_like(out))

    def test_backward_before_any_forward_is_refused(self):
        model = build_model(tiny_stage2_spec())
        with pytest.raises(PipelineError, match="training forward"):
            model.backward(np.ones((2, 3)))

    def test_second_backward_is_refused(self, rng):
        # each layer drops its cache in backward, so a second backward needs
        # a second training forward
        model = build_model(tiny_stage2_spec())
        out = model.forward(rng.integers(0, 12, size=(3, 10)), training=True)
        model.backward(np.ones_like(out))
        with pytest.raises(PipelineError, match="training forward"):
            model.backward(np.ones_like(out))

    @pytest.mark.parametrize("spec", [tiny_stage1_spec(), tiny_stage2_spec()],
                             ids=["stage1", "stage2"])
    def test_backward_writes_gradients(self, rng, spec):
        # each backward holds the gradients of its own batch alone, so a
        # second pass on the same batch leaves them as the first one did
        model = build_model(spec)
        ids = rng.integers(0, 12, size=(3, spec.input_length))

        def one_pass():
            out = model.forward(ids, training=True)
            model.backward(np.ones_like(out))
            return [g.copy() for g in model.grads()]

        first = one_pass()
        assert any(np.any(g != 0) for g in first)
        for got, want in zip(one_pass(), first):
            np.testing.assert_array_equal(got, want)


def held_arrays(obj):
    """Every array an attribute holds, through lists, tuples and dicts."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from held_arrays(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from held_arrays(item)


class TestFold:
    """The stage-2 Embedding -> Conv1D pair runs folded where the rule says
    it wins; stage 1 and large vocabularies keep the pair."""

    def test_only_a_leading_convolution_is_folded(self):
        model = build_model(stage2_spec(33, 3))
        assert model.fold.embedding is model.layers[0]
        assert model.fold.conv is model.layers[1]
        flat_first = ModelSpec(
            stage=1, vocab_size=3, embedding_dim=2, input_length=3,
            layers=(FlattenSpec(), DenseSpec(1), ActivationSpec("sigmoid")))
        assert build_model(flat_first).fold is None

    def test_rule_keeps_stage1_on_the_direct_path(self):
        # a 13-wide embedding never wins the fold, so stage 1 builds none
        for vocab in (33, 69, 108, 5000):
            assert build_model(stage1_spec(vocab)).fold is None

    def test_rule_folds_stage2_production_shapes(self):
        # training at batch 32, a scanned file's 5 rows, the accuracy pass
        for batch, vocab in ((32, 108), (5, 33), (105, 69), (256, 69)):
            assert build_model(stage2_spec(vocab, 3)).fold.wins(batch, 400)

    def test_rule_keeps_stage2_direct_when_vocab_outnumbers_windows(self):
        # B * L' windows of 3 ids: the fold's V tap rows cost more
        for batch, vocab in ((1, 398), (5, 1990), (5, 5000)):
            assert not build_model(stage2_spec(vocab, 3)).fold.wins(batch, 400)

    def test_eval_pass_matches_the_unfolded_stack(self):
        # the 105-row accuracy pass, folded, against the layers run in turn
        rng = np.random.default_rng(105)
        model = build_model(stage2_spec(69, 4), seed=3)
        ids = rng.integers(0, 69, size=(105, 400))
        assert model.fold.wins(*ids.shape)
        want = ids
        for layer in model.layers:
            want = layer.forward(want)
        got = model.forward(ids)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_out_of_range_id_is_refused(self):
        model = build_model(stage2_spec(33, 3))
        ids = np.zeros((5, 400), dtype=np.int64)
        assert model.fold.wins(*ids.shape)
        for bad in (33, -1):
            ids[2, 7] = bad
            with pytest.raises(IdOutOfRangeError):
                model.forward(ids)
            with pytest.raises(IdOutOfRangeError):
                model.forward(ids, training=True)

    def test_training_forward_holds_no_embedding_output(self):
        model = build_model(stage2_spec(50, 3))
        ids = np.random.default_rng(2).integers(0, 50, size=(2, 400))
        assert model.fold.wins(*ids.shape)
        model.forward(ids, training=True)
        shapes = [arr.shape for owner in (*model.layers, model.fold)
                  for value in vars(owner).values() for arr in held_arrays(value)]
        assert (2, 400, 300) not in shapes
        assert ids.shape in shapes  # the fold's one cache

    def test_training_step_the_fold_loses_runs_the_pair(self):
        # V*D = 120,000 >= B*L'*270 = 107,460 at one row: output and every
        # gradient are those of the declared layers run in turn, bit for bit
        ids = np.random.default_rng(7).integers(0, 400, size=(1, 400))
        upstream = np.random.default_rng(8).standard_normal((1, 3))
        model, reference = (build_model(stage2_spec(400, 3), seed=4) for _ in range(2))
        assert not model.fold.wins(*ids.shape)
        out = model.forward(ids, training=True)
        model.backward(upstream)
        want = layerwise_training_step(reference, ids, upstream)
        np.testing.assert_array_equal(out, want)
        for got, expected in zip(model.grads(), reference.grads()):
            np.testing.assert_array_equal(got, expected)

    def test_second_backward_is_refused(self, rng):
        model = build_model(folding_stage2_spec())
        ids = rng.integers(0, 6, size=(2, 10))
        assert model.fold.wins(*ids.shape)
        out = model.forward(ids, training=True)
        model.backward(np.ones_like(out))
        with pytest.raises(PipelineError, match="training forward"):
            model.backward(np.ones_like(out))


@contextlib.contextmanager
def unfused(model):
    """Each declared layer runs alone: no Conv1D runs its block's relu and
    2x2 pool, whose layers run after it."""
    convs = [layer for layer in model.layers
             if isinstance(layer, Conv1D) and layer.relu_pool]
    for conv in convs:
        conv.relu_pool = False
    try:
        yield
    finally:
        for conv in convs:
            conv.relu_pool = True


def full_length_forward(model, ids, training=False):
    """The reference eval forward: each layer's forward in turn, on every
    column."""
    h = ids
    with unfused(model):
        for layer in model.layers:
            h = layer.forward(h, training=training)
    return h


def layerwise_training_step(model, ids, upstream):
    """The reference training step: each layer's training forward in turn,
    on every column, then each layer's backward in reverse."""
    out = full_length_forward(model, ids, training=True)
    with unfused(model):
        for layer in reversed(model.layers):
            upstream = layer.backward(upstream)
    return out


@functools.lru_cache(maxsize=None)
def trim_model(stage):
    """A seeded production model over a 20-token vocabulary; stage 2's
    running statistics are drawn, so its eval BatchNorm is not an identity."""
    if stage == 1:
        return build_model(stage1_spec(20), seed=1)
    model = build_model(stage2_spec(20, 4), seed=2)
    rng = np.random.default_rng(2)
    for layer in model.layers:
        if isinstance(layer, BatchNorm1D):
            layer.running_mean[:] = rng.normal(0.0, 0.1, layer.features)
            layer.running_var[:] = rng.uniform(0.5, 2.0, layer.features)
    return model


def padded_ids(rng, batch, length, live, vocab=20):
    """Rows of random non-PAD ids, right-padded; the first row fills live
    columns, the others a random number up to live."""
    ids = np.zeros((batch, length), dtype=np.int64)
    for r in range(batch):
        n = live if r == 0 else int(rng.integers(0, live + 1))
        ids[r, :n] = rng.integers(1, vocab, size=n)
    return ids


def embedding_widths(model, monkeypatch):
    """The id widths the first entry of the model's stack reads: the fold,
    whichever path it takes, or the Embedding where there is no fold."""
    widths = []
    first = model.stack[0]
    forward = first.forward

    def spy(ids, training=False):
        widths.append(np.shape(ids)[1])
        return forward(ids, training)

    monkeypatch.setattr(first, "forward", spy)
    return widths


def sliding_pool_spec():
    return ModelSpec(
        stage=1, vocab_size=12, embedding_dim=4, input_length=40,
        layers=(
            ConvSpec(8, 5), ActivationSpec("relu"), PoolSpec(3, 2),
            ConvSpec(6, 3), ActivationSpec("relu"), PoolSpec(3, 2),
            FlattenSpec(),
            DenseSpec(1), ActivationSpec("sigmoid"),
        ),
    )


class TestTrimmedForward:
    """An eval forward runs the layers before the first Flatten or LSTM on
    the columns up to the batch's last non-PAD id, and copies the all-PAD
    position into the tail."""

    @settings(max_examples=60, deadline=None)
    @given(stage=st.sampled_from([1, 2]), batch=st.sampled_from([1, 5, 10]),
           live=st.one_of(st.sampled_from([0, 1, 400, 500]),
                          st.integers(0, 500)),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_the_full_length_forward(self, stage, batch, live, seed):
        model = trim_model(stage)
        length = model.spec.input_length
        ids = padded_ids(np.random.default_rng(seed), batch, length,
                         min(live, length))
        got = model.forward(ids)
        np.testing.assert_allclose(got, full_length_forward(model, ids),
                                   rtol=0.0, atol=1e-12)

    # 24 live columns: the first all-PAD position is 24, 12 after the first
    # pool and 6 after the second.  Back from 7 outputs: 14 before the
    # second pool, 14 + k - 1 before its convolution, twice that before the
    # first pool, and k - 1 more before the first convolution.
    @pytest.mark.parametrize("stage, columns", [(1, 46), (2, 34)])
    def test_short_rows_read_a_prefix(self, stage, columns, monkeypatch):
        model = trim_model(stage)
        widths = embedding_widths(model, monkeypatch)
        model.forward(padded_ids(np.random.default_rng(0), 3,
                                 model.spec.input_length, 24))
        assert widths == [columns]

    @pytest.mark.parametrize("stage", [1, 2])
    def test_interior_pad_run_is_not_cut(self, stage, monkeypatch):
        model = trim_model(stage)
        ids = np.zeros((1, model.spec.input_length), dtype=np.int64)
        ids[0, [0, 60]] = [5, 7]  # 59 PAD ids between two real ones
        want = full_length_forward(model, ids)
        widths = embedding_widths(model, monkeypatch)
        got = model.forward(ids)
        assert 60 < widths[0] < model.spec.input_length
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("stage", [1, 2])
    def test_id_in_the_last_column_reads_every_column(self, stage, monkeypatch):
        model = trim_model(stage)
        length = model.spec.input_length
        ids = np.zeros((4, length), dtype=np.int64)
        ids[0, :3] = [4, 5, 6]
        ids[3, -1] = 9
        want = full_length_forward(model, ids)
        widths = embedding_widths(model, monkeypatch)
        got = model.forward(ids)
        assert widths == [length]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("stage", [1, 2])
    @pytest.mark.parametrize("bad", [20, -1])
    def test_out_of_range_id_in_the_last_live_column_is_refused(self, stage, bad):
        model = trim_model(stage)
        ids = np.zeros((3, model.spec.input_length), dtype=np.int64)
        ids[1, :6] = [1, 2, 3, 4, 5, bad]
        with pytest.raises(IdOutOfRangeError):
            model.forward(ids)

    def test_sliding_window_pool(self, monkeypatch):
        model = build_model(sliding_pool_spec(), seed=4)
        rng = np.random.default_rng(4)
        widths = embedding_widths(model, monkeypatch)
        for live in range(41):
            ids = padded_ids(rng, 3, 40, live, vocab=12)
            got = model.forward(ids)
            np.testing.assert_allclose(got, full_length_forward(model, ids),
                                       rtol=0.0, atol=1e-12)
        assert min(widths) < 40 and widths[-1] == 40


def assert_gradients_close(model, reference, rtol):
    """Every gradient within rtol of the reference's, relative to that
    tensor's largest reference entry."""
    for got, want in zip(model.grads(), reference.grads()):
        assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


def ragged_ids(rng, lengths, length, vocab=20):
    """One row per entry of lengths: that many random non-PAD ids, then PAD."""
    ids = np.zeros((len(lengths), length), dtype=np.int64)
    for r, n in enumerate(lengths):
        ids[r, :n] = rng.integers(1, vocab, size=n)
    return ids


class TestRaggedRows:
    """Each Conv1D before the first Flatten or LSTM multiplies, per row, only
    the rows up to that row's first padding-tail output, in training and
    eval forwards and in backward."""

    # Stage 2 normalizes over batch and time, so a batch of almost all PAD
    # has near-zero variance and gradients of rounding noise alone; its
    # longest row holds at least half the window.  Its gradients sit up to
    # 1.8e-12 from the layers' in 80 random batches of 32 (the fold alone
    # moves them by up to 6e-13), so stage 2 is held to 1e-11.
    @settings(max_examples=25, deadline=None)
    @given(stage=st.sampled_from([1, 2]), batch=st.sampled_from([1, 5, 32]),
           data=st.data())
    def test_training_step_matches_the_full_length_layers(self, stage, batch, data):
        spec = stage1_spec(20) if stage == 1 else stage2_spec(20, 4)
        length = spec.input_length
        lengths = data.draw(st.lists(
            st.one_of(st.sampled_from([0, length]), st.integers(0, length)),
            min_size=batch, max_size=batch))
        if stage == 2:
            lengths[0] = max(lengths[0], length // 2)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        ids = ragged_ids(rng, lengths, length)
        runs = data.draw(st.lists(st.tuples(st.integers(0, batch - 1),
                                            st.integers(0, length - 1),
                                            st.integers(1, 40)), max_size=3))
        for row, start, n in runs:  # interior PAD runs
            ids[row, start:start + n] = 0
        upstream = rng.standard_normal((batch, 1 if stage == 1 else 4))
        model, reference = (build_model(spec, seed=stage) for _ in range(2))
        out = model.forward(ids, training=True)
        model.backward(upstream)
        want = layerwise_training_step(reference, ids, upstream)
        if stage == 1:
            np.testing.assert_array_equal(out, want)
            assert_gradients_close(model, reference, 1e-12)
        else:
            np.testing.assert_allclose(out, want, rtol=0.0, atol=1e-12)
            assert_gradients_close(model, reference, 1e-11)

    @pytest.mark.parametrize("spec, batch", [
        (stage1_spec(20), 5), (stage2_spec(69, 4), 5), (stage2_spec(400, 3), 1),
    ], ids=["stage1", "folded", "pair"])
    def test_every_forward_clears_the_tails(self, spec, batch):
        # each Conv1D and the fold read and clear the tails a forward hands
        # them, also in a forward refused for an out-of-range id
        model = build_model(spec)
        length = spec.input_length
        ids = ragged_ids(np.random.default_rng(6), [length // 2] * batch, length)
        if model.fold is not None:
            assert model.fold.wins(*ids.shape) == (spec.vocab_size == 69)
        holders = [layer for layer in (*model.layers, model.fold)
                   if hasattr(layer, "tails")]
        for training in (True, False):
            model.forward(ids, training=training)
            assert all(holder.tails is None for holder in holders)
        ids[-1, 3] = spec.vocab_size
        for training in (True, False):
            with pytest.raises(IdOutOfRangeError):
                model.forward(ids, training=training)
            assert all(holder.tails is None for holder in holders)

    def test_gradient_check(self, monkeypatch):
        # the tiny model's rows are shorter than MIN_GEMM_ROWS: at 1, its
        # short rows take the tail path
        monkeypatch.setattr(layers, "MIN_GEMM_ROWS", 1)
        model = build_model(tiny_stage1_spec(), seed=2)
        ids = ragged_ids(np.random.default_rng(8), [12, 5, 0, 7], 12, vocab=12)
        ids[0, 3:6] = 0
        targets = np.array([[1.0], [0.0], [1.0], [0.0]])
        TestWholeModelGradients()._check(model, ids, lambda p: bce_loss(targets, p))

    def test_sliding_window_pool_at_every_live_length(self, monkeypatch):
        monkeypatch.setattr(layers, "MIN_GEMM_ROWS", 1)
        rng = np.random.default_rng(9)
        for live in range(41):
            ids = padded_ids(rng, 3, 40, live, vocab=12)
            upstream = rng.standard_normal((3, 1))
            model, reference = (build_model(sliding_pool_spec(), seed=4)
                                for _ in range(2))
            out = model.forward(ids, training=True)
            model.backward(upstream)
            want = layerwise_training_step(reference, ids, upstream)
            np.testing.assert_allclose(out, want, rtol=0.0, atol=1e-15)
            assert_gradients_close(model, reference, 1e-12)

    @pytest.mark.parametrize("training", [True, False])
    def test_short_row_multiplies_its_own_rows(self, training, monkeypatch):
        # a 24-id row: conv1's first tail output is 24, conv2's 12 (after a
        # 2x2 pool), floored at MIN_GEMM_ROWS; the full row multiplies all
        # 494 and 241 rows
        model = build_model(stage1_spec(20), seed=1)
        ids = ragged_ids(np.random.default_rng(3), [500, 24], 500)
        heights = []

        class Spy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def matmul(a, b, **kwargs):
                heights.append(a.shape)
                return np.matmul(a, b, **kwargs)

        monkeypatch.setattr(layers, "np", Spy())
        model.forward(ids, training=training)
        assert heights == [(494, 91), (25, 91), (241, 1792), (16, 1792)]


def two_block_detector_spec(vocab_size=12, embedding_dim=4, input_length=17):
    """A tiny detector of two convolution blocks; at 17 ids the first
    convolution's output has odd length (15)."""
    return ModelSpec(
        stage=1, vocab_size=vocab_size, embedding_dim=embedding_dim,
        input_length=input_length,
        layers=(
            ConvSpec(4, 3), ActivationSpec("relu"), PoolSpec(2, 2),
            ConvSpec(3, 2), ActivationSpec("relu"), PoolSpec(2, 2),
            FlattenSpec(),
            DenseSpec(1), ActivationSpec("sigmoid"),
        ),
    )


class TestFusedBlocks:
    """Each Conv1D -> relu -> MaxPool1D(2, 2) runs as its Conv1D alone; the
    declared layers, and so the spec, tensors and file, are unchanged."""

    def test_stage1_stack_holds_no_relu_or_pool_before_flatten(self):
        model = build_model(stage1_spec(20))
        conv1, conv2 = model.layers[1], model.layers[4]
        assert model.stack[:4] == [model.layers[0], conv1, conv2, model.layers[7]]
        assert isinstance(model.stack[3], Flatten)
        assert conv1.relu_pool and conv2.relu_pool
        assert [type(layer) for layer in model.layers[:8]] == [
            Embedding, Conv1D, Activation, MaxPool1D,
            Conv1D, Activation, MaxPool1D, Flatten]

    def test_training_forward_holds_no_full_size_block_output(self):
        # the caches hold each block's input and its two pair masks, not the
        # convolution's (B, L', F) output or the relu's
        model = build_model(stage1_spec(20))
        model.forward(ragged_ids(np.random.default_rng(0), [500, 30], 500),
                      training=True)
        shapes = [arr.shape for owner in model.layers
                  for value in vars(owner).values() for arr in held_arrays(value)]
        assert (2, 494, 256) not in shapes and (2, 241, 128) not in shapes
        assert (2, 2, 247, 256) in shapes and (2, 2, 120, 128) in shapes

    def test_stage2_stack_is_unchanged(self):
        # a BatchNorm stands between each relu and pool
        model = build_model(stage2_spec(20, 4))
        assert model.stack == [model.fold, *model.layers[2:]]
        assert not any(getattr(layer, "relu_pool", False) for layer in model.layers)

    @pytest.mark.parametrize("spec", [
        sliding_pool_spec(),
        ModelSpec(stage=1, vocab_size=5, embedding_dim=3, input_length=8,
                  layers=(ConvSpec(1, 3), ActivationSpec("relu"), PoolSpec(2, 2),
                          FlattenSpec(), DenseSpec(1), ActivationSpec("sigmoid"))),
        ModelSpec(stage=1, vocab_size=5, embedding_dim=3, input_length=8,
                  layers=(ConvSpec(2, 3), ActivationSpec("sigmoid"), PoolSpec(2, 2),
                          FlattenSpec(), DenseSpec(1), ActivationSpec("sigmoid"))),
    ], ids=["window-3-pool", "one-filter", "sigmoid"])
    def test_other_blocks_stay_unfused(self, spec):
        model = build_model(spec)
        assert model.stack == model.layers
        assert not any(getattr(layer, "relu_pool", False) for layer in model.layers)

    def test_fold_ahead_of_relu_pool(self):
        # a wide embedding folds into the first convolution, which stays
        # unfused: its relu and pool run as layers, the second block fused
        model, reference = (build_model(two_block_detector_spec(6, 64), seed=3)
                            for _ in range(2))
        rng = np.random.default_rng(4)
        ids = ragged_ids(rng, [17, 9, 0], 17, vocab=6)
        assert model.fold.wins(*ids.shape) and not model.layers[1].relu_pool
        assert model.stack[:4] == [model.fold, *model.layers[2:5]]
        assert model.layers[4].relu_pool
        upstream = rng.standard_normal((3, 1))
        out = model.forward(ids, training=True)
        model.backward(upstream)
        want = layerwise_training_step(reference, ids, upstream)
        np.testing.assert_allclose(out, want, rtol=0.0, atol=1e-12)
        assert_gradients_close(model, reference, 1e-12)
        np.testing.assert_allclose(model.forward(ids), full_length_forward(reference, ids),
                                   rtol=0.0, atol=1e-12)


def force_probability_half(stage1: Model) -> None:
    """Zero the head's affine map so the sigmoid emits exactly 0.5."""
    dense = stage1.layers[-2]
    assert isinstance(dense, Dense)
    dense.weights[:] = 0.0
    dense.bias[:] = 0.0


class TestCascade:
    @pytest.fixture
    def setup(self):
        stage1 = build_model(tiny_stage1_spec(), seed=0)
        stage2 = build_model(tiny_stage2_spec(num_classes=3), seed=1)
        label_map = LabelMap(["CWE-121", "CWE-787", "CWE-20"])
        ids1 = np.arange(12, dtype=np.int64).reshape(1, -1) % 12
        return stage1, stage2, label_map, ids1

    def test_threshold_validation(self, setup):
        stage1, stage2, lm, ids1 = setup
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                predict_two_stage_encoded(stage1, stage2, lm, ids1, threshold=bad)

    def test_negative_verdict_skips_classifier(self, setup):
        stage1, stage2, lm, ids1 = setup
        force_probability_half(stage1)
        [pred] = predict_two_stage_encoded(stage1, stage2, lm, ids1, threshold=0.6)
        assert pred.verdict is Verdict.NON_VULNERABLE
        assert pred.class_distribution is None
        assert pred.predicted_cwe is None
        assert stage2.forward_calls == 0
        assert stage2.eval_samples == 0

    def test_boundary_probability_counts_as_vulnerable(self, setup):
        stage1, stage2, lm, ids1 = setup
        force_probability_half(stage1)
        [pred] = predict_two_stage_encoded(stage1, stage2, lm, ids1, threshold=0.5)
        assert pred.stage1_probability == 0.5
        assert pred.verdict is Verdict.VULNERABLE
        assert stage2.forward_calls == 1
        assert stage2.eval_samples == 1

    def test_positive_verdict_reports_class(self, setup):
        stage1, stage2, lm, ids1 = setup
        force_probability_half(stage1)
        [pred] = predict_two_stage_encoded(stage1, stage2, lm, ids1, threshold=0.5)
        assert pred.class_distribution.shape == (3,)
        np.testing.assert_allclose(pred.class_distribution.sum(), 1.0, atol=1e-12)
        assert pred.predicted_cwe == lm.cwe_of(int(np.argmax(pred.class_distribution)))

    def test_probability_is_reported_either_way(self, setup):
        stage1, stage2, lm, ids1 = setup
        [pred] = predict_two_stage_encoded(stage1, stage2, lm, ids1)
        assert isinstance(pred, Prediction)
        assert 0.0 < pred.stage1_probability < 1.0

    def test_stage2_longer_than_stage1_rejected(self, setup):
        stage1, _, lm, ids1 = setup
        force_probability_half(stage1)
        spec = tiny_stage2_spec(num_classes=3)
        spec.input_length = 14
        stage2 = build_model(spec, seed=1)
        # rejected before any model runs, positives or not
        for threshold in (0.5, 0.6):
            with pytest.raises(IncompatibleSpecError, match="14"):
                predict_two_stage_encoded(stage1, stage2, lm, ids1, threshold)
        assert stage1.forward_calls == stage2.forward_calls == 0

    def test_batch_runs_each_stage_once(self, setup, rng):
        stage1, stage2, lm, _ = setup
        ids1 = rng.integers(0, 12, size=(9, 12))
        probs = stage1.forward(ids1)[:, 0]
        threshold = float(np.median(probs))
        pos = np.flatnonzero(probs >= threshold)
        stage1.forward_calls = stage1.eval_samples = 0

        preds = predict_two_stage_encoded(stage1, stage2, lm, ids1, threshold)
        assert (stage1.forward_calls, stage1.eval_samples) == (1, 9)
        assert (stage2.forward_calls, stage2.eval_samples) == (1, pos.size)
        assert [p.stage1_probability for p in preds] == probs.tolist()
        assert [i for i, p in enumerate(preds)
                if p.verdict is Verdict.VULNERABLE] == pos.tolist()
        # stage 2 reads the first L2 = 10 stage-1 ids of each positive row
        dists = stage2.forward(ids1[pos, :10])
        for row, i in enumerate(pos):
            np.testing.assert_array_equal(preds[i].class_distribution, dists[row])

    def test_no_rows_no_forward(self, setup):
        stage1, stage2, lm, _ = setup
        assert predict_two_stage_encoded(stage1, stage2, lm,
                                         np.zeros((0, 12), dtype=np.int64)) == []
        assert stage1.forward_calls == stage2.forward_calls == 0

    def test_verdict_enum_values(self):
        assert Verdict.VULNERABLE.value == "vulnerable"
        assert Verdict.NON_VULNERABLE.value == "non_vulnerable"


def test_eval_forward_holds_one_layer_of_activations():
    # inference keeps no activations for a backward pass, and the convolution
    # copies one sample's patches at a time, so memory stays a few layer
    # outputs large whatever the depth of the stack
    model = build_model(stage1_spec(vocab_size=50), seed=0)
    ids = np.random.default_rng(0).integers(0, 50, size=(4, 500))
    conv1_output = 4 * 494 * 256 * 8  # bytes of the largest activation
    tracemalloc.start()
    try:
        model.forward(ids)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < conv1_output
    assert peak < 3 * conv1_output


def test_conv_backward_stays_below_one_batch_patch_matrix():
    # the weight and input gradients walk the im2col rows one sample at a
    # time, so the backward never holds the whole batch's patch matrix
    b, length, c, f, k = 8, 247, 256, 128, 7  # stage-1 conv2
    rng = np.random.default_rng(0)
    layer = Conv1D(c, f, k, rng)
    x = rng.standard_normal((b, length, c))
    upstream = rng.standard_normal(layer.forward(x, training=True).shape)
    layer.grads()  # allocates the gradient buffers outside the trace
    patch_matrix = b * (length - k + 1) * c * k * 8
    tracemalloc.start()
    try:
        layer.backward(upstream)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < patch_matrix


@pytest.mark.parametrize("stage", [1, 2])
def test_no_training_cache_outlives_a_step(stage):
    # backward frees every training-forward cache, so a model between steps
    # holds only its parameters, gradients and optimizer state
    if stage == 1:
        spec, rows, loss = stage1_spec(50), 4, bce_loss
    else:
        spec, rows, loss = stage2_spec(50, 3), 2, cce_loss
    model = build_model(spec, seed=0)
    ids = np.random.default_rng(stage).integers(0, 50, size=(rows, spec.input_length))
    targets = np.zeros((rows, model.output_width))
    targets[:, 0] = 1.0
    optimizer = Adam(0.001)

    def step():
        _, dprobs = loss(targets, model.forward(ids, training=True))
        model.backward(dprobs)
        optimizer.step(model.params(), model.grads())

    step()  # allocates gradient buffers and optimizer state
    tracemalloc.start()
    try:
        step()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # cached activations would be megabytes: 7.7 MiB at stage 1, 5.3 at stage 2
    assert kept < 64 * 1024


class TestPredictFromSource:
    def test_end_to_end_on_raw_code(self):
        tokens = ["<PAD>", "<UNK>", "int", "FUNC0", "(", ")", "{", "return",
                  "NUMBER", ";", "}", "VAR0", "="]
        vocab = Vocabulary(tokens)
        stage1 = build_model(tiny_stage1_spec(vocab_size=len(tokens)), seed=0)
        stage2 = build_model(tiny_stage2_spec(vocab_size=len(tokens)), seed=1)
        lm = LabelMap(["CWE-121", "CWE-787", "CWE-20"])
        pred = predict_two_stage(
            stage1, stage2, vocab, lm, "int f(){return 3;}", threshold=0.5
        )
        assert isinstance(pred, Prediction)
        assert pred.verdict in (Verdict.VULNERABLE, Verdict.NON_VULNERABLE)
        # encoding happened at each model's own input length
        assert stage1.eval_samples == 1


class TestWholeModelGradients:
    """Finite differences through the whole stack, loss included, for tiny
    variants that keep every production layer kind."""

    def _check(self, model, ids, loss_of_probs, tol=1e-4):
        # at the freshly-built point the recurrent weights barely matter
        # (hidden state starts at zero), leaving some gradient coordinates at
        # the finite-difference noise floor; moving to a generic point in
        # parameter space gives every coordinate measurable signal
        model.layers[0].table[:] *= 30.0
        jitter = np.random.default_rng(7)
        for p in model.params():
            p += jitter.normal(0.0, 0.2, p.shape)

        def loss_fn():
            return loss_of_probs(model.forward(ids, training=True))[0]

        probs = model.forward(ids, training=True)
        _, dprobs = loss_of_probs(probs)
        model.backward(dprobs)
        err = gradient_check(loss_fn, model.params(), model.grads(),
                             max_coords=25, rng=np.random.default_rng(3))
        assert err < tol, f"end-to-end gradient error {err:.2e}"

    def test_detector_architecture(self):
        rng = np.random.default_rng(31)
        model = build_model(tiny_stage1_spec(), seed=2)
        ids = rng.integers(0, 12, size=(2, 12))
        targets = np.array([[1.0], [0.0]])
        self._check(model, ids, lambda p: bce_loss(targets, p))

    def test_fused_detector_blocks(self, monkeypatch):
        # both blocks fused, odd convolution lengths, and short rows on the
        # tail path (at MIN_GEMM_ROWS 1)
        monkeypatch.setattr(layers, "MIN_GEMM_ROWS", 1)
        model = build_model(two_block_detector_spec(), seed=2)
        assert model.layers[1].relu_pool and model.layers[4].relu_pool
        ids = ragged_ids(np.random.default_rng(5), [17, 6, 0], 17, vocab=12)
        targets = np.array([[1.0], [0.0], [1.0]])
        self._check(model, ids, lambda p: bce_loss(targets, p))

    def test_folded_classifier_architecture(self):
        rng = np.random.default_rng(33)
        model = build_model(folding_stage2_spec(), seed=2)
        ids = rng.integers(0, 6, size=(2, 10))
        assert model.fold.wins(*ids.shape)
        targets = np.eye(3)[[1, 2]]
        self._check(model, ids, lambda p: cce_loss(targets, p))

    def test_classifier_architecture(self):
        rng = np.random.default_rng(32)
        model = build_model(tiny_stage2_spec(), seed=2)
        ids = rng.integers(0, 12, size=(2, 10))
        targets = np.eye(3)[[0, 2]]
        self._check(model, ids, lambda p: cce_loss(targets, p))
