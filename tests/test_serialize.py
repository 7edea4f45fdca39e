"""Model container round trips and resistance to damaged files."""

import dataclasses
import hashlib
import json
import struct

import numpy as np
import pytest

from conftest import edit_header, reseal
from vulncascade.dataset import LabelMap
from vulncascade.errors import (
    ChecksumMismatchError,
    SpecCorruptError,
    VersionMismatchError,
)
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
from vulncascade.errors import PipelineError
from vulncascade.serialize import FORMAT_VERSION, MODEL_MAGIC, load_model, save_model

VOCAB_HASH = "ab" * 32
CLASSES = ["CWE-121", "CWE-787", "CWE-20", "CWE-416"]


def tiny_stage1_model():
    return build_model(ModelSpec(
        stage=1, vocab_size=3, embedding_dim=2, input_length=3,
        layers=(FlattenSpec(), DenseSpec(1), ActivationSpec("sigmoid"))))


def small_spec():
    return ModelSpec(
        stage=2, vocab_size=9, embedding_dim=4, input_length=10,
        layers=(
            ConvSpec(3, 3), ActivationSpec("relu"), BatchNormSpec(), PoolSpec(2, 2),
            LSTMSpec(4, return_sequences=True),
            LSTMSpec(3, return_sequences=False),
            DenseSpec(4), ActivationSpec("softmax"),
        ),
    )


@pytest.fixture
def trained_model(rng):
    model = build_model(small_spec(), seed=2)
    # perturb away from the seeded init, so biases and batchnorm scales are
    # not their constant defaults, and run one training-mode forward so
    # batchnorm running stats are nontrivial
    for arr in model.params():
        arr += rng.normal(scale=0.05, size=arr.shape)
    model.forward(rng.integers(0, 9, size=(6, 10)), training=True)
    return model


@pytest.fixture
def saved(tmp_path, trained_model):
    path = tmp_path / "model.vcmd"
    lm = LabelMap(CLASSES)
    save_model(trained_model, str(path), VOCAB_HASH, label_map=lm)
    return path, trained_model, lm


class TestRoundTrip:
    def test_predictions_exact(self, saved, rng):
        path, model, _ = saved
        loaded, _ = load_model(str(path))
        ids = rng.integers(0, 9, size=(5, 10))
        np.testing.assert_array_equal(model.forward(ids), loaded.forward(ids))

    def test_all_tensors_exact(self, saved):
        path, model, _ = saved
        loaded, _ = load_model(str(path))
        for (name, a), (name2, b) in zip(model.named_tensors(), loaded.named_tensors()):
            assert name == name2
            np.testing.assert_array_equal(a, b)

    def test_running_stats_survive(self, saved):
        path, model, _ = saved
        loaded, _ = load_model(str(path))
        stats = {n: t for n, t in model.named_tensors() if "running" in n}
        assert stats, "batchnorm running statistics should be persisted"
        for n, t in loaded.named_tensors():
            if n in stats:
                np.testing.assert_array_equal(t, stats[n])
                assert np.any(t != 0) or "mean" not in n

    def test_header_fields(self, saved):
        # the stage and the spec are read from the loaded model alone
        path, model, lm = saved
        loaded, header = load_model(str(path))
        assert loaded.spec == model.spec
        assert [f.name for f in dataclasses.fields(header)] == ["vocab_hash", "label_map"]
        assert header.vocab_hash == VOCAB_HASH
        assert header.label_map.classes == lm.classes
        # the version now lives only in the file, so pin the written bytes
        blob = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", blob, 4)
        assert json.loads(blob[8:8 + header_len])["format_version"] == FORMAT_VERSION == 2

    def test_load_draws_nothing_and_holds_no_gradients(self, saved, rng, monkeypatch):
        path, model, _ = saved

        def no_draws(*args, **kwargs):
            raise AssertionError("load_model drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        loaded, _ = load_model(str(path))
        loaded.forward(rng.integers(0, 9, size=(2, 10)))
        assert not any("grad" in vars(layer) for layer in loaded.layers)

    def test_no_label_map(self, tmp_path):
        path = tmp_path / "m.vcmd"
        save_model(tiny_stage1_model(), str(path), VOCAB_HASH)
        _, header = load_model(str(path))
        assert header.label_map is None

    def test_save_is_deterministic(self, tmp_path, trained_model):
        p1, p2 = tmp_path / "a.vcmd", tmp_path / "b.vcmd"
        save_model(trained_model, str(p1), VOCAB_HASH, LabelMap(CLASSES))
        save_model(trained_model, str(p2), VOCAB_HASH, LabelMap(CLASSES))
        assert p1.read_bytes() == p2.read_bytes()

    def test_reserialization_is_byte_exact(self, saved, tmp_path):
        path, _, lm = saved
        loaded, header = load_model(str(path))
        again = tmp_path / "again.vcmd"
        save_model(loaded, str(again), header.vocab_hash, label_map=lm)
        assert again.read_bytes() == path.read_bytes()


def rewrite(path, blob):
    path.write_bytes(blob)
    return str(path)


class TestDamage:
    def test_bad_magic(self, saved):
        path, _, _ = saved
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        with pytest.raises(SpecCorruptError, match="magic"):
            load_model(rewrite(path, bytes(blob)))

    def test_header_not_json(self, saved):
        path, _, _ = saved
        blob = bytearray(path.read_bytes())
        (header_len,) = struct.unpack_from("<I", blob, 4)
        blob[8:8 + header_len] = b"{" * header_len
        with pytest.raises(SpecCorruptError, match="header"):
            load_model(rewrite(path, bytes(blob)))

    def test_header_not_an_object(self, saved):
        path, _, _ = saved
        blob = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", blob, 4)
        out = blob[:4] + struct.pack("<I", 2) + b"[]" + blob[8 + header_len:]
        with pytest.raises(SpecCorruptError, match="object"):
            load_model(rewrite(path, out))

    def test_wrong_version(self, saved):
        path, _, _ = saved
        blob = path.read_bytes()
        out = edit_header(blob, lambda h: h.update(format_version=99))
        with pytest.raises(VersionMismatchError) as info:
            load_model(rewrite(path, out))
        assert info.value.found == 99
        assert info.value.expected == FORMAT_VERSION

    def test_version_1_file_is_reported_as_old(self, saved):
        # version 1 digested the payload alone; it is refused for its version,
        # not reported as damaged
        path, _, _ = saved
        out = edit_header(path.read_bytes(), lambda h: h.update(format_version=1))
        (header_len,) = struct.unpack_from("<I", out, 4)
        body = 8 + header_len
        (payload_len,) = struct.unpack_from("<Q", out, body)
        payload = out[body + 8:body + 8 + payload_len]
        v1 = out[:body + 8 + payload_len] + hashlib.sha256(payload).digest()
        with pytest.raises(VersionMismatchError) as info:
            load_model(rewrite(path, v1))
        assert (info.value.found, info.value.expected) == (1, 2)

    def test_malformed_spec(self, saved):
        path, _, _ = saved
        out = edit_header(path.read_bytes(), lambda h: h["spec"].pop("layers"))
        with pytest.raises(SpecCorruptError, match="spec"):
            load_model(rewrite(path, reseal(out[:-32])))

    @pytest.mark.parametrize("field", ["kernel_size", "stride"])
    def test_spec_of_zero_width_layer(self, saved, field):
        # a zero kernel or pool stride divides by zero as the spec is
        # assembled: a malformed spec, not a crash
        path, _, _ = saved

        def zero(header):
            for entry in header["spec"]["layers"]:
                if field in entry:
                    entry[field] = 0

        out = edit_header(path.read_bytes(), zero)
        with pytest.raises(SpecCorruptError, match="spec is malformed"):
            load_model(rewrite(path, reseal(out[:-32])))

    def test_spec_field_of_wrong_type(self, saved):
        path, _, _ = saved

        def stringify_units(header):
            for entry in header["spec"]["layers"]:
                if entry["type"] == "dense":
                    entry["units"] = str(entry["units"])

        out = edit_header(path.read_bytes(), stringify_units)
        with pytest.raises(SpecCorruptError, match="spec"):
            load_model(rewrite(path, reseal(out[:-32])))

    @pytest.mark.parametrize("field, value", [
        ("eps", float("nan")), ("eps", float("inf")), ("eps", 0.0), ("eps", -1e-5),
        ("eps", True), ("eps", "1e-5"), ("eps", None),
        ("momentum", "x"), ("momentum", 7.0), ("momentum", -0.1),
        ("momentum", float("nan")), ("momentum", False),
    ])
    def test_bad_batchnorm_field(self, saved, field, value):
        # a NaN eps would give NaN class distributions, and so class 0 for
        # every positive unit, with no error
        path, _, _ = saved

        def edit(header):
            for entry in header["spec"]["layers"]:
                if entry["type"] == "batchnorm":
                    entry[field] = value

        out = edit_header(path.read_bytes(), edit)
        match = rf"spec is malformed: layer 2 \(batchnorm\) {field} "
        with pytest.raises(SpecCorruptError, match=match):
            load_model(rewrite(path, reseal(out[:-32])))
        layers = list(small_spec().layers)
        layers[2] = dataclasses.replace(layers[2], **{field: value})
        with pytest.raises(SpecCorruptError, match=match):
            build_model(dataclasses.replace(small_spec(), layers=tuple(layers)))

    def test_header_edit_without_reseal_is_detected(self, saved):
        path, _, _ = saved
        out = edit_header(path.read_bytes(),
                          lambda h: h.update(label_classes=["CWE-7"] + h["label_classes"][1:]))
        with pytest.raises(ChecksumMismatchError, match="checksum"):
            load_model(rewrite(path, out))

    def test_every_header_byte_flip_is_rejected(self, tmp_path):
        # stage 2, so that the header holds label_classes bytes to flip
        model = build_model(ModelSpec(
            stage=2, vocab_size=3, embedding_dim=2, input_length=3,
            layers=(FlattenSpec(), DenseSpec(2), ActivationSpec("softmax"))))
        path = tmp_path / "tiny.vcmd"
        save_model(model, str(path), VOCAB_HASH, label_map=LabelMap(["CWE-121", "CWE-7"]))
        blob = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", blob, 4)
        for i in range(8, 8 + header_len):
            for mask in (0x01, 0x20):
                damaged = bytearray(blob)
                damaged[i] ^= mask
                with pytest.raises(PipelineError):
                    load_model(rewrite(path, bytes(damaged)))

    def test_flipped_payload_byte(self, saved):
        path, _, _ = saved
        blob = bytearray(path.read_bytes())
        blob[-100] ^= 0xFF  # inside the tensor payload, ahead of the digest
        with pytest.raises(ChecksumMismatchError, match="checksum"):
            load_model(rewrite(path, bytes(blob)))

    @pytest.mark.parametrize("keep", [0, 3, 6, 40])
    def test_truncation_anywhere_is_detected(self, saved, keep):
        path, _, _ = saved
        blob = path.read_bytes()
        with pytest.raises(ChecksumMismatchError, match="truncated"):
            load_model(rewrite(path, blob[:keep]))

    def test_truncated_just_before_digest(self, saved):
        path, _, _ = saved
        blob = path.read_bytes()
        with pytest.raises(ChecksumMismatchError):
            load_model(rewrite(path, blob[:-1]))

    def test_spec_payload_mismatch(self, saved):
        # header advertises a wider dense layer, and a label map to match,
        # than the payload carries
        path, _, _ = saved

        def widen(header):
            for entry in header["spec"]["layers"]:
                if entry["type"] == "dense":
                    entry["units"] = 7
            header["label_classes"] = [f"CWE-{i}" for i in range(7)]

        out = edit_header(path.read_bytes(), widen)
        with pytest.raises(SpecCorruptError, match="shape"):
            load_model(rewrite(path, reseal(out[:-32])))

    def test_trailing_payload_bytes(self, saved):
        path, _, _ = saved
        blob = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", blob, 4)
        body = 8 + header_len
        (payload_len,) = struct.unpack_from("<Q", blob, body)
        payload = blob[body + 8:body + 8 + payload_len] + b"\x00" * 8
        out = reseal(blob[:body] + struct.pack("<Q", len(payload)) + payload)
        with pytest.raises(SpecCorruptError, match="trailing"):
            load_model(rewrite(path, out))

    def test_bytes_after_checksum(self, saved):
        path, _, _ = saved
        with pytest.raises(SpecCorruptError, match="after the checksum"):
            load_model(rewrite(path, path.read_bytes() + b"\x00"))

    def test_magic_constant(self):
        assert MODEL_MAGIC == b"VCMD"


class TestHeaderFields:
    """Header fields that disagree with the model are refused: at save time
    with ValueError, at load time (behind a matching digest) with
    SpecCorruptError."""

    def test_save_rejects_label_map_of_other_width(self, tmp_path, trained_model):
        with pytest.raises(ValueError, match="label map of 1 classes"):
            save_model(trained_model, str(tmp_path / "m.vcmd"), VOCAB_HASH,
                       label_map=LabelMap(["CWE-121"]))
        assert not (tmp_path / "m.vcmd").exists()

    @pytest.mark.parametrize("field, value", [
        ("label_classes", ["CWE-121"]),
        ("label_classes", ["CWE-121", "CWE-787", "CWE-20", "CWE-416", "CWE-1"]),
        ("label_classes", ["CWE-121", "CWE-121", "CWE-20", "CWE-416"]),
        ("label_classes", ["CWE-121", "CWE-787", "CWE-20", 416]),
        ("label_classes", []),
        ("label_classes", "CWE-121"),
        ("label_classes", None),  # a stage-2 model must name its classes
        ("vocab_hash", "ab" * 31),
        ("vocab_hash", None),
        ("vocab_hash", 7),
        ("stage", 1),
        ("stage", "2"),
        ("stage", True),
        ("stage", None),
    ])
    def test_load_rejects_bad_field(self, saved, field, value):
        path, _, _ = saved
        out = edit_header(path.read_bytes(), lambda h: h.update({field: value}))
        with pytest.raises(SpecCorruptError, match=field):
            load_model(rewrite(path, reseal(out[:-32])))

    @pytest.mark.parametrize("field", ["label_classes", "vocab_hash", "stage"])
    def test_load_rejects_missing_field(self, saved, field):
        path, _, _ = saved
        out = edit_header(path.read_bytes(), lambda h: h.pop(field))
        with pytest.raises(SpecCorruptError, match=field):
            load_model(rewrite(path, reseal(out[:-32])))

    def test_null_label_classes_load(self, tmp_path):
        # a stage-1 file still carries the key, as null
        path = tmp_path / "m.vcmd"
        save_model(tiny_stage1_model(), str(path), VOCAB_HASH)
        blob = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", blob, 4)
        assert json.loads(blob[8:8 + header_len])["label_classes"] is None
        _, header = load_model(str(path))
        assert header.label_map is None

    @pytest.mark.parametrize("stage2, label_map, match", [
        (True, None, "a stage-2 model needs a label map"),
        (False, LabelMap(["CWE-121"]), "a stage-1 model takes no label map"),
    ])
    def test_save_rejects_label_map_of_other_stage(self, tmp_path, trained_model,
                                                   stage2, label_map, match):
        model = trained_model if stage2 else tiny_stage1_model()
        with pytest.raises(ValueError, match=match):
            save_model(model, str(tmp_path / "m.vcmd"), VOCAB_HASH, label_map)
        assert not (tmp_path / "m.vcmd").exists()

    def test_load_rejects_label_classes_at_stage_1(self, tmp_path):
        path = tmp_path / "m.vcmd"
        save_model(tiny_stage1_model(), str(path), VOCAB_HASH)
        out = edit_header(path.read_bytes(), lambda h: h.update(label_classes=["CWE-121"]))
        with pytest.raises(SpecCorruptError,
                           match=r"label_classes \['CWE-121'\] at stage 1"):
            load_model(rewrite(path, reseal(out[:-32])))


class TestHeads:
    """A model must end in its stage's head: a sigmoid detector at stage 1,
    a softmax classifier at stage 2.  Any other head is refused by name."""

    def test_stage2_sigmoid_head(self, tmp_path):
        spec = small_spec()
        spec.layers = spec.layers[:-1] + (ActivationSpec("sigmoid"),)
        path = tmp_path / "m.vcmd"
        match = r"stage-2 model ends in ActivationSpec\(kind='sigmoid'\)"
        with pytest.raises(SpecCorruptError, match=match):
            save_model(build_model(spec, seed=2), str(path), VOCAB_HASH)
        assert not path.exists()
        # a file forged past the save-side check is refused on load
        save_model(build_model(small_spec(), seed=2), str(path), VOCAB_HASH,
                   LabelMap(CLASSES))
        out = edit_header(path.read_bytes(),
                          lambda h: h["spec"]["layers"][-1].update(kind="sigmoid"))
        with pytest.raises(SpecCorruptError, match=match):
            load_model(rewrite(path, reseal(out[:-32])))

    def test_stage1_scaled_tanh_head(self, tmp_path):
        path = tmp_path / "m.vcmd"
        save_model(tiny_stage1_model(), str(path), VOCAB_HASH)
        out = edit_header(path.read_bytes(),
                          lambda h: h["spec"]["layers"][-1].update(kind="scaled_tanh"))
        with pytest.raises(SpecCorruptError, match="stage-1 model ends in "
                           r"DenseSpec\(units=1\), ActivationSpec\(kind='scaled_tanh'\)"):
            load_model(rewrite(path, reseal(out[:-32])))

    def test_removed_tanh_activation(self, tmp_path):
        # no spec uses tanh; a file that names it is refused, as scaled_tanh is
        model = build_model(ModelSpec(
            stage=1, vocab_size=3, embedding_dim=2, input_length=3,
            layers=(FlattenSpec(), DenseSpec(4), ActivationSpec("relu"),
                    DenseSpec(1), ActivationSpec("sigmoid"))))
        path = tmp_path / "m.vcmd"
        save_model(model, str(path), VOCAB_HASH)
        out = edit_header(path.read_bytes(),
                          lambda h: h["spec"]["layers"][2].update(kind="tanh"))
        with pytest.raises(SpecCorruptError, match="unknown activation 'tanh'"):
            load_model(rewrite(path, reseal(out[:-32])))

    def test_unknown_stage(self, saved):
        path, _, _ = saved

        def to_stage_3(header):
            header["stage"] = header["spec"]["stage"] = 3

        out = edit_header(path.read_bytes(), to_stage_3)
        with pytest.raises(SpecCorruptError, match="stage 3 is neither 1 nor 2"):
            load_model(rewrite(path, reseal(out[:-32])))
