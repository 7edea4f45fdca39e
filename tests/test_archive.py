"""Encoded-sample archive round trips, and damage detection in the sealed
container shared by archives and model files."""

import re
import struct

import numpy as np
import pytest

from conftest import edit_header, reseal
from vulncascade.archive import (
    ARCHIVE_MAGIC,
    ARCHIVE_VERSION,
    LABEL_BINARY,
    LABEL_CLASS,
    EncodedArchive,
    load_archive,
    save_archive,
)
from vulncascade.errors import (
    ChecksumMismatchError,
    PipelineError,
    SpecCorruptError,
    VersionMismatchError,
)
from vulncascade.models import (
    ActivationSpec,
    DenseSpec,
    FlattenSpec,
    ModelSpec,
    build_model,
)
from vulncascade.serialize import load_model, save_model

HASH = "0123456789abcdef" * 4


def sample_archive(n=5, max_len=7, kind=LABEL_CLASS, num_classes=4):
    rng = np.random.default_rng(0)
    return EncodedArchive(
        label_kind=kind,
        max_len=max_len,
        num_classes=num_classes,
        vocab_hash=HASH,
        ids=rng.integers(0, 30, size=(n, max_len)),
        true_lengths=rng.integers(1, max_len + 1, size=n),
        labels=rng.integers(0, 2 if kind == LABEL_BINARY else num_classes,
                            size=n),
    )


class TestValidation:
    def test_count_property(self):
        assert sample_archive(n=5).count == 5

    def test_rejects_unknown_label_kind(self):
        with pytest.raises(ValueError, match="label kind"):
            sample_archive(kind=2)

    def test_rejects_wrong_ids_width(self):
        arch = sample_archive()
        with pytest.raises(ValueError, match="ids"):
            EncodedArchive(
                label_kind=LABEL_BINARY, max_len=9, num_classes=0,
                vocab_hash=HASH, ids=arch.ids,
                true_lengths=arch.true_lengths, labels=arch.labels,
            )

    def test_rejects_misaligned_labels(self):
        arch = sample_archive()
        with pytest.raises(ValueError, match="per sample"):
            EncodedArchive(
                label_kind=LABEL_CLASS, max_len=arch.max_len, num_classes=4,
                vocab_hash=HASH, ids=arch.ids,
                true_lengths=arch.true_lengths, labels=arch.labels[:-1],
            )

    def test_rejects_short_hash(self):
        arch = sample_archive()
        with pytest.raises(ValueError, match="sha256"):
            EncodedArchive(
                label_kind=LABEL_CLASS, max_len=arch.max_len, num_classes=4,
                vocab_hash="abc", ids=arch.ids,
                true_lengths=arch.true_lengths, labels=arch.labels,
            )

    @pytest.mark.parametrize("kind, bad", [(LABEL_BINARY, 2),
                                           (LABEL_CLASS, 4), (LABEL_CLASS, -1)])
    def test_rejects_out_of_range_label(self, kind, bad):
        arch = sample_archive(kind=kind)
        labels = arch.labels.copy()
        labels[-1] = bad
        with pytest.raises(ValueError, match="labels must lie"):
            EncodedArchive(
                label_kind=kind, max_len=arch.max_len, num_classes=4,
                vocab_hash=HASH, ids=arch.ids,
                true_lengths=arch.true_lengths, labels=labels,
            )

    def test_coerces_dtypes(self):
        arch = EncodedArchive(
            label_kind=LABEL_BINARY, max_len=3, num_classes=0, vocab_hash=HASH,
            ids=[[1, 2, 3], [4, 5, 6]], true_lengths=[3, 2], labels=[0, 1],
        )
        assert arch.ids.dtype == np.int64
        assert arch.labels.dtype == np.int64


class TestRoundTrip:
    @pytest.mark.parametrize("kind", [LABEL_BINARY, LABEL_CLASS])
    def test_everything_survives(self, tmp_path, kind):
        arch = sample_archive(kind=kind)
        path = tmp_path / "a.vcen"
        save_archive(arch, str(path))
        back = load_archive(str(path))
        assert back.label_kind == arch.label_kind
        assert back.max_len == arch.max_len
        assert back.num_classes == arch.num_classes
        assert back.vocab_hash == arch.vocab_hash
        np.testing.assert_array_equal(back.ids, arch.ids)
        np.testing.assert_array_equal(back.true_lengths, arch.true_lengths)
        np.testing.assert_array_equal(back.labels, arch.labels)

    def test_empty_archive(self, tmp_path):
        arch = EncodedArchive(
            label_kind=LABEL_BINARY, max_len=4, num_classes=0, vocab_hash=HASH,
            ids=np.zeros((0, 4), dtype=np.int64),
            true_lengths=np.zeros(0, dtype=np.int64),
            labels=np.zeros(0, dtype=np.int64),
        )
        path = tmp_path / "empty.vcen"
        save_archive(arch, str(path))
        assert load_archive(str(path)).count == 0

    def test_save_is_deterministic(self, tmp_path):
        arch = sample_archive()
        p1, p2 = tmp_path / "a.vcen", tmp_path / "b.vcen"
        save_archive(arch, str(p1))
        save_archive(arch, str(p2))
        assert p1.read_bytes() == p2.read_bytes()


def split_sealed(blob):
    """A sealed file's bytes up to the payload length field, and its payload."""
    (header_len,) = struct.unpack_from("<I", blob, 4)
    return blob[:8 + header_len], blob[16 + header_len:-32]


def with_payload(blob, payload):
    """The sealed file with its payload replaced and its digest resealed."""
    head, _ = split_sealed(blob)
    return reseal(head + struct.pack("<Q", len(payload)) + payload)


def assert_caught_behind_digest(path, out, match):
    """out, an edit that kept the old digest, fails the digest; resealed, it
    fails the SpecCorruptError check behind the digest that match names."""
    path.write_bytes(out)
    with pytest.raises(ChecksumMismatchError, match="checksum"):
        load_archive(str(path))
    path.write_bytes(reseal(out[:-32]))
    with pytest.raises(SpecCorruptError, match=match):
        load_archive(str(path))


class TestDamage:
    @pytest.fixture
    def path(self, tmp_path):
        p = tmp_path / "a.vcen"
        save_archive(sample_archive(), str(p))
        return p

    def test_bad_magic(self, path):
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(SpecCorruptError, match="magic"):
            load_archive(str(path))

    def test_wrong_version(self, path):
        path.write_bytes(edit_header(path.read_bytes(),
                                     lambda h: h.update(format_version=9)))
        with pytest.raises(VersionMismatchError,
                           match="archive file format version 9") as info:
            load_archive(str(path))
        assert (info.value.found, info.value.expected) == (9, ARCHIVE_VERSION)

    def test_version_1_struct_layout_is_rejected(self, path):
        # v1: magic | u16 version | u16 label_kind | u32 max_len | u64 count
        # | u32 num_classes | 32-byte vocab hash | u32 blocks, no checksum
        for kind in (LABEL_BINARY, LABEL_CLASS):
            arch = sample_archive(kind=kind)
            v1 = (ARCHIVE_MAGIC + struct.pack("<HHI", 1, arch.label_kind, arch.max_len)
                  + struct.pack("<QI", arch.count, arch.num_classes)
                  + bytes.fromhex(arch.vocab_hash)
                  + b"".join(np.ascontiguousarray(a, dtype="<u4").tobytes()
                             for a in (arch.ids, arch.true_lengths, arch.labels)))
            path.write_bytes(v1)
            with pytest.raises(VersionMismatchError,
                               match="archive file format version 1, this build reads 2") as info:
                load_archive(str(path))
            assert (info.value.found, info.value.expected) == (1, ARCHIVE_VERSION)

    @pytest.mark.parametrize("keep", [0, 2, 10, 20, 55])
    def test_truncation(self, path, keep):
        blob = path.read_bytes()
        path.write_bytes(blob[:keep])
        with pytest.raises(ChecksumMismatchError, match="truncated"):
            load_archive(str(path))

    def test_truncated_last_block(self, path):
        blob = path.read_bytes()
        _, payload = split_sealed(blob)
        path.write_bytes(with_payload(blob, payload[:-1]))
        with pytest.raises(ChecksumMismatchError,
                           match="truncated while reading labels block"):
            load_archive(str(path))

    def test_unknown_label_kind_byte(self, path):
        out = edit_header(path.read_bytes(), lambda h: h.update(label_kind=7))
        assert_caught_behind_digest(path, out, "label kind")

    @pytest.mark.parametrize("field, value", [
        ("count", "5"), ("count", None), ("max_len", -1), ("label_kind", True),
        ("num_classes", 4.0), ("vocab_hash", 7), ("vocab_hash", "ab"),
    ])
    def test_header_field_of_wrong_type_or_value(self, path, field, value):
        out = edit_header(path.read_bytes(), lambda h: h.update({field: value}))
        path.write_bytes(reseal(out[:-32]))
        with pytest.raises(SpecCorruptError):
            load_archive(str(path))

    def test_binary_label_out_of_range(self, tmp_path):
        path = tmp_path / "b.vcen"
        save_archive(sample_archive(kind=LABEL_BINARY), str(path))
        blob = path.read_bytes()
        for bad in (2, 257):  # the last label, a u32, at the end of the payload
            out = blob[:-36] + bad.to_bytes(4, "little") + blob[-32:]
            assert_caught_behind_digest(path, out, "labels must lie")

    def test_class_label_out_of_range(self, path):
        blob = path.read_bytes()
        out = blob[:-36] + (4).to_bytes(4, "little") + blob[-32:]  # num_classes is 4
        assert_caught_behind_digest(path, out, "labels must lie")

    def test_flipped_id_inside_vocab_range(self, path):
        blob = bytearray(path.read_bytes())
        head, payload = split_sealed(bytes(blob))
        assert payload[0] < 30 and (payload[0] ^ 1) < 30  # ids lie in [0, 30)
        blob[len(head) + 8] ^= 1  # low byte of the first id
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumMismatchError, match="checksum"):
            load_archive(str(path))

    def test_trailing_garbage(self, path):
        blob = path.read_bytes()
        _, payload = split_sealed(blob)
        path.write_bytes(with_payload(blob, payload + b"\x00\x01"))
        with pytest.raises(SpecCorruptError, match="2 trailing payload bytes"):
            load_archive(str(path))

    def test_bytes_after_checksum(self, path):
        path.write_bytes(path.read_bytes() + b"\x00\x01")
        with pytest.raises(SpecCorruptError, match="after the checksum"):
            load_archive(str(path))

    def test_magic_constant(self):
        assert ARCHIVE_MAGIC == b"VCEN"


def tiny_model_file(path):
    model = build_model(ModelSpec(
        stage=1, vocab_size=3, embedding_dim=2, input_length=3,
        layers=(FlattenSpec(), DenseSpec(1), ActivationSpec("sigmoid"))))
    save_model(model, str(path), HASH)


def tiny_archive_file(path):
    save_archive(sample_archive(n=2, max_len=3), str(path))


SEALED_KINDS = {
    "archive": (tiny_archive_file, load_archive),
    "model": (tiny_model_file, load_model),
}


class TestSealedFiles:
    """Both file kinds go through one reader; no damage loads silently."""

    @pytest.fixture(params=sorted(SEALED_KINDS))
    def sealed(self, request, tmp_path):
        write, load = SEALED_KINDS[request.param]
        path = tmp_path / "tiny"
        write(path)
        return path, load, request.param

    def test_version_error_names_file_kind(self, sealed):
        path, load, kind = sealed
        path.write_bytes(edit_header(path.read_bytes(),
                                     lambda h: h.update(format_version=9)))
        with pytest.raises(VersionMismatchError,
                           match=f"^{re.escape(str(path))}: {kind} file format version 9,"):
            load(str(path))

    # each cut ends in another part of the file; then one flipped payload
    # byte, and a header forged and resealed
    @pytest.mark.parametrize("damage", [
        lambda blob: blob[:2], lambda blob: blob[:6], lambda blob: blob[:12],
        lambda blob: blob[:-40], lambda blob: blob[:-1],
        lambda blob: blob[:-33] + bytes([blob[-33] ^ 1]) + blob[-32:],
        lambda blob: reseal(edit_header(blob, lambda h: h.pop("vocab_hash"))[:-32]),
    ])
    def test_every_error_starts_with_the_path(self, sealed, damage):
        path, load, _ = sealed
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(PipelineError, match=f"^{re.escape(str(path))}: "):
            load(str(path))

    @pytest.mark.parametrize("header", [b"\xff", b"1" * 5000, b"[" * 100_000],
                             ids=["bad-utf8", "5000-digits", "deep-nesting"])
    def test_hostile_header_is_rejected(self, sealed, header):
        path, load, _ = sealed
        blob = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", blob, 4)
        path.write_bytes(blob[:4] + struct.pack("<I", len(header)) + header
                         + blob[8 + header_len:])
        with pytest.raises(SpecCorruptError, match="unreadable"):
            load(str(path))

    def test_every_byte_flip_is_rejected(self, sealed):
        path, load, _ = sealed
        blob = path.read_bytes()
        for offset in range(len(blob)):
            for mask in (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xFF):
                damaged = bytearray(blob)
                damaged[offset] ^= mask
                path.write_bytes(bytes(damaged))
                with pytest.raises(PipelineError):
                    load(str(path))

    def test_every_truncation_is_rejected(self, sealed):
        path, load, _ = sealed
        blob = path.read_bytes()
        for keep in range(len(blob)):
            path.write_bytes(blob[:keep])
            with pytest.raises(PipelineError):
                load(str(path))
