"""Encoded-sample archive round trips and damage detection."""

import numpy as np
import pytest

from vulncascade.archive import (
    ARCHIVE_MAGIC,
    LABEL_BINARY,
    LABEL_CLASS,
    EncodedArchive,
    load_archive,
    save_archive,
)
from vulncascade.errors import (
    ChecksumMismatchError,
    SpecCorruptError,
    VersionMismatchError,
)

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
        blob = bytearray(path.read_bytes())
        blob[4] = 9  # low byte of the u16 version field
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatchError) as info:
            load_archive(str(path))
        assert info.value.found == 9

    @pytest.mark.parametrize("keep", [0, 2, 10, 20, 55])
    def test_truncation(self, path, keep):
        blob = path.read_bytes()
        path.write_bytes(blob[:keep])
        with pytest.raises(ChecksumMismatchError, match="truncated"):
            load_archive(str(path))

    def test_truncated_last_block(self, path):
        blob = path.read_bytes()
        path.write_bytes(blob[:-1])
        with pytest.raises(ChecksumMismatchError, match="labels"):
            load_archive(str(path))

    def test_unknown_label_kind_byte(self, path):
        blob = bytearray(path.read_bytes())
        blob[6] = 7  # low byte of the u16 label_kind field
        path.write_bytes(bytes(blob))
        with pytest.raises(SpecCorruptError, match="label kind"):
            load_archive(str(path))

    def test_binary_label_out_of_range(self, tmp_path):
        path = tmp_path / "b.vcen"
        save_archive(sample_archive(kind=LABEL_BINARY), str(path))
        blob = bytearray(path.read_bytes())
        blob[-3] = 1  # the last label, a u32, becomes 257 or 256
        path.write_bytes(bytes(blob))
        with pytest.raises(SpecCorruptError, match="labels must lie"):
            load_archive(str(path))

    def test_class_label_out_of_range(self, path):
        blob = bytearray(path.read_bytes())
        blob[-4:] = (4).to_bytes(4, "little")  # num_classes is 4
        path.write_bytes(bytes(blob))
        with pytest.raises(SpecCorruptError, match="labels must lie"):
            load_archive(str(path))

    def test_trailing_garbage(self, path):
        path.write_bytes(path.read_bytes() + b"\x00\x01")
        with pytest.raises(SpecCorruptError, match="trailing"):
            load_archive(str(path))

    def test_magic_constant(self):
        assert ARCHIVE_MAGIC == b"VCEN"
