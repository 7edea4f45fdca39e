"""Confusion-matrix construction and the exactness of the derived scores."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vulncascade.errors import EmptyMatrixError, IdOutOfRangeError, ShapeMismatchError
from vulncascade.metrics import confusion, scores


class TestConfusion:
    def test_counts_land_on_rows_by_truth(self):
        m = confusion(preds=[0, 1, 1, 2], labels=[0, 1, 2, 2], num_classes=3)
        expected = np.array([[1, 0, 0],
                             [0, 1, 0],
                             [0, 1, 1]])
        np.testing.assert_array_equal(m, expected)

    def test_repeats_accumulate(self):
        m = confusion([1, 1, 1], [0, 0, 0], num_classes=2)
        assert m[0, 1] == 3

    def test_total_is_sample_count(self, rng):
        preds = rng.integers(0, 5, size=40)
        labels = rng.integers(0, 5, size=40)
        assert confusion(preds, labels, 5).sum() == 40

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            confusion([0, 1], [0, 1, 0], num_classes=2)

    def test_rejects_matrix_input(self):
        with pytest.raises(ShapeMismatchError):
            confusion([[0], [1]], [[0], [1]], num_classes=2)

    def test_out_of_range_pred(self):
        with pytest.raises(IdOutOfRangeError, match="preds"):
            confusion([0, 5], [0, 1], num_classes=2)

    def test_negative_label(self):
        with pytest.raises(IdOutOfRangeError, match="labels"):
            confusion([0, 1], [0, -1], num_classes=2)

    def test_empty_inputs_make_zero_matrix(self):
        m = confusion([], [], num_classes=3)
        assert m.shape == (3, 3) and m.sum() == 0


class TestScores:
    def test_binary_worked_example(self):
        # one true positive, one false positive, no false negatives, two
        # true negatives: F1 for the positive class is exactly 2/3
        m = confusion(preds=[1, 1, 0, 0], labels=[1, 0, 0, 0], num_classes=2)
        s = scores(m)
        assert s.per_class[1].f1 == 2.0 / 3.0
        assert s.per_class[1].precision == 0.5
        assert s.per_class[1].recall == 1.0
        assert s.accuracy == 0.75

    def test_perfect_prediction(self):
        m = confusion([0, 1, 2], [0, 1, 2], num_classes=3)
        s = scores(m)
        assert s.accuracy == 1.0
        assert s.micro_f1 == 1.0
        assert s.macro_f1 == 1.0
        assert all(c.f1 == 1.0 and not c.undefined for c in s.per_class)

    def test_micro_equals_accuracy_exactly(self, rng):
        for _ in range(25):
            k = int(rng.integers(2, 8))
            n = int(rng.integers(1, 60))
            m = confusion(rng.integers(0, k, n), rng.integers(0, k, n), k)
            s = scores(m)
            assert s.micro_f1 == s.accuracy

    def test_macro_averages_per_class(self):
        m = confusion([0, 1, 1], [0, 0, 1], num_classes=2)
        s = scores(m)
        assert s.macro_f1 == pytest.approx(
            (s.per_class[0].f1 + s.per_class[1].f1) / 2, abs=0
        )

    def test_absent_class_flagged_undefined(self):
        # class 2 never appears in truth or prediction
        m = confusion([0, 1], [0, 1], num_classes=3)
        s = scores(m)
        assert s.per_class[2].undefined
        assert s.per_class[2].f1 == 0.0
        assert not s.per_class[0].undefined

    def test_never_predicted_class(self):
        m = confusion([0, 0], [0, 1], num_classes=2)
        s = scores(m)
        assert s.per_class[1].undefined  # no predictions for class 1
        assert s.per_class[1].precision == 0.0
        assert s.per_class[1].recall == 0.0

    def test_empty_matrix_raises(self):
        with pytest.raises(EmptyMatrixError):
            scores(np.zeros((3, 3), dtype=np.int64))

    def test_as_dict_is_json_ready(self):
        import json

        s = scores(confusion([0, 1], [1, 1], num_classes=2))
        blob = json.dumps(s.as_dict())
        assert "macro_f1" in blob

    def test_as_dict_key_order(self):
        # evaluate --json prints these keys in this order
        out = scores(confusion([0, 1], [1, 1], num_classes=2)).as_dict()
        assert list(out) == ["accuracy", "macro_f1", "micro_f1", "per_class"]
        assert [list(c) for c in out["per_class"]] == [
            ["precision", "recall", "f1", "undefined"]] * 2

    def test_table_marks_undefined_rows(self):
        s = scores(confusion([0, 0], [0, 1], num_classes=2))
        table = s.format_table(["clean", "CWE-121"])
        assert "CWE-121" in table
        assert "*" in table
        assert "empty denominator" in table

    def test_table_without_undefined_rows(self):
        s = scores(confusion([0, 1], [0, 1], num_classes=2))
        assert "empty denominator" not in s.format_table()


@settings(deadline=None, max_examples=200)
@given(
    data=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=80
    )
)
def test_micro_f1_accuracy_identity_property(data):
    preds = [p for p, _ in data]
    labels = [t for _, t in data]
    s = scores(confusion(preds, labels, num_classes=6))
    assert s.micro_f1 == s.accuracy
