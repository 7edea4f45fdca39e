import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vulncascade.errors import NotEnoughPointsError, ShapeMismatchError
from vulncascade.smote import (
    SmoteConfig,
    SynthRecord,
    class_histogram,
    nearest_neighbor_indices,
    oversample,
    synthesize,
)


class TestNeighbors:
    def test_hand_case(self):
        pts = np.array([[0.0], [1.0], [10.0], [2.0]])
        assert nearest_neighbor_indices(pts, 0, 2).tolist() == [1, 3]

    def test_self_excluded(self):
        # the query row itself never appears, even with duplicates present
        pts = np.array([[5.0], [5.0], [6.0]])
        assert nearest_neighbor_indices(pts, 0, 2).tolist() == [1, 2]

    def test_distance_ties_resolve_by_input_order(self):
        pts = np.array([[0.0], [1.0], [-1.0], [1.0]])
        assert nearest_neighbor_indices(pts, 0, 3).tolist() == [1, 2, 3]

    def test_too_few_points(self):
        with pytest.raises(NotEnoughPointsError):
            nearest_neighbor_indices(np.zeros((3, 2)), 0, 3)


class TestSynthesize:
    def test_endpoints(self):
        a, b = np.array([1.0, 5.0]), np.array([3.0, 1.0])
        assert synthesize(a, b, 0.0).tolist() == a.tolist()
        assert synthesize(a, b, 1.0).tolist() == b.tolist()

    def test_midpoint(self):
        a, b = np.array([0.0, 2.0]), np.array([4.0, 0.0])
        assert synthesize(a, b, 0.5).tolist() == [2.0, 1.0]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            synthesize(np.zeros(2), np.zeros(3), 0.5)


def toy_classes(rng, sizes, dim=6, vocab=40):
    return {
        label: rng.integers(0, vocab, size=(n, dim)).astype(np.float64)
        for label, n in zip(range(len(sizes)), sizes)
    }


class TestOversample:
    def test_histogram_uniform_after(self, rng):
        by_class = toy_classes(rng, [12, 7, 9])
        out = oversample(by_class, SmoteConfig(k=3, seed=1), vocab_size=40)
        assert set(class_histogram(out).values()) == {12}

    def test_originals_preserved_in_order(self, rng):
        by_class = toy_classes(rng, [9, 5])
        out = oversample(by_class, SmoteConfig(k=3, seed=2), vocab_size=40)
        for label, x in by_class.items():
            assert np.array_equal(out[label][: x.shape[0]], x)

    def test_synthetic_rows_valid_ids(self, rng):
        by_class = toy_classes(rng, [15, 6], vocab=40)
        out = oversample(by_class, SmoteConfig(k=4, seed=3), vocab_size=40)
        for x in out.values():
            assert np.all(x >= 0) and np.all(x <= 39)
            assert np.array_equal(x, np.rint(x))

    def test_segment_membership_of_raw_points(self, rng):
        by_class = toy_classes(rng, [20, 8])
        trace: list[SynthRecord] = []
        out = oversample(by_class, SmoteConfig(k=4, seed=4), vocab_size=40,
                         trace=trace)
        assert trace, "interpolation path should have produced records"
        for rec in trace:
            x = by_class[rec.label]
            a, b = x[rec.parent_a], x[rec.parent_b]
            assert 0.0 <= rec.lam <= 1.0
            lo = np.minimum(a, b)
            hi = np.maximum(a, b)
            assert np.all(rec.raw >= lo - 1e-9)
            assert np.all(rec.raw <= hi + 1e-9)
            # and the point actually lies on the segment, not just in the box
            assert np.allclose(rec.raw, a + rec.lam * (b - a), atol=1e-12)
        assert class_histogram(out) == {0: 20, 1: 20}

    def test_parents_are_neighbors(self, rng):
        # a larger second class sets the size class 0 grows to
        by_class = toy_classes(rng, [25, 40], dim=4)
        trace: list[SynthRecord] = []
        oversample(by_class, SmoteConfig(k=3, seed=5), vocab_size=40, trace=trace)
        pts = by_class[0]
        assert len(trace) == 15 and {rec.label for rec in trace} == {0}
        for rec in trace:
            neighbors = nearest_neighbor_indices(pts, rec.parent_a, 3)
            assert rec.parent_b in neighbors.tolist()

    def test_determinism_byte_exact(self, rng):
        by_class = toy_classes(rng, [11, 6, 3])
        cfg = SmoteConfig(k=2, seed=7)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            one = oversample(by_class, cfg, vocab_size=40)
            two = oversample(by_class, cfg, vocab_size=40)
        assert one.keys() == two.keys()
        for label in one:
            assert one[label].tobytes() == two[label].tobytes()

    def test_seed_changes_output(self, rng):
        by_class = toy_classes(rng, [16, 5])
        a = oversample(by_class, SmoteConfig(k=4, seed=0), vocab_size=40)
        b = oversample(by_class, SmoteConfig(k=4, seed=1), vocab_size=40)
        assert any(one.tobytes() != two.tobytes()
                   for one, two in zip(a.values(), b.values()))

    def test_small_class_duplicates_with_warning(self, rng):
        by_class = toy_classes(rng, [10, 3])
        with pytest.warns(UserWarning, match="duplication"):
            out = oversample(by_class, SmoteConfig(k=5, seed=8), vocab_size=40)
        assert out[1].shape[0] == 10
        originals = {row.tobytes() for row in by_class[1]}
        for row in out[1]:
            assert row.tobytes() in originals

    def test_empty_input(self):
        assert oversample({}, SmoteConfig(), vocab_size=10) == {}

    def test_already_balanced_copies_untouched(self, rng):
        by_class = toy_classes(rng, [5, 5])
        out = oversample(by_class, SmoteConfig(k=2, seed=0), vocab_size=40)
        for label in by_class:
            assert np.array_equal(out[label], by_class[label])
            assert out[label] is not by_class[label]

    def test_bad_k(self):
        with pytest.raises(ValueError):
            SmoteConfig(k=0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 5), st.integers(6, 15))
def test_uniform_histogram_property(seed, n_classes, biggest):
    r = np.random.default_rng(seed)
    sizes = [int(r.integers(6, biggest + 1)) for _ in range(n_classes - 1)]
    sizes.append(biggest)
    by_class = {i: r.integers(0, 30, size=(n, 5)).astype(np.float64)
                for i, n in enumerate(sizes)}
    out = oversample(by_class, SmoteConfig(k=5, seed=seed), vocab_size=30)
    assert set(class_histogram(out).values()) == {biggest}
