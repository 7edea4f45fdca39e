import numpy as np
import pytest

from vulncascade.errors import ShapeMismatchError
from vulncascade.optim import Adam

from conftest import gradient_check


class TestAdam:
    def test_first_step_hand_computed(self):
        # with bias correction the first update is lr * g / (|g| + eps)
        p = np.array([1.0])
        g = np.array([0.25])
        opt = Adam(0.01)
        opt.step([p], [g])
        m_hat = 0.1 * 0.25 / (1 - 0.9)
        v_hat = 0.001 * 0.25 ** 2 / (1 - 0.999)
        want = 1.0 - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert abs(p[0] - want) < 1e-15

    def test_two_steps_hand_computed(self):
        p = np.array([0.0])
        opt = Adam(0.1)
        m = v = 0.0
        expect = 0.0
        for step, g in enumerate([0.5, -0.2], start=1):
            opt.step([p], [np.array([g])])
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            m_hat = m / (1 - 0.9 ** step)
            v_hat = v / (1 - 0.999 ** step)
            expect -= 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert abs(p[0] - expect) < 1e-14

    def test_later_step_with_more_arrays_is_refused(self):
        # moments are fixed at the first step; a late array would get bias
        # correction for steps it never took
        opt = Adam(0.1)
        a, b = np.zeros(2), np.zeros((3, 3))
        opt.step([a], [np.ones(2)])
        moved = a.copy()
        with pytest.raises(ShapeMismatchError):
            opt.step([a, b], [np.ones(2), np.ones((3, 3))])
        np.testing.assert_array_equal(a, moved)
        assert not b.any()


class TestFactory:
    """The checks of the Optimizer base class, through Adam."""

    def test_bad_learning_rate(self):
        with pytest.raises(ValueError):
            Adam(0.0)
        with pytest.raises(ValueError):
            Adam(-1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            Adam(0.1).step([np.zeros(2)], [np.zeros(3)])


class TestGradientCheck:
    def test_accepts_correct_gradient(self):
        p = np.array([1.0, -2.0, 3.0])

        def loss_fn():
            return float(np.sum(p ** 2))

        err = gradient_check(loss_fn, [p], [2 * p])
        assert err < 1e-8

    def test_catches_wrong_gradient(self):
        p = np.array([1.0, -2.0])

        def loss_fn():
            return float(np.sum(p ** 2))

        err = gradient_check(loss_fn, [p], [3 * p])
        assert err > 0.1

    def test_restores_parameters(self):
        p = np.array([1.5, 2.5])
        before = p.copy()

        def loss_fn():
            return float(np.sum(p))

        gradient_check(loss_fn, [p], [np.ones(2)])
        assert np.array_equal(p, before)

    def test_nonfinite_loss_raises(self):
        p = np.array([0.0])

        def loss_fn():
            return float(np.log(p[0]))

        with pytest.raises(FloatingPointError):
            gradient_check(loss_fn, [p], [np.ones(1)])

    def test_subset_probing_large_tensor(self):
        p = np.linspace(0.1, 1.0, 400).copy()

        def loss_fn():
            return float(np.sum(np.sin(p)))

        err = gradient_check(loss_fn, [p], [np.cos(p)], max_coords=50,
                             rng=np.random.default_rng(3))
        assert err < 1e-7
