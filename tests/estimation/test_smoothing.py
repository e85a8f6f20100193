"""Tests for exponential smoothing estimators."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.estimation import (
    BrownDoubleExponentialSmoothing,
    HoltLinearSmoothing,
    SimpleExponentialSmoothing,
)
from repro.estimation.smoothing import brown_forecast, brown_step

values = st.floats(min_value=-1e5, max_value=1e5)


class TestSimple:
    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            SimpleExponentialSmoothing(0.0)
        with pytest.raises(ValueError):
            SimpleExponentialSmoothing(1.0)

    def test_first_observation_initialises(self):
        s = SimpleExponentialSmoothing(0.3)
        assert s.update(10.0) == 10.0

    def test_recursion(self):
        s = SimpleExponentialSmoothing(0.5)
        s.update(10.0)
        assert s.update(20.0) == pytest.approx(15.0)

    def test_flat_forecast(self):
        s = SimpleExponentialSmoothing(0.5)
        s.update(10.0)
        s.update(20.0)
        assert s.forecast(1) == s.forecast(100)

    def test_ready_flag(self):
        s = SimpleExponentialSmoothing(0.5)
        assert not s.ready
        s.update(1.0)
        assert s.ready
        assert s.n_observations == 1

    def test_constant_series_converges(self):
        s = SimpleExponentialSmoothing(0.3)
        for _ in range(50):
            s.update(7.0)
        assert s.level == pytest.approx(7.0)


class TestBrown:
    def test_constant_series_zero_trend(self):
        b = BrownDoubleExponentialSmoothing(0.4)
        for _ in range(100):
            b.update(5.0)
        assert b.level == pytest.approx(5.0)
        assert b.trend == pytest.approx(0.0, abs=1e-9)

    def test_linear_trend_tracked(self):
        """On x_t = 2t, the h-step forecast converges to 2(t + h)."""
        b = BrownDoubleExponentialSmoothing(0.4)
        for t in range(200):
            b.update(2.0 * t)
        last_t = 199
        assert b.forecast(1) == pytest.approx(2.0 * (last_t + 1), rel=0.01)
        assert b.trend == pytest.approx(2.0, rel=0.01)

    def test_forecast_is_linear_in_horizon(self):
        b = BrownDoubleExponentialSmoothing(0.4)
        for t in range(50):
            b.update(float(t))
        f1, f2, f3 = b.forecast(1), b.forecast(2), b.forecast(3)
        assert f2 - f1 == pytest.approx(f3 - f2)

    def test_textbook_recursion(self):
        """Hand-checked S', S'' for alpha=0.5 on [10, 20]."""
        b = BrownDoubleExponentialSmoothing(0.5)
        b.update(10.0)  # s1 = s2 = 10
        b.update(20.0)  # s1 = 15, s2 = 12.5
        assert b.level == pytest.approx(2 * 15 - 12.5)
        assert b.trend == pytest.approx(1.0 * (15 - 12.5))

    def test_no_observations_trend_zero(self):
        assert BrownDoubleExponentialSmoothing(0.4).trend == 0.0


class TestHolt:
    def test_constant_series(self):
        h = HoltLinearSmoothing(0.4, 0.2)
        for _ in range(100):
            h.update(5.0)
        assert h.level == pytest.approx(5.0)
        assert h.trend == pytest.approx(0.0, abs=1e-9)

    def test_linear_trend_tracked(self):
        h = HoltLinearSmoothing(0.4, 0.2)
        for t in range(300):
            h.update(3.0 * t)
        assert h.trend == pytest.approx(3.0, rel=0.02)

    def test_beta_bounds(self):
        with pytest.raises(ValueError):
            HoltLinearSmoothing(0.5, 0.0)


class TestProperties:
    @given(st.lists(values, min_size=1, max_size=60))
    def test_simple_level_within_data_range(self, xs):
        s = SimpleExponentialSmoothing(0.3)
        for x in xs:
            s.update(x)
        assert min(xs) - 1e-6 <= s.level <= max(xs) + 1e-6

    @given(st.lists(values, min_size=2, max_size=60), st.floats(0.05, 0.95))
    def test_brown_and_holt_agree_on_constants(self, xs, alpha):
        constant = xs[0]
        b = BrownDoubleExponentialSmoothing(alpha)
        for _ in xs:
            b.update(constant)
        assert b.forecast(5) == pytest.approx(constant, rel=1e-6, abs=1e-6)

    @given(st.floats(0.05, 0.95), st.floats(-100, 100), st.floats(-10, 10))
    def test_brown_converges_on_any_line(self, alpha, intercept, slope):
        b = BrownDoubleExponentialSmoothing(alpha)
        for t in range(400):
            b.update(intercept + slope * t)
        expected = intercept + slope * 400
        assert b.forecast(1) == pytest.approx(expected, rel=0.05, abs=0.5)


class TestUpdateAbsorbEquivalence:
    """``update`` must equal ``_absorb`` + ``_n`` + ``level`` for every
    smoother that keeps the generic template.

    Brown's smoother has no ``_absorb``: its ``update`` is its only step
    path and :class:`TestBrownFunctions` pins it to :func:`brown_step`.
    """

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: SimpleExponentialSmoothing(0.3),
            lambda: HoltLinearSmoothing(0.4, 0.2),
        ],
        ids=["simple", "holt"],
    )
    @given(series=st.lists(values, min_size=1, max_size=40))
    def test_update_equals_absorb_plus_level(self, factory, series):
        via_update = factory()
        via_absorb = factory()
        for value in series:
            returned = via_update.update(value)
            via_absorb._absorb(float(value))
            via_absorb._n += 1
            # Bit-equality, not approx: update() must be the same
            # arithmetic, not a reimplementation that happens to be close.
            assert returned == via_absorb.level
            assert via_update.level == via_absorb.level
            assert via_update.n_observations == via_absorb.n_observations
            assert via_update.forecast(2.5) == via_absorb.forecast(2.5)


#: Smoothing constants across (0, 1), including values a hair from either end.
alphas = st.one_of(
    st.floats(min_value=1e-12, max_value=1.0 - 1e-12),
    st.sampled_from([1e-12, 1e-6, 0.4, 1.0 - 1e-6, 1.0 - 1e-12]),
)


class TestBrownFunctions:
    """``brown_step``/``brown_forecast`` are shared by the object trackers
    and the columnar broker state, so float and float64-array evaluation
    must agree bit for bit."""

    @given(
        rows=st.lists(st.tuples(values, values, values), min_size=1, max_size=20),
        a=alphas,
        horizon=st.sampled_from([1.0, 2.5]),
    )
    def test_array_equals_elementwise_floats(self, rows, a, horizon):
        s1, s2, x = (np.array(col, dtype=np.float64) for col in zip(*rows))
        n1, n2 = brown_step(s1, s2, x, a)
        f = brown_forecast(n1, n2, a, horizon)
        for i, (r1, r2, rx) in enumerate(rows):
            e1, e2 = brown_step(r1, r2, rx, a)
            assert type(e1) is float and type(e2) is float
            assert (n1[i], n2[i]) == (e1, e2)
            assert f[i] == brown_forecast(e1, e2, a, horizon)

    @given(series=st.lists(values, min_size=1, max_size=40), a=alphas)
    def test_smoother_update_matches_brown_step(self, series, a):
        smoother = BrownDoubleExponentialSmoothing(a)
        s1 = s2 = float(series[0])
        smoother.update(series[0])
        for value in series[1:]:
            s1, s2 = brown_step(s1, s2, float(value), a)
            assert smoother.update(value) == 2.0 * s1 - s2
        assert smoother.state_dict() == {
            "alpha": a, "n": len(series), "s1": s1, "s2": s2,
        }
        assert smoother.forecast(2.5) == brown_forecast(s1, s2, a, 2.5)
