"""Tests for counters, gauges, histograms and the registry."""

import json
import math
import sys

import pytest

from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TelemetryError,
)
from repro.telemetry.metrics import RELATIVE_ERROR


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_starts_at_zero(self, registry):
        assert registry.counter("c").value == 0.0

    def test_inc_default_one(self, registry):
        c = registry.counter("c")
        c.inc()
        c.inc()
        assert c.value == 2.0

    def test_inc_amount(self, registry):
        c = registry.counter("c")
        c.inc(5)
        assert c.value == 5.0

    def test_negative_inc_raises(self, registry):
        with pytest.raises(TelemetryError):
            registry.counter("c").inc(-1)

    def test_full_name_without_labels(self, registry):
        assert registry.counter("sim.events").full_name == "sim.events"

    def test_full_name_sorts_labels(self, registry):
        c = registry.counter("net.sent", zone="a", channel="x")
        assert c.full_name == "net.sent{channel=x,zone=a}"


class TestGauge:
    def test_set(self, registry):
        g = registry.gauge("g")
        g.set(7.5)
        assert g.value == 7.5

    def test_inc_dec(self, registry):
        g = registry.gauge("g")
        g.inc(3)
        g.dec(1)
        assert g.value == 2.0


class TestHistogram:
    def test_count_sum_min_max(self, registry):
        h = registry.histogram("h")
        for v in (0.5, 1.5, 2.5):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(4.5)
        assert h.min == 0.5
        assert h.max == 2.5
        assert h.mean == pytest.approx(1.5)

    def test_bucket_counts_cumulative(self, registry):
        h = registry.histogram("h")
        values = (0.5, 1.5, 5.0)
        for v in values:
            h.observe(v)
        buckets = h.snapshot()["buckets"]
        uppers = [upper for upper, _ in buckets]
        assert uppers == sorted(uppers)
        running = 0
        for (upper, count), value in zip(buckets, values):
            running += count
            # Each sample lies below its bucket's bound, within 1/64 of it.
            assert value < upper <= value * (1 + 1 / 64)
        assert running == h.count == 3

    def test_bucket_bounds_are_exact_binary_fractions(self, registry):
        h = registry.histogram("h")
        h.observe(0.1)  # 0.8 * 2**-3: sub-bucket int(0.8 * 128) = 102
        h.observe(1.0)  # 0.5 * 2**1: the first sub-bucket of [1, 2)
        assert h.snapshot()["buckets"] == [[103 / 1024, 1], [65 / 64, 1]]

    def test_few_sample_quantiles_within_relative_bound(self, registry):
        h = registry.histogram("h")
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        for q, exact in ((0.0, 1.0), (0.5, 2.0), (1.0, 3.0)):
            assert h.quantile(q) == pytest.approx(exact, rel=RELATIVE_ERROR)

    def test_tracks_uniform_quantiles(self, registry):
        h = registry.histogram("h")
        for i in range(1, 1001):
            h.observe(i / 1000.0)
        assert h.quantile(0.5) == pytest.approx(0.5, rel=RELATIVE_ERROR)
        assert h.quantile(0.9) == pytest.approx(0.9, rel=RELATIVE_ERROR)
        assert h.quantile(0.99) == pytest.approx(0.99, rel=RELATIVE_ERROR)

    def test_deterministic(self):
        def run():
            h = Histogram("h")
            value = 0.0
            for _ in range(500):
                value = (value * 1103515245 + 12345) % 1000
                h.observe(value / 1000.0)
            return h.snapshot()

        assert run() == run()

    def test_zero_counts_in_zero_bucket(self, registry):
        h = registry.histogram("h")
        h.observe(0.0)
        h.observe(0.0)
        h.observe(4.0)
        assert h.snapshot()["buckets"][0] == [sys.float_info.min, 2]
        assert h.quantile(0.5) == 0.0
        assert h.quantile(1.0) == 4.0

    def test_largest_accepted_value_has_a_finite_bound(self, registry):
        h = registry.histogram("h")
        value = math.nextafter(math.ldexp(127, 1017), 0.0)
        h.observe(value)
        [[upper, count]] = h.snapshot()["buckets"]
        assert count == 1 and value < upper < math.inf

    @pytest.mark.parametrize(
        "value",
        [-1.0, -1e-300, math.nan, math.inf, -math.inf, math.ldexp(127, 1017)],
    )
    def test_rejects_values_off_the_bucket_grid(self, registry, value):
        h = registry.histogram("h")
        with pytest.raises(TelemetryError):
            h.observe(value)
        assert h.count == 0

    @pytest.mark.parametrize("q", [-0.1, 1.5, math.nan])
    def test_quantile_outside_unit_interval_raises(self, registry, q):
        with pytest.raises(TelemetryError):
            registry.histogram("h").quantile(q)

    def test_empty_quantile_is_zero(self, registry):
        assert registry.histogram("h").quantile(0.5) == 0.0

    def test_snapshot_is_json_safe(self, registry):
        h = registry.histogram("h")
        for v in (0.0, 1e-3, 1.0, 1e6):
            h.observe(v)
        snap = h.snapshot()
        assert json.loads(json.dumps(snap)) == snap
        assert set(snap["quantiles"]) == {"0.5", "0.9", "0.99"}


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self, registry):
        assert registry.counter("c", a="1") is registry.counter("c", a="1")

    def test_different_labels_different_instruments(self, registry):
        assert registry.counter("c", a="1") is not registry.counter("c", a="2")

    def test_label_order_is_irrelevant(self, registry):
        assert registry.counter("c", a="1", b="2") is registry.counter(
            "c", b="2", a="1"
        )

    def test_kind_conflict_raises(self, registry):
        registry.counter("m")
        with pytest.raises(TelemetryError):
            registry.gauge("m")

    def test_value_map_scalars(self, registry):
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.5)
        h = registry.histogram("h")
        h.observe(9.0)
        values = registry.value_map()
        assert values["c"] == 2.0
        assert values["g"] == 1.5
        assert values["h"] == 1.0  # histograms sample their count

    def test_snapshot_sorted_and_json_safe(self, registry):
        registry.counter("z.last").inc()
        registry.counter("a.first").inc()
        snap = registry.snapshot()
        assert list(snap) == sorted(snap)
        json.dumps(snap)

    def test_instrument_types(self, registry):
        assert isinstance(registry.counter("c2"), Counter)
        assert isinstance(registry.gauge("g2"), Gauge)
        assert isinstance(registry.histogram("h2"), Histogram)
