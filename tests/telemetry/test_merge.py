"""Tests for cross-run telemetry snapshot merging."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.telemetry import Histogram, TelemetryError, merge_snapshots
from repro.telemetry.metrics import RELATIVE_ERROR


def histogram_snapshot(values):
    h = Histogram("latency")
    for value in values:
        h.observe(value)
    return h.snapshot()


def snapshot(counter=1.0, gauge=2.0, samples=(1.0, 2.0, 3.0)):
    return {
        "metrics": {
            "lu.sent": {"kind": "counter", "value": counter},
            "clusters.live": {"kind": "gauge", "value": gauge},
            "latency": histogram_snapshot(samples),
        },
        "samples": {"clusters.live": {"times": [0.0], "values": [gauge]}},
        "spans": {"step": {"count": 2, "wall_total": 0.5, "sim_total": 4.0}},
        "events": {"counts": {"info": 3, "warn": 1}},
    }


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


class TestMergeSnapshots:
    def test_counters_sum(self):
        merged = merge_snapshots([snapshot(counter=1.0), snapshot(counter=4.0)])
        assert merged["metrics"]["lu.sent"]["value"] == 5.0
        assert merged["runs"] == 2

    def test_gauges_average(self):
        merged = merge_snapshots([snapshot(gauge=2.0), snapshot(gauge=4.0)])
        assert merged["metrics"]["clusters.live"]["value"] == 3.0

    def test_histograms_fold_count_sum_min_max(self):
        merged = merge_snapshots(
            [snapshot(samples=(1.0, 2.0, 3.0)), snapshot(samples=(0.5, 10.0))]
        )
        latency = merged["metrics"]["latency"]
        assert latency["count"] == 5
        assert latency["sum"] == 16.5
        assert latency["mean"] == 3.3
        assert latency["min"] == 0.5
        assert latency["max"] == 10.0
        # Buckets add exactly, so the quantiles are recomputed, not dropped.
        quantiles = latency["quantiles"]
        assert quantiles["0.5"] == pytest.approx(2.0, rel=RELATIVE_ERROR)
        assert quantiles["0.9"] == quantiles["0.99"] == 10.0

    def test_spans_and_events_sum(self):
        merged = merge_snapshots([snapshot(), snapshot()])
        assert merged["spans"]["step"]["count"] == 4
        assert merged["spans"]["step"]["wall_total"] == 1.0
        assert merged["events"]["counts"] == {"info": 6, "warn": 2}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_snapshots([])

    def test_single_snapshot_passthrough_totals(self):
        merged = merge_snapshots([snapshot()])
        assert merged["runs"] == 1
        assert merged["metrics"]["lu.sent"]["value"] == 1.0

    def test_real_run_snapshots_merge(self):
        from repro.experiments import ExperimentConfig, run_experiment
        from repro.telemetry import TelemetryConfig

        # One transparent channel (every latency exactly 0.0) and one with
        # a fixed 50 ms latency: the merged quantiles span both runs.
        snaps = [
            run_experiment(
                ExperimentConfig(
                    duration=3.0,
                    dth_factors=(1.0,),
                    channel_latency=latency,
                    telemetry=TelemetryConfig(enabled=True),
                )
            ).telemetry
            for latency in (0.0, 0.05)
        ]
        merged = merge_snapshots(snaps)
        assert merged["runs"] == 2
        assert merged["metrics"]
        name = "net.channel.delivery_latency"
        counts = [snap["metrics"][name]["count"] for snap in snaps]
        assert counts[0] == counts[1] > 0
        latency = merged["metrics"][name]
        assert latency["count"] == sum(counts)
        assert latency["quantiles"] == {"0.5": 0.0, "0.9": 0.05, "0.99": 0.05}


class TestExactMerge:
    @settings(max_examples=200, deadline=None)
    @given(
        # Bounded so that sums stay finite; the top of the bucket grid and
        # values beyond it have their own tests in test_metrics.py.
        values=st.lists(st.floats(min_value=0.0, max_value=1e300), max_size=60),
        cuts=st.lists(st.integers(min_value=0, max_value=60), max_size=4),
    )
    def test_merge_equals_one_histogram(self, values, cuts):
        bounds = sorted(min(cut, len(values)) for cut in cuts)
        runs = [
            values[lo:hi]
            for lo, hi in zip([0, *bounds], [*bounds, len(values)])
        ]
        merged = merge_snapshots(
            [{"metrics": {"h": histogram_snapshot(run)}} for run in runs]
        )["metrics"]["h"]
        whole = histogram_snapshot(values)
        for key in ("count", "min", "max", "buckets", "quantiles"):
            assert merged[key] == whole[key], key
        assert merged["sum"] == pytest.approx(whole["sum"])
        for q, estimate in merged["quantiles"].items():
            exact = nearest_rank(values, float(q)) if values else 0.0
            # The zero bucket (below the smallest normal float) is exact
            # only to within that float.
            bound = max(exact * RELATIVE_ERROR, 2.0**-1022)
            assert abs(estimate - exact) <= bound


#: A histogram snapshot as written before the log-linear buckets: fixed
#: decimal bounds, cumulative counts and an ``"inf"`` overflow bucket.
OLD_FORMAT = {
    "kind": "histogram",
    "count": 3,
    "sum": 0.006,
    "mean": 0.002,
    "min": 0.001,
    "max": 0.003,
    "quantiles": {"0.5": 0.002, "0.9": 0.003, "0.99": 0.003},
    "buckets": [[0.001, 1], [0.005, 3], [0.01, 3], ["inf", 3]],
}

#: Exact bucket bounds (those of samples 0.75, 1.5, 1.5) but cumulative
#: counts, which sum to 4 for a count of 3.
CUMULATIVE = {
    "kind": "histogram",
    "count": 3,
    "sum": 3.75,
    "mean": 1.25,
    "min": 0.75,
    "max": 1.5,
    "quantiles": {"0.5": 1.5, "0.9": 1.5, "0.99": 1.5},
    "buckets": [[0.7578125, 1], [1.515625, 3]],
}


class TestMalformedSnapshots:
    def test_cumulative_literal_has_exact_bounds(self):
        assert histogram_snapshot([0.75, 1.5, 1.5])["buckets"] == [
            [0.7578125, 1],
            [1.515625, 2],
        ]

    @pytest.mark.parametrize(
        "bad", [OLD_FORMAT, CUMULATIVE], ids=["old_format", "cumulative"]
    )
    def test_merge_raises_telemetry_error(self, bad):
        with pytest.raises(TelemetryError):
            merge_snapshots([{"metrics": {"latency": bad}}])

    @pytest.mark.parametrize(
        "buckets, count",
        [
            ([[0.001, 1]], 1),  # not an exact bucket bound
            ([[1.0, 0]], 0),  # empty bucket
            ([[1.0, 1.0]], 1),  # float count
            ([[1.0, True]], 1),  # bool count
            ([[2.0**-1030, 1]], 1),  # below the zero bucket's bound
            ([[math.inf, 1]], 1),
            ([[1.0, 1, 1]], 1),  # not a pair
            ([[1.0, 2]], 1),  # counts do not sum to count
        ],
        ids=[
            "inexact_bound",
            "empty_bucket",
            "float_count",
            "bool_count",
            "subnormal_bound",
            "inf_bound",
            "not_a_pair",
            "sum_mismatch",
        ],
    )
    def test_absorb_rejects_and_leaves_histogram_unchanged(self, buckets, count):
        h = Histogram("latency")
        for value in (0.0, 1.5):
            h.observe(value)
        before = h.snapshot()
        bad = dict(histogram_snapshot([1.5]), count=count, buckets=buckets)
        with pytest.raises(TelemetryError):
            h.absorb(bad)
        assert h.snapshot() == before

    def test_zero_bucket_and_empty_snapshots_absorb(self):
        h = Histogram("latency")
        h.absorb(histogram_snapshot([]))
        h.absorb(histogram_snapshot([0.0, 0.0, 2.5]))
        assert h.snapshot() == histogram_snapshot([0.0, 0.0, 2.5])
