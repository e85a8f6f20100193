"""The benchmark's own tests, at tiny scale.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import io
import json
from pathlib import Path

import pytest

from perfbench import run as bench
from perfbench.tracer import Lap, LapClock, Tracer
from perfbench.workloads import (
    WORKLOADS,
    CityFleet,
    PaperFleet,
    Rep,
    ServingReplay,
    check_city,
    check_city_reference,
    check_paper,
    check_serving,
)

ROOT = Path(__file__).resolve().parents[2]
SPEC = bench.load_spec(ROOT)

TINY = {
    "paper-140": PaperFleet(duration=30.0),
    "city-1m": CityFleet(nodes=20_000, blocks=3, steps=2),
    "serving-wal": ServingReplay(nodes=500, duration=10.0, rate=5_000.0),
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One untraced and one traced tiny run of every workload."""
    out = {}
    for name, workload in TINY.items():
        for trace in (False, True):
            workdir = tmp_path_factory.mktemp(f"{name}-{int(trace)}")
            out[name, trace] = bench.run_workload(
                workload, seed=3, seconds=0.0, trace=trace, workdir=workdir
            )
    return out


def test_tiny_workloads_match_the_registry():
    assert set(TINY) == set(WORKLOADS)
    for name, workload in TINY.items():
        assert type(workload) is type(WORKLOADS[name])


def test_spec_and_manifest_agree():
    manifest = json.loads((ROOT / "perfbench" / "manifest.json").read_text())
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(WORKLOADS) == list(manifest["workloads"])
    layer_names = [m["name"] for m in SPEC["per_layer"]]
    assert sorted(layer_names) == sorted(manifest["per_layer"])
    for name, entry in manifest["per_layer"].items():
        assert ("moves" in entry) != entry.get("must_not_move", False), name
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(manifest["end_to_end"])


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_workload_emits_every_metric_with_its_unit(runs, name, trace):
    run = runs[name, trace]
    assert run["problems"] == []
    result = bench.result_line(run, SPEC, trace)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_covers_the_path_and_accounts_for_its_time(runs, name):
    run = runs[name, True]
    tracer = run["tracer"]
    for hook in TINY[name].hooks():
        assert tracer.layers[hook.layer].calls > 0, hook.layer
    metrics = bench.per_layer_metrics(run)
    assert 0.98 <= metrics["trace_accounted_frac"] <= 1.0 + 1e-9
    assert "trace_overhead_frac" in metrics
    assert any(span[0].endswith(("step_self_s", "flush_s")) for span in tracer.spans)
    assert all(end is not None and end >= start for _, start, end, _ in tracer.spans)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tracer_restores_every_wrapped_attribute(runs, name):
    hooks = TINY[name].hooks()
    before = [vars(h.owner).get(h.attr) for h in hooks]
    tracer = Tracer()
    tracer.install(hooks)
    assert all(getattr(h.owner, h.attr) is not b for h, b in zip(hooks, before))
    tracer.remove()
    assert [vars(h.owner).get(h.attr) for h in hooks] == before


def test_untraced_run_installs_only_the_lap_clock(monkeypatch, tmp_path):
    def refuse(self, hooks):
        raise AssertionError("a layer wrapper was installed in an untraced run")

    monkeypatch.setattr(Tracer, "install", refuse)
    run = bench.run_workload(
        TINY["paper-140"], seed=5, seconds=0.0, trace=False, workdir=tmp_path
    )
    assert run["problems"] == [] and run["tracer"] is None
    assert len(run["reps"]) == len(run["laps"]) == bench.MIN_REPS
    # One lap per step plus the collect after the last one.
    steps = TINY["paper-140"].duration
    assert all(len(laps) == steps + 1 for laps in run["laps"])


@pytest.mark.parametrize("name", sorted(TINY))
def test_lap_clock_splits_the_timed_section_and_restores(runs, name):
    run = runs[name, False]
    for laps, wall in zip(run["laps"], run["walls"][False]):
        assert len(laps) > 1 and min(laps) >= 0.0
        assert sum(laps) == pytest.approx(wall)
    median = bench.median_lap_seconds(run["laps"])
    walls = run["walls"][False]
    assert min(walls) - 1e-9 <= median <= max(walls) + 1e-9
    lap_calls = TINY[name].laps()
    before = [vars(lap.owner).get(lap.attr) for lap in lap_calls]
    clock = LapClock()
    clock.install(lap_calls)
    for lap, original in zip(lap_calls, before):
        assert getattr(lap.owner, lap.attr) is not original
    clock.remove()
    assert [vars(lap.owner).get(lap.attr) for lap in lap_calls] == before


def test_median_lap_time_takes_each_laps_median_repeat():
    laps = [[1.0, 5.0, 2.0], [3.0, 1.0, 2.5], [2.0, 9.0, 1.0]]
    assert bench.median_lap_seconds(laps) == 2.0 + 5.0 + 2.0


def test_traced_and_untraced_repeats_agree(runs):
    for name in TINY:
        reps = runs[name, True]["reps"]
        assert len(reps) == 2 * bench.MIN_PAIRS
        assert all(rep.summary == reps[0].summary for rep in reps)
        assert runs[name, False]["reps"][0].summary == reps[0].summary


# -- each output check trips on a corrupted result -----------------------------
def _corrupt(summary, **changes):
    bad = copy.deepcopy(summary)
    for key, value in changes.items():
        bad[key] = value(bad[key]) if callable(value) else value
    return bad


def test_paper_check_trips(runs):
    good = runs["paper-140", False]["reps"][0].summary
    assert check_paper(good) == []
    assert check_paper(_corrupt(good, node_count=139))
    swapped = copy.deepcopy(good)
    swapped["adf"][0]["reduction"], swapped["adf"][2]["reduction"] = (
        swapped["adf"][2]["reduction"],
        swapped["adf"][0]["reduction"],
    )
    assert check_paper(swapped)
    no_le_gain = copy.deepcopy(good)
    lane = no_le_gain["adf"][1]
    lane["rmse_with_le"] = lane["rmse_without_le"]
    assert check_paper(no_le_gain)


def test_city_checks_trip(runs):
    good = runs["city-1m", False]["reps"][0].summary
    assert check_city(good) == []
    assert check_city(_corrupt(good, node_count=lambda n: n - 1))
    assert check_city(_corrupt(good, reduction=1.0))
    assert check_city(_corrupt(good, rmse_with_le=good["rmse_without_le"]))
    assert check_city_reference(good, good) == []
    assert check_city_reference(good, _corrupt(good, reduction=lambda r: r + 0.05))
    assert check_city_reference(
        good, _corrupt(good, rmse_with_le=lambda r: r * 1.5)
    )


def test_serving_check_trips(runs):
    good = runs["serving-wal", False]["reps"][0].summary
    assert check_serving(good) == []
    assert check_serving(_corrupt(good, applied=lambda n: n - 1))
    assert check_serving(
        _corrupt(good, applied=lambda n: n - 1, shed=lambda n: n + 1)
    )
    assert check_serving(_corrupt(good, wal_appended=lambda n: n - 1))
    assert check_serving(_corrupt(good, records=lambda n: n + 1))


class _Flaky:
    """A stub workload whose output, inputs or laps change between repeats."""

    name = "flaky"

    def __init__(self, vary: str) -> None:
        self.vary = vary
        self.count = 0

    def setup(self, seed, workdir):
        self.count += 1
        return self.count, {}

    def identity(self, ready):
        return {"n": ready if self.vary == "identity" else 0}

    def timed(self, ready):
        if self.vary == "raise":
            raise RuntimeError("boom")
        for _ in range(ready if self.vary == "laps" else 1):
            self.step()
        return ready

    def step(self):
        pass

    def measure(self, ready, output):
        value = output if self.vary == "summary" else 0
        return Rep(summary={"value": value}, node_steps=1, msgs=1)

    def check(self, summary):
        return []

    def teardown(self, ready):
        pass

    def finish(self, seed, workdir, reps):
        return ["final check failed"] if self.vary == "finish" else []

    def hooks(self):
        return []

    def laps(self):
        return [Lap(_Flaky, "step")]


@pytest.mark.parametrize(
    "vary", ["summary", "identity", "laps", "raise", "finish"]
)
def test_runner_flags_nondeterminism_and_errors(vary, tmp_path):
    run = bench.run_workload(
        _Flaky(vary), seed=1, seconds=0.0, trace=False, workdir=tmp_path,
        log=io.StringIO(),
    )
    assert run["problems"]
    result = bench.result_line(run, SPEC, False)
    assert result["correct"] is False and result["failed"] >= 1
