"""The benchmark's workloads: inputs from a seed, a timed section, checks.

Each workload drives one of the program's three execution paths through
its public entry points and bypasses the other two:

* ``paper-140`` — the object harness on the paper's Table 1 fleet;
* ``city-1m`` — the columnar engine on about a million nodes;
* ``serving-wal`` — trace read-back and open-loop replay into the
  sharded store with the write-ahead log attached.

A workload builds its inputs in :meth:`setup` (timed as ``setup_s``),
runs the timed section in :meth:`timed`, and turns the output into a
:class:`Rep` whose ``summary`` the pure ``check_*`` functions read.  Its
:meth:`laps` name the calls whose returns end a lap of the timed section
in the metric runs, and its :meth:`hooks` the layers the traced run
wraps.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import repro.core.columnar.engine as columnar_engine
import repro.serving as serving
from repro.broker.broker import GridBroker
from repro.campus import Campus, default_campus
from repro.campus.generator import generate_grid_campus
from repro.core.adf import AdaptiveDistanceFilter
from repro.core.baselines import GeneralDistanceFilterPolicy
from repro.core.columnar import (
    ColumnarExperiment,
    ColumnarMobilitySource,
    run_columnar_experiment,
)
from repro.core.columnar.classifier import ColumnarClassifier
from repro.core.columnar.clustering import (
    BATCHED_REDUCTION_TOLERANCE,
    BATCHED_RMSE_TOLERANCE,
    ColumnarClusterer,
)
from repro.core.columnar.kernels import FAST_KERNEL
from repro.experiments import ExperimentConfig
from repro.experiments.harness import MobileGridExperiment
from repro.experiments.results import ExperimentResult
from repro.mobility.node import MobileNode
from repro.mobility.population import table1_spec
from repro.serving import (
    DurabilityConfig,
    DurabilityManager,
    IngestService,
    ReplayConfig,
    ServingConfig,
    ShardedLocationStore,
    TraceRecord,
    WriteAheadLog,
)
from repro.telemetry.metrics import Histogram

from perfbench.tracer import Hook, Lap

__all__ = [
    "CityFleet",
    "PaperFleet",
    "Rep",
    "ServingReplay",
    "WORKLOADS",
    "check_city",
    "check_city_reference",
    "check_paper",
    "check_serving",
    "reference_drift",
]

# The columnar engine keeps its broker layer in these private classes; the
# traced run wraps their methods to time Brown and last-known receive/tick.
_BrownBrokerState = columnar_engine._BrownBrokerState
_LastKnownBrokerState = columnar_engine._LastKnownBrokerState


@dataclass
class Rep:
    """What one set-up plus timed section produced.

    ``summary`` holds the plain values the output checks read and must
    be identical across the repeats of one seed.  ``attempted``/``failed``
    count the rep's operations: one run for the simulations, one offered
    message per trace record for serving.  ``identity`` names the inputs
    (sizes and digests), taken before the timed section.
    """

    summary: dict[str, Any]
    node_steps: int
    msgs: int
    attempted: int = 1
    failed: int = 0
    outcome_metrics: dict[str, float] = field(default_factory=dict)
    identity: dict[str, Any] = field(default_factory=dict)


def _sha256(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def _timed(fn: Any, *args: Any, **kwargs: Any) -> tuple[Any, float]:
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - start


# -- paper-140 ----------------------------------------------------------------
def check_paper(summary: dict[str, Any]) -> list[str]:
    """The paper's shape: 140 MNs, reduction rising with DTH, LE helps."""
    problems = []
    if summary["node_count"] != 140:
        problems.append(f"node count {summary['node_count']} != 140")
    adf = sorted(summary["adf"], key=lambda lane: lane["factor"])
    reductions = [lane["reduction"] for lane in adf]
    if any(a >= b for a, b in zip(reductions, reductions[1:])):
        problems.append(
            f"ADF reduction does not rise with the DTH factor: {reductions}"
        )
    for lane in adf:
        if not lane["rmse_with_le"] < lane["rmse_without_le"]:
            problems.append(
                f"adf-{lane['factor']:g}: RMSE with LE {lane['rmse_with_le']} "
                f"is not below RMSE without LE {lane['rmse_without_le']}"
            )
    return problems


class PaperFleet:
    """The object harness on the paper's 140-MN fleet, ADF and general-DF
    lanes at DTH factors 0.75/1/1.25."""

    name = "paper-140"

    def __init__(self, duration: float = 100.0) -> None:
        self.duration = duration

    def setup(self, seed: int, workdir: Path) -> tuple[Any, dict[str, float]]:
        config = ExperimentConfig(
            duration=self.duration, include_general_df=True, seed=seed
        )
        return MobileGridExperiment(config, campus=default_campus()), {}

    def identity(self, experiment: MobileGridExperiment) -> dict[str, Any]:
        rows = [
            [
                node.node_id,
                node.home_region,
                node.kind.name,
                node.true_state.name if node.true_state else None,
                node.position.x,
                node.position.y,
            ]
            for node in experiment.nodes
        ]
        return {
            "nodes": len(rows),
            "population_sha256": _sha256(json.dumps(rows).encode()),
        }

    def timed(self, experiment: MobileGridExperiment) -> ExperimentResult:
        return experiment.run()

    def measure(
        self, experiment: MobileGridExperiment, result: ExperimentResult
    ) -> Rep:
        adf = []
        for name, lane in result.lanes.items():
            if lane.kind == "adf":
                adf.append(
                    {
                        "factor": lane.dth_factor,
                        "reduction": result.reduction_vs_ideal(name),
                        "rmse_with_le": lane.mean_rmse(with_le=True),
                        "rmse_without_le": lane.mean_rmse(with_le=False),
                    }
                )
        filter_summary = result.lanes["adf-1"].filter_summary
        return Rep(
            summary={"node_count": result.node_count, "adf": adf},
            node_steps=result.node_count * experiment.config.steps(),
            msgs=sum(lane.total_lus for lane in result.lanes.values()),
            outcome_metrics={
                "core.adf.transmit_frac": (
                    filter_summary["transmitted"] / filter_summary["received"]
                ),
            },
        )

    check = staticmethod(check_paper)

    def teardown(self, experiment: Any) -> None:
        pass

    def finish(self, seed: int, workdir: Path, reps: list[Rep]) -> list[str]:
        return []

    def laps(self) -> list[Lap]:
        return [Lap(MobileGridExperiment, "_step")]

    def hooks(self) -> list[Hook]:
        return [
            Hook(MobileGridExperiment, "run", "harness.run_self_s"),
            Hook(MobileGridExperiment, "_step", "harness.step_self_s", span=True),
            Hook(
                MobileNode,
                "advance",
                "mobility.node.advance_s",
                calls_metric="mobility.node.advance_calls",
            ),
            Hook(Campus, "region_at", "campus.region_at_s"),
            Hook(
                AdaptiveDistanceFilter,
                "process",
                "core.adf.process_s",
                calls_metric="core.adf.process_calls",
            ),
            Hook(GeneralDistanceFilterPolicy, "process", "core.gdf.process_s"),
            Hook(AdaptiveDistanceFilter, "tick", "core.adf.tick_s"),
            Hook(
                GridBroker,
                "receive_update",
                "broker.receive_s",
                calls_metric="broker.receive_calls",
            ),
            Hook(GridBroker, "tick", "broker.tick_s"),
            Hook(MobileGridExperiment, "_measure", "harness.measure_s"),
            Hook(MobileGridExperiment, "_collect", "harness.collect_s", span=True),
        ]


# -- city-1m ------------------------------------------------------------------
def check_city(summary: dict[str, Any]) -> list[str]:
    """Every node simulated, and the Location Estimator lowers RMSE."""
    problems = []
    if summary["node_count"] != summary["source_nodes"]:
        problems.append(
            f"result covers {summary['node_count']} nodes, the source built "
            f"{summary['source_nodes']}"
        )
    if not 0.0 < summary["reduction"] < 1.0:
        problems.append(f"ADF reduction {summary['reduction']} outside (0, 1)")
    if not summary["rmse_with_le"] < summary["rmse_without_le"]:
        problems.append(
            f"RMSE with LE {summary['rmse_with_le']} is not below RMSE "
            f"without LE {summary['rmse_without_le']}"
        )
    return problems


def reference_drift(
    batched: dict[str, Any], exact: dict[str, Any]
) -> tuple[float, float]:
    """Batched run's ADF reduction drift and relative RMSE-with-LE drift
    from the exact-placement run."""
    return (
        abs(batched["reduction"] - exact["reduction"]),
        abs(batched["rmse_with_le"] - exact["rmse_with_le"]) / exact["rmse_with_le"],
    )


def check_city_reference(
    batched: dict[str, Any], exact: dict[str, Any]
) -> list[str]:
    """Batched placement within the tolerances ``TestBatchedMode`` uses."""
    problems = []
    drift, rmse_drift = reference_drift(batched, exact)
    if drift > BATCHED_REDUCTION_TOLERANCE:
        problems.append(
            f"batched ADF reduction {batched['reduction']:.4f} is {drift:.4f} "
            f"from exact mode's {exact['reduction']:.4f} "
            f"(tolerance {BATCHED_REDUCTION_TOLERANCE})"
        )
    if rmse_drift > BATCHED_RMSE_TOLERANCE:
        problems.append(
            f"batched RMSE with LE {batched['rmse_with_le']:.4f} drifts "
            f"{rmse_drift:.4f} (relative) from exact mode's "
            f"{exact['rmse_with_le']:.4f} (tolerance {BATCHED_RMSE_TOLERANCE})"
        )
    return problems


def _received_rows(state: Any, idx: np.ndarray, *args: Any) -> int:
    return len(idx)


def _silent_rows(state: Any, *args: Any) -> int:
    """Rows the coming ``tick`` estimates: known, not updated this step."""
    return int(np.count_nonzero(state.known & ~state.updated))


class CityFleet:
    """The columnar engine (fast kernel, batched clustering) on a grid city
    of about *nodes* nodes.

    The final output check compares the batched run against an untimed
    exact-placement run of the same population.
    """

    name = "city-1m"

    def __init__(
        self,
        nodes: int = 1_000_000,
        blocks: int = 12,
        steps: int = 5,
    ) -> None:
        self.nodes = nodes
        self.blocks = blocks
        self.steps = steps

    def _inputs(self, seed: int) -> tuple[Any, Any, Any]:
        campus = generate_grid_campus(
            blocks_x=self.blocks,
            blocks_y=self.blocks,
            block_size=150.0,
            rng=np.random.default_rng(seed),
        )
        spec = table1_spec()
        base = spec.total_for(len(campus.roads()), len(campus.buildings()))
        config = ExperimentConfig(
            duration=float(self.steps), dth_factors=(1.0,), seed=seed
        )
        return campus, spec.scaled(max(1, round(self.nodes / base))), config

    def setup(self, seed: int, workdir: Path) -> tuple[Any, dict[str, float]]:
        campus, spec, config = self._inputs(seed)
        source, build_s = _timed(ColumnarMobilitySource, campus, spec, seed=seed)
        experiment, init_s = _timed(
            ColumnarExperiment,
            config,
            campus=campus,
            source=source,
            kernel=FAST_KERNEL,
            cluster_mode="batched",
        )
        return experiment, {
            "columnar.mobility.build_s": build_s,
            "columnar.engine.init_s": init_s,
        }

    def identity(self, experiment: ColumnarExperiment) -> dict[str, Any]:
        state = experiment.state
        return {
            "nodes": len(state),
            "population_sha256": _sha256(
                "\n".join(experiment.node_ids).encode(),
                state.x.tobytes(),
                state.y.tobytes(),
                state.pattern.tobytes(),
            ),
        }

    def timed(self, experiment: ColumnarExperiment) -> ExperimentResult:
        return experiment.run()

    @staticmethod
    def _summary(result: ExperimentResult) -> dict[str, Any]:
        lane = result.lanes["adf-1"]
        return {
            "node_count": result.node_count,
            "reduction": result.reduction_vs_ideal("adf-1"),
            "rmse_with_le": lane.mean_rmse(with_le=True),
            "rmse_without_le": lane.mean_rmse(with_le=False),
        }

    def measure(
        self, experiment: ColumnarExperiment, result: ExperimentResult
    ) -> Rep:
        summary = self._summary(result)
        summary["source_nodes"] = len(experiment.source.node_ids)
        filter_summary = result.lanes["adf-1"].filter_summary
        return Rep(
            summary=summary,
            node_steps=result.node_count * experiment.config.steps(),
            msgs=sum(lane.total_lus for lane in result.lanes.values()),
            outcome_metrics={
                "columnar.filter.transmit_frac": (
                    filter_summary["transmitted"] / filter_summary["received"]
                ),
                "columnar.clustering.clusters": filter_summary["clusters"],
            },
        )

    check = staticmethod(check_city)

    def teardown(self, experiment: Any) -> None:
        pass

    def finish(self, seed: int, workdir: Path, reps: list[Rep]) -> list[str]:
        campus, spec, config = self._inputs(seed)
        exact = run_columnar_experiment(
            config,
            campus=campus,
            source=ColumnarMobilitySource(campus, spec, seed=seed),
            kernel=FAST_KERNEL,
            cluster_mode="exact",
        )
        batched, reference = reps[0].summary, self._summary(exact)
        # Printed on every run, so a failure can be told from a seed that
        # merely lands near the limit.
        drift, rmse_drift = reference_drift(batched, reference)
        print(
            f"{self.name} batched vs exact placement: reduction drift "
            f"{drift:.5f} (tolerance {BATCHED_REDUCTION_TOLERANCE}, margin "
            f"{BATCHED_REDUCTION_TOLERANCE - drift:.5f}); relative RMSE drift "
            f"{rmse_drift:.5f} (tolerance {BATCHED_RMSE_TOLERANCE}, margin "
            f"{BATCHED_RMSE_TOLERANCE - rmse_drift:.5f})"
        )
        return check_city_reference(batched, reference)

    def laps(self) -> list[Lap]:
        # A step is about 1.5 s at 1M nodes: end a lap at each stage too.
        return [
            Lap(ColumnarMobilitySource, "advance"),
            Lap(columnar_engine.RegionResolver, "resolve"),
            Lap(ColumnarClassifier, "observe"),
            Lap(ColumnarClusterer, "place_all"),
            Lap(_BrownBrokerState, "receive"),
            Lap(_BrownBrokerState, "tick"),
            Lap(ColumnarExperiment, "_measure"),
            Lap(ColumnarExperiment, "_step"),
        ]

    def hooks(self) -> list[Hook]:
        return [
            Hook(ColumnarExperiment, "run", "columnar.engine.run_self_s"),
            Hook(
                ColumnarExperiment, "_step", "columnar.engine.step_self_s", span=True
            ),
            Hook(ColumnarMobilitySource, "advance", "columnar.mobility.advance_s"),
            Hook(
                columnar_engine.RegionResolver, "resolve", "columnar.engine.resolve_s"
            ),
            Hook(ColumnarClassifier, "observe", "columnar.classifier.observe_s"),
            Hook(ColumnarClusterer, "place_all", "columnar.clustering.place_s"),
            Hook(columnar_engine, "df_decide", "columnar.engine.df_decide_s"),
            Hook(
                _BrownBrokerState,
                "receive",
                "columnar.engine.broker_receive_s",
                rows=_received_rows,
                rows_metric="columnar.engine.broker_receive_rows",
            ),
            Hook(
                _LastKnownBrokerState,
                "receive",
                "columnar.engine.broker_receive_s",
                rows=_received_rows,
                rows_metric="columnar.engine.broker_receive_rows",
            ),
            Hook(
                _BrownBrokerState,
                "tick",
                "columnar.engine.broker_tick_s",
                rows=_silent_rows,
                rows_metric="columnar.engine.broker_tick_rows",
            ),
            Hook(ColumnarExperiment, "_measure", "columnar.engine.measure_s"),
            Hook(
                ColumnarExperiment, "_collect", "columnar.engine.collect_s", span=True
            ),
        ]


# -- serving-wal --------------------------------------------------------------
#: 4 shards draining up to 4096 records each per 20 ms window.
SERVING = ServingConfig(
    shards=4, queue_capacity=8192, batch_size=4096, flush_interval=0.02
)
SNAPSHOT_EVERY = 16_384


def check_serving(summary: dict[str, Any]) -> list[str]:
    """Message conservation, no shedding, every applied LU logged."""
    problems = []
    accounted = (
        summary["applied"]
        + summary["duplicates"]
        + summary["stale"]
        + summary["down"]
        + summary["shed"]
    )
    if summary["offered"] != accounted:
        problems.append(
            f"offered {summary['offered']} != applied + duplicates + stale + "
            f"down + shed = {accounted}"
        )
    if summary["offered"] != summary["records"]:
        problems.append(
            f"offered {summary['offered']} != trace records {summary['records']}"
        )
    if summary["shed"] != 0:
        problems.append(f"{summary['shed']} messages shed")
    if summary["wal_appended"] < summary["applied"]:
        problems.append(
            f"WAL holds {summary['wal_appended']} entries for "
            f"{summary['applied']} applied messages"
        )
    return problems


def _buffered_bytes(wal: WriteAheadLog) -> int:
    """Bytes the coming ``flush`` writes (the WAL's pending frames)."""
    return sum(map(len, wal._buffer))


@dataclass
class _Trace:
    path: Path
    wal_dir: Path
    records: int
    fleet_node_steps: int


class ServingReplay:
    """Read a recorded ~160k-record trace back and replay it open-loop
    through 4 shards with the WAL and periodic snapshots on."""

    name = "serving-wal"

    def __init__(
        self, nodes: int = 10_000, duration: float = 30.0, rate: float = 100_000.0
    ) -> None:
        self.nodes = nodes
        self.duration = duration
        # Open-loop, far under the drain ceiling: every flush empties every
        # queue, so nothing sheds.  A window (rate x 20 ms) must hold fewer
        # records than one step of the trace, so that no node's consecutive
        # records share a window on different shards and apply out of order.
        self.replay = ReplayConfig(rate=rate, serving=SERVING)

    def setup(self, seed: int, workdir: Path) -> tuple[Any, dict[str, float]]:
        campus = default_campus()
        spec = table1_spec()
        base = spec.total_for(len(campus.roads()), len(campus.buildings()))
        source = ColumnarMobilitySource(
            campus, spec.scaled(max(1, round(self.nodes / base))), seed=seed
        )
        config = ExperimentConfig(
            duration=self.duration, dth_factors=(1.0,), seed=seed
        )
        (meta, records), record_s = _timed(
            serving.record_columnar_trace, config, campus=campus, source=source
        )
        path = workdir / f"trace-seed{seed}.jsonl"
        _, write_s = _timed(serving.write_trace, records, path, meta=meta)
        ready = _Trace(
            path=path,
            wal_dir=workdir / "wal",
            records=len(records),
            fleet_node_steps=meta["node_count"] * config.steps(),
        )
        return ready, {
            "serving.trace.record_s": record_s,
            "serving.trace.write_s": write_s,
        }

    def identity(self, trace: _Trace) -> dict[str, Any]:
        return {
            "records": trace.records,
            "trace_sha256": _sha256(trace.path.read_bytes()),
        }

    def timed(self, trace: _Trace) -> tuple[Any, Any]:
        meta, records = serving.read_trace(trace.path)
        manager = DurabilityManager(
            trace.wal_dir, DurabilityConfig(snapshot_every=SNAPSHOT_EVERY)
        )
        report, service = serving.replay_trace_full(
            records, self.replay, trace_meta=meta, durability=manager
        )
        manager.close()
        return report, service

    def measure(self, trace: _Trace, output: tuple[Any, Any]) -> Rep:
        report, service = output
        export = json.dumps(service.store.export_state(), sort_keys=True)
        summary = {
            "records": trace.records,
            "offered": report.offered,
            "applied": report.applied,
            "duplicates": report.duplicates,
            "stale": report.reordered,
            "down": report.down_dropped,
            "shed": report.shed,
            "wal_appended": report.wal_appended,
            "export_sha256": _sha256(export.encode()),
        }
        return Rep(
            summary=summary,
            node_steps=trace.fleet_node_steps,
            msgs=report.offered,
            attempted=report.offered,
            failed=report.offered - report.applied,
            outcome_metrics={
                "serving.queue.max_depth": report.max_queue_depth,
                "serving.queue.wait_p50_vs": report.latency_p50,
                "serving.queue.wait_p99_vs": report.latency_p99,
                "serving.store.applied_frac": report.applied / report.offered,
                "serving.wal.snapshots": report.snapshots_written,
            },
        )

    check = staticmethod(check_serving)

    def teardown(self, trace: _Trace) -> None:
        shutil.rmtree(trace.wal_dir, ignore_errors=True)
        trace.path.unlink()

    def finish(self, seed: int, workdir: Path, reps: list[Rep]) -> list[str]:
        return []

    def laps(self) -> list[Lap]:
        # read_trace decodes rows in one loop: end a lap every 2048 rows.
        return [
            Lap(TraceRecord, "from_row", every=2048),
            Lap(IngestService, "_flush"),
        ]

    def hooks(self) -> list[Hook]:
        return [
            Hook(serving, "read_trace", "serving.trace.read_s", span=True),
            Hook(TraceRecord, "to_update", "serving.trace.to_update_s"),
            Hook(serving, "replay_trace_full", "serving.replay.loop_self_s"),
            Hook(
                IngestService,
                "submit",
                "serving.service.submit_s",
                calls_metric="serving.service.submit_calls",
            ),
            Hook(
                IngestService,
                "_flush",
                "serving.service.flush_s",
                span=True,
                calls_metric="serving.service.flushes",
            ),
            Hook(ShardedLocationStore, "apply", "serving.store.apply_self_s"),
            Hook(
                GridBroker,
                "receive_update",
                "broker.receive_s",
                calls_metric="broker.receive_calls",
            ),
            Hook(
                Histogram,
                "observe",
                "telemetry.histogram.observe_s",
                calls_metric="telemetry.histogram.observe_calls",
            ),
            Hook(
                WriteAheadLog,
                "append_update",
                "serving.wal.append_s",
                calls_metric="serving.wal.appended",
            ),
            Hook(
                WriteAheadLog,
                "flush",
                "serving.wal.flush_s",
                rows=_buffered_bytes,
                rows_metric="serving.wal.bytes",
            ),
            Hook(DurabilityManager, "maybe_snapshot", "serving.wal.snapshot_s"),
            Hook(DurabilityManager, "close", "serving.wal.close_s"),
        ]


WORKLOADS = {
    workload.name: workload
    for workload in (PaperFleet(), CityFleet(), ServingReplay())
}
