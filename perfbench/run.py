"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper-140 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --seed 1          # every workload, one process each

Builds the workload's inputs from ``--seed``, repeats set-up plus timed
section until at least ``--seconds`` of timed work and a minimum number
of repeats are done, checks every output, and prints as its last line
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones declared in
``BENCHMARK.json``; with ``--trace 1`` half the repeats are traced, and
the metrics are the per-layer ones.  Spans and layer aggregates of a
traced run are written to ``.perfbench-out/<workload>/``.  Exit status:
0 when every check passed, 1 when one failed, 2 when the program cannot
be imported.

Throughputs divide the work of one repeat by its *median-lap time*:
each untraced repeat's timed section is split into laps at the returns
of the calls the workload names (steps, pipeline stages, flush windows),
and the median-lap time sums each lap's median over the repeats.  On a
shared host other tenants slow a core for seconds at a time; a burst
that hits one repeat in some laps and another repeat in others moves
the median of whole repeats, but not the per-lap medians.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any

# One thread of numeric work per process: the workloads are single-process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT, ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from perfbench.tracer import LapClock, Tracer  # noqa: E402

#: Untraced runs repeat at least this often, so every lap's median is
#: taken over three or more repeats; traced runs make at least this many
#: untraced/traced pairs.
MIN_REPS = 3
MIN_PAIRS = 2
#: A rep sets up repeatedly until this much set-up time is measured, so a
#: set-up of a few milliseconds still yields a steady median.
MIN_SETUP_S = 0.1


def load_spec(root: Path = ROOT) -> dict[str, Any]:
    """The metric declarations of ``BENCHMARK.json``."""
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))


def _repeat(
    workload: Any, seed: int, workdir: Path, tracer: Tracer | None
) -> tuple[Any, list[float], dict[str, float], float, list[float]]:
    """One repeat: set up, time the timed section, measure its output.

    Returns the rep, every set-up time of the repeat, the set-up's named
    parts, the timed wall and its laps.  With a *tracer* the layer
    wrappers are installed for the timed section only and no laps are
    taken; without one, the workload's lap clock is.
    """
    gc.collect()
    setup_times: list[float] = []
    while True:
        start = time.perf_counter()
        ready, parts = workload.setup(seed, workdir)
        setup_times.append(time.perf_counter() - start)
        if sum(setup_times) >= MIN_SETUP_S:
            break
        workload.teardown(ready)
    identity = workload.identity(ready)
    gc.collect()
    patches = LapClock() if tracer is None else tracer
    patches.install(workload.laps() if tracer is None else workload.hooks())
    try:
        start = time.perf_counter()
        output = workload.timed(ready)
        end = time.perf_counter()
    finally:
        patches.remove()
    laps = patches.laps(start, end) if tracer is None else []
    rep = workload.measure(ready, output)
    rep.identity = identity
    workload.teardown(ready)
    return rep, setup_times, parts, end - start, laps


def run_workload(
    workload: Any,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    log: Any = sys.stderr,
) -> dict[str, Any]:
    """Repeat set-up + timed section; return the raw measurements.

    The result holds the per-rep figures, the problems every check
    found, and (traced runs) the tracer.  Metrics are derived from it by
    :func:`end_to_end_metrics` and :func:`per_layer_metrics`.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    reps: list[Any] = []
    setups: list[float] = []
    setup_parts: list[dict[str, float]] = []
    walls: dict[bool, list[float]] = {False: [], True: []}
    laps: list[list[float]] = []
    problems: list[str] = []
    attempted = failed = 0
    index = 0
    while True:
        # Traced and untraced repeats in T U U T order: a drift in machine
        # speed, and the first repeat's cold start, weigh on both sides.
        traced = tracer is not None and index % 4 in (0, 3)
        try:
            rep, setup_times, parts, wall, rep_laps = _repeat(
                workload, seed, workdir, tracer if traced else None
            )
        except Exception:  # a crashing program is a failed rep, not a crash
            traceback.print_exc(file=log)
            problems.append(f"rep {index} raised")
            attempted += 1
            failed += 1
            break
        rep_problems = workload.check(rep.summary)
        if reps and rep.summary != reps[0].summary:
            rep_problems.append("outputs differ from the first repeat")
        if reps and rep.identity != reps[0].identity:
            rep_problems.append("inputs differ from the first repeat")
        if laps and rep_laps and len(rep_laps) != len(laps[0]):
            rep_problems.append(
                f"{len(rep_laps)} laps, the first repeat ran {len(laps[0])}"
            )
        problems.extend(f"rep {index}: {p}" for p in rep_problems)
        attempted += rep.attempted
        failed += max(rep.failed, 1) if rep_problems else rep.failed
        reps.append(rep)
        setups.extend(setup_times)
        setup_parts.append(parts)
        walls[traced].append(wall)
        if not traced:
            laps.append(rep_laps)
        print(
            f"{workload.name} seed={seed} rep={index}"
            f"{' traced' if traced else ''} "
            f"setup_s={statistics.median(setup_times):.4f} wall_s={wall:.4f} "
            f"laps={len(rep_laps)} "
            f"node_steps={rep.node_steps} msgs={rep.msgs}",
            file=log,
        )
        index += 1
        timed_total = sum(walls[False]) + sum(walls[True])
        if tracer is None:
            done = index >= MIN_REPS
        else:
            done = index >= 2 * MIN_PAIRS and index % 2 == 0
        if done and timed_total >= seconds:
            break
    # Before the final check: its reference run is not part of the workload.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if reps and not problems:
        try:
            final = workload.finish(seed, workdir, reps)
        except Exception:
            traceback.print_exc(file=log)
            final = ["final check raised"]
        if final:
            # The final check judges the output every repeat produced.
            problems.extend(final)
            failed = attempted
    return {
        "reps": reps,
        "setups": setups,
        "setup_parts": setup_parts,
        "walls": walls,
        "laps": laps,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": peak_rss_mb,
        "tracer": tracer,
        "hooks": workload.hooks() if tracer is not None else [],
    }


def median_lap_seconds(laps: list[list[float]]) -> float:
    """The timed section's time, each lap at its median over the repeats."""
    return sum(statistics.median(lap) for lap in zip(*laps))


def end_to_end_metrics(run: dict[str, Any]) -> dict[str, float]:
    """Median set-up time, throughputs over the median-lap time of the
    untraced repeats, and the peak RSS of set-up and timed sections.

    Every repeat of a run does the same work (the checks hold its
    outputs identical), so the first repeat's counts stand for all.
    """
    rep = run["reps"][0]
    timed_s = median_lap_seconds(run["laps"])
    return {
        "setup_s": statistics.median(run["setups"]),
        "node_steps_per_s": rep.node_steps / timed_s,
        "msgs_per_s": rep.msgs / timed_s,
        "peak_rss_mb": run["peak_rss_mb"],
    }


def per_layer_metrics(run: dict[str, Any]) -> dict[str, float]:
    """Per-rep means of the traced repeats' layer figures."""
    tracer: Tracer = run["tracer"]
    traced_walls = run["walls"][True]
    n = len(traced_walls)
    metrics: dict[str, float] = {}
    for name, stats in tracer.layers.items():
        metrics[name] = stats.self_s / n
    for hook in run["hooks"]:
        stats = tracer.layers[hook.layer]
        if hook.calls_metric:
            metrics[hook.calls_metric] = stats.calls / n
        if hook.rows_metric:
            metrics[hook.rows_metric] = stats.rows / n
    for part in run["setup_parts"][0]:
        metrics[part] = statistics.median(p[part] for p in run["setup_parts"])
    metrics.update(run["reps"][-1].outcome_metrics)
    metrics["trace_overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(run["walls"][False])
        - 1.0
    )
    metrics["trace_accounted_frac"] = tracer.self_seconds() / sum(traced_walls)
    return metrics


def result_line(
    run: dict[str, Any], spec: dict[str, Any], trace: bool
) -> dict[str, Any]:
    """The final JSON object: every declared metric of the run's kind."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values: dict[str, float] = {}
    if run["reps"] and (not trace or all(run["walls"].values())):
        values = per_layer_metrics(run) if trace else end_to_end_metrics(run)
    known = {metric["name"] for metric in declared}
    unknown = sorted(set(values) - known)
    if unknown:
        raise ValueError(f"metrics not declared in BENCHMARK.json: {unknown}")
    metrics = {}
    for metric in declared:
        name = metric["name"]
        if name in values:
            metrics[name] = {"value": values[name], "unit": metric["unit"]}
        elif trace and values:
            # A layer this workload's path never enters.
            metrics[name] = {"value": 0.0, "unit": metric["unit"]}
    return {
        "correct": not run["problems"],
        "attempted": max(run["attempted"], 1),
        "failed": run["failed"] if run["attempted"] else 1,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        default="all",
        help="a workload name, or 'all' to run each in its own process",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        from perfbench.workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(list(WORKLOADS), args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    seed = args.seed % 2**32
    workdir = ROOT / ".perfbench-out" / workload.name
    trace = bool(args.trace)
    run = run_workload(workload, seed, args.seconds, trace, workdir)
    for problem in run["problems"]:
        print(f"CHECK FAILED {workload.name}: {problem}")
    if run["reps"]:
        identity = run["reps"][0].identity
        print(f"input {workload.name} seed={seed}: {json.dumps(identity)}")
    if trace and run["tracer"] is not None and run["walls"][True]:
        path = run["tracer"].write(
            workdir / f"trace-seed{seed}.json",
            workload=workload.name,
            seed=seed,
            traced_reps=len(run["walls"][True]),
        )
        print(f"spans and layer aggregates: {path.relative_to(ROOT)}")
    result = result_line(run, spec, trace)
    if not trace and run["laps"]:
        print(
            f"{workload.name} median-lap time = "
            f"{median_lap_seconds(run['laps']):.4f} s over "
            f"{len(run['laps'])} repeats x {len(run['laps'][0])} laps "
            f"(median repeat {statistics.median(run['walls'][False]):.4f} s)"
        )
    for name, metric in result["metrics"].items():
        if metric["value"] or not trace:
            print(f"{workload.name} {name} = {metric['value']:.6g} {metric['unit']}")
    attempted = result["attempted"]
    print(
        f"{workload.name} failed_frac = {result['failed'] / attempted:.6g} "
        f"({result['failed']}/{attempted})"
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(names: list[str], args: argparse.Namespace) -> int:
    """Run each workload in a process of its own, one after another.

    Relays each child's output; the last line maps every workload to its
    result object.  Exits non-zero when any workload does.
    """
    results = {}
    status = 0
    for name in names:
        child = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            stdout=subprocess.PIPE,
            text=True,
            check=False,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1]) if lines else None
        status = status or child.returncode
    print(json.dumps({"correct": status == 0, "workloads": results}))
    return status


if __name__ == "__main__":
    sys.exit(main())
