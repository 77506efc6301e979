#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper-fused --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with telemetry off;
``--trace 1`` measures the per-layer metrics (traced runs paired with
untraced ones, plus timings of single layer calls).  Both modes check
the program's outputs.  Human-readable lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: End-to-end metrics and their units; every workload reports all five.
END_TO_END = {
    "rounds_per_s": "1/s",
    "runs_per_hour": "1/h",
    "setup_s": "s",
    "resume_s": "s",
    "peak_rss_mb": "MB",
}

#: How each end-to-end metric follows host speed (see hostspeed.py):
#: rates are multiplied by the slowdown, times divided, memory untouched.
SPEED_EXPONENT = {
    "rounds_per_s": 1,
    "runs_per_hour": 1,
    "setup_s": -1,
    "resume_s": -1,
    "peak_rss_mb": 0,
}

#: Lower bounds on work per run, whatever ``--seconds`` says, so that
#: every median has enough samples.
MIN_CALLS = 5
MIN_PAIRS = 3
CAMPAIGN_PASS_S = 12.0  #: a cold pass with its interleaved extras, reference host
#: Resume samples after every training call, and warm passes after
#: every run of the second cold pass.
RESUMES_PER_STEP = 3
#: Host probes after every training call.  One probe reads ±20 % on
#: the reference host, so the slowdown needs many to be steadier than
#: the calls it scales.
PROBES_PER_CALL = 4


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> None:
    """Put the checkout's ``src`` (and this package) first on the path.

    Refuses to run without the program's source next to the benchmark,
    so an installed copy elsewhere can never be measured by mistake.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: program source not found at {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]


def peak_rss_mb(include_children: bool) -> float:
    """This process's peak RSS, plus the largest reaped child's (shards)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def normalise(raw: dict, clock, outputs: dict) -> dict:
    """Raw end-to-end values read at the reference host's median speed.

    Every sample behind them is spread over the same window as the
    clock's probes, so one slowdown applies to all.
    """
    outputs.update(raw=raw, slowdown=clock.slowdown)
    return {
        name: value * clock.slowdown ** SPEED_EXPONENT[name]
        for name, value in raw.items()
    }


def quartiles(values) -> list[float]:
    if len(values) < 2:
        return [float(values[0])] * 3
    return [float(q) for q in statistics.quantiles(values, n=4)]


# ----------------------------------------------------------------------
# training workloads
# ----------------------------------------------------------------------


def run_training(workload, seeds, seconds, trace, workdir, tally):
    from perfbench import layers, workloads as w
    from perfbench.hostspeed import HostClock
    from repro.telemetry import MemorySink, Telemetry

    multiprocess = workload.backend == "multiprocess"
    before = set(w.wire_segment_names())
    rollup = layers.Rollup()

    plain, traced, ratios, resume = [], [], [], []

    def call(is_traced: bool):
        """One training call, kept in ``plain`` or ``traced``; one that raises is counted failed."""
        sink = MemorySink()
        try:
            result = w.train_once(
                workload, seeds, telemetry=Telemetry(sinks=[sink]) if is_traced else None
            )
        except Exception as error:  # noqa: BLE001 - the run goes on, the failure is counted
            tally.check(False, f"a call raised {type(error).__name__}: {error}")
            return None
        finally:
            if multiprocess:
                w.shm_leak_check(before, tally)
        if is_traced:
            rollup.add(sink.events, result.train_s)
        (traced if is_traced else plain).append(result)
        return result

    window = HostClock()
    deadline = time.perf_counter() + seconds
    made = 0
    if trace:
        # Pairs alternate which side runs first, so drift hits both.
        while made < MIN_PAIRS or time.perf_counter() < deadline:
            sides = (False, True) if made % 2 == 0 else (True, False)
            results = {side: call(side) for side in sides}
            if None not in results.values():
                ratios.append(results[False].train_s / results[True].train_s)
            made += 1
    else:
        resumer = w.Resume(workload, seeds, workdir)
        while made < MIN_CALLS or time.perf_counter() < deadline:
            call(False)
            made += 1
            for _ in range(PROBES_PER_CALL):
                window.probe()
            resume += [resumer.time_once() for _ in range(RESUMES_PER_STEP)]
        # The traced twin: outputs must not change under telemetry, and
        # its counters give the paper's signal.
        call(True)
    if not plain or not traced or (trace and not ratios):
        raise RuntimeError(f"{workload.name}: no usable training call ({tally.failures[:3]})")

    w.check_calls(plain + traced, w.reference_outputs(workload, seeds), tally)
    inputs = w.make_inputs(workload, seeds)
    outputs = {
        "calls": len(plain),
        "rounds_per_call": workload.rounds,
        "signal": w.paper_signal(workload, inputs, traced[0], rollup.counters),
    }
    if not trace:
        raw = {
            "rounds_per_s": statistics.median(workload.rounds / c.train_s for c in plain),
            "runs_per_hour": 3600.0 / statistics.median(c.setup_s + c.train_s for c in plain),
            "setup_s": statistics.median(c.setup_s for c in plain),
            "resume_s": statistics.median(resume),
            "peak_rss_mb": peak_rss_mb(multiprocess),
        }
        return normalise(raw, window, outputs), outputs

    metrics = dict.fromkeys(layers.PER_LAYER, 0.0)
    metrics.update(rollup.metrics())
    metrics["telemetry.traced_ratio"] = statistics.median(ratios)
    for part in ("data.make_dataset_ms", "pipeline.build_cluster_ms", "runtime.start_ms", "runtime.stop_ms"):
        samples = [c.parts_ms[part] for c in plain + traced if part in c.parts_ms]
        if samples:
            metrics[part] = statistics.median(samples)
    metrics.update(
        layers.layer_call_timings(
            w.build_experiment(workload, inputs), inputs.train, seeds.experiment
        )
    )
    outputs["traced_ratio_quartiles"] = quartiles(ratios)
    outputs["shard_cohort_sum_ns"] = rollup.shard_cohort_sum_ns()
    return metrics, outputs


# ----------------------------------------------------------------------
# campaign workload
# ----------------------------------------------------------------------


def run_campaign_workload(workload, seeds, seconds, trace, workdir, tally):
    from perfbench import layers, workloads as w
    from perfbench.hostspeed import HostClock
    from repro.campaign import ResultStore, plan_campaign, render_campaign_report
    from repro.experiments.runner import build_environment
    from repro.pipeline.builder import Experiment
    from repro.telemetry import read_trace

    matrix = w.campaign_matrix(workload, seeds)
    if not trace:
        # A host probe and a set-up run after every run of every cold
        # pass, and warm passes on the first pass's finished store after
        # every run of the later passes: each metric samples most of the
        # window.  Their time is excluded from the pass.  The pass count
        # depends on --seconds alone.
        window = HostClock()
        setups, colds, warm = [], [], []

        def between():
            window.probe()
            setups.append(w.campaign_setup(workload, seeds, workdir / f"plan-{len(setups)}"))
            if colds:
                warm.extend(
                    w.warm_pass(matrix, colds[0].store, tally) for _ in range(RESUMES_PER_STEP)
                )

        hook = w.TimedExecute(between)
        for index in range(max(2, round(seconds / CAMPAIGN_PASS_S))):
            colds.append(w.cold_pass(matrix, workdir / f"store-{index}", hook))
            w.check_cold(colds[-1], matrix, tally)
        raw = {
            "rounds_per_s": statistics.median(c.rounds / c.seconds for c in colds),
            "runs_per_hour": statistics.median(3600.0 * c.executed / c.seconds for c in colds),
            "setup_s": statistics.median(setups),
            "resume_s": statistics.median(warm),
            "peak_rss_mb": peak_rss_mb(False),
        }
        outputs = {"cold_passes": len(colds), "runs": matrix.total_runs}
        return normalise(raw, window, outputs), outputs

    plain_hook, traced_hook = w.TimedExecute(), w.TimedExecute()
    plain = w.cold_pass(matrix, workdir / "store-plain", plain_hook)
    w.check_cold(plain, matrix, tally)
    trace_dir = workdir / "traces"
    traced = w.cold_pass(matrix, workdir / "store-traced", traced_hook, telemetry=str(trace_dir))
    w.check_cold(traced, matrix, tally)
    w.warm_pass(matrix, plain.store, tally)

    rollup = layers.Rollup()
    for key, run_s in traced_hook.seconds.items():
        rollup.add(read_trace(trace_dir / f"{key}.jsonl"), run_s)
    metrics = dict.fromkeys(layers.PER_LAYER, 0.0)
    metrics.update(rollup.metrics())
    metrics["telemetry.traced_ratio"] = plain.seconds / traced.seconds

    store = plain.store
    key = store.keys()[0]
    record = store.load(key)
    scratch = ResultStore(workdir / "store-scratch")
    metrics["campaign.cell_train_ms"] = statistics.median(plain_hook.ms["train"])
    metrics["campaign.cell_simulate_ms"] = statistics.median(plain_hook.ms["simulate"])
    metrics["campaign.store_save_ms"] = layers.per_call_us(lambda: scratch.save(key, record)) / 1e3
    metrics["campaign.store_load_ms"] = layers.per_call_us(lambda: store.load(key)) / 1e3
    metrics["campaign.plan_ms"] = layers.per_call_us(lambda: plan_campaign(matrix, store)) / 1e3
    metrics["campaign.report_ms"] = layers.per_call_us(
        lambda: render_campaign_report(matrix, store)
    ) / 1e3

    # Layer calls at the grid's first attacked, noised train cell.
    cell = next(c for c in matrix.cells if c.mode == "train" and c.config.attack and c.config.epsilon)
    model, train, test = build_environment(matrix.model_spec, matrix.data_seed)
    metrics["data.make_dataset_ms"] = layers.per_call_us(
        lambda: build_environment(matrix.model_spec, matrix.data_seed), batches=5
    ) / 1e3
    metrics["pipeline.build_cluster_ms"] = layers.per_call_us(
        lambda: Experiment.from_config(
            cell.config, model, train, test, seed=seeds.experiment
        ).build_cluster(),
        batches=5,
    ) / 1e3
    metrics.update(
        layers.layer_call_timings(
            Experiment.from_config(cell.config, model, train, test, seed=seeds.experiment),
            train,
            seeds.experiment,
        )
    )
    return metrics, {"runs": matrix.total_runs, "layer_cell": cell.name}


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def stop_resource_tracker() -> None:
    """End (and reap) the helper process that shared memory starts."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from perfbench import layers, workloads as w

    workload = w.WORKLOADS.get(args.workload)
    if workload is None:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(w.WORKLOADS)}")
    seeds = w.Seeds.derive(args.seed)
    tally = w.Tally()
    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    workdir.mkdir(parents=True)
    runner = run_campaign_workload if isinstance(workload, w.CampaignWorkload) else run_training
    try:
        with w.pinned(workload) as cores:
            metrics, outputs = runner(workload, seeds, args.seconds, args.trace, workdir, tally)
        outputs["cores"] = cores
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
        stop_resource_tracker()

    units = layers.PER_LAYER if args.trace else END_TO_END
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  host {json.dumps(layers.host_facts())}")
    for name, unit in units.items():
        print(f"  {name:<34} {metrics[name]:>16.6g} {unit}")
    print(f"  {'error_rate':<34} {tally.failed / max(tally.attempted, 1):>16.6g} ({tally.failed}/{tally.attempted})")
    for failure in tally.failures:
        print(f"  FAILED: {failure}")
    print("outputs " + json.dumps(outputs))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
