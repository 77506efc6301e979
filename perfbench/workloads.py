"""The benchmark's workloads: inputs from the seed, timed calls, checks.

Every timing goes through calls a user of the package makes:
``Experiment`` construction and ``build_cluster``/``run``,
``TrainingLoop.run`` inside ``MultiprocessCluster`` enter/exit,
``run_campaign``, ``ResultStore`` and ``render_campaign_report``.
Nothing here reaches into the program's private state.

The load is a closed loop: one client in one process issues the next
training call only when the previous one returned.  The only other
processes are the multiprocess runtime's two shards (``nproc`` is 2 on
the reference host), which share the client's one pinned core.
"""

from __future__ import annotations

import ctypes
import gc
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.campaign import ResultStore, ScenarioMatrix, plan_campaign, run_campaign
from repro.campaign.report import render_campaign_report
from repro.campaign.runner import execute_cell
from repro.data.datasets import train_test_split
from repro.data.phishing import make_phishing_dataset
from repro.distributed.runtime.wire import wire_segment_names
from repro.metrics.history import TrainingHistory
from repro.models.logistic import LogisticRegressionModel
from repro.pipeline.builder import Experiment
from repro.pipeline.callbacks import Callback
from repro.pipeline.loop import TrainingLoop
from repro.pipeline.results import privacy_report
from repro.telemetry import Telemetry

#: The paper's headline cell: Krum at n=25 with f=11 (~45 % Byzantine),
#: Gaussian DP at epsilon 0.5, worker momentum 0.99, the "little" attack.
PAPER_CELL = {
    "n": 25,
    "f": 11,
    "gar": "krum",
    "attack": "little",
    "batch_size": 50,
    "epsilon": 0.5,
    "noise_kind": "gaussian",
    "momentum": 0.99,
    "momentum_at": "worker",
}

TRAIN_POINTS = 2000
TEST_POINTS = 500

#: Rounds of the short run whose final-round checkpoint ``resume_s``
#: restores; the checkpoint's size depends on (n, d), not on rounds.
CHECKPOINT_ROUNDS = 10


@dataclass(frozen=True)
class TrainingWorkload:
    """One training workload: the paper cell at a size, path and plane."""

    name: str
    why: str
    num_features: int  #: model features; the parameter dimension d is +1
    rounds: int  #: rounds per training call
    reference: str  #: "per-round" | "simulate" | "inprocess"
    backend: str = "inprocess"
    num_shards: int | None = None
    codec: dict | None = None
    #: One worker-scoped ``drop_round`` fault every this many rounds.
    drop_every: int = 0
    #: Pin the benchmark process, and so every shard it starts, to this
    #: many cores (None: all of them).
    cores: int | None = None


@dataclass(frozen=True)
class CampaignWorkload:
    """The committed paper grid, run serially on a cold then a warm store."""

    name: str
    why: str
    matrix_path: Path


PAPER_FUSED = TrainingWorkload(
    name="paper-fused",
    why="paper cell (Krum n=25 f=11 d=100 DP momentum) on the fused round engine",
    num_features=99,
    rounds=600,
    reference="per-round",
)
HIGHD_CODEC_FAULTS = TrainingWorkload(
    name="highd-codec-faults",
    why="paper cell at d=1000 with top-k codec and drop_round faults: per-round Cluster.step",
    num_features=999,
    rounds=100,
    reference="simulate",
    codec={"name": "top-k"},
    drop_every=4,
)
MP_SHARDS = TrainingWorkload(
    name="mp-shards",
    why="paper cell at d=1000 on the multiprocess runtime, 2 shards sharing one pinned core: wire plane and shard cohort",
    num_features=999,
    rounds=100,
    reference="inprocess",
    backend="multiprocess",
    num_shards=2,
    cores=1,
)
CAMPAIGN_GRID = CampaignWorkload(
    name="campaign-grid",
    why="27-run paper grid campaign, serial: per-run set-up, callback path, simulator, store",
    matrix_path=Path(__file__).resolve().parent / "campaign_paper_grid.json",
)

WORKLOADS = {
    workload.name: workload
    for workload in (PAPER_FUSED, HIGHD_CODEC_FAULTS, MP_SHARDS, CAMPAIGN_GRID)
}


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Seeds:
    """Every seed a run uses, derived from the workload seed alone."""

    data: int
    split: int
    experiment: int
    faults: int
    campaign: tuple[int, int, int]

    @classmethod
    def derive(cls, seed: int) -> "Seeds":
        values = np.random.default_rng(seed).integers(1, 2**31 - 1, size=7)
        return cls(*(int(v) for v in values[:4]), campaign=tuple(int(v) for v in values[4:]))


@dataclass(frozen=True)
class Inputs:
    train: object
    test: object
    seeds: Seeds


def make_inputs(workload: TrainingWorkload, seeds: Seeds) -> Inputs:
    """The phishing-like dataset at the workload's d, split train/test."""
    dataset = make_phishing_dataset(
        seed=seeds.data,
        num_points=TRAIN_POINTS + TEST_POINTS,
        num_features=workload.num_features,
    )
    train, test = train_test_split(
        dataset, TRAIN_POINTS, np.random.default_rng(seeds.split)
    )
    return Inputs(train=train, test=test, seeds=seeds)


def fault_plan(workload: TrainingWorkload, seeds: Seeds, num_steps: int) -> dict | None:
    """A fixed number of worker-scoped drops at seed-chosen workers."""
    if not workload.drop_every:
        return None
    rounds = range(workload.drop_every, num_steps + 1, workload.drop_every)
    honest = PAPER_CELL["n"] - PAPER_CELL["f"]
    workers = np.random.default_rng(seeds.faults).integers(0, honest, size=len(rounds))
    return {
        "events": [
            {"kind": "drop_round", "round": r, "worker": int(w)}
            for r, w in zip(rounds, workers)
        ]
    }


def build_experiment(
    workload: TrainingWorkload, inputs: Inputs, **overrides
) -> Experiment:
    """The workload's experiment; ``overrides`` replace any keyword."""
    num_steps = overrides.pop("num_steps", workload.rounds)
    kwargs = dict(
        PAPER_CELL,
        model=LogisticRegressionModel(workload.num_features),
        train_dataset=inputs.train,
        test_dataset=None,  # an accuracy callback would force per-round stepping
        num_steps=num_steps,
        seed=inputs.seeds.experiment,
        backend=workload.backend,
        num_shards=workload.num_shards,
        codec=workload.codec,
        faults=fault_plan(workload, inputs.seeds, num_steps),
    )
    kwargs.update(overrides)
    return Experiment(**kwargs)


try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (OSError, AttributeError):  # not glibc
    _malloc_trim = None


def fresh_heap() -> None:
    """Collect garbage and hand the freed heap pages back to the OS.

    A forked shard's RSS counts every page resident in the client when
    it forks.  glibc keeps some freed pages resident, and how many
    depended on how the benchmark was started: ``mp-shards``'s peak RSS
    read 273 MB from a shell and 307 MB from a parent that captured
    both output streams.
    """
    gc.collect()
    if _malloc_trim is not None:
        _malloc_trim(0)


@contextmanager
def pinned(workload):
    """Run the block on the workload's cores; yields how many it has.

    Shards inherit the affinity, and OpenBLAS runs as many threads as
    there are cores.  ``mp-shards`` takes one core: a round's barrier
    across two cores stalls whenever the hypervisor steals either,
    which made its runs spread past any usable bound (see README.md,
    "Pinning").
    """
    from perfbench.layers import blas_threads, set_blas_threads

    cores = getattr(workload, "cores", None)
    previous = os.sched_getaffinity(0)
    if cores is None:
        yield len(previous)
        return
    threads = blas_threads()
    os.sched_setaffinity(0, sorted(previous)[:cores])
    set_blas_threads(cores)
    try:
        yield len(os.sched_getaffinity(0))
    finally:
        if threads is not None:
            set_blas_threads(threads)
        os.sched_setaffinity(0, previous)


# ----------------------------------------------------------------------
# one training call
# ----------------------------------------------------------------------


@dataclass
class Call:
    """One closed-loop training call: set-up, training, outputs."""

    setup_s: float
    train_s: float
    losses: list
    parameters: np.ndarray
    parts_ms: dict  #: set-up and teardown parts, by per-layer metric name


def outputs_equal(losses_a, params_a, losses_b, params_b) -> bool:
    """Bit-for-bit equality of two runs' loss histories and parameters."""
    return list(losses_a) == list(losses_b) and np.array_equal(
        np.asarray(params_a), np.asarray(params_b)
    )


def train_once(
    workload: TrainingWorkload, seeds: Seeds, telemetry: Telemetry | None = None
) -> Call:
    """Set up and run one training call; only the training is in ``train_s``.

    Set-up is dataset generation, ``Experiment`` construction and
    cluster build, plus shard spawn and wire-plane creation
    (``MultiprocessCluster`` enter) on the multiprocess backend.
    Multiprocess teardown (exit) is timed apart and belongs to neither.

    The previous call's garbage is collected first, untimed, so every
    call starts from the heap a fresh process would have; the call
    keeps only its outputs.
    """
    fresh_heap()
    parts = {}
    started = time.perf_counter()
    inputs = make_inputs(workload, seeds)
    parts["data.make_dataset_ms"] = (time.perf_counter() - started) * 1e3
    mark = time.perf_counter()
    experiment = build_experiment(workload, inputs, telemetry=telemetry)
    if workload.backend != "multiprocess":
        experiment.build_cluster()
        parts["pipeline.build_cluster_ms"] = (time.perf_counter() - mark) * 1e3
        setup_s = time.perf_counter() - started
        mark = time.perf_counter()
        result = experiment.run()
        train_s = time.perf_counter() - mark
        return Call(
            setup_s,
            train_s,
            result.history.losses.tolist(),
            np.array(result.final_parameters),
            parts,
        )
    cluster = experiment.build_multiprocess_cluster()
    parts["pipeline.build_cluster_ms"] = (time.perf_counter() - mark) * 1e3
    cluster.telemetry = telemetry  # shards must be launched with it
    mark = time.perf_counter()
    cluster.__enter__()
    try:
        parts["runtime.start_ms"] = (time.perf_counter() - mark) * 1e3
        setup_s = time.perf_counter() - started
        history = TrainingHistory()
        loop = TrainingLoop(cluster=cluster, model=experiment.model, history=history)
        mark = time.perf_counter()
        loop.run(workload.rounds)
        train_s = time.perf_counter() - mark
        parameters = np.array(cluster.parameters)
    finally:
        mark = time.perf_counter()
        cluster.__exit__(None, None, None)
        parts["runtime.stop_ms"] = (time.perf_counter() - mark) * 1e3
    return Call(setup_s, train_s, history.losses.tolist(), parameters, parts)


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------


def reference_outputs(workload: TrainingWorkload, seeds: Seeds) -> tuple[list, np.ndarray]:
    """The same seed on the path the workload must agree with bit for bit.

    * ``per-round``: per-round ``Cluster.step`` (a no-op callback turns
      the fused engine off);
    * ``simulate``: ``Experiment.simulate()``, sync policy, zero latency;
    * ``inprocess``: the in-process backend.
    """
    inputs = make_inputs(workload, seeds)
    if workload.reference == "per-round":
        result = build_experiment(workload, inputs).run(callbacks=[Callback()])
    elif workload.reference == "simulate":
        result = build_experiment(workload, inputs).simulate()
    else:
        result = build_experiment(
            workload, inputs, backend="inprocess", num_shards=None
        ).run()
    return result.history.losses.tolist(), np.array(result.final_parameters)


@dataclass
class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def check_calls(calls: list[Call], reference: tuple, tally: Tally) -> None:
    """Every call repeats the first, and the first equals the reference."""
    first = calls[0]
    tally.check(
        outputs_equal(first.losses, first.parameters, *reference),
        "call 0 differs from the reference path",
    )
    for index, call in enumerate(calls[1:], start=1):
        tally.check(
            outputs_equal(call.losses, call.parameters, first.losses, first.parameters),
            f"call {index} differs from call 0",
        )


def majority_rate(labels) -> float:
    share = float(np.mean(np.asarray(labels) == 1.0))
    return max(share, 1.0 - share)


def paper_signal(workload: TrainingWorkload, inputs: Inputs, call: Call, counters: dict) -> dict:
    """The paper's "do they add up" numbers for one run (outputs, not metrics).

    Accuracy within two binomial standard errors of the majority-class
    rate is flagged ``at_chance``: no accuracy claim may rest on it.
    """
    experiment = build_experiment(workload, inputs)
    test = inputs.test
    accuracy = float(experiment.model.accuracy(call.parameters, test.features, test.labels))
    majority = majority_rate(test.labels)
    tolerance = 2.0 * (majority * (1.0 - majority) / len(test.labels)) ** 0.5
    rounds = counters.get("rounds", 0)
    privacy = privacy_report(
        experiment.mechanism, experiment.epsilon, experiment.delta, experiment.num_steps
    )
    return {
        "byzantine_selection_rate": (
            counters.get("gar.byzantine_selected", 0) / rounds if rounds else None
        ),
        "epsilon_spent": privacy.basic.epsilon if privacy is not None else None,
        "accuracy": accuracy,
        "majority_rate": majority,
        "at_chance": accuracy <= majority + tolerance,
    }


def shm_leak_check(before: set, tally: Tally) -> None:
    leaked = sorted(set(wire_segment_names()) - before)
    tally.check(not leaked, f"leaked /dev/shm segments: {leaked}")


# ----------------------------------------------------------------------
# resume
# ----------------------------------------------------------------------


class Resume:
    """``Experiment`` construction plus ``resume()`` from a final-round checkpoint.

    The checkpoint is written once, at the last round of a short run, so
    zero rounds remain: each timing is the restore path alone
    (checkpoint load, cluster build, state restore).  The multiprocess
    backend refuses checkpoints (its recovery path is shard respawn),
    so ``mp-shards`` resumes its in-process twin.
    """

    def __init__(self, workload: TrainingWorkload, seeds: Seeds, workdir: Path):
        self._workload = workload
        self._inputs = make_inputs(workload, seeds)
        self.path = workdir / f"{workload.name}.ckpt.json"
        self._kwargs = dict(
            num_steps=CHECKPOINT_ROUNDS,
            checkpoint=self.path,
            checkpoint_every=CHECKPOINT_ROUNDS,
            backend="inprocess",
            num_shards=None,
        )
        build_experiment(workload, self._inputs, **self._kwargs).run()

    def time_once(self) -> float:
        gc.collect()
        started = time.perf_counter()
        build_experiment(self._workload, self._inputs, **self._kwargs).resume()
        return time.perf_counter() - started


# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------


def campaign_matrix(workload: CampaignWorkload, seeds: Seeds) -> ScenarioMatrix:
    """The grid with its ``data_seed`` and ``seeds`` drawn from the workload seed."""
    document = json.loads(workload.matrix_path.read_text())
    document["data_seed"] = seeds.data
    document["base"]["seeds"] = list(seeds.campaign)
    return ScenarioMatrix.from_dict(document)


class TimedExecute:
    """``run_campaign``'s ``execute=`` hook, timing each run by mode.

    ``between``, when given, runs after every run (other measurements
    spread over the pass); its time is kept apart so the pass's wall
    time can exclude it.
    """

    def __init__(self, between=None):
        self.ms = {"train": [], "simulate": []}
        self.seconds = {}  #: by store key
        self.excluded_s = 0.0
        self._between = between

    def __call__(self, job):
        started = time.perf_counter()
        record = execute_cell(job)
        elapsed = time.perf_counter() - started
        self.ms[job.mode].append(elapsed * 1e3)
        self.seconds[job.key] = elapsed
        if self._between is not None:
            started = time.perf_counter()
            self._between()
            self.excluded_s += time.perf_counter() - started
        return record


@dataclass
class ColdPass:
    seconds: float
    executed: int
    rounds: int
    summary: object
    store: ResultStore


def cold_pass(
    matrix: ScenarioMatrix, root: Path, hook: TimedExecute, telemetry=None
) -> ColdPass:
    """One serial campaign on an empty store, timed whole minus ``hook.between``."""
    gc.collect()
    store = ResultStore(root)
    rounds = sum(cell.config.num_steps * len(cell.config.seeds) for cell in matrix.cells)
    excluded = hook.excluded_s
    started = time.perf_counter()
    summary = run_campaign(matrix, store, max_workers=1, execute=hook, telemetry=telemetry)
    seconds = time.perf_counter() - started - (hook.excluded_s - excluded)
    return ColdPass(seconds, summary.executed, rounds, summary, store)


def check_cold(cold: ColdPass, matrix: ScenarioMatrix, tally: Tally) -> None:
    """Every run executed (one op each); a quarantined run fails."""
    quarantined = set(cold.summary.quarantined)
    for cell in matrix.cells:
        for seed in cell.config.seeds:
            tally.check(
                (cell.name, seed) not in quarantined,
                f"run {cell.name}/seed{seed} quarantined",
            )
    tally.check(
        cold.executed == matrix.total_runs,
        f"cold pass executed {cold.executed} of {matrix.total_runs} runs",
    )


def warm_pass(matrix: ScenarioMatrix, store: ResultStore, tally: Tally) -> float:
    """Re-run against the full store (every run skipped) and render the report."""
    gc.collect()
    started = time.perf_counter()
    summary = run_campaign(matrix, store, max_workers=1)
    render_campaign_report(matrix, store)
    seconds = time.perf_counter() - started
    tally.check(summary.executed == 0, f"warm pass executed {summary.executed} runs")
    return seconds


def campaign_setup(workload: CampaignWorkload, seeds: Seeds, root: Path) -> float:
    """Matrix load plus ``plan_campaign`` on an empty store (builds the data)."""
    gc.collect()
    started = time.perf_counter()
    matrix = campaign_matrix(workload, seeds)
    plan_campaign(matrix, ResultStore(root))
    return time.perf_counter() - started
