"""Per-layer numbers.

Two sources, both from outside the program:

* **traced runs** — the program's own phase spans and counters,
  collected through ``Telemetry(sinks=[MemorySink()])`` and rolled up
  to nanoseconds per round;
* **layer calls** — single public calls of one layer (a GAR's
  ``aggregate``, a codec's ``encode_row``, ...) timed at a workload's
  shapes.

A metric whose layer a workload does not reach reads 0: the span never
fired, or the workload has no such component (no codec, no shards).
"""

from __future__ import annotations

import os
import platform
import statistics
import time

import numpy as np

from repro.attacks.base import AttackContext
from repro.data.batching import BatchSampler
from repro.distributed.engine import default_block_rounds

#: Chief-side phase spans and the per-layer metric each one feeds.
PHASE_METRICS = {
    "round.predraw": "distributed.predraw_ns",
    "round.sample": "data.sample_ns",
    "round.noise": "privacy.noise_ns",
    "round.momentum": "optim.momentum_ns",
    "round.cohort": "models.cohort_ns",
    "round.codec": "compression.codec_ns",
    "round.attack": "attacks.attack_ns",
    "round.network": "distributed.network_ns",
    "round.server": "gars.server_ns",
    "round.publish": "runtime.publish_ns",
    "round.wait": "runtime.wait_ns",
    "round.copyout": "runtime.copyout_ns",
}

#: Every per-layer metric with its unit, in report order.
PER_LAYER = {
    **{metric: "ns" for metric in PHASE_METRICS.values()},
    "distributed.other_ns": "ns",
    "runtime.shard_cohort_max_ns": "ns",
    "compression.wire_bytes_per_round": "bytes",
    "faults.injected": "count",
    "telemetry.traced_ratio": "ratio",
    "gars.aggregate_us": "us",
    "attacks.craft_us": "us",
    "compression.encode_row_us": "us",
    "privacy.noise_block_us": "us",
    "data.index_block_us": "us",
    "models.grad_stack_us": "us",
    "pipeline.build_cluster_ms": "ms",
    "data.make_dataset_ms": "ms",
    "runtime.start_ms": "ms",
    "runtime.stop_ms": "ms",
    "campaign.cell_train_ms": "ms",
    "campaign.cell_simulate_ms": "ms",
    "campaign.store_save_ms": "ms",
    "campaign.store_load_ms": "ms",
    "campaign.plan_ms": "ms",
    "campaign.report_ms": "ms",
}


def chief_counters(events) -> dict:
    """Counter totals from the ``chief`` source only.

    Every shard keeps its own ``rounds`` counter, so a sum over all
    sources counts each round once per shard plus once for the chief.
    """
    totals: dict = {}
    for event in events:
        if event.get("kind") == "counter" and event.get("src") == "chief":
            totals[event["name"]] = totals.get(event["name"], 0) + event["delta"]
    return totals


class Rollup:
    """Span and counter totals over one or more traced runs.

    Shard ``round.cohort`` spans are grouped by round: the slowest
    shard (max) is what the chief waits for, the sum is the work done.
    """

    def __init__(self):
        self.phase_ns = dict.fromkeys(PHASE_METRICS.values(), 0)
        self.counters: dict = {}
        self.wall_ns = 0.0
        self.runs = 0
        self.shard_rounds = 0
        self.shard_max_ns = 0
        self.shard_sum_ns = 0

    def add(self, events, wall_s: float) -> None:
        """Fold in one run's events and the wall time they cover."""
        self.runs += 1
        self.wall_ns += wall_s * 1e9
        for name, value in chief_counters(events).items():
            self.counters[name] = self.counters.get(name, 0) + value
        shard_steps: dict = {}
        for event in events:
            if event.get("kind") != "span":
                continue
            if event["src"] == "chief":
                metric = PHASE_METRICS.get(event["name"])
                if metric is not None:
                    self.phase_ns[metric] += event["dur_ns"]
            elif event["name"] == "round.cohort":
                shard_steps.setdefault(event["step"], []).append(event["dur_ns"])
        self.shard_rounds += len(shard_steps)
        self.shard_max_ns += sum(max(spans) for spans in shard_steps.values())
        self.shard_sum_ns += sum(sum(spans) for spans in shard_steps.values())

    @property
    def rounds(self) -> int:
        return self.counters.get("rounds", 0)

    def metrics(self) -> dict:
        """Nanoseconds (and bytes) per round; fault events per run."""
        rounds = max(self.rounds, 1)
        values = {metric: ns / rounds for metric, ns in self.phase_ns.items()}
        values["distributed.other_ns"] = (
            self.wall_ns - sum(self.phase_ns.values())
        ) / rounds
        values["runtime.shard_cohort_max_ns"] = (
            self.shard_max_ns / self.shard_rounds if self.shard_rounds else 0.0
        )
        values["compression.wire_bytes_per_round"] = (
            self.counters.get("wire.bytes", 0) / rounds
        )
        values["faults.injected"] = self.counters.get("fault.injected", 0) / max(
            self.runs, 1
        )
        return values

    def shard_cohort_sum_ns(self) -> float:
        return self.shard_sum_ns / self.shard_rounds if self.shard_rounds else 0.0


def per_call_us(fn, target_s: float = 0.004, batches: int = 11) -> float:
    """Median microseconds per ``fn()`` call over ``batches`` timed batches."""
    fn()
    calls = 1
    while True:
        started = time.perf_counter()
        for _ in range(calls):
            fn()
        elapsed = time.perf_counter() - started
        if elapsed >= target_s or calls >= 1 << 16:
            break
        calls *= 2
    samples = []
    for _ in range(batches):
        started = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - started) / calls * 1e6)
    return float(statistics.median(samples))


def layer_call_timings(experiment, train, seed: int) -> dict:
    """One public call per layer, at the experiment's (n, f, d, b).

    Uses a freshly built experiment that never runs, and private
    generators, so no stream of a measured run is touched.  The
    aggregated matrix is the round's shape: honest rows plus ``f``
    identical Byzantine rows.
    """
    rng = np.random.default_rng(seed)
    honest_count = experiment.num_honest
    dimension = experiment.model.dimension
    batch = experiment.batch_size
    honest = rng.normal(scale=1e-2, size=(honest_count, dimension))
    parameters = rng.normal(size=dimension)
    context = AttackContext(
        step=1,
        honest_submitted=honest,
        honest_clean=honest,
        parameters=parameters,
        num_byzantine=experiment.num_byzantine,
        rng=np.random.default_rng(seed + 1),
    )
    crafted = experiment.attack.craft(context)
    delivered = np.vstack([honest, np.tile(crafted, (experiment.num_byzantine, 1))])
    block = default_block_rounds(honest_count, dimension, batch, honest_count)
    noise_rng = np.random.default_rng(seed + 2)
    sampler = BatchSampler(train, batch, np.random.default_rng(seed + 3))
    rows = rng.integers(0, train.num_points, size=(honest_count, batch))
    features, labels = train.features[rows], train.labels[rows]
    codec = experiment.build_codec()
    return {
        "gars.aggregate_us": per_call_us(lambda: experiment.gar.aggregate(delivered)),
        "attacks.craft_us": per_call_us(lambda: experiment.attack.craft(context)),
        "compression.encode_row_us": (
            per_call_us(lambda: codec.encode_row(honest[0], 1, 0)) if codec else 0.0
        ),
        "privacy.noise_block_us": per_call_us(
            lambda: experiment.mechanism.sample_noise_block(block, dimension, noise_rng)
        ),
        "data.index_block_us": per_call_us(lambda: sampler.sample_index_block(block)),
        "models.grad_stack_us": per_call_us(
            lambda: experiment.model.loss_and_gradient_stack(parameters, features, labels)
        ),
    }


def host_facts() -> dict:
    """Facts a measurement needs next to it: cores, BLAS threads, versions."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _openblas(name: str):
    """A function of numpy's bundled OpenBLAS, e.g. ``get_num_threads``, or None."""
    import ctypes
    import glob

    site = os.path.dirname(os.path.dirname(np.__file__))
    for path in glob.glob(os.path.join(site, "numpy.libs", "*openblas*")):
        library = ctypes.CDLL(path)
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_", f"openblas_{name}"):
            function = getattr(library, symbol, None)
            if function is not None:
                return function
    return None


def blas_threads():
    """OpenBLAS's thread count from numpy's bundled library, or None."""
    import ctypes

    getter = _openblas("get_num_threads")
    if getter is None:
        return None
    getter.restype = ctypes.c_int
    return int(getter())


def set_blas_threads(count: int) -> None:
    """Set OpenBLAS's thread count; forked shards inherit it."""
    import ctypes

    setter = _openblas("set_num_threads")
    if setter is not None:
        setter(ctypes.c_int(count))
