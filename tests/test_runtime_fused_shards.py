"""The fused cohort kernel inside multiprocess shards.

:class:`repro.distributed.cohort.FusedCohort` is the cohort half of the
in-process engine's round, and every multiprocess shard whose cohort it
covers runs it on its own worker slice.  These tests pin that one
kernel serves both:

* over a worker slice it reproduces ``compute_cohort`` + the shard's
  batch scoring (submitted, clean and loss rows), and the same rows of
  the whole cohort, at any pre-draw block size and across block
  boundaries — momentum on and off, DP on and off, shared and
  per-worker datasets; ``skip`` advances the streams exactly as
  computed rounds do;
* end to end, the multiprocess backend equals the in-process engine
  for codecs none/top-k/sign at 1, 2 and an uneven 3 shards, on runs
  longer than one shard pre-draw block, including a shard that
  respawns after more than a block of missed rounds;
* a cohort the kernel does not cover (``clip_mode="per_example"``)
  falls back to ``compute_cohort`` and stays bit-identical, and each
  shard's ``shard.start`` mark records which path ran, and why;
* the in-process engine is unchanged: the golden fixtures it can
  replay (raw, codec and fault traces) replay through it unmodified.
  The simulator's fixture is replayed by its own suite; its
  event-driven policies never run on the engine.

Equality is ``tolist()`` equality of float64 values, i.e. of bits.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.data.phishing import make_phishing_dataset
from repro.distributed.cohort import FusedCohort
from repro.distributed.runtime.shard import WorkerShardSpec, _batch_losses
from repro.distributed.worker import compute_cohort
from repro.models.logistic import LogisticRegressionModel
from repro.pipeline.builder import Experiment
from repro.privacy.mechanisms import GaussianMechanism
from repro.telemetry import MemorySink, Telemetry

from tests import test_faults_differential as fault_goldens
from tests import test_golden_codecs as codec_goldens
from tests import test_golden_traces as raw_goldens
from tests.test_faults_fused import engine_runs  # noqa: F401  (fixture)

NUM_FEATURES = 6
DIMENSION = NUM_FEATURES + 1
MODEL = LogisticRegressionModel(NUM_FEATURES)
SHARED = make_phishing_dataset(seed=0, num_points=150, num_features=NUM_FEATURES)
#: Per-worker datasets of different sizes (the "sharded" distribution).
PER_WORKER = [
    make_phishing_dataset(seed=10 + i, num_points=40 + 5 * i, num_features=NUM_FEATURES)
    for i in range(6)
]
SLICE = (2, 3, 4)
ROUNDS = 7


# ----------------------------------------------------------------------
# the kernel over a worker slice
# ----------------------------------------------------------------------


def workers_for(worker_ids, *, dp, momentum, shared):
    g_max = 0.3
    spec = WorkerShardSpec(
        shard_id=0,
        worker_ids=tuple(worker_ids),
        model=MODEL,
        datasets=tuple(SHARED if shared else PER_WORKER[i] for i in worker_ids),
        batch_size=8,
        root_seed=5,
        g_max=g_max,
        mechanism=GaussianMechanism(0.5, 1e-6, 2 * g_max / 8) if dp else None,
        momentum=momentum,
    )
    return spec.build_workers()


def reference_round(workers, parameters, step):
    submitted, clean = compute_cohort(workers, parameters, step)
    return submitted, clean, _batch_losses(MODEL, parameters, workers)


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-worker"])
@pytest.mark.parametrize("dp", [True, False], ids=["dp", "nodp"])
@pytest.mark.parametrize("momentum", [0.0, 0.99])
@pytest.mark.parametrize("block", [1, 2, 3, None])
def test_slice_kernel_matches_compute_cohort(block, momentum, dp, shared):
    settings = dict(dp=dp, momentum=momentum, shared=shared)
    cohort = FusedCohort(workers_for(SLICE, **settings), DIMENSION)
    assert cohort.reason is None
    block = cohort.block_rounds() if block is None else block
    sliced = workers_for(SLICE, **settings)
    whole = workers_for(range(6), **settings)
    rows = slice(SLICE[0], SLICE[-1] + 1)
    submitted = np.empty((len(SLICE), DIMENSION))
    rng = np.random.default_rng(0)
    for step in range(1, ROUNDS + 1):
        parameters = rng.standard_normal(DIMENSION)
        if cohort.rounds_left == 0:
            cohort.predraw(block)
        clean, losses = cohort.compute(parameters, submitted)
        expected = reference_round(sliced, parameters, step)
        whole_rows = [matrix[rows] for matrix in reference_round(whole, parameters, step)]
        for actual, reference, full in zip((submitted, clean, losses), expected, whole_rows):
            assert actual.tolist() == reference.tolist() == full.tolist()


def test_skip_advances_streams_like_computed_rounds():
    """``skip`` over more than one block ≡ computing those rounds and
    then clearing momentum (the respawned shard's fast-forward)."""
    settings = dict(dp=True, momentum=0.99, shared=False)
    cohort = FusedCohort(workers_for(SLICE, **settings), DIMENSION)
    missed = cohort.block_rounds() + 5
    cohort.skip(missed)
    reference = workers_for(SLICE, **settings)
    zeros = np.zeros(DIMENSION)
    for step in range(1, missed + 1):
        compute_cohort(reference, zeros, step)
    for worker in reference:
        worker.reset()
    submitted = np.empty((len(SLICE), DIMENSION))
    rng = np.random.default_rng(1)
    cohort.predraw(2)
    for step in range(missed + 1, missed + 4):
        parameters = rng.standard_normal(DIMENSION)
        if cohort.rounds_left == 0:
            cohort.predraw(2)
        clean, losses = cohort.compute(parameters, submitted)
        expected = reference_round(reference, parameters, step)
        for actual, wanted in zip((submitted, clean, losses), expected):
            assert actual.tolist() == wanted.tolist()


def test_compute_without_predraw_is_refused():
    cohort = FusedCohort(workers_for(SLICE, dp=True, momentum=0.0, shared=True), DIMENSION)
    submitted = np.empty((len(SLICE), DIMENSION))
    with pytest.raises(RuntimeError, match="predraw"):
        cohort.compute(np.zeros(DIMENSION), submitted)
    cohort.predraw(1)
    cohort.compute(np.zeros(DIMENSION), submitted)
    with pytest.raises(RuntimeError, match="predraw"):
        cohort.compute(np.zeros(DIMENSION), submitted)


# ----------------------------------------------------------------------
# end to end: multiprocess ≡ in-process
# ----------------------------------------------------------------------

#: Longer than any shard's pre-draw block at this size (256 rounds, the
#: cap), so every shard draws a second block mid-run.
LONG_RUN = 300


def experiment(**overrides):
    settings = dict(
        model=LogisticRegressionModel(NUM_FEATURES),
        train_dataset=SHARED,
        num_steps=LONG_RUN,
        n=10,  # 7 honest: 3 shards split them 3/2/2
        f=3,
        gar="krum",
        attack="little",
        epsilon=0.5,
        noise_kind="gaussian",
        momentum=0.99,
        batch_size=8,
        eval_every=10_000,
        seed=11,
    )
    settings.update(overrides)
    return Experiment(**settings)


def outputs(result) -> dict:
    return {
        "loss_steps": result.history.loss_steps.tolist(),
        "losses": result.history.losses.tolist(),
        "parameters": result.final_parameters.tolist(),
        "bytes_on_wire": result.bytes_on_wire,
    }


def shard_paths(sink) -> dict:
    return {
        event["src"]: event["attrs"] for event in sink.named("shard.start")
    }


@pytest.mark.parametrize("num_shards", [1, 2, 3])
@pytest.mark.parametrize("codec", [None, "top-k", "sign"])
def test_multiprocess_matches_inprocess(codec, num_shards):
    sink = MemorySink()
    multiprocess = experiment(
        codec=codec,
        backend="multiprocess",
        num_shards=num_shards,
        telemetry=Telemetry(sinks=[sink]),
    )
    specs = multiprocess.build_shard_specs()
    blocks = [
        FusedCohort(spec.build_workers(), DIMENSION).block_rounds() for spec in specs
    ]
    assert LONG_RUN > max(blocks)
    expected = outputs(experiment(codec=codec).run())
    assert outputs(multiprocess.run()) == expected
    paths = shard_paths(sink)
    assert len(paths) == num_shards
    assert all(attrs["cohort"] == "fused" for attrs in paths.values())
    assert all("reason" not in attrs for attrs in paths.values())


@pytest.mark.parametrize("clip_mode", ["batch", "per_example"])
def test_respawn_after_more_than_a_block(clip_mode):
    """A shard that rejoins after more than one block of missed rounds
    fast-forwards to the in-process streams, fused or not."""
    plan = {
        "events": [
            {"kind": "crash", "round": 2, "shard": 1},
            {"kind": "rejoin", "round": 280, "shard": 1},
        ],
        "num_shards": 2,
    }
    settings = dict(faults=plan, clip_mode=clip_mode, num_steps=290, num_shards=2)
    expected = outputs(experiment(**settings).run())
    actual = outputs(experiment(backend="multiprocess", **settings).run())
    assert actual == expected


def test_per_example_falls_back_bit_identically():
    settings = dict(clip_mode="per_example", num_steps=12, codec="top-k")
    sink = MemorySink()
    multiprocess = experiment(
        backend="multiprocess", num_shards=2, telemetry=Telemetry(sinks=[sink]), **settings
    )
    expected = outputs(experiment(**settings).run())
    assert outputs(multiprocess.run()) == expected
    paths = shard_paths(sink)
    assert sorted(paths) == ["shard:0", "shard:1"]
    for attrs in paths.values():
        assert attrs["cohort"] == "per-round"
        assert "per-example" in attrs["reason"]


# ----------------------------------------------------------------------
# the in-process engine is unchanged
# ----------------------------------------------------------------------


def golden(module) -> dict:
    return json.loads(Path(module.GOLDEN_PATH).read_text())


def raw_experiment(overrides):
    return Experiment(
        model=LogisticRegressionModel(10),
        train_dataset=make_phishing_dataset(seed=0, num_points=240, num_features=10),
        num_steps=6,
        batch_size=10,
        eval_every=3,
        seed=7,
        **overrides,
    )


GOLDEN_REPLAYS = (
    [
        ("traces", name, lambda case=case: raw_experiment(case))
        for name, case in raw_goldens.CASES.items()
    ]
    + [
        ("codec_traces", name, lambda case=case: raw_experiment(case))
        for name, case in codec_goldens.CASES.items()
    ]
    + [
        (
            "fault_traces",
            name,
            lambda case=case: fault_goldens.make_experiment(case, test_dataset=None),
        )
        for name, case in fault_goldens.CASES.items()
    ]
)
FIXTURES = {
    "traces": raw_goldens,
    "codec_traces": codec_goldens,
    "fault_traces": fault_goldens,
}


@pytest.mark.parametrize(
    "fixture,name,build",
    GOLDEN_REPLAYS,
    ids=[f"{fixture}-{name}" for fixture, name, _ in GOLDEN_REPLAYS],
)
def test_goldens_replay_through_the_engine(fixture, name, build, engine_runs):
    built = build()
    assert built.build_cluster().engine.supports_fused
    result = built.run()
    assert engine_runs == [6]
    expected = golden(FIXTURES[fixture])[name]
    assert result.history.losses.tolist() == expected["losses"]
    assert result.final_parameters.tolist() == expected["final_parameters"]
