"""Fault plans on the fused round engine: bit-identical to per-round.

A fault plan's outages are known in advance, so the fused
:class:`~repro.distributed.engine.RoundEngine` applies faults as one
stage of its round (after the codec, before the attack) through the
same helper ``Cluster.step`` calls.  These tests pin that stage:

* the committed fault goldens replay through the engine (no test set,
  so no accuracy callback forces per-round stepping);
* fused ≡ per-round ≡ traced across codecs × worker momentum on the
  paper's Krum + ``little`` + Gaussian DP cell, including the wire byte
  totals and the ``fault.injected`` events;
* block boundaries, including rounds whose loss mean covers fewer live
  rows, do not change a bit;
* a plan that leaves no honest worker live fails at the same round on
  both paths.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.data.phishing import make_phishing_dataset
from repro.distributed.engine import RoundEngine
from repro.exceptions import DegradedRunError
from repro.metrics.history import TrainingHistory
from repro.models.logistic import LogisticRegressionModel
from repro.pipeline.builder import Experiment
from repro.pipeline.callbacks import Callback
from repro.pipeline.loop import TrainingLoop
from repro.telemetry import MemorySink, Telemetry, validate_events
from tests.test_faults_differential import CASES, make_experiment

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "fault_traces.json").read_text()
)

#: Outage, rejoin, drop and corruption in one plan, over three shards.
PLAN = {
    "events": [
        {"kind": "crash", "round": 2, "shard": 1},
        {"kind": "rejoin", "round": 5, "shard": 1},
        {"kind": "drop_round", "round": 3, "worker": 0},
        {"kind": "corrupt_payload", "round": 4, "worker": 4, "factor": -3.0},
        {"kind": "drop_round", "round": 6, "worker": 5},
        {"kind": "hang", "round": 7, "shard": 2},
    ],
    "num_shards": 3,
}

CODECS = [None, {"name": "top-k"}, {"name": "qsgd"}, {"name": "sign"}]


@pytest.fixture
def engine_runs(monkeypatch):
    """Count the rounds the fused engine actually executes."""
    rounds = []
    original = RoundEngine.run

    def spy(self, num_rounds, **kwargs):
        rounds.append(num_rounds)
        return original(self, num_rounds, **kwargs)

    monkeypatch.setattr(RoundEngine, "run", spy)
    return rounds


def paper_experiment(codec=None, momentum=0.9, faults=PLAN, **extra):
    settings = dict(
        model=LogisticRegressionModel(6),
        train_dataset=make_phishing_dataset(seed=0, num_points=150, num_features=6),
        num_steps=9,
        n=9,
        f=3,
        gar="krum",
        attack="little",
        epsilon=0.5,
        noise_kind="gaussian",
        momentum=momentum,
        batch_size=8,
        eval_every=100,
        seed=11,
        codec=codec,
        faults=faults,
    )
    settings.update(extra)
    return Experiment(**settings)


def outputs(experiment, result) -> dict:
    return {
        "losses": result.history.losses.tolist(),
        "loss_steps": result.history.loss_steps.tolist(),
        "parameters": result.final_parameters.tolist(),
        "bytes_on_wire_total": experiment.build_cluster().bytes_on_wire_total,
    }


def fault_events(sink) -> list:
    return [
        {key: event[key] for key in ("step", "value", "delta", "attrs")}
        for event in sink.by_kind("counter")
        if event["name"] == "fault.injected"
    ]


@pytest.mark.parametrize("name", sorted(CASES))
def test_fault_goldens_replay_through_the_engine(name, engine_runs):
    experiment = make_experiment(CASES[name], test_dataset=None)
    assert experiment.build_cluster().engine.supports_fused
    result = experiment.run()
    assert engine_runs == [6]
    expected = GOLDEN[name]
    assert result.history.loss_steps.tolist() == expected["loss_steps"]
    assert result.history.losses.tolist() == expected["losses"]
    assert result.final_parameters.tolist() == expected["final_parameters"]


@pytest.mark.parametrize("momentum", [0.0, 0.9], ids=["no-momentum", "momentum"])
@pytest.mark.parametrize(
    "codec", CODECS, ids=lambda codec: "none" if codec is None else codec["name"]
)
def test_fused_matches_per_round_and_traced(codec, momentum, engine_runs):
    fused = paper_experiment(codec, momentum)
    fused_out = outputs(fused, fused.run())
    assert engine_runs == [9]

    per_round = paper_experiment(codec, momentum)
    per_round_out = outputs(per_round, per_round.run(callbacks=[Callback()]))
    assert engine_runs == [9]  # the no-op callback kept it per-round

    traces = {}
    for path, callbacks in (("fused", []), ("per-round", [Callback()])):
        sink = MemorySink()
        traced = paper_experiment(codec, momentum, telemetry=Telemetry(sinks=[sink]))
        assert outputs(traced, traced.run(callbacks=callbacks)) == fused_out
        validate_events(sink.events)
        traces[path] = fault_events(sink)

    assert fused_out == per_round_out
    assert len(fused_out["losses"]) == 9
    assert (fused_out["bytes_on_wire_total"] > 0) == (codec is not None)
    # Crash 2-4 (shard 1 zeroes 3 rows), drops at 3 and 6, corruption at
    # 4, hang from 7 (shard 2): one counter per faulty round.
    assert [event["step"] for event in traces["fused"]] == [2, 3, 4, 6, 7, 8, 9]
    assert traces["fused"] == traces["per-round"]


@pytest.mark.parametrize("block_size", [1, 2, 4])
def test_block_boundaries_do_not_change_a_bit(block_size):
    def cluster_and_model():
        experiment = paper_experiment({"name": "top-k"})
        return experiment.build_cluster(), experiment.model

    cluster, model = cluster_and_model()
    fused_history = TrainingHistory()
    cluster.engine.run(9, model=model, history=fused_history, block_size=block_size)

    reference, reference_model = cluster_and_model()
    loop = TrainingLoop(reference, reference_model, callbacks=[Callback()])
    reference_history = loop.run(9).history

    assert fused_history.losses.tolist() == reference_history.losses.tolist()
    assert cluster.parameters.tolist() == reference.parameters.tolist()
    assert cluster.last_live_workers == reference.last_live_workers
    assert cluster.bytes_on_wire_total == reference.bytes_on_wire_total
    for fused_worker, reference_worker in zip(
        cluster.honest_workers, reference.honest_workers
    ):
        assert np.array_equal(
            fused_worker._velocity_submitted, reference_worker._velocity_submitted
        )
        assert np.array_equal(
            fused_worker._velocity_clean, reference_worker._velocity_clean
        )


def test_degraded_run_fails_at_the_same_round(engine_runs):
    plan = {
        "events": [
            {"kind": "crash", "round": 4, "shard": 0},
            {"kind": "crash", "round": 4, "shard": 1},
        ],
        "num_shards": 2,
    }
    step_counts = []
    for callbacks in ([], [Callback()]):
        experiment = paper_experiment(faults=plan)
        with pytest.raises(DegradedRunError, match="round 4"):
            experiment.run(callbacks=callbacks)
        step_counts.append(experiment.build_cluster().step_count)
    assert engine_runs == [9]
    assert step_counts == [4, 4]


def test_fault_plans_keep_the_fused_path():
    engine = paper_experiment().build_cluster().engine
    assert engine.supports_fused
    assert engine.fused_unsupported_reason is None
