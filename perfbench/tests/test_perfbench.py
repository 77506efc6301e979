"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import layers, run, workloads as w  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TRAINING = [w.PAPER_FUSED, w.HIGHD_CODEC_FAULTS, w.MP_SHARDS]

#: Per-layer metrics each workload must report as non-zero, and those
#: it must report as 0 because its path never reaches that layer.
SPANS_FUSED_ONLY = [
    "distributed.predraw_ns",
    "data.sample_ns",
    "privacy.noise_ns",
    "optim.momentum_ns",
]
RUNTIME = [
    "runtime.publish_ns",
    "runtime.wait_ns",
    "runtime.copyout_ns",
    "runtime.shard_cohort_max_ns",
    "runtime.start_ms",
    "runtime.stop_ms",
]
CODEC = ["compression.codec_ns", "compression.wire_bytes_per_round", "compression.encode_row_us"]
CAMPAIGN = [name for name in layers.PER_LAYER if name.startswith("campaign.")]
EVERYWHERE = [
    "attacks.attack_ns",
    "gars.server_ns",
    "distributed.network_ns",
    "distributed.other_ns",
    "telemetry.traced_ratio",
    "gars.aggregate_us",
    "attacks.craft_us",
    "privacy.noise_block_us",
    "data.index_block_us",
    "models.grad_stack_us",
    "pipeline.build_cluster_ms",
    "data.make_dataset_ms",
]
LAYER_MAP = {
    "paper-fused": (
        SPANS_FUSED_ONLY + ["models.cohort_ns"],
        CODEC + RUNTIME + CAMPAIGN + ["faults.injected"],
    ),
    "highd-codec-faults": (
        CODEC + ["models.cohort_ns", "faults.injected"],
        SPANS_FUSED_ONLY + RUNTIME + CAMPAIGN,
    ),
    "mp-shards": (
        RUNTIME,
        SPANS_FUSED_ONLY + CODEC + CAMPAIGN + ["models.cohort_ns", "faults.injected"],
    ),
    "campaign-grid": (
        CAMPAIGN + ["models.cohort_ns"],
        SPANS_FUSED_ONLY + CODEC + RUNTIME + ["faults.injected"],
    ),
}


def tiny(workload):
    """The workload at a few rounds per call (campaign: a few per run)."""
    if isinstance(workload, w.TrainingWorkload):
        return replace(workload, rounds=8)
    return workload


@pytest.fixture
def tiny_campaign(tmp_path):
    """The campaign grid cut to 4 rounds per run (all 27 runs kept)."""
    document = json.loads(w.CAMPAIGN_GRID.matrix_path.read_text())
    document["base"].update(num_steps=4, eval_every=2)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(document))
    return replace(w.CAMPAIGN_GRID, matrix_path=path)


def measure(workload, trace, tmp_path):
    tally = w.Tally()
    runner = (
        run.run_campaign_workload
        if isinstance(workload, w.CampaignWorkload)
        else run.run_training
    )
    metrics, outputs = runner(workload, w.Seeds.derive(3), 0.0, trace, tmp_path, tally)
    return metrics, outputs, tally


def test_names_and_units_are_well_formed():
    for entry in SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(entry["name"]), entry["name"]
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", entry["unit"]), entry["unit"]
    names = [e["name"] for e in SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


def test_spec_matches_the_code():
    assert [e["name"] for e in SPEC["workloads"]] == list(w.WORKLOADS)
    assert {e["name"]: e["unit"] for e in SPEC["end_to_end"]} == run.END_TO_END
    assert {e["name"]: e["unit"] for e in SPEC["per_layer"]} == layers.PER_LAYER
    for entry in SPEC["workloads"]:
        assert entry["why"] == w.WORKLOADS[entry["name"]].why


def test_inputs_follow_the_seed():
    first, again, other = w.Seeds.derive(7), w.Seeds.derive(7), w.Seeds.derive(8)
    assert first == again and first != other
    a = w.make_inputs(w.PAPER_FUSED, first)
    b = w.make_inputs(w.PAPER_FUSED, again)
    assert np.array_equal(a.train.features, b.train.features)
    plan = w.fault_plan(w.HIGHD_CODEC_FAULTS, first, 100)
    assert len(plan["events"]) == 25
    assert plan == w.fault_plan(w.HIGHD_CODEC_FAULTS, again, 100)


@pytest.mark.parametrize("workload", TRAINING, ids=lambda wl: wl.name)
def test_training_workload_completes_and_checks(workload, tmp_path):
    metrics, outputs, tally = measure(tiny(workload), 0, tmp_path)
    assert tally.failed == 0, tally.failures
    assert tally.attempted >= run.MIN_CALLS + 1
    assert set(metrics) == set(run.END_TO_END)
    assert all(value > 0 for value in metrics.values())
    signal = outputs["signal"]
    assert 0.0 <= signal["byzantine_selection_rate"] <= 1.0
    assert signal["epsilon_spent"] > 0 and isinstance(signal["at_chance"], bool)


def test_campaign_workload_completes_and_checks(tiny_campaign, tmp_path):
    metrics, outputs, tally = measure(tiny_campaign, 0, tmp_path)
    assert tally.failed == 0, tally.failures
    assert outputs["runs"] == 27
    assert set(metrics) == set(run.END_TO_END)
    assert all(value > 0 for value in metrics.values())


def test_perturbed_output_is_counted_as_failed(tmp_path, monkeypatch):
    original = w.reference_outputs

    def perturbed(workload, seeds):
        losses, parameters = original(workload, seeds)
        parameters = parameters.copy()
        parameters[0] = np.nextafter(parameters[0], np.inf)
        return losses, parameters

    monkeypatch.setattr(w, "reference_outputs", perturbed)
    _, _, tally = measure(tiny(w.PAPER_FUSED), 0, tmp_path)
    assert tally.failed == 1
    assert "reference" in tally.failures[0]


def test_raising_call_is_counted_as_failed(tmp_path, monkeypatch):
    original, calls = w.train_once, []

    def flaky(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise ValueError("injected")
        return original(*args, **kwargs)

    monkeypatch.setattr(w, "train_once", flaky)
    _, _, tally = measure(tiny(w.PAPER_FUSED), 0, tmp_path)
    assert tally.failed == 1
    assert "ValueError: injected" in tally.failures[0]


def test_checks_catch_divergent_calls_and_quarantine(tiny_campaign):
    tally = w.Tally()
    call = w.Call(0.1, 0.1, [1.0, 0.5], np.zeros(3), {})
    bad = w.Call(0.1, 0.1, [1.0, 0.5000001], np.zeros(3), {})
    w.check_calls([call, call, bad], ([1.0, 0.5], np.zeros(3)), tally)
    assert (tally.attempted, tally.failed) == (3, 1)

    matrix = w.campaign_matrix(tiny_campaign, w.Seeds.derive(3))
    cell = matrix.cells[0]
    summary = SimpleNamespace(quarantined=[(cell.name, cell.config.seeds[0])])
    tally = w.Tally()
    w.check_cold(w.ColdPass(1.0, matrix.total_runs, 10, summary, None), matrix, tally)
    assert (tally.attempted, tally.failed) == (matrix.total_runs + 1, 1)


def test_chief_counters_ignore_shards():
    events = [
        {"kind": "counter", "src": "chief", "name": "rounds", "delta": 1},
        {"kind": "counter", "src": "shard:0", "name": "rounds", "delta": 1},
        {"kind": "counter", "src": "shard:1", "name": "rounds", "delta": 1},
        {"kind": "span", "src": "shard:0", "step": 1, "name": "round.cohort", "dur_ns": 10},
        {"kind": "span", "src": "shard:1", "step": 1, "name": "round.cohort", "dur_ns": 30},
    ]
    rollup = layers.Rollup()
    rollup.add(events, 1e-6)
    assert rollup.rounds == 1
    assert rollup.metrics()["runtime.shard_cohort_max_ns"] == 30
    assert rollup.shard_cohort_sum_ns() == 40


@pytest.mark.parametrize("name", list(LAYER_MAP))
def test_per_layer_metrics_present_where_mapped(name, tmp_path, tiny_campaign):
    workload = tiny_campaign if name == "campaign-grid" else tiny(w.WORKLOADS[name])
    metrics, _, tally = measure(workload, 1, tmp_path)
    assert tally.failed == 0, tally.failures
    assert set(metrics) == set(layers.PER_LAYER)
    present, absent = LAYER_MAP[name]
    for metric in present + EVERYWHERE:
        assert metrics[metric] > 0, metric
    for metric in absent:
        assert metrics[metric] == 0, metric


def test_pinning_is_scoped_to_the_workload():
    cores, threads = os.sched_getaffinity(0), layers.blas_threads()
    with w.pinned(w.PAPER_FUSED) as count:
        assert count == len(cores)
        assert os.sched_getaffinity(0) == cores
    with w.pinned(w.MP_SHARDS) as count:
        assert count == 1 == len(os.sched_getaffinity(0))
        assert layers.blas_threads() in (None, 1)
    assert os.sched_getaffinity(0) == cores
    assert layers.blas_threads() == threads
