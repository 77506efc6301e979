"""Uniform fault application — the one place rows are zeroed/corrupted.

Every backend calls these helpers at the same relative point of the
round pipeline (after the codec encode, before the adversary observes),
so the float operations — and therefore the parameter traces — are
identical whether the faults are simulated (rows zeroed in place) or
real (a shard process actually died and its rows were zeroed by the
chief).  :func:`inject_round_faults` is the whole fault stage of an
in-process round, shared by ``Cluster.step`` and the fused
``RoundEngine``; only where the absent workers' momentum lives differs.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.exceptions import DegradedRunError
from repro.faults.plan import ResolvedFaultPlan

__all__ = [
    "apply_wire_faults",
    "inject_round_faults",
    "reset_absent_momentum",
    "zero_worker_momentum",
]


def apply_wire_faults(
    resolved: ResolvedFaultPlan,
    step: int,
    submitted: np.ndarray,
    clean: np.ndarray,
    worker_ids=None,
) -> tuple[frozenset, dict]:
    """Zero absent/dropped rows and scale corrupted rows, in place.

    ``submitted``/``clean`` are the honest round matrices.  By default
    row ``i`` belongs to worker ``i``; backends whose matrices cover a
    partial cohort (the event-driven simulator) pass ``worker_ids``, the
    global worker id of each row.  Returns the ``(zeroed_workers,
    corrupted_workers)`` actually present in the matrices so the caller
    can emit telemetry and exclude rows from loss accounting.
    """
    if worker_ids is None:
        rows = {worker: worker for worker in range(submitted.shape[0])}
    else:
        rows = {worker: row for row, worker in enumerate(worker_ids)}
    zeroed = frozenset(
        worker for worker in resolved.zeroed_workers(step) if worker in rows
    )
    for worker in sorted(zeroed):
        row = rows[worker]
        submitted[row, :] = 0.0
        clean[row, :] = 0.0
    all_corrupted = resolved.corrupted_workers(step)
    corrupted = {
        worker: all_corrupted[worker]
        for worker in sorted(all_corrupted)
        if worker in rows
    }
    for worker, factor in corrupted.items():
        row = rows[worker]
        submitted[row, :] *= factor
        clean[row, :] *= factor
    return zeroed, corrupted


def reset_absent_momentum(
    resolved: ResolvedFaultPlan, step: int, workers
) -> frozenset:
    """Clear the momentum buffers of workers absent this round.

    An absent worker accumulates no velocity while away, so when it
    returns its momentum base is zero — exactly the state of the fresh
    workers a respawned multiprocess shard rebuilds.  Zeroing the live
    buffers (rather than dropping them) keeps the subsequent
    ``v <- m*v + g`` updates bit-identical to a fresh buffer.
    """
    absent = resolved.absent_workers(step)
    zero_worker_momentum(workers, absent)
    return absent


def zero_worker_momentum(workers, absent) -> None:
    """Zero the momentum buffers of the ``absent`` workers, in place."""
    for index in sorted(absent):
        worker = workers[index]
        if worker._velocity_submitted is not None:
            worker._velocity_submitted[:] = 0.0
            worker._velocity_clean[:] = 0.0


def inject_round_faults(
    resolved: ResolvedFaultPlan,
    step: int,
    submitted: np.ndarray,
    clean: np.ndarray,
    reset_momentum: Callable[[frozenset], None],
    row_bytes: np.ndarray | None = None,
    telemetry=None,
) -> tuple[int, ...]:
    """Apply round ``step``'s scheduled faults, in place; returns the
    live honest workers.

    Zeroes absent/dropped rows and scales corrupted rows
    (:func:`apply_wire_faults`), hands the absent workers to
    ``reset_momentum`` (worker buffers on the per-round path, the
    engine's momentum stacks on the fused path), and zeroes absent
    rows' ``row_bytes`` — a dead worker sent nothing, matching the
    multiprocess chief, which zeroes dead shards' ``wire_bytes`` rows.
    The returned live set is what the loss mean is taken over.  Emits
    one ``fault.injected`` counter under ``telemetry`` when any row was
    touched.  Raises :class:`DegradedRunError` when the plan leaves no
    honest worker live.
    """
    live = resolved.live_workers(step)
    if not live:
        raise DegradedRunError(
            f"round {step}: every honest worker has departed under "
            "the fault plan; refusing to aggregate attack-only submissions"
        )
    zeroed, corrupted = apply_wire_faults(resolved, step, submitted, clean)
    absent = resolved.absent_workers(step)
    reset_momentum(absent)
    if row_bytes is not None:
        for worker in sorted(absent):
            row_bytes[worker] = 0
    if telemetry is not None and (zeroed or corrupted):
        telemetry.counter(
            "fault.injected",
            len(zeroed) + len(corrupted),
            zeroed=sorted(zeroed),
            corrupted=sorted(corrupted),
        )
    return live
