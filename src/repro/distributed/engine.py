"""The fused round engine: blocks of synchronous rounds, allocation-free.

The paper's experiments are thousands of *short* rounds (n ~ 25
workers, d ~ 100 parameters), a regime where wall-clock is dominated by
per-round Python and allocator overhead rather than FLOPs.
:class:`RoundEngine` executes the synchronous protocol of
:class:`repro.distributed.cluster.Cluster` in fused blocks of ``R``
rounds that remove that overhead without changing a single output bit:

* **the fused cohort kernel** (:class:`repro.distributed.cohort.FusedCohort`,
  which the multiprocess runtime's shards run too) — blockwise RNG
  pre-draw of every worker's batch indices and DP noise, warm batch
  gather buffers, persistent ``(W, d)`` momentum stacks, and one
  :meth:`repro.models.base.Model.loss_and_gradient_stack` pass for the
  honest-batch training loss and the cohort gradients;
* **preallocated wire matrix** — one ``(n, d)`` matrix, into which the
  kernel writes the honest rows, reused across every round of the run;
* **in-place server updates** — the optimizer writes the parameter
  buffer through :meth:`repro.optim.sgd.SGDOptimizer.step`'s ``out=``
  path, and the loop reads :attr:`ParameterServer.parameters_view`
  instead of per-round defensive copies;
* **opt-in instrumentation** — :class:`StepResult` matrix payloads are
  produced only under ``record=True``; the default training path copies
  nothing it does not report;
* **faults as a round stage** — a fault plan's outages are known in
  advance (:class:`repro.faults.plan.ResolvedFaultPlan`), so fault runs
  keep the block pre-draw: each round applies its scheduled faults
  between the codec and the attack through the same
  :func:`repro.faults.apply.inject_round_faults` that ``Cluster.step``
  calls, clearing absent workers' rows of the momentum stacks.

Every elementary float operation happens in the same order as the
per-round path, so fused execution is *bit-identical* to
``Cluster.step`` — the golden-trace suite replays the committed traces
through the engine unmodified.  Configurations the fused pipeline does
not cover (per-example clipping, custom worker/sampler/mechanism
subclasses, heterogeneous cohorts) simply report
``supports_fused == False`` and the caller steps per round; correctness
never depends on the fast path.

The engine holds only a weak reference to its cluster (the cluster owns
the engine), so a finished cluster — and with it the engine's
preallocated buffers — is freed as soon as the last outside reference
goes, without waiting for the cyclic garbage collector.
"""

from __future__ import annotations

import time
import weakref

import numpy as np

from repro.attacks.base import AttackContext
from repro.distributed.cluster import Cluster, StepResult
from repro.distributed.cohort import FusedCohort, default_block_rounds
from repro.distributed.server import ParameterServer
from repro.exceptions import ConfigurationError
from repro.faults.apply import inject_round_faults
from repro.metrics.history import TrainingHistory
from repro.models.base import Model
from repro.optim.sgd import SGDOptimizer

__all__ = ["RoundEngine", "default_block_rounds"]


class _PhaseLap:
    """Accumulating per-phase lap timer for the instrumented block path.

    One instance per round (allocated only when telemetry is on);
    ``mark(name)`` charges the time since the previous mark to that
    phase's running total.  The engine emits one span per phase per
    *block*, so telemetry adds O(phases) events per block rather than
    per round — this is what keeps the enabled-path overhead inside the
    bench guard's 3% budget.
    """

    __slots__ = ("acc", "t")

    def __init__(self, acc: dict):
        self.acc = acc
        self.t = time.perf_counter_ns()

    def mark(self, name: str) -> None:
        now = time.perf_counter_ns()
        self.acc[name] = self.acc.get(name, 0) + (now - self.t)
        self.t = now

    def skip(self) -> None:
        """Restart the lap without charging any phase (time outside the
        spans, like the per-round path's fault stage)."""
        self.t = time.perf_counter_ns()


class RoundEngine:
    """Fused executor for a :class:`~repro.distributed.cluster.Cluster`.

    Built lazily by :attr:`Cluster.engine`; holds the wire matrix and
    the cohort kernel, and runs the aggregation half of each round.
    :meth:`run` executes fused blocks; eligibility is a pure function of
    the cluster's configuration, exposed as :attr:`supports_fused` /
    :attr:`fused_unsupported_reason`.
    """

    def __init__(self, cluster):
        # The cluster owns this engine; a strong back-reference would
        # make a cycle that keeps a finished cluster (and these buffers)
        # alive until the next cyclic collection.
        self._cluster_ref = weakref.ref(cluster)
        self._server = cluster._server
        self._network = cluster._network
        self._attack = cluster._attack
        self._attack_rng = cluster._attack_rng
        self._num_byzantine = cluster._num_byzantine
        self._codec = cluster._codec
        self._faults = cluster._faults
        self._num_honest = len(cluster._honest_workers)
        self._dimension = int(cluster._server.parameters_view.shape[0])
        self._cohort = FusedCohort(cluster._honest_workers, self._dimension)
        self._reason = self._probe(cluster)
        self._all_gradients = None

    # ------------------------------------------------------------------
    # eligibility
    # ------------------------------------------------------------------

    def _probe(self, cluster) -> str | None:
        """Why the fused path cannot run, or ``None`` when it can.

        The cohort's own conditions are :class:`FusedCohort`'s; the
        engine adds the cluster-level ones.
        """
        reason = self._cohort.reason
        if reason is not None:
            return reason
        # The attack stream is consumed in the round loop while the
        # cohort's streams are pre-drawn, so it must be private too.
        if (
            self._attack_rng is not None
            and id(self._attack_rng.bit_generator) in self._cohort.stream_ids
        ):
            return "workers share RNG streams"
        if type(cluster).step is not Cluster.step:
            return f"cluster {type(cluster).__name__} overrides step"
        # The in-place update path goes through ParameterServer.step's
        # in_place= branch and SGDOptimizer.step's out= branch; a
        # subclass overriding either would be bypassed (or silently
        # ignore out=), so such servers step per round.
        server = self._server
        if type(server).step is not ParameterServer.step:
            return f"server {type(server).__name__} overrides step"
        if type(server._optimizer).step is not SGDOptimizer.step:
            return (
                f"optimizer {type(server._optimizer).__name__} overrides step"
            )
        return None

    @property
    def supports_fused(self) -> bool:
        """Whether :meth:`run` may execute this cohort."""
        return self._reason is None

    @property
    def fused_unsupported_reason(self) -> str | None:
        """Human-readable reason the fused path is unavailable."""
        return self._reason

    @property
    def cohort_model(self) -> Model:
        """The model the cohort computes (and the engine records) with."""
        return self._cohort.model

    def _ensure_buffers(self) -> None:
        if self._all_gradients is None:
            self._all_gradients = np.zeros(
                (self._num_honest + self._num_byzantine, self._dimension),
                dtype=np.float64,
            )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(
        self,
        num_rounds: int,
        *,
        model: Model | None = None,
        history: TrainingHistory | None = None,
        record: bool = False,
        block_size: int | None = None,
    ):
        """Execute ``num_rounds`` fused rounds; returns the last round's
        :class:`~repro.distributed.cluster.StepResult`.

        ``history`` enables per-round honest-batch loss recording (the
        same quantity, bit for bit, that
        :func:`repro.pipeline.loop.record_honest_loss` records on the
        per-round path).  The loss always comes from the cohort's own
        shared forward pass, so a ``model`` argument, when given, must
        be :attr:`cohort_model` — a different probe model would record
        a different loss than the caller asked for, which the engine
        refuses rather than silently substituting.  ``record=True``
        attaches copied
        ``honest_submitted`` / ``honest_clean`` matrices to the returned
        result; the default allocates no instrumentation.

        Worker-visible state (momentum buffers, ``last_batch``) is
        synchronised at the end of the run — and on divergence — so a
        fused run leaves the cluster exactly where the per-round path
        would have.
        """
        if self._reason is not None:
            raise ConfigurationError(
                f"fused execution unavailable: {self._reason}"
            )
        if num_rounds < 1:
            raise ConfigurationError(f"num_rounds must be >= 1, got {num_rounds}")
        if block_size is not None and block_size < 1:
            raise ConfigurationError(f"block_size must be >= 1, got {block_size}")
        if model is not None and model is not self.cohort_model:
            raise ConfigurationError(
                "the fused engine records loss with the cohort's own model; "
                "pass model=None or the workers' model"
            )
        self._ensure_buffers()
        cohort = self._cohort
        cluster = self._cluster_ref()
        if cluster is None:
            raise ConfigurationError("the engine's cluster no longer exists")
        # The fused path shares the cluster's telemetry handle; when it
        # is None (the default) every observation point below folds to a
        # single `is not None` test.
        telemetry = cluster._telemetry
        phase_acc: dict | None = {} if telemetry is not None else None
        if block_size is None:
            block_size = cohort.block_rounds()
        cohort.import_velocities()
        result = None
        remaining = int(num_rounds)
        self._rounds_executed = 0
        # Loss recording is deferred per block: each round parks its
        # (W,) cohort losses and the whole block's means are computed
        # with one axis reduction — bit-identical to the per-round
        # ``float(np.mean(...))`` (same pairwise summation per
        # contiguous row), pinned by the property suite.  Rounds with
        # absent workers park only their live rows; a block with such
        # rounds takes each round's mean on its own.
        pending_losses: list[tuple[int, np.ndarray]] = []

        def flush_losses() -> None:
            if not pending_losses:
                return
            rows = [losses for _, losses in pending_losses]
            if all(len(losses) == len(rows[0]) for losses in rows):
                means = np.stack(rows).mean(axis=1)
            else:
                means = [np.mean(losses) for losses in rows]
            for (step, _), mean in zip(pending_losses, means):
                history.record_loss(step, float(mean))
            pending_losses.clear()

        try:
            while remaining > 0:
                rounds = min(remaining, block_size)
                if telemetry is not None:
                    cohort.clip_hits = 0
                    self._winner_rounds = 0
                    self._byzantine_rounds = 0
                    self._dropped_before = getattr(
                        self._network, "dropped_total", None
                    )
                    self._wire_bytes_before = cluster._bytes_on_wire_total
                    predraw_started = time.perf_counter_ns()
                # Blockwise pre-draw: every worker's private streams are
                # consumed exactly as the per-round path would, just all
                # at once (see repro.distributed.cohort).
                cohort.predraw(rounds)
                if phase_acc is not None:
                    # The block pre-draw IS the round's sampling/noise
                    # RNG work, amortised: charge it to its own phase.
                    phase_acc["round.predraw"] = phase_acc.get(
                        "round.predraw", 0
                    ) + (time.perf_counter_ns() - predraw_started)
                for r in range(rounds):
                    is_last = remaining == rounds and r == rounds - 1
                    round_result = self._fused_round(
                        cluster,
                        pending_losses if history is not None else None,
                        record=record,
                        build_result=is_last,
                        telemetry=telemetry,
                        phase_acc=phase_acc,
                    )
                    if round_result is not None:
                        result = round_result
                flush_losses()
                if telemetry is not None:
                    self._emit_block_telemetry(cluster, telemetry, rounds, phase_acc)
                remaining -= rounds
        finally:
            # Divergence can abort mid-block; worker-visible state and
            # the recorded losses are synchronised for exactly the
            # rounds that did run (matching the per-round path, which
            # never records the diverging round's loss).
            flush_losses()
            if self._rounds_executed > 0:
                cohort.export_state()
            cohort.release_block()
        return result

    def _emit_block_telemetry(
        self, cluster, telemetry, rounds: int, phase_acc: dict
    ) -> None:
        """Flush one block's accumulated phases and counters as events.

        One span per phase per block (tagged with the rounds it
        covers), plus the counters the block accumulated inline.
        Emission happens *between* blocks, never inside the round loop.
        """
        telemetry.set_step(cluster._step)
        for name in sorted(phase_acc):
            telemetry.span_ns(name, phase_acc[name], rounds=rounds)
        phase_acc.clear()
        telemetry.counter("rounds", rounds)
        if self._cohort.clip_hits:
            telemetry.counter("clip.activations", self._cohort.clip_hits)
        if self._winner_rounds:
            telemetry.counter("gar.winner_rounds", self._winner_rounds)
        if self._byzantine_rounds:
            telemetry.counter("gar.byzantine_selected", self._byzantine_rounds)
        if self._dropped_before is not None:
            dropped = self._network.dropped_total - self._dropped_before
            if dropped:
                telemetry.counter("network.dropped", dropped)
        wire_bytes = cluster._bytes_on_wire_total - self._wire_bytes_before
        if wire_bytes:
            telemetry.counter("wire.bytes", wire_bytes)

    def _fused_round(
        self,
        cluster,
        pending_losses: list | None,
        record: bool,
        build_result: bool,
        telemetry=None,
        phase_acc: dict | None = None,
    ):
        server = self._server
        num_honest = self._num_honest
        cluster._step += 1
        self._rounds_executed += 1
        step = cluster._step
        parameters = server.parameters_view
        lap = _PhaseLap(phase_acc) if phase_acc is not None else None

        # The cohort half: gather, loss/gradient, clip, noise and
        # momentum, with the submitted rows written straight into the
        # wire matrix.
        submitted = self._all_gradients[:num_honest]
        clean, losses = self._cohort.compute(parameters, submitted, lap)

        # Wire codec: encode the honest block in place (identity's
        # block fast path returns the same object, so the no-codec and
        # identity rounds execute byte-identical buffer operations).
        row_bytes = None
        if self._codec is not None:
            encoded, row_bytes = self._codec.encode_block(
                submitted, step, range(num_honest)
            )
            if encoded is not submitted:
                submitted[:] = encoded
            if lap is not None:
                lap.mark("round.codec")

        # Faults after the codec and before the attack, as on the
        # per-round path: the adversary observes what survived the wire.
        live = None
        if self._faults is not None:
            if telemetry is not None:
                telemetry.set_step(step)
            live = inject_round_faults(
                self._faults,
                step,
                submitted,
                clean,
                self._cohort.reset_absent_momentum,
                row_bytes,
                telemetry,
            )
            cluster.last_live_workers = live
            if lap is not None:
                lap.skip()

        round_bytes = None if row_bytes is None else int(row_bytes.sum())

        byzantine_gradient = None
        if self._num_byzantine > 0:
            # The context gets fresh per-round copies, exactly like the
            # per-round path: an attack may legally retain its context
            # across rounds (adaptive attacks), and handing it views of
            # the engine's reused buffers would silently rewrite what it
            # retained.  Two (W, d) copies per attacked round is noise
            # next to the craft itself.
            context = AttackContext(
                step=step,
                honest_submitted=submitted.copy(),
                honest_clean=clean.copy(),
                parameters=parameters.copy(),
                num_byzantine=self._num_byzantine,
                rng=self._attack_rng,
            )
            byzantine_gradient = np.asarray(
                self._attack.craft(context), dtype=np.float64
            )
            if byzantine_gradient.shape != parameters.shape:
                raise ConfigurationError(
                    f"attack produced shape {byzantine_gradient.shape}, "
                    f"expected {parameters.shape}"
                )
            self._all_gradients[num_honest:] = byzantine_gradient
            if self._codec is not None:
                byzantine_rows = self._all_gradients[num_honest:]
                encoded, row_bytes = self._codec.encode_block(
                    byzantine_rows,
                    step,
                    range(num_honest, num_honest + self._num_byzantine),
                )
                if encoded is not byzantine_rows:
                    byzantine_rows[:] = encoded
                round_bytes += int(row_bytes.sum())
            if lap is not None:
                lap.mark("round.attack")

        if round_bytes is not None:
            cluster._bytes_on_wire_total += round_bytes

        delivered = self._network.deliver(self._all_gradients, step)
        if lap is not None:
            lap.mark("round.network")
        aggregated = server.step(delivered, in_place=True)
        if lap is not None:
            lap.mark("round.server")
            # Same winner rule as _emit_round_metrics: all-honest or
            # all-Byzantine match sets count, mixed matches don't.
            matches = np.flatnonzero((delivered == aggregated).all(axis=1))
            if matches.size:
                if matches[0] >= num_honest:
                    self._winner_rounds += 1
                    self._byzantine_rounds += 1
                elif matches[-1] < num_honest:
                    self._winner_rounds += 1

        if pending_losses is not None:
            # Parked only after a successful server update, exactly as
            # the per-round path never records a diverging round.
            if live is not None and len(live) < num_honest:
                losses = losses[list(live)]
            pending_losses.append((step, losses))

        if not build_result:
            return None
        return StepResult(
            step=step,
            aggregated=aggregated,
            honest_submitted=submitted.copy() if record else None,
            honest_clean=clean.copy() if record else None,
            byzantine_gradient=byzantine_gradient,
            bytes_on_wire=round_bytes,
        )
