"""Synchronous cluster driver.

One :meth:`Cluster.step` is one synchronous round of the paper's
protocol (Fig. 1(b)):

1. every honest worker computes its (clipped, noised) gradient for the
   current parameters;
2. the colluding adversary observes the honest submissions and crafts
   *one* Byzantine gradient, submitted identically by all ``f``
   Byzantine workers (Section 5.1's attack setup);
3. the network delivers the ``n`` messages (dropped ones become zero);
4. the server aggregates with its GAR and updates the parameters.

The cluster also exposes per-round instrumentation (honest clean /
submitted matrices, the crafted vector, the aggregate) that the VN
ratio and resilience analyses consume.

This synchronous driver *is* Section 2.1's system model: "the training
is divided into sequential synchronous steps" and a non-received
gradient is zero.  When the protocol's timing is the object of study —
stragglers, staleness, partial participation — use the discrete-event
engine in :mod:`repro.simulation` instead: its
:class:`~repro.simulation.policies.SyncPolicy` at zero latency replays
this class bit-identically, while its buffered and asynchronous
policies relax the barrier the paper assumes away.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.attacks.base import AttackContext, ByzantineAttack
from repro.compression.base import GradientCodec
from repro.distributed.network import PerfectNetwork
from repro.distributed.server import ParameterServer
from repro.distributed.worker import HonestWorker, compute_cohort
from repro.exceptions import ConfigurationError
from repro.faults.apply import inject_round_faults, zero_worker_momentum
from repro.faults.plan import ResolvedFaultPlan
from repro.typing import Matrix, Vector

__all__ = ["Cluster", "StepResult"]


def _emit_round_metrics(telemetry, delivered, aggregated, num_honest: int) -> None:
    """Round counters for an instrumented path (never on the null path).

    GAR-agnostic winner detection: the aggregate is compared against
    the delivered rows; a matching row means the GAR selected that
    worker's gradient verbatim (Krum, MDA, ...).  The Byzantine block
    is ``f`` *identical* rows, so a selected attack gradient matches
    several indices at once — the round counts as Byzantine-selected
    when every matching row sits past the honest block.  Averaging
    GARs match no row and emit no winner — correctly so.
    """
    telemetry.counter("rounds")
    matches = np.flatnonzero((delivered == aggregated).all(axis=1))
    if matches.size:
        byzantine = bool(matches[0] >= num_honest)
        if byzantine or matches[-1] < num_honest:
            telemetry.gauge("gar.winner_index", int(matches[0]))
            telemetry.counter("gar.winner_rounds")
            if byzantine:
                telemetry.counter("gar.byzantine_selected")


@dataclass(frozen=True)
class StepResult:
    """Instrumentation for one synchronous round.

    The matrix payloads are *opt-in*: rounds executed with
    ``record=False`` (the default training path) carry ``None`` for
    ``honest_submitted`` / ``honest_clean`` so the hot loop never
    allocates instrumentation it does not report.  Consumers that need
    the matrices (VN-ratio monitoring, resilience analyses, recorders)
    run with ``record=True`` — the historical default of
    :meth:`Cluster.step` — and see exactly the old payloads.
    """

    step: int
    aggregated: Vector = field(repr=False)
    honest_submitted: Matrix | None = field(repr=False, default=None)
    honest_clean: Matrix | None = field(repr=False, default=None)
    byzantine_gradient: Vector | None = field(repr=False, default=None)
    #: Exact encoded bytes this round's n messages occupied on the wire
    #: (``None`` when the run has no codec).  With a codec,
    #: ``honest_submitted`` holds the *encoded* wire matrix — what the
    #: adversary observed and the server aggregated — while
    #: ``honest_clean`` stays pre-noise, pre-encoding.
    bytes_on_wire: int | None = None

    @property
    def recorded(self) -> bool:
        """Whether this round carried its matrix payloads."""
        return self.honest_submitted is not None

    @property
    def num_honest(self) -> int:
        """Number of honest submissions this round."""
        if self.honest_submitted is None:
            raise ConfigurationError(
                "this round ran with record=False and carries no matrices"
            )
        return int(self.honest_submitted.shape[0])


class Cluster:
    """Wires workers, adversary, network and server into rounds."""

    def __init__(
        self,
        server: ParameterServer,
        honest_workers: Sequence[HonestWorker],
        num_byzantine: int = 0,
        attack: ByzantineAttack | None = None,
        attack_rng: np.random.Generator | None = None,
        network: PerfectNetwork | None = None,
        codec: GradientCodec | None = None,
        faults: ResolvedFaultPlan | None = None,
    ):
        honest_workers = list(honest_workers)
        if not honest_workers:
            raise ConfigurationError("need at least one honest worker")
        if num_byzantine < 0:
            raise ConfigurationError(f"num_byzantine must be >= 0, got {num_byzantine}")
        if num_byzantine > 0 and attack is None:
            raise ConfigurationError(
                "num_byzantine > 0 requires an attack (use ZeroGradientAttack "
                "for crash-style Byzantine workers)"
            )
        if attack is not None and attack_rng is None:
            raise ConfigurationError("an attack requires attack_rng")
        total = len(honest_workers) + num_byzantine
        if total != server.gar.n:
            raise ConfigurationError(
                f"server GAR expects n={server.gar.n} workers but the cluster "
                f"has {len(honest_workers)} honest + {num_byzantine} Byzantine = {total}"
            )
        if num_byzantine > server.gar.f:
            raise ConfigurationError(
                f"cluster has {num_byzantine} Byzantine workers but the GAR "
                f"only tolerates f={server.gar.f}"
            )
        self._server = server
        self._honest_workers = honest_workers
        self._num_byzantine = int(num_byzantine)
        self._attack = attack
        self._attack_rng = attack_rng
        self._network = network if network is not None else PerfectNetwork()
        self._codec = codec
        if faults is not None and faults.num_honest != len(honest_workers):
            raise ConfigurationError(
                f"fault plan resolved for {faults.num_honest} honest workers "
                f"but the cluster has {len(honest_workers)}"
            )
        # Fault plans target only honest workers; the Byzantine block is
        # adversary-controlled and out of the fault plane's scope.
        self._faults = faults
        self._bytes_on_wire_total = 0
        self._step = 0
        self._engine = None
        # Null telemetry by default: the hot path pays exactly one
        # attribute load + `is None` test per round (pinned by
        # tests/test_telemetry_integration.py's off-path guard).
        self._telemetry = None

    @property
    def server(self) -> ParameterServer:
        """The parameter server."""
        return self._server

    @property
    def honest_workers(self) -> list[HonestWorker]:
        """The honest workers (a copy of the list)."""
        return list(self._honest_workers)

    @property
    def parameters(self) -> Vector:
        """Current model parameters held by the server."""
        return self._server.parameters

    @property
    def n(self) -> int:
        """Total workers (honest + Byzantine)."""
        return len(self._honest_workers) + self._num_byzantine

    @property
    def num_honest(self) -> int:
        """Number of honest workers."""
        return len(self._honest_workers)

    @property
    def num_byzantine(self) -> int:
        """Number of Byzantine workers actually attacking."""
        return self._num_byzantine

    @property
    def step_count(self) -> int:
        """Rounds completed so far."""
        return self._step

    @property
    def codec(self) -> GradientCodec | None:
        """The wire codec encoding submissions (or ``None``)."""
        return self._codec

    @property
    def bytes_on_wire_total(self) -> int:
        """Cumulative encoded bytes across all rounds (0 without a codec)."""
        return self._bytes_on_wire_total

    def _encode_honest(self, honest_submitted: Matrix) -> tuple[Matrix, np.ndarray]:
        """Encode the honest block under worker ids ``0..H-1``.

        Returns the encoded matrix and *per-row* byte counts: under a
        fault plan, rows of absent workers never reached the wire, so
        their bytes are zeroed before the round total is summed —
        matching the multiprocess chief, which zeroes the dead shards'
        ``wire_bytes`` rows.
        """
        return self._codec.encode_block(
            honest_submitted, self._step, range(len(self._honest_workers))
        )

    def _encode_byzantine(self, byzantine_block: Matrix) -> tuple[Matrix, int]:
        """Encode the Byzantine copies under worker ids ``H..n-1``.

        Each of the ``f`` identical submissions is encoded as its own
        message — stochastic codecs give every copy its own stream, so
        the server may receive *distinct* quantizations of one crafted
        gradient, exactly as on a real wire.
        """
        num_honest = len(self._honest_workers)
        encoded, row_bytes = self._codec.encode_block(
            byzantine_block,
            self._step,
            range(num_honest, num_honest + self._num_byzantine),
        )
        return encoded, int(row_bytes.sum())

    @property
    def faults(self) -> ResolvedFaultPlan | None:
        """The resolved fault plan driving this cluster (or ``None``)."""
        return self._faults

    def _apply_faults(
        self, submitted, clean, row_bytes=None, telemetry=None
    ) -> tuple[int, ...]:
        """Apply this round's scheduled faults, in place
        (:func:`repro.faults.apply.inject_round_faults`).

        Clears the momentum buffers of absent workers and publishes
        ``last_live_workers`` so the loop excludes absent workers from
        the honest loss mean — the exact rows the multiprocess chief
        drops from the plane's loss vector.
        """
        live = inject_round_faults(
            self._faults,
            self._step,
            submitted,
            clean,
            self._reset_absent_momentum,
            row_bytes,
            telemetry,
        )
        self.last_live_workers = live
        return live

    def _reset_absent_momentum(self, absent) -> None:
        zero_worker_momentum(self._honest_workers, absent)

    @property
    def engine(self):
        """This cluster's fused :class:`repro.distributed.engine.RoundEngine`.

        Built lazily and cached; the engine executes blocks of rounds
        bit-identically to :meth:`step` (see its module docstring for
        eligibility and the fallback contract).
        """
        if self._engine is None:
            from repro.distributed.engine import RoundEngine

            self._engine = RoundEngine(self)
        return self._engine

    @property
    def telemetry(self):
        """The installed :class:`repro.telemetry.Telemetry` handle (or None)."""
        return self._telemetry

    @telemetry.setter
    def telemetry(self, handle) -> None:
        self._telemetry = handle

    def step(self, record: bool = True) -> StepResult:
        """Run one synchronous round and return its instrumentation.

        ``record=False`` omits the honest matrix payloads from the
        result (the round itself is unchanged); loops whose callbacks
        never read them use it to skip the retained allocations.
        """
        if self._telemetry is not None:
            return self._instrumented_step(record)
        self._step += 1
        parameters = self._server.parameters

        # The whole honest cohort in stacked matrix ops (vectorized
        # gradient + clip + momentum; per-worker RNG streams preserved).
        honest_submitted, honest_clean = compute_cohort(
            self._honest_workers, parameters, self._step
        )

        honest_row_bytes: np.ndarray | None = None
        if self._codec is not None:
            # The adversary observes what actually crossed the wire, so
            # encoding happens before the attack crafts its gradient.
            honest_submitted, honest_row_bytes = self._encode_honest(honest_submitted)

        if self._faults is not None:
            # Faults land after the codec and before the attack: the
            # adversary observes exactly what survived the wire.
            self._apply_faults(honest_submitted, honest_clean, honest_row_bytes)

        bytes_on_wire: int | None = None
        if honest_row_bytes is not None:
            bytes_on_wire = int(honest_row_bytes.sum())

        byzantine_gradient: Vector | None = None
        if self._num_byzantine > 0:
            assert self._attack is not None and self._attack_rng is not None
            context = AttackContext(
                step=self._step,
                honest_submitted=honest_submitted,
                honest_clean=honest_clean,
                parameters=parameters,
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
            byzantine_block = np.tile(byzantine_gradient, (self._num_byzantine, 1))
            if self._codec is not None:
                byzantine_block, byzantine_bytes = self._encode_byzantine(
                    byzantine_block
                )
                bytes_on_wire += byzantine_bytes
            all_gradients = np.vstack([honest_submitted, byzantine_block])
        else:
            all_gradients = honest_submitted

        delivered = self._network.deliver(all_gradients, self._step)
        aggregated = self._server.step(delivered)
        if bytes_on_wire is not None:
            self._bytes_on_wire_total += bytes_on_wire
        return StepResult(
            step=self._step,
            aggregated=aggregated,
            honest_submitted=honest_submitted if record else None,
            honest_clean=honest_clean if record else None,
            byzantine_gradient=byzantine_gradient,
            bytes_on_wire=bytes_on_wire,
        )

    def _instrumented_step(self, record: bool = True) -> StepResult:
        """:meth:`step` with telemetry spans — a deliberate duplicate.

        The null path must stay free of span plumbing (no wrapper
        callables, no per-phase branches), so this twin mirrors
        :meth:`step`'s body exactly and adds the observation points.
        Any behavioural change to :meth:`step` must be made here too;
        the differential and golden-trace tests pin the equivalence.
        Telemetry only *observes* — no RNG stream is ever touched.
        """
        telemetry = self._telemetry
        self._step += 1
        telemetry.set_step(self._step)
        parameters = self._server.parameters

        started = time.perf_counter_ns()
        honest_submitted, honest_clean = compute_cohort(
            self._honest_workers, parameters, self._step
        )
        telemetry.span_ns("round.cohort", time.perf_counter_ns() - started)

        honest_row_bytes: np.ndarray | None = None
        if self._codec is not None:
            started = time.perf_counter_ns()
            honest_submitted, honest_row_bytes = self._encode_honest(honest_submitted)
            telemetry.span_ns("round.codec", time.perf_counter_ns() - started)

        if self._faults is not None:
            self._apply_faults(
                honest_submitted, honest_clean, honest_row_bytes, telemetry
            )

        bytes_on_wire: int | None = None
        if honest_row_bytes is not None:
            bytes_on_wire = int(honest_row_bytes.sum())

        byzantine_gradient: Vector | None = None
        if self._num_byzantine > 0:
            assert self._attack is not None and self._attack_rng is not None
            started = time.perf_counter_ns()
            context = AttackContext(
                step=self._step,
                honest_submitted=honest_submitted,
                honest_clean=honest_clean,
                parameters=parameters,
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
            byzantine_block = np.tile(byzantine_gradient, (self._num_byzantine, 1))
            if self._codec is not None:
                byzantine_block, byzantine_bytes = self._encode_byzantine(
                    byzantine_block
                )
                bytes_on_wire += byzantine_bytes
            all_gradients = np.vstack([honest_submitted, byzantine_block])
            telemetry.span_ns("round.attack", time.perf_counter_ns() - started)
        else:
            all_gradients = honest_submitted

        dropped_before = getattr(self._network, "dropped_total", None)
        started = time.perf_counter_ns()
        delivered = self._network.deliver(all_gradients, self._step)
        telemetry.span_ns("round.network", time.perf_counter_ns() - started)
        if dropped_before is not None:
            dropped = self._network.dropped_total - dropped_before
            if dropped:
                telemetry.counter("network.dropped", dropped)

        started = time.perf_counter_ns()
        aggregated = self._server.step(delivered)
        telemetry.span_ns("round.server", time.perf_counter_ns() - started)
        _emit_round_metrics(telemetry, delivered, aggregated, len(self._honest_workers))
        if bytes_on_wire is not None:
            self._bytes_on_wire_total += bytes_on_wire
            telemetry.counter("wire.bytes", bytes_on_wire)
        return StepResult(
            step=self._step,
            aggregated=aggregated,
            honest_submitted=honest_submitted if record else None,
            honest_clean=honest_clean if record else None,
            byzantine_gradient=byzantine_gradient,
            bytes_on_wire=bytes_on_wire,
        )

    def run(self, num_steps: int) -> StepResult:
        """Run ``num_steps`` rounds; returns the last round's result."""
        if num_steps < 1:
            raise ConfigurationError(f"num_steps must be >= 1, got {num_steps}")
        result: StepResult | None = None
        for _ in range(num_steps):
            result = self.step()
        assert result is not None
        return result
