"""The fused cohort kernel: one honest round from batch gather to momentum.

:class:`FusedCohort` is the cohort half of a fused round, shared by the
in-process :class:`repro.distributed.engine.RoundEngine` and the
multiprocess runtime's shard processes
(:mod:`repro.distributed.runtime.shard`).  For a list of honest workers
it owns:

* the **blockwise RNG pre-draw** — each worker's batch indices
  (:meth:`repro.data.batching.BatchSampler.sample_index_block`) and DP
  noise (:meth:`repro.privacy.mechanisms.NoiseMechanism.sample_noise_block`)
  for a block of rounds, drawn up front.  Every worker owns private
  generator streams and NumPy ``Generator`` draws are consumed
  value-by-value, so a block draw reads the identical stream as the
  per-round draws;
* the **warm round buffers** — the ``(W, b, p)`` batch gather targets,
  filled with ``np.take(..., mode="clip")`` from sources that already
  carry the bias column on linear-family models, and the persistent
  ``(W, d)`` momentum stacks;
* the **round itself** — one
  :meth:`repro.models.base.Model.loss_and_gradient_stack` pass, the
  batched clip, the noise add and the momentum update, in the same
  float operations as :func:`repro.distributed.worker.compute_cohort`.

Every per-worker quantity is a per-row reduction whose evaluation order
does not depend on how many rows are stacked, so a kernel over a
contiguous slice of the cohort reproduces that slice of the
whole-cohort rows bit for bit — which is what lets a shard run the
engine's kernel on its own workers.

Eligibility is a pure function of the workers' configuration
(:attr:`FusedCohort.reason`); an ineligible cohort is computed with
``compute_cohort`` instead, and correctness never depends on the fast
path.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.data.batching import BatchSampler
from repro.distributed.worker import HonestWorker
from repro.models.base import Model
from repro.privacy.mechanisms import (
    GaussianMechanism,
    LaplaceMechanism,
    NoiseMechanism,
)

__all__ = ["FusedCohort", "default_block_rounds"]

#: Target footprint of one block's pre-drawn RNG buffers (noise and
#: batch indices).  Blocks are sized so the pre-draw stays cache-warm
#: instead of ballooning on large-d configurations: at 2 MB the paper
#: cell (d=100) still draws 69 rounds per block and runs as fast as at
#: 8 MB, d=1000 cells run ~5 % faster, and the peak memory of a run is
#: lower.
_BLOCK_BYTES = 2 << 20

#: Hard cap on rounds per block; past this the amortisation is flat.
_MAX_BLOCK_ROUNDS = 256


def default_block_rounds(
    num_workers: int, dimension: int, batch_size: int, num_noised: int
) -> int:
    """Rounds per fused block for a cohort of the given shape."""
    per_round = 8 * (num_noised * dimension + num_workers * batch_size)
    return int(np.clip(_BLOCK_BYTES // max(per_round, 1), 1, _MAX_BLOCK_ROUNDS))


class FusedCohort:
    """Fused round kernel over a list of honest workers.

    Construction only probes eligibility; the buffers are built on the
    first :meth:`predraw` (or :meth:`import_velocities`).  A round is
    :meth:`predraw` once per block, then :meth:`compute` once per
    round of the block.  ``dimension`` is the model's parameter count.
    """

    def __init__(self, workers: Sequence[HonestWorker], dimension: int):
        self._workers = list(workers)
        self._dimension = int(dimension)
        self._stream_ids: frozenset = frozenset()
        self._reason = self._probe()
        self._ready = False
        self._drawn = 0
        self._cursor = 0
        #: Clip activations counted by instrumented rounds (``lap`` given);
        #: the caller resets it.
        self.clip_hits = 0

    # ------------------------------------------------------------------
    # eligibility
    # ------------------------------------------------------------------

    def _probe(self) -> str | None:
        """Why the fused kernel cannot run this cohort, or ``None``."""
        workers = self._workers
        if not workers:
            return "empty cohort"
        for worker in workers:
            cls = type(worker)
            if cls.compute is not HonestWorker.compute or cls._finish is not HonestWorker._finish:
                return f"worker subclass {cls.__name__} overrides the pipeline"
            sampler = worker._sampler
            if not isinstance(sampler, BatchSampler) or (
                type(sampler).sample is not BatchSampler.sample
                or type(sampler).sample_indices is not BatchSampler.sample_indices
            ):
                return f"sampler {type(sampler).__name__} overrides sampling"
            mechanism = worker._mechanism
            if mechanism is not None:
                if not isinstance(mechanism, NoiseMechanism) or (
                    type(mechanism).privatize is not NoiseMechanism.privatize
                ):
                    return f"mechanism {type(mechanism).__name__} overrides privatize"
                reason = self._probe_mechanism(mechanism)
                if reason is not None:
                    return reason
            if worker._clip_mode != "batch":
                return "per-example clipping is not fused"
        # The blockwise pre-draw consumes each stream in one run, which
        # only reproduces the per-round interleaving when every consumed
        # stream is private.  A bit generator shared between any two
        # consumed roles (sampler/noise, same worker or across workers —
        # even via distinct Generator wrappers) would be read in a
        # different order, so such cohorts step per round.
        # Never-consumed streams (the noise rng of a worker without a
        # mechanism) are exempt on both paths.
        consumed = [worker._sampler._rng for worker in workers]
        consumed += [
            worker._noise_rng for worker in workers if worker._mechanism is not None
        ]
        self._stream_ids = frozenset(id(generator.bit_generator) for generator in consumed)
        if len(self._stream_ids) != len(consumed):
            return "workers share RNG streams"
        model = workers[0]._model
        if any(w._model is not model for w in workers):
            return "heterogeneous cohort models"
        reason = self._probe_model(model)
        if reason is not None:
            return reason
        batch_size = workers[0]._sampler.batch_size
        if any(w._sampler.batch_size != batch_size for w in workers):
            return "heterogeneous batch sizes"
        first = workers[0]._sampler.dataset
        feature_shape = first.features.shape[1:]
        label_shape = first.labels.shape[1:]
        for worker in workers:
            dataset = worker._sampler.dataset
            if (
                dataset.features.shape[1:] != feature_shape
                or dataset.labels.shape[1:] != label_shape
                or dataset.features.dtype != first.features.dtype
                or dataset.labels.dtype != first.labels.dtype
            ):
                return "heterogeneous dataset shapes"
        return None

    @staticmethod
    def _probe_mechanism(mechanism) -> str | None:
        """Reject mechanisms whose inherited vectorized block draw would
        bypass an overridden ``sample_noise``.

        The generic :meth:`NoiseMechanism.sample_noise_block` performs
        the sequential draws itself, so it honours any ``sample_noise``
        override; the Gaussian/Laplace vectorized blocks are only
        equivalent to *their own* ``sample_noise``.  A subclass that
        overrides ``sample_noise_block`` itself owns the equivalence
        contract (documented on the method) and is accepted.
        """
        cls = type(mechanism)
        for family in (GaussianMechanism, LaplaceMechanism):
            if (
                cls.sample_noise_block is family.sample_noise_block
                and cls.sample_noise is not family.sample_noise
            ):
                return (
                    f"mechanism {cls.__name__} overrides sample_noise but "
                    "inherits the vectorized block draw"
                )
        return None

    @staticmethod
    def _probe_model(model) -> str | None:
        """Reject models whose inherited single-pass stack would bypass
        overridden ``gradient_stack`` / ``loss_stack`` methods.

        The base :meth:`Model.loss_and_gradient_stack` delegates to
        ``self.loss_stack`` / ``self.gradient_stack``, so it honours any
        override.  A model that inherits a *single-pass* implementation
        (linear, logistic) while overriding the two-pass methods — or
        the augmentation hooks the fused path substitutes — would train
        with the parent's formulas on the fused path only; those cohorts
        step per round instead.
        """

        def defining_class(name):
            for klass in type(model).__mro__:
                if name in vars(klass):
                    return klass
            return None

        owner = defining_class("loss_and_gradient_stack")
        if owner is Model:
            return None  # delegating implementation: overrides are honoured
        checked = ["gradient_stack", "loss_stack"]
        if model.supports_augmented_stack:
            checked += ["augment_features", "_augment_stack"]
        for name in checked:
            if defining_class(name) is not owner:
                return (
                    f"model {type(model).__name__} overrides {name} but "
                    f"inherits {owner.__name__}.loss_and_gradient_stack"
                )
        return None

    @property
    def reason(self) -> str | None:
        """Why the kernel cannot run this cohort (``None`` when it can)."""
        return self._reason

    @property
    def stream_ids(self) -> frozenset:
        """Identities of the bit generators the pre-draw consumes."""
        return self._stream_ids

    @property
    def model(self) -> Model:
        """The model the cohort computes (and scores its batches) with."""
        return self._workers[0]._model

    @property
    def rounds_left(self) -> int:
        """Pre-drawn rounds not yet computed."""
        return self._drawn - self._cursor

    def block_rounds(self) -> int:
        """Default rounds per pre-drawn block for this cohort's shape."""
        workers = self._workers
        return default_block_rounds(
            len(workers),
            self._dimension,
            workers[0]._sampler.batch_size,
            sum(w._mechanism is not None for w in workers),
        )

    # ------------------------------------------------------------------
    # buffers and worker state
    # ------------------------------------------------------------------

    def _ensure_buffers(self) -> None:
        if self._ready:
            return
        workers = self._workers
        num_workers = len(workers)
        dimension = self._dimension
        batch_size = workers[0]._sampler.batch_size
        first = workers[0]._sampler.dataset
        self._model = workers[0]._model
        # Shared-dataset cohorts (the paper's "shared" distribution)
        # gather all workers' batches with one indexed take.  The take
        # runs with ``mode='clip'`` into preallocated buffers: sampler
        # indices are always in range, so clipping is value-identical,
        # and it selects take's unbuffered fast path (the default
        # ``mode='raise'`` with ``out=`` is ~3x slower) while keeping
        # the gather target cache-warm across rounds.
        self._shared = all(w._sampler.dataset is first for w in workers)
        # Linear-family models: append the bias column to each dataset
        # once, so no round re-concatenates it (the gathered rows are
        # bit-identical to augmenting the gathered raw rows).
        self._augmented = bool(self._model.supports_augmented_stack)
        if self._augmented:
            caches: dict[int, np.ndarray] = {}
            self._feature_sources = []
            for worker in workers:
                dataset = worker._sampler.dataset
                key = id(dataset)
                if key not in caches:
                    caches[key] = self._model.augment_features(dataset.features)
                self._feature_sources.append(caches[key])
            self._raw_feature_width = int(first.features.shape[1])
        else:
            self._feature_sources = [w._sampler.dataset.features for w in workers]
            self._raw_feature_width = None
        self._label_sources = [w._sampler.dataset.labels for w in workers]
        self._features_buf = np.empty(
            (num_workers, batch_size) + self._feature_sources[0].shape[1:],
            dtype=self._feature_sources[0].dtype,
        )
        self._labels_buf = np.empty(
            (num_workers, batch_size) + first.labels.shape[1:],
            dtype=first.labels.dtype,
        )
        self._have_batches = False
        self._g_max = np.array(
            [np.inf if w._g_max is None else w._g_max for w in workers]
        )
        self._momenta = np.array([w._momentum for w in workers])
        self._momentum_mask = self._momenta > 0.0
        self._any_momentum = bool(self._momentum_mask.any())
        self._all_momentum = bool(self._momentum_mask.all())
        self._noised_indices = [
            index for index, w in enumerate(workers) if w._mechanism is not None
        ]
        self._all_noised = len(self._noised_indices) == num_workers
        self._index_blocks = [None] * num_workers
        self._noise_blocks = [None] * num_workers
        if self._any_momentum:
            self._velocity_submitted = np.zeros((num_workers, dimension))
            self._velocity_clean = np.zeros((num_workers, dimension))
            self._momenta_col = self._momenta[:, None]
        self._ready = True

    def reset_absent_momentum(self, absent) -> None:
        """Zero absent workers' rows of the momentum stacks (the fused
        counterpart of clearing their per-worker buffers)."""
        if self._any_momentum and absent:
            rows = sorted(absent)
            self._velocity_submitted[rows] = 0.0
            self._velocity_clean[rows] = 0.0

    def import_velocities(self) -> None:
        """Load the workers' live momentum buffers into the stacks."""
        self._ensure_buffers()
        if not self._any_momentum:
            return
        for index, worker in enumerate(self._workers):
            if not self._momentum_mask[index]:
                continue
            if worker._velocity_submitted is None:
                self._velocity_submitted[index] = 0.0
                self._velocity_clean[index] = 0.0
            else:
                self._velocity_submitted[index] = worker._velocity_submitted
                self._velocity_clean[index] = worker._velocity_clean

    def export_state(self) -> None:
        """Write kernel-held per-worker state back onto the workers."""
        for index, worker in enumerate(self._workers):
            if self._any_momentum and self._momentum_mask[index]:
                worker._velocity_submitted = self._velocity_submitted[index].copy()
                worker._velocity_clean = self._velocity_clean[index].copy()
            if self._have_batches:
                # The gather buffers are reused next round, so the
                # workers get copies; on the augmented path the bias
                # column is sliced back off.
                features = self._features_buf[index]
                if self._augmented:
                    features = features[:, : self._raw_feature_width]
                worker._last_batch = (
                    features.copy(),
                    self._labels_buf[index].copy(),
                )

    # ------------------------------------------------------------------
    # pre-draw
    # ------------------------------------------------------------------

    def predraw(self, rounds: int) -> None:
        """Draw the next ``rounds`` rounds' batch indices and noise.

        Replaces the current block: rounds of it not yet computed are
        discarded, their draws consumed.
        """
        self._ensure_buffers()
        index_blocks = self._index_blocks
        noise_blocks = self._noise_blocks
        for index, worker in enumerate(self._workers):
            index_blocks[index] = worker._sampler.sample_index_block(rounds)
            if worker._mechanism is not None:
                noise_blocks[index] = worker._mechanism.sample_noise_block(
                    rounds, self._dimension, worker._noise_rng
                )
        # (R, W, b): round r's whole-cohort gather is one fancy index.
        self._block_indices = (
            np.stack(index_blocks, axis=1) if self._shared else None
        )
        # (R, W, d): round r's cohort noise is one slice, so the round
        # adds it with a single ufunc call.
        self._noise_stack = (
            np.stack(noise_blocks, axis=1) if self._all_noised else None
        )
        self._drawn = int(rounds)
        self._cursor = 0

    def release_block(self) -> None:
        """Free the pre-drawn block; its rounds not yet computed are
        discarded, their draws consumed."""
        if self._ready:
            self._index_blocks = [None] * len(self._workers)
            self._noise_blocks = [None] * len(self._workers)
        self._block_indices = self._noise_stack = None
        self._drawn = self._cursor = 0

    def skip(self, rounds: int) -> None:
        """Consume ``rounds`` rounds of every stream without computing.

        Draws (and discards) exactly what ``rounds`` computed rounds
        would, block by block, so the next :meth:`predraw` reads the
        streams where a cohort that lived through those rounds would.
        Builds no buffers.
        """
        block = self.block_rounds()
        dimension = self._dimension
        while rounds > 0:
            count = min(rounds, block)
            for worker in self._workers:
                worker._sampler.sample_index_block(count)
                if worker._mechanism is not None:
                    worker._mechanism.sample_noise_block(
                        count, dimension, worker._noise_rng
                    )
            rounds -= count

    # ------------------------------------------------------------------
    # the round
    # ------------------------------------------------------------------

    def compute(self, parameters: np.ndarray, submitted: np.ndarray, lap=None):
        """Run the next pre-drawn round at ``parameters``.

        Writes the submitted rows into ``submitted`` (a ``(W, d)``
        float64 buffer) and returns ``(clean, losses)``: the round's
        clean rows and the per-worker losses of the sampled batches at
        ``parameters``.  ``lap`` (a phase lap timer, or ``None``) is
        marked after the gather, the clip, the noise and the momentum
        update.
        """
        r = self._cursor
        if r >= self._drawn:
            raise RuntimeError("no pre-drawn round left: call predraw() first")
        self._cursor = r + 1

        # Batch gather into the warm preallocated buffers: one indexed
        # take for the whole cohort on shared data, per-worker takes on
        # sharded data.  Sources carry the pre-appended bias column
        # when the model supports it; ``mode='clip'`` is exact for the
        # always-in-range sampler indices (see ``_ensure_buffers``).
        features = self._features_buf
        labels = self._labels_buf
        if self._block_indices is not None:
            round_indices = self._block_indices[r]
            np.take(
                self._feature_sources[0], round_indices, axis=0,
                out=features, mode="clip",
            )
            np.take(
                self._label_sources[0], round_indices, axis=0,
                out=labels, mode="clip",
            )
        else:
            index_blocks = self._index_blocks
            for index in range(len(index_blocks)):
                np.take(
                    self._feature_sources[index], index_blocks[index][r], axis=0,
                    out=features[index], mode="clip",
                )
                np.take(
                    self._label_sources[index], index_blocks[index][r], axis=0,
                    out=labels[index], mode="clip",
                )
        self._have_batches = True
        if lap is not None:
            lap.mark("round.sample")

        # Forward/backward: one shared pass for the batch losses and
        # the cohort gradients.
        if self._augmented:
            losses, gradients = self._model.loss_and_gradient_stack(
                parameters, features, labels, augmented=True
            )
        else:
            losses, gradients = self._model.loss_and_gradient_stack(
                parameters, features, labels
            )
        clean = np.asarray(gradients, dtype=np.float64)

        # Batched clip — the identical operations compute_cohort runs.
        norms = np.sqrt(np.einsum("wd,wd->w", clean, clean))
        exceeds = norms > self._g_max
        if exceeds.any():
            clean[exceeds] *= (self._g_max[exceeds] / norms[exceeds])[:, None]
            if lap is not None:
                self.clip_hits += int(np.count_nonzero(exceeds))
        if lap is not None:
            lap.mark("round.cohort")

        # DP noise from the pre-drawn block (rows without a mechanism
        # carry the clean row).
        if self._noise_stack is not None:
            np.add(clean, self._noise_stack[r], out=submitted)
        else:
            submitted[:] = clean
            noise_blocks = self._noise_blocks
            for index in self._noised_indices:
                np.add(clean[index], noise_blocks[index][r], out=submitted[index])
        if lap is not None:
            lap.mark("round.noise")

        # Momentum on the persistent stacks (v <- m v; v <- v + g).
        if self._any_momentum:
            self._velocity_submitted *= self._momenta_col
            self._velocity_submitted += submitted
            self._velocity_clean *= self._momenta_col
            self._velocity_clean += clean
            if self._all_momentum:
                submitted[:] = self._velocity_submitted
                clean[:] = self._velocity_clean
            else:
                mask = self._momentum_mask
                submitted[mask] = self._velocity_submitted[mask]
                clean[mask] = self._velocity_clean[mask]
            if lap is not None:
                lap.mark("round.momentum")
        return clean, losses
