"""The synchronous federated-learning server (Alg. 1).

One :class:`FLServer` drives the full round loop, decomposed into the
staged **round engine** phases (see :mod:`repro.fl.engine` for the data
contract between stages)::

    for r in range(N):
        ctx = select(r)        # cohort + simulated latencies (line 3)
        broadcast(ctx)         # fix the weights the cohort trains from
        train(ctx)             # executor trains the cohort (lines 4-7)
        aggregate(ctx)         # w_{r+1} = fedavg(updates); clock += Eq. 1
        eval(ctx)              # accuracy of the post-round snapshot
        record(ctx)            # history append + selector feedback

Client training is *real* gradient descent; the parallelism of the
physical testbed is simulated by advancing the clock by the cohort's
maximum response latency rather than the sum.  TiFL's server
(:class:`repro.tifl.server.TiFLServer`) subclasses this loop, swapping in
the tier scheduler and adding per-tier evaluation -- by design the loop is
selection-agnostic (the paper's "non-intrusive" claim).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import telemetry
from repro.config import PAPER_SYNTHETIC_TRAINING, TrainingConfig
from repro.data.datasets import Dataset
from repro.execution import ClientExecutor, TrainRequest, resolve_executor
from repro.fl.aggregator import HierarchicalAggregator, fedavg
from repro.fl.engine import RoundContext
from repro.fl.history import RoundRecord, TrainingHistory
from repro.fl.selection import ClientSelector, SelectionPlan
from repro.nn.model import Sequential
from repro.rng import RngLike, make_rng
from repro.simcluster.clock import SimulatedClock
from repro.simcluster.faults import FaultInjector
from repro.simcluster.latency import CohortLatencySampler, resolve_latency_stream
from repro.simcluster.population import PopulationStore

__all__ = ["FLServer"]

EpochsFor = Callable[[int, int], int]  # (client_id, round_idx) -> local epochs


class FLServer:
    """Synchronous FedAvg server over simulated clients.

    Parameters
    ----------
    clients:
        The full client pool ``K``, a
        :class:`~repro.simcluster.population.PopulationStore` (what every
        scenario builder returns): clients materialise lazily on
        selection and the round loop runs population-free (vectorised
        availability / selection off the store's columns).
    model:
        The global model; also used as the shared training/eval workspace.
    selector:
        Cohort selection policy (vanilla random, over-selection, or TiFL's
        tier scheduler).
    test_data:
        Global held-out set for the reported accuracy.
    training:
        Local-training hyperparameters (see :class:`TrainingConfig`).
    aggregator:
        Optional hierarchical master/child aggregator; flat FedAvg when
        omitted (both produce identical weights).
    fault:
        Optional fault injector applied to client response latencies.
    dropout_timeout:
        Round-latency charge for a client that never responds.  ``None``
        (default) charges the max *finite* latency -- i.e., the aggregator
        eventually gives up on the client without extending the round --
        and a round in which *every* client drops raises.  With a finite
        timeout, a fully-dropped round is tolerated: it costs
        ``dropout_timeout`` seconds and leaves the global model unchanged.
    eval_every:
        Evaluate global accuracy every this many rounds (1 = every round).
    executor / workers:
        Client-execution backend (a name from
        :data:`~repro.execution.EXECUTOR_BACKENDS` or a ready
        :class:`~repro.execution.ClientExecutor`) and worker count.
        ``None`` defers to ``training.executor`` / ``training.workers``.
        The v1 backends are bit-identical (see :mod:`repro.execution`);
        the parallel ones only change wall-clock time.  Call :meth:`close`
        (or use the server as a context manager) to release workers.
    latency_stream:
        Versioned latency-RNG design (see :mod:`repro.simcluster.latency`).
        ``None`` / ``"per-client"`` (default) keeps the seed-compatible v1
        per-client streams; ``"cohort"`` (or a ready
        :class:`~repro.simcluster.latency.CohortLatencySampler`) switches
        to the v2 round-addressed cohort stream, which samples a whole
        cohort's latencies in two vectorised draws.  v2 changes every
        sampled latency relative to v1 (a versioned break, not a bug);
        each version is internally deterministic and regression-pinned.
    """

    def __init__(
        self,
        clients: PopulationStore,
        model: Sequential,
        selector: ClientSelector,
        test_data: Dataset,
        training: TrainingConfig = PAPER_SYNTHETIC_TRAINING,
        aggregator: Optional[HierarchicalAggregator] = None,
        fault: Optional[FaultInjector] = None,
        dropout_timeout: Optional[float] = None,
        eval_every: int = 1,
        epochs_for: Optional[EpochsFor] = None,
        clock: Optional[SimulatedClock] = None,
        rng: RngLike = None,
        executor: Union[str, ClientExecutor, None] = None,
        workers: Optional[int] = None,
        latency_stream: Union[str, CohortLatencySampler, None] = None,
    ) -> None:
        if not hasattr(clients, "available_ids"):
            raise TypeError(
                "clients must be a PopulationStore (build_scenario returns "
                f"one as Scenario.clients), got {type(clients).__name__}"
            )
        if eval_every <= 0:
            raise ValueError(f"eval_every must be positive, got {eval_every}")
        if dropout_timeout is not None and dropout_timeout <= 0:
            raise ValueError(
                f"dropout_timeout must be positive, got {dropout_timeout}"
            )
        self.clients = clients
        self.model = model
        self.selector = selector
        self.test_data = test_data
        self.training = training
        self.aggregator = aggregator
        self.fault = fault
        self.dropout_timeout = dropout_timeout
        self.eval_every = eval_every
        # The default closes over the config, not ``self``: a reference
        # cycle would keep a finished federation's data alive until a
        # full cyclic collection.
        self.epochs_for: EpochsFor = epochs_for or (
            lambda cid, r: training.epochs
        )
        self.clock = clock or SimulatedClock()
        self._rng = make_rng(rng)
        self.latency_sampler: Optional[CohortLatencySampler] = resolve_latency_stream(
            latency_stream, self._rng
        )
        self.global_weights = model.get_flat_weights()
        self.history = TrainingHistory()
        self.excluded: set = set()  # permanently excluded (profiler dropouts)
        self.executor: ClientExecutor = resolve_executor(
            executor if executor is not None else training.executor,
            workers if workers is not None else training.workers,
            endpoint=training.endpoint,
        )
        self.executor.bind(self.clients, self.model, self.training)
        # Ship-once: the global test set becomes resident in the workers
        # (shared memory / BIND_EVAL), so evaluate_model can shard there.
        self.executor.bind_eval_data(self.test_data.x, self.test_data.y)

    # ------------------------------------------------------------------
    @property
    def num_params(self) -> int:
        return self.model.num_params()

    def available_clients(self) -> Sequence[int]:
        """Ids eligible for selection (pool minus permanent exclusions).

        An ascending int64 array straight off the availability column:
        one vectorised scan, no per-client objects.
        """
        return self.clients.available_ids(self.excluded)

    def exclude_clients(self, client_ids: Sequence[int]) -> None:
        """Permanently remove clients (profiling dropouts, Sec. 4.2)."""
        self.excluded.update(int(c) for c in client_ids)
        if len(self.available_clients()) == 0:
            raise ValueError("excluding these clients would empty the pool")

    def evaluate_global(self) -> float:
        """Accuracy of the current global weights on the global test set.

        Routed through the executor's :meth:`~repro.execution.ClientExecutor.
        evaluate_model` entry point so evaluation uses the same batched
        machinery as training (backends whose workers hold the bound
        test set shard it, bit-identically; the rest evaluate in the
        server process).
        """
        return self.executor.evaluate_model(
            self.global_weights, self.test_data.x, self.test_data.y
        )

    # ------------------------------------------------------------------
    def _measure_latencies(
        self, plan: SelectionPlan, round_idx: int
    ) -> Dict[int, float]:
        epochs = {cid: self.epochs_for(cid, round_idx) for cid in plan.clients}
        if self.latency_sampler is not None:
            # v2: one round-addressed stream, two vectorised noise blocks.
            cohort = [self.clients[cid] for cid in plan.clients]
            return self.latency_sampler.sample_cohort(
                cohort,
                self.num_params,
                epochs=epochs,
                round_idx=round_idx,
                fault=self.fault,
            )
        return {
            cid: self.clients[cid].response_latency(
                self.num_params,
                epochs=epochs[cid],
                round_idx=round_idx,
                fault=self.fault,
            )
            for cid in plan.clients
        }

    def _resolve_cohort(
        self, plan: SelectionPlan, latencies: Dict[int, float]
    ) -> Tuple[List[int], List[int], float]:
        """Apply dropout / over-selection semantics.

        Returns ``(kept_ids, dropped_ids, round_latency)``.
        """
        responders = [c for c in plan.clients if np.isfinite(latencies[c])]
        dropped = [c for c in plan.clients if not np.isfinite(latencies[c])]
        if not responders:
            if self.dropout_timeout is None:
                raise RuntimeError(
                    "every selected client dropped out this round and no "
                    "dropout_timeout is configured; the synchronous round "
                    "cannot complete"
                )
            # A fully-dropped round: the aggregator waits out the timeout
            # and proceeds with the global model unchanged.
            return [], dropped, self.dropout_timeout
        if plan.keep is not None:
            kept = sorted(responders, key=lambda c: latencies[c])[: plan.keep]
        else:
            kept = responders
        round_latency = max(latencies[c] for c in kept)
        if dropped and self.dropout_timeout is not None:
            round_latency = max(round_latency, self.dropout_timeout)
        return kept, dropped, round_latency

    # ------------------------------------------------------------------
    # the staged round engine (see repro.fl.engine for the contract)
    # ------------------------------------------------------------------
    def _stage_select(self, round_idx: int) -> RoundContext:
        """Select phase: cohort, simulated latencies, dropout semantics."""
        ctx = RoundContext(round_idx=round_idx)
        ctx.plan = self.selector.select(round_idx, self.available_clients())
        unknown = [c for c in ctx.plan.clients if c not in self.clients]
        if unknown:
            raise KeyError(f"selector chose unknown clients: {unknown}")
        ctx.latencies = self._measure_latencies(ctx.plan, round_idx)
        ctx.kept, ctx.dropped, ctx.round_latency = self._resolve_cohort(
            ctx.plan, ctx.latencies
        )
        return ctx

    def _stage_broadcast(self, ctx: RoundContext) -> None:
        """Broadcast phase: fix the weights the cohort trains from.

        The executor performs the physical transport (shared memory /
        BROADCAST frame) inside ``train_cohort``; this stage pins the
        contract that round ``r`` trains from the pre-round vector.
        """
        ctx.broadcast_weights = self.global_weights

    def _stage_train(self, ctx: RoundContext) -> None:
        """Train phase (lines 4-7 of Alg. 1): the executor trains the
        cohort (possibly in parallel) and hands updates back in request
        order, so the FedAvg summation is bit-identical across backends."""
        requests = [
            TrainRequest(cid, epochs=self.epochs_for(cid, ctx.round_idx))
            for cid in ctx.kept
        ]
        ctx.updates = self.executor.train_cohort(
            ctx.round_idx, requests, ctx.broadcast_weights,
            latencies=ctx.latencies,
        )

    def _stage_aggregate(self, ctx: RoundContext) -> None:
        """Aggregate phase: FedAvg (line 8) + the Eq. 1 clock advance.

        ``ctx.eval_weights`` is the post-round global vector the eval
        phase scores: aggregation always produces a *fresh* array (and a
        fully-dropped round carries the previous, never-mutated vector
        over).
        """
        new_weights: List[np.ndarray] = [u.flat_weights for u in ctx.updates]
        sizes: List[float] = [float(u.num_samples) for u in ctx.updates]
        if new_weights:
            if self.aggregator is not None:
                self.global_weights = self.aggregator.aggregate(new_weights, sizes)
            else:
                self.global_weights = fedavg(new_weights, sizes)
        # else: fully-dropped round -- weights carry over unchanged
        ctx.eval_weights = self.global_weights
        self.clock.advance(ctx.round_latency)
        self.clock.mark()
        ctx.sim_time = self.clock.now

    def _eval_due(self, round_idx: int) -> bool:
        return round_idx % self.eval_every == 0

    def _stage_eval(self, ctx: RoundContext) -> None:
        """Eval phase: accuracy of the post-round weights.  Subclasses
        extend it with their extras (TiFL's per-tier accuracies)."""
        if self._eval_due(ctx.round_idx):
            ctx.accuracy = self.executor.evaluate_model(
                ctx.eval_weights, self.test_data.x, self.test_data.y
            )

    def _stage_record(self, ctx: RoundContext) -> RoundRecord:
        """Record phase: commit the round to history + selector feedback."""
        record = RoundRecord(
            round_idx=ctx.round_idx,
            round_latency=ctx.round_latency,
            sim_time=ctx.sim_time,
            accuracy=ctx.accuracy,
            selected=tuple(ctx.plan.clients),
            tier=ctx.plan.tier,
            dropped=tuple(ctx.dropped),
        )
        ctx.record = record
        self._record_extras(ctx, record)
        self.selector.observe(
            ctx.round_idx, ctx.plan, ctx.round_latency, ctx.accuracy
        )
        self.history.append(record)
        return record

    def _record_extras(self, ctx: RoundContext, record: RoundRecord) -> None:
        """Subclass hook: attach eval extras to the record (TiFL)."""

    def run_round(self, round_idx: int) -> RoundRecord:
        """Execute one synchronous global round.

        Each phase runs inside a telemetry span (``fl.select`` ..
        ``fl.record``, attr ``round``) -- no-ops unless collection is
        on, and never touching RNG either way.
        """
        r = round_idx
        with telemetry.span("fl.round", round=r):
            with telemetry.span("fl.select", round=r):
                ctx = self._stage_select(round_idx)
            with telemetry.span("fl.broadcast", round=r):
                self._stage_broadcast(ctx)
            with telemetry.span("fl.train", round=r):
                self._stage_train(ctx)
            with telemetry.span("fl.aggregate", round=r):
                self._stage_aggregate(ctx)
            with telemetry.span("fl.eval", round=r):
                self._stage_eval(ctx)
            with telemetry.span("fl.record", round=r):
                return self._stage_record(ctx)

    def run(self, num_rounds: int, start_round: int = 0) -> TrainingHistory:
        """Run ``num_rounds`` rounds; returns the accumulated history."""
        if num_rounds <= 0:
            raise ValueError(f"num_rounds must be positive, got {num_rounds}")
        with telemetry.span("fl.run", rounds=num_rounds):
            for r in range(start_round, start_round + num_rounds):
                self.run_round(r)
        if telemetry.enabled():
            # Observability payload only -- nothing that feeds a
            # fingerprint or an equality gate reads this field.
            self.history.telemetry = telemetry.snapshot()
        return self.history

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release executor workers (no-op for the serial backend)."""
        self.executor.close()

    def __enter__(self) -> "FLServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
