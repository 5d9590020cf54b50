"""The TiFL server: profiling + tiering + tier scheduling on the FL loop.

:class:`TiFLServer` extends :class:`repro.fl.server.FLServer` exactly the
way Figure 2 extends the Google FL architecture: a profiler & tiering
module runs first (excluding dropouts), a tier scheduler replaces the
random selector, and -- for the adaptive policy -- the global model is
evaluated on every tier's held-out data after each round to maintain the
``A_t^r`` table that drives ``ChangeProbs``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

import numpy as np

from repro.config import PAPER_SYNTHETIC_TRAINING, TrainingConfig
from repro.data.datasets import Dataset
from repro.execution import EvalRequest
from repro.fl.history import RoundRecord
from repro.fl.server import FLServer
from repro.nn.model import Sequential
from repro.rng import RngLike, make_rng, spawn
from repro.simcluster.faults import FaultInjector
from repro.simcluster.latency import CohortLatencySampler, resolve_latency_stream
from repro.simcluster.population import PopulationStore
from repro.tifl.adaptive import AdaptiveTierPolicy
from repro.tifl.credits import allocate_credits
from repro.tifl.policies import StaticTierPolicy
from repro.tifl.profiler import ProfilingResult, profile_clients
from repro.telemetry.log import get_logger
from repro.tifl.scheduler import TierPolicy, TierScheduler
from repro.tifl.tiering import TierAssignment, build_tiers

__all__ = ["TiFLServer"]

logger = get_logger(__name__)

PolicySpec = Union[str, TierPolicy]


class TiFLServer(FLServer):
    """Tier-based federated-learning server.

    Parameters
    ----------
    policy:
        A :class:`TierPolicy` instance, or a Table 1 preset name
        (``"slow" | "uniform" | "random" | "fast" | "fast1" | "fast2" |
        "fast3"``) resolved against ``policy_family``, or ``"adaptive"``
        for Algorithm 2 (requires ``total_rounds`` for credit allocation).
    num_tiers:
        Requested tier count ``m`` (realised count may be smaller).
    sync_rounds / tmax:
        Profiling parameters (Section 4.2).
    charge_profiling:
        When true, the profiling campaign's simulated duration is charged
        to the clock before training (the paper treats profiling as
        lightweight and excludes it; default False).
    tier_eval_every:
        Evaluate per-tier accuracies every this many rounds (the adaptive
        policy consumes them; static policies skip the work by default).
    executor / workers:
        Client-execution backend and worker count, forwarded to
        :class:`~repro.fl.server.FLServer` (see :mod:`repro.execution`).
        Profiling and tier evaluation stay in the server process; only
        the local training passes run on the backend.
    """

    def __init__(
        self,
        clients: PopulationStore,
        model: Sequential,
        test_data: Dataset,
        clients_per_round: int,
        policy: PolicySpec = "uniform",
        policy_family: str = "cifar",
        num_tiers: int = 5,
        sync_rounds: int = 5,
        tmax: Optional[float] = None,
        tiering_method: str = "quantile",
        charge_profiling: bool = False,
        tier_eval_every: Optional[int] = None,
        total_rounds: Optional[int] = None,
        adaptive_interval: int = 20,
        credit_strategy: str = "speed_weighted",
        credit_slack: float = 1.25,
        training: TrainingConfig = PAPER_SYNTHETIC_TRAINING,
        fault: Optional[FaultInjector] = None,
        rng: RngLike = None,
        executor=None,
        workers: Optional[int] = None,
        latency_stream: Union[str, CohortLatencySampler, None] = None,
        **server_kwargs,
    ) -> None:
        base_rng = make_rng(rng)
        sched_rng, server_rng = spawn(base_rng, 2)
        # Resolved here (not in FLServer) because the profiling campaign
        # below runs before super().__init__; the instance is passed down
        # so profiler and round loop share one stream.
        latency_sampler = resolve_latency_stream(latency_stream, base_rng)

        # --- Step 1: profile & tier (Fig. 2's "Profiler & Tiering") ------
        self._profiled_rounds = 0
        self.profiling: ProfilingResult = profile_clients(
            clients,
            num_params=model.num_params(),
            sync_rounds=sync_rounds,
            tmax=tmax,
            epochs=training.epochs,
            fault=fault,
            latency_sampler=latency_sampler,
        )
        self._profiled_rounds += self.profiling.sync_rounds
        self.assignment: TierAssignment = build_tiers(
            self.profiling.mean_latencies,
            num_tiers=num_tiers,
            method=tiering_method,
        )
        clients.set_tier_assignment(self.assignment)

        # --- Step 2: resolve the tier policy ------------------------------
        realised = self.assignment.num_tiers
        self._policy_spec = policy
        self._policy_family = policy_family
        self._adaptive_interval = adaptive_interval
        self._credit_strategy = credit_strategy
        self._credit_slack = credit_slack
        self._total_rounds = total_rounds
        resolved = self._resolve_policy(policy, realised)

        scheduler = TierScheduler(
            self.assignment,
            resolved,
            clients_per_round=clients_per_round,
            rng=sched_rng,
        )
        self.clients_per_round = clients_per_round
        self._tiering_method = tiering_method
        self._num_tiers_requested = num_tiers

        if tier_eval_every is None:
            tier_eval_every = 1 if isinstance(resolved, AdaptiveTierPolicy) else 0
        if tier_eval_every < 0:
            raise ValueError(
                f"tier_eval_every must be non-negative, got {tier_eval_every}"
            )
        self.tier_eval_every = tier_eval_every

        self._warned_empty_holdouts = False
        super().__init__(
            clients=clients,
            model=model,
            selector=scheduler,
            test_data=test_data,
            training=training,
            fault=fault,
            rng=server_rng,
            executor=executor,
            workers=workers,
            latency_stream=latency_sampler,
            **server_kwargs,
        )
        if self.profiling.dropouts:
            self.exclude_clients(self.profiling.dropouts)
        if charge_profiling:
            self.clock.advance(self.profiling.profiling_time)

    # ------------------------------------------------------------------
    def _resolve_policy(self, policy: PolicySpec, realised_tiers: int) -> TierPolicy:
        if isinstance(policy, TierPolicy):
            return policy
        if policy == "adaptive":
            if self._total_rounds is None:
                raise ValueError(
                    "policy='adaptive' requires total_rounds for credit allocation"
                )
            credits = allocate_credits(
                realised_tiers,
                self._total_rounds,
                strategy=self._credit_strategy,
                tier_latencies=self.assignment.mean_latencies,
                slack=self._credit_slack,
            )
            return AdaptiveTierPolicy(
                realised_tiers,
                credits,
                interval=self._adaptive_interval,
            )
        return StaticTierPolicy.from_name(
            policy, family=self._policy_family, num_tiers=realised_tiers
        )

    @property
    def scheduler(self) -> TierScheduler:
        assert isinstance(self.selector, TierScheduler)
        return self.selector

    @property
    def tier_policy(self) -> TierPolicy:
        return self.scheduler.policy

    # ------------------------------------------------------------------
    def _eligible_tier_members(self) -> List[int]:
        """Tier members with usable holdouts, warn-logging the rest once.

        Clients with empty holdouts cannot contribute a signal; they are
        excluded from the tier-mean denominator (a tier whose every
        member lacks a holdout is simply absent from the result), and the
        exclusion is logged once per run rather than silently skipped.
        """
        eligible: List[int] = []
        no_holdout: List[int] = []
        # Read the precomputed holdout-size column instead of
        # materialising every tier member.  Per-tier member order is the
        # eval request order (and hence any executor-side batching).
        excluded = np.fromiter(self.excluded, dtype=np.int64)
        for tier in self.assignment.tiers:
            members = np.asarray(tier.client_ids, dtype=np.int64)
            members = members[~np.isin(members, excluded)]
            has_holdout = self.clients.holdout_size[members] > 0
            eligible.extend(int(c) for c in members[has_holdout])
            no_holdout.extend(int(c) for c in members[~has_holdout])
        if no_holdout and not self._warned_empty_holdouts:
            self._warned_empty_holdouts = True
            logger.warning(
                "tier evaluation: %d client(s) have no holdout data and are "
                "excluded from the per-tier accuracy means for this run: %s "
                "(construct clients with holdout_fraction > 0 to include them)",
                len(no_holdout),
                sorted(no_holdout),
            )
        return eligible

    def _tier_means(self, accs: Dict[int, float]) -> Dict[int, float]:
        """Pool per-client accuracies into per-tier means ``A_t^r``."""
        out: Dict[int, float] = {}
        for tier in self.assignment.tiers:
            member_accs = [accs[cid] for cid in tier.client_ids if cid in accs]
            if member_accs:
                out[tier.index] = float(np.mean(member_accs))
        return out

    def evaluate_tiers(
        self, flat_weights: Optional[np.ndarray] = None
    ) -> Dict[int, float]:
        """Per-tier accuracy ``A_t^r``: mean holdout accuracy over members.

        Each client evaluates ``flat_weights`` (default: the current
        global weights) on its *local* holdout -- no raw data leaves the
        client, preserving the privacy property.  All eligible members
        across every tier are batched into **one**
        :meth:`~repro.execution.ClientExecutor.evaluate_cohort` call, so
        tier evaluation parallelises exactly like training.
        """
        if flat_weights is None:
            flat_weights = self.global_weights
        accs = self.executor.evaluate_cohort(
            [EvalRequest(cid) for cid in self._eligible_tier_members()],
            flat_weights,
        )
        return self._tier_means(accs)

    # -- round-engine hooks (see repro.fl.engine) ----------------------
    def _tier_eval_due(self, round_idx: int) -> bool:
        return bool(self.tier_eval_every) and round_idx % self.tier_eval_every == 0

    def _stage_eval(self, ctx) -> None:
        super()._stage_eval(ctx)
        if self._tier_eval_due(ctx.round_idx):
            ctx.tier_accuracies = self.evaluate_tiers(ctx.eval_weights)

    def _record_extras(self, ctx, record: RoundRecord) -> None:
        if ctx.tier_accuracies is not None:
            record.tier_accuracies = ctx.tier_accuracies
            self.scheduler.record_tier_accuracies(
                record.round_idx, ctx.tier_accuracies
            )

    # ------------------------------------------------------------------
    def reprofile(
        self, sync_rounds: Optional[int] = None, tmax: Optional[float] = None
    ) -> TierAssignment:
        """Re-run profiling + tiering (Section 4.2's periodic re-tiering).

        Rebuilds the scheduler in place, preserving the policy object (so
        adaptive credits / probabilities survive when tier count is
        unchanged; otherwise the policy is re-resolved from its spec).
        """
        # The offset exists to stop the round-addressed v2 stream from
        # re-drawing the first campaign's noise.  The v1 path must keep
        # the seed's round indices (-1..-sync_rounds every campaign):
        # round-windowed fault injectors are calibrated against them.
        offset = self._profiled_rounds if self.latency_sampler else 0
        self.profiling = profile_clients(
            self.clients,
            num_params=self.num_params,
            sync_rounds=sync_rounds or self.profiling.sync_rounds,
            tmax=tmax,
            epochs=self.training.epochs,
            fault=self.fault,
            latency_sampler=self.latency_sampler,
            round_offset=offset,
            client_ids=np.setdiff1d(  # ascending
                self.clients.client_ids,
                np.fromiter(self.excluded, dtype=np.int64),
            ),
        )
        self._profiled_rounds += self.profiling.sync_rounds
        new_assignment = build_tiers(
            self.profiling.mean_latencies,
            num_tiers=self._num_tiers_requested,
            method=self._tiering_method,
        )
        if self.profiling.dropouts:
            self.exclude_clients(self.profiling.dropouts)

        old_policy = self.scheduler.policy
        if (
            isinstance(old_policy, TierPolicy)
            and getattr(old_policy, "num_tiers", None) == new_assignment.num_tiers
        ):
            policy = old_policy
        else:
            policy = self._resolve_policy(self._policy_spec, new_assignment.num_tiers)
        self.assignment = new_assignment
        self.clients.set_tier_assignment(new_assignment)
        self.selector = TierScheduler(
            new_assignment,
            policy,
            clients_per_round=self.clients_per_round,
            rng=self._rng,
        )
        return new_assignment

    def expected_tier_latencies(self) -> np.ndarray:
        """Profiled per-tier mean latencies (input to Eq. 6)."""
        return self.assignment.mean_latencies
